import dataclasses

import pytest

import effrew.cli
import effrew.theories
from effrew.rewrite import make_rule, normalize, pattern_vars
from effrew.rpo import Precedence, certify_ruleset
from effrew.signature import EffectDecl, Signature
from effrew.terms import Pure, Var, eff, fn, print_term
from effrew.theories import (
    Theory,
    TheoryError,
    builtin,
    builtin_names,
    compose,
    load_theory,
    numeral_value,
    parse_theory,
    peano_numeral,
)
from effrew.typecheck import infer_rule_types
from termgen import PAR6_EFFECTS


def rule_names(theory):
    return [r.name for r in theory.rules]


# -- builtin contents ---------------------------------------------------------


def test_builtin_names():
    assert set(builtin_names()) == {"global-state", "nondet", "par", "retry", "peano"}
    with pytest.raises(TheoryError):
        builtin("no-such-theory")


def test_global_state_rules(gs):
    names = rule_names(gs)
    assert set(names) == {
        "assign-get.0",
        "assign-get.1",
        "assign-assign.0.0",
        "assign-assign.0.1",
        "assign-assign.1.0",
        "assign-assign.1.1",
        "get-get.0",
        "get-get.1",
    }
    assert gs.precedence == Precedence()
    get = gs.signature.get("get")
    assert get.arity == 2
    assign = gs.signature.get("assign")
    assert assign.param_domain == (0, 1)


def test_global_state_custom_domain():
    gs3 = builtin("global-state", domain=(1, 2, 3))
    assert gs3.signature.get("get").arity == 3
    assert len(list(gs3.rules)) == 3 + 9 + 3


def test_global_state_rule_shapes(gs):
    from effrew.rewrite import instantiate, match_pattern

    def apply(rule_name, term):
        rule = next(r for r in gs.rules if r.name == rule_name)
        bindings = match_pattern(rule.lhs, term, rule.value_vars)
        assert bindings is not None, rule_name
        return instantiate(rule.rhs, bindings)

    a, b, c = Pure(Var("a")), Pure(Var("b")), Pure(Var("c"))
    # reading right after writing state 1 takes the branch for 1
    t = eff("assign", eff("get", a, b), params=(1,))
    assert apply("assign-get.1", t) == eff("assign", b, params=(1,))
    t0 = eff("assign", eff("get", a, b), params=(0,))
    assert apply("assign-get.0", t0) == eff("assign", a, params=(0,))
    # a later write wins, including a rewrite of the same value
    t = eff("assign", eff("assign", a, params=(0,)), params=(1,))
    assert apply("assign-assign.1.0", t) == eff("assign", a, params=(0,))
    t = eff("assign", eff("assign", a, params=(0,)), params=(0,))
    assert apply("assign-assign.0.0", t) == eff("assign", a, params=(0,))
    # two reads in a row collapse diagonally
    t = eff("get", eff("get", a, b), c)
    assert apply("get-get.0", t) == eff("get", a, c)
    t = eff("get", a, eff("get", b, c))
    assert apply("get-get.1", t) == eff("get", a, c)


def test_global_state_chain_example():
    gs = builtin("global-state", domain=(1, 2))
    t = eff(
        "assign",
        eff("get", eff("assign", Pure(Var("a")), params=(2,)), Pure(Var("b"))),
        params=(1,),
    )
    nf, trace = normalize(t, list(gs.rules))
    assert print_term(nf) == "(eff assign (2) (pure a))"
    assert len(trace.steps) >= 2


def test_nondet_contents(nondet):
    assert rule_names(nondet) == ["or-assoc"]
    assert nondet.precedence == Precedence()


def test_par_contents(par):
    names = rule_names(par)
    assert "join-par" in names
    expected_commutes = {
        f"par-{side}.{e}" for side in ("left", "right") for e in ("e1", "e2", "join")
    }
    assert expected_commutes <= set(names)
    assert len(names) == 7
    pairs = par.precedence.pairs
    assert (("par", ()), ("e1", ())) in pairs
    assert (("par", ()), ("e2", ())) in pairs
    assert (("par", ()), ("join", ())) in pairs


def test_par_join_rule_is_extended(par):
    rule = next(r for r in par.rules if r.name == "join-par")
    assert rule.extended
    assert rule.value_vars == {"v", "w"}


def test_par_without_join():
    p = builtin("par", join=False)
    names = rule_names(p)
    assert "join-par" not in names
    assert len(names) == 4


def test_schema_expansion_computed_once():
    th = builtin("par")
    assert th.rules is th.rules
    assert th.precedence is th.precedence
    # the cached expansions are not fields: a copy that has not computed
    # them yet is still equal, with the same hash
    fresh = dataclasses.replace(th)
    assert th == fresh and hash(th) == hash(fresh)


def test_retry_contents(retry):
    names = rule_names(retry)
    assert names == ["retry-zero", "retry-succ"]
    assert (("retry", ()), ("request", ())) in retry.precedence.pairs
    req = retry.signature.get("request")
    assert req.arity == 3
    assert retry.signature.get("retry").kind == "fn"


def test_peano_contents(peano):
    assert rule_names(peano) == ["plus-zero", "plus-succ"]
    assert (("plus", ()), ("succ", ())) in peano.precedence.pairs


def test_peano_numerals():
    five = peano_numeral(5)
    assert numeral_value(five) == 5
    assert numeral_value(fn("succ", fn("zero"))) == 1
    assert numeral_value(Var("x")) is None
    assert numeral_value(fn("succ", Var("x"))) is None


def test_peano_addition(peano):
    t = fn("plus", peano_numeral(3), peano_numeral(2))
    nf, _ = normalize(t, list(peano.rules))
    assert numeral_value(nf) == 5


def test_retry_replicates_requests(retry):
    base = eff("request", Var("t"), Var("s1"), Var("s2"))
    t = fn("retry", peano_numeral(2), base)
    nf, trace = normalize(t, list(retry.rules))
    expected = eff(
        "request",
        eff("request", Var("t"), Var("s1"), Var("s2")),
        Var("s1"),
        Var("s2"),
    )
    assert nf == expected
    assert len(trace.steps) == 3


def test_retry_zero_returns_continuation(retry):
    t = fn("retry", peano_numeral(0), eff("request", Var("t"), Var("s1"), Var("s2")))
    nf, trace = normalize(t, list(retry.rules))
    assert nf == Var("t")
    assert len(trace.steps) == 1


# -- rule well-formedness invariants over all builtins --------------------------


def test_all_builtin_rules_type(gs, nondet, par, retry, peano):
    for theory in (gs, nondet, par, retry, peano):
        for rule in theory.rules:
            if rule.extended:
                continue
            infer_rule_types(theory.signature, rule.lhs, rule.rhs, pattern_vars(rule.lhs))


def test_all_builtins_certify_under_declared_precedence(gs, nondet, par, retry, peano):
    for theory in (gs, nondet, par, retry, peano):
        assert certify_ruleset(theory.precedence, list(theory.rules)).overall


# builtin() does not validate what it builds: its rules are constants, and
# options only choose symbol names, arities and domain values, so this grid
# is where the builtins are checked
BUILTIN_OPTIONS = [
    *[("global-state", {"domain": d}) for d in ((0,), (1, 2, 3), ("a", "b"), (0, "a"))],
    *[
        ("par", {"effects": effects, "join": join})
        for effects in ((("e", 0),), (("e", 1),), (("e", 3),), PAR6_EFFECTS)
        for join in (True, False)
    ],
    *[(name, {}) for name in builtin_names()],
]


@pytest.mark.parametrize("name, options", BUILTIN_OPTIONS)
def test_builtins_validate_under_options(name, options):
    effrew.theories._validate(builtin(name, **options))


@pytest.mark.parametrize(
    "name, options, message",
    [
        # values that print alike would give two rules named assign-get.0
        ("global-state", {"domain": (0, "0")}, "bad options .* repeated values"),
        ("global-state", {"domain": (0, 0)}, "bad options .* repeated values"),
        # both (a.b, c) and (a, b.c) would be named assign-assign.a.b.c
        ("global-state", {"domain": ("a.b", "c", "a", "b.c")}, "must not contain '.'"),
        ("par", {"effects": (("par", 2),)}, "bad options .* duplicate symbol name: par"),
        ("par", {"colour": "red"}, "bad options .*colour"),
    ],
)
def test_builtin_bad_options(name, options, message):
    with pytest.raises(TheoryError, match=message):
        builtin(name, **options)


# -- theory files ---------------------------------------------------------------

NONDET_FILE = """
; binary choice
(theory nondet
  (base val)
  (effect or 2)
  (rule or-assoc
    (eff or () (eff or () s1 s2) s3)
    (eff or () s1 (eff or () s2 s3))))
"""


def test_parse_theory_matches_builtin(nondet):
    parsed = parse_theory(NONDET_FILE)
    assert parsed == nondet


def test_load_theory(tmp_path, nondet):
    p = tmp_path / "nondet.theory"
    p.write_text(NONDET_FILE, encoding="utf-8")
    assert load_theory(str(p)) == nondet


def test_parse_theory_with_domain_and_precedence():
    text = """
    (theory counters
      (base val)
      (domain cell (0 1))
      (effect tick cell 1)
      (effect tock 2)
      (rule tock-tick.0
        (eff tock () (eff tick (0) t) u)
        (eff tick (0) (eff tock () t u)))
      (precedence (tock > tick)))
    """
    th = parse_theory(text)
    assert th.name == "counters"
    assert th.signature.get("tick").param_domain == (0, 1)
    pairs = th.precedence.pairs
    assert (("tock", ()), ("tick", (0,))) in pairs
    assert (("tock", ()), ("tick", (1,))) in pairs


def test_parse_theory_extended_rule():
    text = """
    (theory joiny
      (base val)
      (effect box 1)
      (function wrap (val -> val))
      (rule box-open (eff box () v) (pure (fn wrap v)) extended))
    """
    th = parse_theory(text)
    [rule] = list(th.rules)
    assert rule.extended
    assert rule.value_vars == {"v"}


def test_parse_theory_errors():
    with pytest.raises(TheoryError):
        parse_theory("(not-a-theory)")
    with pytest.raises(TheoryError):
        parse_theory("(theory t (mystery-clause))")
    # rhs invents a variable
    with pytest.raises(TheoryError):
        parse_theory(
            """(theory t (base val) (effect e 1)
                 (rule bad (eff e () x) (eff e () y)))"""
        )
    # bare-variable lhs
    with pytest.raises(TheoryError):
        parse_theory("(theory t (base val) (rule bad x x))")
    # unknown symbol in a rule
    with pytest.raises(TheoryError):
        parse_theory("(theory t (base val) (rule bad (eff e () x) (eff e () x)))")
    # ill-typed rule: effect argument where a value is needed
    with pytest.raises(TheoryError):
        parse_theory(
            """(theory t (base val) (effect e 1) (function f (val -> val))
                 (rule bad (eff e () (fn f x)) (eff e () (pure x))))"""
        )
    # self-precedence
    with pytest.raises(TheoryError):
        parse_theory(
            """(theory t (base val) (effect e 1)
                 (precedence (e > e)))"""
        )
    # precedence over unknown symbol
    with pytest.raises(TheoryError):
        parse_theory("(theory t (base val) (precedence (a > b)))")
    # duplicate rule names
    with pytest.raises(TheoryError):
        parse_theory(
            """(theory t (base val) (effect e 1)
                 (rule r (eff e () (eff e () x)) (eff e () x))
                 (rule r (eff e () (eff e () x)) (eff e () x)))"""
        )


# -- composition -----------------------------------------------------------------


def test_compose_disjoint(retry, peano):
    both = compose(retry, peano)
    assert both.name == "retry+peano"
    # nat, zero, succ are shared and merge silently
    assert set(rule_names(both)) == {
        "retry-zero",
        "retry-succ",
        "plus-zero",
        "plus-succ",
    }
    t = fn("retry", fn("plus", peano_numeral(1), peano_numeral(1)), eff("request", Var("t"), Var("a"), Var("b")))
    nf, _ = normalize(t, list(both.rules))
    expected = eff(
        "request",
        eff("request", Var("t"), Var("a"), Var("b")),
        Var("a"),
        Var("b"),
    )
    assert nf == expected


def test_compose_reexpands_schemas(par, nondet):
    both = compose(par, nondet)
    names = set(rule_names(both))
    # the commuting schema now also covers the or effect
    assert "par-left.or" in names
    assert "par-right.or" in names
    assert len(names) == 10
    pairs = both.precedence.pairs
    assert (("par", ()), ("or", ())) in pairs
    assert certify_ruleset(both.precedence, list(both.rules)).overall


def test_compose_conflicting_signature(gs):
    text = """
    (theory clash
      (base val)
      (effect assign 2))
    """
    with pytest.raises(TheoryError):
        compose(gs, parse_theory(text))


def test_compose_duplicate_rule_names(nondet, peano):
    with pytest.raises(TheoryError):
        compose(nondet, parse_theory(NONDET_FILE))
    # the composition is checked as a whole: the first and third parts clash
    with pytest.raises(TheoryError, match="duplicate rule name: or-assoc"):
        compose(nondet, peano, parse_theory(NONDET_FILE))


def test_compose_checks_symbols_of_hand_built_rules(nondet):
    # typing checks a typed rule's symbols; an extended rule is not typed,
    # so its symbols are walked on their own
    sig = Signature((EffectDecl("e", 1),))
    for rule, message in (
        (make_rule("typed", eff("e", Var("t")), fn("nosuch", Var("t"))), "typed is ill-typed: .*nosuch"),
        (
            make_rule("ext", eff("e", Var("v")), Pure(fn("nosuch", Var("v"))), extended=True),
            "ext, right side: unknown symbol: nosuch",
        ),
    ):
        with pytest.raises(TheoryError, match=message):
            compose(Theory("hand", ("val",), (), sig, (rule,)), nondet)


def test_compose_precedences_must_agree(peano, nondet):
    text = """
    (theory contra
      (base nat)
      (function succ (nat -> nat))
      (function plus (nat nat -> nat))
      (precedence (succ > plus)))
    """
    with pytest.raises(TheoryError):
        compose(peano, parse_theory(text)).precedence
    with pytest.raises(TheoryError, match="precedence is inconsistent"):
        compose(peano, nondet, parse_theory(text))


def test_compose_validates_once(monkeypatch, gs, nondet, peano, retry):
    # a composition is validated as a whole, so each of its rules is typed once
    calls = {"validate": 0, "infer": 0}
    validate, infer = effrew.theories._validate, effrew.theories.infer_rule_types

    def counted_validate(theory):
        calls["validate"] += 1
        return validate(theory)

    def counted_infer(*args):
        calls["infer"] += 1
        return infer(*args)

    monkeypatch.setattr(effrew.theories, "_validate", counted_validate)
    monkeypatch.setattr(effrew.theories, "infer_rule_types", counted_infer)
    all_four = compose(gs, nondet, peano, retry)
    assert len(all_four.rules) == 13
    assert calls == {"validate": 1, "infer": 13}


def test_cli_check_validates_each_rule_once(monkeypatch, capsys):
    # the builtin parts are not validated on their own, and a typed rule's
    # symbols are checked by typing alone
    calls = {"_validate": 0, "infer_rule_types": 0, "check_symapp": 0}
    for attr in calls:
        def counted(*args, _attr=attr, _orig=getattr(effrew.theories, attr)):
            calls[_attr] += 1
            return _orig(*args)

        monkeypatch.setattr(effrew.theories, attr, counted)
    flags = ["--builtin", "global-state", "--builtin", "nondet", "--builtin", "peano", "--builtin", "retry"]
    assert effrew.cli.main(["check", *flags, "--var", "v:val", "--term", "(pure v)"]) == 0
    assert capsys.readouterr().out == "(E val)\n"
    assert calls == {"_validate": 1, "infer_rule_types": 13, "check_symapp": 0}


def test_compose_is_associative(par, nondet, gs):
    flat = compose(par, nondet, gs)
    nested = compose(compose(par, nondet), gs)
    assert flat.name == nested.name == "par+nondet+global-state"
    assert rule_names(flat) == rule_names(nested)
    assert flat.signature == nested.signature
    assert flat.precedence == nested.precedence
    assert flat == nested
