import json
import random
import time
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effrew.rewrite
from effrew.rewrite import (
    FuelExhausted,
    RewriteRule,
    RuleError,
    StaleRedexError,
    all_redexes,
    instantiate,
    left_nesting_measure,
    make_rule,
    match_pattern,
    ml_redexes,
    normalize,
    pattern_vars,
    position_str,
    step,
    symbolic_redexes,
)
from effrew.terms import (
    App,
    Lam,
    Let,
    Pure,
    SymApp,
    Var,
    alpha_eq,
    eff,
    fn,
    free_vars,
    iter_subterms,
    print_term,
    replace_at,
    subterm_at,
)
from effrew.theories import builtin, builtin_names, compose, numeral_value, peano_numeral
from oracles import naive_normal_forms, nesting_count_by_positions, reference_redexes
from termgen import PAR6_EFFECTS, TypedTermGen, gs_trace, or_tree, par_interleaving, symbolic_term

# -- the four metalanguage contractions --------------------------------------


def test_abs_beta():
    t = App(Lam("x", Pure(Var("x"))), Var("v"))
    [r] = ml_redexes(t)
    assert r.rule_name == "abs-beta"
    assert r.position == ()
    assert r.reduct == Pure(Var("v"))


def test_let_beta():
    t = Let("x", Pure(Var("v")), eff("or", Var("x"), Pure(Var("x"))))
    [r] = ml_redexes(t)
    assert r.rule_name == "let-beta"
    assert r.reduct == eff("or", Var("v"), Pure(Var("v")))


def test_let_assoc():
    inner = Let("x", Var("t1"), Var("t2"))
    t = Let("y", inner, Var("u"))
    [r] = ml_redexes(t)
    assert r.rule_name == "let-assoc"
    assert r.reduct == Let("x", Var("t1"), Let("y", Var("t2"), Var("u")))


def test_let_assoc_renames_inner_binder_when_it_would_capture():
    # The inner binder x occurs free in the outer body, so hoisting it
    # over that body must rename it first.
    inner = Let("x", Var("t1"), Var("t2"))
    t = Let("y", inner, eff("or", Var("y"), Var("x")))
    [r] = ml_redexes(t)
    out = r.reduct
    assert isinstance(out, Let)
    assert out.binder != "x"
    assert free_vars(out) == {"t1", "t2", "x"}
    assert alpha_eq(
        out,
        Let("q", Var("t1"), Let("y", Var("t2"), eff("or", Var("y"), Var("x")))),
    )


def test_eff_assoc():
    t = Let("x", eff("or", Var("a"), Var("b")), Var("u"))
    [r] = ml_redexes(t)
    assert r.rule_name == "eff-assoc"
    assert r.reduct == eff(
        "or",
        Let("x", Var("a"), Var("u")),
        Let("x", Var("b"), Var("u")),
    )


def test_eff_assoc_keeps_params():
    t = Let("x", eff("assign", Var("a"), params=(1,)), Pure(Var("x")))
    [r] = ml_redexes(t)
    assert r.reduct == eff("assign", Let("x", Var("a"), Pure(Var("x"))), params=(1,))


def test_eff_assoc_nullary_effect_drops_the_body():
    t = Let("x", SymApp("eff", "fail", (), ()), Pure(Var("x")))
    [r] = ml_redexes(t)
    assert r.rule_name == "eff-assoc"
    assert r.reduct == SymApp("eff", "fail", (), ())


def test_no_ml_redex_on_function_symbol_subject():
    # Only effect symbols commute with let.
    t = Let("x", fn("wrap", Var("a")), Pure(Var("x")))
    assert ml_redexes(t) == []


def test_ml_redexes_found_under_binders():
    inner = App(Lam("x", Var("x")), Var("v"))
    t = Lam("y", Pure(inner))
    [r] = ml_redexes(t)
    assert r.position == (0, 0)
    assert subterm_at(t, r.position) == inner


# -- user rules: construction and matching -----------------------------------


# a rule checks its own shape, so make_rule and the RewriteRule
# constructor must reject the same things
RULE_BUILDERS = (make_rule, RewriteRule)


def test_make_rule_rejects_var_lhs():
    for build in RULE_BUILDERS:
        with pytest.raises(RuleError):
            build("bad", Var("x"), Var("x"))


def test_make_rule_rejects_invented_rhs_vars():
    for build in RULE_BUILDERS:
        with pytest.raises(RuleError):
            build("bad", fn("g", Var("x")), fn("g", Var("y")))


def test_make_rule_rejects_binders_in_patterns():
    for build in RULE_BUILDERS:
        with pytest.raises(RuleError):
            build("bad", fn("g", Lam("x", Var("x"))), fn("g", Var("y")))
        with pytest.raises(RuleError):
            build("bad", fn("g", Var("x")), Let("y", Pure(Var("x")), Var("y")))


def test_make_rule_rejects_pure_on_plain_lhs():
    for build in RULE_BUILDERS:
        with pytest.raises(RuleError):
            build("bad", fn("g", Pure(Var("x"))), Var("x"))


def test_extended_rule_value_vars():
    lhs = eff("join", eff("par", Var("v"), Var("w")))
    rhs = Pure(fn("pair", Var("v"), Var("w")))
    rule = make_rule("join-par", lhs, rhs, extended=True)
    assert rule.extended
    assert rule.value_vars == {"v", "w"}
    direct = RewriteRule("join-par", lhs, rhs, extended=True)
    assert direct.value_vars == rule.value_vars
    assert direct == rule


def test_match_linear():
    pat = fn("f", Var("x"), Var("y"))
    sub = fn("f", fn("c"), Var("q"))
    assert match_pattern(pat, sub) == {"x": fn("c"), "y": Var("q")}


def test_match_nonlinear_requires_alpha_equal():
    pat = eff("or", Var("x"), Var("x"))
    assert match_pattern(pat, eff("or", Var("a"), Var("a"))) == {"x": Var("a")}
    assert match_pattern(pat, eff("or", Var("a"), Var("b"))) is None
    win = eff("or", Lam("p", Var("p")), Lam("q", Var("q")))
    got = match_pattern(pat, win)
    assert got is not None and alpha_eq(got["x"], Lam("p", Var("p")))


def test_match_respects_params():
    pat = eff("assign", Var("x"), params=(1,))
    assert match_pattern(pat, eff("assign", Pure(Var("v")), params=(1,))) == {
        "x": Pure(Var("v"))
    }
    assert match_pattern(pat, eff("assign", Pure(Var("v")), params=(2,))) is None


def test_value_var_matches_pure_or_var_only():
    vv = frozenset({"v"})
    pat = eff("join", Var("v"))
    assert match_pattern(pat, eff("join", Pure(fn("c"))), vv) == {"v": fn("c")}
    assert match_pattern(pat, eff("join", Var("y")), vv) == {"v": Var("y")}
    assert match_pattern(pat, eff("join", fn("c")), vv) is None
    assert match_pattern(pat, eff("join", eff("or", Var("a"), Var("b"))), vv) is None


def test_pattern_vars():
    assert pattern_vars(fn("f", Var("x"), fn("g", Var("y")))) == {"x", "y"}


# -- redex discovery and stepping ---------------------------------------------


def test_symbolic_redexes_at_all_positions(nondet):
    t = eff("or", eff("or", Pure(Var("a")), Pure(Var("b"))), Pure(Var("c")))
    redexes = symbolic_redexes(t, list(nondet.rules))
    assert [r.position for r in redexes] == [()]
    [r] = redexes
    assert r.rule_name == "or-assoc"
    assert r.reduct == eff(
        "or", Pure(Var("a")), eff("or", Pure(Var("b")), Pure(Var("c")))
    )


def test_all_redexes_sorted_and_ml_first(nondet):
    t = Let(
        "x",
        Pure(Var("v")),
        eff("or", eff("or", Var("x"), Var("x")), Var("x")),
    )
    redexes = all_redexes(t, list(nondet.rules))
    names = [(r.position, r.rule_name) for r in redexes]
    assert names[0] == ((), "let-beta")
    assert ((1,), "or-assoc") in names
    assert [r.position for r in redexes] == sorted(r.position for r in redexes)


def test_step_applies_at_position(nondet):
    t = Pure(App(Lam("x", Var("x")), Var("v")))
    [r] = all_redexes(t, [])
    assert r.position == (0,)
    assert step(t, r) == Pure(Var("v"))


def test_step_stale_redex_rejected():
    t = App(Lam("x", Var("x")), Var("v"))
    [r] = ml_redexes(t)
    other = Pure(Var("w"))
    with pytest.raises(StaleRedexError):
        step(other, r)


def test_position_str():
    assert position_str(()) == "/"
    assert position_str((0, 1)) == "/0/1"


# -- normalize ----------------------------------------------------------------


def test_normalize_simple(nondet):
    t = eff("or", eff("or", Pure(Var("a")), Pure(Var("b"))), Pure(Var("c")))
    nf, trace = normalize(t, list(nondet.rules))
    assert nf == eff("or", Pure(Var("a")), eff("or", Pure(Var("b")), Pure(Var("c"))))
    assert len(trace.steps) == 1
    assert trace.initial == t


def test_normalize_matches_naive_closure(nondet):
    rng = random.Random(77)
    rules = list(nondet.rules)
    for _ in range(25):
        t = or_tree(rng, 3)
        for strategy in ("leftmost-outermost", "rightmost-innermost"):
            nf, _ = normalize(t, rules, strategy=strategy)
            from effrew.terms import canonical_key

            assert canonical_key(nf) in naive_normal_forms(t, rules)


def test_normalize_strategy_validation():
    with pytest.raises(ValueError):
        normalize(Var("x"), [], strategy="widest-first")
    with pytest.raises(ValueError):
        normalize(Var("x"), [], strategy="random")  # missing seed
    with pytest.raises(ValueError):
        normalize(Var("x"), [], seed=3)  # seed without random


def test_normalize_random_reproducible(nondet):
    t = or_tree(random.Random(5), 4)
    rules = list(nondet.rules)
    nf1, tr1 = normalize(t, rules, strategy="random", seed=42)
    nf2, tr2 = normalize(t, rules, strategy="random", seed=42)
    assert nf1 == nf2
    assert [s.redex.position for s in tr1.steps] == [s.redex.position for s in tr2.steps]


def test_normalize_fuel_exhaustion():
    # g(x) -> g(g(x)) grows forever.
    rule = make_rule("grow", fn("g", Var("x")), fn("g", fn("g", Var("x"))))
    t = fn("g", fn("c"))
    with pytest.raises(FuelExhausted) as exc:
        normalize(t, [rule], fuel=7)
    assert len(exc.value.trace.steps) == 7
    assert exc.value.term is not None


def test_leftmost_outermost_picks_head_redex():
    t = App(Lam("x", Pure(Var("x"))), App(Lam("y", Var("y")), Var("v")))
    redexes = all_redexes(t, [])
    assert redexes[0].position == ()
    nf, trace = normalize(t, [])
    assert trace.steps[0].redex.position == ()
    assert nf == Pure(App(Lam("y", Var("y")), Var("v"))) or nf == Pure(Var("v"))


def test_rightmost_innermost_picks_deepest():
    t = App(Lam("x", Pure(Var("x"))), App(Lam("y", Var("y")), Var("v")))
    _, trace = normalize(t, [], strategy="rightmost-innermost")
    assert trace.steps[0].redex.position == (1,)


def test_strategies_agree_on_confluent_system(peano):
    from effrew.theories import peano_numeral

    t = fn("plus", peano_numeral(3), peano_numeral(2))
    rules = list(peano.rules)
    results = set()
    for strategy, seed in (
        ("leftmost-outermost", None),
        ("rightmost-innermost", None),
        ("random", 9),
    ):
        nf, _ = normalize(t, rules, strategy=strategy, seed=seed)
        results.add(print_term(nf))
    assert results == {print_term(peano_numeral(5))}


# -- trace export ---------------------------------------------------------------


def test_trace_export_lines(nondet):
    t = Let("x", Pure(Var("v")), eff("or", Var("x"), Var("x")))
    nf, trace = normalize(t, list(nondet.rules))
    lines = trace.export_lines()
    assert len(lines) == len(trace.steps) == 1
    assert lines[0] == f"let-beta @ / : {print_term(nf)}"


def test_trace_export_positions(nondet):
    t = Pure(Let("x", Pure(Var("v")), Pure(Var("x"))))
    _, trace = normalize(t, [])
    assert trace.export_lines()[0].startswith("let-beta @ /0 : ")


def test_trace_to_json(nondet):
    t = Let("x", Pure(Var("v")), Pure(Var("x")))
    nf, trace = normalize(t, [])
    blob = json.loads(json.dumps(trace.to_json()))
    assert blob["initial"] == print_term(t)
    assert blob["steps"][0]["rule"] == "let-beta"
    assert blob["steps"][0]["position"] == "/"
    assert blob["steps"][0]["result"] == print_term(nf)


# -- the nesting measure --------------------------------------------------------


def triple_nested():
    inner = Let("x", Pure(Var("a")), Pure(Var("x")))
    mid = Let("y", inner, Pure(Var("y")))
    return Let("z", mid, Pure(Var("z")))


def test_left_nesting_measure_examples():
    assert left_nesting_measure(Pure(Var("v"))) == 0
    assert left_nesting_measure(Let("x", Pure(Var("v")), Pure(Var("x")))) == 0
    two = Let("y", Let("x", Pure(Var("a")), Pure(Var("x"))), Pure(Var("y")))
    assert left_nesting_measure(two) == 1
    assert left_nesting_measure(triple_nested()) == 2
    # A let in the body contributes nothing.
    body_let = Let("x", Pure(Var("a")), Let("y", Pure(Var("x")), Pure(Var("y"))))
    assert left_nesting_measure(body_let) == 0


def test_left_nesting_measure_matches_positional_oracle():
    rng = random.Random(123)
    gen = TypedTermGen(rng, builtin("nondet"))
    for _ in range(120):
        t = gen.gen_sized(gen.simple_types[1], 25)
        assert left_nesting_measure(t) == nesting_count_by_positions(t)


def test_let_assoc_strictly_decreases_measure_at_redex():
    t = triple_nested()
    redexes = [r for r in ml_redexes(t) if r.rule_name == "let-assoc"]
    assert redexes
    for r in redexes:
        before = left_nesting_measure(subterm_at(t, r.position))
        after = left_nesting_measure(subterm_at(r.reduct, r.position))
        assert after < before


# -- property: redex reducts are where they claim to be ---------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_all_redexes_only_touch_their_subtree(seed):
    rng = random.Random(seed)
    gen = TypedTermGen(rng, builtin("nondet"))
    t = gen.gen_sized(gen.simple_types[1], 20)
    for r in all_redexes(t, list(builtin("nondet").rules)):
        out = step(t, r)
        assert out == r.reduct
        # Splicing the original subtree back in recovers the original term,
        # so the step changed nothing outside the redex position.
        assert replace_at(out, r.position, subterm_at(t, r.position)) == t


# -- the one-pass scan against the two-walk reference ----------------------------

# (theory, term shape): typed terms under every builtin and one composition,
# plus the ground or-trees and state traces, where user redexes are dense
# and several rules can fire at one position
SCAN_CASES = (
    *((name, "typed") for name in builtin_names()),
    ("global-state+nondet", "typed"),
    ("nondet", "or-tree"),
    ("global-state", "gs-trace"),
    # several par-left/par-right rules compete at each par node
    ("par6", "interleave"),
)


@cache
def _scan_theory(name: str):
    if name == "par6":
        return builtin("par", effects=PAR6_EFFECTS)
    return compose(*(builtin(part) for part in name.split("+")))


def _random_term(case, seed: int):
    name, shape = case
    rng = random.Random(seed)
    theory = _scan_theory(name)
    if shape == "or-tree":
        t = or_tree(rng, 4)
    elif shape == "gs-trace":
        t = gs_trace(rng, (0, 1), 4)
    elif shape == "interleave":
        t = par_interleaving(rng)
    else:
        gen = TypedTermGen(rng, theory)
        t = gen.gen_sized(rng.choice(gen.simple_types), 40)
    return t, list(theory.rules)


def _listing(redexes):
    return [(r.position, r.rule_name, r.ml, r.rule_index, r.reduct) for r in redexes]


@given(st.sampled_from(SCAN_CASES), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_scan_matches_reference(case, seed):
    t, rules = _random_term(case, seed)
    expected = reference_redexes(t, rules)
    assert _listing(all_redexes(t, rules)) == expected
    assert _listing(ml_redexes(t)) == [r for r in expected if r[2]]
    assert _listing(symbolic_redexes(t, rules)) == [r for r in expected if not r[2]]


@given(st.sampled_from(SCAN_CASES), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_leftmost_outermost_follows_reference_head(case, seed):
    t, rules = _random_term(case, seed)
    fuel = 60
    try:
        _, trace = normalize(t, rules, fuel=fuel)
    except FuelExhausted as exc:
        trace = exc.trace
    expected = []
    current = t
    while len(expected) < fuel:
        found = reference_redexes(current, rules)
        if not found:
            break
        pos, rule_name, _, _, current = found[0]
        expected.append((rule_name, pos, current))
    assert [(s.redex.rule_name, s.redex.position, s.result) for s in trace.steps] == expected


def _vary(rng, t, pure: bool):
    """t with some fn g nodes turned into eff g (the same name under the
    other kind), some binary f nodes cut to unary f (the same symbol at
    another arity) and, when pure is set, some subterms wrapped in pure."""
    if isinstance(t, SymApp):
        kind = "eff" if t.name == "g" and rng.random() < 0.5 else t.kind
        args = t.args[:1] if t.name == "f" and rng.random() < 0.2 else t.args
        t = SymApp(kind, t.name, t.params, tuple(_vary(rng, a, pure) for a in args))
    return Pure(t) if pure and rng.random() < 0.15 else t


# rules whose shape the discrimination tree sees only in part
_TREE_EDGE_RULES = (
    make_rule("nonlinear", fn("f", Var("u"), Var("u")), Var("u")),
    make_rule("value", fn("f", Var("u"), Var("w")), Pure(Var("u")), extended=True),
    make_rule("eff-g", eff("g", Var("u")), Var("u")),
    make_rule("fn-g", fn("g", Var("u")), Var("u")),
    make_rule("f-unary", fn("f", Var("u")), Var("u")),
    make_rule("inner-f-binary", fn("g", fn("f", Var("u"), Var("w"))), Var("u")),
    make_rule("inner-f-unary", fn("g", fn("f", Var("u"))), Var("u")),
)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_rule_retrieval_matches_brute_force(seed):
    rng = random.Random(seed)
    rules = list(_TREE_EDGE_RULES)
    for i in range(rng.randint(1, 6)):
        lhs = _vary(rng, symbolic_term(rng, rng.randint(1, 7)), pure=False)
        if isinstance(lhs, Var):
            continue
        rhs = rng.choice([fn("c"), *map(Var, sorted(pattern_vars(lhs)))])
        rules.append(make_rule(f"r{i}", lhs, rhs))
    rng.shuffle(rules)
    for _ in range(6):
        s = _vary(rng, symbolic_term(rng, rng.randint(1, 10)), pure=True)
        if rng.random() < 0.5:
            # an instance of some left side, so that matches are common
            rule = rng.choice(rules)
            bindings = {}
            for v in sorted(pattern_vars(rule.lhs)):
                sub = _vary(rng, symbolic_term(rng, rng.randint(1, 4)), pure=True)
                bindings[v] = Pure(sub) if v in rule.value_vars else sub
            s = fn("h", s, instantiate(rule.lhs, bindings), fn("c"))
        expected = [
            (pos, i)
            for pos, sub in iter_subterms(s)
            for i, r in enumerate(rules)
            if match_pattern(r.lhs, sub, r.value_vars) is not None
        ]
        found = symbolic_redexes(s, rules)
        assert [(r.position, r.rule_index) for r in found] == expected
        assert [r.rule_name for r in found] == [rules[i].name for _, i in expected]


def test_rule_index_prunes_par_rules(monkeypatch):
    rules = list(_scan_theory("par6").rules)
    assert sum(r.lhs.name == "par" for r in rules) == 14
    t = eff("par", eff("a1", Pure(Var("v"))), eff("b1", Pure(Var("w"))))
    tried = []
    real = effrew.rewrite.match_pattern

    def counting(pattern, subject, value_vars=frozenset(), bindings=None):
        if subject is t:
            tried.append(pattern)
        return real(pattern, subject, value_vars, bindings)

    monkeypatch.setattr(effrew.rewrite, "match_pattern", counting)
    index = effrew.rewrite.head_index(rules)
    at_root = [r.rule_name for r in effrew.rewrite.iter_redexes(t, index) if r.position == ()]
    assert len(tried) <= 2
    assert at_root == ["par-left.a1", "par-right.b1"]


@pytest.mark.parametrize("strategy", ["leftmost-outermost", "rightmost-innermost"])
def test_plus_200_normalizes_quickly(peano, strategy):
    # a scan that pays O(depth) per node, or builds the reduct of every
    # redex it lists, makes this cubic: 2-3 s per strategy
    t = fn("plus", peano_numeral(200), peano_numeral(200))
    start = time.perf_counter()
    nf, trace = normalize(t, list(peano.rules), strategy=strategy)
    elapsed = time.perf_counter() - start
    assert len(trace.steps) == 201
    assert numeral_value(nf) == 400
    assert elapsed < 1.0, f"{strategy} took {elapsed:.2f} s"
