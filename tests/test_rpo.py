import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effrew.rewrite import RuleError, make_rule
from effrew.rpo import (
    CASE_EQ,
    CASE_LEX,
    CASE_PREC,
    CASE_SUB,
    NonSymbolicTermError,
    Precedence,
    PrecedenceError,
    SearchBoundError,
    certify_ruleset,
    lex_greater,
    rpo_geq,
    rpo_greater,
    search_precedence,
    validate_derivation,
)
from effrew.terms import Lam, Pure, Var, eff, fn, substitute
from effrew.theories import builtin, builtin_names, compose
from oracles import brute_force_precedence
from termgen import random_precedence, rpo_identities, symbolic_term

F = ("f", ())
G = ("g", ())
H = ("h", ())
C = ("c", ())
EMPTY = Precedence()


def v(name):
    return Var(name)


# -- precedence ---------------------------------------------------------------


def test_precedence_transitive_closure():
    p = Precedence([(F, G), (G, H)])
    assert p.holds(F, G) and p.holds(G, H) and p.holds(F, H)
    assert not p.holds(H, F)


def test_precedence_irreflexivity_enforced():
    with pytest.raises(PrecedenceError):
        Precedence([(F, F)])
    with pytest.raises(PrecedenceError):
        Precedence([(F, G), (G, F)])
    with pytest.raises(PrecedenceError):
        Precedence([(F, G), (G, H), (H, F)])


def test_precedence_consistent_helper():
    assert Precedence.consistent([(F, G), (G, H)])
    assert not Precedence.consistent([(F, G), (G, F)])


def test_precedence_extended():
    p = Precedence([(F, G)])
    q = p.extended([(G, H)])
    assert q.holds(F, H)
    assert not p.holds(F, H)


def test_precedence_equality_ignores_presentation():
    assert Precedence([(F, G), (G, H)]) == Precedence([(G, H), (F, G), (F, H)])


# -- core comparisons ---------------------------------------------------------


def test_subterm_case():
    s = fn("g", fn("c"))
    d = rpo_greater(EMPTY, s, fn("c"))
    assert d is not None and d.rule == CASE_SUB
    assert validate_derivation(EMPTY, d)


def test_deep_subterm():
    s = fn("f", fn("g", v("u")), fn("c"))
    d = rpo_greater(EMPTY, s, v("u"))
    assert d is not None and d.rule == CASE_SUB
    assert d.children[0].rule in (CASE_SUB, CASE_EQ)


def test_equal_terms_not_greater():
    t = fn("g", v("u"))
    assert rpo_greater(EMPTY, t, t) is None
    ge = rpo_geq(EMPTY, t, t)
    assert ge is not None and ge.rule == CASE_EQ


def test_precedence_case():
    p = Precedence([(F, G)])
    s = fn("f", v("u"), v("w"))
    t = fn("g", v("u"))
    d = rpo_greater(p, s, t)
    assert d is not None and d.rule == CASE_PREC
    assert len(d.children) == 1  # one per rhs argument
    assert validate_derivation(p, d)
    assert rpo_greater(EMPTY, s, t) is None


def test_precedence_case_requires_dominating_args():
    # f > c alone cannot place f(u) above c-headed terms with fresh vars.
    p = Precedence([(F, C)])
    s = fn("f", v("u"), v("u"))
    assert rpo_greater(p, s, fn("c")) is not None
    assert rpo_greater(p, s, v("w")) is None


def test_lex_case_first_argument_decides():
    s = fn("f", fn("g", v("u")), v("w"))
    t = fn("f", v("u"), v("w"))
    d = rpo_greater(EMPTY, s, t)
    assert d is not None and d.rule == CASE_LEX
    assert d.index == 0
    assert validate_derivation(EMPTY, d)


def test_lex_case_second_argument_decides_after_equal_prefix():
    s = fn("f", v("u"), fn("g", v("w")))
    t = fn("f", v("u"), v("w"))
    d = rpo_greater(EMPTY, s, t)
    assert d is not None and d.rule == CASE_LEX
    assert d.index == 1


def test_lex_case_needs_whole_rhs_dominated():
    # g(u) >lex u in position 0 but the extra rhs argument w is fresh,
    # so f(g(u)) cannot dominate f2(u, w) style shapes; model with h.
    s = fn("h", fn("g", v("u")), v("u"), v("u"))
    t = fn("h", v("u"), v("u"), v("w"))
    assert rpo_greater(EMPTY, s, t) is None


def test_distinct_heads_without_precedence_fail():
    assert rpo_greater(EMPTY, fn("g", v("u")), fn("f", v("u"), v("u"))) is None


def test_same_name_different_params_are_distinct_heads():
    p1 = eff("p", v("u"), params=(0,))
    p2 = eff("p", v("u"), params=(1,))
    assert rpo_greater(EMPTY, p1, p2) is None
    prec = Precedence([(("p", (0,)), ("p", (1,)))])
    d = rpo_greater(prec, p1, p2)
    assert d is not None and d.rule == CASE_PREC


def test_variable_cases():
    assert rpo_greater(EMPTY, v("u"), fn("c")) is None
    assert rpo_greater(EMPTY, v("u"), v("w")) is None
    assert rpo_greater(EMPTY, v("u"), v("u")) is None
    assert rpo_geq(EMPTY, v("u"), v("u")) is not None
    assert rpo_greater(EMPTY, fn("g", v("u")), v("u")) is not None


def test_non_symbolic_rejected():
    with pytest.raises(NonSymbolicTermError):
        rpo_greater(EMPTY, Lam("x", v("x")), v("u"))
    with pytest.raises(NonSymbolicTermError):
        rpo_greater(EMPTY, fn("g", v("u")), Pure(v("u")))


def test_lex_greater():
    gu = fn("g", v("u"))
    assert lex_greater(EMPTY, [gu, v("w")], [v("u"), v("w")])
    assert not lex_greater(EMPTY, [v("u"), v("w")], [v("u"), v("w")])
    assert lex_greater(EMPTY, [v("u"), gu], [v("u"), v("u")])
    with pytest.raises(ValueError):
        lex_greater(EMPTY, [v("u")], [v("u"), v("w")])


# -- derivations --------------------------------------------------------------


def test_derivation_children_layout():
    p = Precedence([(F, G)])
    d = rpo_greater(p, fn("f", v("u"), v("w")), fn("g", fn("g", v("u"))))
    assert d.rule == CASE_PREC
    assert len(d.children) == 1
    assert d.children[0].lhs == fn("f", v("u"), v("w"))
    assert d.children[0].rhs == fn("g", v("u"))


def test_derivation_pretty_labels():
    p = Precedence([(F, G)])
    d = rpo_greater(p, fn("f", v("u"), v("w")), fn("g", v("u")))
    text = d.pretty()
    assert "RPO(2)" in text
    assert ">" in text


def test_validate_rejects_forged_derivation():
    d = rpo_greater(Precedence([(F, G)]), fn("f", v("u"), v("u")), fn("g", v("u")))
    assert d is not None
    assert not validate_derivation(EMPTY, d)  # same evidence, weaker order


def test_validate_all_cases_roundtrip():
    rng = random.Random(404)
    checked = 0
    while checked < 200:
        prec = random_precedence(rng)
        s = symbolic_term(rng, rng.randint(1, 8))
        t = symbolic_term(rng, rng.randint(1, 8))
        d = rpo_greater(prec, s, t)
        if d is None:
            continue
        assert validate_derivation(prec, d)
        checked += 1


# -- certification ------------------------------------------------------------


def test_certify_builtins_overall(gs, nondet, par, retry, peano):
    for theory in (gs, nondet, par, retry, peano):
        report = certify_ruleset(theory.precedence, list(theory.rules))
        assert report.overall, report.text()


def test_certify_extended_rules_refused(par):
    report = certify_ruleset(par.precedence, list(par.rules))
    entry = report.entry("join-par")
    assert entry.status == "refused-extended"
    assert report.overall


def test_certify_failure_reported(nondet):
    reversed_assoc = make_rule(
        "or-assoc-rev",
        eff("or", v("s1"), eff("or", v("s2"), v("s3"))),
        eff("or", eff("or", v("s1"), v("s2")), v("s3")),
    )
    report = certify_ruleset(Precedence(), [reversed_assoc])
    assert not report.overall
    assert report.entry("or-assoc-rev").status == "failed"
    assert "FAILED" in report.text()
    assert "not certified" in report.text()


def test_certify_text_structure(peano):
    report = certify_ruleset(peano.precedence, list(peano.rules))
    text = report.text()
    assert "rule plus-zero: certified" in text
    assert "rule plus-succ: certified" in text
    assert text.strip().endswith("overall: certified")


def test_certified_rules_validate(gs, nondet, par, retry, peano):
    for theory in (gs, nondet, par, retry, peano):
        report = certify_ruleset(theory.precedence, list(theory.rules))
        for entry in report.entries:
            if entry.status == "certified":
                assert validate_derivation(theory.precedence, entry.derivation)


# -- precedence search --------------------------------------------------------


def test_search_finds_par_precedence(par):
    prec = search_precedence(list(par.rules))
    assert prec is not None
    report = certify_ruleset(prec, list(par.rules))
    assert report.overall


def test_search_on_already_orderable_system(nondet):
    prec = search_precedence(list(nondet.rules))
    assert prec is not None
    assert prec.pairs == frozenset()  # or-assoc needs no precedence at all


def test_search_returns_none_for_swap():
    swap = make_rule("swap", fn("f", v("x"), v("y")), fn("f", v("y"), v("x")))
    assert search_precedence([swap]) is None


def test_search_returns_none_for_two_rule_flip_flop():
    r1 = make_rule("fg", fn("f", v("x")), fn("g", v("x")))
    r2 = make_rule("gf", fn("g", v("x")), fn("f", v("x")))
    assert search_precedence([r1, r2]) is None


def test_search_bound():
    rules = [
        make_rule(f"r{i}", fn("h", v("x"), v("y"), v("z")), fn("g", v("x")))
        for i in range(1)
    ]
    # 2 symbols is fine, but a bound of 0 must refuse to search.
    with pytest.raises(SearchBoundError):
        search_precedence(rules, max_symbols=0)


def test_search_result_is_minimal_for_retry(retry):
    prec = search_precedence(list(retry.rules))
    assert prec is not None
    assert certify_ruleset(prec, list(retry.rules)).overall
    assert len(prec.pairs) <= len(retry.precedence.pairs)


def _chain(n, cycle=False):
    """s0(x) -> s1(x) -> ... -> s{n-1}(x), closed by s{n-1}(x) -> s0(x) when cycle."""
    x = v("x")
    return [
        make_rule(f"s{i}-s{(i + 1) % n}", fn(f"s{i}", x), fn(f"s{(i + 1) % n}", x))
        for i in range(n if cycle else n - 1)
    ]


def test_search_refuses_eight_cycle_quickly():
    # enumerating the 8! total orders takes about 11 s
    start = time.perf_counter()
    assert search_precedence(_chain(8, cycle=True)) is None
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"took {elapsed:.2f} s"


def test_search_finds_eight_chain():
    rules = _chain(8)
    prec = search_precedence(rules)
    assert prec is not None and len(prec.pairs) == 8 * 7 // 2
    assert certify_ruleset(prec, rules).overall


def test_search_composed_builtins_quickly():
    rules = list(compose(*(builtin(n) for n in builtin_names())).rules)
    start = time.perf_counter()
    prec = search_precedence(rules, max_symbols=16)
    elapsed = time.perf_counter() - start
    assert prec is not None
    assert certify_ruleset(prec, rules).overall
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_search_agrees_with_brute_force(seed):
    rng = random.Random(seed)
    rules = []
    for i in range(rng.randint(1, 5)):
        lhs, rhs = symbolic_term(rng, rng.randint(2, 7)), symbolic_term(rng, rng.randint(1, 6))
        try:
            rules.append(make_rule(f"r{i}", lhs, rhs))
        except RuleError:
            pass  # bare-variable left side, or variables invented on the right
    prec = search_precedence(rules)
    assert (prec is None) == (brute_force_precedence(rules) is None)
    if prec is not None:
        report = certify_ruleset(prec, rules)
        assert report.overall, report.text()
        for entry in report.entries:
            assert validate_derivation(prec, entry.derivation)


# -- order-theoretic properties ------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_irreflexive(seed):
    rng = random.Random(seed)
    prec = random_precedence(rng)
    t = symbolic_term(rng, rng.randint(1, 10))
    assert rpo_greater(prec, t, t) is None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100)
def test_strict_subterms_below(seed):
    rng = random.Random(seed)
    prec = random_precedence(rng)
    t = symbolic_term(rng, rng.randint(2, 10))
    from effrew.terms import iter_subterms

    for pos, sub in iter_subterms(t):
        if pos == ():
            continue
        assert rpo_greater(prec, t, sub) is not None or sub == t


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_transitive_on_samples(seed):
    rng = random.Random(seed)
    prec = random_precedence(rng)
    a = symbolic_term(rng, rng.randint(1, 7))
    b = symbolic_term(rng, rng.randint(1, 7))
    c = symbolic_term(rng, rng.randint(1, 7))
    if rpo_greater(prec, a, b) and rpo_greater(prec, b, c):
        assert rpo_greater(prec, a, c) is not None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60)
def test_closed_under_substitution(seed):
    rng = random.Random(seed)
    prec = random_precedence(rng)
    s = symbolic_term(rng, rng.randint(1, 6))
    t = symbolic_term(rng, rng.randint(1, 6))
    if rpo_greater(prec, s, t) is None:
        return
    repl = symbolic_term(rng, rng.randint(1, 5))
    s2 = substitute(s, "u", repl)
    t2 = substitute(t, "u", repl)
    assert rpo_greater(prec, s2, t2) is not None


def test_identities_helper():
    ids = rpo_identities()
    assert ("f", ()) in ids and ("p", (0,)) in ids
