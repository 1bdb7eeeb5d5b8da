import copy
import gc
import json
import pickle
import random
import re
import time
import tracemalloc
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effrew.rewrite
from effrew.rewrite import (
    _ROOT,
    STRATEGIES,
    FuelExhausted,
    RewriteRule,
    RuleError,
    StaleRedexError,
    _cell_position,
    _contractum,
    _list_redexes,
    all_redexes,
    left_nesting_measure,
    make_rule,
    match_pattern,
    ml_redexes,
    head_index,
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
    canonical_key,
    children,
    eff,
    fn,
    free_vars,
    iter_subterms,
    print_term,
    replace_at,
    subterm_at,
)
from effrew.theories import builtin, builtin_names, compose, numeral_value, peano_numeral
from effrew.graph import reduction_graph
from effrew.rpo import rule_identities
from oracles import (
    instantiate,
    reference_build,
    naive_normal_forms,
    nesting_count_by_positions,
    reference_graph,
    reference_identities,
    reference_match_pattern,
    reference_normalize,
    reference_reach,
    redexes_agree,
    reference_redexes,
    reference_value_vars,
)
from stack_safe import stack_safe
from termgen import (
    PAR6_EFFECTS, TypedTermGen, gs_trace, ml_term, or_tree, par_interleaving, rename_prone, symbolic_term
)

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


def _match_case(rng: random.Random):
    """A pattern, a subject, value metavariables and pre-seeded bindings
    for match_pattern: the pattern may repeat a variable and may hold a
    pure or a lambda, which leaves the symbolic fragment; the subject is
    an instance of the pattern half the time."""
    closed = [fn("c"), Var("a"), Pure(fn("c")), Pure(Var("a")), Lam("z", Var("z")), Lam("w", Var("w"))]

    def tree(depth, leaf):
        k = rng.random()
        if depth == 0 or k < 0.3:
            return leaf()
        if k < 0.6:
            return fn("f", tree(depth - 1, leaf), tree(depth - 1, leaf))
        if k < 0.8:
            return fn("g", tree(depth - 1, leaf))
        return eff("e", tree(depth - 1, leaf), params=(rng.choice((0, 1)),))

    def pattern_leaf():
        k = rng.random()
        if k < 0.75:
            return Var(rng.choice("xyv"))
        return fn("c") if k < 0.92 else rng.choice((Pure(Var("x")), Lam("z", Var("z"))))

    def subject_leaf():
        return rng.choice(closed)

    pattern = tree(4, pattern_leaf)
    if rng.random() < 0.5:
        subject = tree(4, subject_leaf)
    else:
        # every variable occurrence gets its own subterm, so a repeated
        # variable sees alpha-equal subterms only some of the time
        def instance(p):
            if type(p) is Var:
                t = tree(2, subject_leaf)
                return Pure(t) if p.name == "v" and rng.random() < 0.7 else t
            if type(p) is SymApp:
                return SymApp(p.kind, p.name, p.params, tuple(instance(a) for a in p.args))
            return p

        subject = instance(pattern)
    value_vars = frozenset(rng.choice(("", "v", "vx")))
    seed = rng.choice((None, {}, {"y": fn("c")}, {"x": Lam("q", Var("q"))}))
    return pattern, subject, value_vars, seed


def _match_outcome(match, pattern, subject, value_vars, seed):
    bindings = None if seed is None else dict(seed)
    try:
        got = match(pattern, subject, value_vars, bindings)
    except RuleError as e:
        return "error", str(e), bindings
    return "match", got, bindings, bindings is None or got is None or got is bindings


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_match_pattern_agrees_with_reference(rng):
    # the same bindings, the same first mismatch and the same RuleError,
    # with what a failed match left in pre-seeded bindings
    pattern, subject, value_vars, seed = _match_case(rng)
    assert _match_outcome(match_pattern, pattern, subject, value_vars, seed) == _match_outcome(
        reference_match_pattern, pattern, subject, value_vars, seed
    )


@stack_safe
def test_match_pattern_on_a_deep_left_side():
    n = 10_000
    pattern, subject = Var("x"), fn("zero")
    for _ in range(n):
        pattern, subject = fn("succ", pattern), fn("succ", subject)
    assert match_pattern(pattern, subject) == {"x": fn("zero")}
    assert match_pattern(pattern, pattern) == {"x": Var("x")}
    assert match_pattern(fn("succ", pattern), subject) is None
    # 10^4 levels down, a pure leaves the symbolic fragment
    bad = Pure(Var("x"))
    for _ in range(n):
        bad = fn("succ", bad)
    with pytest.raises(RuleError, match=r"^pattern leaves the symbolic fragment: \(pure x\)$"):
        match_pattern(bad, subject)
    # at a depth the recursive reference can take, the two agree
    shallow_p, shallow_s = Var("x"), fn("zero")
    for _ in range(300):
        shallow_p, shallow_s = fn("succ", shallow_p), fn("succ", shallow_s)
    assert match_pattern(shallow_p, shallow_s) == reference_match_pattern(shallow_p, shallow_s)


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


@stack_safe
def test_left_nesting_measure_survives_deep_subject_chains():
    # far past the interpreter recursion limit: each let is the subject of
    # the next, so every let but the outermost sits in a subject
    n = 100_000
    t = Pure(Var("a"))
    for _ in range(n):
        t = Let("x", t, Pure(Var("x")))
    assert left_nesting_measure(t) == n - 1


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
    assert redexes_agree(_listing(all_redexes(t, rules)), expected)
    assert redexes_agree(_listing(ml_redexes(t)), [r for r in expected if r[2]])
    assert redexes_agree(_listing(symbolic_redexes(t, rules)), [r for r in expected if not r[2]])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_metalanguage_contractions_match_reference_where_binders_capture(seed):
    # names that fresh_name renames into each other, so that abs-beta,
    # let-beta and let-assoc rename binders; the reference builds each
    # contractum with its own substitution and let-assoc rename
    t = ml_term(random.Random(seed), 4)
    expected = reference_redexes(t, [])
    assert redexes_agree(_listing(ml_redexes(t)), expected)
    _check_walk(t, [], {})


def test_metalanguage_contractions_agree_modulo_alpha_where_renames_may_differ():
    # rename_prone's redexes rename a binder twice, or to the old name of a
    # renamed binder above it, often enough that the one-pass substitution
    # names some binders otherwise than the reference's nested renames:
    # redexes_agree then compares those reducts modulo alpha only
    kinds, inexact = set(), 0
    for seed in range(300):
        t = rename_prone(random.Random(seed))
        expected = reference_redexes(t, [])
        found = _listing(ml_redexes(t))
        assert redexes_agree(found, expected)
        kinds |= {e[1] for e in expected}
        inexact += sum(f[4] != e[4] for f, e in zip(found, expected))
    assert kinds == {"abs-beta", "let-beta", "let-assoc"}
    assert inexact >= 20


# most graphs of these terms have fewer than 60 nodes, so a fuel drawn up
# to 60 truncates some and lets others finish
@given(st.sampled_from(SCAN_CASES), st.integers(1, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_graph_matches_reference(case, fuel, seed):
    t, rules = _random_term(case, seed)
    g = reduction_graph(t, rules, fuel=fuel)
    keys, edges, normal, truncated = reference_graph(t, rules, fuel)
    assert list(g.nodes) == keys
    assert [(e.src, e.rule_name, e.position, e.dst) for e in g.edges] == edges
    assert list(g.normal_forms) == normal
    assert g.truncated == truncated


@given(st.sampled_from(SCAN_CASES), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_leftmost_outermost_follows_reference_head(case, seed):
    t, rules = _random_term(case, seed)
    fuel = 60
    try:
        _, trace = normalize(t, rules, fuel=fuel)
    except FuelExhausted as exc:
        trace = exc.trace
    # each step against the reference's first redex of the term it was
    # taken in, since a reduct may be only alpha-equal to the reference's
    current = t
    for s in trace.steps:
        r = s.redex
        step = (r.position, r.rule_name, r.ml, r.rule_index, s.result)
        assert redexes_agree([step], reference_redexes(current, rules)[:1])
        current = s.result
    assert len(trace.steps) == fuel or not reference_redexes(current, rules)


# -- the redex walk down towers ------------------------------------------------


def _walked(t, rules, clean):
    """_list_redexes(t) from the root under the record clean, its entries
    in the form redexes_agree compares.  Each entry's position is read off its
    cell, whose depth must be the position's length, and its subterm must
    be the one at that position."""
    out: list = []
    _list_redexes(t, _ROOT, head_index(rules), clean, out)
    found = []
    for cell, idx, name, rule, sub, contraction in out:
        pos = _cell_position(cell)
        assert cell[2] == len(pos) and subterm_at(t, pos) is sub
        found.append((pos, name, rule is None, idx, replace_at(t, pos, _contractum(rule, contraction))))
    return found


def _check_walk(t, rules, before):
    """Walk t under a record that holds `before`, and check the entries
    against reference_redexes and the record afterwards: it holds every
    subterm the walk visited, which is every one not under a subterm that
    `before` held, exactly when that subterm has no redex, and nothing
    that has one."""
    clean = dict(before)
    assert redexes_agree(_walked(t, rules, clean), reference_redexes(t, rules))
    stack = [t]
    while stack:
        sub = stack.pop()
        if id(sub) not in before:
            assert (id(sub) in clean) == (not reference_redexes(sub, rules)), print_term(sub)
            stack += children(sub)
    assert not any(reference_redexes(sub, rules) for sub in clean.values())


def _tower(names, bottom, kind="fn"):
    """names[0](names[1](... bottom)) as one-argument symbol applications."""
    for name in reversed(names):
        bottom = SymApp(kind, name, (), (bottom,))
    return bottom


# a rule rooted at a constant, so that a run can end at a nullary node
# whose head starts a rule
_CONSTANT_RULE = make_rule("c-zero", fn("c"), fn("zero"))


def _tower_rules(name: str) -> list:
    """The rules of theory name, or of peano and _CONSTANT_RULE for
    peano+c."""
    if name == "peano+c":
        return [*_scan_theory("peano").rules, _CONSTANT_RULE]
    return list(_scan_theory(name).rules)


def _towers():
    """Cases (id, theory, term) whose terms hold runs of one-argument nodes
    at which no rule starts: no rule of peano, peano+c or retry+peano
    starts at succ, and none of par at e1 or e2."""
    x, v = Var("x"), Var("v")
    num = peano_numeral
    shared = num(6)
    par_bottom = eff("join", eff("par", Pure(Var("a")), Pure(Var("b"))))
    cases = [
        ("zero", "peano", num(0)),
        ("one", "peano", num(1)),
        ("numeral", "peano", num(12)),
        ("plus-numerals", "peano", fn("plus", num(3), num(4))),
        ("ends-in-var", "peano", _tower(["succ"] * 8, x)),
        ("plus-var-tower", "peano", fn("plus", x, _tower(["succ"] * 5, Var("y")))),
        # a redex at the bottom, or a head that starts a rule but matches not
        ("redex-at-bottom", "peano", _tower(["succ"] * 6, fn("plus", num(2), num(1)))),
        ("rule-head-at-bottom", "peano", _tower(["succ"] * 4, fn("plus", x, num(3)))),
        ("nested", "peano", fn("plus", _tower(["succ"] * 3, fn("plus", fn("zero"), x)), num(2))),
        ("retry-at-bottom", "retry+peano", _tower(["succ"] * 3, fn("retry", num(2), eff("request", x, v, Var("w"))))),
        # one subterm at two places: the second is in the record already
        ("shared-under-tower", "peano", fn("plus", _tower(["succ"] * 2, shared), shared)),
        ("tower-over-shared", "peano", fn("plus", shared, _tower(["succ"] * 2, shared))),
        # effect chains
        ("ends-in-pure", "par", _tower(["e1", "e2", "e1"], Pure(v), "eff")),
        ("ends-in-lam", "par", _tower(["e2", "e1"], Lam("x", _tower(["e1", "e2", "e2"], Pure(x), "eff")), "eff")),
        ("let-beta-at-bottom", "par", _tower(["e1", "e2", "e1"], Let("x", Pure(v), Pure(x)), "eff")),
        ("abs-beta-at-bottom", "par", _tower(["e1", "e1"], App(Lam("x", _tower(["e2"], Pure(x), "eff")), v), "eff")),
        ("join-at-bottom", "par", _tower(["e2", "e1", "e2"], par_bottom, "eff")),
        # no rule starts at pair, but it has two arguments
        ("two-args-at-bottom", "par", _tower(["e1", "e2"], fn("pair", x, Let("x", Pure(v), x)), "eff")),
        ("under-par", "par", eff("par", _tower(["e1", "e2"], Pure(v), "eff"), _tower(["e2"], x, "eff"))),
        ("under-let", "par", Let("y", _tower(["e1", "e2"], Pure(v), "eff"), _tower(["e2", "e1"], Var("y"), "eff"))),
        # a run ends at a constant whose head starts a rule, which is
        # listed with its own cell, or at one that starts none, inside the
        # run, under a node of two arguments that starts no rule
        ("constant-redex-at-bottom", "peano+c", _tower(["succ"] * 5, fn("c"))),
        ("constant-redexes-under-plus", "peano+c", fn("plus", _tower(["succ"] * 3, fn("c")), fn("c"))),
        ("constants-under-pair", "peano", fn("pair", _tower(["succ"] * 3, fn("nil")), _tower(["succ"] * 2, x))),
        ("constants-under-par", "par", eff("par", _tower(["e1", "e2"], fn("unit"), "eff"), _tower(["e2"], v, "eff"))),
    ]
    return [pytest.param(name, t, id=case) for case, name, t in cases]


@pytest.mark.parametrize("name, t", _towers())
def test_tower_walk_matches_reference(name, t):
    rules = _tower_rules(name)
    _check_walk(t, rules, {})
    # the same walk after an earlier one recorded what it found below
    # each subterm, so that every run stops, in turn, at each subterm
    index = head_index(rules)
    for _, sub in iter_subterms(t):
        before: dict = {}
        _list_redexes(sub, _ROOT, index, before, [])
        _check_walk(t, rules, before)


@given(st.sampled_from(SCAN_CASES), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_walk_matches_reference_after_an_earlier_walk(case, seed):
    t, rules = _random_term(case, seed)
    _check_walk(t, rules, {})
    subs = [sub for _, sub in iter_subterms(t)]
    before: dict = {}
    _list_redexes(random.Random(seed).choice(subs), _ROOT, head_index(rules), before, [])
    _check_walk(t, rules, before)


@stack_safe
def test_deep_numeral_lists_and_normalizes_quickly(peano):
    # the numeral is one run: listing it pushes one leave marker, and the
    # record takes all its nodes when that pops
    n = 10**5
    t = peano_numeral(n)
    rules = list(peano.rules)
    start = time.perf_counter()
    clean: dict = {}
    out: list = []
    _list_redexes(t, _ROOT, head_index(rules), clean, out)
    assert out == [] and len(clean) == n + 1 and clean[id(t)] is t
    nf, trace = normalize(t, rules)
    assert nf is t and not trace.steps
    nf, trace = normalize(fn("plus", fn("zero"), t), rules)
    assert nf is t and len(trace.steps) == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"took {elapsed:.2f} s"


# -- incremental normalize against the full rescan ------------------------------

# rule sets whose left sides read deeper than the metalanguage rules, so
# that a contraction can make a redex of an ancestor more than one level up
_RECHECK_RULES = {
    # a contraction two levels under h makes h a redex
    "deep-lhs": (
        make_rule("h-g-k", fn("h", fn("g", fn("k", Var("x")))), Var("x")),
        make_rule("m-k", fn("m", Var("x")), fn("k", Var("x"))),
    ),
    # f compares its whole arguments, so a contraction at any depth under
    # f can make it a redex
    "nonlinear": (
        make_rule("f-same", fn("f", Var("u"), Var("u")), Var("u")),
        make_rule("m-k", fn("m", Var("x")), fn("k", Var("x"))),
    ),
    # the value metavariable v reads the third level, where it must see a
    # pure or a variable
    "value-var": (
        make_rule("j-q", fn("j", fn("q", Var("v"))), Pure(Var("v")), extended=True),
        make_rule("mk", fn("mk", Var("x")), Pure(Var("x")), extended=True),
    ),
    # right sides whose nodes start rules: p's contractum is an h-g-k redex
    # built only from right-side nodes, q's holds an m-k redex under s,
    # whose head starts no rule, and drop's is its bare first argument,
    # which may hold redexes of its own
    "rhs-heads": (
        make_rule("h-g-k", fn("h", fn("g", fn("k", Var("x")))), Var("x")),
        make_rule("m-k", fn("m", Var("x")), fn("k", Var("x"))),
        make_rule("p-h-g-k", fn("p", Var("x")), fn("h", fn("g", fn("k", Var("x"))))),
        make_rule("q-s-m", fn("q", Var("x")), fn("s", fn("m", Var("x")))),
        make_rule("drop", fn("drop", Var("x"), Var("y")), Var("x")),
    ),
}

NORMALIZE_CASES = (
    *SCAN_CASES,
    *((name, "recheck") for name in _RECHECK_RULES),
    # eq repeats its variable, so it reads every level of its arguments,
    # and the steps that make its two sides equal happen far below it
    ("peano+eq", "eq-above"),
)


@cache
def _eq_rules() -> list:
    """peano's rules and eq(x, x) -> x."""
    return [*builtin("peano").rules, make_rule("eq", fn("eq", Var("x"), Var("x")), Var("x"))]


def _nat_value(t) -> int | None:
    """The number t stands for under _eq_rules, or None if an eq in it
    does not compare equal numbers."""
    if t.name == "zero":
        return 0
    values = [_nat_value(a) for a in t.args]
    if None in values:
        return None
    if t.name == "succ":
        return values[0] + 1
    if t.name == "plus":
        return values[0] + values[1]
    return values[0] if values[0] == values[1] else None


def _eq_term(rng, budget: int):
    """A term of numerals, succ, plus and eq in which most eq nodes compare
    two sides of one value, written differently: a sum and a numeral, or
    two sums split at different places, so that eq fires only after the
    steps below it have normalized both."""
    if budget <= 1:
        return peano_numeral(rng.randint(0, 3))
    roll = rng.randrange(4)
    if roll == 0:
        return fn("succ", _eq_term(rng, budget - 1))
    if roll == 1:
        return fn("plus", _eq_term(rng, budget // 2), _eq_term(rng, budget // 2))
    left = _eq_term(rng, budget - 2)
    value = _nat_value(left)
    if value is None or rng.random() < 0.2:
        right = _eq_term(rng, budget // 2)
    else:
        cut = rng.randint(0, value)
        right = rng.choice((peano_numeral(value), fn("plus", peano_numeral(value - cut), peano_numeral(cut))))
    return fn("eq", *rng.sample((left, right), 2))


def _recheck_term(rng, budget: int):
    """A term over the symbols of _RECHECK_RULES in which their left sides,
    one contraction short, are common: h(g(m(t))), j(q(mk(t))), and
    f(w(k(t)), w(m(t))) under a chain w of unary symbols; and in which
    p(t), q(t) and drop(t, u) are common as they are."""
    if budget <= 1:
        return rng.choice((fn("c"), fn("a"), Var("x")))
    t = _recheck_term(rng, budget - rng.randint(1, 3))
    roll = rng.randrange(7)
    if roll == 0:
        return fn("h", fn("g", fn("m", t)))
    if roll == 1:
        return fn("j", fn("q", fn("mk", t)))
    if roll == 2:
        left, right = fn("k", t), fn("m", t)
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(("s", "g", "q"))
            left, right = fn(name, left), fn(name, right)
        return fn("f", *rng.sample((left, right), 2))
    if roll == 3:
        return fn("f", t, _recheck_term(rng, budget // 2))
    if roll == 4:
        return rng.choice((fn("p", t), fn("q", t), fn("drop", t, _recheck_term(rng, budget // 2))))
    return fn(rng.choice(("h", "g", "k", "m", "s", "j", "q", "mk")), t)


def _normalize_case(case, seed: int):
    name, shape = case
    if shape == "recheck":
        return _recheck_term(random.Random(seed), 14), list(_RECHECK_RULES[name])
    if shape == "eq-above":
        return _eq_term(random.Random(seed), 10), _eq_rules()
    return _random_term(case, seed)


def _normalized(t, rules, strategy: str, fuel: int, seed: int):
    """normalize's last term and trace, and whether the fuel ran out."""
    seed = seed if strategy == "random" else None
    try:
        nf, trace = normalize(t, rules, strategy=strategy, fuel=fuel, seed=seed)
    except FuelExhausted as exc:
        return exc.term, exc.trace, True
    return nf, trace, False


# most runs need fewer than 40 steps, so a fuel drawn up to 40 ends some
# runs by FuelExhausted and lets others finish
_FUELS = st.integers(0, 40)


@given(st.sampled_from(NORMALIZE_CASES), st.sampled_from(STRATEGIES), _FUELS, st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_normalize_matches_full_rescan(case, strategy, fuel, seed):
    t, rules = _normalize_case(case, seed)
    term, trace, exhausted = _normalized(t, rules, strategy, fuel, seed)
    ref_term, chosen, ref_exhausted = reference_normalize(t, rules, strategy, fuel, seed)
    assert trace.initial == t
    assert [(s.redex.rule_name, s.redex.position, s.redex.ml, s.redex.rule_index, s.result) for s in trace.steps] == [
        (r.rule_name, r.position, r.ml, r.rule_index, r.reduct) for r in chosen
    ]
    assert (term, exhausted) == (ref_term, ref_exhausted)


@given(st.sampled_from(NORMALIZE_CASES), st.sampled_from(STRATEGIES), _FUELS, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_normalize_trace_replays(case, strategy, fuel, seed):
    # back to front, so that the first terms read are replayed from the
    # start term and the later ones are found built
    t, rules = _normalize_case(case, seed)
    _, trace, _ = _normalized(t, rules, strategy, fuel, seed)
    steps = trace.steps
    for i in reversed(range(len(steps))):
        prev = steps[i - 1].result if i else trace.initial
        assert step(prev, steps[i].redex) == steps[i].result


def _check_against_full_rescan(t, rules, strategy: str, fuel: int, seed: int):
    """What test_normalize_matches_full_rescan checks, for a given term."""
    term, trace, exhausted = _normalized(t, rules, strategy, fuel, seed)
    ref_term, chosen, ref_exhausted = reference_normalize(t, rules, strategy, fuel, seed)
    assert trace.initial == t
    assert [(s.redex.rule_name, s.redex.position, s.redex.ml, s.redex.rule_index, s.result) for s in trace.steps] == [
        (r.rule_name, r.position, r.ml, r.rule_index, r.reduct) for r in chosen
    ]
    assert (term, exhausted) == (ref_term, ref_exhausted)


def test_random_normalize_matches_full_rescan_where_rules_compete():
    # several par rules apply at one par node, so a random draw often takes
    # an entry that is not its node's first, and the step must replace the
    # entries before it at that node too
    for seed in range(60):
        t, rules = _normalize_case(("par6", "interleave"), seed)
        _check_against_full_rescan(t, rules, "random", 40, seed)


@given(
    st.sampled_from(NORMALIZE_CASES),
    st.sampled_from(STRATEGIES),
    _FUELS,
    st.integers(0, 2**32 - 1),
    st.integers(100, 400),
)
@settings(max_examples=40, deadline=None)
def test_normalize_matches_full_rescan_in_deep_context(case, strategy, fuel, seed, depth):
    # under a long chain of a symbol that no rule matches, every redex sits
    # hundreds of levels down, so the slice under a step and the ancestors
    # to recheck are found along long shared chains of positions
    t, rules = _normalize_case(case, seed)
    for _ in range(depth):
        t = fn("ctx", t)
    _check_against_full_rescan(t, rules, strategy, fuel, seed)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "name, t, fired",
    [
        # h's rule reads three levels; the contraction two levels under h
        # passes g, whose head starts no rule, so the step climbs through g
        # without rechecking it and then rechecks h
        ("deep-lhs", fn("h", fn("g", fn("m", fn("c")))), ["m-k", "h-g-k"]),
        # f's rule repeats a variable, so it reads every level; the
        # contraction passes two levels whose heads start no rule
        (
            "nonlinear",
            fn("f", fn("s", fn("g", fn("m", fn("c")))), fn("s", fn("g", fn("k", fn("c"))))),
            ["m-k", "f-same"],
        ),
    ],
)
def test_normalize_rechecks_an_ancestor_above_levels_it_skips(name, t, fired, strategy):
    rules = list(_RECHECK_RULES[name])
    for seed in range(5 if strategy == "random" else 1):
        _check_against_full_rescan(t, rules, strategy, 40, seed)
        _, trace, _ = _normalized(t, rules, strategy, 40, seed)
        assert [s.redex.rule_name for s in trace.steps] == fired


def _vary(rng, t, pure: bool):
    """t with some fn g nodes turned into eff g (the same name under the
    other kind), some binary f nodes cut to unary f (the same symbol at
    another arity) and, when pure is set, some subterms wrapped in pure."""
    if isinstance(t, SymApp):
        kind = "eff" if t.name == "g" and rng.random() < 0.5 else t.kind
        args = t.args[:1] if t.name == "f" and rng.random() < 0.2 else t.args
        t = SymApp(kind, t.name, t.params, tuple(_vary(rng, a, pure) for a in args))
    return Pure(t) if pure and rng.random() < 0.15 else t


def _over(rng, t, names):
    """t with each variable replaced by one of names, or by the constant c
    when names is empty: a right side for a left side with those names."""
    if isinstance(t, Var):
        return Var(rng.choice(names)) if names else fn("c")
    if isinstance(t, SymApp):
        return SymApp(t.kind, t.name, t.params, tuple(_over(rng, a, names) for a in t.args))
    return t


# rules whose shape the index sees only in part
_TREE_EDGE_RULES = (
    make_rule("nonlinear", fn("f", Var("u"), Var("u")), Var("u")),
    make_rule("value", fn("f", Var("u"), Var("w")), Pure(Var("u")), extended=True),
    make_rule("eff-g", eff("g", Var("u")), Var("u")),
    make_rule("fn-g", fn("g", Var("u")), Var("u")),
    make_rule("f-unary", fn("f", Var("u")), Var("u")),
    make_rule("inner-f-binary", fn("g", fn("f", Var("u"), Var("w"))), Var("u")),
    make_rule("inner-f-unary", fn("g", fn("f", Var("u"))), Var("u")),
    make_rule("second-f-unary", fn("f", Var("u"), fn("f", Var("w"))), Var("w")),
    make_rule("both-f-keyed", fn("f", fn("g", Var("u")), fn("f", Var("w"))), Var("w")),
    make_rule("deep-f-binary", fn("g", fn("g", fn("f", Var("u"), Var("w")))), Var("w")),
    make_rule("deep-f-unary", fn("g", fn("g", fn("f", Var("u")))), Var("u")),
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
        names = sorted(pattern_vars(lhs))
        rhs = rng.choice([fn("c"), *map(Var, names), _over(rng, symbolic_term(rng, rng.randint(1, 8)), names)])
        rules.append(make_rule(f"r{i}", lhs, rhs))
    rng.shuffle(rules)
    index = effrew.rewrite.head_index(rules)
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
        # the index hands back each hit's bindings, read by the rule's
        # compiled matcher; they are match_pattern's, and each hit's
        # contractum is what instantiate builds from them
        for _, sub in iter_subterms(s):
            head = index.get((sub.kind, sub.name, sub.params)) if isinstance(sub, SymApp) else None
            hits: list = []
            if head is not None:
                head.matches(sub, _ROOT, hits)
            expected = [
                (i, match_pattern(r.lhs, sub, r.value_vars))
                for i, r in enumerate(rules)
                if match_pattern(r.lhs, sub, r.value_vars) is not None
            ]
            assert [(i, bindings) for _, i, _, _, _, bindings in hits] == expected
            assert all(cell is _ROOT and at is sub for cell, _, _, _, at, _ in hits)
            assert [_contractum(rule, bindings) for _, _, _, rule, _, bindings in hits] == [
                instantiate(rules[i].rhs, bindings) for i, bindings in expected
            ]
            # each compiled matcher decides alone: given only the head and
            # arity, it agrees with match_pattern on every subterm
            if isinstance(sub, SymApp):
                key = (sub.kind, sub.identity, len(sub.args))
                same = [r for r in rules if (r.lhs.kind, r.lhs.identity, len(r.lhs.args)) == key]
                assert [r._matcher(sub) for r in same] == [match_pattern(r.lhs, sub, r.value_vars) for r in same]


def _check_rule_facts(rules):
    """The facts a rule derives when built, against the walks that derived
    them before: the reach, the value metavariables, the pattern variables
    and the symbol identities."""
    for rule in rules:
        assert max(2, rule.reach) == reference_reach([rule])
        assert rule.value_vars == (reference_value_vars(rule.rhs) if rule.extended else frozenset())
        assert pattern_vars(rule.lhs) == {v.name for _, v in iter_subterms(rule.lhs) if isinstance(v, Var)}
        assert rule.identities == {
            t.identity for side in (rule.lhs, rule.rhs) for _, t in iter_subterms(side) if isinstance(t, SymApp)
        }
    assert max([2, *(rule.reach for rule in rules)]) == reference_reach(rules)
    assert rule_identities(rules) == reference_identities(rules)


@pytest.mark.parametrize("name", [*builtin_names(), "par6"])
def test_rule_facts_of_builtins(name):
    _check_rule_facts(list(_scan_theory(name).rules))


def test_rule_facts_of_tree_edge_rules():
    _check_rule_facts(list(_TREE_EDGE_RULES))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_rule_facts_of_random_rules(seed):
    rng = random.Random(seed)
    rules = []
    for i in range(rng.randint(1, 6)):
        lhs = _vary(rng, symbolic_term(rng, rng.randint(1, 9)), pure=False)
        if isinstance(lhs, Var):
            lhs = fn("f", lhs)
        extended = rng.random() < 0.5
        # an extended rule's right side may wrap variables in pure, which
        # makes them value metavariables
        kept = [Var(v) for v in sorted(pattern_vars(lhs)) if rng.random() < 0.7]
        rhs = _vary(rng, fn("k", *kept), pure=extended)
        rules.append(make_rule(f"r{i}", lhs, rhs, extended=extended))
    _check_rule_facts(rules)


_COPY_CASES = {
    "peano": fn("plus", peano_numeral(3), peano_numeral(2)),
    "par": eff("join", eff("par", eff("e1", Pure(Var("a"))), eff("e2", eff("e1", Pure(Var("b")))))),
    # retry-succ's right side holds a retry node, whose binding u holds a
    # plus redex, and plus-zero's right side is a bare variable
    "retry+peano": fn(
        "retry", fn("plus", peano_numeral(2), peano_numeral(0)), eff("request", Var("t"), Var("s1"), Var("s2"))
    ),
}


@pytest.mark.parametrize("name", sorted(_COPY_CASES))
def test_rules_and_theories_survive_copy_and_pickle(name):
    # a rule compiles its sides to code when they are first used and keeps
    # it: copies made before and after must come back equal, compile their
    # own and fire the same
    theory = compose(*(builtin(part) for part in name.split("+")))
    rules = list(theory.rules)
    t = _COPY_CASES[name]
    duplicates = (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    compiled_names = ("_compiled", "_matcher", "_contract")

    def compiled(rules):
        return [r.name for r in rules if any(c in vars(r) for c in compiled_names)]

    def check_copies():
        for dup in duplicates:
            again = dup(theory)
            assert again == theory and again.rules == theory.rules and again.checked
            for rule in rules:
                again = dup(rule)
                assert (again, hash(again), repr(again)) == (rule, hash(rule), repr(rule))
                assert (again.reach, again.identities) == (rule.reach, rule.identities)

    check_copies()
    assert compiled(rules) == []
    nf, trace = normalize(t, rules)
    g = reduction_graph(t, rules)
    assert compiled(rules)
    check_copies()
    for dup in duplicates:
        copies = [dup(rule) for rule in rules]
        again_nf, again_trace = normalize(t, copies)
        assert again_nf == nf and again_trace.export_lines() == trace.export_lines()
        assert reduction_graph(t, copies) == g
        again = dup(trace)
        assert again == trace and again.export_lines() == trace.export_lines()
    # a rule list copied whole, after the rules compiled, starts with
    # nothing compiled and lists the same contracta
    for dup in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        copies = dup(rules)
        assert copies == rules and compiled(copies) == []
        again_nf, again_trace = normalize(t, copies)
        assert again_nf == nf and again_trace.export_lines() == trace.export_lines()
        # a copy's functions are its own, run the bytecode of the same
        # generated text and read equal constants
        for again, rule in zip(copies, rules):
            for name in ("_matcher", "_contract"):
                mine, theirs = getattr(again, name), getattr(rule, name)
                assert mine is not theirs and mine.__code__ is theirs.__code__
                assert _constants(mine) == _constants(theirs)



@stack_safe
def test_traces_pickle_and_copy_without_cells_or_thunks(peano):
    # a trace hands over each step's position, rule and contractum: not the
    # thunk of a metalanguage step, which pickle refused as a local object,
    # nor the cell of a redex 10^4 deep, whose parent chain raised
    # RecursionError in pickle and deepcopy
    ml = normalize(Let("x", Pure(Var("a")), Pure(Var("x"))))[1]
    assert [s.redex.rule_name for s in ml.steps] == ["let-beta"]
    t = fn("plus", fn("zero"), fn("zero"))
    for _ in range(10_000):
        t = fn("succ", t)
    deep = normalize(t, list(peano.rules))[1]
    assert [s.redex.position for s in deep.steps] == [(0,) * 10_000]
    for trace in (ml, deep):
        for dup in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            again = dup(trace)
            assert again == trace and again.export_lines() == trace.export_lines()
            assert [s.redex.ml for s in again.steps] == [s.redex.ml for s in trace.steps]

def _constants(f) -> dict:
    """The constants a rule's compiled function reads from its namespace."""
    return {k: v for k, v in f.__globals__.items() if k[:1] == "C"}


def test_rule_index_prunes_par_rules(monkeypatch):
    rules = list(_scan_theory("par6").rules)
    assert sum(r.lhs.name == "par" for r in rules) == 14
    t = eff("par", eff("a1", Pure(Var("v"))), eff("b1", Pure(Var("w"))))
    # every candidate that retrieval decides goes through its rule's matcher
    tried = []
    for rule in rules:

        def counting(sub, name=rule.name, real=rule._matcher):
            if sub is t:
                tried.append(name)
            return real(sub)

        monkeypatch.setitem(rule.__dict__, "_matcher", counting)
    at_root = [r.rule_name for r in effrew.rewrite.all_redexes(t, rules) if r.position == ()]
    # the first argument's symbol leaves par-left.a1 and the 7 par-right
    # rules, whose first argument is a variable, and the second argument's
    # symbol leaves par-right.b1 of those; a flat loop tries all 14
    assert tried == ["par-left.a1", "par-right.b1"]
    assert [n for n in tried if n.startswith("par-left.")] == ["par-left.a1"]
    assert at_root == ["par-left.a1", "par-right.b1"]


_LAM_X, _LAM_Y, _LAM_YX = Lam("x", Var("x")), Lam("y", Var("y")), Lam("y", Var("x"))
_DUP = make_rule("dup", eff("or", Var("s"), Var("s")), Var("s"))


def test_compiled_matcher_reads_repeats_and_value_metavariables():
    # subjects that hold binders: a repeated variable must see alpha-equal
    # subterms, and a value metavariable reads the payload of a pure or
    # takes a plain variable; each matcher gives match_pattern's bindings
    [join] = [r for r in builtin("par").rules if r.name == "join-par"]
    same = make_rule("same", eff("join", eff("par", Var("v"), Var("v"))), Pure(Var("v")), extended=True)
    bound = Let("z", Pure(Var("a")), Pure(Var("z")))
    cases = [
        (_DUP, eff("or", Pure(_LAM_X), Pure(_LAM_Y)), {"s": Pure(_LAM_X)}),
        (_DUP, eff("or", Pure(_LAM_X), Pure(_LAM_YX)), None),
        (_DUP, eff("or", bound, Let("y", Pure(Var("a")), Pure(Var("y")))), {"s": bound}),
        (_DUP, eff("or", bound, Let("y", Pure(Var("a")), Pure(Var("z")))), None),
        (_DUP, eff("or", Var("a"), Var("b")), None),
        (join, eff("join", eff("par", Pure(_LAM_X), Var("w"))), {"v": _LAM_X, "w": Var("w")}),
        (join, eff("join", eff("par", Var("u"), Pure(_LAM_YX))), {"v": Var("u"), "w": _LAM_YX}),
        (join, eff("join", eff("par", Pure(_LAM_X), eff("e1", Pure(_LAM_Y)))), None),
        (join, eff("join", eff("par", eff("e1", Pure(_LAM_X)), Var("w"))), None),
        (join, eff("join", eff("par", fn("c"), Var("w"))), None),
        (same, eff("join", eff("par", Pure(_LAM_X), Pure(_LAM_Y))), {"v": _LAM_X}),
        (same, eff("join", eff("par", Var("u"), Pure(Var("u")))), {"v": Var("u")}),
        (same, eff("join", eff("par", Pure(_LAM_X), Pure(_LAM_YX))), None),
        (same, eff("join", eff("par", Pure(_LAM_X), eff("e1", Pure(_LAM_X)))), None),
    ]
    for rule, sub, expected in cases:
        got, reference = rule._matcher(sub), match_pattern(rule.lhs, sub, rule.value_vars)
        assert got == reference == expected
        # both bind a repeated variable to its first occurrence, in preorder
        assert got is None or all(got[v] is reference[v] for v in got)


def _check_contract(rules, rule, bindings, rng):
    """rule._contract from bindings, at a random cell under a random
    record, lists what a fresh _list_redexes walk of its contractum lists
    from that cell under that record: the same positions, rules and
    bindings, in the same order, at the same nodes.  Each entry's cell
    climbs to the very cell it was listed from, and the entries at one node
    share one cell."""
    index = head_index(rules)
    at = _ROOT
    for _ in range(rng.randint(0, 3)):
        at = (at, rng.randint(0, 2), at[2] + 1)
    clean: dict = {}
    for value in bindings.values():
        if rng.random() < 0.5:
            _list_redexes(value, _ROOT, index, clean, [])
    for key in list(clean):
        if rng.random() < 0.3:
            del clean[key]
    listed: list = []
    contractum = rule._contract(bindings, at, index, dict(clean), listed)
    assert contractum == reference_build(rule.rhs, bindings) == rule._contract(bindings)
    walked: list = []
    _list_redexes(contractum, at, index, dict(clean), walked)

    def view(entries):
        out, cells = [], {}
        for cell, idx, name, r, sub, contraction in entries:
            up = cell
            while up[2] > at[2]:
                up = up[0]
            pos = _cell_position(cell)
            assert up is at and cell[2] == len(pos)
            assert cells.setdefault(pos, cell) is cell
            found = contraction() if r is None else {v: id(b) for v, b in contraction.items()}
            out.append((pos, idx, name, r is None, id(sub), found))
        return out

    assert view(listed) == view(walked)


@pytest.mark.parametrize("name", [*builtin_names(), "retry+peano", "par6"])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_contract_lists_what_a_walk_lists_for_builtin_rules(name, seed):
    # bindings drawn from the subterms of a random term of the theory, so
    # that they hold redexes of its rules, and the right-side nodes built
    # over them do too
    rng = random.Random(seed)
    t, rules = _random_term((name, "interleave" if name == "par6" else "typed"), seed)
    pool = [sub for _, sub in iter_subterms(t)]
    for rule in rules:
        bindings = {v: rng.choice(pool) for v in sorted(pattern_vars(rule.lhs))}
        _check_contract(rules, rule, bindings, rng)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_contract_lists_what_a_walk_lists_for_random_rules(seed):
    rng = random.Random(seed)
    rules = list(_TREE_EDGE_RULES)
    for i in range(rng.randint(1, 6)):
        lhs = _vary(rng, symbolic_term(rng, rng.randint(1, 7)), pure=False)
        if isinstance(lhs, Var):
            lhs = fn("f", lhs)
        extended = rng.random() < 0.5
        rhs = _vary(rng, _over(rng, symbolic_term(rng, rng.randint(1, 9)), sorted(pattern_vars(lhs))), extended)
        rules.append(make_rule(f"r{i}", lhs, rhs, extended=extended))
    rng.shuffle(rules)
    pool = [sub for _ in range(4) for _, sub in iter_subterms(_vary(rng, symbolic_term(rng, rng.randint(1, 10)), True))]
    for rule in rules:
        bindings = {v: rng.choice(pool) for v in sorted(pattern_vars(rule.lhs))}
        _check_contract(rules, rule, bindings, rng)


# names that would break generated code, or read as one of its own
# identifiers, if they reached its text
_HOSTILE = (
    "'", '"', "'''", "\n", "\\", "{", "}", "__import__('os')", "ñámé", "ラムダ", "x​y",
    "s0", "s1", "t0", "c1", "C0", "C1", "b", "d", "h", "at", "out", "get", "index", "clean", "rewrite",
    "SymApp", "return None", "None", "type", "len",
)
_GENERATED = re.compile(
    r"[Cstc]\d+|b|at|index|clean|out|d|h|get|SymApp|Pure|Var|alpha_eq|rewrite|_list_redexes"
    r"|type|len|id|name|kind|params|args|body|matches"
)


def _hostile(rng, t, names: dict):
    """t with its variable and symbol names, and the parameters of its
    symbols, renamed through names, which picks a hostile name for each
    name when it is first met, so that repeats stay repeats."""
    if isinstance(t, Var):
        return Var(names.setdefault(("var", t.name), rng.choice(_HOSTILE)))
    if isinstance(t, Pure):
        return Pure(_hostile(rng, t.body, names))
    params = names.setdefault(("params", t.name), rng.choice([(), (rng.choice(_HOSTILE),), (3, rng.choice(_HOSTILE))]))
    name = names.setdefault(("sym", t.name), rng.choice(_HOSTILE))
    return SymApp(t.kind, name, params, tuple(_hostile(rng, a, names) for a in t.args))


def test_compiled_rules_hold_no_text_of_their_own():
    # symbol names, parameters and variable names that are quotes,
    # newlines, code, non-ASCII text or the generated code's own names
    # reach its namespace only: the code objects hold no string and name
    # nothing but what the generator writes.  Matchers agree with
    # match_pattern, and contractions with the reference builder
    rng = random.Random(23)
    compiled = 0
    for i in range(150):
        lhs = symbolic_term(rng, rng.randint(2, 8))
        if not isinstance(lhs, SymApp):
            continue
        extended = rng.random() < 0.5
        rhs = _vary(rng, _over(rng, symbolic_term(rng, rng.randint(1, 8)), sorted(pattern_vars(lhs))), extended)
        names: dict = {}
        lhs, rhs = _hostile(rng, lhs, names), _hostile(rng, rhs, names)
        rule = make_rule(f"h{i}", lhs, rhs, extended=extended)
        for f in (rule._matcher, rule._contract):
            code = f.__code__
            assert all(c is None or type(c) is int for c in code.co_consts), code.co_consts
            assert all(_GENERATED.fullmatch(n) for n in code.co_names + code.co_varnames), code.co_names
        compiled += 1
        for _ in range(6):
            bindings = {v: _hostile(rng, symbolic_term(rng, rng.randint(1, 4)), names) for v in pattern_vars(lhs)}
            for v in rule.value_vars:
                bindings[v] = rng.choice([Pure(bindings[v]), Var(v), bindings[v]])
            sub = instantiate(lhs, bindings)
            if sub.args and rng.random() < 0.5:
                # a subject that may differ below the root
                args = list(sub.args)
                args[rng.randrange(len(args))] = _hostile(rng, symbolic_term(rng, rng.randint(1, 4)), names)
                sub = SymApp(sub.kind, sub.name, sub.params, tuple(args))
            expected = match_pattern(rule.lhs, sub, rule.value_vars)
            assert rule._matcher(sub) == expected
            if expected is not None:
                assert rule._contract(expected) == reference_build(rule.rhs, expected)
    assert compiled > 100


def test_rules_of_one_shape_share_one_code_object():
    # the generated text names nothing of its rule's, so rules of one shape
    # run one code object over constants of their own
    par = {r.name: r for r in builtin("par").rules}
    e1, e2, right = par["par-left.e1"], par["par-left.e2"], par["par-right.e1"]
    for name in ("_matcher", "_contract"):
        mine, theirs = getattr(e1, name), getattr(e2, name)
        assert mine.__code__ is theirs.__code__ and _constants(mine) != _constants(theirs)
    assert e1._matcher.__code__ is not right._matcher.__code__
    writes = [r for r in builtin("global-state").rules if r.name.startswith("assign-assign.")]
    assert len(writes) == 4 and len({id(r._matcher.__code__) for r in writes}) == 1


@stack_safe
def test_deep_sides_compile_in_linear_time_and_fire():
    # a rule whose left side and one whose right side is a succ tower 6000
    # deep compile to code with a statement or two per node; generated code
    # that nests a scope per node compiles in quadratic time
    n = 6000
    tower = Var("x")
    for _ in range(n):
        tower = fn("succ", tower)
    down, up = make_rule("down", fn("f", tower), fn("g", Var("x"))), make_rule("up", fn("u", Var("x")), tower)
    start = time.perf_counter()
    assert down._matcher and up._contract
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"took {elapsed:.2f} s"
    # the deep left side matches a deep enough subject, and only that
    assert normalize(fn("f", peano_numeral(n + 2)), [down])[0] == fn("g", peano_numeral(2))
    shallow = fn("f", peano_numeral(n - 1))
    assert normalize(shallow, [down])[0] == shallow
    nf, trace = normalize(fn("u", fn("zero")), [up, down])
    assert nf == reference_build(tower, {"x": fn("zero")}) == peano_numeral(n)
    assert len(trace.steps) == 1


def test_engine_runs_without_match_pattern(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the engine called match_pattern")

    monkeypatch.setattr(effrew.rewrite, "match_pattern", refuse)
    par = list(builtin("par").rules)
    joined, pair = eff("join", eff("par", Pure(Var("a")), Pure(Var("b")))), Pure(fn("pair", Var("a"), Var("b")))
    cases = [
        (par, joined, ["join-par"], pair),
        (par, Let("x", joined, eff("e1", Pure(Var("x")))), ["eff-assoc", "join-par"], eff("e1", pair)),
        ([_DUP], eff("or", Pure(_LAM_X), Pure(_LAM_Y)), ["dup"], Pure(_LAM_X)),
        ([_DUP], eff("or", Pure(_LAM_X), Pure(_LAM_YX)), [], eff("or", Pure(_LAM_X), Pure(_LAM_YX))),
    ]
    for rules, t, redexes, nf in cases:
        assert [r.rule_name for r in all_redexes(t, rules)] == redexes
        assert normalize(t, rules, strategy="rightmost-innermost")[0] == nf
        for strategy, seed in (("leftmost-outermost", None), ("random", 5)):
            normalize(t, rules, strategy=strategy, seed=seed)
        g = reduction_graph(t, rules)
        assert canonical_key(nf) in g.normal_forms and not g.truncated


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


@pytest.mark.parametrize("strategy", ["leftmost-outermost", "rightmost-innermost"])
@stack_safe
def test_plus_800_normalizes_quickly(peano, strategy):
    # a step that rescans the term from the root, rebuilds its spine, or
    # keeps every intermediate term makes this 2-3 s per strategy
    t = fn("plus", peano_numeral(800), peano_numeral(800))
    start = time.perf_counter()
    nf, trace = normalize(t, list(peano.rules), strategy=strategy)
    elapsed = time.perf_counter() - start
    assert len(trace.steps) == 801
    assert numeral_value(nf) == 1600
    assert elapsed < 0.5, f"{strategy} took {elapsed:.2f} s"


@pytest.mark.parametrize("strategy", ["leftmost-outermost", "rightmost-innermost"])
@stack_safe
def test_plus_20000_normalizes_quickly(peano, strategy):
    # a step that pays O(depth) in position tuples, slices or compares
    # makes this quadratic: 20-25 s per strategy
    t = fn("plus", peano_numeral(20_000), peano_numeral(20_000))
    start = time.perf_counter()
    nf, trace = normalize(t, list(peano.rules), strategy=strategy, fuel=30_000)
    elapsed = time.perf_counter() - start
    assert len(trace.steps) == 20_001
    assert numeral_value(nf) == 40_000
    assert elapsed < 2.0, f"{strategy} took {elapsed:.2f} s"


@pytest.mark.parametrize("strategy", ["leftmost-outermost", "rightmost-innermost"])
@stack_safe
def test_plus_steps_climb_only_to_ancestors_they_recheck(peano, strategy, monkeypatch):
    # no rule is rooted at succ, so a step under a succ climbs nowhere, and
    # what is left is the way back to the root at the end; a step that
    # climbs reach - 1 levels whatever the heads makes this 2n - 1
    n = 300
    climbs = 0
    up = effrew.rewrite._Zipper.up

    def counting(zipper):
        nonlocal climbs
        climbs += 1
        up(zipper)

    monkeypatch.setattr(effrew.rewrite._Zipper, "up", counting)
    nf, trace = normalize(fn("plus", peano_numeral(n), peano_numeral(n)), list(peano.rules), strategy=strategy)
    assert len(trace.steps) == n + 1
    assert numeral_value(nf) == 2 * n
    assert climbs <= n + 1


@pytest.mark.parametrize("strategy", ["leftmost-outermost", "rightmost-innermost"])
@stack_safe
def test_a_rule_that_reads_every_level_costs_no_walk_up_where_it_is_not_rooted(peano, strategy):
    # eq repeats its variable, so the rules at an eq node read every level
    # below it; but no eq lies above any step here, so a step looks up no
    # ancestor past the window that the other rules read.  Looking up
    # each ancestor's head makes this quadratic: 17 s per strategy
    n = 16_000
    plain, rules = list(peano.rules), _eq_rules()
    t = fn("plus", peano_numeral(n), peano_numeral(n))
    start = time.perf_counter()
    nf, trace = normalize(t, rules, strategy=strategy, fuel=20_000)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{strategy} took {elapsed:.2f} s"
    plain_nf, plain_trace = normalize(t, plain, strategy=strategy, fuel=20_000)
    assert nf == plain_nf and numeral_value(nf) == 2 * n

    # the same trace: each step's rule, rule index and depth, read off its
    # cell, and its whole position at a few steps, since reading every
    # position takes time quadratic in n
    def steps(trace):
        return [(entry[2], entry[1], entry[0][2]) for entry in trace.steps[0]._replay.fired]

    assert len(trace.steps) == len(plain_trace.steps) == n + 1
    assert steps(trace) == steps(plain_trace)
    for i in (0, 1, 2, n // 2, n):
        assert trace.steps[i].redex.position == plain_trace.steps[i].redex.position == (0,) * i


def test_a_trace_step_keeps_only_what_it_reads():
    # a step keeps its cell, rule index, rule name, rule and contractum:
    # about 256 bytes here.  Keeping its listing entry, which holds the
    # redex's old subterm and its bindings or thunk, took about 560
    n = 20_000
    omega = Lam("x", App(Var("x"), Var("x")))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with pytest.raises(FuelExhausted) as caught:
            normalize(App(omega, omega), [], fuel=n)
        per_step = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(caught.value.trace.steps) == n
    assert per_step < 400, f"{per_step:.0f} bytes per step"


@pytest.mark.parametrize("strategy", ["leftmost-outermost", "rightmost-innermost"])
@stack_safe
def test_plus_steps_list_contracta_from_the_right_side(peano, strategy, monkeypatch):
    # each step lists its contractum off the rule's right side: plus is
    # matched where it is built, and the numerals bound to x and y are
    # known to have no redex, so the start term is the only term walked;
    # a step that walks its contractum makes this n + 2.  A rule's compiled
    # code calls the walk through the module, so the count sees its calls
    n = 300
    walks = 0
    walk = effrew.rewrite._list_redexes

    def counting(*args):
        nonlocal walks
        walks += 1
        walk(*args)

    monkeypatch.setattr(effrew.rewrite, "_list_redexes", counting)
    nf, trace = normalize(fn("plus", peano_numeral(n), peano_numeral(n)), list(peano.rules), strategy=strategy)
    assert len(trace.steps) == n + 1
    assert numeral_value(nf) == 2 * n
    assert walks == 1


@pytest.mark.parametrize("strategy", ["leftmost-outermost", "rightmost-innermost"])
@stack_safe
def test_deep_fuel_exhaustion_keeps_partial_term_and_positions(peano, strategy):
    with pytest.raises(FuelExhausted) as info:
        normalize(fn("plus", peano_numeral(5000), peano_numeral(5000)), list(peano.rules), strategy=strategy, fuel=2500)
    partial_term = fn("plus", peano_numeral(2500), peano_numeral(5000))
    for _ in range(2500):
        partial_term = fn("succ", partial_term)
    assert info.value.term == partial_term
    steps = info.value.trace.steps
    assert len(steps) == 2500
    assert all(s.redex.position == (0,) * i for i, s in enumerate(steps))
