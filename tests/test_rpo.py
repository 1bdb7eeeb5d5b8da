import copy
import dataclasses
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effrew import rpo
from effrew.cli import json_text
from effrew.rewrite import RuleError, make_rule
from effrew.rpo import (
    CASE_EQ,
    CASE_LEX,
    CASE_PREC,
    CASE_SUB,
    NonSymbolicTermError,
    Precedence,
    PrecedenceError,
    RpoDerivation,
    SearchBoundError,
    _derivation,
    _orientations,
    certify_ruleset,
    lex_greater,
    rpo_geq,
    rpo_greater,
    search_precedence,
    validate_derivation,
)
from effrew.terms import (
    App, Lam, Pure, SymApp, Var, eff, fn, ident_str, iter_subterms, replace_at, substitute
)
from effrew.theories import builtin, builtin_names, compose
from oracles import (
    _orient,
    _Prover,
    brute_force_precedence,
    reference_certify,
    reference_closure,
    reference_consistent,
    reference_derivation_json,
    reference_derivation_repr,
    reference_pretty,
    reference_search_precedence,
)
from stack_safe import stack_safe
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
    assert not Precedence.consistent([(F, F)])
    assert not Precedence.consistent([(F, G), (G, H), (H, F)])
    assert Precedence.consistent([(F, G), (F, H), (G, H), (C, F)])
    assert Precedence.consistent(p for p in [(F, G), (G, H)])
    assert not Precedence.consistent(p for p in [(G, H), (F, G), (H, F)])


@st.composite
def _pair_sets(draw):
    """Sets of pairs over up to 6 identities, with reflexive pairs and
    cycles of length 2-6 among them."""
    ids = [(name, ()) for name in "abcdef"[: draw(st.integers(1, 6))]]
    ident = st.sampled_from(ids)
    pairs = {(a, b) for a, b in draw(st.lists(st.tuples(ident, ident), max_size=10)) if a != b}
    if draw(st.integers(0, 3)) == 0:
        a = draw(ident)
        pairs.add((a, a))
    if len(ids) >= 2 and draw(st.booleans()):
        cycle = draw(st.permutations(ids))[: draw(st.integers(2, len(ids)))]
        pairs |= set(zip(cycle, cycle[1:] + cycle[:1]))
    return pairs


@given(_pair_sets())
@settings(max_examples=400)
def test_precedence_consistent_agrees_with_closure(pairs):
    assert Precedence.consistent(pairs) == reference_consistent(pairs)


def _closure_or_error(pairs):
    """Precedence(pairs)'s closed pairs, or the message it raises."""
    try:
        return Precedence(pairs).pairs
    except PrecedenceError as e:
        return str(e)


def _reference_closure_or_error(pairs):
    closed = reference_closure(pairs)
    if isinstance(closed, frozenset):
        return closed
    return f"precedence is not irreflexive: {ident_str(closed)} > {ident_str(closed)}"


@given(_pair_sets())
@settings(max_examples=400)
def test_precedence_closure_agrees_with_reference(pairs):
    # the closed pairs, or the error naming the first left-hand identity,
    # in pair order, that reaches itself
    assert _closure_or_error(pairs) == _reference_closure_or_error(pairs)
    assert _closure_or_error(iter(pairs)) == _reference_closure_or_error(pairs)


def test_precedence_error_names_first_left_identity_on_a_cycle():
    # z is on no cycle; a is the first identity on one, but b is the
    # first left-hand identity on one
    a, b, c, y, z = ((n, ()) for n in "abcyz")
    pairs = [(z, a), (b, c), (c, b), (a, y), (y, a)]
    with pytest.raises(PrecedenceError, match=r"^precedence is not irreflexive: b > b$"):
        Precedence(pairs)
    assert reference_closure(pairs) == b


@given(_pair_sets(), _pair_sets())
@settings(max_examples=300)
def test_precedence_extended_agrees_with_reference(pairs, extra):
    if not isinstance(reference_closure(pairs), frozenset):
        return
    p = Precedence(pairs)
    try:
        got = p.extended(extra).pairs
    except PrecedenceError as e:
        got = str(e)
    union = p.pairs | set(extra)
    assert got == _closure_or_error(union) == _reference_closure_or_error(union)


def test_search_checks_each_added_pair_once(monkeypatch, par, retry):
    # the search keeps the chosen pairs as closed masks and hands _order
    # only the pairs of a choice that the masks do not hold yet: each of
    # these pairs once, and nothing for a choice that adds none.  The
    # rules' orientations are single pairs, so no conjunct forms a union
    # and Precedence.consistent is never called
    sizes, added = [], []
    consistent, order = Precedence.consistent, rpo._order

    def counted(pairs):
        sizes.append(len(pairs))
        return consistent(pairs)

    def recorded(below, i, j):
        added.append((i, j))
        return order(below, i, j)

    rules = list(compose(par, retry).rules)
    monkeypatch.setattr(Precedence, "consistent", staticmethod(counted))
    monkeypatch.setattr(rpo, "_order", recorded)
    prec = search_precedence(rules)
    assert prec.display_lines() == [
        "par > e1", "par > e2", "par > join", "par > request", "retry > request"
    ]
    assert sizes == []
    # eleven choices, one empty, ten of one pair each, of which five repeat
    # a pair chosen before
    assert _named(added, rules) == [
        "retry > request", "par > e1", "par > e2", "par > join", "par > request"
    ]
    # a choice the closure holds already, f > h after f > g and g > h, is
    # not checked either
    added.clear()
    x = v("x")
    shortcut = [
        make_rule("fg", fn("f", x), fn("g", x)),
        make_rule("gh", fn("g", x), fn("h", x)),
        make_rule("fh", fn("f", x), fn("h", x)),
    ]
    assert search_precedence(shortcut).display_lines() == ["f > g", "f > h", "g > h"]
    assert _named(added, shortcut) == ["f > g", "g > h"]


def _named(added, rules):
    """The pairs of bit indices that the search handed _order, by name."""
    ids = rpo.rule_identities([r for r in rules if not r.extended])
    return [f"{ident_str(ids[i])} > {ident_str(ids[j])}" for i, j in added]


def test_extensions_check_only_unions_that_add_pairs_to_both(monkeypatch):
    # f(x) > g(h(x), g(x)) by RPO(2) needs f > g, then f(x) > h(x), which
    # needs f > h: that union adds a pair to both parts and is checked;
    # f(x) > g(x) needs f > g again, and its union is f > g, f > h itself
    sizes = []
    consistent = Precedence.consistent

    def counted(pairs):
        sizes.append(sorted(pairs))
        return consistent(pairs)

    monkeypatch.setattr(Precedence, "consistent", staticmethod(counted))
    x = v("x")
    s, t = fn("f", x), fn("g", fn("h", x), fn("g", x))
    assert _orientations(s, t, {}) == _orient(s, t, {}) == [frozenset({(F, G), (F, H)})]
    assert sizes == [[(F, G), (F, H)]]


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


def _cases_down(d):
    """The (case, index) of each node of a derivation with one child per
    node, from the root down."""
    out = []
    while True:
        out.append((d.rule, d.index))
        if not d.children:
            return out
        (d,) = d.children


def test_variable_goal_takes_the_leftmost_occurrence():
    x, y = v("x"), v("y")
    s = fn("f", fn("g", y, x), x)
    d = rpo_greater(EMPTY, s, x)
    assert d == _Prover(EMPTY).greater(s, x)
    # x sits at /0/1 and at /1; the path goes to the first
    assert _cases_down(d) == [(CASE_SUB, 0), (CASE_SUB, 1), (CASE_EQ, None)]
    assert d.children[0].lhs == fn("g", y, x) and d.children[0].children[0].lhs == x
    assert validate_derivation(EMPTY, d)


def test_variable_goal_without_occurrence_fails():
    s, z = fn("f", fn("g", v("y"), v("x")), v("x")), v("z")
    assert rpo_greater(EMPTY, s, z) is None
    assert _Prover(EMPTY).greater(s, z) is None
    assert _orient(s, z, {}) == []
    assert _orientations(s, z, {}) == []
    # a variable is not greater than itself, nor than another variable
    assert _orientations(v("x"), v("x"), {}) == []
    assert _orientations(s, v("y"), {}) == [frozenset()]


def test_repeated_right_variable_shares_one_node():
    x, y = v("x"), v("y")
    s = fn("f", fn("g", x), y)
    t = fn("h", x, x, fn("h", y, x, x))
    prec = Precedence([(F, H)])
    d = rpo_greater(prec, s, t)
    assert d == _Prover(prec).greater(s, t)
    assert d.rule == CASE_PREC and validate_derivation(prec, d)
    # one memo entry for f(g(x), y) > x, however often the right side has x
    assert d.children[0] is d.children[1] is d.children[2].children[1]
    assert _cases_down(d.children[0]) == [(CASE_SUB, 0), (CASE_SUB, 0), (CASE_EQ, None)]
    assert _orientations(s, t, {}) == _orient(s, t, {}) == [frozenset({(F, H)})]


def test_search_agrees_with_reference_on_variable_right_sides():
    x, y = v("x"), v("y")
    drops = [
        make_rule("drop-left", fn("plus", fn("zero"), y), y),
        make_rule("drop-deep", fn("f", fn("g", fn("h", x, y)), x), y),
    ]
    assert search_precedence(drops) == reference_search_precedence(drops) == EMPTY
    rng = random.Random(29)
    checked = 0
    while checked < 200:
        rules = []
        for rule in _random_rules(rng):
            names = sorted({t.name for _, t in iter_subterms(rule.lhs) if isinstance(t, Var)})
            if names and rng.random() < 0.5:  # the same left side, dropping to a variable
                rule = make_rule(rule.name, rule.lhs, Var(rng.choice(names)))
            rules.append(rule)
        if not any(isinstance(rule.rhs, Var) for rule in rules):
            continue
        prec = search_precedence(rules)
        assert prec == reference_search_precedence(rules)
        if prec is not None:
            text, blob = reference_certify(prec, rules)
            report = certify_ruleset(prec, rules)
            assert report.text() == text and report.to_json() == blob
        checked += 1


def test_non_symbolic_rejected():
    # the message names the first node outside the fragment, in preorder,
    # by its constructor and position
    u = v("u")
    cases = [
        (Lam("x", v("x")), u, "left term is not in the symbolic fragment: lam at /"),
        (fn("g", u), Pure(u), "right term is not in the symbolic fragment: pure at /"),
        (fn("g", u, fn("k", Lam("x", u), Pure(u))), u,
         "left term is not in the symbolic fragment: lam at /1/0"),
    ]
    for s, t, message in cases:
        with pytest.raises(NonSymbolicTermError) as caught:
            rpo_greater(EMPTY, s, t)
        assert str(caught.value) == message


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


def test_derivation_node_contract():
    fields = dataclasses.fields(RpoDerivation)
    assert [f.name for f in fields] == ["lhs", "rhs", "rule", "index", "children"]
    assert [f.default for f in fields[3:]] == [None, ()]
    assert all(f.default is dataclasses.MISSING for f in fields[:3])
    d = rpo_greater(Precedence([(F, G)]), fn("f", v("u"), v("u")), fn("g", v("u")))
    assert (d.rule, d.index, len(d.children)) == (CASE_PREC, None, 1)
    leaf = RpoDerivation(v("u"), v("u"), CASE_EQ)
    assert (leaf.index, leaf.children) == (None, ())
    assert RpoDerivation(lhs=v("u"), rhs=v("u"), rule=CASE_EQ) == leaf
    changed = dataclasses.replace(d, rule="unknown")
    assert changed.rule == "unknown" and changed.children is d.children and changed != d
    for name in ("lhs", "rule", "index", "children"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, None)
    # a name that is no field, and deleting a field, are refused the same way
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del d.rule
    assert d.rule == CASE_PREC and not hasattr(d, "extra")
    for copied in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert copied == d and hash(copied) == hash(d) and repr(copied) == repr(d)
    assert copy.copy(d).children is d.children


def test_derivation_eq_hash_repr_follow_the_fields(gs, nondet, par, retry, peano):
    for theory in (gs, nondet, par, retry, peano):
        again = certify_ruleset(theory.precedence, list(theory.rules))
        for e, f in zip(certify_ruleset(theory.precedence, list(theory.rules)).entries, again.entries):
            if e.derivation is None:
                continue
            d = e.derivation
            assert d is not f.derivation and d == f.derivation and hash(d) == hash(f.derivation)
            assert repr(d) == reference_derivation_repr(d)
    x, y = v("x"), v("y")
    d = RpoDerivation(fn("f", x), x, CASE_SUB, 0, (RpoDerivation(x, x, CASE_EQ),))
    for other in (
        RpoDerivation(fn("f", x), x, CASE_SUB, 1, d.children),
        RpoDerivation(fn("f", x), x, CASE_LEX, 0, d.children),
        RpoDerivation(fn("g", x), x, CASE_SUB, 0, d.children),
        RpoDerivation(fn("f", x), x, CASE_SUB, 0, (RpoDerivation(x, y, CASE_EQ),)),
        RpoDerivation(fn("f", x), x, CASE_SUB, 0, d.children * 2),
        RpoDerivation(fn("f", x), x, CASE_SUB, 0),
    ):
        assert d != other and other != d
    assert d != (d.lhs, d.rhs, d.rule, d.index, d.children)
    # a derivation is never equal to a term with the same children, at the
    # root or within a term
    leaf, app = d.children[0], App(x, x)
    assert leaf != app and app != leaf and fn("f", leaf) != fn("f", app) and fn("f", app) != fn("f", leaf)


def test_equality_and_hash_walk_each_shared_node_once():
    # two towers of 61 shared nodes each, about 2^60 nodes unfolded, built
    # apart from each other down to their terms
    _, d = _shared_tower(60)
    _, e = _shared_tower(60)
    assert d is not e and d.lhs is not e.lhs
    start = time.perf_counter()
    assert d == e and hash(d) == hash(e)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"equality and hash took {elapsed:.2f} s"
    # a node broken below shared ones is still found, on either side
    _, small = _shared_tower(4)
    assert all(small != broken and broken != small for broken in _break_each_node(small))


# distinct derivation nodes (by id) in the certify report of each builtin,
# each pair and the five-way composition, recorded before the node type
# was slotted; fewer would mean lost sharing, more a node built twice
_CERTIFY_NODES = {
    ("global-state",): 28, ("nondet",): 10, ("par",): 36, ("peano",): 9, ("retry",): 16,
    ("global-state", "nondet"): 38, ("global-state", "par"): 102,
    ("global-state", "peano"): 37, ("global-state", "retry"): 44,
    ("nondet", "par"): 60, ("nondet", "peano"): 19, ("nondet", "retry"): 26,
    ("par", "peano"): 45, ("par", "retry"): 76, ("peano", "retry"): 25,
    ("global-state", "nondet", "par", "peano", "retry"): 175,
}


def test_certify_node_sharing_is_pinned():
    assert set(_CERTIFY_NODES) == {(n,) for n in builtin_names()} | {
        tuple(c) for c in itertools.combinations(builtin_names(), 2)
    } | {tuple(builtin_names())}
    for names, expected in _CERTIFY_NODES.items():
        theory = compose(*(builtin(n) for n in names))
        report = certify_ruleset(theory.precedence, list(theory.rules))
        seen, stack = set(), [e.derivation for e in report.entries if e.derivation is not None]
        while stack:
            d = stack.pop()
            if id(d) not in seen:
                seen.add(id(d))
                stack += d.children
        assert len(seen) == expected, names


@stack_safe
def test_deep_certify_reports_pickle_and_copy():
    # a derivation reduces to flat tables of its nodes and of its terms'
    # nodes, so pickle and deepcopy take no Python stack per level; reduced
    # to its fields, a report of g(f^3000(x)) -> x raised RecursionError.
    # Its JSON spells out every node's terms, so it takes seconds to build
    # at this depth, and repr, which does too, is not called
    report = certify_ruleset(EMPTY, [make_rule("r", fn("g", _tower("f", 3000, v("x"))), v("x"))])
    expected = json_text(report.to_json())
    for dup in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        again = dup(report)
        assert again == report and json_text(again.to_json()) == expected
        # a subterm shared between nodes stays shared
        d = again.entries[0].derivation
        assert d.children[0].lhs is d.lhs.args[0] and d.children[0].rhs is d.rhs

@stack_safe
def test_derivation_eq_hash_repr_are_stack_safe():
    n = 10_000
    x = v("x")
    # two certify reports of g(f^n(x)) -> x, from rules built apart
    reports = [
        certify_ruleset(EMPTY, [make_rule("drop", fn("g", _tower("f", n, v("x"))), v("x"))])
        for _ in range(2)
    ]
    (e,), (f,) = (r.entries for r in reports)
    d, g = e.derivation, f.derivation
    assert d.lhs is not g.lhs
    start = time.perf_counter()
    assert d == g and hash(d) == hash(g)
    assert e == f and hash(e) == hash(f) and reports[0] == reports[1]
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"equality and hash took {elapsed:.2f} s"
    # a difference at the leaf, n + 1 levels down, is found
    path, node = [], d
    while node.children:
        path.append(node)
        (node,) = node.children
    changed = dataclasses.replace(node, rhs=v("y"))
    for node in reversed(path):
        changed = dataclasses.replace(node, children=(changed,))
    assert d != changed and changed != d
    # repr spells each node's terms out, so its length grows with the
    # square of a real derivation's depth; a chain of small nodes as deep
    # shows the walk is stack-safe
    chain = RpoDerivation(x, x, CASE_EQ)
    for _ in range(n):
        chain = RpoDerivation(x, x, CASE_SUB, 0, (chain,))
    text = repr(chain)
    head = "RpoDerivation(lhs=Var(name='x'), rhs=Var(name='x'), rule='case-3-subterm', index=0, children=("
    leaf = "RpoDerivation(lhs=Var(name='x'), rhs=Var(name='x'), rule='refl-eq', index=None, children=())"
    assert text == head * n + leaf + ",))" * n
    assert chain == copy.copy(chain) and hash(chain) == hash(copy.copy(chain))


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
        # every node is replayed, however deep
        assert not any(validate_derivation(prec, f) for f in _break_each_node(d))
        checked += 1


def _forgeries():
    """(check, valid derivation, forgery): each forgery differs from its
    valid derivation so that it fails only the named check of
    validate_derivation, under f > g."""
    x, y = v("x"), v("y")
    gx, fx = fn("g", x), fn("f", x)
    ggx, fgx = fn("g", gx), fn("f", gx)

    def sub(s, t, i, kid):
        return RpoDerivation(s, t, CASE_SUB, i, (kid,))

    def lex(s, t, witness):
        return RpoDerivation(s, t, CASE_LEX, 0, (witness, sub(s, x, 0, witness)))

    gx_x = sub(gx, x, 0, RpoDerivation(x, x, CASE_EQ))
    ggx_x = sub(ggx, x, 0, gx_x)
    prec = RpoDerivation(fx, gx, CASE_PREC, None, (sub(fx, x, 0, RpoDerivation(x, x, CASE_EQ)),))
    # f(g(x)) > f(x) by g(x) > x at argument 0
    fgx_fx = lex(fgx, fx, gx_x)
    fggx_fx = lex(fn("f", ggx), fx, ggx_x)
    for changed in ({"index": None}, {"index": 1}, {"index": -1}, {"children": ()}, {"children": gx_x.children * 2}):
        yield "RPO(3) index and children", gx_x, dataclasses.replace(gx_x, **changed)
    for children in ((), prec.children * 2):
        yield "RPO(2) children", prec, dataclasses.replace(prec, children=children)
    # heads that differ in name, in parameters, and in arity
    yield "RPO(1) heads", fgx_fx, dataclasses.replace(fgx_fx, rhs=fn("h", x))
    e_gx = eff("e", gx, params=(1,))
    yield "RPO(1) heads", lex(e_gx, eff("e", x, params=(1,)), gx_x), lex(e_gx, eff("e", x, params=(2,)), gx_x)
    fgxy = fn("f", gx, y)
    fgxy_fxy = RpoDerivation(
        fgxy, fn("f", x, y), CASE_LEX, 0,
        (gx_x, sub(fgxy, x, 0, gx_x), sub(fgxy, y, 1, RpoDerivation(y, y, CASE_EQ))),
    )
    yield "RPO(1) heads", fgxy_fxy, dataclasses.replace(fgxy_fxy, rhs=fx, children=fgxy_fxy.children[:2])
    for changed in (
        {"index": None}, {"index": 1}, {"index": -1},
        {"children": fgx_fx.children[:1]}, {"children": fgx_fx.children + fgx_fx.children[1:]},
    ):
        yield "RPO(1) index and children", fgx_fx, dataclasses.replace(fgx_fx, **changed)
    # the witness x = x of f(x) > f(x), and witnesses of g(x) > x and of
    # g(g(x)) > g(x) for the argument pair g(g(x)), x
    yield "RPO(1) witness", fgx_fx, lex(fx, fx, RpoDerivation(x, x, CASE_EQ))
    for witness in (gx_x, sub(ggx, gx, 0, RpoDerivation(gx, gx, CASE_EQ))):
        yield "RPO(1) witness", fggx_fx, dataclasses.replace(fggx_fx, children=(witness, *fggx_fx.children[1:]))


@pytest.mark.parametrize("check, valid, forged", list(_forgeries()))
def test_validate_rejects_each_forged_field(check, valid, forged):
    prec = Precedence([(F, G)])
    assert validate_derivation(prec, valid) and not validate_derivation(prec, forged), check


def _shared_tower(k):
    """A derivation of f(x) > h^k(x, x), where h^k(x, x) is h(h^(k-1)(x, x),
    h^(k-1)(x, x)) and h^0(x, x) is x: proved under f > h in time linear in
    k, since the memo hands both arguments' goals one shared node, while
    its unfolding as a tree has about 2^k nodes."""
    x = v("x")
    t = x
    for _ in range(k):
        t = fn("h", t, t)
    prec = Precedence([(F, H)])
    return prec, _derivation(prec, fn("f", x), t, {})


def test_validate_replays_each_shared_node_once():
    prec, d = _shared_tower(60)
    assert d.children[0] is d.children[1]
    start = time.perf_counter()
    assert validate_derivation(prec, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"validation took {elapsed:.2f} s"
    # a copy of a shared node broken on one path is a node of its own, so
    # it is still replayed
    prec, d = _shared_tower(4)
    assert validate_derivation(prec, d)
    assert not any(validate_derivation(prec, f) for f in _break_each_node(d))


def test_symbolic_check_visits_each_shared_node_once():
    # h^60(x, x) has 61 distinct nodes and about 2^60 as a tree; the check
    # that both sides are symbolic runs before the prover
    prec = Precedence([(F, H)])
    t = v("x")
    for _ in range(60):
        t = fn("h", t, t)
    start = time.perf_counter()
    assert rpo_greater(prec, fn("f", v("x")), t) is not None
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"rpo_greater took {elapsed:.2f} s"
    # a node outside the fragment is still found under shared ones, and
    # named by its constructor and position, not by printing the term
    bad = Pure(v("x"))
    for _ in range(60):
        bad = fn("h", bad, bad)
    start = time.perf_counter()
    with pytest.raises(NonSymbolicTermError) as caught:
        rpo_greater(prec, fn("f", v("x")), bad)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"rpo_greater took {elapsed:.2f} s"
    message = str(caught.value)
    assert message.startswith("right term is not in the symbolic fragment")
    assert "pure" in message and len(message) < 200, message


def _break_each_node(d):
    """d with one node's rule made unknown, once for each node."""
    yield dataclasses.replace(d, rule="unknown")
    for i, c in enumerate(d.children):
        for broken in _break_each_node(c):
            yield dataclasses.replace(d, children=d.children[:i] + (broken,) + d.children[i + 1 :])


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


_THEORY_SETS = [
    *((name,) for name in builtin_names()),
    *itertools.combinations(builtin_names(), 2),
    tuple(builtin_names()),
]


@pytest.mark.parametrize("names", _THEORY_SETS, ids="+".join)
def test_certified_entries_prove_their_own_rules(names):
    # a replay checks that a derivation is sound, not what it proves: each
    # certified entry's root must be its own rule's lhs > rhs
    theory = compose(*(builtin(n) for n in names))
    rules = {rule.name: rule for rule in theory.rules}
    report = certify_ruleset(theory.precedence, list(theory.rules))
    assert [e.rule_name for e in report.entries] == list(rules)
    for entry in report.entries:
        if entry.status == "certified":
            d, rule = entry.derivation, rules[entry.rule_name]
            assert (d.lhs, d.rhs) == (rule.lhs, rule.rhs) and d.rule != CASE_EQ
            assert validate_derivation(theory.precedence, d)


# -- corrupted certificates: each is a real derivation with one step that
# breaks a single clause of the definition, while its parents stay
# consistent with it, so that only that clause can reject it


def _certified(names, rule_name):
    theory = compose(*(builtin(n) for n in names))
    report = certify_ruleset(theory.precedence, list(theory.rules))
    d = report.entry(rule_name).derivation
    assert validate_derivation(theory.precedence, d)
    return theory.precedence, d


def test_validate_rejects_refl_eq_with_unequal_sides():
    z = Var("z")
    # plus(zero(), y) > z by RPO(3) at argument 1, from "y = z"
    prec, d = _certified(("peano",), "plus-zero")
    assert d.rule == CASE_SUB and d.children[0] == RpoDerivation(v("y"), v("y"), CASE_EQ)
    bad_eq = dataclasses.replace(d.children[0], rhs=z)
    assert not validate_derivation(prec, dataclasses.replace(d, rhs=z, children=(bad_eq,)))
    # retry(zero(), request(t, s1, s2)) > z, two RPO(3) steps down to "t = z"
    prec, d = _certified(("par", "retry"), "retry-zero")
    (mid,) = d.children
    assert mid.rule == CASE_SUB and mid.children[0].rule == CASE_EQ
    bad_mid = dataclasses.replace(mid, rhs=z, children=(dataclasses.replace(mid.children[0], rhs=z),))
    assert not validate_derivation(prec, dataclasses.replace(d, rhs=z, children=(bad_mid,)))


def test_validate_rejects_subterm_step_that_proves_another_goal():
    # RPO(3)'s subgoal must be the chosen argument on the left and t on
    # the right; each child below is itself valid
    prec, d = _certified(("peano",), "plus-zero")
    # plus(zero(), y) > y at argument 0, from "y = y": zero() is not y
    assert not validate_derivation(prec, dataclasses.replace(d, index=0))
    # plus(zero(), y) > z at argument 1, from "y = y"
    assert not validate_derivation(prec, dataclasses.replace(d, rhs=Var("z")))
    prec, d = _certified(("par", "retry"), "retry-zero")
    (mid,) = d.children
    # request(t, s1, s2) > t at argument 1, from "t = t": s1 is not t
    assert not validate_derivation(prec, dataclasses.replace(d, children=(dataclasses.replace(mid, index=1),)))


def test_validate_rejects_lex_step_with_unequal_prefix():
    # par(t, e1(s1)) > par(t, s1) decides at position 1; made to prove
    # par(t, e1(s1)) > par(s1, s1) with the same witness, the prefix t, s1
    # differs, while every side goal par(t, e1(s1)) > s1 holds
    prec, d = _certified(("par", "retry"), "par-right.e1")
    (lex,) = d.children
    assert lex.rule == CASE_LEX and lex.index == 1
    witness, _, to_s1 = lex.children
    s1 = lex.rhs.args[1]
    assert to_s1.rhs == s1
    pair = SymApp(lex.rhs.kind, lex.rhs.name, lex.rhs.params, (s1, s1))
    bad_lex = dataclasses.replace(lex, rhs=pair, children=(witness, to_s1, to_s1))
    top = SymApp(d.rhs.kind, d.rhs.name, d.rhs.params, (pair,))
    assert not validate_derivation(prec, dataclasses.replace(d, rhs=top, children=(bad_lex,)))


def test_validate_rejects_side_goals_that_prove_other_goals():
    # the side goals s > tj of RPO(1) and RPO(2) must have s on the left
    # and tj on the right; each child below is itself valid
    prec, d = _certified(("peano",), "plus-succ")
    (lex,) = d.children
    assert d.rule == CASE_PREC and lex.rule == CASE_LEX
    witness, to_x, to_y = lex.children
    assert (to_x.rhs, to_y.rhs) == (v("x"), v("y"))
    # RPO(2): succ(x) > x and plus(succ(x), y) > x stand for
    # plus(succ(x), y) > plus(x, y)
    assert not validate_derivation(prec, dataclasses.replace(d, children=(witness,)))
    assert not validate_derivation(prec, dataclasses.replace(d, children=(to_x,)))
    # RPO(1): the side goals swapped, or one made succ(x) > x
    for sides in ((witness, to_y, to_x), (witness, witness, to_y)):
        bad_lex = dataclasses.replace(lex, children=sides)
        assert not validate_derivation(prec, dataclasses.replace(d, children=(bad_lex,)))
    # RPO(2) under par+retry: the side goals for s1 and s2 swapped
    prec, d = _certified(("par", "retry"), "retry-succ")
    lex, to_s1, to_s2 = d.children
    assert d.rule == CASE_PREC and (to_s1.rhs, to_s2.rhs) == d.rhs.args[1:]
    assert not validate_derivation(prec, dataclasses.replace(d, children=(lex, to_s2, to_s1)))


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


def _chain(n, cycle=False, names=None):
    """s0(x) -> s1(x) -> ... -> s{n-1}(x), closed by s{n-1}(x) -> s0(x) when
    cycle; names, if given, replace s0 .. s{n-1}."""
    x = v("x")
    names = names or [f"s{i}" for i in range(n)]
    return [
        make_rule(f"{names[i]}-{names[(i + 1) % n]}", fn(names[i], x), fn(names[(i + 1) % n], x))
        for i in range(n if cycle else n - 1)
    ]


@pytest.mark.parametrize("n, cycle", [(n, False) for n in range(4, 9)] + [(6, True), (7, True), (8, True)])
def test_search_agrees_with_reference_on_benchmark_shapes(n, cycle):
    # relabelled, so that the descending order is not the name order
    rng = random.Random(n)
    for _ in range(5):
        rules = _chain(n, cycle, rng.sample("fghkpqrstw", n))
        prec = search_precedence(rules)
        assert prec == reference_search_precedence(rules)
        assert (prec is None) == cycle
        if prec is not None:
            assert prec.pairs == reference_closure(prec.pairs) and len(prec.pairs) == n * (n - 1) // 2


def test_search_agrees_with_reference_on_all_builtins():
    rules = list(compose(*(builtin(n) for n in builtin_names())).rules)
    prec = search_precedence(rules, max_symbols=16)
    assert prec == reference_search_precedence(rules, max_symbols=16)
    assert prec.pairs == reference_closure(prec.pairs) and len(prec.pairs) == 10


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


def _random_rules(rng):
    rules = []
    for i in range(rng.randint(1, 5)):
        lhs, rhs = symbolic_term(rng, rng.randint(2, 7)), symbolic_term(rng, rng.randint(1, 6))
        try:
            rules.append(make_rule(f"r{i}", lhs, rhs))
        except RuleError:
            pass  # bare-variable left side, or variables invented on the right
    return rules


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_search_agrees_with_brute_force(seed):
    rules = _random_rules(random.Random(seed))
    prec = search_precedence(rules)
    assert (prec is None) == (brute_force_precedence(rules) is None)
    if prec is not None:
        report = certify_ruleset(prec, rules)
        assert report.overall, report.text()
        for entry in report.entries:
            assert validate_derivation(prec, entry.derivation)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_evaluator_agrees_with_recursive_references(seed):
    rng = random.Random(seed)
    prec = random_precedence(rng)
    s = symbolic_term(rng, rng.randint(1, 9))
    if rng.random() < 0.5:
        t = symbolic_term(rng, rng.randint(1, 9))
    else:  # a variant of s, so that RPO(1) comes up
        pos, _ = rng.choice(list(iter_subterms(s)))
        t = replace_at(s, pos, symbolic_term(rng, rng.randint(1, 4)))
    prover = _Prover(prec)
    d = rpo_greater(prec, s, t)
    assert d == prover.greater(s, t)
    if d is not None:
        assert d.pretty(1) == reference_pretty(d, 1)
        assert d.to_json() == reference_derivation_json(d)
    assert rpo_geq(prec, s, t) == prover.geq(s, t)
    if isinstance(s, SymApp) and isinstance(t, SymApp) and len(s.args) == len(t.args):
        assert lex_greater(prec, s.args, t.args) == (prover._lex(s.args, t.args) is not None)
    assert _orientations(s, t, {}) == _orient(s, t, {})
    rules = _random_rules(rng)
    assert search_precedence(rules) == reference_search_precedence(rules)


def _tower(name, n, t):
    for _ in range(n):
        t = fn(name, t)
    return t


@stack_safe
def test_deep_goal_proves_and_validates(peano):
    # far past the interpreter recursion limit
    n = 10_000
    s = _tower("succ", n, fn("plus", fn("zero"), fn("zero")))
    t = _tower("succ", n, fn("zero"))
    start = time.perf_counter()
    d = rpo_greater(peano.precedence, s, t)
    assert d is not None and validate_derivation(peano.precedence, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    # down s by RPO(3) to plus(zero, zero), down t by RPO(2), then zero = zero
    cases = []
    while True:
        cases.append(d.rule)
        if not d.children:
            break
        d = d.children[0]
    assert cases == [CASE_SUB] * n + [CASE_PREC] * n + [CASE_SUB, CASE_EQ]


@stack_safe
def test_variable_goals_cost_linear_time():
    # goals s > x are decided from variable sets built once per node: the
    # search meets f^k(x) > x for every k, and the drop's derivation passes
    # n + 1 levels, so a walk of s per goal or per level would be quadratic
    n = 10_000
    x = v("x")
    climb = make_rule("climb", _tower("f", n, x), fn("h", x))
    drop = make_rule("drop", fn("g", _tower("f", n, x)), x)
    start = time.perf_counter()
    prec = search_precedence([climb])
    elapsed = time.perf_counter() - start
    assert prec == Precedence([(F, H)])
    assert elapsed < 2.0, f"search took {elapsed:.2f} s"
    for prec, rule in ((prec, climb), (EMPTY, drop)):
        start = time.perf_counter()
        report = certify_ruleset(prec, [rule])
        elapsed = time.perf_counter() - start
        assert report.overall
        assert elapsed < 2.0, f"certify {rule.name} took {elapsed:.2f} s"
    # g(..) > x and then every f(..) > x by RPO(3) at argument 0, then x = x
    assert _cases_down(report.entry("drop").derivation) == [(CASE_SUB, 0)] * (n + 1) + [(CASE_EQ, None)]


@stack_safe
def test_search_survives_one_rule_per_stack_frame():
    x = v("x")
    rules = [make_rule(f"r{i}", fn("f", fn("f", x)), fn("g", x)) for i in range(1200)]
    assert search_precedence(rules) == Precedence([(F, G)])


@stack_safe
def test_certify_reports_render_deep_rule_sides():
    x = v("x")
    deep = _tower("f", 1500, x)
    report = certify_ruleset(EMPTY, [make_rule("deep-fail", fn("g", deep), fn("h", deep))])
    entry = report.entry("deep-fail")
    assert entry.status == "failed"
    side = "f(" * 1500 + "x" + ")" * 1500
    assert entry.reason == f"no RPO case applies to g({side}) > h({side})"

    report = certify_ruleset(EMPTY, [make_rule("deep-drop", fn("g", _tower("f", 1200, x)), x)])
    assert report.overall
    # g(..) > x and 1200 f(..) > x by RPO(3), then x = x
    lines = report.text().splitlines()
    assert len(lines) == 1 + 1202 + 1
    assert lines[1] == "  g(" + "f(" * 1200 + "x" + ")" * 1201 + " > x   [RPO(3), argument 0]"
    assert lines[-2] == "  " * 1202 + "x = x"
    blob = report.to_json()["rules"][0]["derivation"]
    depth = 0
    while blob["children"]:
        (blob,) = blob["children"]
        depth += 1
    assert depth == 1201 and blob == {
        "lhs": "x", "rhs": "x", "case": "=", "rule": CASE_EQ, "index": None, "children": []
    }


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
