import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effrew.terms import (
    App,
    Lam,
    Let,
    Pure,
    Var,
    alpha_eq,
    canonical_key,
    children,
    eff,
    fn,
    free_vars,
    fresh_name,
    iter_subterms,
    print_term,
    replace_at,
    subterm_at,
    substitute,
    term_size,
    with_children,
)
from effrew.graph import reduction_graph
from effrew.terms import Eff
from effrew.theories import builtin, compose, peano_numeral
from oracles import reference_canonical_key
from termgen import PAR6_EFFECTS, TypedTermGen, par_interleaving, symbolic_term


def test_free_vars_basics():
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(Lam("x", Var("x"))) == frozenset()
    assert free_vars(Lam("x", App(Var("x"), Var("y")))) == {"y"}
    assert free_vars(Let("x", Pure(Var("y")), Var("x"))) == {"y"}
    assert free_vars(Let("x", Var("x"), Var("x"))) == {"x"}
    assert free_vars(eff("or", Var("a"), Pure(Var("b")))) == {"a", "b"}


def test_substitute_simple():
    t = App(Var("x"), Var("y"))
    assert substitute(t, "x", Var("z")) == App(Var("z"), Var("y"))


def test_substitute_shadowed_binder_untouched():
    t = Lam("x", Var("x"))
    assert substitute(t, "x", Var("z")) == t
    u = Let("x", Var("x"), Var("x"))
    assert substitute(u, "x", Var("z")) == Let("x", Var("z"), Var("x"))


def test_substitute_capture_avoidance():
    # (lam y. x){y/x} must not capture: the binder is renamed.
    t = Lam("y", App(Var("x"), Var("y")))
    out = substitute(t, "x", Var("y"))
    assert isinstance(out, Lam)
    assert out.binder != "y"
    assert out.body == App(Var("y"), Var(out.binder))
    assert alpha_eq(out, Lam("q", App(Var("y"), Var("q"))))


def test_substitute_capture_avoidance_let():
    t = Let("y", Pure(Var("a")), App(Var("x"), Var("y")))
    out = substitute(t, "x", Var("y"))
    assert isinstance(out, Let)
    assert out.binder != "y"
    assert free_vars(out) == {"a", "y"}


def test_fresh_name():
    assert fresh_name("x", {"y"}) == "x"
    assert fresh_name("x", {"x"}) == "x1"
    assert fresh_name("x", {"x", "x1", "x2"}) == "x3"


def test_alpha_eq():
    assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))
    assert not alpha_eq(Lam("x", Var("x")), Lam("x", Var("y")))
    assert alpha_eq(
        Let("a", Pure(Var("v")), Pure(Var("a"))),
        Let("b", Pure(Var("v")), Pure(Var("b"))),
    )
    assert not alpha_eq(
        Let("a", Pure(Var("v")), Pure(Var("a"))),
        Let("a", Pure(Var("w")), Pure(Var("a"))),
    )


def test_canonical_key_distinguishes_free_vars():
    assert canonical_key(Var("x")) != canonical_key(Var("y"))


def test_params_part_of_identity():
    a1 = eff("assign", Var("x"), params=(1,))
    a2 = eff("assign", Var("x"), params=(2,))
    assert a1.identity != a2.identity
    assert not alpha_eq(a1, a2)


def test_positions_and_replace():
    t = Let("x", Pure(Var("a")), eff("or", Var("x"), Var("b")))
    assert subterm_at(t, ()) is t
    assert subterm_at(t, (0,)) == Pure(Var("a"))
    assert subterm_at(t, (1, 0)) == Var("x")
    out = replace_at(t, (1, 1), Pure(Var("c")))
    assert subterm_at(out, (1, 1)) == Pure(Var("c"))
    with pytest.raises(Exception):
        subterm_at(t, (5,))


def test_iter_subterms_is_preorder():
    t = fn("f", Var("a"), fn("g", Var("b")))
    positions = [pos for pos, _ in iter_subterms(t)]
    assert positions == [(), (0,), (1,), (1, 0)]
    assert positions == sorted(positions)


def test_iter_subterms_survives_deep_terms():
    # far past the interpreter recursion limit
    t = peano_numeral(5000)
    count = 0
    for k, (pos, _) in enumerate(iter_subterms(t)):
        assert pos == (0,) * k
        count += 1
    assert count == 5001


def test_deep_numeral_prints_keys_and_compares():
    # far past the interpreter recursion limit, which stays as it is
    n = 100_000
    t = peano_numeral(n)
    text = print_term(t)
    assert len(text) == 10 * n + 9
    assert text.startswith("(fn succ (fn succ ")
    key = canonical_key(t)
    assert len(key) == 13 * n + 12
    assert key.startswith("(fn succ () (fn succ () ")
    assert alpha_eq(t, peano_numeral(n))


def test_canonical_key_innermost_binding_wins():
    assert canonical_key(Lam("x", Lam("x", Var("x")))) == "(lam (lam #0))"
    assert canonical_key(Lam("x", Lam("y", Var("x")))) == "(lam (lam #1))"
    assert canonical_key(Let("x", Var("x"), Lam("x", Var("x")))) == "(let x (lam #0))"


def test_with_children_roundtrip():
    t = Let("x", Pure(Var("a")), Var("x"))
    assert with_children(t, children(t)) == t
    swapped = with_children(t, (Pure(Var("b")), Var("x")))
    assert swapped == Let("x", Pure(Var("b")), Var("x"))


def test_print_term_shapes():
    assert print_term(Var("x")) == "x"
    assert print_term(Lam("x", Var("x"))) == "(lam x x)"
    assert print_term(Pure(Var("v"))) == "(pure v)"
    assert print_term(Let("x", Pure(Var("v")), Var("x"))) == "(let x (pure v) x)"
    assert print_term(eff("assign", Pure(Var("v")), params=(1,))) == "(eff assign (1) (pure v))"
    assert print_term(fn("zero")) == "(fn zero)"
    assert print_term(App(Lam("x", Var("x")), Var("y"))) == "(app (lam x x) y)"


# -- property tests ---------------------------------------------------------


@st.composite
def symbolic_terms(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    budget = draw(st.integers(1, 12))
    return symbolic_term(random.Random(seed), budget)


@given(symbolic_terms())
def test_substitute_for_absent_var_is_identity(t):
    assert substitute(t, "zz_absent", Var("q")) == t


@given(symbolic_terms(), symbolic_terms())
def test_substitute_removes_var_and_unions_free_vars(t, repl):
    if "u" not in free_vars(t):
        return
    out = substitute(t, "u", repl)
    assert "u" not in free_vars(out) or "u" in free_vars(repl)
    assert free_vars(out) == (free_vars(t) - {"u"}) | free_vars(repl)


@given(symbolic_terms())
def test_term_size_counts_subterms(t):
    assert term_size(t) == len(list(iter_subterms(t)))


@given(symbolic_terms())
@settings(max_examples=50)
def test_replace_subterm_with_itself_is_identity(t):
    for pos, sub in iter_subterms(t):
        assert replace_at(t, pos, sub) == t


@given(symbolic_terms())
def test_canonical_key_reflexive(t):
    assert alpha_eq(t, t)


@given(st.sampled_from(("global-state+nondet", "retry", "peano")), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_canonical_key_matches_reference(name, seed):
    rng = random.Random(seed)
    gen = TypedTermGen(rng, compose(*(builtin(part) for part in name.split("+"))))
    t = gen.gen_sized(Eff(rng.choice(gen.bases)), 40)
    # an outer binder shadowed at once, so every draw has a shadowed one
    b = rng.choice("xyz")
    t = Lam(b, Let(b, Pure(Var(b)), t))
    assert canonical_key(t) == reference_canonical_key(t)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_canonical_key_matches_reference_on_par_graphs(seed):
    rules = list(builtin("par", effects=PAR6_EFFECTS).rules)
    g = reduction_graph(par_interleaving(random.Random(seed), max_len=2), rules)
    for key, term in g.nodes.items():
        assert canonical_key(term) == reference_canonical_key(term) == key
