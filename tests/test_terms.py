import copy
import dataclasses
import gc
import json
import pickle
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effrew.terms import (
    App,
    Lam,
    Let,
    Pure,
    TermError,
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
    sym_str,
    term_size,
    type_str,
    with_children,
)
from effrew.cli import json_text
from effrew.graph import reduction_graph
from effrew.rewrite import StaleRedexError, all_redexes, make_rule, normalize, step
from effrew.rpo import CASE_EQ, RpoDerivation
from effrew.sexpr import _node_repr
from effrew.terms import Arrow, Base, Eff, TVar
from effrew.theories import builtin, compose, parse_theory, peano_numeral
from oracles import (
    reference_canonical_key,
    reference_free_vars,
    reference_print_term,
    reference_replace_at,
    reference_substitute,
    renames_may_differ,
)
from stack_safe import stack_safe
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
    # a free variable named like a de Bruijn index is not the bound one
    assert not alpha_eq(Lam("x", Var("#0")), Lam("x", Var("x")))
    assert canonical_key(Lam("x", Var("#0"))) == reference_canonical_key(Lam("x", Var("#0")))


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


@stack_safe
def test_iter_subterms_survives_deep_terms():
    # far past the interpreter recursion limit
    t = peano_numeral(5000)
    count = 0
    for k, (pos, _) in enumerate(iter_subterms(t)):
        assert pos == (0,) * k
        count += 1
    assert count == 5001


@stack_safe
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


@stack_safe
def test_canonical_key_of_deep_binder_chains_takes_linear_time():
    # a key that copies the binders in scope at every binder, or searches
    # them at every variable, takes about 3.4 s on the first chain alone
    n = 40_000
    same, distinct, lets = Var("x"), App(Var("x0"), Var("free")), Var("y")
    for i in range(n - 1, -1, -1):
        same, distinct, lets = Lam("x", same), Lam(f"x{i}", distinct), Let("y", Var("y"), lets)
    start = time.perf_counter()
    keys = [canonical_key(t) for t in (same, distinct, lets)]
    elapsed = time.perf_counter() - start
    assert keys[0] == "(lam " * n + "#0" + ")" * n
    # the body reads the outermost binder, under n - 1 others
    assert keys[1] == "(lam " * n + f"(app #{n - 1} free)" + ")" * n
    # a let's subject lies outside its own scope: the first reads a free y,
    # each other the binder of the let above it
    assert keys[2] == "(let y " + "(let #0 " * (n - 1) + "#0" + ")" * n
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@stack_safe
def test_deep_numeral_hashes_compares_and_steps(peano):
    # far past the interpreter recursion limit: ==, hash and repr walk an
    # explicit stack
    n = 100_000
    t, same = peano_numeral(n), peano_numeral(n)
    assert t == same and not t != same
    assert hash(t) == hash(same)
    assert t != peano_numeral(n - 1)
    assert repr(t).startswith("SymApp(kind='fn', name='succ', params=(), args=(SymApp(")
    (redex,) = all_redexes(fn("plus", t, fn("zero")), list(peano.rules))
    expected = fn("succ", fn("plus", peano_numeral(n - 1), fn("zero")))
    assert step(fn("plus", same, fn("zero")), redex) == expected
    assert hash(redex) == hash(redex)
    with pytest.raises(StaleRedexError):
        step(fn("plus", peano_numeral(n - 1), fn("zero")), redex)


def _h_tower(k, leaf):
    """h^k(x, leaf): h(t, t) over h^(k-1)(x, leaf), and h(x, leaf) at k = 1,
    so k distinct h nodes and about 2^k positions."""
    t = fn("h", Var("x"), leaf)
    for _ in range(k - 1):
        t = fn("h", t, t)
    return t


def test_equality_walks_each_pair_of_shared_nodes_once():
    # compared position by position, two towers built apart took 10-15 s
    a, b = _h_tower(22, Var("x")), _h_tower(22, Var("x"))
    start = time.perf_counter()
    assert a == b and not a != b
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"equality took {elapsed:.3f} s"
    # a difference below shared nodes is found from either side, also where
    # one shared node meets an equal node and, on another path, a different one
    shared = _h_tower(21, Var("x"))
    same = fn("h", shared, shared)
    for other in (
        _h_tower(22, Var("y")),
        fn("h", _h_tower(21, Var("x")), _h_tower(21, Var("y"))),
        fn("h", _h_tower(21, Var("y")), _h_tower(21, Var("x"))),
    ):
        assert same != other and other != same and not same == other


def test_free_vars_and_substitution_take_each_shared_node_once():
    # walked position by position, free_vars of h^20(x, x) took 0.57 s and
    # doubled per level; substitute reads the free variables of repl, and of
    # a body whose binder it renames
    tower = _h_tower(60, Var("x"))
    start = time.perf_counter()
    assert free_vars(tower) == {"x"}
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"free_vars took {elapsed:.3f} s"
    tower = _h_tower(60, Var("x"))
    start = time.perf_counter()
    out = substitute(Lam("x", App(Var("y"), Var("x"))), "y", tower)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"substitute took {elapsed:.3f} s"
    # the binder x, free in tower, is renamed; tower itself is kept whole
    assert out.binder == "x1" and out.body.fun is tower and out.body.arg == Var("x1")
    # substituting into the tower rebuilds each distinct node once, and a
    # variable not free in it leaves it whole; walked position by position
    # this took 1 s at h^18 and doubled per level
    start = time.perf_counter()
    out = substitute(tower, "x", Var("z"))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"substitute took {elapsed:.3f} s"
    assert out.args[0] is out.args[1] and out.args[0].args[0] is out.args[0].args[1]
    assert free_vars(out) == {"z"}
    start = time.perf_counter()
    out = substitute(tower, "w", Var("z"))
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1, f"substitute took {elapsed:.3f} s"
    assert out is tower


def _free_vars_cached(t) -> bool:
    """Whether some node of t, each distinct node taken once, holds its
    free variables."""
    seen, stack = set(), [t]
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            if hasattr(t, "_fv"):
                return True
            stack += children(t)
    return False


def test_free_vars_cache_leaves_the_term_as_it_was():
    def build():
        shared = Lam("y", App(Var("x"), Var("y")))
        return Let("x", Pure(Var("z")), fn("pair", shared, shared, _h_tower(8, Var("x"))))

    fresh, read = build(), build()
    assert free_vars(read) == {"z"} and _free_vars_cached(read)
    assert not _free_vars_cached(fresh)
    assert read == fresh and fresh == read and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh) and print_term(read) == print_term(fresh)
    assert canonical_key(read) == canonical_key(fresh)
    assert pickle.dumps(read) == pickle.dumps(fresh)
    # a copy is rebuilt from the node table, which carries no cache
    for copied in (copy.deepcopy(read), pickle.loads(pickle.dumps(read))):
        assert copied == read and not _free_vars_cached(copied)
        assert free_vars(copied) == {"z"}


@given(st.sampled_from(("global-state+nondet", "retry", "peano")), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_free_vars_matches_reference(name, seed):
    rng = random.Random(seed)
    gen = TypedTermGen(rng, compose(*(builtin(part) for part in name.split("+"))))
    ty = Eff(rng.choice(gen.bases))
    a, b = gen.gen_sized(ty, 25), gen.gen_sized(ty, 25)
    assert free_vars(a) == reference_free_vars(a)
    # a's nodes all hold their sets now, and some of b's do
    for _, sub in iter_subterms(b):
        if rng.random() < 0.5:
            assert free_vars(sub) == reference_free_vars(sub)
    # terms built over those parts, under binders that capture some of
    # their variables and some that do not
    names = sorted(reference_free_vars(a) | reference_free_vars(b)) + ["fresh"]
    for x in rng.sample(names, min(3, len(names))):
        for t in (Let(x, a, b), Let(x, b, Lam(x, a)), Lam(x, App(a, b)), fn("pair", b, a), Pure(b)):
            assert free_vars(t) == reference_free_vars(t)
            for _, sub in iter_subterms(t):
                assert free_vars(sub) == reference_free_vars(sub)


@stack_safe
def test_deep_terms_sizes_free_vars_and_substitution():
    # far past the interpreter recursion limit
    n = 100_000
    d = peano_numeral(n)
    assert term_size(d) == n + 1
    assert free_vars(d) == frozenset()
    assert substitute(Var("x"), "x", d) is d
    nf, trace = normalize(Let("x", Pure(d), Pure(Var("x"))))
    assert nf == Pure(d) and [s.redex.rule_name for s in trace.steps] == ["let-beta"]
    # binders nested as deep: each let binds x in a lam that binds y
    t = App(Var("x"), Var("y"))
    for _ in range(n):
        t = Let("x", Var("w"), Lam("y", t))
    assert term_size(t) == 3 * n + 3
    assert free_vars(t) == {"w"}
    assert free_vars(Lam("w", t)) == frozenset()



@stack_safe
def test_capture_renames_nest_past_the_recursion_limit():
    # binders y, y1, y11, ... over a body that uses them all: substituting
    # y for x renames y to y1, and under it y1, which the map then sends y
    # to, to y11, and so on; with each rename walking the rest of the body
    # again, this took 4-7 s
    k = 1200
    names = ["y" + "1" * i for i in range(k)]
    t = Var("x")
    for b in names:
        t = App(t, Var(b))
    for b in reversed(names):
        t = Lam(b, t)
    expected = Var("y")
    for i in range(k):
        expected = App(expected, Var(f"z{i}"))
    for i in reversed(range(k)):
        expected = Lam(f"z{i}", expected)
    start = time.perf_counter()
    out = substitute(t, "x", Var("y"))
    elapsed = time.perf_counter() - start
    assert elapsed < 2, f"substitute took {elapsed:.3f} s"
    assert canonical_key(out) == canonical_key(expected)


def test_term_reprs():
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(Lam("x", Var("x"))) == "Lam(binder='x', body=Var(name='x'))"
    assert repr(App(Var("f"), Var("a"))) == "App(fun=Var(name='f'), arg=Var(name='a'))"
    assert repr(Pure(Var("v"))) == "Pure(body=Var(name='v'))"
    assert repr(Let("x", Var("a"), Var("x"))) == "Let(binder='x', subject=Var(name='a'), body=Var(name='x'))"
    assert repr(eff("assign", fn("zero"), params=(1,))) == (
        "SymApp(kind='eff', name='assign', params=(1,), args=(SymApp(kind='fn', name='zero', params=(), args=()),))"
    )


_NODE_FIELDS = (
    (Var("x"), ("name",)),
    (Lam("x", Var("x")), ("binder", "body")),
    (App(Var("f"), Var("a")), ("fun", "arg")),
    (Pure(Var("v")), ("body",)),
    (Let("x", Var("a"), Var("x")), ("binder", "subject", "body")),
    (fn("f", Var("a")), ("kind", "name", "params", "args")),
    (Base("a"), ("name",)),
    (Eff(Base("a")), ("inner",)),
    (Arrow(Base("a"), TVar(0)), ("dom", "cod")),
    (TVar(3), ("index",)),
    (RpoDerivation(Var("a"), Var("a"), CASE_EQ), ("lhs", "rhs", "rule", "index", "children")),
)


@pytest.mark.parametrize("t, fields", [pytest.param(t, f, id=type(t).__name__) for t, f in _NODE_FIELDS])
def test_term_fields_are_read_only(t, fields):
    # every node class, the terms, the types and rpo's derivations alike
    assert type(t)(**{f: getattr(t, f) for f in fields}) == t
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, f, Var("y"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(t, f)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.extra = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del t.extra
    assert not hasattr(t, "extra")


def test_substitute_leaves_no_reference_cycles():
    # the binder y is renamed, which adds an entry to the map for its body
    t = Lam("y", App(Var("x"), Let("z", Var("x"), App(Var("y"), Var("z")))))
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            substitute(t, "x", Var("y"))
        assert gc.collect() == 0
    finally:
        gc.enable()


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


@given(st.sampled_from(("global-state+nondet", "retry", "peano")), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_print_term_matches_reference(name, seed):
    rng = random.Random(seed)
    gen = TypedTermGen(rng, compose(*(builtin(part) for part in name.split("+"))))
    t = gen.gen_sized(Eff(rng.choice(gen.bases)), 40)
    # every node kind, a parameterised effect and nullary symbols beside
    # the draw, whose kinds depend on the theory
    side = eff("assign", Var("v"), fn("zero"), params=(rng.choice((0, 1)),))
    cases = (
        t,
        Lam("x", Let("y", t, App(Var("x"), Pure(side)))),
        eff("or", t, side),
        fn("pair", t, fn("zero")),
        fn("zero"),
        eff("get", params=(rng.choice((0, 1)),)),
    )
    for u in cases:
        assert print_term(u) == reference_print_term(u)


def _printer_cases():
    """Each printer with an input past the recursion limit and its text,
    built by concatenation."""
    n, m = 10**5, 10**4
    numeral = peano_numeral(n)
    arrow = Base("nat")
    nested: list | str = "a"
    value: object = None
    for _ in range(m):
        arrow = Arrow(Base("nat"), arrow)
        nested = [1, nested]
        value = {"k": [value, 1.5]}
    succ = "SymApp(kind='fn', name='succ', params=(), args=("
    return [
        pytest.param(print_term, numeral, "(fn succ " * n + "(fn zero)" + ")" * n, id="print_term"),
        pytest.param(sym_str, numeral, "succ(" * n + "zero()" + ")" * n, id="sym_str"),
        pytest.param(repr, numeral, succ * n + "SymApp(kind='fn', name='zero', params=(), args=())" + ",))" * n, id="repr"),
        pytest.param(type_str, arrow, "(-> nat " * m + "nat" + ")" * m, id="type_str"),
        pytest.param(_node_repr, nested, "[1, " * m + "'a'" + "]" * m, id="_node_repr"),
        pytest.param(json_text, value, '{"k": [' * m + "null" + ", 1.5]}" * m, id="json_text"),
    ]


@pytest.mark.parametrize("printer, value, text", _printer_cases())
@stack_safe
def test_printers_render_past_the_recursion_limit(printer, value, text):
    assert printer(value) == text


@pytest.mark.parametrize("printer", [print_term, sym_str, type_str])
def test_printers_refuse_a_str_where_a_node_belongs(printer):
    nested = Arrow(Base("nat"), "nat") if printer is type_str else fn("f", Var("x"), "y")
    for value in ("x", nested):
        with pytest.raises(TermError):
            printer(value)


# -- property tests ---------------------------------------------------------


@st.composite
def symbolic_terms(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    budget = draw(st.integers(1, 12))
    return symbolic_term(random.Random(seed), budget)


@given(symbolic_terms())
@example(Let("x", Pure(Var("a")), App(Lam("y", Var("y")), Var("b"))))
@example(Let("zz_absent", Pure(Var("a")), Var("zz_absent")))
def test_substitute_for_absent_var_is_identity(t):
    assert substitute(t, "zz_absent", Var("q")) == t
    assert substitute(t, "zz_absent", Var("q")) is t


@given(symbolic_terms(), symbolic_terms())
def test_substitute_removes_var_and_unions_free_vars(t, repl):
    if "u" not in free_vars(t):
        return
    out = substitute(t, "u", repl)
    assert "u" not in free_vars(out) or "u" in free_vars(repl)
    assert free_vars(out) == (free_vars(t) - {"u"}) | free_vars(repl)


# binder names that capture one another's renames: y renamed to y1 meets a
# binder y1, which is renamed to y11, and so on
_CAPTURE_NAMES = ("x", "y", "y1", "y11", "y111", "y2", "y12", "z", "z1")


def _capture_prone(rng: random.Random, depth: int):
    """Lams and lets over _CAPTURE_NAMES, depth deep, over applications
    of those names, with a part now and then shared by two arguments."""
    if depth == 0:
        t = Var(rng.choice(_CAPTURE_NAMES))
        for _ in range(rng.randint(0, 3)):
            t = App(t, Var(rng.choice(_CAPTURE_NAMES)))
        return t
    binder, r = rng.choice(_CAPTURE_NAMES), rng.random()
    if r < 0.5:
        return Lam(binder, _capture_prone(rng, depth - 1))
    if r < 0.75:
        return Let(binder, _capture_prone(rng, depth // 2), _capture_prone(rng, depth - 1))
    shared = _capture_prone(rng, depth - 1)
    return fn("h", shared, shared if rng.random() < 0.5 else _capture_prone(rng, depth - 1))


def _agrees_with_reference(t, var, repl):
    binders: list = []
    expected = reference_substitute(t, var, repl, binders)
    out = substitute(t, var, repl)
    assert canonical_key(out) == canonical_key(expected)
    if not renames_may_differ(t, binders):
        assert out == expected
    return out, expected


@given(st.sampled_from(("global-state+nondet", "retry", "peano", "capture")), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_substitute_matches_reference(name, seed):
    rng = random.Random(seed)
    if name == "capture":
        t, repl = _capture_prone(rng, rng.randint(1, 9)), _capture_prone(rng, 0)
        names = set(_CAPTURE_NAMES)
    else:
        gen = TypedTermGen(rng, compose(*(builtin(part) for part in name.split("+"))))
        ty = Eff(rng.choice(gen.bases))
        t = gen.gen_sized(ty, 25)
        # a replacement whose free variables include binder names of t
        repl = App(gen.gen_sized(ty, 5), Var(rng.choice(("x", "y", "z", "w"))))
        names = {"x", "y", "z", "w"}
    for var in rng.sample(sorted(names | free_vars(t)), 3):
        _agrees_with_reference(t, var, repl)


def test_substitute_names_differ_from_nested_renames_only_where_pinned():
    # a binder two map entries capture: under lam y, renamed to y1, the map
    # sends x to (app y y11) and y to y1, and y1 is captured by the second.
    # One pass avoids the names of both entries and picks y12; the nested
    # renames picked y11, which substituting for x then captured and
    # renamed again, to y111
    t = Lam("y", Lam("y1", App(App(Var("x"), Var("y")), Var("y1"))))
    out, expected = _agrees_with_reference(t, "x", App(Var("y"), Var("y11")))
    assert print_term(expected) == "(lam y1 (lam y111 (app (app (app y y11) y1) y111)))"
    assert print_term(out) == "(lam y1 (lam y12 (app (app (app y y11) y1) y12)))"
    # a binder renamed to the old name of a renamed binder above it: the
    # inner let's body still holds y1, free, when one pass renames it, so
    # it gets y2; the nested renames had turned that y1 into y11 first
    t = Lam("y1", Let("y", App(Var("z"), Var("y11")), Lam("y1", Let("y", Var("y"), App(Var("z"), Var("y1"))))))
    out, expected = _agrees_with_reference(t, "z", Var("y"))
    assert print_term(expected) == "(lam y1 (let y1 (app y y11) (lam y11 (let y1 y1 (app y y11)))))"
    assert print_term(out) == "(lam y1 (let y1 (app y y11) (lam y11 (let y2 y1 (app y y11)))))"


@given(symbolic_terms())
def test_term_size_counts_subterms(t):
    assert term_size(t) == len(list(iter_subterms(t)))


@given(symbolic_terms())
@settings(max_examples=50)
def test_replace_subterm_with_itself_is_identity(t):
    for pos, sub in iter_subterms(t):
        assert replace_at(t, pos, sub) == t


@given(st.sampled_from(("global-state+nondet", "retry", "peano")), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_replace_at_matches_reference(name, seed):
    rng = random.Random(seed)
    gen = TypedTermGen(rng, compose(*(builtin(part) for part in name.split("+"))))
    ty = Eff(rng.choice(gen.bases))
    drawn, sub = gen.gen_sized(ty, 25), gen.gen_sized(ty, 5)
    # a frame that puts every class of node on the spine to the drawn term:
    # let, app, lam, symbol, pure, and a variable at the bottom of others
    t = Let("x", Pure(Var("v")), App(Lam("y", fn("f", Var("y"), Pure(drawn))), Var("x")))
    for pos, old in iter_subterms(t):
        out = replace_at(t, pos, sub)
        assert out == reference_replace_at(t, pos, sub)
        assert subterm_at(out, pos) is sub
        # every sibling off the spine is the same object
        a, b = t, out
        for i in pos:
            ka, kb = children(a), children(b)
            assert len(ka) == len(kb)
            assert all(x is y for j, (x, y) in enumerate(zip(ka, kb)) if j != i)
            a, b = ka[i], kb[i]
        # one past the last child is not a position; a negative index is
        # refused as well, where the reference took it from the end
        past = pos + (len(children(old)),)
        for f in (replace_at, reference_replace_at):
            with pytest.raises(TermError) as e:
                f(t, past, sub)
            assert str(e.value) == f"position {past} not in term"
        if children(old):
            with pytest.raises(TermError, match="not in term"):
                replace_at(t, pos + (-1,), sub)


@stack_safe
def test_deep_terms_survive_copy_and_pickle(peano):
    # a term reduces to a flat table of its distinct nodes, so pickle and
    # deepcopy take no Python stack per level; reduced to its own fields, a
    # term 5000 deep raised RecursionError
    duplicates = (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)))
    big = peano_numeral(100_000)
    for dup in duplicates:
        again = dup(big)
        assert again == big and again is not big
    # a subterm shared within a term stays shared
    small = peano_numeral(3)
    shared = fn("f", small, fn("g", small))
    for dup in duplicates:
        again = dup(shared)
        assert again == shared and again.args[0] is again.args[1].args[0]
    # a trace, a rule and a graph over terms 10^4 deep
    n = peano_numeral(10_000)
    rules = list(peano.rules)
    _, trace = normalize(fn("plus", peano_numeral(2), n), rules)
    rule = make_rule("big", fn("big", n), fn("succ", n))
    graph = reduction_graph(fn("plus", fn("zero"), n), rules)
    for dup in duplicates:
        again = dup(trace)
        assert again == trace and again.export_lines() == trace.export_lines()
        again = dup(rule)
        assert (again, hash(again), again.reach) == (rule, hash(rule), rule.reach)
        again = dup(graph)
        assert again == graph and again.normal_form_terms == graph.normal_form_terms


@stack_safe
def test_deep_types_and_theories_compare_hash_copy_and_pickle():
    # types are nodes like terms: an arrow 3000 deep, and a theory file
    # that declares f over it, compare, hash, copy and pickle without
    # recursion.  As plain dataclasses each raised RecursionError
    n = 3000

    def arrow(leaf):
        ty = Base(leaf)
        for _ in range(n):
            ty = Arrow(Base("nat"), ty)
        return ty

    def theory(leaf):
        return parse_theory(f"(theory a (base nat) (function f ({'(-> nat ' * n}{leaf}{')' * n} -> val)))")

    theories = (theory("nat"), theory("nat"), theory("val"))
    pairs = (
        (arrow("nat"), arrow("nat"), arrow("val")),
        tuple(th.signature.decls for th in theories),
        theories,
    )
    for a, b, apart in pairs:
        assert a is not b and a == b and a != apart and b != apart
        if a is not theories[0]:
            assert hash(a) == hash(b)
        for dup in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            again = dup(a)
            assert again == a and again is not a
    # small types keep the dataclass repr, replace and frozen fields
    small = Arrow(Base("a"), Eff(TVar(3)))
    assert repr(small) == "Arrow(dom=Base(name='a'), cod=Eff(inner=TVar(index=3)))"
    assert dataclasses.replace(small, dom=Base("b")) == Arrow(Base("b"), Eff(TVar(3)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        small.dom = Base("b")
    # a type is never equal to a term with the same fields
    assert Base("a") != Var("a") and hash(Base("a")) == hash(Base("a"))

@given(symbolic_terms(), symbolic_terms(), st.booleans(), st.booleans())
def test_equality_does_not_depend_on_cached_hashes(t, other, hash_left, hash_right):
    # deepcopy builds fresh nodes, which hold no cached hash
    for a, b in ((t, other), (t, t)):
        a, b = copy.deepcopy(a), copy.deepcopy(b)
        if hash_left:
            hash(a)
        if hash_right:
            hash(b)
        assert (a == b) == (print_term(a) == print_term(b))


@given(symbolic_terms())
def test_canonical_key_reflexive(t):
    assert alpha_eq(t, t)


@given(st.sampled_from(("global-state+nondet", "retry", "peano")), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_canonical_key_matches_reference(name, seed):
    rng = random.Random(seed)
    gen = TypedTermGen(rng, compose(*(builtin(part) for part in name.split("+"))))
    t = gen.gen_sized(Eff(rng.choice(gen.bases)), 40)
    # every node's text carries its own leading space, so each case below
    # would show a case the key renders wrongly as a one-character diff
    b = rng.choice("xyz")
    # a parameterised effect, a nullary symbol and a free name with a
    # leading #, under a binder named with one
    side = eff("assign", Var("#" + b), fn("zero"), params=(rng.choice((0, 1)),))
    cases = (
        # an outer binder shadowed at once, so every draw has a shadowed one
        Lam(b, Let(b, Pure(Var(b)), t)),
        # an unused binder, and the side term beside the draw
        Lam("u", eff("or", t, side)),
        Lam("#" + b, Let(b, side, App(Var("#" + b), Var(b)))),
        # a bare variable and a nullary symbol as the whole term
        Var(b),
        Var("#" + b),
        fn("zero"),
        eff("get", params=(rng.choice((0, 1)),)),
    )
    for u in cases:
        assert canonical_key(u) == reference_canonical_key(u)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_canonical_key_matches_reference_on_par_graphs(seed):
    rules = list(builtin("par", effects=PAR6_EFFECTS).rules)
    g = reduction_graph(par_interleaving(random.Random(seed), max_len=2), rules)
    for key, term in g.nodes.items():
        assert canonical_key(term) == reference_canonical_key(term) == key
