import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effrew.parser import parse_type
from effrew.rewrite import pattern_vars
from effrew.terms import (
    App,
    Arrow,
    Base,
    Eff,
    Lam,
    Let,
    Pure,
    SymApp,
    TVar,
    Var,
    eff,
    fn,
    free_vars,
    iter_subterms,
    replace_at,
    type_str,
)
from effrew.theories import builtin, compose
from effrew.typecheck import TypingError, canonical_type, infer_rule_types, infer_type
from oracles import reference_infer_rule_types, reference_infer_type, reference_type_str
from stack_safe import stack_safe
from termgen import TypedTermGen

GS = builtin("global-state")
NONDET = builtin("nondet")
PEANO = builtin("peano")
VAL = Base("val")
NAT = Base("nat")


def test_var_from_context():
    assert infer_type({"v": VAL}, Var("v"), GS.signature) == VAL


def test_unbound_var_rejected():
    with pytest.raises(TypingError) as exc:
        infer_type({}, Var("v"), GS.signature)
    assert "unbound" in str(exc.value)


def test_pure_wraps():
    assert infer_type({"v": VAL}, Pure(Var("v")), GS.signature) == Eff(VAL)


def test_lam_app():
    f = Lam("x", Pure(Var("x")))
    assert infer_type({"v": VAL}, App(f, Var("v")), GS.signature) == Eff(VAL)


def test_let_links_subject_and_binder():
    t = Let("x", Pure(Var("v")), Pure(Var("x")))
    assert infer_type({"v": VAL}, t, GS.signature) == Eff(VAL)


def test_let_binder_scopes_over_its_body_only():
    # the subject's x is the context's; only the body sees the binder
    t = Let("x", Pure(Var("x")), Pure(Var("x")))
    assert infer_type({"x": NAT}, t, PEANO.signature) == Eff(NAT)
    t = Let("x", Pure(Lam("y", Var("x"))), Pure(Var("x")))
    assert type_str(canonical_type(infer_type({"x": NAT}, t, PEANO.signature))) == "(E (-> 'a nat))"
    with pytest.raises(TypingError):
        infer_type({}, Let("x", Pure(Var("x")), Pure(Var("x"))), PEANO.signature)


def test_let_body_must_be_effectful():
    t = Let("x", Pure(Var("v")), Var("x"))
    with pytest.raises(TypingError):
        infer_type({"v": VAL}, t, GS.signature)


def test_let_subject_must_be_effectful():
    t = Let("x", Var("v"), Pure(Var("x")))
    assert infer_type({"v": Eff(VAL)}, t, GS.signature) == Eff(VAL)
    with pytest.raises(TypingError):
        infer_type({"v": VAL}, t, GS.signature)


def test_effect_args_share_one_type():
    t = eff("get", Pure(Var("a")), Pure(Var("b")))
    assert infer_type({"a": VAL, "b": VAL}, t, GS.signature) == Eff(VAL)
    bad = eff("or", Pure(Var("v")), Pure(Var("n")))
    with pytest.raises(TypingError) as exc:
        infer_type({"v": VAL, "n": Eff(VAL)}, bad, NONDET.signature)
    assert "or" in str(exc.value)


ZERO = fn("zero")


# each case fails in one unify call; its message must name that context,
# built lazily when the call raises
@pytest.mark.parametrize(
    "fail, context",
    [
        (lambda: infer_type({"v": VAL}, App(Var("v"), Var("v")), GS.signature), "in application (app v v)"),
        (lambda: infer_type({"v": VAL}, Let("x", Var("v"), Pure(Var("x"))), GS.signature), "let subject v"),
        (lambda: infer_type({"v": VAL}, Let("x", Pure(Var("v")), Var("x")), GS.signature), "let body x"),
        (
            lambda: infer_rule_types(PEANO.signature, fn("plus", ZERO, Var("n")), Pure(Var("n")), frozenset("n")),
            "rule sides",
        ),
        (
            lambda: infer_type({"v": VAL}, eff("or", Pure(Var("v")), Var("v")), NONDET.signature),
            "argument 1 of or disagrees",
        ),
        (lambda: infer_type({"v": VAL}, fn("plus", ZERO, Pure(Var("v"))), PEANO.signature), "argument 1 of plus"),
    ],
    ids=["application", "let-subject", "let-body", "rule-sides", "effect-argument", "function-argument"],
)
def test_type_error_names_its_context(fail, context):
    with pytest.raises(TypingError) as exc:
        fail()
    assert context in str(exc.value)
    assert "argument 0" not in str(exc.value)


def test_effect_result_follows_args():
    t = eff("assign", Pure(Var("n")), params=(1,))
    assert infer_type({"n": NAT}, t, GS.signature) == Eff(NAT)


def test_function_symbols_use_declared_types():
    assert infer_type({}, fn("zero"), PEANO.signature) == NAT
    assert infer_type({}, fn("succ", fn("zero")), PEANO.signature) == NAT
    with pytest.raises(TypingError):
        infer_type({}, fn("succ", Pure(fn("zero"))), PEANO.signature)


def test_polymorphic_identity_canonical():
    ty = canonical_type(infer_type({}, Lam("x", Var("x")), GS.signature))
    assert ty == Arrow(TVar(0), TVar(0))
    assert type_str(ty) == "(-> 'a 'a)"


def test_canonical_type_renumbers_by_first_occurrence():
    ty = canonical_type(Arrow(TVar(7), Arrow(TVar(3), TVar(7))))
    assert ty == Arrow(TVar(0), Arrow(TVar(1), TVar(0)))


def test_shadowing():
    t = Lam("x", Lam("x", Var("x")))
    ty = canonical_type(infer_type({}, t, GS.signature))
    assert ty == Arrow(TVar(0), Arrow(TVar(1), TVar(1)))


def test_occurs_check():
    # x applied to itself forces a = a -> b.
    t = Lam("x", App(Var("x"), Var("x")))
    with pytest.raises(TypingError):
        infer_type({}, t, GS.signature)


def test_infer_rule_types_accepts_builtin_rules():
    for theory in (GS, NONDET, PEANO):
        for rule in theory.rules:
            if not rule.extended:
                infer_rule_types(theory.signature, rule.lhs, rule.rhs, pattern_vars(rule.lhs))


def test_infer_rule_types_rejects_mismatch():
    sig = PEANO.signature
    lhs = fn("plus", fn("zero"), Var("n"))
    rhs = fn("succ", fn("succ", Var("m")))
    infer_rule_types(sig, lhs, rhs, frozenset({"n", "m"}))
    bad_rhs = Pure(Var("n"))
    with pytest.raises(TypingError):
        infer_rule_types(sig, lhs, bad_rhs, frozenset({"n"}))


def test_generated_terms_are_well_typed():
    theory = compose(builtin("global-state"), builtin("nondet"))
    rng = random.Random(2026)
    gen = TypedTermGen(rng, theory)
    for b in gen.bases:
        for _ in range(60):
            target = Eff(b)
            t = gen.gen_sized(target, 25)
            assert infer_type(dict(gen.ctx), t, theory.signature) == target


# -- against the recursive reference -------------------------------------------

MIXED = compose(builtin("global-state"), builtin("nondet"), builtin("peano"), builtin("par"))
_NAMES = ("x", "y", "v", "n", "f", "m")
# symbol applications of every kind, some with a parameter or arity that
# the signature refuses
_HEADS = (
    ("eff", "assign", (1,)), ("eff", "assign", (7,)), ("eff", "get", ()), ("eff", "or", ()),
    ("eff", "par", ()), ("eff", "join", ()), ("fn", "zero", ()), ("fn", "succ", ()),
    ("fn", "plus", ()), ("fn", "pair", ()), ("fn", "nope", ()),
)
_TYPES = st.recursive(
    st.sampled_from((Base("val"), Base("nat"))),
    lambda inner: st.builds(Eff, inner) | st.builds(Arrow, inner, inner),
    max_leaves=4,
)
_CONTEXTS = st.dictionaries(st.sampled_from(_NAMES), _TYPES, max_size=4)
_TERMS = st.recursive(
    st.sampled_from(_NAMES).map(Var) | st.just(fn("zero")),
    lambda part: st.one_of(
        st.builds(Lam, st.sampled_from(_NAMES), part),
        st.builds(App, part, part),
        st.builds(Pure, part),
        st.builds(Let, st.sampled_from(_NAMES), part, part),
        st.builds(lambda head, args: SymApp(*head, tuple(args)), st.sampled_from(_HEADS), st.lists(part, max_size=3)),
    ),
    max_leaves=12,
)


@st.composite
def _typed_terms(draw):
    """A well-typed term of MIXED and its context, one of whose variables
    has an arrow type; half of them with one subterm replaced by a drawn
    term, which mostly makes them ill-typed below the root."""
    gen = TypedTermGen(random.Random(draw(st.integers(0, 2**32 - 1))), MIXED)
    ctx = {**gen.ctx, "f": Arrow(Base("val"), Eff(Base("nat")))}
    t = gen.gen_sized(Eff(draw(st.sampled_from(gen.bases))), draw(st.integers(2, 25)))
    if draw(st.booleans()):
        pos = draw(st.sampled_from([p for p, _ in iter_subterms(t)]))
        t = replace_at(t, pos, draw(_TERMS))
    return ctx, t


def _outcome(run):
    try:
        return "ok", run()
    except Exception as e:
        return type(e).__name__, str(e)


@given(st.one_of(st.tuples(_CONTEXTS, _TERMS), _typed_terms()))
@settings(max_examples=400, deadline=None)
def test_infer_type_matches_recursive_reference(case):
    ctx, t = case
    got = _outcome(lambda: type_str(infer_type(ctx, t, MIXED.signature)))
    assert got == _outcome(lambda: reference_type_str(reference_infer_type(ctx, t, MIXED.signature)))


_SIDES = _TERMS | _typed_terms().map(lambda case: case[1])


@given(_SIDES, _SIDES)
@settings(max_examples=300, deadline=None)
def test_infer_rule_types_matches_recursive_reference(lhs, rhs):
    args = (MIXED.signature, lhs, rhs, free_vars(lhs))
    got = _outcome(lambda: tuple(map(type_str, infer_rule_types(*args))))
    assert got == _outcome(lambda: tuple(map(reference_type_str, reference_infer_rule_types(*args))))


def test_infer_rule_types_matches_recursive_reference_on_builtin_rules():
    for rule in MIXED.rules:
        args = (MIXED.signature, rule.lhs, rule.rhs, pattern_vars(rule.lhs))
        got = _outcome(lambda: tuple(map(type_str, infer_rule_types(*args))))
        assert got == _outcome(lambda: tuple(map(reference_type_str, reference_infer_rule_types(*args)))), rule.name


# -- deep terms ------------------------------------------------------------------


@stack_safe
def test_deep_numeral_types():
    n = 10**5
    t = fn("zero")
    for _ in range(n):
        t = fn("succ", t)
    assert infer_type({}, t, PEANO.signature) == NAT


@stack_safe
def test_deep_lam_and_let_chains_type():
    n = 10**4
    t = Var("x")
    for _ in range(n):
        t = Lam("x", t)
    # each binder gets a fresh variable, and the body is the innermost one's
    names = [type_str(TVar(i)) for i in range(n)]
    expected = "".join(f"(-> {a} " for a in names) + names[-1] + ")" * n
    assert type_str(infer_type({}, t, GS.signature)) == expected
    t = Pure(Var("x"))
    for i in range(n):
        t = Let("x", Pure(Lam("y", Var("x"))) if i % 2 else Pure(Var("v")), t)
    assert type_str(infer_type({"x": NAT, "v": VAL}, t, GS.signature)) == "(E val)"


@stack_safe
def test_deep_arrow_type_round_trips():
    n = 10**4
    text = "(-> val " * n + "(E nat)" + ")" * n
    ty = parse_type(text)
    assert type_str(ty) == text
    assert type_str(canonical_type(ty)) == text

