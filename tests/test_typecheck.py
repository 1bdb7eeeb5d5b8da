import random

import pytest

from effrew.rewrite import pattern_vars
from effrew.terms import (
    App,
    Arrow,
    Base,
    Eff,
    Lam,
    Let,
    Pure,
    TVar,
    Var,
    eff,
    fn,
    type_str,
)
from effrew.theories import builtin, compose
from effrew.typecheck import TypingError, canonical_type, infer_rule_types, infer_type
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
