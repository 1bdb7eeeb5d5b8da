import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effrew.parser import ParseError, build_term, parse_term, parse_type
from effrew.sexpr import parse_one
from effrew.signature import SignatureError
from effrew.terms import (
    App,
    Arrow,
    Base,
    Eff,
    Lam,
    Let,
    Pure,
    Var,
    eff,
    fn,
    print_term,
)
from effrew.theories import builtin, compose, peano_numeral
from oracles import reference_build_term
from stack_safe import stack_safe
from termgen import RPO_SIG, symbolic_term

GS_SIG = builtin("global-state").signature


def test_parse_var():
    assert parse_term("x", GS_SIG) == Var("x")


def test_parse_lam_app():
    assert parse_term("(lam x x)", GS_SIG) == Lam("x", Var("x"))
    assert parse_term("(app f v)", GS_SIG) == App(Var("f"), Var("v"))


def test_parse_pure_let():
    assert parse_term("(pure v)", GS_SIG) == Pure(Var("v"))
    assert parse_term("(let x (pure v) x)", GS_SIG) == Let("x", Pure(Var("v")), Var("x"))


def test_parse_effect_with_param():
    t = parse_term("(eff assign (1) (pure v))", GS_SIG)
    assert t == eff("assign", Pure(Var("v")), params=(1,))


def test_parse_effect_no_param():
    t = parse_term("(eff get () (pure a) (pure b))", GS_SIG)
    assert t == eff("get", Pure(Var("a")), Pure(Var("b")))


def test_parse_function_symbol():
    peano = builtin("peano").signature
    assert parse_term("(fn zero)", peano) == fn("zero")
    assert parse_term("(fn succ (fn zero))", peano) == fn("succ", fn("zero"))


def test_comments_allowed():
    t = parse_term("; note\n(pure x) ; end", GS_SIG)
    assert t == Pure(Var("x"))


def test_unknown_effect_rejected():
    with pytest.raises(ParseError):
        parse_term("(eff launch () (pure v))", GS_SIG)


def test_wrong_arity_rejected():
    with pytest.raises(ParseError):
        parse_term("(eff get () (pure a))", GS_SIG)
    with pytest.raises(ParseError):
        parse_term("(eff assign (1) (pure a) (pure b))", GS_SIG)


def test_param_outside_domain_rejected():
    with pytest.raises(ParseError):
        parse_term("(eff assign (9) (pure v))", GS_SIG)


def test_missing_param_rejected():
    with pytest.raises(ParseError):
        parse_term("(eff assign () (pure v))", GS_SIG)


def test_param_on_parameterless_effect_rejected():
    with pytest.raises(ParseError):
        parse_term("(eff get (1) (pure a) (pure b))", GS_SIG)


def test_syntax_error_mentions_location():
    with pytest.raises(ParseError) as exc:
        parse_term("(pure", GS_SIG)
    assert "line" in str(exc.value) or ":" in str(exc.value)


def test_malformed_let():
    with pytest.raises(ParseError):
        parse_term("(let x (pure v))", GS_SIG)


def test_parse_type_forms():
    assert parse_type("val") == Base("val")
    assert parse_type("(E val)") == Eff(Base("val"))
    assert parse_type("(-> val (E val))") == Arrow(Base("val"), Eff(Base("val")))
    assert parse_type("(E (E nat))") == Eff(Eff(Base("nat")))


def test_parse_type_errors():
    with pytest.raises(ParseError):
        parse_type("(E)")
    with pytest.raises(ParseError):
        parse_type("(-> val)")


@given(st.integers(0, 2**32 - 1), st.integers(1, 14))
def test_print_parse_roundtrip_symbolic(seed, budget):
    t = symbolic_term(random.Random(seed), budget)
    assert parse_term(print_term(t), RPO_SIG) == t


def test_print_parse_roundtrip_binders():
    samples = [
        "(let x (pure v) (lam y (app y x)))",
        "(eff or () (pure a) (let x (pure b) (pure x)))",
        "(lam x (lam x x))",
    ]
    sig = builtin("nondet").signature
    for text in samples:
        t = parse_term(text, sig)
        assert parse_term(print_term(t), sig) == t


# -- the builder against the recursive reference -----------------------------

MIXED_SIG = compose(builtin("global-state"), builtin("nondet"), builtin("peano")).signature

_ATOMS = st.sampled_from(("x", "v", "y", "zero", "succ", "plus", "or", "lam", "fn", 0, -1))


def _forms(part):
    """Each form with parts drawn from part: most have the right shape,
    but a binder or a name may be an integer, a parameter may be a list, a
    symbol may be unknown or take the wrong arity, and the last one is any
    list at all."""
    parts = st.lists(part, max_size=3)
    params = st.lists(st.one_of(st.integers(-1, 2), st.just("a"), part), max_size=2)
    return st.one_of(
        st.builds(lambda b, body: ["lam", b, body], _ATOMS, part),
        st.builds(lambda f, a: ["app", f, a], part, part),
        st.builds(lambda body: ["pure", body], part),
        st.builds(lambda b, s, body: ["let", b, s, body], _ATOMS, part, part),
        st.builds(
            lambda name, ps, args: ["eff", name, ps, *args],
            st.sampled_from(("assign", "get", "or", "succ", "nope")), params, parts,
        ),
        st.builds(lambda name, args: ["fn", name, *args], st.sampled_from(("zero", "succ", "plus", "or", 3)), parts),
        st.lists(st.one_of(_ATOMS, part), max_size=4),
    )


def _outcome(build, node):
    try:
        return "ok", build(node, MIXED_SIG)
    except (ParseError, SignatureError) as e:
        return type(e).__name__, str(e)


@given(st.recursive(_ATOMS, _forms, max_leaves=30))
@settings(max_examples=500, deadline=None)
def test_build_term_matches_recursive_reference(node):
    assert _outcome(build_term, node) == _outcome(reference_build_term, node)


@pytest.mark.parametrize(
    "text, message",
    [
        # a form is checked before its parts, and its parts left to right
        ("(fn plus (lam 3 x) (fn nope))", "expected binder, got 3"),
        ("(fn plus (fn nope) (lam 3 x))", "unknown symbol: nope"),
        # a symbol application is checked after its arguments
        ("(fn zero (fn succ))", "arity mismatch: succ expects 1 arguments, got 0"),
        ("(eff or (x) (lam))", "(lam ident term) takes two parts"),
        ("(eff or ((p)) (lam))", "parameter of or must be an integer or ident"),
    ],
)
def test_build_term_error_order(text, message):
    assert _outcome(build_term, parse_one(text)) == _outcome(reference_build_term, parse_one(text))
    with pytest.raises(ParseError) as caught:
        parse_term(text, MIXED_SIG)
    assert str(caught.value) == message


@stack_safe
def test_build_term_deep_numeral():
    n = 10**5
    text = "(fn succ " * n + "(fn zero)" + ")" * n
    assert parse_term(text, MIXED_SIG) == peano_numeral(n)
