"""Type inference for metalanguage terms.

The typing rules are the usual ones for a computational metalanguage:

    ctx, x:S |- u : T          =>  lam x.u : S -> T
    s : S->T, t : S            =>  (app s t) : T
    t : T                      =>  (pure t) : E T
    t : E S, ctx,x:S |- u : E T =>  (let x t u) : E T
    effect e/n, each t_i : E T =>  e(t1..tn) : E T
    f : S1..Sn -> T, t_i : S_i =>  f(t1..tn) : T

Lambda binders are unannotated in the surface syntax, so inference runs
with fresh type variables and first-order unification (no polymorphism,
no generalisation).  Variables left over after solving are renumbered by
first occurrence, which makes inferred types comparable across terms.
"""

from __future__ import annotations

from typing import Callable, Mapping

from .signature import EffectDecl, Signature, SignatureError, check_symapp
from .terms import (
    App,
    Arrow,
    Base,
    Eff,
    Lam,
    Let,
    Pure,
    SymApp,
    Term,
    TVar,
    Type,
    Var,
    ident_str,
    print_term,
    type_str,
)

TypingContext = Mapping[str, Type]


class TypingError(Exception):
    pass


class Unifier:
    def __init__(self):
        self.subst: dict[int, Type] = {}
        self.counter = 0

    def fresh(self) -> TVar:
        self.counter += 1
        return TVar(self.counter - 1)

    def walk(self, ty: Type) -> Type:
        while isinstance(ty, TVar) and ty.index in self.subst:
            ty = self.subst[ty.index]
        return ty

    def resolve(self, ty: Type) -> Type:
        ty = self.walk(ty)
        if isinstance(ty, Eff):
            return Eff(self.resolve(ty.inner))
        if isinstance(ty, Arrow):
            return Arrow(self.resolve(ty.dom), self.resolve(ty.cod))
        return ty

    def _occurs(self, idx: int, ty: Type) -> bool:
        ty = self.walk(ty)
        if isinstance(ty, TVar):
            return ty.index == idx
        if isinstance(ty, Eff):
            return self._occurs(idx, ty.inner)
        if isinstance(ty, Arrow):
            return self._occurs(idx, ty.dom) or self._occurs(idx, ty.cod)
        return False

    def unify(self, a: Type, b: Type, why: Callable[[], str]) -> None:
        """Unify a with b.  why builds the error context and is called only
        when unification fails, so it must not outlive this call."""
        a, b = self.walk(a), self.walk(b)
        if a == b:
            return
        if isinstance(a, TVar):
            if self._occurs(a.index, b):
                raise TypingError(f"{why()}: circular type")
            self.subst[a.index] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a, why)
            return
        if isinstance(a, Eff) and isinstance(b, Eff):
            self.unify(a.inner, b.inner, why)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.dom, b.dom, why)
            self.unify(a.cod, b.cod, why)
            return
        raise TypingError(
            f"{why()}: {type_str(self.resolve(a))} does not match {type_str(self.resolve(b))}"
        )


def canonical_type(ty: Type) -> Type:
    """Renumber type variables by first occurrence so that inferred types
    can be compared structurally."""
    mapping: dict[int, int] = {}

    def go(ty: Type) -> Type:
        if isinstance(ty, TVar):
            if ty.index not in mapping:
                mapping[ty.index] = len(mapping)
            return TVar(mapping[ty.index])
        if isinstance(ty, Eff):
            return Eff(go(ty.inner))
        if isinstance(ty, Arrow):
            return Arrow(go(ty.dom), go(ty.cod))
        return ty

    return go(ty)


def _infer(t: Term, ctx: dict[str, Type], uni: Unifier, sig: Signature) -> Type:
    if isinstance(t, Var):
        if t.name not in ctx:
            raise TypingError(f"unbound variable: {t.name}")
        return ctx[t.name]
    if isinstance(t, Lam):
        a = uni.fresh()
        body = _infer(t.body, {**ctx, t.binder: a}, uni, sig)
        return Arrow(a, body)
    if isinstance(t, App):
        fun = _infer(t.fun, ctx, uni, sig)
        arg = _infer(t.arg, ctx, uni, sig)
        res = uni.fresh()
        uni.unify(fun, Arrow(arg, res), lambda: f"in application {print_term(t)}")
        return res
    if isinstance(t, Pure):
        return Eff(_infer(t.body, ctx, uni, sig))
    if isinstance(t, Let):
        subject = _infer(t.subject, ctx, uni, sig)
        a = uni.fresh()
        uni.unify(subject, Eff(a), lambda: f"let subject {print_term(t.subject)} must have an effect type")
        body = _infer(t.body, {**ctx, t.binder: a}, uni, sig)
        res = uni.fresh()
        uni.unify(body, Eff(res), lambda: f"let body {print_term(t.body)} must have an effect type")
        return Eff(res)
    if isinstance(t, SymApp):
        try:
            decl = check_symapp(sig, t)
        except SignatureError as e:
            raise TypingError(str(e)) from e
        if isinstance(decl, EffectDecl):
            common = uni.fresh()
            for i, arg in enumerate(t.args):
                got = _infer(arg, ctx, uni, sig)
                uni.unify(
                    got,
                    Eff(common),
                    lambda: f"argument {i} of {ident_str(t.identity)} disagrees with the others",
                )
            return Eff(common)
        for i, arg in enumerate(t.args):
            got = _infer(arg, ctx, uni, sig)
            uni.unify(got, decl.arg_types[i], lambda: f"argument {i} of {t.name}")
        return decl.result
    raise TypingError(f"not a term: {t!r}")


def infer_type(ctx: TypingContext, t: Term, sig: Signature) -> Type:
    """Infer the type of t under ctx, or raise TypingError.

    Residual inference variables (from binders the term never constrains)
    are renumbered canonically, so alpha-variants of a term always get
    equal inferred types.
    """
    uni = Unifier()
    ty = _infer(t, dict(ctx), uni, sig)
    return canonical_type(uni.resolve(ty))


def infer_rule_types(sig: Signature, lhs: Term, rhs: Term, rule_vars: frozenset[str]):
    """Infer types for both sides of a rewrite rule under one shared typing
    of its variables; unify the two sides.  Returns (lhs type, rhs type)
    after solving.  Raises TypingError naming the offending side."""
    uni = Unifier()
    ctx: dict[str, Type] = {v: uni.fresh() for v in sorted(rule_vars)}
    try:
        lt = _infer(lhs, ctx, uni, sig)
    except TypingError as e:
        raise TypingError(f"left side {print_term(lhs)}: {e}") from e
    try:
        rt = _infer(rhs, ctx, uni, sig)
    except TypingError as e:
        raise TypingError(f"right side {print_term(rhs)}: {e}") from e
    uni.unify(
        lt,
        rt,
        lambda: f"rule sides {print_term(lhs)} and {print_term(rhs)} must share a type",
    )
    return canonical_type(uni.resolve(lt)), canonical_type(uni.resolve(rt))


__all__ = [
    "TypingContext",
    "TypingError",
    "infer_type",
    "infer_rule_types",
    "canonical_type",
    "Base",
    "Eff",
    "Arrow",
    "TVar",
]
