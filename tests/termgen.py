"""Seeded random term generators for property and acceptance tests.

Typed generation is type-directed, so everything it returns is well
typed by construction over the theory's signature (a soundness test
confirms this against the inference engine).  All generators draw from a
caller-supplied random.Random, so runs are reproducible.
"""

from __future__ import annotations

import random

from effrew.rpo import Precedence
from effrew.signature import EffectDecl, FunctionDecl, Signature
from effrew.terms import (
    App,
    Arrow,
    Base,
    Eff,
    Lam,
    Let,
    Pure,
    SymApp,
    Term,
    Type,
    Var,
    term_size,
)
from effrew.theories import Theory

_BINDERS = ("x", "y", "z", "w")


class TypedTermGen:
    def __init__(self, rng: random.Random, theory: Theory, base_vars: int = 2):
        self.rng = rng
        self.sig = theory.signature
        bases = {Base(b) for b in theory.bases}
        for d in self.sig.functions():
            for ty in (*d.arg_types, d.result):
                bases |= self._bases_of(ty)
        self.bases = sorted(bases, key=lambda b: b.name) or [Base("val")]
        self.ctx: dict[str, Type] = {}
        for b in self.bases:
            for i in range(base_vars):
                self.ctx[f"{b.name}{i}"] = b
            self.ctx[f"m{b.name}0"] = Eff(b)
        self.simple_types = list(self.bases) + [Eff(b) for b in self.bases]

    @staticmethod
    def _bases_of(ty: Type) -> set:
        if isinstance(ty, Base):
            return {ty}
        if isinstance(ty, Eff):
            return TypedTermGen._bases_of(ty.inner)
        if isinstance(ty, Arrow):
            return TypedTermGen._bases_of(ty.dom) | TypedTermGen._bases_of(ty.cod)
        return set()

    # -- minimal inhabitants ------------------------------------------------

    def minimal(self, ty: Type, ctx: dict) -> Term:
        for name, t in ctx.items():
            if t == ty:
                return Var(name)
        if isinstance(ty, Eff):
            return Pure(self.minimal(ty.inner, ctx))
        if isinstance(ty, Arrow):
            b = self.rng.choice(_BINDERS)
            return Lam(b, self.minimal(ty.cod, {**ctx, b: ty.dom}))
        if isinstance(ty, Base):
            for d in self.sig.functions():
                if d.result == ty and not d.arg_types:
                    return SymApp("fn", d.name, (), ())
            raise RuntimeError(f"no inhabitant for base type {ty.name} in context")
        raise RuntimeError(f"cannot inhabit {ty!r}")

    # -- sized generation ---------------------------------------------------

    def gen(self, ty: Type, budget: int, ctx: dict | None = None) -> Term:
        ctx = self.ctx if ctx is None else ctx
        if budget <= 1:
            return self.minimal(ty, ctx)
        options = []
        matching_vars = [n for n, t in ctx.items() if t == ty]
        if matching_vars:
            options.append(("var", 1))
        if isinstance(ty, Eff):
            options += [("pure", 3), ("let", 3), ("effsym", 4), ("app", 1)]
        if isinstance(ty, Arrow):
            options += [("lam", 4), ("app", 1)]
        if isinstance(ty, Base):
            fns = [d for d in self.sig.functions() if d.result == ty]
            if fns:
                options.append(("fnsym", 4))
            options.append(("app", 1))
        kind = self._weighted(options)
        if kind == "var":
            return Var(self.rng.choice(matching_vars))
        if kind == "pure":
            return Pure(self.gen(ty.inner, budget - 1, ctx))
        if kind == "let":
            inner = self.rng.choice(self.bases)
            b = self.rng.choice(_BINDERS)
            # lean subjects: deep towers of lets over wide effects make the
            # reduction graph explode combinatorially without adding variety
            left = self.rng.randint(1, max(1, (budget - 1) // 3))
            subject = self.gen(Eff(inner), left, ctx)
            body = self.gen(ty, max(1, budget - 1 - left), {**ctx, b: inner})
            return Let(b, subject, body)
        if kind == "effsym":
            effs = self.sig.effects()
            d = self.rng.choice(effs) if effs else None
            if d is None:
                return Pure(self.gen(ty.inner, budget - 1, ctx))
            params = (self.rng.choice(d.param_domain),) if d.param_domain else ()
            if d.arity == 0:
                return SymApp("eff", d.name, params, ())
            parts = self._split(budget - 1, d.arity)
            args = tuple(self.gen(ty, p, ctx) for p in parts)
            return SymApp("eff", d.name, params, args)
        if kind == "fnsym":
            fns = [d for d in self.sig.functions() if d.result == ty]
            d = self.rng.choice(fns)
            if d.arity == 0:
                return SymApp("fn", d.name, (), ())
            parts = self._split(budget - 1, d.arity)
            args = tuple(self.gen(at, p, ctx) for at, p in zip(d.arg_types, parts))
            return SymApp("fn", d.name, (), args)
        if kind == "lam":
            b = self.rng.choice(_BINDERS)
            return Lam(b, self.gen(ty.cod, budget - 1, {**ctx, b: ty.dom}))
        if kind == "app":
            dom = self.rng.choice(self.simple_types)
            left, right = self._split(budget - 1, 2)
            fun = self.gen(Arrow(dom, ty), left, ctx)
            arg = self.gen(dom, right, ctx)
            return App(fun, arg)
        raise AssertionError(kind)

    def gen_sized(self, ty: Type, max_size: int) -> Term:
        """A term of size at most max_size (sizes vary across the range)."""
        budget = self.rng.randint(2, max_size)
        while True:
            t = self.gen(ty, budget)
            if term_size(t) <= max_size:
                return t
            budget = max(2, budget - 2)

    def _weighted(self, options):
        total = sum(w for _, w in options)
        roll = self.rng.uniform(0, total)
        for kind, w in options:
            roll -= w
            if roll <= 0:
                return kind
        return options[-1][0]

    def _split(self, budget: int, k: int) -> list[int]:
        parts = [1] * k
        for _ in range(max(0, budget - k)):
            parts[self.rng.randrange(k)] += 1
        return parts


# ---------------------------------------------------------------------------
# shape-specific generators


def or_tree(rng: random.Random, max_depth: int, leaf_pool=("a", "b", "c", "d")) -> Term:
    def go(depth: int) -> Term:
        if depth == 0 or rng.random() < 0.3:
            return Pure(Var(rng.choice(leaf_pool)))
        return SymApp("eff", "or", (), (go(depth - 1), go(depth - 1)))

    return SymApp("eff", "or", (), (go(max_depth - 1), go(max_depth - 1)))


def gs_trace(rng: random.Random, domain, max_depth: int, leaves=("c0", "c1")) -> Term:
    """Assign-rooted ground tree of assign/get over pure constant leaves."""

    def node(depth: int) -> Term:
        if depth == 0 or rng.random() < 0.25:
            return Pure(SymApp("fn", rng.choice(leaves), (), ()))
        if rng.random() < 0.5:
            return SymApp("eff", "assign", (rng.choice(domain),), (node(depth - 1),))
        return SymApp("eff", "get", (), tuple(node(depth - 1) for _ in domain))

    return SymApp("eff", "assign", (rng.choice(domain),), (node(max_depth - 1),))


# the six unary effects of the par workloads, in three two-letter alphabets
PAR6_EFFECTS = (("a1", 1), ("a2", 1), ("b1", 1), ("b2", 1), ("c1", 1), ("c2", 1))


def par_interleaving(rng: random.Random, max_len: int = 3) -> Term:
    """par of two or three effect chains over PAR6_EFFECTS, each ending in
    a pure leaf, sometimes under (let x <= ... in pure x)."""
    alphabets = rng.sample((("a1", "a2"), ("b1", "b2"), ("c1", "c2")), rng.choice((2, 3)))
    chains = []
    for alphabet, leaf in zip(alphabets, ("v", "w", "u")):
        t = Pure(Var(leaf))
        for _ in range(rng.randint(1, max_len)):
            t = SymApp("eff", rng.choice(alphabet), (), (t,))
        chains.append(t)
    t = chains.pop()
    while chains:
        other = chains.pop()
        t = SymApp("eff", "par", (), (other, t) if rng.random() < 0.5 else (t, other))
    if rng.random() < 0.3:
        t = Let("x", t, Pure(Var("x")))
    return t


# ---------------------------------------------------------------------------
# symbolic terms and precedences for the ordering tests

RPO_SIG = Signature(
    (
        FunctionDecl("c", (), Base("val")),
        FunctionDecl("g", (Base("val"),), Base("val")),
        FunctionDecl("f", (Base("val"), Base("val")), Base("val")),
        FunctionDecl("h", (Base("val"),) * 3, Base("val")),
        EffectDecl("p", 1, (0, 1)),
    )
)

_RPO_SYMBOLS = [
    ("fn", "c", (), 0),
    ("fn", "g", (), 1),
    ("fn", "f", (), 2),
    ("fn", "h", (), 3),
    ("eff", "p", (0,), 1),
    ("eff", "p", (1,), 1),
]

_RPO_VARS = ("u", "v", "w")


def symbolic_term(rng: random.Random, budget: int) -> Term:
    if budget <= 1:
        if rng.random() < 0.5:
            return Var(rng.choice(_RPO_VARS))
        return SymApp("fn", "c", (), ())
    kind, name, params, arity = rng.choice([s for s in _RPO_SYMBOLS if s[3] <= budget - 1])
    if arity == 0:
        return SymApp(kind, name, params, ())
    parts = [1] * arity
    for _ in range(max(0, budget - 1 - arity)):
        parts[rng.randrange(arity)] += 1
    return SymApp(kind, name, params, tuple(symbolic_term(rng, p) for p in parts))


def rpo_identities():
    return [(name, params) for _, name, params, _ in _RPO_SYMBOLS]


def random_precedence(rng: random.Random, density: float = 0.4) -> Precedence:
    ids = rpo_identities()
    perm = rng.sample(ids, len(ids))
    pairs = set()
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if rng.random() < density:
                pairs.add((perm[i], perm[j]))
    return Precedence(pairs)
