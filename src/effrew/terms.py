"""Term and type syntax for the monadic effect metalanguage.

Terms are immutable trees. Binders carry names; alpha-equivalence and
hashing go through a canonical de Bruijn rendering so that two terms that
differ only in bound names are interchangeable wherever it matters
(reduction graph nodes, nonlinear pattern matching).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Iterator, Union

Param = Union[int, str]
Position = tuple[int, ...]


class TermError(Exception):
    pass


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class Base:
    name: str


@dataclass(frozen=True)
class Eff:
    inner: "Type"


@dataclass(frozen=True)
class Arrow:
    dom: "Type"
    cod: "Type"


@dataclass(frozen=True)
class TVar:
    """Inference variable; only shows up in inferred types, never in signatures."""

    index: int


Type = Union[Base, Eff, Arrow, TVar]


def type_str(ty: Type) -> str:
    if isinstance(ty, Base):
        return ty.name
    if isinstance(ty, Eff):
        return f"(E {type_str(ty.inner)})"
    if isinstance(ty, Arrow):
        return f"(-> {type_str(ty.dom)} {type_str(ty.cod)})"
    if isinstance(ty, TVar):
        # 0 -> 'a, 25 -> 'z, 26 -> 'a1, ...
        letter = chr(ord("a") + ty.index % 26)
        suffix = ty.index // 26
        return "'" + letter + (str(suffix) if suffix else "")
    raise TermError(f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lam:
    binder: str
    body: "Term"


@dataclass(frozen=True)
class App:
    fun: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Pure:
    body: "Term"


@dataclass(frozen=True)
class Let:
    binder: str
    subject: "Term"
    body: "Term"


@dataclass(frozen=True)
class SymApp:
    """Applied effect or function symbol.

    ``kind`` is "eff" or "fn".  Effect symbols may carry parameters drawn
    from a finite domain (assign with the written value, print with the
    message); the symbol identity is the pair (name, params) and two
    parameterisations of the same family are unrelated symbols.
    """

    kind: str
    name: str
    params: tuple[Param, ...]
    args: tuple["Term", ...]

    @property
    def identity(self) -> tuple[str, tuple[Param, ...]]:
        return (self.name, self.params)


Term = Union[Var, Lam, App, Pure, Let, SymApp]

Identity = tuple[str, tuple[Param, ...]]


def eff(name: str, *args: Term, params: tuple[Param, ...] = ()) -> SymApp:
    return SymApp("eff", name, params, tuple(args))


def fn(name: str, *args: Term) -> SymApp:
    return SymApp("fn", name, (), tuple(args))


def ident_str(identity: Identity) -> str:
    name, params = identity
    if not params:
        return name
    return name + "_" + "_".join(str(p) for p in params)


# ---------------------------------------------------------------------------
# structure helpers


def children(t: Term) -> tuple[Term, ...]:
    # symbol applications are the most common nodes, so they are tested first
    if isinstance(t, SymApp):
        return t.args
    if isinstance(t, Var):
        return ()
    if isinstance(t, Lam):
        return (t.body,)
    if isinstance(t, App):
        return (t.fun, t.arg)
    if isinstance(t, Pure):
        return (t.body,)
    if isinstance(t, Let):
        return (t.subject, t.body)
    raise TermError(f"not a term: {t!r}")


def with_children(t: Term, new: tuple[Term, ...]) -> Term:
    if isinstance(t, SymApp):
        return SymApp(t.kind, t.name, t.params, new)
    if isinstance(t, Var):
        return t
    if isinstance(t, Lam):
        return Lam(t.binder, new[0])
    if isinstance(t, App):
        return App(new[0], new[1])
    if isinstance(t, Pure):
        return Pure(new[0])
    if isinstance(t, Let):
        return Let(t.binder, new[0], new[1])
    raise TermError(f"not a term: {t!r}")


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        kids = children(t)
        if i >= len(kids):
            raise TermError(f"position {pos} not in term")
        t = kids[i]
    return t


def replace_at(t: Term, pos: Position, sub: Term) -> Term:
    """t with the subterm at pos replaced by sub: walks down to pos, then
    rebuilds the path bottom-up, without recursion."""
    spine = []
    for i in pos:
        kids = children(t)
        if i >= len(kids):
            raise TermError(f"position {pos} not in term")
        spine.append((t, kids, i))
        t = kids[i]
    for node, kids, i in reversed(spine):
        kids = list(kids)
        kids[i] = sub
        sub = with_children(node, tuple(kids))
    return sub


def iter_subterms(t: Term, pos: Position = ()) -> Iterator[tuple[Position, Term]]:
    """Preorder walk; positions come out in lexicographic order."""
    stack = [(pos, t)]
    while stack:
        pos, t = stack.pop()
        yield pos, t
        kids = children(t)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((pos + (i,), kids[i]))


def term_size(t: Term) -> int:
    return 1 + sum(term_size(k) for k in children(t))


# ---------------------------------------------------------------------------
# variables and substitution


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.binder}
    if isinstance(t, Let):
        return free_vars(t.subject) | (free_vars(t.body) - {t.binder})
    out: frozenset[str] = frozenset()
    for k in children(t):
        out |= free_vars(k)
    return out


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    n = 1
    while f"{base}{n}" in avoid:
        n += 1
    return f"{base}{n}"


def substitute(t: Term, var: str, repl: Term) -> Term:
    """Capture-avoiding substitution of repl for free occurrences of var.
    A subterm that the substitution leaves unchanged comes back as the same
    object, so a caller can tell shared subterms by identity."""
    repl_fv = free_vars(repl)

    def go(t: Term) -> Term:
        if isinstance(t, Var):
            return repl if t.name == var else t
        if isinstance(t, Lam):
            if t.binder == var:
                return t
            body = t.body
            binder = t.binder
            if binder in repl_fv and var in free_vars(body):
                binder = fresh_name(binder, repl_fv | free_vars(body) | {var})
                body = substitute(body, t.binder, Var(binder))
            body = go(body)
            return t if body is t.body else Lam(binder, body)
        if isinstance(t, Let):
            subject = go(t.subject)
            body = t.body
            binder = t.binder
            if binder != var:
                if binder in repl_fv and var in free_vars(body):
                    binder = fresh_name(binder, repl_fv | free_vars(body) | {var})
                    body = substitute(body, t.binder, Var(binder))
                body = go(body)
            if subject is t.subject and body is t.body:
                return t
            return Let(binder, subject, body)
        kids = children(t)
        new = tuple(map(go, kids))
        return t if all(map(is_, new, kids)) else with_children(t, new)

    return go(t)


# ---------------------------------------------------------------------------
# printing and canonical forms


def _params_str(params: tuple[Param, ...]) -> str:
    return " ".join(map(str, params)) if params else ""


# print_term's pending literal tokens, boxed so that they cannot be taken
# for a term: a str in place of a term is refused like any other non-term
_CLOSE, _SPACE = (")",), (" ",)


def print_term(t: Term) -> str:
    """Canonical single-space surface syntax; parse_term round-trips it.
    Iterative: one explicit stack of pending subterms and literal tokens,
    joined once, so a deep term costs no Python stack."""
    out: list[str] = []
    stack: list = [t]
    push = stack.append
    while stack:
        t = stack.pop()
        # dispatch on the exact class, since terms are never subclassed
        tt = type(t)
        if tt is tuple:
            out.append(t[0])
        elif tt is SymApp:
            if t.kind == "eff":
                out.append(f"(eff {t.name} ({_params_str(t.params)})")
            else:
                out.append(f"(fn {t.name}")
            push(_CLOSE)
            for a in reversed(t.args):
                push(a)
                push(_SPACE)
        elif tt is Var:
            out.append(t.name)
        elif tt is Lam:
            out.append(f"(lam {t.binder} ")
            push(_CLOSE)
            push(t.body)
        elif tt is App:
            out.append("(app ")
            push(_CLOSE)
            push(t.arg)
            push(_SPACE)
            push(t.fun)
        elif tt is Pure:
            out.append("(pure ")
            push(_CLOSE)
            push(t.body)
        elif tt is Let:
            out.append(f"(let {t.binder} ")
            push(_CLOSE)
            push(t.body)
            push(_SPACE)
            push(t.subject)
        else:
            raise TermError(f"not a term: {t!r}")
    return "".join(out)


def canonical_key(t: Term) -> str:
    """Alpha-invariant rendering: binder names dropped, bound vars as de
    Bruijn indices (the innermost binding wins), free vars by name.  Equal
    keys mean alpha-equal terms.  Iterative: one explicit stack of pending
    (subterm, binders) items and literal tokens, joined once, so a deep
    term costs no Python stack."""
    out: list[str] = []
    # binders lists the enclosing binder names innermost first, so a bound
    # variable's de Bruijn index is the first position of its name
    stack: list = [(t, ())]
    push = stack.append
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, binders = item
        tt = type(t)
        if tt is SymApp:
            out.append(f"({t.kind} {t.name} ({_params_str(t.params)})")
            push(")")
            for a in reversed(t.args):
                push((a, binders))
                push(" ")
        elif tt is Var:
            name = t.name
            out.append(f"#{binders.index(name)}" if name in binders else name)
        elif tt is Lam:
            out.append("(lam ")
            push(")")
            push((t.body, (t.binder,) + binders))
        elif tt is App:
            out.append("(app ")
            push(")")
            push((t.arg, binders))
            push(" ")
            push((t.fun, binders))
        elif tt is Pure:
            out.append("(pure ")
            push(")")
            push((t.body, binders))
        elif tt is Let:
            out.append("(let ")
            push(")")
            push((t.body, (t.binder,) + binders))
            push(" ")
            push((t.subject, binders))
        else:
            raise TermError(f"not a term: {t!r}")
    return "".join(out)


def alpha_eq(a: Term, b: Term) -> bool:
    return canonical_key(a) == canonical_key(b)


def sym_str(t: Term) -> str:
    """Compact mathematical rendering for symbolic terms, used in reports:
    or(or(s1,s2),s3), assign_1(x), pure(pair(v,w))."""
    if isinstance(t, Var):
        return t.name
    if isinstance(t, SymApp):
        return ident_str(t.identity) + "(" + ", ".join(sym_str(a) for a in t.args) + ")"
    if isinstance(t, Pure):
        return f"pure({sym_str(t.body)})"
    return print_term(t)
