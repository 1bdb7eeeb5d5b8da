"""Term and type syntax for the monadic effect metalanguage.

Terms are immutable trees. Binders carry names; alpha-equivalence and
hashing go through a canonical de Bruijn rendering so that two terms that
differ only in bound names are interchangeable wherever it matters
(reduction graph nodes, nonlinear pattern matching).

Terms and types can be far deeper than the interpreter recursion limit,
so no walk here calls itself.  Most keep their pending work on one
explicit stack.  A walk that is clearer as a recursion is written as a
step, a generator that yields where it would call itself, and runs on
_run_steps, which keeps the generators on one list: substitute's capture
renaming here, the term and type builders of parser, and type inference
in typecheck.
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
# printing types, and the step runner


# the pending literal tokens of type_str, print_term and sym_str, boxed so
# that they cannot be taken for a type or term: a str in place of one is
# refused like any other non-type or non-term
_CLOSE, _SPACE, _COMMA = (")",), (" ",), (", ",)


def type_str(ty: Type) -> str:
    """Surface syntax of a type, as parse_type reads it.  Iterative, like
    print_term: one explicit stack of pending types and literal tokens."""
    out: list[str] = []
    stack: list = [ty]
    while stack:
        ty = stack.pop()
        tt = type(ty)
        if tt is tuple:
            out.append(ty[0])
        elif tt is Base:
            out.append(ty.name)
        elif tt is Eff:
            out.append("(E ")
            stack += (_CLOSE, ty.inner)
        elif tt is Arrow:
            out.append("(-> ")
            stack += (_CLOSE, ty.cod, _SPACE, ty.dom)
        elif tt is TVar:
            # 0 -> 'a, 25 -> 'z, 26 -> 'a1, ...
            letter = chr(ord("a") + ty.index % 26)
            suffix = ty.index // 26
            out.append("'" + letter + (str(suffix) if suffix else ""))
        else:
            raise TermError(f"not a type: {ty!r}")
    return "".join(out)


def _run_steps(step, root):
    """The value of step(root), where step(part) is a generator that yields
    each part whose value it needs, is sent that value, and returns its
    own.  The generators wait on one explicit list, so the depth of the
    walk costs no Python stack; a recursive function becomes a step by
    turning each call on itself into a yield."""
    stack = [step(root)]
    value = None
    while True:
        try:
            part = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(step(part))
            value = None


# ---------------------------------------------------------------------------
# types and terms


class _Node:
    """Base of the four type and six term classes: immutable __slots__
    nodes.  Assigning a field raises AttributeError, FrozenInstanceError
    for a type.  Equality is structural and the hash, computed on first
    use, is cached in the node; both, repr and the reduction that pickle
    and deepcopy use walk an explicit stack, so a deep type or term costs
    no Python stack.  Each class lists its fields in __slots__, in
    constructor order."""

    __slots__ = ("_hash",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """A flat table of the node's distinct descendants (see _table),
        which _from_table rebuilds in one loop: pickle and deepcopy take no
        Python stack per level, and a part shared within the node stays
        shared."""
        return _from_table, (_table([self])[0],)

    def __deepcopy__(self, memo):
        # the table holds only classes, scalars and indices, so it is
        # rebuilt as it is, not copied first
        return _from_table(_table([self])[0])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # equal nodes hash equal, so two cached hashes that differ settle it
        h = getattr(self, "_hash", None)
        if h is not None and h != getattr(other, "_hash", h):
            return False
        return _same([(self, other)])

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # postorder, so that every child's hash is cached when its parent's
        # is taken
        stack = [self]
        while stack:
            todo = [k for k in children(stack[-1]) if not hasattr(k, "_hash")]
            if todo:
                stack += todo
                continue
            t = stack.pop()
            _set_hash(t, hash((type(t).__name__, *(getattr(t, f) for f in t.__slots__))))
        return self._hash

    def __repr__(self):
        out: list[str] = []
        stack: list = [self]
        while stack:
            t = stack.pop()
            if type(t) is str:
                out.append(t)
                continue
            out.append(type(t).__name__ + "(")
            parts: list = []
            for f in t.__slots__:
                value = getattr(t, f)
                parts.append(f"{f}=")
                if isinstance(value, _Node):
                    parts.append(value)
                elif f == "args" and value:
                    parts.append("(")
                    for a in value:
                        parts += (a, ", ")
                    parts[-1] = ",)" if len(value) == 1 else ")"
                else:
                    parts.append(repr(value))
                parts.append(", ")
            parts[-1] = ")"
            stack += reversed(parts)
        return "".join(out)


_set_hash = _Node._hash.__set__


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Base(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Eff(_Node):
    inner: "Type"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Arrow(_Node):
    dom: "Type"
    cod: "Type"


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class TVar(_Node):
    """Inference variable; only shows up in inferred types, never in signatures."""

    index: int


Type = Union[Base, Eff, Arrow, TVar]


class Var(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _var_name(self, name)


class Lam(_Node):
    __slots__ = ("binder", "body")

    def __init__(self, binder: str, body: "Term"):
        _lam_binder(self, binder)
        _lam_body(self, body)


class App(_Node):
    __slots__ = ("fun", "arg")

    def __init__(self, fun: "Term", arg: "Term"):
        _app_fun(self, fun)
        _app_arg(self, arg)


class Pure(_Node):
    __slots__ = ("body",)

    def __init__(self, body: "Term"):
        _pure_body(self, body)


class Let(_Node):
    __slots__ = ("binder", "subject", "body")

    def __init__(self, binder: str, subject: "Term", body: "Term"):
        _let_binder(self, binder)
        _let_subject(self, subject)
        _let_body(self, body)


class SymApp(_Node):
    """Applied effect or function symbol.

    ``kind`` is "eff" or "fn".  Effect symbols may carry parameters drawn
    from a finite domain (assign with the written value, print with the
    message); the symbol identity is the pair (name, params) and two
    parameterisations of the same family are unrelated symbols.
    """

    __slots__ = ("kind", "name", "params", "args")

    def __init__(self, kind: str, name: str, params: tuple[Param, ...], args: tuple["Term", ...]):
        _sym_kind(self, kind)
        _sym_name(self, name)
        _sym_params(self, params)
        _sym_args(self, args)

    @property
    def identity(self) -> tuple[str, tuple[Param, ...]]:
        return (self.name, self.params)


# the slots' own setters, which the constructors call past __setattr__
_var_name = Var.name.__set__
_lam_binder, _lam_body = Lam.binder.__set__, Lam.body.__set__
_app_fun, _app_arg = App.fun.__set__, App.arg.__set__
_pure_body = Pure.body.__set__
_let_binder, _let_subject, _let_body = Let.binder.__set__, Let.subject.__set__, Let.body.__set__
_sym_kind, _sym_name, _sym_params, _sym_args = (
    SymApp.kind.__set__, SymApp.name.__set__, SymApp.params.__set__, SymApp.args.__set__
)


def _table(roots: list) -> tuple[tuple, dict[int, int]]:
    """A flat postorder table of the distinct nodes under roots, each as
    (class, scalars, indices of its children), and each node's row by id.
    A node's children come before it, so a single root comes last."""
    index: dict[int, int] = {}
    table = []
    # None on the stack marks the node under it as ready: its children
    # were pushed above the mark, so they are listed by then
    stack: list = list(roots)
    while stack:
        t = stack.pop()
        if t is None:
            t = stack.pop()
            if id(t) not in index:
                index[id(t)] = len(table)
                table.append((type(t), _scalars(t), tuple([index[id(k)] for k in children(t)])))
        elif id(t) not in index:
            stack += (t, None)
            stack += children(t)
    return tuple(table), index


def _built(table: tuple) -> list:
    """The nodes that _table listed as table, in its order."""
    built: list = []
    for cls, scalars, kids in table:
        kids = tuple(built[i] for i in kids)
        built.append(cls(*scalars, kids) if cls is SymApp else cls(*scalars, *kids))
    return built


def _from_table(table: tuple) -> "Term":
    """The node that _Node.__reduce__ listed as table, root last."""
    return _built(table)[-1]


def _scalars(t: "Term") -> tuple:
    """The fields of t that are not subterms or inner types."""
    tt = type(t)
    if tt is SymApp:
        return (t.kind, t.name, t.params)
    if tt is Var or tt is Base:
        return (t.name,)
    if tt is Lam or tt is Let:
        return (t.binder,)
    return (t.index,) if tt is TVar else ()


def _same(pairs: list, seen: set | None = None) -> bool:
    """Whether the two nodes of each pair in pairs are structurally equal.
    pairs is the walk's explicit stack, which it leaves empty: it pops a
    pair and pushes its children's, so a deep node costs no Python stack.
    Given seen, a set of id pairs, the walk records there each pair it
    meets and skips one already recorded, so a caller that compares many
    nodes sharing parts walks each pair of parts once."""
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        if seen is not None:
            if (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
        if type(a) is not type(b) or _scalars(a) != _scalars(b):
            return False
        ka, kb = children(a), children(b)
        if len(ka) != len(kb):
            return False
        pairs += zip(ka, kb)
    return True


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
    # types, after the terms, so that a term's lookup is not slowed
    if isinstance(t, Arrow):
        return (t.dom, t.cod)
    if isinstance(t, Eff):
        return (t.inner,)
    if isinstance(t, (Base, TVar)):
        return ()
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
    rebuilds the path bottom-up, without recursion.  Each node on the path
    is rebuilt with its children tuple spliced around the new child, so
    every subterm off the path is shared with t.  A position that is not
    in t, a negative index included, raises TermError."""
    spine = []
    for i in pos:
        kids = t.args if type(t) is SymApp else children(t)
        if not 0 <= i < len(kids):
            raise TermError(f"position {pos} not in term")
        spine.append((t, kids, i))
        t = kids[i]
    for node, kids, i in reversed(spine):
        kids = kids[:i] + (sub,) + kids[i + 1 :]
        if type(node) is SymApp:
            sub = SymApp(node.kind, node.name, node.params, kids)
        else:
            sub = with_children(node, kids)
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
    n, stack = 0, [t]
    while stack:
        n += 1
        stack += children(stack.pop())
    return n


# ---------------------------------------------------------------------------
# variables and substitution


def free_vars(t: Term) -> frozenset[str]:
    """The variables with a free occurrence in t.  Iterative: a binder's
    body is pushed last, so it is popped next, and under it the binder's
    boxed name, which ends its scope when popped; bound counts by name the
    binders in scope."""
    out: set[str] = set()
    bound: dict[str, int] = {}
    stack: list = [t]
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is tuple:
            bound[t[0]] -= 1
        elif tt is Var:
            if not bound.get(t.name):
                out.add(t.name)
        elif tt is Lam or tt is Let:
            stack += (t.subject, (t.binder,), t.body) if tt is Let else ((t.binder,), t.body)
            bound[t.binder] = bound.get(t.binder, 0) + 1
        else:
            stack += children(t)
    return frozenset(out)


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
    return _run_steps(_substitute, (t, var, repl))


def _substitute(job: tuple):
    """Step of substitute for job = (t, var, repl): one explicit stack of
    pending subterms and rebuild marks, which yields only to rename a
    binder that would capture, as (body, old binder, Var(new binder))."""
    t, var, repl = job
    repl_fv = free_vars(repl)
    done: list[Term] = []
    # items: a term to substitute into; (term,), a term kept as it is; or
    # (node, binder, n), rebuild node under binder from the last n of done
    stack: list = [t]
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is tuple:
            if len(t) == 1:
                done.append(t[0])
                continue
            node, binder, n = t
            new = tuple(done[-n:])
            del done[-n:]
            if binder is not None and binder != node.binder:
                done.append(Lam(binder, *new) if type(node) is Lam else Let(binder, *new))
            elif all(map(is_, new, children(node))):
                done.append(node)
            else:
                done.append(with_children(node, new))
            continue
        if tt is Var:
            done.append(repl if t.name == var else t)
            continue
        kids = children(t)
        binder = None
        if tt is Lam or tt is Let:
            binder, body = t.binder, t.body
            if binder == var:
                # var is bound here: a let substitutes into its subject only
                if tt is Lam:
                    done.append(t)
                else:
                    stack += [(t, binder, 2), (body,), t.subject]
                continue
            if binder in repl_fv:
                body_fv = free_vars(body)
                if var in body_fv:
                    binder = fresh_name(binder, repl_fv | body_fv | {var})
                    body = yield (body, t.binder, Var(binder))
            kids = kids[:-1] + (body,)
        elif not kids:
            done.append(t)
            continue
        stack.append((t, binder, len(kids)))
        stack += reversed(kids)
    return done[0]


# ---------------------------------------------------------------------------
# printing and canonical forms


def _params_str(params: tuple[Param, ...]) -> str:
    return " ".join(map(str, params)) if params else ""


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
    Bruijn indices #k (the innermost binding wins), free vars by name, with
    a leading # doubled so that a free #0 cannot read as a bound one.  Equal
    keys mean alpha-equal terms.  Iterative: one explicit stack of pending
    subterms and tokens, joined once, so a deep term costs no Python stack.
    Each node's text carries its own leading space (" (eff a ()", " x",
    " #0"), so no separator is pushed between siblings, and the root's
    space is cut off the joined string.  depth counts the binders in scope
    and scopes lists, per name, the depths at which they bind it, so a
    bound variable's index is read off its innermost binder's depth.  A
    binder's scope opens when its body is reached and is closed by a token
    popped after the body: a string is literal text, and a tuple (name,
    opening) a scope's edge."""
    out: list[str] = []
    depth = 0
    scopes: dict[str, list[int]] = {}
    stack: list = [t]
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is str:
            out.append(t)
        elif tt is SymApp:
            params = t.params
            if params:
                out.append(f" ({t.kind} {t.name} ({_params_str(params)})")
            else:
                out.append(f" ({t.kind} {t.name} ()")
            args = t.args
            if len(args) == 1:
                stack += (")", args[0])
            else:
                stack.append(")")
                stack += reversed(args)
        elif tt is Var:
            name = t.name
            levels = scopes.get(name)
            if levels:
                out.append(f" #{depth - 1 - levels[-1]}")
            else:
                out.append(" #" + name if name[:1] == "#" else " " + name)
        elif tt is Pure:
            out.append(" (pure")
            stack += (")", t.body)
        elif tt is tuple:
            name, opening = t
            if opening:
                scopes.setdefault(name, []).append(depth)
                depth += 1
            else:
                scopes[name].pop()
                depth -= 1
        elif tt is Let:
            out.append(" (let")
            binder = t.binder
            stack += (")", (binder, False), t.body, (binder, True), t.subject)
        elif tt is Lam:
            out.append(" (lam")
            stack += (")", (t.binder, False), t.body)
            scopes.setdefault(t.binder, []).append(depth)
            depth += 1
        elif tt is App:
            out.append(" (app")
            stack += (")", t.arg, t.fun)
        else:
            raise TermError(f"not a term: {t!r}")
    return "".join(out)[1:]


def alpha_eq(a: Term, b: Term) -> bool:
    return canonical_key(a) == canonical_key(b)


def sym_str(t: Term) -> str:
    """Compact mathematical rendering for symbolic terms, used in reports:
    or(or(s1,s2),s3), assign_1(x), pure(pair(v,w)).  Iterative, like
    print_term, which renders any other node."""
    out: list[str] = []
    stack: list = [t]
    push = stack.append
    while stack:
        t = stack.pop()
        tt = type(t)
        if tt is tuple:
            out.append(t[0])
        elif tt is Var:
            out.append(t.name)
        elif tt is SymApp:
            out.append(ident_str(t.identity) + "(")
            push(_CLOSE)
            for i in range(len(t.args) - 1, -1, -1):
                push(t.args[i])
                if i:
                    push(_COMMA)
        elif tt is Pure:
            out.append("pure(")
            push(_CLOSE)
            push(t.body)
        else:
            out.append(print_term(t))
    return "".join(out)
