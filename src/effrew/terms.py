"""Term and type syntax for the monadic effect metalanguage.

Terms are immutable trees. Binders carry names; alpha-equivalence and
hashing go through a canonical de Bruijn rendering so that two terms that
differ only in bound names are interchangeable wherever it matters
(reduction graph nodes, nonlinear pattern matching).

Terms and types can be far deeper than the interpreter recursion limit,
so no walk here calls itself.  Most keep their pending work on one
explicit stack.  A walk that is clearer as a recursion is written as a
step, a generator that yields where it would call itself, and runs on
_run_steps, which keeps the generators on one list: the term and type
builders of parser, and type inference in typecheck.  The printers,
print_term, type_str, sym_str and repr, are each a parts function that
sexpr._render, the package's one printer loop, runs.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Iterator, Union

from .sexpr import _render

Param = Union[int, str]
Position = tuple[int, ...]


class TermError(Exception):
    pass


# ---------------------------------------------------------------------------
# printing types, and the step runner


def _type_parts(ty: Type) -> tuple:
    tt = type(ty)
    if tt is Base:
        return (ty.name,)
    if tt is Arrow:
        return (")", (ty.cod,), " ", (ty.dom,), "(-> ")
    if tt is Eff:
        return (")", (ty.inner,), "(E ")
    if tt is TVar:
        # 0 -> 'a, 25 -> 'z, 26 -> 'a1, ...
        suffix = ty.index // 26
        return ("'" + chr(ord("a") + ty.index % 26) + (str(suffix) if suffix else ""),)
    raise TermError(f"not a type: {ty!r}")


def type_str(ty: Type) -> str:
    """Surface syntax of a type, as parse_type reads it."""
    return _render(ty, _type_parts)


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
    """Base of the four type and six term classes and of rpo's
    RpoDerivation: immutable __slots__ nodes.  Assigning or deleting any
    name raises FrozenInstanceError, an AttributeError.  Equality is
    structural.  A node caches two values, each computed on first use: its
    hash, and its free variables, which free_vars fills.  Equality, the
    hash, the free variables and the reduction that pickle and deepcopy use
    walk an explicit stack, and repr is rendered by sexpr._render, so a
    deep node costs no Python stack.  The hash, the free variables and
    the reduction handle each distinct part once, and equality each
    distinct pair of parts; repr spells a shared part out wherever it
    occurs.  The reduction carries neither cache, so a copy starts without
    them.  Each class lists its
    fields in __slots__, in constructor order; children and _scalars split
    them into child nodes and the rest."""

    __slots__ = ("_hash", "_fv")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

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
        # an explicit stack of pairs, so a deep node costs no Python stack;
        # each pair met is recorded by id and skipped when met again, so
        # nodes that share parts cost one visit per pair of distinct parts
        pairs = [(self, other)]
        seen = set()
        while pairs:
            a, b = pairs.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if type(a) is not type(b) or _scalars(a) != _scalars(b):
                return False
            ka, kb = children(a), children(b)
            if len(ka) != len(kb):
                return False
            pairs += zip(ka, kb)
        return True

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
        return _render(self, _repr_parts)


def _repr_parts(t) -> list:
    if not isinstance(t, _Node):
        return [repr(t)]
    pieces: list = [type(t).__name__ + "("]
    for f in t.__slots__:
        value = getattr(t, f)
        if (f == "args" or f == "children") and value:
            pieces.append(f"{f}=(")
            for a in value:
                pieces += ((a,), ", ")
            pieces[-1] = ",)" if len(value) == 1 else ")"
        else:
            pieces += (f"{f}=", (value,) if isinstance(value, _Node) else repr(value))
        pieces.append(", ")
    # the last field's separator closes the node
    pieces[-1] = ")"
    pieces.reverse()
    return pieces


_set_hash, _set_fv = _Node._hash.__set__, _Node._fv.__set__


@dataclass(eq=False, repr=False, slots=True, init=False)
class Base(_Node):
    name: str

    def __init__(self, name: str) -> None:
        _base_name(self, name)


@dataclass(eq=False, repr=False, slots=True, init=False)
class Eff(_Node):
    inner: "Type"

    def __init__(self, inner: "Type") -> None:
        _eff_inner(self, inner)


@dataclass(eq=False, repr=False, slots=True, init=False)
class Arrow(_Node):
    dom: "Type"
    cod: "Type"

    def __init__(self, dom: "Type", cod: "Type") -> None:
        _arrow_dom(self, dom)
        _arrow_cod(self, cod)


@dataclass(eq=False, repr=False, slots=True, init=False)
class TVar(_Node):
    """Inference variable; only shows up in inferred types, never in signatures."""

    index: int

    def __init__(self, index: int) -> None:
        _tvar_index(self, index)


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


# the classes whose constructor takes their scalars, then their children;
# SymApp takes its arguments as one tuple
_TERMS_AND_TYPES = frozenset({Var, Lam, App, Pure, Let, SymApp, Base, Eff, Arrow, TVar})

# the slots' own setters, which the constructors call past __setattr__
_base_name, _eff_inner, _tvar_index = Base.name.__set__, Eff.inner.__set__, TVar.index.__set__
_arrow_dom, _arrow_cod = Arrow.dom.__set__, Arrow.cod.__set__
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
        if cls is SymApp:
            built.append(cls(*scalars, kids))
        elif cls in _TERMS_AND_TYPES:
            built.append(cls(*scalars, *kids))
        else:
            # a derivation takes its sides, its scalars, then its sub-derivations
            built.append(cls(kids[0], kids[1], *scalars, kids[2:]))
    return built


def _from_table(table: tuple) -> _Node:
    """The node that _Node.__reduce__ listed as table, root last."""
    return _built(table)[-1]


def _scalars(t: _Node) -> tuple:
    """The fields of t that are not among its children."""
    tt = type(t)
    if tt is SymApp:
        return (t.kind, t.name, t.params)
    if tt is Var or tt is Base:
        return (t.name,)
    if tt is Lam or tt is Let:
        return (t.binder,)
    if tt is TVar:
        return (t.index,)
    if tt in _TERMS_AND_TYPES:
        return ()
    # the derivation, after the terms and types; children refuses the rest
    return (t.rule, t.index) if isinstance(t, _Node) else ()


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
    # rpo's RpoDerivation, the one other node, after the terms and types
    if isinstance(t, _Node):
        return (t.lhs, t.rhs, *t.children)
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
    """The variables with a free occurrence in t, cached on each node as
    its hash is.  A miss fills every node below t that has no set yet, in
    postorder on an explicit stack, so a term that shares subterms costs
    one step per distinct node.  A node takes its child's set itself where
    nothing changes: a node whose children's sets all lie in one of them,
    such as a node with one child, and a binder not free in its body."""
    try:
        return t._fv
    except AttributeError:
        pass
    stack = [t]
    while stack:
        node = stack[-1]
        kids = children(node)
        todo = [k for k in kids if not hasattr(k, "_fv")]
        if todo:
            stack += todo
            continue
        stack.pop()
        tt = type(node)
        sets = [frozenset((node.name,))] if tt is Var else [k._fv for k in kids]
        if (tt is Lam or tt is Let) and node.binder in sets[-1]:
            sets[-1] = sets[-1] - {node.binder}
        fv = _NO_VARS
        for s in sets:
            if not s <= fv:
                fv = s if fv <= s else fv | s
        _set_fv(node, fv)
    return t._fv


_NO_VARS: frozenset[str] = frozenset()


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    if base not in avoid:
        return base
    n = 1
    while f"{base}{n}" in avoid:
        n += 1
    return f"{base}{n}"


def substitute(t: Term, var: str, repl: Term) -> Term:
    """Capture-avoiding substitution of repl for the free occurrences of
    var, in one pass over t on an explicit stack (Stoughton, "Substitution
    revisited", 1988).  The pass carries a map from names to terms, at
    first {var: repl}; an entry is live in a body where its name is free.
    A binder that would capture a free variable of a live entry is
    renamed, and the map under it sends the old name to the new one, so
    its body is walked once.  The new name is fresh_name of the binder,
    avoiding the body's free variables and the names and free variables of
    the live entries.  Renames made one at a time, each by a substitution
    of its own, can name a binder otherwise where they rename it twice or
    give it the old name of a renamed binder above it; the results are
    alpha-equal.

    A subterm in which no name of the map is free, as its cached free
    variables tell, comes back as the same object without a walk, and a
    subterm met again under the same map is done once, so a term that
    shares subterms costs a step per distinct node that the map reaches."""
    done: list[Term] = []
    # items: (term, map, memo), substitute map into term, where memo holds
    # by id the results already taken under map; or (node, binder, memo),
    # rebuild node, under binder if it has one, from the last of done
    stack: list = [(t, {var: repl}, {})]
    while stack:
        t, sub, memo = stack.pop()
        if type(sub) is not dict:
            # a rebuild mark, whose sub is the binder
            n = len(children(t))
            new = tuple(done[-n:])
            del done[-n:]
            done.append(with_children(t, new) if sub is None else type(t)(sub, *new))
            memo[id(t)] = done[-1]
        elif id(t) in memo:
            done.append(memo[id(t)])
        elif sub.keys().isdisjoint(free_vars(t)):
            done.append(t)
        elif type(t) is Var:
            done.append(sub[t.name])
        elif type(t) is Lam or type(t) is Let:
            binder, body = t.binder, t.body
            body_fv = free_vars(body)
            live = [k for k in sub if k in body_fv and k != binder]
            live_fv = [free_vars(sub[k]) for k in live]
            captured = any(binder in s for s in live_fv)
            inner, inner_memo = sub, memo
            if captured or binder in sub:
                inner, inner_memo = {k: sub[k] for k in live}, {}
            if captured:
                renamed = fresh_name(binder, body_fv.union(live, *live_fv))
                inner[binder] = Var(renamed)
                binder = renamed
            stack += ((t, binder, memo), (body, inner, inner_memo))
            if type(t) is Let:
                stack.append((t.subject, sub, memo))
        else:
            stack.append((t, None, memo))
            stack += [(k, sub, memo) for k in reversed(children(t))]
    return done[0]


# ---------------------------------------------------------------------------
# printing and canonical forms


def _params_str(params: tuple[Param, ...]) -> str:
    return " ".join(map(str, params)) if params else ""


def _term_parts(t: Term) -> tuple | list:
    # dispatch on the exact class, since terms are never subclassed
    tt = type(t)
    if tt is SymApp:
        args = t.args
        if t.kind == "fn":
            head = f"(fn {t.name} "
        else:
            head = f"(eff {t.name} ({_params_str(t.params)}) "
        if len(args) == 1:
            # args is the 1-tuple that boxes the one argument
            return (")", args, head)
        pieces: list = [")"]
        for a in reversed(args):
            pieces += ((a,), " ")
        # the first argument's separator ends the head
        pieces[-1] = head if args else head[:-1] + ")"
        return pieces
    if tt is Var:
        return (t.name,)
    if tt is Lam:
        return (")", (t.body,), f"(lam {t.binder} ")
    if tt is App:
        return (")", (t.arg,), " ", (t.fun,), "(app ")
    if tt is Pure:
        return (")", (t.body,), "(pure ")
    if tt is Let:
        return (")", (t.body,), " ", (t.subject,), f"(let {t.binder} ")
    raise TermError(f"not a term: {t!r}")


def print_term(t: Term) -> str:
    """Canonical single-space surface syntax; parse_term round-trips it."""
    return _render(t, _term_parts)


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
    # its own loop, not _render's: it carries binder scopes, and it is the
    # hot loop of reduction graphs
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


def _sym_parts(t: Term) -> tuple | list:
    tt = type(t)
    if tt is SymApp:
        args = t.args
        head = ident_str(t.identity) + "("
        if len(args) == 1:
            return (")", args, head)
        pieces: list = [")"]
        for a in reversed(args):
            pieces += ((a,), ", ")
        # the first argument's separator opens the list
        pieces[-1] = head if args else head + ")"
        return pieces
    if tt is Var:
        return (t.name,)
    if tt is Pure:
        return (")", (t.body,), "pure(")
    return (print_term(t),)


def sym_str(t: Term) -> str:
    """Compact mathematical rendering for symbolic terms, used in reports:
    or(or(s1,s2),s3), assign_1(x), pure(pair(v,w)).  Any other node is
    rendered by print_term."""
    return _render(t, _sym_parts)
