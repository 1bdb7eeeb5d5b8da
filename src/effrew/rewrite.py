"""The rewrite engine: metalanguage rules, user rules, strategies.

Four built-in metalanguage rules operate on the monadic structure:

    abs-beta   (app (lam x u) t)         ~> u{t/x}
    let-beta   (let x (pure t) u)        ~> u{t/x}
    let-assoc  (let y (let x t1 t2) u)   ~> (let x t1 (let y t2 u))
               requires x not free in u; discharged by renaming x
    eff-assoc  (let x e(t1..tn) u)       ~> e(t1'..tn'), ti' = (let x ti u)
               only when the subject head is an effect symbol

User rules live in the binder-free symbolic fragment (variables and
symbol applications).  Rules flagged extended may additionally use pure
on the right-hand side; their variables that occur under a pure there
are value metavariables and match only pure-wrapped subterms or plain
variables.

All rules apply at any position (compatible closure): under binders, in
let subjects, inside effect arguments.

Redexes are listed by one explicit-stack preorder walk, _list_redexes,
which every caller shares.  It reads each node by its class: it tries the
metalanguage rules at a let or an application and, at a symbol
application, the user rules rooted at its head (see head_index) that its
shape admits: its arity and the names of its first two arguments, whose
candidates a memo per head keeps (see _Head).  A run of one-argument
symbol applications whose heads start no rule, such as a numeral's succ
nodes, is walked down in one loop.  Each candidate, whatever its left
side, is decided alone by its rule's matcher, which hands back the
match's bindings, so retrieval is exact.  match_pattern, the recursive
matcher, is the public reference those matchers agree with; the engine
does not call it.  Each entry of a listing holds what builds its
contractum (the bindings, or the metalanguage rule's thunk), so no redex
is matched twice.  A rule is compiled on first use to straight-line
Python, generated from its sides and run by exec (see _compile_rule): a
matcher with one check per left-side node, and a contraction that builds
the contractum with one statement per right-side node and can list its
redexes too.  Subterms found to have no redex are remembered by identity
for the walk's caller.  all_redexes and its two filters wrap the entries
into Redex objects; reduction_graph builds each reduct straight from them.

normalize lists the start term once and then keeps that listing up to
date: a contraction at p replaces the entries under p with those of the
contractum, and rechecks only the ancestors of p whose head's rules read
deep enough to see p (see normalize); the others keep their entries, and
are rebuilt only when the zipper next climbs past them.  The redex-free
record lasts for the call, so listing a contractum skips the parts it
shares with the old term.  A user rule's contractum is not walked: the
rule's compiled contraction lists its entries off the right side, as it
builds it, matching only the right-side nodes whose head starts a rule
and walking only the bindings the record does not hold.  The current
term is held as a zipper, and every position as a cell linked to its
parent's, so a step pays for the path it walks and not for its depth; a
position becomes a tuple only where one is read (a Redex, a trace step,
a graph edge).  An entry whose subterm was rebuilt since it was listed
holds bindings that point into the old subterm, so the lookup that
listed it is run again on the new one.  The trace holds per step only
what normalize recorded; its terms and its redexes are built when read.
What the engine reads off a rule is derived when the rule is built (see
RewriteRule).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from random import Random
from types import CodeType
from typing import Callable, Iterable

from .terms import (
    App,
    Identity,
    Lam,
    Let,
    Position,
    Pure,
    SymApp,
    Term,
    Var,
    alpha_eq,
    children,
    free_vars,
    fresh_name,
    print_term,
    replace_at,
    substitute,
)

ML_RULES = ("abs-beta", "let-beta", "let-assoc", "eff-assoc")

STRATEGIES = ("leftmost-outermost", "rightmost-innermost", "random")


class RuleError(Exception):
    pass


class StaleRedexError(Exception):
    pass


class FuelExhausted(Exception):
    """Raised when normalize runs out of steps; carries the partial result."""

    def __init__(self, term: Term, trace: "Trace"):
        super().__init__(f"fuel exhausted after {len(trace.steps)} steps")
        self.term = term
        self.trace = trace


# ---------------------------------------------------------------------------
# rules


@dataclass(frozen=True)
class RewriteRule:
    """A user rule, which checks its own shape when it is built: both sides
    lie in the symbolic fragment (the right side may also use pure when the
    rule is extended), the left side is not a bare variable, and the right
    side invents no variables.  Raises RuleError otherwise.

    The check, one explicit-stack pass per side, also derives the fields
    the engine reads; of these only value_vars takes part in ==, hash and
    repr.  value_vars: an extended rule's right-side variables under a pure.
    reach: how many levels of a subterm, its root at level 1, can decide
    whether the rule applies: the deepest level holding a symbol or a value
    metavariable, or infinite if a variable repeats, since the matcher then
    compares whole subterms.  identities: the symbol identities of both
    sides.

    _matcher and _contract, the rule's sides compiled together to Python
    code (_compiled, see _compile_rule), which match a subject and build
    and list a contractum, and _index_keys, the left side's arity and the
    names of its first two arguments, None where one is a variable (see
    _Head), are built on first use and kept.  Copying and pickling rebuild
    the rule from its constructor's arguments, so a copy compiles its
    own."""

    name: str
    lhs: Term
    rhs: Term
    extended: bool = False
    value_vars: frozenset[str] = field(init=False)
    reach: float = field(init=False, compare=False, repr=False)
    identities: frozenset[Identity] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        name, lhs, rhs, extended = self.name, self.lhs, self.rhs, self.extended
        if type(lhs) is Var:
            raise RuleError(f"rule {name}: left side is a bare variable")
        occurrences = 0
        # variable name -> level, in preorder of first occurrence
        levels: dict[str, int] = {}
        ids: set[Identity] = set()
        reach = 1
        stack: list = [(lhs, 1)]
        while stack:
            t, level = stack.pop()
            if type(t) is SymApp:
                ids.add((t.name, t.params))
                reach = max(reach, level)
                stack += [(a, level + 1) for a in reversed(t.args)]
            elif type(t) is Var:
                occurrences += 1
                levels.setdefault(t.name, level)
            else:
                raise RuleError(f"rule {name}: left side leaves the symbolic fragment")
        missing: set[str] = set()
        under_pure: set[str] = set()
        stack = [(rhs, False)]
        while stack:
            t, inside = stack.pop()
            if type(t) is SymApp:
                ids.add((t.name, t.params))
                stack += [(a, inside) for a in t.args]
            elif type(t) is Var:
                if t.name not in levels:
                    missing.add(t.name)
                if inside:
                    under_pure.add(t.name)
            elif extended and type(t) is Pure:
                stack.append((t.body, True))
            else:
                raise RuleError(
                    f"rule {name}: right side leaves the symbolic fragment"
                    + ("" if extended else " (pure needs the extended flag)")
                )
        if missing:
            raise RuleError(f"rule {name}: right side invents variables: {', '.join(sorted(missing))}")
        linear = occurrences == len(levels)
        setattr_ = object.__setattr__
        setattr_(self, "value_vars", frozenset(under_pure))
        setattr_(self, "reach", max([reach, *(levels[v] for v in under_pure)]) if linear else math.inf)
        setattr_(self, "identities", frozenset(ids))

    def __reduce__(self):
        return (RewriteRule, (self.name, self.lhs, self.rhs, self.extended))

    @cached_property
    def _compiled(self) -> tuple[Callable, Callable]:
        return _compile_rule(self)

    @cached_property
    def _matcher(self) -> Callable[[SymApp], dict[str, Term] | None]:
        return self._compiled[0]

    @cached_property
    def _contract(self) -> Callable[..., Term]:
        return self._compiled[1]

    @cached_property
    def _index_keys(self) -> tuple:
        args = self.lhs.args
        return len(args), _arg_key(args, 0), _arg_key(args, 1)


# the variables of a symbolic pattern, which has no binders
pattern_vars = free_vars


def make_rule(name: str, lhs: Term, rhs: Term, extended: bool = False) -> RewriteRule:
    """Build a rule; it checks its own shape (see RewriteRule)."""
    return RewriteRule(name, lhs, rhs, extended)


# ---------------------------------------------------------------------------
# matching


def match_pattern(
    pattern: Term,
    subject: Term,
    value_vars: frozenset[str] = frozenset(),
    bindings: dict[str, Term] | None = None,
) -> dict[str, Term] | None:
    """First-order match of a symbolic pattern against a subject subterm.

    Pattern variables bind arbitrary subject terms (binders included); a
    repeated variable must see alpha-equal subterms.  Value metavariables
    bind the payload of a pure-wrapped subject, or a plain variable, and
    match nothing else.
    """
    out = {} if bindings is None else bindings
    if isinstance(pattern, Var):
        name = pattern.name
        if name in value_vars:
            if isinstance(subject, Pure):
                bound = subject.body
            elif isinstance(subject, Var):
                bound = subject
            else:
                return None
        else:
            bound = subject
        if name in out:
            return out if alpha_eq(out[name], bound) else None
        out[name] = bound
        return out
    if isinstance(pattern, SymApp):
        if not isinstance(subject, SymApp):
            return None
        if pattern.identity != subject.identity or pattern.kind != subject.kind:
            return None
        if len(pattern.args) != len(subject.args):
            return None
        for p, s in zip(pattern.args, subject.args):
            if match_pattern(p, s, value_vars, out) is None:
                return None
        return out
    raise RuleError(f"pattern leaves the symbolic fragment: {print_term(pattern)}")


def _compile_rule(rule: RewriteRule) -> tuple[Callable, Callable]:
    """The rule compiled to straight-line Python: its two functions,
    _matcher and _contract (see _code), run by exec in a namespace that
    binds the rule's constants as C0, C1, ....  One explicit-stack pass
    over each side, in preorder, collects the constants and the side's
    shape, which is all the generated text depends on.

    Per node, the shape holds a symbol application's arity, a left-side
    variable's pair (whether it is a value metavariable, the index of its
    first occurrence if it repeats), "v" at a right-side variable and "p"
    at a pure.  The constants are, on the left, a symbol's name, kind and
    parameters, except at the root, and a variable's name at its first
    occurrence; on the right, a symbol's kind, name, parameters and head
    key, or a nullary symbol itself and its head key, and a variable's
    name."""
    consts: list = []
    lhs: list = []
    first: dict[str, int] = {}
    value_vars = rule.value_vars
    stack: list = [rule.lhs]
    while stack:
        p = stack.pop()
        if type(p) is Var:
            name = p.name
            seen = first.get(name)
            if seen is None:
                first[name] = len(lhs)
                consts.append(name)
            lhs.append((name in value_vars, seen))
            continue
        if lhs:
            consts += (p.name, p.kind, p.params)
        lhs.append(len(p.args))
        stack += reversed(p.args)
    rhs: list = []
    stack = [rule.rhs]
    while stack:
        t = stack.pop()
        if type(t) is Var:
            consts.append(t.name)
            rhs.append("v")
        elif type(t) is Pure:
            rhs.append("p")
            stack.append(t.body)
        elif t.args:
            consts += (t.kind, t.name, t.params, (t.kind, t.name, t.params))
            rhs.append(len(t.args))
            stack += reversed(t.args)
        else:
            consts += (t, (t.kind, t.name, t.params))
            rhs.append(0)
    code, names = _code((tuple(lhs), tuple(rhs)))
    namespace = dict(zip(names, consts))
    namespace.update(SymApp=SymApp, Pure=Pure, Var=Var, alpha_eq=alpha_eq, rewrite=sys.modules[__name__])
    exec(code, namespace)
    return namespace["_matcher"], namespace["_contract"]


def _tree(shape: tuple, arities: Callable) -> list[list[int]]:
    """The children of each node of a side's preorder shape, by preorder
    index; arities gives a node's number of children from its entry."""
    kids: list[list[int]] = [[] for _ in shape]
    open_: list[int] = []
    for k, entry in enumerate(shape):
        if open_:
            up = open_[-1]
            kids[up].append(k)
            if len(kids[up]) == arities(shape[up]):
                open_.pop()
        if arities(entry):
            open_.append(k)
    return kids


@lru_cache(maxsize=256)
def _code(shape: tuple) -> tuple[CodeType, tuple[str, ...]]:
    """The code object that a rule's shape (see _compile_rule) compiles
    to, and the names of the constants it reads, in the order the shape's
    pass collects them.  Rules of one shape share the code and run it over
    their own constants.

    The text has no loop and no nested scope, one statement or two per
    node of a side, and holds only generated identifiers and integers, so
    no name of a rule's reaches the compiler, and compiling costs time
    linear in the size of the rule.  Node k of a side is the local s{k} in
    the matcher and t{k} in the contraction, and its cell c{k}.

    _matcher(s0) takes a subject with the left side's head and arity and
    gives the match's bindings, or None, as match_pattern gives them.  It
    decides the match alone, trusting nothing else about the subject.  In
    preorder, it checks the kind, name, parameters and arity of each symbol
    application below the root and unpacks its arguments, so that each
    node's parent is checked first.  Then come the guarded reads, in
    preorder: every occurrence of a value metavariable, which binds the
    payload of a pure, or a plain variable, and fails on anything else, and
    every later occurrence of a repeated variable, which must read a
    subterm alpha-equal to the first.  A linear left side with no value
    metavariable has none.  The bindings come back as one dict, the plain
    variables in preorder of first occurrence, then the value
    metavariables.

    _contract(b, at, index, clean, out) builds the contractum from the
    bindings b, children before parents, a variable read from b and a
    nullary symbol shared.  Right sides are binder-free, so this cannot
    capture.  Given a listing out, it then appends what
    _list_redexes(contractum, at, index, clean, out) would, read off the
    right side instead of walked, in preorder: it gives each node its cell
    once, at `at` for the root, and matches a node only if its head starts
    a rule, since no metalanguage rule applies at a symbol application or
    a pure.  A variable's binding is walked, through the module's
    _list_redexes, only if clean does not hold it.  The right side's own
    nodes are not added to clean; a later walk that meets one adds it."""
    lhs, rhs = shape
    names: list[str] = []

    def const() -> str:
        names.append(f"C{len(names)}")
        return names[-1]

    lines = ["def _matcher(s0):"]
    guarded: list[str] = []
    reads: list[str] = []
    value_reads: list[str] = []
    kids = _tree(lhs, lambda entry: entry if type(entry) is int else 0)
    for k, entry in enumerate(lhs):
        s = f"s{k}"
        if type(entry) is int:
            if k:
                lines.append(
                    f"    if type({s}) is not SymApp or {s}.name != {const()} or {s}.kind != {const()}"
                    f" or {s}.params != {const()} or len({s}.args) != {entry}: return None"
                )
            if entry:
                lines.append(f"    {''.join(f's{j}, ' for j in kids[k])}= {s}.args")
            continue
        value, seen = entry
        if value:
            guarded.append(f"    if type({s}) is Pure: {s} = {s}.body")
            guarded.append(f"    elif type({s}) is not Var: return None")
        if seen is None:
            (value_reads if value else reads).append(f"{const()}: {s}")
        else:
            guarded.append(f"    if {s} is not s{seen} and not alpha_eq(s{seen}, {s}): return None")
    lines += guarded
    lines.append(f"    return {{{', '.join(reads + value_reads)}}}")

    kids = _tree(rhs, lambda entry: 1 if entry == "p" else 0 if entry == "v" else entry)
    # each node's constants, as the pass collected them, and its parent,
    # child index and level
    consts: list[list[str]] = []
    where = [(-1, 0, 0)] * len(rhs)
    for k, entry in enumerate(rhs):
        consts.append([const() for _ in range(1 if entry == "v" else 0 if entry == "p" else 4 if entry else 2)])
        for i, j in enumerate(kids[k]):
            where[j] = (k, i, where[k][2] + 1)
    lines.append("def _contract(b, at=None, index=None, clean=None, out=None):")
    for k in range(len(rhs) - 1, -1, -1):
        entry, c = rhs[k], consts[k]
        if entry == "v":
            lines.append(f"    t{k} = b[{c[0]}]")
        elif entry == "p":
            lines.append(f"    t{k} = Pure(t{kids[k][0]})")
        elif entry:
            args = "".join(f"t{j}, " for j in kids[k])
            lines.append(f"    t{k} = SymApp({c[0]}, {c[1]}, {c[2]}, ({args}))")
        else:
            lines.append(f"    t{k} = {c[0]}")
    lines.append("    if out is not None:")
    if len(rhs) > 1:
        lines.append("        d = at[2]")
    if any(entry not in ("v", "p") for entry in rhs):
        lines.append("        get = index.get")
    for k, entry in enumerate(rhs):
        parent, i, level = where[k]
        up = "at" if parent == 0 else f"c{parent}"
        cell = "at" if k == 0 else f"({up}, {i}, d + {level})"
        if entry == "v":
            lines.append(f"        if id(t{k}) not in clean: rewrite._list_redexes(t{k}, {cell}, index, clean, out)")
            continue
        if k:
            lines.append(f"        c{k} = {cell}")
            cell = f"c{k}"
        if entry != "p":
            lines.append(f"        h = get({consts[k][-1]})")
            lines.append(f"        if h is not None: h.matches(t{k}, {cell}, out)")
    lines.append("    return t0")
    return compile("\n".join(lines) + "\n", "<effrew rule>", "exec"), tuple(names)


# ---------------------------------------------------------------------------
# redexes


@dataclass(frozen=True, eq=False)
class Redex:
    """Rule `rule_name` applied at `position` of `source`.

    The reduct (source with the contractum spliced in at position) is
    built on first access and then cached, so a scan that lists many
    redexes pays only for the ones that are used.  The source is read
    through `get_source`: a scan hands every redex the term it walked,
    and a normalize trace builds its terms only when they are read.
    Equality and hashing go through position, rule name and reduct.
    """

    position: Position
    rule_name: str
    get_source: Callable[[], Term] = field(repr=False)
    contract: Callable[[], Term] = field(repr=False)
    ml: bool = False
    rule_index: int = 0

    @property
    def source(self) -> Term:
        return self.get_source()

    @cached_property
    def reduct(self) -> Term:
        return replace_at(self.source, self.position, self.contract())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Redex):
            return NotImplemented
        return (self.position, self.rule_name, self.reduct) == (other.position, other.rule_name, other.reduct)

    def __hash__(self) -> int:
        return hash((self.position, self.rule_name, self.reduct))


def _let_assoc(t: Let) -> Let:
    """let-assoc contractum of t; renames the inner binder when it is free
    in the outer body."""
    subj = t.subject
    inner_binder, t1, t2 = subj.binder, subj.subject, subj.body
    body_fv = free_vars(t.body)
    if inner_binder in body_fv:
        renamed = fresh_name(inner_binder, body_fv | free_vars(t2) | free_vars(t1) | {t.binder})
        t2 = substitute(t2, inner_binder, Var(renamed))
        inner_binder = renamed
    return Let(inner_binder, t1, Let(t.binder, t2, t.body))


def _ml_contraction(t: Term) -> tuple[str, Callable[[], Term]] | None:
    """The metalanguage rule rooted at t, if any, with a thunk that builds
    its contractum.  At most one of the four rules can apply at a node."""
    if isinstance(t, App) and isinstance(t.fun, Lam):
        return "abs-beta", lambda: substitute(t.fun.body, t.fun.binder, t.arg)
    if isinstance(t, Let):
        subj = t.subject
        if isinstance(subj, Pure):
            return "let-beta", lambda: substitute(t.body, t.binder, subj.body)
        if isinstance(subj, Let):
            return "let-assoc", lambda: _let_assoc(t)
        if isinstance(subj, SymApp) and subj.kind == "eff":
            return "eff-assoc", lambda: SymApp(
                "eff", subj.name, subj.params, tuple(Let(t.binder, ti, t.body) for ti in subj.args)
            )
    return None


class _Head:
    """The user rules whose left sides share one head (kind and identity),
    each with its position in the rule list, the largest reach among them
    (see RewriteRule), and a memo from a subject's shape to the rules that
    shape admits.

    A shape is the subject's arity and the names of its first two
    arguments, None where an argument is not a symbol application.  A rule
    admits it if its left side has that arity and each of its first two
    arguments is a variable or a symbol of that name (see _index_keys), so
    the pair par-left/par-right, which name one argument each, leaves one
    candidate of each.  The list for a shape is filtered from the rules, in
    rule order, when the shape is first looked up, so a normalize or graph
    run pays only for the shapes its terms reach.  The filter only prunes:
    each candidate's compiled matcher decides it alone (see _code), so
    retrieval is exact."""

    __slots__ = ("rules", "reach", "_shapes")

    def __init__(self):
        self.rules: list[tuple[int, RewriteRule]] = []
        self.reach: float = 0
        self._shapes: dict[tuple, list] = {}

    def matches(self, sub: SymApp, cell: Cell, out: list) -> None:
        """Append the listing entry (cell, rule index, rule name, rule, sub,
        bindings) to out for every rule of this head that matches sub, the
        subterm at cell, in rule order."""
        args = sub.args
        n = len(args)
        first = args[0].name if n and type(args[0]) is SymApp else None
        second = args[1].name if n > 1 and type(args[1]) is SymApp else None
        shape = (n, first, second)
        candidates = self._shapes.get(shape)
        if candidates is None:
            # a variable in the left side admits any argument
            n, first, second = shape
            admitted = {shape, (n, None, second), (n, first, None), (n, None, None)}
            candidates = self._shapes[shape] = [
                (idx, rule.name, rule, rule._matcher) for idx, rule in self.rules if rule._index_keys in admitted
            ]
        for idx, name, rule, matcher in candidates:
            bindings = matcher(sub)
            if bindings is not None:
                out.append((cell, idx, name, rule, sub, bindings))


def _arg_key(args: tuple, i: int) -> str | None:
    """What a head's memo compares of args[i]: its name if it is a symbol
    application, else None."""
    return args[i].name if len(args) > i and type(args[i]) is SymApp else None


HeadIndex = dict[tuple[str, str, tuple], _Head]

# how many levels the metalanguage rules read, at a let or an application
ML_REACH = 2


def head_index(rules: Iterable[RewriteRule]) -> HeadIndex:
    """The user rules grouped by the kind, name and parameters of their
    left side's root, each head with the largest reach of its rules (see
    _Head).  A rule's left side is always a symbol application, so a
    subject node whose head starts no rule costs one dict lookup.

    Retrieval (`_Head.matches`) is exact: it lists every rule that
    matches, with its bindings, and no other, in rule order.  A head's
    reach tells normalize which of a step's ancestors to recheck (see
    normalize)."""
    index: HeadIndex = {}
    for idx, rule in enumerate(rules):
        lhs = rule.lhs
        key = (lhs.kind, lhs.name, lhs.params)
        head = index.get(key)
        if head is None:
            head = index[key] = _Head()
        head.rules.append((idx, rule))
        head.reach = max(head.reach, rule.reach)
    return index


# A position as a cell (parent cell, child index, depth).  The walk makes a
# node's cell from its parent's, so within a normalize run a position has
# one cell however often it is listed, and cells compare by identity.
Cell = tuple
_ROOT: Cell = (None, 0, 0)


def _cell_position(cell: Cell) -> Position:
    """The position that cell holds, as a tuple."""
    out = []
    while cell[0] is not None:
        cell, i, _ = cell
        out.append(i)
    out.reverse()
    return tuple(out)


def _redexes(t: Term, index: HeadIndex) -> list[Redex]:
    """The redex walk's entries for t as Redex objects."""

    def source() -> Term:
        return t

    out: list = []
    _list_redexes(t, _ROOT, index, {}, out)
    return [
        Redex(_cell_position(cell), name, source, partial(_contractum, rule, c), rule is None, idx)
        for cell, idx, name, rule, _, c in out
    ]


def ml_redexes(t: Term) -> list[Redex]:
    """All metalanguage redexes of t, in preorder position order."""
    return _redexes(t, {})


def symbolic_redexes(t: Term, rules: list[RewriteRule]) -> list[Redex]:
    """All user-rule redexes of t, positions in preorder, rules in the
    order given at equal positions."""
    return [r for r in _redexes(t, head_index(rules)) if not r.ml]


def all_redexes(t: Term, rules: list[RewriteRule] = ()) -> list[Redex]:
    """Every redex of t, sorted by position (lexicographic), metalanguage
    rules before user rules at equal positions."""
    return _redexes(t, head_index(rules))


def step(t: Term, redex: Redex) -> Term:
    """Apply a redex previously produced for exactly this term."""
    if redex.source != t:
        raise StaleRedexError(
            f"redex {redex.rule_name} @ {position_str(redex.position)} was not produced for this term"
        )
    return redex.reduct


# ---------------------------------------------------------------------------
# traces and normalisation


def position_str(pos: Position) -> str:
    return "/" + "/".join(str(i) for i in pos) if pos else "/"


class _Replay:
    """The terms of one normalize run, built when they are read.  Term 0
    is the start term and term i + 1 is term i with the contractum of step
    i spliced in at its position; `fired` holds (listing entry, contractum)
    per step.  Reading a term replays the steps from the nearest term
    built before it and keeps every term it builds.  The last term, which
    normalize returns, is there from the start."""

    __slots__ = ("fired", "terms")

    def __init__(self, initial: Term, fired: list, final: Term):
        self.fired = fired
        self.terms: list[Term | None] = [initial] + [None] * len(fired)
        self.terms[-1] = final

    def term(self, i: int) -> Term:
        terms = self.terms
        j = i
        while terms[j] is None:
            j -= 1
        t = terms[j]
        for entry, contractum in self.fired[j:i]:
            j += 1
            t = terms[j] = replace_at(t, _cell_position(entry[0]), contractum)
        return t

    def contractum(self, i: int) -> Term:
        return self.fired[i][1]

    def __reduce__(self):
        # per step its position, rule index, rule name, rule and contractum:
        # no cell, whose parent chain is as deep as the redex, and no thunk
        steps = tuple([(_cell_position(entry[0]), *entry[1:4], contractum) for entry, contractum in self.fired])
        return _load_replay, (self.terms[0], steps, self.terms[-1])


def _load_replay(initial: Term, steps: tuple, final: Term) -> _Replay:
    """The _Replay that _Replay.__reduce__ handed over, its cells rebuilt
    from the positions."""
    fired = []
    for pos, idx, name, rule, contractum in steps:
        cell = _ROOT
        for i in pos:
            cell = (cell, i, cell[2] + 1)
        fired.append(((cell, idx, name, rule, None, None), contractum))
    return _Replay(initial, fired, final)


class TraceStep:
    """One normalize step: the redex contracted and the term it gave.  A
    step holds only the run's _Replay and its own number; its redex is
    built when first read and then kept, and its result, which is also the
    redex's source for the next step, is built when read (see _Replay).
    Equality, hashing and repr go through the redex."""

    __slots__ = ("_replay", "_index", "_redex")

    def __init__(self, replay: _Replay, index: int):
        self._replay = replay
        self._index = index
        self._redex: Redex | None = None

    @property
    def redex(self) -> Redex:
        redex = self._redex
        if redex is None:
            replay, i = self._replay, self._index
            cell, idx, name, rule, _, _ = replay.fired[i][0]
            term, contractum = partial(replay.term, i), partial(replay.contractum, i)
            redex = self._redex = Redex(_cell_position(cell), name, term, contractum, rule is None, idx)
        return redex

    @property
    def result(self) -> Term:
        return self._replay.term(self._index + 1)

    def __reduce__(self):
        return TraceStep, (self._replay, self._index)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.redex == other.redex

    def __hash__(self) -> int:
        return hash((self.redex,))

    def __repr__(self) -> str:
        return f"TraceStep(redex={self.redex!r})"


@dataclass(frozen=True)
class Trace:
    initial: Term
    steps: tuple[TraceStep, ...] = ()

    def export_lines(self) -> list[str]:
        """One step per line: <rule-name> @ <position-path> : <printed reduct>."""
        return [
            f"{s.redex.rule_name} @ {position_str(s.redex.position)} : {print_term(s.result)}"
            for s in self.steps
        ]

    def to_json(self) -> dict:
        return {
            "initial": print_term(self.initial),
            "steps": [
                {
                    "rule": s.redex.rule_name,
                    "position": position_str(s.redex.position),
                    "result": print_term(s.result),
                }
                for s in self.steps
            ],
        }


def _trace(initial: Term, fired: list, final: Term) -> Trace:
    """The trace of a normalize run from initial to final; fired holds
    (listing entry, contractum) per step."""
    replay = _Replay(initial, fired, final)
    return Trace(initial, tuple([TraceStep(replay, i) for i in range(len(fired))]))


class _Zipper:
    """A term held as a focused subterm, the parents above it, root first,
    and the focus's cell (Huet, "The Zipper", JFP 7(5), 1997).  A move
    climbs to the common ancestor of two cells, so it costs the path it
    walks, not the depth it reaches, and moving up rebuilds a parent only
    when its child has changed."""

    __slots__ = ("focus", "parents", "cell")

    def __init__(self, t: Term):
        self.focus = t
        self.parents: list[Term] = []
        self.cell: Cell = _ROOT

    def up(self) -> None:
        node = self.parents.pop()
        self.cell, i, _ = self.cell
        focus = self.focus
        cls = type(node)
        if cls is SymApp:
            args = node.args
            if args[i] is not focus:
                args = (focus,) if len(args) == 1 else args[:i] + (focus,) + args[i + 1 :]
                node = SymApp(node.kind, node.name, node.params, args)
        elif cls is Let:
            if i == 0 and node.subject is not focus:
                node = Let(node.binder, focus, node.body)
            elif i == 1 and node.body is not focus:
                node = Let(node.binder, node.subject, focus)
        elif cls is App:
            if i == 0 and node.fun is not focus:
                node = App(focus, node.arg)
            elif i == 1 and node.arg is not focus:
                node = App(node.fun, focus)
        elif node.body is not focus:
            node = Lam(node.binder, focus) if cls is Lam else Pure(focus)
        self.focus = node

    def move(self, target: Cell) -> None:
        """Focus the subterm at target, whose chain of cells meets the
        focus's."""
        here, there = self.cell, target
        down = []
        while here is not there:
            if here[2] > there[2]:
                here = here[0]
            else:
                there, i, _ = there
                down.append(i)
        for _ in range(self.cell[2] - here[2]):
            self.up()
        focus, parents = self.focus, self.parents
        for i in reversed(down):
            parents.append(focus)
            focus = children(focus)[i]
        self.focus = focus
        self.cell = target

    def root(self) -> Term:
        while self.parents:
            self.up()
        return self.focus


def _rules_at(sub: Term, cell: Cell, index: HeadIndex) -> list:
    """The listing entries (see _list_redexes) of every rule that applies
    at sub itself, the subterm at cell: the metalanguage rule, whose rule
    is None, index 0 and contraction a thunk that builds its contractum, or
    the user rules by index, each with its bindings as contraction."""
    out: list = []
    if type(sub) is SymApp:
        head = index.get((sub.kind, sub.name, sub.params))
        if head is not None:
            head.matches(sub, cell, out)
        return out
    hit = _ml_contraction(sub)
    if hit is not None:
        out.append((cell, 0, hit[0], None, sub, hit[1]))
    return out


def _contractum(rule: RewriteRule | None, contraction) -> Term:
    """The contractum that an entry's rule and contraction give."""
    return contraction() if rule is None else rule._contract(contraction)


def _list_redexes(t: Term, at: Cell, index: HeadIndex, clean: dict[int, Term], out: list) -> None:
    """The redex walk: append an entry (cell, rule index, rule name, rule,
    subterm, contraction) to out for every redex of t, the subterm at cell
    `at`, as _rules_at gives them; positions come in preorder, so in
    lexicographic order.  One explicit-stack walk, which makes each child's
    cell from its parent's and reads each node's children and rules by its
    class: a symbol application costs one head lookup, and a let or an
    application a test of the metalanguage rules.  clean holds, by id,
    subterms known to have no redex: they are skipped, and every subterm
    found to have none is added.  Each is held by the record, so that its
    id cannot be reused.

    A tower, a run of one-argument symbol applications whose heads start
    no rule, such as the succ nodes of a numeral, is walked down in one
    loop: its nodes add no entry, so they share one leave marker, which
    puts the whole run in the record if nothing was listed below it.  The
    run stops at a subterm the record holds, or before a node that is not
    such an application, which the walk then reads as any other."""
    stack: list = [] if id(t) in clean else [(t, at)]
    push = stack.append
    get = index.get
    while stack:
        sub, cell = stack.pop()
        if type(cell) is int:
            # leaving sub, or a tower's nodes listed top down: cell is the
            # length of out when it was entered
            if len(out) == cell:
                if type(sub) is list:
                    for node in reversed(sub):
                        clean[id(node)] = node
                else:
                    clean[id(sub)] = sub
            continue
        start = len(out)
        cls = type(sub)
        if cls is SymApp:
            kids = sub.args
            head = get((sub.kind, sub.name, sub.params))
            if head is not None:
                head.matches(sub, cell, out)
            elif len(kids) == 1:
                run = [sub]
                push((run, start))
                while True:
                    sub = sub.args[0]
                    cell = (cell, 0, cell[2] + 1)
                    if id(sub) in clean:
                        break
                    if type(sub) is not SymApp or len(sub.args) != 1 or (sub.kind, sub.name, sub.params) in index:
                        push((sub, cell))
                        break
                    run.append(sub)
                continue
        elif cls is Let or cls is App:
            hit = _ml_contraction(sub)
            if hit is not None:
                out.append((cell, 0, hit[0], None, sub, hit[1]))
            kids = (sub.subject, sub.body) if cls is Let else (sub.fun, sub.arg)
        elif cls is Var:
            clean[id(sub)] = sub
            continue
        else:
            kids = (sub.body,)
        if kids:
            push((sub, start))
            depth = cell[2] + 1
            for i in range(len(kids) - 1, -1, -1):
                if id(kids[i]) not in clean:
                    push((kids[i], (cell, i, depth)))
        elif len(out) == start:
            clean[id(sub)] = sub


def _edge(listing: list, cell: Cell, k: int, step: int) -> int:
    """The first index from k on in direction step (1 or -1) whose entry
    does not lie under cell (its cell, climbed to cell's depth, is not
    cell), or len(listing) or -1.  The listing is in preorder, so the
    entries under cell form one slice, whose edge a gallop and then a
    bisection find."""
    depth, n = cell[2], len(listing)
    inside, gap, outside = k - step, step, None
    while outside is None or abs(outside - inside) > 1:
        j = inside + gap if outside is None else (inside + outside) // 2
        c = listing[j][0] if 0 <= j < n else None
        while c is not None and c[2] > depth:
            c = c[0]
        if c is cell:
            inside, gap = j, gap + gap
        else:
            outside = j
    return outside


DEFAULT_FUEL = 10_000


def normalize(
    t: Term,
    rules: list[RewriteRule] = (),
    strategy: str = "leftmost-outermost",
    fuel: int = DEFAULT_FUEL,
    seed: int | None = None,
) -> tuple[Term, Trace]:
    """Rewrite to normal form under the given strategy.

    Deterministic for a fixed strategy/seed.  Raises FuelExhausted (with
    the partial trace attached) if redexes remain after `fuel` steps.
    Each step picks from the listing of every redex, in the redex walk's
    order: leftmost-outermost takes the first entry, rightmost-innermost
    the first entry at the last position, and random a choice of the
    seeded generator.  The entries hold their positions as cells, and a
    step finds the slice it replaces and the ancestors it rechecks by
    walking cells, so its cost does not grow with the depth of its redex.

    A user-rule step builds and lists its contractum in one call of the
    rule's compiled code, which reads the entries off the right side (see
    _code), and a metalanguage step walks it.  The slice of
    entries it replaces ends at the entry after the fired one unless that
    entry lies under the redex; only then does _edge search for its end.
    A step rechecks an ancestor k levels above its redex only if the
    rules rooted at the ancestor's head read more than k levels (ML_REACH
    at a let or an application, the head's reach at a symbol application,
    see head_index), and the zipper climbs, rebuilding parents, only as far
    as the highest such ancestor.  An ancestor it passes keeps its
    entries: the rules at its head cannot see the change, so they match
    as before, and stale bindings are derived again if the entry fires.
    Under peano, where no rule is rooted at succ, a step under a succ
    climbs nowhere.  A left side that repeats a variable reads every
    level, so with such a rule a step looks up the head of each ancestor.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}")
    if (seed is None) == (strategy == "random"):
        raise ValueError("a seed is required exactly when the strategy is random")
    rng = Random(seed) if strategy == "random" else None
    index = head_index(rules)
    reach = max([ML_REACH, *(head.reach for head in index.values())])
    clean: dict[int, Term] = {}
    listing: list = []
    _list_redexes(t, _ROOT, index, clean, listing)
    zipper = _Zipper(t)
    fired: list = []
    while listing:
        if len(fired) >= fuel:
            current = zipper.root()
            raise FuelExhausted(current, _trace(t, fired, current))
        if strategy == "leftmost-outermost":
            i = 0
        elif strategy == "rightmost-innermost":
            i = len(listing) - 1
            while i and listing[i - 1][0] is listing[i][0]:
                i -= 1
        else:
            # a choice among the indices draws what one among the entries does
            i = rng.choice(range(len(listing)))
        entry = listing[i]
        cell, idx, _, rule, sub, contraction = entry
        zipper.move(cell)
        sub_now = zipper.focus
        if sub_now is not sub:
            # a contraction below, deeper than the rules read, rebuilt this
            # subterm after it was listed: the rule still applies, but the
            # bindings read from the old subterm are stale.  At one node the
            # rule index tells the rules that apply apart
            contraction = next(e[5] for e in _rules_at(sub_now, cell, index) if e[1] == idx)
        listed: list = []
        if rule is None:
            contractum = contraction()
            _list_redexes(contractum, cell, index, clean, listed)
        else:
            contractum = rule._contract(contraction, cell, index, clean, listed)
        zipper.focus = contractum
        fired.append((entry, contractum))
        # the contractum's entries take the place of the slice under cell
        lo = i
        while lo and listing[lo - 1][0] is cell:
            lo -= 1
        # the entry after the fired one is tested before any gallop, since
        # the slice under a node most often ends at its own entries
        hi = i + 1
        if hi < len(listing):
            c, at_depth = listing[hi][0], cell[2]
            while c[2] > at_depth:
                c = c[0]
            if c is cell:
                hi = _edge(listing, cell, hi + 1, 1)
        listing[lo:hi] = listed
        # an ancestor k levels up sees what changed only if a rule rooted at
        # its head reads more than k levels.  The zipper climbs to the highest
        # such ancestor; one in between keeps its entries, whose stale
        # bindings are derived again if they fire.  An ancestor's entries
        # come first in its slice, which ends at or after lo
        parents = zipper.parents
        depth = len(parents)
        for k in range(1, min(reach - 1, depth) + 1):
            # how many levels the rules rooted at this ancestor's head read
            p = parents[depth - k]
            cls = type(p)
            if cls is SymApp:
                head = index.get((p.kind, p.name, p.params))
                if head is None or head.reach <= k:
                    continue
            elif (cls is not Let and cls is not App) or ML_REACH <= k:
                continue
            while len(parents) > depth - k:
                zipper.up()
            above, focus = zipper.cell, zipper.focus
            lo = hi = _edge(listing, above, lo - 1, -1) + 1
            while hi < len(listing) and listing[hi][0] is above:
                hi += 1
            listing[lo:hi] = _rules_at(focus, above, index)
    current = zipper.root()
    return current, _trace(t, fired, current)


# ---------------------------------------------------------------------------
# progress measure for let-assoc


def left_nesting_measure(t: Term) -> int:
    """Number of let nodes that sit anywhere inside the subject subtree of
    an enclosing let.  Every let-assoc step strictly decreases this on the
    rewritten subtree.  One explicit-stack pass."""
    count = 0
    stack = [(t, False)]
    while stack:
        t, in_subject = stack.pop()
        if type(t) is Let:
            count += in_subject
            stack += [(t.body, in_subject), (t.subject, True)]
        else:
            stack += [(k, in_subject) for k in children(t)]
    return count
