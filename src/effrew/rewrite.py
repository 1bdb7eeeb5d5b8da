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
side, is decided alone by the matcher compiled for its rule (see
_compile_matcher), which hands back the match's bindings, so retrieval
is exact.  match_pattern, the recursive matcher,
is the public reference those matchers agree with; the engine does not
call it.  Each entry of
a listing holds what builds its contractum (the bindings, or the
metalanguage rule's thunk), so no redex is matched twice, and a user
rule's contractum is built by a builder compiled from its right side (see
RewriteRule).  Subterms found to have no redex are remembered by identity
for the walk's caller.  all_redexes and its two filters wrap the entries
into Redex objects; reduction_graph builds each reduct straight from them.

normalize lists the start term once and then keeps that listing up to
date: a contraction at p replaces the entries under p with those of the
contractum, and rechecks only the ancestors of p whose head's rules read
deep enough to see p (see normalize); the others keep their entries, and
are rebuilt only when the zipper next climbs past them.  The redex-free
record lasts for the call, so listing a contractum skips the parts it
shares with the old term.  A user rule's contractum is not walked: its
entries are read off a plan of the rule's right side (see
_list_contractum), which matches only the right-side nodes whose head
starts a rule and walks only the bindings the record does not hold.  The
current term is held as a
zipper, and every position as a cell linked to its parent's, so a step
pays for the path it walks and not for its depth; a position becomes a
tuple only where one is read (a Redex, a trace step, a graph edge).  An
entry whose subterm was rebuilt since it was listed holds bindings that
point into the old subterm, so the lookup that listed it is run again on
the new one.  The trace holds per step only what normalize recorded; its
terms and its redexes are built when read.  What the engine reads off a
rule is derived when the rule is built (see RewriteRule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter
from random import Random
from typing import Callable, Iterable, Sequence

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
    with_children,
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

    _matcher and _builder, the rule's compiled left and right sides (see
    _compile_matcher and _compile_builder), _plan, the right side as the
    steps that list a contractum's redexes (see _compile_plan), and
    _index_keys, the left side's arity and the names of its first two
    arguments, None where one is a variable (see _Head), are built on
    first use and kept.  Copying and pickling rebuild the rule from its
    constructor's arguments, so a copy compiles its own."""

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
    def _matcher(self) -> Callable[[SymApp], dict[str, Term] | None]:
        return _compile_matcher(self)

    @cached_property
    def _builder(self) -> Callable[[dict[str, Term]], Term]:
        return _compile_builder(self.rhs)

    @cached_property
    def _plan(self) -> tuple:
        return _compile_plan(self.rhs)

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


def _compile_matcher(rule: RewriteRule) -> Callable[[SymApp], dict[str, Term] | None]:
    """The rule's left side as a function from a subject with the same
    head and arity to the match's bindings, or None, as match_pattern
    gives them.  It decides the match alone, trusting nothing else about
    the subject.  It checks kind, name, parameters and arity of every
    symbol application below the root at its fixed path, in preorder so
    that each path's parents are checked first, and then reads each
    variable's binding at its path.  Last come the guarded reads, in
    preorder: every occurrence of a value metavariable, which binds the
    payload of a pure, or a plain variable, and fails on anything else,
    and every later occurrence of a repeated variable, which must read a
    subterm alpha-equal to the first.  A linear left side with no value
    metavariable has none."""
    lhs, value_vars = rule.lhs, rule.value_vars
    checks, reads, guarded = [], [], []
    stack = [(a, (i,)) for i, a in enumerate(lhs.args)][::-1]
    while stack:
        p, path = stack.pop()
        if type(p) is Var:
            if p.name in value_vars or any(p.name == var for var, _ in reads):
                guarded.append((p.name, path, p.name in value_vars))
            else:
                reads.append((p.name, path))
            continue
        checks.append((path, p.name, p.kind, p.params, len(p.args)))
        stack += [(a, path + (i,)) for i, a in enumerate(p.args)][::-1]

    def match(sub: SymApp) -> dict[str, Term] | None:
        for path, name, kind, params, arity in checks:
            s = sub
            for i in path:
                s = s.args[i]
            if type(s) is not SymApp or s.name != name or s.kind != kind or s.params != params or len(s.args) != arity:
                return None
        out = {}
        for var, path in reads:
            s = sub
            for i in path:
                s = s.args[i]
            out[var] = s
        for var, path, value in guarded:
            s = sub
            for i in path:
                s = s.args[i]
            if value and type(s) is not Var:
                if type(s) is not Pure:
                    return None
                s = s.body
            if out.setdefault(var, s) is not s and not alpha_eq(out[var], s):
                return None
        return out

    return match


def _compile_builder(rhs: Term) -> Callable[[dict[str, Term]], Term]:
    """A rule's right side as a function from a match's bindings to the
    contractum: one closure per node of the side, a variable read from the
    bindings and a nullary symbol shared.  Right sides are binder-free, so
    this cannot capture.  It recurses once per level of the side, and so
    do the closures when they run: a theory file's right side deeper than
    the interpreter recursion limit raises RecursionError."""
    if type(rhs) is Var:
        return itemgetter(rhs.name)
    if type(rhs) is Pure:
        body = _compile_builder(rhs.body)
        return lambda bindings: Pure(body(bindings))
    kind, name, params, args = rhs.kind, rhs.name, rhs.params, rhs.args
    if not args:
        return lambda bindings: rhs
    parts = tuple(map(_compile_builder, args))
    if len(parts) == 1:
        (first,) = parts
        return lambda bindings: SymApp(kind, name, params, (first(bindings),))
    if len(parts) == 2:
        first, second = parts
        return lambda bindings: SymApp(kind, name, params, (first(bindings), second(bindings)))
    return lambda bindings: SymApp(kind, name, params, tuple([part(bindings) for part in parts]))


def _compile_plan(rhs: Term) -> tuple:
    """A rule's right side as the listing plan of its contracta (see
    _list_contractum): one step per node, in preorder, each (parent slot,
    child index, head, variable).  Every node that is not a variable takes
    the next slot, counting from 0 at the root, and its children name it
    as parent; the root's parent is -1.  head is a symbol application's
    (kind, name, parameters), else None; variable is a variable's name,
    else None."""
    plan = []
    slots = 0
    stack = [(rhs, -1, 0)]
    while stack:
        t, parent, i = stack.pop()
        if type(t) is Var:
            plan.append((parent, i, None, t.name))
            continue
        slot, slots = slots, slots + 1
        if type(t) is Pure:
            plan.append((parent, i, None, None))
            stack.append((t.body, slot, 0))
        else:
            plan.append((parent, i, (t.kind, t.name, t.params), None))
            stack += [(a, slot, j) for j, a in enumerate(t.args)][::-1]
    return tuple(plan)


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
    each candidate's compiled matcher decides it alone (see
    _compile_matcher), so retrieval is exact."""

    __slots__ = ("rules", "reach", "_shapes")

    def __init__(self):
        self.rules: list[tuple[int, RewriteRule]] = []
        self.reach: float = 0
        self._shapes: dict[tuple, list] = {}

    def matches(self, sub: SymApp) -> list[tuple[int, str, RewriteRule, dict[str, Term]]]:
        """(rule index, rule name, rule, bindings) for every rule of this
        head that matches sub, in rule order."""
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
        out = []
        for idx, name, rule, matcher in candidates:
            bindings = matcher(sub)
            if bindings is not None:
                out.append((idx, name, rule, bindings))
        return out


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

    Retrieval (`_Head.matches`) is exact: it returns every rule that
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
        kids = children(node)
        if kids[i] is not self.focus:
            node = with_children(node, kids[:i] + (self.focus,) + kids[i + 1 :])
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


def _rules_at(sub: Term, index: HeadIndex) -> Sequence[tuple[int, str, RewriteRule | None, object]]:
    """(rule index, rule name, rule, contraction) for every rule that
    applies at sub itself: the metalanguage rule, whose rule is None, index
    0 and contraction a thunk that builds its contractum, or the user rules
    by index, each with its bindings as contraction."""
    if type(sub) is SymApp:
        head = index.get((sub.kind, sub.name, sub.params))
        if head is None:
            return ()
        return head.matches(sub)
    hit = _ml_contraction(sub)
    return () if hit is None else ((0, hit[0], None, hit[1]),)


def _contractum(rule: RewriteRule | None, contraction) -> Term:
    """The contractum that an entry's rule and contraction give."""
    return contraction() if rule is None else rule._builder(contraction)


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
                hits = head.matches(sub)
                if hits:
                    out += [(cell, idx, name, rule, sub, bindings) for idx, name, rule, bindings in hits]
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


def _list_contractum(
    rule: RewriteRule, contractum: Term, bindings: dict[str, Term], at: Cell, index: HeadIndex, clean: dict, out: list
) -> None:
    """What _list_redexes(contractum, at, index, clean, out) appends, for
    the contractum that rule's builder made from bindings, read off the
    rule's plan (see _compile_plan) instead of walked.  A right-side node
    is matched only if its head starts a rule: no metalanguage rule applies
    at a symbol application or a pure.  A variable's binding is walked only
    if clean does not hold it.  The right side's own nodes are not added
    to clean; a later walk that meets one adds it."""
    get = index.get
    terms: list = []
    cells: list = []
    for parent, i, key, var in rule._plan:
        if var is not None:
            t = bindings[var]
            if id(t) not in clean:
                up = cells[parent] if parent >= 0 else None
                _list_redexes(t, at if up is None else (up, i, up[2] + 1), index, clean, out)
            continue
        if parent < 0:
            t, cell = contractum, at
        else:
            t, up = terms[parent], cells[parent]
            t = t.args[i] if type(t) is SymApp else t.body
            cell = (up, i, up[2] + 1)
        terms.append(t)
        cells.append(cell)
        if key is not None:
            head = get(key)
            if head is not None:
                hits = head.matches(t)
                if hits:
                    out += [(cell, idx, name, r, t, b) for idx, name, r, b in hits]


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

    A user-rule step lists its contractum off the rule's right side (see
    _list_contractum), and a metalanguage step walks it.  The slice of
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
            contraction = next(c for i, _, _, c in _rules_at(sub_now, index) if i == idx)
        contractum = zipper.focus = _contractum(rule, contraction)
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
        listed: list = []
        if rule is None:
            _list_redexes(contractum, cell, index, clean, listed)
        else:
            _list_contractum(rule, contractum, contraction, cell, index, clean, listed)
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
            listing[lo:hi] = [(above, idx, name, rule, focus, c) for idx, name, rule, c in _rules_at(focus, index)]
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
