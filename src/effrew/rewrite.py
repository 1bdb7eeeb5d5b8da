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

Redexes are found by a single scan: one explicit-stack preorder walk
that tries the metalanguage rules at every node and, at a symbol
application, only the user rules that a discrimination tree over the
left sides retrieves for it.  The index is built once per normalize or
graph exploration.  Its first level is keyed by the head (kind and
identity), so a node whose head starts no rule costs one dict lookup;
below a head, built on that head's first lookup, the tree reads the
subject in preorder, with pattern variables as wildcards.  Retrieval may
over-approximate (a repeated variable or a value metavariable is not
checked there), so match_pattern confirms every candidate.  A node's
position is unwound from parent links only when the node is a redex,
and a redex builds its reduct only when it is first read, so
leftmost-outermost normalisation stops the walk at the first hit and
builds one reduct per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice
from random import Random
from typing import Callable, Iterable, Iterator

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
    side invents no variables.  Raises RuleError otherwise.  value_vars is
    derived: for extended rules, the right-side variables that occur under
    a pure."""

    name: str
    lhs: Term
    rhs: Term
    extended: bool = False
    value_vars: frozenset[str] = field(init=False)
    certified: bool = False

    def __post_init__(self):
        name, lhs, rhs, extended = self.name, self.lhs, self.rhs, self.extended
        if isinstance(lhs, Var):
            raise RuleError(f"rule {name}: left side is a bare variable")
        if not is_symbolic(lhs):
            raise RuleError(f"rule {name}: left side leaves the symbolic fragment")
        if not is_symbolic(rhs, allow_pure=extended):
            raise RuleError(
                f"rule {name}: right side leaves the symbolic fragment"
                + ("" if extended else " (pure needs the extended flag)")
            )
        lv, rv = pattern_vars(lhs), pattern_vars(rhs)
        if not rv <= lv:
            missing = ", ".join(sorted(rv - lv))
            raise RuleError(f"rule {name}: right side invents variables: {missing}")
        object.__setattr__(self, "value_vars", _vars_under_pure(rhs) if extended else frozenset())


def pattern_vars(t: Term) -> frozenset[str]:
    """Variables of a symbolic pattern (patterns have no binders, so every
    variable occurrence is a metavariable)."""
    if isinstance(t, Var):
        return frozenset((t.name,))
    out: frozenset[str] = frozenset()
    for k in children(t):
        out |= pattern_vars(k)
    return out


def is_symbolic(t: Term, allow_pure: bool = False) -> bool:
    """Whether t is in the symbolic fragment: variables and symbol
    applications, plus pure when allow_pure is set."""
    if isinstance(t, Var):
        return True
    if isinstance(t, SymApp):
        return all(is_symbolic(a, allow_pure) for a in t.args)
    if allow_pure and isinstance(t, Pure):
        return is_symbolic(t.body, allow_pure)
    return False


def _vars_under_pure(t: Term, inside: bool = False) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,)) if inside else frozenset()
    inside = inside or isinstance(t, Pure)
    out: frozenset[str] = frozenset()
    for k in children(t):
        out |= _vars_under_pure(k, inside)
    return out


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


def instantiate(rhs: Term, bindings: dict[str, Term]) -> Term:
    """Plug matched bindings into a rule right-hand side.  Right sides are
    binder-free, so this cannot capture."""
    if isinstance(rhs, Var):
        return bindings[rhs.name]
    if isinstance(rhs, SymApp):
        return SymApp(rhs.kind, rhs.name, rhs.params, tuple(instantiate(a, bindings) for a in rhs.args))
    if isinstance(rhs, Pure):
        return Pure(instantiate(rhs.body, bindings))
    raise RuleError(f"rule right side leaves the symbolic fragment: {print_term(rhs)}")


# ---------------------------------------------------------------------------
# redexes


@dataclass(frozen=True, eq=False)
class Redex:
    """Rule `rule_name` applied at `position` of `source`.

    The reduct (source with the contractum spliced in at position) is
    built on first access and then cached, so a scan that lists many
    redexes pays only for the ones that are used.  Equality and hashing
    go through position, rule name and reduct.
    """

    position: Position
    rule_name: str
    source: Term = field(repr=False)
    contract: Callable[[], Term] = field(repr=False)
    ml: bool = False
    rule_index: int = 0

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
    if inner_binder in free_vars(t.body):
        renamed = fresh_name(
            inner_binder,
            free_vars(t.body) | free_vars(t2) | free_vars(t1) | {t.binder},
        )
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
    each with its position in the rule list, and below that head a
    discrimination tree over the rest of their left sides (Graf, Term
    Indexing, LNAI 1053, 1996).

    A left side flattens in preorder into keys: a symbol application gives
    (kind, identity, arity), a variable gives the wildcard None; the arity
    keeps the pending subject arguments aligned with the pattern.  The
    root's arity is the first key, since its kind and identity are the
    head.  Inner nodes map a key to the next node; once every key of a
    left side is read the node is a list of (rule index, rule).  The tree
    is built on the head's first lookup, so a normalize or graph run pays
    only for the heads its terms reach."""

    __slots__ = ("rules", "_tree")

    def __init__(self):
        self.rules: list[tuple[int, RewriteRule]] = []
        self._tree: dict | None = None

    def _build(self) -> dict:
        tree: dict = {}
        for entry in self.rules:
            args = entry[1].lhs.args
            keys: list = [len(args)]
            pending = list(reversed(args))
            while pending:
                p = pending.pop()
                if isinstance(p, Var):
                    keys.append(None)
                else:
                    keys.append((p.kind, p.identity, len(p.args)))
                    pending.extend(reversed(p.args))
            node = tree
            for key in keys[:-1]:
                node = node.setdefault(key, {})
            node.setdefault(keys[-1], []).append(entry)
        return tree

    def candidates(self, sub: SymApp) -> list[tuple[int, RewriteRule]]:
        """The rules whose left side agrees with sub on every symbol it
        has, sorted by rule index."""
        tree = self._tree
        if tree is None:
            tree = self._tree = self._build()
        args = sub.args
        node = tree.get(len(args))
        if node is None:
            return []
        out: list[tuple[int, RewriteRule]] = []
        # pending holds the subject subterms still to be read, next one
        # last; every path to a node reads the same number of keys, so an
        # empty pending means the node is a leaf
        stack = [(node, args[::-1])]
        while stack:
            node, pending = stack.pop()
            if not pending:
                out += node
                continue
            s, rest = pending[-1], pending[:-1]
            child = node.get(None)
            if child is not None:
                stack.append((child, rest))
            if isinstance(s, SymApp):
                kids = s.args
                child = node.get((s.kind, s.identity, len(kids)))
                if child is not None:
                    stack.append((child, rest + kids[::-1]))
        out.sort()
        return out


HeadIndex = dict[tuple[str, Identity], _Head]


def head_index(rules: Iterable[RewriteRule]) -> HeadIndex:
    """The user rules by the (kind, identity) of their left side's root,
    each head with the discrimination tree below it (see _Head).  A rule's
    left side is always a symbol application, so a subject node whose
    head starts no rule costs one dict lookup.

    Retrieval (`_Head.candidates`) treats every pattern variable as a
    wildcard: it never misses a rule that matches, but may return one that
    does not, because a repeated variable or a value metavariable is not
    checked there.  iter_redexes confirms every candidate with
    match_pattern."""
    index: HeadIndex = {}
    for idx, rule in enumerate(rules):
        key = (rule.lhs.kind, rule.lhs.identity)
        head = index.get(key)
        if head is None:
            head = index[key] = _Head()
        head.rules.append((idx, rule))
    return index


def _position(link) -> Position:
    """Unwind a (parent link, child index) chain into a position."""
    out = []
    while link is not None:
        link, i = link
        out.append(i)
    out.reverse()
    return tuple(out)


def iter_redexes(t: Term, index: HeadIndex) -> Iterator[Redex]:
    """Every redex of t in one preorder walk: positions in lexicographic
    order, the metalanguage rule before user rules at a position, user
    rules by index.  Lazy, so a caller that wants only the first redex
    stops the walk there."""
    stack = [(t, None)]
    while stack:
        sub, link = stack.pop()
        # user rules only match symbol applications and metalanguage rules
        # never do, so one node never has both kinds of redex
        if isinstance(sub, SymApp):
            head = index.get((sub.kind, sub.identity))
            if head is not None:
                pos = None
                for idx, rule in head.candidates(sub):
                    bindings = match_pattern(rule.lhs, sub, rule.value_vars)
                    if bindings is not None:
                        if pos is None:
                            pos = _position(link)
                        yield Redex(pos, rule.name, t, partial(instantiate, rule.rhs, bindings), False, idx)
            kids = sub.args
        else:
            hit = _ml_contraction(sub)
            if hit is not None:
                yield Redex(_position(link), hit[0], t, hit[1], ml=True)
            kids = children(sub)
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], (link, i)))


def ml_redexes(t: Term) -> list[Redex]:
    """All metalanguage redexes of t, in preorder position order."""
    return list(iter_redexes(t, {}))


def symbolic_redexes(t: Term, rules: list[RewriteRule]) -> list[Redex]:
    """All user-rule redexes of t, positions in preorder, rules in the
    order given at equal positions."""
    return [r for r in iter_redexes(t, head_index(rules)) if not r.ml]


def all_redexes(t: Term, rules: list[RewriteRule] = ()) -> list[Redex]:
    """Every redex of t, sorted by position (lexicographic), metalanguage
    rules before user rules at equal positions."""
    return list(iter_redexes(t, head_index(rules)))


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


@dataclass(frozen=True)
class TraceStep:
    redex: Redex
    result: Term


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


DEFAULT_FUEL = 10_000


def _pick(redexes: list[Redex], strategy: str, rng: Random | None) -> Redex:
    if strategy == "leftmost-outermost":
        # preorder listing is already sorted; the head is the leftmost
        # outermost redex, ml before user rules on ties
        return redexes[0]
    if strategy == "rightmost-innermost":
        # the greatest position comes last in the listing; at it, the ml
        # rule comes first, then user rules by index
        deepest = redexes[-1].position
        return next(r for r in redexes if r.position == deepest)
    if strategy == "random":
        return rng.choice(redexes)
    raise ValueError(f"unknown strategy: {strategy}")


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
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy: {strategy}")
    if (seed is None) == (strategy == "random"):
        raise ValueError("a seed is required exactly when the strategy is random")
    rng = Random(seed) if strategy == "random" else None
    index = head_index(rules)
    # leftmost-outermost takes the first redex of the walk, so it stops there
    limit = 1 if strategy == "leftmost-outermost" else None
    steps: list[TraceStep] = []
    current = t
    while True:
        redexes = list(islice(iter_redexes(current, index), limit))
        if not redexes:
            return current, Trace(t, tuple(steps))
        if len(steps) >= fuel:
            raise FuelExhausted(current, Trace(t, tuple(steps)))
        chosen = _pick(redexes, strategy, rng)
        current = chosen.reduct
        steps.append(TraceStep(chosen, current))


# ---------------------------------------------------------------------------
# progress measure for let-assoc


def left_nesting_measure(t: Term) -> int:
    """Number of let nodes that sit anywhere inside the subject subtree of
    an enclosing let.  Every let-assoc step strictly decreases this on the
    rewritten subtree."""

    def go(t: Term, in_subject: bool) -> int:
        if isinstance(t, Let):
            own = 1 if in_subject else 0
            return own + go(t.subject, True) + go(t.body, in_subject)
        return sum(go(k, in_subject) for k in children(t))

    return go(t, False)
