"""Recursive path ordering with lexicographic status, and rule certification.

For symbolic terms s and t, s > t holds exactly when one of three cases
applies:

  RPO(1)  s = g(s1..sn), t = g(t1..tn) with the same symbol identity and
          arity, (s1..sn) is lexicographically greater than (t1..tn),
          and s > tj for every j;
  RPO(2)  the head of s is greater than the head of t in the precedence,
          and s > tj for every j;
  RPO(3)  some immediate argument si of s satisfies si >= t, where >= is
          > or syntactic equality.

Variables head no case: x > t never holds, and s > x only through
RPO(3) chains down to an occurrence of x.  A rule set whose every rule
has lhs > rhs rewrites inside a well-founded order, so it terminates;
certificates carry the full derivation and can be replayed against the
definition.

The cases are spelt out once, by _cases, as conjunctions of one optional
precedence atom f > g and subgoals s' > t'.  Each goal is a step, a
generator that terms._run_steps runs on one list, as it runs the
parser's and the type checker's: a step looks each subgoal up in the
memo of its call, keyed on (s, t), before it yields it, and stores its
own value there before it returns, so the runner keeps no memo.
Subgoals are strictly smaller pairs, so no goal waits on itself.  Replay
and the search's backtracking walk explicit stacks too, a derivation's
text is written by sexpr._render and its JSON by _run_steps, and its
equality, hash, repr and pickling are those of the term nodes, so
neither the depth of a term or derivation nor the number of rules costs
Python stack.  There are two steps: _derive finds the derivation of the
first case that holds under a fixed precedence (certification), and
_extensions finds the minimal consistent sets of atoms under which some
case holds (precedence search; the constraint encoding of Codish, Lagoon
& Stuckey, RTA 2006).  A set of atoms is consistent when its graph has
no cycle.

One routine, _order, does every closure and consistency check: each
identity gets one bit, and keeps an int mask of the identities below it,
closed under transitivity.  A pair a > b fails when a is already below
b; otherwise b and its mask go into a's mask and into every mask that
holds a.  _extensions checks a union only when it adds pairs to both of
its parts: a single atom pairs two distinct identities, and every other
set it holds is a union checked before.  So a conjunction of one set
with one set forms one union, and the alternatives of a goal are left as
they are unless there are two or more.  The search keeps the masks of
the pairs chosen so far, and a choice costs one AND per pair, plus one
_order per pair that the masks do not hold yet; the masks of its last
choice are the precedence.

A Precedence is its bit map and its closed masks: holds is one bit
test, and certification and replay read nothing else.  Its set of
closed pairs is built when pairs, ==, hash, repr or display_lines first
reads it, and kept.

Every goal that holds keeps the variable condition, under every
precedence: each variable of t occurs in s (Dershowitz, TCS 17(3),
1982).  No case can break it: RPO(1) and RPO(2) prove s > tj for every
argument tj of t, RPO(3) proves si >= t for an argument si of s, and
s > x holds only through an occurrence of x.  Both steps check it in
closed form, from the free variables of each side, which
terms.free_vars caches on the node, so they are found once per distinct
node and kept across calls.  A goal that breaks it, its own or a
subgoal met on a memo miss, fails at once: it is neither yielded nor
stored, and needs no case analysis.  Comparing the towers of
plus(succ^n(x), y) > succ^n(plus(x, y)) meets about n^2 goals
succ^i(x) > succ^j(plus(x, y)), and each of them breaks it.

A goal s > x with a variable on the right, about half of all goals, is
the case where the condition also suffices: for s a symbol application
it holds exactly when x occurs in s, and needs no atom.  Its derivation
takes, at each level, RPO(3) at the first argument that holds x, down to
x = x.  Neither step yields such a goal: _above_var decides it for the
search and _var_derivation derives it for certification, into the memo
the other goals' derivations join.

A derivation is a DAG: the memo shares a node among every parent whose
goal it proves.  Certification builds one node per goal it proves, so
RpoDerivation is a dataclass on __slots__ whose own constructor writes
each slot through its descriptor, as the term and type nodes do.  It is
a node of terms._Node, whose children are its sides, then its
sub-derivations: it is read-only, assigning or deleting any name raising
FrozenInstanceError, and it compares, hashes, prints and pickles by the
nodes' own walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .rewrite import _ROOT, _cell_position, position_str
from .sexpr import _render
from .terms import Identity, SymApp, Term, Var, _Node, _run_steps, free_vars, ident_str, sym_str

CASE_LEX = "case-1-lex"
CASE_PREC = "case-2-precedence"
CASE_SUB = "case-3-subterm"
CASE_EQ = "refl-eq"

_LABEL = {CASE_LEX: "RPO(1)", CASE_PREC: "RPO(2)", CASE_SUB: "RPO(3)", CASE_EQ: "="}


class NonSymbolicTermError(Exception):
    pass


class PrecedenceError(Exception):
    pass


class SearchBoundError(Exception):
    pass


# ---------------------------------------------------------------------------
# precedence


class Precedence:
    """Strict partial order on symbol identities.  The given pairs are
    closed under transitivity at construction; reflexive pairs (before or
    after closure) are rejected.  The precedence is _order's closed bit
    masks: each identity gets one bit, in order of first appearance, and
    keeps the mask of the identities below it, so holds is one bit test.
    The closed pairs are built from the masks when pairs, ==, hash, repr
    or display_lines first reads them, and kept."""

    __slots__ = ("_bits", "_below", "_pairs")

    def __init__(self, pairs=()):
        pairs, bits, below = tuple(pairs), {}, []
        # every pair goes in, past a cycle, so that the error can name the
        # first left-hand identity, in pair order, on any cycle
        if not all([*_closure(pairs, bits, below)]):
            a = next(a for a, _ in pairs if below[bits[a]] >> bits[a] & 1)
            raise PrecedenceError(f"precedence is not irreflexive: {ident_str(a)} > {ident_str(a)}")
        self._bits, self._below, self._pairs = bits, below, None

    @property
    def pairs(self) -> frozenset:
        if self._pairs is None:
            self._pairs = _closed_pairs(list(self._bits), self._below)
        return self._pairs

    def holds(self, a: Identity, b: Identity) -> bool:
        """Whether a > b; False for an identity the precedence never names."""
        bits = self._bits
        i = bits.get(a)
        return i is not None and b in bits and self._below[i] >> bits[b] & 1 == 1

    def extended(self, extra) -> "Precedence":
        return Precedence(self.pairs | set(extra))

    @staticmethod
    def consistent(pairs) -> bool:
        """Whether pairs extend to a strict partial order: no pair is
        reflexive and the pairs' graph has no cycle.  The pairs go into
        _order's masks one at a time, up to the first that closes a
        cycle; nothing is raised."""
        return all(_closure(pairs, {}, []))

    def __eq__(self, other):
        return isinstance(other, Precedence) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"Precedence({sorted(self.pairs)!r})"

    def display_lines(self) -> list[str]:
        return sorted(f"{ident_str(a)} > {ident_str(b)}" for a, b in self.pairs)


def _order(below: list, i: int, j: int) -> bool:
    """Add the pair i > j to below, where below[k] is the mask of the
    identities below identity k, closed under transitivity: j and the
    identities below j go below i and below every identity above i.
    False when the pair closes a cycle, i == j or i already below j; the
    masks then hold that closure all the same, and each identity on a
    cycle holds its own bit."""
    new = below[j] | 1 << j
    bit = 1 << i
    below[i] |= new
    for k, m in enumerate(below):
        if m & bit:
            below[k] = m | new
    return not new & bit


def _closure(pairs, bits: dict, below: list):
    """Add pairs to the masks below one at a time, giving each identity
    met for the first time the next bit in bits, and yield _order's
    verdict on each."""
    for a, b in pairs:
        i = bits.setdefault(a, len(bits))
        j = bits.setdefault(b, len(bits))
        below += [0] * (len(bits) - len(below))
        yield _order(below, i, j)


def _closed_pairs(ids: list, below: list) -> frozenset:
    """The pairs that closed masks hold, ids[k] naming bit k."""
    return frozenset(
        (a, ids[j]) for a, m in zip(ids, below) for j in range(m.bit_length()) if m >> j & 1
    )


# ---------------------------------------------------------------------------
# derivations


@dataclass(eq=False, repr=False, slots=True, init=False)
class RpoDerivation(_Node):
    """Evidence for lhs > rhs (or lhs >= rhs when rule is refl-eq).

    Children layout by case:
      case-1-lex        (lex witness at args[index],) + one lhs > rhs.args[j] per j
      case-2-precedence one lhs > rhs.args[j] per j
      case-3-subterm    exactly one lhs.args[index] >= rhs derivation
      refl-eq           none

    The prover shares a node among every parent whose goal it proves, so
    a derivation is a DAG.  As a terms._Node, its children are lhs, rhs,
    then the sub-derivations, and its scalars rule and index.  The hash
    handles each distinct node once, and equality each distinct pair of
    nodes, over the derivation and its terms alike; pickle and deepcopy
    rebuild one table of both, so shared nodes and subterms stay shared.
    repr still spells a shared node out wherever it occurs, as the
    dataclass repr did, so its length is that of the unfolded tree.
    copy.copy is shallow.
    """

    lhs: Term
    rhs: Term
    rule: str
    index: int | None = None
    children: tuple["RpoDerivation", ...] = ()

    def __init__(
        self, lhs: Term, rhs: Term, rule: str, index: int | None = None, children: tuple = ()
    ):
        _set_lhs(self, lhs)
        _set_rhs(self, rhs)
        _set_rule(self, rule)
        _set_index(self, index)
        _set_children(self, children)

    def __copy__(self):
        return RpoDerivation(self.lhs, self.rhs, self.rule, self.index, self.children)

    def pretty(self, indent: int = 0) -> str:
        return _render((self, indent), _pretty_parts)

    def to_json(self) -> dict:
        return _run_steps(_json_step, self)


def _pretty_parts(box: tuple) -> list:
    """The pieces, last first, that sexpr._render writes for box, a
    derivation d and its depth: d's line, indented by depth, then per
    child a newline and the child's box at depth + 1, so a shared child
    is spelt out wherever it occurs."""
    d, depth = box
    pad = "  " * depth
    if d.rule == CASE_EQ:
        return (f"{pad}{sym_str(d.lhs)} = {sym_str(d.rhs)}",)
    where = ""
    if d.rule == CASE_LEX:
        where = f", deciding position {d.index}"
    elif d.rule == CASE_SUB:
        where = f", argument {d.index}"
    pieces: list = []
    for c in reversed(d.children):
        pieces += (((c, depth + 1),), "\n")
    pieces.append(f"{pad}{sym_str(d.lhs)} > {sym_str(d.rhs)}   [{_LABEL[d.rule]}{where}]")
    return pieces


def _json_step(d: RpoDerivation):
    """Step for a derivation's JSON: one fresh dict per node and per
    occurrence, so a shared child is spelt out wherever it occurs."""
    kids = []
    for c in d.children:
        kids.append((yield c))
    return {
        "lhs": sym_str(d.lhs),
        "rhs": sym_str(d.rhs),
        "case": _LABEL[d.rule],
        "rule": d.rule,
        "index": d.index,
        "children": kids,
    }


# the slots' own setters, which the constructor calls past the read-only __setattr__
_set_lhs, _set_rhs, _set_rule, _set_index, _set_children = (
    RpoDerivation.lhs.__set__,
    RpoDerivation.rhs.__set__,
    RpoDerivation.rule.__set__,
    RpoDerivation.index.__set__,
    RpoDerivation.children.__set__,
)


def _check_symbolic(t: Term, side: str) -> None:
    """Raise NonSymbolicTermError unless t has only variables and symbol
    applications.  The message names the first other node, in preorder,
    by its constructor and position.  Each node is walked with its
    position as a cell linked to its parent's, and a subterm that t
    shares is walked once, so the check costs t's distinct nodes and only
    the one position it reports is built."""
    seen: set[int] = set()
    stack = [(t, _ROOT)]
    while stack:
        t, cell = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if type(t) is SymApp:
            stack += [(t.args[i], (cell, i, cell[2] + 1)) for i in range(len(t.args) - 1, -1, -1)]
        elif type(t) is not Var:
            where = position_str(_cell_position(cell))
            raise NonSymbolicTermError(
                f"{side} is not in the symbolic fragment: {type(t).__name__.lower()} at {where}"
            )


def _cases(s: Term, t: SymApp):
    """The RPO cases for s > t, t a symbol application, lazily, in the
    order they are tried: RPO(3) per argument of s, then RPO(1) or RPO(2).
    Each is (case, index, atom, goals) and holds exactly when the
    precedence atom (a pair of identities, or None) holds and so does
    s' > t' for every (s', t') in goals.  An RPO(3) case with no goal is an
    argument equal to t.  Only an argument that is a symbol application
    gives an RPO(3) case: a variable never equals t, and x > t never
    holds."""
    if type(s) is not SymApp:
        return
    for i, arg in enumerate(s.args):
        if type(arg) is SymApp:
            # the heads first: most arguments differ from t there
            if arg is t or (arg.name == t.name and arg.params == t.params and arg == t):
                yield CASE_SUB, i, None, ()
            else:
                yield CASE_SUB, i, None, ((arg, t),)
    rest = [(s, tj) for tj in t.args]
    if s.name != t.name or s.params != t.params:
        yield CASE_PREC, None, ((s.name, s.params), (t.name, t.params)), rest
    elif len(s.args) == len(t.args):
        # the first argument pair that is not syntactically equal decides
        for i, (a, b) in enumerate(zip(s.args, t.args)):
            # one object equals itself, nodes of two classes differ, and
            # != between them costs a NotImplemented round trip
            if a is not b and (type(a) is not type(b) or a != b):
                if type(a) is SymApp:
                    yield CASE_LEX, i, None, ((a, b), *rest)
                return


def _above_var(s: Term, x: Var) -> bool:
    """Whether s > x: x occurs in s, a symbol application."""
    return type(s) is SymApp and x.name in free_vars(s)


def _var_derivation(s: Term, x: Var, memo: dict) -> RpoDerivation | None:
    """The derivation of s > x, or None: at each level, RPO(3) at the
    first argument that holds x, down to x = x.  Its nodes are kept in
    memo by (s', x), with the other goals' derivations, so a goal met
    again, on the path or below it, shares its node."""
    d = memo.get((s, x))
    if d is not None or not _above_var(s, x):
        return d
    name, path = x.name, []
    while d is None:
        args, i = s.args, 0
        while name not in free_vars(args[i]):
            i += 1
        path.append((s, i))
        s = args[i]
        d = RpoDerivation(s, x, CASE_EQ) if type(s) is Var else memo.get((s, x))
    for s, i in reversed(path):
        memo[s, x] = d = RpoDerivation(s, x, CASE_SUB, i, (d,))
    return d


_UNKNOWN = object()


def _derive(prec: Precedence, memo: dict, goal: tuple):
    """Step for a derivation of goal s > t, t a symbol application, under
    prec: that of the first case that holds, or None.  It looks each
    subgoal up in memo before yielding it, and stores its own value there
    before it returns.  A subgoal with a variable on the right is not
    yielded: _var_derivation derives it, into the same memo.  Nor is one
    whose right side has a variable that its left side lacks: it is
    None."""
    s, t = goal
    d = None
    for case, index, atom, goals in _cases(s, t):
        if atom is not None and not prec.holds(*atom):
            continue
        kids = []
        for sub in goals:
            if type(sub[1]) is Var:
                d = _var_derivation(*sub, memo)
            else:
                d = memo.get(sub, _UNKNOWN)
                if d is _UNKNOWN:
                    d = (yield sub) if free_vars(sub[1]) <= free_vars(sub[0]) else None
            if d is None:
                break
            kids.append(d)
        else:
            if not goals and case == CASE_SUB:
                kids.append(RpoDerivation(s.args[index], t, CASE_EQ))
            d = RpoDerivation(s, t, case, index, tuple(kids))
            break
    memo[goal] = d
    return d


def _derivation(prec: Precedence, s: Term, t: Term, memo: dict):
    """The derivation of s > t under prec, or None; memo belongs to one
    call, and its goals run as _derive steps on terms._run_steps.  A goal
    whose t has a variable that s lacks is None without a step."""
    if type(t) is Var:
        return _var_derivation(s, t, memo)
    d = memo.get((s, t), _UNKNOWN)
    if d is _UNKNOWN:
        d = _run_steps(partial(_derive, prec, memo), (s, t)) if free_vars(t) <= free_vars(s) else None
    return d


def rpo_greater(prec: Precedence, s: Term, t: Term) -> RpoDerivation | None:
    """Derivation for s > t under prec, or None.  Both terms must be in
    the symbolic fragment."""
    _check_symbolic(s, "left term")
    _check_symbolic(t, "right term")
    return _derivation(prec, s, t, {})


def rpo_geq(prec: Precedence, s: Term, t: Term) -> RpoDerivation | None:
    _check_symbolic(s, "left term")
    _check_symbolic(t, "right term")
    if s == t:
        return RpoDerivation(s, t, CASE_EQ)
    return _derivation(prec, s, t, {})


def lex_greater(prec: Precedence, ss, ts) -> bool:
    """Strict lexicographic extension over equal-length tuples: the first
    position that is not syntactically equal is decreasing."""
    ss, ts = tuple(ss), tuple(ts)
    if len(ss) != len(ts):
        raise ValueError(f"lexicographic comparison needs equal lengths, got {len(ss)} and {len(ts)}")
    for a in ss:
        _check_symbolic(a, "left tuple entry")
    for b in ts:
        _check_symbolic(b, "right tuple entry")
    diff = next(((a, b) for a, b in zip(ss, ts) if a != b), None)
    return diff is not None and _derivation(prec, *diff, {}) is not None


def validate_derivation(prec: Precedence, d: RpoDerivation) -> bool:
    """Replay a derivation against the definition, node by node, over an
    explicit stack.  A node's check reads only the node and its children,
    so a node that the memo shares among several parents is replayed once;
    replayed nodes are kept by id, which costs nothing, where a node's hash
    walks every distinct node below it."""
    stack = [d]
    replayed: set[int] = set()
    while stack:
        d = stack.pop()
        if id(d) in replayed:
            continue
        replayed.add(id(d))
        if d.rule == CASE_EQ:
            if d.lhs != d.rhs or d.children or d.index is not None:
                return False
            continue
        if not isinstance(d.lhs, SymApp):
            return False
        args = d.lhs.args
        if d.rule == CASE_SUB:
            if d.index is None or not (0 <= d.index < len(args)) or len(d.children) != 1:
                return False
            sub = d.children[0]
            if sub.lhs != args[d.index] or sub.rhs != d.rhs:
                return False
            stack.append(sub)
            continue
        if not isinstance(d.rhs, SymApp):
            return False
        targs = d.rhs.args
        if d.rule == CASE_PREC:
            if not prec.holds(d.lhs.identity, d.rhs.identity):
                return False
            if len(d.children) != len(targs):
                return False
            rest = d.children
        elif d.rule == CASE_LEX:
            if d.lhs.identity != d.rhs.identity or len(args) != len(targs):
                return False
            k = d.index
            if k is None or not (0 <= k < len(args)) or len(d.children) != 1 + len(targs):
                return False
            if any(args[j] != targs[j] for j in range(k)):
                return False
            witness = d.children[0]
            if witness.rule == CASE_EQ or witness.lhs != args[k] or witness.rhs != targs[k]:
                return False
            stack.append(witness)
            rest = d.children[1:]
        else:
            return False
        for c, tj in zip(rest, targs):
            if c.rule == CASE_EQ or c.lhs != d.lhs or c.rhs != tj:
                return False
            stack.append(c)
    return True


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class RuleCert:
    rule_name: str
    status: str  # "certified" | "refused-extended" | "failed"
    derivation: RpoDerivation | None = None
    reason: str | None = None


@dataclass(frozen=True)
class CertReport:
    entries: tuple[RuleCert, ...]
    precedence: Precedence

    @property
    def overall(self) -> bool:
        """True when every non-extended rule is certified.  Extended rules
        are refused (the ordering says nothing about pure) without
        blocking the rest."""
        return all(e.status != "failed" for e in self.entries)

    def entry(self, rule_name: str) -> RuleCert:
        for e in self.entries:
            if e.rule_name == rule_name:
                return e
        raise KeyError(rule_name)

    def text(self) -> str:
        lines = []
        for e in self.entries:
            if e.status == "certified":
                lines.append(f"rule {e.rule_name}: certified")
                lines.append(e.derivation.pretty(1))
            elif e.status == "refused-extended":
                lines.append(f"rule {e.rule_name}: refused-extended ({e.reason})")
            else:
                lines.append(f"rule {e.rule_name}: FAILED ({e.reason})")
        lines.append("overall: " + ("certified" if self.overall else "not certified"))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "overall": self.overall,
            "precedence": [[ident_str(a), ident_str(b)] for a, b in sorted(self.precedence.pairs)],
            "rules": [
                {
                    "name": e.rule_name,
                    "status": e.status,
                    "derivation": e.derivation.to_json() if e.derivation else None,
                    "reason": e.reason,
                }
                for e in self.entries
            ],
        }


def certify_ruleset(prec: Precedence, rules) -> CertReport:
    """Certify every rule under prec.  Overall success means the
    non-extended fragment of the rule set is terminating.  Rules check
    their own shape when built, so every non-extended side is symbolic."""
    memo: dict = {}
    entries = []
    for rule in rules:
        if rule.extended:
            entries.append(
                RuleCert(rule.name, "refused-extended", reason="rule uses pure on the right side")
            )
            continue
        d = _derivation(prec, rule.lhs, rule.rhs, memo)
        if d is None:
            entries.append(
                RuleCert(
                    rule.name,
                    "failed",
                    reason=f"no RPO case applies to {sym_str(rule.lhs)} > {sym_str(rule.rhs)}",
                )
            )
        else:
            entries.append(RuleCert(rule.name, "certified", derivation=d))
    return CertReport(tuple(entries), prec)


# ---------------------------------------------------------------------------
# precedence search


def rule_identities(rules) -> list[Identity]:
    """The symbol identities of the non-extended rules, sorted."""
    return sorted({i for rule in rules if not rule.extended for i in rule.identities})


DEFAULT_SYMBOL_BOUND = 8


def _minimal(alts, known=None) -> list[frozenset]:
    """The sets in alts that contain no other, smallest first.  Given the
    sets known to be consistent, a set outside them is kept only if it is
    consistent, and it is checked only once no smaller set in the result
    is contained in it.  _extensions calls it only on two sets or more:
    it leaves fewer as they are."""
    out: list[frozenset] = []
    for a in sorted(set(alts), key=lambda a: (len(a), sorted(a))):
        if not any(b <= a for b in out) and (known is None or a in known or Precedence.consistent(a)):
            out.append(a)
    return out


_TRUE = [frozenset()]


def _extensions(memo: dict, goal: tuple):
    """Step for the minimal consistent sets of precedence pairs under which
    goal s > t, t a symbol application, holds, smallest first.  The
    ordering is monotone in the precedence, so s > t holds under one
    exactly when it contains one of these sets.  A case that needs no pair
    settles the goal at once, and a case with no set left is dropped.  The
    step looks each subgoal up in memo before yielding it, and stores its
    own value there before it returns.  A subgoal with a variable on the
    right is not yielded: it needs no pair, and holds exactly when its
    variable occurs in its left side.  Nor is one whose right side has a
    variable that its left side lacks: it has no set.

    Consistency is checked only for a union a | b that a conjunction
    forms and that adds pairs to both a and b.  Every other set is
    consistent already: a case's atom pairs two distinct identities, a
    subgoal's sets were checked when they were formed, and a union equal
    to a or b is that set.  So a conjunction of one set with one set forms
    its union and checks that at most, and the last step, over the cases'
    alternatives, only drops supersets, which two sets at least can
    hold."""
    s, t = goal
    alts: list[frozenset] = []
    for _case, _index, atom, goals in _cases(s, t):
        value = _TRUE if atom is None else [frozenset((atom,))]
        for subgoal in goals:
            if type(subgoal[1]) is Var:
                if _above_var(*subgoal):
                    continue
                value = []
                break
            sub = memo.get(subgoal)
            if sub is None:
                sub = (yield subgoal) if free_vars(subgoal[1]) <= free_vars(subgoal[0]) else []
            if value == _TRUE or not sub:
                value = sub
            elif len(value) == len(sub) == 1:
                a, b = value[0], sub[0]
                union = a | b
                value = [union] if union == a or union == b or Precedence.consistent(union) else []
            else:
                value = _minimal([a | b for a in value for b in sub], {*value, *sub})
            if not value:
                break
        if value == _TRUE:
            alts = _TRUE
            break
        alts += value
    memo[goal] = alts = alts if len(alts) < 2 else _minimal(alts)
    return alts


def _orientations(s: Term, t: Term, memo: dict) -> list[frozenset]:
    """The minimal consistent sets of precedence pairs under which s > t
    holds; memo belongs to one call, and its goals run as _extensions
    steps on terms._run_steps.  A goal whose t has a variable that s
    lacks has no set, without a step."""
    if type(t) is Var:
        return _TRUE if _above_var(s, t) else []
    alts = memo.get((s, t))
    if alts is None:
        alts = _run_steps(partial(_extensions, memo), (s, t)) if free_vars(t) <= free_vars(s) else []
    return alts


def search_precedence(rules, max_symbols: int = DEFAULT_SYMBOL_BOUND):
    """Find a precedence under which certify_ruleset passes, or None.

    Exact: each non-extended rule is oriented by one of its minimal
    precedence extensions (_extensions), and a backtracking search picks
    one per rule, fewest choices first, whose union is a strict partial
    order.  The pairs chosen so far are kept as _order's closed masks, one
    bit per identity of rule_identities.  A choice goes onto a copy of
    them, one pair at a time, and only its pairs that the masks do not
    hold yet, one AND each; a choice that adds none is taken as it is.
    The masks of the last choice are the precedence returned; no pair set
    is built unless one is read.  Raises
    SearchBoundError beyond max_symbols symbol identities.
    """
    rules = [r for r in rules if not r.extended]
    ids = rule_identities(rules)
    if len(ids) > max_symbols:
        raise SearchBoundError(
            f"{len(ids)} symbol identities exceed the search bound of {max_symbols}"
        )
    memo: dict = {}
    options = sorted((_orientations(r.lhs, r.rhs, memo) for r in rules), key=len)
    if not options:
        return Precedence()
    bits = {a: k for k, a in enumerate(ids)}
    # one entry per rule chosen so far: the masks before its choice, and
    # the choices for it not yet tried
    stack = [([0] * len(ids), iter(options[0]))]
    while stack:
        below, alts = stack[-1]
        for alt in alts:
            masks = below
            for a, b in alt:
                i, j = bits[a], bits[b]
                if not masks[i] >> j & 1:
                    if masks is below:
                        masks = below.copy()
                    if not _order(masks, i, j):
                        break
            else:
                if len(stack) == len(options):
                    prec = Precedence.__new__(Precedence)
                    prec._bits, prec._below, prec._pairs = bits, masks, None
                    return prec
                stack.append((masks, iter(options[len(stack)])))
                break
        else:
            stack.pop()
    return None
