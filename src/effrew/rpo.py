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
"""

from __future__ import annotations

from dataclasses import dataclass

from .rewrite import is_symbolic
from .terms import Identity, SymApp, Term, ident_str, sym_str

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
    after closure) are rejected."""

    def __init__(self, pairs=()):
        succ: dict[Identity, set] = {}
        for a, b in pairs:
            succ.setdefault(a, set()).add(b)
        closed = set()
        for a in succ:
            reach, stack = set(), [a]
            while stack:
                for b in succ.get(stack.pop(), ()):
                    if b not in reach:
                        reach.add(b)
                        stack.append(b)
            if a in reach:
                raise PrecedenceError(f"precedence is not irreflexive: {ident_str(a)} > {ident_str(a)}")
            closed.update((a, b) for b in reach)
        self._pairs = frozenset(closed)

    @property
    def pairs(self) -> frozenset:
        return self._pairs

    def holds(self, a: Identity, b: Identity) -> bool:
        return (a, b) in self._pairs

    def extended(self, extra) -> "Precedence":
        return Precedence(self._pairs | set(extra))

    @staticmethod
    def consistent(pairs) -> bool:
        try:
            Precedence(pairs)
            return True
        except PrecedenceError:
            return False

    def __eq__(self, other):
        return isinstance(other, Precedence) and self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __repr__(self):
        return f"Precedence({sorted(self._pairs)!r})"

    def display_lines(self) -> list[str]:
        return sorted(f"{ident_str(a)} > {ident_str(b)}" for a, b in self._pairs)


# ---------------------------------------------------------------------------
# derivations


@dataclass(frozen=True)
class RpoDerivation:
    """Evidence for lhs > rhs (or lhs >= rhs when rule is refl-eq).

    Children layout by case:
      case-1-lex        (lex witness at args[index],) + one lhs > rhs.args[j] per j
      case-2-precedence one lhs > rhs.args[j] per j
      case-3-subterm    exactly one lhs.args[index] >= rhs derivation
      refl-eq           none
    """

    lhs: Term
    rhs: Term
    rule: str
    index: int | None = None
    children: tuple["RpoDerivation", ...] = ()

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.rule == CASE_EQ:
            return f"{pad}{sym_str(self.lhs)} = {sym_str(self.rhs)}"
        where = ""
        if self.rule == CASE_LEX:
            where = f", deciding position {self.index}"
        elif self.rule == CASE_SUB:
            where = f", argument {self.index}"
        head = f"{pad}{sym_str(self.lhs)} > {sym_str(self.rhs)}   [{_LABEL[self.rule]}{where}]"
        return "\n".join([head] + [c.pretty(indent + 1) for c in self.children])

    def to_json(self) -> dict:
        return {
            "lhs": sym_str(self.lhs),
            "rhs": sym_str(self.rhs),
            "case": _LABEL[self.rule],
            "rule": self.rule,
            "index": self.index,
            "children": [c.to_json() for c in self.children],
        }


def _check_symbolic(t: Term, side: str) -> None:
    if not is_symbolic(t):
        raise NonSymbolicTermError(f"{side} is not in the symbolic fragment: {sym_str(t)}")


class _Prover:
    """Memoized RPO derivation search for one fixed precedence."""

    def __init__(self, prec: Precedence):
        self.prec = prec
        self.memo: dict[tuple[Term, Term], RpoDerivation | None] = {}

    def greater(self, s: Term, t: Term) -> RpoDerivation | None:
        key = (s, t)
        if key in self.memo:
            return self.memo[key]
        result = self._compute(s, t)
        self.memo[key] = result
        return result

    def geq(self, s: Term, t: Term) -> RpoDerivation | None:
        if s == t:
            return RpoDerivation(s, t, CASE_EQ)
        return self.greater(s, t)

    def _compute(self, s: Term, t: Term) -> RpoDerivation | None:
        if not isinstance(s, SymApp):
            return None  # variables are minimal
        # RPO(3): a subterm already dominates t
        for i, arg in enumerate(s.args):
            sub = self.geq(arg, t)
            if sub is not None:
                return RpoDerivation(s, t, CASE_SUB, index=i, children=(sub,))
        if not isinstance(t, SymApp):
            return None
        if s.identity == t.identity and len(s.args) == len(t.args):
            # RPO(1): same head, lexicographic descent on the arguments
            lex = self._lex(s.args, t.args)
            if lex is None:
                return None
            case, index, first = CASE_LEX, lex[0], (lex[1],)
        elif self.prec.holds(s.identity, t.identity):
            # RPO(2): head precedence
            case, index, first = CASE_PREC, None, ()
        else:
            return None
        # both cases also need s > tj for every j
        rest = []
        for tj in t.args:
            d = self.greater(s, tj)
            if d is None:
                return None
            rest.append(d)
        return RpoDerivation(s, t, case, index=index, children=(*first, *rest))

    def _lex(self, ss, ts) -> tuple[int, RpoDerivation] | None:
        """First strictly decreasing position after a syntactically equal
        prefix, with its witness derivation."""
        for i, (a, b) in enumerate(zip(ss, ts)):
            if a == b:
                continue
            d = self.greater(a, b)
            return None if d is None else (i, d)
        return None


def rpo_greater(prec: Precedence, s: Term, t: Term) -> RpoDerivation | None:
    """Derivation for s > t under prec, or None.  Both terms must be in
    the symbolic fragment."""
    _check_symbolic(s, "left term")
    _check_symbolic(t, "right term")
    return _Prover(prec).greater(s, t)


def rpo_geq(prec: Precedence, s: Term, t: Term) -> RpoDerivation | None:
    _check_symbolic(s, "left term")
    _check_symbolic(t, "right term")
    return _Prover(prec).geq(s, t)


def lex_greater(prec: Precedence, ss, ts) -> bool:
    """Strict lexicographic extension over equal-length tuples."""
    ss, ts = tuple(ss), tuple(ts)
    if len(ss) != len(ts):
        raise ValueError(f"lexicographic comparison needs equal lengths, got {len(ss)} and {len(ts)}")
    for a in ss:
        _check_symbolic(a, "left tuple entry")
    for b in ts:
        _check_symbolic(b, "right tuple entry")
    return _Prover(prec)._lex(ss, ts) is not None


def validate_derivation(prec: Precedence, d: RpoDerivation) -> bool:
    """Replay a derivation against the definition, node by node."""
    if d.rule == CASE_EQ:
        return d.lhs == d.rhs and not d.children and d.index is None
    if not isinstance(d.lhs, SymApp):
        return False
    args = d.lhs.args
    if d.rule == CASE_SUB:
        if d.index is None or not (0 <= d.index < len(args)) or len(d.children) != 1:
            return False
        sub = d.children[0]
        return sub.lhs == args[d.index] and sub.rhs == d.rhs and validate_derivation(prec, sub)
    if not isinstance(d.rhs, SymApp):
        return False
    targs = d.rhs.args
    if d.rule == CASE_PREC:
        if not prec.holds(d.lhs.identity, d.rhs.identity):
            return False
        if len(d.children) != len(targs):
            return False
        return all(
            c.rule != CASE_EQ and c.lhs == d.lhs and c.rhs == tj and validate_derivation(prec, c)
            for c, tj in zip(d.children, targs)
        )
    if d.rule == CASE_LEX:
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
        if not validate_derivation(prec, witness):
            return False
        return all(
            c.rule != CASE_EQ and c.lhs == d.lhs and c.rhs == tj and validate_derivation(prec, c)
            for c, tj in zip(d.children[1:], targs)
        )
    return False


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
    prover = _Prover(prec)
    entries = []
    for rule in rules:
        if rule.extended:
            entries.append(
                RuleCert(rule.name, "refused-extended", reason="rule uses pure on the right side")
            )
            continue
        d = prover.greater(rule.lhs, rule.rhs)
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


def _minimal(alts) -> list[frozenset]:
    """The consistent sets in alts that contain no other, smallest first."""
    out: list[frozenset] = []
    for a in sorted(set(alts), key=lambda a: (len(a), sorted(a))):
        if not any(b <= a for b in out) and Precedence.consistent(a):
            out.append(a)
    return out


def _orient(s: Term, t: Term, memo: dict) -> list[frozenset]:
    """Minimal consistent sets of precedence pairs under which s > t holds,
    following _Prover._compute case by case.  The ordering is monotone in
    the precedence, so s > t holds under one exactly when it contains one
    of these sets."""
    if (s, t) in memo:
        return memo[s, t]
    alts: list[frozenset] = []
    if isinstance(s, SymApp):
        for arg in s.args:  # RPO(3)
            alts += [frozenset()] if arg == t else _orient(arg, t, memo)
        if isinstance(t, SymApp):
            head: list[frozenset] = []
            if s.identity == t.identity and len(s.args) == len(t.args):
                diff = next(((a, b) for a, b in zip(s.args, t.args) if a != b), None)
                head = [] if diff is None else _orient(*diff, memo)  # RPO(1)
            elif s.identity != t.identity:
                head = [frozenset({(s.identity, t.identity)})]  # RPO(2)
            for tj in t.args:
                head = _minimal([a | b for a in head for b in _orient(s, tj, memo)])
            alts += head
    memo[s, t] = result = _minimal(alts)
    return result


def search_precedence(rules, max_symbols: int = DEFAULT_SYMBOL_BOUND):
    """Find a precedence under which certify_ruleset passes, or None.

    Exact: each non-extended rule is oriented by one of its minimal
    precedence extensions (_orient), and a backtracking search picks one
    per rule, fewest choices first, whose union is a strict partial
    order.  Raises SearchBoundError beyond max_symbols symbol identities.
    """
    rules = [r for r in rules if not r.extended]
    ids = rule_identities(rules)
    if len(ids) > max_symbols:
        raise SearchBoundError(
            f"{len(ids)} symbol identities exceed the search bound of {max_symbols}"
        )
    memo: dict = {}
    options = sorted((_orient(r.lhs, r.rhs, memo) for r in rules), key=len)

    def pick(i: int, pairs: frozenset):
        if i == len(options):
            yield Precedence(pairs)
        else:
            for alt in options[i]:
                if Precedence.consistent(pairs | alt):
                    yield from pick(i + 1, pairs | alt)

    return next(pick(0, frozenset()), None)
