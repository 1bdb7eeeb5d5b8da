"""Independent oracles for the expected values frozen into tests.

These deliberately avoid the production code paths they check: normal
form sets come from a recursive closure rather than the BFS graph, the
nesting count re-reads its definition off explicit positions, and so on.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from random import Random

from effrew.rewrite import (
    DEFAULT_FUEL,
    RuleError,
    _ml_contraction,
    all_redexes,
    match_pattern,
)
from effrew.rpo import Precedence, certify_ruleset
from effrew.sexpr import Node, SexprError
from effrew.terms import (
    App,
    Lam,
    Let,
    Pure,
    SymApp,
    Term,
    TermError,
    Var,
    canonical_key,
    children,
    iter_subterms,
    with_children,
)


def naive_normal_forms(t: Term, rules, limit: int = 50_000) -> set[str]:
    """Canonical keys of every normal form reachable from t, by plain
    recursive closure with memoisation."""
    memo: dict[str, set[str]] = {}
    seen = 0

    def go(t: Term) -> set[str]:
        nonlocal seen
        key = canonical_key(t)
        if key in memo:
            return memo[key]
        seen += 1
        if seen > limit:
            raise RuntimeError("oracle exploration limit hit")
        memo[key] = set()  # placeholder; reachable graphs here are acyclic
        redexes = all_redexes(t, rules)
        if not redexes:
            memo[key] = {key}
        else:
            out: set[str] = set()
            for r in redexes:
                out |= go(r.reduct)
            memo[key] = out
        return memo[key]

    return go(t)


def nesting_count_by_positions(t: Term) -> int:
    """Let nodes lying inside the subject subtree of some enclosing let,
    counted straight off the position set."""
    lets = [pos for pos, sub in iter_subterms(t) if isinstance(sub, Let)]
    count = 0
    for pos in lets:
        for anc in lets:
            inside_subject = len(anc) < len(pos) and pos[: len(anc) + 1] == anc + (0,)
            if inside_subject:
                count += 1
                break
    return count


def or_leaves(t: Term) -> list[str]:
    """In-order sequence of non-or leaves of an or tree."""
    if isinstance(t, SymApp) and t.name == "or":
        return or_leaves(t.args[0]) + or_leaves(t.args[1])
    return [canonical_key(t)]


def or_count(t: Term) -> int:
    return count_symbol(t, "or")


def right_nested(t: Term) -> bool:
    """No or node in the first argument of any or node."""
    for _, sub in iter_subterms(t):
        if isinstance(sub, SymApp) and sub.name == "or":
            first = sub.args[0]
            if isinstance(first, SymApp) and first.name == "or":
                return False
    return True


def request_spine_count(t: Term) -> int:
    """Request nodes along the failure spine: follow first arguments from
    the root through request nodes."""
    n = 0
    while isinstance(t, SymApp) and t.name == "request":
        n += 1
        t = t.args[0]
    return n


def count_symbol(t: Term, name: str) -> int:
    return sum(1 for _, sub in iter_subterms(t) if isinstance(sub, SymApp) and sub.name == name)


def reference_canonical_key(t: Term) -> str:
    """The alpha-invariant rendering by plain recursion: binder names
    dropped, bound vars as de Bruijn indices with the innermost binding
    winning, free vars by name."""

    def go(t: Term, env: tuple[str, ...]) -> str:
        if isinstance(t, Var):
            for depth in range(len(env) - 1, -1, -1):
                if env[depth] == t.name:
                    return f"#{len(env) - 1 - depth}"
            return t.name
        if isinstance(t, Lam):
            return f"(lam {go(t.body, env + (t.binder,))})"
        if isinstance(t, App):
            return f"(app {go(t.fun, env)} {go(t.arg, env)})"
        if isinstance(t, Pure):
            return f"(pure {go(t.body, env)})"
        if isinstance(t, Let):
            return f"(let {go(t.subject, env)} {go(t.body, env + (t.binder,))})"
        if isinstance(t, SymApp):
            args = "".join(" " + go(a, env) for a in t.args)
            params = " ".join(str(p) for p in t.params)
            return f"({t.kind} {t.name} ({params}){args})"
        raise TermError(f"not a term: {t!r}")

    return go(t, ())


def instantiate(rhs: Term, bindings: dict[str, Term]) -> Term:
    """Plug matched bindings into a rule right-hand side by plain
    recursion: the reference for a rule's compiled builder.  Right sides
    are binder-free, so this cannot capture."""
    if isinstance(rhs, Var):
        return bindings[rhs.name]
    if isinstance(rhs, SymApp):
        return SymApp(rhs.kind, rhs.name, rhs.params, tuple(instantiate(a, bindings) for a in rhs.args))
    if isinstance(rhs, Pure):
        return Pure(instantiate(rhs.body, bindings))
    raise RuleError(f"rule right side leaves the symbolic fragment: {rhs!r}")


def reference_redexes(t: Term, rules) -> list[tuple]:
    """Every redex of t as (position, rule_name, ml, rule_index, reduct),
    found the plain way: one recursive walk for the metalanguage rules and
    one for the user rules, every rule tried at every node, every reduct
    built by recursive splicing and instantiate, then one sort.  It shares
    the per-node rule logic with the engine (_ml_contraction,
    match_pattern); what it checks is the walk, the rule lookup, the
    order, the positions and the reducts."""

    def walk(t: Term, pos: tuple):
        yield pos, t
        for i, kid in enumerate(children(t)):
            yield from walk(kid, pos + (i,))

    def splice(t: Term, pos: tuple, sub: Term) -> Term:
        if not pos:
            return sub
        kids = list(children(t))
        kids[pos[0]] = splice(kids[pos[0]], pos[1:], sub)
        return with_children(t, tuple(kids))

    out = []
    for pos, sub in walk(t, ()):
        hit = _ml_contraction(sub)
        if hit is not None:
            name, contract = hit
            out.append((pos, name, True, 0, splice(t, pos, contract())))
    for pos, sub in walk(t, ()):
        for idx, rule in enumerate(rules):
            bindings = match_pattern(rule.lhs, sub, rule.value_vars)
            if bindings is not None:
                out.append((pos, rule.name, False, idx, splice(t, pos, instantiate(rule.rhs, bindings))))
    out.sort(key=lambda r: (r[0], not r[2], r[3]))
    return out


def reference_graph(t: Term, rules, fuel: int) -> tuple[list, list, list, bool]:
    """reduction_graph the plain way: a breadth-first search that lists
    each node with reference_redexes and keys every reduct with
    reference_canonical_key, adding at most `fuel` nodes.  Returns the
    node keys in discovery order, the edges as (source, rule name,
    position, target), the keys of the normal forms, and whether a reduct
    was left out for lack of fuel."""
    root = reference_canonical_key(t)
    nodes = {root: t}
    edges, normal = [], []
    queue = deque([root])
    truncated = False
    while queue:
        key = queue.popleft()
        redexes = reference_redexes(nodes[key], rules)
        if not redexes:
            normal.append(key)
        for pos, rule_name, _, _, reduct in redexes:
            dst = reference_canonical_key(reduct)
            if dst not in nodes:
                if len(nodes) >= fuel:
                    truncated = True
                    continue
                nodes[dst] = reduct
                queue.append(dst)
            edges.append((key, rule_name, pos, dst))
    return list(nodes), edges, normal, truncated


def reference_normalize(t: Term, rules, strategy="leftmost-outermost", fuel=DEFAULT_FUEL, seed=None):
    """normalize by a full rescan per step: each step lists every redex of
    the whole current term with all_redexes and contracts one, building
    its reduct from the root.  leftmost-outermost takes the first redex,
    rightmost-innermost the first one at the greatest position, and
    random draws with Random(seed).choice from the listing.  Returns the
    last term, the redexes contracted (each with its source and reduct),
    and whether the fuel ran out with redexes left."""
    rng = Random(seed)
    chosen = []
    current = t
    while True:
        redexes = all_redexes(current, rules)
        if not redexes:
            return current, chosen, False
        if len(chosen) >= fuel:
            return current, chosen, True
        if strategy == "leftmost-outermost":
            redex = redexes[0]
        elif strategy == "rightmost-innermost":
            deepest = redexes[-1].position
            redex = next(r for r in redexes if r.position == deepest)
        else:
            redex = rng.choice(redexes)
        current = redex.reduct
        chosen.append(redex)


def reference_identities(rules) -> list:
    """The symbol identities on both sides of the non-extended rules,
    sorted, by a walk over every subterm."""
    ids = set()
    for rule in rules:
        if rule.extended:
            continue
        for side in (rule.lhs, rule.rhs):
            for _, t in iter_subterms(side):
                if isinstance(t, SymApp):
                    ids.add(t.identity)
    return sorted(ids)


def brute_force_precedence(rules) -> Precedence | None:
    """The first total order on the rules' symbol identities, in
    itertools.permutations order, under which every non-extended rule
    certifies, or None.  Complete because the ordering is monotone in the
    precedence: if a strict partial order works, so does any total
    extension of it."""
    rules = [r for r in rules if not r.extended]
    for perm in itertools.permutations(reference_identities(rules)):
        prec = Precedence((a, b) for i, a in enumerate(perm) for b in perm[i + 1 :])
        if certify_ruleset(prec, rules).overall:
            return prec
    return None


def reference_reach(rules) -> float:
    """How many levels of a subterm, its root being level 1, can decide
    whether some rule applies there, read off the left sides level by
    level: every level that holds a symbol or a value metavariable, and at
    least the two that the metalanguage rules read; infinite when some
    left side repeats a variable."""
    reach = 2
    for rule in rules:
        names = []
        level, row = 1, [rule.lhs]
        while row:
            below = []
            for p in row:
                if type(p) is Var:
                    names.append(p.name)
                    if p.name not in rule.value_vars:
                        continue
                else:
                    below += p.args
                reach = max(reach, level)
            row = below
            level += 1
        if len(set(names)) < len(names):
            return math.inf
    return reach


def reference_exact_vars(rule) -> tuple | None:
    """The variable names of a left side in preorder, by plain recursion,
    if the left side is linear and the rule has no value metavariable,
    else None."""

    def names(p) -> list[str]:
        if isinstance(p, Var):
            return [p.name]
        return [n for a in p.args for n in names(a)]

    found = names(rule.lhs)
    exact = len(set(found)) == len(found) and not rule.value_vars
    return tuple(found) if exact else None


def reference_value_vars(t: Term, inside: bool = False) -> frozenset[str]:
    """The variables of t that occur under a pure, by plain recursion."""
    if isinstance(t, Var):
        return frozenset((t.name,)) if inside else frozenset()
    inside = inside or isinstance(t, Pure)
    out: frozenset[str] = frozenset()
    for k in children(t):
        out |= reference_value_vars(k, inside)
    return out


class _Reader:
    """The s-expression reader one character at a time, by recursive
    descent, with line and column kept up to date as it goes."""

    _DELIMS = "()"
    _WS = " \t\r\n"

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def _peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def _advance(self) -> str:
        ch = self.text[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _skip_blank(self) -> None:
        while True:
            ch = self._peek()
            if ch is not None and ch in self._WS:
                self._advance()
            elif ch == ";":
                while self._peek() not in (None, "\n"):
                    self._advance()
            else:
                return

    def _atom(self) -> "int | str":
        chars = []
        while True:
            ch = self._peek()
            if ch is None or ch in self._WS or ch in self._DELIMS or ch == ";":
                break
            chars.append(self._advance())
        token = "".join(chars)
        body = token[1:] if token[0] in "+-" and len(token) > 1 else token
        if body.isdecimal():
            return int(token)
        return token

    def read(self) -> Node:
        self._skip_blank()
        ch = self._peek()
        if ch is None:
            raise SexprError("unexpected end of input", self.line, self.col)
        if ch == ")":
            raise SexprError("unmatched ')'", self.line, self.col)
        if ch == "(":
            open_line, open_col = self.line, self.col
            self._advance()
            items = []
            while True:
                self._skip_blank()
                nxt = self._peek()
                if nxt is None:
                    raise SexprError("unclosed '('", open_line, open_col)
                if nxt == ")":
                    self._advance()
                    return items
                items.append(self.read())
        return self._atom()

    def at_end(self) -> bool:
        self._skip_blank()
        return self._peek() is None


def reference_parse_one(text: str) -> Node:
    """parse_one by the character reader: one form, then nothing but
    blanks and comments."""
    r = _Reader(text)
    node = r.read()
    if not r.at_end():
        raise SexprError("trailing input after form", r.line, r.col)
    return node


def reference_parse_many(text: str) -> list:
    """parse_many by the character reader."""
    r = _Reader(text)
    out = []
    while not r.at_end():
        out.append(r.read())
    return out
