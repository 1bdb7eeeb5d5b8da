"""Independent oracles for the expected values frozen into tests.

These deliberately avoid the production code paths they check: normal
form sets come from a recursive closure rather than the BFS graph, the
nesting count re-reads its definition off explicit positions, and so on.
"""

from __future__ import annotations

import itertools

from effrew.rewrite import _ml_contraction, all_redexes, instantiate, match_pattern
from effrew.rpo import Precedence, certify_ruleset, rule_identities
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


def reference_redexes(t: Term, rules) -> list[tuple]:
    """Every redex of t as (position, rule_name, ml, rule_index, reduct),
    found the plain way: one recursive walk for the metalanguage rules and
    one for the user rules, every rule tried at every node, every reduct
    built by recursive splicing, then one sort.  It shares the per-node
    rule logic with the engine (_ml_contraction, match_pattern,
    instantiate); what it checks is the walk, the rule lookup, the order,
    the positions and the reducts."""

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


def brute_force_precedence(rules) -> Precedence | None:
    """The first total order on the rules' symbol identities, in
    itertools.permutations order, under which every non-extended rule
    certifies, or None.  Complete because the ordering is monotone in the
    precedence: if a strict partial order works, so does any total
    extension of it."""
    rules = [r for r in rules if not r.extended]
    for perm in itertools.permutations(rule_identities(rules)):
        prec = Precedence((a, b) for i, a in enumerate(perm) for b in perm[i + 1 :])
        if certify_ruleset(prec, rules).overall:
            return prec
    return None
