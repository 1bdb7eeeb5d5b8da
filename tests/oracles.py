"""Independent oracles for the expected values frozen into tests.

These deliberately avoid the production code paths they check: normal
form sets come from a recursive closure rather than the BFS graph, the
nesting count re-reads its definition off explicit positions, and so on.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from operator import is_
from random import Random

from effrew.rewrite import (
    DEFAULT_FUEL,
    RuleError,
    _ml_contraction,
    all_redexes,
    match_pattern,
)
from effrew.rpo import (
    _LABEL,
    CASE_EQ,
    CASE_LEX,
    CASE_PREC,
    CASE_SUB,
    DEFAULT_SYMBOL_BOUND,
    Precedence,
    PrecedenceError,
    RpoDerivation,
    SearchBoundError,
)
from effrew.parser import ParseError
from effrew.sexpr import Node, SexprError
from effrew.signature import EffectDecl, SignatureError, check_symapp
from effrew.terms import (
    App,
    Arrow,
    Base,
    Eff,
    Lam,
    Let,
    Pure,
    SymApp,
    Term,
    TermError,
    TVar,
    Var,
    _run_steps,
    canonical_key,
    children,
    fresh_name,
    ident_str,
    iter_subterms,
    print_term,
    with_children,
)
from effrew.typecheck import TypingError


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
    winning, free vars by name with a leading # doubled."""

    def go(t: Term, env: tuple[str, ...]) -> str:
        if isinstance(t, Var):
            for depth in range(len(env) - 1, -1, -1):
                if env[depth] == t.name:
                    return f"#{len(env) - 1 - depth}"
            return "#" + t.name if t.name.startswith("#") else t.name
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


def reference_free_vars(t: Term) -> frozenset[str]:
    """The free variables of t by one walk of its whole tree expansion,
    with no cache: a binder's body is pushed last, so it is popped next,
    and under it the binder's boxed name, which ends its scope when
    popped; bound counts by name the binders in scope."""
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


def reference_substitute(t: Term, var: str, repl: Term, binders: list | None = None) -> Term:
    """substitute as it stood before it carried a renaming map: one
    substitution of repl for var at a time, where a binder that would
    capture is renamed by a nested substitution of the new name for the old
    one in its body, which the outer one then walks again.  Each walks the
    tree expansion of its term.  A subterm left unchanged comes back as the
    same object.  If binders is a list, each binder node that a
    substitution rebuilds is appended to it as (old node, new node, whether
    the binder was renamed), in the order they are built."""

    def step(job: tuple):
        t, var, repl = job
        repl_fv = reference_free_vars(repl)
        done: list[Term] = []
        # items: a term to substitute into; (term,), a term kept as it is;
        # or (node, binder, n), rebuild node under binder from the last n
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
                if binders is not None and binder is not None:
                    binders.append((node, done[-1], binder != node.binder))
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
                    body_fv = reference_free_vars(body)
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

    return _run_steps(step, (t, var, repl))


def renames_may_differ(t: Term, binders: list) -> bool:
    """Whether the renames that reference_substitute made in t, listed in
    binders, are of a kind a one-pass substitution may name otherwise: a
    binder of t renamed twice, or renamed to the old name of a binder above
    it that was renamed too.  Each nested rename sees the names that the
    substitutions applied before it have left; one pass sees the whole map
    at once."""
    # each rebuilt binder node traced back to its node in t, with the
    # number of renames on the way
    origin: dict[int, tuple] = {}
    new_names: dict[int, set[str]] = {}
    for old, new, renamed in binders:
        node, n = origin.get(id(old), (old, 0))
        if renamed:
            if n:
                return True
            new_names.setdefault(id(node), set()).add(new.binder)
        origin[id(new)] = (node, n + renamed)
    # t walked with the old names of the renamed binders above each node
    stack: list = [(t, frozenset())]
    while stack:
        u, above = stack.pop()
        names = new_names.get(id(u), ())
        if any(n in above for n in names):
            return True
        kids = children(u)
        if type(u) is Lam or type(u) is Let:
            inner = above | {u.binder} if names else above
            stack += [(k, above) for k in kids[:-1]] + [(kids[-1], inner)]
        else:
            stack += [(k, above) for k in kids]
    return False


def reference_replace_at(t: Term, pos: tuple, sub: Term) -> Term:
    """replace_at as it stood before it spliced tuples: walk down to pos,
    then rebuild the path bottom-up, each node from a copied list of its
    children through with_children."""
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


def reference_build(rhs: Term, bindings: dict[str, Term]) -> Term:
    """instantiate by an explicit stack, for right sides too deep for
    recursion: a node is pushed again, marked, under its children, and
    rebuilt from their values when it pops marked."""
    done: list[Term] = []
    stack: list = [(rhs, False)]
    while stack:
        t, ready = stack.pop()
        if isinstance(t, Var):
            done.append(bindings[t.name])
        elif not isinstance(t, (SymApp, Pure)):
            raise RuleError(f"rule right side leaves the symbolic fragment: {t!r}")
        elif not ready:
            stack.append((t, True))
            stack += [(k, False) for k in reversed(children(t))]
        elif isinstance(t, Pure):
            done.append(Pure(done.pop()))
        else:
            n = len(t.args)
            args = tuple(done[len(done) - n :])
            del done[len(done) - n :]
            done.append(SymApp(t.kind, t.name, t.params, args))
    return done[0]


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
    has a derivation from the reference prover, or None.  Complete
    because the ordering is monotone in the precedence: if a strict
    partial order works, so does any total extension of it."""
    rules = [r for r in rules if not r.extended]
    for perm in itertools.permutations(reference_identities(rules)):
        prec = Precedence((a, b) for i, a in enumerate(perm) for b in perm[i + 1 :])
        prover = _Prover(prec)
        if all(prover.greater(r.lhs, r.rhs) is not None for r in rules):
            return prec
    return None


class _Prover:
    """Memoized RPO derivation search for one fixed precedence, by plain
    recursion over the cases: the reference for rpo._derive."""

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


def reference_consistent(pairs) -> bool:
    """Whether pairs extend to a strict partial order, by building their
    transitive closure: the reference for Precedence.consistent."""
    try:
        Precedence(pairs)
        return True
    except PrecedenceError:
        return False


def reference_minimal(alts) -> list[frozenset]:
    """The consistent sets in alts that contain no other, smallest first.
    Every set is checked with reference_consistent."""
    out: list[frozenset] = []
    for a in sorted(set(alts), key=lambda a: (len(a), sorted(a))):
        if reference_consistent(a) and not any(b <= a for b in out):
            out.append(a)
    return out


def _orient(s: Term, t: Term, memo: dict) -> list[frozenset]:
    """Minimal consistent sets of precedence pairs under which s > t holds,
    following _Prover._compute case by case.  The ordering is monotone in
    the precedence, so s > t holds under one exactly when it contains one
    of these sets.  The reference for rpo._extensions."""
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
                head = reference_minimal([a | b for a in head for b in _orient(s, tj, memo)])
            alts += head
    memo[s, t] = result = reference_minimal(alts)
    return result


def reference_search_precedence(rules, max_symbols: int = DEFAULT_SYMBOL_BOUND):
    """search_precedence with _orient and a recursive backtracking pick,
    which checks every choice with reference_consistent."""
    rules = [r for r in rules if not r.extended]
    ids = reference_identities(rules)
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
                if reference_consistent(pairs | alt):
                    yield from pick(i + 1, pairs | alt)

    return next(pick(0, frozenset()), None)


def reference_pretty(d: RpoDerivation, indent: int = 0) -> str:
    """RpoDerivation.pretty by plain recursion."""
    pad = "  " * indent
    if d.rule == CASE_EQ:
        return f"{pad}{reference_sym_str(d.lhs)} = {reference_sym_str(d.rhs)}"
    where = ""
    if d.rule == CASE_LEX:
        where = f", deciding position {d.index}"
    elif d.rule == CASE_SUB:
        where = f", argument {d.index}"
    head = f"{pad}{reference_sym_str(d.lhs)} > {reference_sym_str(d.rhs)}   [{_LABEL[d.rule]}{where}]"
    return "\n".join([head] + [reference_pretty(c, indent + 1) for c in d.children])


def reference_derivation_json(d: RpoDerivation) -> dict:
    """RpoDerivation.to_json by plain recursion."""
    return {
        "lhs": reference_sym_str(d.lhs),
        "rhs": reference_sym_str(d.rhs),
        "case": _LABEL[d.rule],
        "rule": d.rule,
        "index": d.index,
        "children": [reference_derivation_json(c) for c in d.children],
    }


def reference_derivation_repr(d: RpoDerivation) -> str:
    """repr of a derivation as the generated dataclass repr spells it, by
    plain recursion."""
    kids = ", ".join(reference_derivation_repr(c) for c in d.children)
    if len(d.children) == 1:
        kids += ","
    return (
        f"RpoDerivation(lhs={d.lhs!r}, rhs={d.rhs!r}, rule={d.rule!r}, "
        f"index={d.index!r}, children=({kids}))"
    )


def reference_sym_str(t: Term) -> str:
    """sym_str of a symbolic term by plain recursion."""
    if isinstance(t, Var):
        return t.name
    return ident_str(t.identity) + "(" + ", ".join(reference_sym_str(a) for a in t.args) + ")"


def reference_certify(prec: Precedence, rules) -> tuple[str, dict]:
    """The text and JSON of certify_ruleset's report, from _Prover's
    derivations and the recursive renderers."""
    prover = _Prover(prec)
    lines, entries, overall = [], [], True
    for rule in rules:
        entry = {"name": rule.name, "status": "certified", "derivation": None, "reason": None}
        if rule.extended:
            entry["status"] = "refused-extended"
            entry["reason"] = "rule uses pure on the right side"
            lines.append(f"rule {rule.name}: refused-extended ({entry['reason']})")
        elif (d := prover.greater(rule.lhs, rule.rhs)) is None:
            overall = False
            entry["status"] = "failed"
            entry["reason"] = (
                f"no RPO case applies to {reference_sym_str(rule.lhs)} > {reference_sym_str(rule.rhs)}"
            )
            lines.append(f"rule {rule.name}: FAILED ({entry['reason']})")
        else:
            entry["derivation"] = reference_derivation_json(d)
            lines += [f"rule {rule.name}: certified", reference_pretty(d, 1)]
        entries.append(entry)
    lines.append("overall: " + ("certified" if overall else "not certified"))
    blob = {
        "overall": overall,
        "precedence": [[ident_str(a), ident_str(b)] for a, b in sorted(prec.pairs)],
        "rules": entries,
    }
    return "\n".join(lines), blob


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


def reference_build_term(node, sig) -> Term:
    """parser.build_term by plain recursive descent: each form is checked
    when it is reached, its parts are built left to right, and a symbol
    application is checked against sig after its arguments."""

    def ident(node, what: str) -> str:
        if not isinstance(node, str):
            raise ParseError(f"expected {what}, got {node!r}")
        return node

    if isinstance(node, str):
        return Var(node)
    if isinstance(node, int):
        raise ParseError(f"bare integer {node} is not a term")
    if not isinstance(node, list) or not node:
        raise ParseError("empty form is not a term")
    head = node[0]
    if head == "lam":
        if len(node) != 3:
            raise ParseError("(lam ident term) takes two parts")
        return Lam(ident(node[1], "binder"), reference_build_term(node[2], sig))
    if head == "app":
        if len(node) != 3:
            raise ParseError("(app term term) takes two parts")
        return App(reference_build_term(node[1], sig), reference_build_term(node[2], sig))
    if head == "pure":
        if len(node) != 2:
            raise ParseError("(pure term) takes one part")
        return Pure(reference_build_term(node[1], sig))
    if head == "let":
        if len(node) != 4:
            raise ParseError("(let ident term term) takes three parts")
        return Let(ident(node[1], "binder"), reference_build_term(node[2], sig), reference_build_term(node[3], sig))
    if head == "eff":
        if len(node) < 3 or not isinstance(node[2], list):
            raise ParseError("(eff ident (param*) term*) needs a parameter list")
        name = ident(node[1], "effect name")
        params = []
        for p in node[2]:
            if isinstance(p, list):
                raise ParseError(f"parameter of {name} must be an integer or ident")
            params.append(p)
        args = tuple(reference_build_term(a, sig) for a in node[3:])
        term = SymApp("eff", name, tuple(params), args)
        check_symapp(sig, term)
        return term
    if head == "fn":
        if len(node) < 2:
            raise ParseError("(fn ident term*) needs a symbol name")
        name = ident(node[1], "function name")
        args = tuple(reference_build_term(a, sig) for a in node[2:])
        term = SymApp("fn", name, (), args)
        check_symapp(sig, term)
        return term
    raise ParseError(f"unknown form head: {head!r}")


def reference_type_str(ty) -> str:
    """terms.type_str by plain recursion."""
    if isinstance(ty, Base):
        return ty.name
    if isinstance(ty, Eff):
        return f"(E {reference_type_str(ty.inner)})"
    if isinstance(ty, Arrow):
        return f"(-> {reference_type_str(ty.dom)} {reference_type_str(ty.cod)})"
    if isinstance(ty, TVar):
        letter = chr(ord("a") + ty.index % 26)
        suffix = ty.index // 26
        return "'" + letter + (str(suffix) if suffix else "")
    raise TermError(f"not a type: {ty!r}")


class _ReferenceUnifier:
    """typecheck.Unifier by plain recursion: unify compares whole types
    with ==, and calls itself with its arguments swapped to bind a
    variable on the right."""

    def __init__(self):
        self.subst: dict = {}
        self.counter = 0

    def fresh(self) -> TVar:
        self.counter += 1
        return TVar(self.counter - 1)

    def walk(self, ty):
        while isinstance(ty, TVar) and ty.index in self.subst:
            ty = self.subst[ty.index]
        return ty

    def resolve(self, ty):
        ty = self.walk(ty)
        if isinstance(ty, Eff):
            return Eff(self.resolve(ty.inner))
        if isinstance(ty, Arrow):
            return Arrow(self.resolve(ty.dom), self.resolve(ty.cod))
        return ty

    def occurs(self, idx: int, ty) -> bool:
        ty = self.walk(ty)
        if isinstance(ty, TVar):
            return ty.index == idx
        if isinstance(ty, Eff):
            return self.occurs(idx, ty.inner)
        if isinstance(ty, Arrow):
            return self.occurs(idx, ty.dom) or self.occurs(idx, ty.cod)
        return False

    def unify(self, a, b, why) -> None:
        a, b = self.walk(a), self.walk(b)
        if a == b:
            return
        if isinstance(a, TVar):
            if self.occurs(a.index, b):
                raise TypingError(f"{why()}: circular type")
            self.subst[a.index] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a, why)
            return
        if isinstance(a, Eff) and isinstance(b, Eff):
            self.unify(a.inner, b.inner, why)
            return
        if isinstance(a, Arrow) and isinstance(b, Arrow):
            self.unify(a.dom, b.dom, why)
            self.unify(a.cod, b.cod, why)
            return
        raise TypingError(
            f"{why()}: {reference_type_str(self.resolve(a))} does not match {reference_type_str(self.resolve(b))}"
        )


def _reference_canonical_type(ty):
    mapping: dict = {}

    def go(ty):
        if isinstance(ty, TVar):
            if ty.index not in mapping:
                mapping[ty.index] = len(mapping)
            return TVar(mapping[ty.index])
        if isinstance(ty, Eff):
            return Eff(go(ty.inner))
        if isinstance(ty, Arrow):
            return Arrow(go(ty.dom), go(ty.cod))
        return ty

    return go(ty)


def _reference_infer(t: Term, ctx: dict, uni: _ReferenceUnifier, sig):
    """typecheck._infer by plain recursion, with a copy of the context at
    each binder."""
    if isinstance(t, Var):
        if t.name not in ctx:
            raise TypingError(f"unbound variable: {t.name}")
        return ctx[t.name]
    if isinstance(t, Lam):
        a = uni.fresh()
        return Arrow(a, _reference_infer(t.body, {**ctx, t.binder: a}, uni, sig))
    if isinstance(t, App):
        fun = _reference_infer(t.fun, ctx, uni, sig)
        arg = _reference_infer(t.arg, ctx, uni, sig)
        res = uni.fresh()
        uni.unify(fun, Arrow(arg, res), lambda: f"in application {print_term(t)}")
        return res
    if isinstance(t, Pure):
        return Eff(_reference_infer(t.body, ctx, uni, sig))
    if isinstance(t, Let):
        subject = _reference_infer(t.subject, ctx, uni, sig)
        a = uni.fresh()
        uni.unify(subject, Eff(a), lambda: f"let subject {print_term(t.subject)} must have an effect type")
        body = _reference_infer(t.body, {**ctx, t.binder: a}, uni, sig)
        res = uni.fresh()
        uni.unify(body, Eff(res), lambda: f"let body {print_term(t.body)} must have an effect type")
        return Eff(res)
    if isinstance(t, SymApp):
        try:
            decl = check_symapp(sig, t)
        except SignatureError as e:
            raise TypingError(str(e)) from e
        if isinstance(decl, EffectDecl):
            common = uni.fresh()
            for i, arg in enumerate(t.args):
                got = _reference_infer(arg, ctx, uni, sig)
                uni.unify(got, Eff(common), lambda: f"argument {i} of {ident_str(t.identity)} disagrees with the others")
            return Eff(common)
        for i, arg in enumerate(t.args):
            got = _reference_infer(arg, ctx, uni, sig)
            uni.unify(got, decl.arg_types[i], lambda: f"argument {i} of {t.name}")
        return decl.result
    raise TypingError(f"not a term: {t!r}")


def reference_infer_type(ctx, t: Term, sig):
    """typecheck.infer_type by plain recursion."""
    uni = _ReferenceUnifier()
    return _reference_canonical_type(uni.resolve(_reference_infer(t, dict(ctx), uni, sig)))


def reference_infer_rule_types(sig, lhs: Term, rhs: Term, rule_vars):
    """typecheck.infer_rule_types by plain recursion."""
    uni = _ReferenceUnifier()
    ctx = {v: uni.fresh() for v in sorted(rule_vars)}
    try:
        lt = _reference_infer(lhs, ctx, uni, sig)
    except TypingError as e:
        raise TypingError(f"left side {print_term(lhs)}: {e}") from e
    try:
        rt = _reference_infer(rhs, ctx, uni, sig)
    except TypingError as e:
        raise TypingError(f"right side {print_term(rhs)}: {e}") from e
    uni.unify(lt, rt, lambda: f"rule sides {print_term(lhs)} and {print_term(rhs)} must share a type")
    return _reference_canonical_type(uni.resolve(lt)), _reference_canonical_type(uni.resolve(rt))
