"""The four benchmark workloads: seeded inputs, one job each, and checks.

Every workload is a closed loop over a fixed *round* of jobs: one job
runs at a time, and a run repeats the round until its time is up.  The
seed chooses the contents of a round (labels, names, small offsets and
the job order); the sizes in a round are fixed, so runs with different
seeds do the same amount of work and stay comparable.

Each check compares a job's output with a reference the benchmark
computes on its own (arithmetic, an interleaving enumerator, the way a
rule system was built, a small type checker), never with another effrew
result.  The one exception the benchmark is asked for is
``validate_derivation``, which replays each RPO derivation.

Library calls go through module attributes (``rewrite.normalize``, ...)
so that the traced run sees them at the names it patches.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass

from effrew import graph, rewrite, rpo, theories
from effrew.terms import Let, Pure, SymApp, Var


@dataclass
class Job:
    kind: str
    payload: object
    expect: object = None
    # n for peano-deep, symbol identities for prec-search
    size: int = 0
    strategy: str = ""
    # a cli-batch check on a deep numeral
    probe: bool = False
    label: str = ""


@dataclass
class Outcome:
    ok: bool
    work: int = 0
    # a deep-input probe that hit the known RecursionError defect
    known_defect: bool = False
    why: str = ""


class Workload:
    name = ""
    work_unit = ""

    def setup(self):
        """Build the theories the jobs run against (what set-up measures)."""
        raise NotImplementedError

    def jobs(self, seed: int, ctx) -> list[Job]:
        raise NotImplementedError

    def execute(self, job: Job, ctx):
        raise NotImplementedError

    def check(self, job: Job, result, error) -> Outcome:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# peano-deep


def _numeral(n: int):
    t = SymApp("fn", "zero", (), ())
    for _ in range(n):
        t = SymApp("fn", "succ", (), (t,))
    return t


def _numeral_value(t) -> int | None:
    n = 0
    while isinstance(t, SymApp) and t.name == "succ" and len(t.args) == 1:
        n += 1
        t = t.args[0]
    if isinstance(t, SymApp) and t.name == "zero" and not t.args:
        return n
    return None


def _geometric_grid(lo: int, hi: int, count: int) -> list[int]:
    ratio = (hi / lo) ** (1 / (count - 1))
    return [round(lo * ratio**i) for i in range(count)]


class PeanoDeep(Workload):
    name = "peano-deep"
    work_unit = "steps"
    # 45 sizes, cheapest first.  The median (22nd from the top) and the
    # 90th percentile (5th from the top) fall on runs of equal sizes, so
    # each is read from many repeats of one job, not from the edge between
    # two.  Sparse above 100 so that a round stays near five seconds.
    GRID = (
        _geometric_grid(4, 22, 20) + [24] * 5 + _geometric_grid(26, 90, 12)
        + [100] * 5 + [120, 150, 200]
    )
    STRATEGIES = ("leftmost-outermost", "rightmost-innermost")

    def setup(self):
        return {"rules": list(theories.builtin("peano").rules)}

    def jobs(self, seed, ctx):
        rng = random.Random(seed)
        out = []
        for i, n in enumerate(self.GRID):
            # the strategies cost differently at the same n, so each grid
            # point keeps its strategy whatever the seed
            m = n - rng.randint(0, n // 32)
            strategy = self.STRATEGIES[i % 2]
            term = SymApp("fn", "plus", (), (_numeral(n), _numeral(m)))
            out.append(Job("plus", term, expect=(n + m, n + 1), size=n, strategy=strategy))
        rng.shuffle(out)
        return out

    def execute(self, job, ctx):
        return rewrite.normalize(job.payload, ctx["rules"], strategy=job.strategy)

    def check(self, job, result, error):
        if error is not None:
            return Outcome(False, why=repr(error))
        nf, trace = result
        value, steps = job.expect
        if _numeral_value(nf) != value:
            return Outcome(False, why=f"normal form is not the numeral {value}")
        if len(trace.steps) != steps:
            return Outcome(False, why=f"{len(trace.steps)} steps, expected {steps}")
        return Outcome(True, work=steps)


# ---------------------------------------------------------------------------
# par-graph

PAR_ALPHABETS = (("a1", "a2"), ("b1", "b2"), ("c1", "c2"))


def _interleavings(seqs: tuple[tuple[str, ...], ...]) -> set[tuple[str, ...]]:
    """Every merge of the sequences that keeps each one's own order."""
    out: set[tuple[str, ...]] = set()

    def go(rest, prefix):
        if all(not s for s in rest):
            out.add(prefix)
            return
        for i, s in enumerate(rest):
            if s:
                go(rest[:i] + (s[1:],) + rest[i + 1 :], prefix + (s[0],))

    go(tuple(seqs), ())
    return out


def _acyclic(g) -> bool:
    indegree = {k: 0 for k in g.nodes}
    succ: dict[str, list[str]] = {k: [] for k in g.nodes}
    for e in g.edges:
        succ[e.src].append(e.dst)
        indegree[e.dst] += 1
    ready = [k for k, d in indegree.items() if d == 0]
    seen = 0
    while ready:
        k = ready.pop()
        seen += 1
        for n in succ[k]:
            indegree[n] -= 1
            if indegree[n] == 0:
                ready.append(n)
    return seen == len(g.nodes)


def _par(a, b):
    return SymApp("eff", "par", (), (a, b))


def _compose(parts, nesting):
    if len(parts) == 2:
        return _par(*parts)
    if nesting == "right":
        return _par(parts[0], _par(parts[1], parts[2]))
    return _par(_par(parts[0], parts[1]), parts[2])


class ParGraph(Workload):
    name = "par-graph"
    work_unit = "graph nodes"
    # (chain lengths, composed under a let, three-way nesting): 25 shapes,
    # so that the median and the 90th percentile fall on one shape's repeats.
    # The nesting changes the graph size, so it is fixed per shape.
    SHAPES = (
        ((2, 2), False, None), ((2, 3), False, None), ((3, 3), False, None),
        ((2, 4), False, None), ((2, 5), False, None), ((3, 4), False, None),
        ((4, 4), False, None), ((3, 5), False, None), ((4, 5), False, None),
        ((5, 5), False, None), ((4, 6), False, None),
        ((1, 1, 1), False, "right"), ((1, 1, 2), False, "left"),
        ((1, 2, 2), False, "right"), ((1, 1, 3), False, "left"),
        ((1, 2, 3), False, "right"), ((2, 2, 2), False, "left"),
        ((2, 2, 3), False, "right"),
        ((1, 2), True, None), ((2, 2), True, None), ((1, 3), True, None),
        ((2, 3), True, None), ((3, 3), True, None),
        ((1, 1, 1), True, "left"), ((1, 1, 2), True, "right"),
    )
    LEAVES = ("v", "w", "u", "p", "q", "r")
    BINDERS = ("x", "y", "z")

    def setup(self):
        effects = tuple((e, 1) for alphabet in PAR_ALPHABETS for e in alphabet)
        return {"rules": list(theories.builtin("par", effects=effects).rules)}

    def jobs(self, seed, ctx):
        rng = random.Random(seed)
        out = []
        for lengths, under_let, nesting in self.SHAPES:
            alphabets = rng.sample(PAR_ALPHABETS, len(lengths))
            seqs = tuple(tuple(rng.choice(a) for _ in range(n)) for n, a in zip(lengths, alphabets))
            leaves = rng.sample(self.LEAVES, len(lengths))
            chains = []
            for seq, leaf in zip(seqs, leaves):
                t = Pure(Var(leaf))
                for label in reversed(seq):
                    t = SymApp("eff", label, (), (t,))
                chains.append(t)
            term = _compose(chains, nesting)
            core = _compose([Pure(Var(leaf)) for leaf in leaves], nesting)
            if under_let:
                # eff-assoc pushes the continuation into both par branches
                x = rng.choice(self.BINDERS)
                term = Let(x, term, Pure(Var(x)))
            count = math.factorial(sum(lengths))
            for n in lengths:
                count //= math.factorial(n)
            out.append(Job("graph", term, expect=(_interleavings(seqs), core, count)))
        rng.shuffle(out)
        return out

    def execute(self, job, ctx):
        return graph.reduction_graph(job.payload, ctx["rules"])

    def check(self, job, g, error):
        if error is not None:
            return Outcome(False, why=repr(error))
        sequences, core, count = job.expect
        if g.truncated:
            return Outcome(False, why="graph truncated")
        if not _acyclic(g):
            return Outcome(False, why="graph has a cycle")
        found = set()
        for t in g.normal_form_terms:
            labels = []
            while isinstance(t, SymApp) and t.name != "par":
                labels.append(t.name)
                t = t.args[0]
            if t != core:
                return Outcome(False, why="normal form does not end in the par of the leaves")
            found.add(tuple(labels))
        if len(g.normal_forms) != count or found != sequences:
            return Outcome(False, why=f"{len(g.normal_forms)} normal forms, expected {count}")
        return Outcome(True, work=len(g.nodes))


# ---------------------------------------------------------------------------
# prec-search

# builtin systems and compositions of them, each orderable by construction:
# every builtin certifies under its declared precedence, and composition
# keeps the union of those precedences
BUILTIN_SYSTEMS = (
    ("global-state",), ("nondet",), ("par",), ("retry",), ("peano",),
    ("global-state", "nondet"), ("global-state", "retry"), ("global-state", "peano"),
    ("nondet", "par"), ("nondet", "retry"), ("nondet", "peano"), ("par", "peano"),
    ("par", "retry"), ("retry", "peano"), ("global-state", "nondet", "retry"),
    ("global-state", "nondet", "peano"), ("global-state", "retry", "peano"),
    ("nondet", "par", "peano"), ("nondet", "retry", "peano"),
)
# 19 builtin systems + 28 chains + 8 cycles = 55 jobs per round, so that
# the median falls among orderable systems and the 90th percentile in the
# middle of the 6-cycles.  No cycle over 8 identities: one such job takes
# 5-9 s, and a single job that long per round left work_per_s spread 14%
# between runs on a noisy host; four 7-cycles carry the same fallback.
CHAIN_SIZES = (4,) * 6 + (5,) * 6 + (6,) * 6 + (7,) * 5 + (8,) * 5
CYCLE_SIZES = (6, 6, 6, 6, 7, 7, 7, 7)
SYMBOL_NAMES = ("f", "g", "h", "k", "p", "q", "r", "s", "t", "w")


def _chain_rules(names, cyclic):
    """s1(x) -> s2(x), ..., s(k-1)(x) -> sk(x), plus sk(x) -> s1(x) if cyclic.
    A chain is ordered by s1 > s2 > ... > sk; a cycle by no precedence."""
    k = len(names)
    x = Var("x")
    return [
        rewrite.make_rule(
            f"step{i}",
            SymApp("fn", names[i], (), (x,)),
            SymApp("fn", names[(i + 1) % k], (), (x,)),
        )
        for i in range(k if cyclic else k - 1)
    ]


class PrecSearch(Workload):
    name = "prec-search"
    work_unit = "verdicts"

    def setup(self):
        built = {n: theories.builtin(n) for n in theories.builtin_names()}
        return {
            "systems": {
                combo: list(theories.compose(*(built[n] for n in combo)).rules)
                for combo in BUILTIN_SYSTEMS
            }
        }

    def jobs(self, seed, ctx):
        rng = random.Random(seed)
        out = [
            Job("search", rules, expect=True, size=len(rpo.rule_identities(rules)),
                label="+".join(combo))
            for combo, rules in ctx["systems"].items()
        ]
        for sizes, cyclic in ((CHAIN_SIZES, False), (CYCLE_SIZES, True)):
            for k in sizes:
                # relabelled: the descending order is not the name order
                names = rng.sample(SYMBOL_NAMES, k)
                out.append(
                    Job("search", _chain_rules(names, cyclic), expect=not cyclic, size=k,
                        label=f"{'cycle' if cyclic else 'chain'}-{k}")
                )
        rng.shuffle(out)
        return out

    def execute(self, job, ctx):
        prec = rpo.search_precedence(job.payload)
        report = rpo.certify_ruleset(prec, job.payload) if prec is not None else None
        return prec, report

    def check(self, job, result, error):
        if error is not None:
            return Outcome(False, why=repr(error))
        prec, report = result
        if (prec is not None) != job.expect:
            return Outcome(False, why=f"{job.label}: verdict {prec is not None}, expected {job.expect}")
        if prec is not None:
            if not report.overall:
                return Outcome(False, why="found precedence does not certify")
            for entry in report.entries:
                if entry.status == "certified" and not rpo.validate_derivation(prec, entry.derivation):
                    return Outcome(False, why=f"derivation for {entry.rule_name} does not replay")
        return Outcome(True, work=1)


# ---------------------------------------------------------------------------
# cli-batch

NAT, VAL = "nat", "val"


def E(t):
    return ("E", t)


def type_text(ty) -> str:
    return f"(E {type_text(ty[1])})" if isinstance(ty, tuple) else ty


# the composed theory, as the generator and the type checker see it:
# effects take any number of E T arguments of the term's own type
CLI_BUILTINS = ("global-state", "nondet", "peano", "retry")
EFFECTS = {"or": ((), 2), "assign": ((0, 1), 1), "get": ((), 2), "request": ((), 3)}
FUNCTIONS = {
    "zero": ((), NAT),
    "succ": ((NAT,), NAT),
    "plus": ((NAT, NAT), NAT),
    "retry": ((NAT, E(NAT)), E(NAT)),
}
FREE_VARS = {"v0": VAL, "v1": VAL, "n0": NAT, "m0": E(VAL), "k0": E(NAT)}
TARGETS = (NAT, E(NAT), E(VAL), E(VAL))
BINDERS = ("x", "y", "z")


class TermGen:
    """Type-directed generator of small well-typed terms, as nested tuples:
    ("var", x) ("lam", x, b) ("app", f, a) ("pure", t) ("let", x, s, b)
    ("eff", name, params, args) ("fn", name, args)."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def gen(self, ty, budget: int, ctx: dict):
        rng = self.rng
        names = [n for n, t in ctx.items() if t == ty]
        if budget <= 1:
            return ("var", rng.choice(names)) if names else ("fn", "zero", ())
        options = [("var", 1)] if names else []
        options.append(("beta", 1))
        if ty == NAT:
            options += [("succ", 3), ("plus", 3), ("zero", 1)]
        elif isinstance(ty, tuple):
            options += [("pure", 2), ("let", 3), ("or", 2), ("assign", 2), ("get", 1), ("request", 1)]
            if ty[1] == NAT:
                options.append(("retry", 2))
        kind = rng.choices([k for k, _ in options], [w for _, w in options])[0]
        rest = budget - 1
        if kind == "var":
            return ("var", rng.choice(names))
        if kind == "zero":
            return ("fn", "zero", ())
        if kind == "succ":
            return ("fn", "succ", (self.gen(NAT, rest, ctx),))
        if kind == "plus":
            left = rng.randint(1, max(1, rest - 1))
            return ("fn", "plus", (self.gen(NAT, left, ctx), self.gen(NAT, max(1, rest - left), ctx)))
        if kind == "beta":
            x = rng.choice(BINDERS)
            dom = rng.choice((NAT, VAL))
            arg_budget = rng.randint(1, max(1, rest // 3))
            body = self.gen(ty, max(1, rest - arg_budget), {**ctx, x: dom})
            return ("app", ("lam", x, body), self.gen(dom, arg_budget, ctx))
        if kind == "pure":
            return ("pure", self.gen(ty[1], rest, ctx))
        if kind == "let":
            x = rng.choice(BINDERS)
            inner = rng.choice((NAT, VAL))
            # small subjects: eff-assoc copies the body into every branch
            left = rng.randint(1, max(1, rest // 3))
            subject = self.gen(E(inner), left, ctx)
            return ("let", x, subject, self.gen(ty, max(1, rest - left), {**ctx, x: inner}))
        if kind == "retry":
            left = rng.randint(1, max(1, rest // 3))
            return ("fn", "retry", (self.gen(NAT, left, ctx), self.gen(ty, max(1, rest - left), ctx)))
        domain, arity = EFFECTS[kind]
        params = (rng.choice(domain),) if domain else ()
        parts = [1] * arity
        for _ in range(max(0, rest - arity)):
            parts[rng.randrange(arity)] += 1
        return ("eff", kind, params, tuple(self.gen(ty, p, ctx) for p in parts))


def term_text(t) -> str:
    tag = t[0]
    if tag == "var":
        return t[1]
    if tag == "lam":
        return f"(lam {t[1]} {term_text(t[2])})"
    if tag == "app":
        return f"(app {term_text(t[1])} {term_text(t[2])})"
    if tag == "pure":
        return f"(pure {term_text(t[1])})"
    if tag == "let":
        return f"(let {t[1]} {term_text(t[2])} {term_text(t[3])})"
    if tag == "eff":
        args = "".join(" " + term_text(a) for a in t[3])
        return f"(eff {t[1]} ({' '.join(map(str, t[2]))}){args})"
    args = "".join(" " + term_text(a) for a in t[2])
    return f"(fn {t[1]}{args})"


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def read_sexpr(text: str):
    """Nested lists of string atoms; None when the text is not one form."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2:
                return None
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        return None
    return stack[0][0]


def _stuck_type(node, ctx):
    """Type of a let subject that no rule can take apart: a variable, or a
    function application such as retry(n0, k0) whose rules do not match."""
    if isinstance(node, str):
        return ctx.get(node)
    if len(node) >= 2 and node[0] == "fn" and node[1] in FUNCTIONS:
        arg_types, result = FUNCTIONS[node[1]]
        if len(node) == 2 + len(arg_types) and all(
            normal_form_has_type(a, at, ctx) for a, at in zip(node[2:], arg_types)
        ):
            return result
    return None


def normal_form_has_type(node, ty, ctx) -> bool:
    """Type check of a printed normal form against the type the generator
    targeted.  The generator only makes lambdas in beta redexes and binds
    no free variable at an arrow type, so a normal form has no lam or app,
    and a let in it can only sequence a stuck subject."""
    if isinstance(node, str):
        return ctx.get(node) == ty
    head = node[0] if node else None
    if head == "pure" and len(node) == 2:
        return isinstance(ty, tuple) and normal_form_has_type(node[1], ty[1], ctx)
    if head == "let" and len(node) == 4 and isinstance(node[1], str):
        subject = _stuck_type(node[2], ctx)
        return (
            isinstance(ty, tuple)
            and isinstance(subject, tuple)
            and normal_form_has_type(node[3], ty, {**ctx, node[1]: subject[1]})
        )
    if head == "eff" and len(node) >= 3 and node[1] in EFFECTS and isinstance(node[2], list):
        domain, arity = EFFECTS[node[1]]
        if domain:
            params_ok = len(node[2]) == 1 and node[2][0] in {str(p) for p in domain}
        else:
            params_ok = node[2] == []
        return (
            isinstance(ty, tuple)
            and params_ok
            and len(node) == 3 + arity
            and all(normal_form_has_type(a, ty, ctx) for a in node[3:])
        )
    if head == "fn" and len(node) >= 2 and node[1] in FUNCTIONS:
        arg_types, result = FUNCTIONS[node[1]]
        return (
            result == ty
            and len(node) == 2 + len(arg_types)
            and all(normal_form_has_type(a, at, ctx) for a, at in zip(node[2:], arg_types))
        )
    return False


class CliBatch(Workload):
    name = "cli-batch"
    work_unit = "commands"
    CHECKS = 120
    NORMALIZES = 130
    # robustness probes: check on a numeral about 1000 deep
    PROBES = 10
    BUDGETS = (4, 6, 8, 10, 12, 14, 16)

    def setup(self):
        import effrew.cli

        # every command builds this stack again; set-up builds it once, as
        # a library user of the same theories would
        theories.compose(*(theories.builtin(n) for n in CLI_BUILTINS))
        return {"cli": effrew.cli}

    def jobs(self, seed, ctx):
        rng = random.Random(seed)
        gen = TermGen(rng)
        flags = [f for name in CLI_BUILTINS for f in ("--builtin", name)]
        var_flags = []
        for name, ty in FREE_VARS.items():
            var_flags += ["--var", f"{name}:{type_text(ty)}"]
        out = []
        for i in range(self.CHECKS + self.NORMALIZES):
            ty = TARGETS[i % len(TARGETS)]
            budget = self.BUDGETS[i % len(self.BUDGETS)]
            term = gen.gen(ty, budget, dict(FREE_VARS))
            text = term_text(term)
            if i < self.CHECKS:
                argv = ["check", *flags, *var_flags, "--term", text]
                out.append(Job("check", argv, expect=ty))
            else:
                strategy = rng.choice(("leftmost-outermost", "rightmost-innermost"))
                argv = ["normalize", *flags, "--strategy", strategy, "--format", "json", "--term", text]
                out.append(Job("normalize", argv, expect=ty, strategy=strategy))
        for _ in range(self.PROBES):
            depth = rng.randint(950, 1050)
            text = "(fn succ " * depth + "(fn zero)" + ")" * depth
            out.append(Job("check", ["check", *flags, "--term", text], expect=NAT, probe=True))
        rng.shuffle(out)
        return out

    def execute(self, job, ctx):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ctx["cli"].main(job.payload)
        return code, out.getvalue(), err.getvalue()

    def check(self, job, result, error):
        if error is not None:
            if job.probe and isinstance(error, RecursionError):
                return Outcome(False, known_defect=True, why="RecursionError on a deep input")
            return Outcome(False, why=repr(error))
        code, out, err = result
        if code != 0:
            return Outcome(False, why=f"exit {code}: {err.strip()[:200]}")
        if job.kind == "check":
            if out.strip() != type_text(job.expect):
                return Outcome(False, why=f"check printed {out.strip()!r}, expected {type_text(job.expect)}")
            return Outcome(True, work=1)
        try:
            reply = json.loads(out)
        except ValueError:
            return Outcome(False, why="normalize printed no JSON")
        nf = read_sexpr(reply.get("normal_form", ""))
        if not isinstance(reply.get("steps"), int) or nf is None:
            return Outcome(False, why="normalize reply lacks a normal form or step count")
        if not normal_form_has_type(nf, job.expect, FREE_VARS):
            return Outcome(False, why=f"normal form {reply['normal_form']} is not a normal form of type {type_text(job.expect)}")
        return Outcome(True, work=1)


WORKLOADS = {w.name: w for w in (PeanoDeep(), ParGraph(), PrecSearch(), CliBatch())}
