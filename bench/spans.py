"""In-memory span tracer that wraps effrew's public functions from outside.

Only the traced benchmark process installs it.  Each wrapped function is
patched at every name a caller looks it up by (``effrew.graph.all_redexes``,
``effrew.rewrite.match_pattern``, ...).  While the outermost call of a
function runs, all of its names point back at the original, so recursive
calls neither open spans nor add stack frames: only the outermost entry
is timed and counted.

Every span records its name, start, end, parent span and job id.  Self
time (a span's duration minus its child spans) is accumulated online per
span name, so per-layer totals need no stored spans.  Stored spans are
capped to bound memory; the overflow is still counted in every total and
reported as dropped when the spans are written out.
"""

from __future__ import annotations

import gzip
import os
from array import array
from time import perf_counter

import effrew.cli
import effrew.graph
import effrew.parser
import effrew.rewrite
import effrew.rpo
import effrew.sexpr
import effrew.signature
import effrew.terms
import effrew.theories
import effrew.typecheck

MODULES = (
    effrew.cli,
    effrew.graph,
    effrew.parser,
    effrew.rewrite,
    effrew.rpo,
    effrew.sexpr,
    effrew.signature,
    effrew.terms,
    effrew.theories,
    effrew.typecheck,
)

JOB = "job"
STORED_SPAN_CAP = 200_000


def _term_nodes(t) -> int:
    """Node count without recursion, so deep terms cannot overflow the stack."""
    n = 0
    stack = [t]
    children = effrew.terms.children
    while stack:
        n += 1
        stack.extend(children(stack.pop()))
    return n


def _graph_counts(tracer, g) -> None:
    tracer.count["graph.nodes"] += len(g.nodes)
    tracer.count["graph.edges"] += len(g.edges)
    tracer.count["graph.dedup_hits"] += len(g.edges) - (len(g.nodes) - 1)
    tracer.count["rewrite.steps"] += len(g.edges)


def _normalize_counts(tracer, result) -> None:
    tracer.count["rewrite.steps"] += len(result[1].steps)


def _scan_counts(tracer, redexes) -> None:
    tracer.count["rewrite.redexes_built"] += len(redexes)


def _match_counts(tracer, bindings) -> None:
    if bindings is not None:
        tracer.count["rewrite.match_hits"] += 1


def _parse_counts(tracer, term) -> None:
    tracer.count["parser.nodes"] += _term_nodes(term)


def _search_name(prec) -> str:
    return "rpo.search_found" if prec is not None else "rpo.search_none"


# (defining module, function name, span name, hook on the result,
#  span name chosen from the result)
WRAPPED = (
    (effrew.sexpr, "parse_one", "sexpr.read", None, None),
    (effrew.sexpr, "parse_many", "sexpr.read", None, None),
    (effrew.parser, "parse_term", "parser.parse", _parse_counts, None),
    (effrew.parser, "build_term", "parser.build", None, None),
    (effrew.parser, "parse_type", "parser.parse_type", None, None),
    (effrew.signature, "check_symapp", "signature.check", None, None),
    (effrew.typecheck, "infer_type", "typecheck.infer", None, None),
    (effrew.typecheck, "infer_rule_types", "typecheck.rule_infer", None, None),
    (effrew.terms, "print_term", "terms.print", None, None),
    (effrew.terms, "substitute", "terms.substitute", None, None),
    (effrew.terms, "replace_at", "terms.replace_at", None, None),
    (effrew.terms, "canonical_key", "terms.canonical_key", None, None),
    (effrew.rewrite, "all_redexes", "rewrite.scan", _scan_counts, None),
    (effrew.rewrite, "match_pattern", "rewrite.match", _match_counts, None),
    (effrew.rewrite, "normalize", "rewrite.normalize", _normalize_counts, None),
    (effrew.rewrite, "make_rule", "rewrite.make_rule", None, None),
    (effrew.graph, "reduction_graph", "graph.explore", _graph_counts, None),
    (effrew.rpo, "search_precedence", "rpo.search", None, _search_name),
    (effrew.rpo, "certify_ruleset", "rpo.certify", None, None),
    (effrew.rpo, "validate_derivation", "rpo.validate", None, None),
    (effrew.theories, "builtin", "theories.build", None, None),
    (effrew.theories, "compose", "theories.build", None, None),
    (effrew.cli, "main", "cli.main", None, None),
)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Span recorder.  ``install`` patches effrew, ``uninstall`` restores it;
    spans are only opened between ``begin_job`` and ``end_job``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._name_id(JOB)
        self.count: dict[str, int] = {
            "graph.nodes": 0,
            "graph.edges": 0,
            "graph.dedup_hits": 0,
            "rewrite.steps": 0,
            "rewrite.redexes_built": 0,
            "rewrite.match_hits": 0,
            "rewrite.nodes_scanned": 0,
            "parser.nodes": 0,
        }
        self.jobs = 0
        # open spans: [child seconds, span id]
        self._stack: list[list] = []
        self._job: int | None = None
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.s_id = array("q")
        self.s_name = array("H")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("q")
        self.s_job = array("q")
        self.dropped = 0

    # -- span bookkeeping ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
            self.incl_s[name] = 0.0
            self.calls[name] = 0
        return idx

    def _open(self) -> list:
        span = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(span)
        return span

    def _close(self, span: list, name: str, start: float, end: float) -> None:
        name_id = self._name_id(name)
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][0] += duration
            parent = self._stack[-1][1]
        else:
            parent = -1
        self.self_s[name] += duration - span[0]
        self.incl_s[name] += duration
        self.calls[name] += 1
        if len(self.s_start) < STORED_SPAN_CAP:
            self.s_id.append(span[1])
            self.s_name.append(name_id)
            self.s_start.append(start)
            self.s_end.append(end)
            self.s_parent.append(parent)
            self.s_job.append(self._job)
        else:
            self.dropped += 1

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._job_span = self._open()
        self._job_start = perf_counter()

    def end_job(self) -> float:
        end = perf_counter()
        # every wrapper closes its span on return and on raise, so the job
        # span is on top of the stack here
        self._close(self._job_span, JOB, self._job_start, end)
        self._job = None
        self.jobs += 1
        return end - self._job_start

    # -- patching -----------------------------------------------------------

    def _wrap(self, orig, span_name: str, bindings, hook, namer):
        tracer = self

        def restore():
            for mod, attr in bindings:
                setattr(mod, attr, orig)

        def repatch():
            for mod, attr in bindings:
                setattr(mod, attr, wrapper)

        def wrapper(*args, **kwargs):
            restore()
            try:
                if tracer._job is None:
                    return orig(*args, **kwargs)
                span = tracer._open()
                start = perf_counter()
                try:
                    result = orig(*args, **kwargs)
                except BaseException:
                    tracer._close(span, span_name, start, perf_counter())
                    raise
                end = perf_counter()
                tracer._close(span, span_name if namer is None else namer(result), start, end)
                if hook is not None:
                    hook(tracer, result)
                return result
            finally:
                repatch()

        return wrapper

    def install(self) -> None:
        """Patch every wrapped function that the engine still defines; one
        that a later version drops simply reports nothing."""
        for home, attr, span_name, hook, namer in WRAPPED:
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            bindings = [(m, attr) for m in MODULES if getattr(m, attr, None) is orig]
            wrapper = self._wrap(orig, span_name, bindings, hook, namer)
            for mod, _ in bindings:
                self._patches.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
        # the redex scanners walk terms through this name; counting what it
        # yields gives the number of nodes scanned without opening spans
        orig_walk = getattr(effrew.rewrite, "iter_subterms", None)
        if orig_walk is None:
            return
        count = self.count

        def counted_walk(t, pos=()):
            n = 0
            try:
                for item in orig_walk(t, pos):
                    n += 1
                    yield item
            finally:
                count["rewrite.nodes_scanned"] += n

        self._patches.append((effrew.rewrite, "iter_subterms", orig_walk))
        effrew.rewrite.iter_subterms = counted_walk

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    @property
    def spans_opened(self) -> int:
        return self._next_id

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, s in self.self_s.items():
            layer = "unattributed" if name == JOB else layer_of(name)
            out[layer] = out.get(layer, 0.0) + s
        return out

    def write(self, path: str) -> None:
        """Stored spans as gzipped CSV rows, in the order the spans closed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(f"# spans={len(self.s_start)} dropped={self.dropped}\n")
            fh.write("id,name,start_s,end_s,parent,job\n")
            names = self.names
            for i in range(len(self.s_start)):
                fh.write(
                    f"{self.s_id[i]},{names[self.s_name[i]]},{self.s_start[i]:.9f},{self.s_end[i]:.9f},"
                    f"{self.s_parent[i]},{self.s_job[i]}\n"
                )
