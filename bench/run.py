"""effrew benchmark: four closed-loop workloads, end to end or traced.

    python3 bench/run.py --workload peano-deep --seed 1 --seconds 20 --trace 0

Run from the root of an effrew checkout.  The engine is imported from
``src/`` of that checkout; without it the run stops with exit code 2.

A run builds the workload's theories, generates one round of jobs from
the seed, and repeats the round until ``--seconds`` have passed, always
finishing the round it is in.  Every job's output is checked.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing.  With ``--trace 1`` the rounds alternate untraced and traced;
the metrics are the per-layer ones, as means per job over the traced
rounds, and the spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import NamedTuple

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_PROBES = 7
# the tail is p90, and a run goes on past --seconds until it has
# MIN_TAIL_JOBS latency samples, so that at least 10 jobs lie beyond it.
# Higher percentiles are not steady in a 20-second run: on cli-batch
# about 1% of commands meet a full garbage collection, and p99 moved 17%
# from run to run.
TAIL_Q = 0.9
MIN_TAIL_JOBS = 100
PROBE_TIMEOUT_S = 120
# calibration after each job: at least one unit, and this share of the job
CALIBRATION_SHARE = 0.05


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """(scaled, measured) set-up seconds of fresh interpreters, one after
    another; the first run only warms the bytecode cache and is not counted."""
    times = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        if i:
            measured, unit_s = map(float, done.stdout.split()[-2:])
            times.append((measured * calibrate.REF_UNIT_S / unit_s, measured))
    return times


class Record(NamedTuple):
    job: object
    # job time scaled to the reference speed (see calibrate.py)
    scaled_s: float
    measured_s: float
    outcome: object


class Runner:
    """Runs rounds of one workload's jobs and keeps per-job records."""

    def __init__(self, workload, ctx, jobs, sampler):
        self.workload = workload
        self.ctx = ctx
        self.jobs = jobs
        self.sampler = sampler
        self.failures: list[str] = []
        self.unit_s = calibrate.seconds_per_unit(0)

    def round(self, tracer=None) -> list[Record]:
        """One pass over the jobs.  Each job's time is scaled by the speed
        measured around it (see calibrate.py); speed is sampled during the
        job only when it is not traced, so that no span holds a sample."""
        wl, ctx = self.workload, self.ctx
        sampler = self.sampler if tracer is None else None
        records = []
        for job_id, job in enumerate(self.jobs):
            result = error = None
            samples, spent = [], 0.0
            if tracer is not None:
                tracer.begin_job(job_id)
            start = perf_counter()
            if sampler is not None:
                sampler.start()
            try:
                result = wl.execute(job, ctx)
            except Exception as e:  # a failing job is counted, not fatal
                error = e
            finally:
                if sampler is not None:
                    samples, spent = sampler.stop()
            latency = perf_counter() - start - spent
            if tracer is not None:
                latency = tracer.end_job()
            unit_s = calibrate.seconds_per_unit(CALIBRATION_SHARE * latency)
            scale = calibrate.REF_UNIT_S / calibrate.local_unit_s(self.unit_s, unit_s, samples)
            self.unit_s = unit_s
            outcome = wl.check(job, result, error)
            if not outcome.ok and not outcome.known_defect and len(self.failures) < 5:
                self.failures.append(f"{job.kind} job {job_id}: {outcome.why}")
            records.append(Record(job, latency * scale, latency, outcome))
        return records


def summarize_outcomes(records: list[Record]) -> dict:
    attempted = len(records)
    return {
        "attempted": attempted,
        "failed": sum(1 for r in records if not r.outcome.ok and not r.outcome.known_defect),
        "known_defect": sum(1 for r in records if r.outcome.known_defect),
        "regular": [r for r in records if not r.job.probe],
        "ok_share": sum(1 for r in records if r.outcome.ok) / attempted,
    }


def end_to_end(args, workload, runner) -> tuple[dict, dict, dict]:
    setup = setup_seconds(args.workload)
    records = []
    start = perf_counter()
    rounds = 0
    while (
        rounds == 0
        or perf_counter() - start < args.seconds
        or sum(1 for r in records if not r.job.probe) < MIN_TAIL_JOBS
    ):
        records += runner.round()
        rounds += 1
    wall = perf_counter() - start
    s = summarize_outcomes(records)
    regular = s["regular"]
    latencies = sorted(r.scaled_s for r in regular)
    measured = sorted(r.measured_s for r in regular)
    work = sum(r.outcome.work for r in regular)
    metrics = {
        "work_per_s": {"value": work / sum(latencies), "unit": "1/s"},
        "job_p50_ms": {"value": nearest_rank(latencies, 0.5) * 1e3, "unit": "ms"},
        "job_tail_ms": {"value": nearest_rank(latencies, TAIL_Q) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(t for t, _ in setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "ok_share": {"value": s["ok_share"], "unit": "share"},
    }
    info = {
        "rounds": rounds,
        "jobs": s["attempted"],
        "latency_jobs": len(latencies),
        "work": work,
        "work_unit": workload.work_unit,
        "tail_percentile": TAIL_Q * 100,
        "wall_s": wall,
        "known_defect_jobs": s["known_defect"],
        "failed_share": 1 - s["ok_share"],
        "setup_scaled_s": [t for t, _ in setup],
        "measured": {
            "work_per_s": work / sum(measured),
            "job_p50_ms": nearest_rank(measured, 0.5) * 1e3,
            "job_tail_ms": nearest_rank(measured, TAIL_Q) * 1e3,
            "setup_s": statistics.median(m for _, m in setup),
        },
    }
    return s, metrics, info


# below this n the fixed cost per call hides the growth of the scan
EXPONENT_MIN_N = 25


def size_exponent(records, strategy: str) -> float:
    """Least-squares slope of log(job time) against log(n), for n at least
    EXPONENT_MIN_N."""
    points = [
        (math.log(r.job.size), math.log(r.scaled_s))
        for r in records
        if r.job.strategy == strategy and r.job.size >= EXPONENT_MIN_N
    ]
    if len(points) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    sxy = sum((x - mx) * (y - my) for x, y in points)
    return sxy / sxx if sxx else 0.0


def traced(args, workload, runner) -> tuple[dict, dict, dict]:
    import spans

    setup_tracer = spans.Tracer()
    setup_tracer.install()
    setup_tracer.begin_job(-1)
    try:
        workload.setup()
    finally:
        setup_tracer.end_job()
        setup_tracer.uninstall()

    tracer = spans.Tracer()
    plain, records = [], []
    start = perf_counter()
    rounds = 0
    while rounds == 0 or perf_counter() - start < args.seconds:
        plain += runner.round()
        tracer.install()
        try:
            records += runner.round(tracer)
        finally:
            tracer.uninstall()
        rounds += 1
    s = summarize_outcomes(plain + records)
    jobs = tracer.jobs
    job_s = sum(r.measured_s for r in records)
    layer_self = tracer.layer_self_s()

    def per_job_s(name):
        return tracer.incl_s.get(name, 0.0) / jobs

    def calls(name):
        return tracer.calls.get(name, 0) / jobs

    def self_s(name):
        return tracer.self_s.get(name, 0.0) / jobs

    def layer(name):
        return layer_self.get(name, 0.0) / jobs

    count = {k: v / jobs for k, v in tracer.count.items()}
    match_attempts = tracer.calls.get("rewrite.match", 0)
    redexes = tracer.count["rewrite.redexes_built"]
    peano = workload.name == "peano-deep"
    search_jobs = [r.job for r in records if r.job.kind == "search"]
    m = {
        "cli.main_s": per_job_s("cli.main"),
        "cli.self_s": layer("cli"),
        "theories.build_s": per_job_s("theories.build"),
        "theories.build_calls": calls("theories.build"),
        "theories.self_s": layer("theories"),
        "theories.setup_s": setup_tracer.incl_s.get("theories.build", 0.0),
        "typecheck.infer_s": per_job_s("typecheck.infer"),
        "typecheck.rule_infer_s": per_job_s("typecheck.rule_infer"),
        "typecheck.self_s": layer("typecheck"),
        "sexpr.read_s": per_job_s("sexpr.read"),
        "sexpr.self_s": layer("sexpr"),
        "parser.build_s": per_job_s("parser.build"),
        "parser.nodes": count["parser.nodes"],
        "parser.self_s": layer("parser"),
        "signature.check_calls": calls("signature.check"),
        "signature.self_s": layer("signature"),
        "terms.print_s": per_job_s("terms.print"),
        "terms.substitute_s": per_job_s("terms.substitute"),
        "terms.substitute_calls": calls("terms.substitute"),
        "terms.replace_at_s": per_job_s("terms.replace_at"),
        "terms.replace_at_calls": calls("terms.replace_at"),
        "terms.canonical_key_s": per_job_s("terms.canonical_key"),
        "terms.canonical_key_calls": calls("terms.canonical_key"),
        "terms.self_s": layer("terms"),
        "rewrite.scan_s": per_job_s("rewrite.scan"),
        "rewrite.scan_calls": calls("rewrite.scan"),
        "rewrite.scan_self_s": self_s("rewrite.scan"),
        "rewrite.nodes_scanned": count["rewrite.nodes_scanned"],
        "rewrite.redexes_built": count["rewrite.redexes_built"],
        "rewrite.steps": count["rewrite.steps"],
        "rewrite.reducts_used_ratio": tracer.count["rewrite.steps"] / redexes if redexes else 0.0,
        "rewrite.match_s": per_job_s("rewrite.match"),
        "rewrite.match_attempts": calls("rewrite.match"),
        "rewrite.match_hit_ratio": tracer.count["rewrite.match_hits"] / match_attempts if match_attempts else 0.0,
        "rewrite.size_exponent_lo": size_exponent(plain, "leftmost-outermost") if peano else 0.0,
        "rewrite.size_exponent_ri": size_exponent(plain, "rightmost-innermost") if peano else 0.0,
        "rewrite.self_s": layer("rewrite"),
        "graph.explore_s": per_job_s("graph.explore"),
        "graph.self_s": layer("graph"),
        "graph.nodes": count["graph.nodes"],
        "graph.edges": count["graph.edges"],
        "graph.dedup_hits": count["graph.dedup_hits"],
        "rpo.search_found_s": per_job_s("rpo.search_found"),
        "rpo.search_none_s": per_job_s("rpo.search_none"),
        "rpo.certify_s": per_job_s("rpo.certify"),
        "rpo.identities": sum(j.size for j in search_jobs) / jobs,
        "rpo.self_s": layer("rpo"),
        "trace.job_s": job_s / jobs,
        "trace.unattributed_s": layer("unattributed"),
        "trace.overhead_ratio": sum(r.scaled_s for r in records) / sum(r.scaled_s for r in plain),
    }
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    tracer.write(path)
    info = {
        "rounds": rounds,
        "traced_jobs": jobs,
        "spans": tracer.spans_opened,
        "spans_written": len(tracer.s_start),
        "spans_dropped": tracer.dropped,
        "span_file": os.path.relpath(path, ROOT),
        "layer_self_s_per_job": {k: v / jobs for k, v in sorted(layer_self.items())},
        "layer_self_sum_minus_job_s": sum(layer_self.values()) / jobs - job_s / jobs,
    }
    return s, {k: {"value": v, "unit": layer_unit(k)} for k, v in m.items()}, info


def layer_unit(name: str) -> str:
    if name == "theories.setup_s":
        return "s"
    if name.endswith("_s"):
        return "s/job"
    if name.endswith(("_ratio", "_exponent_lo", "_exponent_ri")):
        return "ratio"
    return "count/job"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "effrew", "__init__.py")):
        print(f"no effrew sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import effrew

    if os.path.dirname(os.path.abspath(effrew.__file__)) != os.path.join(SRC, "effrew"):
        print(f"effrew imported from {effrew.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload}; one of {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    ctx = workload.setup()
    sampler = calibrate.Sampler()
    try:
        runner = Runner(workload, ctx, workload.jobs(args.seed, ctx), sampler)
        if args.trace:
            s, metrics, info = traced(args, workload, runner)
        else:
            s, metrics, info = end_to_end(args, workload, runner)
    finally:
        sampler.close()

    print(f"workload {args.workload} seed {args.seed}: " + json.dumps(info, sort_keys=True))
    for line in runner.failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": s["failed"] == 0,
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
