"""mtcbound benchmark: one workload, one process, one client, closed loop.

    python3 bench/run.py --workload corpus|matrix|pointed|search \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; mtcbound is imported from
`src/`, nothing is installed.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones, measured untraced; with
`--trace 1` they are the per-layer ones, from a traced run that wraps the
library's public functions from outside (see tracer.py).  Times are
reference-speed seconds (see speed.py); the plain wall-clock figures go
to bench/out/ with the rest of each run's record.  README.md explains
the workloads and what each metric should move.
"""

from __future__ import annotations

import os

# One process, one thread: pin numpy's BLAS pools before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

IMPORT_REPEATS = 5
SETUP_REPEATS = 3
COLD_CLI_REPEATS = 9
CHILD_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verdict_s", "s"),
    ("validate_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Span metrics of the traced run, per traced pass: `_s` is total time,
# `_self_s` time not covered by child spans, `_calls` the call count.
SPAN_METRICS = (
    ("modular.dual_permutation", ("s", "calls")),
    ("modular.verlinde", ("s", "calls")),
    ("modular.validate_modular", ("s", "self_s")),
    ("modular.central_charge", ("s", "calls")),
    ("obstruction.verdict", ("s", "calls")),
    ("obstruction.candidate_search", ("s", "self_s", "calls")),
    ("obstruction.fusion_filter", ("s", "calls")),
    ("pointed.metric_modular_data", ("s", "calls")),
    ("pointed.matches_modular_data", ("s", "calls")),
    ("pointed.lagrangian_subgroups", ("s", "calls")),
    ("pointed.validate_metric", ("s",)),
    ("pointed.milgram_signature", ("s",)),
    ("specfile.load", ("s", "calls")),
    ("specfile.save", ("s",)),
    ("fusion.validate", ("s",)),
    ("multifusion.block_partition", ("s",)),
    ("cli.main", ("s", "self_s", "calls")),
)


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    from tracer import JOB_SPAN, OP_NAMES, SPAN_TARGETS

    out = []
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            out.append((f"{span}_{kind}", "count" if kind == "calls" else "s"))
    out += [(f"cyclotomic.{op}_calls", "count") for op in OP_NAMES]
    out += [(f"cyclotomic.ops_in.{span}", "count") for _, _, span in SPAN_TARGETS]
    out.append((f"cyclotomic.ops_in.{JOB_SPAN}", "count"))
    out += [
        ("obstruction.candidates_unfiltered", "count"),
        ("obstruction.candidates_kept", "count"),
        ("obstruction.filter_keep_ratio", "ratio"),
        ("cli.import_s", "s"),
        ("cli.cold_s", "s"),
        ("traced.pass_s", "s"),
        ("traced.verdict_s", "s"),
        ("traced.validate_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("share.dual_permutation_of_verdict", "ratio"),
        ("share.verlinde_of_validate", "ratio"),
        ("share.search_and_filter_of_verdict", "ratio"),
    ]
    return out


# ---------------------------------------------------------------------------
# library import and fresh processes
# ---------------------------------------------------------------------------


def import_library() -> None:
    """Import mtcbound from this checkout's src/, and nothing else."""
    init = SRC / "mtcbound" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of an mtcbound checkout")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import mtcbound

    if Path(mtcbound.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported {mtcbound.__file__}, not {init}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(meter, argv: list) -> tuple:
    """(interval, exit code, stdout) of `python <argv>`, run to completion
    with the speed meter paused."""
    with meter.paused():
        mark = meter.mark()
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return meter.interval(mark), proc.returncode, proc.stdout


def fresh_import(meter) -> tuple:
    """(interval, seconds for numpy, mpmath and mtcbound, seconds for
    mtcbound alone) of importing mtcbound in a new interpreter, timed
    inside it.  Its dependencies are imported first, so the last figure
    is mtcbound's own import-time work."""
    code = (
        "import time; t0 = time.perf_counter(); import numpy, mpmath; "
        "t1 = time.perf_counter(); import mtcbound; t2 = time.perf_counter(); "
        "print(t2 - t0, t2 - t1)"
    )
    interval, rc, out = run_child(meter, ["-c", code])
    if rc != 0:
        sys.exit("error: `import mtcbound` failed in a fresh process")
    full, own = (float(x) for x in out.split())
    return interval, full, own


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs passes over a job list and keeps each job's time per pass."""

    def __init__(self, jobs: list, meter):
        self.jobs = jobs
        self.meter = meter
        self.passes = 0
        self.attempted = 0
        self.failures: list = []
        self.intervals: list = [[] for _ in jobs]  # per job, one per pass

    def run_pass(self, call=None) -> None:
        """One pass; `call(job_id, fn)` runs a job (the tracer's hook).

        Each pass starts from a collected heap, so the garbage collections
        inside it come from its own allocations, not from set-up's."""
        gc.collect()
        first_id = self.passes * len(self.jobs)
        for idx, job in enumerate(self.jobs):
            self.attempted += 1
            try:
                mark = self.meter.mark()
                result = job.run() if call is None else call(first_id + idx, job.run)
                self.intervals[idx].append(self.meter.interval(mark))
                job.check(result)
            except Exception as exc:  # a failing job is counted, the loop goes on
                self.failures.append(f"{job.name}: {type(exc).__name__}: {exc}")
        self.passes += 1

    def run_for(self, seconds: float, call=None) -> None:
        """Passes until `seconds` have gone by; at least one."""
        start = time.perf_counter()
        while self.passes == 0 or time.perf_counter() - start < seconds:
            self.run_pass(call)

    def timings(self, wall: bool = False) -> dict:
        """Each job's median over the passes, summed per kind, and the
        spread of those medians over the jobs."""
        typical = [
            (job.kind, statistics.median(i[2] if wall else self.meter.scaled(i) for i in runs))
            for job, runs in zip(self.jobs, self.intervals)
            if runs
        ]
        times = [t for _, t in typical] or [0.0]
        return {
            "pass_s": sum(times),
            "verdict_s": sum(t for kind, t in typical if kind == "verdict"),
            "validate_s": sum(t for kind, t in typical if kind == "validate"),
            "job_p50_ms": 1000 * statistics.median(times),
            "job_p90_ms": 1000 * percentile(times, 90),
        }


def percentile(values: list, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def traced_metrics(tracer, baseline: Loop, traced: Loop, import_s: float) -> dict:
    """Per-layer metrics per traced pass, from the tracer's spans and counters."""
    from tracer import JOB_SPAN, OP_NAMES, SPAN_TARGETS

    passes = traced.passes
    kinds = [job.kind for job in traced.jobs]

    def in_kind(kind):
        return lambda job_id: job_id is not None and kinds[job_id % len(kinds)] == kind

    totals = tracer.span_totals()
    in_verdict = tracer.span_totals(in_kind("verdict"))
    in_validate = tracer.span_totals(in_kind("validate"))
    absent = (0, 0.0, 0.0)

    metrics = {}
    for span, fields in SPAN_METRICS:
        calls, total, self_s = totals.get(span, absent)
        values = {"s": total, "self_s": self_s, "calls": calls}
        for field in fields:
            metrics[f"{span}_{field}"] = values[field] / passes
    for op in OP_NAMES:
        metrics[f"cyclotomic.{op}_calls"] = sum(c[op] for c in tracer.ops.values()) / passes
    for span in [s for _, _, s in SPAN_TARGETS] + [JOB_SPAN]:
        metrics[f"cyclotomic.ops_in.{span}"] = sum(tracer.ops.get(span, {}).values()) / passes

    unfiltered = kept = 0
    for report in tracer.verdicts:
        if report.verdict == "CandidatesFound":
            unfiltered += len(report.candidates)
            kept += len(getattr(report, "filtered_candidates", report.candidates))
    metrics["obstruction.candidates_unfiltered"] = unfiltered / passes
    metrics["obstruction.candidates_kept"] = kept / passes
    metrics["obstruction.filter_keep_ratio"] = kept / unfiltered if unfiltered else 0.0

    # shares are taken over the same traced passes, inside jobs of one kind
    verdict_s = in_verdict.get(JOB_SPAN, absent)[1]
    validate_s = in_validate.get(JOB_SPAN, absent)[1]

    def share(table, span, column, base):
        return table.get(span, absent)[column] / base if base else 0.0

    metrics["cli.import_s"] = import_s
    metrics["traced.pass_s"] = traced.timings()["pass_s"]
    metrics["traced.verdict_s"] = verdict_s / passes
    metrics["traced.validate_s"] = validate_s / passes
    metrics["trace.overhead_ratio"] = metrics["traced.pass_s"] / baseline.timings()["pass_s"]
    metrics["share.dual_permutation_of_verdict"] = share(
        in_verdict, "modular.dual_permutation", 1, verdict_s
    )
    metrics["share.verlinde_of_validate"] = share(in_validate, "modular.verlinde", 1, validate_s)
    metrics["share.search_and_filter_of_verdict"] = share(
        in_verdict, "obstruction.candidate_search", 2, verdict_s
    ) + share(in_verdict, "obstruction.fusion_filter", 1, verdict_s)
    return metrics


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from speed import NOMINAL_S, SpeedMeter
    from tracer import Tracer
    from workloads import WORKLOADS, check_cold_verdict, cold_cli_args

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    build = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = str(OUT / f"work-{args.workload}")

    meter = SpeedMeter()
    meter.start()
    try:
        # set-up: importing mtcbound in a fresh process, and building
        # every input, each repeated.  setup_s leaves out the import of
        # numpy and mpmath: no change to mtcbound moves it, and process
        # start-up work of that kind swings by 10-30 % on a shared host.
        imports = [fresh_import(meter) for _ in range(IMPORT_REPEATS)]
        builds = []
        for _ in range(SETUP_REPEATS):
            mark = meter.mark()
            jobs = build(random.Random(args.seed), workdir)
            builds.append(meter.interval(mark))

        # the end-to-end numbers come from untraced passes only
        loop = Loop(jobs, meter)
        loop.run_for(args.seconds)
        loops = [loop]
        failures, cold = [], []
        if args.trace:
            cold_argv = ["-m", "mtcbound", *cold_cli_args(str(OUT / "cold"))]
            for _ in range(COLD_CLI_REPEATS):
                try:
                    interval, code, out = run_child(meter, cold_argv)
                    check_cold_verdict(code, out)
                except Exception as exc:
                    failures.append(f"cold CLI verdict: {type(exc).__name__}: {exc}")
                    continue
                cold.append(interval)
            tracer = Tracer()
            traced = Loop(jobs, meter)
            tracer.install()
            try:
                traced.run_for(args.seconds, tracer.run_job)
            finally:
                tracer.uninstall()
            loops.append(traced)
    finally:
        meter.stop()

    import_s = statistics.median(meter.scaled(i, full) for i, full, _ in imports)
    own_import_s = statistics.median(meter.scaled(i, own) for i, _, own in imports)
    trace_path = None
    if args.trace:
        metrics = traced_metrics(tracer, loop, traced, import_s)
        metrics["cli.cold_s"] = statistics.median(meter.scaled(i) for i in cold) if cold else 0.0
        units = dict(per_layer_metrics())
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
    else:
        metrics = {
            "setup_s": own_import_s + statistics.median(meter.scaled(b) for b in builds),
            **loop.timings(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)

    attempted = len(cold) + len(failures)  # the cold CLI runs
    for each in loops:
        attempted += each.attempted
        failures += each.failures
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    samples = (
        f"passes={'+'.join(str(each.passes) for each in loops)} "
        f"jobs/pass={len(jobs)} imports={IMPORT_REPEATS} builds={SETUP_REPEATS} "
        f"cold CLI runs={len(cold)}"
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
        "wall_clock": loop.timings(wall=True),
        "speed_factor_median": statistics.median(NOMINAL_S / s for s in meter.seconds),
        "failures": failures,
        **result,
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} {samples}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6f} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
