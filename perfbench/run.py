"""The relp benchmark: one workload in one fresh process, every answer checked.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``.  The process first times
``SETUP_SAMPLES`` fresh set-ups, each a child interpreter that imports
relp and makes the workload's inputs and expected answers; their median
is ``setup_s``.  It then makes the inputs itself and runs the whole batch
of jobs again and again, closed loop with one caller, until ``--seconds``
would be exceeded (at least once).  Every job is checked by a route
independent of the solver; a cap, an error or a wrong answer counts as a
failed job, never as a crash.

Every reported job time is in seconds at nominal speed: the job's
measured seconds times the speed factor of the reference ticks around
it (see ``speed.py``).  Measured seconds and factors are
kept in the record.  The correction keeps the machine's own drift out of
the figures.  The reference runs with the garbage collector off, so
objects relp keeps alive cannot slow it; compare.py prints the change in
measured wall time next to the nominal one.
``setup_s`` is left as measured: it is mostly interpreter start and
imports, which do not follow the reference.

``--trace 0`` reports the end-to-end metrics of untraced batches.
``--trace 1`` alternates untraced and traced batches and reports the
per-layer self-times of the traced ones, the time left outside every
layer span, and the tracing overhead (traced wall minus untraced wall).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it print every metric by
name with its unit, and the stamp of the run.  A full record (stamp,
metrics, per-job times and exact counts, spans of one traced batch) is
written to ``perfbench/out/<workload>-seed<N>-trace<0|1>.json``
(``-toy`` added for toy sizes); ``compare.py`` reads those records.
Exit code 0 means every job passed and every exact count repeated; 1
means a job failed or a count moved; 2 means the benchmark could not run
(no relp sources, set-up failed, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import JOB, Tracer, self_times
import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 11

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "job_p50_s": "s",
    "job_max_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = [
    "closure.compute_s",
    "closure.index_s",
    "builders.build_s",
    "solver.solve_s",
    "solver.rowgen_s",
    "certify.s",
    "lp.check_s",
    "certificates.calibrate_s",
    "certificates.dual_cert_s",
    "certificates.analytic_s",
    "oracle.search_s",
]
LAYER_COUNTS = [
    "closure.members",
    "closure.concat_pairs",
    "closure.union_pairs",
    "builders.vars",
    "builders.rows",
    "builders.nnz",
    "solver.calls",
    "solver.pivots",
    "solver.transposed_calls",
    "solver.rowgen_calls",
    "solver.resource_calls",
    "certify.calls",
    "certify.failed",
    "lp.check_calls",
    "oracle.explored",
]
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "solver.ms_per_pivot": "ms",
    "bench.unaccounted_s": "s",
    "bench.trace_overhead_s": "s",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--toy", action="store_true", help="seconds-long sizes for self-tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(argv: list[str]) -> list[float]:
    """Wall times of fresh child set-ups: interpreter, import relp, inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return times


@dataclass
class JobResult:
    id: str
    measured_s: float
    factor: float  # speed.job_factor of the ticks around the job
    counts: Counter
    error: str | None

    @property
    def seconds(self) -> float:
        return self.measured_s * self.factor


@dataclass
class Batch:
    traced: bool
    results: list[JobResult]
    spans: list

    @property
    def wall(self) -> float:
        """Nominal seconds spent in the jobs; ticks are left out."""
        return sum(r.seconds for r in self.results)


def run_batch(jobs, tracer) -> Batch:
    """Run every job once, with a speed tick before the first job and after each."""
    ctx: dict = {}
    runs = []
    ticks = [(perf_counter(), speed.tick())]
    for job in jobs:
        counts: Counter = Counter()
        error = None
        start = perf_counter()
        try:
            with tracer.job(job.id):
                job.fn(tracer, counts, ctx)
        except Exception as exc:  # a failed job is a result to count, not a crash
            error = f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        ticks.append((end, speed.tick()))
        runs.append((job.id, start, end, counts, error))
    results = [
        JobResult(job_id, end - start, speed.job_factor(ticks, start, end), counts, error)
        for job_id, start, end, counts, error in runs
    ]
    return Batch(tracer.on, results, tracer.spans)


def stamp(args: argparse.Namespace, params: dict) -> dict:
    import relp

    return {
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "have_gmpy2": relp.HAVE_GMPY2,
            "nproc": len(os.sched_getaffinity(0)),
            "scipy": importlib.util.find_spec("scipy") is not None,
        },
        "workload": args.workload,
        "params": params,
        "toy": args.toy,
        "seconds": args.seconds,
        "seed": args.seed,
        "trace": args.trace,
    }


def layer_metrics(traced: list[Batch], untraced: list[Batch], counts: Counter) -> dict:
    """Per-layer self-times (median over traced batches, nominal seconds) and counts of one batch.

    ``solver.solve_s`` covers every solve; ``solver.rowgen_s`` is the part
    of it spent in row-generation solves.
    """
    per_batch = []
    for b in traced:
        selfs = self_times(b.spans, {r.id: r.factor for r in b.results})
        accounted = sum(v for name, v in selfs.items() if name != JOB)
        selfs["solver.solve_s"] = selfs.get("solver.solve_s", 0.0) + selfs.get("solver.rowgen_s", 0.0)
        per_batch.append(selfs | {"bench.unaccounted_s": b.wall - accounted})
    out: dict[str, float] = {}
    for name in LAYER_TIMES + ["bench.unaccounted_s"]:
        out[name] = statistics.median(b.get(name, 0.0) for b in per_batch)
    for name in LAYER_COUNTS:
        out[name] = counts[name]
    pivots = counts["solver.pivots"]
    out["solver.ms_per_pivot"] = 1000 * out["solver.solve_s"] / pivots if pivots else 0.0
    out["bench.trace_overhead_s"] = median_wall(traced) - median_wall(untraced)
    return out


def median_wall(batches: list[Batch]) -> float:
    return statistics.median(b.wall for b in batches)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "relp" / "__init__.py").is_file():
        print(f"error: no relp sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.toy)
        return 0
    try:
        setup_times = measure_setup([a for a in argv if a != "--setup-only"])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    params, jobs = WORKLOADS[args.workload](args.seed, args.toy)
    run_stamp = stamp(args, params)
    # one round = one untraced batch, plus one traced batch in a trace run
    modes = [False, True] if args.trace else [False]
    batches: list[Batch] = []
    round_times: list[float] = []
    deadline = perf_counter() + args.seconds
    while True:
        round_start = perf_counter()
        for on in modes:
            gc.collect()
            batches.append(run_batch(jobs, Tracer(on)))
        round_times.append(perf_counter() - round_start)
        if perf_counter() + statistics.median(round_times) > deadline:
            break
    untraced = [b for b in batches if not b.traced]
    traced = [b for b in batches if b.traced]

    # exact counts must repeat across every batch of the run
    first_counts: dict[str, Counter] = {}
    defects: list[str] = []
    errors: dict[str, str] = {}
    for r in (r for b in batches for r in b.results):
        if r.error is not None:
            errors.setdefault(r.id, r.error)
        elif r.id not in first_counts:
            first_counts[r.id] = r.counts
        elif r.counts != first_counts[r.id]:
            defects.append(f"{r.id}: counts {dict(r.counts)} != {dict(first_counts[r.id])}")
    attempted = sum(len(b.results) for b in batches)
    failed = sum(r.error is not None for b in batches for r in b.results)

    job_times = {
        job.id: statistics.median(b.results[i].seconds for b in untraced) for i, job in enumerate(jobs)
    }
    slowest = max(job_times, key=job_times.get)
    e2e = {
        "wall_s": median_wall(untraced),
        "setup_s": statistics.median(setup_times),
        "job_p50_s": statistics.median(job_times.values()),
        "job_max_s": job_times[slowest],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    batch_counts = sum((r.counts for r in untraced[0].results), Counter())
    layers = layer_metrics(traced, untraced, batch_counts) if traced else {}

    measured_wall = statistics.median(sum(r.measured_s for r in b.results) for b in untraced)
    print("# stamp " + json.dumps(run_stamp, sort_keys=True))
    print("# job times are seconds at nominal speed: measured seconds x speed factor (see speed.py)")
    print(f"wall_s {e2e['wall_s']:.4f} s (median of {len(untraced)} batches; measured {measured_wall:.4f} s)")
    print(f"setup_s {e2e['setup_s']:.4f} s (median of {len(setup_times)} set-ups, measured)")
    print(f"job_p50_s {e2e['job_p50_s']:.6f} s ({len(jobs)} jobs)")
    print(f"job_max_s {e2e['job_max_s']:.4f} s ({len(jobs)} jobs; slowest {slowest})")
    print(f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} job runs)")
    factors = [r.factor for b in batches for r in b.results]
    print(f"speed factor median {statistics.median(factors):.3f}, range {min(factors):.3f}..{max(factors):.3f}")
    calls = batch_counts["solver.calls"]
    if calls:
        transposed, rowgen = batch_counts["solver.transposed_calls"], batch_counts["solver.rowgen_calls"]
        print(
            f"solver paths per batch: {calls - transposed - rowgen} direct, "
            f"{transposed} transposed, {rowgen} row generation"
        )
    for job_id, error in errors.items():
        print(f"FAILED {job_id}: {error}")
    for defect in defects:
        print(f"COUNT DEFECT {defect}")
    if traced:
        traced_wall = median_wall(traced)
        for name, value in layers.items():
            share = f" ({100 * value / traced_wall:.1f}% of traced wall)" if PER_LAYER[name] == "s" else ""
            print(f"{name} {value:.6g} {PER_LAYER[name]}{share}")

    record = {
        "stamp": run_stamp,
        "correct": failed == 0 and not defects,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": e2e,
        "measured_wall_s": measured_wall,
        "per_layer": layers,
        "batches": [
            {
                "traced": b.traced,
                "measured_s": [r.measured_s for r in b.results],
                "factors": [r.factor for r in b.results],
            }
            for b in batches
        ],
        "setup_times": setup_times,
        "jobs": {
            job.id: {"time_s": job_times[job.id], "counts": dict(first_counts.get(job.id, {}))}
            for job in jobs
        },
        "errors": errors,
        "count_defects": defects,
        "spans": [
            [s.id, s.parent, s.job, s.name, s.start, s.end] for s in (traced[0].spans if traced else [])
        ],
    }
    out = HERE / "out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}{'-toy' if args.toy else ''}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    chosen, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    metrics = {name: {"value": chosen[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": record["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
