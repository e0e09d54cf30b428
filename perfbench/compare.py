"""Compare benchmark records written by run.py.

    python3 perfbench/compare.py RECORD... [--base RECORD...]

Refuses (exit 2) to compare records whose environment stamps differ
(Python, gmpy2, nproc, scipy), or whose size parameters or run length
differ for one workload: a run with gmpy2 can never pass as a gain over
one without.  Refuses as well any record that is not correct or that has
more failed jobs than the base records of its workload: a failing job
stops early, and its short time must not pass as a gain.  Reports as a
benchmark defect (exit 1) every exact count that differs between records
for the same job (same inputs).  Then
prints, per workload and end-to-end metric, the median of the records
and the spread between their quartiles as a share of that median; with
``--base``, also the change of the median against the base records and
whether it stays within the metric's bound from BENCHMARK.json.
Next to ``wall_s`` it prints the change of the measured (uncorrected)
wall time, so a move of the speed factor can be told from one of relp.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MEASURED = "measured_wall_s"  # shown next to wall_s, never held to a bound


def load(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text()) for p in paths]


def refuse_mixed(records: list[dict]) -> str | None:
    envs = {json.dumps(r["stamp"]["env"], sort_keys=True) for r in records}
    if len(envs) > 1:
        return "environment stamps differ: " + " | ".join(sorted(envs))
    shape: dict[str, str] = {}
    for r in records:
        s = r["stamp"]
        key = json.dumps([s["params"], s["seconds"], s["toy"]], sort_keys=True)
        if shape.setdefault(s["workload"], key) != key:
            return f"{s['workload']}: size parameters or run length differ"
    return None


def refuse_failed(new: list[dict], base: list[dict]) -> str | None:
    for r in new + base:
        if not r["correct"]:
            return (
                f"{describe(r)} is not correct: {r['failed']} failed jobs, "
                f"errors {r['errors']}, count defects {r['count_defects']}"
            )
    base_failed: dict[str, int] = defaultdict(int)
    for r in base:
        w = r["stamp"]["workload"]
        base_failed[w] = max(base_failed[w], r["failed"])
    for r in new:
        if r["failed"] > base_failed[r["stamp"]["workload"]]:
            return f"{describe(r)} has {r['failed']} failed jobs, more than its base records"
    return None


def describe(record: dict) -> str:
    s = record["stamp"]
    return f"{s['workload']} seed {s['seed']} trace {s['trace']}"


def count_defects(records: list[dict]) -> list[str]:
    # a job id names its inputs (oracle-mix ids carry the language), so one
    # id must give the same counts in every record, whatever the seed
    seen: dict[tuple[str, str], dict] = {}
    out = []
    for r in records:
        for job_id, job in r["jobs"].items():
            key = (r["stamp"]["workload"], job_id)
            first = seen.setdefault(key, job["counts"])
            if job["counts"] != first:
                out.append(f"{key}: {job['counts']} != {first}")
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def by_workload(records: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["stamp"]["trace"]:
            continue  # end-to-end figures come from untraced runs only
        for name, value in r["end_to_end"].items():
            out[r["stamp"]["workload"]][name].append(value)
            if name == "wall_s":
                out[r["stamp"]["workload"]][MEASURED].append(r["measured_wall_s"])
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("records", nargs="+", type=Path)
    p.add_argument("--base", nargs="*", type=Path, default=[])
    args = p.parse_args(argv)
    new, base = load(args.records), load(args.base)

    why = refuse_mixed(new + base) or refuse_failed(new, base)
    if why:
        print(f"refused: {why}", file=sys.stderr)
        return 2
    defects = count_defects(new + base)
    for d in defects:
        print(f"COUNT DEFECT {d}")
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    new_stats, base_stats = by_workload(new), by_workload(base)
    worse = False
    for workload, metrics in sorted(new_stats.items()):
        for name, values in metrics.items():
            med = statistics.median(values)
            line = f"{workload:15} {name:15} n={len(values):2} median {med:.6g} spread {spread(values):.3f}"
            old = base_stats.get(workload, {}).get(name)
            if old:
                change = med / statistics.median(old) - 1
                ok = name == MEASURED or change <= bounds.get(name, float("inf"))
                worse |= not ok
                verdict = "" if name == MEASURED else f" ({'within' if ok else 'OUTSIDE'} bound)"
                line += f" vs base {change:+.3f}{verdict}"
            print(line)
    return 1 if defects or worse else 0


if __name__ == "__main__":
    sys.exit(main())
