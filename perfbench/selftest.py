"""Self-test of the benchmark on toy sizes of every workload.

    python3 perfbench/selftest.py

Runs each workload at its toy size with tracing off and on, and asserts
that the last line of output carries exactly the metrics BENCHMARK.json
names, each with its unit, and that every job passed.  Then checks that
a copy holding only BENCHMARK.json and perfbench/ (no relp sources)
exits non-zero without printing a result.  Takes well under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "1", "--trace", str(trace), "--toy",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for spec in SPEC["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                done = run(ROOT, spec["name"], trace)
                assert done.returncode == 0, (spec["name"], trace, done.stdout, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
                assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                assert got == want, (spec["name"], trace, got)
                for name, m in result["metrics"].items():
                    assert isinstance(m["value"], (int, float)), (name, m)
                print(f"ok {spec['name']} trace {trace}")

        bare = tmp / "bare"
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = run(bare, SPEC["workloads"][0]["name"], 0)
        assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)
        print("ok no relp sources: exit", done.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
