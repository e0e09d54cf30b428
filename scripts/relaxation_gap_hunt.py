#!/usr/bin/env python3
"""Hunt for languages where the string relaxation undershoots the true optimum.

For random small languages this solves the subset-variable program (whose
optimum provably equals the shortest expression length), the string-variable
relaxation, and the exhaustive search oracle, then reports every instance
where the relaxation is strictly below the truth.  Every instance goes
through ``oracle_vs_lp``: the subset optimum must equal the oracle's and
the relaxation must not exceed it; a failure there would be a bug, and
the script says so loudly.

Example:
    python3 scripts/relaxation_gap_hunt.py --count 500 --seed 7
"""

from __future__ import annotations

import argparse
import random
import time
from fractions import Fraction
from typing import Sequence

from relp import Language, oracle_vs_lp


def random_language(rng: random.Random, max_strings: int, max_len: int) -> Language:
    members = {
        "".join(rng.choice("01") for _ in range(rng.randint(1, max_len)))
        for _ in range(rng.randint(1, max_strings))
    }
    return Language(sorted(members))


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--max-strings", type=int, default=4)
    ap.add_argument("--max-len", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    seen: set[Language] = set()
    gaps: list[tuple[Language, Fraction, int]] = []
    mismatches = 0
    t0 = time.time()
    for _ in range(args.count):
        lang = random_language(rng, args.max_strings, args.max_len)
        if lang in seen:
            continue
        seen.add(lang)
        report = oracle_vs_lp(lang)
        truth = report.oracle.length
        if not report.ok:
            mismatches += 1
            print(
                f"BUG: subset optimum {report.strong_objective}, relaxation "
                f"{report.weak_objective}, oracle {truth} on {lang.serialize()}"
            )
        if report.weak_objective < truth:
            gaps.append((lang, report.weak_objective, truth))

    print(
        f"{len(seen)} distinct languages in {time.time() - t0:.1f}s; "
        f"{len(gaps)} with a relaxation gap"
    )
    for lang, lower, truth in sorted(gaps, key=lambda g: g[2] - g[1], reverse=True):
        print(
            f"  {lang.serialize():<40} relaxation {str(lower):>6}"
            f"  optimum {truth:>3}  gap {truth - lower}"
        )
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
