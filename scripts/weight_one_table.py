#!/usr/bin/env python3
"""Print the optimal vertex of the full weak program for the single-one block.

Materializes the closure of B(N, 1), solves the full string program
outright, and prints the optimal vertex as a two-decimal table grouped
by string length, which shows how the mass spreads across strings.  The
optimum itself is swept faster by ``relp sweep b1-conjecture``.

Example:
    python3 scripts/weight_one_table.py 8
"""

from __future__ import annotations

import argparse
import time
from collections import defaultdict
from typing import Sequence

from relp import binomial, build_weak_primal, compute_closure, solve


def main(argv: Sequence[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("n", type=int, help="block length N")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("need N >= 1")

    closure = compute_closure(binomial(args.n, 1))
    lp = build_weak_primal(closure)
    print(f"full program at n = {args.n}: {lp.n_vars} variables, {lp.n_rows} rows")
    t0 = time.time()
    res = solve(lp)
    print(f"optimum {res.objective} in {time.time() - t0:.1f}s")

    by_length: dict[int, list[str]] = defaultdict(list)
    for s in closure.strings():
        by_length[len(s)].append(s)
    for m in sorted(by_length):
        cells = [
            f"{s}={float(res.assignment.get(f'x[{s}]')):.2f}"
            for s in sorted(by_length[m])
        ]
        print(f"  len {m}:  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
