"""Command-line front end for the regex-size linear programs.

Subcommands generate language families, materialize the weak, strong,
and relaxed programs and their mechanical duals, solve and check them,
turn expressions into verified dual certificates, run the exhaustive
optimal-regex search, and reproduce the conjecture, caveat, and
calibration sweeps as small report tables.

Artifacts (language files, LP files, solutions, certificates, alpha
tables) go to ``--output`` when given, else to stdout with report lines
diverted to stderr.  Numeric report columns show exact rationals with a
4-place decimal alongside.  Exit codes: 0 success, 1 verification
failure, 2 resource cap exceeded, 3 bad input.
"""

from __future__ import annotations

import argparse
import math
import operator
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Sequence, TextIO

from .builders import (
    build_reduced_weak_primal_b_n1,
    build_relaxed_binomial,
    build_relaxed_binomial_dual,
    build_strong_dual,
    build_strong_primal,
    build_weak_dual,
    build_weak_primal,
)
from .certificates import (
    CalibrationError,
    calibrate_alphas,
    certify_relaxed_dual,
    certify_weak_dual,
    check_weak_dual_support,
    g_objective,
    read_alpha_table,
    write_alpha_table,
)
from .closure import compute_closure
from .config import SETTINGS, ResourceCapError, RunConfig, load_config
from .lang import Language, gen_family
from .lp import (
    FeasibilityReport,
    LinearProgram,
    SolutionFile,
    check_feasible,
    format_rational,
    read_lp,
    read_solution,
    write_lp,
    write_solution,
)
from .oracle import optimal_regex
from .regex import ellul_b_n1_length, ellul_bnk, length, parse, render
from .solver import SolverError, solve

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for caps."""

    def error(self, message: str):  # noqa: A002 - argparse API
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{format_rational(value)} ({float(value):.4f})"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _emit(text: str, out: str | None) -> TextIO:
    """Write an artifact; return the stream report lines should use."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
        return sys.stdout
    sys.stdout.write(text)
    return sys.stderr


def _print_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    for line in (header, *rows):
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def _parse_language_arg(text: str) -> Language:
    """A language literal '{s1,s2}' or a family spec like 'sigma 2'."""
    text = text.strip()
    if text.startswith("{"):
        return Language.parse(text)
    toks = text.split()
    if len(toks) in (2, 3):
        k = int(toks[2]) if len(toks) == 3 else None
        return gen_family(toks[0], int(toks[1]), k)
    raise ValueError(
        f"expected '{{s1,s2,...}}' or 'family n [k]', got {text!r}"
    )


# -- subcommands -----------------------------------------------------------------


def cmd_gen(args, cfg: RunConfig) -> int:
    lang = gen_family(args.family, args.n, args.k)
    stream = _emit(lang.serialize() + "\n", args.output)
    print(f"{len(lang)} strings", file=stream)
    return 0


def _build_lp(args, cfg: RunConfig) -> LinearProgram:
    kind = args.kind
    if kind in ("weak", "strong", "weak-dual", "strong-dual"):
        if args.lang is None:
            raise ValueError(f"lp {kind} needs --lang")
        closure = compute_closure(_parse_language_arg(args.lang), cfg.closure_max_members)
        builder = {
            "weak": build_weak_primal,
            "strong": build_strong_primal,
            "weak-dual": build_weak_dual,
            "strong-dual": build_strong_dual,
        }[kind]
        return builder(closure)
    if kind in ("relaxed", "relaxed-dual"):
        if args.n is None or args.k is None:
            raise ValueError(f"lp {kind} needs --n and --k")
        builder = build_relaxed_binomial if kind == "relaxed" else build_relaxed_binomial_dual
        return builder(args.n, args.k)
    if args.n is None:
        raise ValueError("lp reduced-b1 needs --n")
    return build_reduced_weak_primal_b_n1(args.n)


def cmd_lp(args, cfg: RunConfig) -> int:
    lp = _build_lp(args, cfg)
    stream = _emit(write_lp(lp), args.output)
    print(f"{len(lp.variables)} vars, {len(lp.rows)} rows", file=stream)
    return 0


def cmd_solve(args, cfg: RunConfig) -> int:
    lp = read_lp(Path(args.lp_file).read_text(encoding="utf-8"))
    result = solve(lp, cfg)
    sol = SolutionFile(
        status=result.status, objective=result.objective, assignment=result.assignment
    )
    stream = _emit(write_solution(sol), args.output)
    print(f"status {result.status}", file=stream)
    if result.objective is not None:
        print(f"objective {_fmt(result.objective)}", file=stream)
    print(f"iterations {result.iterations}", file=stream)
    print(f"path {result.path}", file=stream)
    if result.status == "optimal":
        return 0
    return 2 if result.status == "resource" else 1


def cmd_check(args, cfg: RunConfig) -> int:
    tol = args.tolerance
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    lp = read_lp(Path(args.lp_file).read_text(encoding="utf-8"))
    sol = read_solution(Path(args.solution_file).read_text(encoding="utf-8"))
    if sol.assignment is None:
        raise ValueError(f"{args.solution_file} carries no assignment to check")
    return _print_report(check_feasible(lp, sol.assignment, tol), sys.stdout)


def _print_report(report: FeasibilityReport, stream: TextIO) -> int:
    """Print a feasibility check's violations, objective and verdict."""
    for violation in report.violations:
        print(f"violated {violation.kind} {violation.where} by {violation.amount}", file=stream)
    if report.unknown_names:
        print(f"unknown names: {', '.join(report.unknown_names)}", file=stream)
    print(f"objective {_fmt(report.objective)}", file=stream)
    print("feasible" if report.feasible else "infeasible", file=stream)
    return 0 if report.feasible else 1


def _report_certificate(report: FeasibilityReport, assignment, output: str | None) -> int:
    """Write a checked certificate as a solution file and report the check."""
    sol = SolutionFile(
        status="feasible" if report.feasible else "infeasible",
        objective=report.objective,
        assignment=assignment,
    )
    return _print_report(report, _emit(write_solution(sol), output))


def cmd_certify(args, cfg: RunConfig) -> int:
    lang = _parse_language_arg(args.lang)
    cert = certify_weak_dual(parse(args.regex, lang.infer_alphabet()), lang)
    report = check_weak_dual_support(cert)
    return _report_certificate(report, cert.as_assignment(), args.output)


def cmd_certify_relaxed(args, cfg: RunConfig) -> int:
    cert = certify_relaxed_dual(parse(args.regex), args.n, args.k)
    assignment = cert.as_assignment()
    report = check_feasible(build_relaxed_binomial_dual(args.n, args.k), assignment)
    return _report_certificate(report, assignment, args.output)


def cmd_oracle(args, cfg: RunConfig) -> int:
    result = optimal_regex(_parse_language_arg(args.language), cfg)
    print(f"length {result.length}")
    print(f"witness {result.pattern}")
    print(f"explored {result.explored}")
    return 0


def _n_range(args, lo: int, hi: int) -> range:
    """n from --n-min to --n-max, lo and hi where unset; refused if empty."""
    lo = args.n_min if args.n_min is not None else lo
    hi = args.n_max if args.n_max is not None else hi
    if lo > hi:
        raise ValueError(f"sweep {args.experiment} selects no case: n from {lo} to {hi}")
    return range(lo, hi + 1)


def _b1_cases(args, cfg: RunConfig):
    for n in _n_range(args, 1, 8):
        yield ((str(n), "1"), f"reduced program for n={n}",
               partial(build_reduced_weak_primal_b_n1, n),
               ellul_b_n1_length(n), operator.eq)


def _bnk_cases(args, cfg: RunConfig):
    ns = _n_range(args, 1, 6)
    kmax = args.k_max if args.k_max is not None else 2
    if kmax < 0:
        raise ValueError(f"sweep {args.experiment} selects no case: k from 0 to {kmax}")
    for n in ns:
        for k in range(0, min(n, kmax) + 1):
            yield ((str(n), str(k)), f"relaxed program ({n},{k})",
                   partial(build_relaxed_binomial, n, k),
                   length(ellul_bnk(n, k)), operator.eq)


def _caveat_cases(args, cfg: RunConfig):
    def program(n: int) -> LinearProgram:
        lang = gen_family("threshold", n, 1)
        return build_weak_primal(compute_closure(lang, cfg.closure_max_members))

    for n in _n_range(args, 2, 3):
        yield ((str(n),), f"weak program for T({n},1)", partial(program, n),
               4 * n, operator.le)


# experiment -> (table header, cases); each case is (label cells, what,
# program thunk, goal, comparison), and the program is built inside the timer
_SWEEPS = {
    "b1-conjecture": (("n", "k", "opt", "length", "equal", "seconds"), _b1_cases),
    "bnk-conjecture": (("n", "k", "opt", "length", "equal", "seconds"), _bnk_cases),
    "caveat": (("n", "opt", "bound", "within", "seconds"), _caveat_cases),
}


def _sweep(args, cfg: RunConfig) -> int:
    header, cases = _SWEEPS[args.experiment]
    rows, bad = [], 0
    for cells, what, program, goal, holds in cases(args, cfg):
        t0 = time.perf_counter()
        result = solve(program(), cfg)
        dt = time.perf_counter() - t0
        if result.status == "resource":
            raise ResourceCapError(f"{what}: pivot cap {cfg.solver_max_pivots} reached")
        if result.status != "optimal":
            raise SolverError(f"{what}: status {result.status}")
        ok = holds(result.objective, goal)
        bad += not ok
        rows.append((*cells, _fmt(result.objective), str(goal),
                     "yes" if ok else "NO", f"{dt:.2f}"))
    _print_table(header, rows)
    return 1 if bad else 0


def _sweep_alphas(args, cfg: RunConfig) -> int:
    if args.table:
        table = read_alpha_table(Path(args.table).read_text(encoding="utf-8"))
    else:
        kmax = args.k_max if args.k_max is not None else 3
        nmax = args.n_max if args.n_max is not None else 24
        table = calibrate_alphas(kmax, nmax)
    for j, value in enumerate(table.alphas, start=1):
        print(f"alpha[{j}] = {value!r}")
    limit = max(table.grid_max, table.nmax)
    rows, bad = [], 0
    for k in range(1, table.kmax + 1):
        lo, hi = table.ratio_intervals[k]
        for n in (8, 16, 24, 32, 48, 64):
            if not max(2, k) <= n <= limit:
                continue
            ratio = g_objective(n, k, table) / (n * math.log(n) ** k)
            inside = lo - 1e-12 <= ratio <= hi + 1e-12
            bad += not inside
            rows.append((str(k), str(n), f"{ratio:.6f}", f"{lo:.6f}", f"{hi:.6f}",
                         "yes" if inside else "NO"))
    _print_table(("k", "n", "ratio", "low", "high", "inside"), rows)
    return 1 if bad else 0


# the sweep options each experiment ignores; --table also replaces --k-max and --n-max
_IGNORED = {"b1-conjecture": ("k_max", "table"), "bnk-conjecture": ("table",),
            "caveat": ("k_max", "table"), "alphas": ("n_min",)}


def cmd_sweep(args, cfg: RunConfig) -> int:
    checks = [(name, "") for name in _IGNORED[args.experiment]]
    if args.table:
        checks += [("k_max", " with --table"), ("n_max", " with --table")]
    for name, context in checks:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"sweep {args.experiment}{context} ignores {flag}")
    if args.experiment == "alphas":
        return _sweep_alphas(args, cfg)
    return _sweep(args, cfg)


def cmd_calibrate(args, cfg: RunConfig) -> int:
    table = calibrate_alphas(args.kmax, args.nmax)
    stream = _emit(write_alpha_table(table), args.output)
    for j, value in enumerate(table.alphas, start=1):
        print(f"alpha[{j}] = {value!r}", file=stream)
    for k in sorted(table.ratio_intervals):
        lo, hi = table.ratio_intervals[k]
        print(f"ratio[{k}] in [{lo:.6f}, {hi:.6f}]", file=stream)
    return 0


# -- parser ----------------------------------------------------------------------


def _common_options() -> _Parser:
    """--config, and one override flag per RunConfig setting."""
    common = _Parser(add_help=False)
    group = common.add_argument_group("configuration")
    group.add_argument("--config", metavar="FILE",
                       help="config file (default: $RELP_CONFIG if set)")
    for name in SETTINGS:
        group.add_argument("--" + name.replace("_", "-"), type=int, metavar="INT")
    return common


def build_parser() -> _Parser:
    common = _common_options()
    parser = _Parser(prog="relp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gen", parents=[common], help="write a language family")
    p.add_argument("family", choices=("sigma", "binomial", "threshold"))
    p.add_argument("n", type=int)
    p.add_argument("k", type=int, nargs="?")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("lp", parents=[common], help="build a linear program")
    p.add_argument("kind", choices=(
        "weak", "strong", "weak-dual", "strong-dual",
        "relaxed", "relaxed-dual", "reduced-b1",
    ))
    p.add_argument("--lang", help="language literal or 'family n [k]'")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("solve", parents=[common], help="solve an LP file exactly")
    p.add_argument("lp_file")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", parents=[common],
                       help="check a solution file against an LP file")
    p.add_argument("lp_file")
    p.add_argument("solution_file")
    p.add_argument("--tolerance", type=float, metavar="FLOAT",
                   help="allowed violation (default: 0 for exact values, "
                        "1e-9 for floats)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("certify", parents=[common],
                       help="expression to verified weak dual certificate")
    p.add_argument("regex")
    p.add_argument("--lang", required=True, help="target language")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("certify-relaxed", parents=[common],
                       help="expression to verified block dual certificate")
    p.add_argument("regex")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_certify_relaxed)

    p = sub.add_parser("oracle", parents=[common],
                       help="exhaustive optimal-regex search")
    p.add_argument("language", help="language literal or 'family n [k]'")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", parents=[common], help="run a report table")
    p.add_argument("experiment", choices=(*_SWEEPS, "alphas"))
    p.add_argument("--n-min", type=int)
    p.add_argument("--n-max", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--table", metavar="FILE", help="alpha table to reuse")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", parents=[common],
                       help="fit and verify the weight-k scale constants")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {name: getattr(args, name) for name in SETTINGS}
    try:
        cfg = load_config(args.config, **overrides)
        return args.func(args, cfg)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 2
    except CalibrationError as exc:
        print(f"calibration failed: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver self-check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
