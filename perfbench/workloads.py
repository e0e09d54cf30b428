"""The four workloads: their inputs, expected answers and jobs.

``WORKLOADS[name](seed, toy)`` is the set-up step.  It returns the size
parameters and the list of jobs; every input and every expected answer
(closed forms, written expressions, seeded languages) is made there.
A job is one language or program taken to a certified, checked answer.
Each job records its exact counts in a Counter and raises ``Mismatch``
when an answer disagrees with its independent check.  Every call into
relp goes through the tracer under the per-layer metric it feeds.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import product
from math import comb, prod
from typing import Callable

import relp

from spans import Tracer


class Mismatch(Exception):
    """An answer disagrees with its independent check."""


@dataclass(frozen=True)
class Job:
    id: str
    # fn(tracer, counts, ctx); ctx is shared by the jobs of one batch
    fn: Callable[[Tracer, Counter, dict], None]


# -- steps shared by the jobs ----------------------------------------------------


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got}, expected {want}")


def _closure(t: Tracer, c: Counter, lang: relp.Language, *, union: bool) -> relp.Closure:
    closure = t.call("closure.compute_s", relp.compute_closure, lang)
    c["closure.members"] += len(closure)
    # explicit index-set calls, so the build spans below hold only the build
    t.call("closure.index_s", closure.strings)
    c["closure.concat_pairs"] += len(t.call("closure.index_s", closure.concat_pairs))
    if union:
        c["closure.union_pairs"] += len(t.call("closure.index_s", closure.union_pairs))
    return closure


def _build(t: Tracer, c: Counter, builder, *args) -> relp.LinearProgram:
    lp = t.call("builders.build_s", builder, *args)
    c["builders.vars"] += lp.n_vars
    c["builders.rows"] += lp.n_rows
    c["builders.nnz"] += sum(len(row.coeffs) for row in lp.rows)
    return lp


# relp.solve picks row generation by this private rule and does not say
# in its result that it did; the benchmark asks the same rule so that it
# can report the path mix.  If the rule goes, row generation reads as 0.
_ROWGEN = getattr(relp.solver, "_row_generation_worthwhile", lambda lp: False)


def _solve_certified(t: Tracer, c: Counter, lp: relp.LinearProgram):
    """Solve, then re-run certify_optimal against the same program.

    Row-generation solves are timed under their own span name; run.py
    adds them back into ``solver.solve_s``.
    """
    rowgen = _ROWGEN(lp)
    res = t.call("solver.rowgen_s" if rowgen else "solver.solve_s", relp.solve, lp)
    c["solver.calls"] += 1
    c["solver.rowgen_calls"] += int(rowgen)
    c["solver.pivots"] += res.iterations
    c["solver.transposed_calls"] += int(res.transposed)
    c["solver.resource_calls"] += int(res.status == "resource")
    if res.status != "optimal":
        raise Mismatch(f"solve status {res.status}")
    ok, why = t.call("certify.s", relp.certify_optimal, lp, res.assignment, res.duals)
    c["certify.calls"] += 1
    if not ok:
        c["certify.failed"] += 1
        raise Mismatch(f"re-certification failed: {why}")
    return res.objective


def _check(t: Tracer, c: Counter, what: str, lp, assignment, **kwargs):
    report = t.call("lp.check_s", relp.check_feasible, lp, assignment, **kwargs)
    c["lp.check_calls"] += 1
    if not report.feasible:
        raise Mismatch(f"{what} infeasible, worst violation {report.worst()}")
    return report


# -- sweep-exact: the paper's two conjecture sweeps ------------------------------


def _reduced_b1_job(t, c, ctx, *, n, want):
    lp = _build(t, c, relp.build_reduced_weak_primal_b_n1, n)
    _expect(f"reduced-b1({n}) optimum", _solve_certified(t, c, lp), want)


def _relaxed_job(t, c, ctx, *, n, k, want):
    lp = _build(t, c, relp.build_relaxed_binomial, n, k)
    _expect(f"relaxed({n},{k}) optimum", _solve_certified(t, c, lp), want)


def sweep_exact(seed: int, toy: bool):
    nmax, kmax = (3, 2) if toy else (7, 3)
    jobs = [
        Job(f"b1-{n}", partial(_reduced_b1_job, n=n, want=relp.ellul_b_n1_length(n)))
        for n in range(1, nmax + 1)
    ]
    for n in range(1, nmax + 1):
        for k in range(0, min(n, kmax) + 1):
            want = relp.length(relp.ellul_bnk(n, k))
            jobs.append(Job(f"bnk-{n}-{k}", partial(_relaxed_job, n=n, k=k, want=want)))
    return {"nmax": nmax, "kmax": kmax}, jobs


# -- closure-sigma: subset enumeration in the closure ---------------------------

# union of full levels -> an expression for it; the weak optimum must equal
# the expression's length, and the expression's dual certificate proves the
# weak optimum cannot exceed it
SIGMA = {
    (2, 3): "(0+1)((0+1)(0+1)+0+1)",
    (1, 3): "((0+1)(0+1)(0+1)+0+1)",
    (3,): "(0+1)(0+1)(0+1)",
    (1, 2): "((0+1)(0+1)+0+1)",
}
SIGMA_TOY = {(1, 2): "((0+1)(0+1)+0+1)", (2,): "(0+1)(0+1)"}


def _sigma_job(t, c, ctx, *, lang, expr, want):
    closure = _closure(t, c, lang, union=False)
    lp = _build(t, c, relp.build_weak_primal, closure)
    optimum = _solve_certified(t, c, lp)
    cert = t.call("certificates.dual_cert_s", relp.certify_weak_dual, expr, lang)
    support = t.call("certificates.dual_cert_s", relp.check_weak_dual_support, cert)
    if not support.feasible:
        raise Mismatch(f"weak dual certificate infeasible: {support.violations[0]}")
    _expect("certificate objective", cert.objective(), want)
    _expect("weak optimum", optimum, want)


def closure_sigma(seed: int, toy: bool):
    table = SIGMA_TOY if toy else SIGMA
    jobs = []
    for levels, text in table.items():
        lang = relp.Language(s for n in levels for s in relp.all_strings(n))
        expr = relp.parse(text)
        want = relp.length(expr)
        name = "sigma-" + "".join(map(str, levels))
        jobs.append(Job(name, partial(_sigma_job, lang=lang, expr=expr, want=want)))
    return {"levels": [list(levels) for levels in table]}, jobs


# -- block-analytic: builders and feasibility checks, no simplex ----------------


def _calibrate_job(t, c, ctx, *, kmax, nmax):
    # grid_max=nmax keeps the objective-ratio grid at the program sizes,
    # so the build and check steps, not the grid, carry this workload
    table = t.call(
        "certificates.calibrate_s", relp.calibrate_alphas, kmax, nmax, grid_max=nmax
    )
    if len(table.alphas) != kmax - 1 or min(table.alphas) <= 0:
        raise Mismatch(f"unusable alpha table {table.alphas}")
    ctx["alphas"] = table


def _block_job(t, c, ctx, *, n, k, expr, want):
    table = ctx.get("alphas")
    if table is None:
        raise Mismatch("no alpha table: the calibration job failed")
    primal = _build(t, c, relp.build_relaxed_binomial, n, k)
    point = t.call("certificates.analytic_s", relp.analytic_g, n, k, table)
    lower = _check(t, c, "analytic point g", primal, point, tolerance=1e-9).objective
    cert = t.call("certificates.dual_cert_s", relp.certify_relaxed_dual, expr, n, k)
    _expect("certificate objective", cert.objective(), want)
    dual = _build(t, c, relp.build_relaxed_binomial_dual, n, k)
    duals = t.call("certificates.dual_cert_s", cert.as_assignment)
    _expect("dual objective", _check(t, c, "dual certificate", dual, duals).objective, want)
    # weak duality: a feasible primal point never beats a feasible dual point
    if lower > want + 1e-9:
        raise Mismatch(f"primal point {lower} exceeds dual certificate {want}")


def block_analytic(seed: int, toy: bool):
    nmax, kmax = (4, 3) if toy else (14, 3)
    jobs = [Job("calibrate", partial(_calibrate_job, kmax=kmax, nmax=nmax))]
    for k in range(2, kmax + 1):
        for n in range(k, nmax + 1):
            expr = relp.ellul_bnk(n, k)
            jobs.append(
                Job(
                    f"block-{n}-{k}",
                    partial(_block_job, n=n, k=k, expr=expr, want=relp.length(expr)),
                )
            )
    return {"nmax": nmax, "kmax": kmax, "grid_max": nmax}, jobs


# -- oracle-mix: many small programs through every solver path ------------------

# The run's --seed draws the languages, stratified by shape.  A shape is
# the multiset of member lengths, e.g. (2, 3, 3).  STRATA fixes how many
# languages of each member count are drawn; within a member count, the
# languages are split between shapes in proportion to how often a uniform
# draw of that many distinct strings of length 1..3 has each shape, and
# the seed picks the strings.  So the expected mix is that of a uniform
# draw, while the cost of a batch, which follows shape closely, varies
# less between seeds.  The counts put the median job among three-member
# languages, drawn forty at a time so that job_p50_s steadies, and keep
# a whole batch, anchor included, near four seconds at nominal speed.
STRATA = {1: 4, 2: 12, 3: 40, 4: 12}
STRATA_TOY = {1: 1, 2: 2, 3: 2}
# Row generation (the strong program of most five-member languages) is
# the slowest solver path.  Five-member languages drawn by seed took
# 0.96-4.77 s each (24 drawn, median 2.8 s, on a 2-core x86-64 VM), so a
# seeded one would make job_max_s follow the seed.  This one, the draw
# at that median, runs in every batch and carries that path.
ANCHORS = ("{1,00,000,110,111}",)
LENGTHS = (1, 2, 3)


def _shape_counts(size: int, count: int) -> dict[tuple[int, ...], int]:
    """Split ``count`` languages of ``size`` members between shapes.

    A shape's weight is the number of languages of that shape; the split
    is proportional, rounded by largest remainder.
    """
    pools = [len(relp.all_strings(n)) for n in LENGTHS]
    weights = {}
    for per_len in product(*(range(min(size, p) + 1) for p in pools)):
        if sum(per_len) == size:
            shape = tuple(n for n, k in zip(LENGTHS, per_len) for _ in range(k))
            weights[shape] = prod(comb(p, k) for p, k in zip(pools, per_len))
    total = sum(weights.values())
    exact = {shape: count * w / total for shape, w in weights.items()}
    out = {shape: int(x) for shape, x in exact.items()}
    by_remainder = sorted(exact, key=lambda s: (out[s] - exact[s], s))
    for shape in by_remainder[: count - sum(out.values())]:
        out[shape] += 1
    return {shape: k for shape, k in out.items() if k}


def _draw(rng: random.Random, strata: dict[int, int]) -> list[relp.Language]:
    by_len = {n: sorted(relp.all_strings(n).members) for n in LENGTHS}
    out: list[relp.Language] = []
    for size, count in strata.items():
        for shape, k in _shape_counts(size, count).items():
            drawn: set[relp.Language] = set()
            while len(drawn) < k:
                lang = relp.Language(
                    s for n in LENGTHS for s in rng.sample(by_len[n], shape.count(n))
                )
                if lang not in drawn:
                    drawn.add(lang)
                    out.append(lang)
    return out


def _oracle_job(t, c, ctx, *, lang):
    closure = _closure(t, c, lang, union=True)
    strong = _build(t, c, relp.build_strong_primal, closure)
    weak = _build(t, c, relp.build_weak_primal, closure)
    strong_opt = _solve_certified(t, c, strong)
    weak_opt = _solve_certified(t, c, weak)
    found = t.call("oracle.search_s", relp.optimal_regex, lang)
    c["oracle.explored"] += found.explored
    _expect(f"strong optimum of {lang.serialize()}", strong_opt, found.length)
    if weak_opt > found.length:
        raise Mismatch(f"weak optimum {weak_opt} above search optimum {found.length}")


def oracle_mix(seed: int, toy: bool):
    strata = STRATA_TOY if toy else STRATA
    langs = _draw(random.Random(seed), strata)
    if not toy:
        langs += [relp.Language(text.strip("{}").split(",")) for text in ANCHORS]
    # the id names the language, so one id means one input in every run
    jobs = [Job(f"lang-{lang.serialize()}", partial(_oracle_job, lang=lang)) for lang in langs]
    params = {"strata": {str(k): v for k, v in strata.items()}, "anchors": [] if toy else list(ANCHORS)}
    return params, jobs


WORKLOADS = {
    "sweep-exact": sweep_exact,
    "closure-sigma": closure_sigma,
    "block-analytic": block_analytic,
    "oracle-mix": oracle_mix,
}
