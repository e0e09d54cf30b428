"""End-to-end acceptance gate: ten numbered guarantees, one test each.

Each test re-derives one headline behaviour of the package from scratch —
exact warm-up duality, certificate/oracle agreement, the 2n sandwich for
full languages, the ceil(n log2 2n) weight-one family, block programs
against balanced expressions, oracle cross-validation, threshold bounds,
analytic feasible points, calibrated weight-k scaling, and the structural
invariants — and prints a single ``criterion N: PASS`` line on success
(visible under ``pytest -s``; pytest's own verdict per test is the tally).

Criterion 10 ends with the closed form of weight-block closures:
C(B(n,k)) is every nonempty subset of every block B(m,l) with
0 < m <= n, 0 <= l <= min(m,k) and k - l <= n - m, since no factor of a
weight-k length-n string can drop more weight than length.  It also pins
that the literal rectangle, without that fit condition, strictly
over-approximates the closure for k >= 1, and that ``BinomialIndex``
lists exactly the fitted blocks and the closure's strings.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from relp import (
    Assignment,
    BinomialIndex,
    Concat,
    Language,
    LinearProgram,
    Symbol,
    Union,
    all_strings,
    analytic_binomial1_primal,
    analytic_g,
    analytic_sigma_primal,
    analytic_threshold_strong,
    binomial,
    build_reduced_weak_primal_b_n1,
    build_relaxed_binomial,
    build_relaxed_binomial_dual,
    build_strong_dual,
    build_strong_primal,
    build_weak_dual,
    build_weak_primal,
    calibrate_alphas,
    certify_optimal,
    certify_relaxed_dual,
    certify_weak_dual,
    check_feasible,
    check_weak_dual_support,
    compute_closure,
    ellul_bnk,
    g_objective,
    length,
    optimal_regex,
    parse,
    render,
    solve,
    threshold,
    transpose_lp,
)
from relp.regex import normalize


def _report(n: int, note: str) -> None:
    print(f"criterion {n}: PASS — {note}")


def test_criterion_01_warmup_lp_exact_primal_and_dual():
    # max x1  s.t.  x1 - x2 <= 0,  x1 + 2 x2 <= 3,  x >= 0
    lp = LinearProgram(sense="max")
    lp.add_variable("x1")
    lp.add_variable("x2")
    lp.set_objective({"x1": 1})
    lp.add_row("r1", {"x1": 1, "x2": -1}, "<=", 0)
    lp.add_row("r2", {"x1": 1, "x2": 2}, "<=", 3)

    res = solve(lp)
    assert res.status == "optimal"
    assert res.assignment.exact
    assert res.objective == Fraction(1)
    assert res.assignment.get("x1") == 1
    assert res.assignment.get("x2") == 1
    assert res.duals["r1"] == Fraction(2, 3)
    assert res.duals["r2"] == Fraction(1, 3)
    ok, why = certify_optimal(lp, res.assignment, res.duals)
    assert ok, why

    dual = transpose_lp(
        lp, lambda lab: f"y[{lab}]", lambda v: f"v[{v}]", lambda v: f"c[{v}]"
    )
    dres = solve(dual)
    assert dres.status == "optimal"
    assert dres.objective == res.objective
    assert dres.assignment.get("y[r1]") == Fraction(2, 3)
    assert dres.assignment.get("y[r2]") == Fraction(1, 3)
    _report(1, "warm-up LP: optimum 1 at (1,1), duals (2/3, 1/3), all exact")


def test_criterion_02_simple_language_primal_dual_oracle():
    lang = Language(["00", "000"])
    closure = compute_closure(lang)
    res = solve(build_weak_primal(closure))
    assert res.status == "optimal"
    assert res.objective == 4

    cert = certify_weak_dual("(0+00)0", lang)
    assert cert.w == {"0": Fraction(2), "00": Fraction(1)}
    assert cert.y == {(Language(["0", "00"]), Language(["0"])): Fraction(1)}
    assert cert.objective() == 4
    support = check_weak_dual_support(cert)  # exact, zero tolerance
    assert support.feasible
    assert support.objective == 4
    full = check_feasible(build_weak_dual(closure), cert.as_assignment())
    assert full.feasible
    assert full.objective == 4

    oracle = optimal_regex(lang)
    assert oracle.length == 4
    _report(2, "optimum, expression certificate, and search oracle agree at 4")


def test_criterion_03_full_language_sandwich():
    # feasible point and expression certificate meet at 2n for every n,
    # pinning the optimum without materializing the (doubly exponential)
    # closure; small n solved outright as a cross-check
    for n in range(1, 9):
        primal = analytic_sigma_primal(n)
        lower = sum(primal.get(f"x[{s}]") for s in all_strings(n))
        assert lower == 2 * n  # exact rational arithmetic
        cert = certify_weak_dual("(0+1)" * n)
        assert cert.objective() == 2 * n
        assert check_weak_dual_support(cert).feasible
    for n in range(1, 4):
        lp = build_weak_primal(compute_closure(all_strings(n)))
        assert check_feasible(lp, analytic_sigma_primal(n)).feasible
        assert solve(lp).objective == 2 * n
    _report(3, "2n sandwich pinned for n <= 8; full solves confirm n <= 3")


def test_criterion_04_weight_one_family_reduced_and_reference_point():
    reduced = []
    for n in range(1, 11):
        res = solve(build_reduced_weak_primal_b_n1(n))
        assert res.status == "optimal"
        assert res.objective == math.ceil(n * math.log2(2 * n)), n
        reduced.append(res.objective)
    assert reduced == [1, 4, 8, 12, 17, 22, 27, 32, 38, 44]
    assert reduced[7] == 32

    for n in range(1, 5):
        full = solve(build_weak_primal(compute_closure(binomial(n, 1))))
        assert full.objective == reduced[n - 1], n

    # reference two-decimal point for n = 8.  The binding rows sit exactly
    # on the printed precision, so the values are read as exact decimals
    # and checked at tolerance 1/100 in rational arithmetic; a float pass
    # would tip the boundary rows over by ~1e-15 and wrongly reject it.
    vals = {
        "0": "1.00", "1": "1.00", "00": "2.00", "01": "2.00", "10": "2.00",
        "000": "3.00", "001": "2.92", "010": "2.07", "100": "2.92",
        "0000": "4.00", "0001": "3.11", "0010": "2.88", "0100": "2.88",
        "1000": "3.11",
        "00000": "5.00", "00001": "3.73", "00010": "3.14", "00100": "2.96",
        "01000": "3.14", "10000": "3.73",
        "000000": "6.00", "000001": "4.15", "000010": "3.51", "000100": "3.16",
        "001000": "3.16", "010000": "3.51", "100000": "4.15",
        "0000000": "7.00", "0000001": "4.54", "0000010": "3.83",
        "0000100": "3.39", "0001000": "3.22", "0010000": "3.39",
        "0100000": "3.83", "1000000": "4.54",
        "00000000": "8.00", "00000001": "4.93", "00000010": "4.16",
        "00000100": "3.59", "00001000": "3.30", "00010000": "3.30",
        "00100000": "3.59", "01000000": "4.16", "10000000": "4.93",
    }
    asg = Assignment.from_rationals(
        {f"x[{s}]": Fraction(v) for s, v in vals.items()}
    )
    lp = build_weak_primal(compute_closure(binomial(8, 1)))
    report = check_feasible(lp, asg, tolerance=Fraction(1, 100))
    assert report.feasible, f"worst violation {report.worst()}"
    # the all-zero string of full length is not a factor of any weight-one
    # string, so its variable lies outside the enumerated program; it is
    # reported as unknown rather than scored
    assert report.unknown_names == ("x[00000000]",)
    assert report.objective == Fraction(799, 25)  # 31.96
    assert abs(32 - report.objective) <= Fraction(5, 100)
    _report(4, "reduced optima equal ceil(n log2 2n), n <= 10; reference n=8 "
               "point feasible at 1/100 with objective 31.96")


def test_criterion_05_block_program_matches_balanced_expressions():
    for n in range(1, 11):
        for k in range(0, min(n, 3) + 1):
            r = ellul_bnk(n, k)
            res = solve(build_relaxed_binomial(n, k))
            assert res.status == "optimal"
            assert res.objective == length(r), (n, k)
            cert = certify_relaxed_dual(r, n, k)
            assert cert.objective() == length(r)
            dual = build_relaxed_binomial_dual(n, k)
            assert check_feasible(dual, cert.as_assignment()).feasible, (n, k)
    _report(5, "block optimum equals balanced expression length for all "
               "n <= 10, k <= 3, with tight dual certificates")


def test_criterion_06_exact_match_against_search_oracle():
    rng = random.Random(20260819)
    langs = [Language(["00", "000"]), all_strings(2), threshold(2, 1)]
    for _ in range(100):
        members = {
            "".join(rng.choice("01") for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        }
        langs.append(Language(sorted(members)))
    for lang in langs:
        closure = compute_closure(lang)
        strong = solve(build_strong_primal(closure))
        weak = solve(build_weak_primal(closure))
        oracle = optimal_regex(lang)
        assert strong.objective == oracle.length, lang.serialize()
        assert weak.objective <= strong.objective, lang.serialize()
    _report(6, f"subset-variable optimum equals search optimum on "
               f"{len(langs)} languages; string relaxation never exceeds it")


def test_criterion_07_threshold_weak_bound():
    optima = {}
    for n in (2, 3):
        res = solve(build_weak_primal(compute_closure(threshold(n, 1))))
        assert res.status == "optimal"
        assert res.objective <= 4 * n
        optima[n] = res.objective
    assert optima == {2: 5, 3: 7}
    _report(7, "at-least-one-one weak optima 5 and 7 stay under 4n")


def test_criterion_08_threshold_strong_analytic_vs_solved():
    closure = compute_closure(threshold(3, 1))
    lp = build_strong_primal(closure)
    point = analytic_threshold_strong(3, closure)
    report = check_feasible(lp, point, tolerance=1e-9)
    assert report.feasible, f"worst violation {report.worst()}"
    target = 3 * math.log(3 * math.e)  # = 3 (1 + ln 3)
    assert abs(target - 6.295836866004329) < 1e-12
    assert report.objective == pytest.approx(target, abs=1e-9)

    res = solve(lp)  # 145 variables, 16430 rows
    assert res.status == "optimal"
    assert res.objective == 10
    assert res.objective >= target - 1e-6
    _report(8, "analytic point reaches 3 ln(3e); solved optimum 10 dominates")


def test_criterion_09_weight_k_analytic_scaling():
    for n in range(1, 33):
        lp = build_relaxed_binomial(n, 1)
        report = check_feasible(lp, analytic_binomial1_primal(n), tolerance=1e-9)
        assert report.feasible, n
        assert report.objective == pytest.approx(n * (1 + math.log(n)))

    table = calibrate_alphas(3, 24)
    assert table.alphas == (2.0, 2.0)
    assert table.kmax == 3
    assert table.nmax == 24

    for k in (2, 3):
        for n in range(k, 25):
            lp = build_relaxed_binomial(n, k)
            report = check_feasible(lp, analytic_g(n, k, table), tolerance=1e-9)
            assert report.feasible, (n, k)

    # growth-rate yardstick: the exact asymptotic constant is out of reach
    # of any finite run, so the gate pins the observed objective/(n ln^k n)
    # ratio inside the interval recorded on the calibration grid instead
    for k in (1, 2, 3):
        lo, hi = table.ratio_intervals[k]
        for n in (8, 16, 24):
            ratio = g_objective(n, k, table) / (n * math.log(n) ** k)
            assert lo <= ratio <= hi, (n, k, ratio)
    _report(9, "weight-k analytic points feasible up to n=24 (n=32 at k=1); "
               "objective ratios inside calibrated intervals")


def _random_tree(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return Symbol(rng.choice("01"))
    left = _random_tree(rng, depth - 1)
    right = _random_tree(rng, depth - 1)
    return Union(left, right) if roll < 0.7 else Concat(left, right)


def _assert_exact_transpose(primal, dual, row_var, bound_var, dual_row):
    """Re-derive the transpose of ``primal`` coefficient by coefficient."""
    assert primal.sense == "max"
    assert dual.sense == "min"
    capped = [v for v in primal.variables if primal.bounds[v][1] is not None]
    assert set(dual.variables) == (
        {row_var(r.label) for r in primal.rows} | {bound_var(v) for v in capped}
    )
    expected_obj = {}
    for r in primal.rows:
        if r.rhs:
            expected_obj[row_var(r.label)] = r.rhs
    for v in capped:
        if primal.bounds[v][1]:
            expected_obj[bound_var(v)] = primal.bounds[v][1]
    assert dual.objective == expected_obj

    by_label = {r.label: r for r in dual.rows}
    assert len(dual.rows) == len(primal.variables)
    for v in primal.variables:
        row = by_label[dual_row(v)]
        assert row.rel == ">="
        assert row.rhs == primal.objective.get(v, 0)
        expected = {
            row_var(r.label): r.coeffs[v] for r in primal.rows if v in r.coeffs
        }
        if primal.bounds[v][1] is not None:
            expected[bound_var(v)] = Fraction(1)
        assert row.coeffs == expected


def test_criterion_10_structural_invariants():
    # (a) printer and parser round-trip 1000 random trees: the text syntax
    # cannot carry association, so parsing lands on the canonical fold,
    # after which the round trip is exact and length never drifts
    rng = random.Random(42)
    for _ in range(1000):
        r = _random_tree(rng, rng.randint(0, 6))
        back = parse(render(r))
        assert back == normalize(r)
        assert render(back) == render(r)
        assert length(back) == length(r)

    # (b) the solver closes the duality gap exactly on every solved instance
    closure = compute_closure(Language(["00", "000"]))
    instances = [
        build_weak_primal(closure),
        build_weak_dual(closure),
        build_strong_primal(closure),
        build_relaxed_binomial(4, 1),
        build_relaxed_binomial_dual(4, 1),
        build_reduced_weak_primal_b_n1(3),
    ]
    for lp in instances:
        res = solve(lp)
        assert res.status == "optimal"
        ok, why = certify_optimal(lp, res.assignment, res.duals)
        assert ok, why
    assert (
        solve(build_weak_primal(closure)).objective
        == solve(build_weak_dual(closure)).objective
    )

    # (c) every dual builder is the exact transpose of its primal
    def strip(tagged: str) -> str:
        return tagged[tagged.index("[") :]

    weak_maps = (
        lambda lab: "y" + strip(lab),
        lambda v: "w" + strip(v),
        lambda v: "s" + strip(v),
    )
    strong_maps = (
        lambda lab: ("Y" if lab.startswith("c[") else "Z") + strip(lab),
        lambda v: "W[" + v[3:-2] + "]",
        lambda v: "m" + strip(v),
    )
    _assert_exact_transpose(
        build_weak_primal(closure), build_weak_dual(closure), *weak_maps
    )
    _assert_exact_transpose(
        build_strong_primal(closure), build_strong_dual(closure), *strong_maps
    )
    _assert_exact_transpose(
        build_relaxed_binomial(3, 1), build_relaxed_binomial_dual(3, 1), *weak_maps
    )

    # (d) closure of the full length-n language: every nonempty subset of
    # every shorter full language, and nothing else
    for n in range(1, 4):
        expected = set()
        for m in range(1, n + 1):
            block = all_strings(m).members
            for size in range(1, len(block) + 1):
                for pick in combinations(block, size):
                    expected.add(Language(pick))
        assert set(compute_closure(all_strings(n)).members) == expected, n

    # (e) block sizes are super-multiplicative
    for m1 in range(1, 13):
        for m2 in range(1, 13):
            for l1 in range(0, m1 + 1):
                for l2 in range(0, m2 + 1):
                    assert math.comb(m1 + m2, l1 + l2) >= (
                        math.comb(m1, l1) * math.comb(m2, l2)
                    )

    # (f) the n ln^2 n cost shape is superadditive:
    # (m+n) ln^2(m+n) - m ln^2 m - n ln^2 n <= 2 (m+n) ln(m+n)
    m = np.arange(1, 10_001, dtype=np.float64)
    lm = np.log(m)
    mlm2 = m * lm * lm
    for lo in range(0, 10_000, 500):
        mb = m[lo : lo + 500][:, None]
        s = mb + m[None, :]
        ls = np.log(s)
        lhs = s * ls * ls - mlm2[lo : lo + 500][:, None] - mlm2[None, :]
        assert float((2.0 * s * ls - lhs).min()) >= 0.0

    # (g) the closed form of weight-block closures: C(B(n,k)) is every
    # nonempty subset of every block B(m, l) with 0 < m <= n and
    # 0 <= l <= min(m, k) that leaves room for the missing ones,
    # k - l <= n - m.  A concatenation factor of a language whose strings
    # share one length and weight shares one length and weight itself, and
    # a length-m factor of a weight-k length-n string keeps at least
    # k - (n - m) of its ones.  So the literal rectangle, without the fit
    # condition, strictly over-approximates for every k >= 1, and its extra
    # members are exactly the subsets of the unfit blocks: {1} has no
    # factorization, so C({1}) = {{1}}, and {00} never arises from {01, 10}.
    def block_subsets(blocks: list[tuple[int, int]]) -> set[Language]:
        out = set()
        for m_, l in blocks:
            block = [
                "".join(bits)
                for bits in product("01", repeat=m_)
                if bits.count("1") == l
            ]
            for size in range(1, len(block) + 1):
                for pick in combinations(block, size):
                    out.add(Language(pick))
        return out

    for n in range(1, 5):
        for k in range(0, min(n, 2) + 1):
            rectangle = [
                (m_, l) for m_ in range(1, n + 1) for l in range(0, min(m_, k) + 1)
            ]
            fitted = [(m_, l) for m_, l in rectangle if k - l <= n - m_]
            unfit = [(m_, l) for m_, l in rectangle if k - l > n - m_]
            closure = compute_closure(binomial(n, k))
            actual = set(closure.members)
            assert actual == block_subsets(fitted), (n, k)
            # the block index of the relaxed programs lists exactly this form
            index = BinomialIndex(n, k)
            assert index.blocks() == fitted, (n, k)
            assert index.strings() == closure.strings(), (n, k)
            over = block_subsets(rectangle)
            assert over - actual == block_subsets(unfit), (n, k)
            assert (over > actual) == (k >= 1), (n, k)
    assert Language(["00"]) not in compute_closure(binomial(2, 1))
    _report(10, "all structural invariants hold")
