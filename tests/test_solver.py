"""Exact simplex solver: correctness against a vertex-enumeration oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relp import (
    Assignment,
    Language,
    LinearProgram,
    build_strong_primal,
    build_weak_dual,
    build_weak_primal,
    certify_optimal,
    compute_closure,
    solve,
)

from _support import vertex_optimum


def paired_bound_lp() -> LinearProgram:
    """min x1 over 2x1 - x2 >= 1, -x1 + 2x2 >= 1: optimum 1 at (1, 1)."""
    lp = LinearProgram(sense="min")
    lp.add_variable("x1")
    lp.add_variable("x2")
    lp.set_objective({"x1": 1})
    lp.add_row("r1", {"x1": 2, "x2": -1}, ">=", 1)
    lp.add_row("r2", {"x1": -1, "x2": 2}, ">=", 1)
    return lp


class TestKnownOptima:
    def test_paired_bound_lp(self):
        res = solve(paired_bound_lp())
        assert res.status == "optimal"
        assert res.objective == 1
        assert res.assignment.exact
        assert res.assignment.get("x1") == 1
        assert res.assignment.get("x2") == 1
        assert res.duals["r1"] == Fraction(2, 3)
        assert res.duals["r2"] == Fraction(1, 3)

    def test_box_max(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("a", 0, 3)
        lp.add_variable("b", 0, 5)
        lp.set_objective({"a": 2, "b": 1})
        lp.add_row("r", {"a": 1, "b": 1}, "<=", 6)
        res = solve(lp)
        assert res.status == "optimal"
        assert res.objective == 9  # a=3, b=3
        assert res.assignment.get("a") == 3

    def test_degenerate_vertex(self):
        # three constraints meeting at the optimum; needs anti-cycling
        lp = LinearProgram(sense="max")
        lp.add_variable("x")
        lp.add_variable("y")
        lp.set_objective({"x": 1, "y": 1})
        lp.add_row("r1", {"x": 1}, "<=", 1)
        lp.add_row("r2", {"y": 1}, "<=", 1)
        lp.add_row("r3", {"x": 1, "y": 1}, "<=", 2)
        res = solve(lp)
        assert res.status == "optimal" and res.objective == 2

    def test_phase_one_bound_flip_keeps_objective(self):
        # the negative rhs forces phase 1, whose cheapest route to
        # feasibility flips v1 to its upper bound; phase 2 then starts
        # with a nonbasic-at-upper column carrying objective weight
        lp = LinearProgram(sense="max")
        lp.add_variable("v0", 0, 1)
        lp.add_variable("v1", 0, 1)
        lp.set_objective({"v1": 1})
        lp.add_row("r0", {"v1": -1}, "<=", -1)
        lp.add_row("r1", {}, "<=", 0)
        res = solve(lp)
        assert res.status == "optimal"
        assert res.objective == 1
        assert res.assignment.get("v1") == 1
        ok, why = certify_optimal(lp, res.assignment, res.duals)
        assert ok, why

    def test_weak_primal_simple_language(self):
        res = solve(build_weak_primal(compute_closure(Language(["00", "000"]))))
        assert res.status == "optimal" and res.objective == 4

    def test_weak_dual_same_objective(self):
        res = solve(build_weak_dual(compute_closure(Language(["00", "000"]))))
        assert res.status == "optimal" and res.objective == 4

    def test_strong_primal_simple_language(self):
        res = solve(build_strong_primal(compute_closure(Language(["00", "000"]))))
        assert res.status == "optimal" and res.objective == 4


class TestEdgeStatuses:
    def test_infeasible(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("x", 0, 10)
        lp.set_objective({"x": 1})
        lp.add_row("r1", {"x": 1}, "<=", 1)
        lp.add_row("r2", {"x": 1}, ">=", 2)
        assert solve(lp).status == "infeasible"

    def test_infeasible_by_bounds_vs_row(self):
        lp = LinearProgram(sense="min")
        lp.add_variable("x", 0, 1)
        lp.add_variable("y", 0, 1)
        lp.set_objective({"x": 1})
        lp.add_row("r", {"x": 1, "y": 1}, ">=", 3)
        assert solve(lp).status == "infeasible"

    def test_unbounded_with_ray(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("x")
        lp.add_variable("y")
        lp.set_objective({"x": 1})
        lp.add_row("r", {"x": 1, "y": -1}, "<=", 0)  # x can chase y upward
        res = solve(lp)
        assert res.status == "unbounded"
        assert res.ray is not None
        # the ray must improve the objective and respect every row
        gain = sum(Fraction(c) * res.ray.get(n, 0) for n, c in lp.objective.items())
        assert gain > 0
        for row in lp.rows:
            drift = sum(c * res.ray.get(n, 0) for n, c in row.coeffs.items())
            assert drift <= 0

    def test_zero_objective_feasible(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("x", 0, 1)
        lp.add_row("r", {"x": 1}, "<=", 1)
        res = solve(lp)
        assert res.status == "optimal" and res.objective == 0

    def test_pivot_budget_exhaustion(self):
        lp = build_weak_primal(compute_closure(Language(["0011", "0101", "0110"])))
        res = solve(lp, max_pivots=1)
        assert res.status == "resource"

    def test_invalid_modes_rejected(self):
        lp = paired_bound_lp()
        with pytest.raises(ValueError):
            solve(lp, pivot_rule="steepest")
        with pytest.raises(ValueError):
            solve(lp, transpose="maybe")
        with pytest.raises(ValueError):
            solve(lp, row_generation="sometimes")


class TestPathsAgree:
    LANGS = [
        Language(["00", "000"]),
        Language(["01", "10", "11"]),
        Language(["0011", "0101"]),
    ]

    @pytest.mark.parametrize("lang", LANGS)
    def test_transpose_paths(self, lang):
        lp = build_weak_primal(compute_closure(lang))
        base = solve(lp, transpose="never")
        flipped = solve(lp, transpose="always")
        assert base.status == flipped.status == "optimal"
        assert base.objective == flipped.objective
        assert flipped.transposed and not base.transposed

    @pytest.mark.parametrize("lang", LANGS)
    def test_row_generation_paths(self, lang):
        lp = build_weak_primal(compute_closure(lang))
        base = solve(lp, row_generation="never", transpose="never")
        grown = solve(lp, row_generation="always", transpose="never")
        assert base.status == grown.status == "optimal"
        assert base.objective == grown.objective

    @pytest.mark.parametrize("rule", ["bland", "dantzig", "auto"])
    def test_pivot_rules(self, rule):
        for lang in self.LANGS:
            lp = build_weak_primal(compute_closure(lang))
            res = solve(lp, pivot_rule=rule)
            assert res.status == "optimal"
            assert res.objective == solve(lp).objective


class TestAgainstVertexEnumeration:
    @given(
        data=st.data(),
        n_vars=st.integers(2, 3),
        n_rows=st.integers(2, 4),
        sense=st.sampled_from(["max", "min"]),
        transposable=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_boxed_lps(self, data, n_vars, n_rows, sense, transposable):
        # all variables boxed, so the oracle's vertex enumeration is complete.
        # Fractional data makes the tableau scale rows to ints, and nonzero
        # lower bounds make it shift them; every path must agree.  Half the
        # draws are forced to fit transpose_lp (max, <= rows, lower bounds
        # 0), so the transposed path really runs on them.
        frac = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3]))
        lower = st.just(Fraction(0)) if transposable else st.one_of(st.just(Fraction(0)), frac)
        rel = st.just("<=") if transposable else st.sampled_from(["<=", ">="])
        span = st.builds(Fraction, st.integers(1, 10), st.sampled_from([1, 2]))
        lp = LinearProgram(sense="max" if transposable else sense)
        names = [f"v{i}" for i in range(n_vars)]
        for name in names:
            lo = data.draw(lower)
            lp.add_variable(name, lo, lo + data.draw(span))
        lp.set_objective({name: data.draw(frac) for name in names})
        for r in range(n_rows):
            coeffs = {name: data.draw(frac) for name in names}
            lp.add_row(f"r{r}", coeffs, data.draw(rel), data.draw(frac))
        status, objective = vertex_optimum(lp)
        direct = solve(lp, transpose="never", row_generation="never")
        flipped = solve(lp, transpose="always", row_generation="never")
        grown = solve(lp, row_generation="always")
        for res in (direct, flipped, grown):
            assert res.status == status
            if status == "optimal":
                assert res.objective == objective
                report_ok, why = certify_optimal(lp, res.assignment, res.duals)
                assert report_ok, why
        fits_transpose = (
            lp.sense == "max"
            and all(row.rel == "<=" for row in lp.rows)
            and all(lo == 0 for lo, _ in lp.bounds.values())
        )
        assert flipped.transposed == (fits_transpose and status == "optimal")


def infeasible_after_transposed_pivots() -> LinearProgram:
    """An infeasible max program whose transpose is unbounded.

    The transposed attempt pivots before it gives up, so the direct path
    runs after it: x0 >= 1 and 2 x0 <= 1 cannot both hold.
    """
    lp = LinearProgram(sense="max")
    lp.add_variable("x0")
    lp.add_variable("x1", 0, 2)
    lp.set_objective({"x0": 1})
    lp.add_row("r0", {"x0": -1}, "<=", -1)
    lp.add_row("r1", {"x0": -1, "x1": -1}, "<=", -2)
    lp.add_row("r2", {"x0": 2}, "<=", 1)
    return lp


class TestPivotBudget:
    """max_pivots caps the pivots of the whole solve, on every path."""

    @pytest.mark.parametrize("cap", [1, 2, 5, 13])
    def test_direct_path(self, cap):
        lp = build_weak_primal(compute_closure(Language(["0011", "0101", "0110"])))
        res = solve(lp, max_pivots=cap, transpose="never", row_generation="never")
        assert res.status == "resource"
        assert res.iterations <= cap

    @pytest.mark.parametrize("cap", [1, 2, 5, 12])
    def test_transposed_path(self, cap):
        lp = build_weak_primal(compute_closure(Language(["0011", "0101"])))
        assert solve(lp, transpose="always").transposed
        res = solve(lp, max_pivots=cap, transpose="always")
        assert res.status == "resource"
        assert res.iterations <= cap

    @pytest.mark.parametrize("cap", [1, 5, 50])
    def test_row_generation_path(self, cap):
        # row generation solves one restricted program per round; the cap
        # holds across the rounds, not per round
        lp = build_strong_primal(
            compute_closure(Language(["1", "00", "000", "110", "111"]))
        )
        res = solve(lp, max_pivots=cap, row_generation="always")
        assert res.status == "resource"
        assert res.iterations <= cap

    def test_failed_transposed_attempt_is_charged(self):
        lp = infeasible_after_transposed_pivots()
        direct = solve(lp, transpose="never")
        flipped = solve(lp, transpose="always")
        assert direct.status == flipped.status == "infeasible"
        assert not flipped.transposed
        assert flipped.iterations > direct.iterations
        for cap in range(1, flipped.iterations):
            res = solve(lp, max_pivots=cap, transpose="always")
            assert res.status == "resource"
            assert res.iterations <= cap


class TestCertification:
    def test_accepts_solver_output(self):
        lp = build_weak_primal(compute_closure(Language(["00", "000"])))
        res = solve(lp)
        ok, why = certify_optimal(lp, res.assignment, res.duals)
        assert ok, why

    def test_rejects_infeasible_point(self):
        lp = paired_bound_lp()
        res = solve(lp)
        bad = Assignment.from_rationals({"x1": 0, "x2": 0})
        ok, why = certify_optimal(lp, bad, res.duals)
        assert not ok and "infeasible" in why

    def test_rejects_tampered_duals(self):
        lp = paired_bound_lp()
        res = solve(lp)
        tampered = dict(res.duals)
        tampered["r1"] = tampered["r1"] + 1
        ok, _ = certify_optimal(lp, res.assignment, tampered)
        assert not ok

    def test_rejects_suboptimal_point(self):
        # feasible but not optimal: objectives cannot match
        lp = LinearProgram(sense="max")
        lp.add_variable("x", 0, 2)
        lp.set_objective({"x": 1})
        lp.add_row("r", {"x": 1}, "<=", 2)
        res = solve(lp)
        assert res.objective == 2
        ok, _ = certify_optimal(lp, Assignment.from_rationals({"x": 1}), res.duals)
        assert not ok

    def test_rejects_float_assignment(self):
        lp = paired_bound_lp()
        res = solve(lp)
        ok, why = certify_optimal(
            lp, Assignment.from_floats({"x1": 1.0, "x2": 1.0}), res.duals
        )
        assert not ok and "exact" in why

    def test_rejects_unknown_row_multiplier(self):
        lp = paired_bound_lp()
        res = solve(lp)
        duals = dict(res.duals)
        duals["phantom"] = Fraction(1)
        ok, why = certify_optimal(lp, res.assignment, duals)
        assert not ok and "unknown row" in why


class TestResultInvariants:
    @pytest.mark.parametrize("lang", [Language(["00", "000"]), Language(["01", "10"])])
    def test_every_optimum_is_certified_internally(self, lang):
        # solve() refuses to return "optimal" without a matching dual, so
        # a returned optimum always re-certifies
        lp = build_weak_primal(compute_closure(lang))
        res = solve(lp)
        assert res.status == "optimal"
        assert res.iterations >= 0
        ok, why = certify_optimal(lp, res.assignment, res.duals)
        assert ok, why

    def test_exact_arithmetic_fractions(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("x")
        lp.set_objective({"x": 1})
        lp.add_row("r", {"x": Fraction(3, 7)}, "<=", Fraction(1, 11))
        res = solve(lp)
        assert res.objective == Fraction(7, 33)
