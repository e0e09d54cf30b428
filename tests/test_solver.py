"""Exact simplex solver: correctness against a vertex-enumeration oracle."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from relp import (
    Assignment,
    Language,
    LinearProgram,
    RunConfig,
    SolverError,
    build_reduced_weak_primal_b_n1,
    build_relaxed_binomial,
    build_relaxed_binomial_dual,
    build_strong_primal,
    build_weak_dual,
    build_weak_primal,
    certify_optimal,
    compute_closure,
    solve,
    solver,
)

from _support import (
    named_certify_optimal,
    negate_one_multiplier,
    rationals,
    reference_certify,
    reference_solve_direct,
    vertex_optimum,
)


def paired_bound_lp() -> LinearProgram:
    """min x1 over 2x1 - x2 >= 1, -x1 + 2x2 >= 1: optimum 1 at (1, 1)."""
    lp = LinearProgram(sense="min")
    lp.add_variable("x1")
    lp.add_variable("x2")
    lp.set_objective({"x1": 1})
    lp.add_row("r1", {"x1": 2, "x2": -1}, ">=", 1)
    lp.add_row("r2", {"x1": -1, "x2": 2}, ">=", 1)
    return lp


def beale_lp() -> LinearProgram:
    """Beale's example: Dantzig pricing cycles on it; optimum -5/4 at
    x4 = x6 = 1."""
    lp = LinearProgram(sense="min")
    for name in ("x4", "x5", "x6", "x7"):
        lp.add_variable(name)
    lp.set_objective({"x4": Fraction(-3, 4), "x5": 20, "x6": Fraction(-1, 2), "x7": 6})
    lp.add_row("r1", {"x4": Fraction(1, 4), "x5": -8, "x6": -1, "x7": 9}, "<=", 0)
    lp.add_row("r2", {"x4": Fraction(1, 2), "x5": -12, "x6": Fraction(-1, 2), "x7": 3}, "<=", 0)
    lp.add_row("r3", {"x6": 1}, "<=", 1)
    return lp


def by_label(lp: LinearProgram, duals) -> dict:
    """Multipliers by row position, keyed instead by row label for the
    label-keyed references; a key that is no row position keeps its text.
    The programs compared this way have unique labels."""
    m = len(lp.rows)
    return {lp.rows[i].label if 0 <= i < m else str(i): y for i, y in duals.items()}


class TestKnownOptima:
    def test_paired_bound_lp(self):
        res = solve(paired_bound_lp())
        assert res.status == "optimal"
        assert res.objective == 1
        assert res.assignment.exact
        assert res.assignment.get("x1") == 1
        assert res.assignment.get("x2") == 1
        assert res.duals == {0: Fraction(2, 3), 1: Fraction(1, 3)}

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
        res = solve(lp, RunConfig(solver_max_pivots=1))
        assert res.status == "resource"

    def test_invalid_modes_rejected(self):
        # settings come from a RunConfig only; solve takes no overrides
        for override in ("pivot_rule", "max_pivots", "stall_threshold"):
            with pytest.raises(TypeError):
                solve(paired_bound_lp(), **{override: 5})


class TestPathsAgree:
    LANGS = [
        Language(["00", "000"]),
        Language(["01", "10", "11"]),
        Language(["0011", "0101"]),
    ]

    # the stall constant picks the rule: at 0 Bland's rule takes over at
    # the first degenerate pivot, at 10**9 Dantzig pricing never hands over
    STALL = {"bland": 0, "dantzig": 10**9, "auto": solver._STALL_PIVOTS}

    @pytest.mark.parametrize("rule", ["bland", "dantzig", "auto"])
    def test_pivot_rules(self, rule, monkeypatch):
        for lang in self.LANGS:
            lp = build_weak_primal(compute_closure(lang))
            want = solve(lp).objective
            with monkeypatch.context() as m:
                m.setattr(solver, "_STALL_PIVOTS", self.STALL[rule])
                res = solve(lp)
            assert res.status == "optimal"
            assert res.objective == want


class TestAntiCycling:
    def test_default_rule_solves_beale(self):
        res = solve(beale_lp(), RunConfig(solver_max_pivots=1000))
        assert res.status == "optimal"
        assert res.objective == Fraction(-5, 4)
        # Dantzig pricing stalls for _STALL_PIVOTS pivots, then Bland's rule
        # finishes; the optimum passed solve's certificate gate
        assert res.iterations > solver._STALL_PIVOTS

    def test_dantzig_pricing_alone_cycles_on_beale(self, monkeypatch):
        monkeypatch.setattr(solver, "_STALL_PIVOTS", 10**9)
        res = solve(beale_lp(), RunConfig(solver_max_pivots=1000))
        assert res.status == "resource"


class TestAgainstVertexEnumeration:
    @given(
        data=st.data(),
        n_vars=st.integers(2, 3),
        n_rows=st.integers(2, 4),
        sense=st.sampled_from(["max", "min"]),
        max_le_zero_lower=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_boxed_lps(self, data, n_vars, n_rows, sense, max_le_zero_lower):
        # all variables boxed, so the oracle's vertex enumeration is complete.
        # Fractional data makes the tableau scale rows to ints, and nonzero
        # lower bounds make it shift them.  Half the draws
        # (max_le_zero_lower) are max programs with <= rows and lower bounds 0.
        frac = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3]))
        lower = (
            st.just(Fraction(0))
            if max_le_zero_lower
            else st.one_of(st.just(Fraction(0)), frac)
        )
        rel = st.just("<=") if max_le_zero_lower else st.sampled_from(["<=", ">="])
        span = st.builds(Fraction, st.integers(1, 10), st.sampled_from([1, 2]))
        lp = LinearProgram(sense="max" if max_le_zero_lower else sense)
        names = [f"v{i}" for i in range(n_vars)]
        for name in names:
            lo = data.draw(lower)
            lp.add_variable(name, lo, lo + data.draw(span))
        lp.set_objective({name: data.draw(frac) for name in names})
        for r in range(n_rows):
            coeffs = {name: data.draw(frac) for name in names}
            lp.add_row(f"r{r}", coeffs, data.draw(rel), data.draw(frac))
        status, objective = vertex_optimum(lp)
        res = solve(lp)
        assert res.status == status
        if status == "optimal":
            assert res.objective == objective
            report_ok, why = certify_optimal(lp, res.assignment, res.duals)
            assert report_ok, why


class TestUnboundedVariables:
    """Random programs with unbounded variables and mixed rows.

    Rows of both senses with rhs of both signs send most draws through
    phase 1, where artificials enter the basis and the rows' slacks move
    into the tableau's slots.
    """

    @given(data=st.data(), n_vars=st.integers(2, 4), n_rows=st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_random_lps(self, data, n_vars, n_rows):
        frac = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3]))
        span = st.builds(Fraction, st.integers(1, 10), st.sampled_from([1, 2]))
        free = data.draw(st.lists(st.booleans(), min_size=n_vars, max_size=n_vars))
        free[data.draw(st.integers(0, n_vars - 1))] = True
        lp = LinearProgram(sense=data.draw(st.sampled_from(["max", "min"])))
        names = [f"v{i}" for i in range(n_vars)]
        for name, unbounded in zip(names, free):
            lo = data.draw(frac)
            lp.add_variable(name, lo, None if unbounded else lo + data.draw(span))
        lp.set_objective({name: data.draw(frac) for name in names})
        for r in range(n_rows):
            coeffs = {name: data.draw(frac) for name in names}
            lp.add_row(f"r{r}", coeffs, data.draw(st.sampled_from(["<=", ">="])), data.draw(frac))
        res = solve(lp)
        event(res.status)
        if res.status == "optimal":
            ok, why = certify_optimal(lp, res.assignment, res.duals)
            assert ok, why
        elif res.status == "unbounded":
            ray = res.ray
            gain = sum(c * ray.get(name, 0) for name, c in lp.objective.items())
            assert gain > 0 if lp.sense == "max" else gain < 0
            for row in lp.rows:
                drift = sum(c * ray.get(name, 0) for name, c in row.coeffs.items())
                assert drift <= 0 if row.rel == "<=" else drift >= 0
            for name, v in ray.items():
                assert v >= 0
                assert v == 0 or lp.bounds[name][1] is None
        else:
            assert res.status == "infeasible"


class TestCondensedTableau:
    @staticmethod
    def capture_tableaux(monkeypatch) -> list:
        """The list every tableau is appended to once a run of it ends."""
        seen = []
        real_run = solver._Tableau.run

        def run(tab, budget):
            out = real_run(tab, budget)
            seen.append(tab)
            return out

        monkeypatch.setattr(solver._Tableau, "run", run)
        return seen

    def test_rows_hold_nonbasic_slots_only(self, monkeypatch):
        # each row has one entry per structural variable and artificial,
        # none per slack; basis and slots partition the variables
        seen = self.capture_tableaux(monkeypatch)
        closure = compute_closure(Language(["1", "00", "000", "110", "111"]))
        for lp in (build_strong_primal(closure), build_weak_dual(closure), paired_bound_lp()):
            assert solve(lp).status == "optimal"
        assert any(len(tab.status) > tab.n + tab.m for tab in seen)
        for tab in seen:
            width = len(tab.status) - tab.m
            assert len(tab.T) == tab.m
            assert all(len(row) == width for row in tab.T)
            assert len(tab.nonbasic) == len(tab.d) == width
            assert sorted(tab.basis + tab.nonbasic) == list(range(len(tab.status)))

    def test_entries_stay_within_64_bits(self, monkeypatch):
        # a row is reduced only once its denominator passes
        # solver._REDUCE_BITS, so no den or entry grows without bound: on
        # the (10,3) block program every one stays within 64 bits (34 at
        # most; 18 when every row was reduced, 388 when none is)
        seen = self.capture_tableaux(monkeypatch)
        res = solve(build_relaxed_binomial(10, 3))
        assert (res.status, res.objective, res.iterations) == ("optimal", 152, 614)
        (tab,) = seen
        ints = [*tab.den, *tab.d, tab.dden, *(v for row in tab.T for v in row)]
        assert max(v.bit_length() for v in ints) <= 64

    @pytest.mark.parametrize(
        "build, objective, pivots",
        [
            (lambda: build_reduced_weak_primal_b_n1(6), 22, 135),
            (lambda: build_relaxed_binomial(7, 3), 66, 131),
            (
                lambda: build_strong_primal(
                    compute_closure(Language(["1", "00", "000", "110", "111"]))
                ),
                9,
                62,
            ),
            # the last three start with negative right-hand sides and so
            # pass through phase 1
            (
                lambda: build_weak_dual(
                    compute_closure(Language(["1", "00", "000", "110", "111"]))
                ),
                9,
                13,
            ),
            (lambda: build_relaxed_binomial_dual(6, 3), 44, 135),
            (lambda: build_relaxed_binomial_dual(7, 2), 51, 155),
        ],
        ids=[
            "reduced-b1-6",
            "relaxed-7-3",
            "strong-anchor",
            "weak-dual-anchor",
            "relaxed-dual-6-3",
            "relaxed-dual-7-2",
        ],
    )
    def test_pivot_counts_pinned(self, build, objective, pivots):
        # the first three were captured on a tableau with a column per
        # slack, the phase-1 cases on one that tracked its own objective;
        # neither change may move a single pivot
        res = solve(build())
        assert res.status == "optimal"
        assert res.objective == objective
        assert res.iterations == pivots


class TestAgainstFractionTableau:
    """The int-valued tableau against the Fraction-valued one it replaced.

    Both run the same exact comparisons, so they must make the same pivots
    and return the same point, multipliers and ray.  Rows of both senses
    with rhs of both signs send draws through phase 1; boxed variables
    give the ratio test its upper-bound case and bound flips.
    """

    @given(data=st.data(), n_vars=st.integers(2, 5), n_rows=st.integers(1, 6))
    @settings(max_examples=250, deadline=None)
    def test_same_pivots_and_points(self, data, n_vars, n_rows):
        event(self.assert_same(self.draw_lp(data, n_vars, n_rows)))

    @given(
        data=st.data(),
        n_vars=st.integers(2, 5),
        n_rows=st.integers(1, 6),
        bits=st.integers(0, 12),
    )
    @settings(max_examples=250, deadline=None)
    def test_same_with_early_reduction(self, data, n_vars, n_rows, bits):
        # at the solver's own bound about one elimination in ten on these
        # small programs passes it and reduces its row; at a bound of a few
        # bits most do, and at 0 every row is reduced, as the reference does
        lp = self.draw_lp(data, n_vars, n_rows)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(solver, "_REDUCE_BITS", bits)
            event(self.assert_same(lp))

    @staticmethod
    def draw_lp(data, n_vars: int, n_rows: int) -> LinearProgram:
        frac = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
        span = st.builds(Fraction, st.integers(1, 12), st.integers(1, 7))
        lp = LinearProgram(sense=data.draw(st.sampled_from(["max", "min"])))
        names = [f"v{i}" for i in range(n_vars)]
        for name in names:
            lo = data.draw(st.one_of(st.just(Fraction(0)), frac))
            hi = data.draw(st.one_of(st.none(), span.map(lambda w, lo=lo: lo + w)))
            lp.add_variable(name, lo, hi)
        lp.set_objective({name: data.draw(frac) for name in names})
        for r in range(n_rows):
            coeffs = {name: data.draw(frac) for name in names}
            lp.add_row(f"r{r}", coeffs, data.draw(st.sampled_from(["<=", ">="])), data.draw(frac))
        return lp

    def test_entering_from_upper_bound(self):
        # x1 flips to its upper bound, then enters the basis decreasing
        # from it: the leaving row takes the value u - t, a step that
        # random draws take in only a few percent of programs
        lp = LinearProgram(sense="max")
        lp.add_variable("x0", 0, 2)
        lp.add_variable("x1", 0, 2)
        lp.set_objective({"x0": -1, "x1": -4})
        lp.add_row("r0", {"x1": 2}, ">=", 4)
        assert self.assert_same(lp) == "optimal"

    @staticmethod
    def assert_same(lp: LinearProgram) -> str:
        want = reference_solve_direct(lp, 1000)
        got = solver._solve_direct(lp, 1000)
        assert got.status == want.status
        assert got.iterations == want.iterations
        assert got.objective == want.objective
        if want.assignment is not None:
            assert got.assignment.values == want.assignment.values
        assert by_label(lp, got.duals) == want.duals
        assert got.ray == want.ray
        return want.status


class TestSolveDigest:
    # sha256 over (status, objective, iterations, sorted assignment, sorted
    # duals by row label) of the paper's two conjecture sweeps (reduced-b1
    # n <= 7, the block program n <= 7, k <= 3) and the (8,3) block dual,
    # captured on the tableau with Fraction basic values: any change to a
    # pivot or to a returned point moves it
    DIGEST = "1098fc466a51cf048751887640de8b5e0aa082f98afd8f1fb85e727f8178e30a"

    def test_sweeps_and_block_dual(self):
        programs = [build_reduced_weak_primal_b_n1(n) for n in range(1, 8)]
        programs += [
            build_relaxed_binomial(n, k) for n in range(1, 8) for k in range(min(n, 3) + 1)
        ]
        programs.append(build_relaxed_binomial_dual(8, 3))
        h = hashlib.sha256()
        for lp in programs:
            res = solve(lp)
            key = (
                res.status,
                str(res.objective),
                res.iterations,
                sorted((k, str(v)) for k, v in res.assignment.values.items()),
                sorted((k, str(v)) for k, v in by_label(lp, res.duals).items()),
            )
            h.update(repr(key).encode())
        assert len(programs) == 33
        assert h.hexdigest() == self.DIGEST


class TestPivotBudget:
    """solver_max_pivots caps the pivots of the whole solve, both phases."""

    @pytest.mark.parametrize("cap", [1, 2, 5, 13])
    def test_direct_path(self, cap):
        lp = build_weak_primal(compute_closure(Language(["0011", "0101", "0110"])))
        res = solve(lp, RunConfig(solver_max_pivots=cap))
        assert res.status == "resource"
        assert res.iterations <= cap

    @pytest.mark.parametrize("cap", [1, 5, 50])
    def test_many_more_rows_than_variables(self, cap):
        # a strong program with far more rows than variables (40 x 313);
        # its solve makes 62 pivots, so every cap stops it
        lp = build_strong_primal(
            compute_closure(Language(["1", "00", "000", "110", "111"]))
        )
        res = solve(lp, RunConfig(solver_max_pivots=cap))
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
        tampered[0] = tampered[0] + 1
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
        # multipliers are keyed by row position: a nonzero one at a
        # negative, out-of-range or non-int key is refused (a label among
        # them), and a zero one is ignored
        lp = paired_bound_lp()
        res = solve(lp)
        for key in (-1, 2, 10**20, "r1", "0", 0.5, None):
            duals = {**res.duals, key: Fraction(1)}
            ok, why = certify_optimal(lp, res.assignment, duals)
            assert (ok, why) == (False, f"multiplier for unknown row {key!r}")
            duals[key] = 0
            assert certify_optimal(lp, res.assignment, duals) == (True, "ok")

    def test_rejects_wrong_sign(self):
        # min program, >= rows: the multipliers must be >= 0
        lp = paired_bound_lp()
        res = solve(lp)
        # given last row first, the refusal still names the first row
        duals = {i: -res.duals[i] for i in sorted(res.duals, reverse=True)}
        ok, why = certify_optimal(lp, res.assignment, duals)
        assert (ok, why) == (False, "multiplier for row r1 has the wrong sign")

    def test_rejects_positive_reduced_cost_on_unbounded_variable(self):
        # max x s.t. x <= 2 with x unbounded above: without the row's
        # multiplier the reduced cost of x stays 1
        lp = LinearProgram(sense="max")
        lp.add_variable("x")
        lp.set_objective({"x": 1})
        lp.add_row("r", {"x": 1}, "<=", 2)
        point = Assignment.from_rationals({"x": 2})
        assert certify_optimal(lp, point, {0: 1}) == (True, "ok")
        assert certify_optimal(lp, point, {}) == (
            False,
            "positive reduced cost on unbounded variable x",
        )


@st.composite
def certify_cases(draw):
    """A program with Fraction data, a point on it and multipliers to judge.

    Every row is drawn to hold at a drawn point inside the bounds, so the
    program is feasible.  When it solves to an optimum, the solver's pair
    is judged, exact or perturbed; otherwise the drawn point with drawn
    multipliers.  Multipliers are keyed by row position; "unknown row"
    puts one at a position past the last row or below the first, and
    "zeros" puts a zero there too.
    """
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    pick = st.sampled_from(names)
    lp = LinearProgram(sense=draw(st.sampled_from(["min", "max"])))
    values = {}
    for name in names:
        lo = draw(rationals(2))
        hi = draw(st.none() | rationals(2).map(lambda d, lo=lo: lo + abs(d)))
        lp.add_variable(name, lo, hi)
        span = abs(draw(rationals(1)))
        values[name] = lo + span if hi is None else min(lo + span, hi)
    point = Assignment.from_rationals(values)
    lp.set_objective(draw(st.dictionaries(pick, rationals())))
    for i in range(draw(st.integers(0, 5))):
        coeffs = draw(st.dictionaries(pick, rationals(), min_size=1))
        rel = draw(st.sampled_from(["<=", ">="]))
        lhs = sum(c * point.get(n) for n, c in coeffs.items())
        slack = abs(draw(st.sampled_from([Fraction(0)]) | rationals(1)))
        lp.add_row(f"r{i}", coeffs, rel, lhs + slack if rel == "<=" else lhs - slack)
    rows = range(len(lp.rows))
    outside = st.sampled_from([-1, len(rows)])
    res = solve(lp)
    if res.status == "optimal":
        point, duals = res.assignment, dict(res.duals)
    else:
        event(f"solve: {res.status}")
        duals = draw(st.dictionaries(st.sampled_from(rows), rationals(1))) if rows else {}
    change = draw(st.sampled_from(["exact", "zeros", "wrong sign", "unknown row", "off"]))
    event(f"multipliers: {change}")
    if change == "zeros":
        for i in rows:
            if i not in duals:
                duals[i] = draw(st.sampled_from([0, Fraction(0)]))
        duals[draw(outside)] = 0
    elif change == "wrong sign" and rows:
        i = draw(st.sampled_from(rows))
        y = duals.get(i, 0)
        duals[i] = -y if y else draw(st.sampled_from([1, -1, Fraction(-1, 3)]))
    elif change == "unknown row":
        duals[draw(outside)] = Fraction(1, 7)
    elif change == "off" and rows:
        i = draw(st.sampled_from(rows))
        duals[i] = duals.get(i, 0) + Fraction(1, 7)
    return lp, point, duals


class TestCertifyAgainstReference:
    """The scaled gate against the Fraction gate it replaced, and the gate
    over rows by position against the same gate over rows by name."""

    @given(certify_cases())
    @settings(max_examples=150, deadline=None)
    def test_same_verdict_and_message(self, case):
        lp, point, duals = case
        verdict = certify_optimal(lp, point, duals)
        event("verdict: " + " ".join(verdict[1].split()[:2]))
        labelled = by_label(lp, duals)
        assert verdict == reference_certify(lp, point, labelled)
        assert verdict == named_certify_optimal(lp, point, labelled)


class TestCertificateGate:
    """solve runs certify_optimal on every optimum.

    ``mode`` takes one value; it keeps the test ids stable from when
    ``solve`` had a second path (row generation) to parametrize over.
    """

    @pytest.mark.parametrize("mode", ["never"])
    def test_bad_pair_is_refused(self, monkeypatch, mode):
        lp = paired_bound_lp()
        assert solve(lp).status == "optimal"
        negate_one_multiplier(monkeypatch)
        with pytest.raises(SolverError, match="failed certification"):
            solve(lp)

    def test_duplicate_row_labels_are_certified(self):
        # labels are for text only; each multiplier sits at its row's position
        lp = paired_bound_lp()
        lp.add_row("r1", {"x2": 1}, "<=", 5)
        res = solve(lp)
        assert (res.status, res.objective) == ("optimal", 1)
        assert certify_optimal(lp, res.assignment, res.duals) == (True, "ok")
        lp = LinearProgram(sense="max")
        lp.add_variable("x")
        lp.add_variable("y")
        lp.set_objective({"x": 1, "y": 2})
        lp.add_row("r", {"x": 1}, "<=", 1)
        lp.add_row("r", {"y": 1}, "<=", 2)
        res = solve(lp)
        assert (res.status, res.objective, res.duals) == ("optimal", 5, {0: 1, 1: 2})


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
