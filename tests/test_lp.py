"""LP model, feasibility checking, and the text serialization formats."""

from __future__ import annotations

import random
import re
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relp import (
    Assignment,
    Language,
    LinearProgram,
    SolutionFile,
    build_weak_primal,
    calibrate_alphas,
    check_feasible,
    compute_closure,
    ellul_bnk,
    objective_value,
    parse,
    read_alpha_table,
    read_lp,
    read_solution,
    render,
    write_alpha_table,
    write_lp,
    write_solution,
)
from relp.lp import (
    format_rational,
    parse_rational,
    parse_value,
    row_concat,
    row_string,
    var_big_x,
    var_w,
    var_x,
    var_y_pair,
)

from _support import named_check_feasible, rationals, reference_check


def toy_lp() -> LinearProgram:
    lp = LinearProgram(sense="min")
    lp.add_variable("x1")
    lp.add_variable("x2")
    lp.set_objective({"x1": 1})
    lp.add_row("r1", {"x1": 2, "x2": -1}, ">=", 1)
    lp.add_row("r2", {"x1": -1, "x2": 2}, ">=", 1)
    return lp


class TestModel:
    def test_construction(self):
        lp = toy_lp()
        assert lp.sense == "min"
        assert lp.variables == ["x1", "x2"]
        assert lp.n_vars == 2 and lp.n_rows == 2
        assert lp.bounds["x1"] == (Fraction(0), None)

    def test_bad_sense(self):
        with pytest.raises(ValueError):
            LinearProgram(sense="maximize")

    def test_duplicate_variable(self):
        lp = LinearProgram(sense="min")
        lp.add_variable("x")
        with pytest.raises(ValueError, match="twice"):
            lp.add_variable("x")

    def test_empty_bound_interval(self):
        lp = LinearProgram(sense="min")
        with pytest.raises(ValueError, match="empty bound"):
            lp.add_variable("x", lo=2, hi=1)

    def test_row_undeclared_variable(self):
        # the error names the first undeclared variable, and no row is added
        lp = LinearProgram(sense="min")
        lp.add_variable("x")
        with pytest.raises(ValueError, match=r"^row r references undeclared variable b$"):
            lp.add_row("r", {"x": 1, "b": 2, "a": 3}, "<=", 0)
        assert lp.rows == []

    def test_bad_relation(self):
        lp = LinearProgram(sense="min")
        lp.add_variable("x")
        with pytest.raises(ValueError, match="relation"):
            lp.add_row("r", {"x": 1}, "==", 0)

    def test_objective_undeclared_variable(self):
        lp = LinearProgram(sense="min")
        with pytest.raises(ValueError, match="undeclared"):
            lp.set_objective({"x": 1})

    def test_integral_values_stored_as_int(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("a", Fraction(0), Fraction(4, 2))
        lp.add_variable("b", Fraction(1, 2))
        lp.set_objective({"a": Fraction(3, 1), "b": Fraction(1, 3)})
        lp.add_row("r", {"a": Fraction(-2, 1), "b": Fraction(2, 4)}, "<=", Fraction(6, 3))
        for lp in (lp, read_lp(write_lp(lp))):
            assert [type(v) for v in lp.bounds["a"]] == [int, int]
            assert lp.bounds["b"] == (Fraction(1, 2), None)
            assert type(lp.objective["a"]) is int
            assert lp.objective["b"] == Fraction(1, 3)
            row = lp.rows[0]
            assert type(row.coeffs["a"]) is int and type(row.rhs) is int
            assert row.coeffs["b"] == Fraction(1, 2)

    def test_zero_coefficients_dropped(self):
        lp = LinearProgram(sense="min")
        lp.add_variable("x")
        lp.add_variable("y")
        lp.add_row("r", {"x": 1, "y": 0}, "<=", 1)
        assert lp.rows[0].coeffs == {"x": Fraction(1)}
        lp.set_objective({"x": 0, "y": 2})
        assert lp.objective == {"y": Fraction(2)}

    def test_add_row_stores_normal_coefficients_in_a_copy(self):
        lp = LinearProgram(sense="min")
        for name in "abcd":
            lp.add_variable(name)
        ints = {"a": 3, "b": -1}
        lp.add_row("ints", ints, "<=", 1)
        mixed = {"a": 0, "b": Fraction(4, 2), "c": Fraction(0), "d": Fraction(1, 3)}
        lp.add_row("mixed", mixed, ">=", Fraction(6, 3))
        ints["a"] = 0
        mixed["d"] = 5
        first, second = lp.rows
        assert first.coeffs == {"a": 3, "b": -1} and first.coeffs is not ints
        assert list(second.coeffs.items()) == [("b", 2), ("d", Fraction(1, 3))]
        assert type(second.coeffs["b"]) is int and type(second.rhs) is int


class TestIndexRows:
    """Rows are stored by variable position and read by name."""

    @staticmethod
    def program() -> LinearProgram:
        lp = LinearProgram(sense="max")
        for name in "abcd":
            lp.add_variable(name)
        return lp

    def test_coeffs_view(self):
        lp = self.program()
        lp.add_row("r", {"c": 2, "a": Fraction(1, 3), "d": -1}, "<=", 1)
        row = lp.rows[0]
        assert (row.cols, row.vals) == ([2, 0, 3], [2, Fraction(1, 3), -1])
        view = row.coeffs
        assert isinstance(view, Mapping) and len(view) == 3
        assert view == {"a": Fraction(1, 3), "c": 2, "d": -1}
        assert view != {"a": Fraction(1, 3), "c": 2}
        assert list(view) == ["c", "a", "d"]
        assert list(view.items()) == [("c", 2), ("a", Fraction(1, 3)), ("d", -1)]
        assert list(view.values()) == [2, Fraction(1, 3), -1]
        assert view["d"] == -1 and view.get("b") is None and "b" not in view
        with pytest.raises(KeyError):
            view["b"]
        with pytest.raises(KeyError):
            view["ghost"]
        with pytest.raises(TypeError):
            view["a"] = 5
        with pytest.raises(TypeError):
            del view["a"]
        assert row.coeffs["a"] == Fraction(1, 3)

    def test_name_row_equals_index_row(self):
        lp = self.program()
        lp.add_row("r", {"d": 1, "b": -2}, ">=", Fraction(4, 2))
        lp._add_index_row("r", [3, 1], [1, -2], ">=", 2)
        by_name, by_index = lp.rows
        assert by_name == by_index
        assert (by_name.cols, by_name.vals) == (by_index.cols, by_index.vals)
        lp._add_index_row("r", [1, 3], [-2, 1], ">=", 2)
        assert lp.rows[2] == by_name  # the same coefficients in another order
        lp._add_index_row("r", [3, 1], [1, -1], ">=", 2)
        lp._add_index_row("s", [3, 1], [1, -2], ">=", 2)
        assert lp.rows[3] != by_name and lp.rows[4] != by_name

    @pytest.mark.parametrize("cols", [[0, 2, 0], [1, 4], [-1, 2], [3, 3]])
    def test_bad_index_rows_refused(self, cols):
        lp = self.program()
        message = f"row r has a column out of range or repeated: {cols}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lp._add_index_row("r", cols, [1] * len(cols), "<=", 0)
        with pytest.raises(ValueError, match="2 columns, 1 values"):
            lp._add_index_row("r", [0, 1], [1], "<=", 0)
        with pytest.raises(ValueError, match="relation"):
            lp._add_index_row("r", [0], [1], "==", 0)
        assert lp.rows == []

    def test_variables_declared_in_one_step(self):
        lp = self.program()
        lp._add_variables(["e", "f"], [(0, 3), (0, None)])
        assert lp.variables == ["a", "b", "c", "d", "e", "f"]
        assert lp.position == {name: j for j, name in enumerate("abcdef")}
        assert lp.bounds["e"] == (0, 3) and lp.bounds["f"] == (0, None)
        for names in (["g", "g"], ["g", "a"]):
            with pytest.raises(ValueError, match=f"variable {names[1]} declared twice"):
                lp._add_variables(names, [(0, None)] * 2)
        assert lp.n_vars == 6
        lp._add_index_row("r", [5, 4], [1, 1], "<=", 0)
        assert lp.rows[0].coeffs == {"e": 1, "f": 1}


class TestNaming:
    def test_variable_names(self):
        assert var_x("00") == "x[00]"
        assert var_big_x(Language(["0", "00"])) == "X[{0,00}]"
        assert var_w("01") == "w[01]"
        pair = var_y_pair(Language(["0", "00"]), Language(["0"]))
        assert pair == "y[{0,00},{0}]"

    def test_row_names(self):
        assert row_string("00") == "s[00]"
        assert row_concat(Language(["0"]), Language(["0"])) == "c[{0},{0}]"


class TestFeasibility:
    def test_feasible_exact(self):
        report = check_feasible(toy_lp(), Assignment.from_rationals({"x1": 1, "x2": 1}))
        assert report.feasible
        assert report.violations == []
        assert report.objective == Fraction(1)
        assert report.unknown_names == ()

    def test_missing_names_default_to_zero(self):
        lp = toy_lp()
        report = check_feasible(lp, Assignment.from_rationals({}))
        assert not report.feasible
        labels = {v.where for v in report.violations}
        assert labels == {"r1", "r2"}
        assert report.worst() == Fraction(1)

    def test_exact_checking_has_no_slack(self):
        # one part in 10^12 off on an exact assignment is a violation
        lp = toy_lp()
        eps = Fraction(1, 10**12)
        report = check_feasible(
            lp, Assignment.from_rationals({"x1": 1 - eps, "x2": 1})
        )
        assert not report.feasible
        assert report.worst() == 2 * eps

    def test_float_checking_tolerates_roundoff(self):
        lp = toy_lp()
        report = check_feasible(
            lp, Assignment.from_floats({"x1": 1.0 - 1e-13, "x2": 1.0})
        )
        assert report.feasible

    def test_explicit_tolerance(self):
        lp = toy_lp()
        near = Assignment.from_floats({"x1": 0.9995, "x2": 1.0})
        assert not check_feasible(lp, near, tolerance=1e-6).feasible
        assert check_feasible(lp, near, tolerance=0.01).feasible

    def test_bound_violations(self):
        lp = LinearProgram(sense="min")
        lp.add_variable("x", lo=0, hi=1)
        lp.set_objective({"x": 1})
        low = check_feasible(lp, Assignment.from_rationals({"x": -1}))
        assert [v.kind for v in low.violations] == ["lower"]
        high = check_feasible(lp, Assignment.from_rationals({"x": 2}))
        assert [v.kind for v in high.violations] == ["upper"]

    def test_unknown_names_reported(self):
        report = check_feasible(
            toy_lp(), Assignment.from_rationals({"x1": 1, "x2": 1, "ghost": 5})
        )
        assert report.unknown_names == ("ghost",)
        assert report.feasible  # unknown names are reported, not rejected

    def test_objective_value_float(self):
        lp = toy_lp()
        val = objective_value(lp, Assignment.from_floats({"x1": 0.5}))
        assert val == pytest.approx(0.5)
        assert isinstance(val, float)


@st.composite
def checked_programs(draw):
    """A program with fractional data and an exact point to check on it.

    Each row's rhs is the point's row sum plus a drawn offset, so rows
    come out tight, satisfied, violated, or within a small tolerance.
    Bounds and values are drawn apart, so bounds hold or fail as well.
    """
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    pick = st.sampled_from(names)
    lp = LinearProgram(sense=draw(st.sampled_from(["min", "max"])))
    for name in names:
        lo = draw(rationals())
        hi = draw(st.none() | rationals(2).map(lambda d, lo=lo: lo + abs(d)))
        lp.add_variable(name, lo, hi)
    values = draw(st.dictionaries(pick | st.just("ghost"), rationals(6)))
    point = Assignment.from_rationals(values)
    lp.set_objective(draw(st.dictionaries(pick, rationals())))
    offsets = st.sampled_from([0, Fraction(1, 100), Fraction(-1, 100), Fraction(-1, 50)])
    for i in range(draw(st.integers(0, 5))):
        coeffs = draw(st.dictionaries(pick, rationals(), min_size=1))
        lhs = sum(c * point.get(n) for n, c in coeffs.items())
        rhs = lhs + draw(offsets | rationals(1))
        lp.add_row(f"r{i}", coeffs, draw(st.sampled_from(["<=", ">="])), rhs)
    return lp, point


class TestExactCheckAgainstReference:
    """The one-denominator int check against a row-by-row Fraction check."""

    @given(
        checked_programs(),
        st.booleans(),
        st.sampled_from([None, 0, Fraction(1, 50), 1e-9]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, case, through_text, tolerance):
        lp, point = case
        if through_text:
            lp = read_lp(write_lp(lp))
        report = check_feasible(lp, point, tolerance)
        feasible, objective, found = reference_check(lp, point, tolerance)
        assert report.feasible == feasible
        assert report.objective == objective
        assert [(v.kind, v.where, v.amount) for v in report.violations] == found
        assert all(type(v.amount) is Fraction for v in report.violations)


class TestIndexCheckAgainstNamedCopy:
    """check_feasible over rows by position against the name-keyed check."""

    @given(
        checked_programs(),
        st.booleans(),
        st.sampled_from([None, 0, Fraction(1, 50), 1e-9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_same_report(self, case, floats, tolerance):
        lp, point = case
        if floats:
            point = Assignment.from_floats({n: float(v) for n, v in point.values.items()})
        assert check_feasible(lp, point, tolerance) == named_check_feasible(
            lp, point, tolerance
        )


class TestRationalTokens:
    @pytest.mark.parametrize(
        "q", [Fraction(0), Fraction(3), Fraction(-2, 3), Fraction(10, 4)]
    )
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_format_shapes(self):
        assert format_rational(Fraction(2, 3)) == "2/3"
        assert format_rational(Fraction(4)) == "4"

    @pytest.mark.parametrize("tok", ["", "x", "1/0", "1.5.2", "1e2", "2E-3", "1e10000000"])
    def test_rejects_junk(self, tok):
        with pytest.raises(ValueError):
            parse_rational(tok)

    def test_parse_value_classifies(self):
        assert parse_value("2/3") == (Fraction(2, 3), True)
        assert parse_value("7") == (Fraction(7), True)
        value, exact = parse_value("0.25")
        assert value == 0.25 and not exact
        value, exact = parse_value("1e-3")
        assert value == 1e-3 and not exact


class TestLpTextFormat:
    def test_frozen_text(self):
        text = write_lp(toy_lp())
        assert text == (
            "relp-lp v1\n"
            "sense min\n"
            "var x1 in [0, inf]\n"
            "var x2 in [0, inf]\n"
            "obj 1 x1\n"
            "row r1: 2 x1 -1 x2 >= 1\n"
            "row r2: -1 x1 2 x2 >= 1\n"
        )

    def test_round_trip(self):
        lp = toy_lp()
        back = read_lp(write_lp(lp))
        assert back.sense == lp.sense
        assert back.variables == lp.variables
        assert back.bounds == lp.bounds
        assert back.objective == lp.objective
        assert back.rows == lp.rows

    def test_round_trip_with_upper_bounds_and_empty_obj(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("a", lo=Fraction(-1, 2), hi=Fraction(7, 3))
        lp.add_variable("b")
        lp.add_row("only", {"a": Fraction(1, 3)}, "<=", Fraction(5, 2))
        back = read_lp(write_lp(lp))
        assert back.bounds["a"] == (Fraction(-1, 2), Fraction(7, 3))
        assert back.objective == {}
        assert back.rows[0].rhs == Fraction(5, 2)

    def test_comments_and_blank_lines_ignored(self):
        text = write_lp(toy_lp())
        noisy = "# preamble\n\n" + text.replace(
            "obj 1 x1", "# middle\nobj 1 x1\n"
        )
        assert read_lp(noisy).objective == {"x1": Fraction(1)}

    def test_repeated_terms_sum_in_obj_and_row(self):
        text = "relp-lp v1\nsense max\nvar x in [0, 1]\nobj 1 x 2 x\nrow r: 1 x 1 x <= 1\n"
        lp = read_lp(text)
        assert lp.objective == {"x": Fraction(3)}
        assert dict(lp.rows[0].coeffs) == {"x": Fraction(2)}

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda t: t.replace("relp-lp v1", "relp-lp v2"),
            lambda t: t.replace("sense min\n", ""),
            lambda t: t.replace("row r1:", "row r1"),
            lambda t: t.replace(">= 1", ">="),
            lambda t: t + "nonsense line\n",
            lambda t: t.replace("obj 1 x1", "obj 1 x1\nobj 1 x1"),
            lambda t: t.replace("var x1 in [0, inf]", "var x1 in [0 inf]"),
        ],
    )
    def test_rejects_malformed(self, mutate):
        with pytest.raises(ValueError):
            read_lp(mutate(write_lp(toy_lp())))

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(["min", "max"]),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_random(self, row_data, sense):
        lp = LinearProgram(sense=sense)
        lp.add_variable("u")
        lp.add_variable("v", lo=Fraction(-3), hi=Fraction(9, 2))
        lp.set_objective({"u": Fraction(1, 7), "v": -2})
        for i, (cu, cv) in enumerate(row_data):
            lp.add_row(f"r{i}", {"u": cu, "v": cv}, "<=" if i % 2 else ">=", i)
        back = read_lp(write_lp(lp))
        assert back.sense == lp.sense
        assert back.bounds == lp.bounds
        assert back.objective == lp.objective
        assert back.rows == lp.rows


class TestSolutionTextFormat:
    def test_frozen_text(self):
        sol = SolutionFile(
            status="optimal",
            objective=Fraction(4),
            assignment=Assignment.from_rationals({"x[00]": 1, "x[000]": Fraction(1, 2)}),
        )
        assert write_solution(sol) == (
            "status optimal\n"
            "objective 4\n"
            "x[00] = 1\n"
            "x[000] = 1/2\n"
        )

    def test_round_trip_exact(self):
        sol = SolutionFile(
            status="optimal",
            objective=Fraction(7, 3),
            assignment=Assignment.from_rationals({"a": Fraction(1, 3), "b": 2}),
        )
        back = read_solution(write_solution(sol))
        assert back.status == "optimal"
        assert back.objective == Fraction(7, 3)
        assert back.assignment.exact
        assert dict(back.assignment.values) == {"a": Fraction(1, 3), "b": Fraction(2)}

    def test_round_trip_float(self):
        sol = SolutionFile(
            status="feasible",
            objective=6.295836866004329,
            assignment=Assignment.from_floats({"w[01]": 0.125}),
        )
        back = read_solution(write_solution(sol))
        assert not back.assignment.exact
        assert back.objective == 6.295836866004329
        assert back.assignment.values["w[01]"] == 0.125

    def test_statuses_without_assignment(self):
        back = read_solution("status infeasible\n")
        assert back.status == "infeasible"
        assert back.objective is None
        assert back.assignment is None

    def test_optimal_with_empty_support(self):
        # all-zero optimum still carries an (empty) assignment
        back = read_solution("status optimal\nobjective 0\n")
        assert back.assignment is not None
        assert len(back.assignment) == 0

    def test_mixed_exactness_coerces_to_float(self):
        back = read_solution("status optimal\nobjective 1\na = 1/2\nb = 0.5\n")
        assert not back.assignment.exact
        assert back.assignment.values["a"] == 0.5
        assert isinstance(back.objective, float)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "objective 4\n",
            "status optimal\nx[0] 1\n",
            "status optimal\nx[0] = 1\nx[0] = 2\n",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            read_solution(text)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("status feasible\nx = 1e999\n", "x = 1e999"),
            ("status feasible\ny = 1/2\nx = -1e999\n", "x = -1e999"),
            ("status optimal\nobjective 1e999\nx = 1\n", "objective 1e999"),
        ],
    )
    def test_rejects_non_finite_values(self, text, line):
        # 1e999 overflows to inf, where inf - inf is a nan that passes
        # every comparison of the feasibility check
        with pytest.raises(ValueError, match=re.escape(f"non-finite value in {line!r}")):
            read_solution(text)


# tokens a mutation may write: numbers that overflow or do not parse,
# and the keywords and punctuation of every text format
_FUZZ_TOKENS = (
    "inf", "-inf", "1e999", "-1e999", "nan", "0", "-1", "1/0", "1/2", "0.5", "2e-3",
    "x", "x[0]", "=", ":", ",", "[", "]", "{", "}", "#", "<=", ">=", "obj", "row",
    "var", "in", "sense", "max", "status", "objective", "alpha", "ratio", "kmax",
    "nmax", "grid", "relp-lp v1", "relp-alphas v1", " ", "\n", "",
    "(", ")", "+", "01", "(" * 5000, "1e10000000",
)


def _mutate(text: str, rng: random.Random) -> str:
    """One to three edits: a token replaced, inserted or dropped, a span
    cut, or a line repeated or dropped."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        if op < 3:
            toks = re.split(r"(\s+)", text)
            i = rng.randrange(len(toks))
            toks[i] = (rng.choice(_FUZZ_TOKENS), rng.choice(_FUZZ_TOKENS) + " " + toks[i], "")[op]
            text = "".join(toks)
        elif op == 3 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + rng.randint(1, 8):]
        else:
            lines = text.splitlines(keepends=True) or [""]
            i = rng.randrange(len(lines))
            lines[i:i + 1] = rng.choice(([], [lines[i]] * 2))
            text = "".join(lines)
    return text


class TestReaderFuzz:
    """Mutated text is parsed or refused with ValueError, never another
    exception, by each reader."""

    @staticmethod
    def _texts():
        boxed = LinearProgram(sense="max")
        boxed.add_variable("a", lo=Fraction(-1, 2), hi=Fraction(7, 3))
        boxed.add_variable("b")
        boxed.set_objective({"a": 1, "b": Fraction(-2, 3)})
        boxed.add_row("r", {"a": Fraction(1, 3), "b": 1}, "<=", Fraction(5, 2))
        exact = SolutionFile("optimal", Fraction(7, 3),
                             Assignment.from_rationals({"a": Fraction(1, 3), "x[01]": 2}))
        floats = SolutionFile("feasible", 6.25, Assignment.from_floats({"w[01]": 0.125}))
        return {
            read_lp: [write_lp(boxed), write_lp(build_weak_primal(compute_closure(Language(["00", "000"]))))],
            read_solution: [write_solution(exact), write_solution(floats)],
            read_alpha_table: [write_alpha_table(calibrate_alphas(3, 8))],
            Language.parse: ["{0,01,10,000}"],
            parse: ["(0 + 1) (0 (1 + 0) + 1 1) 0", render(ellul_bnk(6, 2))],
        }

    def test_mutations_parse_or_raise_value_error(self):
        rng = random.Random(20261020)
        for reader, texts in self._texts().items():
            for text in texts:
                reader(text)  # the unmutated text parses
                for _ in range(1500):
                    mutated = _mutate(text, rng)
                    try:
                        reader(mutated)
                    except ValueError:
                        pass
                    except Exception as exc:
                        raise AssertionError(f"{reader.__qualname__}({mutated!r})") from exc
