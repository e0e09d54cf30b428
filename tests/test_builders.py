"""LP builders: primal/dual families and the mechanical transpose."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings

from relp import (
    Language,
    LinearProgram,
    binomial,
    build_reduced_weak_primal_b_n1,
    build_relaxed_binomial,
    build_relaxed_binomial_dual,
    build_strong_dual,
    build_strong_primal,
    build_weak_dual,
    build_weak_primal,
    compute_closure,
    singleton,
    solve,
    threshold,
    transpose_lp,
    write_lp,
)
from relp.builders import build_weak_support_dual
from relp.closure import BinomialIndex
from relp.lp import row_concat, row_union, var_big_x

from _support import languages, reference_strong_primal


def closure_00_000():
    return compute_closure(Language(["00", "000"]))


class TestWeakPrimal:
    def test_frozen_simple_instance(self):
        assert write_lp(build_weak_primal(closure_00_000())) == (
            "relp-lp v1\n"
            "sense max\n"
            "var x[0] in [0, 1]\n"
            "var x[00] in [0, 2]\n"
            "var x[000] in [0, 3]\n"
            "obj 1 x[00] 1 x[000]\n"
            "row c[{0},{0}]: 1 x[00] -2 x[0] <= 0\n"
            "row c[{0},{0,00}]: 1 x[000] -2 x[0] <= 0\n"
            "row c[{0},{00}]: 1 x[000] -1 x[0] -1 x[00] <= 0\n"
            "row c[{0,00},{0}]: 1 x[000] -2 x[0] <= 0\n"
            "row c[{00},{0}]: 1 x[000] -1 x[00] -1 x[0] <= 0\n"
        )

    def test_shape_invariants(self):
        closure = closure_00_000()
        lp = build_weak_primal(closure)
        assert lp.sense == "max"
        # one variable per closure string, bounded by its length
        assert lp.n_vars == len(closure.strings())
        for s in closure.strings():
            assert lp.bounds[f"x[{s}]"] == (Fraction(0), Fraction(len(s)))
        # objective: unit weight on the target language's strings
        assert lp.objective == {"x[00]": Fraction(1), "x[000]": Fraction(1)}
        assert lp.n_rows == len(closure.concat_pairs())

    def test_netting_row_pinned(self):
        # {0}{0,00} = {00,000}: x[00] is in the product and on the right,
        # so it nets out, and the two x[0] terms merge
        lp = build_weak_primal(compute_closure(Language(["0", "00", "000"])))
        lines = write_lp(lp).splitlines()
        assert "row c[{0},{0,00}]: 1 x[000] -2 x[0] <= 0" in lines


class TestStrongPrimal:
    def test_frozen_unary_instance(self):
        # C({a}) has one member and no incomparable pair, so no rows
        assert write_lp(build_strong_primal(compute_closure(singleton("a")))) == (
            "relp-lp v1\n"
            "sense max\n"
            "var X[{a}] in [0, 1]\n"
            "obj 1 X[{a}]\n"
        )

    def test_shape_invariants(self):
        closure = closure_00_000()
        lp = build_strong_primal(closure)
        assert lp.n_vars == len(closure)  # one X per closure member
        assert lp.n_rows == len(closure.concat_pairs()) + len(closure.union_pairs())
        assert lp.objective == {"X[{00,000}]": Fraction(1)}
        for member in closure.members:
            name = f"X[{member.serialize()}]"
            if member.is_singleton:
                assert lp.bounds[name] == (Fraction(0), Fraction(len(member.only)))
            else:
                assert lp.bounds[name] == (Fraction(0), None)

    def test_counts_simple_instance(self):
        lp = build_strong_primal(closure_00_000())
        # five concat rows and the union rows of {0},{00} and {00},{000}
        assert (lp.n_vars, lp.n_rows) == (5, 7)

    @given(languages(max_strings=3, max_len=3))
    @settings(max_examples=40, deadline=None)
    def test_names_follow_the_naming_contract(self, lang):
        # the builder names members from one serialization each and finds
        # products and unions by their sets; the formatters and Language
        # algebra must give the same program
        closure = compute_closure(lang)
        lp = build_strong_primal(closure)
        assert lp.variables == [var_big_x(k) for k in closure.members]
        assert lp.objective == {var_big_x(lang): 1}
        want = []
        for label, combine, pairs in (
            (row_concat, Language.concat, closure.concat_pairs()),
            (row_union, Language.union, closure.union_pairs()),
        ):
            for k1, k2 in pairs:
                coeffs = {var_big_x(combine(k1, k2)): 1}
                for k in (k1, k2):
                    coeffs[var_big_x(k)] = coeffs.get(var_big_x(k), 0) - 1
                want.append((label(k1, k2), [(n, c) for n, c in coeffs.items() if c]))
        assert [(row.label, list(row.coeffs.items())) for row in lp.rows] == want


class TestStrongAgainstOrderedPairs:
    """The strong program keeps one union row per incomparable pair.  The
    program over every ordered union pair has the same optimum, and each
    row it has beyond ours repeats a kept row or has no positive term."""

    @given(languages(max_strings=4, max_len=3))
    @settings(max_examples=40, deadline=None)
    def test_union_pairs_are_the_incomparable_pairs(self, lang):
        closure = compute_closure(lang)
        want = sorted(
            (
                (k1, k2)
                for k1, k2 in product(closure.members, repeat=2)
                if k1 < k2
                and Language.union(k1, k2) in closure
                and not set(k1.members) <= set(k2.members)
                and not set(k2.members) <= set(k1.members)
            ),
            key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()),
        )
        assert closure.union_pairs() == want

    @given(languages(max_strings=4, max_len=3))
    @settings(max_examples=40, deadline=None)
    def test_dropped_rows_repeat_or_have_no_positive_term(self, lang):
        closure = compute_closure(lang)
        lp = build_strong_primal(closure)
        ref = reference_strong_primal(closure)
        assert (lp.variables, lp.bounds, lp.objective) == (
            ref.variables,
            ref.bounds,
            ref.objective,
        )
        kept = {row.label: (row.coeffs, row.rel, row.rhs) for row in lp.rows}
        for row in ref.rows:
            if row.label in kept:
                assert kept[row.label] == (row.coeffs, row.rel, row.rhs), row.label
            else:
                assert (row.rel, row.rhs) == ("<=", 0), row.label
                assert row.coeffs in [c for c, _, _ in kept.values()] or all(
                    c <= 0 for c in row.coeffs.values()
                ), row.label
        assert kept.keys() <= {row.label for row in ref.rows}

    @given(languages(max_strings=4, max_len=3))
    @settings(max_examples=25, deadline=None)
    def test_same_optimum_as_ordered_pairs(self, lang):
        closure = compute_closure(lang)
        new = solve(build_strong_primal(closure))
        ref = solve(reference_strong_primal(closure))
        assert new.status == ref.status == "optimal"
        assert new.objective == ref.objective


class TestRelaxedBinomial:
    def test_frozen_2_1(self):
        assert write_lp(build_relaxed_binomial(2, 1)) == (
            "relp-lp v1\n"
            "sense max\n"
            "var x[0] in [0, 1]\n"
            "var x[1] in [0, 1]\n"
            "var x[01] in [0, 2]\n"
            "var x[10] in [0, 2]\n"
            "obj 1 x[01] 1 x[10]\n"
            "row q[1,0,1,1]: 1 x[01] -1 x[0] -1 x[1] <= 0\n"
            "row q[1,1,1,0]: 1 x[10] -1 x[1] -1 x[0] <= 0\n"
        )

    def test_counts_8_1(self):
        lp = build_relaxed_binomial(8, 1)
        assert (lp.n_vars, lp.n_rows) == (43, 77)

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 3)])
    def test_shape_matches_index(self, n, k):
        index = BinomialIndex(n, k)
        lp = build_relaxed_binomial(n, k)
        assert lp.n_vars == len(index.strings())
        assert lp.n_rows == len(index.quadruples())
        # objective selects exactly the target block, not every length-n string
        assert set(lp.objective) == {f"x[{s}]" for s in binomial(n, k).members}
        assert all(c == 1 for c in lp.objective.values())

    def test_row_coefficients_average_per_target(self, n=5, k=2):
        # each quadruple row: x over the product block minus the block-share
        # of each factor, scaled so the target side sums to the block count
        lp = build_relaxed_binomial(n, k)
        for row in lp.rows:
            positives = [c for c in row.coeffs.values() if c > 0]
            assert row.rel == "<=" and row.rhs == 0
            assert all(c == 1 for c in positives)


class TestReducedB1:
    def test_counts(self):
        assert (build_reduced_weak_primal_b_n1(1).n_vars,
                build_reduced_weak_primal_b_n1(1).n_rows) == (2, 0)
        lp3 = build_reduced_weak_primal_b_n1(3)
        assert (lp3.n_vars, lp3.n_rows) == (17, 16)

    def test_variables_cover_runs_and_weight1(self):
        lp = build_reduced_weak_primal_b_n1(3)
        for j in (1, 2, 3):
            assert f"x[{'0' * j}]" in lp.bounds
        for s in ("1", "01", "10", "001", "010", "100"):
            assert f"x[{s}]" in lp.bounds
        assert set(lp.objective) == {"x[001]", "x[010]", "x[100]"}

    def test_envelope_vars_are_unbounded_above(self):
        lp = build_reduced_weak_primal_b_n1(4)
        envelopes = [v for v in lp.variables if v.startswith("d[")]
        assert envelopes
        for v in envelopes:
            assert lp.bounds[v] == (Fraction(0), None)

    def test_polynomial_growth(self):
        # the full closure LP explodes exponentially; this one stays tame
        sizes = [build_reduced_weak_primal_b_n1(n).n_vars for n in range(1, 9)]
        assert sizes == sorted(sizes)
        assert sizes[-1] < 8**3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_reduced_weak_primal_b_n1(0)


class TestTranspose:
    def _toy(self) -> LinearProgram:
        lp = LinearProgram(sense="max")
        lp.add_variable("x1", 0, 2)
        lp.add_variable("x2", 0, None)
        lp.set_objective({"x1": 3, "x2": 1})
        lp.add_row("r1", {"x1": 1, "x2": 2}, "<=", 4)
        lp.add_row("r2", {"x1": 1}, "<=", 1)
        return lp

    def test_structure(self):
        lp = self._toy()
        dual = transpose_lp(lp, lambda l: f"y[{l}]", lambda v: f"v[{v}]", lambda v: f"t[{v}]")
        assert dual.sense == "min"
        # one dual var per row plus one per finite upper bound
        assert dual.variables == ["y[r1]", "y[r2]", "v[x1]"]
        assert dual.n_rows == lp.n_vars
        assert dual.objective == {
            "y[r1]": Fraction(4),
            "y[r2]": Fraction(1),
            "v[x1]": Fraction(2),
        }
        by_label = {r.label: r for r in dual.rows}
        assert by_label["t[x1]"].coeffs == {
            "y[r1]": Fraction(1),
            "y[r2]": Fraction(1),
            "v[x1]": Fraction(1),
        }
        assert by_label["t[x1]"].rel == ">=" and by_label["t[x1]"].rhs == 3
        assert by_label["t[x2]"].coeffs == {"y[r1]": Fraction(2)}
        assert by_label["t[x2]"].rhs == 1

    def test_rejects_min_program(self):
        lp = LinearProgram(sense="min")
        lp.add_variable("x")
        with pytest.raises(ValueError, match="max"):
            transpose_lp(lp, str, str, str)

    def test_rejects_ge_rows(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("x")
        lp.add_row("r", {"x": 1}, ">=", 0)
        with pytest.raises(ValueError, match="<="):
            transpose_lp(lp, str, str, str)

    def test_rejects_shifted_lower_bound(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("x", lo=1)
        with pytest.raises(ValueError, match="lower bounds 0"):
            transpose_lp(lp, str, str, str)

    def test_rejects_repeated_row_label(self):
        lp = LinearProgram(sense="max")
        lp.add_variable("x")
        lp.set_objective({"x": 1})
        lp.add_row("r", {"x": 1}, "<=", 1)
        lp.add_row("r", {"x": 1}, "<=", 2)
        with pytest.raises(ValueError, match="distinct row labels, got r twice"):
            transpose_lp(lp, lambda l: f"y[{l}]", str, str)


class TestDualBuilders:
    def test_weak_dual_frozen(self):
        assert write_lp(build_weak_dual(closure_00_000())) == (
            "relp-lp v1\n"
            "sense min\n"
            "var y[{0},{0}] in [0, inf]\n"
            "var y[{0},{0,00}] in [0, inf]\n"
            "var y[{0},{00}] in [0, inf]\n"
            "var y[{0,00},{0}] in [0, inf]\n"
            "var y[{00},{0}] in [0, inf]\n"
            "var w[0] in [0, inf]\n"
            "var w[00] in [0, inf]\n"
            "var w[000] in [0, inf]\n"
            "obj 1 w[0] 2 w[00] 3 w[000]\n"
            "row s[0]: -2 y[{0},{0}] -2 y[{0},{0,00}] -1 y[{0},{00}]"
            " -2 y[{0,00},{0}] -1 y[{00},{0}] 1 w[0] >= 0\n"
            "row s[00]: 1 y[{0},{0}] -1 y[{0},{00}] -1 y[{00},{0}] 1 w[00] >= 1\n"
            "row s[000]: 1 y[{0},{0,00}] 1 y[{0},{00}] 1 y[{0,00},{0}]"
            " 1 y[{00},{0}] 1 w[000] >= 1\n"
        )

    def test_relaxed_dual_frozen_2_1(self):
        assert write_lp(build_relaxed_binomial_dual(2, 1)) == (
            "relp-lp v1\n"
            "sense min\n"
            "var y[1,0,1,1] in [0, inf]\n"
            "var y[1,1,1,0] in [0, inf]\n"
            "var w[0] in [0, inf]\n"
            "var w[1] in [0, inf]\n"
            "var w[01] in [0, inf]\n"
            "var w[10] in [0, inf]\n"
            "obj 1 w[0] 1 w[1] 2 w[01] 2 w[10]\n"
            "row s[0]: -1 y[1,0,1,1] -1 y[1,1,1,0] 1 w[0] >= 0\n"
            "row s[1]: -1 y[1,0,1,1] -1 y[1,1,1,0] 1 w[1] >= 0\n"
            "row s[01]: 1 y[1,0,1,1] 1 w[01] >= 1\n"
            "row s[10]: 1 y[1,1,1,0] 1 w[10] >= 1\n"
        )

    @pytest.mark.parametrize(
        "lang",
        [Language(["00", "000"]), Language(["01", "10"]), singleton("0101")],
    )
    def test_weak_dual_is_the_transpose(self, lang):
        closure = compute_closure(lang)
        primal = build_weak_primal(closure)
        dual = build_weak_dual(closure)
        assert dual.n_vars == primal.n_rows + primal.n_vars  # every x has a bound
        assert dual.n_rows == primal.n_vars
        assert dual.sense == "min"
        # duality of coefficients: dual row for x[s] collects column s
        by_label = {r.label: r for r in dual.rows}
        for row in primal.rows:
            y = f"y{row.label[1:]}"  # c[...] -> y[...]
            for name, c in row.coeffs.items():
                s = name[2:-1]
                assert by_label[f"s[{s}]"].coeffs[y] == c

    @pytest.mark.parametrize("lang", [Language(["00", "000"]), Language(["01", "10"])])
    def test_strong_dual_structure(self, lang):
        closure = compute_closure(lang)
        primal = build_strong_primal(closure)
        dual = build_strong_dual(closure)
        # bound multipliers exist only for the (finitely bounded) singletons
        n_singletons = sum(1 for m in closure.members if m.is_singleton)
        assert dual.n_vars == primal.n_rows + n_singletons
        assert dual.n_rows == primal.n_vars
        assert dual.sense == "min"

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 1), (4, 2), (6, 3)])
    def test_relaxed_dual_structure(self, n, k):
        primal = build_relaxed_binomial(n, k)
        dual = build_relaxed_binomial_dual(n, k)
        assert dual.n_vars == primal.n_rows + primal.n_vars
        assert dual.n_rows == primal.n_vars
        # dual objective weights: every string's length times its bound multiplier
        index = BinomialIndex(n, k)
        for s in index.strings():
            assert dual.objective[f"w[{s}]"] == len(s)

    @pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 10) for k in range(n + 1)])
    def test_relaxed_dual_is_the_transpose(self, n, k):
        # the block dual gathers the block rows itself; its text must be
        # the mechanical transpose's, under the weak dual's names
        transposed = transpose_lp(
            build_relaxed_binomial(n, k),
            lambda label: "y" + label[1:],
            lambda name: "w" + name[1:],
            lambda name: "s" + name[1:],
        )
        # compared as lists of lines: on a mismatch pytest names the first
        # differing line, where a diff of the whole texts runs for minutes
        gathered = write_lp(build_relaxed_binomial_dual(n, k)).splitlines()
        assert gathered == write_lp(transposed).splitlines()

    @given(languages(max_strings=4, max_len=3))
    @settings(max_examples=60, deadline=None)
    def test_closure_duals_are_the_transpose(self, lang):
        # the weak and strong duals gather their own rows under their own
        # names; their texts must be the mechanical transposes of their
        # primals', and the support dual over the whole closure the weak dual
        closure = compute_closure(lang)
        weak = transpose_lp(
            build_weak_primal(closure),
            lambda label: "y" + label[1:],
            lambda name: "w" + name[1:],
            lambda name: "s" + name[1:],
        )
        strong = transpose_lp(
            build_strong_primal(closure),
            lambda label: ("Y" if label[0] == "c" else "Z") + label[1:],
            lambda name: "W[" + name[3:-2] + "]",
            lambda name: "m" + name[1:],
        )
        weak_text = write_lp(build_weak_dual(closure))
        assert weak_text.splitlines() == write_lp(weak).splitlines()
        assert write_lp(build_strong_dual(closure)).splitlines() == write_lp(strong).splitlines()
        support = build_weak_support_dual(closure.base, closure.concat_pairs(), closure.strings())
        assert write_lp(support).splitlines() == weak_text.splitlines()
        # with no pairs, the support is the given strings and the base's
        bare = build_weak_support_dual(closure.base, [], closure.strings())
        assert bare.variables == [f"w[{s}]" for s in closure.strings()]

    def test_relaxed_dual_counts_8_1(self):
        dual = build_relaxed_binomial_dual(8, 1)
        assert (dual.n_vars, dual.n_rows) == (120, 43)


# sha256 of the write_lp text of each program; the relaxed ones are over
# the fitted blocks of C(B(n,k)).  Coefficient storage must not move a
# byte of any of them.
PINNED_LP_SHA256 = {
    "relaxed(5,2)": "69582bbf6b6bcf15fd1a8a0cb45a64b287283b207766f2565e642146676d5563",
    "relaxed(8,3)": "6f2fe05fdc2511bd890a4d828004d72b5e4f7e2c0d871ba5c0aa3dc3f30824eb",
    "relaxed-dual(8,3)": "c003a98f584b738b1d3791dddc21d87d3dfe80a053d775232ec81f6fedc5f32d",
    "relaxed(14,3)": "2941903cc2557a17b4ad03cb39521e50c795835e056b7630de8d70be92ca822f",
    "relaxed-dual(14,3)": "cc29353e0c146975ce640cc30177ecae1929ccf2d57cf5d6919a9ea07ddb4deb",
    "reduced-b1(6)": "0c45f54cb292ded9a000d0ee5f9f3f76d2a13f9232dcb276b9242a8e3facf903",
    "weak C(T(3,1))": "7ab7795f0d911395b47cc387da39fecb5aa485bc13fdc146f14282557e9c6dae",
    "weak-dual C(T(3,1))": "e2ac114d1b80a82a0e22df5617af453f49c051a6e28b8535ca6a748b2af2935f",
    "strong C({00,000})": "2b1e4effab93e7a02ee2e3e9c746c9192c4ee90d4730c17a99c6035a2adae23a",
    "strong-dual C({00,000})": "efff02de3b8b31d150c894e0f944ae263b52e7f25b6dd9d37eb9572daeb13bdd",
}


def pinned_programs() -> dict[str, LinearProgram]:
    t31 = compute_closure(threshold(3, 1))
    c00 = closure_00_000()
    return {
        "relaxed(5,2)": build_relaxed_binomial(5, 2),
        "relaxed(8,3)": build_relaxed_binomial(8, 3),
        "relaxed-dual(8,3)": build_relaxed_binomial_dual(8, 3),
        "relaxed(14,3)": build_relaxed_binomial(14, 3),
        "relaxed-dual(14,3)": build_relaxed_binomial_dual(14, 3),
        "reduced-b1(6)": build_reduced_weak_primal_b_n1(6),
        "weak C(T(3,1))": build_weak_primal(t31),
        "weak-dual C(T(3,1))": build_weak_dual(t31),
        "strong C({00,000})": build_strong_primal(c00),
        "strong-dual C({00,000})": build_strong_dual(c00),
    }


class TestIntegerCoefficients:
    def test_builders_emit_plain_ints(self):
        programs = pinned_programs()
        toy = LinearProgram(sense="max")
        toy.add_variable("a", 0, 3)
        toy.add_variable("b")
        toy.set_objective({"a": 2, "b": 1})
        toy.add_row("r", {"a": 1, "b": 4}, "<=", 5)
        c00 = closure_00_000()
        programs["weak support dual C({00,000})"] = build_weak_support_dual(
            c00.base, c00.concat_pairs(), c00.strings()
        )
        programs["transpose(toy)"] = transpose_lp(
            toy, lambda r: f"y_{r}", lambda v: f"v_{v}", lambda v: f"s_{v}"
        )
        for name, lp in programs.items():
            values = [c for row in lp.rows for c in (*row.coeffs.values(), row.rhs)]
            values += [b for pair in lp.bounds.values() for b in pair if b is not None]
            values += list(lp.objective.values())
            assert values, name
            assert {type(v) for v in values} == {int}, name

    def test_write_lp_text_is_pinned(self):
        for name, lp in pinned_programs().items():
            digest = hashlib.sha256(write_lp(lp).encode()).hexdigest()
            assert digest == PINNED_LP_SHA256[name], name
