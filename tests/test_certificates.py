"""Dual certificates read off expressions, analytic primal points, and alphas."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings

from relp import (
    AlphaTable,
    CalibrationError,
    Language,
    WeakDualCert,
    all_strings,
    analytic_binomial1_primal,
    analytic_g,
    analytic_sigma_primal,
    analytic_threshold_strong,
    binomial,
    build_reduced_weak_primal_b_n1,
    build_relaxed_binomial,
    build_relaxed_binomial_dual,
    build_strong_primal,
    build_weak_dual,
    build_weak_primal,
    calibrate_alphas,
    certify_relaxed_dual,
    certify_weak_dual,
    check_feasible,
    check_weak_dual_support,
    compute_closure,
    ellul_bnk,
    ellul_t_n1,
    g_objective,
    g_value,
    length,
    objective_value,
    read_alpha_table,
    relaxed_row_margin,
    singleton,
    threshold,
    write_alpha_table,
)
from relp import certificates
from relp.certificates import _product_g_sum
from relp.closure import BinomialIndex, product_block
from relp.lang import canon_key
from relp.lp import var_x

from _support import (
    alternating_tree,
    reference_calibrate_alphas,
    reference_strings,
    reference_walk,
    regexes,
)


class TestWeakDualCert:
    def test_frozen_simple_expression(self):
        cert = certify_weak_dual("(0+00)0")
        assert cert.w == {"0": Fraction(2), "00": Fraction(1)}
        assert cert.y == {(Language(["0", "00"]), Language(["0"])): Fraction(1)}
        assert cert.objective() == 4
        assert cert.target == Language(["00", "000"])

    def test_support_check_is_exact_and_feasible(self):
        report = check_weak_dual_support(certify_weak_dual("(0+00)0"))
        assert report.feasible
        assert report.objective == 4

    def test_feasible_in_materialized_dual(self):
        cert = certify_weak_dual("(0+00)0")
        lp = build_weak_dual(compute_closure(cert.target))
        report = check_feasible(lp, cert.as_assignment())
        assert report.feasible
        assert objective_value(lp, cert.as_assignment()) == 4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_alphabet_power_expression(self, n):
        text = "(0+1)" * n
        cert = certify_weak_dual(text)
        assert cert.objective() == 2 * n
        assert cert.target == all_strings(n)
        assert check_weak_dual_support(cert).feasible

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_alphabet_power_in_materialized_dual(self, n):
        cert = certify_weak_dual("(0+1)" * n)
        lp = build_weak_dual(compute_closure(all_strings(n)))
        assert check_feasible(lp, cert.as_assignment()).feasible

    def test_objective_always_equals_length(self):
        for text in ["0", "(0+1)", "00(01+10)", "((0+1)(0+1)+000)"]:
            cert = certify_weak_dual(text)
            assert cert.objective() == len(text.replace("(", "").replace(")", "").replace("+", ""))

    def test_target_mismatch_rejected(self):
        with pytest.raises(ValueError, match="denotes"):
            certify_weak_dual("(0+00)0", target=Language(["00"]))

    def test_explicit_matching_target_accepted(self):
        cert = certify_weak_dual("(0+00)0", target=Language(["00", "000"]))
        assert cert.objective() == 4

    def test_union_branches_accumulate(self):
        cert = certify_weak_dual("(0+0)")
        assert cert.w == {"0": Fraction(2)}
        assert cert.objective() == 2  # duplicated branch still pays twice

    @pytest.mark.parametrize(
        "expr",
        ["(0+00)0", "(0+1)(0+1)(0+1)", ellul_t_n1(3)],
        ids=["(0+00)0", "sigma3", "ellul_t_n1(3)"],
    )
    @pytest.mark.parametrize("raise_y, lower_w", [(1, 1), (Fraction(1, 2), 4)])
    def test_support_check_matches_closure_dual_when_perturbed(
        self, expr, raise_y, lower_w
    ):
        # raising one y and lowering one w breaks string rows; lowering w
        # by 4 also drives it negative, so a lower-bound violation shows too
        cert = certify_weak_dual(expr)
        pair = min(cert.y, key=lambda p: (p[0].serialize(), p[1].serialize()))
        term = min(cert.w, key=canon_key)
        bad = WeakDualCert(
            target=cert.target,
            w={**cert.w, term: cert.w[term] - lower_w},
            y={**cert.y, pair: cert.y[pair] + raise_y},
        )
        support = check_weak_dual_support(bad)
        full = check_feasible(
            build_weak_dual(compute_closure(cert.target)), bad.as_assignment()
        )
        assert not full.feasible
        assert support.feasible == full.feasible
        assert support.objective == full.objective
        assert {(v.kind, v.where, v.amount) for v in support.violations} == {
            (v.kind, v.where, v.amount) for v in full.violations
        }


class TestCertificateWalk:
    """The walk reads node languages off one fold and splits each chain by
    running prefix products; the recursive, re-splitting copy agrees."""

    @given(regexes(12))
    @settings(max_examples=300)
    def test_matches_the_re_splitting_walk(self, r):
        lang, terms, splits = certificates._walk(r)
        ref_lang, ref_terms, ref_splits = reference_walk(r)
        assert lang == ref_lang
        assert list(terms.items()) == list(ref_terms.items())
        assert splits == ref_splits

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_on_shared_dags(self, n):
        for k in range(n + 1):
            r = ellul_bnk(n, k)
            lang, terms, splits = certificates._walk(r)
            ref_lang, ref_terms, ref_splits = reference_walk(r)
            assert lang == ref_lang == binomial(n, k)
            assert list(terms.items()) == list(ref_terms.items())
            assert splits == ref_splits

    def test_long_word(self):
        # a word parses to a chain as deep as it is long
        cert = certify_weak_dual("0" * 1000, singleton("0" * 1000))
        assert cert.objective() == 1000
        assert check_weak_dual_support(cert).feasible

    def test_deep_alternating_tree(self):
        # one split per concatenation level but the first, whose two symbols
        # are one term
        depth = sys.getrecursionlimit() + 10
        cert = certify_weak_dual(alternating_tree(depth))
        assert cert.objective() == depth
        assert sum(cert.y.values()) == depth // 2 - 1


class TestRelaxedDualCert:
    def test_frozen_weight_zero(self):
        cert = certify_relaxed_dual(ellul_bnk(5, 0), 5, 0)
        assert cert.w == {"00000": Fraction(1)}
        assert cert.y == {}
        assert cert.objective() == 5

    def test_frozen_2_1(self):
        cert = certify_relaxed_dual(ellul_bnk(2, 1), 2, 1)
        assert cert.w == {"01": Fraction(1), "10": Fraction(1)}
        assert cert.objective() == 4

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_balanced_family_feasible_and_tight(self, n, k):
        if k > n:
            pytest.skip("weight exceeds length")
        r = ellul_bnk(n, k)
        cert = certify_relaxed_dual(r, n, k)
        assert cert.objective() == length(r)
        report = check_feasible(build_relaxed_binomial_dual(n, k), cert.as_assignment())
        assert report.feasible  # zero tolerance: assignment is exact

    def test_full_block_splits_charge_unit_mass(self):
        cert = certify_relaxed_dual(ellul_bnk(4, 1), 4, 1)
        assert all(c >= 1 for c in cert.y.values())
        assert sum(cert.w.values()) >= 1

    def test_language_mismatch_rejected(self):
        with pytest.raises(ValueError, match="denotes"):
            certify_relaxed_dual("(0+1)", 1, 1)

    def test_partial_side_split_is_honestly_infeasible(self):
        # denotes B(4,1), but one split's right side covers only 2 of the
        # 3 strings of block (3,1); the block row sees the whole block,
        # so the certificate misses elsewhere and the check reports it
        cert = certify_relaxed_dual("(0(001+010)+(01+10)00)", 4, 1)
        assert cert.objective() == 13
        assert cert.y[(1, 0, 3, 1)] == Fraction(2, 3)
        report = check_feasible(build_relaxed_binomial_dual(4, 1), cert.as_assignment())
        assert not report.feasible
        assert {v.where for v in report.violations} == {"s[100]", "s[0001]", "s[0010]"}


class TestAnalyticSigma:
    def test_frozen_values(self):
        asg = analytic_sigma_primal(3)
        assert asg.exact
        assert asg.get("x[0]") == 1
        assert asg.get("x[01]") == 1
        assert asg.get("x[010]") == Fraction(3, 4)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_feasible_in_full_program_with_objective_2n(self, n):
        lp = build_weak_primal(compute_closure(all_strings(n)))
        asg = analytic_sigma_primal(n)
        report = check_feasible(lp, asg)  # exact, zero tolerance
        assert report.feasible
        assert report.objective == 2 * n

    def test_sandwich_pins_optimum_without_solving(self):
        # primal point and expression certificate meet at 2n
        n = 6
        primal = analytic_sigma_primal(n)
        lp_obj = sum(
            primal.get(f"x[{s}]") for s in all_strings(n)
        )
        assert lp_obj == 2 * n
        assert certify_weak_dual("(0+1)" * n).objective() == 2 * n

    def test_unary_alphabet(self):
        asg = analytic_sigma_primal(3, alphabet="a")
        assert asg.get("x[aaa]") == 3
        lp = build_weak_primal(compute_closure(all_strings(3, "a")))
        report = check_feasible(lp, asg)
        assert report.feasible and report.objective == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            analytic_sigma_primal(0)


class TestAnalyticBinomial1:
    def test_frozen_values(self):
        asg = analytic_binomial1_primal(2)
        assert asg.get("x[0]") == 1.0
        assert asg.get("x[1]") == 1.0
        assert asg.get("x[00]") == 2.0
        assert asg.get("x[01]") == pytest.approx(1 + math.log(2))

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_feasible_in_block_program(self, n):
        lp = build_relaxed_binomial(n, 1)
        report = check_feasible(lp, analytic_binomial1_primal(n), tolerance=1e-9)
        assert report.feasible
        assert report.objective == pytest.approx(n * (1 + math.log(n)))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_reduced_extension_feasible(self, n):
        from relp import reduced_b1_assignment

        lp = build_reduced_weak_primal_b_n1(n)
        report = check_feasible(lp, reduced_b1_assignment(n), tolerance=1e-9)
        assert report.feasible
        assert report.objective == pytest.approx(n * (1 + math.log(n)))


class TestAnalyticThreshold:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_feasible_in_member_program(self, n):
        closure = compute_closure(threshold(n, 1))
        lp = build_strong_primal(closure)
        asg = analytic_threshold_strong(n, closure)
        report = check_feasible(lp, asg, tolerance=1e-9)
        assert report.feasible
        assert report.objective == pytest.approx(n * (1 + math.log(n)))

    def test_objective_value_at_3(self):
        closure = compute_closure(threshold(3, 1))
        lp = build_strong_primal(closure)
        asg = analytic_threshold_strong(3, closure)
        assert objective_value(lp, asg) == pytest.approx(6.295836866004329, abs=1e-12)


class TestGValue:
    def test_weight_zero_is_length(self):
        assert g_value("0000", ()) == 4.0

    def test_weight_one_is_log_rule(self):
        assert g_value("0100", ()) == pytest.approx(1 + math.log(4))

    def test_weight_two_uses_span(self):
        a = (7.0,)
        assert g_value("11", a) == pytest.approx(7.0 * (math.log(2) / 2))
        # only the inclusive span between the extreme ones matters
        assert g_value("010001", a) == pytest.approx(7.0 * (math.log(5) / 5))
        assert g_value("010001", a) == g_value("100010", a)

    def test_weight_three_squares_the_unit(self):
        a = (7.0, 11.0)
        assert g_value("010101", a) == pytest.approx(11.0 * (math.log(5) / 5) ** 2)

    def test_weight_four_cubes_the_unit(self):
        a = (7.0, 11.0, 13.0)
        assert g_value("01010010100", a) == pytest.approx(13.0 * (math.log(8) / 8) ** 3)

    def test_missing_alpha_rejected(self):
        with pytest.raises(ValueError):
            g_value("11", ())


class TestCalibration:
    def test_frozen_small_table(self):
        table = calibrate_alphas(2, 10)
        assert table.alphas == (2.0,)
        assert table.kmax == 2 and table.nmax == 10 and table.grid_max == 64
        assert table.ratio_intervals[1] == pytest.approx(
            (1.2404491734814955, 2.442695040888964)
        )
        assert table.ratio_intervals[2] == pytest.approx(
            (0.537814979500911, 0.7213475204444817)
        )

    def test_weight_three_table(self):
        assert calibrate_alphas(3, 12).alphas == (2.0, 2.0)

    def test_weight_one_only_needs_no_alphas(self):
        table = calibrate_alphas(1, 6)
        assert table.alphas == ()
        assert 1 in table.ratio_intervals

    def test_calibrated_point_is_feasible(self):
        table = calibrate_alphas(3, 12)
        for n, k in [(8, 2), (12, 2), (8, 3), (12, 3)]:
            lp = build_relaxed_binomial(n, k)
            report = check_feasible(lp, analytic_g(n, k, table), tolerance=1e-9)
            assert report.feasible, (n, k, report.violations[:3])

    def test_row_margins_nonnegative(self):
        table = calibrate_alphas(2, 10)
        # every block row of length <= 10 and weight <= 2, fitted or not
        quads = {q for k in range(3) for q in BinomialIndex(10, k).quadruples()}
        assert len(quads) == 252
        for quad in sorted(quads):
            margin = relaxed_row_margin(quad, lambda s: g_value(s, table))
            assert margin >= -1e-9

    def test_g_objective_matches_direct_sum(self):
        # the sum over spans against g_value summed string by string
        alphas = (2.0, 2.0)
        for k in range(4):
            for n in range(max(1, k), 25):
                direct = sum(g_value(s, alphas) for s in binomial(n, k))
                assert g_objective(n, k, alphas) == pytest.approx(direct, rel=1e-12), (n, k)

    def test_analytic_g_matches_per_string_values(self):
        # g computed once per (length, weight, span) against g_value on
        # every string: same keys, same order, same floats
        alphas = (2.0, 1.0, 0.5)
        for n in range(1, 17):
            for k in range(0, min(n, 4) + 1):
                strings = reference_strings(BinomialIndex(n, k))
                direct = {var_x(s): g_value(s, alphas) for s in strings}
                got = analytic_g(n, k, alphas).values
                assert list(got.items()) == list(direct.items()), (n, k)

    def test_product_block_sums_match_direct_sums(self):
        # calibrate_alphas sums each product block over its spans; the
        # string-by-string sum is the reference
        alphas = (2.0, 1.0, 0.5)
        quads = {q for k in range(5) for q in BinomialIndex(10, k).quadruples()}
        for quad in sorted(quads):
            direct = sum(g_value(u, alphas) for u in product_block(*quad))
            assert _product_g_sum(quad, alphas) == pytest.approx(direct, rel=1e-12), quad

    def test_pinned_table_text(self):
        table = calibrate_alphas(3, 14, grid_max=14)
        assert write_alpha_table(table) == (
            "relp-alphas v1\nkmax 3\nnmax 14\ngrid 14\nalpha 1 2.0\nalpha 2 2.0\n"
            "ratio 1 1.3789231816899512 2.442695040888964\n"
            "ratio 2 0.5378149795009108 0.7213475204444817\n"
            "ratio 3 0.06742512789828424 0.19744461126876864\n"
        )

    def test_exponent_floor_unreachable(self, monkeypatch):
        monkeypatch.setattr(certificates, "_MAX_EXPONENT", 20)
        monkeypatch.setattr(certificates, "_MIN_EXPONENT", 10)
        with pytest.raises(CalibrationError, match="2\\^10"):
            calibrate_alphas(2, 10)

    def test_tables_match_reference(self):
        # the one g over span tables against the calibration as it was,
        # per string and per affine row form: every calibrated alpha is a
        # power of two, so the written tables are identical
        for kmax in range(1, 5):
            for nmax in range(max(2, kmax), 13):
                for grid in (nmax, 24):
                    got = calibrate_alphas(kmax, nmax, grid_max=grid)
                    want = reference_calibrate_alphas(kmax, nmax, grid_max=grid)
                    assert write_alpha_table(got) == write_alpha_table(want), (kmax, nmax, grid)

    def test_exponent_floor_matches_reference(self, monkeypatch):
        monkeypatch.setattr(certificates, "_MAX_EXPONENT", 20)
        monkeypatch.setattr(certificates, "_MIN_EXPONENT", 10)
        messages = []
        for calibrate in (calibrate_alphas, reference_calibrate_alphas):
            with pytest.raises(CalibrationError) as info:
                calibrate(3, 12)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "2^10" in messages[0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            calibrate_alphas(0, 10)
        with pytest.raises(ValueError):
            calibrate_alphas(3, 2)

    def test_alpha_accessor_bounds(self):
        table = calibrate_alphas(2, 10)
        assert table.alpha(1) == 2.0
        with pytest.raises(ValueError):
            table.alpha(2)
        with pytest.raises(ValueError):
            table.alpha(0)


class TestAlphaTableFormat:
    def test_round_trip(self):
        table = calibrate_alphas(3, 12)
        back = read_alpha_table(write_alpha_table(table))
        assert back == table

    def test_frozen_text(self):
        table = AlphaTable(
            alphas=(2.0,),
            kmax=2,
            nmax=10,
            ratio_intervals={1: (1.25, 2.5)},
            grid_max=64,
        )
        assert write_alpha_table(table) == (
            "relp-alphas v1\n"
            "kmax 2\n"
            "nmax 10\n"
            "grid 64\n"
            "alpha 1 2.0\n"
            "ratio 1 1.25 2.5\n"
        )

    def test_rejects_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            read_alpha_table("relp-alphas v2\nkmax 2\nnmax 10\ngrid 64\n")

    def test_rejects_missing_dimensions(self):
        with pytest.raises(ValueError, match="missing"):
            read_alpha_table("relp-alphas v1\nkmax 2\n")

    def test_rejects_gapped_alphas(self):
        text = (
            "relp-alphas v1\nkmax 3\nnmax 10\ngrid 64\n"
            "alpha 1 2.0\nalpha 3 2.0\n"
        )
        with pytest.raises(ValueError, match="contiguous"):
            read_alpha_table(text)

    def test_rejects_unknown_lines(self):
        with pytest.raises(ValueError, match="unrecognized"):
            read_alpha_table("relp-alphas v1\nkmax 2\nnmax 10\ngrid 64\nbogus 1\n")

    # a well-formed kmax 2 table, and the line edits that make it one no
    # calibration could have written
    GOOD = (
        "relp-alphas v1\nkmax 2\nnmax 10\ngrid 64\nalpha 1 2.0\n"
        "ratio 1 1.25 2.5\nratio 2 0.5 0.75\n"
    )

    @pytest.mark.parametrize(
        "old, new, match",
        [
            ("kmax 2\n", "kmax 0\n", "kmax must be >= 1"),
            ("nmax 10\n", "nmax 1\n", "nmax must be >= max"),
            ("alpha 1 2.0\n", "", "needs 1 alphas, got 0"),
            ("alpha 1 2.0\n", "alpha 1 2.0\nalpha 2 2.0\n", "needs 1 alphas, got 2"),
            ("alpha 1 2.0", "alpha 1 nan", "alpha 1 must be finite and positive"),
            ("alpha 1 2.0", "alpha 1 inf", "alpha 1 must be finite and positive"),
            ("alpha 1 2.0", "alpha 1 0.0", "alpha 1 must be finite and positive"),
            ("ratio 2 0.5 0.75\n", "", "ratio lines must be k = 1..2"),
            ("ratio 2 0.5 0.75\n", "ratio 2 0.5 0.75\nratio 3 0.1 0.2\n",
             "ratio lines must be k = 1..2"),
            ("ratio 1 1.25 2.5", "ratio 1 nan nan", "ratio 1 must be finite"),
            ("ratio 1 1.25 2.5", "ratio 1 1.25 inf", "ratio 1 must be finite"),
            ("ratio 1 1.25 2.5", "ratio 1 2.5 1.25", "low <= high"),
            ("alpha 1 2.0\n", "alpha 1 2.0\nalpha 1 4.0\n", "unrecognized"),
            ("ratio 1 1.25 2.5\n", "ratio 1 1.25 2.5\nratio 1 1.0 2.0\n", "unrecognized"),
            ("kmax 2\n", "kmax 2\nkmax 3\n", "unrecognized"),
            ("nmax 10\n", "nmax 10\nnmax 9\n", "unrecognized"),
            ("grid 64\n", "grid 64\ngrid 10\n", "unrecognized"),
            ("grid 64\n", "grid -7\n", "grid must be >= nmax = 10, got -7"),
            ("grid 64\n", "grid 9\n", "grid must be >= nmax = 10, got 9"),
        ],
        ids=[
            "kmax-below-1",
            "nmax-too-small",
            "too-few-alphas",
            "too-many-alphas",
            "alpha-nan",
            "alpha-inf",
            "alpha-zero",
            "ratio-missing",
            "ratio-extra",
            "ratio-nan",
            "ratio-inf",
            "ratio-reversed",
            "alpha-repeated",
            "ratio-repeated",
            "kmax-repeated",
            "nmax-repeated",
            "grid-repeated",
            "grid-negative",
            "grid-below-nmax",
        ],
    )
    def test_rejects_impossible_tables(self, old, new, match):
        assert old in self.GOOD
        with pytest.raises(ValueError, match=match):
            read_alpha_table(self.GOOD.replace(old, new))
