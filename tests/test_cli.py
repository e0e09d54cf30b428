"""Command-line interface: in-process runs of relp.cli.main."""

from __future__ import annotations

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relp import read_alpha_table, read_lp, read_solution
from relp.cli import build_parser, main
from relp.config import DEFAULT_CONFIG, RunConfig
from relp.lang import FORBIDDEN_SYMBOLS, RESERVED_CHARS

from _support import negate_one_multiplier


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_binomial_literal(self, capsys):
        code, out, err = run(capsys, "gen", "binomial", "3", "1")
        assert code == 0
        assert out == "{001,010,100}\n"
        assert "3 strings" in err

    def test_sigma_needs_no_k(self, capsys):
        code, out, _ = run(capsys, "gen", "sigma", "2")
        assert code == 0
        assert out == "{00,01,10,11}\n"

    def test_threshold(self, capsys):
        code, out, _ = run(capsys, "gen", "threshold", "2", "1")
        assert code == 0
        assert out == "{01,10,11}\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "lang.txt"
        code, out, _ = run(capsys, "gen", "binomial", "2", "1", "-o", str(target))
        assert code == 0
        assert target.read_text() == "{01,10}\n"
        assert "2 strings" in out  # report lands on stdout when -o is used

    def test_missing_k_is_input_error(self, capsys):
        code, _, err = run(capsys, "gen", "binomial", "3")
        assert code == 3
        assert "k" in err


class TestLp:
    def test_weak_reports_size(self, capsys, tmp_path):
        target = tmp_path / "weak.lp"
        code, out, _ = run(capsys, "lp", "weak", "--lang", "{00,000}", "-o", str(target))
        assert code == 0
        assert "3 vars, 5 rows" in out
        lp = read_lp(target.read_text())
        assert lp.n_vars == 3 and lp.n_rows == 5

    def test_weak_to_stdout(self, capsys):
        code, out, err = run(capsys, "lp", "weak", "--lang", "{00,000}")
        assert code == 0
        assert out.startswith("relp-lp v1\n")
        assert "3 vars, 5 rows" in err  # report moves to stderr

    def test_family_shorthand(self, capsys):
        code, out, _ = run(capsys, "lp", "strong", "--lang", "threshold 2 1")
        assert code == 0

    def test_relaxed_uses_n_k(self, capsys, tmp_path):
        target = tmp_path / "relaxed.lp"
        code, out, _ = run(capsys, "lp", "relaxed", "--n", "8", "--k", "1",
                           "-o", str(target))
        assert code == 0
        assert "43 vars, 77 rows" in out

    def test_reduced_b1(self, capsys, tmp_path):
        target = tmp_path / "red.lp"
        code, out, _ = run(capsys, "lp", "reduced-b1", "--n", "3", "-o", str(target))
        assert code == 0
        assert "17 vars, 16 rows" in out

    def test_relaxed_requires_n(self, capsys):
        code, _, err = run(capsys, "lp", "relaxed", "--k", "1")
        assert code == 3


class TestSolveCheck:
    @pytest.fixture()
    def weak_lp_file(self, capsys, tmp_path):
        target = tmp_path / "weak.lp"
        run(capsys, "lp", "weak", "--lang", "{00,000}", "-o", str(target))
        return target

    def test_solve(self, capsys, weak_lp_file, tmp_path):
        sol = tmp_path / "weak.sol"
        code, out, _ = run(capsys, "solve", str(weak_lp_file), "-o", str(sol))
        assert code == 0
        assert "objective 4" in out
        # every row of the weak program of {00,000} has one +1 term
        assert "path min-plus" in out.splitlines()
        parsed = read_solution(sol.read_text())
        assert parsed.status == "optimal"
        assert parsed.objective == Fraction(4)

    def test_solve_names_the_tableau(self, capsys, tmp_path):
        target = tmp_path / "anchor.lp"
        run(capsys, "lp", "weak", "--lang", "{1,00,000,110,111}", "-o", str(target))
        code, out, _ = run(capsys, "solve", str(target), "-o", str(tmp_path / "anchor.sol"))
        assert code == 0
        lines = out.splitlines()
        assert "objective 9 (9.0000)" in lines
        assert "path tableau" in lines

    def test_solve_refuses_uncertified_optimum(self, capsys, monkeypatch, weak_lp_file):
        negate_one_multiplier(monkeypatch)
        code, out, err = run(capsys, "solve", str(weak_lp_file))
        assert code == 1
        assert "solver self-check failed" in err
        assert "objective" not in out

    def test_check_accepts_solver_output(self, capsys, weak_lp_file, tmp_path):
        sol = tmp_path / "weak.sol"
        run(capsys, "solve", str(weak_lp_file), "-o", str(sol))
        code, out, _ = run(capsys, "check", str(weak_lp_file), str(sol))
        assert code == 0
        assert "feasible" in out

    def test_check_rejects_tampering(self, capsys, weak_lp_file, tmp_path):
        sol = tmp_path / "weak.sol"
        run(capsys, "solve", str(weak_lp_file), "-o", str(sol))
        text = sol.read_text().replace("x[0] = 1", "x[0] = 0")
        assert text != sol.read_text()
        sol.write_text(text)
        code, out, _ = run(capsys, "check", str(weak_lp_file), str(sol))
        assert code == 1

    def test_check_lists_unknown_names(self, capsys, weak_lp_file, tmp_path):
        sol = tmp_path / "weak.sol"
        run(capsys, "solve", str(weak_lp_file), "-o", str(sol))
        sol.write_text(sol.read_text() + "ghost = 0\n")
        code, out, _ = run(capsys, "check", str(weak_lp_file), str(sol))
        assert code == 0
        assert "unknown names: ghost\n" in out
        assert out.endswith("feasible\n")

    @pytest.fixture()
    def near_miss(self, tmp_path):
        """x = 10001/10000 against x <= 1: over by 1/10000."""
        lp = tmp_path / "x.lp"
        lp.write_text("relp-lp v1\nsense max\nvar x in [0, inf]\nobj 1 x\nrow r: 1 x <= 1\n")
        sol = tmp_path / "x.sol"
        sol.write_text("status feasible\nx = 10001/10000\n")
        return str(lp), str(sol)

    def test_check_is_exact_by_default(self, capsys, near_miss):
        code, out, _ = run(capsys, "check", *near_miss)
        assert code == 1
        assert "violated row r by 1/10000\n" in out
        assert out.endswith("\ninfeasible\n")

    def test_check_refuses_non_finite_values(self, capsys, tmp_path):
        lp = tmp_path / "xy.lp"
        lp.write_text("relp-lp v1\nsense max\nvar x in [0, inf]\nvar y in [0, inf]\n"
                      "obj 1 x\nrow r: 1 x -1 y <= 0\n")
        sol = tmp_path / "xy.sol"
        sol.write_text("status feasible\nx = 1e999\ny = 1e999\n")
        code, out, err = run(capsys, "check", str(lp), str(sol))
        assert code == 3
        assert out == ""
        assert err == "error: non-finite value in 'x = 1e999'\n"

    def test_check_tolerance(self, capsys, near_miss):
        code, out, _ = run(capsys, "check", *near_miss, "--tolerance", "0.01")
        assert code == 0
        assert out.endswith("\nfeasible\n")

    def test_solve_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "solve", str(tmp_path / "absent.lp"))
        assert code == 3

    def test_infeasible_lp_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.lp"
        bad.write_text(
            "relp-lp v1\nsense max\nvar x in [0, 1]\nobj 1 x\n"
            "row a: 1 x <= 0\nrow b: -1 x <= -1\n"
        )
        code, out, _ = run(capsys, "solve", str(bad))
        assert code == 1
        assert "infeasible" in out


class TestCertify:
    def test_weak_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.sol"
        code, out, _ = run(capsys, "certify", "(0+00)0", "--lang", "{00,000}",
                           "-o", str(cert))
        assert code == 0
        assert "objective 4" in out
        parsed = read_solution(cert.read_text())
        assert parsed.assignment.values["w[0]"] == Fraction(2)
        assert parsed.assignment.values["w[00]"] == Fraction(1)
        assert parsed.assignment.values["y[{0,00},{0}]"] == Fraction(1)

    def test_weak_certificate_of_a_long_word(self, capsys):
        # the word parses to one node, one term charged to its own bound
        word = "0" * 1000
        code, out, _ = run(capsys, "certify", word, "--lang", "{" + word + "}")
        assert code == 0
        assert "objective 1000" in out.splitlines()

    def test_weak_certificate_wrong_target(self, capsys):
        code, _, err = run(capsys, "certify", "(0+00)0", "--lang", "{00}")
        assert code == 3

    def test_relaxed_certificate(self, capsys, tmp_path):
        cert = tmp_path / "cert.sol"
        code, out, _ = run(capsys, "certify-relaxed", "(01+10)", "--n", "2",
                           "--k", "1", "-o", str(cert))
        assert code == 0
        assert "objective 4" in out
        parsed = read_solution(cert.read_text())
        assert parsed.assignment.values["w[01]"] == Fraction(1)
        assert parsed.assignment.values["w[10]"] == Fraction(1)

    def test_relaxed_partial_split_fails_verification(self, capsys):
        code, _, _ = run(capsys, "certify-relaxed", "(0(001+010)+(01+10)00)",
                         "--n", "4", "--k", "1")
        assert code == 1


class TestOracle:
    def test_named_language(self, capsys):
        code, out, _ = run(capsys, "oracle", "{00,000}")
        assert code == 0
        assert "length 4" in out
        assert "(00+0)0" in out

    def test_family_argument(self, capsys):
        code, out, _ = run(capsys, "oracle", "binomial 3 1")
        assert code == 0
        assert "length 8" in out

    def test_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "oracle", "sigma 4")
        assert code == 2

    def test_cap_flag_override(self, capsys):
        code, _, _ = run(capsys, "oracle", "{0,1,00}", "--oracle-max-strings", "2")
        assert code == 2
        code, out, _ = run(capsys, "oracle", "{0,1,00}", "--oracle-max-strings", "3")
        assert code == 0

    @given(st.text(alphabet=sorted(set("{},") | RESERVED_CHARS | FORBIDDEN_SYMBOLS), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_text_of_markup_is_refused(self, text):
        # braces, commas, reserved and forbidden characters spell no
        # alphabet symbol: exit 3 (or 2 on a cap), never a traceback
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["oracle", text])
        assert code in (2, 3), (code, out.getvalue())
        assert err.getvalue().startswith("resource cap:" if code == 2 else "error:")
        assert out.getvalue() == ""


def table_without_seconds(out):
    """Each line of a sweep table split into cells, minus its seconds cell."""
    return [re.split(r"\s{2,}", ln.strip())[:-1] for ln in out.splitlines()]


class TestSweeps:
    def test_b1_conjecture_small(self, capsys):
        code, out, _ = run(capsys, "sweep", "b1-conjecture", "--n-max", "4")
        assert code == 0
        assert table_without_seconds(out) == [
            ["n", "k", "opt", "length", "equal"],
            ["1", "1", "1 (1.0000)", "1", "yes"],
            ["2", "1", "4 (4.0000)", "4", "yes"],
            ["3", "1", "8 (8.0000)", "8", "yes"],
            ["4", "1", "12 (12.0000)", "12", "yes"],
        ]

    def test_bnk_conjecture_small(self, capsys):
        code, out, _ = run(capsys, "sweep", "bnk-conjecture", "--n-max", "3")
        assert code == 0
        assert table_without_seconds(out) == [
            ["n", "k", "opt", "length", "equal"],
            ["1", "0", "1 (1.0000)", "1", "yes"],
            ["1", "1", "1 (1.0000)", "1", "yes"],
            ["2", "0", "2 (2.0000)", "2", "yes"],
            ["2", "1", "4 (4.0000)", "4", "yes"],
            ["2", "2", "2 (2.0000)", "2", "yes"],
            ["3", "0", "3 (3.0000)", "3", "yes"],
            ["3", "1", "8 (8.0000)", "8", "yes"],
            ["3", "2", "8 (8.0000)", "8", "yes"],
        ]

    def test_bnk_conjecture_honours_n_min(self, capsys):
        code, out, _ = run(capsys, "sweep", "bnk-conjecture", "--n-min", "3",
                           "--n-max", "3", "--k-max", "1")
        assert code == 0
        assert table_without_seconds(out) == [
            ["n", "k", "opt", "length", "equal"],
            ["3", "0", "3 (3.0000)", "3", "yes"],
            ["3", "1", "8 (8.0000)", "8", "yes"],
        ]

    def test_caveat(self, capsys):
        code, out, _ = run(capsys, "sweep", "caveat", "--n-max", "2")
        assert code == 0
        assert table_without_seconds(out) == [
            ["n", "opt", "bound", "within"],
            ["2", "5 (5.0000)", "8", "yes"],  # opt for T(2,1)
        ]

    def test_pivot_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep", "bnk-conjecture", "--n-max", "4",
                             "--solver-max-pivots", "3")
        assert code == 2
        assert out == ""
        # (2,1) is min-plus and makes no pivots; (3,1) takes the tableau
        assert err.startswith("resource cap: relaxed program (3,1): pivot cap 3")

    def test_closure_cap_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "caveat", "--n-max", "3",
                           "--closure-max-members", "20")
        assert code == 2
        assert err.startswith("resource cap:")

    def test_alphas_with_table(self, capsys, tmp_path):
        table_file = tmp_path / "alphas.txt"
        code, _, _ = run(capsys, "calibrate", "--kmax", "2", "--nmax", "10",
                         "-o", str(table_file))
        assert code == 0
        table = read_alpha_table(table_file.read_text())
        assert table.alphas == (2.0,)
        code, out, _ = run(capsys, "sweep", "alphas", "--table", str(table_file))
        assert code == 0

    def test_alphas_with_malformed_table(self, capsys, tmp_path):
        # dimensions but no alphas or ratio lines: refused as bad input
        table_file = tmp_path / "alphas.txt"
        table_file.write_text("relp-alphas v1\nkmax 2\nnmax 10\ngrid 10\n")
        code, out, err = run(capsys, "sweep", "alphas", "--table", str(table_file))
        assert code == 3
        assert out == ""
        assert err.startswith("error: kmax 2 needs 1 alphas, got 0")

    def test_alphas_table_with_grid_below_nmax(self, capsys, tmp_path):
        table_file = tmp_path / "alphas.txt"
        code, _, _ = run(capsys, "calibrate", "--kmax", "2", "--nmax", "10",
                         "-o", str(table_file))
        assert code == 0
        text = table_file.read_text()
        table_file.write_text(text.replace("grid 64\n", "grid -7\n"))
        code, out, err = run(capsys, "sweep", "alphas", "--table", str(table_file))
        assert code == 3
        assert out == ""
        assert err.startswith("error: grid must be >= nmax = 10, got -7")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("b1-conjecture", "--n-max", "3", "--k-max", "5"), "ignores --k-max"),
            (("b1-conjecture", "--n-max", "3", "--table", "nofile"), "ignores --table"),
            (("bnk-conjecture", "--n-max", "3", "--table", "nofile"), "ignores --table"),
            (("caveat", "--n-max", "2", "--k-max", "1"), "ignores --k-max"),
            (("caveat", "--n-max", "2", "--table", "nofile"), "ignores --table"),
            (("alphas", "--n-min", "30", "--k-max", "2", "--n-max", "10"), "ignores --n-min"),
            (("alphas", "--table", "nofile", "--k-max", "2"), "with --table ignores --k-max"),
            (("alphas", "--table", "nofile", "--n-max", "10"), "with --table ignores --n-max"),
            (("b1-conjecture", "--n-min", "3", "--n-max", "2"), "selects no case: n from 3 to 2"),
            (("bnk-conjecture", "--n-max", "2", "--k-max", "-1"), "selects no case: k from 0 to -1"),
            (("caveat", "--n-min", "5", "--n-max", "4"), "selects no case: n from 5 to 4"),
        ],
        ids=["b1-k-max", "b1-table", "bnk-table", "caveat-k-max", "caveat-table",
             "alphas-n-min", "alphas-table-k-max", "alphas-table-n-max",
             "b1-no-n", "bnk-no-k", "caveat-no-n"],
    )
    def test_refuses_ignored_options(self, capsys, argv, flag):
        # refused before any table is read or program built: nofile never
        # exists; a range that selects no case is refused, not an empty table
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 3
        assert out == ""
        assert err == f"error: sweep {argv[0]} {flag}\n"

    def test_calibrate_to_stdout(self, capsys):
        code, out, _ = run(capsys, "calibrate", "--kmax", "2", "--nmax", "10")
        assert code == 0
        assert out.startswith("relp-alphas v1\n")


class TestConfigPlumbing:
    def test_env_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "relp.conf"
        cfg.write_text("oracle_max_strings = 2\n")
        monkeypatch.setenv("RELP_CONFIG", str(cfg))
        code, _, _ = run(capsys, "oracle", "{0,1,00}")
        assert code == 2  # env cap applies

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "relp.conf"
        cfg.write_text("oracle_max_strings = 2\n")
        monkeypatch.setenv("RELP_CONFIG", str(cfg))
        code, out, _ = run(capsys, "oracle", "{0,1,00}", "--oracle-max-strings", "8")
        assert code == 0

    def test_bad_config_file_is_input_error(self, capsys, tmp_path):
        cfg = tmp_path / "relp.conf"
        cfg.write_text("definitely not key value\n")
        code, _, err = run(capsys, "oracle", "{0}", "--config", str(cfg))
        assert code == 3


# (config key, a value no run can honour)
DEGENERATE_SETTINGS = [
    ("closure_max_members", "0"),
    ("oracle_max_strings", "0"),
    ("solver_max_pivots", "-5"),
]

# tolerances no check can honour
DEGENERATE_TOLERANCES = ["-1", "nan", "inf"]


class TestDegenerateSettings:
    """A setting no run can honour is refused (exit 3) before any work."""

    @pytest.mark.parametrize("key, value", DEGENERATE_SETTINGS)
    def test_flag(self, capsys, key, value):
        flag = "--" + key.replace("_", "-")
        code, out, err = run(capsys, "sweep", "bnk-conjecture", "--n-max", "2", flag, value)
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {key} must be")

    @pytest.mark.parametrize("key, value", DEGENERATE_SETTINGS)
    def test_config_file(self, capsys, tmp_path, monkeypatch, key, value):
        cfg = tmp_path / "relp.conf"
        cfg.write_text(f"{key} = {value}\n")
        monkeypatch.setenv("RELP_CONFIG", str(cfg))
        code, out, err = run(capsys, "sweep", "bnk-conjecture", "--n-max", "2")
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {key} must be")

    @pytest.mark.parametrize("value", DEGENERATE_TOLERANCES)
    def test_check_tolerance_flag(self, capsys, tmp_path, value):
        # refused before either file is read: neither exists
        code, out, err = run(capsys, "check", str(tmp_path / "absent.lp"),
                             str(tmp_path / "absent.sol"), "--tolerance", value)
        assert code == 3
        assert out == ""
        assert err.startswith("error: tolerance must be")

    @pytest.mark.parametrize("value", DEGENERATE_TOLERANCES)
    def test_tolerance_not_a_config_key(self, capsys, tmp_path, monkeypatch, value):
        # only relp check takes a tolerance, as its own flag
        cfg = tmp_path / "relp.conf"
        cfg.write_text(f"tolerance = {value}\n")
        monkeypatch.setenv("RELP_CONFIG", str(cfg))
        code, out, err = run(capsys, "sweep", "bnk-conjecture", "--n-max", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("error: config line 1: unknown key 'tolerance'")

    def test_unknown_pivot_rule_in_config_file(self, capsys, tmp_path, monkeypatch):
        # the pivot rule is fixed; pivot_rule is not a setting
        cfg = tmp_path / "relp.conf"
        cfg.write_text("pivot_rule = auto\n")
        monkeypatch.setenv("RELP_CONFIG", str(cfg))
        code, out, err = run(capsys, "sweep", "caveat", "--n-max", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("error: config line 1: unknown key 'pivot_rule'")

    @pytest.mark.parametrize(
        "key, value", [("pivot_rule", "x"), ("stall_threshold", "5"), ("tolerance", "0.01")]
    )
    def test_not_a_setting_flag(self, capsys, key, value):
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "caveat", "--n-max", "2", flag, value])
        assert exc.value.code == 3

    def test_unknown_stall_threshold_in_config_file(self, capsys, tmp_path, monkeypatch):
        # the stall limit is a solver constant, not a setting
        cfg = tmp_path / "relp.conf"
        cfg.write_text("stall_threshold = 5\n")
        monkeypatch.setenv("RELP_CONFIG", str(cfg))
        code, out, err = run(capsys, "sweep", "caveat", "--n-max", "2")
        assert code == 3
        assert out == ""
        assert err.startswith("error: config line 1: unknown key 'stall_threshold'")

    def test_one_flag_per_setting(self):
        # every RunConfig field is a flag, read with the field's type
        argv = ["solve", "x.lp"]
        for f in fields(RunConfig):
            argv += ["--" + f.name.replace("_", "-"), str(getattr(DEFAULT_CONFIG, f.name))]
        args = build_parser().parse_args(argv)
        assert {f.name: getattr(args, f.name) for f in fields(RunConfig)} == asdict(DEFAULT_CONFIG)

    def test_smallest_settings_accepted(self):
        cfg = RunConfig(
            closure_max_members=1,
            oracle_max_strings=1,
            solver_max_pivots=1,
        )
        assert cfg.solver_max_pivots == 1


class TestArgumentErrors:
    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3

    def test_bad_language_literal(self, capsys):
        code, _, err = run(capsys, "oracle", "{0,,1}")
        assert code == 3

    def test_parser_builds(self):
        parser = build_parser()
        assert parser.prog == "relp"
