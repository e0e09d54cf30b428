"""Command-line interface: in-process runs of relp.cli.main."""

from __future__ import annotations

from fractions import Fraction

import pytest

from relp import read_alpha_table, read_lp, read_solution
from relp.cli import build_parser, main

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
        assert "44 vars, 84 rows" in out

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
        parsed = read_solution(sol.read_text())
        assert parsed.status == "optimal"
        assert parsed.objective == Fraction(4)

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


class TestSweeps:
    def test_b1_conjecture_small(self, capsys):
        code, out, _ = run(capsys, "sweep", "b1-conjecture", "--n-max", "4")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
        assert len(lines) == 4

    def test_bnk_conjecture_small(self, capsys):
        code, out, _ = run(capsys, "sweep", "bnk-conjecture", "--n-max", "3")
        assert code == 0

    def test_caveat(self, capsys):
        code, out, _ = run(capsys, "sweep", "caveat", "--n-max", "2")
        assert code == 0
        assert "5" in out  # opt for T(2,1)

    def test_alphas_with_table(self, capsys, tmp_path):
        table_file = tmp_path / "alphas.txt"
        code, _, _ = run(capsys, "calibrate", "--kmax", "2", "--nmax", "10",
                         "-o", str(table_file))
        assert code == 0
        table = read_alpha_table(table_file.read_text())
        assert table.alphas == (2.0,)
        code, out, _ = run(capsys, "sweep", "alphas", "--table", str(table_file))
        assert code == 0

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
