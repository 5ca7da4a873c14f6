import json

import numpy as np
import pytest

from extremal_marginals import cli, sigma_rank2
from extremal_marginals.cli import (
    EXIT_BORDERLINE,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    cmd_proptest,
    cmd_table,
    cmd_verify,
    main,
)
from extremal_marginals.extremality import _block_vectors


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def usage_error(capsys, argv, command):
    """``main(argv)`` is a usage error: exit 2, one JSON error object naming
    the subcommand (or null) on stdout, and an ``error: ...`` line with the
    same message, and no traceback, on stderr. Returns the captured streams."""
    assert main(list(argv)) == EXIT_USAGE
    captured = capsys.readouterr()
    error = json.loads(captured.out)
    assert error == {"command": command, "error": error["error"], "passed": False}
    assert captured.err.startswith(f"error: {error['error']}")
    assert "Traceback" not in captured.err
    return captured


class TestVerify:
    def test_paper_3_2(self, capsys):
        code, report = run(capsys, "verify", "paper", "3", "2")
        assert code == EXIT_PASS
        assert report["passed"]
        cert = report["certificates"][0]
        assert cert["extremal"] and cert["mode"] == "exact"
        assert cert["gram_rank"]["rank"] == 25
        assert cert["gram_rank"]["engine"] == "cholesky"
        assert cert["gram_rank"]["prime"] is None
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["extremal"]["detail"] == "span rank 25/25 (cholesky)"
        assert report["verdicts"][0]["conclusion"] == "separable"
        assert report["verdicts"][0]["choi_rank"] == 5

    def test_ohno4(self, capsys):
        code, report = run(capsys, "verify", "ohno4")
        assert code == EXIT_PASS
        assert report["certificates"][0]["extremal"]
        assert report["verdicts"][0]["choi_rank"] == 4

    def test_ohno_d(self, capsys):
        code, report = run(capsys, "verify", "ohno-d", "5")
        assert code == EXIT_PASS
        assert report["verdicts"][0]["choi_rank"] == 5

    def test_rank8_66(self, capsys):
        code, report = run(capsys, "verify", "rank8-66")
        assert code == EXIT_PASS
        assert report["certificates"][0]["extremal"]
        assert report["verdicts"][0]["choi_rank"] == 8
        # the 64 x 72 span is certified whole, and the 8 x 36 Kraus vectors,
        # like every nonzero matrix, meet the certificate before the SVD
        gram = report["certificates"][0]["gram_rank"]
        assert (gram["engine"], gram["mode"], gram["rank"]) == ("cholesky", "numerical", 64)
        assert report["verdicts"][0]["choi_rank_engine"] == "cholesky"

    def test_rank8k_3_is_certified(self, capsys):
        code, report = run(capsys, "verify", "rank8k", "3")
        assert code == EXIT_PASS
        cert = report["certificates"][0]
        gram = cert["gram_rank"]
        assert (gram["engine"], gram["mode"], gram["rank"]) == ("cholesky", "numerical", 576)
        # a certified lower bound on sigma_min, cleared tenfold
        assert gram["smallest_kept_singular_value"] >= 10 * gram["threshold"] > 0
        assert cert["gap"] >= 10 and not cert["borderline"]
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["extremal"]["detail"] == "span rank 576/576 (cholesky)"
        # the 24 x 324 Kraus vectors are certified too
        assert report["verdicts"][0]["choi_rank_engine"] == "cholesky"

    def test_unknown_family_is_usage_error(self, capsys):
        usage_error(capsys, ["verify", "nosuch"], "verify")

    def test_wrong_params_usage_error(self, capsys):
        usage_error(capsys, ["verify", "paper", "3"], "verify")
        usage_error(capsys, ["verify", "paper", "1", "1"], "verify")
        usage_error(capsys, ["verify", "rank8k", "2"], "verify")

    def test_forced_exact_on_irrational_family(self, capsys):
        # verify has no --exact: a rational family is ranked exactly by default
        usage_error(capsys, ["verify", "sigma2", "--exact"], "verify")

    def test_huge_tol_forces_failure_exit(self, capsys):
        code, report = run(capsys, "verify", "paper", "2", "1", "--numerical", "--tol", "1e9")
        assert code == EXIT_FAIL
        assert not report["passed"]

    def test_tol_reaches_the_verdict_choi_rank(self, capsys):
        # the stacked Kraus vectors of sigma2 have singular values ~0.82 and ~0.58
        code, report = run(capsys, "verify", "sigma2", "--numerical", "--tol", "0.7")
        checks = {c["name"]: c for c in report["checks"]}
        assert report["verdicts"][0]["choi_rank"] == 1
        assert checks["choi-rank"]["detail"] == "got 1, expected 2"
        assert not checks["choi-rank"]["passed"] and code == EXIT_FAIL
        code, report = run(capsys, "verify", "sigma2", "--numerical", "--tol", "1e9")
        assert report["verdicts"][0]["choi_rank"] == 0
        assert report["certificates"][0]["gram_rank"]["rank"] == 0
        # --numerical ranks a rational family in floating point too: the five
        # Kraus vectors of paper 3 2 are orthogonal, each of norm 1/sqrt(5) ~ 0.447
        for tol, choi_rank in (("0.5", 0), ("0.4", 5)):
            code, report = run(capsys, "verify", "paper", "3", "2", "--numerical", "--tol", tol)
            assert report["verdicts"][0]["choi_rank"] == choi_rank
            assert report["certificates"][0]["mode"] == "numerical"

    def test_borderline_exit(self, capsys):
        # --tol thresholds the singular values of the block-vector span
        span = _block_vectors(np.stack(sigma_rank2().ops))
        smallest = np.linalg.svd(span, compute_uv=False).min()
        code, report = run(
            capsys, "verify", "sigma2", "--numerical", "--tol", str(smallest / 5)
        )
        assert code == EXIT_BORDERLINE
        assert report["passed"] and report["borderline"]

    def test_guardrail_and_override(self, capsys):
        usage_error(capsys, ["verify", "rank8k", "5"], "verify")
        # (8*5)^2 = 1600 needs a raised guardrail; keep it small enough to run
        code, report = run(capsys, "verify", "rank8k", "5", "--max-dim", "1600")
        assert code == EXIT_PASS
        assert report["verdicts"][0]["choi_rank"] == 40

    @pytest.mark.parametrize("argv", [["paper", "150", "150"], ["rank8k", "40"]])
    def test_span_limit_is_checked_before_construction(self, capsys, monkeypatch, argv):
        def never(*args):
            raise AssertionError("the family was built before the span limit was checked")

        monkeypatch.setattr(cli, "shift_family", never)
        monkeypatch.setattr(cli, "rank8k_6k", never)
        captured = usage_error(capsys, ["verify", *argv], "verify")
        assert captured.err.startswith("error: r^2 = ")
        assert "exceed the desk-scale limit 1024" in captured.err

    def test_json_file_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, report = run(capsys, "verify", "sigma2", "--json", str(path))
        assert code == EXIT_PASS
        on_disk = json.loads(path.read_text())
        assert on_disk == report

    def test_unwritable_json_path_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        captured = usage_error(capsys, ["verify", "paper", "3", "2", "--json", str(path)], "verify")
        assert captured.err.startswith("error: cannot write --json ")
        assert "Traceback" not in captured.err
        assert not path.exists()

    def test_report_counts_ranked_blocks(self, capsys):
        code, report = run(capsys, "verify", "ohno-d", "12")
        assert code == EXIT_PASS
        cert = report["certificates"][0]
        # the 144 x 288 span falls apart into 133 independent blocks
        assert cert["gram_rank"]["blocks"] == 133
        assert cert["gram_rank"]["rank"] == 144
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["extremal"]["detail"] == "span rank 144/144 (cholesky)"


class TestTable:
    def test_small_grid(self, capsys):
        code, report = run(capsys, "table", "2", "4", "1", "3")
        assert code == EXIT_PASS
        rows = {(r["d1"], r["d2"]): r for r in report["table_rows"]}
        assert rows[(2, 3)]["constructed_rank"] == 3
        assert rows[(2, 3)]["bound"] == 3
        assert rows[(2, 3)]["attained"]
        assert rows[(4, 6)]["constructed_rank"] == 6
        assert rows[(4, 6)]["bound"] == 7
        assert not rows[(4, 6)]["attained"]
        assert rows[(6, 6)]["marginal_name"] == "D"
        assert rows[(6, 6)]["constructed_rank"] == 8
        assert rows[(18, 18)]["constructed_rank"] == 24

    def test_range_limits(self, capsys):
        # the largest cell's r^2 = (d_max + m_max)^2 obeys verify's span limit
        captured = usage_error(capsys, ["table", "2", "30", "1", "3"], "table")
        assert "r^2 = 1089 span rows exceed the desk-scale limit 1024" in captured.err
        usage_error(capsys, ["table", "3", "2", "1", "1"], "table")
        code, report = run(capsys, "table", "2", "31", "1", "1")
        assert code == EXIT_PASS
        assert max(r["d2"] for r in report["table_rows"]) == 32

    def test_range_override(self, capsys):
        # the (7, 1) cell has r^2 = 64, the fixed rank8k 3 row 576
        usage_error(capsys, ["table", "7", "7", "1", "1", "--max-dim", "575"], "table")
        code, report = run(capsys, "table", "7", "7", "1", "1", "--max-dim", "576")
        assert code == EXIT_PASS
        rows = {(r["d1"], r["d2"]): r for r in report["table_rows"]}
        assert rows[(7, 8)]["constructed_rank"] == 8

    @pytest.mark.parametrize("value", ["0", "-5", "abc", "1.5"])
    def test_max_dim_must_be_a_positive_integer(self, capsys, value):
        # refused at parse time, not answered with a limit of 0 or -5
        captured = usage_error(capsys, ["table", "2", "6", "1", "6", "--max-dim", value], "table")
        assert f"--max-dim: must be a positive integer, got {value!r}" in captured.err
        assert "desk-scale limit" not in captured.err
        usage_error(capsys, ["verify", "paper", "3", "2", "--max-dim", value], "verify")

    def test_max_dim_covers_the_fixed_rows(self, capsys):
        # the (2, 1) cell has r^2 = 9, but the fixed rows are built too
        captured = usage_error(capsys, ["table", "2", "2", "1", "1", "--max-dim", "9"], "table")
        assert "r^2 = 576 span rows exceed the desk-scale limit 9" in captured.err


class TestOracle:
    """verify checks the shift family's Choi partial transpose against its
    closed form; no other family has one."""

    def test_2_1(self, capsys):
        code, report = run(capsys, "verify", "paper", "2", "1")
        assert code == EXIT_PASS
        dev = report["oracle_deviations"]
        assert set(dev) == {"choi_pt_closed_form"}
        assert dev["choi_pt_closed_form"] <= 1e-12
        assert report["warnings"] == []
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["choi-pt-oracle"]["passed"]
        assert checks["extremal"]["detail"] == "span rank 9/9 (cholesky)"
        assert report["certificates"][0]["mode"] == "exact"

    def test_3_2_exact_rank(self, capsys):
        code, report = run(capsys, "verify", "paper", "3", "2")
        assert code == EXIT_PASS
        assert report["oracle_deviations"]["choi_pt_closed_form"] <= 1e-12
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["choi-pt-oracle"]["passed"]
        assert checks["extremal"]["passed"] and checks["separable"]["passed"]
        assert report["verdicts"][0]["ppt"]

    def test_no_closed_form_no_check(self, capsys):
        code, report = run(capsys, "verify", "sigma2")
        assert code == EXIT_PASS
        assert report["oracle_deviations"] is None
        assert "choi-pt-oracle" not in {c["name"] for c in report["checks"]}

    def test_bad_args(self, capsys):
        # verify paper is the one certification path: no oracle subcommand, no --exact
        for argv, command in ((["oracle", "2", "1"], None), (["verify", "paper", "3", "2", "--exact"], "verify")):
            captured = usage_error(capsys, argv, command)
            assert "Traceback" not in captured.err


class TestProptest:
    def test_runs_clean(self, capsys):
        code, report = run(capsys, "proptest", "--seed", "11", "--count", "5")
        assert code == EXIT_PASS
        assert {c["name"] for c in report["checks"]} == {
            "adjoint-verdict-invariance",
            "canonicalization",
            "restrict-idempotent",
            "span-equals-gram-rank",
        }

    def test_deterministic_for_fixed_seed(self, capsys):
        _, first = run(capsys, "proptest", "--seed", "3", "--count", "4")
        _, second = run(capsys, "proptest", "--seed", "3", "--count", "4")
        first.pop("timings_ms")
        second.pop("timings_ms")
        assert first == second

    @pytest.mark.parametrize(
        "argv, message",
        [(["--seed", "-5", "--count", "1"], "seed must be non-negative"), (["--count", "0"], "count must be positive")],
    )
    def test_bad_seed_or_count_is_usage_error(self, capsys, argv, message):
        captured = usage_error(capsys, ["proptest", *argv], "proptest")
        assert message in captured.err and "Traceback" not in captured.err


class TestReportShape:
    def test_report_keys(self, capsys):
        _, report = run(capsys, "verify", "sigma2")
        assert set(report) == {
            "command",
            "inputs",
            "certificates",
            "verdicts",
            "table_rows",
            "oracle_deviations",
            "timings_ms",
            "checks",
            "warnings",
            "passed",
            "borderline",
        }
        cert = report["certificates"][0]
        for key in ("r", "gram_rank", "extremal", "mode", "gap", "marginal_residual"):
            assert key in cert

    def test_command_functions_return_reports(self):
        assert cmd_verify("sigma2", []).passed
        assert cmd_table(2, 3, 1, 2).passed
        assert cmd_proptest(5, 3).passed


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "2", "3", "1", "2", "--numerical"],
            ["table", "2", "3", "1", "2", "--tol", "1"],
            ["verify", "sigma2", "--seed", "5"],
            ["proptest", "--max-dim", "1"],
        ],
    )
    def test_unhonoured_flag_is_usage_error(self, capsys, argv):
        captured = usage_error(capsys, argv, argv[0])
        assert "unrecognized arguments" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, command, message",
        [
            (["verify", "paper", "3", "x"], "verify", "argument params: invalid int value: 'x'"),
            (["table", "2", "2", "1"], "table", "the following arguments are required: m_max"),
            (["proptest", "--count", "many"], "proptest", "argument --count: invalid int value"),
            (["oracle", "2", "1"], None, "argument command: invalid choice: 'oracle'"),
            ([], None, "the following arguments are required: command"),
        ],
    )
    def test_parse_errors_are_json_usage_errors(self, capsys, argv, command, message):
        captured = usage_error(capsys, argv, command)
        assert json.loads(captured.out)["error"].startswith(message)

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["table", "-h"]])
    def test_help_is_text(self, capsys, argv):
        assert main(argv) == EXIT_PASS
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: extmarg")
        assert captured.err == ""

    @pytest.mark.parametrize(
        "argv, refused",
        [
            (["verify", "paper", "3", "2", "--tol", "1e9"], True),
            (["verify", "paper", "2", "1", "--tol", "1e-3"], True),
            (["verify", "paper", "2", "1", "--numerical", "--tol", "1e9"], False),
            (["verify", "sigma2", "--tol", "0.7"], False),
        ],
    )
    def test_tol_needs_a_numerical_run(self, capsys, argv, refused):
        if refused:
            captured = usage_error(capsys, argv, "verify")
            assert "--tol needs --numerical" in captured.err
        else:
            assert main(argv) != EXIT_USAGE
            captured = capsys.readouterr()
            assert json.loads(captured.out)["inputs"]["tol"] == float(argv[-1])

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "x"])
    def test_bad_tol_is_usage_error(self, capsys, tol):
        captured = usage_error(capsys, ["verify", "sigma2", "--tol", tol], "verify")
        assert "--tol" in captured.err and "Traceback" not in captured.err
