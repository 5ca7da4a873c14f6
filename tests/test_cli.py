import json

import numpy as np
import pytest

from extremal_marginals import cli, sigma_rank2
from extremal_marginals.cli import (
    EXIT_BORDERLINE,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_USAGE,
    cmd_oracle,
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


class TestVerify:
    def test_paper_3_2(self, capsys):
        code, report = run(capsys, "verify", "paper", "3", "2")
        assert code == EXIT_PASS
        assert report["passed"]
        cert = report["certificates"][0]
        assert cert["extremal"] and cert["mode"] == "exact"
        assert cert["gram_rank"]["rank"] == 25
        assert cert["gram_rank"]["engine"] == "mod-p"
        assert cert["gram_rank"]["prime"] == 2**31 - 1
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["extremal"]["detail"] == "span rank 25/25 (mod-p)"
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

    def test_unknown_family_is_usage_error(self, capsys):
        assert main(["verify", "nosuch"]) == EXIT_USAGE

    def test_wrong_params_usage_error(self, capsys):
        assert main(["verify", "paper", "3"]) == EXIT_USAGE
        assert main(["verify", "paper", "1", "1"]) == EXIT_USAGE
        assert main(["verify", "rank8k", "2"]) == EXIT_USAGE

    def test_forced_exact_on_irrational_family(self, capsys):
        assert main(["verify", "sigma2", "--exact"]) == EXIT_USAGE

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
        assert main(["verify", "rank8k", "5"]) == EXIT_USAGE
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
        assert main(["verify", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: r^2 = ")
        assert "exceed the desk-scale limit 1024" in captured.err
        assert captured.out == ""

    def test_json_file_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, report = run(capsys, "verify", "sigma2", "--json", str(path))
        assert code == EXIT_PASS
        on_disk = json.loads(path.read_text())
        assert on_disk == report

    def test_unwritable_json_path_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        assert main(["verify", "paper", "3", "2", "--json", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not path.exists()

    def test_report_counts_ranked_blocks(self, capsys):
        code, report = run(capsys, "verify", "ohno-d", "12")
        assert code == EXIT_PASS
        cert = report["certificates"][0]
        # the 144 x 288 span falls apart into 133 independent blocks
        assert cert["gram_rank"]["blocks"] == 133
        assert cert["gram_rank"]["rank"] == 144
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["extremal"]["detail"] == "span rank 144/144 (svd)"


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
        assert main(["table", "2", "8", "1", "2"]) == EXIT_USAGE
        assert main(["table", "3", "2", "1", "1"]) == EXIT_USAGE

    def test_range_override(self, capsys):
        code, report = run(capsys, "table", "7", "7", "1", "1", "--max-dim", "64")
        assert code == EXIT_PASS
        rows = {(r["d1"], r["d2"]): r for r in report["table_rows"]}
        assert rows[(7, 8)]["constructed_rank"] == 8


class TestOracle:
    def test_2_1(self, capsys):
        code, report = run(capsys, "oracle", "2", "1")
        assert code == EXIT_PASS
        dev = report["oracle_deviations"]
        assert set(dev) == {"choi_pt_closed_form"}
        assert dev["choi_pt_closed_form"] <= 1e-12
        assert report["warnings"] == []
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["gram-full-rank"]["detail"] == "span rank 9/9 (mod-p)"
        assert report["certificates"][0]["mode"] == "exact"

    def test_3_2_exact_rank(self, capsys):
        code, report = run(capsys, "oracle", "3", "2")
        assert code == EXIT_PASS
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["gram-full-rank"]["passed"]
        assert checks["choi-ppt"]["passed"]

    def test_bad_args(self, capsys):
        assert main(["oracle", "1", "1"]) == EXIT_USAGE


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
        assert main(["proptest", *argv]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
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
        assert cmd_oracle(2, 2).passed
        assert cmd_table(2, 3, 1, 2).passed
        assert cmd_proptest(5, 3).passed


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "2", "3", "1", "2", "--numerical"],
            ["oracle", "2", "1", "--tol", "1"],
            ["verify", "sigma2", "--seed", "5"],
            ["proptest", "--max-dim", "1"],
        ],
    )
    def test_unhonoured_flag_is_usage_error(self, capsys, argv):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, usage_error",
        [
            (["verify", "paper", "3", "2", "--tol", "1e9"], True),
            (["verify", "paper", "3", "2", "--exact", "--tol", "1e-3"], True),
            (["verify", "paper", "2", "1", "--numerical", "--tol", "1e9"], False),
            (["verify", "sigma2", "--tol", "0.7"], False),
        ],
    )
    def test_tol_needs_a_numerical_run(self, capsys, argv, usage_error):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code == EXIT_USAGE) == usage_error
        if usage_error:
            assert captured.out == ""
            assert "--tol needs --numerical" in captured.err
        else:
            assert json.loads(captured.out)["inputs"]["tol"] == float(argv[-1])

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "x"])
    def test_bad_tol_is_usage_error(self, capsys, tol):
        assert main(["verify", "sigma2", "--tol", tol]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tol" in captured.err and "Traceback" not in captured.err
