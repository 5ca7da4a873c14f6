"""Certificate-first command line front end.

Subcommands construct the named families, run the verification pipeline and
emit a JSON report on stdout (human-readable progress goes to stderr). Exit
codes: 0 all assertions passed, 1 assertion failure, 2 usage error, 3 every
assertion passed but a numerical verdict was borderline.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import (
    KrausFamily,
    MarginalPair,
    choi,
    choi_rank,
    marginals,
    random_family,
)
from .extremality import block_gram, bound_attained, is_extremal, parthasarathy_bound
from .families import (
    closed_form_choi_pt,
    ohno_rank4,
    ohno_rank_d,
    rank8_66,
    rank8_66_marginal,
    rank8k_6k,
    rank8k_marginal,
    shift_family,
    shift_targets,
    sigma_marginal,
    sigma_rank2,
)
from .linalg import partial_transpose, rank
from .reductions import adjoint_duality_check, diagonalize_marginals, restrict_to_support
from .separability import separability_verdict

__all__ = [
    "EXIT_BORDERLINE",
    "EXIT_FAIL",
    "EXIT_PASS",
    "EXIT_USAGE",
    "Report",
    "UsageError",
    "cmd_proptest",
    "cmd_table",
    "cmd_verify",
    "console_main",
    "main",
]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BORDERLINE = 3

DEFAULT_MAX_SPAN_ROWS = 1024
DEFAULT_SEED = 2024


class UsageError(Exception):
    """Bad family name, parameters, flags, ranges or output path; maps to exit
    code 2 and a JSON error object."""


class _Parser(argparse.ArgumentParser):
    """A parser, and its subparsers, whose errors are usage errors."""

    def error(self, message: str):
        raise UsageError(message)


@dataclass
class Report:
    """Everything one invocation produced, serialized as the JSON report."""

    command: str
    inputs: dict
    certificates: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    table_rows: list[dict] | None = None
    oracle_deviations: dict[str, float] | None = None
    timings: dict[str, float] = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "passed": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    @property
    def borderline(self) -> bool:
        return any(getattr(c, "borderline", False) for c in self.certificates)

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "certificates": [c.to_json() for c in self.certificates],
            "verdicts": [v.to_json() for v in self.verdicts],
            "table_rows": self.table_rows,
            "oracle_deviations": self.oracle_deviations,
            "timings_ms": {k: round(v, 3) for k, v in self.timings.items()},
            "checks": self.checks,
            "warnings": self.warnings,
            "passed": self.passed,
            "borderline": self.borderline,
        }


class _Timer:
    def __init__(self, report: Report, name: str) -> None:
        self.report = report
        self.name = name

    def __enter__(self) -> "_Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.report.timings[self.name] = (time.perf_counter() - self.start) * 1000.0


BuiltFamily = tuple[KrausFamily, MarginalPair, int, bool]
Construction = tuple[KrausFamily, MarginalPair, bool]
FamilyEntry = tuple[
    tuple[str, ...],
    Callable[..., int],
    Callable[..., Construction],
    Callable[..., np.ndarray] | None,
]


def _same(rho: np.ndarray) -> MarginalPair:
    return MarginalPair(rho1=rho, rho2=rho)


def _paper_rank(d: int, m: int) -> int:
    if d < 2 or m < 1:
        raise UsageError("paper family needs d >= 2 and m >= 1")
    return d + m


def _ohno_d_rank(d: int) -> int:
    if d < 3:
        raise UsageError("ohno-d needs d >= 3")
    return d


def _rank8k_rank(k: int) -> int:
    if k < 3:
        raise UsageError("rank8k needs k >= 3")
    return 8 * k


# CLI name -> (parameter names, rank, builder, closed-form Choi partial
# transpose or None). The rank checks the integer parameters and returns the
# family's number of Kraus operators r, which is also its expected Choi rank,
# from the parameters alone, so the span limit on r^2 is checked before
# anything is built. The builder returns (family, declared marginals, whether
# the separability verdict is asserted). Only verify calls the closed form,
# which returns the partial transpose over the first factor of the family's
# Choi matrix. Builders and closed forms call the library through this
# module's globals at call time, never through stored function objects, so a
# wrapper installed on them here is the one that runs.
FAMILIES: dict[str, FamilyEntry] = {
    "paper": (
        ("d", "m"),
        _paper_rank,
        lambda d, m: (shift_family(d, m), shift_targets(d, m), True),
        lambda d, m: closed_form_choi_pt(d, m),
    ),
    "sigma2": ((), lambda: 2, lambda: (sigma_rank2(), _same(sigma_marginal()), False), None),
    "ohno4": ((), lambda: 4, lambda: (ohno_rank4(), _same(np.eye(3) / 3), False), None),
    "ohno-d": (("d",), _ohno_d_rank, lambda d: (ohno_rank_d(d), _same(np.eye(d) / d), False), None),
    "rank8-66": ((), lambda: 8, lambda: (rank8_66(), _same(rank8_66_marginal()), False), None),
    "rank8k": (
        ("k",),
        _rank8k_rank,
        lambda k: (rank8k_6k(k), _same(rank8k_marginal(k)), False),
        None,
    ),
}


def _family_rank(name: str, params: list[int]) -> int:
    """The number of Kraus operators of a FAMILIES entry, from its name and
    parameters alone; bad names and parameters are usage errors."""
    if name not in FAMILIES:
        raise UsageError(f"unknown family {name!r}; known: {', '.join(FAMILIES)}")
    names, rank_of = FAMILIES[name][:2]
    if len(params) != len(names):
        raise UsageError(
            f"family {name!r} takes {len(names)} integer parameter(s), got {len(params)}"
        )
    return rank_of(*params)


def _build_family(name: str, params: list[int]) -> BuiltFamily:
    expected_rank = _family_rank(name, params)
    fam, targets, assert_separable = FAMILIES[name][2](*params)
    return fam, targets, expected_rank, assert_separable


def _guard_span_rows(rows: int, max_dim: int | None) -> None:
    limit = DEFAULT_MAX_SPAN_ROWS if max_dim is None else max_dim
    if rows > limit:
        raise UsageError(
            f"r^2 = {rows} span rows exceed the desk-scale limit {limit}; raise it with --max-dim"
        )


def cmd_verify(
    family_name: str,
    params: list[int],
    mode: str | None = None,
    tol: float | None = None,
    max_dim: int | None = None,
) -> Report:
    """Construct a family and certify marginals, extremality, Choi rank,
    separability and, where FAMILIES has one, the closed form of the Choi
    partial transpose; ``mode="numerical"`` drops the exact operators of a
    rational family first, and keeps any other family as it was built."""
    report = Report(
        command="verify",
        inputs={"family": family_name, "params": list(params), "mode": mode, "tol": tol},
    )
    r = _family_rank(family_name, params)
    _guard_span_rows(r * r, max_dim)
    with _Timer(report, "construct"):
        fam, targets, expected_rank, assert_separable = _build_family(family_name, params)
        if mode == "numerical" and fam.exact_ops is not None:
            fam = KrausFamily(d_in=fam.d_in, d_out=fam.d_out, ops=fam.ops)
    if tol is not None and fam.exact_ops is not None:
        raise UsageError("--tol needs --numerical for a rational family")
    with _Timer(report, "is_extremal"):
        cert = is_extremal(fam, targets=targets, mode=mode, tol=tol)
    report.certificates.append(cert)
    with _Timer(report, "separability"):
        verdict = separability_verdict(fam, tol=tol)
    report.verdicts.append(verdict)
    report.check(
        "marginals-match-declared",
        cert.valid_marginals,
        f"max residual {cert.marginal_residual:.3e}",
    )
    report.check(
        "extremal",
        cert.extremal,
        f"span rank {cert.gram_rank.rank}/{cert.gram_size} ({cert.gram_rank.engine})",
    )
    report.check(
        "choi-rank",
        verdict.choi_rank == expected_rank,
        f"got {verdict.choi_rank}, expected {expected_rank}",
    )
    if assert_separable:
        report.check("separable", verdict.conclusion == "separable", verdict.conclusion)
    closed_form = FAMILIES[family_name][3]
    if closed_form is not None:
        with _Timer(report, "choi_pt_oracle"):
            pt = partial_transpose(choi(fam), fam.d_in, fam.d_out, "first")
            dev = float(np.abs(pt - closed_form(*params)).max())
        report.oracle_deviations = {"choi_pt_closed_form": dev}
        report.check("choi-pt-oracle", dev <= 1e-12, f"max deviation {dev:.3e}")
    if cert.borderline:
        report.warnings.append("numerical extremality verdict is borderline (gap ratio < 10)")
    return report


def _table_row(report: Report, name: str, params: list[int], label: str, check: str) -> dict:
    """The table row of a FAMILIES entry, checking its Choi rank against the
    rank FAMILIES expects."""
    fam, _, expected, _ = _build_family(name, params)
    constructed = choi_rank(fam).rank
    bound = parthasarathy_bound(fam.d_in, fam.d_out)
    report.check(check, constructed == expected, f"got {constructed}")
    return {
        "d1": fam.d_in,
        "d2": fam.d_out,
        "marginal_name": label,
        "constructed_rank": int(constructed),
        "bound": bound,
        "attained": constructed == bound,
    }


def cmd_table(
    d_min: int,
    d_max: int,
    m_min: int,
    m_max: int,
    max_dim: int | None = None,
) -> Report:
    """One row per (d, m) cell plus the fixed (6,6) and (6k,6k) constructions;
    the larger r^2 of the largest cell, (d_max + m_max)^2, and of the fixed
    rows obeys the span limit of verify."""
    if not (2 <= d_min <= d_max and 1 <= m_min <= m_max):
        raise UsageError("table needs 2 <= d_min <= d_max and 1 <= m_min <= m_max")
    fixed = (("rank8-66", [], "D"), ("rank8k", [3], "D1"))
    fixed_rows = max(_family_rank(name, params) ** 2 for name, params, _ in fixed)
    _guard_span_rows(max((d_max + m_max) ** 2, fixed_rows), max_dim)
    report = Report(
        command="table",
        inputs={"d_min": d_min, "d_max": d_max, "m_min": m_min, "m_max": m_max},
    )
    rows: list[dict] = []
    with _Timer(report, "grid"):
        for d in range(d_min, d_max + 1):
            for m in range(m_min, m_max + 1):
                row = _table_row(report, "paper", [d, m], "Z1", f"constructed-rank-({d},{m})")
                rows.append(row)
                report.check(
                    f"attainment-consistent-({d},{m})",
                    row["attained"] == bound_attained(d, m),
                    f"bound {row['bound']}",
                )
    with _Timer(report, "fixed_rows"):
        for name, params, label in fixed:
            rows.append(_table_row(report, name, params, label, f"constructed-rank-{label}"))
    report.table_rows = rows
    return report


def _canonical_ok(f: KrausFamily) -> bool:
    rec = diagonalize_marginals(f)
    mp = marginals(rec.family)
    off1 = float(np.abs(mp.rho1 - np.diag(np.diag(mp.rho1))).max())
    off2 = float(np.abs(mp.rho2 - np.diag(np.diag(mp.rho2))).max())
    same = is_extremal(f).extremal == is_extremal(rec.family).extremal
    return same and off1 <= 1e-12 and off2 <= 1e-12


def _restrict_ok(f: KrausFamily) -> bool:
    padded = KrausFamily(
        d_in=f.d_in + 1,
        d_out=f.d_out + 1,
        ops=np.pad(f.ops, ((0, 0), (0, 1), (0, 1))),
    )
    once = restrict_to_support(padded)
    twice = restrict_to_support(once)
    mp = marginals(once)
    full_rank = (
        float(np.linalg.eigvalsh(mp.rho1)[0]) > 1e-12
        and float(np.linalg.eigvalsh(mp.rho2)[0]) > 1e-12
    )
    same_rank = is_extremal(once).gram_rank.rank == is_extremal(f).gram_rank.rank
    return (twice is once) and full_rank and same_rank


# (name, half-open ranges of d_in, d_out and r, property). The suites run in
# this order and draw their families from one seeded generator. Library
# functions are looked up at call time, as in FAMILIES.
_PROPTESTS = (
    ("adjoint-verdict-invariance", ((2, 5), (2, 5), (1, 6)), lambda f: adjoint_duality_check(f)),
    ("canonicalization", ((2, 5), (2, 5), (1, 6)), _canonical_ok),
    ("restrict-idempotent", ((2, 5), (2, 5), (1, 6)), _restrict_ok),
    (
        "span-equals-gram-rank",
        ((1, 4), (1, 4), (1, 4)),
        lambda f: is_extremal(f).gram_rank.rank == rank(block_gram(f)).rank,
    ),
)


def cmd_proptest(seed: int, count: int = 50) -> Report:
    """Seeded random-family property checks for the reduction theorems."""
    if count < 1:
        raise UsageError("count must be positive")
    if seed < 0:
        raise UsageError("seed must be non-negative")
    report = Report(command="proptest", inputs={"seed": seed, "count": count})
    rng = np.random.default_rng(seed)
    for name, ranges, holds in _PROPTESTS:
        good = 0
        with _Timer(report, name):
            for _ in range(count):
                dims = [int(rng.integers(lo, hi)) for lo, hi in ranges]
                good += bool(holds(random_family(rng, *dims)))
        report.check(name, good == count, f"{good}/{count}")
    return report


def _summary(report: Report) -> list[str]:
    lines = [f"{report.command}: {'PASS' if report.passed else 'FAIL'}"]
    for c in report.checks:
        mark = "ok" if c["passed"] else "FAILED"
        detail = f" ({c['detail']})" if c["detail"] else ""
        lines.append(f"  [{mark}] {c['name']}{detail}")
    for w in report.warnings:
        lines.append(f"  [warning] {w}")
    return lines


def _positive_tol(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return tol


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extmarg",
        description="Construct extremal Kraus families and certify their properties.",
    )
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", metavar="PATH", help="also write the JSON report to PATH")
    max_dim_flag = argparse.ArgumentParser(add_help=False)
    max_dim_flag.add_argument(
        "--max-dim",
        type=_positive_int,
        help="override the desk-scale guardrail (max r^2, the row count of the block-vector "
        f"span, default {DEFAULT_MAX_SPAN_ROWS})",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser(
        "verify",
        parents=[json_flag, max_dim_flag],
        help="construct a named family and certify it",
        description="Families: "
        + " | ".join(" ".join((name, *entry[0])) for name, entry in FAMILIES.items()),
    )
    p_verify.add_argument("family", choices=FAMILIES)
    p_verify.add_argument("params", nargs="*", type=int)
    p_verify.add_argument(
        "--numerical",
        action="store_const",
        const="numerical",
        dest="mode",
        help="drop a rational family's exact operators and rank in floating point",
    )
    p_verify.add_argument(
        "--tol",
        type=_positive_tol,
        help="numerical rank threshold override, applied to the singular values of the "
        "block-vector span less its trace column and of the vectorized Kraus operators "
        "(Choi rank); a rational family takes it only with --numerical",
    )
    p_verify.set_defaults(
        run=lambda a: cmd_verify(a.family, a.params, mode=a.mode, tol=a.tol, max_dim=a.max_dim)
    )

    p_table = sub.add_parser(
        "table",
        parents=[json_flag, max_dim_flag],
        help="rank/bound attainment table over a (d, m) grid",
    )
    for name in ("d_min", "d_max", "m_min", "m_max"):
        p_table.add_argument(name, type=int)
    p_table.set_defaults(
        run=lambda a: cmd_table(a.d_min, a.d_max, a.m_min, a.m_max, max_dim=a.max_dim)
    )

    p_prop = sub.add_parser(
        "proptest", parents=[json_flag], help="seeded random-family property checks"
    )
    p_prop.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the families")
    p_prop.add_argument("--count", type=int, default=50)
    p_prop.set_defaults(run=lambda a: cmd_proptest(a.seed, a.count))
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. A usage error prints ``error: ...`` on stderr and
    one JSON object, ``{"command", "error", "passed": false}``, on stdout, and
    exits 2; ``--help`` prints text and exits 0."""
    parser = build_parser()
    # the subparser action names the command in args before it parses the rest
    args = argparse.Namespace()
    try:
        try:
            parser.parse_args(argv, args)
        except SystemExit as exc:
            return EXIT_PASS if exc.code in (0, None) else EXIT_USAGE
        report = args.run(args)
        text = json.dumps(report.to_json(), indent=2)
        if args.json:
            try:
                Path(args.json).write_text(text + "\n", encoding="utf-8")
            except OSError as exc:
                raise UsageError(f"cannot write --json {args.json}: {exc}") from exc
    except UsageError as exc:
        error = {"command": getattr(args, "command", None), "error": str(exc), "passed": False}
        print(json.dumps(error))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    for line in _summary(report):
        print(line, file=sys.stderr)
    if not report.passed:
        return EXIT_FAIL
    if report.borderline:
        return EXIT_BORDERLINE
    return EXIT_PASS


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
