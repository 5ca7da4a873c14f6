"""Which public functions the traced run wraps, and the per-layer metrics.

Each layer is one module of the package. A function is wrapped in its home
module and in every module that imported it by name, because that is the
attribute through which the other layers call it.
"""

from __future__ import annotations

import statistics

import numpy as np

import workloads
from extremal_marginals import channels, cli, extremality, families, linalg, reductions, separability
from tracer import Tracer

MODULES = [linalg, channels, extremality, families, separability, reductions, cli]

FAMILY_CONSTRUCTORS = ("shift_family", "sigma_rank2", "ohno_rank4", "ohno_rank_d", "rank8_66", "rank8k_6k")


def _rank_span(args: tuple, kwargs: dict) -> str:
    mode = kwargs.get("mode", args[1] if len(args) > 1 else "numerical")
    return f"linalg.rank_{mode}"


def _count_rank(tr: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    if result.mode == "exact":
        tr.counts["rank_exact_deficient"] += result.rank < min(np.shape(args[0]))


def _count_gram(tr: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    tr.counts["gram_entries"] += int(np.size(result))


def _count_certificate(tr: Tracer, args: tuple, kwargs: dict, result: object) -> None:
    tr.counts["certificates"] += 1
    tr.counts["exact_certificates"] += result.mode == "exact"
    tr.counts["borderline"] += bool(result.borderline)


def install_layers(tr: Tracer) -> None:
    """Wrap the library layers and the benchmark's own construction and JSON helpers."""
    for name in FAMILY_CONSTRUCTORS:
        tr.wrap_everywhere(MODULES, families, name, "families.construct")
    tr.wrap_everywhere(MODULES, channels, "random_family", "families.construct")
    tr.wrap(workloads, "integer_family", "families.construct")
    tr.wrap(workloads, "json_roundtrip", "channels.json_roundtrip")
    for name, span in (("choi", "channels.choi"), ("choi_rank", "channels.choi_rank"), ("marginals", "channels.marginals")):
        tr.wrap_everywhere(MODULES, channels, name, span)
    tr.wrap_everywhere(MODULES, linalg, "rank", _rank_span, _count_rank)
    tr.wrap_everywhere(MODULES, linalg, "min_eigenvalue", "linalg.min_eigenvalue")
    tr.wrap_everywhere(MODULES, linalg, "partial_transpose", "linalg.partial_transpose")
    tr.wrap_everywhere(MODULES, extremality, "block_gram", "extremality.block_gram", _count_gram)
    tr.wrap_everywhere(MODULES, extremality, "is_extremal", "extremality.is_extremal", _count_certificate)
    tr.wrap_everywhere(MODULES, separability, "separability_verdict", "separability.verdict")
    tr.wrap_everywhere(MODULES, separability, "ppt", "separability.ppt")
    tr.wrap_everywhere(MODULES, reductions, "restrict_to_support", "reductions.restrict")
    tr.wrap_everywhere(MODULES, reductions, "diagonalize_marginals", "reductions.diagonalize")
    tr.wrap_everywhere(MODULES, reductions, "adjoint_duality_check", "reductions.adjoint_check")


def install_cli(tr: Tracer) -> None:
    """Wrap the CLI's report serialization: ``Report.to_json`` and the ``json.dumps`` it feeds."""
    tr.wrap(cli, "main", "cli.main")
    tr.wrap(cli.Report, "to_json", "cli.report_json")
    tr.wrap(cli.json, "dumps", "cli.report_json")


# Per-layer busy times, by span name, reported as "<span>_ms".
BUSY_SPANS = (
    "extremality.block_gram",
    "linalg.rank_exact",
    "linalg.rank_numerical",
    "extremality.is_extremal",
    "separability.verdict",
    "separability.ppt",
    "linalg.min_eigenvalue",
    "linalg.partial_transpose",
    "channels.choi",
    "channels.choi_rank",
    "channels.marginals",
    "channels.json_roundtrip",
    "reductions.restrict",
    "reductions.diagonalize",
    "reductions.adjoint_check",
)

UNITS = {"ms": "ms", "s": "s", "calls": "count", "entries": "count", "count": "count", "share": "ratio", "rate": "ratio"}


def pass_metrics(tr: Tracer, pass_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    busy, own, calls, c = tr.busy_ms(), tr.self_ms(), tr.calls(), tr.counts
    out = {f"{name}_ms": busy[name] for name in BUSY_SPANS}
    out["extremality.is_extremal_self_ms"] = own["extremality.is_extremal"]
    out["extremality.gram_entries"] = c["gram_entries"]
    out["extremality.exact_share"] = c["exact_certificates"] / c["certificates"] if c["certificates"] else 0.0
    out["extremality.borderline_count"] = c["borderline"]
    out["linalg.rank_exact_calls"] = calls["linalg.rank_exact"]
    out["linalg.rank_numerical_calls"] = calls["linalg.rank_numerical"]
    exact = calls["linalg.rank_exact"]
    out["linalg.rank_deficient_share"] = c["rank_exact_deficient"] / exact if exact else 0.0
    out["trace.top_level_share"] = tr.top_level_s() / pass_s
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name's last ``_`` suffix."""
    return UNITS[name.rsplit("_", 1)[-1]]

