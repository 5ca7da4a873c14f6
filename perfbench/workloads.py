"""Workload inputs and the per-family certification pass, with its checks.

Every expectation here comes from the README or from theory, never from the
code under test: the built-in families' marginals and Choi ranks are the
README's table, Gaussian families follow the generic rule
``extremal <=> r^2 <= d_in^2 + d_out^2 - 1``, and integer families must get
the same verdict in exact mode as in non-borderline numerical mode.

Library calls go through module attributes (``extremality.is_extremal``,
not a name imported into this file) so that the traced run, which wraps
those attributes, sees them.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from extremal_marginals import channels, extremality, families, linalg, reductions, separability

# (8, 12) would add ~5 s a pass; without it a 40-second run makes about ten
# passes instead of four, which is what keeps the figures steady.
PAPER_LADDER = ((4, 4), (5, 6), (6, 8), (7, 10))
OHNO_D = (3, 5, 8, 12)
RANK8K = (3, 4)
RANDOM_COUNT = 1000
# Share of nonzero entries in an integer family; sparse enough that some
# families lose rank beyond what their dimensions force.
INTEGER_DENSITY = 0.5
OFF_DIAGONAL_RTOL = 1e-10


@dataclass(frozen=True)
class Item:
    """One family to certify. ``kind`` is "builtin", "gaussian" or "integer".

    For built-in families ``expect`` holds the README's declared marginals
    (``targets``), Choi rank (``choi_rank``) and whether the Choi state must
    be separable (``separable``).
    """

    label: str
    kind: str
    family: channels.KrausFamily
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """Inputs, CLI calls and warm-up size of one named workload."""

    build: Callable[[int], list["Item"]]
    cli_calls: Callable[[int], list[list[str]]]
    warmup: int


@dataclass
class PassResult:
    seconds: float
    latencies_ms: list[float]
    failures: list[str]
    counts: Counter


def _pair(rho: np.ndarray) -> channels.MarginalPair:
    return channels.MarginalPair(rho1=rho, rho2=rho)


def _sigma() -> np.ndarray:
    return np.diag([1 / 3, 2 / 3])


def _rank8_marginal() -> np.ndarray:
    return np.kron(_sigma(), np.eye(3) / 3)


def _z1(d: int, m: int) -> np.ndarray:
    p = (d + 1) / (d + m)
    return p * np.eye(d) / d + (1 - p) * np.ones((d, d)) / d


def build_paper_exact(seed: int) -> list[Item]:
    """The shift-family ladder; the seed is unused because the inputs are fixed."""
    items = []
    for d, m in PAPER_LADDER:
        targets = channels.MarginalPair(rho1=_z1(d, m), rho2=np.eye(d + m) / (d + m))
        expect = {"targets": targets, "choi_rank": d + m, "separable": True}
        items.append(Item(f"paper {d} {m}", "builtin", families.shift_family(d, m), expect))
    return items


def build_tensor_numerical(seed: int) -> list[Item]:
    """The irrational built-in families; the seed is unused."""

    def item(label: str, f: channels.KrausFamily, rho: np.ndarray, rank: int) -> Item:
        return Item(label, "builtin", f, {"targets": _pair(rho), "choi_rank": rank, "separable": False})

    items = [
        item("sigma2", families.sigma_rank2(), _sigma(), 2),
        item("ohno4", families.ohno_rank4(), np.eye(3) / 3, 4),
        item("rank8-66", families.rank8_66(), _rank8_marginal(), 8),
    ]
    items += [item(f"ohno-d {d}", families.ohno_rank_d(d), np.eye(d) / d, d) for d in OHNO_D]
    items += [
        item(f"rank8k {k}", families.rank8k_6k(k), np.kron(np.eye(k) / k, _rank8_marginal()), 8 * k)
        for k in RANK8K
    ]
    return items


def integer_family(rng: np.random.Generator, d_in: int, d_out: int, r: int) -> channels.KrausFamily:
    """Normalized family of sparse integer operators in [-2, 2], carrying ``exact_ops``."""
    while True:
        mats = rng.integers(-2, 3, size=(r, d_out, d_in))
        mats = mats * (rng.random(mats.shape) < INTEGER_DENSITY)
        if mats.any():
            break
    scale = float(np.sqrt((mats.astype(float) ** 2).sum()))
    exact = tuple(np.array(m.tolist(), dtype=object) for m in mats)
    return channels.KrausFamily(d_in=d_in, d_out=d_out, ops=tuple(m / scale for m in mats), exact_ops=exact)


def build_random_mixed(seed: int, count: int = RANDOM_COUNT) -> list[Item]:
    """Alternating complex Gaussian and integer families, d_in, d_out in 2..4, r in 1..6."""
    rng = np.random.default_rng(seed)
    items = []
    for i in range(count):
        d_in, d_out = (int(x) for x in rng.integers(2, 5, size=2))
        r = int(rng.integers(1, 7))
        if i % 2 == 0:
            items.append(Item(f"gaussian {i}", "gaussian", channels.random_family(rng, d_in, d_out, r)))
        else:
            items.append(Item(f"integer {i}", "integer", integer_family(rng, d_in, d_out, r)))
    return items


def json_roundtrip(f: channels.KrausFamily) -> channels.KrausFamily:
    """family_to_json -> text -> family_from_json, keeping exact operators exact."""
    doc = channels.family_to_json(f)
    if f.exact_ops is not None:
        doc["ops"] = [linalg.matrix_to_json(e) for e in f.exact_ops]
    return channels.family_from_json(json.loads(json.dumps(doc)))


def _check_builtin(item: Item, counts: Counter) -> list[str]:
    f, expect = item.family, item.expect
    cert = extremality.is_extremal(f, targets=expect["targets"])
    cr = channels.choi_rank(f)
    verdict = separability.separability_verdict(f)
    counts[f"mode/{cert.mode}"] += 1
    problems = []
    if not cert.extremal or cert.borderline:
        problems.append(f"extremal={cert.extremal} borderline={cert.borderline}")
    if not cert.valid_marginals:
        problems.append(f"marginal residual {cert.marginal_residual:.3e}")
    if cr.rank != expect["choi_rank"]:
        problems.append(f"choi rank {cr.rank}, README says {expect['choi_rank']}")
    if expect["separable"] and verdict.conclusion != "separable":
        problems.append(f"conclusion {verdict.conclusion}, expected separable")
    return problems


def _check_random(item: Item, counts: Counter) -> list[str]:
    f = item.family
    back = json_roundtrip(f)
    if f.exact_ops is not None:
        same = all(bool((a == b).all()) for a, b in zip(f.exact_ops, back.exact_ops or ()))
    else:
        same = all(np.array_equal(a, b) for a, b in zip(f.ops, back.ops))
    problems = [] if same and back.r == f.r else ["JSON round trip changed the family"]

    # The generated family, not its round-tripped copy, is certified: JSON
    # brings exact operators back as Fractions, whose Gram costs 10-20x the
    # integer one, which would swamp every other layer in this workload.
    cert = extremality.is_extremal(f)
    cr = channels.choi_rank(f)
    verdict = separability.separability_verdict(f)
    restricted = reductions.restrict_to_support(f)
    rec = reductions.diagonalize_marginals(f)
    counts[f"{item.kind}/{'extremal' if cert.extremal else 'non-extremal'}"] += 1
    counts[f"mode/{cert.mode}"] += 1

    r, d_in, d_out = f.r, f.d_in, f.d_out
    if item.kind == "gaussian":
        generic = r * r <= d_in * d_in + d_out * d_out - 1
        if cert.mode != "numerical" or cert.extremal != generic:
            problems.append(f"{cert.mode} verdict {cert.extremal}, generic rule says {generic}")
        want_choi = min(r, d_in * d_out)
        # On the Gaussian half only, so the exact tail is paid once per
        # integer family rather than three times.
        if not reductions.adjoint_duality_check(f):
            problems.append("adjoint changed the verdict")
    else:
        num = extremality.is_extremal(f, mode="numerical")
        if cert.mode != "exact":
            problems.append(f"integer family certified in {cert.mode} mode")
        if num.borderline:
            counts["integer/numerical-borderline"] += 1
        elif num.extremal != cert.extremal:
            problems.append(f"exact verdict {cert.extremal}, numerical says {num.extremal}")
        want_choi = int(np.linalg.matrix_rank(np.array([k.reshape(-1) for k in f.ops])))
    if cr.rank != want_choi or verdict.choi_rank != cr.rank:
        problems.append(f"choi rank {cr.rank} (verdict {verdict.choi_rank}), expected {want_choi}")
    if verdict.conclusion == "separable" and cr.rank > d_out:
        problems.append("separable verdict outside the rank criterion")

    if restricted is not f:
        counts["restricted"] += 1
        again = extremality.is_extremal(restricted, mode="numerical")
        if not again.borderline and again.extremal != cert.extremal:
            problems.append("support restriction changed the verdict")
    mp = channels.marginals(rec.family)
    for rho in (mp.rho1, mp.rho2):
        off = float(np.abs(rho - np.diag(np.diag(rho))).max())
        if off > OFF_DIAGONAL_RTOL * max(1.0, float(np.abs(rho).max())):
            problems.append(f"diagonalized marginal has off-diagonal {off:.3e}")
    return problems


def check_item(item: Item, counts: Counter) -> list[str]:
    """Certify one family; return what was wrong with the outputs."""
    if item.kind == "builtin":
        return _check_builtin(item, counts)
    return _check_random(item, counts)


def run_pass(items: list[Item]) -> PassResult:
    """Certify every item once, timing each, and collect failed items."""
    counts: Counter = Counter()
    latencies, failures = [], []
    start = time.perf_counter()
    for item in items:
        t0 = time.perf_counter()
        try:
            problems = check_item(item, counts)
        except Exception as exc:  # a crash on one family is a failed item, not a dead run
            problems = [f"{type(exc).__name__}: {exc}"]
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if problems:
            failures.append(f"{item.label}: {'; '.join(problems)}")
    return PassResult(time.perf_counter() - start, latencies, failures, counts)


def check_cli(returncode: int, stdout: str) -> list[str]:
    """A CLI call must exit 0 and print a report with ``"passed": true``."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON report"]
    return [] if report.get("passed") is True else ["report has passed != true"]


WORKLOADS = {
    # Exact path: the object-dtype Gram and Bareiss rank dominate; the
    # separability, channels and reductions layers barely register.
    "paper-exact": Workload(
        build=build_paper_exact,
        cli_calls=lambda seed: [["verify", "paper", "6", "8"]],
        warmup=1,
    ),
    # Float path: complex Gram of side 576/1024 through SVD and PPT
    # eigensolves on Choi matrices of side 324/576; no exact rank at all.
    "tensor-numerical": Workload(
        build=build_tensor_numerical,
        cli_calls=lambda seed: [["verify", "rank8k", "4"]],
        warmup=3,
    ),
    # Many small families: per-call overhead in channels, reductions and the
    # CLI dominates, and the tail is exact rank on rank-deficient families.
    "random-mixed": Workload(
        build=build_random_mixed,
        cli_calls=lambda seed: [
            ["verify", "paper", "3", "2"],
            ["table", "2", "6", "1", "6"],
            ["proptest", "--seed", str(seed), "--count", "200"],
        ],
        warmup=20,
    ),
}
