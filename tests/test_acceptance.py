"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import time
from fractions import Fraction

import numpy as np

from extremal_marginals import (
    KrausFamily,
    adjoint,
    block_gram,
    choi,
    choi_rank,
    closed_form_choi_pt,
    diagonalize_marginals,
    exact_marginals,
    is_extremal,
    marginals,
    min_eigenvalue,
    ohno_rank4,
    ohno_rank_d,
    parthasarathy_bound,
    partial_transpose,
    ppt,
    random_family,
    rank,
    rank8_66,
    rank8_66_marginal,
    rank8k_6k,
    restrict_to_support,
    separability_verdict,
    shift_family,
    sigma_rank2,
)
from extremal_marginals.cli import cmd_table
from conftest import vec

GRID = [(d, m) for d in range(2, 6) for m in range(1, 6)]


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {tag}{' - ' + detail if detail else ''}")
    assert ok, f"{criterion}: {detail}"


def exact_z(d, m):
    p = Fraction(d + 1, d + m)
    z = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            z[i, j] = p / d * (i == j) + (1 - p) / d
    return z


def test_criterion_1_paper_family_grid():
    start = time.perf_counter()
    failures = []
    for d, m in GRID:
        n = d + m
        fam = shift_family(d, m)
        rho1, rho2 = exact_marginals(fam)
        z = exact_z(d, m)
        if not all(rho1[i, j] == z[i, j] for i in range(d) for j in range(d)):
            failures.append(f"({d},{m}) rho1")
        if not all(
            rho2[i, j] == Fraction(int(i == j), n) for i in range(n) for j in range(n)
        ):
            failures.append(f"({d},{m}) rho2")
        gram = block_gram(fam)
        if not all(isinstance(x, (int, np.integer)) for x in gram.reshape(-1)):
            failures.append(f"({d},{m}) gram not integer")
        if rank(gram, mode="exact").rank != n * n:
            failures.append(f"({d},{m}) gram rank")
        if choi_rank(fam).rank != n:
            failures.append(f"({d},{m}) choi rank")
        is_ppt, smallest = ppt(choi(fam), d, n)
        if not is_ppt or smallest < -1e-10:
            failures.append(f"({d},{m}) ppt")
        if separability_verdict(fam).conclusion != "separable":
            failures.append(f"({d},{m}) verdict")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s")
    report(
        "C1 paper-family grid (2<=d<=5, 1<=m<=5)",
        not failures,
        f"20 cells in {elapsed:.1f}s" if not failures else "; ".join(failures),
    )


def test_criterion_2_bound_attainment():
    failures = []
    for d, m in GRID:
        n = d + m
        bound = parthasarathy_bound(d, n)
        if 2 * m > d * d - 2 * d - 2:
            if n != bound:
                failures.append(f"({d},{m}) expected attainment, bound {bound}")
    if not (parthasarathy_bound(4, 6) == 7 and 6 < 7):
        failures.append("(4,2) not strictly below")
    if not (parthasarathy_bound(5, 8) == 9 and 8 < 9):
        failures.append("(5,3) not strictly below")
    report("C2 bound attainment (integer arithmetic)", not failures, "; ".join(failures))


def test_criterion_3_explicit_constructions():
    failures = []
    f2 = sigma_rank2()
    if not (is_extremal(f2).extremal and choi_rank(f2).rank == 2):
        failures.append("sigma2")
    f4 = ohno_rank4()
    if not (is_extremal(f4).extremal and choi_rank(f4).rank == 4 == parthasarathy_bound(3, 3)):
        failures.append("ohno4")
    for d in (3, 4, 5, 6):
        fd = ohno_rank_d(d)
        if not (is_extremal(fd).extremal and choi_rank(fd).rank == d):
            failures.append(f"ohno-d({d})")
    f8 = rank8_66()
    mp8 = marginals(f8)
    dmat = rank8_66_marginal()
    ok8 = (
        is_extremal(f8).extremal
        and choi_rank(f8).rank == 8 == parthasarathy_bound(6, 6)
        and np.abs(mp8.rho1 - dmat).max() <= 1e-12
        and np.abs(mp8.rho2 - dmat).max() <= 1e-12
    )
    if not ok8:
        failures.append("rank8-66")
    start = time.perf_counter()
    f24 = rank8k_6k(3)
    cert = is_extremal(f24)
    elapsed = time.perf_counter() - start
    gap = cert.gram_rank.gap_ratio
    ok24 = (
        cert.extremal
        and cert.mode == "numerical"
        # proven, not read off the SVD: a verified Cholesky factorisation
        # of every block's shifted float Gram bounds sigma_min from below
        and cert.gram_rank.engine == "cholesky"
        and cert.gram_size == 576
        and choi_rank(f24).rank == 24
        and gap is not None
        and gap >= 1e3
        and elapsed < 120.0
    )
    if not ok24:
        failures.append(
            f"rank8k(3) engine={cert.gram_rank.engine} gap={gap} elapsed={elapsed:.1f}s"
        )
    report(
        "C3 explicit constructions",
        not failures,
        f"rank8k(3) certified gap ratio {gap:.2e} in {elapsed:.1f}s"
        if not failures
        else "; ".join(failures),
    )


def test_criterion_4_negative_controls():
    failures = []
    ops, exact = [], []
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=object)
            e[a, b] = 1
            exact.append(e)
            ops.append(e.astype(float) / np.sqrt(2))
    basis_family = KrausFamily(d_in=2, d_out=2, ops=tuple(ops), exact_ops=tuple(exact))
    cert = is_extremal(basis_family)
    if cert.extremal or not (cert.gram_rank.rank <= 8 < 16):
        failures.append(f"basis family rank {cert.gram_rank.rank}")
    k = np.eye(2) / 2
    dup = KrausFamily(d_in=2, d_out=2, ops=(k, k))
    if is_extremal(dup).extremal:
        failures.append("duplicated family")
    ident = KrausFamily(d_in=2, d_out=2, ops=(np.eye(2) / np.sqrt(2),))
    is_ppt, smallest = ppt(choi(ident), 2, 2)
    if is_ppt or abs(smallest + 0.5) > 1e-10:
        failures.append(f"identity channel min PT eig {smallest}")
    report("C4 negative controls", not failures, "; ".join(failures))


def test_criterion_5_oracle_agreement():
    failures = []
    for d, m in GRID:
        c = choi(shift_family(d, m))
        pt = partial_transpose(c, d, d + m, "first")
        dev = float(np.abs(pt - closed_form_choi_pt(d, m)).max())
        if dev > 1e-12:
            failures.append(f"({d},{m}) pt dev {dev:.2e}")
    report("C5 oracle agreement", not failures, "; ".join(failures))


def test_criterion_6_reduction_properties():
    failures = []
    rng = np.random.default_rng(60001)
    for _ in range(50):
        f = random_family(
            rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 6))
        )
        if is_extremal(f).extremal != is_extremal(adjoint(f)).extremal:
            failures.append("adjoint verdict")
            break
    rng = np.random.default_rng(60002)
    for _ in range(50):
        f = random_family(
            rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 6))
        )
        rec = diagonalize_marginals(f)
        if is_extremal(f).extremal != is_extremal(rec.family).extremal:
            failures.append("canonicalization verdict")
            break
        mp = marginals(rec.family)
        off = max(
            float(np.abs(mp.rho1 - np.diag(np.diag(mp.rho1))).max()),
            float(np.abs(mp.rho2 - np.diag(np.diag(mp.rho2))).max()),
        )
        if off > 1e-12:
            failures.append(f"canonical marginals off-diagonal {off:.2e}")
            break
    rng = np.random.default_rng(60003)
    for _ in range(50):
        f = random_family(
            rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 6))
        )
        padded = KrausFamily(
            d_in=f.d_in + 1,
            d_out=f.d_out + 1,
            ops=tuple(np.pad(k, ((0, 1), (0, 1))) for k in f.ops),
        )
        once = restrict_to_support(padded)
        if restrict_to_support(once) is not once:
            failures.append("restrict idempotency")
            break
    rng = np.random.default_rng(60004)
    for _ in range(50):
        f = random_family(
            rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        )
        rows = []
        for i in range(f.r):
            for j in range(f.r):
                p = f.ops[i].conj().T @ f.ops[j]
                q = f.ops[j] @ f.ops[i].conj().T
                rows.append(np.concatenate([vec(p), vec(q)]))
        if rank(np.array(rows)).rank != rank(block_gram(f)).rank:
            failures.append("span vs gram rank")
            break
    report("C6 reduction properties (seeded, 50 families each)", not failures, "; ".join(failures))


def test_criterion_7_table_reproduction():
    failures = []
    rep = cmd_table(2, 6, 1, 6)
    rows = {(r["d1"], r["d2"]): r for r in rep.table_rows}
    for d in range(2, 7):
        for m in range(1, 7):
            row = rows[(d, d + m)]
            expected = 2 * m > d * d - 2 * d - 2 if d >= 3 else True
            if d == 2 and not row["attained"]:
                failures.append(f"(2,{m}) should attain")
            if d >= 3 and row["attained"] != expected:
                failures.append(f"({d},{m}) attained={row['attained']} expected={expected}")
            if row["constructed_rank"] != d + m:
                failures.append(f"({d},{m}) constructed {row['constructed_rank']}")
    r66 = rows[(6, 6)]
    if not (r66["constructed_rank"] == 8 and r66["bound"] == 8 and r66["attained"]):
        failures.append("(6,6) row")
    if not rep.passed:
        failures.append("table command reported failure")
    report("C7 table reproduction", not failures, "; ".join(failures))
