import numpy as np
import pytest

from extremal_marginals import (
    KrausFamily,
    adjoint,
    adjoint_duality_check,
    block_gram,
    choi,
    diagonalize_marginals,
    is_extremal,
    marginals,
    ppt,
    random_family,
    rank,
    restrict_to_support,
    shift_family,
    sigma_rank2,
)
from extremal_marginals.reductions import SUPPORT_ATOL, _phase_fixed_eigh
from conftest import random_unitary, same_bits
from test_extremality import e_basis_family


def offdiag_max(m):
    return float(np.abs(m - np.diag(np.diag(m))).max())


class TestDiagonalizeMarginals:
    def test_already_diagonal_sorted_gives_identity(self):
        # sigma has distinct eigenvalues already sorted nondecreasing, so the
        # phase-fixed unitaries are exactly the identity
        rec = diagonalize_marginals(sigma_rank2())
        assert np.abs(rec.u - np.eye(2)).max() <= 1e-12
        assert np.abs(rec.v - np.eye(2)).max() <= 1e-12
        assert np.abs(rec.d1_diag - np.array([1 / 3, 2 / 3])).max() <= 1e-12

    def test_recovers_sigma_after_input_rotation(self):
        rot = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        base = sigma_rank2()
        rotated = KrausFamily(d_in=2, d_out=2, ops=tuple(k @ rot.conj().T for k in base.ops))
        rec = diagonalize_marginals(rotated)
        assert np.abs(rec.d1_diag - np.array([1 / 3, 2 / 3])).max() <= 1e-12
        mp = marginals(rec.family)
        assert offdiag_max(mp.rho1) <= 1e-12
        assert offdiag_max(mp.rho2) <= 1e-12

    def test_unitaries_are_unitary_and_replayable(self, rng):
        f = random_family(rng, 3, 4, 3)
        rec = diagonalize_marginals(f)
        assert np.abs(rec.u @ rec.u.conj().T - np.eye(3)).max() <= 1e-12
        assert np.abs(rec.v @ rec.v.conj().T - np.eye(4)).max() <= 1e-12
        replayed = tuple(rec.v @ k @ rec.u.conj().T for k in f.ops)
        assert all(np.abs(a - b).max() <= 1e-12 for a, b in zip(replayed, rec.family.ops))

    def test_diagonal_entries_sorted_nondecreasing(self, rng):
        f = random_family(rng, 4, 3, 4)
        rec = diagonalize_marginals(f)
        assert np.all(np.diff(rec.d1_diag) >= -1e-14)
        assert np.all(np.diff(rec.d2_diag) >= -1e-14)

    def test_verdict_invariant_over_random_suite(self, rng):
        for _ in range(50):
            f = random_family(
                rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 6))
            )
            rec = diagonalize_marginals(f)
            assert is_extremal(f).extremal == is_extremal(rec.family).extremal
            mp = marginals(rec.family)
            assert offdiag_max(mp.rho1) <= 1e-12
            assert offdiag_max(mp.rho2) <= 1e-12

    def test_preserves_gram_choi_and_ppt_data(self, rng):
        from extremal_marginals import choi_rank

        f = random_family(rng, 3, 3, 2)
        rec = diagonalize_marginals(f)
        assert rank(block_gram(f)).rank == rank(block_gram(rec.family)).rank
        assert choi_rank(f).rank == choi_rank(rec.family).rank
        w0 = np.linalg.eigvalsh(choi(f))
        w1 = np.linalg.eigvalsh(choi(rec.family))
        assert np.abs(w0 - w1).max() <= 1e-10
        assert ppt(choi(f), 3, 3)[0] == ppt(choi(rec.family), 3, 3)[0]

    def test_adjoint_swaps_diagonals(self, rng):
        f = random_family(rng, 3, 4, 3)
        rec = diagonalize_marginals(f)
        rec_adj = diagonalize_marginals(adjoint(f))
        assert np.abs(rec_adj.d1_diag - rec.d2_diag).max() <= 1e-10
        assert np.abs(rec_adj.d2_diag - rec.d1_diag).max() <= 1e-10


def mixed_families(rng):
    """Complex and integer families, d_in and d_out in 2..4 and r in 1..5,
    with one padded so that restriction has something to drop."""
    fams = []
    for _ in range(12):
        d_in, d_out = (int(x) for x in rng.integers(2, 5, size=2))
        r = int(rng.integers(1, 6))
        fams.append(random_family(rng, d_in, d_out, r))
        mats = rng.integers(-2, 3, size=(r, d_out, d_in)) * (rng.random((r, d_out, d_in)) < 0.5)
        if mats.any():
            exact = tuple(np.array(m.tolist(), dtype=object) for m in mats)
            fams.append(KrausFamily(d_in=d_in, d_out=d_out, ops=exact, exact_ops=exact))
    f = shift_family(2, 1)
    fams.append(KrausFamily(d_in=3, d_out=4, ops=np.pad(f.ops, ((0, 0), (0, 1), (0, 1)))))
    return fams


class TestBatchedReductions:
    """The reductions act on the whole operator stack at once; every entry is
    still the product a per-operator loop forms, bit for bit."""

    def test_diagonalize_matches_per_operator_products(self, rng):
        for f in mixed_families(rng):
            rec = diagonalize_marginals(f)
            want = KrausFamily(f.d_in, f.d_out, tuple(rec.v @ k @ rec.u.conj().T for k in f.ops))
            assert same_bits(rec.family.ops, want.ops)

    def test_restrict_matches_per_operator_products(self, rng):
        restricted = 0
        for f in mixed_families(rng):
            g = restrict_to_support(f)
            if g is f:
                continue
            restricted += 1
            mp = marginals(f)
            w1, u1 = np.linalg.eigh(np.asarray(mp.rho1, dtype=complex).T)
            w2, u2 = np.linalg.eigh(np.asarray(mp.rho2, dtype=complex))
            cut = SUPPORT_ATOL * float(np.trace(mp.rho1).real)
            p_in, p_out = u1[:, w1 > cut], u2[:, w2 > cut]
            want = KrausFamily(g.d_in, g.d_out, tuple(p_out.conj().T @ k @ p_in for k in f.ops))
            assert same_bits(g.ops, want.ops)
        assert restricted >= 2

    def test_phase_fixed_eigh(self, rng):
        """Every eigenvector's first component of modulus above 1e-9 is real
        and positive, also when the components before it are below 1e-9,
        and the columns equal a per-column phase fix bit for bit."""

        def per_column(h):
            w, vecs = np.linalg.eigh((h + h.conj().T) / 2)
            for col in range(vecs.shape[1]):
                v = vecs[:, col]
                pivot = v[int(np.argmax(np.abs(v) > 1e-9))]
                if abs(pivot) > 0:
                    vecs[:, col] = v * (pivot.conjugate() / abs(pivot))
            return w, vecs

        # columns 1..3 of q start with exactly 0 and, after a rotation by
        # 4e-10 between the first two axes, with entries of modulus below 1e-9
        q = np.eye(4, dtype=complex)
        q[1:, 1:] = random_unitary(rng, 3)
        t = 4e-10
        g = np.eye(4, dtype=complex)
        g[:2, :2] = [[np.cos(t), -np.sin(t) * 1j], [-np.sin(t) * 1j, np.cos(t)]]
        tiny = 0
        for u in (q, g @ q, random_unitary(rng, 4)):
            h = u @ np.diag([1.0, 2.0, 3.0, 4.0]) @ u.conj().T
            w, vecs = _phase_fixed_eigh(h)
            want_w, want = per_column(h)
            assert same_bits(w, want_w) and same_bits(vecs, want)
            for v in vecs.T:
                idx = int(np.argmax(np.abs(v) > 1e-9))
                tiny += idx > 0 and bool(np.abs(v[0]) > 0)
                assert np.abs(v[:idx]).max(initial=0.0) <= 1e-9
                assert v[idx].real > 1e-9 and abs(v[idx].imag) <= 1e-15 * abs(v[idx])
        assert tiny >= 1


class TestAdjointDuality:
    def test_shift_family(self):
        assert adjoint_duality_check(shift_family(2, 2))

    def test_non_extremal_family(self):
        assert adjoint_duality_check(e_basis_family())

    def test_single_unitary(self, rng):
        u = random_unitary(rng, 3)
        assert adjoint_duality_check(KrausFamily(d_in=3, d_out=3, ops=(u / np.sqrt(3),)))

    def test_builds_the_adjoint_once(self, monkeypatch):
        from extremal_marginals import reductions

        calls = []

        def counting(f):
            calls.append(f)
            return adjoint(f)

        monkeypatch.setattr(reductions, "adjoint", counting)
        assert adjoint_duality_check(shift_family(2, 2))
        assert len(calls) == 1


class TestRestrictToSupport:
    def test_rank_one_projector(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1.0
        f = KrausFamily(d_in=2, d_out=2, ops=(e11,))
        small = restrict_to_support(f)
        assert small.d_in == 1 and small.d_out == 1
        assert abs(abs(small.ops[0][0, 0]) - 1.0) <= 1e-12
        mp = marginals(small)
        assert abs(mp.rho1[0, 0] - 1.0) <= 1e-12
        assert abs(mp.rho2[0, 0] - 1.0) <= 1e-12

    def test_full_rank_family_unchanged(self, rng):
        f = random_family(rng, 3, 3, 3)
        assert restrict_to_support(f) is f

    def test_padded_shift_family_recovers_gram_rank(self):
        f = shift_family(2, 1)
        padded = KrausFamily(
            d_in=3, d_out=4, ops=tuple(np.pad(k, ((0, 1), (0, 1))) for k in f.ops)
        )
        restricted = restrict_to_support(padded)
        assert restricted.d_in == 2 and restricted.d_out == 3
        assert rank(block_gram(restricted)).rank == 9

    def test_idempotent(self, rng):
        f = random_family(rng, 3, 2, 1)
        once = restrict_to_support(f)
        assert restrict_to_support(once) is once

    def test_tiny_family_is_kept_whole(self):
        f = shift_family(3, 2)
        tiny = KrausFamily(d_in=3, d_out=5, ops=tuple(k * 1e-7 for k in f.ops))
        assert restrict_to_support(tiny) is tiny

    def test_tiny_padded_family_loses_only_the_padding(self):
        f = shift_family(3, 2)
        padded = KrausFamily(
            d_in=4, d_out=6, ops=tuple(np.pad(k * 1e-7, ((0, 1), (0, 1))) for k in f.ops)
        )
        restricted = restrict_to_support(padded)
        assert (restricted.d_in, restricted.d_out) == (3, 5)

    def test_zero_family_raises(self):
        z = KrausFamily(d_in=2, d_out=2, ops=(np.zeros((2, 2)),))
        with pytest.raises(ValueError):
            restrict_to_support(z)
