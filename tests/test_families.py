import numpy as np
import pytest

from extremal_marginals import (
    block_gram,
    choi,
    choi_rank,
    closed_form_choi_pt,
    exact_marginals,
    is_extremal,
    is_minimal,
    marginals,
    min_eigenvalue,
    ohno_rank4,
    ohno_rank_d,
    partial_transpose,
    rank,
    rank8_66,
    rank8_66_marginal,
    rank8k_6k,
    rank8k_marginal,
    shift_family,
    shift_matrix,
    shift_operators,
    shift_targets,
    sigma_marginal,
    sigma_rank2,
)


class TestShiftMatrix:
    @pytest.mark.parametrize("d,m", [(2, 1), (3, 2), (4, 4)])
    def test_cycle_and_structure(self, d, m):
        s = shift_matrix(d, m)
        n = d + m
        assert s.shape == (n, n)
        power = np.linalg.matrix_power(s, d + 1)
        proj = np.zeros((n, n))
        proj[: d + 1, : d + 1] = np.eye(d + 1)
        assert np.abs(power - proj).max() == 0
        for col in range(n):
            nz = s[:, col][s[:, col] != 0]
            assert nz.size <= 1
            assert np.all(nz == 1)

    def test_powers_sum_to_cycle_ones_block(self):
        d, m = 3, 2
        s = shift_matrix(d, m)
        total = sum(np.linalg.matrix_power(s, i) for i in range(1, d + 2))
        expected = np.zeros((d + m, d + m))
        expected[: d + 1, : d + 1] = 1.0
        assert np.abs(total - expected).max() == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            shift_matrix(1, 1)


class TestShiftFamily:
    def test_2_1_first_operator(self):
        f = shift_family(2, 1)
        assert f.r == 3
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]) / np.sqrt(6)
        assert np.abs(f.ops[0] - expected).max() <= 1e-15

    def test_2_4_ones_operators(self):
        # operators 4..6 are rank one onto e_i; their adjoints have a single
        # nonzero column holding the scaled all-ones vector
        f = shift_family(2, 4)
        for idx in (3, 4, 5):
            adj = f.ops[idx].conj().T
            col = idx  # operator at index idx maps onto basis vector e_{idx+1}
            for c in range(6):
                column = adj[:, c]
                if c == col:
                    assert np.abs(column - 1 / np.sqrt(12)).max() <= 1e-15
                else:
                    assert np.abs(column).max() == 0

    def test_3_2_marginals(self):
        mp = marginals(shift_family(3, 2))
        z = np.full((3, 3), 1 / 15) + np.eye(3) * (1 / 3 - 1 / 15)
        assert np.abs(mp.rho1 - z).max() <= 1e-14
        assert np.abs(mp.rho2 - np.eye(5) / 5).max() <= 1e-14

    def test_marginals_match_declared_targets(self):
        for d, m in [(2, 1), (2, 3), (4, 2)]:
            mp = marginals(shift_family(d, m))
            t = shift_targets(d, m)
            assert np.abs(mp.rho1 - t.rho1).max() <= 1e-14
            assert np.abs(mp.rho2 - t.rho2).max() <= 1e-14

    def test_exact_marginal_identity(self):
        from fractions import Fraction

        for d, m in [(2, 1), (3, 3)]:
            rho1, rho2 = exact_marginals(shift_family(d, m))
            p = Fraction(d + 1, d + m)
            for i in range(d):
                for j in range(d):
                    assert rho1[i, j] == p / d * (i == j) + (1 - p) / d
            for i in range(d + m):
                for j in range(d + m):
                    assert rho2[i, j] == Fraction(int(i == j), d + m)

    def test_unscaled_gram_integer_and_full_rank(self):
        for d, m in [(2, 2), (3, 1)]:
            f = shift_family(d, m)
            g = block_gram(f)
            assert all(isinstance(x, (int, np.integer)) for x in g.reshape(-1))
            assert rank(g, mode="exact").rank == (d + m) ** 2

    def test_float_operators_are_the_per_entry_conversion(self):
        # one astype on the exact operators gives, bit for bit, the operators
        # converted entry by entry with float() and then scaled
        for d in range(2, 9):
            for m in range(1, 13):
                scale = 1.0 / np.sqrt(d * (d + m))
                want = [
                    np.array([[float(x) for x in row] for row in e]) * scale
                    for e in shift_operators(d, m)
                ]
                got = shift_family(d, m).ops
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and a.shape == b.shape
                    assert a.tobytes() == b.tobytes()

    def test_operator_count_and_shapes(self):
        ops = shift_operators(4, 3)
        assert len(ops) == 7
        assert all(e.shape == (7, 4) for e in ops)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            shift_family(1, 1)
        with pytest.raises(ValueError):
            shift_family(2, 0)


class TestClosedFormChoiPt:
    def test_2_1_psd_low_rank(self):
        pt = closed_form_choi_pt(2, 1)
        assert min_eigenvalue(pt) >= -1e-12
        assert rank(pt).rank <= 3

    def test_matches_computed_partial_transpose(self):
        for d, m in [(2, 2), (3, 2), (4, 1)]:
            c = choi(shift_family(d, m))
            pt = partial_transpose(c, d, d + m, "first")
            assert np.abs(closed_form_choi_pt(d, m) - pt).max() <= 1e-12

    @pytest.mark.parametrize("d,m", [(2, 1), (3, 3), (5, 2)])
    def test_psd(self, d, m):
        assert min_eigenvalue(closed_form_choi_pt(d, m)) >= -1e-12


class TestSigmaRank2:
    def test_marginals(self):
        mp = marginals(sigma_rank2())
        assert np.abs(mp.rho1 - sigma_marginal()).max() <= 1e-14
        assert np.abs(mp.rho2 - sigma_marginal()).max() <= 1e-14

    def test_extremal_rank_2(self):
        f = sigma_rank2()
        assert is_extremal(f).extremal
        assert choi_rank(f).rank == 2
        assert f.hermitian_kraus


class TestOhnoRank4:
    def test_marginals(self):
        mp = marginals(ohno_rank4())
        assert np.abs(mp.rho1 - np.eye(3) / 3).max() <= 1e-14
        assert np.abs(mp.rho2 - np.eye(3) / 3).max() <= 1e-14

    def test_unscaled_sum_is_4_identity(self):
        f = ohno_rank4()
        unscaled = [k * (2 * np.sqrt(3)) for k in f.ops]
        total = sum(b.conj().T @ b for b in unscaled)
        assert np.abs(total - 4 * np.eye(3)).max() <= 1e-12

    def test_extremal_choi_rank_4(self):
        f = ohno_rank4()
        assert choi_rank(f).rank == 4
        assert is_extremal(f).extremal


class TestOhnoRankD:
    def test_d3_operators(self):
        f = ohno_rank_d(3)
        s = 1 / np.sqrt(3)
        v1 = np.diag([0.0, 1.0, 1.0]) / np.sqrt(2)
        v2 = np.zeros((3, 3))
        v2[0, 1] = v2[1, 0] = 1 / np.sqrt(2)
        v3 = np.zeros((3, 3))
        v3[0, 2] = v3[2, 0] = 1 / np.sqrt(2)
        for got, want in zip(f.ops, (v1 * s, v2 * s, v3 * s)):
            assert np.abs(got - want).max() <= 1e-15

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_marginals_uniform(self, d):
        mp = marginals(ohno_rank_d(d))
        assert np.abs(mp.rho1 - np.eye(d) / d).max() <= 1e-14
        assert np.abs(mp.rho2 - np.eye(d) / d).max() <= 1e-14

    def test_minimal_with_choi_rank_d(self):
        f = ohno_rank_d(4)
        assert is_minimal(f)
        assert choi_rank(f).rank == 4
        assert f.hermitian_kraus

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            ohno_rank_d(2)


class TestRank8Families:
    def test_rank8_66_marginal_matrix(self):
        d = rank8_66_marginal()
        assert np.abs(d - np.diag([1, 1, 1, 2, 2, 2]) / 9).max() <= 1e-15
        mp = marginals(rank8_66())
        assert np.abs(mp.rho1 - d).max() <= 1e-12
        assert np.abs(mp.rho2 - d).max() <= 1e-12

    def test_rank8_66_certificates(self):
        f = rank8_66()
        assert f.r == 8
        assert choi_rank(f).rank == 8
        assert is_extremal(f).extremal

    def test_rank8k_shapes_and_rank(self):
        f = rank8k_6k(3)
        assert f.r == 24
        assert f.d_in == 18 and f.d_out == 18
        assert choi_rank(f).rank == 24
        mp = marginals(f)
        assert np.abs(mp.rho1 - rank8k_marginal(3)).max() <= 1e-12

    def test_rank8k_rejects_small_k(self):
        with pytest.raises(ValueError):
            rank8k_6k(2)
