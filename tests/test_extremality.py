from fractions import Fraction

import numpy as np
import pytest

from extremal_marginals import (
    KrausFamily,
    MarginalPair,
    adjoint,
    block_gram,
    bound_attained,
    is_extremal,
    is_minimal,
    min_eigenvalue,
    ohno_rank4,
    ohno_rank_d,
    parthasarathy_bound,
    random_family,
    rank,
    rank8_66,
    rank8k_6k,
    shift_family,
    shift_operators,
    shift_targets,
    sigma_rank2,
)
from extremal_marginals import linalg
from extremal_marginals.extremality import (
    _block_vectors,
    _sparse_block_vectors,
    _span,
    _span_terms,
)
from extremal_marginals.linalg import (
    Coo,
    _bareiss_rank,
    _blocks,
    _singular_values,
    coo_is_cheaper,
    integer_entries,
)
from conftest import random_unitary


def e_basis_family():
    """The (2, 2) matrix-unit family scaled by 1/sqrt(2): a non-extremal control."""
    ops, exact = [], []
    for a in range(2):
        for b in range(2):
            e = np.zeros((2, 2), dtype=object)
            e[a, b] = 1
            exact.append(e)
            ops.append(e.astype(float) / np.sqrt(2))
    return KrausFamily(d_in=2, d_out=2, ops=tuple(ops), exact_ops=tuple(exact))


def unscaled_shift_family(d, m):
    exact = shift_operators(d, m)
    return KrausFamily(
        d_in=d,
        d_out=d + m,
        ops=tuple(e.astype(float) for e in exact),
        exact_ops=tuple(exact),
    )


def kraus_basis_change_family():
    """shift_family(3, 2) with K_1 -> K_0 + 1e-4 K_1: an invertible change of
    Kraus basis, so still extremal, with a span gap ratio of ~1e5."""
    ops = list(shift_family(3, 2).ops)
    ops[1] = ops[0] + 1e-4 * ops[1]
    return KrausFamily(d_in=3, d_out=5, ops=tuple(ops))


class TestBlockGram:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_single_unitary(self, rng, d):
        u = random_unitary(rng, d)
        g = block_gram(KrausFamily(d_in=d, d_out=d, ops=(u / np.sqrt(d),)))
        assert g.shape == (1, 1)
        assert abs(g[0, 0] - 2 / d) <= 1e-12

    def test_unscaled_shift_family_is_integer_full_rank(self):
        g = block_gram(unscaled_shift_family(2, 1))
        assert g.shape == (9, 9)
        assert all(isinstance(x, (int, np.integer)) for x in g.reshape(-1))
        assert rank(g, mode="exact").rank == 9

    def test_e_basis_family_rank_deficient(self):
        g = block_gram(e_basis_family())
        assert g.shape == (16, 16)
        r = rank(g, mode="exact").rank
        assert r <= 8  # span dimension is bounded by dim(M2 (+) M2) = 8
        assert r == 7

    def test_gram_is_hermitian_psd(self, rng):
        for _ in range(10):
            f = random_family(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(1, 4)))
            g = block_gram(f)
            assert np.abs(g - g.conj().T).max() <= 1e-12
            assert min_eigenvalue(g) >= -1e-10

    def test_rank_invariant_under_rescaling_and_rotation(self, rng):
        f = random_family(rng, 3, 3, 3)
        r0 = rank(block_gram(f)).rank
        scaled = KrausFamily(d_in=3, d_out=3, ops=tuple(2.5 * k for k in f.ops))
        assert rank(block_gram(scaled)).rank == r0
        u, v = random_unitary(rng, 3), random_unitary(rng, 3)
        rotated = KrausFamily(d_in=3, d_out=3, ops=tuple(u @ k @ v.conj().T for k in f.ops))
        assert rank(block_gram(rotated)).rank == r0
        assert rank(block_gram(adjoint(f))).rank == r0


class TestIsExtremal:
    def test_shift_family_3_2(self):
        cert = is_extremal(shift_family(3, 2), targets=shift_targets(3, 2))
        assert cert.extremal
        assert cert.mode == "exact"
        assert cert.gram_rank.rank == 25
        assert cert.gram_size == 25
        assert cert.valid_marginals
        assert not cert.borderline

    def test_e_basis_family_not_extremal(self):
        cert = is_extremal(e_basis_family())
        assert not cert.extremal
        assert cert.gram_rank.rank < 16

    def test_kraus_basis_change_stays_extremal_numerically(self):
        # Ranking the Gram squared the conditioning and reported a confident 24/25.
        cert = is_extremal(kraus_basis_change_family(), mode="numerical")
        assert cert.gram_rank.rank == 25
        assert cert.extremal
        assert not cert.borderline

    def test_noise_below_default_threshold_is_not_borderline(self):
        # 1x1 operators: the 4 x 2 span has rank 1 and a second singular
        # value of ~1e-16, within 10x of the default threshold.
        ops = (np.array([[1.0]]) / np.sqrt(5), np.array([[2.0]]) / np.sqrt(5))
        cert = is_extremal(KrausFamily(d_in=1, d_out=1, ops=ops), mode="numerical")
        assert cert.gram_rank.rank == 1
        assert cert.gram_rank.largest_discarded_singular_value > cert.gram_rank.threshold / 10
        assert not cert.borderline

    def test_tol_just_above_a_singular_value_is_borderline(self):
        # The smallest singular value is ~1e4 below the next one, so only the
        # discarded side of the gap is thin.
        f = kraus_basis_change_family()
        smallest = is_extremal(f, mode="numerical").gram_rank.smallest_kept_singular_value
        cert = is_extremal(f, mode="numerical", tol=1.05 * smallest)
        assert cert.gram_rank.rank == 24
        assert cert.gram_rank.gap_ratio > 10
        assert cert.borderline

    def test_rank_engine_per_path(self):
        assert is_extremal(shift_family(4, 4)).gram_rank.engine == "cholesky"
        # rank 7 = d_in^2 + d_out^2 - 1: the trace identity is the only
        # relation, so the quotient span has full rank and its Gram certifies it
        rr = is_extremal(e_basis_family()).gram_rank
        assert (rr.rank, rr.engine, rr.prime) == (7, "cholesky", None)
        # a repeated operator is a deficiency beyond the trace identity
        k, e = shift_family(2, 1).ops[0], shift_family(2, 1).exact_ops[0]
        repeated = KrausFamily(d_in=2, d_out=3, ops=(k, k), exact_ops=(e, e))
        rr = is_extremal(repeated).gram_rank
        assert (rr.rank, rr.engine, rr.prime) == (1, "bareiss", None)
        assert is_extremal(rank8k_6k(3)).gram_rank.engine == "cholesky"

    def test_exact_span_rank_equals_exact_gram_rank(self, rng):
        """Seeded sparse integer families, and copies whose operators carry
        different denominators (so each is scaled by its own lcm)."""
        for _ in range(40):
            d_in, d_out, r = (int(x) for x in rng.integers(1, 4, size=3))
            shape = (r, d_out, d_in)
            mats = rng.integers(-2, 3, size=shape) * (rng.random(shape) < 0.5)
            if not mats.any():
                continue
            for dens in ([1] * r, [i + 2 for i in range(r)]):
                exact = tuple(
                    np.array([[Fraction(int(x), den) for x in row] for row in m], dtype=object)
                    for m, den in zip(mats, dens)
                )
                ops = tuple(m / den for m, den in zip(mats, dens))
                f = KrausFamily(d_in=d_in, d_out=d_out, ops=ops, exact_ops=exact)
                assert is_extremal(f).gram_rank.rank == rank(block_gram(f), mode="exact").rank

    def test_ohno4_extremal_numerical(self):
        cert = is_extremal(ohno_rank4())
        assert cert.extremal
        assert cert.mode == "numerical"

    def test_duplicated_family_not_extremal(self):
        k = np.eye(2) / 2
        cert = is_extremal(KrausFamily(d_in=2, d_out=2, ops=(k, k)))
        assert not cert.extremal
        assert cert.gram_rank.rank == 1

    def test_wrong_targets_flagged_not_fatal(self):
        bad = MarginalPair(rho1=np.eye(2) / 2, rho2=np.eye(2) / 2)
        cert = is_extremal(sigma_rank2(), targets=bad)
        assert not cert.valid_marginals
        assert cert.marginal_residual > 1e-9
        assert cert.extremal  # the Gram test does not look at the targets

    def test_marginal_check_is_relative_to_the_choi_trace(self):
        f = shift_family(3, 2)
        big = KrausFamily(d_in=3, d_out=5, ops=tuple(1e5 * k for k in f.ops))
        t = shift_targets(3, 2)
        scaled = MarginalPair(rho1=1e10 * t.rho1, rho2=1e10 * t.rho2)
        assert is_extremal(big, targets=scaled).valid_marginals
        off = MarginalPair(rho1=scaled.rho1 * (1 + 1e-6), rho2=scaled.rho2)
        assert not is_extremal(big, targets=off).valid_marginals

    def test_extremal_implies_minimal(self, rng):
        seen_extremal = 0
        for _ in range(30):
            f = random_family(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)), int(rng.integers(1, 6)))
            cert = is_extremal(f)
            if cert.extremal:
                seen_extremal += 1
                assert is_minimal(f)
        assert seen_extremal > 0

    def test_forced_numerical_on_exact_family(self):
        cert = is_extremal(shift_family(2, 1), mode="numerical")
        assert cert.mode == "numerical"
        assert cert.extremal

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            is_extremal(sigma_rank2(), mode="symbolic")


class TestBounds:
    def test_known_values(self):
        assert parthasarathy_bound(2, 2) == 2
        assert parthasarathy_bound(6, 6) == 8
        assert parthasarathy_bound(3, 4) == 4  # 4^2 <= 24 < 5^2
        assert parthasarathy_bound(18, 18) == 25

    def test_bound_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            parthasarathy_bound(0, 2)

    def test_attainment_examples(self):
        assert bound_attained(3, 1)  # bound(3, 4) = 4 = 3+1
        assert not bound_attained(4, 2)  # bound(4, 6) = 7 > 6
        assert bound_attained(2, 1)

    def test_attainment_matches_inequality_form(self):
        for d in range(2, 13):
            for m in range(1, 41):
                expected = 2 * m > d * d - 2 * d - 2
                assert bound_attained(d, m) == expected

    def test_attainment_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bound_attained(1, 1)


class TestSpanOracle:
    def test_gram_rank_equals_brute_force_span(self, rng):
        """Exhaustive over a fixed random suite with r <= 3 and d1, d2 <= 3."""
        from extremal_marginals import direct_sum

        for d1 in (1, 2, 3):
            for d2 in (1, 2, 3):
                for r in (1, 2, 3):
                    f = random_family(rng, d1, d2, r)
                    blocks = []
                    for i in range(r):
                        for j in range(r):
                            p = f.ops[i].conj().T @ f.ops[j]
                            q = f.ops[j] @ f.ops[i].conj().T
                            blocks.append(direct_sum(p, q).reshape(-1))
                    span_rank = rank(np.array(blocks)).rank
                    assert span_rank == rank(block_gram(f)).rank


class TestBatchedSpan:
    """_block_vectors builds all r^2 rows with stacked matmuls; it must equal
    the per-pair definition entry for entry."""

    @staticmethod
    def per_pair(ops, dtype):
        r = len(ops)
        rows = []
        for i in range(r):
            for j in range(r):
                p = np.conjugate(ops[i]).T @ ops[j]
                q = ops[j] @ np.conjugate(ops[i]).T
                rows.append(list(p.reshape(-1)) + list(q.reshape(-1)))
        return np.array(rows, dtype=dtype)

    def test_seeded_complex_family(self, rng):
        f = random_family(rng, 3, 4, 5)
        batched = _block_vectors(np.stack(f.ops))
        assert batched.dtype == complex
        assert np.array_equal(batched, self.per_pair(f.ops, complex))

    def test_python_int_operators(self, rng):
        # entries near 3 * 2^40 overflow int64 products, so they stay Python ints
        ops = [
            np.array((3 * 2**40 + rng.integers(-9, 10, size=(3, 2))).tolist(), dtype=object)
            for _ in range(3)
        ]
        batched = _block_vectors(np.stack(ops))
        assert batched.dtype == object
        assert np.array_equal(batched, self.per_pair(ops, object))
        assert all(isinstance(x, int) for x in batched.flat)


def integer_operators(f):
    """The exact operators, each scaled to integers by its own denominators."""
    return [np.array(integer_entries(e.flat), dtype=object).reshape(e.shape) for e in f.exact_ops]


def seeded_integer_family(rng, d_in, d_out, r, repeat=False, dens=None, big=1):
    """Sparse integer operators in [-2, 2] times ``big``, each divided by its
    entry of ``dens``; with ``repeat`` one operator is a copy of another."""
    shape = (r, d_out, d_in)
    while True:
        mats = rng.integers(-2, 3, size=shape) * (rng.random(shape) < 0.6)
        if mats.any():
            break
    if repeat and r > 1:
        i, j = rng.choice(r, size=2, replace=False)
        mats[i] = mats[j]
    dens = dens or [1] * r
    exact = tuple(
        np.array([[Fraction(int(x) * big, den) for x in row] for row in m], dtype=object)
        for m, den in zip(mats, dens)
    )
    ops = tuple(m * (big / den) for m, den in zip(mats, dens))
    return KrausFamily(d_in=d_in, d_out=d_out, ops=ops, exact_ops=exact)


def trace_kernel(d_in, d_out):
    """(vec I_{d_in}, -vec I_{d_out}): every block vector is orthogonal to it."""
    return np.concatenate([np.eye(d_in, dtype=int).ravel(), -np.eye(d_out, dtype=int).ravel()])


class TestTraceQuotient:
    """tr K_i^dagger K_j = tr K_j K_i^dagger makes column 0 of the span a
    combination of the other diagonal columns; the exact span drops it."""

    def test_full_span_annihilates_the_trace_vector(self, rng):
        for _ in range(30):
            d_in, d_out, r = (int(x) for x in rng.integers(1, 5, size=3))
            w = trace_kernel(d_in, d_out)
            f = seeded_integer_family(rng, d_in, d_out, r)
            ints = integer_operators(f)
            x = _block_vectors(np.stack(ints).astype(np.int64))
            assert not (x @ w).any()
            # entries near 3 * 2^40 take the Python-int path
            huge = [3 * 2**40 * e + 1 for e in ints]
            x = _block_vectors(np.stack(huge))
            assert x.dtype == object
            assert all(v == 0 for v in x @ w)
            g = random_family(rng, d_in, d_out, r)
            x = _block_vectors(np.stack(g.ops))
            assert np.abs(x @ w).max() <= 1e-13 * np.linalg.norm(x)

    def test_exact_span_drops_one_column_numerical_keeps_all(self, rng):
        f = seeded_integer_family(rng, 3, 4, 5)
        full = _block_vectors(np.stack(f.ops))
        assert full.dtype == np.float64
        assert _span(f, exact=True).shape == (25, 3 * 3 + 4 * 4 - 1)
        assert np.array_equal(_span(f, exact=False), full)
        ints = integer_operators(f)
        assert np.array_equal(
            _span(f, exact=True), _block_vectors(np.stack(ints).astype(np.int64))[:, 1:]
        )

    def test_quotient_rank_equals_bareiss_rank_of_full_span(self, rng):
        """Seeded integer families, many with r^2 >= d_in^2 + d_out^2, some with
        a repeated operator, per-operator denominators or Python-int entries.
        A rank of min(r^2, D - 1) is certified by the span's Gram on int64
        entries and mod p on Python ints; any smaller rank is Bareiss's."""
        seen = {"r2>=D": 0, "full at D-1": 0, "bareiss": 0, "python-int": 0}
        for n in range(240):
            d_in, d_out = (int(x) for x in rng.integers(1, 5, size=2))
            r = int(rng.integers(1, 7))
            dens = [int(x) for x in rng.integers(1, 5, size=r)] if n % 3 == 0 else None
            big = 3 * 2**40 if n % 20 == 0 else 1
            f = seeded_integer_family(rng, d_in, d_out, r, repeat=n % 4 == 0, dens=dens, big=big)
            if big > 1:
                assert _span(f, exact=True).dtype == object
                seen["python-int"] += 1
            rr = is_extremal(f).gram_rank
            full = _block_vectors(np.stack(integer_operators(f)))
            assert rr.rank == _bareiss_rank(full.tolist())
            top = min(r * r, d_in * d_in + d_out * d_out - 1)
            assert rr.blocks == 1
            certified = "mod-p" if big > 1 else "cholesky"
            assert rr.engine == (certified if rr.rank == top else "bareiss")
            seen["r2>=D"] += r * r >= d_in * d_in + d_out * d_out
            seen["full at D-1"] += rr.rank == top < r * r
            seen["bareiss"] += rr.engine == "bareiss"
        assert min(seen.values()) >= 10, seen


def densify(m):
    out = np.zeros(m.shape, dtype=m.vals.dtype)
    out[m.rows, m.cols] = m.vals
    return out


def builtin_families():
    return [
        sigma_rank2(),
        ohno_rank4(),
        rank8_66(),
        *(ohno_rank_d(d) for d in (3, 5, 8, 12)),
        rank8k_6k(3),
        rank8k_6k(4),
        *(shift_family(d, m) for d, m in ((2, 1), (3, 2), (4, 4), (7, 10))),
    ]


class TestSparseSpan:
    """_sparse_block_vectors builds the span from the operators' nonzero
    entries; densified, it must be _block_vectors (less column 0 on the exact
    path), exactly for integers and to rounding for floats."""

    @staticmethod
    def check(ops, dtype, first):
        k = np.stack(ops).astype(dtype)
        coo = _sparse_block_vectors(k, first)
        dense = _block_vectors(k)[:, first:]
        assert coo.shape == dense.shape and coo.vals.dtype == dense.dtype
        # distinct keys, no zero value: the nonzero pattern is the dense one
        assert len(set(zip(coo.rows.tolist(), coo.cols.tolist()))) == coo.vals.size
        assert not (coo.vals == 0).any()
        got = densify(coo)
        if dtype in (np.int64, object):
            assert np.array_equal(got, dense)
        else:
            assert np.abs(got - dense).max() <= 1e-13 * np.linalg.norm(dense)
        return dense

    def test_builtin_families(self):
        for f in builtin_families():
            k = np.stack(f.ops)
            self.check(k, k.dtype, 0)
            if f.exact_ops is not None:
                ints = integer_operators(f)
                self.check(ints, np.int64, 1)
                self.check([3 * 2**40 * e for e in ints], object, 1)

    def test_seeded_sparse_families(self, rng):
        """Zero rows and columns, a repeated operator, r = 1, and entries in
        [-2, 2], whose products cancel exactly in some entries."""
        cancelled = 0
        for n in range(50):
            d_in, d_out = (int(x) for x in rng.integers(1, 7, size=2))
            r = 1 if n % 10 == 0 else int(rng.integers(2, 8))
            shape = (r, d_out, d_in)
            mats = rng.integers(-2, 3, size=shape) * (rng.random(shape) < 0.4)
            mats[:, rng.random(d_out) < 0.2, :] = 0
            mats[:, :, rng.random(d_in) < 0.2] = 0
            if n % 4 == 0 and r > 1:
                mats[1] = mats[0]
            ints = list(mats.astype(np.int64))
            dense = self.check(ints, np.int64, 1)
            self.check([3 * 2**40 * np.array(m.tolist(), dtype=object) for m in ints], object, 1)
            self.check(ints, np.int64, 0)
            self.check([m * rng.standard_normal(m.shape) for m in ints], float, 0)
            noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            self.check(list(mats * noise), complex, 0)
            # a nonzero term under an entry that sums to zero is a cancellation
            terms = _block_vectors(np.abs(mats).astype(np.int64))[:, 1:]
            cancelled += int(((terms != 0) & (dense == 0)).sum())
        assert cancelled > 0

    def test_exact_span_ranks_alike_dense_and_sparse(self, rng, monkeypatch):
        """The exact span forced dense and forced to a Coo (where its sides
        allow one) gets the same RankResult: rank, engine, prime and blocks.
        A span whose short side is in [_SPLIT_MIN_SIDE, _WHOLE_MAX_SIDE] is
        never built as a Coo, so its sparse build is ranked directly: rank
        makes it dense."""

        def ranked(f, per_term):
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "_COO_INT_ENTRIES_PER_TERM", per_term)
                sides = (f.r * f.r, f.d_in * f.d_in + f.d_out * f.d_out)
                assert isinstance(_span(f, exact=True), Coo) == (
                    per_term == 0 and min(sides) > linalg._WHOLE_MAX_SIDE
                )
                return is_extremal(f).gram_rank

        def check(f):
            rr = ranked(f, 10**9)
            assert ranked(f, 0) == rr
            if linalg._SPLIT_MIN_SIDE <= min(f.r * f.r, f.d_in**2 + f.d_out**2 - 1):
                assert rank(_sparse_block_vectors(f.integer_ops, 1), mode="exact") == rr

        for d in range(2, 9):
            for m in range(1, 13):
                check(shift_family(d, m))
        # seeded sparse integer families with both sides at least 48, on both
        # sides of the integer crossover that applies above _WHOLE_MAX_SIDE
        sides = set()
        for n in range(24):
            r, d_out, d_in = 7 + n % 2, int(rng.integers(6, 10)), int(rng.integers(4, 7))
            shape = (r, d_out, d_in)
            mats = rng.integers(-2, 3, size=shape) * (rng.random(shape) < (0.08, 0.12, 0.2)[n % 3])
            f = KrausFamily(
                d_in=d_in,
                d_out=d_out,
                ops=tuple(mats.astype(float)),
                exact_ops=tuple(np.array(m.tolist(), dtype=object) for m in mats),
            )
            span_shape = (r * r, d_in * d_in + d_out * d_out)
            sides.add(coo_is_cheaper(span_shape, lambda: _span_terms(mats != 0), np.int64))
            check(f)
        assert sides == {False, True}

    def test_blocks_of_the_sparse_span(self):
        # a repeated operator leaves 25 of the 169 span rows dependent, so
        # the certificate fails there and the SVD decides
        f = ohno_rank_d(12)
        repeated = KrausFamily(d_in=12, d_out=12, ops=np.concatenate([f.ops, f.ops[:1]]))
        cases = (
            (f, 133, 144, "cholesky"),
            (rank8k_6k(4), 156, 1024, "cholesky"),
            (repeated, 133, 144, "svd"),
        )
        for f, blocks, rank_, engine in cases:
            assert isinstance(_span(f, exact=False), Coo)
            rr = is_extremal(f).gram_rank
            assert (rr.blocks, rr.rank, rr.engine) == (blocks, rank_, engine)
            dense = _block_vectors(np.stack(f.ops))
            s, _ = _singular_values(_blocks(dense, symmetric=False), min(dense.shape))
            threshold = max(dense.shape) * np.finfo(float).eps * s[0]
            if engine == "svd":
                assert rr.threshold == pytest.approx(threshold, rel=1e-12)
                assert rr.smallest_kept_singular_value == pytest.approx(s[rank_ - 1], rel=1e-12)
            else:
                # a certified lower bound on sigma_min, clearing tenfold a
                # threshold taken at an upper bound on sigma_max
                assert rr.smallest_kept_singular_value <= s[rank_ - 1]
                assert rr.threshold >= threshold
                assert rr.smallest_kept_singular_value >= 10 * rr.threshold

    def test_exact_sparse_span_keeps_the_certificate(self):
        f = shift_family(7, 10)
        assert isinstance(_span(f, exact=True), Coo)
        rr = is_extremal(f).gram_rank
        assert (rr.rank, rr.engine, rr.blocks) == (289, "cholesky", 91)

    def test_crossover(self):
        # on a side of 48 or more, at least 32 dense entries per summed
        # product of floating-point entries and at least 16 per product of
        # integer ones
        for dtype, per_term in ((float, 32), (complex, 32), (np.int64, 16), (object, 16)):
            assert coo_is_cheaper((48, 64), lambda: 48 * 64 // per_term, dtype)
            assert not coo_is_cheaper((48, 64), lambda: 48 * 64 // per_term + 1, dtype)
            assert not coo_is_cheaper((47, 10**6), lambda: 1, dtype)
        # a span whose short side is at most _WHOLE_MAX_SIDE is built densely,
        # as rank certifies it whole: the exact shift span of paper 4 4
        # (64 x 79), the float spans of rank8-66 (64 x 72) and ohno-d 8
        # (64 x 128, 53 entries per product); above it, the exact spans of
        # paper 5 6 (121 x 145, 20.1) and 6 8 (196 x 231, 27.1) are a Coo and
        # the float span of paper 6 8, under the float crossover of 32, is dense
        assert isinstance(_span(shift_family(4, 4), exact=True), np.ndarray)
        assert isinstance(_span(shift_family(5, 6), exact=True), Coo)
        assert isinstance(_span(shift_family(6, 8), exact=True), Coo)
        assert isinstance(_span(shift_family(6, 8), exact=False), np.ndarray)
        assert isinstance(_span(rank8_66(), exact=False), np.ndarray)
        assert isinstance(_span(ohno_rank_d(8), exact=False), np.ndarray)
        assert isinstance(_span(ohno_rank_d(5), exact=False), np.ndarray)
