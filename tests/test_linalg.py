import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from extremal_marginals import (
    KrausFamily,
    choi,
    direct_sum,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    ohno_rank4,
    ohno_rank_d,
    random_family,
    rank,
    rank8_66,
    rank8k_6k,
    rational_matrix,
    shift_family,
    sigma_rank2,
    vec,
)
from extremal_marginals.extremality import _block_vectors, _span, is_extremal
from extremal_marginals.channels import _vecs
from extremal_marginals.separability import _partial_transposed_choi
from extremal_marginals import linalg
from extremal_marginals.linalg import (
    _CERTIFY_MIN_ENTRIES,
    _SPLIT_MIN_SIDE,
    _WHOLE_MAX_SIDE,
    RANK_PRIME,
    Coo,
    RankResult,
    _bareiss_rank,
    _blocks,
    _certified_full_rank,
    _gram_certifies,
    _integer_matrix,
    _labels,
    _residues,
    _singular_values,
    _stack_ranks_mod_p,
    integer_entries,
)
from conftest import random_density, random_unitary, same_bits


def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v)


class TestPartialTrace:
    def test_product_input_factors(self, rng):
        a = random_density(rng, 3)
        b = random_density(rng, 4)
        m = np.kron(a, b)
        assert np.abs(partial_trace(m, 3, 4, "second") - a).max() <= 1e-12
        assert np.abs(partial_trace(m, 3, 4, "first") - b).max() <= 1e-12

    def test_choi_of_shift_family_reduces_to_uniform(self):
        c = choi(shift_family(2, 1))
        assert np.abs(partial_trace(c, 2, 3, "first") - np.eye(3) / 3).max() <= 1e-12

    def test_choi_of_shift_family_reduces_to_z(self):
        # Z at d=3, p=4/5: diagonal 1/3, off-diagonal (1-p)/d = 1/15.
        from extremal_marginals import apply

        f = shift_family(3, 2)
        c = choi(f)
        z = partial_trace(c, 3, 5, "second")
        expected = np.full((3, 3), 1 / 15) + np.eye(3) * (1 / 3 - 1 / 15)
        assert np.abs(z - expected).max() <= 1e-12
        # brute-force oracle: the (r, s) entry is tr Phi(E_rs)
        brute = np.zeros((3, 3), dtype=complex)
        for r in range(3):
            for s in range(3):
                e = np.zeros((3, 3))
                e[r, s] = 1
                brute[r, s] = np.trace(apply(f, e))
        assert np.abs(z - brute).max() <= 1e-12

    def test_preserves_full_trace(self, rng):
        m = random_density(rng, 6)
        t = np.trace(partial_trace(m, 2, 3, "first"))
        assert abs(t - np.trace(m)) <= 1e-12

    def test_psd_is_preserved(self, rng):
        m = random_density(rng, 8)
        for sub in ("first", "second"):
            w = np.linalg.eigvalsh(partial_trace(m, 2, 4, sub))
            assert w.min() >= -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), 2, 3, "first")
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), 2, 3, "third")


class TestPartialTranspose:
    def test_involution(self, rng):
        m = random_density(rng, 12)
        twice = partial_transpose(partial_transpose(m, 3, 4, "first"), 3, 4, "first")
        assert np.abs(twice - m).max() <= 1e-12

    def test_bell_state_eigenvalues(self):
        pt = partial_transpose(bell_state(), 2, 2, "first")
        w = np.sort(np.linalg.eigvalsh(pt))
        assert np.abs(w - np.array([-0.5, 0.5, 0.5, 0.5])).max() <= 1e-12

    def test_shift_family_choi_pt_is_psd(self):
        from extremal_marginals import closed_form_choi_pt

        c = choi(shift_family(2, 1))
        pt = partial_transpose(c, 2, 3, "first")
        assert min_eigenvalue(pt) >= -1e-12
        assert np.abs(pt - closed_form_choi_pt(2, 1)).max() <= 1e-12

    def test_trace_preserving_and_hermiticity(self, rng):
        m = random_density(rng, 6)
        pt = partial_transpose(m, 2, 3, "second")
        assert abs(np.trace(pt) - np.trace(m)) <= 1e-12
        assert np.abs(pt - pt.conj().T).max() <= 1e-12

    def test_commutes_with_dagger(self, rng):
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        lhs = partial_transpose(z, 2, 3, "first").conj().T
        rhs = partial_transpose(z.conj().T, 2, 3, "first")
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestRank:
    def test_identity(self):
        assert rank(np.eye(9)).rank == 9
        assert rank(np.eye(9).astype(int), mode="exact").rank == 9

    def test_rank_deficient_numerical_gap_data(self, rng):
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
        rr = rank(a)
        assert rr.rank == 3
        assert rr.smallest_kept_singular_value > rr.threshold
        assert rr.largest_discarded_singular_value <= rr.threshold

    def test_exact_mode_rejects_floats(self):
        with pytest.raises(ValueError):
            rank(np.eye(2) * 0.5, mode="exact")

    def test_exact_fraction_entries(self):
        m = rational_matrix([["1/2", "1/3"], ["1/4", "1/6"]])
        assert rank(m, mode="exact").rank == 1
        m2 = rational_matrix([["1/2", "1/3"], ["1/4", "1/5"]])
        assert rank(m2, mode="exact").rank == 2

    def test_exact_invariant_under_permutation_and_scaling(self, rng):
        base = rng.integers(-5, 6, size=(7, 7))
        base[3] = base[1] + 2 * base[2]
        r0 = rank(base, mode="exact").rank
        perm = rng.permutation(7)
        assert rank(base[perm][:, perm], mode="exact").rank == r0
        scaled = base.copy().astype(object)
        scaled[0] = [7 * x for x in scaled[0]]
        assert rank(scaled, mode="exact").rank == r0

    def test_numerical_matches_exact_on_random_rationals(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, n + 1))
            left = rng.integers(-6, 7, size=(n, k))
            right = rng.integers(-6, 7, size=(k, n))
            m = left @ right
            assert rank(m, mode="exact").rank == rank(m.astype(float)).rank

    def test_tol_override(self):
        m = np.diag([1.0, 1e-6])
        assert rank(m).rank == 2
        assert rank(m, tol=1e-3).rank == 1
        assert rank(m, tol=0.0).rank == 2

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-3])
    @pytest.mark.parametrize("mode", ["numerical", "exact"])
    def test_bad_tol_raises(self, tol, mode):
        with pytest.raises(ValueError, match="tol"):
            rank(np.eye(2, dtype=int), mode=mode, tol=tol)

    def test_exact_agrees_with_plain_fraction_elimination(self, rng):
        def fraction_elimination_rank(mat):
            rows = [[Fraction(int(x)) for x in row] for row in mat]
            r = 0
            for col in range(len(rows[0])):
                piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
                if piv is None:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                for i in range(r + 1, len(rows)):
                    factor = rows[i][col] / rows[r][col]
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
                r += 1
            return r

        zero_col = np.array([[1, 0, 2], [3, 0, 6], [5, 0, 7]])
        big = rng.integers(-(10**9), 10**9, size=(6, 4)) @ rng.integers(
            -(10**9), 10**9, size=(4, 6)
        )
        repeated = np.vstack([zero_col, zero_col, [[0, 0, 0]]])
        for m in (zero_col, big, repeated, np.zeros((3, 5), dtype=int)):
            assert rank(m, mode="exact").rank == fraction_elimination_rank(m)


class TestExactRankEngine:
    def test_singular_mod_p_falls_back_to_bareiss(self):
        rr = rank(np.diag([1, RANK_PRIME]), mode="exact")
        assert rr.rank == 2
        assert rr.engine == "bareiss"
        assert rr.prime is None

    def test_full_rank_mod_p_is_the_certificate(self):
        # (2^31)^2 * 2 is past the 2^53 Gram bound, so no Cholesky is tried
        rr = rank(np.diag([1, RANK_PRIME + 1]), mode="exact")
        assert (rr.rank, rr.engine, rr.prime) == (2, "mod-p", RANK_PRIME)
        assert rr.to_json()["engine"] == "mod-p"
        assert rr.to_json()["prime"] == RANK_PRIME

    @pytest.mark.parametrize("deficient", [False, True])
    def test_large_entries_take_the_python_int_path(self, rng, deficient):
        # (3 * 2^40)^2 * 3 exceeds 2^62, so the block vectors cannot be int64.
        mats = [3 * 2**40 + rng.integers(-9, 10, size=(3, 2)) for _ in range(3)]
        if deficient:
            mats[2] = mats[0] + mats[1]
        exact = tuple(np.array(m.tolist(), dtype=object) for m in mats)
        f = KrausFamily(d_in=2, d_out=3, ops=tuple(m.astype(float) for m in mats), exact_ops=exact)
        span = _span(f, exact=True)
        assert span.dtype == object
        rr = is_extremal(f).gram_rank
        assert rr.rank == _bareiss_rank(span.tolist())
        # a Python-int stack skips the Gram certificate
        assert rr.engine == ("bareiss" if deficient else "mod-p")

    def test_agrees_with_bareiss_on_seeded_integers(self, rng):
        for _ in range(200):
            rows, cols = (int(x) for x in rng.integers(1, 15, size=2))
            k = int(rng.integers(0, min(rows, cols) + 1))
            m = rng.integers(-4, 5, size=(rows, k)) @ rng.integers(-4, 5, size=(k, cols))
            if rng.random() < 0.2:
                m[int(rng.integers(rows))] *= RANK_PRIME
            rr = rank(m, mode="exact")
            assert rr.rank == _bareiss_rank(m.tolist())
            # a zero matrix (k = 0) has no block and runs no engine
            if rr.rank < min(rows, cols):
                assert rr.engine == ("bareiss" if m.any() else "cholesky")


def planted_stack(rng, k, p, q):
    """k integer p x q blocks with planted ranks from 0 to min(p, q)."""
    ranks = rng.integers(0, min(p, q) + 1, size=k)
    return np.stack(
        [rng.integers(-3, 4, size=(p, int(r))) @ rng.integers(-3, 4, size=(int(r), q)) for r in ranks]
    )


class TestStackedEliminationModP:
    """One inverse-free elimination ranks every block of a (k, p, q) stack;
    each block's rank must be the one Bareiss gives it alone."""

    @pytest.mark.parametrize("orientation", ["wide", "tall", "square"])
    def test_matches_bareiss_block_by_block(self, rng, orientation):
        for k in range(1, 21):
            a, b = sorted(int(x) for x in rng.integers(1, 13, size=2))
            p, q = {"wide": (a, b + 1), "tall": (b + 1, a), "square": (b, b)}[orientation]
            stack = planted_stack(rng, k, p, q)
            stack[int(rng.integers(k))] = 0
            got = _stack_ranks_mod_p(stack % RANK_PRIME)
            assert got.tolist() == [_bareiss_rank(b.tolist()) for b in stack]

    @pytest.mark.parametrize("orientation", ["wide", "tall", "square"])
    def test_ranks_are_invariant_under_column_permutation(self, rng, orientation):
        # the kernel drops zero columns and reorders the rest by fill, so
        # any given column order, zero columns included, gives the same ranks
        for k in range(1, 21):
            a, b = sorted(int(x) for x in rng.integers(1, 13, size=2))
            p, q = {"wide": (a, b + 1), "tall": (b + 1, a), "square": (b, b)}[orientation]
            stack = planted_stack(rng, k, p, q)
            stack[:, :, rng.random(q) < 0.3] = 0
            want = [_bareiss_rank(b.tolist()) for b in stack]
            for seed in range(5):
                perm = np.random.default_rng(seed).permutation(q)
                got = _stack_ranks_mod_p(stack[:, :, perm] % RANK_PRIME)
                assert got.tolist() == want
            assert _stack_ranks_mod_p(np.zeros_like(stack)).tolist() == [0] * k

    def test_deficient_only_mod_p_goes_to_bareiss(self, rng):
        # five full-rank 6 x 9 blocks on the diagonal are one stack of k = 5
        stack = np.stack([planted_stack(rng, 1, 6, 9)[0] for _ in range(5)])
        stack[2] = rng.integers(-3, 4, size=(6, 6)) @ rng.integers(-3, 4, size=(6, 9))
        full = [_bareiss_rank(b.tolist()) for b in stack]
        stack[2, 0] *= RANK_PRIME
        assert _stack_ranks_mod_p(stack % RANK_PRIME)[2] == full[2] - 1
        m = np.zeros((30 + _SPLIT_MIN_SIDE, 45 + _SPLIT_MIN_SIDE), dtype=np.int64)
        for i, b in enumerate(stack):
            m[6 * i : 6 * i + 6, 9 * i : 9 * i + 9] = b
        rr = rank(m, mode="exact")
        assert (rr.rank, rr.engine, rr.prime, rr.blocks) == (sum(full), "bareiss", None, 5)

    @pytest.mark.parametrize("orientation", ["wide", "tall", "square"])
    def test_single_block_matches_bareiss(self, rng, orientation):
        # a stack of one block takes its own in-place elimination
        for _ in range(60):
            a, b = sorted(int(x) for x in rng.integers(1, 16, size=2))
            p, q = {"wide": (a, b + 1), "tall": (b + 1, a), "square": (b, b)}[orientation]
            block = planted_stack(rng, 1, p, q)
            block[:, :, rng.random(q) < 0.2] = 0
            assert _stack_ranks_mod_p(block % RANK_PRIME).tolist() == [_bareiss_rank(block[0].tolist())]

    def test_single_block_stops_at_full_row_rank(self, rng):
        # every row a pivot before the last column: the rank is the row count
        for p in range(1, 12):
            q = p + int(rng.integers(1, 8))
            block = np.hstack([np.eye(p, dtype=np.int64), rng.integers(-3, 4, size=(p, q - p))])
            block = block[rng.permutation(p)][:, rng.permutation(q)]
            assert _stack_ranks_mod_p(block[None] % RANK_PRIME).tolist() == [p]
        assert _stack_ranks_mod_p(np.zeros((1, 4, 6), dtype=np.int64)).tolist() == [0]

    def test_single_block_agrees_with_its_stack(self, rng):
        for k in range(2, 12):
            stack = planted_stack(rng, k, 6, 9) % RANK_PRIME
            alone = [int(_stack_ranks_mod_p(b[None])[0]) for b in stack]
            assert _stack_ranks_mod_p(stack).tolist() == alone

    def test_python_ints_beyond_int64_agree_with_bareiss(self, rng):
        for _ in range(10):
            m = planted_stack(rng, 1, 7, 9)[0].astype(object)
            m[int(rng.integers(7))] *= 2**64 + 13
            m[0, 0] += 2**63
            assert _integer_matrix(m).dtype == object
            assert rank(m, mode="exact").rank == _bareiss_rank(m.tolist())

    def test_integer_entries_convert_once(self):
        small = np.array([1, -2, 2**62], dtype=object)
        assert integer_entries(small).dtype == np.int64
        assert integer_entries(iter([1, Fraction(1, 2)])).tolist() == [2, 1]
        big = integer_entries([Fraction(2**63, 3), 1])
        assert big.dtype == object and big.tolist() == [2**63, 3]
        assert all(type(x) is int for x in big)
        with pytest.raises(ValueError):
            integer_entries([1, 0.5])

    def test_integer_arrays_pass_straight_through(self):
        a = np.arange(-6, 6, dtype=np.int64).reshape(3, 4)
        out = integer_entries(a)
        # int64 in, a view of it out: no step through Python objects
        assert out.dtype == np.int64 and np.shares_memory(out, a)
        assert out.tolist() == a.ravel().tolist()
        assert integer_entries(np.array([3, 250], dtype=np.uint8)).dtype == np.int64
        huge = integer_entries(np.array([2**64 - 1, 1], dtype=np.uint64))
        assert huge.dtype == object and huge.tolist() == [2**64 - 1, 1]
        coo = Coo(np.array([0, 1]), np.array([1, 0]), np.array([5, -7], dtype=np.int64), (2, 2))
        assert np.shares_memory(_integer_matrix(coo).vals, coo.vals)
        assert np.shares_memory(_integer_matrix(a), a)


class TestResidues:
    """Exact rank reduces a stack mod RANK_PRIME only when its entries are not
    already residues, and Bareiss always sees the integer block."""

    def test_in_range_int64_stacks_are_not_reduced(self, rng):
        stack = rng.integers(0, RANK_PRIME, size=(3, 4, 5))
        assert _residues(stack) is stack
        empty = np.zeros((1, 0, 3), dtype=np.int64)
        assert _residues(empty) is empty

    def test_other_stacks_are_reduced(self, rng):
        stack = rng.integers(0, RANK_PRIME, size=(3, 4, 5))
        negative, above = stack.copy(), stack.copy()
        negative[1, 2, 3] = -1
        above[0, 0, 0] = RANK_PRIME + 5
        for s in (negative, above, stack.astype(object), stack.astype(np.int32) % 1000):
            got = _residues(s)
            assert got is not s and got.dtype == np.int64
            assert np.array_equal(got, np.asarray(s % RANK_PRIME, dtype=np.int64))
        assert _residues(negative)[1, 2, 3] == RANK_PRIME - 1
        assert _residues(above)[0, 0, 0] == 5

    def test_deficient_mod_p_only_still_goes_to_bareiss(self, rng):
        # det = 2^27 * 16 - 1 = RANK_PRIME, from residues that need no
        # reduction; (2^27)^2 * 2 is past the Gram bound, so no Cholesky is tried
        in_range = np.array([[2**27, 1], [1, 16]], dtype=np.int64)
        assert _stack_ranks_mod_p(in_range[None]).tolist() == [1]
        # a row times the prime: entries above it, so the stack is reduced,
        # and Bareiss must get the integer block, not its residues
        above = np.eye(5, 7, dtype=np.int64) + np.triu(rng.integers(0, 3, size=(5, 7)), 1)
        above[0] *= RANK_PRIME
        assert _bareiss_rank(above.tolist()) == 5
        # det = a + q * 2^20 = RANK_PRIME: the third row lies within
        # RANK_PRIME / 2^40 < 2^-9 of the plane of the first two, so the Gram is
        # exact but below the shift, and the Cholesky cannot certify it
        q, a = divmod(RANK_PRIME, 2**20)
        below = np.array([[2**20, 1, 0], [0, 2**20, 1], [a, -q, 0]], dtype=np.int64)
        assert not _gram_certifies([below[None]])[0]
        assert _stack_ranks_mod_p(_residues(below[None])).tolist() == [2]
        for m in (in_range, above, below):
            rr = rank(m, mode="exact")
            assert (rr.rank, rr.engine, rr.prime) == (min(m.shape), "bareiss", None)
        # all three as blocks of a matrix above the split side
        m = np.zeros((_SPLIT_MIN_SIDE, _SPLIT_MIN_SIDE), dtype=np.int64)
        m[:2, :2] = in_range
        m[2:7, 2:9] = above
        m[7:10, 9:12] = below
        rr = rank(m, mode="exact")
        assert (rr.rank, rr.engine, rr.prime, rr.blocks) == (10, "bareiss", None, 3)

    def test_exact_rank_never_writes_to_its_input(self, rng):
        planted, _ = planted_block_diagonal(rng, [(5, 7), (9, 4), (6, 6)], [5, 3, 6])
        inputs = [
            # in range and under the split side: _blocks passes on a view
            rng.integers(0, 4, size=(6, 9)),
            # in range, above the split side, no zero entry: a view as well
            rng.integers(1, 5, size=(_SPLIT_MIN_SIDE, _SPLIT_MIN_SIDE + 3)),
            np.abs(planted),
            planted,
            planted * RANK_PRIME,
            planted.astype(object),
            np.array([[1, Fraction(1, 2)], [Fraction(3, 4), 2]], dtype=object),
        ]
        for m in inputs:
            before = m.copy()
            m.setflags(write=False)
            rank(m, mode="exact")
            assert np.array_equal(m, before)
        vals = np.array([3, 4, 5], dtype=np.int64)
        vals.setflags(write=False)
        coo = Coo(np.array([0, 1, 60]), np.array([1, 0, 2]), vals, (_SPLIT_MIN_SIDE + 20, 50))
        assert rank(coo, mode="exact").rank == 3
        assert vals.tolist() == [3, 4, 5]


BUILT_INS = [
    sigma_rank2(),
    ohno_rank4(),
    rank8_66(),
    *(ohno_rank_d(d) for d in (3, 5, 8, 12)),
    rank8k_6k(3),
    rank8k_6k(4),
    shift_family(3, 2),
    shift_family(7, 10),
]


def exact_block_diagonal(blocks, zero_rows=0, zero_cols=0):
    """The direct sum of integer (or float) blocks plus zero rows and
    columns, enough of them that the matrix is not under the split crossover."""
    n_rows = max(sum(b.shape[0] for b in blocks) + zero_rows, _SPLIT_MIN_SIDE)
    n_cols = max(sum(b.shape[1] for b in blocks) + zero_cols, _SPLIT_MIN_SIDE)
    m = np.zeros((n_rows, n_cols), dtype=np.result_type(*{b.dtype for b in blocks}))
    r0 = c0 = 0
    for b in blocks:
        m[r0 : r0 + b.shape[0], c0 : c0 + b.shape[1]] = b
        r0, c0 = r0 + b.shape[0], c0 + b.shape[1]
    return m


def planted_float_stack(rng, k, p, q, factor, complex_entries):
    """k random p x q blocks whose sigma_min^2 is ``factor`` times the float
    certificate's shift 4(n + m + 4) u tr G, n = min(p, q) >= 2, m = max(p,
    q); the other singular values lie in [1, 2]."""
    n, m = min(p, q), max(p, q)
    c = 4 * (n + m + 4) * 2.0**-53
    blocks = []
    for _ in range(k):
        sv = 1 + rng.random(n)
        rest = float((sv[:-1] ** 2).sum())
        # sigma_min^2 = factor * c * (rest + sigma_min^2)
        sv[-1] = math.sqrt(factor * c * rest / (1 - factor * c))
        u, v = random_unitary(rng, p)[:, :n], random_unitary(rng, q)[:, :n]
        if not complex_entries:
            u, v = np.linalg.qr(u.real)[0], np.linalg.qr(v.real)[0]
        blocks.append((u * sv) @ v.conj().T)
    return np.array(blocks)


def assert_grouped_as_alone(stacks):
    """_gram_certifies over the stacks of one matrix at once gives each stack
    what it gets alone, bound and trace bit for bit, except that a stack
    fails with any stack of its short side that fails alone after being
    tried (an int64 stack past the 2^53 bound is not tried). Returns the
    number of stacks that failed with another."""
    alone = [_gram_certifies([s])[0] for s in stacks]
    tried = [
        s.dtype.kind in "fc" or int(np.abs(s).max(initial=0)) ** 2 * max(s.shape[1:]) < 2**53
        for s in stacks
    ]
    failed = {min(s.shape[1:]) for s, a, t in zip(stacks, alone, tried) if a is None and t}
    dragged = 0
    for s, a, got in zip(stacks, alone, _gram_certifies(stacks)):
        if min(s.shape[1:]) in failed:
            assert got is None
            dragged += a is not None
        elif a is None:
            assert got is None
        else:
            assert same_bits(got[0], a[0]) and same_bits(got[1], a[1])
    return dragged


class TestGramCertificate:
    """A completed Cholesky factorisation of each block's Gram, less the
    shift, certifies full rank: before any elimination runs in exact mode,
    and before any SVD in numerical mode. The certificate is one-sided: it
    may pass a full-rank stack on, but it never certifies a deficient one,
    and the bound it returns never exceeds sigma_min^2."""

    def test_never_certifies_a_deficient_stack(self, rng):
        near_bound = 0
        seen = []
        for n in range(400):
            k = int(rng.integers(1, 5))
            p, q = (int(x) for x in rng.integers(1, 13, size=2))
            # deficient by one in every other stack
            inner = min(p, q) - 1 if n % 2 else int(rng.integers(0, min(p, q)))
            stack = rng.integers(-(2**10), 2**10 + 1, size=(k, p, inner)) @ rng.integers(
                -(2**10), 2**10 + 1, size=(k, inner, q)
            )
            if n % 4 == 1 and k > 1:
                # the other blocks of the stack may well have full rank
                stack[1:] = rng.integers(-(2**10), 2**10 + 1, size=(k - 1, p, q))
            top = int(np.abs(stack).max())
            if n % 3 == 0 and top:
                # scaled to just under the bound, so the Gram stays exact
                stack *= math.isqrt((2**53 - 1) // max(p, q)) // top
                top = int(np.abs(stack).max())
                near_bound += top * top * max(p, q) > 2**51
            assert top * top * max(p, q) < 2**53
            assert not _gram_certifies([stack])[0]
            assert _bareiss_rank(stack[0].tolist()) < min(p, q)
            seen.append(stack)
        assert near_bound >= 100
        # nor all of them at once, as the stacks of one matrix
        assert _gram_certifies(seen) == [None] * len(seen)

    def test_rank_agrees_with_bareiss(self, rng):
        engines = set()
        seen = []
        for n in range(120):
            k = int(rng.integers(1, 4))
            p, q = (int(x) for x in rng.integers(1, 10, size=2))
            stack = rng.integers(-3, 4, size=(k, p, q))
            if n % 3 == 1:
                r = int(rng.integers(0, min(p, q)))
                stack[0] = rng.integers(-3, 4, size=(p, r)) @ rng.integers(-3, 4, size=(r, q))
            elif n % 3 == 2:
                # past the Gram bound, and a row that is zero mod p or the same
                stack[0, 0] *= RANK_PRIME + n % 2
            want = [_bareiss_rank(b.tolist()) for b in stack]
            for b, w in zip(stack, want):
                rr = rank(b, mode="exact")
                assert rr.rank == w
                engines.add(rr.engine)
            rr = rank(exact_block_diagonal(list(stack)), mode="exact")
            assert rr.rank == sum(want)
            seen.append(stack)
        assert engines == {"cholesky", "mod-p", "bareiss"}
        assert assert_grouped_as_alone(seen) > 0

    def test_below_the_shift_falls_back_to_mod_p(self):
        m_ = 10**4
        # det = -1 and sigma_min^2 ~ 1 / (4 M^2) = 2.5e-9, under the shift
        # 4 * 4 * 2^-53 * tr G ~ 7e-7
        close = np.array([[m_, m_ + 1], [m_ + 1, m_ + 2]], dtype=np.int64)
        assert not _gram_certifies([close[None]])[0]
        rr = rank(close, mode="exact")
        assert (rr.rank, rr.engine, rr.prime) == (2, "mod-p", RANK_PRIME)
        # over a matrix's blocks the engine is the strongest any block needed:
        # bareiss > mod-p > cholesky
        tri = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=np.int64)
        rr = rank(exact_block_diagonal([tri] * 4), mode="exact")
        assert (rr.rank, rr.engine, rr.prime, rr.blocks) == (12, "cholesky", None, 4)
        rr = rank(exact_block_diagonal([tri] * 4 + [close]), mode="exact")
        assert (rr.rank, rr.engine, rr.prime, rr.blocks) == (14, "mod-p", RANK_PRIME, 5)
        singular = np.array([[2**27, 1], [1, 16]], dtype=np.int64)  # det = RANK_PRIME
        rr = rank(exact_block_diagonal([close, tri, singular]), mode="exact")
        assert (rr.rank, rr.engine, rr.prime, rr.blocks) == (7, "bareiss", None, 3)

    def test_entries_past_the_bound_skip_the_cholesky(self):
        # t^2 * 2 < 2^53 exactly when t < 2^26; the identity times t is as well
        # conditioned as a matrix can be, so only the bound can refuse it
        for t, engine in ((2**26 - 1, "cholesky"), (2**26, "mod-p"), (-(2**26), "mod-p")):
            m = t * np.eye(2, dtype=np.int64)
            assert (_gram_certifies([m[None]])[0] is not None) == (engine == "cholesky")
            rr = rank(m, mode="exact")
            assert (rr.rank, rr.engine) == (2, engine)
        # Python ints are never tried, whatever their size
        assert not _gram_certifies([np.eye(3, dtype=np.int64).astype(object)[None]])[0]
        assert _gram_certifies([np.eye(3, dtype=np.int64)[None]])[0]
        # a stack past the bound is not tried, so it fails no stack of its side
        eyes = [t * np.eye(2, dtype=np.int64)[None] for t in (2**26, 2**26 - 1, -(2**26))]
        assert assert_grouped_as_alone(eyes) == 0
        assert [c is not None for c in _gram_certifies(eyes)] == [False, True, False]

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_float_stacks_are_certified_above_the_shift_only(self, rng, complex_entries):
        """sigma_min^2 at 0.9 times the shift is never certified and at 1.1
        times it always is; a certified bound is at most the SVD's
        sigma_min^2, and scaling a stack by 2^k, |k| <= 200, scales the
        bound by 4^k and keeps the outcome."""
        aboves, belows = [], []
        for n in range(60):
            k = int(rng.integers(1, 4))
            p, q = (int(x) for x in rng.integers(2, 40, size=2))
            below = planted_float_stack(rng, k, p, q, 0.9, complex_entries)
            above = planted_float_stack(rng, k, p, q, 1.1, complex_entries)
            # one block below the shift fails its whole stack
            mixed = above.copy()
            mixed[-1] = below[-1]
            bound, trace = _gram_certifies([above])[0]
            assert bound.shape == trace.shape == (k,)
            s = np.linalg.svd(above, compute_uv=False)
            assert (bound <= s[:, -1] ** 2).all()
            assert np.allclose(trace, (s**2).sum(axis=1), rtol=1e-13)
            for j in (-200, -97, 0, 61, 200):
                scale = 2.0**j
                assert _gram_certifies([below * scale])[0] is None
                assert _gram_certifies([mixed * scale])[0] is None
                scaled = _gram_certifies([above * scale])[0]
                assert np.array_equal(scaled[0], bound * scale**2)
                assert np.array_equal(scaled[1], trace * scale**2)
            aboves.append(above)
            belows.append(below)
        # as the stacks of one matrix: every stack above the shift is certified
        # as it is alone, and one below it fails every stack of its short side
        assert assert_grouped_as_alone(aboves) == 0
        assert assert_grouped_as_alone(aboves + belows[:5]) > 0

    def test_gram_overflow_and_underflow_are_never_certified(self, rng):
        """Inside [2^-400, 2^400] every product of two real or imaginary
        parts is a normal number; outside it np.linalg.cholesky would return
        inf or NaN factors of an overflowed Gram without raising, so the
        stack is not tried, and numerical rank takes the SVD."""
        base = planted_float_stack(rng, 3, 20, 30, 10.0, True)
        assert _gram_certifies([base])[0] is not None
        assert _gram_certifies([base.real.copy()])[0] is not None
        for stack in (base, base.real.copy()):
            for j in (520, -520):
                assert _gram_certifies([stack * 2.0**j])[0] is None
            huge, tiny = stack.copy(), stack.copy()
            huge[0, 0, 0] = 2.0**450
            tiny[0, 0, 0] = 2.0**-450
            for bad in (huge, tiny, stack * np.nan, stack * np.inf):
                assert _gram_certifies([bad])[0] is None
        tiny = base.copy()
        tiny[1, 2, 3] = tiny[1, 2, 3].real + 2.0**-450 * 1j  # a tiny imaginary part
        assert _gram_certifies([tiny])[0] is None
        # the range check covers every stack of the matrix, the last as the first
        other = planted_float_stack(rng, 2, 5, 7, 10.0, True)
        assert None not in _gram_certifies([base, other])
        for bad in (tiny, other * 2.0**520):
            assert _gram_certifies([base, other, bad]) == [None] * 3
            assert _gram_certifies([bad, base]) == [None] * 2
        a = rng.standard_normal((64, 72))
        for j in (0, 520, -520):
            rr = rank(a * 2.0**j)
            assert (rr.rank, rr.engine) == (64, "svd" if j else "cholesky")

    def test_tol_near_sigma_min_takes_the_svd(self):
        """A certified bound is far below sigma_min, so a caller's tol just
        under sigma_min is not cleared tenfold: the SVD decides, with the
        fields it gives when no certificate runs."""
        span = _span(rank8_66(), exact=False)
        certified = rank(span)
        assert certified.engine == "cholesky"
        s, blocks = _singular_values(_blocks(span, symmetric=False), min(span.shape))
        for tol in (0.99 * s[-1], 0.9 * s[-1], 10 * certified.smallest_kept_singular_value):
            rr = rank(span, tol=tol)
            kept = s[s > tol]
            assert rr == RankResult(
                rank=kept.size,
                mode="numerical",
                engine="svd",
                smallest_kept_singular_value=float(kept[-1]),
                threshold=tol,
                blocks=blocks,
            )
        # a tol the bound clears tenfold keeps the certificate
        tol = certified.smallest_kept_singular_value / 10
        rr = rank(span, tol=tol)
        assert (rr.rank, rr.engine, rr.threshold) == (64, "cholesky", tol)
        assert rr.smallest_kept_singular_value == certified.smallest_kept_singular_value

    def test_crossover(self, rng):
        """Only a float matrix of at least _CERTIFY_MIN_ENTRIES entries is
        offered to the certificate."""
        assert 36 * 32 < 63 * 65 < _CERTIFY_MIN_ENTRIES <= 64 * 64 < 64 * 72
        # the largest Gaussian span of the random families: rank 31 at most
        span = _span(random_family(rng, 4, 4, 6), exact=False)
        assert span.shape == (36, 32)
        assert rank(span).engine == "svd"
        # a full-rank 36 x 32 matrix the certificate would pass still takes the SVD
        a = rng.standard_normal((36, 32))
        assert _gram_certifies([a[None]])[0] is not None
        assert (rank(a).rank, rank(a).engine) == (32, "svd")
        for shape, engine in (((63, 65), "svd"), ((64, 64), "cholesky")):
            assert rank(rng.standard_normal(shape)).engine == engine
        span = _span(rank8_66(), exact=False)
        assert span.shape == (64, 72)
        assert (rank(span).rank, rank(span).engine) == (64, "cholesky")


class TestGroupedCertificate:
    """_gram_certifies works once per matrix: one range check over all its
    float stacks, and one Cholesky call per short side n over the shifted
    Grams of every stack with that n."""

    def test_stacks_of_one_side_fail_together(self, rng):
        # positive entries: no block falls apart into smaller components
        full3 = rng.integers(1, 4, size=(4, 3, 5))
        deficient3 = rng.integers(1, 4, size=(2, 6, 2)) @ rng.integers(1, 4, size=(2, 2, 3))
        full4 = rng.integers(1, 4, size=(3, 4, 4))
        full4[:, range(4), range(4)] += 20  # diagonally dominant, so of full rank
        alone = [_gram_certifies([s])[0] for s in (full3, deficient3, full4)]
        assert [a is not None for a in alone] == [True, False, True]
        for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            stacks = [(full3, deficient3, full4)[i] for i in order]
            got = dict(zip(order, _gram_certifies(stacks)))
            assert got[0] is None and got[1] is None
            assert same_bits(got[2][0], alone[2][0]) and same_bits(got[2][1], alone[2][1])
        # exact rank: both stacks of side 3 go on to mod p, and deficient3
        # to Bareiss; the rank, engine and prime are those of the stacks
        # certified one by one (full3 by Cholesky, deficient3 by Bareiss)
        blocks = [*full3, *deficient3, *full4]
        rr = rank(exact_block_diagonal(blocks), mode="exact")
        want = sum(_bareiss_rank(b.tolist()) for b in blocks)
        assert want == 4 * 3 + 2 * 2 + 3 * 4
        assert (rr.rank, rr.engine, rr.prime, rr.blocks) == (want, "bareiss", None, 9)

    def test_a_stack_below_the_shift_takes_its_side_to_mod_p(self, rng):
        # close: det = -1, full rank but below the shift; wide: 2 x 3 blocks
        # the Cholesky certifies alone. Both go to mod p, where both have
        # full rank, so the engine is mod-p, as with one call per stack.
        m_ = 10**4
        close = np.array([[m_, m_ + 1], [m_ + 1, m_ + 2]], dtype=np.int64)
        wide = rng.integers(1, 4, size=(3, 2, 3))
        wide[:, :, 0] += 10
        assert _gram_certifies([wide])[0] is not None
        assert _gram_certifies([wide, close[None]]) == [None, None]
        rr = rank(exact_block_diagonal([close, *wide]), mode="exact")
        assert (rr.rank, rr.engine, rr.prime, rr.blocks) == (8, "mod-p", RANK_PRIME, 4)
        # a stack of another side is certified still
        tri = np.array([[2, 1, 0], [1, 2, 1], [0, 1, 2]], dtype=np.int64)
        got = _gram_certifies([wide, tri[None], close[None]])
        assert [c is not None for c in got] == [False, True, False]

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_numerical_rank_of_one_matrix(self, rng, complex_entries):
        """A float matrix whose stacks of one side all clear the shift is
        certified with the bound and threshold the stacks give one by one;
        one stack below the shift sends the whole matrix to the SVD."""
        shapes = ((3, 6, 9), (2, 9, 6), (4, 6, 6), (2, 5, 5))
        above = [planted_float_stack(rng, k, p, q, 30.0, complex_entries) for k, p, q in shapes]
        below = planted_float_stack(rng, 2, 6, 11, 0.9, complex_entries)
        for stacks, engine in ((above, "cholesky"), (above + [below], "svd")):
            m = exact_block_diagonal([b for s in stacks for b in s])
            assert m.size >= _CERTIFY_MIN_ENTRIES
            rr = rank(m)
            assert rr.engine == engine
            assert rr.rank == sum(s.shape[0] * min(s.shape[1:]) for s in stacks)
        # three stacks of side 6 in one call give the bound and threshold
        # that the stacks give one by one
        m = exact_block_diagonal([b for s in above for b in s])
        stacks = _blocks(m, symmetric=False)
        assert sorted(min(s.shape[1:]) for s in stacks) == [5, 6, 6, 6]
        alone = [_gram_certifies([s])[0] for s in stacks]
        assert None not in alone
        rr = rank(m)
        assert rr.smallest_kept_singular_value == math.sqrt(min(float(a[0].min()) for a in alone))
        largest = max(float(a[1].max()) for a in alone)
        assert rr.threshold == max(m.shape) * float(np.finfo(float).eps) * math.sqrt(largest)


@pytest.mark.parametrize("f", BUILT_INS, ids=lambda f: f"{f.d_in}x{f.d_out}-r{f.r}")
def test_short_side_svd_keeps_the_singular_values(f):
    """The SVD runs on the tall orientation of each stack; a matrix and its
    transpose share their singular values."""
    for m in (_span(f, exact=False), _vecs(f.ops)):
        stacks = _blocks(m, symmetric=False)
        upright = np.sort(np.concatenate([np.linalg.svd(s, compute_uv=False).ravel() for s in stacks]))
        s, _ = _singular_values(stacks, min(m.shape))
        assert np.abs(s[: upright.size] - upright[::-1]).max() <= 1e-13 * upright[-1]
        assert not s[upright.size :].any()


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(3)) == pytest.approx(1.0, abs=1e-14)

    def test_bell_partial_transpose(self):
        pt = partial_transpose(bell_state(), 2, 2, "first")
        assert min_eigenvalue(pt) == pytest.approx(-0.5, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_the_empty_matrix(self):
        empty = np.zeros(0, dtype=np.int64)
        for m in (np.zeros((0, 0)), Coo(empty, empty, np.zeros(0), (0, 0))):
            with pytest.raises(ValueError, match="empty"):
                min_eigenvalue(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("side", [2, _SPLIT_MIN_SIDE + 4])
    def test_rejects_non_finite(self, bad, side):
        # a NaN deviation compares False against atol, so it must be caught first
        a = np.eye(side, dtype=complex)
        a[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            min_eigenvalue(a)
        with pytest.raises(ValueError, match="finite"):
            min_eigenvalue(np.full((side, side), bad))

    def test_rejects_one_sided_entry_above_the_crossover(self):
        # a_ij != 0 with a_ji = 0 joins i and j into one block, whose check sees it
        side = _SPLIT_MIN_SIDE + 12
        a = np.diag(np.arange(1.0, side + 1))
        a[3, side - 5] = 1e-6
        with pytest.raises(ValueError, match="not Hermitian"):
            min_eigenvalue(a)
        a[side - 5, 3] = 1e-6
        assert min_eigenvalue(a) == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-14)

    def test_rank8k_4_partial_transpose_matches_dense(self):
        f = rank8k_6k(4)
        pt = partial_transpose(choi(f), f.d_in, f.d_out, "first")
        assert pt.shape == (576, 576)
        dense = np.linalg.eigvalsh(pt)[0]
        assert dense == pytest.approx(-0.028327, abs=1e-6)
        assert abs(min_eigenvalue(pt) - dense) <= 1e-13 * np.abs(pt).max() * pt.shape[0]


def planted_block_diagonal(rng, shapes, ranks, zero_rows=3, zero_cols=4):
    """A randomly permuted direct sum of integer blocks of the given shapes and
    ranks, plus zero rows and columns; returns the matrix and its rank."""
    blocks = [
        rng.integers(-3, 4, size=(p, k)) @ rng.integers(-3, 4, size=(k, q))
        for (p, q), k in zip(shapes, ranks)
    ]
    m = exact_block_diagonal(blocks, zero_rows, zero_cols)
    m = m[rng.permutation(m.shape[0])][:, rng.permutation(m.shape[1])]
    return m, sum(_bareiss_rank(b.tolist()) for b in blocks)


class TestBlockSplit:
    """Rank and minimum eigenvalue split a matrix into the connected
    components of its nonzero pattern; the split must change no verdict."""

    def test_exact_rank_of_planted_blocks(self, rng):
        for _ in range(20):
            count = int(rng.integers(4, 9))
            shapes = [tuple(int(x) for x in rng.integers(1, 12, size=2)) for _ in range(count)]
            # planted ranks from 0 to full, so most blocks are deficient
            ranks = [int(rng.integers(0, min(p, q) + 1)) for p, q in shapes]
            m, planted = planted_block_diagonal(rng, shapes, ranks)
            rr = rank(m, mode="exact")
            assert rr.rank == _bareiss_rank(m.tolist()) == planted
            assert rr.blocks > 1
            assert rank(m.astype(object), mode="exact").rank == planted

    def test_exact_engine_names_the_deficient_block(self, rng):
        shapes = [(12, 14)] * 5
        m, planted = planted_block_diagonal(rng, shapes, [12] * 5)
        rr = rank(m, mode="exact")
        assert (rr.rank, rr.engine, rr.prime, rr.blocks) == (60, "cholesky", None, 5)
        # a block that is singular mod p but not over the integers goes to Bareiss
        m[np.flatnonzero(m.any(axis=1))[0]] *= RANK_PRIME
        rr = rank(m, mode="exact")
        assert (rr.rank, rr.engine, rr.prime) == (60, "bareiss", None)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_numerical_rank_of_planted_blocks(self, rng, complex_entries):
        engines = set()
        for n in range(20):
            count = int(rng.integers(4, 9))
            shapes = [tuple(int(x) for x in rng.integers(4, 14, size=2)) for _ in range(count)]
            ranks = [int(rng.integers(1, min(p, q) + 1)) for p, q in shapes]
            m, planted = planted_block_diagonal(rng, shapes, ranks)
            a = m * rng.standard_normal(m.shape)
            if complex_entries:
                a = a + 1j * m * rng.standard_normal(m.shape)
            a = a @ np.diag(1 + rng.random(m.shape[1]))
            dense = np.linalg.svd(a, compute_uv=False)
            s, blocks = _singular_values(_blocks(a, symmetric=False), min(a.shape))
            assert blocks > 1
            assert s.shape == dense.shape
            assert np.abs(s - dense).max() <= 1e-13 * dense[0]
            rr = rank(a)
            default = max(a.shape) * np.finfo(float).eps * dense[0]
            assert rr.rank == int((dense > default).sum())
            engines.add(rr.engine)
            if rr.engine == "svd":
                assert rr.threshold == pytest.approx(default)
                continue
            # every block certified: a lower bound on sigma_min that clears
            # a threshold taken at an upper bound on sigma_max tenfold
            assert rr.smallest_kept_singular_value <= dense[rr.rank - 1]
            assert rr.threshold >= default
            assert rr.smallest_kept_singular_value >= 10 * rr.threshold
        assert engines == {"svd", "cholesky"}

    def test_rank8k_span_and_partial_transpose(self):
        f = rank8k_6k(3)
        span = _block_vectors(np.stack(f.ops))
        dense = np.linalg.svd(span, compute_uv=False)
        s, blocks = _singular_values(_blocks(span, symmetric=False), min(span.shape))
        assert blocks == is_extremal(f).gram_rank.blocks > 1
        assert np.abs(s - dense).max() <= 1e-13 * dense[0]
        pt = partial_transpose(choi(f), f.d_in, f.d_out, "first")
        exact_min = np.linalg.eigvalsh(pt)[0]
        assert abs(min_eigenvalue(pt) - exact_min) <= 1e-13 * np.abs(pt).max() * pt.shape[0]

    def test_min_eigenvalue_uses_principal_blocks(self):
        # The bipartite components of [[0, a], [a, 0]] pair row 0 with column
        # 1; eigensolving h[rows, rows] of those would see a zero matrix.
        blocks = [np.array([[0.0, a], [a, 0.0]]) for a in np.linspace(0.1, 1.0, 30)]
        h = blocks[0]
        for b in blocks[1:]:
            h = direct_sum(h, b)
        perm = np.random.default_rng(3).permutation(h.shape[0])
        h = h[perm][:, perm]
        assert h.shape[0] >= _SPLIT_MIN_SIDE
        assert min_eigenvalue(h) == pytest.approx(-1.0, abs=1e-14)
        # the PT of ohno-d 12's Choi matrix holds such blocks
        f = ohno_rank_d(12)
        pt = partial_transpose(choi(f), 12, 12, "first")
        assert min_eigenvalue(pt) == pytest.approx(np.linalg.eigvalsh(pt)[0], abs=1e-14)
        assert min_eigenvalue(pt) == pytest.approx(-0.0758, abs=1e-4)

    def test_edge_cases(self):
        side = _SPLIT_MIN_SIDE + 12
        zero = np.zeros((side, side + 10))
        for rr in (rank(zero), rank(zero.astype(np.int64), mode="exact")):
            assert (rr.rank, rr.blocks) == (0, 0)
        # a zero matrix has eigenvalue 0 at every size: the symmetric split
        # keeps its 1 x 1 zero blocks
        assert min_eigenvalue(np.zeros((side, side))) == 0.0
        assert min_eigenvalue(np.zeros((10, 10))) == 0.0
        assert min_eigenvalue(np.diag(np.arange(side) - 5.0)) == -5.0
        dense = np.arange(1, side * side + 1, dtype=float).reshape(side, side)
        assert (rank(dense).rank, rank(dense).blocks) == (2, 1)
        assert rank(dense.astype(np.int64), mode="exact").blocks == 1
        # zero rows and columns are dropped, not ranked
        padded = np.zeros((side, side), dtype=np.int64)
        padded[:4, :4] = np.eye(4, dtype=np.int64)
        rr = rank(padded, mode="exact")
        assert (rr.rank, rr.blocks, rr.engine) == (4, 4, "cholesky")
        assert rank(padded.astype(float)).blocks == 4
        # under the crossover a block-diagonal matrix is one block
        small = np.eye(_SPLIT_MIN_SIDE - 1)
        assert (rank(small).rank, rank(small).blocks) == (_SPLIT_MIN_SIDE - 1, 1)
        assert rank(small.astype(np.int64), mode="exact").blocks == 1
        assert rank(small).to_json()["blocks"] == 1

    def test_sparse_input(self):
        # terms that cancel exactly leave no entry; no entry at all is rank 0
        rows, cols = np.array([0, 0, 1, 2]), np.array([1, 1, 0, 2])
        m = Coo.from_terms(rows, cols, np.array([3, -3, 2, 5], dtype=np.int64), (3, 4))
        assert (m.rows.tolist(), m.cols.tolist(), m.vals.tolist()) == ([1, 2], [0, 2], [2, 5])
        assert (rank(m, mode="exact").rank, rank(m).rank, rank(m).blocks) == (2, 2, 2)
        empty = Coo.from_terms(rows[:0], cols[:0], np.zeros(0, dtype=object), (3, 3))
        for rr in (rank(empty), rank(empty, mode="exact")):
            assert (rr.rank, rr.blocks) == (0, 0)
        assert min_eigenvalue(empty) == 0.0
        # Fractions are scaled to integers by one common denominator
        half = Coo.from_terms(rows[2:], cols[2:], np.array([Fraction(1, 2), Fraction(1, 3)]), (3, 3))
        assert rank(half, mode="exact").rank == 2
        with pytest.raises(ValueError, match="finite"):
            rank(Coo.from_terms(rows[2:], cols[2:], np.array([1.0, np.nan]), (3, 3)))
        with pytest.raises(ValueError, match="Hermitian"):
            min_eigenvalue(Coo.from_terms(rows[2:], cols[2:], np.array([1.0, 1.0]), (3, 3)))


def window_cases(rng, dtype):
    """Matrices whose smaller side is in [_SPLIT_MIN_SIDE, _WHOLE_MAX_SIDE]:
    dense ones of full rank and of planted deficiency, a graded direct sum
    whose whole Gram fails the certificate's shift while each block's passes,
    and one with zero rows on its short side."""
    exact = dtype == np.int64

    def entries(shape):
        m = rng.integers(-3, 4, size=shape)
        return m if exact else m * rng.standard_normal(shape)

    cases = []
    for p, q in ((_SPLIT_MIN_SIDE, 90), (64, 72), (_WHOLE_MAX_SIDE, _WHOLE_MAX_SIDE + 10)):
        n = min(p, q)
        cases.append(entries((p, q)).astype(dtype))
        cases.append((entries((p, n - 3)) @ entries((n - 3, q))).astype(dtype))
    # graded: floats scale one block by 2^-30; integers, within the 2^53
    # Gram bound, scale the other by 2^20
    big, small = entries((30, 36)), entries((34, 36))
    if exact:
        big = big * 2**20
    else:
        small = small * 2.0**-30
    cases.append(exact_block_diagonal([big, small]).astype(dtype))
    zero_rows = entries((64, 72)).astype(dtype)
    zero_rows[rng.choice(64, size=5, replace=False)] = 0
    cases.append(zero_rows)
    return cases


def coo_of(m):
    rows, cols = np.nonzero(m)
    return Coo(rows, cols, m[rows, cols], m.shape)


class TestWholeCertificate:
    """A matrix whose smaller side is in [_SPLIT_MIN_SIDE, _WHOLE_MAX_SIDE] is
    offered to the certificate whole before any split, and split only when
    that fails; a matrix with no nonzero entry runs no engine."""

    @pytest.mark.parametrize("dtype", [float, np.int64])
    def test_window_agrees_with_the_split(self, rng, monkeypatch, dtype):
        mode = "exact" if dtype == np.int64 else "numerical"
        seen = set()
        for m in window_cases(rng, dtype):
            assert _SPLIT_MIN_SIDE <= min(m.shape) <= _WHOLE_MAX_SIDE
            assert m.size >= _CERTIFY_MIN_ENTRIES
            whole = rank(m, mode=mode)
            assert rank(coo_of(m), mode=mode) == whole
            with monkeypatch.context() as mp:
                mp.setattr(linalg, "_WHOLE_MAX_SIDE", _SPLIT_MIN_SIDE - 1)
                split = rank(m, mode=mode)
            assert (whole.rank, whole.engine, whole.prime) == (split.rank, split.engine, split.prime)
            if mode == "exact":
                assert whole.rank == _bareiss_rank(m.tolist())
                passed = _gram_certifies([m[None]])[0] is not None
            else:
                passed = _certified_full_rank([m[None]], m.shape, None) is not None
            # a whole matrix proven full is one block; otherwise the split's count
            assert whole.blocks == (1 if passed else split.blocks)
            seen.add((passed, split.blocks > 1))
        # passed whole; failed whole and split into one block or into several
        assert seen == {(True, False), (False, False), (False, True)}

    def test_a_small_block_may_pass_whole_but_not_alone(self, rng, monkeypatch):
        """The whole matrix's certified bound is taken at its whole tr G, so a
        1 x 1 block ~1e-4 of the norm clears the tenfold margin whole, while
        its own bound, taken at its own entry, misses it and the split goes
        to the SVD: the rank is the same."""
        m = np.zeros((64, 72))
        m[:63, :71] = rng.standard_normal((63, 71))
        m[63, 71] = 1e-4
        whole = rank(m)
        with monkeypatch.context() as mp:
            mp.setattr(linalg, "_WHOLE_MAX_SIDE", _SPLIT_MIN_SIDE - 1)
            split = rank(m)
        assert (whole.rank, whole.engine, whole.blocks) == (64, "cholesky", 1)
        assert (split.rank, split.engine, split.blocks) == (64, "svd", 2)

    def test_certificate_calls(self, rng, monkeypatch):
        calls = []

        def counted(stacks):
            calls.append([s.shape for s in stacks])
            return _gram_certifies(stacks)

        monkeypatch.setattr(linalg, "_gram_certifies", counted)

        def offered(m, mode="exact"):
            calls.clear()
            rank(m, mode=mode)
            return list(calls)

        # a deficient exact span under the window: one call, as before
        ops = rng.integers(-2, 3, size=(6, 4, 2))
        f = KrausFamily(
            d_in=2,
            d_out=4,
            ops=tuple(ops.astype(float)),
            exact_ops=tuple(np.array(k.tolist(), dtype=object) for k in ops),
        )
        span = _span(f, exact=True)
        assert span.shape == (36, 19)
        assert offered(span) == [[(1, 36, 19)]]
        # a deficient 60 x 70 direct sum: the whole, then its split stacks
        m, planted = planted_block_diagonal(rng, [(20, 25), (20, 25), (20, 20)], [20, 12, 20], 0, 0)
        assert m.shape == (60, 70) and planted < 60
        got = offered(m)
        assert got[0] == [(1, 60, 70)] and len(got) == 2
        assert sum(k for k, _, _ in got[1]) == 3
        # a dense deficient one splits into itself, which is not offered again
        dense = rng.integers(1, 4, size=(60, 5)) @ rng.integers(1, 4, size=(5, 70))
        assert offered(dense) == [[(1, 60, 70)]]
        assert offered(dense.astype(float), mode="numerical") == [[(1, 60, 70)]]
        # a full one is proven whole
        assert offered(rng.integers(-3, 4, size=(60, 70))) == [[(1, 60, 70)]]
        # no entry, no call
        assert offered(np.zeros((60, 70), dtype=np.int64)) == []

    @pytest.mark.parametrize(
        "shape, mode, engine",
        [
            ((10, 10), "exact", "cholesky"),
            ((60, 60), "exact", "cholesky"),
            ((64, 72), "exact", "cholesky"),
            ((0, 5), "exact", "cholesky"),
            ((0, 0), "exact", "cholesky"),
            ((10, 10), "numerical", "svd"),
            ((64, 72), "numerical", "svd"),
            ((0, 5), "numerical", "svd"),
            ((0, 0), "numerical", "svd"),
        ],
    )
    def test_zero_and_empty_matrices_run_no_engine(self, monkeypatch, shape, mode, engine):
        def boom(*args, **kwargs):
            raise AssertionError("an engine ran on a matrix with no nonzero entry")

        for name in ("_gram_certifies", "_stack_ranks_mod_p", "_bareiss_rank", "_blocks"):
            monkeypatch.setattr(linalg, name, boom)
        monkeypatch.setattr(linalg.np.linalg, "svd", boom)
        zero = np.zeros(shape, dtype=np.int64 if mode == "exact" else float)
        for m in (zero, coo_of(zero)):
            rr = rank(m, mode=mode)
            assert (rr.rank, rr.engine, rr.blocks, rr.prime) == (0, engine, 0, None)
            assert rr.to_json()["blocks"] == 0
            if mode == "numerical":
                assert rr.smallest_kept_singular_value is None
                assert rr.largest_discarded_singular_value == (0.0 if min(shape) else None)


def oracle_blocks(m, symmetric):
    """The stacks :func:`_blocks` must return, by a union-find split written
    apart from the library: components in order of their smallest node,
    stacks in increasing order of block shape (rows, then columns), rows and
    columns of a block in index order, components without rows or without
    columns left out. A dense matrix under the split side or without a zero
    entry is one block."""
    if not isinstance(m, Coo):
        if min(m.shape) < _SPLIT_MIN_SIDE or (m != 0).all():
            return [m[None]]
        rows, cols = np.nonzero(m != 0)
        m = Coo(rows, cols, m[rows, cols], m.shape)
    n_rows, n_cols = m.shape
    rows, cols = m.rows.tolist(), m.cols.tolist()
    # node of row i is i; node of column j is j (symmetric) or n_rows + j
    col_node = [c if symmetric else n_rows + c for c in cols]
    parent = list(range(n_rows if symmetric else n_rows + n_cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in zip(rows, col_node):
        a, b = find(r), find(c)
        parent[max(a, b)] = min(a, b)
    members = {}
    for x in range(len(parent)):
        members.setdefault(find(x), []).append(x)
    by_shape = {}
    for root in sorted(members):
        r_idx = [x for x in members[root] if x < n_rows]
        c_idx = r_idx if symmetric else [x - n_rows for x in members[root] if x >= n_rows]
        if r_idx and c_idx:
            by_shape.setdefault((len(r_idx), len(c_idx)), []).append((root, r_idx, c_idx))
    blocks = {}
    for shape, comps in by_shape.items():
        for root, r_idx, c_idx in comps:
            blocks[root] = (np.zeros(shape, dtype=m.vals.dtype), r_idx, c_idx)
    for r, c, val in zip(rows, cols, m.vals):
        block, r_idx, c_idx = blocks[find(r)]
        block[r_idx.index(r), c_idx.index(c)] = val
    return [np.stack([blocks[root][0] for root, _, _ in by_shape[shape]]) for shape in sorted(by_shape)]


def assert_same_stacks(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        if g.dtype == object:
            assert g.tolist() == w.tolist()
            assert [type(x) for x in g.flat] == [type(x) for x in w.flat]
        else:
            assert same_bits(g, w)


def random_values(rng, size, dtype):
    """Nonzero values of the given kind."""
    ints = rng.integers(1, 4, size=size) * rng.choice([-1, 1], size=size)
    if dtype == "int64":
        return ints
    if dtype == "float64":
        return ints * rng.random(size)
    if dtype == "complex128":
        return ints * rng.random(size) + 1j * rng.standard_normal(size)
    return np.array([Fraction(int(i), int(d)) for i, d in zip(ints, rng.integers(1, 5, size=size))], dtype=object)


class TestGatherer:
    """_blocks against an independent union-find split: the same stacks in
    the same order, with the same shapes, dtypes and values."""

    @pytest.mark.parametrize("dtype", ["int64", "float64", "complex128", "object"])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_random_patterns(self, rng, dtype, symmetric):
        side = _SPLIT_MIN_SIDE
        for density in (0.004, 0.02, 0.05, 0.3):
            for _ in range(3):
                shape = (side + int(rng.integers(0, 20)),) * 2
                if not symmetric:
                    shape = (shape[0], side + int(rng.integers(0, 30)))
                mask = rng.random(shape) < density
                if symmetric and density < 0.3:
                    mask |= mask.T
                # zero rows and columns
                mask[rng.integers(0, shape[0], size=3)] = False
                mask[:, rng.integers(0, shape[1], size=3)] = False
                m = np.zeros(shape, dtype=object if dtype == "object" else dtype)
                m[mask] = random_values(rng, int(mask.sum()), dtype)
                assert_same_stacks(_blocks(m, symmetric), oracle_blocks(m, symmetric))
                # the same entries as a Coo, in shuffled order
                rows, cols = np.nonzero(mask)
                order = rng.permutation(rows.size)
                coo = Coo(rows[order], cols[order], m[rows, cols][order], shape)
                assert_same_stacks(_blocks(coo, symmetric), oracle_blocks(coo, symmetric))
        # one giant component
        giant = np.zeros((side + 5, side + 9), dtype=object if dtype == "object" else dtype)
        giant[:, 0] = random_values(rng, giant.shape[0], dtype)
        giant[0, :] = random_values(rng, giant.shape[1], dtype)
        giant = giant[:side + 5, :side + 5] if symmetric else giant
        got = _blocks(giant, symmetric)
        assert len(got) == 1 and got[0].shape[0] == 1
        assert_same_stacks(got, oracle_blocks(giant, symmetric))

    def test_crossover_and_empty_inputs(self, rng):
        small = np.diag(np.arange(1.0, _SPLIT_MIN_SIDE))
        full = rng.integers(1, 4, size=(_SPLIT_MIN_SIDE, _SPLIT_MIN_SIDE + 2))
        for m in (small, full):
            got = _blocks(m, symmetric=False)
            assert len(got) == 1 and np.shares_memory(got[0], m)
            assert_same_stacks(got, oracle_blocks(m, False))
        # isolated entries only: 1 x 1 blocks, and zero rows and columns dropped
        lone = np.zeros((_SPLIT_MIN_SIDE + 3, _SPLIT_MIN_SIDE + 1))
        lone[[1, 5, 9], [40, 2, 7]] = [2.0, -3.0, 0.5]
        got = _blocks(lone, symmetric=False)
        assert [s.shape for s in got] == [(3, 1, 1)] and got[0].ravel().tolist() == [2.0, -3.0, 0.5]
        assert_same_stacks(got, oracle_blocks(lone, False))
        for dtype in (np.int64, float, complex, object):
            empty = Coo(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype), (5, 7))
            assert _blocks(empty, symmetric=False) == []
            square = Coo(empty.rows, empty.cols, empty.vals, (5, 5))
            # symmetric: every index is a 1 x 1 zero block of its own
            got = _blocks(square, symmetric=True)
            assert_same_stacks(got, oracle_blocks(square, True))
            assert [s.shape for s in got] == [(5, 1, 1)] and got[0].dtype == dtype

    @pytest.mark.parametrize("name", ["paper 7 10", "rank8-66", "rank8k 4"])
    def test_spans_and_partial_transposes_of_the_built_ins(self, name):
        f = {"paper 7 10": lambda: shift_family(7, 10), "rank8-66": rank8_66, "rank8k 4": lambda: rank8k_6k(4)}[name]()
        matrices = [_span(f, exact=False), _partial_transposed_choi(f.ops)]
        if f.integer_ops is not None:
            matrices += [_integer_matrix(_span(f, exact=True)), _partial_transposed_choi(f.integer_ops)]
        for m, symmetric in zip(matrices, [False, True, False, True]):
            assert_same_stacks(_blocks(m, symmetric), oracle_blocks(m, symmetric))
        blocks = sum(s.shape[0] for s in _blocks(matrices[0], symmetric=False))
        assert blocks == {"paper 7 10": 91, "rank8-66": 12, "rank8k 4": 156}[name]

    def test_labels_of_a_long_path(self, rng):
        """Hooking roots and compressing trees labels a shuffled path of
        30,000 nodes in a few rounds (~5 ms on a 2-core machine)."""
        n = 30_000
        order = rng.permutation(n)
        start = time.perf_counter()
        labels = _labels(order[:-1], order[1:], n)
        assert time.perf_counter() - start < 0.5
        assert not labels.any()

    def test_labels_are_smallest_nodes(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 60))
            edges = rng.integers(0, n, size=(2, int(rng.integers(0, 80))))
            labels = _labels(edges[0], edges[1], n)
            parent = list(range(n))
            for a, b in edges.T.tolist():
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                parent[max(a, b)] = min(a, b)
            for x in range(n):
                root = x
                while parent[root] != root:
                    root = parent[root]
                assert labels[x] == root
        assert _labels(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), 0).size == 0

class TestMatrixJson:
    def test_complex_roundtrip(self, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = matrix_from_json(matrix_to_json(m))
        assert np.abs(back - m).max() <= 1e-15

    def test_rational_roundtrip(self):
        m = rational_matrix([[Fraction(1, 3), 2], ["5/7", 0]])
        back = matrix_from_json(matrix_to_json(m))
        assert back.dtype == object
        assert back[0, 0] == Fraction(1, 3)
        assert back[1, 0] == Fraction(5, 7)

    def test_rejects_malformed(self):
        for obj in (
            {"rows": 1, "cols": 2, "entries": [[0, 0]]},
            {"rows": 1, "cols": 1, "entries": [7]},
            {"rows": 1, "cols": 1, "entries": ["1/0"]},
            {"rows": 1, "cols": 1, "entries": None},
            # a string is not the list of its characters
            {"rows": 1, "cols": 2, "entries": "12"},
            {"rows": 1, "cols": 1.7, "entries": ["1"]},
            {"rows": True, "cols": 1, "entries": ["1"]},
            # JSON booleans and strings are not the parts of a complex number
            {"rows": 1, "cols": 1, "entries": [[True, False]]},
            {"rows": 1, "cols": 1, "entries": [[1, False]]},
            {"rows": 1, "cols": 1, "entries": [["1", 0]]},
        ):
            with pytest.raises(ValueError):
                matrix_from_json(obj)

    def test_complex_roundtrip_is_bit_identical(self, rng):
        m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        m[0, :4] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324 - 1.7e308j]
        doc = json.loads(json.dumps(matrix_to_json(m)))
        assert doc["entries"][0] == [-0.0, 0.0]
        back = matrix_from_json(doc)
        assert back.dtype == complex and back.shape == (4, 5)
        assert np.array_equal(back.view(np.int64), m.view(np.int64))
        real = rng.standard_normal((3, 2))
        real[1, 1] = -0.0
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(real))))
        assert np.array_equal(back.view(np.int64), real.astype(complex).view(np.int64))

    def test_roundtrip_of_non_contiguous_matrices(self, rng):
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        for view in (m.T, np.asfortranarray(m), m[:, ::2], m.real.T):
            back = matrix_from_json(json.loads(json.dumps(matrix_to_json(view))))
            expected = np.ascontiguousarray(view, dtype=complex)
            assert np.array_equal(back.view(np.int64), expected.view(np.int64))

    def test_exact_roundtrip_keeps_ints_and_fractions(self):
        m = np.array(
            [[0, -2, 3**40], [Fraction(-3, 4), Fraction(7, 1), Fraction(1, 3**30)]], dtype=object
        )
        doc = json.loads(json.dumps(matrix_to_json(m)))
        assert doc["entries"][:3] == ["0", "-2", str(3**40)]
        assert doc["entries"][3:5] == ["-3/4", "7"]
        back = matrix_from_json(doc)
        assert back.dtype == object
        assert all(type(x) is Fraction for x in back.flat)
        assert (back == m).all()

    def test_exact_strings_parse_as_fraction(self):
        texts = ["0.5", " 7 ", "-3/4", "-2", "+5", "007", "1e3", "-0"]
        back = matrix_from_json({"rows": 2, "cols": 4, "entries": texts})
        assert back.dtype == object
        for x, t in zip(back.flat, texts):
            assert type(x) is Fraction and x == Fraction(t)

    @pytest.mark.parametrize(
        "entry",
        [[None, 0.0], [0.0, None], [1.0, 2.0, 3.0], [1.0], ["abc", 0.0], [[1.0, 2.0], 0.0], "1/2", 3],
    )
    def test_rejects_bad_complex_entry(self, entry):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 2, "entries": [[1.0, 0.0], entry]})

    @pytest.mark.parametrize("text", ["1_000", "-1_0/3", "_1", "1__0", "+-5", "-", "\u00b2", "\u0663"])
    def test_strings_parse_exactly_as_fraction_does(self, text):
        # int() takes "1_000" on every Python, Fraction only from 3.11 on
        try:
            expected = Fraction(text)
        except ValueError:
            with pytest.raises(ValueError):
                matrix_from_json({"rows": 1, "cols": 1, "entries": [text]})
        else:
            back = matrix_from_json({"rows": 1, "cols": 1, "entries": [text]})
            assert type(back[0, 0]) is Fraction and back[0, 0] == expected

    @pytest.mark.parametrize("text", ["abc", "1/0x", "", "1/2/3"])
    def test_rejects_bad_rational_string(self, text):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 2, "entries": ["1/2", text]})


def test_vec_is_column_stacking():
    m = np.array([[1, 2], [3, 4]])
    assert list(vec(m)) == [1, 3, 2, 4]


def test_direct_sum_layout():
    from extremal_marginals import direct_sum

    out = direct_sum(np.ones((1, 2)), 2 * np.eye(2))
    expected = np.array([[1, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]], dtype=complex)
    assert np.abs(out - expected).max() == 0
