"""Complex matrix utilities, for dense matrices and sparse (:class:`Coo`) ones.

Partial transpose over a bipartite splitting, Hermitian eigenvalues, and
matrix rank in two modes. Both run the same steps: every nonzero matrix
first meets one routine, a verified Cholesky factorisation of each block's
Gram less a rounding shift, which proves full rank when it completes, and
only what it cannot prove goes on. Numerical rank counts
singular values above an explicit threshold: a float matrix whose blocks
that factorisation certifies with a margin of BORDERLINE_GAP_RATIO over the
threshold has its full rank proven, and the SVD ranks every other one. For
matrices that are rational by construction, exact rank certifies full rank
from the exact Gram, and elimination modulo primes ranks what that cannot: a
block of full rank modulo 2^31 - 1 has it over the rationals, and a block
deficient there is ranked modulo the next primes below 2^31 until they
multiply past the Hadamard bound on its minors, which proves its rank.

Rank and the minimum eigenvalue split a matrix into the connected
components of its nonzero pattern. The span and Choi matrices of the
built-in families are sparse and graded, so they fall apart into many small
independent blocks. The split is exact: permuting rows and columns into
block-diagonal form leaves singular values and eigenvalues unchanged, the
singular values of a block-diagonal matrix are those of its blocks (plus
zeros up to the smaller side), and its eigenvalues are those of its blocks.
A matrix with no nonzero entry has no block and rank 0. Rank first offers a
matrix whose smaller side is from 48 to 120 to the certificate whole, made
dense if it is a :class:`Coo`: at that size one Gram and one Cholesky cost
less than the split, and a matrix proven of full rank is never split.
Blocks of one shape are solved together, and rank runs on the short side in
both modes. The certificate works once per matrix: one range check over all
its float blocks, and one Cholesky call on the shifted short-side Grams of
all its blocks with the same short side; no stack is offered to it twice.
Numerically, unless it proves the whole matrix, one stacked SVD per shape
runs on the tall orientation; exactly, a stack it cannot certify goes to
one inverse-free elimination modulo the prime over all the stack's rows,
which takes the nonzero columns sparsest first to limit fill-in and stops
once every row has been a pivot, and the blocks the bound leaves unsettled
go on together, one elimination per further prime. Integer arrays enter
exact rank as they are; only object arrays are converted, and an int64
stack whose entries are already residues mod a prime is not reduced again.

A matrix may also be given as its nonzero entries, a :class:`Coo`. One
gatherer labels the components of either input from its nonzero entries (a
dense matrix is first scanned for them) by hooking roots and compressing
trees, numbers them from the roots without a sort, and scatters the values
into the stacked dense blocks in one pass, every stack a view of one flat
buffer, so a sparse matrix is densified as a whole only when rank offers it
to the certificate whole.
:func:`group_pairs` and :meth:`Coo.from_terms` build such a matrix from
products of entry pairs, which is how the block-vector span of a sparse
Kraus family is made, the one matrix the package builds sparse
(:func:`coo_is_cheaper` decides when).

Conventions, fixed package-wide:

* composite spaces are ordered first factor (x) second factor, so the
  bipartite index of a (d1*d2)-dimensional space is ``i1 * d2 + i2``;
* matrices are stored row-major;
* vectorization is column by column: ``vec(M)[c * rows + r] = M[r, c]``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

HERMITIAN_ATOL = 1e-12
# A numerical verdict whose smallest kept singular value is within this
# factor of the rank threshold is borderline.
BORDERLINE_GAP_RATIO = 10.0
# Largest prime below 2^31, the first modulus of exact rank; the next ones
# are the primes below it. Residues are < 2^31, so a product of two is
# < 2^62 and modular elimination never overflows int64.
RANK_PRIME = 2**31 - 1
# A matrix whose smaller side is below this is ranked or eigensolved as one
# block: on a 2-core machine labelling the nonzero pattern of a 48 x 54
# matrix takes ~120 us, about what the dense SVD it could save takes (~175 us).
_SPLIT_MIN_SIDE = 48
# A matrix whose smaller side is from _SPLIT_MIN_SIDE to this is first
# offered whole, as one stack, to the verified Cholesky certificate of its
# Gram, and split only when that fails: up to this side one Gram and one
# Cholesky cost less than labelling the pattern and certifying the blocks.
# On a 2-core machine, rank of a span whole vs split: rank8-66 (64 x 72)
# 161 vs 521 us, ohno-d 8 (64 x 128) 209 vs 504 us, exact paper 4 4
# (64 x 79) 131 vs 514 us; is_extremal, choi_rank and the separability
# verdict of paper 2 8 and paper 4 6, whose spans' smaller side is r^2 =
# 100, took 0.78-0.88 ms whole against 1.00-1.26 ms split. At r^2 = 121 the
# gain is gone: paper 5 6 was 4-5% faster whole in back-to-back calls, but
# 9% slower when each pass followed 0.3 s of idle time, and its benchmark
# latency rose 11% (0/10 pairs); at 144 whole is slower (paper 6 6: 1109 vs
# 841 us). No span's smaller side lies between 100 and 121. A deficient or
# graded matrix pays the failed attempt on top of the split, ~90 us at
# 64 x 72.
_WHOLE_MAX_SIDE = 120
# The block-vector span of a Kraus family is built from the operators'
# nonzero entries, as a Coo, only where rank splits it into blocks anyway
# (smaller side above _WHOLE_MAX_SIDE, under which rank takes the dense span
# whole) and the dense span holds at least _COO_ENTRIES_PER_TERM entries per
# product of two nonzero entries that the sparse build sums, whatever the
# dtype. On a 2-core machine is_extremal took, dense vs sparse: exact
# paper 5 6 (121 x 145, 20.1 entries per product) 0.99 vs 0.89 ms, exact
# paper 6 8 (27.1) 2.18 vs 1.06 ms and paper 7 10 (34.2) 4.68 vs 1.28 ms,
# whose dense int64 matmuls numpy runs without BLAS; the float spans of
# paper 5 6 and paper 6 8 0.65 vs 0.63 ms and 1.42 vs 0.74 ms; ohno-d 12
# (144 x 288, 126) 1.63 vs 0.70 ms, rank8k 3 (114) 10.5 vs 1.5 ms and
# rank8k 4 (206) 25.6 vs 2.1 ms. Sparse integer families in [-2, 2] at 5-14
# entries per product were 6-24% slower sparse, and sparse float ones at
# 8-30 within +-10% either way.
_COO_ENTRIES_PER_TERM = 16

__all__ = [
    "BORDERLINE_GAP_RATIO",
    "HERMITIAN_ATOL",
    "RANK_PRIME",
    "Coo",
    "RankResult",
    "coo_is_cheaper",
    "group_pairs",
    "integer_entries",
    "json_fields",
    "matrix_from_json",
    "matrix_to_json",
    "min_eigenvalue",
    "partial_transpose",
    "rank",
]


def _bipartite_view(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    a = _as_float_matrix(m)
    if d1 < 1 or d2 < 1:
        raise ValueError("subsystem dimensions must be positive")
    side = d1 * d2
    if a.ndim != 2 or a.shape != (side, side):
        raise ValueError(f"expected a square matrix of side {d1}*{d2}={side}, got shape {a.shape}")
    return a.reshape(d1, d2, d1, d2)


def partial_transpose(m: np.ndarray, d1: int, d2: int, sub: str) -> np.ndarray:
    """Transpose the named subsystem of a matrix on a d1 (x) d2 space.

    Involutive, trace-preserving and Hermiticity-preserving.
    """
    t = _bipartite_view(m, d1, d2)
    if sub == "first":
        out = t.transpose(2, 1, 0, 3)
    elif sub == "second":
        out = t.transpose(0, 3, 2, 1)
    else:
        raise ValueError("sub must be 'first' or 'second'")
    return out.reshape(d1 * d2, d1 * d2)


def _labels(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Connected-component labels of the graph on n nodes with edges (u[k], v[k]):
    each node's label is the smallest node of its component.

    Hooking and compressing (Shiloach-Vishkin, J. Algorithms 3, 57, 1982):
    every node points at a node no larger than itself, and a root points at
    itself. Each round, every edge hooks the larger of the roots at its ends
    under the smaller (a root hooked by several edges takes the smallest;
    an edge inside one tree changes nothing), and pointer jumping then
    compresses every tree until each node points at its root. A root with
    an edge to a smaller root is hooked, so only the local minima among the
    roots stay roots, and on a path at most every other one is: a shuffled
    path of 30,000 nodes takes 10 rounds (~5 ms on a 2-core machine, where
    min-label propagation with one pointer jump per round took 2-7 s). Once
    both ends of every edge share a root, each root is the smallest node of
    its tree, and each tree is a whole component.
    """
    lab = np.arange(n)
    a, b = u, v  # the roots at each edge's ends: every node is one at first
    while True:
        np.minimum.at(lab, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up
        a, b = lab[u], lab[v]
        if np.array_equal(a, b):
            return lab


@dataclass(frozen=True, eq=False)
class Coo:
    """A matrix held as coordinate triplets: value ``vals[k]`` at
    ``(rows[k], cols[k])``, every other entry zero; keys are distinct.

    :func:`rank` and :func:`min_eigenvalue` take it in place of a dense
    array and split it into blocks without building the whole matrix.
    :meth:`from_terms` builds one with distinct keys and nonzero values, so
    that its pattern is the dense matrix's nonzero pattern.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_terms(
        cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]
    ) -> "Coo":
        """Sum the terms that share a key and drop the sums that are zero.

        Terms of one key are added in their given order, exactly for int64
        and Python ints; an exact cancellation leaves no entry.
        """
        key = np.asarray(rows, dtype=np.int64) * shape[1] + cols
        order = np.argsort(key, kind="stable")
        key, vals = key[order], np.asarray(vals)[order]
        if key.size == 0:
            return cls(key, key, vals, shape)
        starts = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        sums = np.add.reduceat(vals, starts)
        keep = sums != 0
        key = key[starts[keep]]
        return cls(key // shape[1], key % shape[1], sums[keep], shape)


def coo_is_cheaper(shape: tuple[int, int], count_terms: Callable[[], int]) -> bool:
    """Whether a span of this shape is cheaper to build as a :class:`Coo`,
    summed from ``count_terms()`` products of nonzero entries, than densely:
    when its smaller side is above _WHOLE_MAX_SIDE, so that :func:`rank`
    splits it rather than taking it whole, and it has at least
    _COO_ENTRIES_PER_TERM dense entries per product. ``count_terms`` runs
    only when the shape alone does not decide.
    """
    if min(shape) <= _WHOLE_MAX_SIDE:
        return False
    return shape[0] * shape[1] >= _COO_ENTRIES_PER_TERM * count_terms()


def group_pairs(group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs (e, f) of items with ``group[e] == group[f]``.

    The pairs come ordered by group value, so products over them that
    :meth:`Coo.from_terms` sums under one key are added in that order.
    """
    order = np.argsort(group, kind="stable")
    g = group[order]
    counts = np.bincount(g)
    size = counts[g]
    first = np.repeat(order, size)
    within = np.arange(first.size) - np.repeat(np.cumsum(size) - size, size)
    return first, order[np.repeat((np.cumsum(counts) - counts)[g], size) + within]


def _blocks(m: np.ndarray | Coo, symmetric: bool) -> list[np.ndarray]:
    """The independent diagonal blocks of ``m``, stacked by shape.

    Bipartite (``symmetric=False``): rows and columns are nodes and a nonzero
    entry joins its row to its column. Symmetric, for a Hermitian matrix:
    indices i and j are joined when entry (i, j) is nonzero, and a block
    keeps the same indices for its rows and columns. (The bipartite
    components of [[0, a], [a, 0]] pair row 0 with column 1, which is not a
    principal submatrix.) Each item is an array of shape (k, p, q) holding
    the k blocks of shape p x q, rows and columns in index order, filled
    from the nonzero entries. Components without rows or without columns
    (zero rows and zero columns) hold no entry and are left out. Stacks come
    in increasing order of (p, q), and the blocks of a stack in order of
    their components' smallest index. A dense matrix under the size
    crossover or without a zero entry is one block, a view; any other dense
    matrix goes through its nonzero entries, as a :class:`Coo` does.

    Components are numbered from the roots of :func:`_labels`: a label is
    its component's smallest node, so the running count of roots numbers
    the components in that order without a sort. Every stack is a view of
    one flat buffer, stack after stack, and one scatter puts every entry at
    its block's offset plus its row and column position in the block.
    """
    if not isinstance(m, Coo):
        if min(m.shape) < _SPLIT_MIN_SIDE:
            return [m[None]]
        flat = m.reshape(-1)
        at = np.flatnonzero(flat)
        if at.size == flat.size:
            return [m[None]]
        u, v = np.unravel_index(at, m.shape)
        m = Coo(u, v, flat[at], m.shape)
    n_rows, n_cols = m.shape
    u, v = m.rows, m.cols
    if symmetric:
        row_comp, n_comps = _components(_labels(u, v, n_rows))
        col_comp = row_comp
    else:
        comp, n_comps = _components(_labels(u, v + n_rows, n_rows + n_cols))
        row_comp, col_comp = comp[:n_rows], comp[n_rows:]
    p = np.bincount(row_comp, minlength=n_comps)
    q = np.bincount(col_comp, minlength=n_comps)
    row_pos = _positions(row_comp, p)
    col_pos = row_pos if symmetric else _positions(col_comp, q)
    live = (p > 0) & (q > 0)
    shapes, live_stack = np.unique(p[live] * (n_cols + 1) + q[live], return_inverse=True)
    count = np.bincount(live_stack, minlength=shapes.size)
    rows, cols = np.divmod(shapes, n_cols + 1)
    size = count * rows * cols
    first = np.cumsum(size) - size
    # a live component's block is block number slot of its stack
    slot = _positions(live_stack, count)
    offset = np.zeros(n_comps, dtype=np.int64)
    offset[live] = first[live_stack] + slot * (rows * cols)[live_stack]
    buf = np.zeros(int(size.sum()), dtype=m.vals.dtype)
    c = row_comp[u]
    buf[offset[c] + row_pos[u] * q[c] + col_pos[v]] = m.vals
    stacks = zip(first.tolist(), size.tolist(), count.tolist(), rows.tolist(), cols.tolist())
    return [buf[at : at + z].reshape(k, a, b) for at, z, k, a, b in stacks]


def _components(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Each node's component number from :func:`_labels`, the components
    numbered 0, 1, ... in order of their smallest node (the running count
    of the roots at its label), and the number of components."""
    roots = labels == np.arange(labels.size)
    return (np.cumsum(roots) - 1)[labels], int(np.count_nonzero(roots))


def _positions(group: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each item's position among the items of its group, in index order.

    Groups numbered below 2^16 are sorted as 16-bit keys, which numpy's
    stable sort takes by radix: on the 1,152 columns of rank8k 4's span, in
    half the time of int64 keys.
    """
    order = np.argsort(group.astype(np.uint16) if sizes.size <= 2**16 else group, kind="stable")
    pos = np.empty(group.size, dtype=np.int64)
    pos[order] = np.arange(group.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return pos


def _entries(m: np.ndarray | Coo) -> np.ndarray:
    return m.vals if isinstance(m, Coo) else m


def min_eigenvalue(h: np.ndarray | Coo, atol: float = HERMITIAN_ATOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix, dense or :class:`Coo`.

    The input must be finite and Hermitian within ``atol`` entrywise; the
    eigenvalue is computed from the Hermitian part (h + h^dagger)/2, in real
    arithmetic when the input is real.
    Indices i and j are joined when entry (i, j) of h is nonzero, and the
    check and the Hermitian part are taken per principal block of the
    components. Every nonzero h_ij and h_ji lies inside one block, so both
    vanish outside the blocks and the check covers the whole matrix; the
    matrix is then a symmetric permutation of the direct sum of the blocks,
    so its smallest eigenvalue is the smallest over them.
    """
    return _eigenvalue_range(h, atol)[0]


def _eigenvalue_range(h: np.ndarray | Coo, atol: float) -> tuple[float, float]:
    """The smallest and the largest eigenvalue of a Hermitian matrix, checked
    and computed as by :func:`min_eigenvalue`, both from its eigensolves."""
    a = _as_float_matrix(h)
    if len(a.shape) != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("the empty (0 x 0) matrix has no eigenvalue")
    if not np.isfinite(_entries(a)).all():
        raise ValueError("matrix entries must be finite (no NaN or inf)")
    smallest, largest = math.inf, -math.inf
    for b in _blocks(a, symmetric=True):
        adj = b.conj().transpose(0, 2, 1)
        dev = float(np.abs(b - adj).max())
        if dev > atol:
            raise ValueError(f"matrix is not Hermitian within {atol:g} (deviation {dev:.3e})")
        w = np.linalg.eigvalsh((b + adj) / 2)
        smallest, largest = min(smallest, float(w[:, 0].min())), max(largest, float(w[:, -1].max()))
    return smallest, largest


@dataclass(frozen=True)
class RankResult:
    """Rank of a matrix together with the evidence behind the verdict.

    In numerical mode the gap data (smallest kept and largest discarded
    singular value against the threshold) makes borderline calls auditable.
    Exact mode carries no singular-value data. ``engine`` names what
    decided the rank. Numerical: "cholesky" when a verified Cholesky
    factorisation of every block's shifted float Gram, which every nonzero
    matrix meets first, proved the full rank, else "svd". With "cholesky",
    ``smallest_kept_singular_value`` is a certified lower bound on the
    smallest singular value, not the value itself; ``threshold`` is the
    threshold that bound cleared by BORDERLINE_GAP_RATIO under the one rule
    of :meth:`proven`, which builds every certified rank: ``tol``, or the
    default one taken at an upper bound on sigma_max, at least the SVD's;
    and ``largest_discarded_singular_value`` is 0.0 when the blocks leave
    structural zeros below min(rows, cols) and None when nothing is
    discarded, as for a certified span of full column rank. Exact: the
    strongest engine that some block needed: "cholesky" (every block of full
    rank by a verified Cholesky factorisation of its exact Gram) or "mod-p"
    (every other block ranked modulo primes, the one engine that sets
    ``prime`` and ``primes``). ``prime`` is RANK_PRIME, the first modulus,
    and ``primes`` how many primes the neediest block used: 1 when every
    block had full rank modulo RANK_PRIME or a rank there that the bound on
    its minors settled, else k for RANK_PRIME and the k - 1 primes below it.
    ``blocks`` counts the independent diagonal blocks of the nonzero pattern
    that were ranked, and the rank is the sum of theirs; it is 1 when the
    whole matrix was certified as one block without a split, and 0 for a
    matrix with no nonzero entry, which runs no engine and reports
    "cholesky" exactly and "svd" numerically. In both modes
    :func:`extremality.is_extremal` may also report "kronecker": the span
    of a tensor family proven of full row rank from its factors' spans,
    which are not this span's blocks; ``blocks`` then counts the factor
    matrices certified, and numerically ``smallest_kept_singular_value`` is
    a certified lower bound on the span's sigma_min and ``threshold`` the
    one it cleared tenfold, as for "cholesky".
    """

    rank: int
    mode: str
    engine: str
    smallest_kept_singular_value: float | None = None
    threshold: float | None = None
    largest_discarded_singular_value: float | None = None
    prime: int | None = None
    primes: int | None = None
    blocks: int = 1

    @classmethod
    def proven(
        cls,
        rank: int,
        mode: str,
        engine: str,
        blocks: int,
        shape: tuple[int, int],
        tol: float | None = None,
        bound: float = 0.0,
        sigma_max: float = 0.0,
    ) -> RankResult | None:
        """The rank that a certificate (``engine``, over ``blocks``) proved
        for a matrix of this ``shape``, or None where it proves too little.

        Exactly, the certificate is the proof, and the rank is returned as
        it is. Numerically, ``bound`` is a certified lower bound on every
        singular value the rank counts and ``sigma_max`` an upper bound on
        the largest; the threshold is ``tol``, or the default max(rows,
        cols) eps sigma_max, and the rank is returned only when the bound
        is > 0 and at least BORDERLINE_GAP_RATIO times the threshold, so it
        is never borderline. It is the rank the SVD would give: only the
        structural zeros up to min(rows, cols) lie below the threshold, and
        ``largest_discarded_singular_value`` is 0.0 when there are some and
        None otherwise. A ``tol`` that :func:`rank` would refuse in this
        ``mode`` raises ValueError in both modes.
        """
        _check_tol(tol, mode)
        if mode == "exact":
            return cls(rank=rank, mode=mode, engine=engine, blocks=blocks)
        threshold = _threshold(shape, sigma_max, tol)
        if not (bound > 0 and bound >= BORDERLINE_GAP_RATIO * threshold):
            return None
        return cls(
            rank=rank,
            mode=mode,
            engine=engine,
            smallest_kept_singular_value=bound,
            threshold=threshold,
            largest_discarded_singular_value=0.0 if rank < min(shape) else None,
            blocks=blocks,
        )

    @property
    def gap_ratio(self) -> float | None:
        """smallest kept singular value / threshold; None when undefined."""
        if self.mode != "numerical" or self.rank == 0:
            return None
        if not self.threshold:
            return math.inf
        return self.smallest_kept_singular_value / self.threshold

    def to_json(self) -> dict:
        return {
            "rank": int(self.rank),
            "mode": self.mode,
            "engine": self.engine,
            "prime": self.prime,
            "primes": self.primes,
            "smallest_kept_singular_value": self.smallest_kept_singular_value,
            "threshold": self.threshold,
            "largest_discarded_singular_value": self.largest_discarded_singular_value,
            "blocks": int(self.blocks),
        }


def _to_fraction(x: object) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise ValueError(f"entry {x!r} is not certified rational")


def integer_entries(entries: Iterable[object], rationals: bool = False) -> np.ndarray | tuple:
    """The entries times the lcm of their denominators, as a 1-d array of
    integers: int64 when every one fits, else Python ints (dtype object).

    Integers pass through unchanged, and an array of a numpy integer dtype
    that int64 holds is returned as int64 without a step through Python
    objects. Callers scale a whole matrix or a whole operator this way,
    which keeps every rank it enters; an entry that is not an integer or a
    Fraction, floating point included, is rejected because it is not
    certified rational.

    With ``rationals`` the same pass also gives the entries as Python ints
    and Fractions of Python ints, in a 1-d object array, and the lcm, as
    ``(integers, entries, lcm)``.
    """
    if isinstance(entries, np.ndarray) and entries.dtype.kind in "iu":
        a = entries.reshape(-1)
        ints = a.astype(np.int64, copy=False) if np.can_cast(a.dtype, np.int64) else a.astype(object)
        return (ints, a.astype(object), 1) if rationals else ints
    a = np.asarray(entries if isinstance(entries, np.ndarray) else list(entries), dtype=object)
    a = a.reshape(-1)
    items, lcm = a.tolist(), 1
    if set(map(type, items)) - {int}:
        parts = []
        for i, x in enumerate(items):
            if isinstance(x, Fraction):
                parts.append((int(x.numerator), int(x.denominator)))
                if type(x.numerator) is not int or type(x.denominator) is not int:
                    items[i] = Fraction(*parts[-1])
            elif isinstance(x, (int, np.integer)):
                items[i] = int(x)
                parts.append((items[i], 1))
            else:
                raise ValueError(f"exact entry of type {type(x).__name__} is not rational")
        lcm = math.lcm(*(d for _, d in parts))
        a = np.array(items, dtype=object)
        items = [n * (lcm // d) for n, d in parts]
    try:
        ints = np.array(items, dtype=np.int64)
    except OverflowError:
        ints = np.array(items, dtype=object)
    return (ints, a, lcm) if rationals else ints


def _integer_matrix(m: np.ndarray | Coo) -> np.ndarray | Coo:
    """An integer matrix of the same rank, int64 where every entry fits and
    Python ints otherwise: integer input as it is, other certified-rational
    input times the lcm of all its denominators."""
    if isinstance(m, Coo):
        return replace(m, vals=integer_entries(m.vals))
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError("rank expects a 2-d matrix")
    if a.dtype.kind not in "iuO":
        raise ValueError("exact rank requires integer or Fraction entries, not floating point")
    return a if a.dtype == np.int64 else integer_entries(a).reshape(a.shape)


def _gram_certifies(
    stacks: list[np.ndarray], lift: float = 0.0
) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """For each (k, p, q) stack of one matrix, as :func:`_blocks` splits it,
    a certified lower bound on sigma_min^2 of each of its blocks, which
    proves that every block has full rank n = min(p, q), with each block's
    computed tr G; or None for a stack whose shifted Grams cannot give them.

    The work is done once per matrix: a float matrix's range check below
    runs once over all its stacks, and the shifted Grams of every stack with
    the same short side n go to one Cholesky call, so one block that fails
    fails every stack of its n. The shift, the arithmetic and the bound of
    each block are its own, and each block is factorised on its own inside
    the call, so a stack's outcome does not depend on the other stacks
    unless it fails with them.

    Each block A gives its short-side Gram G, A A^H (p <= q) or A^H A, in
    float64 or complex128; m = max(p, q) is the length of its inner
    products, u = 2^-53 and gamma_j = j u / (1 - j u) (Higham, Accuracy and
    Stability, 2nd ed., Sec. 3.1). With t the computed tr G and s = 4(n + 2
    + g) u t, B = fl(G^ - sI) is factorised, G^ being the computed Gram; the
    pair returned is (s / 2, t).

    * Gram. An int64 stack with max|a|^2 * m < 2^53 has every partial sum of
      every entry an integer below 2^53, so G^ = G in any summation order
      and g = 0. A float stack's inner products carry |G^ - G| <= gamma_m
      |A| |A|^T in real arithmetic and gamma_{m+2} |A| |A|^H in complex
      (Higham Sec. 3.5-3.6, any summation order, FMA included), and g = m +
      2. |A| |A|^H is positive semidefinite with the diagonal of G, so
      ||G^ - G||_2 <= gamma_{m+2} tr G.
    * Shift. Subtracting s rounds each diagonal entry by at most u (tr G^ +
      s).
    * Cholesky. A factorisation that runs to completion gives R with R^H R =
      B + dB and |dB| <= gamma_c |R^H| |R|, c = n + 1 in real arithmetic
      (Demmel, LAPACK Working Note 14, 1989; Higham Thm 10.3; LAPACK's
      blocked variant forms the same inner products in another order) and c
      = n + 3 in complex, where each inner product has gamma_{n+2} in place
      of gamma_n (Higham Sec. 3.6). So ||dB||_2 <= gamma_c ||R||_F^2, and
      ||R||_F^2 = tr(B + dB) <= tr G^ + gamma_c ||R||_F^2 gives ||dB||_2 <=
      gamma_c / (1 - gamma_c) tr G^ <= (c + O(nu)) u tr G.

    R^H R is positive semidefinite, so lambda_min(G) >= s - e with e = (c +
    1 + g) u tr G (1 + O((n + m) u)) + u s (Rump, BIT 46, 433, 2006). As c +
    1 <= n + 4 and n + 2 + g >= 3, e < s / 2: the factor 4 in s leaves that
    margin, which also covers t below tr G by its own rounding and the
    square root a caller takes of the bound. So sigma_min^2 = lambda_min(G)
    > s / 2 > 0 and every block has rank n. The bound is on the stack as
    given, floats included. The test is one-sided: a deficient block, or a
    full one with sigma_min^2 below about s, makes the factorisation fail.

    A ``lift`` in (0, 1] raises the bound of a float stack from about
    u tr G to a fraction of sigma_min^2 itself: each block's computed Gram is
    eigensolved first, theta = lift * l is taken at its smallest computed
    eigenvalue l clipped to [0, t], and B = fl(G^ - (s + theta) I) is
    factorised. The same argument holds with s + theta in place of s, plus
    two terms: the float sum s + theta is below the exact one by at most
    u (s + theta), and the subtraction of the larger shift rounds each
    diagonal entry by at most u theta more. So lambda_min(G) >= s/2 + theta
    - 2 u theta when the factorisation completes, the u s of the sum lying
    within the margin that the factor 4 leaves over e. The pair returned is
    (s / 2 + (1 - 8u) theta, t): of the 8 u theta held back, 2 u theta pays
    for the shift and the rest for rounding the product and the sum that
    form the bound and the square root a caller takes of it, as that
    margin does for s / 2. theta need not be close to lambda_min(G): a
    theta above it only makes the factorisation fail. A lift of 0 runs no
    eigensolve and gives the plain certificate; an int64 stack is never
    lifted.

    Not tried, so None: object stacks, int64 stacks past the 2^53 bound, and
    every stack of a float matrix with a real or imaginary part, other than
    zero, outside [2^-400, 2^400] (NaN and inf included). Inside that range
    every product of two parts is a normal number, no Gram or factor entry
    overflows, and the absolute error of gradual underflow in the
    factorisation, at most n^2 2^-1074 (1 + sqrt(tr G)) (Higham Sec. 2.1),
    is far below u tr G >= 2^-853. Without the check, ``np.linalg.cholesky``
    returns inf or NaN factors of an overflowed Gram and does not raise.
    Scaling a stack by 2^k within that range scales every rounded value
    alike: the outcome is the same and the bound scales by 4^k.
    """
    out: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(stacks)
    if not stacks:
        return out
    floating = stacks[0].dtype.kind in "fc"
    if floating:
        # real and imaginary parts side by side, which needs a contiguous
        # array, as a strided view of the caller's matrix may not be; NaN
        # fails the first test
        flat = [s.reshape(-1) for s in stacks]
        whole = np.ascontiguousarray(flat[0]) if len(flat) == 1 else np.concatenate(flat)
        parts = np.abs(whole.view(np.float64))
        if not parts.max(initial=0.0) <= 2.0**400:
            return out
        if np.count_nonzero(parts < 2.0**-400) != np.count_nonzero(parts == 0):
            return out
    elif stacks[0].dtype != np.int64:
        return out
    grams: dict[int, list[tuple[int, np.ndarray]]] = {}
    for i, stack in enumerate(stacks):
        k, p, q = stack.shape
        n, m = min(p, q), max(p, q)
        if floating:
            a, g = stack, m + 2
        else:
            top = max(-int(stack.min(initial=0)), int(stack.max(initial=0)))
            if top * top * m >= 2**53:
                continue
            a, g = stack.astype(float), 0
        gram = a @ a.conj().transpose(0, 2, 1) if p <= q else a.conj().transpose(0, 2, 1) @ a
        diag = gram.reshape(k, n * n)[:, :: n + 1]  # a view of each block's diagonal
        trace = diag.real.sum(axis=1)
        shift = 4 * (n + 2 + g) * 2.0**-53 * trace
        bound = shift / 2
        if lift and floating:
            theta = lift * np.minimum(np.maximum(np.linalg.eigvalsh(gram)[:, 0], 0.0), trace)
            shift, bound = shift + theta, bound + (1 - 8 * 2.0**-53) * theta
        diag -= shift[:, None]
        out[i] = (bound, trace)
        grams.setdefault(n, []).append((i, gram))
    for group in grams.values():
        batch = [g for _, g in group]
        try:
            np.linalg.cholesky(batch[0] if len(batch) == 1 else np.concatenate(batch))
        except np.linalg.LinAlgError:
            for i, _ in group:
                out[i] = None
    return out


def _stack_ranks_mod_p(stack: np.ndarray, prime: int) -> np.ndarray:
    """Rank over GF(prime) of each block of a (k, p, q) stack of int64
    residues in [0, prime), ``prime`` below 2^31, by one inverse-free
    elimination over all k * p rows. The stack itself is never written to.

    Columns are eliminated sparsest first: the stack's all-zero columns are
    dropped and the rest taken in a stable order of their nonzero count
    summed over the stack, so a dense stack keeps its order. Pivoting on a
    sparse column touches few rows and so makes little fill-in (Markowitz
    1957; LaMacchia-Odlyzko 1990); a column permutation keeps every block's
    rank. On the 73 x 121 block of the exact ``shift_family(7, 10)`` span
    this takes 73 column steps and 13,266 entry updates instead of 120 steps
    (47 of them on a column with no candidate row) and 39,781 updates.

    Column by column, a block's pivot is its first row with a nonzero entry
    there, and every other such row of the block becomes
    ``piv * row - a_rc * pivot_row`` mod the prime. The pivot is a unit mod
    the prime, so the block's row space is unchanged and no inverse is
    needed; a product of two residues is below 2^62, so int64 arithmetic is
    exact. A pivot row takes
    no further part and is cleared. The loop ends once every row has been a
    pivot, so a wide stack of full row rank stops after about p columns.
    The given orientation is kept: transposing a wide stack slowed the
    stacked Kraus vectors ~3x, and with the column order it no longer helps
    the shift spans' blocks either.
    """
    k, p, q = stack.shape
    a = stack.reshape(k * p, q)
    filled = np.count_nonzero(a, axis=0)
    order = np.argsort(filled, kind="stable")
    # a fancy-indexed copy, so the elimination never writes to the caller's stack
    a = a[:, order[filled[order] > 0]]
    pivots = []
    pivot_of = np.empty(k, dtype=np.int64)
    left = k * p
    for c in range(a.shape[1]):
        rows = a[:, c].nonzero()[0]
        if rows.size == 0:
            continue
        block = rows // p
        first = np.empty(rows.size, dtype=bool)
        first[0] = True
        np.not_equal(block[1:], block[:-1], out=first[1:])
        piv, tgt = rows[first], rows[~first]
        pivot_of[block[first]] = piv
        src = pivot_of[block[~first]]
        pivots.append(piv)
        left -= piv.size
        if left == 0:
            break
        if tgt.size:
            top = a[src]
            a[tgt, c + 1 :] = (
                top[..., c, None] * a[tgt, c + 1 :] - a[tgt, c, None] * top[..., c + 1 :]
            ) % prime
        a[piv] = 0
    if not pivots:
        return np.zeros(k, dtype=np.int64)
    return np.bincount(np.concatenate(pivots) // p, minlength=k)


def _residues(stack: np.ndarray, prime: int) -> np.ndarray:
    """The stack's entries mod ``prime`` as int64; an int64 stack already in
    [0, prime) is returned as it is, not reduced again."""
    if stack.dtype == np.int64 and stack.min(initial=0) >= 0 and stack.max(initial=0) < prime:
        return stack
    return (stack % prime).astype(np.int64, copy=False)


def _prime_below(n: int) -> int:
    """The largest prime below ``n``, for 11 < n <= 2^31.

    Each odd candidate is tested by Miller-Rabin to the bases 2, 3, 5 and 7,
    which no odd composite below 3,215,031,751 passes (Pomerance, Selfridge
    and Wagstaff, Math. Comp. 35, 1003, 1980), so the test is exact here.
    """
    n -= 1 + n % 2  # the largest odd number below n
    while True:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for base in (2, 3, 5, 7):
            x = pow(base, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break  # base witnesses that n is composite
        else:
            return n
        n -= 2


def _minor_bits(stack: np.ndarray, ranks: np.ndarray) -> list[int]:
    """For each block A of an integer (k, p, q) stack and its entry s of
    ``ranks`` (s < min(p, q)), a b with |M| < 2^b for every (s + 1)-minor M
    of A: the least b with H < 2^b, H the Hadamard bound below.

    By Hadamard's inequality |M| is at most the product of the norms of its
    s + 1 columns, each at most the norm of the column of A it is cut from,
    so at most H_c, the product of the s + 1 largest column norms of A; and
    likewise at most H_r, that of the s + 1 largest row norms. With H^2 =
    min(H_c^2, H_r^2), a product of exact squared norms, H < 2^b for b =
    ceil(L / 2), L the bit length of H^2. The squared norms are int64 sums
    when max|a|^2 * max(p, q) < 2^63, so none overflows, and Python ints
    otherwise. A larger minor is not bounded by H: 10 I has H = 10 at s = 0
    and a 2 x 2 minor of 100.
    """
    top = max(-int(stack.min(initial=0)), int(stack.max(initial=0)))
    side = max(stack.shape[1:])
    a = stack if stack.dtype == np.int64 and top * top * side < 2**63 else stack.astype(object)
    square = a * a
    cols = np.sort(square.sum(axis=1), axis=1)[:, ::-1].tolist()
    rows = np.sort(square.sum(axis=2), axis=1)[:, ::-1].tolist()
    bits = []
    for c, r, s in zip(cols, rows, ranks.tolist()):
        h2 = min(math.prod(c[: s + 1]), math.prod(r[: s + 1]))
        bits.append((h2.bit_length() + 1) // 2)
    return bits


def _primitive_rows(stack: np.ndarray) -> np.ndarray:
    """An integer (k, p, q) stack with each row divided by the gcd of its
    entries, all-zero rows kept: each block's rank over the rationals is
    the same, a common factor that a prime divides no longer hides a row
    modulo that prime, and the Hadamard bound on the minors shrinks by the
    factors. A stack whose rows have no common factor is returned as it is.
    """
    g = np.gcd.reduce(stack, axis=2, keepdims=True)
    if ((g == 0) | (g == 1)).all():
        return stack
    return stack // np.where(g == 0, 1, g)


def _exact_ranks(stack: np.ndarray) -> tuple[np.ndarray, int]:
    """The rank over the rationals of each block of an integer (k, p, q)
    stack, from its ranks modulo primes, and the number of primes the
    neediest block used. The ranks are those of :func:`_primitive_rows`.

    Every block is ranked mod RANK_PRIME, and a block of full rank n = min(p,
    q) there has it over the rationals (a minor nonzero mod a prime is a
    nonzero integer). A rank mod a prime never exceeds the rank over the
    rationals, so a block's largest rank s seen so far is a lower bound.
    While s < n, the block is settled once its primes, each above 2^30 and
    so counted as 30 bits, multiply past the bound 2^b of
    :func:`_minor_bits` on its (s + 1)-minors: suppose some (s + 1)-minor M
    were nonzero. Every prime used gave rank <= s, so M vanishes mod each of
    them, their product divides M, and |M| >= that product > 2^b > |M|. So
    the rank is s. Otherwise every unsettled block of the stack is ranked,
    in one elimination, modulo the next prime below the last one used (von
    zur Gathen and Gerhard, Modern Computer Algebra, 3rd ed., Sec. 5.5).
    The primes above 2^30 number over 5 * 10^7, so they would run out only
    for a bound past 10^9 bits.
    """
    stack = _primitive_rows(stack)
    n = min(stack.shape[1:])
    prime, used = RANK_PRIME, 1
    ranks = _stack_ranks_mod_p(_residues(stack, prime), prime)
    unsettled = np.flatnonzero(ranks < n)
    while unsettled.size:
        bits = np.array(_minor_bits(stack[unsettled], ranks[unsettled]))
        unsettled = unsettled[bits > 30 * used]
        if not unsettled.size:
            break
        prime, used = _prime_below(prime), used + 1
        seen = _stack_ranks_mod_p(_residues(stack[unsettled], prime), prime)
        ranks[unsettled] = np.maximum(ranks[unsettled], seen)
        unsettled = unsettled[ranks[unsettled] < n]
    return ranks, used


def _as_float_matrix(m: np.ndarray | Coo) -> np.ndarray | Coo:
    """float64 for real-typed input, complex128 otherwise (object entries
    included); real SVD, products and eigensolves are the cheaper ones.
    Input whose dtype already fits is returned as it is, not copied, so no
    caller may write to the result."""
    if isinstance(m, Coo):
        return replace(m, vals=_as_float_matrix(m.vals))
    a = np.asarray(m)
    return a.astype(float if a.dtype.kind in "biuf" else complex, copy=False)


def _singular_values(stacks: list[np.ndarray], size: int) -> tuple[np.ndarray, int]:
    """All ``size`` = min(rows, cols) singular values of a matrix split into
    ``stacks`` by :func:`_blocks`, in descending order, and the number of
    blocks they came from: the blocks' values, one stacked SVD per block
    shape, padded with exact zeros for the structurally missing ones."""
    parts = [np.zeros(0)]
    blocks = 0
    for stack in stacks:
        # a matrix and its transpose have the same singular values, and the
        # SVD of the tall one is the cheaper (32 x 576: 1.2 vs 0.4 ms)
        if stack.shape[1] < stack.shape[2]:
            stack = stack.transpose(0, 2, 1)
        parts.append(np.linalg.svd(stack, compute_uv=False).ravel())
        blocks += stack.shape[0]
    s = np.sort(np.concatenate(parts))[::-1]
    return np.concatenate([s, np.zeros(size - s.size)]), blocks


def _certified_full_rank(
    stacks: list[np.ndarray], shape: tuple[int, int], mode: str, tol: float | None
) -> tuple[list[tuple[np.ndarray, np.ndarray] | None], RankResult | None]:
    """What :func:`_gram_certifies` gives for the ``stacks`` of a matrix of
    this ``shape``, and the matrix's full rank where :meth:`RankResult.proven`
    takes it: exactly, when every stack passes; numerically, when every
    stack passes and the smallest certified sigma_min also clears the
    threshold by BORDERLINE_GAP_RATIO. The RankResult is None otherwise.

    The default threshold is taken at sqrt(max tr G) = max ||block||_F,
    from the traces the certificate computed, which bounds sigma_max from
    above (to rounding).
    """
    certified = _gram_certifies(stacks)
    if None in certified:
        return certified, None
    full = blocks = 0
    bound, largest = math.inf, 0.0
    for (k, p, q), (b, t) in zip((stack.shape for stack in stacks), certified):
        full += k * min(p, q)
        blocks += k
        bound, largest = min(bound, b.min()), max(largest, t.max())
    return certified, RankResult.proven(
        full, mode, "cholesky", blocks, shape, tol, math.sqrt(bound), math.sqrt(largest)
    )


def _whole(a: np.ndarray | Coo) -> np.ndarray | None:
    """A matrix whose short side is in [_SPLIT_MIN_SIDE, _WHOLE_MAX_SIDE] as
    one dense (1, p, q) stack, a :class:`Coo` made dense; None otherwise."""
    if not _SPLIT_MIN_SIDE <= min(a.shape) <= _WHOLE_MAX_SIDE:
        return None
    if isinstance(a, Coo):
        dense = np.zeros(a.shape, dtype=a.vals.dtype)
        dense[a.rows, a.cols] = a.vals
        return dense[None]
    return a[None]


def _threshold(shape: tuple[int, int], sigma_max: float, tol: float | None) -> float:
    """The numerical rank threshold of a matrix of this ``shape``: ``tol``,
    or the default max(rows, cols) * eps * sigma_max."""
    return float(tol) if tol is not None else max(shape) * 2.0**-52 * sigma_max


def _check_tol(tol: float | None, mode: str) -> None:
    """Refuse a ``tol`` that :func:`rank` in this ``mode`` would refuse: one
    that is not a finite number >= 0, and any in exact mode."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if mode == "exact" and tol is not None:
        raise ValueError("exact rank has no threshold: tol applies to numerical rank only")


def rank(m: np.ndarray | Coo, mode: str = "numerical", tol: float | None = None) -> RankResult:
    """Matrix rank of a dense matrix or a :class:`Coo`, by one skeleton for
    both modes; the mode enters only in the conversion, in the margin a
    numerical certificate must clear and in the fallback.

    Conversion: exactly, entries that are integers or Fractions by
    construction, as int64 where every entry fits and Python ints otherwise;
    numerically, float64 for real input and complex128 otherwise, every
    entry finite. Numerically a ``tol`` that is not a finite number >= 0
    raises ValueError; exactly every ``tol`` does, since exact rank has no
    threshold to set. The input is never written to. A matrix
    with no nonzero entry has rank 0 and no block, and runs no engine (its
    engine reads "cholesky" exactly and "svd" numerically).

    Certificate (:func:`_certified_full_rank`): a matrix whose smaller side n
    is from _SPLIT_MIN_SIDE to _WHOLE_MAX_SIDE is offered whole, as one dense
    stack; if that proves it, the rank is n from one block. Otherwise the
    matrix is split into the independent diagonal blocks of its nonzero
    pattern, a permutation of rows and columns that changes no rank or
    singular value, so the rank is the sum of the blocks'; their stacks are
    offered unless the split gave back the whole matrix already offered, so
    no stack is offered twice. A deficient or graded matrix in that window
    pays one failed certificate more than the split alone (~90 us at 64 x 72
    on a 2-core machine). The rank is the split's either way, and so is the
    engine, except numerically where a block of small norm misses the
    tenfold margin by its own certified bound, taken at its own tr G, while
    the whole matrix's bound, taken at the whole tr G, clears it.

    Fallback, numerically: the count of singular values strictly above the
    threshold, ``tol`` or max(rows, cols) * eps * sigma_max of the whole
    matrix, from one stacked SVD per block shape on every stack, on the tall
    orientation and in real arithmetic for real input; the blocks' values,
    padded with exact zeros to min(rows, cols), are the whole matrix's.
    Exactly: each stack the certificate did not prove, each row divided by
    the gcd of its entries, is ranked mod RANK_PRIME by one inverse-free
    elimination, and a block deficient there
    mod the next primes below it, until they multiply past the Hadamard
    bound on its minors taken from its integer entries (:func:`_exact_ranks`).
    """
    _check_tol(tol, mode)
    if mode == "exact":
        a = _integer_matrix(m)
    elif mode == "numerical":
        if len(np.shape(m)) != 2:
            raise ValueError("rank expects a 2-d matrix")
        a = _as_float_matrix(m)
        if not np.isfinite(_entries(a)).all():
            raise ValueError("numerical rank requires finite entries")
    else:
        raise ValueError("mode must be 'exact' or 'numerical'")
    stacks: list[np.ndarray] = []
    certified: list = []
    if np.count_nonzero(_entries(a)):
        whole = _whole(a)
        if whole is not None:
            certified, proven = _certified_full_rank([whole], a.shape, mode, tol)
            if proven is not None:
                return proven
        stacks = _blocks(a if whole is None else whole[0], symmetric=False)
        if whole is None or [s.shape for s in stacks] != [whole.shape]:
            certified, proven = _certified_full_rank(stacks, a.shape, mode, tol)
            if proven is not None:
                return proven
    if mode == "numerical":
        s, blocks = _singular_values(stacks, min(a.shape))
        smax = float(s[0]) if s.size else 0.0
        threshold = _threshold(a.shape, smax, tol)
        kept = s[s > threshold]
        discarded = s[s <= threshold]
        return RankResult(
            rank=int(kept.size),
            mode=mode,
            engine="svd",
            smallest_kept_singular_value=float(kept[-1]) if kept.size else None,
            threshold=threshold,
            largest_discarded_singular_value=float(discarded[0]) if discarded.size else None,
            blocks=blocks,
        )
    total = blocks = primes = 0
    for stack, proof in zip(stacks, certified):
        blocks += stack.shape[0]
        if proof is not None:
            total += stack.shape[0] * min(stack.shape[1:])
            continue
        ranks, used = _exact_ranks(stack)
        total += int(ranks.sum())
        primes = max(primes, used)
    if not primes:
        return RankResult(rank=total, mode=mode, engine="cholesky", blocks=blocks)
    return RankResult(
        rank=total, mode=mode, engine="mod-p", prime=RANK_PRIME, primes=primes, blocks=blocks
    )


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize a matrix to the package JSON format.

    Complex matrices store entries as row-major [re, im] pairs; exact
    matrices store entries as "p/q" strings.
    """
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.dtype == object:
        entries: list = [str(x) if type(x) is int else str(_to_fraction(x)) for x in a.flat]
    else:
        # the float64 view of a C-ordered complex128 array holds the
        # row-major (re, im) pairs bit for bit; astype alone keeps F order
        entries = np.ascontiguousarray(a, dtype=complex).view(float).reshape(-1, 2).tolist()
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), "entries": entries}


def json_fields(
    obj: dict, kind: str, first: str, second: str, items: str
) -> tuple[int, int, list]:
    """The integer fields ``first`` and ``second`` and the list ``items`` of a
    JSON object; a missing field, a boolean or non-integral size, or items
    that are not a list raise ValueError."""
    try:
        sizes, seq = (obj[first], obj[second]), obj[items]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{kind} JSON needs {first!r}, {second!r} and {items!r}") from exc
    for key, value in zip((first, second), sizes):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{kind} JSON {key!r} must be an integer, got {type(value).__name__}")
    if not isinstance(seq, (list, tuple)):
        raise ValueError(f"{kind} JSON {items!r} must be a list, got {type(seq).__name__}")
    return int(sizes[0]), int(sizes[1]), seq


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the matrix JSON format; the inverse of :func:`matrix_to_json`."""
    nrows, ncols, entries = json_fields(obj, "matrix", "rows", "cols", "entries")
    if nrows < 1 or ncols < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(entries) != nrows * ncols:
        raise ValueError(f"expected {nrows * ncols} entries, got {len(entries)}")
    if all(isinstance(e, str) for e in entries):
        out = np.empty(nrows * ncols, dtype=object)
        try:
            out[:] = [_parse_rational(e) for e in entries]
        except ZeroDivisionError as exc:
            raise ValueError(f"rational entry with a zero denominator: {exc}") from exc
        return out.reshape(nrows, ncols)
    for idx, e in enumerate(entries):
        pair = isinstance(e, (list, tuple)) and len(e) == 2
        # JSON's true and false are not the numbers 1 and 0
        if not pair or not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in e):
            raise ValueError(f"entry {idx} is neither a [re, im] pair of numbers nor a rational string")
    try:
        pairs = np.array(entries, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"complex entries must be numeric [re, im] pairs: {exc}") from exc
    if pairs.shape != (nrows * ncols, 2):
        raise ValueError("complex entries must be [re, im] pairs of numbers")
    # (re, im) float64 pairs are complex128 in memory, so the view is bit-exact
    return pairs.view(complex).reshape(nrows, ncols)


def _parse_rational(text: str) -> Fraction:
    """Fraction(text), through int() when the text is a signed run of digits.

    int() is 3-4x cheaper, but it also takes forms such as "1_000" that
    Fraction rejects on some Python versions, so only plain integer text
    takes that path.
    """
    body = text.strip()
    if body[:1] in "+-":
        body = body[1:]
    return Fraction(int(text)) if body.isdecimal() else Fraction(text)
