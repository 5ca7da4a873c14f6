"""Complex matrix utilities, for dense matrices and sparse (:class:`Coo`) ones.

Partial trace and partial transpose over a bipartite splitting, Hermitian
eigenvalues, and matrix rank in two modes. Both start from one routine, a
verified Cholesky factorisation of each block's Gram less a rounding shift,
which proves full rank when it completes. Numerical rank counts singular
values above an explicit threshold: a large enough float matrix whose
blocks that factorisation certifies with a margin of BORDERLINE_GAP_RATIO
over the threshold has its full rank proven, and the SVD ranks every other
one. For matrices that are rational by construction, exact rank certifies
full rank from the exact Gram, elimination modulo a prime ranks what that
cannot, and fraction-free elimination over the integers confirms a
deficient rank.

Rank and the minimum eigenvalue split a matrix into the connected
components of its nonzero pattern. The span and Choi matrices of the
built-in families are sparse and graded, so they fall apart into many small
independent blocks. The split is exact: permuting rows and columns into
block-diagonal form leaves singular values and eigenvalues unchanged, the
singular values of a block-diagonal matrix are those of its blocks (plus
zeros up to the smaller side), and its eigenvalues are those of its blocks.
A matrix with no nonzero entry has no block and rank 0. Rank first offers a
matrix whose smaller side is from 48 to 120 (numerically, one of at least
_CERTIFY_MIN_ENTRIES entries) to the certificate whole, made dense if it is
a :class:`Coo`: at that size one Gram and one Cholesky cost less than the
split, and a matrix proven of full rank is never split. Blocks of one shape
are solved together, and rank runs on the short side in both modes. The
certificate works once per matrix: one range check over all its float
blocks, and one Cholesky call on the shifted short-side Grams of all its
blocks with the same short side; no stack is offered to it twice.
Numerically, unless it proves the whole matrix, one stacked SVD per shape
runs on the tall orientation; exactly, a stack it cannot certify goes to
one inverse-free elimination modulo the prime over all the stack's rows,
which takes the nonzero columns sparsest first to limit fill-in and stops
once every row has been a pivot. Integer arrays enter exact rank as they
are; only object arrays are converted, and an int64 stack whose entries are
already residues mod the prime is not reduced again.

A matrix may also be given as its nonzero entries, a :class:`Coo`. One
gatherer labels the components of either input from its nonzero entries (a
dense matrix is first scanned for them) by hooking roots and compressing
trees, numbers them from the roots without a sort, and scatters the values
into the stacked dense blocks in one pass, every stack a view of one flat
buffer, so a sparse matrix is densified as a whole only when rank offers it
to the certificate whole.
:func:`group_pairs` and :meth:`Coo.from_terms` build such a matrix from
products of entry pairs, which is how the block-vector span and the
partial-transposed Choi matrix of a sparse Kraus family are made
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
# Largest prime below 2^31: residues are < 2^31, so a product of two is
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
# A float matrix with at least this many entries offers its blocks to the
# verified Cholesky certificate of their Grams before the SVD. A failed
# attempt is paid on top of the SVD: on a 2-core machine it cost 35-45% of
# the SVD at 36 x 32, 17-25% at 64 x 64 and 12-24% at 32 x 576 (real and
# complex, one block), while a passed one replaces the SVD at 15-40% of its
# cost from 64 x 64 up. The random families' spans, at most 36 x 32 and
# often deficient, stay below; the irrational built-ins' spans from rank8-66
# (64 x 72) up and the Kraus vectors of rank8k (24 x 324, 32 x 576) are above.
_CERTIFY_MIN_ENTRIES = 4096
# The block-vector span and the partial-transposed Choi matrix of a Kraus
# family are built from the operators' nonzero entries, as a Coo, only where
# the dense matrix would be split into blocks anyway (smaller side at least
# _SPLIT_MIN_SIDE, and for the span above _WHOLE_MAX_SIDE, under which rank
# takes the dense span whole) and holds at least _COO_ENTRIES_PER_TERM
# entries per product of two nonzero entries that the sparse build sums. On
# a 2-core machine is_extremal took, dense vs sparse: ohno-d 12 (144 x 288,
# 126 entries per product) 1.63 vs 0.70 ms, rank8k 3 (114) 10.5 vs 1.5 ms,
# rank8k 4 (206) 25.6 vs 2.1 ms; under the split side the dense path labels
# nothing and wins (ohno-d 5: 0.12 vs 0.34 ms). From 8 to 30 entries per
# product, sparse random families were within +-10% either way.
_COO_ENTRIES_PER_TERM = 32
# Integer (exact) spans cross over earlier: the dense build is int64 batched
# matmuls, which numpy runs without BLAS, and the dense span must then be
# scanned for its nonzero pattern. On a 2-core machine is_extremal took,
# dense vs sparse: paper 5 6 (121 x 145, 20.1 entries per product) 0.99 vs
# 0.89 ms, paper 6 8 (27.1) 2.18 vs 1.06 ms, paper 7 10 (34.2) 4.68 vs
# 1.28 ms; sparse integer families in [-2, 2] at 5-14 entries per product
# were 6-24% slower sparse.
_COO_INT_ENTRIES_PER_TERM = 16

__all__ = [
    "BORDERLINE_GAP_RATIO",
    "HERMITIAN_ATOL",
    "RANK_PRIME",
    "Coo",
    "RankResult",
    "coo_is_cheaper",
    "direct_sum",
    "group_pairs",
    "integer_entries",
    "json_fields",
    "matrix_from_json",
    "matrix_to_json",
    "min_eigenvalue",
    "partial_trace",
    "partial_transpose",
    "rank",
    "rational_matrix",
    "vec",
]


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(m).reshape(-1, order="F")


def direct_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Block-diagonal direct sum a (+) b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def _bipartite_view(m: np.ndarray, d1: int, d2: int) -> np.ndarray:
    a = _as_float_matrix(m)
    if d1 < 1 or d2 < 1:
        raise ValueError("subsystem dimensions must be positive")
    side = d1 * d2
    if a.ndim != 2 or a.shape != (side, side):
        raise ValueError(f"expected a square matrix of side {d1}*{d2}={side}, got shape {a.shape}")
    return a.reshape(d1, d2, d1, d2)


def partial_trace(m: np.ndarray, d1: int, d2: int, sub: str) -> np.ndarray:
    """Trace out the named subsystem of a matrix on a d1 (x) d2 space.

    ``sub="first"`` returns the d2 x d2 reduction, ``sub="second"`` the
    d1 x d1 reduction. The full trace is preserved: tr(result) = tr(m).
    """
    t = _bipartite_view(m, d1, d2)
    if sub == "second":
        return np.einsum("iaja->ij", t)
    if sub == "first":
        return np.einsum("aiaj->ij", t)
    raise ValueError("sub must be 'first' or 'second'")


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


def coo_is_cheaper(
    shape: tuple[int, int], count_terms: Callable[[], int], dtype: np.dtype
) -> bool:
    """Whether a matrix of this shape is cheaper to build as a :class:`Coo`,
    summed from ``count_terms()`` products of nonzero entries of this
    ``dtype``, than densely.

    Integer entries (int64 or Python ints) cross over at fewer dense entries
    per product than floating-point ones. ``count_terms`` runs only when the
    shape alone does not decide.
    """
    if min(shape) < _SPLIT_MIN_SIDE:
        return False
    floating = np.dtype(dtype).kind in "fc"
    per_term = _COO_ENTRIES_PER_TERM if floating else _COO_INT_ENTRIES_PER_TERM
    return shape[0] * shape[1] >= per_term * count_terms()


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
    a = _as_float_matrix(h)
    if len(a.shape) != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("the empty (0 x 0) matrix has no eigenvalue")
    if not np.isfinite(_entries(a)).all():
        raise ValueError("matrix entries must be finite (no NaN or inf)")
    smallest = math.inf
    for b in _blocks(a, symmetric=True):
        adj = b.conj().transpose(0, 2, 1)
        dev = float(np.abs(b - adj).max())
        if dev > atol:
            raise ValueError(f"matrix is not Hermitian within {atol:g} (deviation {dev:.3e})")
        smallest = min(smallest, float(np.linalg.eigvalsh((b + adj) / 2)[:, 0].min()))
    return smallest


@dataclass(frozen=True)
class RankResult:
    """Rank of a matrix together with the evidence behind the verdict.

    In numerical mode the gap data (smallest kept and largest discarded
    singular value against the threshold) makes borderline calls auditable.
    Exact mode carries no singular-value data. ``engine`` names what
    decided the rank. Numerical: "svd", or "cholesky" when a verified
    Cholesky factorisation of every block's shifted float Gram proved the
    full rank; then ``smallest_kept_singular_value`` is a certified lower
    bound on the smallest singular value, not the value itself, and
    ``threshold`` is the threshold that bound cleared by
    BORDERLINE_GAP_RATIO: ``tol``, or the default one taken at an upper
    bound on sigma_max, at least the SVD's. Exact: the strongest engine that
    some block needed: "cholesky" (every block of full rank by a verified
    Cholesky factorisation of its exact Gram), "mod-p" (every other block of
    full rank modulo ``prime``, the one engine that sets it) or "bareiss"
    (exact elimination over the integers for at least one block).
    ``blocks`` counts the independent diagonal blocks of the nonzero pattern
    that were ranked, and the rank is the sum of theirs; it is 1 when the
    whole matrix was certified as one block without a split, and 0 for a
    matrix with no nonzero entry, which runs no engine and reports
    "cholesky" exactly and "svd" numerically.
    """

    rank: int
    mode: str
    engine: str
    smallest_kept_singular_value: float | None = None
    threshold: float | None = None
    largest_discarded_singular_value: float | None = None
    prime: int | None = None
    blocks: int = 1

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
            "smallest_kept_singular_value": self.smallest_kept_singular_value,
            "threshold": self.threshold,
            "largest_discarded_singular_value": self.largest_discarded_singular_value,
            "blocks": int(self.blocks),
        }


def rational_matrix(rows: object) -> np.ndarray:
    """Build an exact matrix (object array of Fraction) from nested data.

    Accepts int, Fraction and "p/q" string entries.
    """
    data = [[_to_fraction(x) for x in row] for row in rows]
    if not data or not data[0]:
        raise ValueError("rational matrix needs at least one row and column")
    ncols = len(data[0])
    if any(len(row) != ncols for row in data):
        raise ValueError("rows have inconsistent lengths")
    out = np.empty((len(data), ncols), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out


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


def _gram_certifies(stacks: list[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray] | None]:
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
        # real and imaginary parts side by side; NaN fails the first test
        flat = [s.reshape(-1) for s in stacks]
        parts = np.abs((flat[0] if len(flat) == 1 else np.concatenate(flat)).view(np.float64))
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
        diag -= shift[:, None]
        out[i] = (shift / 2, trace)
        grams.setdefault(n, []).append((i, gram))
    for group in grams.values():
        batch = [g for _, g in group]
        try:
            np.linalg.cholesky(batch[0] if len(batch) == 1 else np.concatenate(batch))
        except np.linalg.LinAlgError:
            for i, _ in group:
                out[i] = None
    return out


def _stack_ranks_mod_p(stack: np.ndarray) -> np.ndarray:
    """Rank over GF(RANK_PRIME) of each block of a (k, p, q) stack of int64
    residues in [0, RANK_PRIME), by one inverse-free elimination over all
    k * p rows. The stack itself is never written to.

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
    ``piv * row - a_rc * pivot_row`` mod RANK_PRIME. The pivot is a unit mod
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
            ) % RANK_PRIME
        a[piv] = 0
    if not pivots:
        return np.zeros(k, dtype=np.int64)
    return np.bincount(np.concatenate(pivots) // p, minlength=k)


def _residues(stack: np.ndarray) -> np.ndarray:
    """The stack's entries mod RANK_PRIME as int64; an int64 stack already in
    [0, RANK_PRIME) is returned as it is, not reduced again."""
    if stack.dtype == np.int64 and stack.min(initial=0) >= 0 and stack.max(initial=0) < RANK_PRIME:
        return stack
    return (stack % RANK_PRIME).astype(np.int64, copy=False)


def _bareiss_rank(rows: list[list[int]]) -> int:
    """Rank by fraction-free (Bareiss) elimination over the integers."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank_ = 0
    prev = 1
    row = 0
    for col in range(n_cols):
        piv = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        p = m[row][col]
        for r in range(row + 1, n_rows):
            mr = m[r]
            f = mr[col]
            if f == 0 and p == prev:
                continue
            top = m[row]
            for c in range(col + 1, n_cols):
                mr[c] = (p * mr[c] - f * top[c]) // prev
            mr[col] = 0
        prev = p
        row += 1
        rank_ += 1
        if row == n_rows:
            break
    return rank_


def _as_float_matrix(m: np.ndarray | Coo) -> np.ndarray | Coo:
    """float64 for real-typed input, complex128 otherwise (object entries
    included); real SVD, products and eigensolves are the cheaper ones."""
    if isinstance(m, Coo):
        return replace(m, vals=_as_float_matrix(m.vals))
    a = np.asarray(m)
    return a.astype(float if a.dtype.kind in "biuf" else complex)


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
    stacks: list[np.ndarray], shape: tuple[int, int], tol: float | None
) -> RankResult | None:
    """The numerical RankResult of a float matrix split into ``stacks``
    when :func:`_gram_certifies` proves every block of full rank and the
    smallest certified sigma_min clears the threshold by BORDERLINE_GAP_RATIO;
    None otherwise, and the SVD decides.

    The threshold is ``tol``, or the default max(rows, cols) * eps * sigma_max
    taken at sqrt(max tr G) = max ||block||_F, from the traces the
    certificate computed, which bounds sigma_max from above (to rounding).
    The result is the one the SVD would give: every block's singular values
    lie above the threshold, and only the structural zeros up to
    min(rows, cols) are discarded.
    """
    certified = _gram_certifies(stacks)
    if not certified or any(c is None for c in certified):
        return None
    if tol is None:
        largest = max(float(trace.max()) for _, trace in certified)
        threshold = max(shape) * float(np.finfo(float).eps) * math.sqrt(largest)
    else:
        threshold = float(tol)
    smallest = math.sqrt(min(float(bound.min()) for bound, _ in certified))
    if smallest < BORDERLINE_GAP_RATIO * threshold:
        return None
    full = sum(stack.shape[0] * min(stack.shape[1:]) for stack in stacks)
    return RankResult(
        rank=full,
        mode="numerical",
        engine="cholesky",
        smallest_kept_singular_value=smallest,
        threshold=threshold,
        largest_discarded_singular_value=0.0 if full < min(shape) else None,
        blocks=sum(stack.shape[0] for stack in stacks),
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


def _split(a: np.ndarray | Coo, whole: np.ndarray | None) -> tuple[list[np.ndarray], bool]:
    """The stacks :func:`_blocks` splits ``a`` into (its dense ``whole`` when
    one was made), and whether they are still to be offered to the
    certificate: not when they are the ``whole`` matrix, already offered."""
    stacks = _blocks(a if whole is None else whole[0], symmetric=False)
    return stacks, whole is None or [s.shape for s in stacks] != [whole.shape]


def rank(m: np.ndarray | Coo, mode: str = "numerical", tol: float | None = None) -> RankResult:
    """Matrix rank of a dense matrix or a :class:`Coo`.

    A matrix with no nonzero entry has rank 0 and no block, and runs no
    engine. A matrix whose smaller side n is from _SPLIT_MIN_SIDE to
    _WHOLE_MAX_SIDE (numerically, one of at least _CERTIFY_MIN_ENTRIES
    entries) is first offered whole, as one dense stack, to the certificate
    below; if that proves it, the result is the full rank n from one block.
    Otherwise the matrix is split into the independent diagonal blocks of
    its nonzero pattern (rows and columns joined by nonzero entries);
    permuting rows and columns changes no rank or singular value, so the
    rank is the sum of the blocks' ranks. The blocks then take the steps
    below, but a split that gives back the whole matrix already offered is
    not offered again; so a deficient or graded matrix in that window pays
    one failed certificate more than the split alone (~90 us at 64 x 72 on
    a 2-core machine). The rank is the split's either way, and so is the
    engine, except numerically where a block of small norm misses the
    tenfold margin by its own certified bound, taken at its own tr G, while
    the whole matrix's bound, taken at the whole tr G, clears it.

    numerical: count of singular values strictly above the threshold, which
    is ``tol`` when given and otherwise max(rows, cols) * eps * sigma_max of
    the whole matrix. A matrix of at least _CERTIFY_MIN_ENTRIES entries
    offers its block stacks to :func:`_gram_certifies`, the verified
    Cholesky factorisation of their shifted float Grams; when every stack
    passes and the smallest certified sigma_min is at least
    BORDERLINE_GAP_RATIO times the threshold (taken at sigma_max <= sqrt of
    the largest block's tr G when ``tol`` is not given), every block is
    proven to have full rank above the threshold, and the result is the
    full rank with engine "cholesky" (:func:`_certified_full_rank`).
    Otherwise the blocks' singular values, padded with exact zeros to
    min(rows, cols) values, are the whole matrix's; one stacked SVD per
    block shape runs on the tall orientation (the transpose has the same
    singular values), in real arithmetic when the input is real.
    exact: requires entries that are integers or Fractions by construction,
    converted to int64 at once where every entry fits. The int64 blocks of
    each short side first go to one Cholesky call on their exact Grams less
    a rounding shift (:func:`_gram_certifies`); if it completes, each of
    those blocks has full rank. A stack it cannot certify is ranked mod RANK_PRIME
    by one inverse-free elimination over the whole stack; a full rank there
    is a full rank over the rationals (a nonzero minor mod p is a nonzero
    integer), so it is certified as is. A stack is reduced mod RANK_PRIME
    first unless it is int64 with every entry in [0, RANK_PRIME). A
    deficient rank mod p may be an artefact of the prime, so that block is
    settled by fraction-free (Bareiss) elimination over its integer
    entries, never its residues. The input is never written to.
    A ``tol`` that is not a finite number >= 0 raises ValueError in both modes.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if mode == "exact":
        a = _integer_matrix(m)
        if not np.count_nonzero(_entries(a)):
            return RankResult(rank=0, mode="exact", engine="cholesky", blocks=0)
        whole = _whole(a)
        if whole is not None and _gram_certifies([whole])[0] is not None:
            return RankResult(rank=min(a.shape), mode="exact", engine="cholesky", blocks=1)
        stacks, again = _split(a, whole)
        total = blocks = needed = 0
        certificates = _gram_certifies(stacks) if again else [None]
        for stack, certified in zip(stacks, certificates):
            full = min(stack.shape[1:])
            blocks += stack.shape[0]
            if certified is not None:
                total += stack.shape[0] * full
                continue
            needed = max(needed, 1)
            ranks = _stack_ranks_mod_p(_residues(stack))
            for i in np.flatnonzero(ranks < full).tolist():
                ranks[i] = _bareiss_rank(stack[i].tolist())
                needed = 2
            total += int(ranks.sum())
        # the strongest engine that any stack needed
        engine = ("cholesky", "mod-p", "bareiss")[needed]
        prime = RANK_PRIME if engine == "mod-p" else None
        return RankResult(rank=total, mode="exact", engine=engine, prime=prime, blocks=blocks)
    if mode != "numerical":
        raise ValueError("mode must be 'exact' or 'numerical'")
    if len(np.shape(m)) != 2:
        raise ValueError("rank expects a 2-d matrix")
    a = _as_float_matrix(m)
    if not np.isfinite(_entries(a)).all():
        raise ValueError("numerical rank requires finite entries")
    stacks = []
    if np.count_nonzero(_entries(a)):
        offer = a.shape[0] * a.shape[1] >= _CERTIFY_MIN_ENTRIES
        whole = _whole(a) if offer else None
        if whole is not None:
            certified = _certified_full_rank([whole], a.shape, tol)
            if certified is not None:
                return certified
        stacks, again = _split(a, whole)
        if offer and again:
            certified = _certified_full_rank(stacks, a.shape, tol)
            if certified is not None:
                return certified
    s, blocks = _singular_values(stacks, min(a.shape))
    smax = float(s[0]) if s.size else 0.0
    threshold = float(tol) if tol is not None else max(a.shape) * np.finfo(float).eps * smax
    kept = s[s > threshold]
    discarded = s[s <= threshold]
    return RankResult(
        rank=int(kept.size),
        mode="numerical",
        engine="svd",
        smallest_kept_singular_value=float(kept[-1]) if kept.size else None,
        threshold=threshold,
        largest_discarded_singular_value=float(discarded[0]) if discarded.size else None,
        blocks=blocks,
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
