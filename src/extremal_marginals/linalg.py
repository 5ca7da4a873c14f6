"""Complex matrix utilities, for dense matrices and sparse (:class:`Coo`) ones.

Partial trace and partial transpose over a bipartite splitting, Hermitian
eigenvalues, and matrix rank in two modes: floating-point SVD against an
explicit singular-value threshold, and, for matrices that are rational by
construction, exact rank by elimination modulo a prime with fraction-free
elimination over the integers to confirm a deficient rank.

Rank and the minimum eigenvalue first split a matrix into the connected
components of its nonzero pattern. The span and Choi matrices of the
built-in families are sparse and graded, so they fall apart into many small
independent blocks. The split is exact: permuting rows and columns into
block-diagonal form leaves singular values and eigenvalues unchanged, the
singular values of a block-diagonal matrix are those of its blocks (plus
zeros up to the smaller side), and its eigenvalues are those of its blocks.
Blocks of one shape are solved together, and rank runs on the short side in
both modes: numerically in one stacked LAPACK call on the tall orientation,
exactly in one inverse-free elimination modulo the prime over all the
stack's rows, which takes the nonzero columns sparsest first to limit
fill-in and stops once every row has been a pivot. A stack of one block is
eliminated in place, pivot by scalar pivot. Integer arrays enter exact rank
as they are; only object arrays are converted, and an int64 stack whose
entries are already residues mod the prime is not reduced again.

A matrix may also be given as its nonzero entries, a :class:`Coo`. One
gatherer labels the components of either input from its nonzero entries
(a dense matrix is first scanned for them) and scatters the values into the
stacked dense blocks, so a sparse matrix is never densified as a whole.
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
from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

HERMITIAN_ATOL = 1e-12
# Largest prime below 2^31: residues are < 2^31, so a product of two is
# < 2^62 and modular elimination never overflows int64.
RANK_PRIME = 2**31 - 1
# A matrix whose smaller side is below this is ranked or eigensolved as one
# block: on a 2-core machine labelling the nonzero pattern of a 48 x 54
# matrix takes ~120 us, about what the dense SVD it could save takes (~175 us).
_SPLIT_MIN_SIDE = 48
# The block-vector span and the partial-transposed Choi matrix of a Kraus
# family are built from the operators' nonzero entries, as a Coo, only where
# the dense matrix would be split into blocks anyway (smaller side at least
# _SPLIT_MIN_SIDE) and holds at least _COO_ENTRIES_PER_TERM entries per
# product of two nonzero entries that the sparse build sums. On a 2-core
# machine is_extremal took, dense vs sparse: rank8-66 (17 entries per
# product) 0.32 vs 0.35 ms, ohno-d 8 (53) 0.61 vs 0.36 ms, rank8k 4 (206)
# 14.8 vs 2.4 ms; under the split side the dense path labels nothing and
# wins (ohno-d 5: 0.12 vs 0.34 ms). From 8 to 30 entries per product,
# sparse random families were within +-10% either way.
_COO_ENTRIES_PER_TERM = 32
# Integer (exact) spans cross over earlier: the dense build is int64 batched
# matmuls, which numpy runs without BLAS, and the dense span must then be
# scanned for its nonzero pattern. On a 2-core machine, building the exact
# span and gathering its blocks took, dense vs sparse: paper 4 4 (13.3
# entries per product) 0.51 vs 0.52 ms, paper 5 6 (20.1) 0.95 vs 0.66 ms,
# paper 6 8 (27.1) 1.86 vs 0.81 ms, paper 7 10 (34.2) 3.60 vs 1.05 ms;
# sparse integer families in [-2, 2] at 5-14 entries per product were
# 6-24% slower sparse.
_COO_INT_ENTRIES_PER_TERM = 16

__all__ = [
    "HERMITIAN_ATOL",
    "RANK_PRIME",
    "Coo",
    "RankResult",
    "coo_is_cheaper",
    "direct_sum",
    "group_pairs",
    "integer_entries",
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
    """Connected-component labels of the graph on n nodes with edges (u[k], v[k]).

    Min-label propagation with pointer jumping: each node takes the smallest
    label at either end of its edges, then the label of that label, until
    nothing changes. At the fixed point both ends of every edge agree, and a
    label is the id of a node in its own component, so labels are equal
    within a component and distinct between components.
    """
    lab = np.arange(n)
    while True:
        low = np.minimum(lab[u], lab[v])
        new = lab.copy()
        np.minimum.at(new, u, low)
        np.minimum.at(new, v, low)
        new = new[new]
        if np.array_equal(new, lab):
            return lab
        lab = new


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
    (zero rows and zero columns) hold no entry and are left out. A dense
    matrix under the size crossover or without a zero entry is one block, a
    view; any other dense matrix goes through its nonzero entries, as a
    :class:`Coo` does.
    """
    if not isinstance(m, Coo):
        if min(m.shape) < _SPLIT_MIN_SIDE:
            return [m[None]]
        pattern = m != 0
        if pattern.all():
            return [m[None]]
        u, v = np.nonzero(pattern)
        m = Coo(u, v, m[u, v], m.shape)
    n_rows, n_cols = m.shape
    u, v = m.rows, m.cols
    if symmetric:
        ids, row_comp = np.unique(_labels(u, v, n_rows), return_inverse=True)
        col_comp = row_comp
    else:
        ids, comp = np.unique(_labels(u, v + n_rows, n_rows + n_cols), return_inverse=True)
        row_comp, col_comp = comp[:n_rows], comp[n_rows:]
    n_comps = ids.size
    p = np.bincount(row_comp, minlength=n_comps)
    q = np.bincount(col_comp, minlength=n_comps)
    row_pos = _positions(row_comp, p)
    col_pos = row_pos if symmetric else _positions(col_comp, q)
    live = (p > 0) & (q > 0)
    # live component c is block slot[c] of stack[c], the stack of its shape
    shapes, live_stack = np.unique(p[live] * (n_cols + 1) + q[live], return_inverse=True)
    count = np.bincount(live_stack, minlength=shapes.size)
    stack = np.full(n_comps, -1)
    stack[live] = live_stack
    slot = np.zeros(n_comps, dtype=np.int64)
    slot[live] = _positions(live_stack, count)
    entry_comp = row_comp[u]
    entry_stack = stack[entry_comp]
    stacks = []
    for s, key in enumerate(shapes.tolist()):
        out = np.zeros((int(count[s]), *divmod(key, n_cols + 1)), dtype=m.vals.dtype)
        sel = entry_stack == s
        out[slot[entry_comp[sel]], row_pos[u[sel]], col_pos[v[sel]]] = m.vals[sel]
        stacks.append(out)
    return stacks


def _positions(group: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each item's position among the items of its group, in index order."""
    order = np.argsort(group, kind="stable")
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
    decided the rank: "svd" (numerical), "mod-p" (exact, every block of full
    rank modulo ``prime``, all blocks of one shape ranked by one stacked
    elimination) or "bareiss" (exact elimination over the integers for at
    least one block).
    ``blocks`` counts the independent diagonal blocks of the nonzero pattern
    that were ranked; the rank is the sum of theirs.
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
    return integer_entries(a).reshape(a.shape)


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
    the shift spans' blocks either. A stack of one block (k = 1) goes to
    :func:`_block_rank_mod_p`, the same elimination without the grouping of
    rows by block.
    """
    k, p, q = stack.shape
    a = stack.reshape(k * p, q)
    filled = np.count_nonzero(a, axis=0)
    order = np.argsort(filled, kind="stable")
    # a fancy-indexed copy, so the elimination never writes to the caller's stack
    a = a[:, order[filled[order] > 0]]
    if k == 1:
        return np.array([_block_rank_mod_p(a)])
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


def _block_rank_mod_p(a: np.ndarray) -> int:
    """The elimination of :func:`_stack_ranks_mod_p` for a single block,
    on its own ordered copy ``a``, which it overwrites.

    With one block the pivot is a row and its entries are scalars, so each
    step counts the pivot, updates the gathered target rows in place and
    clears the pivot row by index, with no per-step pivot arrays or
    broadcasts over them. On a 2-core machine the 73 x 121 block of the
    exact ``shift_family(7, 10)`` span ranks in ~1.0 ms instead of ~1.25 ms.
    """
    n_rows = a.shape[0]
    rank_ = 0
    for c in range(a.shape[1]):
        rows = a[:, c].nonzero()[0]
        if rows.size == 0:
            continue
        rank_ += 1
        if rank_ == n_rows:
            break
        src = rows[0]
        if rows.size > 1:
            tgt = rows[1:]
            t = a[tgt, c + 1 :]
            t *= a[src, c]
            t -= a[tgt, c, None] * a[src, c + 1 :]
            t %= RANK_PRIME
            a[tgt, c + 1 :] = t
        a[src] = 0
    return rank_


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


def _singular_values(a: np.ndarray | Coo) -> tuple[np.ndarray, int]:
    """All min(rows, cols) singular values of ``a`` in descending order, and the
    number of blocks they came from: the blocks' values, one stacked SVD per
    block shape, padded with exact zeros for the structurally missing ones."""
    parts = [np.zeros(0)]
    blocks = 0
    for stack in _blocks(a, symmetric=False):
        # a matrix and its transpose have the same singular values, and the
        # SVD of the tall one is the cheaper (32 x 576: 1.2 vs 0.4 ms)
        if stack.shape[1] < stack.shape[2]:
            stack = stack.transpose(0, 2, 1)
        parts.append(np.linalg.svd(stack, compute_uv=False).ravel())
        blocks += stack.shape[0]
    s = np.sort(np.concatenate(parts))[::-1]
    return np.concatenate([s, np.zeros(min(a.shape) - s.size)]), blocks


def rank(m: np.ndarray | Coo, mode: str = "numerical", tol: float | None = None) -> RankResult:
    """Matrix rank of a dense matrix or a :class:`Coo`.

    The matrix is first split into the independent diagonal blocks of its
    nonzero pattern (rows and columns joined by nonzero entries); permuting
    rows and columns changes no rank or singular value, so the rank is the
    sum of the blocks' ranks.

    numerical: count of singular values strictly above the threshold, which
    is ``tol`` when given and otherwise max(rows, cols) * eps * sigma_max of
    the whole matrix. The blocks' singular values, padded with exact zeros
    to min(rows, cols) values, are the whole matrix's; one stacked SVD per
    block shape runs on the tall orientation (the transpose has the same
    singular values), in real arithmetic when the input is real.
    exact: requires entries that are integers or Fractions by construction,
    converted to int64 at once where every entry fits. The blocks of each
    shape are first ranked mod RANK_PRIME by one inverse-free elimination
    over the whole stack (in place for a single block); a full rank there is
    a full rank over the rationals (a nonzero minor mod p is a nonzero
    integer), so it is certified as is. A stack is reduced mod RANK_PRIME
    first unless it is int64 with every entry in [0, RANK_PRIME), as the
    span of a family of nonnegative integer operators is. A deficient rank
    mod p may be an artefact of the prime, so that block is settled by
    fraction-free (Bareiss) elimination over its integer entries, never its
    residues, and the engine is "bareiss". The input is never written to.
    A ``tol`` that is not a finite number >= 0 raises ValueError in both modes.
    """
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if mode == "exact":
        total = blocks = 0
        engine = "mod-p"
        for stack in _blocks(_integer_matrix(m), symmetric=False):
            ranks = _stack_ranks_mod_p(_residues(stack))
            for i in np.flatnonzero(ranks < min(stack.shape[1:])).tolist():
                ranks[i] = _bareiss_rank(stack[i].tolist())
                engine = "bareiss"
            total += int(ranks.sum())
            blocks += stack.shape[0]
        prime = RANK_PRIME if engine == "mod-p" else None
        return RankResult(rank=total, mode="exact", engine=engine, prime=prime, blocks=blocks)
    if mode != "numerical":
        raise ValueError("mode must be 'exact' or 'numerical'")
    if len(np.shape(m)) != 2:
        raise ValueError("rank expects a 2-d matrix")
    a = _as_float_matrix(m)
    if not np.all(np.isfinite(_entries(a))):
        raise ValueError("numerical rank requires finite entries")
    s, blocks = _singular_values(a)
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


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse the matrix JSON format; the inverse of :func:`matrix_to_json`."""
    try:
        nrows, ncols, entries = int(obj["rows"]), int(obj["cols"]), obj["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError("matrix JSON needs 'rows', 'cols' and 'entries'") from exc
    if nrows < 1 or ncols < 1:
        raise ValueError("matrix dimensions must be positive")
    if len(entries) != nrows * ncols:
        raise ValueError(f"expected {nrows * ncols} entries, got {len(entries)}")
    if all(isinstance(e, str) for e in entries):
        out = np.empty(nrows * ncols, dtype=object)
        out[:] = [_parse_rational(e) for e in entries]
        return out.reshape(nrows, ncols)
    for idx, e in enumerate(entries):
        if not isinstance(e, (list, tuple)) or len(e) != 2 or e[0] is None or e[1] is None:
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
