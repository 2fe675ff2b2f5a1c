"""Sparse symmetric and triangular matrix kernels.

Storage is deliberately simple and structural, and it is one format:
compressed row storage (CSR), where ``indptr`` delimits each row's slice of
the column-sorted ``indices``/``data`` arrays, the layout
``scipy.sparse.csr_matrix`` shares.

- constraint-row blocks are one CSR row block;
- symmetric matrices keep their upper triangle, diagonal included, as one
  square CSR row block;
- triangular factors keep a dense diagonal vector plus their strictly-upper
  entries as one CSR row block.

Every CSR block is validated once, by whole-array checks, when it is built.
``row_cols``/``row_vals`` give read-only per-row views; no kernel uses them,
the benchmark's trace counters and the tests do.

"Structural" means the stored pattern is the symbolic support produced by
the operation (elimination fill, the pattern unions of an update),
independent of values that happen to cancel to zero.  All three pattern
passes (``cholesky``'s symbolic elimination, the update pattern of
``lowrank_update`` and the fill-path rule of ``sparsify_factor``) read the
stored coordinates alone, so a stored zero is an entry like any other.
Nonzero counts reported elsewhere in the package are counts of stored
entries, so they are exact and reproducible.

The kernels never form a dense n x n matrix (``to_dense`` exists for tests
and small inputs).  ``cholesky`` splits into a symbolic elimination, which
fixes the pattern, and a numeric sparse factorization by SuperLU in the
given order.  The symbolic elimination (``_elimination_fill``, which
``sparsify_factor`` shares) is one array pass when the elimination tree is
a chain, the usual case for a scenario prior and kept tail: then the rows
of each factor column form one contiguous range (Liu 1990).  Other
patterns go through a sweep that builds each row from its own entries and
its elimination-tree children; legal input reaches it, since a scenario
pose at heading exactly 0.0 whitens to exact zeros, which are not stored,
and its prior's tree is then no chain.  ``SparseRowBlock.gram``, the one
Gram kernel (J^T J of constraint rows; R^T R of a factor, through
``UpperTriangular``), takes its pattern from a 0/1 sparse product and its
values from the data product.  Both scatter the numeric product onto the
structural pattern (``_values_on_pattern``, which refuses a coordinate the
pattern lacks).  A factor's Gram count (``UpperTriangular.gram_nnz``) needs
no product when its pattern is fill-closed, as every Cholesky fill is: it
is then its own Gram pattern.

Changing a factor is one panel kernel, ``_fold``: it re-triangularizes
factor rows stacked over extra rows, a panel of consecutive pivot rows per
triangular-pentagonal LAPACK QR (``dtpqrt`` annihilates the stacked rows
under the panel's triangle of factor rows, ``dtpmqrt`` applies the
reflections to the other columns), and carries the rows left over to the
next panel.  Every panel's columns and every scatter and gather position
follow from the patterns, so they are planned before the loop.  Its two
callers fix the stored pattern separately:

- ``lowrank_update`` adds constraint rows to a factor (the multiple-rank
  update of Davis & Hager); its pattern pass follows the groups of update
  rows up the factor, each carrying only the columns that the rows it
  reaches do not already store, and forms every reached row in one array
  merge at the end.
- ``sparsify_factor`` reorders a factor so that selected scalars come
  first and cuts their rows to the diagonal, without re-forming the
  information matrix (Elimelech & Indelman, RA-L 2021): the kept rows that
  the reordering makes non-triangular are folded back in as extra rows.
  The kept rows' pattern is the fill of re-factoring in that order, by the
  fill-path rule.  On a column skyline, the usual shape of a scenario
  prior, that plan is read from the first row of each column in arrays of
  length n; other patterns go through a graph of the trailing entries.

All types are immutable after construction and every operation returns a
new object; instances can be shared freely.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack
from scipy.sparse.csgraph import connected_components

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficientAugmentation,
)

# Pivots at or below this floor are treated as numerically singular.
# Failing loudly (rather than jittering the diagonal) keeps factors exact,
# which the zero-offset guarantee of uninvolved-variable sparsification
# depends on.
PIVOT_FLOOR = 1e-12

# Entries ``gram_diagonal`` squares per step: a 128 KB temporary at any
# factor size.
_SQUARES_AT_ONCE = 1 << 14

# Consecutive pivot rows that ``_fold`` re-triangularizes per LAPACK call,
# also the block of reflections that ``dtpmqrt`` applies at once.  Measured
# on the plan-1k candidate updates and uninvolved fold (one BLAS thread,
# 2-vCPU x86_64 VM): 32 is fastest, 16 is about 1.2x slower and 64 ties or
# is slower.
_PANEL = 32

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def _as_index_array(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.int64)
    if out.ndim != 1:
        raise ValueError("expected a 1-d index array")
    return out


def _as_value_array(a) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError("expected a 1-d value array")
    if out.size and not np.all(np.isfinite(out)):
        raise ValueError("matrix values must be finite")
    return out


def _row_views(a: np.ndarray, indptr: np.ndarray) -> tuple:
    frozen = a.view()
    frozen.flags.writeable = False
    bounds = indptr.tolist()
    return tuple(frozen[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))


def _values_on_pattern(indptr: np.ndarray, indices: np.ndarray, rows, cols, vals) -> np.ndarray:
    """Values for the square CSR pattern ``(indptr, indices)``: ``vals`` at
    their ``(rows, cols)``, and zero at every other stored position, so
    entries a numeric product dropped stay structural.  A coordinate that
    the pattern lacks is refused with ``ValueError``, naming it."""
    n = indptr.size - 1
    # n is the size of an in-memory matrix, so n**2 fits int64
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
    want = np.asarray(rows, dtype=np.int64) * n + cols
    at = np.searchsorted(keys, want)
    # a coordinate past the last key reads the last key, which differs
    lacks = (keys.take(at, mode="clip") != want).nonzero()[0] if keys.size else np.arange(want.size)
    if lacks.size:
        r, c = divmod(int(want[lacks[0]]), n)
        raise ValueError(f"coordinate ({r}, {c}) is not in the pattern")
    out = np.zeros(indices.size)
    out[at] = vals
    return out


@dataclass(frozen=True)
class SparseRowBlock:
    """Stack of sparse constraint rows over ``n_cols`` variables, in
    compressed row storage.

    Row ``i`` stores columns ``indices[indptr[i]:indptr[i + 1]]`` (strictly
    increasing) with values ``data[indptr[i]:indptr[i + 1]]``.  Rows with
    zero stored entries are permitted (vacuous constraints).
    """

    n_rows: int
    n_cols: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        if self.n_cols <= 0:
            raise ValueError("n_cols must be positive")
        if self.n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        indptr = _as_index_array(self.indptr)
        indices = _as_index_array(self.indices)
        data = _as_value_array(self.data)
        if indptr.size != self.n_rows + 1 or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must rise from 0 with one entry per row boundary")
        if indices.size != data.size or indptr[-1] != indices.size:
            raise ValueError("row arrays must have equal length")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n_cols:
                raise ValueError("row entry column out of range")
            rising = np.diff(indices) > 0
            starts = indptr[1:-1]
            # a new row may restart at any column
            rising[starts[(starts > 0) & (starts < indices.size)] - 1] = True
            if not rising.all():
                raise ValueError("row columns must be strictly increasing")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "data", data)

    @classmethod
    def from_coo(cls, n_rows: int, n_cols: int, rows, cols, vals) -> "SparseRowBlock":
        """Build from coordinates in any order; a repeated coordinate is
        rejected, not summed."""
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        vals = _as_value_array(vals)
        if not (rows.size == cols.size == vals.size):
            raise ValueError("coordinate arrays must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ValueError("row index out of range")
        if int(n_rows) * int(n_cols) > np.iinfo(np.int64).max:
            raise ValueError(f"a {n_rows} x {n_cols} block is too large to index")
        order = np.argsort(rows * n_cols + cols, kind="stable")
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(n_rows, n_cols, indptr, cols[order], vals[order])

    @classmethod
    def empty(cls, n_cols: int, n_rows: int = 0) -> "SparseRowBlock":
        """``n_rows`` rows without stored entries."""
        return cls(n_rows, n_cols, np.zeros(n_rows + 1, dtype=np.int64), _EMPTY_I, _EMPTY_F)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    @cached_property
    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry."""
        return np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(self.indptr))

    @cached_property
    def row_cols(self) -> tuple:
        """Read-only per-row views of ``indices``, which the tests and the benchmark's counters read."""
        return _row_views(self.indices, self.indptr)

    @cached_property
    def row_vals(self) -> tuple:
        """Read-only per-row views of ``data``, which the tests and the benchmark's counters read."""
        return _row_views(self.data, self.indptr)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_rows, self.n_cols))
        out[self.row_ids, self.indices] = self.data
        return out

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n_rows, self.n_cols))

    def column_support(self) -> np.ndarray:
        """Sorted array of columns that carry at least one stored entry."""
        return np.unique(self.indices)

    def _upper_gram(self, data) -> tuple:
        """Row-sorted coordinates ``(rows, cols, vals)`` of the upper triangle
        of m^T m, m this pattern carrying ``data``.  scipy sums each entry
        over the rows of m in increasing order."""
        m = sp.csr_matrix((data, self.indices, self.indptr), shape=(self.n_rows, self.n_cols))
        prod = (m.T @ m).T  # the product is CSC; read it as the same symmetric CSR
        prod.sort_indices()
        rows = np.repeat(np.arange(self.n_cols, dtype=np.int64), np.diff(prod.indptr))
        keep = prod.indices >= rows
        return rows[keep], prod.indices[keep].astype(np.int64), prod.data[keep]

    def gram_nnz(self) -> int:
        """``gram().nnz``, counted from the pattern without forming values."""
        return int(self._upper_gram(np.ones(self.nnz))[0].size)

    def gram(self) -> "SparseSymmetric":
        """(self)^T (self) on its structural support, stored zeros included."""
        n = self.n_cols
        # pair counts of a 0/1 pattern never cancel, so they give the support;
        # the value product drops entries that cancel, scattering keeps them
        rows, cols, _ = self._upper_gram(np.ones(self.nnz))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        vals = _values_on_pattern(indptr, cols, *self._upper_gram(self.data))
        return SparseSymmetric(SparseRowBlock(n, n, indptr, cols, vals))


@dataclass(frozen=True)
class SparseSymmetric:
    """Symmetric matrix stored as its upper triangle, diagonal included, in
    one square CSR row block.

    Row ``i`` stores columns ``j >= i``.  The dense form is symmetric by
    construction; only the stored (upper) entries count toward ``nnz``.
    """

    upper: SparseRowBlock

    def __post_init__(self):
        if self.upper.n_rows != self.upper.n_cols:
            raise ValueError("symmetric matrix block must be square")
        if np.any(self.upper.indices < self.upper.row_ids):
            raise ValueError("entries must lie in the upper triangle (row <= col)")

    @property
    def dim(self) -> int:
        return self.upper.n_rows

    @property
    def nnz(self) -> int:
        """Number of stored upper-triangle entries."""
        return self.upper.nnz

    def to_dense(self) -> np.ndarray:
        out = self.upper.to_dense()
        out[self.upper.indices, self.upper.row_ids] = self.upper.data
        return out


@dataclass(frozen=True)
class UpperTriangular:
    """Upper-triangular factor with positive diagonal.

    The diagonal is dense; ``upper`` holds the strictly-upper entries as a
    square CSR row block.  ``nnz`` counts the diagonal plus all stored
    off-diagonal entries.
    """

    diag: np.ndarray
    upper: SparseRowBlock

    def __post_init__(self):
        diag = _as_value_array(self.diag)
        if np.any(diag <= 0.0):
            raise ValueError("diagonal entries must be strictly positive")
        # n_cols is positive, so this also rejects an empty diagonal
        if self.upper.n_rows != diag.size or self.upper.n_cols != diag.size:
            raise ValueError("off-diagonal block must be dim x dim")
        if np.any(self.upper.indices <= self.upper.row_ids):
            raise ValueError("row entries must satisfy row < col < dim")
        object.__setattr__(self, "diag", diag)

    @classmethod
    def from_diagonal(cls, values) -> "UpperTriangular":
        values = _as_value_array(values)
        return cls(values, SparseRowBlock.empty(values.size, values.size))

    @property
    def dim(self) -> int:
        return int(self.diag.size)

    @property
    def nnz(self) -> int:
        return self.dim + self.upper.nnz

    @property
    def row_cols(self) -> tuple:
        return self.upper.row_cols

    @property
    def row_vals(self) -> tuple:
        return self.upper.row_vals

    def to_dense(self) -> np.ndarray:
        out = self.upper.to_dense()
        out[np.arange(self.dim), np.arange(self.dim)] = self.diag
        return out

    def as_row_block(self) -> SparseRowBlock:
        """Every stored entry, diagonal included, as one CSR row block."""
        u = self.upper
        n = self.dim
        starts = u.indptr[:-1]
        return SparseRowBlock(
            n,
            n,
            u.indptr + np.arange(n + 1),
            np.insert(u.indices, starts, np.arange(n)),
            np.insert(u.data, starts, self.diag),
        )

    def diagonal_only(self) -> "UpperTriangular":
        """Drop every off-diagonal entry, keeping the diagonal."""
        return UpperTriangular.from_diagonal(self.diag)

    def gram_nnz(self) -> int:
        """``gram().nnz``.  A fill-closed pattern, in which every nonempty
        row settles (``_row_links``), as every Cholesky fill does, is its own
        Gram pattern: each row's later columns form a clique, so every pair
        of columns that a row stores is stored in the earlier one's row
        (Rose, Tarjan & Lueker 1976).  Its count is then ``nnz``; any other
        pattern is counted by the sparse product."""
        first, settles = self._row_links
        if all(s or f < 0 for f, s in zip(first, settles)):
            return self.nnz
        return self.as_row_block().gram_nnz()

    def gram(self) -> SparseSymmetric:
        """(self)^T (self); see ``SparseRowBlock.gram``."""
        return self.as_row_block().gram()

    @cached_property
    def gram_diagonal(self) -> np.ndarray:
        """Diagonal of (self)^T (self) without forming the product, read-only
        and computed once per factor; the squares are added in storage
        order."""
        out = self.diag ** 2
        u = self.upper
        for start in range(0, u.nnz, _SQUARES_AT_ONCE):
            stop = start + _SQUARES_AT_ONCE
            np.add.at(out, u.indices[start:stop], u.data[start:stop] ** 2)
        out.flags.writeable = False
        return out

    @cached_property
    def _row_links(self) -> tuple:
        """Per-row facts that ``_update_pattern`` reads, computed once per
        factor, as ``(first, settles)``:

        - ``first[t]``: row t's first stored column, -1 for an empty row;
        - ``settles[t]``: row t is not empty, and its other stored columns
          are all stored in row ``first[t]`` too.
        """
        u = self.upper
        n = self.dim
        starts = u.indptr[:-1]
        nonempty = np.diff(u.indptr) > 0
        first = np.full(n, -1, dtype=np.int64)
        first[nonempty] = u.indices[starts[nonempty]]
        leading = np.zeros(u.nnz, dtype=bool)
        leading[starts[nonempty]] = True
        keys = u.row_ids * n + u.indices
        above = first[u.row_ids] * n + u.indices
        at = np.minimum(np.searchsorted(keys, above), keys.size - 1)
        unsettled = ~leading & (keys[at] != above)
        settles = nonempty & (np.bincount(u.row_ids[unsettled], minlength=n) == 0)
        return first.tolist(), settles.tolist()


# ---------------------------------------------------------------------------
# Factorization and updates
# ---------------------------------------------------------------------------


def _elimination_sweep(m: int, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strictly-upper pattern of the symbolic elimination of positions
    ``0..m-1`` whose initial rows hold the pairs ``(rows, cols)``, as each
    position's entry count and the columns, row by row and ascending.

    Row i holds its initial columns plus the columns of every earlier row
    whose first column is i (its children in the elimination tree), less i
    itself (Liu 1990).  One set per row: this is the general case that
    ``_elimination_fill`` falls back on, kept because legal input needs it
    (see the module docstring) and acceptance criteria 2-5 factor random
    SPD beliefs through it.
    """
    by_row = rows.argsort(kind="stable")
    bounds = rows[by_row].searchsorted(np.arange(m + 1)).tolist()
    cols = cols[by_row].tolist()
    children: dict = {}
    rows_fill = []
    for i in range(m):
        fill = set(cols[bounds[i]:bounds[i + 1]])
        fill.update(*children.pop(i, ()))
        fill.discard(i)
        row = sorted(fill)
        rows_fill.append(row)
        if row:
            children.setdefault(row[0], []).append(row)
    lengths = np.fromiter(map(len, rows_fill), dtype=np.int64, count=m)
    indices = np.fromiter(itertools.chain.from_iterable(rows_fill), dtype=np.int64, count=int(lengths.sum()))
    return lengths, indices


def _elimination_fill(n: int, order: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Strictly-upper pattern of the symbolic elimination of the rows
    ``order`` (ascending) in that order, as CSR ``(indptr, indices)`` over
    ``n`` rows; rows not listed are empty.

    The initial pattern is the pairs ``(rows, cols)`` of positions in
    ``order``, in any order and with repeats, each column at or after its
    row; a diagonal pair adds nothing.  Let ``first(j)`` be the first
    position whose initial row stores ``j``.  When every position in some
    ``first(j) + 1 .. j`` is itself a stored column, every nonempty row's
    first column is the next position: the elimination tree is a chain (or
    a forest of chains), and by induction down it row i is ``{j > i :
    first(j) <= i}``, so column ``j`` covers rows ``first(j) .. j - 1``.
    Any other pattern goes through the set sweep, ``_elimination_sweep``.
    """
    m = order.size
    first = np.full(m, m)
    # a diagonal pair stores nothing
    np.minimum.at(first, cols, np.where(rows == cols, m, rows))
    is_stored = first < m
    stored = is_stored.nonzero()[0]
    starts = first[stored]
    covered = np.bincount(starts + 1, minlength=m + 1) - np.bincount(stored + 1, minlength=m + 1)
    if np.array_equal(covered.cumsum()[:m] > 0, is_stored):
        counts = stored - starts
        fill_rows = _ranges(starts, counts)
        lengths = np.bincount(fill_rows, minlength=m)
        fill_cols = stored.repeat(counts)[fill_rows.argsort(kind="stable")]
    else:
        lengths, fill_cols = _elimination_sweep(m, rows, cols)
    by_row = np.zeros(n, dtype=np.int64)
    by_row[order] = lengths
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(by_row, out=indptr[1:])
    return indptr, order[fill_cols]


def _unpivoted_lu(m: SparseSymmetric, k: int):
    """SuperLU factorization of the leading ``k`` x ``k`` block of ``m`` in
    the given order, asked never to pivot; ``None`` if SuperLU finds an
    exactly singular column."""
    u = m.upper
    off = u.row_ids != u.indices
    keep = u.indices < k
    rows = np.concatenate([u.row_ids[keep], u.indices[keep & off]])
    cols = np.concatenate([u.indices[keep], u.row_ids[keep & off]])
    vals = np.concatenate([u.data[keep], u.data[keep & off]])
    full = sp.csc_matrix((vals, (rows, cols)), shape=(k, k))
    try:
        return spla.splu(full, permc_spec="NATURAL", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as e:
        if "singular" not in str(e):
            raise
        return None


def _first_bad_pivot(lu) -> int | None:
    """Index of the first pivot of a factorization that is at or below the
    floor, or where SuperLU permuted a row or column."""
    pivots = lu.U.diagonal()
    bad = np.nonzero(~(pivots > PIVOT_FLOOR))[0]
    ident = np.arange(lu.shape[0])
    moved = np.nonzero((lu.perm_r != ident) | (lu.perm_c != ident))[0]
    found = [int(a[0]) for a in (bad, moved) if a.size]
    return min(found) if found else None


def _failing_pivot(m: SparseSymmetric) -> int:
    """First failing pivot of a matrix whose full factorization failed.

    A leading block factors cleanly exactly when every pivot it contains
    does, so bisect on the block size; each probe is one factorization.
    """
    good, bad = 0, m.dim
    while bad - good > 1:
        mid = (good + bad) // 2
        lu = _unpivoted_lu(m, mid)
        if lu is not None and _first_bad_pivot(lu) is None:
            good = mid
        else:
            bad = mid
    return good


def cholesky(m: SparseSymmetric) -> UpperTriangular:
    """Sparse Cholesky: upper-triangular R with R^T R = m, in the given order.

    The stored pattern is the exact symbolic fill of eliminating the rows
    of ``m`` in their order (``_elimination_fill``; no reordering is
    attempted; stored zeros are structural).  The values come
    from SuperLU's unpivoted LU = L D L^T of the full symmetric matrix:
    ``R_ii = sqrt(U_ii)`` and ``R_ij = U_ij / R_ii``, gathered onto the fill
    pattern, which also restores entries SuperLU dropped as zero.  Raises
    NotPositiveDefinite, naming the first failing pivot (its ``index``), when
    a pivot is at or below the pivot floor or SuperLU had to pivot or found
    the matrix singular; the input is never jittered.  No dense matrix is
    formed.
    """
    n = m.dim
    lu = _unpivoted_lu(m, n)
    i = _failing_pivot(m) if lu is None else _first_bad_pivot(lu)
    if i is not None:
        raise NotPositiveDefinite(f"pivot at index {i} is at or below {PIVOT_FLOOR:.0e} or off the diagonal", i)

    u = lu.U.tocsr()
    u_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(u.indptr))
    u_off = u.indices != u_rows
    diag = np.sqrt(u.diagonal())
    indptr, indices = _elimination_fill(n, np.arange(n), m.upper.row_ids, m.upper.indices)
    vals = _values_on_pattern(
        indptr, indices, u_rows[u_off], u.indices[u_off], u.data[u_off] / diag[u_rows[u_off]]
    )
    return UpperTriangular(diag, SparseRowBlock(n, n, indptr, indices, vals))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` over the given starts and counts."""
    # array methods, not numpy functions: this runs on small arrays per factor update
    out = (starts - counts.cumsum() + counts).repeat(counts)
    out += np.arange(out.size)
    return out


def _fold(diag, upper: SparseRowBlock, u: SparseRowBlock, pivots, rank, out_indptr, out_indices) -> tuple:
    """Re-triangularize the factor rows at ``pivots`` stacked over the rows
    of ``u``, one triangular-pentagonal LAPACK QR per panel of ``_PANEL``
    consecutive pivots.

    ``diag`` is the factor diagonal, 0 on an empty row; ``upper`` holds the
    strictly-upper entries of the first ``upper.n_rows`` rows, any later
    row being empty.  ``pivots`` lists the rows to re-form in elimination
    order and ``rank`` gives the elimination position of every column.  A
    row of ``u`` joins at the panel of its first stored column, which must
    be a pivot.

    A panel's columns follow from the patterns alone: its pivots, then every
    column after the previous panel's last pivot that a factor row or an
    update row that has joined by this panel stores.  The column sets and
    every scatter and gather position are worked out in whole-array passes
    before the loop.  Each panel is then two dense Fortran-order arrays over
    its columns: the panel's factor rows, upper-triangular in the pivot
    columns (a zero row where a row is empty), and the stacked rows, those
    that join here over those travelling on from earlier panels.
    ``dtpqrt`` annihilates the stacked rows' pivot columns and ``dtpmqrt``
    applies the reflections to the other columns, both in place; a panel
    without stacked rows is left as it is.  The factor rows are then the new
    rows, and the stacked rows that are not zero travel on over the columns
    after the panel.  The signs are made positive once, after the loop.

    Returns the new diagonal at the pivots, 0 where no row supports a
    pivot, and the new values at the columns that the CSR ``(out_indptr,
    out_indices)`` lists for each pivot in turn; a listed column that no
    row of the panel stores reads 0.
    """
    n_cols = u.n_cols
    n_piv = pivots.size
    piv_rank = rank[pivots]
    d = diag[pivots]
    n_panels = -(-n_piv // _PANEL)
    edges = np.array([*range(0, n_piv, _PANEL), n_piv])
    widths = edges[1:] - edges[:-1]
    last = piv_rank[edges[1:] - 1]
    piv_pan = np.arange(n_piv) // _PANEL
    # the panel of each pivot column, -1 for the other columns
    home = np.full(n_cols, -1)
    home[piv_rank] = piv_pan

    # the factor rows' strictly-upper entries, by panel
    full = d.nonzero()[0]
    starts = upper.indptr[pivots[full]]
    counts = upper.indptr[pivots[full] + 1] - starts
    at = _ranges(starts, counts)
    f_pan = piv_pan[full].repeat(counts)
    f_off = (full % _PANEL).repeat(counts)
    f_col = rank[upper.indices[at]]
    f_val = upper.data[at]

    # the update rows, by the panel of their first stored column
    lengths = u.indptr[1:] - u.indptr[:-1]
    rows = lengths.nonzero()[0]
    first = np.minimum.reduceat(rank[u.indices], u.indptr[rows]) if rows.size else _EMPTY_I
    joins = piv_rank.searchsorted(first) // _PANEL
    by_panel = joins.argsort(kind="stable")
    joins = joins[by_panel]
    rows = rows[by_panel]
    counts = lengths[rows]
    at = _ranges(u.indptr[rows], counts)
    j_edges = joins.searchsorted(np.arange(n_panels + 1))
    u_pan = joins.repeat(counts)
    u_row = (np.arange(rows.size) - j_edges[joins]).repeat(counts)
    u_col = rank[u.indices[at]]
    u_val = u.data[at]

    # a column belongs to the panels from the one where a row storing it
    # joins to the one where it is a pivot or passes the last pivot: one
    # (panel, column) pair each, made column by column, then sorted by a
    # key that puts a panel's pivots before its other columns
    enter = np.full(n_cols, n_panels)
    np.minimum.at(enter, np.concatenate([piv_rank, f_col, u_col]), np.concatenate([piv_pan, f_pan, u_pan]))
    c = (enter < n_panels).nonzero()[0]
    e = enter[c]
    span = last.searchsorted(c)
    np.minimum(span, n_panels - 1, out=span)
    span += 1 - e
    pair_pan = _ranges(e, span)
    pair_col = c.repeat(span)
    step = 2 * n_cols
    key = pair_pan * step + pair_col + n_cols * (home[pair_col] != pair_pan)
    by_key = key.argsort()
    key = key[by_key]
    k_edges = key.searchsorted(np.arange(n_panels + 1) * step)
    sizes = k_edges[1:] - k_edges[:-1]
    # each pair's slot among its panel's columns; column c's pair in panel p
    # is pair ``pair_at[c] + p``
    pair_slot = np.empty(key.size, dtype=np.int64)
    pair_slot[by_key] = np.arange(key.size)
    pair_slot -= k_edges[pair_pan]
    pair_at = np.zeros(n_cols, dtype=np.int64)
    pair_at[c] = span.cumsum() - span - e
    pair_flat = widths[pair_pan] * pair_slot
    # the columns after a panel's last pivot travel on to the next panel,
    # at the slot of their next pair, in key order
    t_from = key.searchsorted(np.arange(n_panels) * step + n_cols + last + 1)
    t_slot = pair_slot.take(by_key + 1, mode="clip")

    # where every entry goes, and where every listed value is read; a
    # listed column that the panel lacks reads the zero column after it
    f_flat = f_off + pair_flat[pair_at[f_col] + f_pan]
    u_slot = pair_slot[pair_at[u_col] + u_pan]
    out_lengths = out_indptr[1:] - out_indptr[:-1]
    g_pan = piv_pan.repeat(out_lengths)
    g_col = rank[out_indices]
    g_flat = pair_flat.take(pair_at[g_col] + g_pan, mode="clip")
    lacks = enter[g_col] > g_pan
    g_flat[lacks] = (widths * sizes)[g_pan[lacks]]
    g_flat += (np.arange(n_piv) % _PANEL).repeat(out_lengths)

    panels = np.arange(n_panels + 1)
    f_bounds = f_pan.searchsorted(panels).tolist()
    u_bounds = u_pan.searchsorted(panels).tolist()
    g_bounds = out_indptr[edges].tolist()
    j_bounds = j_edges.tolist()
    # panel p's travelling rows come from key positions t_lo[p]:t_hi[p]
    t_lo, t_hi = [0, *t_from.tolist()], k_edges.tolist()
    t_first = (t_from - k_edges[:-1]).tolist()
    head = np.empty(n_piv)
    out = np.empty(out_indices.size)
    t_rows = np.empty((0, 0))
    for p, (lo, hi, k) in enumerate(zip(edges.tolist(), edges[1:].tolist(), sizes.tolist())):
        w = hi - lo
        fa, fb = f_bounds[p], f_bounds[p + 1]
        ua, ub = u_bounds[p], u_bounds[p + 1]
        ga, gb = g_bounds[p], g_bounds[p + 1]
        joined = j_bounds[p + 1] - j_bounds[p]
        buf = np.zeros(w * (k + 1))
        tri = buf.reshape((w, k + 1), order="F")
        buf[:w * w:w + 1] = d[lo:hi]
        buf[f_flat[fa:fb]] = f_val[fa:fb]
        stk = np.zeros((joined + t_rows.shape[0], k), order="F")
        stk[u_row[ua:ub], u_slot[ua:ub]] = u_val[ua:ub]
        stk[joined:, t_slot[t_lo[p]:t_hi[p]]] = t_rows
        if stk.shape[0]:
            # in place: the triangle becomes R, the stacked pivot columns the
            # reflectors, the other columns Q^T times themselves
            left, below, right, rest = tri[:, :w], stk[:, :w], tri[:, w:k], stk[:, w:]
            r, v, t, _ = lapack.dtpqrt(0, w, left, below, overwrite_a=True, overwrite_b=True)
            cr, cs = right, rest
            if k > w:
                cr, cs, _ = lapack.dtpmqrt(0, v, t, right, rest, trans="T", overwrite_a=True, overwrite_b=True)
            if r is not left or v is not below or cr is not right or cs is not rest:
                raise RuntimeError("LAPACK worked on a copy of the panel, not in place")
        head[lo:hi] = buf[:w * w:w + 1]
        out[ga:gb] = buf[g_flat[ga:gb]]
        t_rows = stk[:, t_first[p]:]
        live = t_rows.any(axis=1)
        if not live.all():
            t_rows = t_rows[live]

    out *= np.where(head < 0.0, -1.0, 1.0).repeat(out_lengths)
    return np.abs(head), out


def _update_pattern(r: UpperTriangular, u: SparseRowBlock) -> tuple:
    """The rows that ``lowrank_update`` re-forms and their new columns, from
    the stored patterns alone, with no numerics.

    The update rows travel in groups, each starting at its row's first
    stored column, and every group that reaches pivot ``t`` merges with
    factor row ``t``: the row's new columns are its own plus the groups'
    columns after ``t``, and the merged group travels on to the first of
    those columns, one row fewer when ``t`` is an appended variable (the
    row that moved into place).

    A group that leaves row ``t`` holds row ``t``'s columns, which it does
    not copy, plus the columns it carries beyond them.  When it moves on to
    the row's first column and the rest of the row is stored in that row
    too (``UpperTriangular._row_links``), as in every Cholesky fill, the
    row it reaches gets the carried columns alone; otherwise row ``t`` is
    read again.  Until another group or a carried column comes first, a
    group climbs such rows one after another without the heap.  At the end
    each reached row's stored columns and its carried ones are merged in
    one sort of ``position * width + column`` keys.

    Returns the reached pivots, ascending, and their new strictly-upper
    columns as CSR ``(indptr, indices)`` over those pivots.
    """
    dim = r.dim
    width = u.n_cols
    first, settles = r._row_links
    bounds = r.upper.indptr
    indices = r.upper.indices

    # a group: (lead, tie-break, the columns it carries beyond those of the
    # row it left, its number of rows)
    u_bounds = u.indptr.tolist()
    u_cols = u.indices.tolist()
    heap = [(u_cols[lo], k, tuple(u_cols[lo + 1:hi]), 1)
            for k, (lo, hi) in enumerate(zip(u_bounds[:-1], u_bounds[1:])) if lo < hi]
    heapq.heapify(heap)
    tick = itertools.count(u.n_rows)

    reached, carried, rows_each = [], [], []
    pop, pushpop = heapq.heappop, heapq.heappushpop
    following = None
    while heap or following is not None:
        t, _, x, n_rows = pop(heap) if following is None else pushpop(heap, following)
        following = None
        arrived = [x]
        while heap and heap[0][0] == t:
            _, _, y, k = pop(heap)
            arrived.append(y)
            n_rows += k
        if len(arrived) > 1:
            x = tuple(sorted(set().union(*arrived)))
        if t >= dim:
            n_rows -= 1
        mark = len(reached)
        reached.append(t)
        if n_rows and t < dim:
            # climb while each row hands the group on to its first column as it is
            stop = min(x[0] if x else width, heap[0][0] if heap else width)
            while settles[t] and first[t] < stop:
                t = first[t]
                reached.append(t)
        # the rows reached in this step carry ``x``
        carried.append(x)
        rows_each.append(len(reached) - mark)
        if not n_rows:
            continue

        p = first[t] if t < dim else -1
        lead = x[0] if x and (p < 0 or x[0] < p) else p
        if lead < 0:
            continue
        inside = lead == p and settles[t]
        x = x[bisect.bisect_right(x, lead):]
        if not inside and p >= 0:
            row = indices[bounds[t]:bounds[t + 1]]
            x = tuple(sorted(set(x).union(row[row > lead].tolist())))
        following = (lead, next(tick), x, n_rows)

    n_own = bisect.bisect_left(reached, dim)
    reached = np.array(reached, dtype=np.int64)
    starts = bounds[reached[:n_own]]
    counts = bounds[reached[:n_own] + 1] - starts
    segments = list(zip(carried, rows_each))
    lengths = np.fromiter(itertools.chain.from_iterable(itertools.repeat(len(x), k) for x, k in segments),
                          dtype=np.int64, count=reached.size)
    flat = np.fromiter(itertools.chain.from_iterable(x * k for x, k in segments), dtype=np.int64)
    # two runs that are sorted already, which the stable sort merges
    keys = np.concatenate([
        np.repeat(np.arange(n_own, dtype=np.int64), counts) * width + indices[_ranges(starts, counts)],
        np.repeat(np.arange(reached.size, dtype=np.int64), lengths) * width + flat,
    ])
    keys.sort(kind="stable")
    keys = keys[np.diff(keys, prepend=-1) != 0]
    pos, cols = np.divmod(keys, width)
    indptr = np.zeros(reached.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(pos, minlength=reached.size), out=indptr[1:])
    return reached, indptr, cols


def lowrank_update(r: UpperTriangular, u: SparseRowBlock, n_new: int = 0) -> UpperTriangular:
    """Rank-k information update of a triangular factor (the multiple-rank
    update of Davis & Hager, SIAM J. Matrix Anal. Appl. 2001).

    Returns upper-triangular R+ of dimension ``r.dim + n_new`` satisfying
    (R+)^T (R+) = [R | 0]^T [R | 0] + u^T u.  A pattern pass
    (``_update_pattern``) fixes which factor rows the update rows reach and
    each reached row's new columns: its own plus those of the groups of
    update rows that reach it.  The pass reads only the stored patterns,
    so a stored zero, in the factor or in an update row, is an entry like
    any other, as in ``cholesky``.  Where the inputs store exact zeros,
    the result may store more zero entries than a pattern that reads the
    values would; it is the same factor.  What the pass needs of each
    factor row is worked out once per factor and kept on it, and the rows
    it reaches are formed in one array merge.  The panel fold (``_fold``)
    then re-triangularizes the reached rows stacked over the update rows,
    a panel of consecutive reached rows per triangular-pentagonal QR, each
    update row joining at its first stored column (an appended variable
    is a zero row of the triangle until a row moves into place), and the
    new values are read at those columns.  Rows no update row reaches keep
    their stored entries, bit for bit.

    Raises RankDeficientAugmentation, naming the first such variable (its
    ``index``), if any of the ``n_new`` appended variables ends up without
    diagonal support, its squared diagonal at or below ``PIVOT_FLOOR`` as
    for ``cholesky`` (singular posterior).
    """
    if n_new < 0:
        raise ValueError("n_new must be non-negative")
    nd = r.dim + n_new
    if u.n_cols != nd:
        raise DimensionMismatch(f"update has {u.n_cols} columns, expected {nd}")

    pivots, p_indptr, p_indices = _update_pattern(r, u)
    diag = np.zeros(nd)
    diag[: r.dim] = r.diag
    new_diag, vals = _fold(diag, r.upper, u, pivots, np.arange(nd), p_indptr, p_indices)
    diag[pivots] = new_diag
    # a pivot at or below the floor is no support: the variable's column was
    # empty, or its rows depend on rows that other variables already used;
    # a pivot whose square overflows is support, not a warning
    with np.errstate(over="ignore"):
        weak = np.nonzero(diag[r.dim:] ** 2 <= PIVOT_FLOOR)[0]
    if weak.size:
        i = int(weak[0]) + r.dim
        raise RankDeficientAugmentation(
            f"appended variable {i} has no supporting row (pivot at or below {PIVOT_FLOOR:.0e})", i
        )

    # splice: reached rows take their new entries, the others keep theirs
    reached = np.zeros(nd, dtype=bool)
    reached[pivots] = True
    lengths = np.zeros(nd, dtype=np.int64)
    lengths[: r.dim] = np.diff(r.upper.indptr)
    lengths[pivots] = np.diff(p_indptr)
    indptr = np.zeros(nd + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    fresh = np.repeat(reached, lengths)
    kept = ~reached[r.upper.row_ids]
    indices = np.empty(fresh.size, dtype=np.int64)
    data = np.empty(fresh.size)
    indices[fresh] = p_indices
    data[fresh] = vals
    indices[~fresh] = r.upper.indices[kept]
    data[~fresh] = r.upper.data[kept]
    return UpperTriangular(diag, SparseRowBlock(nd, nd, indptr, indices, data))


def _rows_at(indptr: np.ndarray, rows: np.ndarray) -> tuple:
    """Entry counts of ``rows`` and the positions of their entries, row by
    row."""
    counts = indptr[rows + 1] - indptr[rows]
    return counts, _ranges(indptr[rows], counts)


def _skyline_components(r: UpperTriangular, selected: np.ndarray, kept: np.ndarray):
    """``_kept_fill``'s components read from the column heads, or ``None``
    when the trailing rows (from the first kept one on) are not a column
    skyline.

    Let ``head[j]`` be the first trailing row that stores column ``j``
    (``j`` itself if none does).  The trailing rows store at most
    ``sum(j - head[j])`` entries, exactly that many when column ``j`` covers
    every row ``head[j] .. j - 1``: a column skyline, the usual shape of a
    scenario prior.  Then selected column ``j`` links the rows
    ``head[j] .. j`` (its own row by the diagonal), so the components are
    the merged overlapping intervals, kept ``k`` joins component
    ``[a, b]`` when ``a <= k`` and ``head[k] <= b``, the moved rows are the
    kept rows inside a component, and the first crossing column is the
    least selected ``j`` whose interval holds a kept row.  One minimum pass
    over the trailing entries, then arrays of length ``n``.
    """
    n = r.dim
    u = r.upper
    split = int(kept[0])
    lo = u.indptr[split]
    every = np.arange(n)
    head = every.copy()
    np.minimum.at(head, u.indices[lo:], u.row_ids[lo:])
    if int((every - head).sum()) != u.nnz - lo:
        return None
    s = np.flatnonzero(selected[split:]) + split
    # rows i and i + 1 are linked when an interval holds both; a row is in a
    # component when an interval holds it, so when it is linked to the next
    # row or ends an interval
    links = (np.bincount(head[s], minlength=n) - np.bincount(s, minlength=n)).cumsum() > 0
    inside = links.copy()
    inside[s] = True
    a = np.flatnonzero(inside & ~np.concatenate(([False], links[:-1])))
    b = np.flatnonzero(inside & ~links)
    lo_c = b.searchsorted(head[kept])
    counts = np.maximum(a.searchsorted(kept, side="right") - lo_c, 0)
    comp, members = np.divmod(np.sort(_ranges(lo_c, counts) * n + kept.repeat(counts)), n)
    kept_before = np.concatenate(([0], np.cumsum(~selected)))
    crossing = s[kept_before[s] > kept_before[head[s]]]
    return comp, members, kept[inside[kept]], int(crossing[0]) if crossing.size else n


def _graph_components(r: UpperTriangular, selected: np.ndarray, kept: np.ndarray) -> tuple:
    """``_kept_fill``'s components for any pattern, from a graph of the
    trailing entries (from the first kept row on): a row joins its selected
    columns and, through its diagonal, itself, by one edge from the row's
    node to each of them, and a kept scalar joins the component of every
    row that stores it.  Kept for factors that are no skyline: any belief a
    file or a caller supplies, and acceptance criteria 2-5's random SPD
    beliefs."""
    n = r.dim
    u = r.upper
    split = int(kept[0])
    lo = u.indptr[split]
    rows, cols = u.row_ids[lo:], u.indices[lo:]
    sel = selected[cols]
    s_rows, s_cols = rows[sel], cols[sel]
    counts = np.bincount(s_rows, minlength=n)
    graph = sp.csr_matrix((np.ones(s_cols.size), s_cols, np.concatenate(([0], np.cumsum(counts)))), shape=(n, n))
    component = connected_components(graph, directed=False)[1]
    touches = np.full(n, -1, dtype=np.int64)
    trailing = np.arange(split, n)
    touching = trailing[selected[split:] | (counts[split:] > 0)]
    touches[touching] = component[touching]

    k_rows = np.concatenate([rows[~sel], kept])
    k_cols = np.concatenate([cols[~sel], kept])
    via = touches[k_rows]
    comp, members = np.divmod(np.unique(via[via >= 0] * n + k_cols[via >= 0]), n)
    first = s_cols[~selected[s_rows]].min(initial=n)
    return comp, members, kept[counts[kept] > 0], int(first)


def _kept_fill(r: UpperTriangular, selected: np.ndarray, kept: np.ndarray) -> tuple:
    """The plan of ``sparsify_factor``, from the stored pattern alone: the
    strictly-upper fill pattern of the ``kept`` rows when the trailing rows
    of ``r`` (from the first kept one on) are re-factored with the
    ``selected`` scalars eliminated first, as CSR ``(indptr, indices)`` over
    all rows (selected rows are empty); the kept rows that the reordering
    moves, those with an entry in a selected column, ascending; and the
    first selected column that such a row stores, ``r.dim`` if none does.

    By the fill-path theorem, kept scalars are linked when a factor row
    links them or when they touch the same connected component of the
    selected subgraph; the pattern is then the symbolic elimination of that
    graph in kept order (``_elimination_fill``).  A column skyline, the
    usual shape of a scenario prior, gives the components, the moved rows
    and the first column from its column heads (``_skyline_components``);
    any other pattern goes through a graph of its trailing entries
    (``_graph_components``).  Each component links a clique, so its members
    are given to its least member only, as pairs: the elimination carries
    them up the elimination tree to the rest.
    """
    n = r.dim
    u = r.upper
    found = _skyline_components(r, selected, kept)
    comp, members, moved, first = _graph_components(r, selected, kept) if found is None else found
    least = np.diff(comp, prepend=-1) != 0
    c_rows = members[least][least.cumsum() - 1]
    # the other kept rows give their own entries, all of them kept columns
    plain = np.setdiff1d(kept, moved, assume_unique=True)
    counts, at = _rows_at(u.indptr, plain)
    pos = np.empty(n, dtype=np.int64)
    pos[kept] = np.arange(kept.size)
    indptr, indices = _elimination_fill(
        n,
        kept,
        pos[np.concatenate([plain.repeat(counts), c_rows[~least]])],
        pos[np.concatenate([u.indices[at], members[~least]])],
    )
    return indptr, indices, moved, first


def sparsify_factor(r: UpperTriangular, selected: np.ndarray) -> UpperTriangular:
    """The factor of the belief with the ``selected`` scalars sparsified:
    ``r`` re-triangularized with the selected scalars eliminated first, the
    selected rows cut to their diagonal, and the result read in the
    original order, which the diagonal selected rows allow.

    The reordering is a modification of the factor itself (Elimelech &
    Indelman, RA-L 2021), not a re-factorization: in the selected-first
    order the selected rows and the kept rows without a selected entry are
    still triangular, and each kept row with an entry in a (later) selected
    column leaves its place and is folded back in by ``_fold``, through
    the selected rows from the first one it reaches and then through the
    kept rows up to the last one that moved.  The other rows keep their
    values, read by row.  The kept rows' stored pattern is the fill pattern
    of the re-factored trailing block, so stored entries that are zero in
    exact arithmetic are kept, as ``cholesky`` keeps them; it comes with the
    moved rows and the first selected column they store from one plan
    (``_kept_fill``), which reads them off the column heads of a skyline
    factor instead of a graph of its entries.  When no selected
    scalar follows the first kept one, no reordering is needed and the rows
    are only cut.
    """
    n = r.dim
    kept = np.flatnonzero(~selected)
    if not kept.size:
        return r.diagonal_only()
    split = int(kept[0])
    u = r.upper
    start = u.indptr[split]
    if not selected[split:].any():
        indptr = np.concatenate([np.zeros(split, dtype=np.int64), u.indptr[split:] - start])
        return UpperTriangular(r.diag, SparseRowBlock(n, n, indptr, u.indices[start:], u.data[start:]))

    indptr, indices, moved, first = _kept_fill(r, selected, kept)
    lengths = np.diff(indptr)
    inside = (kept >= moved.min(initial=n)) & (kept <= moved.max(initial=-1))
    refolded = kept[inside]
    pivots = np.concatenate([np.flatnonzero(selected[first:]) + first, refolded])
    rank = np.empty(n, dtype=np.int64)
    rank[np.concatenate([np.flatnonzero(selected), kept])] = np.arange(n)
    # the moved rows, diagonal first
    counts, at = _rows_at(u.indptr, moved)
    heads = np.cumsum(counts) - counts
    extra = SparseRowBlock(
        moved.size, n, np.concatenate(([0], np.cumsum(counts + 1))),
        np.insert(u.indices[at], heads, moved), np.insert(u.data[at], heads, r.diag[moved]),
    )
    # the selected pivots read no columns, the kept ones their fill pattern
    p_indptr = np.zeros(pivots.size + 1, dtype=np.int64)
    np.cumsum(lengths[pivots] * ~selected[pivots], out=p_indptr[1:])
    p_at = _ranges(indptr[refolded], lengths[refolded])
    fold_diag = r.diag.copy()
    fold_diag[moved] = 0.0
    new_diag, vals = _fold(fold_diag, u, extra, pivots, rank, p_indptr, indices[p_at])

    diag = r.diag.copy()
    diag[pivots] = new_diag
    # the other kept rows keep their values, read by row
    same = kept[~inside]
    counts, at = _rows_at(u.indptr, same)
    data = _values_on_pattern(indptr, indices, same.repeat(counts), u.indices[at], u.data[at])
    data[p_at] = vals
    return UpperTriangular(diag, SparseRowBlock(n, n, indptr, indices, data))


def logdet_triangular(r: UpperTriangular) -> float:
    """log |R^T R| = 2 * sum(log diag(R)); linear in the dimension."""
    return float(2.0 * np.sum(np.log(r.diag)))
