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

Every CSR block is validated once, by whole-array checks, when it is built;
a factor's triangularity is read at each row's first column, since its
columns already rise.
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
and small inputs).  A Cholesky factor comes from one kernel,
``_band_cholesky``: the matrix packed as its upper band (``_band``), one
LAPACK band Cholesky (``dpbtrf``) in the given order, and the values
gathered onto the pattern of a symbolic elimination.  The fill stays inside
the band of the matrix, so this costs (kd + 1) * n doubles and
O(n * kd^2) time for half-bandwidth kd, which a scenario file bounds
through its loop index window.  ``cholesky`` feeds the kernel a symmetric
matrix's stored entries; ``gram_cholesky`` feeds it the pairwise products
of constraint rows J, summed into the band of J^T J in the order the
sparse product of ``gram`` sums them, so it gives ``cholesky(J.gram())``
bit for bit without forming J^T J.  The symbolic elimination
(``_elimination_fill``, which ``sparsify_factor`` shares) is one array
pass when the elimination tree is a chain, the usual case for a scenario
prior and kept tail: then the rows of each factor column form one
contiguous range (Liu 1990).  Other patterns go through a sweep that
builds each row from its own entries and its elimination-tree children;
legal input reaches it, since a scenario pose at heading exactly 0.0
whitens to exact zeros, which are not stored, and its prior's tree is then
no chain.  ``SparseRowBlock.gram``, the one
Gram kernel that forms the matrix (R^T R of a factor, through
``UpperTriangular``; J^T J of constraint rows for the tests and the
benchmark's probe), takes its pattern from a 0/1 sparse product and its
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
follow from the patterns, so they are planned before the loop
(``_fold_panels``).  Up to ``_PANEL`` pivots are one panel, folded
without the plan on the same arrays, so with the same result bit for bit:
a candidate's update of a sparsified belief reaches a few dozen rows, and
then the plan, not LAPACK, was most of the cost.  Its two callers fix the
stored pattern separately:

- ``lowrank_update`` adds constraint rows to a factor (the multiple-rank
  update of Davis & Hager).  On a chain skyline, the shape of every
  scenario prior (row i stores column i + 1, column j every row from its
  head ``head[j]`` on), its pattern is read from the column heads
  (``_heads_pattern``): an update row moves the head of each column it
  stores up to its own first column, every row from the least first
  column on is reached, and the new entries are inserted into those rows'
  one contiguous slice, so the rows before it keep theirs as one range.
  A sparsified factor is no chain, since its cut rows are empty, but the
  scalars it stores (its nonempty rows and stored columns) usually are
  one: the heads path then runs on the factor renumbered to them, and its
  result is mapped back once.  Other factors (diagonal, arbitrary, or
  updated in a cut column) take the general
  pattern pass: it follows the groups of update rows up the factor, each
  carrying only the columns that the rows it reaches do not already
  store, and forms the reached rows at the end, as a sorted set union per
  row when they are at most ``_PANEL``, else in one array merge; a row
  that stores nothing takes its carried columns as they are.  The new
  factor is spliced from slices, the rows between two runs of consecutive
  reached rows keeping their entries as one range, with no entry-sized
  mask; a factor that stores nothing, as a fully sparsified one, becomes
  the new entries alone.
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
    if out.size and not np.isfinite(out).all():
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
        if indptr.size != self.n_rows + 1 or indptr[0] != 0 or (indptr[1:] < indptr[:-1]).any():
            raise ValueError("indptr must rise from 0 with one entry per row boundary")
        if indices.size != data.size or indptr[-1] != indices.size:
            raise ValueError("row arrays must have equal length")
        if indices.size:
            if indices.min() < 0 or indices.max() >= self.n_cols:
                raise ValueError("row entry column out of range")
            rising = indices[1:] > indices[:-1]
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
        if (diag <= 0.0).any():
            raise ValueError("diagonal entries must be strictly positive")
        # n_cols is positive, so this also rejects an empty diagonal
        u = self.upper
        if u.n_rows != diag.size or u.n_cols != diag.size:
            raise ValueError("off-diagonal block must be dim x dim")
        # a row's columns rise, so its first is its least: O(n), not O(nnz)
        rows = (u.indptr[1:] > u.indptr[:-1]).nonzero()[0]
        if (u.indices[u.indptr[rows]] <= rows).any():
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

    @cached_property
    def _chain_heads(self):
        """The column heads that ``lowrank_update``'s heads path reads
        (``_heads_pattern``), computed once per factor, when the factor is a
        chain skyline: row i stores column i + 1, and column j stores every
        row ``head[j] .. j - 1`` and no other.  ``None`` for any other
        pattern.  Row i's first column is i + 1 or the factor is no chain,
        which rules out a diagonal or cut factor in O(n); then the skyline
        test is ``_skyline_components``' count."""
        u = self.upper
        first = u.indptr[:-2]
        # an empty row fails before its first column is read
        if (u.indptr[1:-1] == first).any() or (u.indices[first] != np.arange(1, self.dim)).any():
            return None
        head = _column_heads(u, 0)
        if int((np.arange(self.dim) - head).sum()) == u.nnz:
            return head
        return None

    @cached_property
    def _kept_chain(self):
        """The factor renumbered to its active scalars, those whose row or
        column stores an entry, when that is a chain skyline
        (``_chain_heads``), computed once per factor, as ``(kept, where,
        chain)``: the active scalars, ascending; each scalar's position among
        them, -1 for the others; and the renumbered factor, which stores the
        same entries in the same order.  A sparsified factor's cut rows are
        empty and no kept row stores a cut column, so this is its kept part.
        ``None`` when there is nothing to renumber, the factor being a chain
        skyline itself (all active) or storing nothing, and when the active
        part is no chain skyline."""
        u = self.upper
        if not u.nnz or self._chain_heads is not None:
            return None
        active = u.indptr[1:] > u.indptr[:-1]
        active[u.indices] = True
        kept = active.nonzero()[0]
        where = np.where(active, active.cumsum() - 1, -1)
        m = kept.size
        # the other rows are empty, so the entries before row kept[k] end there
        indptr = np.concatenate(([0], u.indptr[kept + 1]))
        chain = UpperTriangular(self.diag[kept], SparseRowBlock(m, m, indptr, where[u.indices], u.data))
        if chain._chain_heads is None:
            return None
        return kept, where, chain


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


def _band(n: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The ``(kd + 1) x n`` upper band, in LAPACK's Fortran-order band
    storage, of the n x n symmetric matrix whose upper triangle is the sum of
    the entries ``vals`` at ``(rows, cols)`` (row <= col, repeats allowed),
    kd being their largest ``col - row``.  Each position sums its values in
    the order given, from 0, so a stored -0.0 packs as 0.0."""
    kd = int((cols - rows).max(initial=0))
    # m[i, j] is band[kd + i - j, j], at j * kd + i + kd of the flat band;
    # bincount adds the values in turn
    at = cols * kd
    at += rows
    at += kd
    return np.bincount(at, vals, (kd + 1) * n).reshape((kd + 1, n), order="F")


def _band_cholesky(band: np.ndarray, pattern: tuple) -> UpperTriangular:
    """The kernel of ``cholesky`` and ``gram_cholesky``: upper-triangular R
    with R^T R = m, m given by its upper band (``_band``), whose
    half-bandwidth kd is that of m.  ``pattern``, pairs ``(rows, cols)`` as
    ``_elimination_fill`` takes them, must have the elimination fill of m's
    stored pattern, which fixes R's pattern; the fill stays inside the band.

    One ``dpbtrf`` factors the band in place, and its values are gathered
    onto the fill pattern.  Raises NotPositiveDefinite, naming the first
    failing pivot (its ``index``): the first factored pivot whose square is
    at or below the pivot floor, else the one ``dpbtrf`` stopped at, the
    rule of a dense ``dpotrf``.
    """
    kd, n = band.shape[0] - 1, band.shape[1]
    band, info = lapack.dpbtrf(band, lower=0, overwrite_ab=1)
    # dpbtrf stops at the first pivot that is not positive (info is 1-based)
    done = info - 1 if info > 0 else n
    bad = np.flatnonzero(band[kd, :done] ** 2 <= PIVOT_FLOOR)
    if bad.size or info > 0:
        i = int(bad[0]) if bad.size else done
        raise NotPositiveDefinite(f"pivot at index {i} is at or below {PIVOT_FLOOR:.0e}", i)
    indptr, indices = _elimination_fill(n, np.arange(n), *pattern)
    # R[i, j] at j * kd + i + kd of the flat band, as in ``_band``
    at = indices * kd
    at += np.repeat(np.arange(kd, n + kd, dtype=np.int64), np.diff(indptr))
    return UpperTriangular(band[kd].copy(), SparseRowBlock(n, n, indptr, indices, band.ravel(order="F")[at]))


def cholesky(m: SparseSymmetric) -> UpperTriangular:
    """Sparse Cholesky: upper-triangular R with R^T R = m, in the given order.

    The stored pattern is the exact symbolic fill of eliminating the rows
    of ``m`` in their order (``_elimination_fill``; no reordering is
    attempted; stored zeros are structural).  The values come from one
    LAPACK band Cholesky of ``m`` packed as its ``(kd + 1) x n`` upper band
    (``_band``, ``_band_cholesky``), kd the largest ``col - row`` of the
    pattern: (kd + 1) * n doubles and O(n * kd^2) time, whatever the fill
    inside the band.  Raises NotPositiveDefinite, naming the first failing
    pivot by the rule of a dense ``dpotrf`` (see ``_band_cholesky``); the
    input is never jittered, and no dense matrix is formed.
    """
    u = m.upper
    return _band_cholesky(_band(m.dim, u.row_ids, u.indices, u.data), (u.row_ids, u.indices))


def gram_cholesky(rows: SparseRowBlock) -> UpperTriangular:
    """``cholesky(rows.gram())``, the same arrays bit for bit, without
    forming the Gram matrix J^T J of the rows J.

    Each row's pairwise products, its diagonal pairs included, are summed
    straight into the band of J^T J (``_gram_band``) in row order, the
    order in which the sparse product behind ``gram`` sums them, so the
    band holds the same bits.  The symbolic pass takes only each row's
    pairs of its first column with every column: a row's columns form a
    clique in J^T J, and eliminating its first column fills in that
    clique, so the fill is the same (Rose, Tarjan & Lueker 1976) from one
    pair per entry.
    """
    return _band_cholesky(_gram_band(rows), (rows.indices[rows.indptr[rows.row_ids]], rows.indices))


def _gram_band(rows: SparseRowBlock) -> np.ndarray:
    """``_band`` of J^T J, J the rows, from each row's pairwise products;
    its pair arrays are freed when it returns, before the factorization."""
    nnz = rows.nnz
    # entry e pairs with itself and the later entries of its row, row by row
    counts = rows.indptr[rows.row_ids + 1] - np.arange(nnz)
    left = np.arange(nnz).repeat(counts)
    right = _ranges(np.arange(nnz), counts)
    products = rows.data[left]
    products *= rows.data[right]
    return _band(rows.n_cols, rows.indices[left], rows.indices[right], products)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` over the given starts and counts."""
    # array methods, not numpy functions: this runs on small arrays per factor update
    out = (starts - counts.cumsum() + counts).repeat(counts)
    out += np.arange(out.size)
    return out


def _panel_qr(tri: np.ndarray, stk: np.ndarray, w: int, k: int) -> None:
    """One panel's triangular-pentagonal QR, in place: the ``w`` x ``k + 1``
    triangle of factor rows ``tri`` (a zero column last) over the stacked
    rows ``stk``, both Fortran-order, the panel's ``w`` pivot columns
    first.  ``dtpqrt`` turns the triangle into R and the stacked pivot
    columns into the reflectors, ``dtpmqrt`` applies the reflections to
    the other columns; nothing is done without stacked rows."""
    if not stk.shape[0]:
        return
    left, below, right, rest = tri[:, :w], stk[:, :w], tri[:, w:k], stk[:, w:]
    r, v, t, _ = lapack.dtpqrt(0, w, left, below, overwrite_a=True, overwrite_b=True)
    cr, cs = right, rest
    if k > w:
        cr, cs, _ = lapack.dtpmqrt(0, v, t, right, rest, trans="T", overwrite_a=True, overwrite_b=True)
    if r is not left or v is not below or cr is not right or cs is not rest:
        raise RuntimeError("LAPACK worked on a copy of the panel, not in place")


def _fold(diag, upper: SparseRowBlock, u: SparseRowBlock, pivots, rank, out_indptr, out_indices) -> tuple:
    """Re-triangularize the factor rows at ``pivots`` stacked over the rows
    of ``u``, one triangular-pentagonal LAPACK QR (``_panel_qr``) per panel
    of ``_PANEL`` consecutive pivots.

    ``diag`` is the factor diagonal, 0 on an empty row; ``upper`` holds the
    strictly-upper entries of the first ``upper.n_rows`` rows, any later
    row being empty.  ``pivots`` lists the rows to re-form in elimination
    order and ``rank`` gives the elimination position of every column, or
    is ``None`` for the identity order.  A row of ``u`` joins at the panel
    of its first stored column, which must be a pivot.

    More than ``_PANEL`` pivots take the planned panel loop,
    ``_fold_panels``.  Up to ``_PANEL`` pivots are one panel, folded here
    without a plan: its columns are the pivots, then every other column
    that a factor row or an update row stores, ascending in rank, and its
    stacked rows are the nonempty rows of ``u`` in order.  That is the
    single panel ``_fold_panels`` would form, so LAPACK sees the same
    arrays and the result is the same bit for bit.

    Returns the new diagonal at the pivots, 0 where no row supports a
    pivot, and the new values at the columns that the CSR ``(out_indptr,
    out_indices)`` lists for each pivot in turn; a listed column that no
    row of the panel stores reads 0.
    """
    if pivots.size > _PANEL:
        return _fold_panels(diag, upper, u, pivots, np.arange(u.n_cols) if rank is None else rank,
                            out_indptr, out_indices)
    w = pivots.size
    d = diag[pivots]
    full = d.nonzero()[0]
    counts, at = _rows_at(upper.indptr, pivots[full])
    f_row = full.repeat(counts)
    f_col = upper.indices[at]
    f_val = upper.data[at]
    lengths = u.indptr[1:] - u.indptr[:-1]
    live = lengths > 0
    u_row = (live.cumsum() - 1).repeat(lengths)
    u_col, g_col = u.indices, out_indices
    piv_rank = pivots
    if rank is not None:
        piv_rank, f_col, u_col, g_col = rank[pivots], rank[f_col], rank[u_col], rank[g_col]

    # every column the panel holds, ascending, and its slot: the pivots
    # first, then the others in turn
    every = np.unique(np.concatenate([piv_rank, f_col, u_col]))
    k = every.size
    at_piv = every.searchsorted(piv_rank)
    other = np.ones(k, dtype=bool)
    other[at_piv] = False
    slot = other.cumsum() + (w - 1)
    slot[at_piv] = np.arange(w)
    # a listed column that the panel lacks reads the zero column after it
    g_at = every.searchsorted(g_col)
    g_slot = np.where(every.take(g_at, mode="clip") == g_col, slot.take(g_at, mode="clip"), k)
    out_lengths = out_indptr[1:] - out_indptr[:-1]

    buf = np.zeros(w * (k + 1))
    tri = buf.reshape((w, k + 1), order="F")
    buf[:w * w:w + 1] = d
    buf[f_row + w * slot[every.searchsorted(f_col)]] = f_val
    stk = np.zeros((int(live.sum()), k), order="F")
    stk[u_row, slot[every.searchsorted(u_col)]] = u.data
    _panel_qr(tri, stk, w, k)
    head = buf[:w * w:w + 1]
    out = buf[w * g_slot + np.arange(w).repeat(out_lengths)]
    out *= np.where(head < 0.0, -1.0, 1.0).repeat(out_lengths)
    return np.abs(head), out


def _fold_panels(diag, upper: SparseRowBlock, u: SparseRowBlock, pivots, rank, out_indptr, out_indices) -> tuple:
    """``_fold`` by a panel loop planned before it, for any number of
    pivots; ``rank`` is an array here.

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
    f_rows = pivots[full]
    starts = upper.indptr[f_rows]
    f_counts = upper.indptr[f_rows + 1] - starts
    if f_rows.size and (f_rows[1:] - f_rows[:-1] == 1).all():
        # consecutive rows, as the heads pattern reaches, are one slice
        lo, hi = starts[0], starts[-1] + f_counts[-1]
        f_col, f_val = upper.indices[lo:hi], upper.data[lo:hi]
    else:
        at = _ranges(starts, f_counts)
        f_col, f_val = upper.indices[at], upper.data[at]
        del at
    f_col = rank[f_col]
    f_pan = piv_pan[full].repeat(f_counts)
    f_bounds = f_pan.searchsorted(np.arange(n_panels + 1)).tolist()

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
    np.minimum.at(enter, f_col, f_pan)
    np.minimum.at(enter, np.concatenate([piv_rank, u_col]), np.concatenate([piv_pan, u_pan]))
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
    # listed column that the panel lacks reads the zero column after it.
    # The arrays as long as the pivots' entries are the plan's largest, so
    # each is freed at its last use and fewer fresh pages are faulted in
    f_flat = pair_at[f_col]
    del f_col
    f_flat += f_pan
    del f_pan
    f_flat = pair_flat[f_flat]
    f_flat += (full % _PANEL).repeat(f_counts)
    u_slot = pair_slot[pair_at[u_col] + u_pan]
    out_lengths = out_indptr[1:] - out_indptr[:-1]
    g_pan = piv_pan.repeat(out_lengths)
    g_col = rank[out_indices]
    g_flat = pair_flat.take(pair_at[g_col] + g_pan, mode="clip")
    lacks = enter[g_col] > g_pan
    g_flat[lacks] = (widths * sizes)[g_pan[lacks]]
    g_flat += (np.arange(n_piv) % _PANEL).repeat(out_lengths)

    panels = np.arange(n_panels + 1)
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
        _panel_qr(tri, stk, w, k)
        head[lo:hi] = buf[:w * w:w + 1]
        out[ga:gb] = buf[g_flat[ga:gb]]
        t_rows = stk[:, t_first[p]:]
        live = t_rows.any(axis=1)
        if not live.all():
            t_rows = t_rows[live]

    out *= np.where(head < 0.0, -1.0, 1.0).repeat(out_lengths)
    return np.abs(head), out


def _heads_pattern(r: UpperTriangular, u: SparseRowBlock, nd: int):
    """``lowrank_update``'s pattern on a chain-skyline factor
    (``UpperTriangular._chain_heads``), read from the column heads with no
    walk and no merge; ``None`` for any other factor, and for an update
    that does not keep the appended variables a chain.

    Every update row joins the chain at its first column and climbs it row
    by row, so the reached rows are every row from the least first column
    on, and the updated factor is a chain skyline again, with ``head'[j] =
    min(head[j], first column of each update row storing j)``; an appended
    variable starts at ``head = j``.  Row i's columns are then ``{j > i :
    head'[j] <= i}``.  Past the old rows the chain holds only when an
    update row carries each appended variable on to the next and the rows
    have not all moved into place before the last one; otherwise
    ``_update_pattern`` gives the pattern.

    The new ``(row, column)`` pairs, those of the columns whose head moved
    up, are inserted into the reached rows' one contiguous slice of the old
    entries: each at its row's start, after the row's old columns below it
    (all of them for an appended column, else a search of the row) and its
    new ones below it.  Returns the first reached row and the new factor's
    CSR ``(indptr, indices)``; the rows before it keep their entries.
    """
    head = r._chain_heads
    if head is None:
        return None
    counts = u.indptr[1:] - u.indptr[:-1]
    rows = counts.nonzero()[0]
    if not rows.size:
        return None
    n = r.dim
    first = u.indices[u.indptr[rows]]
    start = int(first.min())
    was = np.arange(nd)
    was[:n] = head
    now = was.copy()
    np.minimum.at(now, u.indices, first.repeat(counts[rows]))
    past = max(n, start + 1)
    if (now[past:] >= np.arange(past, nd)).any():
        return None
    top = max(n, start)
    if top < nd - 1:
        # appended variable t takes one of the update rows that reach it,
        # and one must be left to travel on to t + 1
        reach = np.bincount(np.maximum(first - top, 0), minlength=nd - top).cumsum()[:-1]
        if (reach < np.arange(2, nd - top + 1)).any():
            return None

    # the new pairs, row by row: one row of ``holds`` per reached row, one
    # column per column whose head moved up
    changed = (now < was).nonzero()[0]
    span = np.arange(start, nd)[:, None]
    holds = (now[changed] <= span) & (span < was[changed])
    new_rows, new_at = holds.nonzero()
    new_rows += start
    cols = changed[new_at]
    extra = np.count_nonzero(holds, axis=1)
    old = r.upper
    lengths = np.zeros(nd, dtype=np.int64)
    lengths[:n] = old.indptr[1:] - old.indptr[:-1]
    # a pair's place in its row: after the row's old columns below it and
    # its new ones below it
    below = lengths[new_rows]
    inside = cols < n
    if inside.any():
        below[inside] = _ranks_in_rows(old.indptr, old.indices, new_rows[inside], cols[inside])
    below += np.arange(cols.size) - (extra.cumsum() - extra)[new_rows - start]
    lengths[start:] += extra
    indptr = np.zeros(nd + 1, dtype=np.int64)
    lengths.cumsum(out=indptr[1:])
    a = int(indptr[start])
    place = indptr[new_rows] - a + below
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    indices[:a] = old.indices[:a]
    tail = indices[a:]
    keep = np.ones(tail.size, dtype=bool)
    keep[place] = False
    tail[keep] = old.indices[a:]
    tail[place] = cols
    return start, indptr, indices


def _ranks_in_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """How many of row ``rows[k]``'s stored columns lie below ``cols[k]``,
    for every k: a binary search of each row's slice, all at once."""
    lo, hi = indptr[rows], indptr[rows + 1]
    start = lo
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        open_ = lo < hi
        mid = (lo + hi) >> 1
        right = open_ & (indices.take(mid, mode="clip") < cols)
        lo = np.where(right, mid + 1, lo)
        hi = np.where(open_ & ~right, mid, hi)
    return lo - start


def _update_pattern(r: UpperTriangular, u: SparseRowBlock) -> tuple:
    """The rows that ``lowrank_update`` re-forms and their new columns, from
    the stored patterns alone, with no numerics: the general pattern pass,
    for any factor.  On a chain skyline ``_heads_pattern`` gives the same
    pattern from the column heads.

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
    group climbs such rows one after another without the heap
    (``_update_walk``).  At the end each reached row's stored columns and
    its carried ones are merged: row by row as sorted sets when at most
    ``_PANEL`` rows are reached (``_merge_by_row``), else in one sort of
    ``position * width + column`` keys (``_merge_by_keys``).

    Returns the reached pivots, ascending, and their new strictly-upper
    columns as CSR ``(indptr, indices)`` over those pivots.
    """
    walk = _update_walk(r, u)
    if len(walk[0]) <= _PANEL:
        return _merge_by_row(r, *walk)
    return _merge_by_keys(r, u.n_cols, *walk)


def _update_walk(r: UpperTriangular, u: SparseRowBlock) -> tuple:
    """The walk of ``_update_pattern``'s groups up the factor, as lists:
    the reached pivots, ascending; and in steps, each step's carried
    columns (a sorted tuple) and its number of reached rows, which all
    carry them."""
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
    return reached, carried, rows_each


def _merge_by_row(r: UpperTriangular, reached: list, carried: list, rows_each: list) -> tuple:
    """``_update_pattern``'s result from its walk, each reached row's stored
    and carried columns merged as a sorted set union of its own."""
    dim = r.dim
    first = r._row_links[0]
    bounds = r.upper.indptr
    indices = r.upper.indices
    rows = []
    at = iter(reached)
    for x, k in zip(carried, rows_each):
        for t in itertools.islice(at, k):
            if t >= dim or first[t] < 0:
                # a row that stores nothing takes the carried columns as they are
                rows.append(x)
            else:
                own = indices[bounds[t]:bounds[t + 1]].tolist()
                rows.append(sorted(set(own).union(x)) if x else own)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)).cumsum(out=indptr[1:])
    cols = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1]))
    return np.array(reached, dtype=np.int64), indptr, cols


def _merge_by_keys(r: UpperTriangular, width: int, reached: list, carried: list, rows_each: list) -> tuple:
    """``_update_pattern``'s result from its walk, every reached row's stored
    and carried columns merged in one sort of ``position * width + column``
    keys."""
    dim = r.dim
    bounds = r.upper.indptr
    indices = r.upper.indices
    n_own = bisect.bisect_left(reached, dim)
    reached = np.array(reached, dtype=np.int64)
    starts = bounds[reached[:n_own]]
    counts = bounds[reached[:n_own] + 1] - starts
    segments = list(zip(carried, rows_each))
    lengths = np.fromiter(itertools.chain.from_iterable(itertools.repeat(len(x), k) for x, k in segments),
                          dtype=np.int64, count=reached.size)
    flat = np.fromiter(itertools.chain.from_iterable(x * k for x, k in segments), dtype=np.int64)
    indptr = np.zeros(reached.size + 1, dtype=np.int64)
    if not counts.any():
        # no reached row stores anything: the carried columns are the rows
        lengths.cumsum(out=indptr[1:])
        return reached, indptr, flat
    # two runs that are sorted already, which the stable sort merges
    keys = np.concatenate([
        np.repeat(np.arange(n_own, dtype=np.int64), counts) * width + indices[_ranges(starts, counts)],
        np.repeat(np.arange(reached.size, dtype=np.int64), lengths) * width + flat,
    ])
    keys.sort(kind="stable")
    keys = keys[np.diff(keys, prepend=-1) != 0]
    pos, cols = np.divmod(keys, width)
    np.cumsum(np.bincount(pos, minlength=reached.size), out=indptr[1:])
    return reached, indptr, cols


def lowrank_update(r: UpperTriangular, u: SparseRowBlock, n_new: int = 0) -> UpperTriangular:
    """Rank-k information update of a triangular factor (the multiple-rank
    update of Davis & Hager, SIAM J. Matrix Anal. Appl. 2001).

    Returns upper-triangular R+ of dimension ``r.dim + n_new`` satisfying
    (R+)^T (R+) = [R | 0]^T [R | 0] + u^T u.  A pattern pass fixes which
    factor rows the update rows reach and each reached row's new columns:
    its own plus those of the groups of update rows that reach it.  The
    pass reads only the stored patterns, so a stored zero, in the factor
    or in an update row, is an entry like any other, as in ``cholesky``.
    Where the inputs store exact zeros, the result may store more zero
    entries than a pattern that reads the values would; it is the same
    factor.  On a chain-skyline factor the pattern is read from the column
    heads (``_heads_pattern``), which are worked out once per factor and
    kept on it; the reached rows are then every row from the least first
    column on, and the new factor keeps the rows before them as one slice.
    A factor with empty rows, as a sparsified one, takes the same path on
    its kept chain (``UpperTriangular._kept_chain``), the factor renumbered
    to the scalars it stores, when that is a chain skyline and the update
    stores none of the other columns: the update's columns are renumbered
    (appended column j to ``m + (j - n)`` for m kept scalars), the pattern
    and the fold run there, and the result is read back once (the diagonal
    by scatter, the row bounds from the scattered row lengths, the columns
    through the map, the values as they are).  The other scalars are
    isolated, so no update row reaches them and the result is the walk's.
    Any other factor, or an update that does not keep the appended
    variables a chain, takes the walk (``_update_pattern``), whose per-row
    facts are also kept on the factor, and its rows are merged row by row
    when they are at most ``_PANEL``, in one array merge otherwise; a row
    that stores nothing takes its carried columns without a merge.  The
    panel fold (``_fold``) then
    re-triangularizes the reached rows stacked over the update rows, a
    panel of consecutive reached rows per triangular-pentagonal QR (one
    panel, without a plan, for at most ``_PANEL`` rows), each update row
    joining at its first stored column (an appended variable is a zero row
    of the triangle until a row moves into place), and the new values are
    read at those columns.  Rows no update row reaches keep their stored
    entries, bit for bit: after the walk the new factor is spliced from
    slices, each run of consecutive reached rows taking its new entries and
    each range of rows between two runs its old ones, so the splice reads
    the row bounds only at the ends of the runs and makes no nnz-sized
    temporary.  A factor that stores nothing keeps nothing: the new entries
    are the whole factor, placed by the row lengths alone.

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

    # the heads path runs on the factor, or on its kept chain ``f`` in the
    # chain's own numbering when the factor has scalars outside it
    f, fu = r, u
    found = r._kept_chain
    if found is not None:
        kept, where, f = found
        fu = _renumbered(u, where, f.dim)
    heads = None if fu is None else _heads_pattern(f, fu, f.dim + n_new)
    if heads is None:
        f, fu = r, u
        pivots, p_indptr, p_indices = _update_pattern(r, u)
    else:
        start, indptr, indices = heads
        a = indptr[start]
        pivots = np.arange(start, f.dim + n_new)
        p_indptr, p_indices = indptr[start:] - a, indices[a:]
    diag = np.zeros(f.dim + n_new)
    diag[: f.dim] = f.diag
    new_diag, vals = _fold(diag, f.upper, fu, pivots, None, p_indptr, p_indices)
    diag[pivots] = new_diag
    if f is not r:
        # back to every scalar: ``to`` maps the chain's numbering to the factor's
        to = np.concatenate((kept, np.arange(r.dim, nd)))
        full = np.zeros(nd)
        full[: r.dim] = r.diag
        full[to] = diag
        diag = full
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

    if heads is not None:
        data = np.concatenate((f.upper.data[:a], vals))
        if f is not r:
            lengths = np.zeros(nd, dtype=np.int64)
            lengths[to] = indptr[1:] - indptr[:-1]
            indptr = np.zeros(nd + 1, dtype=np.int64)
            lengths.cumsum(out=indptr[1:])
            indices = to[indices]
        return UpperTriangular(diag, SparseRowBlock(nd, nd, indptr, indices, data))

    # splice: reached rows take their new entries, the others keep theirs
    old = r.upper
    lengths = np.zeros(nd, dtype=np.int64)
    lengths[: r.dim] = old.indptr[1:] - old.indptr[:-1]
    lengths[pivots] = p_indptr[1:] - p_indptr[:-1]
    indptr = np.zeros(nd + 1, dtype=np.int64)
    lengths.cumsum(out=indptr[1:])
    if not old.nnz:
        # no row keeps an entry: the new ones are the whole factor, in turn
        return UpperTriangular(diag, SparseRowBlock(nd, nd, indptr, p_indices, vals))
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    data = np.empty(indices.size)
    # the rows where a run of consecutive pivots starts (a pivot after a row
    # that is none) or stops (a row that is none after a pivot) are those in
    # just one of ``pivots`` and ``pivots + 1``.  Rows ends[2j]..ends[2j + 1]
    # - 1 keep theirs, rows ends[2j + 1]..ends[2j + 2] - 1 are the j-th run
    ends = np.concatenate(([0], np.setxor1d(pivots, pivots + 1, assume_unique=True), [nd]))
    new_at = indptr[ends].tolist()
    old_at = old.indptr[np.minimum(ends, r.dim)].tolist()
    taken = 0
    for j in range(0, ends.size - 1, 2):
        a, b = new_at[j], new_at[j + 1]
        indices[a:b] = old.indices[old_at[j]:old_at[j + 1]]
        data[a:b] = old.data[old_at[j]:old_at[j + 1]]
        if j + 2 < ends.size:
            c = new_at[j + 2]
            indices[b:c] = p_indices[taken:taken + c - b]
            data[b:c] = vals[taken:taken + c - b]
            taken += c - b
    return UpperTriangular(diag, SparseRowBlock(nd, nd, indptr, indices, data))


def _renumbered(u: SparseRowBlock, where: np.ndarray, m: int):
    """The update rows ``u`` over the columns of a factor's kept chain
    (``UpperTriangular._kept_chain``): old column ``c`` at ``where[c]``,
    appended column ``j`` at ``m + (j - n)``, ``n`` being ``where.size``.
    ``None`` when a row stores a column outside the chain."""
    n = where.size
    cols = u.indices
    old = cols < n
    out = cols + (m - n)
    out[old] = where[cols[old]]
    if (out < 0).any():
        return None
    return SparseRowBlock(u.n_rows, u.n_cols + m - n, u.indptr, out, u.data)


def _rows_at(indptr: np.ndarray, rows: np.ndarray) -> tuple:
    """Entry counts of ``rows`` and the positions of their entries, row by
    row."""
    counts = indptr[rows + 1] - indptr[rows]
    return counts, _ranges(indptr[rows], counts)


def _column_heads(u: SparseRowBlock, split: int) -> np.ndarray:
    """``head[j]``: the first row from ``split`` on that stores column
    ``j``, ``j`` itself if none does."""
    lo = u.indptr[split]
    head = np.arange(u.n_rows)
    np.minimum.at(head, u.indices[lo:], u.row_ids[lo:])
    return head


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
    over the trailing entries, none when the factor is a chain skyline whose
    heads it keeps (``UpperTriangular._chain_heads``), then arrays of
    length ``n``.
    """
    n = r.dim
    u = r.upper
    split = int(kept[0])
    every = np.arange(n)
    if r._chain_heads is not None:
        # a chain skyline's trailing rows store column j > split from row
        # max(head[j], split) on
        head = np.where(every > split, np.maximum(r._chain_heads, split), every)
    else:
        head = _column_heads(u, split)
        if int((every - head).sum()) != u.nnz - u.indptr[split]:
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
