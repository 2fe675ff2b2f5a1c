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
passes (``cholesky``'s elimination sweep, the update pattern of
``lowrank_update`` and the fill-path rule of ``sparsify_factor``) read the
stored coordinates alone, so a stored zero is an entry like any other.
Nonzero counts reported elsewhere in the package are counts of stored
entries, so they are exact and reproducible.

The kernels never form a dense n x n matrix (``to_dense`` exists for tests
and small inputs).  ``cholesky`` splits into a symbolic fill, one sweep
that builds each factor row from its own entries and its elimination-tree
children and so fixes the pattern, and a numeric sparse factorization by
SuperLU in the given order.  ``SparseRowBlock.gram``, the one Gram kernel
(J^T J of constraint rows; R^T R of a factor, through ``UpperTriangular``),
takes its pattern from a 0/1 sparse product and its values from the data
product.  Both scatter the numeric product onto the structural pattern
(``_values_on_pattern``).

Changing a factor is one panel kernel, ``_fold``: it re-triangularizes
factor rows stacked over extra rows, a panel of consecutive pivot rows per
LAPACK QR (``dgeqrf`` on the pivot columns, ``dormqr`` on the rest), and
carries the rows left over to the next panel.  Its two callers fix the
stored pattern separately:

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
  fill-path rule.

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

# Consecutive pivot rows that ``_fold`` re-triangularizes per LAPACK call.
# Measured on the 16 plan-1k candidate updates (one BLAS thread, 2-vCPU
# x86_64 VM): widths 32 to 64 tie, 16 is 1.5x and 8 is 2.5x slower.  Up to
# 32 reflections ``dormqr`` applies them one at a time.
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
    their ``(rows, cols)``, which the pattern must contain, and zero at every
    other stored position, so entries a numeric product dropped stay
    structural."""
    n = indptr.size - 1
    # n is the size of an in-memory matrix, so n**2 fits int64
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)) * n + indices
    out = np.zeros(indices.size)
    out[np.searchsorted(keys, np.asarray(rows, dtype=np.int64) * n + cols)] = vals
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
        """Read-only per-row views of ``indices``."""
        return _row_views(self.indices, self.indptr)

    @cached_property
    def row_vals(self) -> tuple:
        """Read-only per-row views of ``data``."""
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


def _elimination_sweep(n: int, rows, initial) -> tuple[np.ndarray, np.ndarray]:
    """Strictly-upper pattern of the symbolic elimination of ``rows``, in
    increasing order, as CSR ``(indptr, indices)`` over ``n`` rows.

    Row i holds its set in ``initial`` plus the columns of every earlier
    row whose first column is i (its children in the elimination tree),
    less i itself (Liu 1990).  Rows not listed are empty.
    """
    children: dict = {}
    rows_fill = []
    for i, fill in zip(rows, initial):
        fill.update(*children.pop(i, ()))
        fill.discard(i)
        row = sorted(fill)
        rows_fill.append(row)
        if row:
            children.setdefault(row[0], []).append(row)
    lengths = np.zeros(n, dtype=np.int64)
    lengths[rows] = np.fromiter(map(len, rows_fill), dtype=np.int64, count=len(rows_fill))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(rows_fill), dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


def _symbolic_fill(m: SparseSymmetric) -> tuple[np.ndarray, np.ndarray]:
    """Strictly-upper fill pattern of the factor as CSR ``(indptr,
    indices)``: the elimination sweep over the rows of ``m``.  The pattern
    depends only on the stored coordinates, so stored zeros are structural.
    """
    n = m.dim
    bounds = m.upper.indptr.tolist()
    cols = m.upper.indices.tolist()
    return _elimination_sweep(n, range(n), (set(cols[bounds[i]:bounds[i + 1]]) for i in range(n)))


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

    The stored pattern is the exact symbolic fill of ``_symbolic_fill`` (no
    reordering is attempted; stored zeros are structural).  The values come
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
    indptr, indices = _symbolic_fill(m)
    vals = _values_on_pattern(
        indptr, indices, u_rows[u_off], u.indices[u_off], u.data[u_off] / diag[u_rows[u_off]]
    )
    return UpperTriangular(diag, SparseRowBlock(n, n, indptr, indices, vals))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(s, s + c)`` over the given starts and counts."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()), dtype=np.int64)


def _fold(diag, upper: SparseRowBlock, u: SparseRowBlock, pivots, rank, out_indptr, out_indices) -> tuple:
    """Re-triangularize the factor rows at ``pivots`` stacked over the rows
    of ``u``, one LAPACK QR per panel of ``_PANEL`` consecutive pivots.

    ``diag`` is the factor diagonal, 0 on an empty row; ``upper`` holds the
    strictly-upper entries of the first ``upper.n_rows`` rows, any later
    row being empty.  ``pivots`` lists the rows to re-form in elimination
    order and ``rank`` gives the elimination position of every column.  A
    row of ``u`` joins at the panel of its first nonzero column, which must
    be a pivot.  For each panel, the panel's factor rows (a zero row where a
    row is empty), the rows travelling on from earlier panels and the rows
    that join form one dense Fortran-order array: the pivot columns, the
    other columns the rows store, and one zero column.  ``dgeqrf``
    triangularizes the pivot columns and ``dormqr`` applies the reflections
    to the rest.  The first rows of the result, sign-normalized, are the
    new factor rows; the others travel on over the columns after the panel.

    Returns the new diagonal at the pivots, 0 where no row supports a
    pivot, and the new values at the columns that the CSR ``(out_indptr,
    out_indices)`` lists for each pivot in turn; a listed column that no
    row of the panel stores reads 0.
    """
    n_cols = u.n_cols
    piv_rank = rank[pivots]
    d = diag[pivots]
    n_panels = -(-pivots.size // _PANEL)
    panel_ends = np.minimum(np.arange(1, n_panels + 1) * _PANEL, pivots.size)

    # the factor rows' entries, panel by panel
    full = np.flatnonzero(d)
    full_bounds = np.searchsorted(full, panel_ends).tolist()
    starts = upper.indptr[pivots[full]]
    counts = upper.indptr[pivots[full] + 1] - starts
    f_at = _ranges(starts, counts)
    f_row = np.repeat(full, counts)
    f_col = rank[upper.indices[f_at]]
    f_val = upper.data[f_at]
    f_bounds = np.searchsorted(f_row, panel_ends).tolist()

    # every update row joins at the panel of its first nonzero column
    nz = np.flatnonzero(u.data)
    nz_rows = u.row_ids[nz]
    lead = np.flatnonzero(np.diff(nz_rows, prepend=-1))
    first = np.minimum.reduceat(rank[u.indices[nz]], lead) if nz.size else _EMPTY_I
    joins = np.searchsorted(piv_rank, first) // _PANEL
    order = np.argsort(joins, kind="stable")
    joining = nz_rows[lead][order]
    starts = u.indptr[joining]
    counts = u.indptr[joining + 1] - starts
    u_at = _ranges(starts, counts)
    u_row = np.repeat(np.arange(joining.size), counts)
    u_col = rank[u.indices[u_at]]
    u_val = u.data[u_at]
    j_bounds = np.searchsorted(joins[order], np.arange(n_panels + 1)).tolist()
    u_bounds = np.concatenate(([0], np.cumsum(counts)))[j_bounds].tolist()

    out_row = np.repeat(np.arange(pivots.size), np.diff(out_indptr))
    out_col = rank[out_indices]
    o_bounds = out_indptr[np.concatenate(([0], panel_ends))].tolist()
    out = np.empty(out_indices.size)

    new_diag = np.empty(pivots.size)
    mark = np.zeros(n_cols, dtype=bool)
    # a column's place in the panel's array; -1, its last column, stays zero
    slot = np.full(n_cols, -1, dtype=np.int64)
    t_cols = _EMPTY_I
    t_rows = np.empty((0, 0))
    lo = 0
    for p, hi in enumerate(panel_ends.tolist()):
        piv = piv_rank[lo:hi]
        w = hi - lo
        fa, fb = f_bounds[p - 1] if p else 0, f_bounds[p]
        ua, ub = u_bounds[p], u_bounds[p + 1]
        mark[f_col[fa:fb]] = True
        mark[u_col[ua:ub]] = True
        mark[t_cols] = True
        mark[piv] = False
        other = np.flatnonzero(mark)
        mark[other] = False
        slot[piv] = np.arange(w)
        slot[other] = np.arange(w, w + other.size)

        m = t_rows.shape[0]
        joined = j_bounds[p + 1] - j_bounds[p]
        a = np.zeros((w + m + joined, w + other.size + 1), order="F")
        k = full[full_bounds[p - 1] if p else 0:full_bounds[p]] - lo
        a[k, k] = d[lo + k]
        a[f_row[fa:fb] - lo, slot[f_col[fa:fb]]] = f_val[fa:fb]
        a[w:w + m, slot[t_cols]] = t_rows
        a[u_row[ua:ub] - j_bounds[p] + w + m, slot[u_col[ua:ub]]] = u_val[ua:ub]

        # in place: the pivot columns become R and the reflectors, the rest Q^T times itself
        left, right = a[:, :w], a[:, w:]
        qr, tau, _, _ = lapack.dgeqrf(left, overwrite_a=True)
        cq, _, _ = lapack.dormqr("L", "T", qr, tau, right, other.size + 1, overwrite_c=True)
        if qr is not left or cq is not right:
            raise RuntimeError("LAPACK worked on a copy of the panel, not in place")
        head = np.diagonal(a)[:w]
        new_diag[lo:hi] = np.abs(head)
        oa, ob = o_bounds[p], o_bounds[p + 1]
        rows = out_row[oa:ob] - lo
        out[oa:ob] = a[rows, slot[out_col[oa:ob]]] * np.where(head < 0.0, -1.0, 1.0)[rows]

        split = int(np.searchsorted(other, piv[-1]))
        t_cols = other[split:]
        t_rows = a[w:, w + split:-1]
        t_rows = t_rows[t_rows.any(axis=1)]
        slot[piv] = -1
        slot[other] = -1
        lo = hi
    return new_diag, out


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
    a panel of consecutive reached rows per LAPACK QR, and the new values
    are read at those columns.  Rows no update row reaches keep their
    stored entries, bit for bit.

    Raises RankDeficientAugmentation if any of the ``n_new`` appended
    variables ends up without diagonal support, its squared diagonal at or
    below ``PIVOT_FLOOR`` as for ``cholesky`` (singular posterior).
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
        raise RankDeficientAugmentation(
            f"appended variable {int(weak[0]) + r.dim} has no supporting row (pivot at or below {PIVOT_FLOOR:.0e})"
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


def _kept_fill(r: UpperTriangular, selected: np.ndarray, split: int) -> tuple:
    """Strictly-upper fill pattern of the kept rows when the trailing rows
    of ``r`` (from ``split`` on) are re-factored with the ``selected``
    scalars eliminated first, as CSR ``(indptr, indices)`` over all rows;
    selected rows are empty.

    By the fill-path theorem, kept scalars are linked when a factor row
    links them or when they touch the same connected component of the
    selected subgraph; the pattern is then the symbolic elimination of that
    graph in kept order (``_elimination_sweep``).  Each factor row and each
    component links a clique, so its members are given to its least member
    only: the elimination carries them up the elimination tree to the rest.
    """
    n = r.dim
    u = r.upper
    lo = u.indptr[split]
    rows, cols = u.row_ids[lo:], u.indices[lo:]
    sel = selected[cols]
    # a row joins its selected columns and, through its diagonal, itself:
    # one edge from the row's node to each of them
    counts = np.bincount(rows[sel], minlength=n)
    graph = sp.csr_matrix((np.ones(int(counts.sum())), cols[sel], np.concatenate(([0], np.cumsum(counts)))),
                          shape=(n, n))
    component = connected_components(graph, directed=False)[1]
    touches = np.full(n, -1, dtype=np.int64)
    trailing = np.arange(split, n)
    touching = trailing[selected[split:] | (counts[split:] > 0)]
    touches[touching] = component[touching]

    # the kept members of all rows that touch one component form its clique
    kept = np.flatnonzero(~selected[split:]) + split
    k_rows = np.concatenate([rows[~sel], kept])
    k_cols = np.concatenate([cols[~sel], kept])
    via = touches[k_rows]
    comp, members = np.divmod(np.unique(via[via >= 0] * n + k_cols[via >= 0]), n)
    cliques: dict = {}
    edges = np.flatnonzero(np.diff(comp, append=-1)) + 1
    for a, b in zip(np.concatenate(([0], edges[:-1])).tolist(), edges.tolist()):
        if b - a > 1:
            cliques.setdefault(int(members[a]), []).append(members[a + 1:b].tolist())

    bounds = r.upper.indptr[kept].tolist()
    ends = r.upper.indptr[kept + 1].tolist()
    initial = (
        set(r.upper.indices[a:b].tolist() if plain else ()).union(*cliques.get(i, ()))
        for i, a, b, plain in zip(kept.tolist(), bounds, ends, (touches[kept] < 0).tolist())
    )
    return _elimination_sweep(n, kept, initial)


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
    values.  The kept rows' stored pattern is the fill pattern of the
    re-factored trailing block (``_kept_fill``), so stored entries that are
    zero in exact arithmetic are kept, as ``cholesky`` keeps them.  When no
    selected scalar follows the first kept one, no reordering is needed and
    the rows are only cut.
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

    indptr, indices = _kept_fill(r, selected, split)
    lengths = np.diff(indptr)
    crossing = ~selected[u.row_ids] & selected[u.indices]
    moved = np.unique(u.row_ids[crossing])
    first = u.indices[crossing].min(initial=n)
    pivots = np.concatenate([
        np.flatnonzero(selected[first:]) + first,
        kept[(kept >= moved.min(initial=n)) & (kept <= moved.max(initial=-1))],
    ])
    refolded = pivots[~selected[pivots]]
    rank = np.empty(n, dtype=np.int64)
    rank[np.concatenate([np.flatnonzero(selected), kept])] = np.arange(n)
    # the moved rows, diagonal first
    counts = u.indptr[moved + 1] - u.indptr[moved]
    at = _ranges(u.indptr[moved], counts)
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
    same = ~selected
    same[refolded] = False
    same = same[u.row_ids]
    data = _values_on_pattern(indptr, indices, u.row_ids[same], u.indices[same], u.data[same])
    data[p_at] = vals
    return UpperTriangular(diag, SparseRowBlock(n, n, indptr, indices, data))


def logdet_triangular(r: UpperTriangular) -> float:
    """log |R^T R| = 2 * sum(log diag(R)); linear in the dimension."""
    return float(2.0 * np.sum(np.log(r.diag)))
