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
``row_cols``/``row_vals`` expose each row as a read-only view for the
kernel that works row by row (the factor update).

"Structural" means the stored pattern is the symbolic support produced by
the operation (elimination fill, the pattern unions of an update),
independent of values that happen to cancel to zero.  Nonzero counts
reported elsewhere in the package are counts of stored entries, so they are
exact and reproducible.

The kernels never form a dense n x n matrix (``to_dense`` exists for tests
and small inputs).  ``cholesky`` splits into a symbolic fill, one sweep
that builds each factor row from its own entries and its elimination-tree
children and so fixes the pattern, and a numeric sparse factorization by
SuperLU in the given order.  ``SparseRowBlock.gram``, the one Gram kernel
(J^T J of constraint rows; R^T R of a factor, through ``UpperTriangular``),
takes its pattern from a 0/1 sparse product and its values from the data
product.  Both scatter the numeric product onto the structural pattern
(``_values_on_pattern``).  ``lowrank_update`` adds constraint rows to a
factor one pivot row at a time: the rows that reach a pivot are merged with
it into one small dense block and folded in by one Householder reflection.

All types are immutable after construction and every operation returns a
new object; instances can be shared freely.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficientAugmentation,
    ShapeViolation,
)

# Pivots at or below this floor are treated as numerically singular.
# Failing loudly (rather than jittering the diagonal) keeps factors exact,
# which the zero-offset guarantee of uninvolved-variable sparsification
# depends on.
PIVOT_FLOOR = 1e-12

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
    def from_rows(cls, n_cols: int, row_cols, row_vals) -> "SparseRowBlock":
        """Pack per-row sorted column/value arrays."""
        n_rows = len(row_cols)
        lengths = np.fromiter(map(len, row_cols), dtype=np.int64, count=n_rows)
        if len(row_vals) != n_rows or not np.array_equal(
            lengths, np.fromiter(map(len, row_vals), dtype=np.int64, count=len(row_vals))
        ):
            raise ValueError("row arrays must have equal length")
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if not n_rows:
            return cls(0, n_cols, indptr, _EMPTY_I, _EMPTY_F)
        return cls(n_rows, n_cols, indptr, np.concatenate(row_cols), np.concatenate(row_vals))

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
    def from_rows(cls, diag, row_cols, row_vals) -> "UpperTriangular":
        """Build from the diagonal plus per-row strictly-upper column/value arrays."""
        return cls(diag, SparseRowBlock.from_rows(len(diag), row_cols, row_vals))

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

    def trailing(self, k: int) -> "UpperTriangular":
        """The principal block of rows and columns ``k..dim-1``."""
        u = self.upper
        start = u.indptr[k]
        m = self.dim - k
        return UpperTriangular(
            self.diag[k:], SparseRowBlock(m, m, u.indptr[k:] - start, u.indices[start:] - k, u.data[start:])
        )

    def with_diagonal_head(self, head) -> "UpperTriangular":
        """Block-diagonal factor diag(head) (+) self."""
        head = _as_value_array(head)
        k = head.size
        u = self.upper
        n = self.dim + k
        indptr = np.concatenate([np.zeros(k, dtype=np.int64), u.indptr])
        return UpperTriangular(
            np.concatenate([head, self.diag]), SparseRowBlock(n, n, indptr, u.indices + k, u.data)
        )

    def gram_nnz(self) -> int:
        return self.as_row_block().gram_nnz()

    def gram(self) -> SparseSymmetric:
        """(self)^T (self); see ``SparseRowBlock.gram``."""
        return self.as_row_block().gram()

    def gram_diagonal(self) -> np.ndarray:
        """Diagonal of (self)^T (self) without forming the product."""
        out = self.diag ** 2
        np.add.at(out, self.upper.indices, self.upper.data ** 2)
        return out


@dataclass(frozen=True)
class Permutation:
    """Index permutation with its precomputed inverse.

    ``forward[i]`` is the source index that lands at position ``i`` of the
    permuted object, so applying the permutation reads
    ``out[i, j] = m[forward[i], forward[j]]``.
    """

    forward: np.ndarray
    inverse: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        forward = _as_index_array(self.forward)
        n = forward.size
        inverse = np.empty(n, dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        if n == 0:
            raise ValueError("permutation must be non-empty")
        if forward.min() < 0 or forward.max() >= n:
            raise ValueError("permutation indices out of range")
        np.add.at(counts, forward, 1)
        if np.any(counts != 1):
            raise ValueError("permutation indices must be distinct")
        inverse[forward] = np.arange(n, dtype=np.int64)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "inverse", inverse)

    @classmethod
    def move_to_front(cls, dim: int, first: list[int]) -> "Permutation":
        """Stable permutation placing ``first`` (in their original relative
        order) ahead of all remaining indices (also order-preserving)."""
        first_arr = _as_index_array(np.sort(np.asarray(list(first), dtype=np.int64)))
        mask = np.zeros(dim, dtype=bool)
        mask[first_arr] = True
        rest = np.nonzero(~mask)[0]
        return cls(np.concatenate([first_arr, rest]))

    @property
    def dim(self) -> int:
        return int(self.forward.size)

    def inverted(self) -> "Permutation":
        return Permutation(self.inverse.copy())


# ---------------------------------------------------------------------------
# Factorization and updates
# ---------------------------------------------------------------------------


def _symbolic_fill(m: SparseSymmetric) -> tuple[np.ndarray, np.ndarray]:
    """Strictly-upper fill pattern of the factor as CSR ``(indptr,
    indices)``, in one sweep over the rows.

    Row i of the factor holds the columns stored in row i of ``m`` plus the
    columns of every factor row whose first column is i (its children in
    the elimination tree), less i itself (Liu 1990).  The pattern depends
    only on the stored coordinates, so stored zeros are structural.
    """
    n = m.dim
    bounds = m.upper.indptr.tolist()
    cols = m.upper.indices.tolist()
    children: list[list[list[int]]] = [[] for _ in range(n)]
    rows_fill = []
    for i in range(n):
        fill = set(cols[bounds[i]:bounds[i + 1]]).union(*children[i])
        fill.discard(i)
        row = sorted(fill)
        rows_fill.append(row)
        if row:
            children[row[0]].append(row)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows_fill), dtype=np.int64, count=n), out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(rows_fill), dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


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
    NotPositiveDefinite, naming the first failing pivot, when a pivot is at
    or below the pivot floor or SuperLU had to pivot or found the matrix
    singular; the input is never jittered.  No dense matrix is formed.
    """
    n = m.dim
    lu = _unpivoted_lu(m, n)
    i = _failing_pivot(m) if lu is None else _first_bad_pivot(lu)
    if i is not None:
        raise NotPositiveDefinite(f"pivot at index {i} is at or below {PIVOT_FLOOR:.0e} or off the diagonal")

    u = lu.U.tocsr()
    u_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(u.indptr))
    u_off = u.indices != u_rows
    diag = np.sqrt(u.diagonal())
    indptr, indices = _symbolic_fill(m)
    vals = _values_on_pattern(
        indptr, indices, u_rows[u_off], u.indices[u_off], u.data[u_off] / diag[u_rows[u_off]]
    )
    return UpperTriangular(diag, SparseRowBlock(n, n, indptr, indices, vals))


def permute_symmetric(m: SparseSymmetric, p: Permutation) -> SparseSymmetric:
    """Symmetric reordering: out[i, j] = m[p(i), p(j)].  nnz is unchanged."""
    if p.dim != m.dim:
        raise DimensionMismatch(f"permutation dim {p.dim} != matrix dim {m.dim}")
    u = m.upper
    new_r = p.inverse[u.row_ids]
    new_c = p.inverse[u.indices]
    lo = np.minimum(new_r, new_c)
    hi = np.maximum(new_r, new_c)
    return SparseSymmetric(SparseRowBlock.from_coo(m.dim, m.dim, lo, hi, u.data))


def permute_triangular_back(
    r: UpperTriangular, p: Permutation, sparsified: set[int] | frozenset[int]
) -> UpperTriangular:
    """Reorder a factor whose ``sparsified`` rows are diagonal-only.

    Because those rows carry no off-diagonal entries, applying the
    permutation directly to the factor keeps it upper triangular; the
    result squares to the correspondingly permuted symmetric product.
    Raises ShapeViolation if any stored entry would land below the
    diagonal, which indicates the named rows were not actually sparsified
    (or the permutation does not match the sparsified-first ordering).
    """
    if p.dim != r.dim:
        raise DimensionMismatch(f"permutation dim {p.dim} != factor dim {r.dim}")
    named = np.fromiter(sparsified, dtype=np.int64, count=len(sparsified))
    still_dense = named[np.diff(r.upper.indptr)[named] > 0]
    if still_dense.size:
        raise ShapeViolation(
            f"row {int(still_dense.min())} was named as sparsified but still has off-diagonal entries"
        )
    inv = p.inverse
    new_diag = np.empty(r.dim)
    new_diag[inv] = r.diag
    new_rows = inv[r.upper.row_ids]
    new_cols = inv[r.upper.indices]
    below = np.nonzero(new_cols < new_rows)[0]
    if below.size:
        raise ShapeViolation(
            f"entry of row {int(r.upper.row_ids[below[0]])} would land below the diagonal after "
            "permutation; rows selected for sparsification still carry off-diagonal entries"
        )
    return UpperTriangular(new_diag, SparseRowBlock.from_coo(r.dim, r.dim, new_rows, new_cols, r.upper.data))


def _merge_onto_row(t: int, d: float, row_c, row_v, groups) -> tuple:
    """Factor row ``t`` (diagonal ``d``, tail ``row_c``/``row_v``) stacked over
    the ``(columns, block)`` groups that start at column ``t``, as one dense
    ``(1 + m) x |pattern|`` array on the union of their patterns."""
    pattern = np.concatenate([row_c, *(cols for cols, _ in groups)])
    pattern.sort()
    pattern = pattern[np.concatenate(([True], pattern[1:] != pattern[:-1]))]
    out = np.zeros((1 + sum(block.shape[0] for _, block in groups), pattern.size))
    out[0, 0] = d
    out[0, pattern.searchsorted(row_c)] = row_v
    i = 1
    for cols, block in groups:
        out[i:i + block.shape[0], pattern.searchsorted(cols)] = block
        i += block.shape[0]
    return pattern, out


def lowrank_update(r: UpperTriangular, u: SparseRowBlock, n_new: int = 0) -> UpperTriangular:
    """Rank-k information update of a triangular factor, one pivot row at a
    time (the multiple-rank update of Davis & Hager, SIAM J. Matrix Anal.
    Appl. 2001).

    Returns upper-triangular R+ of dimension ``r.dim + n_new`` satisfying
    (R+)^T (R+) = [R | 0]^T [R | 0] + u^T u.  The update rows travel in
    groups, each a dense block over the union of its rows' columns, kept in
    a heap by first column.  At pivot ``t`` every group that starts there is
    merged with factor row ``t`` and folded in by one Householder
    reflection, the blocked form of a Givens sequence; the block left over
    travels on to its next column.  A group whose leading column holds only
    zeros drops that column without touching the row.  Rows no group
    reaches keep their stored entries, bit for bit.

    Raises RankDeficientAugmentation if any of the ``n_new`` appended
    variables ends up without diagonal support, its squared diagonal at or
    below ``PIVOT_FLOOR`` as for ``cholesky`` (singular posterior).
    """
    if n_new < 0:
        raise ValueError("n_new must be non-negative")
    nd = r.dim + n_new
    if u.n_cols != nd:
        raise DimensionMismatch(f"update has {u.n_cols} columns, expected {nd}")

    diag = np.zeros(nd)
    diag[: r.dim] = r.diag
    rows_cols = list(r.row_cols) + [_EMPTY_I] * n_new
    rows_vals = list(r.row_vals) + [_EMPTY_F] * n_new

    # (first column, tie-break, columns, dense block of rows over them)
    heap = [(int(c[0]), k, c, v[np.newaxis]) for k, (c, v) in enumerate(zip(u.row_cols, u.row_vals)) if c.size]
    heapq.heapify(heap)
    tick = itertools.count(u.n_rows)
    while heap:
        t = heap[0][0]
        groups = []
        while heap and heap[0][0] == t:
            _, _, cols, block = heapq.heappop(heap)
            if np.count_nonzero(block[:, 0]):
                groups.append((cols, block))
            elif cols.size > 1:
                # a column of stored zeros is eliminated without a reflection
                heapq.heappush(heap, (int(cols[1]), next(tick), cols[1:], block[:, 1:]))
        if not groups:
            continue
        pattern, a = _merge_onto_row(t, diag[t], rows_cols[t], rows_vals[t], groups)
        if diag[t] == 0.0:
            # an appended variable no row reached yet: the first row that
            # supports it moves into place, sign-normalized, and leaves the
            # block; a reflection would leave a rounding residue of it that
            # could pose as support for a later appended variable
            i = 1 + int(np.flatnonzero(a[1:, 0])[0])
            a[0] = a[i] if a[i, 0] > 0 else -a[i]
            a = np.delete(a, i, axis=0)
        v = a[:, 0].copy()
        ww = float(v[1:] @ v[1:])
        if ww > 0.0:
            # H = I - beta v v^T with v = (d - hyp, w) maps (d, w) to (hyp, 0);
            # d - hyp is formed as -w.w / (d + hyp), without cancellation
            d = v[0]
            hyp = math.hypot(d, math.sqrt(ww))
            v[0] = -ww / (d + hyp)
            beta = (d + hyp) / (hyp * ww)
            a[:, 1:] -= np.multiply.outer(beta * v, v @ a[:, 1:])
            a[0, 0] = hyp
        diag[t] = a[0, 0]
        rows_cols[t] = pattern[1:]
        rows_vals[t] = a[0, 1:].copy()
        if a.shape[0] > 1 and pattern.size > 1:
            heapq.heappush(heap, (int(pattern[1]), next(tick), pattern[1:], a[1:, 1:]))

    # a pivot at or below the floor is no support: the variable's column was
    # empty, or its rows depend on rows that other variables already used
    weak = np.nonzero(diag[r.dim:] ** 2 <= PIVOT_FLOOR)[0]
    if weak.size:
        raise RankDeficientAugmentation(
            f"appended variable {int(weak[0]) + r.dim} has no supporting row (pivot at or below {PIVOT_FLOOR:.0e})"
        )
    return UpperTriangular.from_rows(diag, rows_cols, rows_vals)


def logdet_triangular(r: UpperTriangular) -> float:
    """log |R^T R| = 2 * sum(log diag(R)); linear in the dimension."""
    return float(2.0 * np.sum(np.log(r.diag)))
