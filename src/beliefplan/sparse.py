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
kernel that works row by row (Givens updates).

"Structural" means the stored pattern is the symbolic support produced by
the operation (elimination fill, rotation unions), independent of values
that happen to cancel to zero.  Nonzero counts reported elsewhere in the
package are counts of stored entries, so they are exact and reproducible.

The kernels never form a dense n x n matrix (``to_dense`` exists for tests
and small inputs).  ``cholesky`` splits into the elimination-tree symbolic
fill, which fixes the pattern, and a numeric sparse factorization by
SuperLU in the given order; ``gram`` takes its pattern from a 0/1 sparse
product and its values from a sparse product of the factor.  Both scatter
the numeric product onto the structural pattern (``_values_on_pattern``).

All types are immutable after construction and every operation returns a
new object; instances can be shared freely.
"""

from __future__ import annotations

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
        order = np.lexsort((cols, rows))
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

    @classmethod
    def accumulate(cls, dim: int, rows, cols, vals) -> "SparseSymmetric":
        """Build from upper-triangle coordinates, summing duplicates in
        input order.

        Used when assembling an information matrix from factor outer
        products, where many factors hit the same entry.
        """
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        vals = _as_value_array(vals)
        if not (rows.size == cols.size == vals.size):
            raise ValueError("coordinate arrays must have equal length")
        if rows.size and (min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= dim):
            raise ValueError("coordinates out of range")
        # dim is the size of an in-memory matrix, so dim**2 fits int64
        keys = rows * dim + cols
        uniq, inverse = np.unique(keys, return_inverse=True)
        summed = np.zeros(uniq.size, dtype=np.float64)
        np.add.at(summed, inverse, vals)
        indptr = np.zeros(dim + 1, dtype=np.int64)
        np.cumsum(np.bincount(uniq // dim, minlength=dim), out=indptr[1:])
        return cls(SparseRowBlock(dim, dim, indptr, uniq % dim, summed))

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

    def _gram_support(self) -> sp.csr_matrix:
        """Upper triangle of the structural support of (self)^T (self), with
        sorted column indices."""
        n = self.dim
        full = self.as_row_block()
        # pair counts of a 0/1 pattern never cancel, so this is the
        # structural support, stored zeros included
        pattern = sp.csr_matrix((np.ones(full.nnz), full.indices, full.indptr), shape=(n, n))
        support = sp.triu(pattern.T @ pattern, format="csr")
        support.sort_indices()
        return support

    def gram_nnz(self) -> int:
        """``gram().nnz``, counted from the pattern without forming values."""
        return int(self._gram_support().nnz)

    def gram(self) -> SparseSymmetric:
        """Form the symmetric product (self)^T (self) structurally."""
        n = self.dim
        support = self._gram_support()
        r = self.as_row_block().to_scipy()
        # the value product drops entries that cancel to zero; gathering it
        # onto the structural support keeps them
        prod = sp.triu(r.T @ r).tocoo()
        vals = _values_on_pattern(support.indptr, support.indices, prod.row, prod.col, prod.data)
        return SparseSymmetric(SparseRowBlock(n, n, support.indptr, support.indices, vals))

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
    indices)``, via the elimination tree: build the tree with ancestor
    compression, then enumerate each row's reach by climbing plain parent
    pointers.

    The pattern depends only on the stored coordinates (stored zeros are
    structural), and each row's columns come out already sorted.
    """
    n = m.dim
    # column adjacency of the upper triangle: for node i, the rows j <= i
    by_col = m.upper.to_scipy().tocsc()
    bounds = by_col.indptr.tolist()
    rows_by_col = by_col.indices.tolist()
    col_adj = [rows_by_col[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    # plain lists: the walks below read and write one element at a time
    parent = [-1] * n
    ancestor = [-1] * n
    for i in range(n):
        for j in col_adj[i]:
            k = j
            while k != -1 and k < i:
                nxt = ancestor[k]
                ancestor[k] = i
                if nxt == -1:
                    parent[k] = i
                k = nxt

    rows_fill: list[list[int]] = [[] for _ in range(n)]
    mark = [-1] * n
    for i in range(n):
        mark[i] = i
        for j in col_adj[i]:
            k = j
            while k != -1 and k < i and mark[k] != i:
                rows_fill[k].append(i)
                mark[k] = i
                k = parent[k]
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


def _rotate_sparse_rows(
    tc: np.ndarray, tv: np.ndarray, uc: np.ndarray, uv: np.ndarray, c: float, s: float
):
    """Givens-rotate two sparse row tails; returns (union, new_row, new_upd)."""
    union = np.union1d(tc, uc)
    a = np.zeros(union.size)
    b = np.zeros(union.size)
    if tc.size:
        a[np.searchsorted(union, tc)] = tv
    if uc.size:
        b[np.searchsorted(union, uc)] = uv
    return union, c * a + s * b, c * b - s * a


def lowrank_update(r: UpperTriangular, u: SparseRowBlock, n_new: int = 0) -> UpperTriangular:
    """Rank-k information update of a triangular factor by Givens rotations.

    Returns upper-triangular R+ of dimension ``r.dim + n_new`` satisfying
    (R+)^T (R+) = [R | 0]^T [R | 0] + u^T u.  Each constraint row is folded
    in by rotating it against the factor row at its leading column, so only
    rows reachable from the row's sparsity pattern are touched; all other
    rows keep their stored entries.

    Raises RankDeficientAugmentation if any of the ``n_new`` appended
    variables ends up without diagonal support (singular posterior).
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

    for cur_c, cur_v in zip(u.row_cols, u.row_vals):
        while cur_c.size:
            x = cur_v[0]
            if x == 0.0:
                # structurally stored zero eliminates trivially
                cur_c = cur_c[1:]
                cur_v = cur_v[1:]
                continue
            j = int(cur_c[0])
            d = diag[j]
            if d == 0.0:
                # previously untouched appended row: the rotation reduces to
                # moving the (sign-normalized) constraint row into place
                sign = 1.0 if x > 0 else -1.0
                diag[j] = abs(x)
                rows_cols[j] = cur_c[1:].copy()
                rows_vals[j] = sign * cur_v[1:]
                break
            hyp = math.hypot(d, x)
            c = d / hyp
            s = x / hyp
            union, new_row, new_upd = _rotate_sparse_rows(
                rows_cols[j], rows_vals[j], cur_c[1:], cur_v[1:], c, s
            )
            diag[j] = hyp
            rows_cols[j] = union
            rows_vals[j] = new_row
            cur_c = union
            cur_v = new_upd

    if n_new and np.any(diag[r.dim:] == 0.0):
        missing = int(np.nonzero(diag[r.dim:] == 0.0)[0][0]) + r.dim
        raise RankDeficientAugmentation(f"appended variable {missing} has no supporting row")
    return UpperTriangular.from_rows(diag, rows_cols, rows_vals)


def logdet_triangular(r: UpperTriangular) -> float:
    """log |R^T R| = 2 * sum(log diag(R)); linear in the dimension."""
    return float(2.0 * np.sum(np.log(r.diag)))
