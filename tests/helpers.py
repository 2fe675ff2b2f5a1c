"""Shared generators and independent oracles for the test suite.

Oracles deliberately avoid the package's sparse kernels: dense numpy
factorizations for values, and plain set arithmetic for symbolic sparsity
patterns.
"""

import heapq
import itertools
import json
import math

import numpy as np
from scipy.linalg import lapack

from dataclasses import dataclass

from beliefplan.errors import BeliefPlanError, DimensionMismatch, NotPositiveDefinite, RankDeficientAugmentation
from beliefplan import sparse
from beliefplan.sparse import PIVOT_FLOOR, SparseRowBlock, SparseSymmetric, UpperTriangular, cholesky


def row_block_from_dense(a, n_cols=None) -> SparseRowBlock:
    """Nonzero entries of ``a`` as a CSR row block over ``n_cols`` (default:
    ``a``'s own columns)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    rows, cols = np.nonzero(a)
    return SparseRowBlock.from_coo(a.shape[0], a.shape[1] if n_cols is None else n_cols, rows, cols, a[rows, cols])


def triangular_from_dense(a) -> UpperTriangular:
    """The diagonal and nonzero strictly-upper entries of a square ``a``."""
    a = np.asarray(a, dtype=np.float64)
    return UpperTriangular(a.diagonal().copy(), row_block_from_dense(np.triu(a, 1)))


def row_block_from_rows(n_cols, row_cols, row_vals) -> SparseRowBlock:
    """Pack per-row sorted column/value arrays into one CSR row block."""
    n_rows = len(row_cols)
    lengths = np.fromiter(map(len, row_cols), dtype=np.int64, count=n_rows)
    if len(row_vals) != n_rows or not np.array_equal(
        lengths, np.fromiter(map(len, row_vals), dtype=np.int64, count=len(row_vals))
    ):
        raise ValueError("row arrays must have equal length")
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    if not n_rows:
        return SparseRowBlock(0, n_cols, indptr, np.empty(0, dtype=np.int64), np.empty(0))
    return SparseRowBlock(n_rows, n_cols, indptr, np.concatenate(row_cols), np.concatenate(row_vals))


def triangular_from_rows(diag, row_cols, row_vals) -> UpperTriangular:
    """The diagonal plus per-row strictly-upper column/value arrays."""
    return UpperTriangular(diag, row_block_from_rows(len(diag), row_cols, row_vals))


def symmetric_from_coo(dim, rows, cols, vals) -> SparseSymmetric:
    """Upper-triangle coordinates in any order; a repeat is rejected."""
    return SparseSymmetric(SparseRowBlock.from_coo(dim, dim, rows, cols, vals))


def symmetric_from_dense(a) -> SparseSymmetric:
    """Nonzero upper-triangle entries of a symmetric ``a``."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-13 * max(1.0, np.abs(a).max(initial=0.0))):
        raise ValueError("matrix is not symmetric")
    iu, ju = np.triu_indices(a.shape[0])
    keep = a[iu, ju] != 0.0
    return symmetric_from_coo(a.shape[0], iu[keep], ju[keep], a[iu, ju][keep])


def symmetric_diagonal(values) -> SparseSymmetric:
    """Diagonal matrix storing every diagonal entry, zeros included."""
    idx = np.arange(len(values))
    return symmetric_from_coo(len(values), idx, idx, values)


def dense_logdet_oracle(m: SparseSymmetric) -> float:
    """Dense-factorization log-determinant of a sparse symmetric matrix."""
    try:
        chol = np.linalg.cholesky(m.to_dense())
    except np.linalg.LinAlgError as e:
        raise NotPositiveDefinite(str(e)) from e
    return float(2.0 * np.sum(np.log(chol.diagonal())))


def batch_small_configs(n=8):
    """The first ``n`` scenario configurations of the acceptance batch
    (40-120 poses, 5-8 candidates of 4 poses)."""
    from beliefplan.scenario import ScenarioConfig

    rng = np.random.default_rng(7)
    return tuple(
        ScenarioConfig(seed=seed, n_prior_poses=int(rng.integers(40, 121)), n_candidates=int(rng.integers(5, 9)),
                       candidate_length=4, loop_closure_radius=2.2)
        for seed in range(n)
    )


def random_sparse_spd(rng, dim, density=0.3, shift=1.0):
    """Random sparse SPD matrix built as A^T A + d I."""
    a = rng.normal(size=(dim, dim)) * (rng.random((dim, dim)) < density)
    return a.T @ a + np.eye(dim) * (shift + rng.random())


def random_update(rng, dim, n_new, extra_rows, density=0.5):
    """Random update rows guaranteed to support each appended variable
    (one dedicated triangular row per new variable)."""
    rows = n_new + extra_rows
    u = rng.normal(size=(rows, dim + n_new)) * (rng.random((rows, dim + n_new)) < density)
    for k in range(n_new):
        u[k, dim + k] = rng.normal() + 2.0
        u[k, dim + k + 1:] = 0.0
    return row_block_from_dense(u, n_cols=dim + n_new)


def dense_logdet(m):
    sign, val = np.linalg.slogdet(np.asarray(m, dtype=float))
    assert sign > 0, "oracle needs a positive-definite matrix"
    return float(val)


def dense_cholesky(m: SparseSymmetric):
    """Dense upper factor R (R^T R = m) from LAPACK ``potrf``.

    Raises NotPositiveDefinite naming the first pivot at or below the pivot
    floor, in the message form the sparse kernel uses ("at index i").
    """
    r, info = lapack.dpotrf(m.to_dense(), lower=0, clean=1)
    # potrf stops at the first pivot that is not positive (info is 1-based)
    done = info - 1 if info > 0 else m.dim
    bad = np.nonzero(r.diagonal()[:done] ** 2 <= PIVOT_FLOOR)[0]
    if bad.size or info > 0:
        raise NotPositiveDefinite(f"pivot at index {int(bad[0]) if bad.size else done} is not positive")
    return r


def _rotate_sparse_rows(tc, tv, uc, uv, c, s):
    """Givens-rotate two sparse row tails; returns (union, new_row, new_upd)."""
    union = np.union1d(tc, uc)
    a = np.zeros(union.size)
    b = np.zeros(union.size)
    if tc.size:
        a[np.searchsorted(union, tc)] = tv
    if uc.size:
        b[np.searchsorted(union, uc)] = uv
    return union, c * a + s * b, c * b - s * a


def givens_update_oracle(r: UpperTriangular, u: SparseRowBlock, n_new: int = 0) -> UpperTriangular:
    """``sparse.lowrank_update`` one update row and one Givens rotation at a
    time: each row is rotated against the factor row at its leading column
    until it is used up.  A leading stored zero is rotated like any other
    entry: the rotation leaves the values as they are and adds the row's
    columns to the pattern.  The first row to reach an appended variable
    moves into place, sign-normalized.  Same contract and errors as the
    package kernel."""
    if n_new < 0:
        raise ValueError("n_new must be non-negative")
    nd = r.dim + n_new
    if u.n_cols != nd:
        raise DimensionMismatch(f"update has {u.n_cols} columns, expected {nd}")
    diag = np.zeros(nd)
    diag[: r.dim] = r.diag
    placed = np.arange(nd) < r.dim
    rows_cols = list(r.row_cols) + [np.empty(0, dtype=np.int64)] * n_new
    rows_vals = list(r.row_vals) + [np.empty(0)] * n_new
    for cur_c, cur_v in zip(u.row_cols, u.row_vals):
        while cur_c.size:
            x = cur_v[0]
            j = int(cur_c[0])
            if not placed[j]:
                sign = 1.0 if x > 0 else -1.0
                placed[j] = True
                diag[j] = abs(x)
                rows_cols[j] = cur_c[1:].copy()
                rows_vals[j] = sign * cur_v[1:]
                break
            d = diag[j]
            hyp = math.hypot(d, x)
            # a zero lead against a zero pivot (an appended variable placed
            # by a stored zero) rotates by the identity
            c, s = (d / hyp, x / hyp) if hyp else (1.0, 0.0)
            union, new_row, new_upd = _rotate_sparse_rows(rows_cols[j], rows_vals[j], cur_c[1:], cur_v[1:], c, s)
            diag[j] = hyp
            rows_cols[j] = union
            rows_vals[j] = new_row
            cur_c = union
            cur_v = new_upd
    if n_new and np.any(diag[r.dim:] == 0.0):
        missing = int(np.nonzero(diag[r.dim:] == 0.0)[0][0]) + r.dim
        raise RankDeficientAugmentation(f"appended variable {missing} has no supporting row")
    return triangular_from_rows(diag, rows_cols, rows_vals)


def update_pattern_oracle(r: UpperTriangular, u: SparseRowBlock) -> tuple:
    """``sparse._update_pattern`` by set arithmetic on whole column sets,
    one set build and sort per reached row.

    The update rows travel in groups, each holding the union of its rows'
    columns and reaching the pivot of the first of them.  Every group that
    reaches pivot ``t`` merges with factor row ``t``: the row gets the
    union of their columns, and the merged group travels on over the same
    columns to the first of them after ``t``, one row fewer when ``t`` is
    an appended variable (the row that moved into place).  Stored zeros
    count as entries.

    Returns the reached pivots, ascending, and their new strictly-upper
    columns as CSR ``(indptr, indices)`` over those pivots.
    """
    bounds = r.upper.indptr.tolist()
    indices = r.upper.indices

    # (first column, tie-break, columns, rows)
    u_bounds = u.indptr.tolist()
    u_cols = u.indices.tolist()
    heap = [(u_cols[lo], k, u_cols[lo:hi], 1)
            for k, (lo, hi) in enumerate(zip(u_bounds[:-1], u_bounds[1:])) if lo < hi]
    heapq.heapify(heap)
    tick = itertools.count(u.n_rows)

    reached, patterns = [], []
    dim = r.dim
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        t, _, group_cols, n_rows = pop(heap)
        merged = set(group_cols)
        while heap and heap[0][0] == t:
            _, _, other_cols, other_rows = pop(heap)
            merged.update(other_cols)
            n_rows += other_rows
        if t < dim:
            merged.update(indices[bounds[t]:bounds[t + 1]].tolist())
        else:
            n_rows -= 1
        rest = sorted(merged)
        del rest[0]
        reached.append(t)
        patterns.append(rest)
        if n_rows and rest:
            push(heap, (rest[0], next(tick), rest, n_rows))

    indptr = np.zeros(len(patterns) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, patterns), dtype=np.int64, count=len(patterns)), out=indptr[1:])
    cols = np.fromiter(itertools.chain.from_iterable(patterns), dtype=np.int64, count=int(indptr[-1]))
    return np.array(reached, dtype=np.int64), indptr, cols


def fold_on_oracle_pattern(r: UpperTriangular, u: SparseRowBlock, n_new: int = 0) -> UpperTriangular:
    """``sparse.lowrank_update`` with the pattern of ``update_pattern_oracle``:
    the same panel fold (``sparse._fold``) on the reached rows and the same
    splice of their new entries among the rows no update row reaches."""
    nd = r.dim + n_new
    pivots, p_indptr, p_indices = update_pattern_oracle(r, u)
    diag = np.zeros(nd)
    diag[: r.dim] = r.diag
    new_diag, vals = sparse._fold(diag, r.upper, u, pivots, np.arange(nd), p_indptr, p_indices)
    diag[pivots] = new_diag
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

class ShapeViolation(BeliefPlanError):
    """A permuted factor entry would land below the diagonal."""


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
        forward = np.asarray(self.forward, dtype=np.int64)
        n = forward.size
        if forward.ndim != 1 or n == 0:
            raise ValueError("permutation must be a non-empty 1-d index array")
        if forward.min() < 0 or forward.max() >= n:
            raise ValueError("permutation indices out of range")
        if np.any(np.bincount(forward, minlength=n) != 1):
            raise ValueError("permutation indices must be distinct")
        inverse = np.empty(n, dtype=np.int64)
        inverse[forward] = np.arange(n, dtype=np.int64)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "inverse", inverse)

    @classmethod
    def move_to_front(cls, dim: int, first) -> "Permutation":
        """Stable permutation placing ``first`` (in their original relative
        order) ahead of all remaining indices (also order-preserving)."""
        mask = np.zeros(dim, dtype=bool)
        mask[np.asarray(list(first), dtype=np.int64)] = True
        return cls(np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)]))

    @property
    def dim(self) -> int:
        return int(self.forward.size)

    def inverted(self) -> "Permutation":
        return Permutation(self.inverse.copy())


def permute_symmetric(m: SparseSymmetric, p: Permutation) -> SparseSymmetric:
    """Symmetric reordering: out[i, j] = m[p(i), p(j)].  nnz is unchanged."""
    if p.dim != m.dim:
        raise DimensionMismatch(f"permutation dim {p.dim} != matrix dim {m.dim}")
    u = m.upper
    new_r = p.inverse[u.row_ids]
    new_c = p.inverse[u.indices]
    return SparseSymmetric(
        SparseRowBlock.from_coo(m.dim, m.dim, np.minimum(new_r, new_c), np.maximum(new_r, new_c), u.data)
    )


def permute_triangular_back(r: UpperTriangular, p: Permutation, sparsified) -> UpperTriangular:
    """Reorder a factor whose ``sparsified`` rows are diagonal-only.

    Because those rows carry no off-diagonal entries, applying the
    permutation directly to the factor keeps it upper triangular.  Raises
    ShapeViolation if a named row still has off-diagonal entries or any
    entry would land below the diagonal.
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
    if np.any(new_cols < new_rows):
        raise ShapeViolation("an entry would land below the diagonal after permutation")
    return UpperTriangular(new_diag, SparseRowBlock.from_coo(r.dim, r.dim, new_rows, new_cols, r.upper.data))


def trailing(r: UpperTriangular, k: int) -> UpperTriangular:
    """The principal block of rows and columns ``k..dim-1``."""
    u = r.upper
    start = u.indptr[k]
    m = r.dim - k
    return UpperTriangular(r.diag[k:], SparseRowBlock(m, m, u.indptr[k:] - start, u.indices[start:] - k, u.data[start:]))


def with_diagonal_head(r: UpperTriangular, head) -> UpperTriangular:
    """Block-diagonal factor diag(head) (+) r."""
    head = np.asarray(head, dtype=np.float64)
    k = head.size
    u = r.upper
    n = r.dim + k
    indptr = np.concatenate([np.zeros(k, dtype=np.int64), u.indptr])
    return UpperTriangular(np.concatenate([head, r.diag]), SparseRowBlock(n, n, indptr, u.indices + k, u.data))


def sparsify_oracle(r: UpperTriangular, selected) -> UpperTriangular:
    """``sparse.sparsify_factor`` by re-factorization: form the information
    of the trailing block from the first kept scalar on, permute the
    selected scalars first, factor it, cut the selected rows to their
    diagonal and permute back."""
    selected = np.asarray(selected, dtype=bool)
    kept = np.flatnonzero(~selected)
    if kept.size == 0:
        return r.diagonal_only()
    split = int(kept[0])
    s = np.flatnonzero(selected)
    suffix_s = s[s >= split] - split
    tail = trailing(r, split)
    if suffix_s.size:
        k = suffix_s.size
        perm = Permutation.move_to_front(tail.dim, suffix_s)
        root_p = cholesky(permute_symmetric(tail.gram(), perm))
        root_p_s = with_diagonal_head(trailing(root_p, k), root_p.diag[:k])
        tail = permute_triangular_back(root_p_s, perm.inverted(), set(range(k)))
    return with_diagonal_head(tail, r.diag[:split])


def dense_inverse_block(b, scalar_idx):
    """Rows/columns ``scalar_idx`` of the covariance, by two dense
    triangular solves against the dense root factor."""
    from scipy.linalg import solve_triangular

    dense_r = b.root.to_dense()
    rhs = np.zeros((b.dim, scalar_idx.size))
    rhs[scalar_idx, np.arange(scalar_idx.size)] = 1.0
    half = solve_triangular(dense_r.T, rhs, lower=True)
    return solve_triangular(dense_r, half, lower=False)[scalar_idx, :]


def loop_information_from_rows(jac: SparseRowBlock) -> SparseSymmetric:
    """Upper triangle of jac^T jac: the products of every row's entry pairs,
    summed in a dict row after row."""
    sums = {}
    for cols, vals in zip(jac.row_cols, jac.row_vals):
        for a in range(cols.size):
            for b in range(a, cols.size):
                key = (int(cols[a]), int(cols[b]))
                sums[key] = sums.get(key, 0.0) + float(vals[a]) * float(vals[b])
    keys = list(sums)
    return symmetric_from_coo(
        jac.n_cols, [i for i, _ in keys], [j for _, j in keys], [sums[k] for k in keys]
    )


def lexsort_from_coo(n_rows, n_cols, rows, cols, vals) -> SparseRowBlock:
    """A row block from coordinates in any order, ordered by ``np.lexsort``
    on (row, column)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return SparseRowBlock(n_rows, n_cols, indptr, cols[order], np.asarray(vals, dtype=np.float64)[order])


def rankdata_correlation(values_1, values_2) -> float:
    """Pearson correlation of ``scipy.stats.rankdata`` average ranks; 1.0
    when both vectors are constant, 0.0 when exactly one is."""
    from scipy.stats import rankdata

    a = np.asarray(values_1, dtype=np.float64)
    b = np.asarray(values_2, dtype=np.float64)
    a_const = bool(np.all(a == a[0]))
    b_const = bool(np.all(b == b[0]))
    if a_const or b_const:
        return 1.0 if (a_const and b_const) else 0.0
    ra = rankdata(a)
    rb = rankdata(b)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float(np.dot(ra, rb) / np.sqrt(np.dot(ra, ra) * np.dot(rb, rb)))


def upper_pattern(r: UpperTriangular):
    """Set of (row, col) stored coordinates, diagonal included."""
    coords = {(i, i) for i in range(r.dim)}
    for i in range(r.dim):
        coords.update((i, int(j)) for j in r.row_cols[i])
    return coords


def pair_row(dim, i, j, a, b):
    """Rank-1 constraint row a*e_i + b*e_j over ``dim`` variables."""
    row = np.zeros(dim)
    row[i] = a
    row[j] = b
    return row


def build_toy_full_slam(rng=None):
    """Six-variable full-SLAM toy: three poses, three landmarks, and two
    candidate paths that each add two poses and observe one landmark.

    Returns (belief, candidates, names) with scalar blocks ordered
    [x1, x2, x3, l1, l2, l3].  The left path observes l1, the right path
    observes l3; x1, x2 and l2 stay uninvolved in both.
    """
    import numpy as np

    from beliefplan.belief import CandidateAction, GaussianBelief, VariableLayout
    from beliefplan.sparse import cholesky

    rng = np.random.default_rng(77) if rng is None else rng
    names = ("x1", "x2", "x3", "l1", "l2", "l3")
    n = 6

    def val():
        return 0.6 + rng.random()

    rows = [pair_row(n, 0, 0, 1.2, 0.0)]  # anchor on x1
    for i, j in [(0, 1), (1, 2), (0, 3), (0, 4), (1, 4), (2, 5)]:
        rows.append(pair_row(n, i, j, val(), -val()))
    prior_rows = np.vstack(rows)
    info = symmetric_from_dense(prior_rows.T @ prior_rows)
    layout = VariableLayout.from_sizes([1] * n)
    belief = GaussianBelief(np.zeros(n), cholesky(info), layout)

    def path(action_id, observed_landmark):
        u = np.zeros((3, n + 2))
        u[0] = np.concatenate([pair_row(n, 2, 2, -val(), 0.0), [val(), 0.0]])  # x3 -> new pose 1
        u[0][2] = -val()
        u[1, n] = -val()
        u[1, n + 1] = val()  # new pose 1 -> new pose 2
        u[2][observed_landmark] = val()
        u[2][n] = -val()  # observe the landmark from new pose 1
        return CandidateAction(
            action_id,
            row_block_from_dense(u, n_cols=n + 2),
            n_new_vars=2,
            predicted_new_means=np.array([0.5, 1.0]),
            new_blocks=(("generic", 1), ("generic", 1)),
        )

    candidates = (path(0, 3), path(1, 5))  # left observes l1, right observes l3
    return belief, candidates, names


def single_row_problem(rng, n, n_inv, sparsify_involved=0.5):
    """Random rank-1 decision problem in the sign-coherent regime: scalar
    nonnegative measurement rows over a small shared involved set, with the
    uninvolved blocks (plus a random slice of involved ones) sparsified."""
    from beliefplan.belief import CandidateAction, GaussianBelief, VariableLayout
    from beliefplan.sparse import cholesky
    from beliefplan.sparsify import SparsificationSpec, detect_involvement, sparsify_belief

    lam = random_sparse_spd(rng, n, density=0.6)
    root = cholesky(symmetric_from_dense(lam))
    b = GaussianBelief(np.zeros(n), root, VariableLayout.from_sizes([1] * n))
    inv_vars = sorted(rng.choice(n, size=n_inv, replace=False).tolist())
    candidates = []
    for cid in range(int(rng.integers(2, 5))):
        row = np.zeros(n)
        for v in inv_vars:
            if rng.random() < 0.8:
                row[v] = 0.2 + rng.random()
        if not row.any():
            row[inv_vars[0]] = 0.5
        candidates.append(CandidateAction(cid, row_block_from_dense(row[None, :], n_cols=n)))
    mask = detect_involvement(b.layout, candidates)
    involved = sorted(mask.involved_blocks)
    extra = [v for v in involved if rng.random() < sparsify_involved]
    s_blocks = sorted(set(range(n)) - set(involved)) + extra
    b_s = sparsify_belief(b, SparsificationSpec.custom(s_blocks), mask)
    return b, b_s, mask, candidates


def symbolic_cholesky_pattern(adjacency, dim):
    """Fill pattern of elimination in the given order, by set arithmetic.

    ``adjacency`` holds the strictly-upper neighbor sets of the symmetric
    pattern; returns the per-row column sets of the factor (diagonal
    excluded).
    """
    reach = [set(adjacency[i]) for i in range(dim)]
    for i in range(dim):
        for j in reach[i]:
            reach[j].update(k for k in reach[i] if k > j)
    return reach


def loop_laplacian(n_nodes, edges):
    """Graph Laplacian built edge by edge; parallel edges add up."""
    lap = np.zeros((n_nodes, n_nodes))
    for i, j in edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    return lap


def loop_is_connected(n_nodes, edges):
    """Depth-first search from node 0."""
    adj = [[] for _ in range(n_nodes)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == n_nodes


def loop_lever_mass(scenario, plan):
    """max over poses of the summed squared lever arms of the factors framed
    at that pose, accumulated factor by factor in a dict."""
    means = {k: scenario.executed_path[k] for k in range(scenario.n_poses)}
    factors = list(scenario.prior_factors)
    if plan is not None:
        for pid, pose in zip(plan.new_pose_ids, plan.new_pose_means):
            means[pid] = pose
        factors += list(plan.factors)
    mass = {}
    for f in factors:
        if f.kind == "anchor":
            continue
        dx = means[f.j][0] - means[f.i][0]
        dy = means[f.j][1] - means[f.i][1]
        mass[f.i] = mass.get(f.i, 0.0) + dx * dx + dy * dy
    return max(mass.values(), default=0.0)


def mutate_json(data, doc, max_depth=6):
    """Delete or replace one node of a parsed JSON document, in place, and
    return the document (a new one when the root itself is replaced).

    ``data`` is a hypothesis ``st.data()`` object; the node is reached by
    descending up to ``max_depth`` levels through random keys and indices.
    """
    from hypothesis import strategies as st

    junk = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**20), 10**20),
        st.floats(),
        st.text(max_size=4),
        st.lists(st.integers(-3, 3), max_size=3),
        st.just({}),
    )
    parent, key, node = None, None, doc
    for _ in range(data.draw(st.integers(0, max_depth), label="depth")):
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys), label="key")
        node = parent[key]
    if parent is None:
        return data.draw(junk, label="root")
    if data.draw(st.booleans(), label="delete"):
        del parent[key]
    else:
        parent[key] = data.draw(junk, label="value")
    return doc


@dataclass(frozen=True)
class KeyTwice:
    """A malformed-file case: the first object holding ``key`` names it
    twice, the first time with the value ``first``.  A dict cannot hold a
    key twice, so the case edits the file's text, not its parsed document."""

    key: str
    first: object


def malformed_text(mutate, doc) -> str:
    """The file text of ``doc`` after one malformed-file case: a
    ``KeyTwice`` or a function that edits ``doc`` in place."""
    if isinstance(mutate, KeyTwice):
        key = json.dumps(mutate.key)
        return json.dumps(doc).replace(f"{key}: ", f"{key}: {json.dumps(mutate.first)}, {key}: ", 1)
    mutate(doc)
    return json.dumps(doc)


def loop_collective_jacobian(factors, means, layout, sqrt_info, new_pose_ids=()):
    """Whitened factor rows as a SparseRowBlock, one 3x3 product and one
    ``np.nonzero`` per factor block."""
    import math

    col_of_pose = {blk.block_id: blk.offset for blk in layout.blocks}
    for k, pid in enumerate(new_pose_ids):
        col_of_pose[pid] = layout.dim + 3 * k
    s_t = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rows, cols, vals = [], [], []
    for k, factor in enumerate(factors):
        if factor.kind == "anchor":
            blocks = [(factor.i, np.eye(3))]
        else:
            xa, ya, ta = means[factor.i]
            xb, yb, _ = means[factor.j]
            c, s = math.cos(ta), math.sin(ta)
            rot_t = np.array([[c, -s], [s, c]]).T
            lever = np.array([xb - xa, yb - ya])
            block_a = np.zeros((3, 3))
            block_a[:2, :2] = -rot_t
            block_a[:2, 2] = s_t @ rot_t @ lever
            block_a[2, 2] = -1.0
            block_b = np.zeros((3, 3))
            block_b[:2, :2] = rot_t
            block_b[2, 2] = 1.0
            blocks = [(factor.i, block_a), (factor.j, block_b)]
        for pid, blk in blocks:
            whitened = sqrt_info @ blk
            r, c = np.nonzero(whitened)
            rows.append(3 * k + r)
            cols.append(col_of_pose[pid] + c)
            vals.append(whitened[r, c])
    coo = [np.concatenate(part) if part else [] for part in (rows, cols, vals)]
    return SparseRowBlock.from_coo(3 * len(factors), layout.dim + 3 * len(new_pose_ids), *coo)


# ---------------------------------------------------------------------------
# Scenario construction, one pose and one candidate at a time: the per-pose
# and per-candidate forms of the generator's passes, kept as their oracles
# ---------------------------------------------------------------------------


def stack_collective_jacobian(factors, means, layout, sqrt_info, new_pose_ids=(), new_pose_means=None,
                              action_id=0):
    """One candidate's whitened rows as a CandidateAction: the 3x3 blocks of
    its factors as one stack, ordered by ``from_coo``; a non-finite entry
    is refused naming the factor's poses."""
    from beliefplan.belief import CandidateAction
    from beliefplan.errors import InvalidScenario, LayoutMismatch

    col_of_pose = {blk.block_id: blk.offset for blk in layout.blocks}
    for k, pid in enumerate(new_pose_ids):
        if pid in col_of_pose:
            raise LayoutMismatch(f"new pose id {pid} collides with the prior layout")
        col_of_pose[pid] = layout.dim + 3 * k
    try:
        cols = np.array([(col_of_pose[f.i], col_of_pose[f.j]) for f in factors], dtype=np.int64).reshape(-1, 2)
    except KeyError as e:
        raise LayoutMismatch(f"factor references unknown pose {e.args[0]}") from None

    relative = np.array([f.kind != "anchor" for f in factors], dtype=bool)
    ends = [(means[f.i], means[f.j]) for f in factors if f.kind != "anchor"]
    ends = np.array(ends, dtype=np.float64).reshape(-1, 2, 3)
    cos, sin = np.cos(ends[:, 0, 2]), np.sin(ends[:, 0, 2])
    rot_t = np.stack([np.stack([cos, sin], axis=-1), np.stack([-sin, cos], axis=-1)], axis=1)
    blocks = np.zeros((len(factors), 2, 3, 3))
    blocks[~relative, 0] = np.eye(3)
    blocks[relative, 0, :2, :2] = -rot_t
    blocks[relative, 0, 2, 2] = -1.0
    blocks[relative, 1, :2, :2] = rot_t
    blocks[relative, 1, 2, 2] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        lever = ends[:, 1, :2] - ends[:, 0, :2]
        blocks[relative, 0, :2, 2] = ((np.array([[0.0, 1.0], [-1.0, 0.0]]) @ rot_t) @ lever[..., None])[..., 0]
        whitened = sqrt_info @ blocks
    finite = np.isfinite(whitened).all(axis=(1, 2, 3))
    if not finite.all():
        f = factors[int(np.argmin(finite))]
        new_ids = list(new_pose_ids)
        i, j = (f"pose {new_ids.index(p)} of the new poses of candidate {action_id}" if p in new_ids
                else f"pose {p} of the poses" for p in (f.i, f.j))
        raise InvalidScenario(f"factor [{f.kind}, {f.i}, {f.j}] overflows: {i} or {j} has coordinates too large")
    k, side, r, c = np.nonzero(whitened)
    n_new = 3 * len(new_pose_ids)
    jac = SparseRowBlock.from_coo(
        3 * len(factors), layout.dim + n_new, 3 * k + r, cols[k, side] + c, whitened[k, side, r, c]
    )
    predicted = np.empty(0) if new_pose_means is None else np.asarray(new_pose_means, dtype=np.float64).reshape(-1)
    return CandidateAction(action_id, jac, n_new_vars=n_new, predicted_new_means=predicted,
                           new_blocks=(("pose", 3),) * len(new_pose_ids))


def sample_trajectory_oracle(cfg, rng) -> np.ndarray:
    """The prior walk, one pose row and two ``np.clip`` calls per step."""
    half = cfg.world_extent / 2.0
    poses = np.zeros((cfg.n_prior_poses, 3))
    poses[0, 2] = rng.uniform(-math.pi, math.pi)
    curl = rng.choice([-1.0, 1.0]) * 2.0 * math.pi / (cfg.n_prior_poses * rng.uniform(0.6, 1.4))
    heading = poses[0, 2]
    for k in range(1, cfg.n_prior_poses):
        heading += curl + rng.normal(0.0, 0.15)
        step = rng.uniform(0.6, 1.2)
        x = poses[k - 1, 0] + step * math.cos(heading)
        y = poses[k - 1, 1] + step * math.sin(heading)
        poses[k] = (np.clip(x, -half, half), np.clip(y, -half, half), math.atan2(math.sin(heading), math.cos(heading)))
    return poses


def prior_loop_closures_oracle(poses, radius, window, max_per_pose=2) -> list:
    """Prior loop closures, one distance search per pose."""
    from beliefplan.scenario import Factor

    factors = []
    for j in range(2, poses.shape[0]):
        lo = max(0, j - 1 - window)
        deltas = poses[lo: j - 1, :2] - poses[j, :2]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        near = np.nonzero(dists <= radius)[0]
        if near.size:
            order = near[np.argsort(dists[near], kind="stable")][:max_per_pose]
            for i in sorted(order.tolist()):
                factors.append(Factor("loop", int(i) + lo, j))
    return factors


def candidate_plans_oracle(cfg, poses, goal, rng) -> tuple:
    """Candidate plans, one nearest-prior-pose search per new pose."""
    from beliefplan.scenario import CandidatePlan, Factor

    n = poses.shape[0]
    plans = []
    spread = np.linspace(-0.9, 0.9, cfg.n_candidates)
    for c in range(cfg.n_candidates):
        start = poses[n - 1, :2].copy()
        to_goal = goal - start
        base_heading = math.atan2(to_goal[1], to_goal[0])
        detour = spread[c] + rng.normal(0.0, 0.1)
        step = np.linalg.norm(to_goal) / cfg.candidate_length
        step = min(max(step, 0.5), 1.5)
        new_means = np.zeros((cfg.candidate_length, 3))
        at = start
        for t in range(cfg.candidate_length):
            fade = 1.0 - t / max(cfg.candidate_length - 1, 1)
            heading = base_heading + detour * fade + rng.normal(0.0, 0.05)
            at = at + step * np.array([math.cos(heading), math.sin(heading)])
            new_means[t] = (at[0], at[1], math.atan2(math.sin(heading), math.cos(heading)))
        new_ids = tuple(range(n, n + cfg.candidate_length))
        factors = [Factor("odom", n - 1, new_ids[0])]
        factors += [Factor("odom", new_ids[t], new_ids[t + 1]) for t in range(cfg.candidate_length - 1)]
        for t, pid in enumerate(new_ids):
            deltas = poses[:, :2] - new_means[t, :2]
            dists = np.hypot(deltas[:, 0], deltas[:, 1])
            near = np.nonzero(dists <= cfg.loop_closure_radius)[0]
            near = near[near != n - 1]
            for q in near[np.argsort(dists[near], kind="stable")][:1].tolist():
                factors.append(Factor("loop", int(q), pid))
        plans.append(CandidatePlan(c, new_ids, new_means, tuple(factors)))
    return tuple(plans)


def generate_oracle(cfg):
    """``scenario.generate`` from the oracles above, every candidate's rows
    whitened on their own: ``(poses, prior factors, prior rows, plans,
    candidates)``."""
    from beliefplan.belief import VariableLayout
    from beliefplan.errors import InfeasibleConfig
    from beliefplan.scenario import Factor, noise_sqrt_info
    from beliefplan.sparsify import detect_involvement

    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_prior_poses
    poses = sample_trajectory_oracle(cfg, rng)
    prior_factors = [Factor("anchor", 0, 0)] + [Factor("odom", k, k + 1) for k in range(n - 1)]
    prior_factors += prior_loop_closures_oracle(poses, cfg.loop_closure_radius, cfg.loop_index_window)
    layout = VariableLayout.from_sizes([3] * n, kind="pose")
    sqrt_info = noise_sqrt_info(cfg)
    means = dict(enumerate(poses.tolist()))
    rows = stack_collective_jacobian(prior_factors, means, layout, sqrt_info).jacobian
    half = cfg.world_extent / 2.0
    for _attempt in range(40):
        anchor_pose = int(rng.integers(0, n))
        goal = np.clip(poses[anchor_pose, :2] + rng.normal(0.0, cfg.loop_closure_radius, size=2), -half, half)
        plans = candidate_plans_oracle(cfg, poses, goal, rng)
        candidates = tuple(
            stack_collective_jacobian(
                plan.factors, {**means, **dict(zip(plan.new_pose_ids, plan.new_pose_means.tolist()))}, layout,
                sqrt_info, new_pose_ids=plan.new_pose_ids, new_pose_means=plan.new_pose_means,
                action_id=plan.candidate_id)
            for plan in plans
        )
        if n < 10 or detect_involvement(layout, candidates).never_involved(layout):
            return poses, tuple(prior_factors), rows, plans, candidates
    raise InfeasibleConfig(
        "could not place a goal leaving at least one prior pose uninvolved; "
        "shrink the loop-closure radius or use more prior poses"
    )


def row_block_to_mm_oracle(u: SparseRowBlock) -> str:
    """A row block in Matrix Market text, one f-string per entry."""
    lines = ["%%MatrixMarket matrix coordinate real general", f"{u.n_rows} {u.n_cols} {u.nnz}"]
    lines += [f"{i + 1} {j + 1} {v:.17g}" for i, j, v in zip(u.row_ids.tolist(), u.indices.tolist(), u.data.tolist())]
    return "\n".join(lines) + "\n"
