"""Shared generators and independent oracles for the test suite.

Oracles deliberately avoid the package's sparse kernels: dense numpy
factorizations for values, and plain set arithmetic for symbolic sparsity
patterns.
"""

import numpy as np
from scipy.linalg import lapack

from beliefplan.errors import NotPositiveDefinite
from beliefplan.sparse import PIVOT_FLOOR, SparseRowBlock, SparseSymmetric, UpperTriangular


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
    """Upper triangle of jac^T jac, one ``np.triu_indices`` gather per row."""
    chunks_r = [np.empty(0, dtype=np.int64)]
    chunks_c = [np.empty(0, dtype=np.int64)]
    chunks_v = [np.empty(0)]
    for cols, vals in zip(jac.row_cols, jac.row_vals):
        m = cols.size
        if not m:
            continue
        ii, jj = np.triu_indices(m)
        chunks_r.append(cols[ii])
        chunks_c.append(cols[jj])
        chunks_v.append(vals[ii] * vals[jj])
    return SparseSymmetric.accumulate(
        jac.n_cols, np.concatenate(chunks_r), np.concatenate(chunks_c), np.concatenate(chunks_v)
    )


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
