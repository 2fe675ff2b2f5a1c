"""Pre- and post-solution quality-of-solution bounds.

Three bound families over the posterior-entropy objective:

- topological: for pose-only factor graphs with a shared diagonal relative
  pose noise model, the information log-determinant tracks the spanning
  tree count of the (anchored) pose graph.  The lower bound is
  ``3 ln t(G) + mu``; the upper bound adds a Hadamard-style correction
  ``sum ln(d_i + psi) - ln|reduced Laplacian|``.  ``mu`` and ``psi`` are
  noise-model constants supplied by the caller (the synthetic scenario
  derives them from its own factor model, see ``scenario``).  ln t(G)
  and the degrees do not depend on the noise constants: a ``PoseGraph``
  is immutable and computes them once, however many noise ratios are
  bounded with it.  A graph factors its reduced Laplacian sparsely
  (SuperLU) on first use; a graph grown from it by ``extended`` adds the
  determinant-lemma increment of its new edges (``lemma_logdet_increment``)
  to the base count, so no dense Laplacian is ever formed;
- determinant: a Minkowski lower bound and a Hadamard upper bound on the
  posterior log-determinant; assumption-free, useful when the information
  matrix is diagonally dominant;
- rank-1 offset: when every candidate carries a single constraint row, a
  pre-solution bound on the balanced simplification offset from the
  involved-restricted entry sum of the covariance discrepancy.

Assembling a loss bound from per-candidate objective bounds plus the
simplified problem's selection is ``post_solution_loss_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve_triangular

from .belief import LN_2PI_E, CandidateAction, GaussianBelief
from .errors import (
    AlphaTooSmall,
    DisconnectedGraph,
    InconsistentBounds,
    IndexOutOfRange,
    LengthMismatch,
    NotRankOne,
    RankDeficientAugmentation,
)
from .sparse import PIVOT_FLOOR, logdet_triangular
from .sparsify import InvolvementMask


def _checked_edges(n_nodes: int, edges) -> np.ndarray:
    """Edges as a new ``(E, 2)`` int array with ``i < j`` in every row; the
    first self-loop or out-of-range edge is reported."""
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (i, j) node pairs")
    loops = pairs[:, 0] == pairs[:, 1]
    bad = np.flatnonzero(loops | np.any((pairs < 0) | (pairs >= n_nodes), axis=1))
    if bad.size:
        i, j = pairs[bad[0]].tolist()
        if i == j:
            raise ValueError(f"self-loop at node {i}")
        raise ValueError(f"edge ({i}, {j}) out of range")
    return np.sort(pairs, axis=1)


def _connected(n_nodes: int, pairs: np.ndarray) -> bool:
    """Whether ``pairs`` connect all ``n_nodes`` nodes (union-find)."""
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    components = n_nodes
    for i, j in pairs.tolist():
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            components -= 1
    return components == 1


def lemma_logdet_increment(sigma_kk: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """ln|M+| - ln|M| for ``M+ = [[M + AᵀA, AᵀB], [BᵀA, BᵀB]]``: k rows
    ``[A | B]`` added to a symmetric positive definite ``M`` and ``m`` new
    variables that only those rows touch.

    ``A`` (k x |K|) holds the rows' entries on the old variables ``K`` they
    touch, ``B`` (k x m) those on the new ones, and ``sigma_kk`` is the
    ``K`` x ``K`` block of ``M⁻¹``.  The increment is
    ``ln|S| + ln|Bᵀ S⁻¹ B|`` with ``S = I + A Σ_KK Aᵀ`` (determinant lemma
    and Schur complement), one k x k and one m x m Cholesky.  Raises
    ``numpy.linalg.LinAlgError`` when ``Bᵀ S⁻¹ B`` is not numerically
    positive definite, i.e. the rows do not pin the new variables down.
    """
    s = a @ sigma_kk @ a.T
    s.flat[:: len(s) + 1] += 1.0
    chol_s = np.linalg.cholesky(s)  # reads the lower triangle only
    increment = 2.0 * float(np.sum(np.log(chol_s.diagonal())))
    if b.shape[1]:
        w = np.linalg.solve(chol_s, b)
        increment += 2.0 * float(np.sum(np.log(np.linalg.cholesky(w.T @ w).diagonal())))
    return increment


@dataclass(frozen=True, eq=False)
class PoseGraph:
    """Undirected graph over pose nodes (no self-loops; parallel edges sum
    into the Laplacian).  Node 0 is the grounded node removed when forming
    the reduced Laplacian.

    ``edges``, given as any sequence of node pairs, is held as a validated,
    read-only ``(E, 2)`` int array of ``(min, max)`` pairs.  A graph made by
    ``extended`` keeps the graph it grew from in ``base`` (the root of a
    chain of extensions), so its tree count is the base's plus a lemma
    increment over the new edges.  The graph is immutable, so its tree
    count and degrees are computed once, on first use.
    """

    n_nodes: int
    edges: np.ndarray
    base: "PoseGraph | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.n_nodes <= 0:
            raise ValueError("graph needs at least one node")
        self._hold(_checked_edges(self.n_nodes, self.edges))

    def _hold(self, edges: np.ndarray):
        edges.flags.writeable = False
        object.__setattr__(self, "edges", edges)

    def extended(self, n_nodes: int, edges) -> "PoseGraph":
        """This graph grown to ``n_nodes`` nodes plus ``edges``; only the
        new edges are validated."""
        if n_nodes < self.n_nodes:
            raise ValueError("an extended graph cannot lose nodes")
        grown = object.__new__(PoseGraph)
        object.__setattr__(grown, "n_nodes", n_nodes)
        object.__setattr__(grown, "base", self.base or self)
        grown._hold(np.concatenate([self.edges, _checked_edges(n_nodes, edges)]))
        return grown

    @cached_property
    def reduced_degrees(self) -> np.ndarray:
        """Degrees of the non-grounded nodes (the reduced Laplacian
        diagonal), read-only."""
        degrees = np.bincount(self.edges.ravel(), minlength=self.n_nodes)[1:].astype(np.float64)
        degrees.flags.writeable = False
        return degrees

    @cached_property
    def _factor(self) -> tuple:
        """(SuperLU factor of the reduced Laplacian, ln t(G)).

        The factor is sparse, in a fill-reducing symmetric order and without
        pivoting, so ln t(G) is the sum of the log pivots.  A disconnected
        graph, a pivot at or below ``PIVOT_FLOOR`` or a pivot off the
        diagonal raises ``DisconnectedGraph`` (and caches nothing).
        """
        if not _connected(self.n_nodes, self.edges):
            raise DisconnectedGraph("spanning tree count needs a connected graph")
        n = self.n_nodes - 1
        if n == 0:
            return None, 0.0
        i, j = self.edges[self.edges[:, 0] > 0].T - 1  # edges to the ground only add degree
        diag = np.arange(n)
        lap = sp.csc_matrix(
            (np.concatenate([np.full(2 * i.size, -1.0), self.reduced_degrees]),
             (np.concatenate([i, j, diag]), np.concatenate([j, i, diag]))),
            shape=(n, n),
        )
        lu = splu(lap, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        pivots = lu.U.diagonal()
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots > PIVOT_FLOOR)):
            raise DisconnectedGraph("reduced Laplacian is numerically singular")
        return lu, float(np.sum(np.log(pivots)))

    @cached_property
    def log_tree_count(self) -> float:
        """ln of the spanning tree count.  A disconnected graph raises
        ``DisconnectedGraph`` on every access.

        A graph grown from a connected base adds the determinant-lemma
        increment of its new edges' grounded incidence rows to the base's
        count, with one multi-RHS solve against the base's factor; its
        connectivity is read from the new edges alone, because a component
        of new nodes only makes the increment singular in exact arithmetic
        but not after rounding.  Other graphs factor their own Laplacian.
        """
        root = self.base
        if root is None:
            return self._factor[1]
        try:
            lu, log_t = root._factor
        except DisconnectedGraph:
            return self._factor[1]
        n0, m = root.n_nodes, self.n_nodes - root.n_nodes
        new = self.edges[len(root.edges):]
        # old nodes are one connected super-node 0, new node v is v - n0 + 1
        if m and not _connected(m + 1, np.maximum(new - (n0 - 1), 0)):
            raise DisconnectedGraph("spanning tree count needs a connected graph")
        rows = np.repeat(np.arange(len(new)), 2)
        ends, signs = new.ravel(), np.tile([1.0, -1.0], len(new))
        old, fresh = (ends > 0) & (ends < n0), ends >= n0
        touched, col = np.unique(ends[old], return_inverse=True)
        a = np.zeros((len(new), touched.size))
        a[rows[old], col] = signs[old]
        b = np.zeros((len(new), m))
        b[rows[fresh], ends[fresh] - n0] = signs[fresh]
        sigma_kk = np.zeros((touched.size, touched.size))
        if touched.size:
            rhs = np.zeros((n0 - 1, touched.size))
            rhs[touched - 1, np.arange(touched.size)] = 1.0
            sigma_kk = lu.solve(rhs)[touched - 1]
        return log_t + lemma_logdet_increment(sigma_kk, a, b)


@dataclass(frozen=True)
class TopologicalNoiseConfig:
    """Constants of the topological bounds.

    ``ratio`` is the angular-to-position variance ratio of the assumed
    relative-pose noise; ``psi`` is the degree offset it induces and ``mu``
    the additive normalization.  Defaults are the neutral placeholders
    (mu=0, psi=1); validity against an actual objective requires constants
    derived from the actual noise model, e.g. via
    ``scenario.topological_constants``.
    """

    mu: float = 0.0
    psi: float = 1.0
    ratio: float = 0.25

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.mu, self.psi, self.ratio)):
            raise ValueError("mu, psi and ratio must be finite")
        if self.psi < 0:
            raise ValueError("psi must be non-negative")
        if self.ratio <= 0:
            raise ValueError("ratio must be positive")


def spanning_tree_count(g: PoseGraph) -> float:
    """ln of the spanning tree count, ``g.log_tree_count``."""
    return g.log_tree_count


def topological_bounds(g: PoseGraph, cfg: TopologicalNoiseConfig) -> tuple[float, float]:
    """(lb, ub) with lb = 3 ln t(g) + mu and
    ub = lb + sum_i ln(d_i + psi) - ln|reduced Laplacian|.

    The Hadamard inequality on the reduced Laplacian guarantees ub >= lb
    for any psi >= 0; this is asserted at runtime.
    """
    log_t = spanning_tree_count(g)
    lb = 3.0 * log_t + cfg.mu
    degrees = g.reduced_degrees
    width = float(np.sum(np.log(degrees + cfg.psi)) - log_t) if degrees.size else 0.0
    ub = lb + width
    if ub < lb - 1e-9:
        raise AssertionError("topological upper bound fell below the lower bound")
    return lb, ub


def determinant_bounds(b: GaussianBelief, a: CandidateAction) -> tuple[float, float]:
    """Assumption-free objective bounds from determinant inequalities.

    Upper: Hadamard on the posterior information matrix (product of its
    diagonal dominates the determinant).  Lower: the prior determinant
    times the appended-variable Gram determinant; when the update could be
    full rank, the full superadditivity form is also taken.  Both are exact
    for diagonal matrices with an empty update.
    """
    if a.jacobian.n_cols != b.dim + a.n_new_vars:
        raise LengthMismatch(
            f"candidate {a.action_id} spans {a.jacobian.n_cols} columns, expected {b.dim + a.n_new_vars}"
        )
    n_post = b.dim + a.n_new_vars
    u = a.jacobian

    post_diag = np.zeros(n_post)
    post_diag[: b.dim] = b.root.gram_diagonal
    np.add.at(post_diag, u.indices, u.data ** 2)
    if np.any(post_diag <= 0.0):
        raise RankDeficientAugmentation("posterior diagonal has a non-positive entry")
    ub = 0.5 * (float(np.sum(np.log(post_diag))) - n_post * LN_2PI_E)

    logdet_prior = logdet_triangular(b.root)
    core = logdet_prior
    if a.n_new_vars:
        appended = u.indices >= b.dim
        dense = np.zeros((u.n_rows, a.n_new_vars))
        dense[u.row_ids[appended], u.indices[appended] - b.dim] = u.data[appended]
        sign, logdet_new = np.linalg.slogdet(dense.T @ dense)
        if sign <= 0:
            raise RankDeficientAugmentation("appended variables are not jointly supported")
        core = logdet_prior + float(logdet_new)
    if u.n_rows >= n_post:
        # the update may be full rank: superadditivity of det^(1/N)
        dense_full = u.to_dense()
        sign, logdet_uu = np.linalg.slogdet(dense_full.T @ dense_full)
        if sign > 0:
            prior_term = math.exp(logdet_prior / n_post) if a.n_new_vars == 0 else 0.0
            alt = n_post * math.log(prior_term + math.exp(float(logdet_uu) / n_post))
            core = max(core, alt)
    lb = 0.5 * (core - n_post * LN_2PI_E)
    return lb, ub


def _inverse_block(b: GaussianBelief, scalar_idx: np.ndarray) -> np.ndarray:
    """Rows/columns ``scalar_idx`` of the covariance, via two sparse
    triangular solves against the root factor (no inverse, no dense n x n
    array)."""
    r = b.root.as_row_block().to_scipy()
    rhs = np.zeros((b.dim, scalar_idx.size))
    rhs[scalar_idx, np.arange(scalar_idx.size)] = 1.0
    half = spsolve_triangular(r.T.tocsr(), rhs, lower=True)
    return spsolve_triangular(r, half, lower=False)[scalar_idx, :]


def rank1_offset_bound(
    b: GaussianBelief,
    b_s: GaussianBelief,
    mask: InvolvementMask,
    alpha: float,
    candidates=None,
) -> float:
    """Pre-solution offset bound for single-row ("rank-1") updates:
    |ln(1 + alpha * sum over involved pairs of (cov - cov_sparsified))|.

    ``alpha`` must dominate the squared Jacobian entries of every
    candidate; pass ``candidates`` to have the single-row and alpha
    preconditions checked.  Returns +inf when the log argument is
    non-positive (the bound degenerates conservatively).
    """
    if b.dim != b_s.dim:
        raise LengthMismatch("beliefs differ in dimension")
    if alpha < 0:
        raise AlphaTooSmall("alpha must be non-negative")
    if candidates is not None:
        for a in candidates:
            if a.jacobian.n_rows != 1:
                raise NotRankOne(f"candidate {a.action_id} has {a.jacobian.n_rows} rows")
            peak = float(np.max(a.jacobian.data ** 2, initial=0.0))
            if peak > alpha:
                raise AlphaTooSmall(f"alpha {alpha} < max squared entry {peak}")

    involved = sorted(mask.involved_blocks)
    scalar_idx = b.layout.scalar_indices(involved)
    if scalar_idx.size == 0:
        return 0.0
    diff = _inverse_block(b, scalar_idx) - _inverse_block(b_s, scalar_idx)
    arg = 1.0 + alpha * float(diff.sum())
    if arg <= 0.0:
        return math.inf
    return abs(math.log(arg))


_MONOTONICITY = ("none", "overestimates", "underestimates")


def post_solution_loss_bound(
    values_simp,
    simplified_best: int,
    ub_per_candidate,
    lb_simplified_best: float,
    monotonicity: str = "none",
) -> float:
    """Loss bound from per-candidate objective bounds and the simplified
    problem's selection.

    - ``none``: max(ub) - lb at the selected candidate;
    - ``overestimates`` (original values dominate the simplified ones):
      max(ub) - simplified value at the selection;
    - ``underestimates`` (original values never exceed the simplified
      ones): simplified value at the selection - lb there.

    A negative result means the supplied bounds contradict each other and
    raises InconsistentBounds rather than being clamped.
    """
    if monotonicity not in _MONOTONICITY:
        raise ValueError(f"unknown monotonicity mode {monotonicity!r}")
    values = np.asarray(values_simp, dtype=np.float64)
    ubs = np.asarray(ub_per_candidate, dtype=np.float64)
    if values.size != ubs.size:
        raise LengthMismatch("ub vector must align with the candidate values")
    if not 0 <= simplified_best < values.size:
        raise IndexOutOfRange(f"candidate index {simplified_best} outside 0..{values.size - 1}")

    if monotonicity == "overestimates":
        bound = float(ubs.max() - values[simplified_best])
    elif monotonicity == "underestimates":
        bound = float(values[simplified_best] - lb_simplified_best)
    else:
        bound = float(ubs.max() - lb_simplified_best)
    if bound < 0.0:
        raise InconsistentBounds(f"loss bound {bound} is negative; check the supplied bounds")
    return bound
