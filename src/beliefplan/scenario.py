"""Synthetic 2-D pose-SLAM worlds and planning-session execution.

The generator replaces a full robot stack with a seeded random walk:

- prior trajectory of SE(2) poses (x, y, theta) with odometry factors
  between consecutive poses, loop-closure factors between poses whose
  sampled positions fall within a radius, and a global anchor on pose 0;
- candidate trajectories branching from the last pose toward a shared
  goal, each with odometry factors along its new poses and predicted
  loop closures to nearby prior poses.

All factors are full relative-pose (or anchor) constraints whitened by the
same diagonal noise sqrt-information diag(1/pos_std, 1/pos_std, 1/ang_std).
That uniformity is what lets ``topological_constants`` derive exact
constants for the spanning-tree objective bounds: with it, the position
part of the whitened system is an orthogonal stamping of the anchored
graph incidence, so the information log-determinant is pinned to the tree
count up to a noise constant, plus an angular correction controlled by the
squared lever arms (scaled by the angular:position variance ratio).

The prior's factors and each plan's are held as one read-only ``(F, 3)``
int64 factor table each: a kind code into ``KINDS``, then pose ids ``i``
and ``j``.  One builder, ``_trajectory_table``, makes every table, in the
generator and the loader alike, from its trajectory's loop closures: the
anchor and the odometry follow from pose order, and only the loops need a
check.  The prior belief, the candidate Jacobians, the lever mass, the pose
graph and the scenario file read the tables; ``Scenario.prior_factors`` and
``CandidatePlan.factors`` are tuple views of them, as ``Factor``s, that no
build, load, session or bounds path reads (the tests and the benchmark
compare them across a file round trip).

``generate`` and ``scenario_from_json`` build a scenario the same way, in
array passes per scenario: ``_prior_belief`` (whitened prior rows, their
information, its sparse factor), ``_candidate_actions`` (the rows of every
plan whitened as one stack and sliced per candidate, and the lever mass of
the prior and of every plan, summed once for the bounds) and
``_prior_pose_graph``.  ``_whitened_rows`` whitens the 3x3 blocks of many
factors; ``build_collective_jacobian`` calls it for one list of factors,
which the benchmark's probe times against the loaded candidates.
The generator draws its random numbers one at a time, in a fixed order, so
that a config always gives the same file.  A pose so far out that a
whitened entry, an information diagonal entry or a lever mass overflows,
or that the prior information loses positive definiteness, is refused by
name (``_pose_name``).

A scenario file (schema 3) states each fact once: a pose's id is its
position in ``poses``, a candidate's in ``candidates`` (its new poses are
numbered on from the prior's), the anchor and the odometry follow from
pose order so only loop closures are listed, every factor is whitened by
the config's noise model, and the counts are the lengths of the lists.
The loader reads the version first, then exact key sets and JSON integers,
so a file of another schema is named by its version, and a field it does
not know or finds twice is an error.

A planning session evaluates all candidates on the original belief and on
each requested sparsified version, then reports values, selections, loss,
offsets, rank correlation and consistency (both tying values within
``CONSISTENCY_TOLERANCE``), nonzero counts, timings, and loss bounds.  The
per-candidate objective bounds come from ``candidate_bounds``, which the
``beliefplan bounds`` command uses as well.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .belief import LN_2PI_E, CandidateAction, GaussianBelief, VariableLayout, evaluate_candidates, nnz_report
from .bounds import (
    PoseGraph,
    TopologicalNoiseConfig,
    determinant_bounds,
    post_solution_loss_bound,
    topological_bounds,
)
from .decision import (
    CONSISTENCY_TOLERANCE,
    action_consistent,
    balanced_offset_upper,
    offset,
    rank_correlation,
    simplification_loss,
)
from .errors import (EvaluationError, InfeasibleConfig, InvalidScenario, LayoutMismatch, NotPositiveDefinite,
                     RankDeficientAugmentation, json_document, json_fields, json_value)
from .sparse import SparseRowBlock, cholesky
from .sparsify import SparsificationSpec, detect_involvement, sparsify_belief

DEFAULT_NOISE_RATIOS = (0.01, 0.25, 0.85)

SCENARIO_SCHEMA_VERSION = 3
REPORT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    n_prior_poses: int = 40
    world_extent: float = 20.0
    position_std: float = 0.1
    angular_std: float = 0.05
    loop_closure_radius: float = 2.0
    n_candidates: int = 6
    candidate_length: int = 4
    # prior loop closures only match poses this many steps back, keeping the
    # executed-trajectory factor graph (and its factor) affordably banded;
    # candidate loop closures are distance-gated only
    loop_index_window: int = 40

    def __post_init__(self):
        if self.n_prior_poses < 2:
            raise ValueError("need at least two prior poses")
        if self.loop_index_window < 2:
            raise ValueError("loop index window must be at least 2")
        for name in ("world_extent", "position_std", "angular_std", "loop_closure_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("position_std", "angular_std"):
            weight = 1.0 / getattr(self, name)  # whitens a factor; its square weighs the information
            if not math.isfinite(weight * weight):
                raise ValueError(f"{name} is so small that 1/{name}^2 overflows, got {getattr(self, name)}")
        if self.n_candidates < 1 or self.candidate_length < 1:
            raise ValueError("need at least one candidate with one pose")

    @property
    def noise_ratio(self) -> float:
        """Angular variance over position variance."""
        return (self.angular_std / self.position_std) ** 2


# a factor table's first column is a code into these; the anchor's is 0
KINDS = ("anchor", "odom", "loop")


class Factor(NamedTuple):
    """One probabilistic constraint, a factor table's row in its tuple view:
    a global anchor (i == j) or a relative pose measurement from ``i`` to ``j``."""

    kind: str  # anchor | odom | loop
    i: int
    j: int


def _factor_view(table: np.ndarray) -> tuple:
    """The rows of a factor table as ``Factor``s, which the tests and the benchmark compare."""
    return tuple(Factor(KINDS[c], i, j) for c, i, j in table.tolist())


@dataclass(frozen=True, eq=False)
class CandidatePlan:
    """Geometry behind one CandidateAction: its new pose means and the
    factors (over global pose ids) it would add, as a factor table."""

    candidate_id: int
    new_pose_ids: tuple
    new_pose_means: np.ndarray
    table: np.ndarray  # read-only (F, 3) factor table, see ``_trajectory_table``

    @property
    def factors(self) -> tuple:
        return _factor_view(self.table)


@dataclass(frozen=True, eq=False)
class Scenario:
    config: ScenarioConfig
    prior: GaussianBelief
    executed_path: np.ndarray
    prior_table: np.ndarray  # read-only (F, 3) factor table, the anchor first
    candidates: tuple
    plans: tuple
    pose_graph: PoseGraph
    # read-only lever mass (see ``_candidate_actions``) of the prior, then of
    # each plan in order
    lever_mass: np.ndarray

    @property
    def n_poses(self) -> int:
        return self.executed_path.shape[0]

    @property
    def prior_factors(self) -> tuple:
        return _factor_view(self.prior_table)


def _trajectory_table(n_poses: int, first: int, loops, what: str) -> np.ndarray:
    """The read-only ``(F, 3)`` int64 factor table of a trajectory over pose
    ids ``[0, n_poses)``: pose 0 anchored if ``first`` is 0, the odometry
    into each later pose ``k >= first`` from pose ``k - 1``, then ``loops``,
    its loop closures as ``[i, j]`` pose-id pairs in order.  Only the loops
    are checked, as a whole: each joins two distinct poses in range, and the
    first faulty one is named as a loop of ``what``."""
    try:
        loops = np.array(loops, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an id beyond int64, so out of range: check the exact integers
        loops = np.array(loops, dtype=object).reshape(-1, 2)
    bad = (loops[:, 0] == loops[:, 1]) | ((loops < 0) | (loops >= n_poses)).any(axis=1)
    if bad.any():
        i, j = loops[int(np.argmax(bad))].tolist()
        if i == j:
            raise InvalidScenario(f"loop [{i}, {j}] of {what} joins pose {i} to itself")
        raise LayoutMismatch(f"loop [{i}, {j}] of {what} references unknown pose {j if 0 <= i < n_poses else i}")
    odom = np.arange(max(first, 1), n_poses)
    ends = np.concatenate([np.zeros((int(first == 0), 2), dtype=np.int64), np.column_stack((odom - 1, odom)), loops])
    table = np.column_stack((np.repeat(np.arange(len(KINDS)), [first == 0, odom.size, len(loops)]), ends))
    table.flags.writeable = False
    return table


def _factor_at(table: np.ndarray, k: int) -> Factor:
    c, i, j = table[k].tolist()
    return Factor(KINDS[c], i, j)


# ---------------------------------------------------------------------------
# Whitened constraint rows
# ---------------------------------------------------------------------------


def noise_sqrt_info(cfg: ScenarioConfig) -> np.ndarray:
    w = 1.0 / cfg.position_std
    return np.diag([w, w, 1.0 / cfg.angular_std])


_S_T = np.array([[0.0, 1.0], [-1.0, 0.0]])  # transpose of the 90-degree rotation


def _pose_name(p: int, new_pose_ids=(), candidate_id: int = 0) -> str:
    """How an error names pose id ``p``: by its place among the new poses
    ``new_pose_ids`` of candidate ``candidate_id``, or else as a prior pose."""
    if p in new_pose_ids:
        return f"pose {new_pose_ids.index(p)} of the new poses of candidate {candidate_id}"
    return f"pose {p} of the poses"


def _overflow(f: Factor, *new_poses) -> InvalidScenario:
    """The error for factor ``f`` whose whitened rows overflow; ``new_poses``
    name its poses as in ``_pose_name``."""
    names = " or ".join(dict.fromkeys(_pose_name(p, *new_poses) for p in (f.i, f.j)))
    return InvalidScenario(f"factor [{f.kind}, {f.i}, {f.j}] overflows: {names} has coordinates too large")


def _whitened_rows(ends, means, cols, sqrt_info, n_cols: int, overflow) -> SparseRowBlock:
    """The whitened rows of many factors as one row block.

    Factor ``k`` owns rows ``3k..3k+2`` and joins the poses at rows
    ``ends[k]`` of ``means`` (one pose twice for an anchor), whose 3x3
    blocks start at columns ``cols[k]``.  Its relative-pose residual has
    two unwhitened blocks: one on pose ``i`` (the identity for an anchor)
    and one on pose ``j`` (zero for an anchor).  All blocks are built and
    whitened as one stack; batched ``matmul`` gives every entry the bits of
    a separate 3x3 product per factor, and exact zeros are not stored.
    The first factor ``k`` with an entry whose square overflows is refused,
    by ``overflow(k)``, before anything reads the rows.
    """
    relative = ends[:, 0] != ends[:, 1]
    at = means[ends[relative]]
    cos, sin = np.cos(at[:, 0, 2]), np.sin(at[:, 0, 2])
    rot_t = np.stack([np.stack([cos, sin], axis=-1), np.stack([-sin, cos], axis=-1)], axis=1)
    blocks = np.zeros((ends.shape[0], 2, 3, 3))
    blocks[~relative, 0] = np.eye(3)
    blocks[relative, 0, :2, :2] = -rot_t
    blocks[relative, 0, 2, 2] = -1.0
    blocks[relative, 1, :2, :2] = rot_t
    blocks[relative, 1, 2, 2] = 1.0
    # coordinates near the float range overflow here; the check below names them
    with np.errstate(over="ignore", invalid="ignore"):
        lever = at[:, 1, :2] - at[:, 0, :2]
        blocks[relative, 0, :2, 2] = ((_S_T @ rot_t) @ lever[..., None])[..., 0]
        whitened = sqrt_info @ blocks
        fits = np.isfinite(whitened * whitened).all(axis=(1, 2, 3))
    if not fits.all():
        raise overflow(int(np.argmin(fits)))
    # each row is the block of its lower-column pose, then the other's
    swap = cols[:, 0] > cols[:, 1]
    whitened[swap] = whitened[swap, ::-1]
    cols = np.sort(cols, axis=1)
    by_row = whitened.transpose(0, 2, 1, 3)
    k, r, side, c = np.nonzero(by_row)
    indptr = np.zeros(3 * ends.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(3 * k + r, minlength=3 * ends.shape[0]), out=indptr[1:])
    return SparseRowBlock(3 * ends.shape[0], n_cols, indptr, cols[k, side] + c, by_row[k, r, side, c])


def build_collective_jacobian(
    factors,
    means: dict,
    layout: VariableLayout,
    sqrt_info: np.ndarray,
    new_pose_ids=(),
    new_pose_means=None,
    action_id: int = 0,
) -> CandidateAction:
    """Stack the whitened rows of ``factors`` into one CandidateAction.

    ``means`` maps global pose id to its (x, y, theta) linearization point,
    covering both prior poses (laid out by ``layout``) and the appended
    ``new_pose_ids`` (columns after the prior, in the given order).  Factor
    ``k`` owns rows ``3k..3k+2`` (see ``_whitened_rows``).  No build path
    calls it; it is public API, which the benchmark's probe times.
    """
    col_of_pose = {blk.block_id: blk.offset for blk in layout.blocks}
    for k, pid in enumerate(new_pose_ids):
        if pid in col_of_pose:
            raise LayoutMismatch(f"new pose id {pid} collides with the prior layout")
        col_of_pose[pid] = layout.dim + 3 * k
    try:
        cols = np.array([(col_of_pose[f.i], col_of_pose[f.j]) for f in factors], dtype=np.int64).reshape(-1, 2)
    except KeyError as e:
        raise LayoutMismatch(f"factor references unknown pose {e.args[0]}") from None
    ids, ends = np.unique(np.array([(f.i, f.j) for f in factors], dtype=np.int64), return_inverse=True)
    points = np.array([means[p] for p in ids.tolist()], dtype=np.float64).reshape(-1, 3)
    n_new = 3 * len(new_pose_ids)
    jac = _whitened_rows(ends.reshape(-1, 2), points, cols, sqrt_info, layout.dim + n_new,
                         lambda k: _overflow(factors[k], tuple(new_pose_ids), action_id))
    if new_pose_means is None:
        predicted = np.empty(0)
    else:
        predicted = np.asarray(new_pose_means, dtype=np.float64).reshape(-1)
    return CandidateAction(
        action_id,
        jac,
        n_new_vars=n_new,
        predicted_new_means=predicted,
        new_blocks=(("pose", 3),) * len(new_pose_ids),
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _sample_trajectory(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    half = cfg.world_extent / 2.0
    heading = rng.uniform(-math.pi, math.pi)
    # curl the walk so it re-approaches itself and loop closures can form
    curl = rng.choice([-1.0, 1.0]) * 2.0 * math.pi / (cfg.n_prior_poses * rng.uniform(0.6, 1.4))
    x = y = 0.0
    poses = [(x, y, heading)]
    for _ in range(1, cfg.n_prior_poses):
        heading += curl + rng.normal(0.0, 0.15)
        step = rng.uniform(0.6, 1.2)
        x = min(max(x + step * math.cos(heading), -half), half)
        y = min(max(y + step * math.sin(heading), -half), half)
        poses.append((x, y, _wrap(heading)))
    return np.array(poses)


def _wrap(theta: float) -> float:
    return math.atan2(math.sin(theta), math.cos(theta))


def _prior_loop_closures(poses: np.ndarray, radius: float, window: int, max_per_pose: int = 2) -> np.ndarray:
    """The loop closures, as ``(i, j)`` rows, from each pose ``j`` to its
    ``max_per_pose`` nearest poses ``i`` within ``radius``,
    ``2 <= j - i <= window + 1`` (ties to the lower ``i``), ordered by
    ``(j, i)``; one pass over every pair."""
    n = poses.shape[0]
    gap = np.arange(2, window + 2)
    j = np.repeat(np.arange(n), gap.size)
    i = j - np.tile(gap, n)
    inside = i >= 0
    i, j = i[inside], j[inside]
    dists = np.hypot(poses[i, 0] - poses[j, 0], poses[i, 1] - poses[j, 1])
    near = dists <= radius
    i, j, dists = i[near], j[near], dists[near]
    order = np.lexsort((i, dists, j))
    i, j = i[order], j[order]
    # rank within its pose j: the distance from the first pair of that j
    keep = np.arange(j.size) - np.searchsorted(j, j) < max_per_pose
    i, j = i[keep], j[keep]
    order = np.lexsort((i, j))
    return np.column_stack((i[order], j[order]))


def _candidate_plans(
    cfg: ScenarioConfig, poses: np.ndarray, goal: np.ndarray, rng: np.random.Generator
) -> tuple:
    """Candidate plans toward ``goal``: their new poses, drawn candidate by
    candidate and step by step, then the nearest-prior-pose search of every
    step in one pass."""
    n, length = poses.shape[0], cfg.candidate_length
    start = poses[n - 1, :2].copy()
    to_goal = goal - start
    base_heading = math.atan2(to_goal[1], to_goal[0])
    step = min(max(np.linalg.norm(to_goal) / length, 0.5), 1.5)
    spread = np.linspace(-0.9, 0.9, cfg.n_candidates)
    new_means = np.zeros((cfg.n_candidates, length, 3))
    for c in range(cfg.n_candidates):
        detour = spread[c] + rng.normal(0.0, 0.1)
        x, y = start
        for t in range(length):
            # detour fades so every candidate closes in on the shared goal
            fade = 1.0 - t / max(length - 1, 1)
            heading = base_heading + detour * fade + rng.normal(0.0, 0.05)
            x, y = x + step * math.cos(heading), y + step * math.sin(heading)
            new_means[c, t] = (x, y, _wrap(heading))
    # the nearest prior pose within the radius of each step, ties to the
    # lower id; the branching pose is already constrained
    dists = np.hypot(poses[:, 0] - new_means[:, :, 0, None], poses[:, 1] - new_means[:, :, 1, None])
    dists[:, :, n - 1] = np.inf
    nearest = np.argmin(dists, axis=2)
    closes = dists.min(axis=2) <= cfg.loop_closure_radius
    new_ids = np.arange(n, n + length)
    return tuple(
        CandidatePlan(c, tuple(new_ids.tolist()), new_means[c], _trajectory_table(
            n + length, n, np.column_stack((nearest[c, closes[c]], new_ids[closes[c]])),
            f"the loops of candidate {c}"))
        for c in range(cfg.n_candidates)
    )


def generate(cfg: ScenarioConfig) -> Scenario:
    """Deterministically build a scenario from its config.

    Goal placement is re-sampled (boundedly) until at least one prior pose
    block stays uninvolved across all candidates whenever the prior has 10+
    poses; InfeasibleConfig is raised if no placement qualifies.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_prior_poses
    poses = _sample_trajectory(cfg, rng)

    prior_table = _trajectory_table(n, 0, _prior_loop_closures(poses, cfg.loop_closure_radius, cfg.loop_index_window),
                                    "the loops")
    prior = _prior_belief(cfg, poses, prior_table)

    half = cfg.world_extent / 2.0
    for _attempt in range(40):
        anchor_pose = int(rng.integers(0, n))
        goal = poses[anchor_pose, :2] + rng.normal(0.0, cfg.loop_closure_radius, size=2)
        goal = np.clip(goal, -half, half)
        plans = _candidate_plans(cfg, poses, goal, rng)
        candidates, lever_mass = _candidate_actions(cfg, poses, prior_table, plans)
        if n < 10 or detect_involvement(prior.layout, candidates).never_involved(prior.layout):
            return Scenario(cfg, prior, poses, prior_table, candidates, plans, _prior_pose_graph(prior_table, n),
                            lever_mass)
    raise InfeasibleConfig(
        "could not place a goal leaving at least one prior pose uninvolved; "
        "shrink the loop-closure radius or use more prior poses"
    )


_COMPONENTS = ("x", "y", "heading")


def _prior_belief(cfg: ScenarioConfig, poses: np.ndarray, table: np.ndarray) -> GaussianBelief:
    """The prior: the whitened rows of its factor table, their information,
    its factor.

    A pose is refused, by name, where the summed squares of its column's
    entries overflow (that information diagonal bounds every information
    entry) or where the factorization meets a pivot that is not positive.
    """
    n, ends = poses.shape[0], table[:, 1:]
    rows = _whitened_rows(ends, poses, 3 * ends, noise_sqrt_info(cfg), 3 * n, lambda k: _overflow(_factor_at(table, k)))
    # every square fits (see ``_whitened_rows``); only their sums can overflow
    diagonal = np.bincount(rows.indices, weights=rows.data * rows.data, minlength=3 * n)
    if not np.isfinite(diagonal).all():
        col = int(np.argmin(np.isfinite(diagonal)))
        raise InvalidScenario(f"the information of the {_COMPONENTS[col % 3]} of {_pose_name(col // 3)} overflows: "
                              "a pose its factors join has coordinates too large")
    try:
        root = cholesky(rows.gram())
    except NotPositiveDefinite as e:
        raise InvalidScenario(f"the prior information is not positive definite at the {_COMPONENTS[e.index % 3]} "
                              f"of {_pose_name(e.index // 3)}: {e}") from e
    return GaussianBelief(poses.reshape(-1), root, VariableLayout.from_sizes([3] * n, kind="pose"))


def _candidate_actions(cfg: ScenarioConfig, poses: np.ndarray, prior_table: np.ndarray, plans) -> tuple:
    """One whitened CandidateAction per plan, linearized at the prior poses
    and the plan's new pose means, and the read-only lever mass of the prior
    and of each plan.  The rows of all plans are whitened as one stack, each
    plan's new poses numbered on from the prior's, and each candidate's
    Jacobian is a slice of it.

    A pose's lever mass is the summed squared lever arms of the factors
    whose residual is framed at it; the lever mass of the prior or of a plan
    is its maximum over the poses.  Each sum adds a factor's dx^2, then its
    dy^2, factor by factor and prior factors first, the order that fixes the
    bounds' last bits.  A pose is refused, by name, when an entry of the
    rows or its lever mass overflows.
    """
    n, length = poses.shape[0], cfg.candidate_length
    table = np.concatenate([plan.table for plan in plans])
    ends, prior_ends = table[:, 1:], prior_table[:, 1:]
    counts = np.array([len(plan.table) for plan in plans])
    first = np.concatenate(([0], np.cumsum(counts)))
    plan_of = np.repeat(np.arange(len(plans)), counts)
    # rows of ``means``: the prior poses, then each plan's new poses
    stacked = np.where(ends < n, ends, ends + length * plan_of[:, None])
    means = np.concatenate([poses] + [plan.new_pose_means for plan in plans])
    stack = _whitened_rows(stacked, means, 3 * ends, noise_sqrt_info(cfg), 3 * (n + length), lambda k: _overflow(
        _factor_at(table, k), plans[plan_of[k]].new_pose_ids, plans[plan_of[k]].candidate_id))

    with np.errstate(over="ignore", invalid="ignore"):
        prior_mass = _add_lever_mass(np.zeros(n), poses, prior_ends, prior_ends[:, 0])
        mass = np.tile(np.concatenate([prior_mass, np.zeros(length)]), len(plans))
        _add_lever_mass(mass, means, stacked, plan_of * (n + length) + ends[:, 0])
    mass = mass.reshape(len(plans), n + length)
    if not np.isfinite(mass).all():
        c, p = np.argwhere(~np.isfinite(mass))[0].tolist()
        raise InvalidScenario(f"the squared lever arms of the factors framed at "
                              f"{_pose_name(p, plans[c].new_pose_ids, plans[c].candidate_id)} overflow: "
                              "a pose they join has coordinates too large")
    lever_mass = np.concatenate([prior_mass.max(keepdims=True), mass.max(axis=1)])
    lever_mass.flags.writeable = False

    candidates = []
    for c, plan in enumerate(plans):
        rows = stack.indptr[3 * first[c]: 3 * first[c + 1] + 1]
        lo, hi = rows[0], rows[-1]
        jac = SparseRowBlock(3 * int(counts[c]), stack.n_cols, rows - lo, stack.indices[lo:hi], stack.data[lo:hi])
        candidates.append(CandidateAction(plan.candidate_id, jac, n_new_vars=3 * length,
                                          predicted_new_means=plan.new_pose_means.reshape(-1),
                                          new_blocks=(("pose", 3),) * length))
    return tuple(candidates), lever_mass


def _add_lever_mass(mass: np.ndarray, points: np.ndarray, ends: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Add the dx^2, then the dy^2, of each factor's lever arm to
    ``mass[frames[k]]``, factor by factor, in place; ``ends`` are the
    factors' rows of ``points``."""
    lever = points[ends[:, 1], :2] - points[ends[:, 0], :2]
    np.add.at(mass, np.repeat(frames, 2), (lever * lever).ravel())
    return mass


def _prior_pose_graph(table: np.ndarray, n_poses: int) -> PoseGraph:
    """Pose graph of the prior's factor table: pose ``p`` is node ``p + 1``,
    and an anchor ties its pose to the ground node 0."""
    edges = table[:, 1:] + 1
    edges[table[:, 0] == 0, 0] = 0
    return PoseGraph(n_poses + 1, edges)


def posterior_pose_graph(scenario: Scenario, plan: CandidatePlan) -> PoseGraph:
    """Pose graph of the prior plus one candidate's predicted factors."""
    n_nodes = scenario.n_poses + len(plan.new_pose_ids) + 1
    return scenario.pose_graph.extended(n_nodes, plan.table[:, 1:] + 1)


# ---------------------------------------------------------------------------
# Topological bound constants for the uniform-noise factor model
# ---------------------------------------------------------------------------


def topological_constants(
    scenario: Scenario, plan: CandidatePlan | None = None, ratio: float | None = None
) -> TopologicalNoiseConfig:
    """Noise constants making the spanning-tree bounds valid for the
    information log-determinant of this scenario's (posterior) belief.

    With every factor whitened by the same diag(1/pos_std, 1/pos_std,
    1/ang_std), the position sub-system is an orthogonal stamping of the
    anchored incidence, so

        ln|Lambda| >= 3 ln t(G) + n_poses * (2 ln w_p + ln w_th),

    and the angular lever-arm surplus is diagonal-bounded by
    psi = ratio * max_i sum_{factors framed at i} |lever|^2, giving the
    matching Hadamard upper bound.  That lever mass is read from
    ``scenario.lever_mass``, summed once when the scenario was built; a
    ``plan`` is found there by its ``candidate_id``, and a plan that is not
    the scenario's own is a ValueError.  ``ratio`` overrides the scenario's
    actual angular:position variance ratio to explore hypothetical noise
    models (the Hadamard side is only guaranteed when ratio >= actual).
    """
    if plan is not None and not (0 <= plan.candidate_id < len(scenario.plans)
                                 and scenario.plans[plan.candidate_id] is plan):
        raise ValueError(f"plan {plan.candidate_id} is not a plan of this scenario")
    lever_mass = float(scenario.lever_mass[0 if plan is None else 1 + plan.candidate_id])
    cfg = scenario.config
    actual_ratio = cfg.noise_ratio
    use_ratio = actual_ratio if ratio is None else float(ratio)
    w_p = 1.0 / cfg.position_std ** 2
    ang_var = use_ratio * cfg.position_std ** 2
    w_th = 1.0 / ang_var
    n_poses = scenario.n_poses + (len(plan.new_pose_ids) if plan is not None else 0)
    mu = n_poses * (2.0 * math.log(w_p) + math.log(w_th))
    psi = use_ratio * lever_mass
    return TopologicalNoiseConfig(mu=mu, psi=psi, ratio=use_ratio)


def objective_scale_bounds(lb_logdet: float, ub_logdet: float, n_vars: int) -> tuple[float, float]:
    """Convert log-determinant bounds to objective-scale bounds via the
    increasing affine map J = (x - N ln(2 pi e)) / 2."""
    c = n_vars * LN_2PI_E
    return 0.5 * (lb_logdet - c), 0.5 * (ub_logdet - c)


class CandidateBounds(NamedTuple):
    """Objective-scale bounds of every candidate on the original problem,
    each an ``(lb, ub)`` pair of arrays in candidate order."""

    top: tuple  # topological, at the scenario's actual noise ratio
    det: tuple  # determinant
    top_by_ratio: dict  # topological, per swept noise ratio


def _check_distinct(noise_ratios):
    """A ratio swept twice would be one bound under two names."""
    ratios = [float(r) for r in noise_ratios]
    for r in ratios:
        if ratios.count(r) > 1:
            raise ValueError(f"noise ratio {r:g} is given more than once")


def candidate_bounds(scenario: Scenario, noise_ratios) -> CandidateBounds:
    """Topological and determinant objective bounds of every candidate.

    Only the bounds at the actual noise ratio (``top``) and ``det`` certify
    the objective; the swept ratios describe hypothetical noise models.  A
    repeated ratio is a ValueError.
    """
    _check_distinct(noise_ratios)
    n = len(scenario.candidates)
    top, det = (np.zeros(n), np.zeros(n)), (np.zeros(n), np.zeros(n))
    by_ratio = {float(r): (np.zeros(n), np.zeros(n)) for r in noise_ratios}
    for idx, (cand, plan) in enumerate(zip(scenario.candidates, scenario.plans)):
        graph = posterior_pose_graph(scenario, plan)
        n_vars = 3 * (scenario.n_poses + len(plan.new_pose_ids))
        for ratio, (lb, ub) in [(None, top), *by_ratio.items()]:
            lbl, ubl = topological_bounds(graph, topological_constants(scenario, plan, ratio))
            lb[idx], ub[idx] = objective_scale_bounds(lbl, ubl, n_vars)
        det[0][idx], det[1][idx] = determinant_bounds(scenario.prior, cand)
    return CandidateBounds(top, det, by_ratio)


# ---------------------------------------------------------------------------
# Session execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeResult:
    label: str
    values: np.ndarray
    best_index: int
    sparsify_seconds: float
    evaluate_seconds: float  # sum of the per-candidate medians
    evaluate_wall_seconds: float  # the phase's own wall time, per pass over the candidates
    candidate_seconds: np.ndarray
    root_nnz: int
    info_nnz: int
    loss: float | None = None
    offset_identity: float | None = None
    offset_shift_upper: float | None = None
    rho: float | None = None
    consistent: bool | None = None

    @property
    def total_seconds(self) -> float:
        return self.sparsify_seconds + self.evaluate_seconds


@dataclass(frozen=True)
class SessionReport:
    seed: int
    prior_dim: int
    n_candidates: int
    uninvolved_block_ratio: float
    noise_ratios: tuple
    baseline: ModeResult
    modes: tuple
    bound_lb_top: np.ndarray
    bound_ub_top: np.ndarray
    bound_lb_det: np.ndarray
    bound_ub_det: np.ndarray
    loss_bounds: dict
    bounds_seconds: float  # wall time of candidate_bounds

    def mode(self, label: str) -> ModeResult:
        for m in self.modes:
            if m.label == label:
                return m
        raise KeyError(f"mode {label!r} not in report")

    def all_results(self) -> tuple:
        return (self.baseline,) + self.modes


def _median_timed(fn, repeats: int):
    """Run fn() ``repeats`` times; return (last result, median seconds)."""
    times = []
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def _evaluate_phase(belief: GaussianBelief, candidates, repeats: int):
    """Per-candidate values and median seconds, one candidate at a time, and
    the phase's wall time per pass over the candidates (the whole phase runs
    ``repeats`` passes)."""
    t0 = time.perf_counter()
    outcomes = [_median_timed(lambda a=a: evaluate_candidates(belief, [a])[0], repeats) for a in candidates]
    values = np.array([val for val, _ in outcomes], dtype=np.float64)
    per_candidate = np.array([secs for _, secs in outcomes], dtype=np.float64)
    return values, per_candidate, (time.perf_counter() - t0) / repeats


def _unsupported_pose(scenario: Scenario, e: EvaluationError) -> EvaluationError:
    """``e``, with an appended variable that no row supports named by its
    pose (``_pose_name``) when the update names the variable."""
    cause = e.cause
    if not isinstance(cause, RankDeficientAugmentation) or cause.index is None:
        return e
    plan = scenario.plans[e.candidate_id]
    col = cause.index - scenario.prior.dim
    pose = _pose_name(plan.new_pose_ids[col // 3], plan.new_pose_ids, plan.candidate_id)
    return EvaluationError(e.candidate_id,
                           RankDeficientAugmentation(f"{cause}: the {_COMPONENTS[col % 3]} of {pose}", cause.index))


def run_session(
    scenario: Scenario,
    modes=(SparsificationSpec.uninvolved(), SparsificationSpec.full()),
    noise_ratios=DEFAULT_NOISE_RATIOS,
    timing_repeats: int = 1,
) -> SessionReport:
    """Solve the decision problem on the original belief and on each
    sparsified version, collecting comparison metrics and loss bounds.

    The original problem is always evaluated (it provides the ground-truth
    values for loss and offsets); a requested "none" mode is reported as
    that baseline.  Sparsification and per-candidate wall-clock figures are
    medians over ``timing_repeats`` repetitions (``evaluate_seconds`` sums
    the candidates' medians); ``evaluate_wall_seconds`` is an evaluation
    phase's own wall time per pass over the candidates, and
    ``bounds_seconds`` the wall time of the one ``candidate_bounds`` call.
    Fewer than one repetition, a mode requested twice, a repeated noise
    ratio, or a sparsified mode with fewer than two candidates to rank is a
    ValueError, raised before any evaluation.
    """
    if timing_repeats < 1:
        raise ValueError(f"timing_repeats must be at least 1, got {timing_repeats}")
    labels = [spec.mode for spec in modes]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"mode {label!r} is requested more than once")
    _check_distinct(noise_ratios)
    candidates = scenario.candidates
    if len(candidates) < 2 and any(label != "none" for label in labels):
        raise ValueError(f"a sparsified mode needs at least two candidates to rank; the scenario has {len(candidates)}")
    layout = scenario.prior.layout
    mask = detect_involvement(layout, candidates)
    never = mask.never_involved(layout)
    uninvolved_ratio = len(never) / len(layout.block_ids)

    # the original problem is the first pass; it is what the others compare to
    results = []
    for spec in [None] + [spec for spec in modes if spec.mode != "none"]:
        if spec is None:
            belief, sp_secs = scenario.prior, 0.0
        else:
            belief, sp_secs = _median_timed(lambda s=spec: sparsify_belief(scenario.prior, s, mask), timing_repeats)
        try:
            values, cand_secs, wall = _evaluate_phase(belief, candidates, timing_repeats)
        except EvaluationError as e:
            raise _unsupported_pose(scenario, e) from e
        best = int(np.argmax(values))
        comparison = {}
        if results:
            original = results[0].values
            comparison = dict(
                loss=simplification_loss(original, best),
                offset_identity=offset(original, values),
                offset_shift_upper=balanced_offset_upper(original, values),
                rho=rank_correlation(original, values),
                consistent=action_consistent(original, values),
            )
        root_nnz, info_nnz = nnz_report(belief)
        results.append(ModeResult(
            label="original" if spec is None else spec.mode,
            values=values,
            best_index=best,
            sparsify_seconds=sp_secs,
            evaluate_seconds=float(cand_secs.sum()),
            evaluate_wall_seconds=wall,
            candidate_seconds=cand_secs,
            root_nnz=root_nnz,
            info_nnz=info_nnz,
            **comparison,
        ))
    baseline, *mode_results = results

    t0 = time.perf_counter()
    bounds = candidate_bounds(scenario, noise_ratios)
    bounds_seconds = time.perf_counter() - t0

    def loss_bound(res: ModeResult, pair: tuple) -> float:
        lb, ub = pair
        return post_solution_loss_bound(res.values, res.best_index, ub, float(lb[res.best_index]))

    loss_bounds = {
        res.label: {
            "topological": loss_bound(res, bounds.top),
            "determinant": loss_bound(res, bounds.det),
            "topological_by_ratio": {r: loss_bound(res, pair) for r, pair in bounds.top_by_ratio.items()},
        }
        for res in mode_results
    }

    return SessionReport(
        seed=scenario.config.seed,
        prior_dim=scenario.prior.dim,
        n_candidates=len(candidates),
        uninvolved_block_ratio=uninvolved_ratio,
        noise_ratios=tuple(float(r) for r in noise_ratios),
        baseline=baseline,
        modes=tuple(mode_results),
        bound_lb_top=bounds.top[0],
        bound_ub_top=bounds.top[1],
        bound_lb_det=bounds.det[0],
        bound_ub_det=bounds.det[1],
        loss_bounds=loss_bounds,
        bounds_seconds=bounds_seconds,
    )


# ---------------------------------------------------------------------------
# Serialization: scenario files and session reports
# ---------------------------------------------------------------------------


# the config keys of a scenario file; the seed is a key of its own and the
# counts are the lengths of the lists
_CONFIG_TYPES = {"world_extent": float, "position_std": float, "angular_std": float, "loop_closure_radius": float,
                 "loop_index_window": int}


def scenario_to_json(scenario: Scenario) -> str:
    """Schema 3, which states each fact once and lists only the loop
    closures (see the package README)."""
    cfg = scenario.config
    doc = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "seed": cfg.seed,
        "config": {name: getattr(cfg, name) for name in _CONFIG_TYPES},
        "poses": scenario.executed_path.tolist(),
        "loops": _loops_of(scenario.prior_table),
        "candidates": [
            {"new_poses": plan.new_pose_means.tolist(), "loops": _loops_of(plan.table)} for plan in scenario.plans
        ],
    }
    return json.dumps(doc, indent=1)


def _loops_of(table: np.ndarray) -> list:
    """A factor table's loop closures as ``[i, j]`` pairs: what a file lists of it."""
    return table[table[:, 0] == KINDS.index("loop"), 1:].tolist()


def _rows(rows, size: int, fits, form: str, what: str) -> list:
    """``rows`` if it is a JSON list of lists of ``size`` values that each ``fits``."""
    if not all(type(r) is list and len(r) == size and all(map(fits, r))
               for r in json_value(rows, list, InvalidScenario, what)):
        raise InvalidScenario(f"{what} must each be {form}")
    return rows


def _poses(rows, what: str) -> np.ndarray:
    rows = _rows(rows, 3, lambda v: type(v) in (int, float) and math.isfinite(v),
                 "[x, y, theta], three finite numbers", what)
    return np.array(rows, dtype=np.float64).reshape(-1, 3)


def _loops(rows, n_poses: int, first: int, what: str) -> np.ndarray:
    """The trajectory table (``_trajectory_table``) of a file's loop list."""
    rows = _rows(rows, 2, lambda v: type(v) is int, "[i, j], two integer pose ids", what)
    return _trajectory_table(n_poses, first, rows, what)


def _read_scenario_doc(doc) -> tuple:
    """(config, poses, prior factor table, plans) of a parsed scenario file."""
    # the version before the keys, which differ between schemas; json_fields
    # refuses a document that is not an object
    version = doc.get("schema_version") if type(doc) is dict else SCENARIO_SCHEMA_VERSION
    if type(version) is not int or version != SCENARIO_SCHEMA_VERSION:
        raise InvalidScenario(f"scenario schema_version {version!r:.60} is not {SCENARIO_SCHEMA_VERSION}")
    _, seed, config, poses, loops, candidates = json_fields(
        doc, ("schema_version", "seed", "config", "poses", "loops", "candidates"), InvalidScenario, "the file"
    )
    values = json_fields(config, tuple(_CONFIG_TYPES), InvalidScenario, "the config")
    config = {name: json_value(v, kind, InvalidScenario, f"config {name}")
              for (name, kind), v in zip(_CONFIG_TYPES.items(), values)}
    poses = _poses(poses, "the poses")
    n = poses.shape[0]
    plans = []
    for c, cd in enumerate(json_value(candidates, list, InvalidScenario, "the candidates")):
        new_poses, cand_loops = json_fields(cd, ("new_poses", "loops"), InvalidScenario, f"candidate {c}")
        new_means = _poses(new_poses, f"the new poses of candidate {c}")
        new_ids = tuple(range(n, n + new_means.shape[0]))
        table = _loops(cand_loops, n + len(new_ids), n, f"the loops of candidate {c}")
        plans.append(CandidatePlan(c, new_ids, new_means, table))
    lengths = sorted({len(plan.new_pose_ids) for plan in plans})
    if len(lengths) > 1:
        raise InvalidScenario(f"every candidate must add the same number of poses, not {lengths}")
    seed = json_value(seed, int, InvalidScenario, "the seed")
    cfg = ScenarioConfig(seed=seed, n_prior_poses=n, n_candidates=len(plans),
                         candidate_length=lengths[0] if lengths else 0, **config)
    return cfg, poses, _loops(loops, n, 0, "the loops"), tuple(plans)


def scenario_from_json(text: str) -> Scenario:
    """Load a scenario file; a malformed file raises ``InvalidScenario`` or
    ``ValueError``."""
    try:
        cfg, poses, prior_table, plans = _read_scenario_doc(json_document(text, InvalidScenario, "the scenario file"))
    except (OverflowError, ValueError) as e:  # JSON syntax, a config out of range
        raise InvalidScenario(f"malformed scenario file: {type(e).__name__}: {e}") from e
    prior = _prior_belief(cfg, poses, prior_table)
    candidates, lever_mass = _candidate_actions(cfg, poses, prior_table, plans)
    return Scenario(cfg, prior, poses, prior_table, candidates, plans, _prior_pose_graph(prior_table, poses.shape[0]),
                    lever_mass)


CANDIDATE_CSV_BASE_COLUMNS = ("candidate_id",)
CANDIDATE_CSV_BOUND_COLUMNS = ("lb_top", "ub_top", "lb_det", "ub_det")


def report_csv_columns(report: SessionReport) -> tuple:
    labels = [res.label for res in report.all_results()]
    cols = list(CANDIDATE_CSV_BASE_COLUMNS)
    cols += [f"j_{label}" for label in labels]
    cols += [f"t_{label}" for label in labels]
    cols += list(CANDIDATE_CSV_BOUND_COLUMNS)
    return tuple(cols)


def report_to_csv(report: SessionReport) -> str:
    """One row per candidate: objective values and evaluation seconds per
    configuration, then original-problem objective bounds."""
    cols = report_csv_columns(report)
    lines = [",".join(cols)]
    results = report.all_results()
    for idx in range(report.n_candidates):
        row = [str(idx)]
        row += [f"{res.values[idx]:.12g}" for res in results]
        row += [f"{res.candidate_seconds[idx]:.6g}" for res in results]
        row += [
            f"{report.bound_lb_top[idx]:.12g}",
            f"{report.bound_ub_top[idx]:.12g}",
            f"{report.bound_lb_det[idx]:.12g}",
            f"{report.bound_ub_det[idx]:.12g}",
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _mode_doc(res: ModeResult) -> dict:
    doc = {
        "label": res.label,
        "values": res.values.tolist(),
        "best_index": res.best_index,
        "sparsify_seconds": res.sparsify_seconds,
        "evaluate_seconds": res.evaluate_seconds,
        "evaluate_wall_seconds": res.evaluate_wall_seconds,
        "root_nnz": res.root_nnz,
        "info_nnz": res.info_nnz,
    }
    if res.loss is not None:
        doc.update(
            loss=res.loss,
            offset_identity=res.offset_identity,
            offset_shift_upper=res.offset_shift_upper,
            rho=res.rho,
            consistent=res.consistent,
        )
    return doc


def report_to_json(report: SessionReport) -> str:
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "seed": report.seed,
        "prior_dim": report.prior_dim,
        "n_candidates": report.n_candidates,
        "uninvolved_block_ratio": report.uninvolved_block_ratio,
        "noise_ratios": list(report.noise_ratios),
        "consistency_tolerance": CONSISTENCY_TOLERANCE,
        "bounds_seconds": report.bounds_seconds,
        "baseline": _mode_doc(report.baseline),
        "modes": [_mode_doc(res) for res in report.modes],
        "bounds": {
            "lb_top": report.bound_lb_top.tolist(),
            "ub_top": report.bound_ub_top.tolist(),
            "lb_det": report.bound_lb_det.tolist(),
            "ub_det": report.bound_ub_det.tolist(),
        },
        "loss_bounds": {
            label: {
                "topological": fam["topological"],
                "determinant": fam["determinant"],
                "topological_by_ratio": {str(r): v for r, v in fam["topological_by_ratio"].items()},
            }
            for label, fam in report.loss_bounds.items()
        },
    }
    return json.dumps(doc, indent=1)
