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

``generate`` and ``scenario_from_json`` build a scenario the same way:
``_prior_belief`` (whitened prior rows, their information, its sparse
factor), ``_candidate_actions`` (one whitened Jacobian per plan) and
``_prior_pose_graph``.  ``build_collective_jacobian`` whitens the 3x3
blocks of all factors as one array stack.

A planning session evaluates all candidates on the original belief and on
each requested sparsified version, then reports values, selections, loss,
offsets, rank correlation, nonzero counts, timings, and loss bounds.  The
per-candidate objective bounds come from ``candidate_bounds``, which the
``beliefplan bounds`` command uses as well.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .belief import CandidateAction, GaussianBelief, VariableLayout, evaluate_candidates
from .bounds import (
    PoseGraph,
    TopologicalNoiseConfig,
    determinant_bounds,
    post_solution_loss_bound,
    topological_bounds,
)
from .decision import (
    action_consistent,
    balanced_offset_upper,
    offset,
    rank_correlation,
    simplification_loss,
)
from .errors import InfeasibleConfig, InvalidScenario, LayoutMismatch
from .sparse import SparseRowBlock, SparseSymmetric, cholesky
from .sparsify import SparsificationSpec, detect_involvement, sparsify_belief

DEFAULT_NOISE_RATIOS = (0.01, 0.25, 0.85)

SCENARIO_SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 1


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
        if self.position_std <= 0 or self.angular_std <= 0:
            raise ValueError("noise stds must be positive")
        if self.loop_closure_radius <= 0:
            raise ValueError("loop closure radius must be positive")
        if self.n_candidates < 1 or self.candidate_length < 1:
            raise ValueError("need at least one candidate with one pose")
        if self.world_extent <= 0:
            raise ValueError("world extent must be positive")

    @property
    def noise_ratio(self) -> float:
        """Angular variance over position variance."""
        return (self.angular_std / self.position_std) ** 2


@dataclass(frozen=True)
class Factor:
    """One probabilistic constraint: a global anchor (i == j) or a relative
    pose measurement from pose ``i`` to pose ``j``."""

    kind: str  # anchor | odom | loop
    i: int
    j: int

    def __post_init__(self):
        if self.kind not in ("anchor", "odom", "loop"):
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if (self.kind == "anchor") != (self.i == self.j):
            raise ValueError("anchor factors are unary; others connect distinct poses")


@dataclass(frozen=True)
class CandidatePlan:
    """Geometry behind one CandidateAction: its new pose means and the
    factors (over global pose ids) it would add."""

    candidate_id: int
    new_pose_ids: tuple
    new_pose_means: np.ndarray
    factors: tuple


@dataclass(frozen=True)
class Scenario:
    config: ScenarioConfig
    prior: GaussianBelief
    executed_path: np.ndarray
    prior_factors: tuple
    candidates: tuple
    plans: tuple
    pose_graph: PoseGraph

    @property
    def n_poses(self) -> int:
        return self.executed_path.shape[0]

    @cached_property
    def prior_factor_ends(self) -> np.ndarray:
        """``(i, j)`` pose ids of the relative prior factors, in order."""
        return _factor_ends(self.prior_factors)


def _factor_ends(factors) -> np.ndarray:
    """Read-only ``(F, 2)`` pose ids of the non-anchor factors, in order."""
    ends = np.array([(f.i, f.j) for f in factors if f.kind != "anchor"], dtype=np.int64).reshape(-1, 2)
    ends.flags.writeable = False
    return ends


# ---------------------------------------------------------------------------
# Whitened constraint rows
# ---------------------------------------------------------------------------


def noise_sqrt_info(cfg: ScenarioConfig) -> np.ndarray:
    w = 1.0 / cfg.position_std
    return np.diag([w, w, 1.0 / cfg.angular_std])


_S_T = np.array([[0.0, 1.0], [-1.0, 0.0]])  # transpose of the 90-degree rotation


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
    ``new_pose_ids`` (columns after the prior, in the given order).

    Factor ``k`` owns rows ``3k..3k+2`` and two unwhitened 3x3 blocks of
    its relative-pose residual: one on pose ``i`` (the identity for an
    anchor) and one on pose ``j`` (zero for an anchor).  All blocks are
    built and whitened as one stack; batched ``matmul`` gives every entry
    the bits of a separate 3x3 product per factor, and exact zeros are not
    stored.
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

    relative = np.array([f.kind != "anchor" for f in factors], dtype=bool)
    ends = [(means[f.i], means[f.j]) for f in factors if f.kind != "anchor"]
    ends = np.array(ends, dtype=np.float64).reshape(-1, 2, 3)
    cos, sin = np.cos(ends[:, 0, 2]), np.sin(ends[:, 0, 2])
    rot_t = np.stack([np.stack([cos, sin], axis=-1), np.stack([-sin, cos], axis=-1)], axis=1)
    lever = ends[:, 1, :2] - ends[:, 0, :2]
    blocks = np.zeros((len(factors), 2, 3, 3))
    blocks[~relative, 0] = np.eye(3)
    blocks[relative, 0, :2, :2] = -rot_t
    blocks[relative, 0, :2, 2] = ((_S_T @ rot_t) @ lever[..., None])[..., 0]
    blocks[relative, 0, 2, 2] = -1.0
    blocks[relative, 1, :2, :2] = rot_t
    blocks[relative, 1, 2, 2] = 1.0
    whitened = sqrt_info @ blocks
    k, side, r, c = np.nonzero(whitened)

    n_new = 3 * len(new_pose_ids)
    jac = SparseRowBlock.from_coo(
        3 * len(factors), layout.dim + n_new, 3 * k + r, cols[k, side] + c, whitened[k, side, r, c]
    )
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


def _information_from_rows(jac: SparseRowBlock) -> SparseSymmetric:
    """Accumulate the upper triangle of jac^T jac.

    Each row contributes the products of its entry pairs ``(i, j)``, ``i <=
    j``, in ``np.triu_indices`` order, laid end to end row after row.  Rows
    of equal length share one pair pattern, so the gather indices of a
    whole length class are scattered into place at once; the coordinate and
    product arrays, and with them every summed entry, are those of a plain
    per-row loop.
    """
    lengths = np.diff(jac.indptr)
    starts = np.zeros(jac.n_rows + 1, dtype=np.int64)
    np.cumsum(lengths * (lengths + 1) // 2, out=starts[1:])
    first = np.empty(starts[-1], dtype=np.int64)
    second = np.empty_like(first)
    for m in np.unique(lengths[lengths > 0]).tolist():
        rows = np.nonzero(lengths == m)[0]
        ii, jj = np.triu_indices(m)
        at = (starts[rows, None] + np.arange(ii.size)).ravel()
        base = jac.indptr[rows, None]
        first[at] = (base + ii).ravel()
        second[at] = (base + jj).ravel()
    return SparseSymmetric.accumulate(
        jac.n_cols, jac.indices[first], jac.indices[second], jac.data[first] * jac.data[second]
    )


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _sample_trajectory(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    half = cfg.world_extent / 2.0
    poses = np.zeros((cfg.n_prior_poses, 3))
    poses[0, 2] = rng.uniform(-math.pi, math.pi)
    # curl the walk so it re-approaches itself and loop closures can form
    curl = rng.choice([-1.0, 1.0]) * 2.0 * math.pi / (cfg.n_prior_poses * rng.uniform(0.6, 1.4))
    heading = poses[0, 2]
    for k in range(1, cfg.n_prior_poses):
        heading += curl + rng.normal(0.0, 0.15)
        step = rng.uniform(0.6, 1.2)
        x = poses[k - 1, 0] + step * math.cos(heading)
        y = poses[k - 1, 1] + step * math.sin(heading)
        poses[k] = (np.clip(x, -half, half), np.clip(y, -half, half), _wrap(heading))
    return poses


def _wrap(theta: float) -> float:
    return math.atan2(math.sin(theta), math.cos(theta))


def _prior_loop_closures(poses: np.ndarray, radius: float, window: int, max_per_pose: int = 2) -> list:
    factors = []
    n = poses.shape[0]
    for j in range(2, n):
        lo = max(0, j - 1 - window)
        deltas = poses[lo: j - 1, :2] - poses[j, :2]
        dists = np.hypot(deltas[:, 0], deltas[:, 1])
        near = np.nonzero(dists <= radius)[0]
        if near.size:
            order = near[np.argsort(dists[near], kind="stable")][:max_per_pose]
            for i in sorted(order.tolist()):
                factors.append(Factor("loop", int(i) + lo, j))
    return factors


def _candidate_plans(
    cfg: ScenarioConfig, poses: np.ndarray, goal: np.ndarray, rng: np.random.Generator
) -> tuple:
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
            # detour fades so every candidate closes in on the shared goal
            fade = 1.0 - t / max(cfg.candidate_length - 1, 1)
            heading = base_heading + detour * fade + rng.normal(0.0, 0.05)
            at = at + step * np.array([math.cos(heading), math.sin(heading)])
            new_means[t] = (at[0], at[1], _wrap(heading))
        new_ids = tuple(range(n, n + cfg.candidate_length))
        factors = [Factor("odom", n - 1, new_ids[0])]
        factors += [Factor("odom", new_ids[t], new_ids[t + 1]) for t in range(cfg.candidate_length - 1)]
        for t, pid in enumerate(new_ids):
            deltas = poses[:, :2] - new_means[t, :2]
            dists = np.hypot(deltas[:, 0], deltas[:, 1])
            near = np.nonzero(dists <= cfg.loop_closure_radius)[0]
            near = near[near != n - 1]  # the branching pose is already constrained
            order = near[np.argsort(dists[near], kind="stable")][:1]
            for q in order.tolist():
                factors.append(Factor("loop", int(q), pid))
        plans.append(
            CandidatePlan(c, new_ids, new_means, tuple(factors))
        )
    return tuple(plans)


def generate(cfg: ScenarioConfig) -> Scenario:
    """Deterministically build a scenario from its config.

    Goal placement is re-sampled (boundedly) until at least one prior pose
    block stays uninvolved across all candidates whenever the prior has 10+
    poses; InfeasibleConfig is raised if no placement qualifies.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_prior_poses
    poses = _sample_trajectory(cfg, rng)

    prior_factors = [Factor("anchor", 0, 0)]
    prior_factors += [Factor("odom", k, k + 1) for k in range(n - 1)]
    prior_factors += _prior_loop_closures(poses, cfg.loop_closure_radius, cfg.loop_index_window)

    prior = _prior_belief(cfg, poses, prior_factors)

    half = cfg.world_extent / 2.0
    for _attempt in range(40):
        anchor_pose = int(rng.integers(0, n))
        goal = poses[anchor_pose, :2] + rng.normal(0.0, cfg.loop_closure_radius, size=2)
        goal = np.clip(goal, -half, half)
        plans = _candidate_plans(cfg, poses, goal, rng)
        candidates = _candidate_actions(cfg, poses, plans, prior.layout)
        if n < 10 or detect_involvement(prior.layout, candidates).never_involved(prior.layout):
            return Scenario(
                cfg, prior, poses, tuple(prior_factors), candidates, plans, _prior_pose_graph(prior_factors, n)
            )
    raise InfeasibleConfig(
        "could not place a goal leaving at least one prior pose uninvolved; "
        "shrink the loop-closure radius or use more prior poses"
    )


def _graph_node(pose_id: int) -> int:
    # node 0 is the ground node the anchor ties pose 0 to
    return pose_id + 1


def _prior_belief(cfg: ScenarioConfig, poses: np.ndarray, prior_factors) -> GaussianBelief:
    """The prior: whitened prior factor rows, their information, its factor."""
    layout = VariableLayout.from_sizes([3] * poses.shape[0], kind="pose")
    means = dict(enumerate(poses.tolist()))
    rows = build_collective_jacobian(prior_factors, means, layout, noise_sqrt_info(cfg)).jacobian
    return GaussianBelief(poses.reshape(-1), cholesky(_information_from_rows(rows)), layout)


def _candidate_actions(cfg: ScenarioConfig, poses: np.ndarray, plans, layout: VariableLayout) -> tuple:
    """One whitened CandidateAction per plan, linearized at the prior poses
    and the plan's new pose means."""
    sqrt_info = noise_sqrt_info(cfg)
    means = dict(enumerate(poses.tolist()))
    return tuple(
        build_collective_jacobian(
            plan.factors,
            {**means, **dict(zip(plan.new_pose_ids, plan.new_pose_means.tolist()))},
            layout,
            sqrt_info,
            new_pose_ids=plan.new_pose_ids,
            new_pose_means=plan.new_pose_means,
            action_id=plan.candidate_id,
        )
        for plan in plans
    )


def _prior_pose_graph(prior_factors, n_poses: int) -> PoseGraph:
    """Pose graph of the prior factors; an anchor ties its pose to node 0."""
    edges = [(0 if f.kind == "anchor" else _graph_node(f.i), _graph_node(f.j)) for f in prior_factors]
    return PoseGraph(n_poses + 1, tuple(edges))


def posterior_pose_graph(scenario: Scenario, plan: CandidatePlan) -> PoseGraph:
    """Pose graph of the prior plus one candidate's predicted factors."""
    n_nodes = scenario.n_poses + len(plan.new_pose_ids) + 1
    return scenario.pose_graph.extended(n_nodes, [(_graph_node(f.i), _graph_node(f.j)) for f in plan.factors])


# ---------------------------------------------------------------------------
# Topological bound constants for the uniform-noise factor model
# ---------------------------------------------------------------------------


def _lever_mass(scenario: Scenario, plan: CandidatePlan | None) -> float:
    """max over poses of the summed squared lever arms of factors whose
    residual is expressed in that pose's frame.

    New poses are numbered on from the prior (``_check_scenario_doc``), so
    a pose id indexes the stacked positions directly.  Each pose's sum adds
    dx^2, then dy^2, factor by factor (prior factors first), the order that
    fixes the bounds' last bits.
    """
    positions = scenario.executed_path[:, :2]
    ends = scenario.prior_factor_ends
    if plan is not None:
        positions = np.concatenate([positions, plan.new_pose_means[:, :2]])
        ends = np.concatenate([ends, _factor_ends(plan.factors)])
    lever = positions[ends[:, 1]] - positions[ends[:, 0]]
    mass = np.bincount(np.repeat(ends[:, 0], 2), weights=(lever * lever).ravel())
    return float(mass.max(initial=0.0))


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
    matching Hadamard upper bound.  ``ratio`` overrides the scenario's
    actual angular:position variance ratio to explore hypothetical noise
    models (the Hadamard side is only guaranteed when ratio >= actual).
    """
    cfg = scenario.config
    actual_ratio = cfg.noise_ratio
    use_ratio = actual_ratio if ratio is None else float(ratio)
    w_p = 1.0 / cfg.position_std ** 2
    ang_var = use_ratio * cfg.position_std ** 2
    w_th = 1.0 / ang_var
    n_poses = scenario.n_poses + (len(plan.new_pose_ids) if plan is not None else 0)
    mu = n_poses * (2.0 * math.log(w_p) + math.log(w_th))
    psi = use_ratio * _lever_mass(scenario, plan)
    return TopologicalNoiseConfig(mu=mu, psi=psi, ratio=use_ratio)


def objective_scale_bounds(lb_logdet: float, ub_logdet: float, n_vars: int) -> tuple[float, float]:
    """Convert log-determinant bounds to objective-scale bounds via the
    increasing affine map J = (x - N ln(2 pi e)) / 2."""
    from .belief import LN_2PI_E

    c = n_vars * LN_2PI_E
    return 0.5 * (lb_logdet - c), 0.5 * (ub_logdet - c)


class CandidateBounds(NamedTuple):
    """Objective-scale bounds of every candidate on the original problem,
    each an ``(lb, ub)`` pair of arrays in candidate order."""

    top: tuple  # topological, at the scenario's actual noise ratio
    det: tuple  # determinant
    top_by_ratio: dict  # topological, per swept noise ratio


def candidate_bounds(scenario: Scenario, noise_ratios) -> CandidateBounds:
    """Topological and determinant objective bounds of every candidate.

    Only the bounds at the actual noise ratio (``top``) and ``det`` certify
    the objective; the swept ratios describe hypothetical noise models.
    """
    n = len(scenario.candidates)
    top, det = (np.zeros(n), np.zeros(n)), (np.zeros(n), np.zeros(n))
    by_ratio = {float(r): (np.zeros(n), np.zeros(n)) for r in noise_ratios}
    for idx, (cand, plan) in enumerate(zip(scenario.candidates, scenario.plans)):
        graph = posterior_pose_graph(scenario, plan)
        n_vars = 3 * (scenario.n_poses + len(plan.new_pose_ids))
        for ratio, (lb, ub) in [(None, top), *by_ratio.items()]:
            lbl, ubl = topological_bounds(graph, topological_constants(scenario, plan, ratio=ratio))
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
    evaluate_seconds: float
    candidate_seconds: np.ndarray
    root_nnz: int
    info_nnz: int
    loss: float | None = None
    offset_identity: float | None = None
    offset_shift_upper: float | None = None
    rho: float | None = None
    consistent_exact: bool | None = None
    consistent_tol: bool | None = None

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
    consistency_tolerance: float = 1e-9

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
    return result, float(np.median(times))


def _evaluate_all(belief: GaussianBelief, candidates, repeats: int):
    """Per-candidate values and median seconds, one candidate at a time."""
    outcomes = [
        _median_timed(lambda a=a: evaluate_candidates(belief, [a])[0], repeats) for a in candidates
    ]
    values = np.array([val for val, _ in outcomes], dtype=np.float64)
    per_candidate = np.array([secs for _, secs in outcomes], dtype=np.float64)
    return values, per_candidate


def run_session(
    scenario: Scenario,
    modes=(SparsificationSpec.uninvolved(), SparsificationSpec.full()),
    noise_ratios=DEFAULT_NOISE_RATIOS,
    timing_repeats: int = 1,
    consistency_tolerance: float = 1e-9,
) -> SessionReport:
    """Solve the decision problem on the original belief and on each
    sparsified version, collecting comparison metrics and loss bounds.

    The original problem is always evaluated (it provides the ground-truth
    values for loss and offsets); a requested "none" mode is reported as
    that baseline.  Wall-clock figures are medians over ``timing_repeats``
    repetitions of each phase; fewer than one repetition is a ValueError.
    """
    if timing_repeats < 1:
        raise ValueError(f"timing_repeats must be at least 1, got {timing_repeats}")
    candidates = scenario.candidates
    layout = scenario.prior.layout
    mask = detect_involvement(layout, candidates)
    never = mask.never_involved(layout)
    uninvolved_ratio = len(never) / len(layout.block_ids)

    values_orig, cand_secs = _evaluate_all(scenario.prior, candidates, timing_repeats)
    root_nnz, info_nnz = scenario.prior.root.nnz, scenario.prior.root.gram_nnz()
    baseline = ModeResult(
        label="original",
        values=values_orig,
        best_index=int(np.argmax(values_orig)),
        sparsify_seconds=0.0,
        evaluate_seconds=float(cand_secs.sum()),
        candidate_seconds=cand_secs,
        root_nnz=root_nnz,
        info_nnz=info_nnz,
    )

    mode_results = []
    for spec in modes:
        if spec.mode == "none":
            continue
        sparsified, sp_secs = _median_timed(
            lambda s=spec: sparsify_belief(scenario.prior, s, mask), timing_repeats
        )
        values, cand_secs_m = _evaluate_all(sparsified, candidates, timing_repeats)
        best = int(np.argmax(values))
        r_nnz, i_nnz = sparsified.root.nnz, sparsified.root.gram_nnz()
        mode_results.append(
            ModeResult(
                label=spec.mode,
                values=values,
                best_index=best,
                sparsify_seconds=sp_secs,
                evaluate_seconds=float(cand_secs_m.sum()),
                candidate_seconds=cand_secs_m,
                root_nnz=r_nnz,
                info_nnz=i_nnz,
                loss=simplification_loss(values_orig, best),
                offset_identity=offset(values_orig, values),
                offset_shift_upper=balanced_offset_upper(values_orig, values),
                rho=rank_correlation(values_orig, values),
                consistent_exact=action_consistent(values_orig, values),
                consistent_tol=action_consistent(values_orig, values, consistency_tolerance),
            )
        )

    bounds = candidate_bounds(scenario, noise_ratios)

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
        consistency_tolerance=consistency_tolerance,
    )


# ---------------------------------------------------------------------------
# Serialization: scenario files and session reports
# ---------------------------------------------------------------------------


def _factor_doc(f: Factor, sqrt_info: np.ndarray) -> dict:
    return {
        "type": f.kind,
        "i": f.i,
        "j": f.j,
        "sqrt_info": [float(v) for v in sqrt_info.reshape(-1)],
    }


def scenario_to_json(scenario: Scenario) -> str:
    """Schema: {seed, config, poses, factors, candidates}; the anchor on
    pose 0 is implicit (re-added on load), factor types are odom|loop."""
    cfg = scenario.config
    sqrt_info = noise_sqrt_info(cfg)
    doc = {
        "schema_version": SCENARIO_SCHEMA_VERSION,
        "seed": cfg.seed,
        "config": {
            "n_prior_poses": cfg.n_prior_poses,
            "world_extent": cfg.world_extent,
            "position_std": cfg.position_std,
            "angular_std": cfg.angular_std,
            "loop_closure_radius": cfg.loop_closure_radius,
            "n_candidates": cfg.n_candidates,
            "candidate_length": cfg.candidate_length,
            "loop_index_window": cfg.loop_index_window,
        },
        "poses": [
            {"id": k, "x": float(p[0]), "y": float(p[1]), "theta": float(p[2])}
            for k, p in enumerate(scenario.executed_path)
        ],
        "factors": [
            _factor_doc(f, sqrt_info) for f in scenario.prior_factors if f.kind != "anchor"
        ],
        "candidates": [
            {
                "id": plan.candidate_id,
                "new_poses": [
                    {"id": int(pid), "x": float(p[0]), "y": float(p[1]), "theta": float(p[2])}
                    for pid, p in zip(plan.new_pose_ids, plan.new_pose_means)
                ],
                "factors": [_factor_doc(f, sqrt_info) for f in plan.factors],
            }
            for plan in scenario.plans
        ],
    }
    return json.dumps(doc, indent=1)


def _check_scenario_doc(doc: dict, cfg: ScenarioConfig):
    """Reject what the loader would otherwise crash on or silently ignore."""
    n, n_cand, length = cfg.n_prior_poses, cfg.n_candidates, cfg.candidate_length
    if len(doc["poses"]) != n or len(doc["candidates"]) != n_cand:
        raise InvalidScenario(
            f"config declares {n} poses and {n_cand} candidates, "
            f"the file has {len(doc['poses'])} and {len(doc['candidates'])}"
        )
    ids = np.sort(np.array([int(p["id"]) for p in doc["poses"]], dtype=np.int64))
    if not np.array_equal(ids, np.arange(n)):
        raise InvalidScenario(f"pose ids must be 0..{n - 1}, each exactly once")
    for cd in doc["candidates"]:
        if [int(p["id"]) for p in cd["new_poses"]] != list(range(n, n + length)):
            raise InvalidScenario(
                f"candidate {cd['id']}: new pose ids must be {n}..{n + length - 1} (candidate_length {length})"
            )
    factor_docs = doc["factors"] + [fd for cd in doc["candidates"] for fd in cd["factors"]]
    got = np.array([fd["sqrt_info"] for fd in factor_docs], dtype=np.float64)
    expected = noise_sqrt_info(cfg).reshape(1, -1)
    if got.size and (got.shape[1:] != expected.shape[1:] or not np.allclose(got, expected, rtol=1e-12, atol=0)):
        raise InvalidScenario(
            "a factor sqrt_info differs from the noise model of the config "
            f"(position_std {cfg.position_std}, angular_std {cfg.angular_std})"
        )


def _read_scenario_doc(doc: dict) -> tuple:
    """(config, poses, prior factors, plans) of a parsed scenario file."""
    if doc.get("schema_version") != SCENARIO_SCHEMA_VERSION:
        raise InvalidScenario(
            f"scenario schema_version {doc.get('schema_version')!r} is not {SCENARIO_SCHEMA_VERSION}"
        )
    cfg = ScenarioConfig(
        seed=int(doc["seed"]),
        n_prior_poses=int(doc["config"]["n_prior_poses"]),
        world_extent=float(doc["config"]["world_extent"]),
        position_std=float(doc["config"]["position_std"]),
        angular_std=float(doc["config"]["angular_std"]),
        loop_closure_radius=float(doc["config"]["loop_closure_radius"]),
        n_candidates=int(doc["config"]["n_candidates"]),
        candidate_length=int(doc["config"]["candidate_length"]),
        loop_index_window=int(doc["config"].get("loop_index_window", 40)),
    )
    _check_scenario_doc(doc, cfg)
    poses = np.zeros((len(doc["poses"]), 3))
    for entry in doc["poses"]:
        poses[int(entry["id"])] = (entry["x"], entry["y"], entry["theta"])

    prior_factors = [Factor("anchor", 0, 0)]
    for fd in doc["factors"]:
        prior_factors.append(Factor(fd["type"], int(fd["i"]), int(fd["j"])))

    plans = []
    for cd in doc["candidates"]:
        new_ids = tuple(int(p["id"]) for p in cd["new_poses"])
        new_means = np.array([[p["x"], p["y"], p["theta"]] for p in cd["new_poses"]], dtype=np.float64)
        factors = tuple(Factor(fd["type"], int(fd["i"]), int(fd["j"])) for fd in cd["factors"])
        plans.append(CandidatePlan(int(cd["id"]), new_ids, new_means.reshape(-1, 3), factors))
    return cfg, poses, tuple(prior_factors), tuple(plans)


def scenario_from_json(text: str) -> Scenario:
    """Load a scenario file; a malformed or inconsistent file raises
    ``InvalidScenario`` or ``ValueError``."""
    try:
        cfg, poses, prior_factors, plans = _read_scenario_doc(json.loads(text))
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError) as e:
        raise InvalidScenario(f"malformed scenario file: {type(e).__name__}: {e}") from e
    prior = _prior_belief(cfg, poses, prior_factors)
    candidates = _candidate_actions(cfg, poses, plans, prior.layout)
    pose_graph = _prior_pose_graph(prior_factors, poses.shape[0])
    return Scenario(cfg, prior, poses, prior_factors, candidates, plans, pose_graph)


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
        "root_nnz": res.root_nnz,
        "info_nnz": res.info_nnz,
    }
    if res.loss is not None:
        doc.update(
            loss=res.loss,
            offset_identity=res.offset_identity,
            offset_shift_upper=res.offset_shift_upper,
            rho=res.rho,
            consistent_exact=res.consistent_exact,
            consistent_tol=res.consistent_tol,
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
        "consistency_tolerance": report.consistency_tolerance,
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
