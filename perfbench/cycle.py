"""Workloads, one planning cycle, its correctness checks and the layer probes.

Every call into the package goes through a public function and is timed
from here; no package code is patched.  Import this module only after
``src`` is on ``sys.path`` (``run.py`` does that).
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from beliefplan import belief, bounds, decision, mmio, scenario, sparse, sparsify
from beliefplan.scenario import ScenarioConfig
from beliefplan.sparsify import SparsificationSpec

RATIOS = scenario.DEFAULT_NOISE_RATIOS
UNINVOLVED_TOL = 1e-6  # the zero-offset guarantee, as the CLI gates it
EXACT_TOL = 1e-9  # relative; identical computations and invariants
ORACLE_TOL = 1e-8  # relative; dense slogdet against the Givens kernel
CORRUPTION = 1e-3  # added to one uninvolved value by --corrupt


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple  # one ScenarioConfig per session of a cycle
    oracle: tuple | None = None  # candidates checked by dense slogdet; None = all
    why: str = ""


def _batch_configs(n: int) -> tuple:
    # the acceptance suite's session_batch draws, first n of them
    rng = np.random.default_rng(7)
    configs = []
    for seed in range(n):
        n_poses = int(rng.integers(40, 121))
        configs.append(ScenarioConfig(seed=seed, n_prior_poses=n_poses,
                                      n_candidates=int(rng.integers(5, 9)),
                                      candidate_length=4, loop_closure_radius=2.2))
    return tuple(configs)


def _plan(n_poses: int) -> tuple:
    return (ScenarioConfig(seed=1, n_prior_poses=n_poses, n_candidates=16, candidate_length=5),)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("plan-1k", _plan(340), None,
                 "reference problem (dim 1020, 16 candidates): candidate scoring dominates"),
        Workload("plan-3k", _plan(1000), (0, 5, 10, 15),
                 "dim 3000, 16 candidates: dense factorization, gram, sparsification and bounds dominate"),
        Workload("batch-small", _batch_configs(8), None,
                 "8 small scenarios per cycle: per-call Python overhead and file I/O dominate"),
        # tiny, for the smoke test only; not listed in BENCHMARK.json
        Workload("smoke", (ScenarioConfig(seed=1, n_prior_poses=20, n_candidates=4,
                                          candidate_length=3),), None, "smoke test"),
    )
}
WARMUP = ScenarioConfig(seed=0, n_prior_poses=60, n_candidates=6, candidate_length=4)


# ---------------------------------------------------------------------------
# Inputs: the workload's scenario under a rigid motion drawn from --seed
# ---------------------------------------------------------------------------
#
# Where the random goal lands decides how much of the prior factor every
# candidate touches, so the cost of scenarios of one size differs up to 5x
# between scenario seeds.  The workload therefore fixes the scenario seeds,
# and the benchmark seed moves and turns the whole world.  That changes every
# pose, Jacobian entry and file byte the program reads, while the problem's
# structure and its objective values stay the same (checked below).


def rigid_motion(seed: int, index: int) -> tuple:
    rng = np.random.default_rng([seed, index])
    return float(rng.uniform(-math.pi, math.pi)), rng.uniform(-50.0, 50.0, size=2)


def move_poses(poses: np.ndarray, motion) -> np.ndarray:
    phi, shift = motion
    c, s = math.cos(phi), math.sin(phi)
    out = np.empty_like(poses)
    out[:, 0] = c * poses[:, 0] - s * poses[:, 1] + shift[0]
    out[:, 1] = s * poses[:, 0] + c * poses[:, 1] + shift[1]
    out[:, 2] = np.arctan2(np.sin(poses[:, 2] + phi), np.cos(poses[:, 2] + phi))
    return out


def move_scenario(sc: scenario.Scenario, motion) -> scenario.Scenario:
    """The fields ``scenario_to_json`` writes, moved; the in-memory prior and
    candidates are left as generated and are never read from the result."""
    plans = tuple(replace(p, new_pose_means=move_poses(p.new_pose_means, motion)) for p in sc.plans)
    return replace(sc, executed_path=move_poses(sc.executed_path, motion), plans=plans)


@dataclass
class Input:
    cfg: ScenarioConfig
    motion: tuple
    path: Path  # the scenario file this session saves and reloads
    digest: str | None = None  # sha256 of the saved file, fixed by the first cycle


def make_inputs(configs, seed: int, workdir: Path, first_index: int = 0) -> list:
    return [Input(cfg, rigid_motion(seed, first_index + i), workdir / f"scenario-{first_index + i}.json")
            for i, cfg in enumerate(configs)]


# ---------------------------------------------------------------------------
# One planning session
# ---------------------------------------------------------------------------


@dataclass
class Summary:
    """What a checked session leaves behind; heavy objects are dropped so the
    next cycle's peak memory is the program's own."""

    original: np.ndarray
    best: int
    full_rho: float
    loss_bound_top: float
    problems: list
    counts: dict = field(default_factory=dict)
    report: object = None  # kept for the traced run's probes
    post_text: str | None = None


def _solve(rec, b, candidates, tag: str) -> decision.Solution:
    """``decision.solve`` spelled out in the public calls it makes, so that
    the traced run times each candidate's objective without patching
    anything.  Each call is its own piece of the ``solve_<tag>`` step, so
    the speed probes run between candidates (see tracing.py)."""
    part, span = rec.part, rec.span
    step = "solve_" + tag
    with part(step), span("decision.solve", tag):
        problem = decision.DecisionProblem(b, candidates)
        values = np.empty(len(problem.candidates))
    for i, a in enumerate(problem.candidates):
        with part(step), span("belief.objective", tag):
            values[i] = belief.objective(problem.belief, a)
    with part(step), span("decision.solve", tag):
        return decision.Solution(int(np.argmax(values)), values)


def _certify(rec, sc, picks: dict) -> dict:
    """Objective bounds of every candidate, as run_session computes them,
    then the loss bounds of each pick in ``picks`` ({label: Solution})."""
    span = rec.span
    n = len(sc.candidates)
    top = (np.zeros(n), np.zeros(n))
    det = (np.zeros(n), np.zeros(n))
    by_ratio = {r: (np.zeros(n), np.zeros(n)) for r in RATIOS}
    for i, (cand, plan) in enumerate(zip(sc.candidates, sc.plans)):
        with span("scenario.posterior_pose_graph"):
            graph = scenario.posterior_pose_graph(sc, plan)
        n_vars = 3 * (sc.n_poses + len(plan.new_pose_ids))
        for r in (None,) + RATIOS:
            with span("scenario.topological_constants"):
                consts = scenario.topological_constants(sc, plan, ratio=r)
            with span("bounds.topological_bounds"):
                lb, ub = bounds.topological_bounds(graph, consts)
            pair = top if r is None else by_ratio[r]
            pair[0][i], pair[1][i] = scenario.objective_scale_bounds(lb, ub, n_vars)
        with span("bounds.determinant_bounds"):
            det[0][i], det[1][i] = bounds.determinant_bounds(sc.prior, cand)
    rec.count("bounds.topological_calls", n * (1 + len(RATIOS)))

    def loss_bound(sol, pair):
        with span("bounds.post_solution_loss_bound"):
            return bounds.post_solution_loss_bound(sol.values, sol.best_index, pair[1],
                                                   float(pair[0][sol.best_index]))

    loss = {
        label: {
            "topological": loss_bound(sol, top),
            "determinant": loss_bound(sol, det),
            "by_ratio": {r: loss_bound(sol, pair) for r, pair in by_ratio.items()},
        }
        for label, sol in picks.items()
    }
    return {"top": top, "det": det, "by_ratio": by_ratio, "loss": loss}


def plan_session(inp: Input, rec, corrupt: bool = False, keep: bool = False) -> Summary:
    """Steps 1-5 of one planning session, timed into ``rec.parts``, then checked."""
    part, span = rec.part, rec.span
    with part("generate"), span("scenario.generate"):
        generated = scenario.generate(inp.cfg)
    moved = move_scenario(generated, inp.motion)
    with part("to_json"), span("scenario.scenario_to_json"):
        text = scenario.scenario_to_json(moved)
    with part("write"):
        inp.path.write_text(text)
    with part("read"):
        text_read = inp.path.read_text()
    with part("from_json"), span("scenario.scenario_from_json"):
        loaded = scenario.scenario_from_json(text_read)
    rec.count("scenario.json_bytes", len(text.encode()))

    with part("session"), span("scenario.run_session"):
        report = scenario.run_session(loaded)

    prior, candidates = loaded.prior, loaded.candidates
    original = _solve(rec, prior, candidates, "original")
    with part("detect"), span("sparsify.detect_involvement"):
        mask = sparsify.detect_involvement(prior.layout, candidates)
    with part("sparsify_uninvolved"), span("sparsify.sparsify_belief", "uninvolved"):
        b_unin = sparsify.sparsify_belief(prior, SparsificationSpec.uninvolved(), mask)
    unin = _solve(rec, b_unin, candidates, "uninvolved")
    with part("sparsify_full"), span("sparsify.sparsify_belief", "full"):
        b_full = sparsify.sparsify_belief(prior, SparsificationSpec.full(), mask)
    full = _solve(rec, b_full, candidates, "full")
    with part("certify"):
        cert = _certify(rec, loaded, {"uninvolved": unin, "full": full})

    with part("propagate"), span("belief.propagate"):
        post = belief.propagate(prior, candidates[original.best_index])
    with part("belief_to_json"), span("belief.belief_to_json"):
        post_text = belief.belief_to_json(post)
    rec.count("belief.json_bytes", len(post_text.encode()))

    if corrupt:
        values = unin.values.copy()
        values[0] += CORRUPTION
        unin = replace(unin, values=values, best_index=int(np.argmax(values)))

    problems = []
    if inp.digest is None:
        inp.digest = hashlib.sha256(text.encode()).hexdigest()
    elif hashlib.sha256(text.encode()).hexdigest() != inp.digest:
        problems.append("the saved scenario file changed between cycles")
    problems += _check_reload(generated, moved, loaded)
    problems += _check_session(loaded, report, original, unin, full, b_unin, b_full, cert, post)
    never = mask.never_involved(prior.layout)
    counts = {
        "sparsify.uninvolved_blocks": len(never),
        "sparsify.involved_scalars": int(prior.layout.scalar_indices(sorted(mask.involved_blocks)).size),
        "sparsify.uninvolved_root_nnz": b_unin.root.nnz,
        "sparsify.full_root_nnz": b_full.root.nnz,
    }
    return Summary(
        original=original.values,
        best=original.best_index,
        full_rho=decision.rank_correlation(original.values, full.values),
        loss_bound_top=cert["loss"]["full"]["topological"],
        problems=problems,
        counts=counts,
        report=report if keep else None,
        post_text=post_text if keep else None,
    )


# ---------------------------------------------------------------------------
# Correctness checks (outside the timed parts)
# ---------------------------------------------------------------------------


def _close(a, b, rel: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


def _check_reload(generated, moved, loaded) -> list:
    problems = []
    same_structure = (
        loaded.config == generated.config
        and loaded.prior_factors == generated.prior_factors
        and [(p.candidate_id, p.new_pose_ids, p.factors) for p in loaded.plans]
        == [(p.candidate_id, p.new_pose_ids, p.factors) for p in generated.plans]
        and loaded.prior.root.nnz == generated.prior.root.nnz
    )
    if not same_structure:
        problems.append("the reloaded scenario's factor graph differs from the generated one")
    if not (_close(loaded.executed_path, moved.executed_path, EXACT_TOL)
            and all(_close(a.new_pose_means, b.new_pose_means, EXACT_TOL)
                    for a, b in zip(loaded.plans, moved.plans))):
        problems.append("the reloaded poses differ from the saved ones")
    # a rigid motion leaves the prior information determinant unchanged
    ld_gen = sparse.logdet_triangular(generated.prior.root)
    if not _close(sparse.logdet_triangular(loaded.prior.root), ld_gen, EXACT_TOL):
        problems.append("the reloaded prior's log-determinant differs from the generated one")
    return problems


def _check_session(sc, report, original, unin, full, b_unin, b_full, cert, post) -> list:
    problems = []
    v = original.values
    if not (np.max(np.abs(unin.values - v)) <= UNINVOLVED_TOL
            and v[unin.best_index] >= v.max() - UNINVOLVED_TOL):
        problems.append("uninvolved sparsification changed the values or the pick")

    ld = sparse.logdet_triangular(sc.prior.root)
    for label, b in (("uninvolved", b_unin), ("full", b_full)):
        if not _close(sparse.logdet_triangular(b.root), ld, EXACT_TOL):
            problems.append(f"{label} sparsification changed the factor log-determinant")

    slack = EXACT_TOL * np.maximum(1.0, np.abs(v))
    actual = sc.config.noise_ratio
    families = [("topological", cert["top"]), ("determinant", cert["det"])]
    # only the actual noise ratio certifies lb <= J <= ub; the other ratios
    # bound the objective of a hypothetical noise model, not this one
    families += [(f"topological@{r}", pair) for r, pair in cert["by_ratio"].items()
                 if math.isclose(r, actual)]
    for name, (lb, ub) in families:
        if not (np.all(lb - slack <= v) and np.all(v <= ub + slack)):
            problems.append(f"a {name} objective bound does not contain its value")
    for label, sol in (("uninvolved", unin), ("full", full)):
        loss = decision.simplification_loss(v, sol.best_index)
        fam = cert["loss"][label]
        bound_list = [fam["topological"], fam["determinant"]]
        bound_list += [b for r, b in fam["by_ratio"].items() if math.isclose(r, actual)]
        if min(bound_list) < loss - EXACT_TOL * max(1.0, abs(loss)):
            problems.append(f"a {label} loss bound is below the actual loss")

    pairs = [(report.baseline, original), (report.mode("uninvolved"), unin), (report.mode("full"), full)]
    if not all(_close(res.values, sol.values, EXACT_TOL) and res.best_index == sol.best_index
               for res, sol in pairs):
        problems.append("the decomposed values or picks differ from run_session's")
    if not (_close(report.bound_lb_top, cert["top"][0], EXACT_TOL)
            and _close(report.bound_ub_top, cert["top"][1], EXACT_TOL)
            and _close(report.bound_lb_det, cert["det"][0], EXACT_TOL)
            and _close(report.bound_ub_det, cert["det"][1], EXACT_TOL)
            and all(_close(report.loss_bounds[label]["topological"], cert["loss"][label]["topological"],
                           EXACT_TOL) for label in ("uninvolved", "full"))):
        problems.append("the decomposed bounds differ from run_session's")

    chosen = sc.candidates[original.best_index]
    n_post = sc.prior.dim + chosen.n_new_vars
    value = 0.5 * (sparse.logdet_triangular(post.root) - n_post * belief.LN_2PI_E)
    if post.dim != n_post or not _close(value, v[original.best_index], EXACT_TOL):
        problems.append("the propagated posterior does not match the chosen candidate's value")
    return problems


def dense_oracle(sc, indices) -> dict:
    """{candidate index: objective} from a dense slogdet of R^T R + U^T U."""
    r = sc.prior.root.to_dense()
    info = r.T @ r
    del r
    out = {}
    for i in indices:
        a = sc.candidates[i]
        n_post = sc.prior.dim + a.n_new_vars
        u = a.jacobian.to_dense()
        m = u.T @ u
        m[: sc.prior.dim, : sc.prior.dim] += info
        sign, logdet = np.linalg.slogdet(m)
        out[i] = 0.5 * (logdet - n_post * belief.LN_2PI_E) if sign > 0 else math.nan
    return out


def oracle_problems(inp: Input, summaries: list, indices) -> None:
    """Check every session of ``inp`` against the dense oracle, appending to
    each summary's problems."""
    sc = scenario.scenario_from_json(inp.path.read_text())
    indices = range(len(sc.candidates)) if indices is None else indices
    oracle = dense_oracle(sc, indices)
    for s in summaries:
        bad = [i for i, o in oracle.items() if not _close(s.original[i], o, ORACLE_TOL)]
        if bad:
            s.problems.append(f"candidates {bad} disagree with the dense slogdet oracle")


# ---------------------------------------------------------------------------
# Layer probes (traced run only, after the timed cycles)
# ---------------------------------------------------------------------------


def probe(rec, inp: Input, last: Summary, workdir: Path) -> list:
    """Time the layer calls a cycle makes only inside other calls, on the
    inputs of the last traced cycle; return any problems found."""
    span, count = rec.span, rec.count
    problems = []
    sc = scenario.scenario_from_json(inp.path.read_text())
    prior = sc.prior

    sqrt_info = scenario.noise_sqrt_info(sc.config)
    means = {k: tuple(p) for k, p in enumerate(sc.executed_path)}
    for plan, cand in zip(sc.plans, sc.candidates):
        cand_means = dict(means)
        cand_means.update((pid, tuple(p)) for pid, p in zip(plan.new_pose_ids, plan.new_pose_means))
        with span("scenario.build_collective_jacobian"):
            action = scenario.build_collective_jacobian(
                plan.factors, cand_means, prior.layout, sqrt_info, new_pose_ids=plan.new_pose_ids,
                new_pose_means=plan.new_pose_means, action_id=plan.candidate_id)
        if action.jacobian.nnz != cand.jacobian.nnz:
            problems.append("build_collective_jacobian disagrees with the loaded candidate")

    with span("sparse.gram"):
        info = prior.root.gram()
    with span("sparse.cholesky"):
        root = sparse.cholesky(info)
    if not _close(sparse.logdet_triangular(root), sparse.logdet_triangular(prior.root), EXACT_TOL):
        problems.append("re-factorizing the prior information changed its log-determinant")
    count("sparse.root_nnz", prior.root.nnz)
    count("sparse.info_nnz", info.nnz)

    for a in sc.candidates:
        with span("sparse.lowrank_update"):
            updated = sparse.lowrank_update(prior.root, a.jacobian, a.n_new_vars)
        touched = int(np.count_nonzero(updated.diag[: prior.dim] != prior.root.diag))
        for i in np.nonzero(updated.diag[: prior.dim] == prior.root.diag)[0]:
            if not (np.array_equal(updated.row_cols[i], prior.root.row_cols[i])
                    and np.array_equal(updated.row_vals[i], prior.root.row_vals[i])):
                touched += 1
        count("sparse.update_rows_touched", touched)
        count("sparse.update_fill_nnz", updated.nnz - prior.root.nnz)
        count("sparse.bandwidth", max((int(c[-1]) - i for i, c in enumerate(updated.row_cols) if c.size),
                                      default=0))

    for plan in sc.plans:
        graph = scenario.posterior_pose_graph(sc, plan)
        with span("bounds.spanning_tree_count"):
            bounds.spanning_tree_count(graph)
        count("bounds.graph_nodes", graph.n_nodes)
        count("bounds.graph_edges", len(graph.edges))

    with span("mmio.triangular_to_mm"):
        mm_text = mmio.triangular_to_mm(prior.root)
    with span("mmio.mm_to_triangular"):
        back = mmio.mm_to_triangular(mm_text)
    count("mmio.bytes", len(mm_text.encode()))
    if not (np.array_equal(back.diag, prior.root.diag) and back.nnz == prior.root.nnz):
        problems.append("the Matrix Market round trip changed the prior factor")

    with span("belief.belief_from_json"):
        post = belief.belief_from_json(last.post_text)
    chosen = sc.candidates[last.best]
    if post.dim != prior.dim + chosen.n_new_vars:
        problems.append("the posterior belief did not survive its JSON round trip")

    report = last.report
    consistent = 0
    with span("decision.compare"):
        for res in report.modes:
            decision.simplification_loss(report.baseline.values, res.best_index)
            decision.offset(report.baseline.values, res.values)
            decision.balanced_offset_upper(report.baseline.values, res.values)
            decision.rank_correlation(report.baseline.values, res.values)
            consistent += decision.action_consistent(report.baseline.values, res.values)
    count("decision.consistent_modes", consistent)

    with span("scenario.report_to_json"):
        report_json = scenario.report_to_json(report)
        (workdir / "report.json").write_text(report_json)
    with span("scenario.report_to_csv"):
        report_csv = scenario.report_to_csv(report)
        (workdir / "report.csv").write_text(report_csv)
    count("scenario.report_bytes", len(report_json.encode()) + len(report_csv.encode()))
    for name, value in last.counts.items():
        count(name, value)
    return problems


def probe_cli(rec, inp: Input, src: Path, workdir: Path) -> list:
    """One ``beliefplan solve`` subprocess on the input's scenario file."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "beliefplan.cli", "solve", "--scenario", str(inp.path),
           "--out-dir", str(workdir / "cli")]
    with rec.span("cli.solve"):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=170)
    rec.count("cli.exit_code", proc.returncode)
    if proc.returncode != 0:
        return [f"beliefplan solve exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    return []


def describe_failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception(exc)).strip()
