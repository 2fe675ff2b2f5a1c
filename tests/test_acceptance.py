"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here, not calibrated: exact guarantees are checked at
solver precision (1e-6 .. 1e-9 as stated per criterion), scale-dependent
observations (sparsity ratios, rank-correlation fidelity, timing order)
are checked as trends on seeded synthetic sessions.
"""

import itertools
import math
import time

import numpy as np
import pytest

from beliefplan.belief import GaussianBelief, VariableLayout, objective
from beliefplan.bounds import PoseGraph, TopologicalNoiseConfig, spanning_tree_count, topological_bounds
from beliefplan.decision import (
    action_consistent,
    balanced_offset_upper,
    rank_correlation,
    simplification_loss,
)
from beliefplan.scenario import (
    ScenarioConfig,
    generate,
    posterior_pose_graph,
    run_session,
    topological_constants,
)
from beliefplan.sparse import (
    UpperTriangular,
    cholesky,
    logdet_triangular,
    lowrank_update,
)
from beliefplan.bounds import rank1_offset_bound
from beliefplan.sparsify import SparsificationSpec, detect_involvement, sparsify_belief

from helpers import (
    Permutation,
    dense_logdet_oracle,
    loop_is_connected,
    permute_symmetric,
    permute_triangular_back,
    random_sparse_spd,
    random_update,
    single_row_problem,
    symmetric_from_dense,
    triangular_from_rows,
)
from test_bounds import count_spanning_trees_brute_force


def report(ok: bool, label: str, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def session_batch():
    """30 seeded sessions (40-120 poses, 5-8 candidates) with uninvolved and
    full sparsification, shared by the bound-validity and sparsity checks."""
    rng = np.random.default_rng(7)
    reports = []
    for seed in range(30):
        cfg = ScenarioConfig(
            seed=seed,
            n_prior_poses=int(rng.integers(40, 121)),
            n_candidates=int(rng.integers(5, 9)),
            candidate_length=4,
            loop_closure_radius=2.2,
        )
        reports.append(run_session(generate(cfg)))
    return reports


def _snap_ties(values: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Collapse values closer than tol to a shared representative.

    Candidates without loop closures attain mathematically identical
    objective values (an odometry-only chain contributes a linearization-
    independent determinant factor), and the original and sparsified
    evaluation paths split such exact ties by different last-ulp noise.
    Ranking at solver precision means ranking the tie groups.
    """
    order = np.argsort(values, kind="stable")
    snapped = values.copy()
    group_start = 0
    for pos in range(1, order.size + 1):
        if pos == order.size or values[order[pos]] - values[order[pos - 1]] > tol:
            snapped[order[group_start:pos]] = values[order[group_start]]
            group_start = pos
    return snapped


def test_criterion_1_uninvolved_sparsification_is_exact():
    """100 sessions, prior 60-600 scalar dims, 5-10 candidates: sparsifying
    the never-involved blocks changes no objective value beyond 1e-6, so
    loss is zero and the rankings agree perfectly; all within 2 minutes."""
    rng = np.random.default_rng(123)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        cfg = ScenarioConfig(
            seed=int(rng.integers(0, 2**31)),
            n_prior_poses=int(rng.integers(20, 201)),
            n_candidates=int(rng.integers(5, 11)),
            candidate_length=4,
        )
        sc = generate(cfg)
        assert 60 <= sc.prior.dim <= 600
        mask = detect_involvement(sc.prior.layout, sc.candidates)
        b_s = sparsify_belief(sc.prior, SparsificationSpec.uninvolved(), mask)
        v0 = np.array([objective(sc.prior, c) for c in sc.candidates])
        v1 = np.array([objective(b_s, c) for c in sc.candidates])
        worst = max(worst, float(np.abs(v0 - v1).max()))
        assert np.abs(v0 - v1).max() <= 1e-6
        assert simplification_loss(v0, int(np.argmax(v1))) == 0.0
        assert rank_correlation(_snap_ties(v0), _snap_ties(v1)) == 1.0
    elapsed = time.perf_counter() - t0
    report(
        worst <= 1e-6 and elapsed <= 120.0,
        "criterion 1: uninvolved-mode exactness",
        f"max discrepancy {worst:.2e}, 100 sessions in {elapsed:.0f}s",
    )


def test_criterion_2_sparsification_preserves_logdet():
    """500 random priors (dim <= 120), arbitrary block selections including
    involved ones: the information log-determinant moves < 1e-9 * dim."""
    rng = np.random.default_rng(21)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 121))
        root = cholesky(symmetric_from_dense(random_sparse_spd(rng, n, density=0.15)))
        b = GaussianBelief(np.zeros(n), root, VariableLayout.from_sizes([1] * n))
        blocks = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
        b_s = sparsify_belief(b, SparsificationSpec.custom(blocks))
        drift = abs(logdet_triangular(b_s.root) - logdet_triangular(b.root))
        worst = max(worst, drift / n)
        assert drift <= 1e-9 * n
    elapsed = time.perf_counter() - t0
    report(
        elapsed <= 30.0,
        "criterion 2: determinant preservation",
        f"max drift/dim {worst:.2e}, 500 cases in {elapsed:.1f}s",
    )


def test_criterion_3_back_permuted_factor_stays_triangular():
    """200 random sparsify pipelines: the back-permuted factor is
    structurally upper triangular and squares to the permuted sparsified
    information matrix within 1e-9."""
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(3, 64))
        info = symmetric_from_dense(random_sparse_spd(rng, n, density=0.2))
        k = int(rng.integers(1, n))
        s_vars = sorted(rng.choice(n, size=k, replace=False).tolist())
        perm = Permutation.move_to_front(n, s_vars)
        root_p = cholesky(permute_symmetric(info, perm))
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0)
        root_p_s = triangular_from_rows(
            root_p.diag,
            tuple(empty_i if i < k else root_p.row_cols[i] for i in range(n)),
            tuple(empty_f if i < k else root_p.row_vals[i] for i in range(n)),
        )
        back = permute_triangular_back(root_p_s, perm.inverted(), set(range(k)))
        for i in range(n):
            assert back.row_cols[i].size == 0 or back.row_cols[i].min() > i
        target = permute_symmetric(root_p_s.gram(), perm.inverted()).to_dense()
        got = back.to_dense().T @ back.to_dense()
        assert np.max(np.abs(got - target)) <= 1e-9 * max(1.0, np.abs(target).max())
    report(True, "criterion 3: back-permutation preserves triangularity", "200 cases")


def test_criterion_4_givens_update_matches_dense_oracle():
    """200 random (prior, update, n_new) instances, augmentation included:
    the Givens-updated log-determinant matches a dense factorization of the
    assembled posterior within 1e-8 relative."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 40))
        dense = random_sparse_spd(rng, n)
        root = cholesky(symmetric_from_dense(dense))
        n_new = int(rng.integers(0, 4))
        u = random_update(rng, n, n_new, extra_rows=int(rng.integers(0, 6)))
        updated = lowrank_update(root, u, n_new)
        aug = np.zeros((n + n_new, n + n_new))
        aug[:n, :n] = dense
        expected = dense_logdet_oracle(symmetric_from_dense(aug + u.to_dense().T @ u.to_dense()))
        got = logdet_triangular(updated)
        rel = abs(got - expected) / max(1.0, abs(expected))
        worst = max(worst, rel)
        assert rel <= 1e-8
    report(True, "criterion 4: update/oracle log-det equivalence", f"max rel err {worst:.2e}")


def test_criterion_5_bounds_always_valid(session_batch):
    """Every session, every candidate: objective within both bound
    families; every mode: assembled loss bound dominates the actual loss.
    Plus 100 rank-1 problems where the offset bound dominates the measured
    offset.  Zero violations tolerated."""
    for rep in session_batch:
        v = rep.baseline.values
        assert np.all(rep.bound_lb_top - 1e-9 <= v) and np.all(v <= rep.bound_ub_top + 1e-9)
        assert np.all(rep.bound_lb_det - 1e-9 <= v) and np.all(v <= rep.bound_ub_det + 1e-9)
        for res in rep.modes:
            fam = rep.loss_bounds[res.label]
            assert fam["topological"] >= res.loss - 1e-9
            assert fam["determinant"] >= res.loss - 1e-9

    rng = np.random.default_rng(71)
    checked = 0
    while checked < 100:
        b, b_s, mask, candidates = single_row_problem(rng, int(rng.integers(5, 10)), 1)
        alpha = max(float(np.max(c.jacobian.row_vals[0] ** 2)) for c in candidates)
        bound = rank1_offset_bound(b, b_s, mask, alpha, candidates=candidates)
        actual = max(abs(objective(b, c) - objective(b_s, c)) for c in candidates)
        assert bound >= actual - 1e-9
        checked += 1
    report(
        True,
        "criterion 5: bound validity",
        f"{len(session_batch)} sessions + {checked} rank-1 problems, zero violations",
    )


def test_criterion_6_loss_bound_monotone_in_noise_ratio():
    """Fixed scenario, angular:position ratio swept over {0.01, 0.25,
    0.85}: the reported loss bound never decreases; the same numbers come
    out of the raw bound formula with mu pinned to zero (the normalization
    constant cancels between the max-upper and selected-lower terms)."""
    ratios = (0.01, 0.25, 0.85)
    sc = generate(ScenarioConfig(seed=3, n_prior_poses=40, n_candidates=6, candidate_length=4))
    rep = run_session(sc, noise_ratios=ratios)
    for res in rep.modes:
        by_ratio = rep.loss_bounds[res.label]["topological_by_ratio"]
        seq = [by_ratio[r] for r in ratios]
        assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))

        for r in ratios:
            lbs = np.zeros(rep.n_candidates)
            ubs = np.zeros(rep.n_candidates)
            for idx, plan in enumerate(sc.plans):
                graph = posterior_pose_graph(sc, plan)
                psi = topological_constants(sc, plan, ratio=r).psi
                lbs[idx], ubs[idx] = topological_bounds(graph, TopologicalNoiseConfig(mu=0.0, psi=psi, ratio=r))
            direct = 0.5 * (float(ubs.max()) - float(lbs[res.best_index]))
            np.testing.assert_allclose(direct, by_ratio[r], rtol=1e-9, atol=1e-9)
    full_seq = [rep.loss_bounds["full"]["topological_by_ratio"][r] for r in ratios]
    report(
        True,
        "criterion 6: loss-bound trend over noise ratios",
        "bounds at {0.01, 0.25, 0.85} = " + ", ".join(f"{v:.3f}" for v in full_seq),
    )


def test_criterion_7_sparsity_reduction(session_batch):
    """Sessions with >= 40% never-involved blocks: uninvolved-mode root
    nonzeros drop by >= 30%; full mode always stores exactly the diagonal."""
    qualifying = 0
    worst = 1.0
    for rep in session_batch:
        assert rep.mode("full").root_nnz == rep.prior_dim
        if rep.uninvolved_block_ratio >= 0.40:
            qualifying += 1
            reduction = 1.0 - rep.mode("uninvolved").root_nnz / rep.baseline.root_nnz
            worst = min(worst, reduction)
            assert reduction >= 0.30
    report(
        qualifying >= 10,
        "criterion 7: sparsity reduction",
        f"{qualifying} qualifying sessions, worst uninvolved-root reduction {worst:.0%}",
    )


def test_criterion_8_full_sparsification_fidelity():
    """Median rank correlation between original and fully-sparsified
    rankings over 20 seeded sessions >= 0.9 (soft property, distribution
    reported)."""
    rhos = []
    for seed in range(20):
        cfg = ScenarioConfig(
            seed=seed,
            n_prior_poses=80,
            n_candidates=7,
            candidate_length=8,
            loop_closure_radius=2.5,
        )
        rep = run_session(generate(cfg), modes=[SparsificationSpec.full()])
        rhos.append(rep.mode("full").rho)
    rhos = np.array(rhos)
    med = float(np.median(rhos))
    detail = (
        f"median {med:.3f}, min {rhos.min():.3f}, max {rhos.max():.3f}, "
        f"quartiles {np.percentile(rhos, 25):.3f}/{np.percentile(rhos, 75):.3f}"
    )
    report(med >= 0.9, "criterion 8: full-sparsification rank fidelity", detail)


def test_criterion_9_ordering_and_offset_laws():
    """1000 randomized trials per law: consistency is an equivalence
    relation; strictly increasing maps change neither consistency nor the
    argmax; consistent selections lose nothing and zero constant-shift
    offset implies consistency; loss sits in [0, 2x offset bound]; the
    offset bound satisfies the triangle inequality."""
    rng = np.random.default_rng(91)

    def vec(n=None):
        n = int(rng.integers(2, 8)) if n is None else n
        # grid values keep exact float arithmetic under shifts
        return rng.integers(-400, 400, size=n).astype(float) / 16.0

    for _ in range(1000):
        v = vec()
        assert action_consistent(v, v)
    for _ in range(1000):
        v1 = vec()
        v2 = vec(v1.size)
        assert action_consistent(v1, v2) == action_consistent(v2, v1)
    for _ in range(1000):
        v1 = vec()
        # build a consistent chain half the time so the premise is often met
        if rng.random() < 0.5:
            v2, v3 = 2.0 * v1, 0.5 * v1 + 8.0
        else:
            v2, v3 = vec(v1.size), vec(v1.size)
        if action_consistent(v1, v2) and action_consistent(v2, v3):
            assert action_consistent(v1, v3)
    for _ in range(1000):
        v = vec()
        mapped = 4.0 * v
        assert action_consistent(v, mapped)
        assert int(np.argmax(v)) == int(np.argmax(mapped))
    for _ in range(1000):
        v1 = vec()
        v2 = 2.0 * v1 + rng.integers(-8, 8)
        assert action_consistent(v1, v2)
        assert simplification_loss(v1, int(np.argmax(v2))) == 0.0
        shifted = v1 + float(rng.integers(-64, 64))
        if balanced_offset_upper(v1, shifted) == 0.0:
            assert action_consistent(v1, shifted)
    for _ in range(1000):
        v1 = vec()
        v2 = vec(v1.size)
        loss = simplification_loss(v1, int(np.argmax(v2)))
        assert 0.0 <= loss <= 2.0 * balanced_offset_upper(v1, v2) + 1e-9
    for _ in range(1000):
        a = vec()
        b = vec(a.size)
        c = vec(a.size)
        assert (
            balanced_offset_upper(a, b) + balanced_offset_upper(b, c)
            >= balanced_offset_upper(a, c) - 1e-9
        )
    report(True, "criterion 9: ordering/offset law suite", "1000 trials per law, zero violations")


def _whole_and_grown(n, edges):
    """The graph on ``n`` nodes with ``edges``, built whole and with its last
    one and two nodes, and every edge that touches them, added through
    ``PoseGraph.extended``."""
    graphs = [PoseGraph(n, edges)]
    for n0 in (n - 1, n - 2):
        if n0 >= 1:
            base = tuple(e for e in edges if max(e) < n0)
            graphs.append(PoseGraph(n0, base).extended(n, [e for e in edges if max(e) >= n0]))
    return graphs


def test_criterion_10_matrix_tree_vs_enumeration():
    """Spanning-tree counts agree with brute-force enumeration for every
    connected graph on <= 5 nodes and for 200 random 6-node samples, built
    whole and with their last one or two nodes added by ``extended``."""
    checked = 0
    for n in range(2, 6):
        all_edges = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(all_edges)):
            edges = tuple(e for k, e in enumerate(all_edges) if bits >> k & 1)
            if not loop_is_connected(n, edges):
                continue
            brute = count_spanning_trees_brute_force(n, edges)
            for g in _whole_and_grown(n, edges):
                np.testing.assert_allclose(spanning_tree_count(g), math.log(brute), rtol=1e-9, atol=1e-12)
            checked += 1
    rng = np.random.default_rng(101)
    sampled = 0
    all_edges6 = list(itertools.combinations(range(6), 2))
    while sampled < 200:
        edges = tuple(e for e in all_edges6 if rng.random() < 0.5)
        if not loop_is_connected(6, edges):
            continue
        brute = count_spanning_trees_brute_force(6, edges)
        for g in _whole_and_grown(6, edges):
            np.testing.assert_allclose(spanning_tree_count(g), math.log(brute), rtol=1e-9, atol=1e-12)
        sampled += 1
    report(
        True,
        "criterion 10: matrix-tree correctness",
        f"{checked} exhaustive small graphs + {sampled} six-node samples, each whole and grown by 1 and 2 nodes",
    )


def test_criterion_11_performance_trend():
    """1020-dim scenario, 16 candidates, phase medians over 5 runs: total
    decision time orders baseline >= uninvolved >= full, and the one-time
    sparsification costs <= 10% of the original problem's decision time
    (the cost it is amortizing)."""
    cfg = ScenarioConfig(seed=1, n_prior_poses=340, n_candidates=16, candidate_length=5)
    sc = generate(cfg)
    assert sc.prior.dim >= 1000 and len(sc.candidates) >= 10
    rep = run_session(sc, timing_repeats=5)
    base_total = rep.baseline.total_seconds
    uninv = rep.mode("uninvolved")
    full = rep.mode("full")
    ordering = full.total_seconds <= uninv.total_seconds <= base_total
    share_uninv = uninv.sparsify_seconds / base_total
    share_full = full.sparsify_seconds / base_total
    detail = (
        f"totals: original {base_total:.2f}s, uninvolved {uninv.total_seconds:.2f}s, "
        f"full {full.total_seconds:.2f}s; sparsification share of the original "
        f"decision time: uninvolved {share_uninv:.1%}, full {share_full:.2%}"
    )
    report(ordering and share_uninv <= 0.10 and share_full <= 0.10,
           "criterion 11: performance trend", detail)


def test_criterion_11_performance_trend_at_dim_3000():
    """Criterion 11 at the next benchmarked size: the 3000-dim scenario,
    16 candidates, phase medians over 3 runs.  The same ordering of the
    decision totals and the same 10% gate on the sparsification share."""
    cfg = ScenarioConfig(seed=1, n_prior_poses=1000, n_candidates=16, candidate_length=5)
    sc = generate(cfg)
    assert sc.prior.dim >= 3000 and len(sc.candidates) >= 10
    rep = run_session(sc, timing_repeats=3)
    base_total = rep.baseline.total_seconds
    uninv = rep.mode("uninvolved")
    full = rep.mode("full")
    ordering = full.total_seconds <= uninv.total_seconds <= base_total
    share_uninv = uninv.sparsify_seconds / base_total
    share_full = full.sparsify_seconds / base_total
    detail = (
        f"totals: original {base_total:.2f}s, uninvolved {uninv.total_seconds:.2f}s, "
        f"full {full.total_seconds:.2f}s; sparsification share of the original "
        f"decision time: uninvolved {share_uninv:.1%}, full {share_full:.2%}"
    )
    report(ordering and share_uninv <= 0.10 and share_full <= 0.10,
           "criterion 11: performance trend at dim 3000", detail)
