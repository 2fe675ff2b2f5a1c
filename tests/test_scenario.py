"""Scenario generation, Jacobian assembly, session execution, file formats."""

import dataclasses
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplan.belief import VariableLayout, entropy, objective
from beliefplan.bounds import PoseGraph, topological_bounds
from beliefplan.errors import BeliefPlanError, InfeasibleConfig, InvalidScenario, LayoutMismatch
from beliefplan import scenario as scenario_module
from beliefplan.decision import CONSISTENCY_TOLERANCE, action_consistent, rank_correlation
from beliefplan.scenario import (
    Factor,
    ScenarioConfig,
    _candidate_plans,
    _prior_loop_closures,
    _sample_trajectory,
    build_collective_jacobian,
    candidate_bounds,
    generate,
    noise_sqrt_info,
    objective_scale_bounds,
    posterior_pose_graph,
    report_to_csv,
    report_to_json,
    report_csv_columns,
    run_session,
    scenario_from_json,
    scenario_to_json,
    topological_constants,
)
from beliefplan.sparse import SparseRowBlock, cholesky, logdet_triangular
from beliefplan.sparsify import SparsificationSpec, detect_involvement

from helpers import (
    batch_small_configs,
    candidate_plans_oracle,
    factor_table_oracle,
    generate_oracle,
    loop_collective_jacobian,
    loop_information_from_rows,
    loop_lever_mass,
    prior_loop_closures_oracle,
    row_block_from_rows,
    sample_trajectory_oracle,
)


SMALL = ScenarioConfig(seed=5, n_prior_poses=25, n_candidates=4, candidate_length=3)
TINY = Path(__file__).parent / "data" / "tiny_scenario.json"


class TestGeneration:
    def test_deterministic_bytes(self):
        a = scenario_to_json(generate(SMALL))
        b = scenario_to_json(generate(SMALL))
        assert a == b

    def test_odometry_chain_only_is_block_tridiagonal(self):
        cfg = ScenarioConfig(
            seed=1, n_prior_poses=3, loop_closure_radius=1e-9, n_candidates=1, candidate_length=1
        )
        sc = generate(cfg)
        assert all(f.kind != "loop" for f in sc.prior_factors)
        info = sc.prior.root.gram()
        for i, j in zip(info.upper.row_ids, info.upper.indices):
            assert abs(int(j) // 3 - int(i) // 3) <= 1

    def test_prior_root_reconstructs_factor_sum(self):
        sc = generate(SMALL)
        means = {k: tuple(sc.executed_path[k]) for k in range(sc.n_poses)}
        rows = build_collective_jacobian(
            sc.prior_factors, means, sc.prior.layout, noise_sqrt_info(sc.config)
        ).jacobian.to_dense()
        target = rows.T @ rows
        dense_root = sc.prior.root.to_dense()
        np.testing.assert_allclose(dense_root.T @ dense_root, target, rtol=1e-8, atol=1e-8)

    def test_never_involved_guarantee(self):
        for seed in range(8):
            cfg = ScenarioConfig(seed=seed, n_prior_poses=20, n_candidates=5, candidate_length=3)
            sc = generate(cfg)
            mask = detect_involvement(sc.prior.layout, sc.candidates)
            assert mask.never_involved(sc.prior.layout)

    def test_involvement_is_loop_targets_plus_branching_pose(self):
        sc = generate(SMALL)
        mask = detect_involvement(sc.prior.layout, sc.candidates)
        expected = set()
        for plan in sc.plans:
            for f in plan.factors:
                if f.i < sc.n_poses:
                    expected.add(f.i)
                if f.j < sc.n_poses:
                    expected.add(f.j)
        assert mask.involved_blocks == expected
        assert (sc.n_poses - 1) in mask.involved_blocks  # branching pose

    @pytest.mark.parametrize("field, value", [
        ("position_std", math.nan), ("world_extent", math.nan), ("loop_closure_radius", math.nan),
        ("angular_std", math.inf), ("world_extent", math.inf), ("position_std", -math.inf),
        ("angular_std", 0.0), ("loop_closure_radius", -1.0),
        ("position_std", 1e-160), ("angular_std", 1e-155), ("position_std", 5e-324),
    ])
    def test_config_requires_finite_positive_scales(self, field, value):
        # a noise std must also leave its information weight 1/std^2 finite
        if math.isfinite(value) and value > 0:
            message = f"{field} is so small that 1/{field}\\^2 overflows"
        else:
            message = f"{field} must be finite and positive"
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**{field: value})

    def test_infeasible_config_raises(self, monkeypatch):
        # force every goal placement to involve all prior poses so the
        # bounded re-sampling loop exhausts its attempts
        import beliefplan.scenario as scenario_mod
        from beliefplan.sparsify import InvolvementMask

        def all_involved(layout, candidates):
            per = tuple(frozenset(layout.block_ids) for _ in candidates)
            return InvolvementMask(frozenset(layout.block_ids), per)

        monkeypatch.setattr(scenario_mod, "detect_involvement", all_involved)
        cfg = ScenarioConfig(seed=0, n_prior_poses=12, n_candidates=3, candidate_length=2)
        with pytest.raises(InfeasibleConfig):
            generate(cfg)


class TestJacobianAssembly:
    def test_overflowing_anchor_names_its_pose_once(self):
        layout = VariableLayout.from_sizes([3], kind="pose")
        with pytest.raises(InvalidScenario, match=r"\[anchor, 0, 0\] overflows: pose 0 of the poses has coordinates"):
            build_collective_jacobian([Factor("anchor", 0, 0)], {0: (0.0, 0.0, 0.0)}, layout, 1e160 * np.eye(3))

    def test_identity_linearization_gives_signed_identity_blocks(self):
        layout = VariableLayout.from_sizes([3, 3], kind="pose")
        means = {0: (2.0, -1.0, 0.0), 1: (2.0, -1.0, 0.0)}  # coincident, zero heading
        cand = build_collective_jacobian(
            [Factor("odom", 0, 1)], means, layout, np.eye(3)
        )
        dense = cand.jacobian.to_dense()
        np.testing.assert_allclose(dense[:, :3], -np.eye(3), atol=1e-15)
        np.testing.assert_allclose(dense[:, 3:], np.eye(3), atol=1e-15)

    def test_whitening_scales_rows(self):
        layout = VariableLayout.from_sizes([3, 3], kind="pose")
        means = {0: (0.0, 0.0, 0.3), 1: (1.0, 0.5, 0.1)}
        plain = build_collective_jacobian([Factor("odom", 0, 1)], means, layout, np.eye(3))
        s = 0.2
        scaled = build_collective_jacobian(
            [Factor("odom", 0, 1)], means, layout, np.eye(3) / s
        )
        np.testing.assert_allclose(scaled.jacobian.to_dense(), plain.jacobian.to_dense() / s, rtol=1e-12)

    def test_no_factors_yields_negated_prior_entropy(self):
        sc = generate(SMALL)
        empty = build_collective_jacobian([], {}, sc.prior.layout, np.eye(3))
        assert empty.jacobian.n_rows == 0
        assert objective(sc.prior, empty) == -entropy(sc.prior)

    def test_unknown_pose_rejected(self):
        layout = VariableLayout.from_sizes([3], kind="pose")
        with pytest.raises(LayoutMismatch):
            build_collective_jacobian(
                [Factor("odom", 0, 7)], {0: (0, 0, 0), 7: (1, 1, 0)}, layout, np.eye(3)
            )

    def test_rotation_invariance_of_lever_column_norm(self):
        # the heading column norm equals the lever length / position std
        layout = VariableLayout.from_sizes([3, 3], kind="pose")
        means = {0: (1.0, 2.0, 0.7), 1: (4.0, -2.0, 0.2)}
        cand = build_collective_jacobian([Factor("odom", 0, 1)], means, layout, np.eye(3))
        dense = cand.jacobian.to_dense()
        lever = math.hypot(4.0 - 1.0, -2.0 - 2.0)
        np.testing.assert_allclose(np.linalg.norm(dense[:2, 2]), lever, rtol=1e-12)


@st.composite
def factor_sets(draw):
    """Prior and new poses with factors among them: anchors, repeated
    factors, coincident positions (zero lever arms) and zero headings."""
    n_prior, n_new = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    ids = list(range(n_prior + n_new))
    coord = st.one_of(st.sampled_from([0.0, 1.5]), st.floats(-50, 50))
    heading = st.one_of(st.just(0.0), st.floats(-math.pi, math.pi))
    means = {pid: (draw(coord), draw(coord), draw(heading)) for pid in ids}
    factors = [
        Factor("anchor", i, i) if i == j else Factor(draw(st.sampled_from(["odom", "loop"])), i, j)
        for i, j in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=12))
    ]
    sqrt_info = np.diag(draw(st.lists(st.floats(0.5, 100.0), min_size=3, max_size=3)))
    return n_prior, n_new, means, factors, sqrt_info


def assert_bit_equal(got: SparseRowBlock, oracle: SparseRowBlock):
    assert (got.n_rows, got.n_cols) == (oracle.n_rows, oracle.n_cols)
    assert np.array_equal(got.indptr, oracle.indptr)
    assert np.array_equal(got.indices, oracle.indices)
    assert np.array_equal(got.data.view(np.int64), oracle.data.view(np.int64))


def assert_jacobian_matches_loop(n_prior, n_new, means, factors, sqrt_info):
    layout = VariableLayout.from_sizes([3] * n_prior, kind="pose")
    new_ids = tuple(range(n_prior, n_prior + n_new))
    new_means = np.array([means[pid] for pid in new_ids]).reshape(-1, 3)
    got = build_collective_jacobian(factors, means, layout, sqrt_info, new_pose_ids=new_ids, new_pose_means=new_means)
    assert_bit_equal(got.jacobian, loop_collective_jacobian(factors, means, layout, sqrt_info, new_pose_ids=new_ids))


class TestJacobianKernel:
    @settings(max_examples=300, deadline=None)
    @given(factor_sets())
    def test_equals_the_factor_loop_bit_for_bit(self, case):
        assert_jacobian_matches_loop(*case)

    def test_named_cases_equal_the_factor_loop(self):
        means = {0: (2.0, -1.0, 0.0), 1: (2.0, -1.0, 0.0), 2: (0.5, 3.0, -2.5), 3: (1.0, 1.0, 0.0)}
        factors = [
            Factor("anchor", 0, 0),
            Factor("odom", 0, 1),  # coincident poses, heading 0
            Factor("loop", 2, 0),
            Factor("odom", 1, 3),  # to a new pose
            Factor("anchor", 3, 3),
        ]
        assert_jacobian_matches_loop(3, 1, means, factors, np.diag([10.0, 10.0, 20.0]))
        assert_jacobian_matches_loop(3, 0, means, [], np.eye(3))

    def test_generated_scenarios_equal_the_factor_loop(self):
        for cfg in (SMALL, ScenarioConfig(seed=3, n_prior_poses=90, n_candidates=5, loop_closure_radius=2.2)):
            sc = generate(cfg)
            means = {k: tuple(p) for k, p in enumerate(sc.executed_path)}
            sqrt_info = noise_sqrt_info(cfg)
            assert_bit_equal(
                build_collective_jacobian(sc.prior_factors, means, sc.prior.layout, sqrt_info).jacobian,
                loop_collective_jacobian(sc.prior_factors, means, sc.prior.layout, sqrt_info),
            )
            for cand, plan in zip(sc.candidates, sc.plans):
                cand_means = {**means, **{pid: tuple(p) for pid, p in zip(plan.new_pose_ids, plan.new_pose_means)}}
                assert_bit_equal(
                    cand.jacobian,
                    loop_collective_jacobian(
                        plan.factors, cand_means, sc.prior.layout, sqrt_info, new_pose_ids=plan.new_pose_ids
                    ),
                )


def assert_bits(got: np.ndarray, want: np.ndarray):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# sha256 of ``scenario_to_json(generate(cfg))`` (schema 3), then of the
# bytes of its prior table and plan tables in order, as the per-pose and
# per-candidate construction these passes replaced made them; schema 2 files
# held the same tables
SCENARIO_DIGESTS = {
    "tiny": ("a3e202c8db7cd216acf8fd054eb343b5ae1829015b4fb9d89eb4301f9d2f5ad2",
             "d5a4dbe436c8fcde4a3175f9f01469a64d641d1c0e5a5aec4c0dfca46a10f5e4"),
    "plan-1k": ("b482275f495f8ab97e0d3d1b8bd74aaecd15f7dbbb41266e5ccb1f55b6e9b026",
                "61bfc5414101ade5fad7585d05783115232098b9ed42a27fd56e2b2147d0cfa1"),
    "batch-0": ("20299f028b037c28ecc921f06fbd7e306d7ea428cd49edfac9be1151bb1e2dab",
                "bcbec76269ece2fff9fd0d2b478a1d65acf869642c1e8145a2f7a1a946820629"),
    "batch-1": ("e4a3ed0d53dc11bed58c84342501d95891a85bfa95cc338d8d4efa1586a4d14f",
                "09f2bdd6aad86f6318de8f9857d5c2c5893f6b1e8c7afc3d8963d765f8a4fc33"),
    "batch-2": ("67cd701483c0bb62821bf14dc7e7c1777bb5b10da2f8c47f290e3b70dbfeb76f",
                "b30f06bd3bf541dfaeaec8e85bf5eee900acf4a324e8d342c6a1eaee50c4482e"),
    "batch-3": ("e0967699c3589fbcfa2ad8d6e6f95c13633ff582de4924cfee3d1254c18c7051",
                "e9c817c436c7e8f22ba638800f1d53bcd9625bf7da39e56e5291fff992c9224f"),
    "batch-4": ("2743029e64651b760a15bf0e076e0778357145d522b7beddbfad0ebe667d3837",
                "7d952fb7661498f8c004dda2c16ab0772b4d47c4372efdfe5cf8f3c806364e50"),
    "batch-5": ("b930519e8918664d9fa01f5f131f8681a793eac0e548cbaf25f0e8b2f7b01552",
                "3a534a03da6887351d7b9a29e2882d5534e92fd20bc59d9b6204d8ef29549a87"),
    "batch-6": ("920115faca004ed2dcb7cd10f957b4640806808f870cd9c52afc63f91d80dc8f",
                "dd72cbca801653574be64e92030c05169e47a978ed0ebd9e9743d66596661caa"),
    "batch-7": ("14329866eaabd09b1305c26c9575c0c04fdf1887ed057aa823d40a7aac00a8b9",
                "bccb652f65360ec6ba877518327c26030ac1623610d0d1f132dfd84241375869"),
}


class TestConstructionPasses:
    """The array passes that build a scenario against the per-pose and
    per-candidate oracles they replaced, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_poses=st.integers(2, 150), window=st.integers(1, 60),
           radius=st.one_of(st.floats(0.05, 8.0), st.sampled_from([1e-9, 2.0, 50.0])),
           n_candidates=st.integers(1, 10), length=st.integers(1, 6))
    def test_generate_equals_the_oracles(self, seed, n_poses, window, radius, n_candidates, length):
        def outcome(build):
            try:
                return build(ScenarioConfig(seed=seed, n_prior_poses=n_poses, loop_index_window=window,
                                            loop_closure_radius=radius, n_candidates=n_candidates,
                                            candidate_length=length))
            except (ValueError, BeliefPlanError) as e:
                return f"{type(e).__name__}: {e}"

        got, want = outcome(generate), outcome(generate_oracle)
        if isinstance(want, str) or isinstance(got, str):
            assert got == want
            return
        poses, prior_factors, prior_rows, plans, candidates = want
        assert_bits(got.executed_path, poses)
        assert np.array_equal(got.prior_table, factor_table_oracle(prior_factors))
        want_graph = PoseGraph(n_poses + 1, [(0 if f.kind == "anchor" else f.i + 1, f.j + 1) for f in prior_factors])
        assert got.pose_graph.n_nodes == want_graph.n_nodes
        assert np.array_equal(got.pose_graph.edges, want_graph.edges)
        root = cholesky(prior_rows.gram())
        assert_bits(got.prior.root.diag, root.diag)
        assert_bit_equal(got.prior.root.upper, root.upper)
        for plan, cand, want_plan, want_cand in zip(got.plans, got.candidates, plans, candidates, strict=True):
            assert (plan.candidate_id, plan.new_pose_ids) == (want_plan.candidate_id, want_plan.new_pose_ids)
            assert np.array_equal(plan.table, want_plan.table)
            assert_bits(plan.new_pose_means, want_plan.new_pose_means)
            assert_bit_equal(cand.jacobian, want_cand.jacobian)
            assert_bits(cand.predicted_new_means, want_cand.predicted_new_means)
            assert (cand.action_id, cand.n_new_vars, cand.new_blocks) == (
                want_cand.action_id, want_cand.n_new_vars, want_cand.new_blocks)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_poses=st.integers(2, 150), window=st.integers(1, 60),
           radius=st.floats(0.05, 8.0), per_pose=st.integers(1, 3), n_candidates=st.integers(1, 10),
           length=st.integers(1, 6))
    def test_each_pass_equals_its_oracle(self, seed, n_poses, window, radius, per_pose, n_candidates, length):
        cfg = ScenarioConfig(seed=seed, n_prior_poses=n_poses, loop_closure_radius=radius,
                             n_candidates=n_candidates, candidate_length=length)
        rngs = np.random.default_rng(seed), np.random.default_rng(seed)
        poses = _sample_trajectory(cfg, rngs[0])
        assert_bits(poses, sample_trajectory_oracle(cfg, rngs[1]))
        assert np.array_equal(_prior_loop_closures(poses, radius, window, per_pose),
                              factor_table_oracle(prior_loop_closures_oracle(poses, radius, window, per_pose))[:, 1:])
        goal = poses[seed % n_poses, :2] + np.random.default_rng(seed + 1).normal(0.0, radius, size=2)
        got, want = _candidate_plans(cfg, poses, goal, rngs[0]), candidate_plans_oracle(cfg, poses, goal, rngs[1])
        for plan, want_plan in zip(got, want, strict=True):
            assert np.array_equal(plan.table, want_plan.table)
            assert_bits(plan.new_pose_means, want_plan.new_pose_means)
        # both passes drew the same numbers
        assert rngs[0].integers(2**62) == rngs[1].integers(2**62)

    def test_candidates_without_loops_load_with_their_odometry_only(self):
        doc = json.loads(scenario_to_json(generate(SMALL)))
        for cand in doc["candidates"]:
            cand["loops"] = []
        sc = scenario_from_json(json.dumps(doc))
        n, length = SMALL.n_prior_poses, SMALL.candidate_length
        for plan, cand in zip(sc.plans, sc.candidates, strict=True):
            assert plan.factors == tuple(Factor("odom", k - 1, k) for k in range(n, n + length))
            assert (cand.jacobian.n_rows, cand.jacobian.n_cols) == (3 * length, 3 * (n + length))

    def test_generated_files_keep_their_bytes(self):
        import hashlib

        configs = {"tiny": ScenarioConfig(seed=11, n_prior_poses=16, n_candidates=4, candidate_length=3),
                   "plan-1k": ScenarioConfig(seed=1, n_prior_poses=340, n_candidates=16, candidate_length=5)}
        configs.update((f"batch-{k}", cfg) for k, cfg in enumerate(batch_small_configs()))
        def digests(sc):
            tables = b"".join(t.tobytes() for t in (sc.prior_table, *(plan.table for plan in sc.plans)))
            return hashlib.sha256(scenario_to_json(sc).encode()).hexdigest(), hashlib.sha256(tables).hexdigest()

        assert {name: digests(generate(cfg)) for name, cfg in configs.items()} == SCENARIO_DIGESTS


@st.composite
def constraint_rows(draw):
    """Rows of mixed length over few columns (so coordinates repeat), empty
    rows and stored zeros of both signs included; magnitudes far apart make
    every sum depend on its order."""
    n_cols = draw(st.integers(1, 8))
    value = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6), st.floats(-1e-6, 1e-6))
    row_cols, row_vals = [], []
    for _ in range(draw(st.integers(0, 14))):
        cols = sorted(draw(st.sets(st.integers(0, n_cols - 1))))
        row_cols.append(np.array(cols, dtype=np.int64))
        row_vals.append(np.array(draw(st.lists(value, min_size=len(cols), max_size=len(cols))), dtype=float))
    return row_block_from_rows(n_cols, row_cols, row_vals)


class TestInformationAssembly:
    @settings(max_examples=200, deadline=None)
    @given(constraint_rows())
    def test_equals_the_row_loop_bit_for_bit(self, jac):
        got, oracle = jac.gram(), loop_information_from_rows(jac)
        assert np.array_equal(got.upper.indptr, oracle.upper.indptr)
        assert np.array_equal(got.upper.indices, oracle.upper.indices)
        assert np.array_equal(got.upper.data.view(np.int64), oracle.upper.data.view(np.int64))

    def test_generated_prior_equals_the_row_loop_bit_for_bit(self):
        cfg = ScenarioConfig(seed=3, n_prior_poses=90, n_candidates=5, loop_closure_radius=2.2)
        sc = generate(cfg)
        layout = VariableLayout.from_sizes([3] * sc.n_poses, kind="pose")
        means = {k: tuple(p) for k, p in enumerate(sc.executed_path)}
        jac = build_collective_jacobian(sc.prior_factors, means, layout, noise_sqrt_info(cfg)).jacobian
        got, oracle = jac.gram(), loop_information_from_rows(jac)
        assert np.array_equal(got.upper.data.view(np.int64), oracle.upper.data.view(np.int64))
        assert np.array_equal(got.upper.indptr, oracle.upper.indptr)
        assert np.array_equal(got.upper.indices, oracle.upper.indices)


class TestTopologicalConstants:
    def test_prior_logdet_within_bounds(self):
        for seed in range(6):
            sc = generate(ScenarioConfig(seed=seed, n_prior_poses=30, n_candidates=4, candidate_length=3))
            lnlam = logdet_triangular(sc.prior.root)
            lb, ub = topological_bounds(sc.pose_graph, topological_constants(sc))
            assert lb - 1e-9 <= lnlam <= ub + 1e-9

    def test_posterior_objective_within_scaled_bounds(self):
        sc = generate(SMALL)
        for cand, plan in zip(sc.candidates, sc.plans):
            j = objective(sc.prior, cand)
            graph = posterior_pose_graph(sc, plan)
            n_vars = 3 * (sc.n_poses + len(plan.new_pose_ids))
            lbl, ubl = topological_bounds(graph, topological_constants(sc, plan))
            lb, ub = objective_scale_bounds(lbl, ubl, n_vars)
            assert lb - 1e-9 <= j <= ub + 1e-9

    def test_lever_mass_is_the_loop_oracle_bit_for_bit(self):
        """The lever mass summed at construction, of the prior and of every
        plan, on a loaded file and on generated scenarios."""
        configs = (SMALL, ScenarioConfig(seed=3, n_prior_poses=90, n_candidates=5, loop_closure_radius=2.2),
                   ScenarioConfig(seed=1, n_prior_poses=340, n_candidates=16, candidate_length=5),
                   *batch_small_configs())
        for sc in (scenario_from_json(TINY.read_text()), *map(generate, configs)):
            expected = [loop_lever_mass(sc, plan) for plan in (None,) + sc.plans]
            assert sc.lever_mass.tolist() == expected
            assert not sc.lever_mass.flags.writeable

    def test_candidate_bounds_sum_each_lever_mass_once(self):
        """The lever mass is summed once, when the scenario is built, and the
        bounds of every ratio are bit for bit those of
        ``topological_constants`` at that ratio."""
        sc = generate(SMALL)
        ratios = scenario_module.DEFAULT_NOISE_RATIOS
        bounds = candidate_bounds(sc, ratios)
        for idx, plan in enumerate(sc.plans):
            graph = posterior_pose_graph(sc, plan)
            n_vars = 3 * (sc.n_poses + len(plan.new_pose_ids))
            for ratio, (lb, ub) in [(None, bounds.top), *bounds.top_by_ratio.items()]:
                lbl, ubl = topological_bounds(graph, topological_constants(sc, plan, ratio))
                assert (lb[idx], ub[idx]) == objective_scale_bounds(lbl, ubl, n_vars)

    def test_foreign_plan_is_a_value_error(self):
        """A plan is found by its candidate id; one that is not the
        scenario's own never reads another plan's lever mass."""
        sc, other = generate(SMALL), generate(dataclasses.replace(SMALL, seed=6))
        for plan in (other.plans[0], dataclasses.replace(sc.plans[0]),
                     dataclasses.replace(sc.plans[0], candidate_id=len(sc.plans)),
                     dataclasses.replace(sc.plans[-1], candidate_id=-1)):
            with pytest.raises(ValueError, match="is not a plan of this scenario"):
                topological_constants(sc, plan)

    def test_candidate_bounds_stay_under_a_tenth_of_one_dense_reduced_laplacian(self):
        """No n x n array: the peak of the whole bounds loop at 1000 poses,
        factoring the prior pose graph included, stays under 0.8 MB."""
        sc = generate(ScenarioConfig(seed=1, n_prior_poses=1000, n_candidates=4, candidate_length=5))
        n = sc.pose_graph.n_nodes - 1
        tracemalloc.start()
        try:
            bounds = candidate_bounds(sc, scenario_module.DEFAULT_NOISE_RATIOS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(bounds.top[0] <= bounds.top[1])
        assert peak < 8 * n * n / 10

    def test_posterior_graph_equals_the_graph_built_whole(self):
        sc = generate(SMALL)
        for plan in sc.plans:
            edges = np.concatenate([sc.pose_graph.edges, plan.table[:, 1:] + 1])
            whole = PoseGraph(sc.n_poses + len(plan.new_pose_ids) + 1, edges)
            graph = posterior_pose_graph(sc, plan)
            assert (graph.n_nodes, graph.edges.tolist()) == (whole.n_nodes, whole.edges.tolist())
            assert graph.base is sc.pose_graph
            assert abs(graph.log_tree_count - whole.log_tree_count) <= 1e-12 * abs(whole.log_tree_count)


class TestSession:
    def test_uninvolved_mode_is_lossless(self):
        for seed in (0, 1, 2):
            sc = generate(ScenarioConfig(seed=seed, n_prior_poses=30, n_candidates=5, candidate_length=3))
            rep = run_session(sc)
            res = rep.mode("uninvolved")
            assert res.loss == 0.0
            assert res.offset_identity <= 1e-6
            assert res.rho == 1.0
            assert res.consistent

    def test_rank_correlation_ties_at_the_consistency_tolerance(self, monkeypatch):
        # the sixth acceptance-batch draw: three candidates tie exactly.  A
        # sparsified belief can split such a tie by a last-bit difference
        # (re-factoring the information did, here); the session must still
        # rank values split that way as the baseline, at its tolerance
        rng = np.random.default_rng(7)
        for seed in range(7):
            cfg = ScenarioConfig(seed=seed, n_prior_poses=int(rng.integers(40, 121)),
                                 n_candidates=int(rng.integers(5, 9)), candidate_length=4,
                                 loop_closure_radius=2.2)
        scen = generate(cfg)
        evaluate_phase = scenario_module._evaluate_phase

        def split_ties(belief, candidates, repeats):
            values, secs, wall = evaluate_phase(belief, candidates, repeats)
            if belief is not scen.prior:
                tied = np.flatnonzero(np.abs(values - values[1]) <= CONSISTENCY_TOLERANCE)
                values[tied[0]] = np.nextafter(values[tied[0]], np.inf)
                values[tied[-1]] = np.nextafter(values[tied[-1]], -np.inf)
            return values, secs, wall

        monkeypatch.setattr(scenario_module, "_evaluate_phase", split_ties)
        rep = run_session(scen)
        base = rep.baseline.values
        assert np.flatnonzero(np.abs(base - base[1]) <= CONSISTENCY_TOLERANCE).size == 3
        res = rep.mode("uninvolved")
        assert not np.array_equal(np.argsort(res.values), np.argsort(base))
        assert rank_correlation(base, res.values, tol=0.0) < 1.0
        assert not action_consistent(base, res.values, tol=0.0)
        # the session ranks at the comparisons' default rule
        assert res.rho == rank_correlation(base, res.values) == 1.0
        assert res.consistent == action_consistent(base, res.values) is True

    def test_full_mode_reports_metrics(self):
        rep = run_session(generate(SMALL))
        res = rep.mode("full")
        assert res.root_nnz == rep.prior_dim
        assert res.loss >= 0.0
        assert -1.0 <= res.rho <= 1.0
        assert res.offset_shift_upper <= res.offset_identity + 1e-12

    def test_bounds_contain_original_values(self):
        rep = run_session(generate(SMALL))
        v = rep.baseline.values
        assert np.all(rep.bound_lb_top - 1e-9 <= v) and np.all(v <= rep.bound_ub_top + 1e-9)
        assert np.all(rep.bound_lb_det - 1e-9 <= v) and np.all(v <= rep.bound_ub_det + 1e-9)

    def test_loss_bounds_dominate_loss_and_grow_with_ratio(self):
        rep = run_session(generate(SMALL), noise_ratios=(0.01, 0.25, 0.85))
        for res in rep.modes:
            fam = rep.loss_bounds[res.label]
            assert fam["topological"] >= res.loss - 1e-9
            assert fam["determinant"] >= res.loss - 1e-9
            by_ratio = fam["topological_by_ratio"]
            seq = [by_ratio[r] for r in sorted(by_ratio)]
            assert all(b >= a - 1e-9 for a, b in zip(seq, seq[1:]))

    def test_repeated_sessions_are_bit_identical(self):
        sc = generate(SMALL)
        first = run_session(sc)
        second = run_session(sc)
        np.testing.assert_array_equal(first.baseline.values, second.baseline.values)
        for res_1, res_2 in zip(first.modes, second.modes):
            np.testing.assert_array_equal(res_1.values, res_2.values)

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_fewer_than_one_timing_repeat_is_a_value_error(self, repeats):
        with pytest.raises(ValueError, match="timing_repeats"):
            run_session(generate(SMALL), timing_repeats=repeats)

    def test_repeated_mode_is_a_value_error(self):
        with pytest.raises(ValueError, match="mode 'full' is requested more than once"):
            run_session(generate(SMALL), modes=[SparsificationSpec.full(), SparsificationSpec.uninvolved(),
                                                SparsificationSpec.full()])

    def test_repeated_noise_ratio_is_a_value_error(self):
        sc = generate(SMALL)
        with pytest.raises(ValueError, match="noise ratio 0.25 is given more than once"):
            candidate_bounds(sc, (0.25, 0.1, 0.25))
        with pytest.raises(ValueError, match="noise ratio 0.25 is given more than once"):
            run_session(sc, noise_ratios=(0.25, 0.25))

    def test_one_candidate_with_a_sparsified_mode_is_a_value_error_before_scoring(self, monkeypatch):
        sc = generate(dataclasses.replace(SMALL, n_candidates=1))
        calls = []
        monkeypatch.setattr("beliefplan.scenario.evaluate_candidates", lambda *a: calls.append(a) or [0.0])
        for modes in ([SparsificationSpec.uninvolved()], [SparsificationSpec.none(), SparsificationSpec.full()]):
            with pytest.raises(ValueError, match="at least two candidates to rank; the scenario has 1"):
                run_session(sc, modes=modes)
        assert not calls
        monkeypatch.undo()
        assert run_session(sc, modes=[SparsificationSpec.none()]).n_candidates == 1

    def test_explicit_none_mode_maps_to_baseline(self):
        rep = run_session(generate(SMALL), modes=[SparsificationSpec.none()])
        assert rep.modes == ()
        assert rep.baseline.loss is None

    def test_report_times_the_bounds_and_each_evaluation_phase(self):
        """The phase wall times are true: the bounds call and every
        evaluation phase's passes fit inside the session's wall time."""
        repeats = 2
        t0 = time.perf_counter()
        rep = run_session(generate(SMALL), timing_repeats=repeats)
        total = time.perf_counter() - t0
        walls = [res.evaluate_wall_seconds for res in rep.all_results()]
        assert rep.bounds_seconds > 0.0 and all(w > 0.0 for w in walls)
        assert rep.bounds_seconds + repeats * sum(walls) <= total
        doc = json.loads(report_to_json(rep))
        assert doc["schema_version"] == 3
        assert doc["bounds_seconds"] == rep.bounds_seconds
        for res, mode_doc in zip(rep.all_results(), [doc["baseline"]] + doc["modes"]):
            assert mode_doc["evaluate_wall_seconds"] == res.evaluate_wall_seconds


class TestFactorTables:
    def test_working_paths_never_build_the_tuple_views(self, monkeypatch, tmp_path):
        import beliefplan.cli as cli

        def refuse(table):
            raise AssertionError("a factor tuple view was built")

        monkeypatch.setattr(scenario_module, "_factor_view", refuse)
        with pytest.raises(AssertionError, match="tuple view"):
            scenario_from_json(TINY.read_text()).prior_factors
        cfg = ScenarioConfig(seed=3, n_prior_poses=60, n_candidates=5, candidate_length=4)
        for sc in (scenario_from_json(TINY.read_text()), generate(cfg)):
            loaded = scenario_from_json(scenario_to_json(sc))
            run_session(loaded)
            candidate_bounds(loaded, (0.25, 2.0))
        out = tmp_path / "sc.json"
        argv = ["generate", "--seed", "3", "--n-poses", "60", "--candidates", "5", "--out", str(out)]
        assert cli.main(argv) == 0
        assert cli.main(["solve", "--scenario", str(TINY), "--out-dir", str(tmp_path)]) == 0

    def test_tables_and_edges_are_read_only_and_the_views_read_them(self):
        sc = generate(SMALL)
        for table in [sc.prior_table, sc.pose_graph.edges] + [plan.table for plan in sc.plans]:
            assert table.dtype == np.int64 and not table.flags.writeable
        assert sc.prior_factors[0] == Factor("anchor", 0, 0)
        assert [tuple(f) for f in sc.prior_factors] == [
            (("anchor", "odom", "loop")[c], i, j) for c, i, j in sc.prior_table.tolist()]
        assert all(type(f) is Factor for plan in sc.plans for f in plan.factors)

    def test_a_trajectory_table_implies_the_anchor_and_the_odometry(self):
        prior = scenario_module._trajectory_table(4, 0, [[0, 2], [3, 1]], "the loops")
        assert prior.tolist() == [[0, 0, 0], [1, 0, 1], [1, 1, 2], [1, 2, 3], [2, 0, 2], [2, 3, 1]]
        plan = scenario_module._trajectory_table(6, 4, [], "the loops of candidate 0")
        assert plan.tolist() == [[1, 3, 4], [1, 4, 5]]
        for table in (prior, plan):
            assert table.dtype == np.int64 and not table.flags.writeable

    @pytest.mark.parametrize("loops, error, message", [
        ([[0, 2], [1, 9], [2, 2]], LayoutMismatch, "loop [1, 9] of the list references unknown pose 9"),
        ([[0, 2], [9, 9], [1, 7]], InvalidScenario, "loop [9, 9] of the list joins pose 9 to itself"),
    ], ids=["unknown-pose-first", "self-join-first"])
    def test_the_first_faulty_loop_is_refused_by_name(self, loops, error, message):
        with pytest.raises(BeliefPlanError) as refused:
            scenario_module._trajectory_table(4, 0, loops, "the list")
        assert (type(refused.value), str(refused.value)) == (error, message)

    def test_an_id_beyond_int64_is_named_exactly(self):
        for p in (2**63, -(2**63) - 1, 10**400):
            for loop in ([1, p], [p, 1]):
                with pytest.raises(LayoutMismatch) as refused:
                    scenario_module._trajectory_table(4, 0, [[0, 1], loop], "the list")
                assert str(refused.value) == f"loop [{loop[0]}, {loop[1]}] of the list references unknown pose {p}"

    def test_scenarios_and_plans_compare_by_identity_without_raising(self):
        a, b = generate(SMALL), generate(SMALL)
        assert (a.plans[0] == b.plans[0]) is False and (a == b) is False
        assert a.plans[0] == a.plans[0] and a == a
        assert a.plans[0] != b.plans[0] and a != b

    def test_dataclasses_replace_still_builds_both(self):
        sc = generate(SMALL)
        moved = dataclasses.replace(sc.plans[0], new_pose_means=sc.plans[0].new_pose_means + 1.0)
        assert moved.table is sc.plans[0].table
        np.testing.assert_array_equal(moved.new_pose_means, sc.plans[0].new_pose_means + 1.0)
        out = dataclasses.replace(sc, plans=(moved,) + sc.plans[1:])
        assert out.plans[0] is moved and out.prior is sc.prior and out.pose_graph is sc.pose_graph


class TestSerialization:
    def test_scenario_round_trip(self):
        sc = generate(SMALL)
        text = scenario_to_json(sc)
        loaded = scenario_from_json(text)
        assert scenario_to_json(loaded) == text
        assert loaded.config == sc.config
        assert loaded.prior_factors == sc.prior_factors
        assert [(p.candidate_id, p.new_pose_ids, p.factors) for p in loaded.plans] == [
            (p.candidate_id, p.new_pose_ids, p.factors) for p in sc.plans
        ]
        for a, b in zip(loaded.plans, sc.plans):
            assert np.array_equal(a.new_pose_means.view(np.int64), b.new_pose_means.view(np.int64))
        np.testing.assert_array_equal(loaded.executed_path, sc.executed_path)
        for got, want in (
            (loaded.prior.root.diag, sc.prior.root.diag),
            (loaded.prior.root.upper.indptr, sc.prior.root.upper.indptr),
            (loaded.prior.root.upper.indices, sc.prior.root.upper.indices),
            (loaded.prior.root.upper.data, sc.prior.root.upper.data),
        ):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(loaded.prior_table, sc.prior_table)
        assert all(np.array_equal(a.table, b.table) for a, b in zip(loaded.plans, sc.plans, strict=True))
        assert np.array_equal(loaded.pose_graph.edges, sc.pose_graph.edges)
        assert loaded.pose_graph.n_nodes == sc.pose_graph.n_nodes
        for a, b in zip(loaded.candidates, sc.candidates):
            np.testing.assert_array_equal(a.jacobian.to_dense(), b.jacobian.to_dense())
        v0 = [objective(sc.prior, c) for c in sc.candidates]
        v1 = [objective(loaded.prior, c) for c in loaded.candidates]
        np.testing.assert_allclose(v1, v0, rtol=1e-12)

    def test_scenario_schema_fields(self):
        """Schema 3 states each fact once: positions are the ids, the config
        holds the noise model, the lists hold the counts, and pose order
        holds the anchor and the odometry, so only loop closures are
        listed, as pose-id pairs."""
        sc = generate(SMALL)
        doc = json.loads(scenario_to_json(sc))
        assert list(doc) == ["schema_version", "seed", "config", "poses", "loops", "candidates"]
        assert doc["schema_version"] == 3 and doc["seed"] == SMALL.seed
        assert list(doc["config"]) == [
            "world_extent", "position_std", "angular_std", "loop_closure_radius", "loop_index_window"
        ]
        assert doc["poses"] == sc.executed_path.tolist()
        assert doc["loops"] == [[f.i, f.j] for f in sc.prior_factors if f.kind == "loop"]
        assert len(doc["candidates"]) == SMALL.n_candidates
        for cand, plan in zip(doc["candidates"], sc.plans):
            assert list(cand) == ["new_poses", "loops"]
            assert cand["new_poses"] == plan.new_pose_means.tolist()
            assert len(cand["new_poses"]) == SMALL.candidate_length
            assert cand["loops"] == [[f.i, f.j] for f in plan.factors if f.kind == "loop"]

    def test_a_first_heading_of_exactly_zero_takes_the_general_symbolic_pass(self, monkeypatch):
        """Legal input reaches ``_elimination_sweep``: at heading 0.0 the
        prior's whitened rows hold exact zeros, which are not stored, so its
        elimination tree is no chain.  The session's picks and values equal
        those of the same file at heading 1e-13, which takes the chain pass."""
        import beliefplan.sparse as sparse_module

        cfg = ScenarioConfig(seed=1, n_prior_poses=340, n_candidates=16, candidate_length=5)
        doc = json.loads(scenario_to_json(generate(cfg)))
        sweep, calls, reports = sparse_module._elimination_sweep, {}, {}
        for heading in (0.0, 1e-13):
            doc["poses"][0][2] = heading
            calls[heading] = 0

            def counted(*args, heading=heading):
                calls[heading] += 1
                return sweep(*args)

            monkeypatch.setattr(sparse_module, "_elimination_sweep", counted)
            reports[heading] = run_session(scenario_from_json(json.dumps(doc)))
        assert calls == {0.0: 1, 1e-13: 0}
        assert reports[0.0].baseline.root_nnz < reports[1e-13].baseline.root_nnz
        for a, b in zip(reports[0.0].all_results(), reports[1e-13].all_results(), strict=True):
            assert a.best_index == b.best_index and np.array_equal(a.values, b.values)

    def test_report_csv_columns_and_rows(self):
        rep = run_session(generate(SMALL))
        csv_text = report_to_csv(rep)
        lines = csv_text.strip().splitlines()
        header = tuple(lines[0].split(","))
        assert header == report_csv_columns(rep)
        assert header[:1] == ("candidate_id",)
        assert "j_original" in header and "j_uninvolved" in header and "j_full" in header
        assert header[-4:] == ("lb_top", "ub_top", "lb_det", "ub_det")
        assert len(lines) == 1 + rep.n_candidates

    def test_report_json_round_trips_values(self):
        rep = run_session(generate(SMALL))
        doc = json.loads(report_to_json(rep))
        np.testing.assert_allclose(doc["baseline"]["values"], rep.baseline.values)
        assert doc["modes"][0]["label"] == "uninvolved"
        assert doc["loss_bounds"]["full"]["topological"] >= 0.0
