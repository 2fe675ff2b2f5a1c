"""Scenario generation, Jacobian assembly, session execution, file formats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplan.belief import VariableLayout, entropy, objective
from beliefplan.bounds import PoseGraph, topological_bounds
from beliefplan.errors import InfeasibleConfig, LayoutMismatch
from beliefplan.scenario import (
    Factor,
    ScenarioConfig,
    _information_from_rows,
    _lever_mass,
    build_collective_jacobian,
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
from beliefplan.sparse import SparseRowBlock, logdet_triangular
from beliefplan.sparsify import SparsificationSpec, detect_involvement

from helpers import loop_collective_jacobian, loop_information_from_rows, loop_lever_mass


SMALL = ScenarioConfig(seed=5, n_prior_poses=25, n_candidates=4, candidate_length=3)


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


@st.composite
def constraint_rows(draw):
    """Rows of mixed length over few columns (so coordinates repeat), empty
    rows and stored zeros included."""
    n_cols = draw(st.integers(1, 8))
    value = st.one_of(st.just(0.0), st.floats(-1e6, 1e6, allow_nan=False))
    row_cols, row_vals = [], []
    for _ in range(draw(st.integers(0, 14))):
        cols = sorted(draw(st.sets(st.integers(0, n_cols - 1))))
        row_cols.append(np.array(cols, dtype=np.int64))
        row_vals.append(np.array(draw(st.lists(value, min_size=len(cols), max_size=len(cols))), dtype=float))
    return SparseRowBlock.from_rows(n_cols, row_cols, row_vals)


class TestInformationAssembly:
    @settings(max_examples=200, deadline=None)
    @given(constraint_rows())
    def test_equals_the_row_loop_bit_for_bit(self, jac):
        got, oracle = _information_from_rows(jac), loop_information_from_rows(jac)
        assert np.array_equal(got.upper.indptr, oracle.upper.indptr)
        assert np.array_equal(got.upper.indices, oracle.upper.indices)
        assert np.array_equal(got.upper.data.view(np.int64), oracle.upper.data.view(np.int64))

    def test_generated_prior_equals_the_row_loop_bit_for_bit(self):
        cfg = ScenarioConfig(seed=3, n_prior_poses=90, n_candidates=5, loop_closure_radius=2.2)
        sc = generate(cfg)
        layout = VariableLayout.from_sizes([3] * sc.n_poses, kind="pose")
        means = {k: tuple(p) for k, p in enumerate(sc.executed_path)}
        jac = build_collective_jacobian(sc.prior_factors, means, layout, noise_sqrt_info(cfg)).jacobian
        got, oracle = _information_from_rows(jac), loop_information_from_rows(jac)
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
        for cfg in (SMALL, ScenarioConfig(seed=3, n_prior_poses=90, n_candidates=5, loop_closure_radius=2.2)):
            sc = generate(cfg)
            for plan in (None,) + sc.plans:
                assert _lever_mass(sc, plan) == loop_lever_mass(sc, plan)

    def test_posterior_graph_equals_the_graph_built_whole(self):
        sc = generate(SMALL)
        for plan in sc.plans:
            edges = sc.pose_graph.edges + tuple((f.i + 1, f.j + 1) for f in plan.factors)
            whole = PoseGraph(sc.n_poses + len(plan.new_pose_ids) + 1, edges)
            graph = posterior_pose_graph(sc, plan)
            assert graph == whole
            assert graph.log_tree_count == whole.log_tree_count


class TestSession:
    def test_uninvolved_mode_is_lossless(self):
        for seed in (0, 1, 2):
            sc = generate(ScenarioConfig(seed=seed, n_prior_poses=30, n_candidates=5, candidate_length=3))
            rep = run_session(sc)
            res = rep.mode("uninvolved")
            assert res.loss == 0.0
            assert res.offset_identity <= 1e-6
            assert res.rho == 1.0
            assert res.consistent_tol

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

    def test_explicit_none_mode_maps_to_baseline(self):
        rep = run_session(generate(SMALL), modes=[SparsificationSpec.none()])
        assert rep.modes == ()
        assert rep.baseline.loss is None


class TestSerialization:
    def test_scenario_round_trip(self):
        sc = generate(SMALL)
        loaded = scenario_from_json(scenario_to_json(sc))
        np.testing.assert_array_equal(loaded.executed_path, sc.executed_path)
        for got, want in (
            (loaded.prior.root.diag, sc.prior.root.diag),
            (loaded.prior.root.upper.indptr, sc.prior.root.upper.indptr),
            (loaded.prior.root.upper.indices, sc.prior.root.upper.indices),
            (loaded.prior.root.upper.data, sc.prior.root.upper.data),
        ):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert loaded.pose_graph.edges == sc.pose_graph.edges
        assert loaded.pose_graph.n_nodes == sc.pose_graph.n_nodes
        for a, b in zip(loaded.candidates, sc.candidates):
            np.testing.assert_array_equal(a.jacobian.to_dense(), b.jacobian.to_dense())
        v0 = [objective(sc.prior, c) for c in sc.candidates]
        v1 = [objective(loaded.prior, c) for c in loaded.candidates]
        np.testing.assert_allclose(v1, v0, rtol=1e-12)

    def test_scenario_schema_fields(self):
        doc = json.loads(scenario_to_json(generate(SMALL)))
        assert set(doc) == {"schema_version", "seed", "config", "poses", "factors", "candidates"}
        assert all(set(p) == {"id", "x", "y", "theta"} for p in doc["poses"])
        for f in doc["factors"]:
            assert f["type"] in ("odom", "loop")
            assert len(f["sqrt_info"]) == 9
        for cand in doc["candidates"]:
            assert set(cand) == {"id", "new_poses", "factors"}

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
