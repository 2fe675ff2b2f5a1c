"""Belief representation, entropy, objective, propagation, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplan.belief import (
    LN_2PI_E,
    CandidateAction,
    GaussianBelief,
    VariableLayout,
    belief_from_json,
    belief_to_json,
    entropy,
    evaluate_candidates,
    nnz_report,
    objective,
    propagate,
)
from beliefplan.errors import BeliefPlanError, EvaluationError, InvalidBelief, RankDeficientAugmentation
from beliefplan.sparse import SparseRowBlock, UpperTriangular, cholesky

from helpers import (
    KeyTwice,
    build_toy_full_slam,
    dense_logdet,
    malformed_text,
    mutate_json,
    random_sparse_spd,
    random_update,
    row_block_from_dense,
    symmetric_from_dense,
    triangular_from_rows,
)


def belief_from_dense(info, mean=None):
    root = cholesky(symmetric_from_dense(info))
    layout = VariableLayout.from_sizes([1] * root.dim)
    mean = np.zeros(root.dim) if mean is None else np.asarray(mean, dtype=float)
    return GaussianBelief(mean, root, layout)


class TestEntropy:
    def test_standard_normal(self):
        b = belief_from_dense([[1.0]])
        np.testing.assert_allclose(entropy(b), 1.4189385332046727, rtol=1e-14)

    def test_two_independents(self):
        b = belief_from_dense(np.eye(2))
        np.testing.assert_allclose(entropy(b), 2.8378770664093453, rtol=1e-14)

    def test_correlated_2x2(self):
        b = belief_from_dense([[2.0, 1.0], [1.0, 2.0]])
        # 0.5 * (2 ln(2 pi e) - ln 3)
        np.testing.assert_allclose(entropy(b), 2.2885709220752904, rtol=1e-13)


class TestObjective:
    def test_rank1_on_identity(self):
        b = belief_from_dense(np.eye(2))
        a = CandidateAction(0, row_block_from_dense([[1.0, 0.0]]))
        np.testing.assert_allclose(objective(b, a), -2.4913034761293727, rtol=1e-13)

    def test_noop_action_is_negated_prior_entropy(self):
        b = belief_from_dense(np.eye(2))
        a = CandidateAction(0, SparseRowBlock.empty(2))
        assert objective(b, a) == -entropy(b)
        np.testing.assert_allclose(objective(b, a), -2.8378770664093453, rtol=1e-14)

    def test_augmenting_action(self):
        b = belief_from_dense([[1.0]])
        a = CandidateAction(
            0,
            row_block_from_dense([[0.0, 1.0]], n_cols=2),
            n_new_vars=1,
            predicted_new_means=np.array([0.5]),
        )
        np.testing.assert_allclose(objective(b, a), -2.8378770664093453, rtol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            dense = random_sparse_spd(rng, n)
            b = belief_from_dense(dense)
            n_new = int(rng.integers(0, 3))
            u = random_update(rng, n, n_new, extra_rows=int(rng.integers(0, 4)))
            a = CandidateAction(0, u, n_new_vars=n_new, predicted_new_means=np.zeros(n_new))
            aug = np.zeros((n + n_new, n + n_new))
            aug[:n, :n] = dense
            target = aug + u.to_dense().T @ u.to_dense()
            expected = 0.5 * (dense_logdet(target) - (n + n_new) * LN_2PI_E)
            np.testing.assert_allclose(objective(b, a), expected, rtol=1e-8, atol=1e-8)

    def test_rank_deficient_augmentation_propagates(self):
        b = belief_from_dense([[1.0]])
        a = CandidateAction(3, row_block_from_dense([[1.0, 0.0]], n_cols=2), n_new_vars=1,
                            predicted_new_means=np.array([0.0]))
        with pytest.raises(RankDeficientAugmentation):
            objective(b, a)
        with pytest.raises(EvaluationError) as excinfo:
            evaluate_candidates(b, [a])
        assert excinfo.value.candidate_id == 3


class TestPropagate:
    def test_noop_keeps_belief(self):
        b = belief_from_dense(np.eye(3), mean=[1.0, 2.0, 3.0])
        out = propagate(b, CandidateAction(0, SparseRowBlock.empty(3)))
        np.testing.assert_array_equal(out.mean, b.mean)
        np.testing.assert_array_equal(out.root.to_dense(), b.root.to_dense())
        assert out.layout.blocks == b.layout.blocks

    def test_augmentation_appends_mean_and_block(self):
        b = belief_from_dense([[1.0]], mean=[0.25])
        a = CandidateAction(
            0,
            row_block_from_dense([[0.0, 1.0]], n_cols=2),
            n_new_vars=1,
            predicted_new_means=np.array([0.5]),
        )
        out = propagate(b, a)
        np.testing.assert_array_equal(out.mean, [0.25, 0.5])
        np.testing.assert_allclose(out.root.to_dense(), np.eye(2))
        assert out.dim == 2 and len(out.layout.blocks) == 2

    def test_toy_paths_grow_by_two_blocks(self):
        belief, candidates, _ = build_toy_full_slam()
        for cand in candidates:
            out = propagate(belief, cand)
            assert out.dim == belief.dim + 2
            assert len(out.layout.blocks) == len(belief.layout.blocks) + 2

    def test_two_step_stacking_matches_sequential(self):
        # stacking both steps into one collective update must equal
        # propagating the steps one at a time
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            b = belief_from_dense(random_sparse_spd(rng, n))
            u1 = random_update(rng, n, 1, extra_rows=2)
            a1 = CandidateAction(0, u1, n_new_vars=1, predicted_new_means=np.zeros(1))
            u2 = random_update(rng, n + 1, 1, extra_rows=2)
            a2 = CandidateAction(1, u2, n_new_vars=1, predicted_new_means=np.zeros(1))

            sequential = propagate(propagate(b, a1), a2)

            stacked_rows = np.zeros((u1.n_rows + u2.n_rows, n + 2))
            stacked_rows[: u1.n_rows, : n + 1] = u1.to_dense()
            stacked_rows[u1.n_rows:, :] = u2.to_dense()
            stacked = CandidateAction(
                2,
                row_block_from_dense(stacked_rows, n_cols=n + 2),
                n_new_vars=2,
                predicted_new_means=np.zeros(2),
            )
            together = propagate(b, stacked)
            lhs = 2.0 * np.sum(np.log(sequential.root.diag))
            rhs = 2.0 * np.sum(np.log(together.root.diag))
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))

    def test_posterior_entropy_never_exceeds_prior(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 15))
            b = belief_from_dense(random_sparse_spd(rng, n))
            u = random_update(rng, n, 0, extra_rows=int(rng.integers(1, 5)))
            a = CandidateAction(0, u)
            post = propagate(b, a)
            assert entropy(post) <= entropy(b) + 1e-9


class TestNnzReport:
    def test_identity(self):
        b = belief_from_dense(np.eye(5))
        assert nnz_report(b) == (5, 5)

    def test_random_factor_matches_dense_product(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            b = belief_from_dense(random_sparse_spd(rng, n, density=0.25))
            _, info_nnz = nnz_report(b)
            dense_info = b.root.to_dense().T @ b.root.to_dense()
            dense_count = int(np.count_nonzero(np.triu(dense_info)))
            assert info_nnz == dense_count

    def test_pattern_count_equals_formed_gram(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            root = belief_from_dense(random_sparse_spd(rng, n, density=0.2)).root
            rows = random_update(rng, n, 0, int(rng.integers(0, 8)), density=0.3)
            for block in (root, rows):
                assert block.gram_nnz() == block.gram().nnz

    def test_root_nnz_counts_stored_entries(self):
        r = triangular_from_rows(
            np.array([1.0, 1.0, 1.0]),
            (np.array([2]), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
            (np.array([0.5]), np.empty(0), np.empty(0)),
        )
        layout = VariableLayout.from_sizes([1, 1, 1])
        b = GaussianBelief(np.zeros(3), r, layout)
        root_nnz, info_nnz = nnz_report(b)
        assert root_nnz == 4
        assert info_nnz == 4  # (0,0) (0,2) (1,1) (2,2)


class TestSerialization:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(19)
        belief, _, _ = build_toy_full_slam(rng)
        back = belief_from_json(belief_to_json(belief))
        np.testing.assert_array_equal(back.mean, belief.mean)
        np.testing.assert_array_equal(back.root.diag, belief.root.diag)
        np.testing.assert_array_equal(back.root.to_dense(), belief.root.to_dense())
        assert back.layout.blocks == belief.layout.blocks
        assert entropy(back) == entropy(belief)

    @pytest.mark.parametrize(
        "root_mm",
        ["%%MatrixMarket matrix coordinate real general\n", "%%MatrixMarket matrix coordinate real\n6 6 0\n"],
        ids=["no-size-line", "four-token-header"],
    )
    def test_short_matrix_market_text_is_a_value_error(self, root_mm):
        belief, _, _ = build_toy_full_slam(np.random.default_rng(19))
        doc = json.loads(belief_to_json(belief))
        doc["root_mm"] = root_mm
        with pytest.raises(ValueError, match="MatrixMarket"):
            belief_from_json(json.dumps(doc))

    def test_oversized_factor_size_line_is_a_value_error(self, monkeypatch):
        from beliefplan import mmio

        def no_allocation(*args):
            raise AssertionError("row storage built from an unchecked size line")

        belief, _, _ = build_toy_full_slam(np.random.default_rng(19))
        doc = json.loads(belief_to_json(belief))
        doc["root_mm"] = "%%MatrixMarket matrix coordinate real general\n1000000000000 1000000000000 0\n"
        monkeypatch.setattr(mmio.SparseRowBlock, "from_coo", no_allocation)
        with pytest.raises(ValueError, match="factor needs at least"):
            belief_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["layout"][1].update(size=3.9),
            lambda doc: doc["layout"][1].update(size="3"),
            lambda doc: doc["layout"][1].update(id=True),
            lambda doc: doc["layout"][1].update(id=1.0),
            lambda doc: doc["layout"][1].update(offset=0),
            lambda doc: doc["layout"][1].pop("kind"),
            lambda doc: doc.update(layout={}),
            lambda doc: doc.update(extra=1),
            lambda doc: doc.pop("mean"),
            lambda doc: doc["mean"].__setitem__(0, "0.5"),
            lambda doc: doc["mean"].__setitem__(0, False),
            KeyTwice("layout", []),
            KeyTwice("size", 3),
        ],
        ids=["float-size", "string-size", "bool-id", "float-id", "unknown-block-key", "missing-block-key",
             "layout-not-a-list", "unknown-key", "missing-key", "string-mean", "bool-mean", "dup-key",
             "dup-block-key"],
    )
    def test_malformed_belief_is_an_invalid_belief(self, mutate):
        belief, _, _ = build_toy_full_slam(np.random.default_rng(19))
        doc = json.loads(belief_to_json(belief))
        with pytest.raises(InvalidBelief):
            belief_from_json(malformed_text(mutate, doc))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_belief_fails_typed(self, data):
        belief, _, _ = build_toy_full_slam(np.random.default_rng(19))
        doc = mutate_json(data, json.loads(belief_to_json(belief)))
        try:
            belief_from_json(json.dumps(doc))
        except (BeliefPlanError, ValueError):
            pass


def loop_block_of_scalar(layout):
    """Block id of every scalar, filled block by block."""
    out = np.empty(layout.dim, dtype=np.int64)
    for blk in layout.blocks:
        out[blk.offset:blk.offset + blk.size] = blk.block_id
    return out


def loop_scalar_indices(layout, block_ids):
    """Sorted scalars of the given blocks, looked up one block at a time."""
    parts = [layout.block(bid).scalar_indices for bid in block_ids]
    return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)


class TestLayout:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_array_lookups_equal_the_block_loops(self, data):
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=40), label="sizes")
        ids = data.draw(st.lists(st.integers(-50, 10**6), min_size=len(sizes), max_size=len(sizes), unique=True),
                        label="ids")
        layout = VariableLayout.from_sizes(sizes, ids=ids)
        np.testing.assert_array_equal(layout.block_of_scalar(), loop_block_of_scalar(layout))
        chosen = data.draw(st.lists(st.sampled_from(ids), max_size=60), label="chosen")
        got = layout.scalar_indices(chosen)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, loop_scalar_indices(layout, chosen))
        missing = data.draw(st.integers(-60, 10**6).filter(lambda b: b not in ids), label="missing")
        with pytest.raises(KeyError, match=f"unknown block id {missing}"):
            layout.scalar_indices(chosen + [missing])

    def test_block_lookup_and_scalars(self):
        layout = VariableLayout.from_sizes([3, 3, 2], kind="pose")
        assert layout.dim == 8
        np.testing.assert_array_equal(layout.scalar_indices([1]), [3, 4, 5])
        np.testing.assert_array_equal(layout.block_of_scalar(), [0, 0, 0, 1, 1, 1, 2, 2])

    def test_lookup_by_id_not_position(self):
        layout = VariableLayout.from_sizes([2, 1, 3], ids=[7, 3, 5])
        assert layout.block(5).offset == 3
        np.testing.assert_array_equal(layout.scalar_indices([5, 7]), [0, 1, 3, 4, 5])
        with pytest.raises(KeyError, match="unknown block id 4"):
            layout.scalar_indices([4])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            VariableLayout.from_sizes([1, 1], ids=[0, 0])

    def test_extension_appends(self):
        layout = VariableLayout.from_sizes([3], kind="pose")
        out = layout.extended([("pose", 3), ("landmark", 2)])
        assert out.dim == 8
        assert [b.kind for b in out.blocks] == ["pose", "pose", "landmark"]
