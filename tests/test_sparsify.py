"""Sparsification pipeline: involvement detection, entropy preservation,
zero-offset guarantee for uninvolved blocks, and structural behavior."""

import tracemalloc

import numpy as np
import pytest

from beliefplan.belief import (
    CandidateAction,
    GaussianBelief,
    VariableLayout,
    entropy,
    objective,
)
from beliefplan.errors import InvalidSpec, LayoutMismatch
from beliefplan.sparse import SparseRowBlock, cholesky, logdet_triangular
from beliefplan.sparsify import (
    InvolvementMask,
    SparsificationSpec,
    detect_involvement,
    resolve_blocks,
    sparsify_belief,
)

from helpers import (
    build_toy_full_slam,
    pair_row,
    random_sparse_spd,
    row_block_from_dense,
    symbolic_cholesky_pattern,
    symmetric_from_coo,
    symmetric_from_dense,
    triangular_from_dense,
    upper_pattern,
)


def scalar_belief(info, rng=None):
    root = cholesky(symmetric_from_dense(info))
    layout = VariableLayout.from_sizes([1] * root.dim)
    return GaussianBelief(np.zeros(root.dim), root, layout)


class TestDetectInvolvement:
    def test_zero_columns_are_uninvolved(self):
        layout = VariableLayout.from_sizes([1] * 5)
        u = row_block_from_dense(
            [[0.0, 0.0, 0.0, 1.2, 0.3], [0.0, 0.0, 0.0, 0.0, 2.0]]
        )
        mask = detect_involvement(layout, [CandidateAction(0, u)])
        assert mask.never_involved(layout) == {0, 1, 2}
        assert mask.involved_blocks == {3, 4}

    def test_toy_two_path_involvement(self):
        belief, candidates, names = build_toy_full_slam()
        mask = detect_involvement(belief.layout, candidates)
        never = {names[b] for b in mask.never_involved(belief.layout)}
        assert never == {"x1", "x2", "l2"}
        per = [{names[b] for b in s} for s in mask.per_candidate]
        assert per == [{"x3", "l1"}, {"x3", "l3"}]

    def test_all_zero_jacobians(self):
        layout = VariableLayout.from_sizes([1] * 4)
        cands = [CandidateAction(0, row_block_from_dense(np.zeros((2, 4))))]
        mask = detect_involvement(layout, cands)
        assert mask.never_involved(layout) == {0, 1, 2, 3}

    def test_augmented_columns_ignored(self):
        layout = VariableLayout.from_sizes([1, 1])
        u = row_block_from_dense([[0.0, 0.0, 1.0]], n_cols=3)
        mask = detect_involvement(
            layout, [CandidateAction(0, u, n_new_vars=1, predicted_new_means=np.zeros(1))]
        )
        assert mask.involved_blocks == frozenset()

    def test_layout_mismatch(self):
        layout = VariableLayout.from_sizes([1] * 3)
        with pytest.raises(LayoutMismatch):
            detect_involvement(layout, [CandidateAction(0, SparseRowBlock.empty(5))])


class TestSparsifyBelief:
    def test_hand_2x2_leading_block(self):
        # zeroing the first row's off-diagonal of chol([[2,1],[1,2]])
        # squares to diag(2, 1.5) and keeps the determinant at 3
        b = scalar_belief([[2.0, 1.0], [1.0, 2.0]])
        out = sparsify_belief(b, SparsificationSpec.custom([0]))
        info = out.root.to_dense().T @ out.root.to_dense()
        np.testing.assert_allclose(info, np.diag([2.0, 1.5]), rtol=1e-12)
        np.testing.assert_allclose(logdet_triangular(out.root), np.log(3.0), rtol=1e-12)

    def test_mode_none_returns_belief_unchanged(self):
        b = scalar_belief([[2.0, 1.0], [1.0, 2.0]])
        assert sparsify_belief(b, SparsificationSpec.none()) is b

    def test_factor_graph_pipeline_structure(self):
        # six-variable belief [x1, l1, l2, x2, x3, l3] with factors
        # x1; (x1,l1) (x1,l2) (x1,x2) (x2,l1) (x2,l2) (x2,x3) (x3,l3),
        # sparsifying {x1, l2, x2} = scalars {0, 2, 3}
        rng = np.random.default_rng(23)
        n = 6
        rows = [pair_row(n, 0, 0, 1.1, 0.0)]
        for i, j in [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 4), (4, 5)]:
            rows.append(pair_row(n, i, j, 0.5 + rng.random(), -(0.5 + rng.random())))
        dense_rows = np.vstack(rows)
        info = symmetric_from_dense(dense_rows.T @ dense_rows)
        b = scalar_belief(info.to_dense())
        s_scalars = [0, 2, 3]

        # expected permuted fill from set-arithmetic elimination on the
        # reordered pattern [0, 2, 3, 1, 4, 5]
        order = [0, 2, 3, 1, 4, 5]
        pos = {v: k for k, v in enumerate(order)}
        adjacency = [set() for _ in range(n)]
        for i, j in zip(info.upper.row_ids, info.upper.indices):
            if i != j:
                a, c = pos[int(i)], pos[int(j)]
                adjacency[min(a, c)].add(max(a, c))
        fill = symbolic_cholesky_pattern(adjacency, n)
        assert fill[3] == {4}  # marginal link between l1 and x3 appears

        out = sparsify_belief(b, SparsificationSpec.custom(s_scalars))
        # factor keeps only the surviving conditionals: l1->x3 and x3->l3
        assert upper_pattern(out.root) == {(i, i) for i in range(n)} | {(1, 4), (4, 5)}
        info_s = out.root.gram()
        pattern_s = set(zip(info_s.upper.row_ids.tolist(), info_s.upper.indices.tolist()))
        assert pattern_s == {(i, i) for i in range(n)} | {(1, 4), (4, 5)}
        # (l1, x3) is a new nonzero introduced by the sparsification
        assert (1, 4) not in set(zip(info.upper.row_ids.tolist(), info.upper.indices.tolist()))
        # determinant preserved
        np.testing.assert_allclose(
            logdet_triangular(out.root), logdet_triangular(b.root), rtol=1e-10
        )

    def test_entropy_preserved_any_selection(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 30))
            b = scalar_belief(random_sparse_spd(rng, n))
            k = int(rng.integers(1, n + 1))
            blocks = rng.choice(n, size=k, replace=False).tolist()
            out = sparsify_belief(b, SparsificationSpec.custom(blocks))
            assert abs(entropy(out) - entropy(b)) <= 1e-9

    def test_uninvolved_mode_needs_mask(self):
        b = scalar_belief(np.eye(3))
        with pytest.raises(InvalidSpec):
            sparsify_belief(b, SparsificationSpec.uninvolved(), mask=None)

    def test_custom_unknown_blocks_rejected(self):
        b = scalar_belief(np.eye(3))
        with pytest.raises(InvalidSpec):
            sparsify_belief(b, SparsificationSpec.custom([9]))

    def test_idempotent(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(3, 15))
            b = scalar_belief(random_sparse_spd(rng, n))
            blocks = rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()
            spec = SparsificationSpec.custom(blocks)
            once = sparsify_belief(b, spec)
            twice = sparsify_belief(once, spec)
            np.testing.assert_allclose(
                twice.root.to_dense(), once.root.to_dense(), rtol=1e-9, atol=1e-10
            )

    def test_sparsified_rows_become_diagonal(self):
        rng = np.random.default_rng(43)
        n = 12
        b = scalar_belief(random_sparse_spd(rng, n))
        blocks = [2, 5, 7, 11]
        out = sparsify_belief(b, SparsificationSpec.custom(blocks))
        # selected rows keep only their diagonal entry, so in the
        # information matrix the selected scalars decouple from one another
        for s in blocks:
            assert out.root.row_cols[s].size == 0
        info_s = out.root.to_dense().T @ out.root.to_dense()
        for s in blocks:
            for s2 in blocks:
                if s2 != s:
                    assert abs(info_s[s, s2]) < 1e-12

    def test_zero_offset_for_uninvolved_blocks(self):
        # sparsifying never-involved blocks leaves every candidate's
        # objective value untouched
        rng = np.random.default_rng(53)
        for _ in range(60):
            n = int(rng.integers(4, 16))
            b = scalar_belief(random_sparse_spd(rng, n))
            n_cand = int(rng.integers(1, 5))
            candidates = []
            for cid in range(n_cand):
                rows = int(rng.integers(1, 4))
                u = np.zeros((rows, n))
                touched = rng.choice(n, size=int(rng.integers(1, max(2, n // 3))), replace=False)
                for r in range(rows):
                    for t in touched:
                        if rng.random() < 0.7:
                            u[r, t] = rng.normal()
                candidates.append(CandidateAction(cid, row_block_from_dense(u, n_cols=n)))
            mask = detect_involvement(b.layout, candidates)
            if not mask.never_involved(b.layout):
                continue
            b_s = sparsify_belief(b, SparsificationSpec.uninvolved(), mask)
            for cand in candidates:
                assert abs(objective(b, cand) - objective(b_s, cand)) <= 1e-6


class TestMemory:
    def test_factor_gram_and_sparsify_allocate_no_dense_square(self):
        # banded with some fill: a dense n x n float array would take 288 MB
        n = 6000
        idx = np.arange(n)
        rows = np.concatenate([idx, idx[:-1], idx[:-5]])
        cols = np.concatenate([idx, idx[:-1] + 1, idx[:-5] + 5])
        vals = np.concatenate([np.full(n, 4.0), np.full(n - 1, -1.0), np.full(n - 5, 0.5)])
        belief = GaussianBelief(
            np.zeros(n), cholesky(symmetric_from_coo(n, rows, cols, vals)), VariableLayout.from_sizes([1] * n)
        )
        tracemalloc.start()
        try:
            cholesky(belief.root.gram())
            sparsify_belief(belief, SparsificationSpec.custom(range(n // 3, n // 2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 10


class TestFastFullSparsify:
    def test_diagonal_root_is_fixed_point(self):
        b = scalar_belief(np.diag([1.0, 4.0, 9.0]))
        out = sparsify_belief(b, SparsificationSpec.full())
        np.testing.assert_array_equal(out.root.to_dense(), b.root.to_dense())

    def test_drops_offdiagonals_preserving_logdet(self):
        r = triangular_from_dense(np.array([[1.0, 0.5], [0.0, 1.0]]))
        layout = VariableLayout.from_sizes([1, 1])
        b = GaussianBelief(np.zeros(2), r, layout)
        out = sparsify_belief(b, SparsificationSpec.full())
        np.testing.assert_array_equal(out.root.to_dense(), np.eye(2))
        assert logdet_triangular(out.root) == logdet_triangular(b.root) == 0.0


class TestSpecResolution:
    def test_modes(self):
        layout = VariableLayout.from_sizes([1, 1, 1])
        mask = InvolvementMask(frozenset({1}), (frozenset({1}),))
        assert resolve_blocks(SparsificationSpec.none(), layout, mask) == frozenset()
        assert resolve_blocks(SparsificationSpec.full(), layout, mask) == {0, 1, 2}
        assert resolve_blocks(SparsificationSpec.uninvolved(), layout, mask) == {0, 2}
        assert resolve_blocks(SparsificationSpec.custom([1]), layout, mask) == {1}

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SparsificationSpec("everything")
