"""Decision-problem operations and their ordering/loss/offset laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplan.belief import LN_2PI_E, CandidateAction
from beliefplan.decision import (
    CONSISTENCY_TOLERANCE,
    DecisionProblem,
    Solution,
    action_consistent,
    balanced_offset_upper,
    offset,
    rank_correlation,
    simplification_loss,
    solve,
)
from beliefplan.errors import IndexOutOfRange, LengthMismatch

from helpers import build_toy_full_slam, dense_logdet, rankdata_correlation

value_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=8
)


class TestSolve:
    def test_argmax_selection(self):
        sol = Solution(1, np.array([-2.0, -1.5, -3.0]))
        assert sol.best_index == 1
        with pytest.raises(ValueError):
            Solution(0, np.array([-2.0, -1.5, -3.0]))

    def test_single_candidate(self):
        belief, candidates, _ = build_toy_full_slam()
        sol = solve(DecisionProblem(belief, candidates[:1]))
        assert sol.best_index == 0

    def test_toy_two_paths_match_dense_oracle(self):
        belief, candidates, _ = build_toy_full_slam()
        sol = solve(DecisionProblem(belief, candidates))

        def oracle(cand: CandidateAction) -> float:
            n = belief.dim + cand.n_new_vars
            aug = np.zeros((n, n))
            aug[: belief.dim, : belief.dim] = belief.root.to_dense().T @ belief.root.to_dense()
            u = cand.jacobian.to_dense()
            return 0.5 * (dense_logdet(aug + u.T @ u) - n * LN_2PI_E)

        oracle_values = np.array([oracle(c) for c in candidates])
        np.testing.assert_allclose(sol.values, oracle_values, rtol=1e-9)
        assert sol.best_index == int(np.argmax(oracle_values))

    def test_repeated_solves_are_bit_identical(self):
        belief, candidates, _ = build_toy_full_slam()
        first = solve(DecisionProblem(belief, candidates))
        second = solve(DecisionProblem(belief, candidates))
        np.testing.assert_array_equal(first.values, second.values)
        assert first.best_index == second.best_index

    def test_tie_breaks_to_lowest_index(self):
        assert Solution(0, np.array([1.0, 1.0])).best_index == 0


class TestSimplificationLoss:
    def test_suboptimal_pick(self):
        assert simplification_loss([5.0, 3.0], 1) == 2.0

    def test_agreement_is_zero(self):
        assert simplification_loss([5.0, 3.0], 0) == 0.0

    def test_index_checked(self):
        with pytest.raises(IndexOutOfRange):
            simplification_loss([1.0, 2.0], 2)

    def test_never_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            values = rng.normal(size=int(rng.integers(1, 9)))
            pick = int(rng.integers(0, values.size))
            assert simplification_loss(values, pick) >= 0.0


class TestActionConsistency:
    def test_monotone_map(self):
        assert action_consistent([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])

    def test_swapped_pair(self):
        assert not action_consistent([1.0, 2.0], [2.0, 1.0])

    def test_ties_must_cooccur(self):
        assert action_consistent([1.0, 1.0, 2.0], [3.0, 3.0, 7.0])
        assert not action_consistent([1.0, 1.0, 2.0], [3.0, 4.0, 7.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            action_consistent([1.0], [1.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(value_vectors)
    def test_reflexive(self, v):
        assert action_consistent(v, v, tol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(value_vectors, value_vectors)
    def test_symmetric(self, v1, v2):
        if len(v1) != len(v2):
            v2 = (v2 * len(v1))[: len(v1)]
        assert action_consistent(v1, v2, tol=0.0) == action_consistent(v2, v1, tol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_transitive(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        vec = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=n, max_size=n)
        v1, v2, v3 = data.draw(vec), data.draw(vec), data.draw(vec)
        # ties within a positive tolerance are not transitive; exact order is
        if action_consistent(v1, v2, tol=0.0) and action_consistent(v2, v3, tol=0.0):
            assert action_consistent(v1, v3, tol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(value_vectors)
    def test_strictly_increasing_map_preserves_order_and_argmax(self, v):
        v = np.asarray(v)
        # scaling by a power of two is exact, so the map is strictly
        # increasing even at float resolution
        mapped = 4.0 * v
        assert action_consistent(v, mapped, tol=0.0)
        assert int(np.argmax(v)) == int(np.argmax(mapped))

    def test_consistency_implies_zero_loss(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            v1 = rng.normal(size=int(rng.integers(2, 7)))
            v2 = 2.5 * v1 - 1.0  # monotone image, hence consistent
            assert action_consistent(v1, v2, tol=0.0)
            assert simplification_loss(v1, int(np.argmax(v2))) == 0.0


class TestOffsets:
    def test_identity_balance(self):
        assert offset([1.0, 2.0, 3.0], [1.5, 1.5, 4.0]) == 1.0

    def test_identical_vectors(self):
        assert offset([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert balanced_offset_upper([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_shift_balance(self):
        got = offset([1.0, 2.0, 3.0], [1.5, 1.5, 4.0], balance=lambda v: v - 0.25)
        np.testing.assert_allclose(got, 0.75)

    def test_constant_shift_optimum(self):
        np.testing.assert_allclose(balanced_offset_upper([1.0, 2.0, 3.0], [1.5, 1.5, 4.0]), 0.75)

    def test_upper_bound_can_be_loose_for_consistent_pairs(self):
        # [1,2] vs [5,9] is action consistent (true balanced offset 0),
        # yet the constant-shift bound is the midrange of d = (-4, -7)
        got = balanced_offset_upper([1.0, 2.0], [5.0, 9.0])
        np.testing.assert_allclose(got, 1.5)
        assert got >= 0.0
        assert action_consistent([1.0, 2.0], [5.0, 9.0])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_constant_shift_is_chebyshev_optimal(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        vec = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=n, max_size=n)
        v1 = np.asarray(data.draw(vec))
        v2 = np.asarray(data.draw(vec))
        best = balanced_offset_upper(v1, v2)
        for shift in data.draw(
            st.lists(st.floats(min_value=-120, max_value=120, allow_nan=False), min_size=1, max_size=5)
        ):
            assert best <= offset(v1, v2, balance=lambda v, s=shift: v + s) + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_loss_within_twice_offset_upper(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        vec = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=n, max_size=n)
        v1 = np.asarray(data.draw(vec))
        v2 = np.asarray(data.draw(vec))
        loss = simplification_loss(v1, int(np.argmax(v2)))
        assert 0.0 <= loss <= 2.0 * balanced_offset_upper(v1, v2) + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_triangle_inequality(self, data):
        n = data.draw(st.integers(min_value=2, max_value=6))
        vec = st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=n, max_size=n)
        a = np.asarray(data.draw(vec))
        b = np.asarray(data.draw(vec))
        c = np.asarray(data.draw(vec))
        assert (
            balanced_offset_upper(a, b) + balanced_offset_upper(b, c)
            >= balanced_offset_upper(a, c) - 1e-9
        )


class TestRankCorrelation:
    def test_same_ranking(self):
        assert rank_correlation([1.0, 2.0, 3.0], [4.0, 9.0, 16.0]) == 1.0

    def test_reversed(self):
        assert rank_correlation([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_degenerate_inputs(self):
        assert rank_correlation([1.0, 1.0], [2.0, 2.0]) == 1.0
        assert rank_correlation([1.0, 1.0], [1.0, 2.0]) == 0.0

    def test_average_ranks_on_ties(self):
        from scipy.stats import spearmanr

        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            v1 = rng.integers(0, 4, size=n).astype(float)
            v2 = rng.integers(0, 4, size=n).astype(float)
            if np.all(v1 == v1[0]) or np.all(v2 == v2[0]):
                continue
            expected = spearmanr(v1, v2).statistic
            np.testing.assert_allclose(rank_correlation(v1, v2), expected, rtol=1e-12)

    def test_needs_two_candidates(self):
        with pytest.raises(LengthMismatch):
            rank_correlation([1.0], [1.0])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_without_tolerance_equals_average_ranks_bit_for_bit(self, data):
        n = data.draw(st.integers(2, 10))
        tie_prone = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-1e3, 1e3))
        v1, v2 = (data.draw(st.lists(tie_prone, min_size=n, max_size=n)) for _ in range(2))
        got = np.float64(rank_correlation(v1, v2, tol=0.0))
        assert got.view(np.int64) == np.float64(rankdata_correlation(v1, v2)).view(np.int64)

    def test_ties_within_the_tolerance_rank_together(self):
        # the first two candidates swap by one part in 10^12: a tie at the
        # default tolerance, 1e-9, and a swap in the exact order
        assert CONSISTENCY_TOLERANCE == 1e-9
        v1 = [1.0, 1.0 + 1e-12, 3.0]
        v2 = [1.0 + 1e-12, 1.0, 3.0]
        assert rank_correlation(v1, v2, tol=0.0) == 0.5
        assert not action_consistent(v1, v2, tol=0.0)
        assert rank_correlation(v1, v2) == rank_correlation(v1, v2, 1e-9) == 1.0
        assert action_consistent(v1, v2) and action_consistent(v1, v2, 1e-9)
        # every candidate tied in one vector only
        assert rank_correlation([1.0, 1.0 + 1e-12], [1.0, 2.0]) == 0.0
        assert rank_correlation([1.0, 1.0 + 1e-12], [2.0, 2.0 - 1e-12]) == 1.0
