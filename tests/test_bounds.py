"""Bound families: matrix-tree counts, topological and determinant objective
bounds, the rank-1 offset bound, and loss-bound assembly."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefplan.belief import LN_2PI_E, CandidateAction, GaussianBelief, VariableLayout, objective
from beliefplan.bounds import (
    PoseGraph,
    TopologicalNoiseConfig,
    _inverse_block,
    determinant_bounds,
    lemma_logdet_increment,
    post_solution_loss_bound,
    rank1_offset_bound,
    spanning_tree_count,
    topological_bounds,
)
from beliefplan.errors import (
    AlphaTooSmall,
    DisconnectedGraph,
    InconsistentBounds,
    NotRankOne,
    RankDeficientAugmentation,
)
from beliefplan.sparse import SparseRowBlock, cholesky
from beliefplan.sparsify import SparsificationSpec, detect_involvement, sparsify_belief

from helpers import (
    dense_inverse_block,
    loop_is_connected,
    loop_laplacian,
    random_sparse_spd,
    random_update,
    row_block_from_dense,
    symmetric_from_coo,
    symmetric_from_dense,
)


def count_spanning_trees_brute_force(n_nodes, edges):
    """Enumerate (n-1)-edge subsets that connect all nodes."""
    if n_nodes == 1:
        return 1
    count = 0
    for subset in itertools.combinations(range(len(edges)), n_nodes - 1):
        parent = list(range(n_nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merged = 0
        for k in subset:
            i, j = edges[k]
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
                merged += 1
        if merged == n_nodes - 1:
            count += 1
    return count


def random_connected_graph(rng, n_nodes):
    edges = {(i - 1, i) for i in range(1, n_nodes)}  # spanning path
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < 0.4:
                edges.add((i, j))
    return PoseGraph(n_nodes, tuple(sorted(edges)))


def scalar_belief(info):
    root = cholesky(symmetric_from_dense(info))
    return GaussianBelief(np.zeros(root.dim), root, VariableLayout.from_sizes([1] * root.dim))


class TestSpanningTrees:
    def test_triangle(self):
        g = PoseGraph(3, ((0, 1), (1, 2), (0, 2)))
        np.testing.assert_allclose(spanning_tree_count(g), math.log(3.0), rtol=1e-12)
        assert count_spanning_trees_brute_force(3, g.edges) == 3

    def test_path_is_single_tree(self):
        g = PoseGraph(3, ((0, 1), (1, 2)))
        np.testing.assert_allclose(spanning_tree_count(g), 0.0, atol=1e-12)

    def test_complete_k4(self):
        g = PoseGraph(4, tuple(itertools.combinations(range(4), 2)))
        np.testing.assert_allclose(spanning_tree_count(g), math.log(16.0), rtol=1e-12)
        assert count_spanning_trees_brute_force(4, g.edges) == 16

    def test_matches_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            g = random_connected_graph(rng, n)
            brute = count_spanning_trees_brute_force(n, g.edges)
            np.testing.assert_allclose(spanning_tree_count(g), math.log(brute), rtol=1e-9)

    def test_disconnected_rejected(self):
        g = PoseGraph(4, ((0, 1), (2, 3)))
        with pytest.raises(DisconnectedGraph):
            spanning_tree_count(g)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            PoseGraph(2, ((0, 0),))


@st.composite
def multigraphs(draw, max_nodes=8):
    """(n_nodes, edges): either orientation, parallel edges allowed."""
    n = draw(st.integers(1, max_nodes))
    if n == 1:
        return n, []
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    return n, draw(st.lists(edge, max_size=20))


def dense_log_tree_count(n_nodes, edges):
    """ln t(G) from a dense ``slogdet`` of the edge-by-edge reduced Laplacian."""
    sign, logdet = np.linalg.slogdet(loop_laplacian(n_nodes, edges)[1:, 1:])
    assert sign > 0 or n_nodes == 1
    return float(logdet)


def assert_tree_count(g, n_nodes, edges):
    """``g`` counts the oracle's trees within 1e-12 relative, or raises
    ``DisconnectedGraph`` (on every access) exactly where the graph is
    disconnected."""
    if not loop_is_connected(n_nodes, edges):
        for _ in range(2):  # a failed count is never cached
            with pytest.raises(DisconnectedGraph):
                spanning_tree_count(g)
        return None
    expected = dense_log_tree_count(n_nodes, edges)
    assert abs(spanning_tree_count(g) - expected) <= 1e-12 * max(1.0, abs(expected))
    return expected


@st.composite
def extensions(draw):
    """(base nodes, base edges, [(nodes, new edges), ...]): a base multigraph
    and one or two extensions of it, each new edge drawn so that parallel
    edges, edges to node 0, edges among old nodes only, isolated new nodes,
    components of new nodes only and edges that connect a disconnected base
    all occur."""
    n0, base_edges = draw(multigraphs(max_nodes=7))
    steps, n = [], n0
    for _ in range(draw(st.integers(1, 2))):
        n += draw(st.integers(0, 3))
        node = st.integers(0, n - 1)
        pool = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=6))
        steps.append((n, pool + draw(st.lists(st.sampled_from(pool), max_size=2)) if pool else pool))
    return n0, base_edges, steps


class TestPoseGraphKernels:
    """``PoseGraph`` against the edge-by-edge oracles."""

    @settings(max_examples=150, deadline=None)
    @given(multigraphs())
    def test_array_kernels_match_loop_oracles(self, graph):
        n, edges = graph
        g = PoseGraph(n, tuple(edges))
        lap = loop_laplacian(n, edges)
        assert g.edges.tolist() == [[min(i, j), max(i, j)] for i, j in edges]
        assert not g.edges.flags.writeable
        np.testing.assert_array_equal(g.reduced_degrees, lap.diagonal()[1:])
        assert not g.reduced_degrees.flags.writeable

    @settings(max_examples=150, deadline=None)
    @given(multigraphs())
    def test_cached_tree_count_is_a_fresh_dense_slogdet(self, graph):
        n, edges = graph
        g = PoseGraph(n, tuple(edges))
        cfg = TopologicalNoiseConfig(mu=0.5, psi=2.0)
        expected = assert_tree_count(g, n, edges)
        if expected is None:
            with pytest.raises(DisconnectedGraph):
                topological_bounds(g, cfg)
            return
        assert spanning_tree_count(g) == spanning_tree_count(g)
        lb, ub = topological_bounds(g, cfg)
        assert lb == 3.0 * spanning_tree_count(g) + 0.5

    @settings(max_examples=300, deadline=None)
    @given(extensions())
    def test_extended_tree_count_is_the_dense_slogdet(self, case):
        n0, base_edges, steps = case
        base = PoseGraph(n0, tuple(base_edges))
        g, edges = base, list(base_edges)
        for n, new_edges in steps:
            g = g.extended(n, new_edges)
            edges += new_edges
            assert g.base is base
            np.testing.assert_array_equal(g.reduced_degrees, loop_laplacian(n, edges).diagonal()[1:])
            assert_tree_count(g, n, edges)
        assert_tree_count(base, n0, base_edges)

    @pytest.mark.parametrize(
        "n0, base_edges, n, new_edges",
        [
            (3, [(0, 1), (1, 2)], 3, [(1, 2), (1, 2), (0, 2)]),  # parallel, to node 0, m = 0
            (3, [(0, 1), (1, 2)], 5, [(2, 3), (2, 3), (0, 4), (3, 4)]),  # parallel new edges, to node 0
            (3, [(0, 1), (1, 2)], 5, [(2, 3)]),  # node 4 isolated
            (3, [(0, 1), (1, 2)], 6, [(2, 3), (4, 5)]),  # nodes 4, 5 only reach each other
            (4, [(0, 1), (2, 3)], 5, [(1, 4), (3, 4)]),  # new edges connect a disconnected base
            (4, [(0, 1), (2, 3)], 4, [(1, 2)]),  # ... with old nodes only
            (4, [(0, 1), (2, 3)], 5, [(0, 4)]),  # ... or do not
            (1, [], 3, [(0, 1), (1, 2), (0, 2)]),  # a one-node base
        ],
    )
    def test_named_extensions(self, n0, base_edges, n, new_edges):
        g = PoseGraph(n0, tuple(base_edges)).extended(n, new_edges)
        assert_tree_count(g, n, base_edges + new_edges)

    def test_component_of_new_nodes_rounds_to_a_positive_increment(self):
        """The case the structural check exists for: a component of new
        nodes only makes ``Bᵀ S⁻¹ B`` singular in exact arithmetic, yet its
        rounded Cholesky need not fail."""
        g = PoseGraph(3, ((0, 1), (1, 2))).extended(6, [(2, 3), (4, 5), (4, 5)])
        with pytest.raises(DisconnectedGraph):
            spanning_tree_count(g)

    @settings(max_examples=100, deadline=None)
    @given(multigraphs(), st.integers(0, 3), st.data())
    def test_extended_equals_the_graph_built_whole(self, graph, extra_nodes, data):
        n0, base_edges = graph
        n = n0 + extra_nodes
        node = st.integers(0, n - 1)
        new_edges = data.draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=6))
        grown = PoseGraph(n0, tuple(base_edges)).extended(n, new_edges)
        whole = PoseGraph(n, tuple(base_edges) + tuple(new_edges))
        assert grown.n_nodes == whole.n_nodes
        np.testing.assert_array_equal(grown.edges, whole.edges)
        assert not grown.edges.flags.writeable
        np.testing.assert_array_equal(grown.reduced_degrees, whole.reduced_degrees)
        try:
            expected = whole.log_tree_count
        except DisconnectedGraph:
            with pytest.raises(DisconnectedGraph):
                grown.log_tree_count
            return
        assert abs(grown.log_tree_count - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_extended_validates_new_edges(self):
        g = PoseGraph(3, ((0, 1), (1, 2)))
        with pytest.raises(ValueError, match="self-loop at node 3"):
            g.extended(4, [(2, 3), (3, 3)])
        with pytest.raises(ValueError, match=r"edge \(2, 4\) out of range"):
            g.extended(4, [(2, 4)])
        with pytest.raises(ValueError):
            g.extended(2, [])

    @pytest.mark.parametrize("edges", [((0, 1, 2),), (0, 1), ((0, 5),), ((-1, 0),)])
    def test_malformed_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            PoseGraph(3, edges)

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (1, 5), (2, 2)], "edge (1, 5) out of range"),  # out of range before a self-loop
            ([(0, 1), (2, 2), (-1, 1)], "self-loop at node 2"),  # self-loop before a negative id
            ([(5, 1), (2, 2)], "edge (5, 1) out of range"),  # high first end
            ([(1, 5)], "edge (1, 5) out of range"),  # high second end
            ([(-1, 1)], "edge (-1, 1) out of range"),  # negative first end
            ([(1, 2), (1, -1)], "edge (1, -1) out of range"),  # negative second end
            ([(-1, 7)], "edge (-1, 7) out of range"),  # both ends
            ([(0, 1), (7, 7), (-1, 0)], "self-loop at node 7"),  # a self-loop out of range
        ],
    )
    def test_first_faulty_edge_is_named(self, edges, message):
        """Several faults: the first edge in input order is named, as given,
        by ``PoseGraph`` and by ``extended`` alike."""
        with pytest.raises(ValueError) as whole:
            PoseGraph(4, [(2, 3), *edges])
        assert str(whole.value) == message
        with pytest.raises(ValueError) as grown:
            PoseGraph(3, ((0, 1), (1, 2))).extended(4, [(2, 3), *edges])
        assert str(grown.value) == message


def lemma_case(rng, n, n_k, m, k):
    """(sigma_kk, A, B, ln|M+| - ln|M| by dense ``slogdet``): a random SPD
    ``M`` over ``n`` variables, k rows on ``n_k`` of them and ``m`` new ones."""
    q = rng.normal(size=(n, n))
    info = q @ q.T + n * np.eye(n)
    touched = np.sort(rng.choice(n, size=n_k, replace=False))
    a, b = rng.normal(size=(k, n_k)), rng.normal(size=(k, m))
    rows = np.zeros((k, n + m))
    rows[:, touched], rows[:, n:] = a, b
    grown = np.zeros((n + m, n + m))
    grown[:n, :n] = info
    grown += rows.T @ rows
    sign, after = np.linalg.slogdet(grown)
    assert sign > 0
    sigma_kk = np.linalg.inv(info)[np.ix_(touched, touched)]
    return sigma_kk, a, b, after - np.linalg.slogdet(info)[1]


class TestLemmaLogdetIncrement:
    """``lemma_logdet_increment`` against dense ``slogdet`` of the grown
    matrix, and its documented raise."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_dense_slogdet_difference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        n_k, m = int(rng.integers(0, n + 1)), int(rng.integers(0, 4))
        k = m + int(rng.integers(0, 4))  # B has full column rank
        sigma_kk, a, b, want = lemma_case(rng, n, n_k, m, k)
        got = lemma_logdet_increment(sigma_kk, a, b)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("m, idle", [(1, 0), (3, 1), (3, 2)])
    def test_a_new_variable_no_row_touches_raises(self, m, idle):
        """Rows that do not pin the new variables down: ``Bᵀ S⁻¹ B`` has a
        zero row and column, so its Cholesky meets a zero pivot."""
        sigma_kk, a, b, _ = lemma_case(np.random.default_rng(m), 5, 3, m, 4)
        b[:, idle] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            lemma_logdet_increment(sigma_kk, a, b)

    def test_a_block_that_is_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            lemma_logdet_increment(-np.eye(1), np.ones((1, 1)), np.zeros((1, 0)))

    def test_no_rows(self):
        sigma_kk = np.eye(2)
        assert lemma_logdet_increment(sigma_kk, np.zeros((0, 2)), np.zeros((0, 0))) == 0.0
        with pytest.raises(np.linalg.LinAlgError):  # nothing pins the new variable down
            lemma_logdet_increment(sigma_kk, np.zeros((0, 2)), np.zeros((0, 1)))

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_no_old_variables(self, m):
        """With ``|K| = 0`` the grown matrix is block diagonal: the increment
        is ``ln|BᵀB|``."""
        rng = np.random.default_rng(m)
        b = rng.normal(size=(m + 2, m))
        got = lemma_logdet_increment(np.zeros((0, 0)), np.zeros((m + 2, 0)), b)
        want = np.linalg.slogdet(b.T @ b)[1]
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestTopologicalBounds:
    def test_triangle_frozen_values(self):
        g = PoseGraph(3, ((0, 1), (1, 2), (0, 2)))
        cfg = TopologicalNoiseConfig(mu=0.0, psi=0.0)
        lb, ub = topological_bounds(g, cfg)
        np.testing.assert_allclose(lb, 3.0 * math.log(3.0), rtol=1e-12)
        np.testing.assert_allclose(ub, 3.0 * math.log(3.0) + math.log(4.0 / 3.0), rtol=1e-12)

    def test_tree_graph(self):
        g = PoseGraph(4, ((0, 1), (1, 2), (1, 3)))
        lb, ub = topological_bounds(g, TopologicalNoiseConfig(mu=0.0, psi=0.0))
        np.testing.assert_allclose(lb, 0.0, atol=1e-12)
        degrees = [3.0, 1.0, 1.0]
        np.testing.assert_allclose(ub, sum(math.log(d) for d in degrees), rtol=1e-12)

    def test_mu_shifts_both_sides(self):
        g = PoseGraph(3, ((0, 1), (1, 2), (0, 2)))
        lb0, ub0 = topological_bounds(g, TopologicalNoiseConfig(mu=0.0, psi=0.5))
        lb1, ub1 = topological_bounds(g, TopologicalNoiseConfig(mu=2.5, psi=0.5))
        np.testing.assert_allclose(lb1 - lb0, 2.5)
        np.testing.assert_allclose(ub1 - ub0, 2.5)

    def test_width_monotone_in_psi(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(rng, 6)
        widths = []
        for psi in (0.0, 0.3, 1.0, 3.0, 10.0):
            lb, ub = topological_bounds(g, TopologicalNoiseConfig(mu=0.0, psi=psi))
            assert ub >= lb
            widths.append(ub - lb)
        assert all(b >= a for a, b in zip(widths, widths[1:]))

    def test_psi_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            TopologicalNoiseConfig(psi=-0.1)

    @pytest.mark.parametrize("field", ["mu", "psi", "ratio"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_constants_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TopologicalNoiseConfig(**{field: value})


class TestDeterminantBounds:
    def test_rank1_lower(self):
        b = scalar_belief(np.diag([2.0, 2.0]))
        a = CandidateAction(0, row_block_from_dense([[1.0, 0.0]]))
        lb, ub = determinant_bounds(b, a)
        j = objective(b, a)
        np.testing.assert_allclose(lb, 0.5 * (math.log(4.0) - 2 * LN_2PI_E), rtol=1e-12)
        np.testing.assert_allclose(j, 0.5 * (math.log(6.0) - 2 * LN_2PI_E), rtol=1e-12)
        assert lb <= j <= ub

    def test_hadamard_upper(self):
        # posterior [[2,1],[1,2]]: diagonal product 4 dominates det 3
        b = scalar_belief(np.eye(2))
        a = CandidateAction(0, row_block_from_dense([[1.0, 1.0]]))
        _, ub = determinant_bounds(b, a)
        j = objective(b, a)
        np.testing.assert_allclose(ub, 0.5 * (math.log(4.0) - 2 * LN_2PI_E), rtol=1e-12)
        assert ub >= j

    def test_exact_for_diagonal_and_empty_update(self):
        b = scalar_belief(np.diag([2.0, 5.0]))
        a = CandidateAction(0, SparseRowBlock.empty(2))
        lb, ub = determinant_bounds(b, a)
        j = objective(b, a)
        np.testing.assert_allclose(lb, j, rtol=1e-13)
        np.testing.assert_allclose(ub, j, rtol=1e-13)

    def test_valid_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            b = scalar_belief(random_sparse_spd(rng, n))
            n_new = int(rng.integers(0, 3))
            u = random_update(rng, n, n_new, extra_rows=int(rng.integers(0, 5)))
            a = CandidateAction(0, u, n_new_vars=n_new, predicted_new_means=np.zeros(n_new))
            lb, ub = determinant_bounds(b, a)
            j = objective(b, a)
            assert lb - 1e-9 <= j <= ub + 1e-9

    def test_unsupported_augmentation_rejected(self):
        b = scalar_belief(np.eye(2))
        u = row_block_from_dense([[1.0, 0.0, 0.0]], n_cols=3)
        with pytest.raises(RankDeficientAugmentation):
            determinant_bounds(b, CandidateAction(0, u, n_new_vars=1, predicted_new_means=np.zeros(1)))


from helpers import single_row_problem  # noqa: E402  (shared with acceptance)


class TestRankOneOffsetBound:
    def test_identical_beliefs_give_zero(self):
        rng = np.random.default_rng(2)
        b = scalar_belief(random_sparse_spd(rng, 6))
        mask = detect_involvement(
            b.layout, [CandidateAction(0, row_block_from_dense([[1.0] + [0.0] * 5]))]
        )
        assert rank1_offset_bound(b, b, mask, alpha=1.0) == 0.0

    def test_uninvolved_only_sparsification_zero_offset(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            b, b_s, mask, candidates = single_row_problem(rng, 7, 2, sparsify_involved=0.0)
            alpha = max(float(np.max(c.jacobian.row_vals[0] ** 2)) for c in candidates)
            bound = rank1_offset_bound(b, b_s, mask, alpha, candidates=candidates)
            actual = max(abs(objective(b, c) - objective(b_s, c)) for c in candidates)
            assert actual <= 1e-9
            assert bound >= actual - 1e-12
            assert bound <= 1e-8  # involved covariance block is untouched

    def test_dominates_oracle_offsets_in_coherent_regime(self):
        # scalar nonnegative measurements over one shared variable keep the
        # covariance discrepancy sign-coherent, where the amplitude
        # substitution step of the bound is exact
        rng = np.random.default_rng(7)
        checked = 0
        nontrivial = 0
        for _ in range(150):
            n = int(rng.integers(5, 10))
            b, b_s, mask, candidates = single_row_problem(rng, n, 1)
            alpha = max(float(np.max(c.jacobian.row_vals[0] ** 2)) for c in candidates)
            bound = rank1_offset_bound(b, b_s, mask, alpha, candidates=candidates)
            actual = max(abs(objective(b, c) - objective(b_s, c)) for c in candidates)
            assert bound >= actual - 1e-9
            checked += 1
            nontrivial += actual > 1e-10
        assert checked >= 100 and nontrivial >= 20

    def test_log_shift_step_holds_unconditionally(self):
        # |ln(1 + u cov u) - ln(1 + u cov_s u)| <= |ln(1 + u (cov - cov_s) u)|
        # whenever the right-hand argument stays positive
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            lam = random_sparse_spd(rng, n, density=0.6)
            b = scalar_belief(lam)
            blocks = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            b_s = sparsify_belief(b, SparsificationSpec.custom(blocks))
            lam_s = b_s.root.to_dense().T @ b_s.root.to_dense()
            cov = np.linalg.inv(lam)
            cov_s = np.linalg.inv(lam_s)
            u = rng.normal(size=n)
            delta = float(u @ (cov - cov_s) @ u)
            if 1.0 + delta <= 0.0:
                continue
            lhs = abs(math.log1p(float(u @ cov @ u)) - math.log1p(float(u @ cov_s @ u)))
            assert lhs <= abs(math.log1p(delta)) + 1e-9

    def test_multirow_candidate_rejected(self):
        rng = np.random.default_rng(13)
        b, b_s, mask, _ = single_row_problem(rng, 6, 1)
        wide = CandidateAction(9, row_block_from_dense(np.ones((2, 6))))
        with pytest.raises(NotRankOne):
            rank1_offset_bound(b, b_s, mask, alpha=10.0, candidates=[wide])

    def test_alpha_must_dominate_entries(self):
        rng = np.random.default_rng(17)
        b, b_s, mask, candidates = single_row_problem(rng, 6, 1)
        with pytest.raises(AlphaTooSmall):
            rank1_offset_bound(b, b_s, mask, alpha=1e-9, candidates=candidates)


class TestInverseBlock:
    def test_sparse_solves_match_the_dense_oracle(self):
        from beliefplan.scenario import ScenarioConfig, generate

        rng = np.random.default_rng(23)
        beliefs = [scalar_belief(random_sparse_spd(rng, n, density=0.4)) for n in (1, 5, 30, 80)]
        beliefs.append(generate(ScenarioConfig(seed=2, n_prior_poses=60, n_candidates=4)).prior)
        for b in beliefs:
            for k in sorted({1, min(b.dim, 3), min(b.dim, 36)}):
                idx = np.sort(rng.choice(b.dim, size=k, replace=False))
                got, oracle = _inverse_block(b, idx), dense_inverse_block(b, idx)
                np.testing.assert_allclose(got, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())

    def test_rank1_offset_bound_allocates_no_dense_square(self):
        # banded prior: a dense n x n float array would take 288 MB
        n = 6000
        idx = np.arange(n)
        rows = np.concatenate([idx, idx[:-1], idx[:-5]])
        cols = np.concatenate([idx, idx[:-1] + 1, idx[:-5] + 5])
        vals = np.concatenate([np.full(n, 4.0), np.full(n - 1, -1.0), np.full(n - 5, 0.5)])
        b = GaussianBelief(
            np.zeros(n), cholesky(symmetric_from_coo(n, rows, cols, vals)), VariableLayout.from_sizes([1] * n)
        )
        row = np.zeros((1, n))
        row[0, [2000, 2001, 4500]] = (0.5, 0.3, 0.7)
        candidates = [CandidateAction(0, row_block_from_dense(row))]
        mask = detect_involvement(b.layout, candidates)
        b_s = sparsify_belief(b, SparsificationSpec.custom(range(n // 3, n // 2)), mask)
        tracemalloc.start()
        try:
            bound = rank1_offset_bound(b, b_s, mask, alpha=0.5, candidates=candidates)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(bound)
        assert peak < 8 * n * n / 10


class TestPostSolutionLossBound:
    def test_basic_arithmetic(self):
        assert post_solution_loss_bound([0.0, 0.0], 0, [5.0, 4.0], 4.5) == 0.5

    def test_exact_bounds_recover_true_loss(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            values = rng.normal(size=int(rng.integers(1, 8)))
            pick = int(rng.integers(0, values.size))
            true_loss = float(values.max() - values[pick])
            got = post_solution_loss_bound(values, pick, values, float(values[pick]))
            np.testing.assert_allclose(got, true_loss, atol=1e-12)

    def test_tightened_variants(self):
        values_simp = [1.0, 3.0, 2.0]
        ub = [4.0, 5.0, 4.5]
        # original dominates the simplified values
        assert post_solution_loss_bound(values_simp, 1, ub, 0.0, "overestimates") == 2.0
        # original never exceeds the simplified values
        assert post_solution_loss_bound(values_simp, 1, ub, 2.5, "underestimates") == 0.5

    def test_negative_bound_raises(self):
        with pytest.raises(InconsistentBounds):
            post_solution_loss_bound([5.0], 0, [1.0], 2.0)

    def test_bound_dominates_loss_with_valid_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            true = rng.normal(size=n)
            slack_ub = true + rng.random(size=n)
            pick = int(rng.integers(0, n))
            lb_pick = float(true[pick] - rng.random())
            bound = post_solution_loss_bound(true, pick, slack_ub, lb_pick)
            assert bound >= float(true.max() - true[pick]) - 1e-12
