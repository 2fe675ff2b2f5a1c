"""Sparse kernel tests: factorization, permutations, factor updates,
log-determinants, and the Matrix Market interchange."""

import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from io import BytesIO
from pathlib import Path

from beliefplan import mmio, sparse
from beliefplan.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficientAugmentation,
)
from beliefplan.scenario import ScenarioConfig, generate, run_session, scenario_from_json, scenario_to_json
from beliefplan.sparse import (
    _PANEL,
    _update_pattern,
    PIVOT_FLOOR,
    SparseRowBlock,
    SparseSymmetric,
    UpperTriangular,
    cholesky,
    gram_cholesky,
    logdet_triangular,
    lowrank_update,
    sparsify_factor,
)
from beliefplan.sparsify import SparsificationSpec, detect_involvement, sparsify_belief

from helpers import (
    Permutation,
    ShapeViolation,
    batch_small_configs,
    dense_cholesky,
    dense_logdet,
    dense_logdet_oracle,
    fold_on_oracle_pattern,
    givens_update_oracle,
    lexsort_from_coo,
    permute_symmetric,
    permute_triangular_back,
    random_sparse_spd,
    random_update,
    row_block_from_dense,
    row_block_from_rows,
    row_block_to_mm_oracle,
    sparsify_oracle,
    symbolic_cholesky_pattern,
    symmetric_diagonal,
    symmetric_from_coo,
    symmetric_from_dense,
    trailing,
    triangular_from_dense,
    triangular_from_rows,
    update_pattern_oracle,
    upper_pattern,
)
from test_scenario import SMALL

TINY = Path(__file__).parent / "data" / "tiny_scenario.json"


class TestCholesky:
    def test_hand_2x2(self):
        # [[2,1],[1,2]] factors to [[sqrt(2), 1/sqrt(2)], [0, sqrt(3/2)]]
        m = symmetric_from_dense([[2.0, 1.0], [1.0, 2.0]])
        r = cholesky(m)
        expected = np.array([[1.4142135623730951, 0.7071067811865475], [0.0, 1.224744871391589]])
        np.testing.assert_allclose(r.to_dense(), expected, rtol=1e-12)
        np.testing.assert_allclose(r.to_dense().T @ r.to_dense(), m.to_dense(), rtol=1e-10)

    def test_identity(self):
        r = cholesky(symmetric_diagonal(np.ones(5)))
        np.testing.assert_array_equal(r.to_dense(), np.eye(5))

    def test_diagonal(self):
        r = cholesky(symmetric_diagonal([4.0, 9.0]))
        np.testing.assert_array_equal(r.to_dense(), np.diag([2.0, 3.0]))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 65))
            dense = random_sparse_spd(rng, n)
            r = cholesky(symmetric_from_dense(dense))
            np.testing.assert_allclose(r.to_dense().T @ r.to_dense(), dense, rtol=1e-9, atol=1e-9)
            assert np.all(r.diag > 0)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(symmetric_from_dense([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            cholesky(symmetric_diagonal([1.0, 0.0]))

    def test_long_narrow_band_peaks_near_its_band(self):
        # the band factorization holds (kd + 1) * n doubles; the pattern, the
        # gather and the factor itself are a few more such arrays
        n, kd = 100_000, 3
        offset = np.arange(kd + 1).repeat(n)
        rows = np.tile(np.arange(n), kd + 1)
        keep = rows + offset < n
        rows, cols = rows[keep], (rows + offset)[keep]
        m = SparseSymmetric(SparseRowBlock.from_coo(n, n, rows, cols, np.where(rows == cols, 2.0 * kd + 1.0, -1.0)))
        m.upper.row_ids  # cached on the input, so not the factorization's
        tracemalloc.start()
        try:
            r = cholesky(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (kd + 1) * n * 8
        g = r.gram()
        assert np.array_equal(g.upper.indptr, m.upper.indptr) and np.array_equal(g.upper.indices, m.upper.indices)
        np.testing.assert_allclose(g.upper.data, m.upper.data, rtol=0, atol=1e-13 * (2 * kd + 1))

    def test_fill_pattern_matches_symbolic_elimination(self):
        rng = np.random.default_rng(5)
        matrices = [symmetric_from_dense(random_sparse_spd(rng, int(rng.integers(2, 30)), density=0.2))
                    for _ in range(20)]
        # the plan-1k prior information (dim 1020, whose factor stores 342
        # fill entries that cancel to exact zeros) and the selected-first
        # tail that uninvolved sparsification re-factors
        sc = generate(ScenarioConfig(seed=1, n_prior_poses=340, n_candidates=16, candidate_length=5))
        layout = sc.prior.layout
        s = layout.scalar_indices(sorted(detect_involvement(layout, sc.candidates).never_involved(layout)))
        split = int(np.setdiff1d(np.arange(layout.dim), s)[0])
        tail = trailing(sc.prior.root, split)
        matrices += [
            sc.prior.root.gram(),
            permute_symmetric(tail.gram(), Permutation.move_to_front(tail.dim, s[s >= split] - split)),
        ]
        for m in matrices:
            n = m.dim
            adjacency = [set() for _ in range(n)]
            for i, j in zip(m.upper.row_ids.tolist(), m.upper.indices.tolist()):
                if i != j:
                    adjacency[i].add(j)
            expected = symbolic_cholesky_pattern(adjacency, n)
            r = cholesky(m)
            got = [set(r.row_cols[i].tolist()) for i in range(n)]
            assert got == expected


@st.composite
def spd_with_stored_zeros(draw, max_dim=24):
    """Random sparse SPD matrix, some of whose zero upper entries are stored."""
    n = draw(st.integers(1, max_dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = random_sparse_spd(rng, n, density=draw(st.sampled_from([0.05, 0.15, 0.3])))
    m = symmetric_from_dense(dense)
    iu, ju = np.triu_indices(n)
    zero = (dense[iu, ju] == 0.0) & (rng.random(iu.size) < draw(st.sampled_from([0.0, 0.1, 0.4])))
    return symmetric_from_coo(
        n,
        np.concatenate([m.upper.row_ids, iu[zero]]),
        np.concatenate([m.upper.indices, ju[zero]]),
        np.concatenate([m.upper.data, np.zeros(int(zero.sum()))]),
    )


def _pivot_index(exc_info) -> int:
    return int(re.search(r"at index (\d+)", str(exc_info.value)).group(1))


class TestSparseFactorKernels:
    """The sparse Cholesky and gram kernels against dense oracles."""

    @settings(max_examples=150, deadline=None)
    @given(spd_with_stored_zeros())
    def test_cholesky_keeps_the_fill_pattern_and_matches_the_dense_oracle(self, m):
        adjacency = [set() for _ in range(m.dim)]
        for i, j in zip(m.upper.row_ids.tolist(), m.upper.indices.tolist()):
            if i != j:
                adjacency[i].add(j)
        r = cholesky(m)
        assert [set(c.tolist()) for c in r.row_cols] == symbolic_cholesky_pattern(adjacency, m.dim)
        oracle = dense_cholesky(m)
        np.testing.assert_allclose(r.to_dense(), oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 20),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["indefinite", "zero-leading", "under-floor"]),
        st.data(),
    )
    def test_not_positive_definite_at_the_oracle_pivot(self, n, seed, kind, data):
        rng = np.random.default_rng(seed)
        if kind == "zero-leading":
            dense = random_sparse_spd(rng, n, density=0.3)
            dense[0, 0] = 0.0
            k = 0
        else:
            # the unpivoted LDL^T pivots of U^T D U (U unit upper) are D
            k = data.draw(st.integers(0, n - 1), label="pivot")
            unit = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.3), 1) + np.eye(n)
            d = rng.uniform(0.5, 2.0, n)
            d[k] = -rng.uniform(0.1, 2.0) if kind == "indefinite" else 1e-14
            dense = unit.T @ (d[:, None] * unit)
        m = symmetric_from_dense(dense)
        with pytest.raises(NotPositiveDefinite) as oracle:
            dense_cholesky(m)
        with pytest.raises(NotPositiveDefinite) as got:
            cholesky(m)
        assert _pivot_index(got) == _pivot_index(oracle) == k

    def test_negative_pivot_ahead_of_a_singular_column(self):
        # the empty column 2 would fail too; the first failing pivot is the
        # negative one at index 1, where the factorization stops
        m = symmetric_from_dense([[1.0, 2.0, 0, 0], [2.0, 1.0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1.0]])
        with pytest.raises(NotPositiveDefinite, match="at index 1 "):
            dense_cholesky(m)
        with pytest.raises(NotPositiveDefinite, match="at index 1 "):
            cholesky(m)

    @pytest.mark.parametrize("n", [64, 4096, 4097])
    def test_gram_matches_the_banded_product(self, n):
        # 4096 was the largest dimension the product was once formed densely
        b = 3
        rng = np.random.default_rng(n)
        # band[d, i] = R[i, i + d]; a quarter of the stored entries are zeros
        stored = (rng.random((b + 1, n)) < 0.6) & (np.arange(n) + np.arange(b + 1)[:, None] < n)
        stored[0] = True
        band = np.where(stored, rng.normal(size=(b + 1, n)) * (rng.random((b + 1, n)) < 0.75), 0.0)
        band[0] = rng.uniform(0.5, 2.0, n)
        d, i = np.nonzero(stored[1:])
        r = UpperTriangular(band[0], SparseRowBlock.from_coo(n, n, i, i + d + 1, band[1:][d, i]))
        # (R^T R)[j, j + e] = sum over d of R[j - d, j] R[j - d, j + e]
        vals = np.zeros((b + 1, n))
        support = np.zeros((b + 1, n), dtype=bool)
        for e in range(b + 1):
            for d in range(b + 1 - e):
                vals[e, d:] += band[d, : n - d] * band[d + e, : n - d]
                support[e, d:] |= stored[d, : n - d] & stored[d + e, : n - d]
        g = r.gram()
        e, j = np.nonzero(support)
        rows, cols = g.upper.row_ids, g.upper.indices
        assert set(zip(rows.tolist(), cols.tolist())) == set(zip(j.tolist(), (j + e).tolist()))
        np.testing.assert_allclose(g.upper.data, vals[cols - rows, rows], rtol=0, atol=1e-13 * np.abs(vals).max())


@st.composite
def gram_row_blocks(draw):
    """Rows of 1-6 entries, sharing columns and storing some zeros, over a
    one-entry row per column that makes the Gram matrix positive definite,
    as ``(rows, tree)``.  A "chain" block also links every column to the
    next, so its elimination tree is a chain; a "sweep" block never stores
    column 1 after a row's first column yet links columns 0 and 2, so its
    tree is no chain and the symbolic pass takes the set sweep."""
    tree = draw(st.sampled_from(["chain", "sweep"]))
    n = draw(st.integers(3, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.2, 0.5]))
    rows = [{c: rng.uniform(0.5, 2.0)} for c in range(n)]
    if tree == "chain":
        rows += [{c: rng.normal(), c + 1: rng.normal()} for c in range(n - 1)]
    else:
        rows.append({0: rng.normal(), 2: rng.normal()})
    others = [c for c in range(n) if tree == "chain" or c != 1]
    for _ in range(draw(st.integers(0, 3 * n))):
        cols = rng.choice(others, size=min(int(rng.integers(1, 7)), len(others)), replace=False)
        vals = rng.normal(size=cols.size) * (rng.random(cols.size) >= zero_share)
        rows.append(dict(zip(cols.tolist(), vals.tolist())))
    rng.shuffle(rows)
    return _rows(n, *rows), tree


class TestGramCholesky:
    """``gram_cholesky(rows)`` is ``cholesky(rows.gram())`` bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(gram_row_blocks())
    def test_equals_the_cholesky_of_the_gram_matrix(self, drawn):
        rows, tree = drawn
        calls = []
        sweep = sparse._elimination_sweep
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse, "_elimination_sweep", lambda *args: calls.append(args) or sweep(*args))
            got = gram_cholesky(rows)
            want = cholesky(rows.gram())
        assert len(calls) == (2 if tree == "sweep" else 0)
        _same_bits(_factor_arrays(got), _factor_arrays(want))

    @pytest.mark.parametrize("n, rows, index", [
        # column 1 is never stored
        (3, [{0: 1.0}, {2: 2.0}, {0: 1.0, 2: 1.0}], 1),
        # columns 0 and 1 are always equal
        (3, [{0: 1.0, 1: 1.0}, {0: 2.0, 1: 2.0, 2: 1.0}, {2: 3.0}], 1),
        # a stored zero is no support
        (2, [{0: 1.0, 1: 0.0}], 1),
        # no entries at all
        (2, [{}, {}], 0),
    ], ids=["empty-column", "equal-columns", "stored-zero", "no-entries"])
    def test_a_singular_block_fails_at_the_same_pivot(self, n, rows, index):
        block = _rows(n, *rows)
        with pytest.raises(NotPositiveDefinite) as want:
            cholesky(block.gram())
        with pytest.raises(NotPositiveDefinite) as got:
            gram_cholesky(block)
        assert got.value.index == want.value.index == index
        assert str(got.value) == str(want.value)


def _fill_oracle(n, order, rows, cols) -> list:
    """Per-row column sets of eliminating ``order`` over the pairs, by the
    set-arithmetic oracle run on elimination positions; rows not in
    ``order`` are empty."""
    order = np.asarray(order, dtype=np.int64)
    pos = {int(i): k for k, i in enumerate(order)}
    adjacency = [set() for _ in range(order.size)]
    for i, j in zip(np.asarray(rows).tolist(), np.asarray(cols).tolist()):
        if i != j:
            adjacency[pos[i]].add(pos[j])
    fill = symbolic_cholesky_pattern(adjacency, order.size)
    out = [set() for _ in range(n)]
    for k, i in enumerate(order.tolist()):
        out[i] = {int(order[j]) for j in fill[k]}
    return out


def _as_sets(n, indptr, indices) -> list:
    return [set(indices[indptr[i]:indptr[i + 1]].tolist()) for i in range(n)]


# the set sweep itself, whatever a test patches in its place
_SET_SWEEP = sparse._elimination_sweep


def _sweep_fill(n, order, rows, cols) -> tuple:
    """The set sweep alone on pairs of positions in ``order``, as CSR
    ``(indptr, indices)`` over ``n`` rows."""
    lengths, fill = _SET_SWEEP(order.size, rows, cols)
    counts = np.zeros(n, dtype=np.int64)
    counts[order] = lengths
    return np.concatenate(([0], np.cumsum(counts))), order[fill]


@pytest.fixture
def no_sweep(monkeypatch):
    """The set sweep raises: only the array pass may run."""
    def refuse(*args):
        raise AssertionError("the set sweep ran")

    monkeypatch.setattr(sparse, "_elimination_sweep", refuse)


@pytest.fixture
def sweep_calls(monkeypatch):
    """Counts the set sweep's calls, which still run."""
    calls = []
    sweep = sparse._elimination_sweep

    def counted(*args):
        calls.append(args)
        return sweep(*args)

    monkeypatch.setattr(sparse, "_elimination_sweep", counted)
    return calls


def _banded_pairs(n, bandwidth):
    i, d = np.divmod(np.arange(n * (bandwidth + 1)), bandwidth + 1)
    keep = i + d < n
    return i[keep], (i + d)[keep]


def _plan_1k_fill_inputs() -> list:
    """``(n, order, rows, cols)`` of every elimination that factoring the
    plan-1k prior and sparsifying it (uninvolved and full) asks for."""
    seen = []
    fill = sparse._elimination_fill

    def record(*args):
        seen.append(args)
        return fill(*args)

    sc = _plan_1k()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "_elimination_fill", record)
        cholesky(sc.prior.root.gram())
        _session_beliefs(sc)
    return seen


class TestEliminationFill:
    """The one array pass of symbolic elimination: the prefix rule on chain
    elimination trees, the set sweep on the others, both equal to the set
    oracle."""

    @staticmethod
    def _check(n, order, rows, cols):
        """The pass on pairs of row indices, against the set oracle and,
        array for array, the set sweep."""
        order, rows, cols = (np.asarray(a, dtype=np.int64) for a in (order, rows, cols))
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(order.size)
        indptr, indices = sparse._elimination_fill(n, order, pos[rows], pos[cols])
        assert indptr.dtype == indices.dtype == np.int64
        assert _as_sets(n, indptr, indices) == _fill_oracle(n, order, rows, cols)
        want = _sweep_fill(n, order, pos[rows], pos[cols])
        assert np.array_equal(indptr, want[0]) and np.array_equal(indices, want[1])
        return indptr, indices

    @pytest.mark.parametrize("n, bandwidth", [(2, 1), (40, 3), (97, 8)])
    def test_banded_patterns_take_the_prefix_rule(self, no_sweep, n, bandwidth):
        rows, cols = _banded_pairs(n, bandwidth)
        self._check(n, np.arange(n), rows, cols)

    def test_banded_spd_cholesky_takes_the_prefix_rule(self, no_sweep):
        n, b = 60, 4
        rng = np.random.default_rng(3)
        rows, cols = _banded_pairs(n, b)
        dense = np.zeros((n, n))
        dense[rows, cols] = rng.normal(size=rows.size)
        dense = dense + dense.T + np.eye(n) * 4 * b
        m = symmetric_from_dense(dense)
        r = cholesky(m)
        assert [set(c.tolist()) for c in r.row_cols] == _fill_oracle(n, np.arange(n), m.upper.row_ids,
                                                                      m.upper.indices)

    def test_kept_order_subset_takes_the_prefix_rule(self, no_sweep):
        # a band read over every index not divisible by 3, rows 0..4 left out
        n = 50
        order = np.array([i for i in range(5, n) if i % 3])
        rows, cols = _banded_pairs(n, 4)
        inside = np.isin(rows, order) & np.isin(cols, order)
        indptr, _ = self._check(n, order, rows[inside], cols[inside])
        assert np.all(np.diff(indptr)[np.setdiff1d(np.arange(n), order)] == 0)

    def test_plan_1k_prior_and_kept_tails_take_the_prefix_rule(self, no_sweep):
        inputs = _plan_1k_fill_inputs()
        # the prior's factorization, then each kept tail
        assert len(inputs) >= 2 and inputs[0][1].size == 1020
        for n, order, rows, cols in inputs:
            got = sparse._elimination_fill(n, order, rows, cols)
            want = _sweep_fill(n, order, rows, cols)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize(
        "n, pairs",
        [
            # an arrow: every row links the last variable only
            (6, [(i, 5) for i in range(5)]),
            # two leaves under one root, next to a block that is a chain
            (7, [(0, 2), (1, 2), (3, 4), (3, 5), (4, 6)]),
            # the same with rows that store nothing between them
            (10, [(0, 5), (2, 5), (5, 9), (7, 9)]),
        ],
        ids=["arrow", "branching-block-diagonal", "empty-rows"],
    )
    def test_branching_trees_take_the_set_sweep(self, sweep_calls, n, pairs):
        rows, cols = np.array(pairs).T
        order = np.arange(n)
        self._check(n, order, np.r_[rows, order], np.r_[cols, order])
        assert len(sweep_calls) == 1

    @pytest.mark.parametrize(
        "n, order, pairs",
        [(1, [0], [(0, 0)]), (1, [0], []), (4, [0, 1, 2, 3], []), (5, [1, 3], [(1, 1), (3, 3)]), (3, [], [])],
        ids=["n-1", "n-1-no-pairs", "no-pairs", "diagonal-only-subset", "nothing-eliminated"],
    )
    def test_patterns_without_fill(self, n, order, pairs):
        rows, cols = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        indptr, indices = self._check(n, order, rows, cols)
        assert indices.size == 0 and np.all(indptr == 0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_pattern_equals_the_oracle_and_the_sweep(self, data):
        n = data.draw(st.integers(1, 16))
        order = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=np.int64)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, order.size - 1), st.integers(0, order.size - 1)),
                                   max_size=40))
        # repeats and diagonal pairs included, in any order, column at or after its row
        rows = np.array([order[min(a, b)] for a, b in pairs], dtype=np.int64)
        cols = np.array([order[max(a, b)] for a, b in pairs], dtype=np.int64)
        self._check(n, order, rows, cols)

    def test_benchmark_scenarios_never_take_the_set_sweep(self, no_sweep):
        """plan-1k, the 8 batch-small scenarios and the benchmark's warm-up
        scenario, each generated and reloaded, factor their priors and
        sparsify them by the prefix rule alone."""
        for cfg in _benchmark_configs():
            sc = scenario_from_json(scenario_to_json(generate(cfg)))
            mask = detect_involvement(sc.prior.layout, sc.candidates)
            for spec in (SparsificationSpec.uninvolved(), SparsificationSpec.full()):
                sparsify_belief(sc.prior, spec, mask)


def _benchmark_configs() -> tuple:
    """plan-1k, the 8 batch-small scenarios and the benchmark's warm-up
    scenario."""
    return (ScenarioConfig(seed=1, n_prior_poses=340, n_candidates=16, candidate_length=5), *batch_small_configs(),
            ScenarioConfig(seed=0, n_prior_poses=60, n_candidates=6, candidate_length=4))


def _uninvolved(sc) -> np.ndarray:
    """The scalars of the blocks that no candidate involves."""
    never = detect_involvement(sc.prior.layout, sc.candidates).never_involved(sc.prior.layout)
    selected = np.zeros(sc.prior.dim, dtype=bool)
    selected[sc.prior.layout.scalar_indices(sorted(never))] = True
    return selected


# the graph pass itself, whatever a test patches in its place
_GRAPH_COMPONENTS = sparse._graph_components


def _graph_plan(r, selected) -> tuple:
    """``_kept_fill`` with the column heads never read: the graph pass."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "_skyline_components", lambda *args: None)
        mp.setattr(sparse, "_graph_components", _GRAPH_COMPONENTS)
        return sparse._kept_fill(r, selected, np.flatnonzero(~selected))


@pytest.fixture
def no_graph_pass(monkeypatch):
    """The graph pass raises: only the column heads may plan."""
    def refuse(*args):
        raise AssertionError("the graph pass ran")

    monkeypatch.setattr(sparse, "_graph_components", refuse)


def _skyline(heads) -> UpperTriangular:
    """A factor whose column ``j`` stores rows ``heads[j] .. j - 1``."""
    rows = [i for j, h in enumerate(heads) for i in range(h, j)]
    cols = [j for j, h in enumerate(heads) for _ in range(h, j)]
    vals = np.linspace(-1.0, 1.0, len(rows))
    return UpperTriangular(np.full(len(heads), 2.0), SparseRowBlock.from_coo(len(heads), len(heads), rows, cols, vals))


class TestSparsificationPlan:
    """``_kept_fill``'s plan (fill pattern, moved rows, first crossing
    column) from the column heads of a skyline factor, array-equal to the
    graph pass; other factors take the graph pass."""

    @staticmethod
    def _check(r, selected):
        kept = np.flatnonzero(~selected)
        assert sparse._skyline_components(r, selected, kept) is not None
        got = sparse._kept_fill(r, selected, kept)
        want = _graph_plan(r, selected)
        assert [a.dtype for a in got[:3]] == [np.int64] * 3 and type(got[3]) is int
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        return got

    def test_uninvolved_selections_of_the_benchmark_scenarios(self):
        moving = 0
        for cfg in _benchmark_configs():
            sc = generate(cfg)
            _, _, moved, first = self._check(sc.prior.root, _uninvolved(sc))
            moving += moved.size > 0
            assert (first < sc.prior.dim) == (moved.size > 0)
        assert moving > 5

    @pytest.mark.parametrize("seed", range(6))
    def test_random_block_selections(self, seed):
        sc = _plan_1k() if seed < 3 else generate(batch_small_configs()[seed])
        rng = np.random.default_rng(seed)
        layout = sc.prior.layout
        for share in (0.1, 0.5, 0.9):
            selected = np.zeros(sc.prior.dim, dtype=bool)
            selected[layout.scalar_indices([b for b in layout.block_ids if rng.random() < share])] = True
            if selected.all() or not selected[np.flatnonzero(~selected)[0]:].any():
                continue
            self._check(sc.prior.root, selected)

    @pytest.mark.parametrize(
        "heads, selected",
        [
            # two intervals that touch but share no row: two components
            ([0, 0, 1, 3, 3, 4, 6], [2, 5]),
            # overlapping intervals merge: one component
            ([0, 0, 0, 1, 2, 3, 4], [3, 5]),
            # a selected column that no row stores links only its own row
            ([0, 1, 1, 3, 2, 5], [3]),
            # selected rows before the first kept one, which store its column
            ([0, 0, 0, 0, 2, 5], [0, 1, 4]),
            # no kept row stores a selected column: nothing moves
            ([0, 1, 2, 3, 4], [2, 4]),
        ],
        ids=["touching-intervals", "overlapping-intervals", "empty-selected-column", "selected-lead",
             "nothing-moves"],
    )
    def test_hand_made_skylines(self, heads, selected):
        r = _skyline(heads)
        mask = np.zeros(r.dim, dtype=bool)
        mask[selected] = True
        self._check(r, mask)
        _assert_matches(r, sparsify_oracle(r, mask), sparsify_factor(r, mask))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_skyline_and_selection(self, data):
        n = data.draw(st.integers(1, 18))
        heads = [data.draw(st.integers(0, j)) for j in range(n)]
        selected = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if not selected.all():
            self._check(_skyline(heads), selected)

    @pytest.mark.parametrize("cfg", _benchmark_configs()[:9], ids=["plan-1k", *map("batch-small-{}".format, range(8))])
    def test_an_uninvolved_sparsified_factor_takes_the_graph_pass(self, monkeypatch, cfg):
        # an uninvolved factor keeps the heads of its active scalars, a chain
        # skyline, but its cut rows are empty: with one inside the chain it
        # is no skyline and takes the graph pass; with all of them before
        # the chain it is one, and its plan is the graph pass's
        sc = generate(cfg)
        r = sparsify_factor(sc.prior.root, _uninvolved(sc))
        active = r._chain_heads[1]
        holed = not active[active.argmax():].all()
        assert not active.all()
        selected = np.zeros(r.dim, dtype=bool)
        selected[1:r.dim:4] = True
        assert (sparse._skyline_components(r, selected, np.flatnonzero(~selected)) is None) == holed
        if not holed:
            self._check(r, selected)
        calls = []
        monkeypatch.setattr(sparse, "_graph_components", lambda *args: calls.append(args) or _GRAPH_COMPONENTS(*args))
        _assert_matches(r, sparsify_oracle(r, selected), sparsify_factor(r, selected))
        assert len(calls) == holed

    def test_a_hand_made_pattern_takes_the_graph_pass(self):
        # column 2 is stored in row 0 but not in row 1: no skyline
        r = triangular_from_dense([[1.4, -0.2, -0.2, 0.3], [0.0, 0.6, 0.0, -0.1],
                                   [0.0, 0.0, 1.3, 0.5], [0.0, 0.0, 0.0, 1.5]])
        selected = np.array([False, True, False, True])
        assert sparse._skyline_components(r, selected, np.flatnonzero(~selected)) is None
        indptr, indices, moved, first = sparse._kept_fill(r, selected, np.flatnonzero(~selected))
        assert _as_sets(4, indptr, indices) == [{2}, set(), set(), set()]
        assert moved.tolist() == [0, 2] and first == 1
        _assert_matches(r, sparsify_oracle(r, selected), sparsify_factor(r, selected))

    def test_benchmark_sessions_never_take_the_graph_pass(self, no_graph_pass):
        """plan-1k, the 8 batch-small scenarios and the warm-up scenario
        plan every sparsification of a session from the column heads."""
        for cfg in _benchmark_configs():
            run_session(generate(cfg))


def _refuse_product(*args):
    raise AssertionError("the Gram product ran")


class TestGramCount:
    """``UpperTriangular.gram_nnz``: ``nnz`` for a fill-closed pattern, the
    product's count for any other."""

    def test_random_patterns_count_as_the_product(self):
        rng = np.random.default_rng(21)
        closed = 0
        for _ in range(400):
            n = int(rng.integers(1, 16))
            dense = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.7), 1) * rng.normal(size=(n, n))
            r = triangular_from_dense(dense + np.eye(n))
            first, settles = r._row_links
            closed += all(s or f < 0 for f, s in zip(first, settles))
            assert r.gram_nnz() == r.as_row_block().gram_nnz() == r.gram().nnz
        # both kinds were drawn, closed ones the fewer
        assert 50 < closed < 300

    def test_cholesky_fill_is_its_own_gram_pattern(self, monkeypatch):
        r = cholesky(symmetric_from_dense(random_sparse_spd(np.random.default_rng(22), 30)))
        want = r.as_row_block().gram_nnz()
        monkeypatch.setattr(SparseRowBlock, "_upper_gram", _refuse_product)
        assert r.gram_nnz() == r.nnz == want

    def test_plan_1k_session_counts_without_the_product(self, monkeypatch):
        sc = _plan_1k()
        want = [b.root.as_row_block().gram_nnz() for b in _session_beliefs(sc)]
        monkeypatch.setattr(SparseRowBlock, "_upper_gram", _refuse_product)
        report = run_session(sc)
        assert [m.info_nnz for m in report.all_results()] == want
        assert [m.root_nnz for m in report.all_results()] == want


@st.composite
def coordinates(draw):
    """Coordinates in any order, with repeats, columns out of range and
    values of both signs; a repeat or a bad column makes the block
    invalid."""
    n_rows = draw(st.integers(0, 5))
    n_cols = draw(st.integers(1, 6))
    entry = st.tuples(st.integers(0, max(n_rows - 1, 0)), st.integers(-1, n_cols),
                      st.floats(-1e17, 1e17))
    entries = draw(st.lists(entry, max_size=30 if n_rows else 0))
    if draw(st.booleans()):
        # valid: one value per in-range coordinate
        entries = [(i, j, v) for (i, j), v in {(i, j): v for i, j, v in entries if 0 <= j < n_cols}.items()]
    return n_rows, n_cols, entries


class TestFromCoo:
    @settings(max_examples=300, deadline=None)
    @given(coordinates())
    def test_equals_the_lexsort_order(self, case):
        n_rows, n_cols, entries = case
        rows, cols, vals = ([e[k] for e in entries] for k in range(3))
        try:
            oracle = lexsort_from_coo(n_rows, n_cols, rows, cols, vals)
        except ValueError:
            with pytest.raises(ValueError):
                SparseRowBlock.from_coo(n_rows, n_cols, rows, cols, vals)
            return
        got = SparseRowBlock.from_coo(n_rows, n_cols, rows, cols, vals)
        assert np.array_equal(got.indptr, oracle.indptr)
        assert np.array_equal(got.indices, oracle.indices)
        assert np.array_equal(got.data.view(np.int64), oracle.data.view(np.int64))

    def test_shape_beyond_int64_keys_is_a_value_error(self):
        with pytest.raises(ValueError, match="too large"):
            SparseRowBlock.from_coo(3, 2**62, [0], [5], [1.0])


class TestPermutations:
    def test_diagonal_permutation(self):
        m = symmetric_diagonal([1.0, 2.0, 3.0])
        p = Permutation(np.array([2, 0, 1]))
        out = permute_symmetric(m, p)
        np.testing.assert_array_equal(out.to_dense(), np.diag([3.0, 1.0, 2.0]))

    def test_identity_permutation(self):
        m = symmetric_from_dense([[2.0, 1.0], [1.0, 3.0]])
        out = permute_symmetric(m, Permutation(np.arange(2)))
        np.testing.assert_array_equal(out.to_dense(), m.to_dense())

    def test_swap_matches_dense_oracle(self):
        m = symmetric_from_dense([[2.0, 1.0], [1.0, 3.0]])
        p = Permutation(np.array([1, 0]))
        out = permute_symmetric(m, p)
        oracle = m.to_dense()[np.ix_(p.forward, p.forward)]
        np.testing.assert_array_equal(out.to_dense(), oracle)
        np.testing.assert_array_equal(out.to_dense(), [[3.0, 1.0], [1.0, 2.0]])

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            m = symmetric_from_dense(random_sparse_spd(rng, n))
            p = Permutation(rng.permutation(n))
            back = permute_symmetric(permute_symmetric(m, p), p.inverted())
            assert np.array_equal(back.upper.indptr, m.upper.indptr)
            assert np.array_equal(back.upper.indices, m.upper.indices)
            assert np.array_equal(back.upper.data, m.upper.data)
            assert permute_symmetric(m, p).nnz == m.nnz

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            permute_symmetric(symmetric_diagonal(np.ones(3)), Permutation(np.arange(2)))

    def test_forward_inverse_compose_to_identity(self):
        rng = np.random.default_rng(9)
        p = Permutation(rng.permutation(17))
        np.testing.assert_array_equal(p.forward[p.inverse], np.arange(17))
        np.testing.assert_array_equal(p.inverse[p.forward], np.arange(17))


class TestPermuteTriangularBack:
    def test_diagonal_swap(self):
        r = UpperTriangular.from_diagonal([2.0, 3.0])
        out = permute_triangular_back(r, Permutation(np.array([1, 0])), {0, 1})
        np.testing.assert_array_equal(out.to_dense(), np.diag([3.0, 2.0]))

    def test_random_back_permutation_matches_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            dense = random_sparse_spd(rng, n, density=0.4)
            s_vars = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            perm = Permutation.move_to_front(n, s_vars)
            rp = cholesky(permute_symmetric(symmetric_from_dense(dense), perm))
            # sparsify the leading rows, then permute back
            k = len(s_vars)
            rows_c = tuple(np.empty(0, dtype=np.int64) if i < k else rp.row_cols[i] for i in range(n))
            rows_v = tuple(np.empty(0) if i < k else rp.row_vals[i] for i in range(n))
            rp_s = triangular_from_rows(rp.diag, rows_c, rows_v)
            out = permute_triangular_back(rp_s, perm.inverted(), set(range(k)))
            # triangularity is guaranteed by the type; check the product
            target = permute_symmetric(rp_s.gram(), perm.inverted()).to_dense()
            np.testing.assert_allclose(out.to_dense().T @ out.to_dense(), target, rtol=1e-9, atol=1e-9)

    def test_shape_violation_when_rows_not_sparsified(self):
        r = cholesky(symmetric_from_dense([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ShapeViolation):
            permute_triangular_back(r, Permutation(np.array([1, 0])), {0})


@st.composite
def update_problems(draw):
    """``(r, u, n_new)``: the factor of a random SPD prior (dim 1-40, some zero
    entries stored), 0-3 appended variables, and update rows with stored
    zeros, exact-zero leading values and a repeated row.  Each appended
    variable has a dedicated row, nonzero on it and empty after it, which
    makes the posterior nonsingular.  One variable may lose its dedicated
    row, leaving it to the other 0-6 rows to support it or not (a repeated
    row is no support), or lose its information too: its column then holds
    only stored zeros."""
    r = cholesky(draw(spd_with_stored_zeros(max_dim=40)))
    n = r.dim
    n_new = draw(st.integers(0, 3))
    n_cols = n + n_new
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = draw(st.integers(0, 6))
    mask = rng.random((extra + n_new, n_cols)) < draw(st.sampled_from([0.1, 0.3, 0.6]))
    vals = rng.normal(size=mask.shape)
    vals *= rng.random(mask.shape) >= draw(st.sampled_from([0.0, 0.3]))
    own = (np.arange(extra, extra + n_new), np.arange(n, n_cols))
    for k, col in zip(*own):
        mask[k, col + 1:] = False
    mask[own] = True
    vals[own] = rng.normal(size=n_new) + 3.0
    if draw(st.booleans()):
        lead = np.nonzero(mask.any(axis=1))[0]
        lead_cols = mask[lead].argmax(axis=1)
        dedicated = (lead >= extra) & (lead_cols == n + lead - extra)
        vals[lead[~dedicated], lead_cols[~dedicated]] = 0.0
    if mask.shape[0] and draw(st.booleans()):
        k = draw(st.integers(0, mask.shape[0] - 1))
        mask = np.vstack([mask, mask[k]])
        vals = np.vstack([vals, vals[k]])
    loss = draw(st.sampled_from(["none", "dedicated row", "information"])) if n_new else "none"
    if loss != "none":
        var = draw(st.integers(0, n_new - 1))
        keep = np.arange(mask.shape[0]) != extra + var
        mask, vals = mask[keep], vals[keep]
        if loss == "information":
            vals[:, n + var] = 0.0
    order = rng.permutation(mask.shape[0])
    rows, cols = np.nonzero(mask[order])
    return r, SparseRowBlock.from_coo(order.size, n_cols, rows, cols, vals[order][rows, cols]), n_new


def _pattern(r: UpperTriangular) -> tuple:
    return r.upper.indptr, r.upper.indices


def _scale(r: UpperTriangular) -> float:
    return max(np.abs(r.diag).max(), np.abs(r.upper.data).max(initial=0.0))


def _assert_unreached_rows_kept(r: UpperTriangular, want: UpperTriangular, got: UpperTriangular):
    """Rows the oracle leaves as they were are bit-identical in ``got``."""
    for i in range(r.dim):
        if (want.diag[i] == r.diag[i] and np.array_equal(want.row_cols[i], r.row_cols[i])
                and np.array_equal(want.row_vals[i], r.row_vals[i])):
            assert got.diag[i] == r.diag[i]
            np.testing.assert_array_equal(got.row_cols[i], r.row_cols[i])
            np.testing.assert_array_equal(got.row_vals[i], r.row_vals[i])


def _assert_oracle_pattern(r: UpperTriangular, u: SparseRowBlock):
    """``_update_pattern`` is array-equal to ``update_pattern_oracle``."""
    got, want = _update_pattern(r, u), update_pattern_oracle(r, u)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


def arbitrary_update_problem(rng, dim, n_new, density, zero_share) -> tuple:
    """``(r, u)``: a factor with an arbitrary strictly-upper pattern, not a
    Cholesky fill, so a row's columns need not be stored in the row of its
    first column; a ``zero_share`` of its entries, a row's first one
    included, are stored zeros.  1-6 update rows over ``dim + n_new``
    columns store zeros in the same share, leading ones included."""
    row_cols, row_vals = [], []
    for i in range(dim):
        cols = np.flatnonzero(rng.random(dim - i - 1) < density).astype(np.int64) + i + 1
        row_cols.append(cols)
        row_vals.append(rng.normal(size=cols.size) * (rng.random(cols.size) >= zero_share))
    r = triangular_from_rows(rng.random(dim) + 0.5, row_cols, row_vals)
    n_rows = int(rng.integers(1, 7))
    mask = rng.random((n_rows, dim + n_new)) < density
    vals = rng.normal(size=mask.shape) * (rng.random(mask.shape) >= zero_share)
    rows, cols = np.nonzero(mask)
    return r, SparseRowBlock.from_coo(n_rows, dim + n_new, rows, cols, vals[rows, cols])


@st.composite
def arbitrary_update_problems(draw):
    """``arbitrary_update_problem`` at a drawn size, density and share of
    stored zeros."""
    return arbitrary_update_problem(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        draw(st.integers(1, 30)),
        draw(st.integers(0, 3)),
        draw(st.sampled_from([0.1, 0.3, 0.6])),
        draw(st.sampled_from([0.0, 0.2, 0.5])),
    )


def _shortcut_exceptions(r: UpperTriangular, u: SparseRowBlock) -> set:
    """Which of the cases that the pattern pass cannot take row by row the
    oracle's pattern shows: a reached row whose other columns are not all
    in the row of its first column, and a reached row whose new first
    column comes before its old one."""
    reached, indptr, indices = update_pattern_oracle(r, u)
    found = set()
    for k, t in enumerate(reached.tolist()):
        new = indices[indptr[k]:indptr[k + 1]]
        own = r.row_cols[t] if t < r.dim else new[:0]
        if own.size and not set(own[1:].tolist()) <= set(r.row_cols[own[0]].tolist()):
            found.add("not contained")
        if own.size and new[0] < own[0]:
            found.add("pivot before the first column")
    return found


@st.composite
def panel_update_problems(draw):
    """``(r, u, n_new)`` whose reached rows span several panels of the
    fold: the factor of a banded SPD prior (dim 60-200) whose every row
    links to the next, so a row reaches every factor row from its first
    nonzero column on.  That column is
    placed so that a panel edge falls between the 2-4 appended variables.
    Some factor rows store zeros, and some update rows lead with stored
    zeros, at the columns on either side of each panel edge.  As in
    ``update_problems``, each appended variable has a dedicated row, one
    may lose it or its information, and a row may be repeated."""
    n = draw(st.integers(60, 200))
    n_new = draw(st.integers(2, 4))
    n_cols = n + n_new
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bandwidth = draw(st.integers(1, 4))
    band = np.triu(rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7))
    band -= np.triu(band, bandwidth + 1)
    band[np.arange(n), np.arange(n)] = rng.normal(size=n) + 3.0
    band[np.arange(n - 1), np.arange(1, n)] = rng.normal(size=n - 1) + 3.0
    r = cholesky(symmetric_from_dense(band.T @ band + np.eye(n)))

    # the k-th panel ends between appended variables n + j - 1 and n + j
    j = draw(st.integers(1, n_new - 1))
    k = draw(st.integers(1, (n + j) // _PANEL))
    start = n + j - k * _PANEL
    edges = np.array([start + q * _PANEL + d for q in range(1, k + 1) for d in (-1, 0)])
    prior_edges = edges[edges < n]
    data = r.upper.data.copy()
    # the entry that links each row to the next stays, so the reach goes on
    link = r.upper.indices == r.upper.row_ids + 1
    data[np.isin(r.upper.indices, prior_edges) & ~link & (rng.random(data.size) < 0.5)] = 0.0
    r = UpperTriangular(r.diag, SparseRowBlock(n, n, r.upper.indptr, r.upper.indices, data))

    extra = draw(st.integers(1, 6))
    rows = extra + n_new
    mask = rng.random((rows, n_cols)) < draw(st.sampled_from([0.05, 0.2, 0.5]))
    mask[:, :start] = False
    vals = rng.normal(size=mask.shape)
    # the first row leads at ``start`` and stores one more entry every 16
    # prior columns: carried by the links alone, it can fade below the last
    # bit of a diagonal within 30 rows, and the rows after that would
    # keep their diagonals
    lead = np.arange(start, n, 16)
    mask[0, lead] = True
    vals[0, lead] = rng.normal(size=lead.size) + 3.0
    own = (np.arange(extra, rows), np.arange(n, n_cols))
    for q, col in zip(*own):
        mask[q, col + 1:] = False
    mask[own] = True
    vals[own] = rng.normal(size=n_new) + 3.0
    for q in range(1, extra):
        if draw(st.booleans()):
            edge = int(draw(st.sampled_from(edges.tolist())))
            mask[q, :edge] = False
            mask[q, edge] = True
            vals[q, edge] = 0.0
            mask[q, edge + 1:] |= rng.random(n_cols - edge - 1) < 0.3
    if draw(st.booleans()):
        q = draw(st.integers(0, rows - 1))
        mask = np.vstack([mask, mask[q]])
        vals = np.vstack([vals, vals[q]])
    loss = draw(st.sampled_from(["none", "dedicated row", "information"]))
    if loss != "none":
        var = draw(st.integers(0, n_new - 1))
        keep = np.arange(mask.shape[0]) != extra + var
        mask, vals = mask[keep], vals[keep]
        if loss == "information":
            vals[:, n + var] = 0.0
    order = rng.permutation(mask.shape[0])
    rows_i, cols_i = np.nonzero(mask[order])
    return r, SparseRowBlock.from_coo(order.size, n_cols, rows_i, cols_i, vals[order][rows_i, cols_i]), n_new


class TestLowRankUpdate:
    def test_hand_rank1(self):
        r = UpperTriangular.from_diagonal(np.ones(2))
        u = row_block_from_dense([[1.0, 1.0]])
        out = lowrank_update(r, u, 0)
        expected = np.array([[1.4142135623730951, 0.7071067811865475], [0.0, 1.224744871391589]])
        np.testing.assert_allclose(out.to_dense(), expected, rtol=1e-12)

    def test_empty_update_is_noop(self):
        r = UpperTriangular.from_diagonal(np.ones(2))
        out = lowrank_update(r, SparseRowBlock.empty(2), 0)
        np.testing.assert_array_equal(out.to_dense(), np.eye(2))

    def test_augmentation_single_new_var(self):
        r = UpperTriangular.from_diagonal([1.0])
        u = row_block_from_dense([[0.0, 1.0]], n_cols=2)
        out = lowrank_update(r, u, 1)
        np.testing.assert_allclose(out.to_dense(), np.eye(2))

    def test_appended_pivot_whose_square_overflows_is_support_without_a_warning(self):
        # warnings are errors here; the pivot-floor check squares the pivot
        r = UpperTriangular.from_diagonal([1.0])
        out = lowrank_update(r, row_block_from_dense([[0.0, 1e200]], n_cols=2), 1)
        np.testing.assert_array_equal(np.abs(out.diag), [1.0, 1e200])

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            dense = random_sparse_spd(rng, n)
            r = cholesky(symmetric_from_dense(dense))
            n_new = int(rng.integers(0, 4))
            u = random_update(rng, n, n_new, extra_rows=int(rng.integers(0, 6)))
            out = lowrank_update(r, u, n_new)
            aug = np.zeros((n + n_new, n + n_new))
            aug[:n, :n] = dense
            target = aug + u.to_dense().T @ u.to_dense()
            np.testing.assert_allclose(
                logdet_triangular(out), dense_logdet(target), rtol=1e-8, atol=1e-8
            )
            np.testing.assert_allclose(out.to_dense().T @ out.to_dense(), target, rtol=1e-8, atol=1e-8)

    def test_untouched_rows_are_shared(self):
        # rows outside the update's reach keep their entries, bit for bit
        rng = np.random.default_rng(4)
        r = cholesky(symmetric_from_dense(random_sparse_spd(rng, 6, density=0.4)))
        u = row_block_from_dense([[0.0, 0.0, 0.0, 0.0, 1.0, 1.0]])
        out = lowrank_update(r, u, 0)
        for i in range(4):
            assert out.diag[i] == r.diag[i]
            np.testing.assert_array_equal(out.row_cols[i], r.row_cols[i])
            np.testing.assert_array_equal(out.row_vals[i], r.row_vals[i])

    def test_rank_deficient_augmentation(self):
        r = UpperTriangular.from_diagonal(np.ones(2))
        u = row_block_from_dense([[1.0, 0.0, 0.0]], n_cols=3)
        with pytest.raises(RankDeficientAugmentation):
            lowrank_update(r, u, 1)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.3, 1.7, 0.9]],
            [[0.3, 1.7, 0.0, 0.9], [0.6, 0.0, 1.1, 0.4]],
            [[0.3, 1.7, 0.9], [0.3, 1.7, 0.9]],
            [[0.3, 1.7, 0.9], [-0.6, -3.4, -1.8]],
        ],
        ids=["one-row", "two-rows", "repeated-row", "scaled-row"],
    )
    def test_rows_run_out_before_the_appended_variables(self, rows):
        # each appended variable takes one row out of play; the last one finds
        # none left, however its column is filled.  A repeated or scaled row
        # is no new row: after the reflections its pivot is rounding noise
        r = UpperTriangular.from_diagonal([1.3])
        u = row_block_from_dense(rows)
        with pytest.raises(RankDeficientAugmentation):
            givens_update_oracle(r, u, u.n_cols - 1)
        with pytest.raises(RankDeficientAugmentation, match="appended variable"):
            lowrank_update(r, u, u.n_cols - 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lowrank_update(UpperTriangular.from_diagonal(np.ones(2)), SparseRowBlock.empty(4), 1)

    @settings(max_examples=300, deadline=None)
    @given(update_problems())
    def test_matches_the_givens_oracle(self, problem):
        """Same pattern, values within 1e-12 of scale, unreached rows bit for
        bit, and RankDeficientAugmentation in the same cases: where the
        oracle raises it, or leaves an appended pivot at or below the floor.

        One exception, for rows of appended variables: where the oracle's
        pattern depends on the order of the update rows, the pattern here
        is the oracle's plus entries that are zero in exact arithmetic
        (see ``test_order_independent_where_the_oracle_is_not``)."""
        r, u, n_new = problem
        _assert_oracle_pattern(r, u)
        try:
            want = givens_update_oracle(r, u, n_new)
        except RankDeficientAugmentation:
            want = None
        if want is None or np.any(want.diag[r.dim:] ** 2 <= PIVOT_FLOOR):
            with pytest.raises(RankDeficientAugmentation):
                lowrank_update(r, u, n_new)
            return
        got = lowrank_update(r, u, n_new)
        _assert_unreached_rows_kept(r, want, got)
        tol = 1e-12 * _scale(want)
        if all(map(np.array_equal, _pattern(got), _pattern(want))):
            np.testing.assert_allclose(got.diag, want.diag, rtol=0, atol=tol)
            np.testing.assert_allclose(got.upper.data, want.upper.data, rtol=0, atol=tol)
            return
        reversed_rows = row_block_from_rows(u.n_cols, u.row_cols[::-1], u.row_vals[::-1])
        assert not all(map(np.array_equal, _pattern(givens_update_oracle(r, reversed_rows, n_new)), _pattern(want)))
        extra = upper_pattern(got) - upper_pattern(want)
        assert upper_pattern(want) <= upper_pattern(got)
        assert min(i for i, _ in extra) >= r.dim
        np.testing.assert_allclose(got.to_dense(), want.to_dense(), rtol=0, atol=tol)

    @settings(max_examples=60, deadline=None)
    @given(panel_update_problems())
    def test_multi_panel_updates_match_the_givens_oracle(self, problem):
        """The contract of ``test_matches_the_givens_oracle`` on updates
        whose reached rows fill several panels, with appended variables
        and stored zeros on the panel edges."""
        r, u, n_new = problem
        _assert_oracle_pattern(r, u)
        try:
            want = givens_update_oracle(r, u, n_new)
        except RankDeficientAugmentation:
            want = None
        if want is None or np.any(want.diag[r.dim:] ** 2 <= PIVOT_FLOOR):
            with pytest.raises(RankDeficientAugmentation):
                lowrank_update(r, u, n_new)
            return
        got = lowrank_update(r, u, n_new)
        assert np.flatnonzero(want.diag != np.concatenate([r.diag, np.zeros(n_new)])).size > _PANEL
        _assert_unreached_rows_kept(r, want, got)
        tol = 1e-12 * _scale(want)
        if all(map(np.array_equal, _pattern(got), _pattern(want))):
            np.testing.assert_allclose(got.diag, want.diag, rtol=0, atol=tol)
            np.testing.assert_allclose(got.upper.data, want.upper.data, rtol=0, atol=tol)
            return
        reversed_rows = row_block_from_rows(u.n_cols, u.row_cols[::-1], u.row_vals[::-1])
        assert not all(map(np.array_equal, _pattern(givens_update_oracle(r, reversed_rows, n_new)), _pattern(want)))
        extra = upper_pattern(got) - upper_pattern(want)
        assert upper_pattern(want) <= upper_pattern(got)
        assert min(i for i, _ in extra) >= r.dim
        np.testing.assert_allclose(got.to_dense(), want.to_dense(), rtol=0, atol=tol)

    def test_order_independent_where_the_oracle_is_not(self):
        # rows 0 and 1 meet at pivot 0 and travel on to appended variables.
        # In row order the oracle folds row 0 alone (it ends at variable 2)
        # and row 1 then ends at variable 1, so no row links 2 and 3; in
        # reverse order row 0 reaches 2 through 1 and brings column 3 with it
        r = UpperTriangular.from_diagonal([1.0])
        rows = np.array([[0.7, 0.0, 1.3, 0.0], [0.4, 0.9, 0.0, 1.1], [0.0, 0.0, 0.0, 0.8]])
        forward = row_block_from_dense(rows)
        backward = row_block_from_dense(rows[::-1])
        assert givens_update_oracle(r, forward, 3).row_cols[2].size == 0
        np.testing.assert_array_equal(givens_update_oracle(r, backward, 3).row_cols[2], [3])
        for u in (forward, backward):
            got = lowrank_update(r, u, 3)
            np.testing.assert_array_equal(got.row_cols[2], [3])
            assert abs(got.row_vals[2][0]) <= 1e-15
            np.testing.assert_allclose(
                got.to_dense(), givens_update_oracle(r, forward, 3).to_dense(), rtol=0, atol=1e-15
            )

    def test_every_plan_1k_candidate_matches_the_givens_oracle(self):
        """The plan-1k prior and its uninvolved and full sparsified beliefs:
        for every candidate the same pattern, values within 1e-12 of scale
        and unreached rows bit for bit."""
        sc = _plan_1k()
        for b in _session_beliefs(sc):
            for a in sc.candidates:
                want = givens_update_oracle(b.root, a.jacobian, a.n_new_vars)
                got = lowrank_update(b.root, a.jacobian, a.n_new_vars)
                for x, y in zip(_pattern(got), _pattern(want)):
                    np.testing.assert_array_equal(x, y)
                tol = 1e-12 * _scale(want)
                np.testing.assert_allclose(got.diag, want.diag, rtol=0, atol=tol)
                np.testing.assert_allclose(got.upper.data, want.upper.data, rtol=0, atol=tol)
                _assert_unreached_rows_kept(b.root, want, got)


class TestUpdatePattern:
    """The pattern pass of ``lowrank_update`` against the set-arithmetic
    oracle, and the factor it leads to against the fold on the oracle's
    pattern."""

    @settings(max_examples=300, deadline=None)
    @given(arbitrary_update_problems())
    def test_arbitrary_factors_match_the_oracle(self, problem):
        _assert_oracle_pattern(*problem)

    def test_arbitrary_factors_reach_every_case(self):
        # the drawn problems take the pass off its row-by-row shortcut in
        # each way it can be taken off it
        rng = np.random.default_rng(3)
        found = set()
        for _ in range(200):
            r, u = arbitrary_update_problem(rng, int(rng.integers(1, 31)), int(rng.integers(0, 4)),
                                            rng.choice([0.1, 0.3, 0.6]), rng.choice([0.0, 0.2, 0.5]))
            _assert_oracle_pattern(r, u)
            found |= _shortcut_exceptions(r, u)
        assert found == {"not contained", "pivot before the first column"}

    @pytest.mark.parametrize(
        "factor, update, reached, patterns",
        [
            # row 0's column 3 is not in row 1, its first column, so row 1 gets it from row 0
            ([{1: 1.0, 3: 1.0}, {2: 1.0}, {}, {}], [{0: 1.0}], [0, 1, 2, 3], [[1, 3], [2, 3], [3], []]),
            # the update row brings column 1, before row 0's first column 2
            ([{2: 1.0}, {3: 1.0}, {}, {}], [{0: 1.0, 1: 1.0}], [0, 1, 2, 3], [[1, 2], [2, 3], [3], []]),
            # row 0 stores a zero at column 1 and the update row nothing there: a stored zero is an entry
            ([{1: 0.0, 2: 1.0}, {2: 1.0}, {}], [{0: 1.0}], [0, 1, 2], [[1, 2], [2], []]),
            # the update row stores a zero at column 1 and row 0 nothing there: a stored zero is an entry
            ([{}, {2: 1.0}, {}], [{0: 1.0, 1: 0.0, 2: 1.0}], [0, 1, 2], [[1, 2], [2], []]),
        ],
        ids=["not-contained", "pivot-before-first-column", "factor-zero-is-an-entry", "update-zero-is-an-entry"],
    )
    def test_shortcut_exceptions_by_hand(self, factor, update, reached, patterns):
        def rows(entries):
            return ([np.array(sorted(e), dtype=np.int64) for e in entries],
                    [np.array([e[c] for c in sorted(e)]) for e in entries])

        n = len(factor)
        r = triangular_from_rows(np.ones(n), *rows(factor))
        u = row_block_from_rows(n, *rows(update))
        got_reached, indptr, indices = _update_pattern(r, u)
        assert got_reached.tolist() == reached
        assert [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] == patterns
        _assert_oracle_pattern(r, u)

    def test_every_scenario_candidate_matches_the_oracle(self):
        """The tiny scenario, plan-1k and the 8 batch-small configurations:
        the prior and its uninvolved and full sparsified beliefs, every
        candidate."""
        scenarios = [scenario_from_json(TINY.read_text()), _plan_1k()]
        scenarios += [generate(c) for c in batch_small_configs()]
        for sc in scenarios:
            for b in _session_beliefs(sc):
                for a in sc.candidates:
                    _assert_oracle_pattern(b.root, a.jacobian)

    def test_scenario_factors_that_store_zeros_match_the_oracle(self):
        """The tiny scenario and ``test_scenario.SMALL``: the prior and its
        uninvolved and full sparsified beliefs, every candidate.  Cholesky
        leaves exact zeros in the fill of both priors and of the tiny
        uninvolved belief, so stored zeros reach the pattern pass here as
        they do in every session."""
        stored_zeros = []
        for sc in (scenario_from_json(TINY.read_text()), generate(SMALL)):
            for b in _session_beliefs(sc):
                stored_zeros.append(int(np.count_nonzero(b.root.upper.data == 0.0)))
                for a in sc.candidates:
                    _assert_oracle_pattern(b.root, a.jacobian)
        assert stored_zeros[0] and stored_zeros[1] and stored_zeros[3]

    def test_factor_is_the_fold_on_the_oracle_pattern_bit_for_bit(self):
        """plan-1k and the 8 batch-small configurations: ``lowrank_update``
        is the same fold and splice on the oracle's pattern, bit for bit."""
        for sc in [_plan_1k()] + [generate(c) for c in batch_small_configs()]:
            for b in _session_beliefs(sc):
                for a in sc.candidates:
                    got = lowrank_update(b.root, a.jacobian, a.n_new_vars)
                    want = fold_on_oracle_pattern(b.root, a.jacobian, a.n_new_vars)
                    for x, y in ((got.diag, want.diag), (got.upper.indptr, want.upper.indptr),
                                 (got.upper.indices, want.upper.indices), (got.upper.data, want.upper.data)):
                        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.fixture
def panels(monkeypatch):
    """Every panel the fold hands to ``dtpqrt``, as copies of its triangle
    and its stacked rows in the pivot columns, taken before the call."""
    seen = []
    real = sparse.lapack.dtpqrt

    def spy(l, nb, a, b, **kwargs):
        seen.append((a.copy(), b.copy()))
        return real(l, nb, a, b, **kwargs)

    monkeypatch.setattr(sparse.lapack, "dtpqrt", spy)
    return seen


def _banded_factor(n: int, bandwidth: int, seed: int) -> UpperTriangular:
    rng = np.random.default_rng(seed)
    band = np.triu(rng.normal(size=(n, n)))
    band -= np.triu(band, bandwidth + 1)
    band[np.arange(n), np.arange(n)] = rng.normal(size=n) + 3.0
    return cholesky(symmetric_from_dense(band.T @ band + np.eye(n)))


def _assert_matches(r: UpperTriangular, want: UpperTriangular, got: UpperTriangular):
    """The oracle's pattern, every stored entry within 1e-12 of the
    factor's scale, and the rows the oracle leaves alone bit for bit."""
    for x, y in zip(_pattern(got), _pattern(want)):
        np.testing.assert_array_equal(x, y)
    tol = 1e-12 * _scale(want)
    np.testing.assert_allclose(got.diag, want.diag, rtol=0, atol=tol)
    np.testing.assert_allclose(got.upper.data, want.upper.data, rtol=0, atol=tol)
    _assert_unreached_rows_kept(r, want, got)


def _rows(n_cols: int, *rows) -> SparseRowBlock:
    """Update rows given as ``{column: value}``, a stored zero included."""
    return row_block_from_rows(n_cols, [np.array(sorted(row), dtype=np.int64) for row in rows],
                               [np.array([row[c] for c in sorted(row)], dtype=np.float64) for row in rows])


class TestFoldShapes:
    """``_fold`` at the shapes that its triangular-pentagonal panel QR
    treats specially, through ``lowrank_update`` against
    ``givens_update_oracle`` and ``sparsify_factor`` against
    ``sparsify_oracle``."""

    def test_appended_variables_are_zero_rows_of_the_triangle(self, panels):
        r = _banded_factor(20, 3, seed=1)
        u = _rows(23, {5: 0.7, 12: -1.1, 20: 2.0}, {18: 0.3, 21: 1.5, 22: -0.4}, {22: 2.5}, {3: 0.2, 19: -0.9})
        _assert_matches(r, givens_update_oracle(r, u, 3), lowrank_update(r, u, 3))
        assert any((np.diagonal(tri) == 0.0).any() for tri, _ in panels)

    @pytest.mark.parametrize("selected", [
        np.arange(40, 46),  # one panel: six selected pivots, then the rows that moved
        np.arange(10, 90, 2),  # forty selected pivots and the moved rows between them: three panels
    ])
    def test_moved_rows_are_zero_rows_of_the_triangle(self, panels, selected):
        r = _banded_factor(100, 4, seed=2)
        mask = np.zeros(r.dim, dtype=bool)
        mask[selected] = True
        _assert_matches(r, sparsify_oracle(r, mask), sparsify_factor(r, mask))
        assert any((np.diagonal(tri) == 0.0).any() for tri, _ in panels)

    def test_a_panel_without_stacked_rows_is_left_as_it_is(self, panels):
        # the first row stores only zeros, so it reaches pivot 100 but is cut
        # after the first panel; the second runs out at pivot 63.  The third
        # panel, pivot 100 alone, has no stacked rows: no LAPACK call
        r = UpperTriangular.from_diagonal(np.random.default_rng(3).random(120) + 0.5)
        u = _rows(120, {0: 0.0, 100: 0.0}, {c: 0.1 * c - 2.0 for c in range(1, 64)})
        got = lowrank_update(r, u)
        _assert_matches(r, givens_update_oracle(r, u), got)
        assert len(panels) == 2 and got.diag[100] == r.diag[100]
        np.testing.assert_array_equal(got.row_cols[0], [100])

    def test_stacked_row_whose_lead_lies_beyond_the_panel(self, panels):
        # the first row travels from pivot 0 over column 100 alone, through the
        # second panel (pivots 32-63) without an entry in its pivot columns
        r = UpperTriangular.from_diagonal(np.random.default_rng(4).random(120) + 0.5)
        u = _rows(120, {0: 1.3, 100: -0.8}, {c: 1.0 + 0.01 * c for c in range(1, 71)})
        _assert_matches(r, givens_update_oracle(r, u), lowrank_update(r, u))
        assert len(panels) > 2 and not panels[1][1].any(axis=1).all()

    def test_last_panel_shorter_than_the_panel_width(self, panels):
        r = _banded_factor(80, 3, seed=5)
        u = _rows(82, {c: np.sin(c) for c in range(5, 82, 3)}, {80: 1.0}, {81: 2.0, 40: 0.5})
        _assert_matches(r, givens_update_oracle(r, u, 2), lowrank_update(r, u, 2))
        widths = [tri.shape[0] for tri, _ in panels]
        assert len(widths) > 1 and widths[:-1] == [_PANEL] * (len(widths) - 1) and widths[-1] < _PANEL

    def test_a_listed_column_that_no_row_of_the_panel_stores_reads_zero(self):
        # not a Cholesky fill: row 1 lacks column 2, which row 0 links it to.
        # Selecting scalar 3 moves row 1 and refolds it alone; its re-factored
        # pattern gains column 2, which no row of its panel stores, and the
        # value there is zero in exact arithmetic
        r = triangular_from_dense([[1.445, -0.193, -0.203, 0.0], [0.0, 0.581, 0.0, -0.048],
                                   [0.0, 0.0, 1.337, 0.0], [0.0, 0.0, 0.0, 1.487]])
        selected = np.array([False, False, False, True])
        got = sparsify_factor(r, selected)
        _assert_matches(r, sparsify_oracle(r, selected), got)
        np.testing.assert_array_equal(got.row_cols[1], [2])
        assert got.row_vals[1][0] == 0.0

    @pytest.mark.parametrize("routine", ["dtpqrt", "dtpmqrt"])
    def test_lapack_working_on_a_copy_is_refused(self, monkeypatch, routine):
        real = getattr(sparse.lapack, routine)

        def on_a_copy(l, *args, **kwargs):
            *before, a, b = args
            return real(l, *before, a.copy(order="F"), b, **kwargs)

        monkeypatch.setattr(sparse.lapack, routine, on_a_copy)
        r = _banded_factor(40, 3, seed=6)
        # 38 reached rows take the planned panels; 11 take the one-panel fold,
        # whose row runs out at appended variable 40 and leaves column 41 to dtpmqrt
        for u, n_new in [(_rows(40, {c: 1.0 for c in range(2, 40, 5)}), 0),
                         (_rows(42, {30: 1.0, 35: 1.0, 40: 1.0, 41: 1.0}), 2)]:
            with pytest.raises(RuntimeError, match="LAPACK worked on a copy of the panel, not in place"):
                lowrank_update(r, u, n_new)


def _same_bits(got, want):
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _factor_arrays(r: UpperTriangular) -> tuple:
    return r.diag, r.upper.indptr, r.upper.indices, r.upper.data


def _folds_agree(r: UpperTriangular, u: SparseRowBlock, n_new: int):
    """On ``lowrank_update``'s pattern: ``_fold`` (the one-panel fold for at
    most ``_PANEL`` reached rows) equals the planned ``_fold_panels`` bit
    for bit, and the per-row merge equals the key-sort merge."""
    walk = sparse._update_walk(r, u)
    by_row = sparse._merge_by_row(r, *walk)
    _same_bits(by_row, sparse._merge_by_keys(r, u.n_cols, *walk))
    pivots, p_indptr, p_indices = by_row
    nd = r.dim + n_new
    diag = np.zeros(nd)
    diag[: r.dim] = r.diag
    _same_bits(sparse._fold(diag, r.upper, u, pivots, None, p_indptr, p_indices),
               sparse._fold_panels(diag, r.upper, u, pivots, np.arange(nd), p_indptr, p_indices))
    return pivots.size


def _update_is_the_reference(r: UpperTriangular, u: SparseRowBlock, n_new: int):
    """``lowrank_update`` equals ``fold_on_oracle_pattern`` (the planned fold
    and a splice by whole-entry masks) bit for bit, or it refuses where the
    reference leaves an appended pivot at or below the floor."""
    try:
        got = lowrank_update(r, u, n_new)
    except RankDeficientAugmentation:
        try:
            want = fold_on_oracle_pattern(r, u, n_new)
        except ValueError:  # a zero pivot
            return
        with np.errstate(over="ignore"):
            assert (want.diag[r.dim:] ** 2 <= PIVOT_FLOOR).any()
        return
    _same_bits(_factor_arrays(got), _factor_arrays(fold_on_oracle_pattern(r, u, n_new)))


class TestFastPaths:
    """The one-panel fold, the per-row merge and the range splice against
    the planned fold, the key-sort merge and the splice by masks, bit for
    bit."""

    @settings(max_examples=200, deadline=None)
    @given(update_problems())
    def test_updates_of_cholesky_factors(self, problem):
        _folds_agree(*problem)
        _update_is_the_reference(*problem)

    @settings(max_examples=200, deadline=None)
    @given(arbitrary_update_problems())
    def test_updates_of_arbitrary_factors_with_empty_rows_and_stored_zeros(self, problem):
        r, u = problem
        n_new = u.n_cols - r.dim
        _folds_agree(r, u, n_new)
        _update_is_the_reference(r, u, n_new)

    def test_the_drawn_problems_reach_both_sides_of_the_panel_width(self):
        rng = np.random.default_rng(5)
        sizes = set()
        for _ in range(300):
            dim, n_new = int(rng.integers(1, 41)), int(rng.integers(0, 4))
            r, u = arbitrary_update_problem(rng, dim, n_new, rng.choice([0.1, 0.3, 0.6]), rng.choice([0.0, 0.2, 0.5]))
            sizes.add(_folds_agree(r, u, n_new))
        assert {0, 1, _PANEL, _PANEL + 1} <= sizes

    @pytest.mark.parametrize("reached, n_new", [
        (1, 0), (1, 1), (_PANEL, 0), (_PANEL, 2), (_PANEL + 1, 0), (_PANEL + 1, 2),
    ])
    def test_pivot_counts_at_the_panel_width(self, panels, reached, n_new):
        # the banded factor links every row to the next, so an update row
        # from column 60 - m on reaches the last m rows, then the appended
        # ones, each of which has a row of its own
        r = _banded_factor(60, 2, seed=7)
        m = reached - n_new
        appended = {60 + j: 2.0 + j for j in range(n_new)}
        own = [{60 + j: 1.5, 60 + n_new - 1: 0.3} for j in range(n_new)]
        u = _rows(60 + n_new, *([{60 - m: 1.1, 59: 0.0, **appended}] if m else []), *own)
        assert _folds_agree(r, u, n_new) == reached
        _update_is_the_reference(r, u, n_new)
        panels.clear()
        lowrank_update(r, u, n_new)
        assert len(panels) == (1 if reached <= _PANEL else 2)

    def test_a_fold_without_stacked_rows(self):
        r = _banded_factor(30, 3, seed=8)
        pivots = np.arange(4, 20)
        counts, at = sparse._rows_at(r.upper.indptr, pivots)
        p_indptr = np.concatenate(([0], counts.cumsum()))
        u = SparseRowBlock.empty(30, 2)
        got = sparse._fold(r.diag, r.upper, u, pivots, None, p_indptr, r.upper.indices[at])
        _same_bits(got, sparse._fold_panels(r.diag, r.upper, u, pivots, np.arange(30), p_indptr, r.upper.indices[at]))
        _same_bits(got, (r.diag[pivots], r.upper.data[at]))

    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_an_empty_update_reaches_no_row(self, n_rows):
        r = _banded_factor(30, 3, seed=9)
        u = SparseRowBlock.empty(30, n_rows)
        assert _folds_agree(r, u, 0) == 0
        got = lowrank_update(r, u)
        _same_bits(_factor_arrays(got), _factor_arrays(r))
        _update_is_the_reference(r, u, 0)

    def test_a_sparsify_fold_of_one_panel_under_a_permuted_order(self, monkeypatch):
        r = _banded_factor(100, 4, seed=2)
        mask = np.zeros(r.dim, dtype=bool)
        mask[40:46] = True
        want = sparsify_factor(r, mask)
        seen = []

        def planned(diag, upper, u, pivots, rank, out_indptr, out_indices):
            seen.append(pivots.size)
            assert rank is not None and not np.array_equal(rank, np.arange(rank.size))
            return sparse._fold_panels(diag, upper, u, pivots, rank, out_indptr, out_indices)

        monkeypatch.setattr(sparse, "_fold", planned)
        _same_bits(_factor_arrays(sparsify_factor(r, mask)), _factor_arrays(want))
        assert len(seen) == 1 and seen[0] <= _PANEL

    def test_a_new_factor_keeps_no_entry_sized_row_ids(self):
        r = _banded_factor(60, 3, seed=10)
        got = lowrank_update(r, _rows(60, {40: 1.0, 50: 2.0}))
        assert "row_ids" not in vars(got.upper)


def chain_skyline_problem(rng, dim, n_new, reach, density, zero_share, carried) -> tuple:
    """``(r, u)``: a chain skyline factor, column ``j`` storing rows
    ``head[j] .. j - 1`` with ``head[j]`` in ``j - reach .. j - 1``, a
    ``zero_share`` of its entries stored zeros; 1-6 update rows over
    ``dim + n_new`` columns, each from a random first column on, zeros
    stored in the same share.  With ``carried``, each appended variable
    also has a row that links it to the column before it, as a new pose's
    odometry does, so the appended variables stay a chain."""
    heads = [0] + [int(rng.integers(max(0, j - reach), j)) for j in range(1, dim)]
    rows = [i for j, h in enumerate(heads) for i in range(h, j)]
    cols = [j for j, h in enumerate(heads) for _ in range(h, j)]
    vals = rng.normal(size=len(rows)) * (rng.random(len(rows)) >= zero_share)
    r = UpperTriangular(rng.random(dim) + 0.5, SparseRowBlock.from_coo(dim, dim, rows, cols, vals))
    n_cols = dim + n_new
    mask = rng.random((int(rng.integers(1, 7)), n_cols)) < density
    mask &= np.arange(n_cols) >= rng.integers(0, n_cols, size=(mask.shape[0], 1))
    if carried:
        links = np.zeros((n_new, n_cols), dtype=bool)
        links[np.arange(n_new), np.arange(dim - 1, n_cols - 1)] = True
        links[np.arange(n_new), np.arange(dim, n_cols)] = True
        mask = np.vstack([mask, links])
    data = rng.normal(size=mask.shape) * (rng.random(mask.shape) >= zero_share)
    at = np.nonzero(mask)
    return r, SparseRowBlock.from_coo(mask.shape[0], n_cols, *at, data[at])


@st.composite
def chain_skyline_problems(draw):
    """``(r, u, n_new)`` of ``chain_skyline_problem`` at a drawn size,
    reach, density and share of stored zeros, with or without the rows
    that carry the appended variables."""
    n_new = draw(st.integers(0, 4))
    r, u = chain_skyline_problem(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        draw(st.integers(1, 40)),
        n_new,
        draw(st.integers(1, 8)),
        draw(st.sampled_from([0.05, 0.15, 0.4])),
        draw(st.sampled_from([0.0, 0.2, 0.5])),
        draw(st.booleans()),
    )
    return r, u, n_new


def _outcome(r: UpperTriangular, u: SparseRowBlock, n_new: int):
    """``lowrank_update``'s four arrays, or its refusal's type and message."""
    try:
        return _factor_arrays(lowrank_update(r, u, n_new))
    except RankDeficientAugmentation as e:
        return type(e), str(e), e.index


def _heads_agree(r: UpperTriangular, u: SparseRowBlock, n_new: int) -> bool:
    """Where ``_heads_pattern`` reads the pattern, it is the walk and merges'
    (``_update_pattern``) bit for bit, with the rows before the first
    reached one as they were; and ``lowrank_update`` equals itself with the
    heads path turned off, bit for bit or by the same refusal.  Returns
    whether the heads path was taken."""
    heads = sparse._heads_pattern(r, u, r.dim + n_new)
    if heads is not None:
        ends, indptr, indices = heads
        start = int(ends[0])
        a = indptr[start]
        _same_bits((ends[:-1], indptr[ends] - a, indices[a:]), _update_pattern(r, u))
        kept = min(start, r.dim) + 1
        _same_bits((indptr[:kept], indices[:a]), (r.upper.indptr[:kept], r.upper.indices[:a]))
    got = _outcome(r, u, n_new)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "_heads_pattern", lambda *args: None)
        want = _outcome(r, u, n_new)
    if isinstance(want[0], type):
        assert got == want
    else:
        _same_bits(got, want)
    return heads is not None


def _head_moves(r: UpperTriangular, u: SparseRowBlock) -> set:
    """Which columns' heads an update moves up, by a loop over its rows:
    a factor column's (``"old column"``) or an appended one's."""
    head = r._chain_heads[0]
    found = set()
    for cols in u.row_cols:
        for c in cols[1:].tolist():
            if c >= r.dim:
                found.add("appended column")
            elif cols[0] < head[c]:
                found.add("old column")
    return found


@pytest.fixture
def walks(monkeypatch):
    """A count of the calls of ``_update_walk``, the general pattern pass."""
    calls = []
    real = sparse._update_walk

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(sparse, "_update_walk", counted)
    return calls


class TestHeadsPath:
    """``lowrank_update`` on a chain-skyline factor reads its pattern from
    the column heads (``_heads_pattern``): the same pattern and the same
    factor as the walk and merges, bit for bit.  Factors that are no chain
    skyline take the walk and agree with the reference."""

    @settings(max_examples=300, deadline=None)
    @given(chain_skyline_problems())
    def test_drawn_chain_skylines_agree_with_the_walk(self, problem):
        assert problem[0]._chain_heads is not None
        _heads_agree(*problem)

    def test_the_drawn_problems_reach_every_case(self):
        # the heads path is taken with old and appended columns' heads
        # moving up, and declined both for updates that factor and for
        # updates that are refused
        rng = np.random.default_rng(11)
        taken, declined = set(), set()
        for _ in range(600):
            n_new = int(rng.integers(0, 5))
            r, u = chain_skyline_problem(rng, int(rng.integers(1, 41)), n_new, int(rng.integers(1, 9)),
                                         rng.choice([0.05, 0.15, 0.4]), rng.choice([0.0, 0.2, 0.5]),
                                         bool(rng.integers(0, 2)))
            if _heads_agree(r, u, n_new):
                taken |= _head_moves(r, u)
            elif u.nnz:
                declined.add("refused" if isinstance(_outcome(r, u, n_new)[0], type) else "factored")
        assert taken == {"old column", "appended column"}
        assert declined == {"refused", "factored"}

    @pytest.mark.parametrize("update, patterns", [
        # appended 1 takes the only row that reaches it, so none carries 3
        # on to row 2: the rule's head'[3] = 1 would store (2, 3)
        ([{1: 1.0, 2: 0.5, 3: 0.3}, {2: 1.0}, {3: 1.0}], [[2, 3], [], []]),
        # no row that reaches appended 1 stores 2, so row 1 does not lead
        # to row 2: the rule's head'[3] = 0 would store (2, 3)
        ([{0: 1.0, 1: 0.5, 3: 0.3}, {0: 1.0, 1: 0.2}, {2: 1.0}, {3: 1.0}], [[1, 3], [3], [], []]),
    ], ids=["rows used up", "chain broken"])
    def test_appended_variables_off_the_chain_take_the_walk(self, update, patterns):
        r = UpperTriangular.from_diagonal([2.0])
        u = _rows(4, *update)
        assert r._chain_heads is not None and sparse._heads_pattern(r, u, 4) is None
        reached, indptr, indices = _update_pattern(r, u)
        assert [indices[a:b].tolist() for a, b in zip(indptr[:-1], indptr[1:])] == patterns
        _heads_agree(r, u, 3)

    def test_every_benchmark_candidate_takes_the_heads_path(self, walks):
        """plan-1k and the 8 batch-small configurations: every original-mode
        candidate, pattern and factor, bit for bit."""
        for sc in [_plan_1k()] + [generate(c) for c in batch_small_configs()]:
            assert sc.prior.root._chain_heads is not None
            for a in sc.candidates:
                assert _heads_agree(sc.prior.root, a.jacobian, a.n_new_vars)
                walks.clear()
                lowrank_update(sc.prior.root, a.jacobian, a.n_new_vars)
                assert not walks

    def test_a_diagonal_factor_takes_the_walk(self, walks):
        sc = _plan_1k()
        full = _session_beliefs(sc)[2].root
        assert full.upper.nnz == 0 and full._chain_heads is None
        for a in sc.candidates:
            assert sparse._heads_pattern(full, a.jacobian, full.dim + a.n_new_vars) is None
            _update_is_the_reference(full, a.jacobian, a.n_new_vars)
        assert walks

    @pytest.mark.parametrize("hole", ["empty column", "missing link"])
    def test_a_skyline_without_one_link_takes_the_walk(self, walks, hole):
        heads = [0] + [max(0, j - 3) for j in range(1, 30)]
        if hole == "empty column":
            heads[17] = 17  # row 16 stores nothing at 17: a skyline, no chain
            r = _skyline(heads)
        else:
            # column 17 keeps rows 14 and 15 but not 16: neither
            r = _skyline(heads)
            keep = ~((r.upper.row_ids == 16) & (r.upper.indices == 17))
            counts = np.bincount(r.upper.row_ids[keep], minlength=30)
            r = UpperTriangular(r.diag, SparseRowBlock(30, 30, np.concatenate(([0], counts.cumsum())),
                                                      r.upper.indices[keep], r.upper.data[keep]))
        assert r._chain_heads is None
        u = _rows(32, {3: 1.0, 20: 0.5, 30: 1.0}, {29: 1.0, 30: 0.2, 31: 1.5}, {31: 2.0})
        assert sparse._heads_pattern(r, u, 32) is None
        _update_is_the_reference(r, u, 2)
        assert walks

    def test_a_prior_at_heading_zero_takes_the_walk(self, walks):
        # at heading 0.0 the whitened prior rows hold exact zeros, which are
        # not stored, so the prior's elimination tree is no chain
        doc = json.loads(scenario_to_json(_plan_1k()))
        doc["poses"][0][2] = 0.0
        sc = scenario_from_json(json.dumps(doc))
        assert sc.prior.root._chain_heads is None
        for a in sc.candidates:
            assert sparse._heads_pattern(sc.prior.root, a.jacobian, sc.prior.dim + a.n_new_vars) is None
            _update_is_the_reference(sc.prior.root, a.jacobian, a.n_new_vars)
        assert walks

    def test_an_uninvolved_factor_takes_the_kept_chain(self, walks):
        """plan-1k and the 8 batch-small configurations: an uninvolved-mode
        factor has empty rows, but its active scalars, the kept ones, are a
        chain skyline, and every candidate update takes the heads path on
        the factor, with no walk, the same pattern as the walk and equal to
        the reference bit for bit."""
        for sc in [_plan_1k()] + [generate(c) for c in batch_small_configs()]:
            uninvolved = _session_beliefs(sc)[1].root
            _, active = uninvolved._chain_heads
            assert 0 < active.sum() < uninvolved.dim
            for a in sc.candidates:
                assert _heads_agree(uninvolved, a.jacobian, a.n_new_vars)
                walks.clear()
                _update_is_the_reference(uninvolved, a.jacobian, a.n_new_vars)
                assert not walks

    def test_an_uninvolved_update_builds_one_row_block(self, monkeypatch):
        # plan-1k and the 8 batch-small configurations: after a first update
        # has worked out the factor's heads, each candidate's update builds
        # one CSR block, the new factor's, and validates nothing else
        built = []
        real = SparseRowBlock.__post_init__
        monkeypatch.setattr(SparseRowBlock, "__post_init__", lambda self: built.append(1) or real(self))
        for sc in [_plan_1k()] + [generate(c) for c in batch_small_configs()]:
            uninvolved = _session_beliefs(sc)[1].root
            lowrank_update(uninvolved, sc.candidates[0].jacobian, sc.candidates[0].n_new_vars)
            for a in sc.candidates:
                built.clear()
                lowrank_update(uninvolved, a.jacobian, a.n_new_vars)
                assert len(built) == 1

    def test_an_update_that_stores_a_cut_column_takes_the_walk(self, walks):
        # custom mode cuts an involved block too; the candidates that store
        # its columns leave the kept chain and walk, the others do not
        sc = _plan_1k()
        mask = detect_involvement(sc.prior.layout, sc.candidates)
        block = min(mask.involved_blocks, key=lambda b: sum(b in per for per in mask.per_candidate))
        spec = SparsificationSpec.custom(mask.never_involved(sc.prior.layout) | {block})
        custom = sparsify_belief(sc.prior, spec, mask).root
        assert custom._chain_heads is not None
        cut = [block in per for per in mask.per_candidate]
        assert any(cut) and not all(cut)
        for a, stores_cut in zip(sc.candidates, cut):
            walks.clear()
            assert (sparse._heads_pattern(custom, a.jacobian, custom.dim + a.n_new_vars) is None) == stores_cut
            _update_is_the_reference(custom, a.jacobian, a.n_new_vars)
            assert bool(walks) == stores_cut


def spread_over_empty_rows(rng, r: UpperTriangular, u: SparseRowBlock, extra: int) -> tuple:
    """``(r, u)`` moved onto ``r.dim + extra`` scalars: the factor's scalars
    at drawn places in order, the ``extra`` others between them with a
    diagonal alone (an empty row and column), and the update's appended
    columns after all of them.  Returns the spread factor, its update and
    the places of ``r``'s scalars."""
    m = r.dim
    n = m + extra
    kept = np.sort(rng.choice(n, size=m, replace=False))
    diag = rng.random(n) + 0.5
    diag[kept] = r.diag
    o = r.upper
    spread = UpperTriangular(diag, SparseRowBlock.from_coo(n, n, kept[o.row_ids], kept[o.indices], o.data))
    to = np.concatenate([kept, np.arange(n, n + u.n_cols - m)])
    return spread, SparseRowBlock(u.n_rows, u.n_cols + extra, u.indptr, to[u.indices], u.data), kept


@st.composite
def kept_chain_problems(draw):
    """``chain_skyline_problems`` spread over 0-20 empty rows
    (``spread_over_empty_rows``): ``(r, u, n_new, chain, kept)``, ``chain``
    being the factor before the spread."""
    chain, u, n_new = draw(chain_skyline_problems())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r, u, kept = spread_over_empty_rows(rng, chain, u, draw(st.integers(0, 20)))
    return r, u, n_new, chain, kept


@st.composite
def storeless_problems(draw):
    """``(r, u, k)``: a diagonal factor and 1-6 update rows that store ``k``
    distinct columns in all, ``k`` one, ``_PANEL`` or ``_PANEL + 1``, with
    a drawn share of stored zeros.  On a factor that stores nothing every
    column an update row stores is reached, so ``k`` rows are."""
    k = draw(st.sampled_from([1, _PANEL, _PANEL + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = k + draw(st.integers(0, 30))
    cols = np.sort(rng.choice(dim, size=k, replace=False))
    n_rows = draw(st.integers(1, 6))
    mask = rng.random((n_rows, k)) < draw(st.sampled_from([0.1, 0.4, 0.8]))
    mask[rng.integers(0, n_rows, size=k), np.arange(k)] = True
    vals = rng.normal(size=mask.shape) * (rng.random(mask.shape) >= draw(st.sampled_from([0.0, 0.3])))
    rows, at = mask.nonzero()
    r = UpperTriangular.from_diagonal(rng.random(dim) + 0.5)
    return r, SparseRowBlock.from_coo(n_rows, dim, rows, cols[at], vals[rows, at]), k


def _walk_outcome(r: UpperTriangular, u: SparseRowBlock, n_new: int):
    """``_outcome`` with the heads path turned off: the walk and merges."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sparse, "_heads_pattern", lambda *args: None)
        return _outcome(r, u, n_new)


class TestKeptChain:
    """``lowrank_update`` on a factor whose active scalars (nonempty rows
    and stored columns), its kept chain, are a chain skyline runs the heads
    path on the factor as it is (``UpperTriangular._chain_heads``), and on a
    factor that stores nothing builds the new factor from the pattern
    alone: both equal the reference, and the walk, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(kept_chain_problems())
    def test_chain_skylines_with_empty_rows_are_the_reference(self, problem):
        r, u, n_new, chain, kept = problem
        found = r._chain_heads
        if chain.upper.nnz:
            # the chain's heads at its scalars' places, each other scalar its own head
            head = np.arange(r.dim)
            head[kept] = kept[chain._chain_heads[0]]
            _same_bits((found[1].nonzero()[0], found[0]), (kept, head))
        else:
            # one scalar, spread over empty rows or not
            assert (found is not None) == (r.dim == 1)
        _update_is_the_reference(r, u, n_new)
        _heads_agree(r, u, n_new)

    def test_the_drawn_problems_take_the_kept_chain_and_leave_it(self, walks):
        # with empty rows between the chain's scalars, updates that move old
        # and appended columns' heads take the kept chain; others walk
        rng = np.random.default_rng(12)
        taken, declined = set(), 0
        for _ in range(300):
            n_new = int(rng.integers(0, 5))
            chain, u = chain_skyline_problem(rng, int(rng.integers(2, 41)), n_new, int(rng.integers(1, 9)),
                                             rng.choice([0.05, 0.15, 0.4]), rng.choice([0.0, 0.2, 0.5]),
                                             bool(rng.integers(0, 2)))
            r, spread, _ = spread_over_empty_rows(rng, chain, u, int(rng.integers(1, 21)))
            walks.clear()
            _update_is_the_reference(r, spread, n_new)
            if walks:
                declined += spread.nnz > 0
            else:
                taken |= _head_moves(chain, u)
        assert taken == {"old column", "appended column"} and declined

    @settings(max_examples=100, deadline=None)
    @given(kept_chain_problems())
    def test_an_unsupported_appended_variable_is_named_in_the_full_space(self, problem):
        # the update's old columns, one appended variable and a row that
        # stores it only as a zero: its pivot stays 0
        r, u, _, chain, kept = problem
        n = r.dim
        old = u.indices < n
        rows = np.concatenate([u.row_ids[old], [u.n_rows, u.n_rows]])
        first = int(kept[np.random.default_rng(n).integers(0, kept.size)])
        cols = np.concatenate([u.indices[old], [first, n]])
        u = SparseRowBlock.from_coo(u.n_rows + 1, n + 1, rows, cols, np.concatenate([u.data[old], [1.0, 0.0]]))
        if chain.upper.nnz:
            assert sparse._heads_pattern(r, u, n + 1) is not None
        with pytest.raises(RankDeficientAugmentation) as caught:
            lowrank_update(r, u, 1)
        assert caught.value.index == n
        assert str(caught.value) == f"appended variable {n} has no supporting row (pivot at or below 1e-12)"
        assert _walk_outcome(r, u, 1) == (RankDeficientAugmentation, str(caught.value), n)

    @settings(max_examples=150, deadline=None)
    @given(storeless_problems())
    def test_storeless_factors_at_the_panel_width(self, problem):
        r, u, k = problem
        assert _folds_agree(r, u, 0) == k
        _update_is_the_reference(r, u, 0)

    def test_a_storeless_factor_keeps_no_chain(self):
        assert UpperTriangular.from_diagonal(np.arange(1.0, 6.0))._chain_heads is None
        # but one scalar is a chain of one
        assert UpperTriangular.from_diagonal([2.0])._chain_heads is not None


def _plan_1k():
    return generate(ScenarioConfig(seed=1, n_prior_poses=340, n_candidates=16, candidate_length=5))


def _session_beliefs(sc) -> list:
    """The prior and its uninvolved and full sparsified beliefs."""
    mask = detect_involvement(sc.prior.layout, sc.candidates)
    return [sc.prior] + [
        sparsify_belief(sc.prior, spec, mask) for spec in (SparsificationSpec.uninvolved(), SparsificationSpec.full())
    ]


class TestLogDet:
    def test_diagonal(self):
        r = UpperTriangular.from_diagonal([1.0, 2.0, 3.0])
        np.testing.assert_allclose(logdet_triangular(r), 3.58351893845611, rtol=1e-12)

    def test_identity(self):
        assert logdet_triangular(UpperTriangular.from_diagonal(np.ones(7))) == 0.0

    def test_computed_once_per_factor(self):
        r = cholesky(symmetric_from_dense([[2.0, 1.0], [1.0, 2.0]]))
        assert "logdet" not in vars(r)
        assert logdet_triangular(r) == r.logdet == float(2.0 * np.sum(np.log(r.diag)))
        assert vars(r)["logdet"] is r.logdet

    def test_factor_of_2x2(self):
        r = cholesky(symmetric_from_dense([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(logdet_triangular(r), 1.0986122886681098, rtol=1e-12)

    def test_oracle_values(self):
        m = symmetric_from_dense([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(dense_logdet_oracle(m), 1.0986122886681098, rtol=1e-12)
        assert dense_logdet_oracle(symmetric_diagonal(np.ones(4))) == 0.0
        np.testing.assert_allclose(dense_logdet_oracle(symmetric_diagonal([2.0, 2.0])), 2 * np.log(2.0))
        with pytest.raises(NotPositiveDefinite):
            dense_logdet_oracle(symmetric_from_dense([[1.0, 2.0], [2.0, 1.0]]))


class TestTypes:
    def test_symmetric_rejects_lower_entries(self):
        with pytest.raises(ValueError):
            SparseSymmetric(SparseRowBlock(2, 2, [0, 0, 1], [0], [1.0]))

    def test_symmetric_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseSymmetric(SparseRowBlock(2, 2, [0, 2, 2], [1, 1], [1.0, 2.0]))

    def test_symmetric_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseSymmetric(SparseRowBlock(2, 2, [0, 1, 1], [1], [np.nan]))

    def test_symmetric_rejects_non_square_block(self):
        with pytest.raises(ValueError):
            SparseSymmetric(SparseRowBlock(1, 2, [0, 1], [1], [1.0]))

    def test_triangular_requires_positive_diagonal(self):
        with pytest.raises(ValueError):
            UpperTriangular.from_diagonal([1.0, 0.0])

    def test_triangular_rejects_subdiagonal(self):
        with pytest.raises(ValueError):
            triangular_from_rows([1.0, 1.0], (np.array([0]), np.array([], dtype=np.int64)),
                                      (np.array([1.0]), np.array([])))

    @pytest.mark.parametrize("indptr, indices", [
        ([0, 1, 2, 3, 3, 3], [3, 3, 2]),  # on the diagonal in row 2
        ([0, 0, 0, 1, 2, 2], [1, 4]),  # below the diagonal in row 2, after two empty rows
        ([0, 1, 1, 1, 1, 2], [2, 3]),  # in the last row
    ], ids=["diagonal-middle-row", "below-after-empty-rows", "last-row"])
    def test_triangular_refuses_an_entry_at_or_below_the_diagonal(self, indptr, indices):
        upper = SparseRowBlock(5, 5, indptr, indices, np.ones(len(indices)))
        with pytest.raises(ValueError, match=re.escape("row entries must satisfy row < col < dim")):
            UpperTriangular(np.ones(5), upper)

    def test_row_block_allows_vacuous_rows(self):
        u = row_block_from_dense(np.zeros((2, 3)))
        assert u.n_rows == 2 and u.nnz == 0

    def test_permutation_rejects_repeats(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))

    @pytest.mark.parametrize(
        "rows, cols, named",
        [([0], [0], "(0, 0)"), ([0, 1], [1, 1], "(1, 1)"), ([1], [0], "(1, 0)")],
        ids=["before-the-entry", "past-the-last-entry", "empty-row"],
    )
    def test_scatter_refuses_a_coordinate_the_pattern_lacks(self, rows, cols, named):
        # the pattern stores (0, 1) only; a lacking coordinate was once
        # written onto its neighbouring entry
        indptr, indices = np.array([0, 1, 1]), np.array([1])
        with pytest.raises(ValueError, match=re.escape(f"coordinate {named} is not in the pattern")):
            sparse._values_on_pattern(indptr, indices, rows, cols, np.ones(len(rows)))
        assert sparse._values_on_pattern(indptr, indices, [0], [1], [5.0]).tolist() == [5.0]
        assert sparse._values_on_pattern(indptr, indices, [], [], []).tolist() == [0.0]

    def test_gram_diagonal_matches_dense(self):
        rng = np.random.default_rng(2)
        dense = random_sparse_spd(rng, 12)
        r = cholesky(symmetric_from_dense(dense))
        np.testing.assert_allclose(r.gram_diagonal, np.diag(dense), rtol=1e-10)

    def test_gram_diagonal_is_computed_once_and_read_only(self):
        r = cholesky(symmetric_from_dense(random_sparse_spd(np.random.default_rng(2), 12)))
        assert r.gram_diagonal is r.gram_diagonal
        with pytest.raises(ValueError, match="read-only"):
            r.gram_diagonal[0] = 0.0

    def test_gram_diagonal_in_steps_equals_one_pass_bit_for_bit(self):
        """A factor with entries for several steps of squares sums them in
        the order of a single ``np.add.at`` over all entries."""
        r = generate(ScenarioConfig(seed=1, n_prior_poses=400, n_candidates=2, candidate_length=2)).prior.root
        assert r.nnz > 2 * (1 << 14)
        one_pass = r.diag ** 2
        np.add.at(one_pass, r.upper.indices, r.upper.data ** 2)
        assert np.array_equal(r.gram_diagonal.view(np.int64), one_pass.view(np.int64))


class TestMatrixMarket:
    def test_triangular_round_trip_exact(self):
        rng = np.random.default_rng(14)
        r = cholesky(symmetric_from_dense(random_sparse_spd(rng, 9)))
        back = mmio.mm_to_triangular(mmio.triangular_to_mm(r))
        assert np.array_equal(back.diag, r.diag)
        assert upper_pattern(back) == upper_pattern(r)

    @pytest.mark.parametrize("reader", [mmio.mm_to_triangular], ids=["triangular"])
    def test_coordinate_beyond_int64_is_a_value_error(self, reader):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999 1 1.0\n"
        with pytest.raises(ValueError, match="64-bit"):
            reader(text)

    @pytest.mark.parametrize(
        "size_line", ["1000000000000 1000000000000 0", "1000000000000 3 0"], ids=["rows-beyond-entries", "not-square"]
    )
    def test_oversized_factor_size_line_is_refused_before_allocation(self, size_line, monkeypatch):
        # were the size line trusted, building the rows would allocate
        # 10^12 row pointers; the guard makes that a test failure instead
        def no_allocation(*args):
            raise AssertionError("row storage built from an unchecked size line")

        monkeypatch.setattr(mmio.SparseRowBlock, "from_coo", no_allocation)
        with pytest.raises(ValueError, match="factor"):
            mmio.mm_to_triangular(f"%%MatrixMarket matrix coordinate real general\n{size_line}\n")

    @pytest.mark.parametrize("size_line", ["2 2", "2 2 2 9", "2"], ids=["two-values", "four-values", "one-value"])
    def test_size_line_without_three_integers_is_named(self, size_line):
        text = f"%%MatrixMarket matrix coordinate real general\n{size_line}\n1 1 1.0\n2 2 1.0\n"
        with pytest.raises(ValueError, match=f"size line .*'{size_line}'"):
            mmio.mm_to_triangular(text)

    @pytest.mark.parametrize(
        "entries, named",
        [("1 1\n1.5 2 2 3.0", "1 1"), ("1 1 1.5\n2 2 3.0 4", "2 2 3.0 4"), ("1 1 1.5 2\n2 3.0", "1 1 1.5 2")],
        ids=["short-then-long", "trailing-token", "long-then-short"],
    )
    def test_entry_line_without_three_values_is_named(self, entries, named):
        # the token count alone is right in the first and third cases, so
        # counting all tokens together would read a diagonal [1.5, 3.0]
        text = f"%%MatrixMarket matrix coordinate real general\n2 2 2\n{entries}\n"
        with pytest.raises(ValueError, match=f"entry line .*'{named}'"):
            mmio.mm_to_triangular(text)

    def test_external_reader_agrees(self):
        # scipy.io acts as the external oracle for format compliance
        rng = np.random.default_rng(16)
        r = cholesky(symmetric_from_dense(random_sparse_spd(rng, 8)))
        parsed_r = scipy.io.mmread(BytesIO(mmio.triangular_to_mm(r).encode()))
        np.testing.assert_array_equal(parsed_r.toarray(), r.to_dense())


# ---------------------------------------------------------------------------
# Compressed row storage: exact round trips and whole-array validation
# ---------------------------------------------------------------------------

finite_values = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def upper_triangular_dense(draw):
    n = draw(st.integers(1, 7))
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = draw(st.floats(min_value=1e-300, max_value=1e300))
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a[i, j] = draw(finite_values)
    return a


@st.composite
def row_block_dense(draw):
    n_rows = draw(st.integers(0, 5))
    n_cols = draw(st.integers(1, 6))
    a = np.zeros((n_rows, n_cols))
    for i in range(n_rows):
        for j in range(n_cols):
            if draw(st.booleans()):
                a[i, j] = draw(finite_values)
    return a


def _per_row_valid(n_cols, row_cols, row_vals, diag=None):
    """The rules one row at a time; ``diag`` adds the triangular ones."""
    if diag is not None and not all(np.isfinite(d) and d > 0 for d in diag):
        return False
    for i, (cols, vals) in enumerate(zip(row_cols, row_vals)):
        if not np.all(np.isfinite(vals)):
            return False
        if len(cols) and (cols[0] <= (i if diag is not None else -1) or cols[-1] >= n_cols):
            return False
        if np.any(np.diff(cols) <= 0):
            return False
    return True


@st.composite
def rows_maybe_invalid(draw):
    """Per-row columns/values that are mostly valid but may break any rule."""
    n = draw(st.integers(1, 6))
    row_cols, row_vals = [], []
    for i in range(n):
        cols = draw(st.lists(st.integers(-1, n), max_size=4))
        if draw(st.booleans()):
            cols = sorted({c for c in cols if i < c < n})
        row_cols.append(np.array(cols, dtype=np.int64))
        row_vals.append(np.array(
            draw(st.lists(st.sampled_from([0.5, -2.0, 0.0, np.nan, np.inf]), min_size=len(cols),
                          max_size=len(cols))), dtype=np.float64))
    diag = draw(st.lists(st.sampled_from([1.0, 2.5, 1.0, 0.0, -1.0, np.nan]), min_size=n, max_size=n))
    return n, diag, row_cols, row_vals


def _accepts(build) -> bool:
    try:
        build()
    except ValueError:
        return False
    return True


# stored zeros of both signs, subnormals and values near the float range
extreme_values = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                                  1.7976931348623157e308, -1.7976931348623157e308, 1.2e308, -1.5e308])


@st.composite
def extreme_factors(draw):
    n = draw(st.integers(1, 7))
    value = st.one_of(extreme_values, st.floats(allow_nan=False, allow_infinity=False))
    diag = draw(st.lists(st.one_of(st.sampled_from([5e-324, 1e-310, 1.7976931348623157e308]),
                                   st.floats(min_value=5e-324, max_value=1.7976931348623157e308)),
                         min_size=n, max_size=n))
    row_cols = [np.array(sorted(draw(st.sets(st.integers(i + 1, n - 1)))) if i + 1 < n else [], dtype=np.int64)
                for i in range(n)]
    row_vals = [np.array(draw(st.lists(value, min_size=c.size, max_size=c.size)), dtype=np.float64) for c in row_cols]
    return triangular_from_rows(diag, row_cols, row_vals)


class TestMatrixMarketWriter:
    @settings(max_examples=200, deadline=None)
    @given(extreme_factors())
    def test_writer_bytes_equal_the_per_entry_writer(self, r):
        assert mmio.triangular_to_mm(r) == row_block_to_mm_oracle(r.as_row_block())
        assert mmio.row_block_to_mm(r.upper) == row_block_to_mm_oracle(r.upper)

    def test_empty_block(self):
        u = SparseRowBlock.empty(3, n_rows=2)
        assert mmio.row_block_to_mm(u) == row_block_to_mm_oracle(u) == (
            "%%MatrixMarket matrix coordinate real general\n2 3 0\n")


class TestCompressedRows:
    @settings(max_examples=150, deadline=None)
    @given(upper_triangular_dense())
    def test_triangular_round_trips_are_exact(self, a):
        r = triangular_from_dense(a)
        np.testing.assert_array_equal(r.to_dense(), a)
        back = mmio.mm_to_triangular(mmio.triangular_to_mm(r))
        np.testing.assert_array_equal(back.diag, r.diag)
        np.testing.assert_array_equal(back.upper.indptr, r.upper.indptr)
        np.testing.assert_array_equal(back.upper.indices, r.upper.indices)
        np.testing.assert_array_equal(back.upper.data, r.upper.data)
        assert back.nnz == r.nnz == a.shape[0] + np.count_nonzero(np.triu(a, 1))

    @settings(max_examples=150, deadline=None)
    @given(row_block_dense())
    def test_row_block_round_trips_are_exact(self, a):
        u = row_block_from_dense(a)
        np.testing.assert_array_equal(u.to_dense(), a)
        # the package reads factors only; scipy.io reads the written block
        back = scipy.io.mmread(BytesIO(mmio.row_block_to_mm(u).encode()))
        assert back.shape == a.shape
        np.testing.assert_array_equal(back.toarray(), a)
        for i in range(u.n_rows):
            np.testing.assert_array_equal(u.row_vals[i], a[i, u.row_cols[i]])

    @settings(max_examples=300, deadline=None)
    @given(rows_maybe_invalid())
    def test_validator_agrees_with_the_per_row_rules(self, case):
        n, diag, row_cols, row_vals = case
        assert _accepts(lambda: triangular_from_rows(diag, row_cols, row_vals)) == _per_row_valid(
            n, row_cols, row_vals, diag)
        assert _accepts(lambda: row_block_from_rows(n, row_cols, row_vals)) == _per_row_valid(
            n, row_cols, row_vals)

    @pytest.mark.parametrize("diag, cols, vals", [
        ([1.0, 1.0, 1.0], [[2, 1], [], []], [[1.0, 1.0], [], []]),  # unsorted
        ([1.0, 1.0, 1.0], [[1, 1], [], []], [[1.0, 1.0], [], []]),  # repeated
        ([1.0, 1.0, 1.0], [[], [1], []], [[], [1.0], []]),  # on the diagonal
        ([1.0, 1.0, 1.0], [[], [], [0]], [[], [], [1.0]]),  # below the diagonal
        ([1.0, 1.0, 1.0], [[3], [], []], [[1.0], [], []]),  # out of range
        ([1.0, 1.0, 1.0], [[1], [], []], [[np.nan], [], []]),  # not finite
        ([1.0, 0.0, 1.0], [[], [], []], [[], [], []]),  # non-positive diagonal
    ], ids=["unsorted", "repeated", "diagonal", "below", "out-of-range", "non-finite", "diag"])
    def test_validator_rejects(self, diag, cols, vals):
        with pytest.raises(ValueError):
            triangular_from_rows(diag, [np.array(c, dtype=np.int64) for c in cols],
                                      [np.array(v, dtype=np.float64) for v in vals])

    def test_row_views_are_read_only(self):
        r = triangular_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]]))
        assert r.row_cols is r.row_cols
        with pytest.raises(ValueError):
            r.row_vals[0][0] = 5.0
        assert r.upper.data[0] == 2.0
