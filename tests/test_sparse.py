"""Sparse kernel tests: factorization, permutations, factor updates,
log-determinants, and the Matrix Market interchange."""

import re

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from io import BytesIO
from pathlib import Path

from beliefplan import mmio
from beliefplan.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficientAugmentation,
)
from beliefplan.scenario import ScenarioConfig, generate, scenario_from_json
from beliefplan.sparse import (
    _PANEL,
    _update_pattern,
    PIVOT_FLOOR,
    SparseRowBlock,
    SparseSymmetric,
    UpperTriangular,
    cholesky,
    logdet_triangular,
    lowrank_update,
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

    def test_fill_pattern_matches_symbolic_elimination(self):
        rng = np.random.default_rng(5)
        matrices = [symmetric_from_dense(random_sparse_spd(rng, int(rng.integers(2, 30)), density=0.2))
                    for _ in range(20)]
        # the plan-1k prior information (dim 1020, where SuperLU drops 342
        # exactly-cancelled fill entries) and the selected-first tail that
        # uninvolved sparsification re-factors
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
        # SuperLU stops at the empty column 2 without a factor; the first
        # failing pivot is still the negative one at index 1
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

    def test_row_block_allows_vacuous_rows(self):
        u = row_block_from_dense(np.zeros((2, 3)))
        assert u.n_rows == 2 and u.nnz == 0

    def test_permutation_rejects_repeats(self):
        with pytest.raises(ValueError):
            Permutation(np.array([0, 0, 1]))

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
