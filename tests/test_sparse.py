"""Sparse kernel tests: factorization, permutations, Givens updates,
log-determinants, and the Matrix Market interchange."""

import re

import numpy as np
import pytest
import scipy.io
from hypothesis import given, settings
from hypothesis import strategies as st
from io import BytesIO

from beliefplan import mmio
from beliefplan.errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    RankDeficientAugmentation,
    ShapeViolation,
)
from beliefplan.sparse import (
    Permutation,
    SparseRowBlock,
    SparseSymmetric,
    UpperTriangular,
    cholesky,
    logdet_triangular,
    lowrank_update,
    permute_symmetric,
    permute_triangular_back,
)

from helpers import (
    dense_cholesky,
    dense_logdet,
    dense_logdet_oracle,
    random_sparse_spd,
    random_update,
    row_block_from_dense,
    symbolic_cholesky_pattern,
    symmetric_diagonal,
    symmetric_from_coo,
    symmetric_from_dense,
    triangular_from_dense,
    upper_pattern,
)


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
        for _ in range(20):
            n = int(rng.integers(2, 30))
            dense = random_sparse_spd(rng, n, density=0.2)
            m = symmetric_from_dense(dense)
            adjacency = [set() for _ in range(n)]
            for i, j in zip(m.upper.row_ids, m.upper.indices):
                if i != j:
                    adjacency[int(i)].add(int(j))
            expected = symbolic_cholesky_pattern(adjacency, n)
            r = cholesky(m)
            got = [set(r.row_cols[i].tolist()) for i in range(n)]
            assert got == expected


@st.composite
def spd_with_stored_zeros(draw):
    """Random sparse SPD matrix, some of whose zero upper entries are stored."""
    n = draw(st.integers(1, 24))
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
def upper_coordinates(draw):
    """Upper-triangle coordinates in any order, with repeats and stored
    zeros; magnitudes far apart make every sum depend on its order."""
    dim = draw(st.integers(1, 6))
    value = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e17, 1e17), st.floats(-1.0, 1.0))
    entries = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), value), max_size=40))
    return dim, [(min(i, j), max(i, j), v) for i, j, v in entries]


class TestAccumulate:
    @settings(max_examples=300, deadline=None)
    @given(upper_coordinates())
    def test_sums_repeats_in_input_order_bit_for_bit(self, case):
        dim, entries = case
        sums = {}
        for i, j, v in entries:
            sums[i, j] = sums.get((i, j), 0.0) + v
        rows, cols, vals = (np.array([e[k] for e in entries]) for k in range(3))
        m = SparseSymmetric.accumulate(dim, rows, cols, vals)
        keys = sorted(sums)
        assert m.dim == dim
        assert m.upper.row_ids.tolist() == [i for i, _ in keys]
        assert m.upper.indices.tolist() == [j for _, j in keys]
        assert np.array_equal(m.upper.data.view(np.int64), np.array([sums[k] for k in keys]).view(np.int64))

    @pytest.mark.parametrize("rows, cols", [([1], [0]), ([0], [2]), ([-1], [1]), ([2], [2])],
                             ids=["below", "column-out-of-range", "negative-row", "row-out-of-range"])
    def test_rejects_coordinates_outside_the_upper_triangle(self, rows, cols):
        with pytest.raises(ValueError):
            SparseSymmetric.accumulate(2, rows, cols, [1.0])


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
            rp_s = UpperTriangular.from_rows(rp.diag, rows_c, rows_v)
            out = permute_triangular_back(rp_s, perm.inverted(), set(range(k)))
            # triangularity is guaranteed by the type; check the product
            target = permute_symmetric(rp_s.gram(), perm.inverted()).to_dense()
            np.testing.assert_allclose(out.to_dense().T @ out.to_dense(), target, rtol=1e-9, atol=1e-9)

    def test_shape_violation_when_rows_not_sparsified(self):
        r = cholesky(symmetric_from_dense([[2.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(ShapeViolation):
            permute_triangular_back(r, Permutation(np.array([1, 0])), {0})


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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lowrank_update(UpperTriangular.from_diagonal(np.ones(2)), SparseRowBlock.empty(4), 1)


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
            UpperTriangular.from_rows([1.0, 1.0], (np.array([0]), np.array([], dtype=np.int64)),
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
        np.testing.assert_allclose(r.gram_diagonal(), np.diag(dense), rtol=1e-10)


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
        assert _accepts(lambda: UpperTriangular.from_rows(diag, row_cols, row_vals)) == _per_row_valid(
            n, row_cols, row_vals, diag)
        assert _accepts(lambda: SparseRowBlock.from_rows(n, row_cols, row_vals)) == _per_row_valid(
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
            UpperTriangular.from_rows(diag, [np.array(c, dtype=np.int64) for c in cols],
                                      [np.array(v, dtype=np.float64) for v in vals])

    def test_row_views_are_read_only(self):
        r = triangular_from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0]]))
        assert r.row_cols is r.row_cols
        with pytest.raises(ValueError):
            r.row_vals[0][0] = 5.0
        assert r.upper.data[0] == 2.0
