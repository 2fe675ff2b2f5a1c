"""Belief representation, entropy, objective, propagation, and serialization."""

import base64
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve_triangular

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
from beliefplan.bounds import lemma_logdet_increment
from beliefplan.errors import BeliefPlanError, EvaluationError, InvalidBelief, RankDeficientAugmentation
from beliefplan.scenario import ScenarioConfig, generate
from beliefplan.sparse import SparseRowBlock, UpperTriangular, cholesky, logdet_triangular

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

    @pytest.mark.parametrize("dim", [1020, 3000, 9000])
    def test_original_objectives_match_the_determinant_lemma(self, dim):
        """Every candidate's objective on the scenario prior, read off the
        updated factor, against ``bounds.lemma_logdet_increment``, where the
        dense oracle cannot reach (dim 9000).  ``Σ_KK``, the prior covariance
        on the columns the candidates touch, is ``Zᵀ Z`` with ``Rᵀ Z = E_K``:
        one sparse triangular solve, no explicit inverse.  Both sides add
        ``ln|Λ|``, a sum of ``dim`` logarithms, so the rounding grows with
        it: on dims 1020-9000 the largest gap was 1.9e-16 ``ln|Λ|`` (3.6e-12
        at dims 3000 and 9000, where ``ln|Λ|`` is about 19,500 and 58,500);
        the tolerance is 1e-15 ``ln|Λ|``."""
        sc = generate(ScenarioConfig(seed=1, n_prior_poses=dim // 3, n_candidates=16, candidate_length=5))
        b = sc.prior
        n = b.dim
        touched = [a.jacobian.column_support() for a in sc.candidates]
        cols = np.unique(np.concatenate(touched))
        cols = cols[cols < n]
        lower = b.root.as_row_block().to_scipy().T.tocsr()
        picks = np.zeros((n, cols.size))
        picks[cols, np.arange(cols.size)] = 1.0
        z = spsolve_triangular(lower, picks, lower=True)
        prior_logdet = logdet_triangular(b.root)
        for a, support in zip(sc.candidates, touched):
            k = support[support < n]
            zk = z[:, cols.searchsorted(k)]
            rows = a.jacobian.to_dense()
            increment = lemma_logdet_increment(zk.T @ zk, rows[:, k], rows[:, n:])
            want = 0.5 * (prior_logdet + increment - (n + a.n_new_vars) * LN_2PI_E)
            assert abs(objective(b, a) - want) <= 1e-15 * prior_logdet

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


ARRAYS = ("mean", "diag", "indptr", "indices", "data")


def array_doc(values, dtype):
    """One stored array of a belief file, as a test writes it."""
    raw = np.asarray(values, dtype=dtype).tobytes()
    return {"dtype": dtype, "length": len(raw) // 8, "base64": base64.b64encode(raw).decode()}


def stored(doc, name):
    """The values of stored array ``name`` of a parsed belief file."""
    return np.frombuffer(base64.b64decode(doc[name]["base64"]), dtype=doc[name]["dtype"])


def entry_below_diagonal(doc):
    """Move the first entry of the first non-empty row past row 0 onto the
    column left of the diagonal; the row's columns still rise."""
    indptr, indices = stored(doc, "indptr"), stored(doc, "indices").copy()
    row = next(i for i in range(1, indptr.size - 1) if indptr[i + 1] > indptr[i])
    indices[indptr[row]] = row - 1
    doc["indices"] = array_doc(indices, "<i8")


def schema_1(doc):
    """The file as schema 1 wrote it: no version, the mean as a list and the
    root as Matrix Market text."""
    from beliefplan import mmio

    mean, diag, indptr, indices, data = (stored(doc, k) for k in ARRAYS)
    root = UpperTriangular(diag, SparseRowBlock(diag.size, diag.size, indptr, indices, data))
    for key in ("schema_version", *ARRAYS):
        doc.pop(key)
    doc.update(mean=mean.tolist(), root_mm=mmio.triangular_to_mm(root))


@st.composite
def random_beliefs(draw):
    """A belief whose factor has random rows, stored zeros (of both signs)
    and empty rows among them, over a random layout."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8), label="sizes")
    n = sum(sizes)
    row_cols, row_vals = [], []
    for i in range(n):
        cols = np.flatnonzero(rng.random(n - i - 1) < draw(st.sampled_from([0.0, 0.3, 1.0]), label="density")) + i + 1
        vals = rng.normal(size=cols.size) * (rng.random(cols.size) < 0.7)
        vals[rng.random(cols.size) < 0.1] = -0.0
        row_cols.append(cols)
        row_vals.append(vals)
    root = triangular_from_rows(rng.random(n) + 1e-3, row_cols, row_vals)
    layout = VariableLayout.from_sizes(sizes, kind=draw(st.sampled_from(["pose", "landmark", "generic"])))
    return GaussianBelief(rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n), root, layout)


def belief_arrays(b):
    return (b.mean, b.root.diag, b.root.upper.indptr, b.root.upper.indices, b.root.upper.data)


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

    @settings(max_examples=60, deadline=None)
    @given(random_beliefs())
    def test_round_trip_keeps_every_array_bit_for_bit(self, belief):
        text = belief_to_json(belief)
        assert belief_to_json(belief) == text
        back = belief_from_json(text)
        for before, after in zip(belief_arrays(belief), belief_arrays(back)):
            assert after.dtype == before.dtype and after.tobytes() == before.tobytes()
            assert after.flags.writeable and after.flags.owndata
        assert back.layout.blocks == belief.layout.blocks
        swapped = GaussianBelief(
            belief.mean.astype(">f8"),
            UpperTriangular(
                belief.root.diag.astype(">f8"),
                SparseRowBlock(
                    belief.dim,
                    belief.dim,
                    belief.root.upper.indptr.astype(">i8"),
                    belief.root.upper.indices.astype(">i8"),
                    belief.root.upper.data.astype(">f8"),
                ),
            ),
            belief.layout,
        )
        assert belief_to_json(swapped) == text

    def test_file_holds_little_endian_arrays(self):
        belief, _, _ = build_toy_full_slam(np.random.default_rng(19))
        doc = json.loads(belief_to_json(belief))
        assert list(doc) == ["schema_version", "layout", *ARRAYS]
        assert doc["schema_version"] == 2
        assert [doc[k]["dtype"] for k in ARRAYS] == ["<f8", "<f8", "<i8", "<i8", "<f8"]
        for key, want in zip(ARRAYS, belief_arrays(belief)):
            assert doc[key]["length"] == want.size
            np.testing.assert_array_equal(stored(doc, key), want)

    def test_readme_example_is_what_the_writer_writes(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        example = readme.split("**Beliefs**", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        rows = SparseRowBlock(6, 6, np.array([0, 2, 3, 3, 3, 3, 3]), np.array([1, 3, 2]), np.array([0.5, -1.0, 0.25]))
        belief = GaussianBelief(
            np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]),
            UpperTriangular(np.full(6, 2.0), rows),
            VariableLayout.from_sizes([3, 3], kind="pose"),
        )
        assert json.loads(example) == json.loads(belief_to_json(belief))

    def test_oversized_layout_is_refused_before_decoding(self, monkeypatch):
        from beliefplan import belief as belief_module

        def no_allocation(*args, **kwargs):
            raise AssertionError("an array decoded before its length was checked")

        belief, _, _ = build_toy_full_slam(np.random.default_rng(19))
        doc = json.loads(belief_to_json(belief))
        doc["layout"] = [{"id": 0, "kind": "generic", "size": 10**12}]
        monkeypatch.setattr(belief_module, "b64decode", no_allocation)
        with pytest.raises(InvalidBelief, match="array mean declares length 6, not the layout's size, 1000000000000"):
            belief_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda doc: doc["layout"][1].update(size=3.9), "layout block 1"),
            (lambda doc: doc["layout"][1].update(size="3"), "layout block 1"),
            (lambda doc: doc["layout"][1].update(id=True), "layout block 1"),
            (lambda doc: doc["layout"][1].update(id=1.0), "layout block 1"),
            (lambda doc: doc["layout"][1].update(offset=0), "layout block 1"),
            (lambda doc: doc["layout"][1].pop("kind"), "layout block 1"),
            (lambda doc: doc["layout"][1].update(kind="robot"), "layout block 1: unknown block kind"),
            (lambda doc: doc["layout"][1].update(size=0), "layout block 1: block size must be positive"),
            (lambda doc: doc["layout"][1].update(id=0), "the layout: duplicate block id 0"),
            (lambda doc: doc.update(layout={}), "the layout"),
            (lambda doc: doc.update(extra=1), "unknown \\['extra'\\]"),
            (lambda doc: doc.pop("mean"), "missing \\['mean'\\]"),
            (lambda doc: doc.update(mean=[0.0] * 6), "array mean must be a JSON object"),
            (schema_1, "schema_version 1 is not 2"),
            (lambda doc: doc.update(schema_version=3), "schema_version 3 is not 2"),
            (lambda doc: doc.update(schema_version="2"), "schema_version '2' is not 2"),
            (lambda doc: doc.pop("schema_version"), "schema_version 1 is not 2"),
            (lambda doc: doc["data"].update(base64="!" + doc["data"]["base64"][1:]), "array data is not base64"),
            (lambda doc: doc["mean"].update(base64=doc["mean"]["base64"][:-4]), "array mean declares length 6, but"),
            (lambda doc: doc["indptr"].update(base64=doc["indptr"]["base64"][:-1] + "A"),
             "array indptr declares length 7, but its base64 holds 57 bytes"),
            (lambda doc: doc["indices"].update(length=float(doc["indices"]["length"])), "length of array indices"),
            (lambda doc: doc["indices"].update(length=True), "length of array indices"),
            (lambda doc: doc["data"].update(base64=None), "the base64 of array data"),
            (lambda doc: doc["mean"].update(dtype="<f4"), "array mean must have dtype <f8, got '<f4'"),
            (lambda doc: doc["data"].update(dtype=">f8"), "array data must have dtype <f8, got '>f8'"),
            (lambda doc: doc["indptr"].update(dtype="<f8"), "array indptr must have dtype <i8"),
            (lambda doc: doc["diag"].pop("dtype"), "array diag must have exactly the keys"),
            (lambda doc: doc["diag"].update(order="C"), "array diag must have exactly the keys"),
            (lambda doc: doc.update(indptr=array_doc(stored(doc, "indptr")[:-1], "<i8")),
             "array indptr declares length 6, not the layout's size plus one, 7"),
            (lambda doc: doc.update(data=array_doc(stored(doc, "data")[:-1], "<f8")),
             "array data declares length .*, not that of indices"),
            (lambda doc: doc.update(data=array_doc(np.append(stored(doc, "data")[:-1], np.nan), "<f8")),
             "the root's indptr, indices and data: matrix values must be finite"),
            (lambda doc: doc.update(mean=array_doc(np.append(stored(doc, "mean")[:-1], np.inf), "<f8")),
             "the mean: mean must be finite"),
            (entry_below_diagonal, "the root's diag and indices: row entries must satisfy row < col < dim"),
            (lambda doc: doc.update(diag=array_doc(np.append(0.0, stored(doc, "diag")[1:]), "<f8")),
             "the root's diag and indices: diagonal entries must be strictly positive"),
            (lambda doc: doc.update(indptr=array_doc(stored(doc, "indptr")[::-1], "<i8")),
             "the root's indptr, indices and data: indptr must rise"),
            (KeyTwice("layout", []), "names a key twice"),
            (KeyTwice("size", 3), "names a key twice"),
            (KeyTwice("base64", ""), "names a key twice"),
            (KeyTwice("length", 6), "names a key twice"),
        ],
        ids=["float-size", "string-size", "bool-id", "float-id", "unknown-block-key", "missing-block-key",
             "unknown-kind", "zero-size", "repeated-id", "layout-not-a-list", "unknown-key", "missing-key",
             "mean-as-list", "schema-1", "schema-3", "string-version", "no-version", "base64-alphabet",
             "base64-too-short", "base64-no-padding", "float-length", "bool-length", "base64-not-text",
             "dtype-f4", "dtype-big-endian", "dtype-swapped", "missing-dtype", "unknown-array-key",
             "indptr-short", "data-short", "data-nan", "mean-inf", "below-diagonal", "zero-diagonal",
             "indptr-falling", "dup-key", "dup-block-key", "dup-array-key", "dup-length-key"],
    )
    def test_malformed_belief_is_an_invalid_belief(self, mutate, message):
        belief, _, _ = build_toy_full_slam(np.random.default_rng(19))
        doc = json.loads(belief_to_json(belief))
        with pytest.raises(InvalidBelief, match=message):
            belief_from_json(malformed_text(mutate, doc))

    @pytest.mark.parametrize("text", ["", "{", "[1, 2", "not json"], ids=["empty", "open-brace", "open-list", "word"])
    def test_json_syntax_is_an_invalid_belief(self, text):
        with pytest.raises(InvalidBelief, match="the belief file is not JSON"):
            belief_from_json(text)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_belief_fails_typed(self, data):
        belief, _, _ = build_toy_full_slam(np.random.default_rng(19))
        doc = mutate_json(data, json.loads(belief_to_json(belief)))
        try:
            belief_from_json(json.dumps(doc))
        except BeliefPlanError:
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
