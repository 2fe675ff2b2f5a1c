"""Belief sparsification and uninvolved-variable detection.

Sparsifying a set S of blocks replaces the conditional distribution of each
scalar in S with an independent one while leaving every other conditional
untouched.  Operationally on the square-root factor:

1. reorder the variables so S comes first (stable within S and outside S),
   re-forming and re-factorizing the information matrix when reordering is
   needed;
2. zero the off-diagonal entries of the rows belonging to S;
3. permute back to the original order, which the diagonal S-rows allow
   directly on the factor without breaking triangularity.

The factor diagonal is untouched throughout, so the information determinant
and hence the belief entropy are preserved exactly for any S.  Blocks whose
columns are structurally zero in every candidate Jacobian ("uninvolved")
can be sparsified with zero effect on any candidate's objective value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import GaussianBelief, VariableLayout
from .errors import InvalidSpec, LayoutMismatch
from .sparse import (
    Permutation,
    cholesky,
    permute_symmetric,
    permute_triangular_back,
)

MODES = ("none", "uninvolved", "full", "custom")


@dataclass(frozen=True)
class SparsificationSpec:
    """Which blocks to sparsify: none, every never-involved block, all
    blocks, or an explicit custom set."""

    mode: str
    custom_blocks: frozenset = frozenset()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown sparsification mode {self.mode!r}")
        object.__setattr__(self, "custom_blocks", frozenset(self.custom_blocks))
        if self.mode != "custom" and self.custom_blocks:
            raise ValueError("custom_blocks only apply to custom mode")

    @classmethod
    def none(cls) -> "SparsificationSpec":
        return cls("none")

    @classmethod
    def uninvolved(cls) -> "SparsificationSpec":
        return cls("uninvolved")

    @classmethod
    def full(cls) -> "SparsificationSpec":
        return cls("full")

    @classmethod
    def custom(cls, blocks) -> "SparsificationSpec":
        return cls("custom", frozenset(int(b) for b in blocks))


@dataclass(frozen=True)
class InvolvementMask:
    """Blocks with at least one structural nonzero column in some candidate
    Jacobian, plus the per-candidate breakdown."""

    involved_blocks: frozenset
    per_candidate: tuple

    def __post_init__(self):
        per_candidate = tuple(frozenset(s) for s in self.per_candidate)
        union = frozenset().union(*per_candidate) if per_candidate else frozenset()
        if union != frozenset(self.involved_blocks):
            raise ValueError("involved_blocks must be the union of per-candidate masks")
        object.__setattr__(self, "involved_blocks", frozenset(self.involved_blocks))
        object.__setattr__(self, "per_candidate", per_candidate)

    def never_involved(self, layout: VariableLayout) -> frozenset:
        return frozenset(layout.block_ids) - self.involved_blocks


def detect_involvement(layout: VariableLayout, candidates) -> InvolvementMask:
    """A block is involved iff any candidate stores a nonzero in one of its
    scalar columns.  Columns of appended variables are ignored: augmented
    blocks are involved by construction and never sparsifiable."""
    block_of = layout.block_of_scalar()
    per_candidate = []
    for a in candidates:
        if a.prior_dim != layout.dim:
            raise LayoutMismatch(
                f"candidate {a.action_id} spans {a.prior_dim} prior columns, layout has {layout.dim}"
            )
        support = a.jacobian.column_support()
        prior_support = support[support < layout.dim]
        per_candidate.append(frozenset(int(b) for b in np.unique(block_of[prior_support])))
    union = frozenset().union(*per_candidate) if per_candidate else frozenset()
    return InvolvementMask(union, tuple(per_candidate))


def resolve_blocks(
    spec: SparsificationSpec, layout: VariableLayout, mask: InvolvementMask | None
) -> frozenset:
    """Expand a spec to the concrete set of block ids to sparsify."""
    if spec.mode == "none":
        return frozenset()
    if spec.mode == "full":
        return frozenset(layout.block_ids)
    if spec.mode == "uninvolved":
        if mask is None:
            raise InvalidSpec("uninvolved mode needs an involvement mask")
        return mask.never_involved(layout)
    unknown = spec.custom_blocks - frozenset(layout.block_ids)
    if unknown:
        raise InvalidSpec(f"custom blocks reference unknown ids {sorted(unknown)}")
    return spec.custom_blocks


def sparsify_belief(
    b: GaussianBelief, spec: SparsificationSpec, mask: InvolvementMask | None = None
) -> GaussianBelief:
    """Sparsify the blocks selected by ``spec``; mean and layout are kept.

    When the selected scalars already sit first in the ordering (always the
    case for full sparsification) the factor rows are zeroed directly.
    Otherwise the information matrix is re-formed, stably permuted so the
    selected scalars come first, re-factorized, zeroed, and permuted back.
    """
    s_blocks = resolve_blocks(spec, b.layout, mask)
    if not s_blocks:
        return b
    s_scalars = b.layout.scalar_indices(sorted(s_blocks))
    selected = np.zeros(b.dim, dtype=bool)
    selected[s_scalars] = True
    kept = np.nonzero(~selected)[0]
    if kept.size == 0:
        return GaussianBelief(b.mean, b.root.diagonal_only(), b.layout)

    # every scalar before the first kept one is selected, keeps its position
    # under the stable selected-first ordering, and its row is zeroed anyway;
    # so only the trailing block from that point on needs re-factorization
    # (the leading factor block is untouched by the reordering)
    split = int(kept[0])
    suffix_s = s_scalars[s_scalars >= split] - split
    tail = b.root.trailing(split)
    if suffix_s.size:
        k = suffix_s.size
        perm = Permutation.move_to_front(tail.dim, suffix_s)
        root_p = cholesky(permute_symmetric(tail.gram(), perm))
        root_p_s = root_p.trailing(k).with_diagonal_head(root_p.diag[:k])
        tail = permute_triangular_back(root_p_s, perm.inverted(), set(range(k)))
    return GaussianBelief(b.mean, tail.with_diagonal_head(b.root.diag[:split]), b.layout)
