"""Belief sparsification and uninvolved-variable detection.

Sparsifying a set S of blocks replaces the conditional distribution of each
scalar in S with an independent one while leaving every other conditional
untouched.  Operationally on the square-root factor
(``sparse.sparsify_factor``):

1. reorder the variables so S comes first (stable within S and outside S).
   This is done on the factor itself, as a fold: in that order only the
   kept rows with an entry in an S column break triangularity, and they
   are folded back in through the S rows and the kept rows by the panel
   kernel that also updates factors.  The information matrix is neither
   re-formed nor re-factored;
2. cut the rows belonging to S to their diagonal;
3. read the factor in the original order, which the diagonal S-rows allow
   directly without breaking triangularity.

Step 1 is an orthogonal re-triangularization, so it keeps the product of
the diagonal, and step 2 keeps the diagonal itself: the information
determinant and hence the belief entropy are preserved for any S.  Blocks
whose columns are structurally zero in every candidate Jacobian
("uninvolved") can be sparsified with zero effect on any candidate's
objective value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .belief import GaussianBelief, VariableLayout
from .errors import InvalidSpec, LayoutMismatch
from .sparse import sparsify_factor

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

    The factor is reordered with the selected scalars first by a fold of
    the rows that the reordering moves (``sparse.sparsify_factor``), and the
    selected rows are cut to their diagonal; when nothing needs reordering
    (always the case for full sparsification) the rows are only cut.
    """
    s_blocks = resolve_blocks(spec, b.layout, mask)
    if not s_blocks:
        return b
    selected = np.zeros(b.dim, dtype=bool)
    selected[b.layout.scalar_indices(sorted(s_blocks))] = True
    return GaussianBelief(b.mean, sparsify_factor(b.root, selected), b.layout)
