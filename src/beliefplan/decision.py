"""Decision problems over beliefs: selection, loss, consistency, offsets.

Solving a problem means ranking candidates by objective value and picking
the argmax.  A simplified problem (same candidates, simplified belief) is
compared to the original through:

- simplification loss: shortfall of the simplified problem's pick when
  scored by the original objective (always >= 0);
- action consistency: identical pairwise ordering of the two value
  vectors, which implies zero loss;
- simplification offset: the max per-candidate value discrepancy, possibly
  after re-calibrating the simplified values with a monotone balance map;
- rank correlation, with the tie rule (``_pair_signs``) of consistency.

The minimum offset over all monotone balance maps is not computable in
general; ``balanced_offset_upper`` returns the minimum over constant
shifts, which is a certified upper bound on it (and loss <= 2x that bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .belief import GaussianBelief, evaluate_candidates
from .errors import IndexOutOfRange, LengthMismatch


@dataclass(frozen=True)
class DecisionProblem:
    belief: GaussianBelief
    candidates: tuple

    def __post_init__(self):
        candidates = tuple(self.candidates)
        if not candidates:
            raise ValueError("a decision problem needs at least one candidate")
        ids = [a.action_id for a in candidates]
        if len(set(ids)) != len(ids):
            raise ValueError("candidate ids must be unique")
        object.__setattr__(self, "candidates", candidates)


@dataclass(frozen=True)
class Solution:
    best_index: int
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError("objective values must be finite")
        if self.best_index != int(np.argmax(values)):
            raise ValueError("best_index must be the (lowest-index) argmax of values")
        object.__setattr__(self, "values", values)


def solve(p: DecisionProblem) -> Solution:
    """Evaluate every candidate and select the argmax.

    Ties break to the lowest candidate index, so the result is
    deterministic for given inputs.
    """
    values = evaluate_candidates(p.belief, p.candidates)
    return Solution(int(np.argmax(values)), values)


def simplification_loss(original_values, simplified_best: int) -> float:
    """Objective shortfall from adopting the simplified problem's pick.

    Both the maximum and the picked entry are read from values computed on
    the ORIGINAL belief; the simplified problem only contributes its
    selected index.
    """
    values = np.asarray(original_values, dtype=np.float64)
    if not 0 <= simplified_best < values.size:
        raise IndexOutOfRange(f"candidate index {simplified_best} outside 0..{values.size - 1}")
    return float(values.max() - values[simplified_best])


def _check_paired(v1, v2) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(v1, dtype=np.float64)
    b = np.asarray(v2, dtype=np.float64)
    if a.size != b.size:
        raise LengthMismatch(f"value vectors differ in length: {a.size} vs {b.size}")
    return a, b


def _pair_signs(v: np.ndarray, tol: float) -> np.ndarray:
    d = v[:, None] - v[None, :]
    return np.where(np.abs(d) <= tol, 0.0, np.sign(d))


def action_consistent(values_1, values_2, tol: float = 0.0) -> bool:
    """True iff the two vectors order every candidate pair identically
    (strict inequalities match in both directions; ties co-occur), where
    differences within ``tol`` count as ties."""
    a, b = _check_paired(values_1, values_2)
    if a.size == 0:
        raise LengthMismatch("value vectors must be non-empty")
    return bool(np.array_equal(_pair_signs(a, tol), _pair_signs(b, tol)))


def offset(values_orig, values_simp, balance: Callable[[np.ndarray], np.ndarray] | None = None) -> float:
    """Max per-candidate discrepancy, after applying the monotone balance
    map to the simplified values (identity when omitted)."""
    a, b = _check_paired(values_orig, values_simp)
    if balance is not None:
        b = np.asarray(balance(b), dtype=np.float64)
        if b.size != a.size:
            raise LengthMismatch("balance map changed the vector length")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def balanced_offset_upper(values_orig, values_simp) -> float:
    """Minimum offset over constant shifts of the simplified values.

    Equals (max(d) - min(d)) / 2 for d = orig - simp (the Chebyshev-optimal
    shift is the midrange of d).  Constant shifts are monotone, so this is
    a certified upper bound on the balanced offset minimized over all
    monotone maps; it can be loose (consistent problems can have a zero
    balanced offset but a positive constant-shift offset).
    """
    a, b = _check_paired(values_orig, values_simp)
    if a.size == 0:
        return 0.0
    d = a - b
    return float((d.max() - d.min()) / 2.0)


def rank_correlation(values_1, values_2, tol: float = 0.0) -> float:
    """Pearson correlation of the two rank vectors (average ranks on ties,
    differences within ``tol`` counting as ties, as in ``action_consistent``).

    Degenerate inputs are mapped rather than raised: 1.0 when both vectors
    are all tied (identical trivial rankings), 0.0 when exactly one is.
    """
    a, b = _check_paired(values_1, values_2)
    if a.size < 2:
        raise LengthMismatch("rank correlation needs at least two candidates")
    # centred mid-ranks: half the sum over j of sign(v_i - v_j)
    ra = _pair_signs(a, tol).sum(axis=1) / 2.0
    rb = _pair_signs(b, tol).sum(axis=1) / 2.0
    a_const = not ra.any()
    b_const = not rb.any()
    if a_const or b_const:
        return 1.0 if (a_const and b_const) else 0.0
    return float(np.dot(ra, rb) / np.sqrt(np.dot(ra, ra) * np.dot(rb, rb)))
