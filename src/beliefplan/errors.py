"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (bad argument types, malformed containers) raises
plain ValueError at construction time instead.
"""


class BeliefPlanError(Exception):
    """Base class for domain errors raised by this package."""


class NotPositiveDefinite(BeliefPlanError):
    """A factorization pivot fell at or below the pivot floor."""


class DimensionMismatch(BeliefPlanError):
    """Operands have incompatible dimensions."""


class ShapeViolation(BeliefPlanError):
    """A permuted factor entry would land below the diagonal."""


class RankDeficientAugmentation(BeliefPlanError):
    """A newly introduced variable has no supporting constraint row."""


class LayoutMismatch(BeliefPlanError):
    """A Jacobian or factor references a different variable layout."""


class InvalidSpec(BeliefPlanError):
    """A sparsification spec references unknown blocks."""


class LengthMismatch(BeliefPlanError):
    """Paired value vectors differ in length."""


class IndexOutOfRange(BeliefPlanError):
    """A candidate index is outside the candidate list."""


class DisconnectedGraph(BeliefPlanError):
    """A pose graph required to be connected is not."""


class NotRankOne(BeliefPlanError):
    """A candidate has more than one constraint row where one is required."""


class AlphaTooSmall(BeliefPlanError):
    """The supplied amplitude bound does not dominate the Jacobian entries."""


class InconsistentBounds(BeliefPlanError):
    """Upper/lower bound inputs produce a negative loss bound."""


class InfeasibleConfig(BeliefPlanError):
    """Scenario generation could not satisfy its guarantees after retries."""


class InvalidScenario(BeliefPlanError):
    """A scenario file is inconsistent with its own schema or noise model."""


class InvalidBelief(BeliefPlanError):
    """A belief file does not follow its schema."""


class EvaluationError(BeliefPlanError):
    """Objective evaluation failed for a specific candidate."""

    def __init__(self, candidate_id: int, cause: Exception):
        super().__init__(f"objective evaluation failed for candidate {candidate_id}: {cause}")
        self.candidate_id = candidate_id
        self.cause = cause
