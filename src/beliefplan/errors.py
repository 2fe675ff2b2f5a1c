"""Exception types shared across the package, and the strict JSON readers
that the file loaders raise them from.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse (bad argument types, malformed containers) raises
plain ValueError at construction time instead.
"""

import json


class BeliefPlanError(Exception):
    """Base class for domain errors raised by this package."""


class NotPositiveDefinite(BeliefPlanError):
    """A factorization pivot fell at or below the pivot floor; ``index`` is
    the first failing pivot's, where the factorization names it."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DimensionMismatch(BeliefPlanError):
    """Operands have incompatible dimensions."""


class RankDeficientAugmentation(BeliefPlanError):
    """A newly introduced variable has no supporting constraint row;
    ``index`` is the first such appended variable's, where the update names
    it."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


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


def json_document(text: str, error: type, what: str):
    """``text`` parsed as JSON, ``error`` if an object names a key twice."""

    def unique_keys(pairs):
        if len(doc := dict(pairs)) < len(pairs):
            raise error(f"{what} names a key twice in one object: {[k for k, _ in pairs]}")
        return doc

    return json.loads(text, object_pairs_hook=unique_keys)


# a JSON integer is never a boolean, and a JSON number may be an integer
_JSON_TYPES = {int: (int,), float: (int, float), list: (list,)}


def json_value(value, kind: type, error: type, what: str):
    """``value`` as ``kind`` (int, float or list) if JSON holds it as one,
    else ``error``."""
    if type(value) not in _JSON_TYPES[kind]:
        raise error(f"{what} must be a JSON {kind.__name__}, got {value!r:.60}")
    return kind(value)


def json_fields(doc, keys: tuple, error: type, what: str) -> tuple:
    """The values of ``keys``, in order, if ``doc`` is a JSON object with
    exactly these keys, else ``error``."""
    if type(doc) is not dict:
        raise error(f"{what} must be a JSON object, got {doc!r:.60}")
    if doc.keys() != set(keys):
        unknown, missing = sorted(doc.keys() - set(keys)), sorted(set(keys) - doc.keys())
        raise error(f"{what} must have exactly the keys {', '.join(keys)}; unknown {unknown}, missing {missing}")
    return tuple(doc[k] for k in keys)
