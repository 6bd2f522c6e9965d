"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single exception type at API boundaries.  More
specific subclasses communicate which subsystem rejected the input.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SignatureError(ReproError):
    """A relation symbol or signature was used inconsistently.

    Raised, for example, when a tuple of the wrong arity is added to a
    relation, or when two formulas over different vocabularies are
    combined in an operation that requires a common vocabulary.
    """


class StructureError(ReproError):
    """A relational structure was constructed or used incorrectly."""


class DeltaError(StructureError):
    """A structure delta is malformed or does not apply.

    Deltas are strict: deleting a tuple that is absent, inserting one
    that is already present, or mixing arities within a batch all raise
    this instead of being silently ignored, so a delta always describes
    the exact difference between two structure versions.
    """


class DeltaRoutingError(DeltaError):
    """A delta cannot be routed through an existing shard plan.

    Raised when an inserted tuple would connect elements owned by
    different shards (a data-component merge): the component-aligned
    partition the exact combine rules rely on no longer holds, so the
    caller must fall back to re-sharding the post-delta structure.
    """


class FormulaError(ReproError):
    """A formula is malformed or used outside its supported fragment."""


class ParseError(FormulaError):
    """The query parser could not parse the input text."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class LiberalVariableError(FormulaError):
    """The liberal-variable set of a formula is inconsistent.

    The liberal variables of a formula must always be a superset of its
    free variables and must be disjoint from its quantified variables.
    """


class NotPrenexError(FormulaError):
    """An operation required a prenex primitive positive formula."""


class ArityBoundError(FormulaError):
    """A bounded-arity requirement was violated."""


class DecompositionError(ReproError):
    """An elimination ordering is invalid or could not be computed."""


class ClassificationError(ReproError):
    """The trichotomy classifier received an input it cannot classify."""


class OracleError(ReproError):
    """An oracle reduction failed, e.g. due to an inconsistent oracle."""


class DistinguishingStructureError(ReproError):
    """No distinguishing structure could be found within the search budget.

    The theory guarantees that a distinguishing structure exists for
    pairwise non-(semi-)counting-equivalent formulas; this error signals
    that the bounded search used by the implementation was exhausted
    before finding one, not that none exists.
    """


class PolicyRejection(ReproError):
    """An execution policy refused to run a query at plan time.

    Carries the trichotomy verdict and the structural measures that
    triggered the rejection, so serving layers can surface *why* the
    query was refused (HTTP 422) without ever executing it.
    """

    def __init__(
        self,
        message: str,
        verdict: str | None = None,
        measures: dict | None = None,
        policy: str | None = None,
    ):
        super().__init__(message)
        self.verdict = verdict
        self.measures = dict(measures or {})
        self.policy = policy


class BudgetExceeded(ReproError):
    """A cooperative cost budget ran out mid-execution.

    Raised from inside the hot loops (encoded-table joins, backtracking
    search) when the ambient
    :class:`repro.budget.CostBudget` exhausts its step count or
    deadline.  ``progress`` records how far execution got -- steps
    charged, elapsed seconds, and the limits -- so a serving layer can
    return partial-progress stats with its 504.  Instances pickle
    cleanly (attributes ride in ``__dict__``), so a budget abort inside
    a forked pool worker surfaces parent-side as itself.
    """

    def __init__(self, message: str, progress: dict | None = None):
        super().__init__(message)
        self.progress = dict(progress or {})


class WorkloadError(ReproError):
    """A workload generator received invalid parameters."""
