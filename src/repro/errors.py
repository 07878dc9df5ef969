"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by this library."""


class SchemaError(ReproError):
    """A relation schema, tuple type, or database schema is malformed.

    Raised, for instance, when a tuple is inserted into a relation whose
    schema it does not match, or when two joined subqueries share input
    relation aliases (violating Def. 2.2's disjointness requirement).
    """


class QueryError(ReproError):
    """A query tree is structurally invalid.

    Examples: a projection referencing attributes outside its child's
    target type, a union of incompatible target types, or a renaming
    whose triples do not mention the joined types.
    """


class ConditionError(ReproError):
    """A selection / join / c-tuple condition is malformed."""


class RenamingError(QueryError):
    """A renaming (Def. 2.1) is inconsistent with the types it maps."""


class EvaluationError(ReproError):
    """Evaluation of a well-formed query failed on a given instance."""


class IntegrityError(ReproError):
    """A database integrity constraint (key, not-null) was violated."""


class UnknownRelationError(ReproError):
    """A referenced relation does not exist in the database."""


class WhyNotQuestionError(ReproError):
    """A Why-Not question (predicate / c-tuple, Defs. 2.4-2.6) is invalid.

    Raised when the question's type is not contained in the query's
    target type, when a condition references an unbound variable, or
    when the predicate is empty.
    """


class UnsupportedQueryError(ReproError):
    """The algorithm cannot handle this query class.

    The Why-Not baseline raises this for aggregation queries: the
    original implementation did not support aggregation (its rows are
    reported as "n.a." in the paper's Table 5).
    """


class SqlSyntaxError(ReproError):
    """The SQL frontend could not lex or parse the input text."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class ConfigurationError(ReproError):
    """A tunable (cache size, workload parameter, budget limit) is
    invalid -- the caller configured the library inconsistently."""


class BudgetExceededError(ReproError):
    """An execution budget was exhausted mid-evaluation.

    Raised cooperatively by the tick checks that
    :class:`repro.robustness.budget.ExecutionContext` threads through
    the evaluator, the compatible-set computation, and the NedExplain
    traversal.  Carries enough state for the caller to return an
    explicit best-effort answer instead of nothing:

    ``resource``
        which limit was hit (``"deadline"``, ``"rows"``,
        ``"comparisons"``, or ``"injected"`` for fault injection);
    ``spent``
        a :class:`repro.robustness.budget.BudgetSpent` snapshot;
    ``phase``
        the algorithm phase active when the budget ran out;
    ``partial``
        the partially-filled TabQ of the in-flight c-tuple, if the
        traversal had started one;
    ``partial_answer``
        a degraded :class:`repro.core.answers.WhyNotAnswer` built from
        the detailed entries accumulated before exhaustion.
    """

    def __init__(
        self,
        message: str,
        resource: str | None = None,
        spent=None,
        phase: str | None = None,
        partial=None,
    ):
        super().__init__(message)
        self.resource = resource
        self.spent = spent
        self.phase = phase
        self.partial = partial
        self.partial_answer = None


class InjectedFaultError(ReproError):
    """A deterministic fault injected by :mod:`repro.robustness.faults`.

    Only ever raised while a :class:`~repro.robustness.faults.FaultPlan`
    is installed (the chaos test suite); carries the named site and the
    invocation index at which the plan fired.
    """

    def __init__(
        self,
        message: str,
        site: str | None = None,
        call_index: int | None = None,
    ):
        super().__init__(message)
        self.site = site
        self.call_index = call_index


class LoadShedError(ReproError):
    """An HTTP request was refused by the service's admission gate.

    Raised by :class:`~repro.service.state.AdmissionGate` when
    ``serve --shed-after N`` requests are already in flight; the server
    maps it to ``429`` + ``Retry-After``.  A shed request did no work
    at all -- re-sending it later produces the normal answer.
    """


class CancelledError(ReproError):
    """A question was cancelled before it started.

    Attached to the explicit ``cancelled`` outcomes a draining batch
    produces for its not-yet-started questions after a SIGINT/SIGTERM
    drain request.  In-flight
    questions are never interrupted (cancellation is cooperative); a
    cancelled question simply never ran and can be recomputed by a
    resumed batch.
    """

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


class JournalError(ReproError):
    """A batch journal cannot be trusted for the requested resume.

    Raised when a journal record at some index names a different
    question than the batch being resumed -- replaying it would silently
    merge two unrelated runs.  Torn or corrupt trailing records are
    *not* an error: the write-ahead log simply stops replaying at the
    first record that fails its checksum (crash-safety by design).
    """


class StorageError(ReproError):
    """A storage backend operation failed.

    Raised by :mod:`repro.storage` for disk-level failures (short
    writes, ``ENOSPC``, ``EIO``, torn renames) and for corrupt
    artifacts the recovery protocol refuses to trust.  ``path`` names
    the artifact involved and ``errno`` carries the OS error number
    when the failure came from the operating system (or from the
    fault-injection shim imitating it).
    """

    def __init__(
        self,
        message: str,
        path: str | None = None,
        errno: int | None = None,
    ):
        super().__init__(message)
        self.path = path
        self.errno = errno


class ServiceError(ReproError):
    """A why-not service request failed at the HTTP layer.

    Raised by :mod:`repro.service.client` for transport failures
    (connection refused, timeouts, malformed responses) and by
    :meth:`~repro.service.client.ServiceResponse.raise_for_status` for
    error envelopes the server returned.  ``status`` carries the HTTP
    status code when one was received (``None`` for transport errors).
    """

    def __init__(self, message: str, status: int | None = None):
        super().__init__(message)
        self.status = status
