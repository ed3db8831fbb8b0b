"""Exception hierarchy for the repro (QuackDB) embedded analytical database.

Every error raised by the library derives from :class:`Error` so that client
code can catch a single base class.  The hierarchy loosely mirrors the error
categories of the system described in the paper: frontend errors (parsing,
binding), runtime errors (conversion, out-of-memory), transactional errors
(conflicts), and integrity errors (corruption detected by checksums or
AN codes).
"""

from __future__ import annotations

__all__ = [
    "Error",
    "InternalError",
    "ParserError",
    "BinderError",
    "CatalogError",
    "ConversionError",
    "InvalidInputError",
    "ConstraintError",
    "OutOfMemoryError",
    "TransactionError",
    "TransactionConflict",
    "TransactionContextError",
    "StorageError",
    "CorruptionError",
    "WALError",
    "HardwareError",
    "MemoryFaultError",
    "InterfaceError",
    "ConnectionError",
    "ClosedHandleError",
    "AdmissionError",
    "InterruptError",
    "PlanVerificationError",
]


class Error(Exception):
    """Base class for every error raised by the database."""


class InternalError(Error):
    """An invariant of the engine itself was violated (a bug, not user error)."""


class ParserError(Error):
    """The SQL text could not be parsed.

    Carries the offending position so clients can point at the token.
    """

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class BinderError(Error):
    """A parsed query referenced unknown columns/tables or mistyped expressions."""


class CatalogError(Error):
    """A catalog operation failed (duplicate table, missing view, ...)."""


class ConversionError(Error):
    """A value could not be cast to the requested type (overflow, bad format)."""


class InvalidInputError(Error):
    """Client supplied input that is structurally invalid (bad CSV, bad params)."""


class ConstraintError(Error):
    """A NOT NULL or other declared constraint was violated."""


class OutOfMemoryError(Error):
    """An operation exceeded the configured memory limit and could not spill."""


class TransactionError(Error):
    """Base class for transactional failures."""


class TransactionConflict(TransactionError):
    """Serializable MVCC detected a write-write conflict; the transaction aborted.

    This mirrors the first-writer-wins rule of HyPer-style MVCC adopted by
    the paper: the second writer to touch a row is rolled back.
    """


class TransactionContextError(TransactionError):
    """BEGIN/COMMIT/ROLLBACK used in an invalid state (e.g. nested BEGIN)."""


class StorageError(Error):
    """Base class for persistent-storage failures."""


class CorruptionError(StorageError):
    """Data integrity violation detected (checksum mismatch, bad AN code).

    The paper's resilience requirement: rather than allowing silent data
    corruption, the system detects it and *ceases operation* on the affected
    data, reporting this error.
    """


class WALError(StorageError):
    """The write-ahead log is malformed beyond the last committed record."""


class HardwareError(Error):
    """Simulated or detected hardware failure (CPU MCE, disk, DRAM)."""


class MemoryFaultError(HardwareError):
    """A memory self-test (moving inversions) found a broken region."""


class InterfaceError(InvalidInputError):
    """Client-side misuse of the API surface (PEP 249 ``InterfaceError``).

    Raised for structurally invalid use of connections, cursors, pools, and
    prepared statements -- never for engine-internal failures.
    """


class ConnectionError(Error):
    """The connection or database handle was used after being closed."""


class ClosedHandleError(InterfaceError, ConnectionError):
    """Operation on a closed (or pool-returned) connection or cursor.

    Deliberately both an :class:`InterfaceError` (the DB-API contract for
    closed handles) and a :class:`ConnectionError` (the engine's historical
    category for used-after-close), so both client idioms keep working.
    """


class AdmissionError(Error):
    """The admission controller rejected a query (queue full past timeout)."""


class InterruptError(Error):
    """Query execution was interrupted (cooperative cancellation)."""


class PlanVerificationError(Error):
    """quackplan found a plan that violates a structural invariant.

    Raised (under ``REPRO_VERIFY_PLANS=1`` / ``verify_plans``) when an
    optimizer pass or the logical->physical lowering produces a plan with a
    dangling column reference, a changed output schema, an inflated limit,
    or a nonsensical cardinality estimate.  Deliberately *not* an
    :class:`InternalError`: the verifier reports through its own channel
    (``repro_plan_checks()`` plus this exception, which already carries the
    offending pass and before/after plan snippets).
    """
