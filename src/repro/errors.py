"""Exception hierarchy for the Snoopy reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A system was configured with invalid or inconsistent parameters."""


class NotInitializedError(ReproError, RuntimeError):
    """A component was used before ``initialize`` loaded its contents.

    Subclasses :class:`RuntimeError` for one deprecation cycle so existing
    ``except RuntimeError`` callers keep working.
    """


class TicketPendingError(ReproError):
    """``Ticket.result()`` was called before the ticket's epoch closed.

    Epochs in the functional system run on demand; call ``run_epoch`` on
    the deployment first, then read the ticket.
    """


class SecurityError(ReproError):
    """A security invariant was violated (tampering, replay, overflow)."""


class IntegrityError(SecurityError):
    """Stored or transmitted data failed an integrity check."""


class ReplayError(SecurityError):
    """A message with a previously seen nonce was received."""


class AttestationError(SecurityError):
    """Remote attestation of an enclave failed."""


class RollbackError(SecurityError):
    """Sealed state is older than the trusted monotonic counter allows."""


class BatchOverflowError(SecurityError):
    """More than ``f(R, S)`` distinct requests hashed to one subORAM.

    By Theorem 3 this happens with probability negligible in the security
    parameter; surfacing it loudly (instead of silently dropping a request)
    preserves the paper's no-drop guarantee.
    """


class DuplicateRequestError(ReproError):
    """A subORAM batch contained duplicate object ids.

    The subORAM security definition (Definition 2) only holds for batches of
    distinct requests; the load balancer guarantees this, so receiving a
    duplicate indicates a protocol bug.
    """


class CapacityError(ReproError, ValueError):
    """An operation exceeded a fixed capacity (e.g. oblivious hash bucket).

    Also raised for payloads that do not fit a store's fixed slot size.
    Subclasses :class:`ValueError` for one deprecation cycle so existing
    ``except ValueError`` callers keep working.
    """


class WireError(ReproError):
    """Malformed or out-of-range wire data."""


class PlannerError(ReproError):
    """The planner could not find a configuration meeting the constraints."""


class FaultError(ReproError):
    """Base class for transient infrastructure faults (crash/timeout/network).

    Fault errors describe *public* events — a worker died, a task took too
    long, a network hop failed — never secret data.  They are the only
    errors the epoch retry machinery considers retryable: retrying a
    security abort (tampering, overflow) would re-run a deterministically
    failing epoch, and making retry decisions depend on anything secret
    would itself be a leak.
    """


class WorkerCrashError(FaultError):
    """An execution-backend worker died before completing its task.

    Attributes:
        unit: index of the epoch unit (e.g. subORAM) the task belonged
            to, when known.
    """

    def __init__(self, message: str, unit=None):
        super().__init__(message)
        self.unit = unit


class TaskTimeoutError(FaultError):
    """A unit of work ran out of time: the injected ``task_timeout``
    fault at stage ➋, or a ``NetworkTicket.result(timeout=)`` wait.

    Attributes:
        unit: index of the epoch unit the task belonged to, when known.
    """

    def __init__(self, message: str, unit=None):
        super().__init__(message)
        self.unit = unit


class TransportError(FaultError):
    """A load-balancer <-> subORAM network hop failed (not tampering).

    Distinct from :class:`IntegrityError`/:class:`ReplayError`: those are
    *security* failures that must never be blindly retried, while a
    dropped connection is a transient fault the epoch pipeline recovers
    from by re-running the whole epoch.
    """


class ServiceUnavailableError(ReproError):
    """The serve-layer front door refused a request with a typed verdict.

    Subclasses distinguish *why* — load shedding vs. drain — because the
    right client reaction differs: a BUSY verdict is retryable after
    backoff, a SHUTTING_DOWN verdict means find another server.  Both
    are public control-plane facts (the paper's §2.1 model already
    grants the attacker full visibility into connection lifecycle).
    """


class ServerBusyError(ServiceUnavailableError, FaultError):
    """The server shed this request with a BUSY frame (load shedding).

    Also a :class:`FaultError`: busy verdicts are transient by
    definition, so generic retry machinery may treat them as retryable.
    """


class ServerShuttingDownError(ServiceUnavailableError):
    """The server answered with SHUTTING_DOWN while draining.

    Deliberately *not* a :class:`FaultError`: retrying against the same
    server would race its drain; clients should fail over instead.
    """


class SessionExpiredError(ReproError):
    """A reconnecting client's resumable session was no longer held.

    The server evicted the session (buffer cap exceeded, server
    restart, or LRU pressure), so exactly-once resumption is impossible
    and the open tickets fail loudly instead of silently re-executing.
    """


class CircuitOpenError(FaultError):
    """The client's per-connection circuit breaker is open.

    Raised on submit without touching the network: enough consecutive
    transport failures occurred that further attempts are presumed
    futile until the cooldown elapses (then one half-open probe is let
    through).
    """


class DeadlineExceededError(ReproError, TimeoutError):
    """A per-request deadline elapsed before the ticket resolved.

    Subclasses :class:`TimeoutError` so callers treating deadlines as
    generic timeouts keep working.  The request itself may still
    complete server-side; the deadline bounds the *wait*, not the
    epoch execution.
    """


class EpochFailedError(ReproError):
    """One epoch stage attempt failed; nothing of it was installed.

    Raised by the stage methods of :class:`repro.core.epoch.EpochDriver`
    when a unit fails.  An execute failure is retried in place on the
    already-built batches while the retry budget lasts; a fatal one
    (build, match, a non-retryable cause, an exhausted budget) surfaces
    as its original ``cause`` with this error as ``__cause__``, after the
    scheduler rolled the epoch back — drained requests back at the front
    of their balancers in arrival order, ticket cut restored, tickets
    pending — so a later epoch serves the same requests, which is how the
    paper's no-drop guarantee (Theorem 3 / Appendix C: every accepted
    request is eventually served in some epoch) survives faults.

    Attributes:
        stage: which pipeline stage failed (``"build"``, ``"execute"``,
            ``"match"``).
        unit: failing unit index within the stage, when known (balancer
            index for build/match, subORAM index for execute).
        cause: the underlying exception.
    """

    def __init__(self, stage: str, unit, cause: BaseException):
        super().__init__(
            f"epoch stage {stage!r} failed"
            + (f" at unit {unit}" if unit is not None else "")
            + f": {cause!r}"
        )
        self.stage = stage
        self.unit = unit
        self.cause = cause

    @property
    def retryable(self) -> bool:
        """True when the cause is a transient fault worth retrying.

        Only :class:`FaultError` subclasses (worker crash, task timeout,
        transport failure) are retryable; security aborts and protocol
        bugs deterministically recur, so retrying them would just repeat
        the failure ``max_attempts`` times.
        """
        return isinstance(self.cause, FaultError)
