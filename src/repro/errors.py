"""Exception hierarchy for the repro package.

Runtime errors (raised inside simulated MPI ranks) derive from
:class:`MPIError`; verification-level failures derive from
:class:`VerificationError`.  :class:`DeadlockError` is both: it is raised
inside every blocked rank when the engine proves no progress is possible,
and it is also what the verifiers report as a found defect.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class MPIError(ReproError):
    """An MPI semantic violation (bad rank, freed communicator, ...)."""


class InvalidRankError(MPIError):
    """A rank argument is outside the communicator's group."""


class InvalidCommunicatorError(MPIError):
    """Operation on a freed or foreign communicator."""


class InvalidRequestError(MPIError):
    """Operation on an inactive, freed, or foreign request."""


class InvalidTagError(MPIError):
    """Tag outside the permitted range (0..TAG_UB, or ANY_TAG on receive)."""


class TruncationError(MPIError):
    """A received message was longer than the posted receive buffer."""


class DeadlockError(MPIError):
    """No rank can make progress.

    Attributes
    ----------
    blocked:
        Mapping ``rank -> human-readable description`` of the operation each
        blocked rank is stuck in when the deadlock was proven.
    """

    def __init__(self, blocked: dict[int, str] | None = None):
        self.blocked = dict(blocked or {})
        detail = ", ".join(f"rank {r}: {op}" for r, op in sorted(self.blocked.items()))
        super().__init__(f"deadlock detected ({detail})" if detail else "deadlock detected")

    def __reduce__(self):
        # Exception.__reduce__ would replay __init__ with the message string,
        # which is not a ``blocked`` mapping; replay jobs cross process
        # boundaries, so round-trip with the real constructor argument.
        return (DeadlockError, (self.blocked,))


class AbortError(MPIError):
    """A rank called ``abort`` (MPI_Abort); propagated to every rank."""

    def __init__(self, rank: int, errorcode: int = 1):
        self.rank = rank
        self.errorcode = errorcode
        super().__init__(f"rank {rank} called abort with errorcode {errorcode}")

    def __reduce__(self):
        return (AbortError, (self.rank, self.errorcode))


class VerificationError(ReproError):
    """Base class for verifier-level failures (not program defects)."""


class ReplayDivergenceError(VerificationError):
    """A guided replay observed different events than the decision file expects."""


class ScheduleExhaustedError(VerificationError):
    """Internal: the explorer was asked for a replay but no alternatives remain."""


class JournalError(RuntimeError):
    """A journal that cannot be written, read, or resumed.  Defined here,
    not in :mod:`repro.dampi.journal` (which re-exports it), so that the
    CLI can catch it without importing the journal."""
