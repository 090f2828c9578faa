"""Request and Status objects (the non-blocking operation lifecycle).

A :class:`Request` is created by ``isend``/``irecv`` and completed by
``wait``/``test`` (or their *all*/*any* variants).  Requests are engine
objects; user code holds them opaquely and completes them through the
owning process handle (``req.wait()`` delegates there so the PnMPI stack
sees every completion — that is where DAMPI does its late-message work).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

from repro.errors import InvalidRequestError
from repro.mpi.constants import UNDEFINED
from repro.mpi.datatypes import count_of

_request_ids = itertools.count(1)


def reset_request_ids() -> None:
    """Restart request numbering at 1 (called per ``Runtime.run()``).

    Request uids appear in deadlock/leak diagnostics; per-run numbering
    keeps those messages identical whether a schedule is replayed in-process
    or on a fleet worker (see :mod:`repro.dist.worker`)."""
    global _request_ids
    _request_ids = itertools.count(1)


class RequestKind(enum.Enum):
    SEND = "send"
    RECV = "recv"
    #: a non-blocking collective (ibarrier/ibcast/iallreduce)
    COLL = "coll"


class RequestState(enum.Enum):
    #: Posted, not yet matched/completed by the engine.
    PENDING = "pending"
    #: The transfer finished; a wait/test will succeed without blocking.
    COMPLETE = "complete"
    #: A wait/test already consumed the completion (request is inactive).
    CONSUMED = "consumed"
    #: ``request_free`` was called; completing it is an error.
    FREED = "freed"


# Hot-path constant: member access on an Enum class goes through a
# descriptor; ``is_complete`` runs on every wait/test so we resolve the
# members once here.
_DONE = (RequestState.COMPLETE, RequestState.CONSUMED)


class Status:
    """Completion information for one receive (or send).

    Mirrors ``MPI_Status``: ``source``, ``tag``, plus ``get_count``.
    For sends the source/tag fields are ``UNDEFINED``.
    """

    __slots__ = ("source", "tag", "cancelled", "_payload", "error")

    def __init__(self, source: int = UNDEFINED, tag: int = UNDEFINED, payload: Any = None):
        self.source = source
        self.tag = tag
        self.cancelled = False
        self.error = 0
        self._payload = payload

    def get_count(self) -> int:
        """Element count of the received payload (``MPI_Get_count``)."""
        return count_of(self._payload)

    def __repr__(self) -> str:
        return f"Status(source={self.source}, tag={self.tag})"


class Request:
    """One outstanding non-blocking operation.

    Attributes documented here are the ones tool modules read; the engine
    owns all mutation.

    ``posted_src`` / ``posted_tag`` record the receive's selector exactly as
    the *user* posted it (so a wildcard stays visible even after DAMPI's
    guided mode rewrites the source that actually reaches the engine, which
    lands in ``effective_src``).
    """

    __slots__ = (
        "uid",
        "kind",
        "state",
        "owner",
        "ctx",
        "posted_src",
        "posted_tag",
        "effective_src",
        "data",
        "status",
        "complete_vtime",
        "post_vtime",
        "envelope",
        "proc",
        "max_count",
    )

    def __init__(
        self,
        kind: RequestKind,
        owner: int,
        ctx: int,
        posted_src: int = UNDEFINED,
        posted_tag: int = UNDEFINED,
        proc=None,
    ):
        self.uid = next(_request_ids)
        self.kind = kind
        self.state = RequestState.PENDING
        self.owner = owner
        self.ctx = ctx
        self.posted_src = posted_src
        self.posted_tag = posted_tag
        self.effective_src = posted_src
        self.data: Any = None
        self.status: Optional[Status] = None
        self.complete_vtime = 0.0
        self.post_vtime = 0.0
        self.envelope = None
        self.proc = proc
        #: receive-buffer capacity in elements (None = unbounded); a longer
        #: message raises TruncationError at completion (MPI_ERR_TRUNCATE)
        self.max_count: Optional[int] = None

    # -- queries ----------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        return self.state in _DONE

    # -- user-facing completion sugar -------------------------------------

    def wait(self) -> Status:
        """Block until complete; returns the :class:`Status`.

        Routed through the owning process handle so interposition tools see
        the call (this is ``MPI_Wait`` in Algorithm 1).
        """
        self._need_proc()
        return self.proc.wait(self)

    def test(self) -> tuple[bool, Optional[Status]]:
        """Non-blocking completion check (``MPI_Test``)."""
        self._need_proc()
        return self.proc.test(self)

    def free(self) -> None:
        """Release without completing (``MPI_Request_free``) — a classic
        source of the request leaks DAMPI's checker reports."""
        self._need_proc()
        self.proc.request_free(self)

    def _need_proc(self) -> None:
        if self.proc is None:
            raise InvalidRequestError("request is not bound to a process handle")

    def __repr__(self) -> str:
        return (
            f"Request(#{self.uid} {self.kind.value} owner={self.owner} "
            f"ctx={self.ctx} src={self.posted_src} tag={self.posted_tag} "
            f"{self.state.value})"
        )
