"""Resource-leak checking (Table II's C-Leak and R-Leak columns).

DAMPI checks, locally per process and therefore scalably:

* **communicator leaks** — communicators created via ``comm_dup`` /
  ``comm_split`` but never freed before ``MPI_Finalize``;
* **request leaks** — requests still pending at ``MPI_Finalize`` (never
  completed by a Wait/Test), including requests released with
  ``MPI_Request_free`` while still active.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mpi.request import Request, RequestState
from repro.pnmpi.module import ToolModule


@dataclass(frozen=True)
class CommLeak:
    rank: int
    ctx: int
    label: str

    def __str__(self) -> str:
        return f"rank {self.rank}: communicator {self.label} (ctx {self.ctx}) never freed"


@dataclass(frozen=True)
class RequestLeak:
    rank: int
    req_uid: int
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"rank {self.rank}: {self.kind} request #{self.req_uid} {self.detail}"


@dataclass
class LeakReport:
    comm_leaks: list[CommLeak] = field(default_factory=list)
    request_leaks: list[RequestLeak] = field(default_factory=list)

    @property
    def has_comm_leak(self) -> bool:
        return bool(self.comm_leaks)

    @property
    def has_request_leak(self) -> bool:
        return bool(self.request_leaks)

    @property
    def clean(self) -> bool:
        return not (self.comm_leaks or self.request_leaks)

    def merge(self, other: "LeakReport") -> None:
        self.comm_leaks.extend(other.comm_leaks)
        self.request_leaks.extend(other.request_leaks)

    def __str__(self) -> str:
        if self.clean:
            return "no leaks"
        lines = [str(l) for l in self.comm_leaks] + [str(l) for l in self.request_leaks]
        return "; ".join(lines)


class _RankLeakState:
    __slots__ = ("live_comms", "live_requests", "freed_active")

    def __init__(self) -> None:
        #: ctx id -> label of communicators this rank created and not yet freed
        self.live_comms: dict[int, str] = {}
        #: uid -> Request for requests posted and not yet completed
        self.live_requests: dict[int, Request] = {}
        #: requests freed while still active (immediate R-Leak evidence)
        self.freed_active: list[Request] = []


class LeakCheckModule(ToolModule):
    """Tracks communicator and request lifecycles per rank."""

    name = "leaks"

    def __init__(self) -> None:
        self._state: list[_RankLeakState] = []
        self._reports: list[LeakReport] = []

    def setup(self, runtime) -> None:
        self._state = [_RankLeakState() for _ in range(runtime.nprocs)]
        self._reports = [LeakReport() for _ in range(runtime.nprocs)]

    # -- communicators ------------------------------------------------------

    def comm_dup(self, proc, chain, comm):
        new_comm = chain(comm)
        self._state[proc.world_rank].live_comms[new_comm.ctx] = new_comm.context.label
        return new_comm

    def comm_split(self, proc, chain, comm, color, key):
        new_comm = chain(comm, color, key)
        if new_comm is not None:
            self._state[proc.world_rank].live_comms[new_comm.ctx] = new_comm.context.label
        return new_comm

    def comm_free(self, proc, chain, comm):
        chain(comm)
        self._state[proc.world_rank].live_comms.pop(comm.ctx, None)

    # -- requests ------------------------------------------------------------

    def isend(self, proc, chain, comm, payload, dest, tag):
        req = chain(comm, payload, dest, tag)
        self._state[proc.world_rank].live_requests[req.uid] = req
        return req

    def irecv(self, proc, chain, comm, source, tag):
        req = chain(comm, source, tag)
        self._state[proc.world_rank].live_requests[req.uid] = req
        return req

    def wait(self, proc, chain, req):
        status = chain(req)
        self._state[proc.world_rank].live_requests.pop(req.uid, None)
        return status

    def test(self, proc, chain, req):
        flag, status = chain(req)
        if flag:
            self._state[proc.world_rank].live_requests.pop(req.uid, None)
        return flag, status

    def request_free(self, proc, chain, req):
        state = self._state[proc.world_rank]
        was_pending = req.state is RequestState.PENDING
        chain(req)
        state.live_requests.pop(req.uid, None)
        if was_pending:
            # freeing an incomplete request: the transfer may still happen,
            # but the user can never confirm it — DAMPI flags it.
            state.freed_active.append(req)

    # -- finalize-time check -----------------------------------------------------

    def finalize(self, proc, chain):
        rank = proc.world_rank
        state = self._state[rank]
        report = self._reports[rank]
        for ctx, label in sorted(state.live_comms.items()):
            report.comm_leaks.append(CommLeak(rank, ctx, label))
        for uid, req in sorted(state.live_requests.items()):
            detail = (
                "pending at MPI_Finalize"
                if req.state is RequestState.PENDING
                else "completed but never waited/tested"
            )
            report.request_leaks.append(RequestLeak(rank, uid, req.kind.value, detail))
        for req in state.freed_active:
            report.request_leaks.append(
                RequestLeak(rank, req.uid, req.kind.value, "freed while still active")
            )
        return chain()

    def finish(self, runtime) -> LeakReport:
        merged = LeakReport()
        for report in self._reports:
            merged.merge(report)
        return merged
