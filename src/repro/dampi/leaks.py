"""Resource-leak checking (Table II's C-Leak and R-Leak columns).

DAMPI checks, locally per process and therefore scalably, at
``MPI_Finalize``:

* **communicator leaks** — communicators created via ``comm_dup`` /
  ``comm_split`` but never freed before ``MPI_Finalize``;
* **request leaks** — requests no Wait/Test consumed, pending or
  completed, including requests released with ``MPI_Request_free`` while
  still active.

The check is a read of the engine, which creates and retires every
request and communicator context: :meth:`MessageEngine.held_contexts`,
``live_requests`` and ``freed_active`` say what a rank still holds.  Live
requests on tool contexts (DAMPI's shadow exchanges) are not the
program's and are skipped.
"""

from __future__ import annotations

from typing import Optional

from repro.mpi.request import RequestState
from repro.pnmpi.module import ToolModule


class CommLeak:
    __slots__ = ("rank", "ctx", "label")

    def __init__(self, rank: int, ctx: int, label: str):
        self.rank = rank
        self.ctx = ctx
        self.label = label

    def __str__(self) -> str:
        return f"rank {self.rank}: communicator {self.label} (ctx {self.ctx}) never freed"


class RequestLeak:
    __slots__ = ("rank", "req_uid", "kind", "detail")

    def __init__(self, rank: int, req_uid: int, kind: str, detail: str):
        self.rank = rank
        self.req_uid = req_uid
        self.kind = kind
        self.detail = detail

    def __str__(self) -> str:
        return f"rank {self.rank}: {self.kind} request #{self.req_uid} {self.detail}"


class LeakReport:
    __slots__ = ("comm_leaks", "request_leaks")

    def __init__(
        self,
        comm_leaks: Optional[list[CommLeak]] = None,
        request_leaks: Optional[list[RequestLeak]] = None,
    ):
        self.comm_leaks = [] if comm_leaks is None else comm_leaks
        self.request_leaks = [] if request_leaks is None else request_leaks

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


class LeakCheckModule(ToolModule):
    """Reads what each rank still holds from the engine at its
    ``MPI_Finalize``; it wraps no other entry point."""

    name = "leaks"

    def __init__(self) -> None:
        self._reports: list[LeakReport] = []

    def setup(self, runtime) -> None:
        self._reports = [LeakReport() for _ in range(runtime.nprocs)]

    def finalize(self, proc, chain):
        # read before the modules below finalize: the clock module's
        # barrier and drain would complete some pending requests
        rank = proc.world_rank
        engine = proc.engine
        report = self._reports[rank]
        for ctx in engine.held_contexts(rank):
            if ctx is not engine.world:
                report.comm_leaks.append(CommLeak(rank, ctx.ctx, ctx.label))
        for uid, req in sorted(engine.live_requests[rank].items()):
            if not engine.contexts[req.ctx].tool:
                detail = (
                    "pending at MPI_Finalize"
                    if req.state is RequestState.PENDING
                    else "completed but never waited/tested"
                )
                report.request_leaks.append(RequestLeak(rank, uid, req.kind.value, detail))
        for req in engine.freed_active[rank]:
            report.request_leaks.append(
                RequestLeak(rank, req.uid, req.kind.value, "freed while still active")
            )
        return chain()

    def finish(self, runtime) -> LeakReport:
        merged = LeakReport()
        for report in self._reports:
            merged.merge(report)
        return merged
