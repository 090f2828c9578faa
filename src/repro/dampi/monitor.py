"""The §V omission-pattern monitor.

DAMPI's known blind spot (paper Fig. 10): a wildcard ``Irecv`` ticks the
local clock immediately, and if the rank *transmits* its clock (a send or
any collective) before the ``Wait``/``Test`` of that receive, other ranks
learn a clock value that makes their competing sends look causally-after
the epoch — so a real potential match is missed.

The paper's mitigation, reproduced here, is a scalable, process-local
monitor: alert whenever a clock-transmitting operation is issued while a
wildcard receive is outstanding (posted, not yet completed).  The alert
means coverage may be incomplete around those epochs — not that the
program is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mpi.constants import ANY_SOURCE
from repro.mpi.request import Request, RequestKind
from repro.pnmpi.module import ToolModule


@dataclass(frozen=True)
class OmissionAlert:
    """One detected instance of the §V pattern."""

    rank: int
    operation: str
    outstanding_wildcards: tuple[int, ...]  # request uids

    def __str__(self) -> str:
        return (
            f"rank {self.rank}: {self.operation} transmits the clock while "
            f"{len(self.outstanding_wildcards)} wildcard receive(s) are outstanding "
            f"— alternate-match coverage may be incomplete (paper §V)"
        )


@dataclass
class MonitorReport:
    alerts: list[OmissionAlert] = field(default_factory=list)

    @property
    def triggered(self) -> bool:
        return bool(self.alerts)

    def __len__(self) -> int:
        return len(self.alerts)


class OmissionMonitorModule(ToolModule):
    """Detects clock transmission between a wildcard Irecv and its Wait."""

    name = "monitor"

    def __init__(self) -> None:
        self._outstanding: list[dict[int, Request]] = []
        self._alerts: list[OmissionAlert] = []

    def setup(self, runtime) -> None:
        self._outstanding = [{} for _ in range(runtime.nprocs)]
        self._alerts = []

    def _check(self, proc, operation: str) -> None:
        outstanding = self._outstanding[proc.world_rank]
        if outstanding:
            self._alerts.append(
                OmissionAlert(
                    rank=proc.world_rank,
                    operation=operation,
                    outstanding_wildcards=tuple(sorted(outstanding)),
                )
            )

    # wildcard receives open the window ...

    def irecv(self, proc, chain, comm, source, tag):
        req = chain(comm, source, tag)
        if source == ANY_SOURCE:
            self._outstanding[proc.world_rank][req.uid] = req
        return req

    # ... completions close it ...

    def wait(self, proc, chain, req):
        status = chain(req)
        self._outstanding[proc.world_rank].pop(req.uid, None)
        return status

    def test(self, proc, chain, req):
        flag, status = chain(req)
        if flag:
            self._outstanding[proc.world_rank].pop(req.uid, None)
        return flag, status

    def request_free(self, proc, chain, req):
        chain(req)
        self._outstanding[proc.world_rank].pop(req.uid, None)

    # ... and transmissions inside the window alert.

    def isend(self, proc, chain, comm, payload, dest, tag):
        self._check(proc, "isend")
        return chain(comm, payload, dest, tag)

    def issend(self, proc, chain, comm, payload, dest, tag):
        self._check(proc, "issend")
        return chain(comm, payload, dest, tag)

    def scan(self, proc, chain, comm, payload, op):
        self._check(proc, "scan")
        return chain(comm, payload, op)

    def barrier(self, proc, chain, comm):
        self._check(proc, "barrier")
        return chain(comm)

    def ibarrier(self, proc, chain, comm):
        self._check(proc, "ibarrier")
        return chain(comm)

    def ibcast(self, proc, chain, comm, payload, root):
        self._check(proc, "ibcast")
        return chain(comm, payload, root)

    def iallreduce(self, proc, chain, comm, payload, op):
        self._check(proc, "iallreduce")
        return chain(comm, payload, op)

    def bcast(self, proc, chain, comm, payload, root):
        self._check(proc, "bcast")
        return chain(comm, payload, root)

    def reduce(self, proc, chain, comm, payload, op, root):
        self._check(proc, "reduce")
        return chain(comm, payload, op, root)

    def allreduce(self, proc, chain, comm, payload, op):
        self._check(proc, "allreduce")
        return chain(comm, payload, op)

    def gather(self, proc, chain, comm, payload, root):
        self._check(proc, "gather")
        return chain(comm, payload, root)

    def scatter(self, proc, chain, comm, payloads, root):
        self._check(proc, "scatter")
        return chain(comm, payloads, root)

    def allgather(self, proc, chain, comm, payload):
        self._check(proc, "allgather")
        return chain(comm, payload)

    def alltoall(self, proc, chain, comm, payloads):
        self._check(proc, "alltoall")
        return chain(comm, payloads)

    def reduce_scatter(self, proc, chain, comm, payloads, op):
        self._check(proc, "reduce_scatter")
        return chain(comm, payloads, op)

    def finish(self, runtime) -> MonitorReport:
        return MonitorReport(alerts=self._alerts)
