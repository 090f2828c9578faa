"""Operation census — reproduces the methodology behind Table I.

The paper logs "all MPI communication operations that ParMETIS makes" and
classifies them as Send-Recv (all point-to-point), Collective, or Wait
(all MPI_Wait variants), excluding local operations.  :class:`TraceModule`
is a PnMPI module doing exactly that at the interposition level, so it
counts *application* calls and not tool-internal (piggyback) traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.pnmpi.module import ToolModule


class OpClass(enum.Enum):
    SEND_RECV = "Send-Recv"
    COLLECTIVE = "Collective"
    WAIT = "Wait"
    LOCAL = "Local"


#: Entry point -> paper classification.  ``comm_free``/``request_free`` and
#: ``pcontrol`` are local ops and excluded from "All", like the paper's
#: MPI_Type_create / MPI_Get_count exclusions.
CLASSIFICATION: dict[str, OpClass] = {
    "isend": OpClass.SEND_RECV,
    "issend": OpClass.SEND_RECV,
    "ssend": OpClass.SEND_RECV,
    "irecv": OpClass.SEND_RECV,
    "sendrecv": OpClass.SEND_RECV,
    "probe": OpClass.SEND_RECV,
    "iprobe": OpClass.SEND_RECV,
    "wait": OpClass.WAIT,
    "waitall": OpClass.WAIT,
    "waitany": OpClass.WAIT,
    "waitsome": OpClass.WAIT,
    "test": OpClass.WAIT,
    "testall": OpClass.WAIT,
    "barrier": OpClass.COLLECTIVE,
    "ibarrier": OpClass.COLLECTIVE,
    "ibcast": OpClass.COLLECTIVE,
    "iallreduce": OpClass.COLLECTIVE,
    "bcast": OpClass.COLLECTIVE,
    "reduce": OpClass.COLLECTIVE,
    "allreduce": OpClass.COLLECTIVE,
    "gather": OpClass.COLLECTIVE,
    "scatter": OpClass.COLLECTIVE,
    "allgather": OpClass.COLLECTIVE,
    "alltoall": OpClass.COLLECTIVE,
    "reduce_scatter": OpClass.COLLECTIVE,
    "scan": OpClass.COLLECTIVE,
    "comm_dup": OpClass.COLLECTIVE,
    "comm_split": OpClass.COLLECTIVE,
    "comm_free": OpClass.LOCAL,
    "request_free": OpClass.LOCAL,
    "pcontrol": OpClass.LOCAL,
    "init": OpClass.LOCAL,
    "finalize": OpClass.LOCAL,
    "compute": OpClass.LOCAL,
}


@dataclass
class TraceReport:
    """Aggregated counts in the shape of Table I."""

    nprocs: int
    per_rank: list[dict[OpClass, int]] = field(default_factory=list)

    def total(self, cls: OpClass | None = None) -> int:
        """Total ops of a class (or of all non-local classes — "All")."""
        if cls is None:
            return sum(
                self.total(c)
                for c in (OpClass.SEND_RECV, OpClass.COLLECTIVE, OpClass.WAIT)
            )
        return sum(counts.get(cls, 0) for counts in self.per_rank)

    def per_proc(self, cls: OpClass | None = None) -> float:
        return self.total(cls) / max(1, self.nprocs)

    def row(self) -> dict[str, float]:
        """One Table-I column as a dict (keys match the paper's rows)."""
        return {
            "All": self.total(),
            "All per proc": self.per_proc(),
            "Send-Recv": self.total(OpClass.SEND_RECV),
            "Send-Recv per proc": self.per_proc(OpClass.SEND_RECV),
            "Collective": self.total(OpClass.COLLECTIVE),
            "Collective per proc": self.per_proc(OpClass.COLLECTIVE),
            "Wait": self.total(OpClass.WAIT),
            "Wait per proc": self.per_proc(OpClass.WAIT),
        }


class TraceModule(ToolModule):
    """Counts application-level MPI operations by paper classification."""

    name = "trace"

    def __init__(self) -> None:
        self._counts: list[dict[OpClass, int]] = []
        self._in_batch: list[int] = []

    def setup(self, runtime) -> None:
        self._counts = [
            {c: 0 for c in OpClass} for _ in range(runtime.nprocs)
        ]
        self._in_batch = [0] * runtime.nprocs

    def _bump(self, proc, point: str) -> None:
        self._counts[proc.world_rank][CLASSIFICATION[point]] += 1

    # One tiny wrapper per counted entry point.  Generated methods would be
    # shorter but opaque; spelled out, the stack's override detection and
    # tracebacks stay readable.

    # The i*/wait wrappers are gated on _in_batch: inside a batched call
    # (waitall/waitany/waitsome/testall/ssend/sendrecv) the batch itself
    # was already counted as one op, matching how the paper's Table I
    # counts MPI_Waitall or MPI_Sendrecv once.

    def isend(self, proc, chain, *a):
        if not self._in_batch[proc.world_rank]:
            self._bump(proc, "isend")
        return chain(*a)

    def issend(self, proc, chain, *a):
        if not self._in_batch[proc.world_rank]:
            self._bump(proc, "issend")
        return chain(*a)

    def ssend(self, proc, chain, *a):
        return self._batched(proc, "ssend", chain, *a)

    def irecv(self, proc, chain, *a):
        if not self._in_batch[proc.world_rank]:
            self._bump(proc, "irecv")
        return chain(*a)

    def sendrecv(self, proc, chain, *a):
        return self._batched(proc, "sendrecv", chain, *a)

    def probe(self, proc, chain, *a):
        self._bump(proc, "probe")
        return chain(*a)

    def iprobe(self, proc, chain, *a):
        self._bump(proc, "iprobe")
        return chain(*a)

    def _batched(self, proc, point, chain, *a):
        """Count the batch op once and suppress its constituent
        isend/issend/irecv/wait wrappers while the chain runs."""
        self._bump(proc, point)
        self._in_batch[proc.world_rank] += 1
        try:
            return chain(*a)
        finally:
            self._in_batch[proc.world_rank] -= 1

    def wait(self, proc, chain, *a):
        if not self._in_batch[proc.world_rank]:
            self._bump(proc, "wait")
        return chain(*a)

    def waitall(self, proc, chain, reqs):
        return self._batched(proc, "waitall", chain, reqs)

    def waitany(self, proc, chain, reqs):
        return self._batched(proc, "waitany", chain, reqs)

    def waitsome(self, proc, chain, reqs):
        return self._batched(proc, "waitsome", chain, reqs)

    def test(self, proc, chain, *a):
        self._bump(proc, "test")
        return chain(*a)

    def testall(self, proc, chain, reqs):
        return self._batched(proc, "testall", chain, reqs)

    def barrier(self, proc, chain, *a):
        self._bump(proc, "barrier")
        return chain(*a)

    def ibarrier(self, proc, chain, *a):
        self._bump(proc, "ibarrier")
        return chain(*a)

    def ibcast(self, proc, chain, *a):
        self._bump(proc, "ibcast")
        return chain(*a)

    def iallreduce(self, proc, chain, *a):
        self._bump(proc, "iallreduce")
        return chain(*a)

    def bcast(self, proc, chain, *a):
        self._bump(proc, "bcast")
        return chain(*a)

    def reduce(self, proc, chain, *a):
        self._bump(proc, "reduce")
        return chain(*a)

    def allreduce(self, proc, chain, *a):
        self._bump(proc, "allreduce")
        return chain(*a)

    def gather(self, proc, chain, *a):
        self._bump(proc, "gather")
        return chain(*a)

    def scatter(self, proc, chain, *a):
        self._bump(proc, "scatter")
        return chain(*a)

    def allgather(self, proc, chain, *a):
        self._bump(proc, "allgather")
        return chain(*a)

    def alltoall(self, proc, chain, *a):
        self._bump(proc, "alltoall")
        return chain(*a)

    def reduce_scatter(self, proc, chain, *a):
        self._bump(proc, "reduce_scatter")
        return chain(*a)

    def scan(self, proc, chain, *a):
        self._bump(proc, "scan")
        return chain(*a)

    def comm_dup(self, proc, chain, *a):
        self._bump(proc, "comm_dup")
        return chain(*a)

    def comm_split(self, proc, chain, *a):
        self._bump(proc, "comm_split")
        return chain(*a)

    def finish(self, runtime) -> TraceReport:
        return TraceReport(nprocs=runtime.nprocs, per_rank=self._counts)
