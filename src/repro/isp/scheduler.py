"""ISP's centralized scheduler tax, as an interposition module.

Every wrapped MPI call visits the engine's serialised central resource
before proceeding: latency out + queueing + decision service + latency
back, all charged to the calling rank's virtual clock.  Non-deterministic
operations cost extra service (ISP delays them to discover the full match
set; paper §II-A).  The module also counts scheduler traffic so benches
can report scheduler load.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mpi.constants import ANY_SOURCE
from repro.pnmpi.module import ToolModule


@dataclass
class IspCostParams:
    """Virtual-time constants for the central scheduler.

    ``service`` is the scheduler CPU per MPI event (socket handling +
    interleaving bookkeeping); ``wildcard_service`` replaces it for
    non-deterministic operations, which ISP must buffer and analyse;
    ``tcp_latency`` is the per-direction socket latency to the scheduler
    host (ISP uses Unix/TCP sockets, far slower than the compute fabric).
    The engine's ``visit_central`` adds queueing delay on top — that
    queue, not these constants, is what blows up with scale.
    """

    service: float = 35.0e-6
    wildcard_service: float = 120.0e-6
    tcp_latency: float = 30.0e-6


class IspInterpositionModule(ToolModule):
    """Charges a synchronous scheduler round-trip per MPI call."""

    name = "isp"

    def __init__(self, params: IspCostParams | None = None):
        self.params = params or IspCostParams()
        self._engine = None
        self.round_trips = 0
        self.wildcard_round_trips = 0
        self._in_batch: list[int] = []

    def setup(self, runtime) -> None:
        self._engine = runtime.engine
        # the scheduler round trip includes the socket latency; the queue
        # itself lives in the engine's SerializedResource
        self._engine.cost.latency = max(self._engine.cost.latency, self.params.tcp_latency)
        self.round_trips = 0
        self.wildcard_round_trips = 0
        self._in_batch = [0] * runtime.nprocs

    def _visit(self, proc, service: float) -> None:
        self._engine.visit_central(proc.world_rank, service)
        self.round_trips += 1

    # point-to-point -------------------------------------------------------------

    def isend(self, proc, chain, comm, payload, dest, tag):
        self._visit(proc, self.params.service)
        return chain(comm, payload, dest, tag)

    def issend(self, proc, chain, comm, payload, dest, tag):
        self._visit(proc, self.params.service)
        return chain(comm, payload, dest, tag)

    def irecv(self, proc, chain, comm, source, tag):
        if source == ANY_SOURCE:
            self._visit(proc, self.params.wildcard_service)
            self.wildcard_round_trips += 1
        else:
            self._visit(proc, self.params.service)
        return chain(comm, source, tag)

    def wait(self, proc, chain, req):
        # MPI_Waitall/Waitany were already charged as one scheduler event
        if not self._in_batch[proc.world_rank]:
            self._visit(proc, self.params.service)
        return chain(req)

    def waitall(self, proc, chain, reqs):
        self._visit(proc, self.params.service)
        self._in_batch[proc.world_rank] += 1
        try:
            return chain(reqs)
        finally:
            self._in_batch[proc.world_rank] -= 1

    def waitany(self, proc, chain, reqs):
        self._visit(proc, self.params.wildcard_service)
        self._in_batch[proc.world_rank] += 1
        try:
            return chain(reqs)
        finally:
            self._in_batch[proc.world_rank] -= 1

    def test(self, proc, chain, req):
        self._visit(proc, self.params.service)
        return chain(req)

    def probe(self, proc, chain, comm, source, tag):
        if source == ANY_SOURCE:
            self._visit(proc, self.params.wildcard_service)
            self.wildcard_round_trips += 1
        else:
            self._visit(proc, self.params.service)
        return chain(comm, source, tag)

    def iprobe(self, proc, chain, comm, source, tag):
        if source == ANY_SOURCE:
            self._visit(proc, self.params.wildcard_service)
            self.wildcard_round_trips += 1
        else:
            self._visit(proc, self.params.service)
        return chain(comm, source, tag)

    # collectives ------------------------------------------------------------------

    def barrier(self, proc, chain, comm):
        self._visit(proc, self.params.service)
        return chain(comm)

    def ibarrier(self, proc, chain, comm):
        self._visit(proc, self.params.service)
        return chain(comm)

    def ibcast(self, proc, chain, comm, payload, root):
        self._visit(proc, self.params.service)
        return chain(comm, payload, root)

    def iallreduce(self, proc, chain, comm, payload, op):
        self._visit(proc, self.params.service)
        return chain(comm, payload, op)

    def bcast(self, proc, chain, comm, payload, root):
        self._visit(proc, self.params.service)
        return chain(comm, payload, root)

    def reduce(self, proc, chain, comm, payload, op, root):
        self._visit(proc, self.params.service)
        return chain(comm, payload, op, root)

    def allreduce(self, proc, chain, comm, payload, op):
        self._visit(proc, self.params.service)
        return chain(comm, payload, op)

    def gather(self, proc, chain, comm, payload, root):
        self._visit(proc, self.params.service)
        return chain(comm, payload, root)

    def scatter(self, proc, chain, comm, payloads, root):
        self._visit(proc, self.params.service)
        return chain(comm, payloads, root)

    def allgather(self, proc, chain, comm, payload):
        self._visit(proc, self.params.service)
        return chain(comm, payload)

    def alltoall(self, proc, chain, comm, payloads):
        self._visit(proc, self.params.service)
        return chain(comm, payloads)

    def reduce_scatter(self, proc, chain, comm, payloads, op):
        self._visit(proc, self.params.service)
        return chain(comm, payloads, op)

    def scan(self, proc, chain, comm, payload, op):
        self._visit(proc, self.params.service)
        return chain(comm, payload, op)

    def comm_dup(self, proc, chain, comm):
        self._visit(proc, self.params.service)
        return chain(comm)

    def comm_split(self, proc, chain, comm, color, key):
        self._visit(proc, self.params.service)
        return chain(comm, color, key)

    def comm_free(self, proc, chain, comm):
        self._visit(proc, self.params.service)
        return chain(comm)

    def finish(self, runtime) -> dict:
        central = runtime.engine.central
        return {
            "round_trips": self.round_trips,
            "wildcard_round_trips": self.wildcard_round_trips,
            "scheduler_busy": central.busy_until,
            "scheduler_service": central.total_service,
            "scheduler_queue_wait": central.total_wait,
        }
