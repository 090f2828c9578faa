"""ISP — the centralized dynamic-verifier baseline (paper §II-A).

ISP intercepts every MPI call and makes a *synchronous round-trip* to a
central scheduler process before allowing the call to proceed.  The
scheduler sees global state, so its match discovery is complete (no
clock imprecision), but it serialises the whole job: its queue length
grows with the total — not per-rank — operation count, producing the
super-linear slowdown of the paper's Fig. 5.

:class:`IspInterpositionModule` models the round-trips and the serialised
scheduler (:class:`SerializedResource`) in virtual time: latency out +
queueing + decision service + latency back, all charged to the calling
rank's virtual clock.  Non-deterministic operations cost extra service
(ISP delays them to discover the full match set).  :class:`IspVerifier`
stands in for the scheduler's omniscient match discovery with
vector-clock DAMPI, which is complete on these workloads (DESIGN.md §2
documents this substitution).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions
from repro.dampi.verifier import DampiVerifier
from repro.mpi.constants import ANY_SOURCE
from repro.pnmpi.module import ToolModule


@dataclass
class SerializedResource:
    """A single-server queue in virtual time (ISP's central scheduler).

    ``visit(arrival, service)`` returns the departure time of a request
    arriving at virtual time ``arrival`` needing ``service`` seconds, with
    strictly serialised service: requests queue behind ``busy_until``.
    This is what turns ISP's per-call round-trips into the super-linear
    slowdown of Fig. 5 — the queue's utilisation scales with the *total*
    op count across all ranks.
    """

    busy_until: float = 0.0
    visits: int = 0
    total_service: float = 0.0
    total_wait: float = 0.0

    def visit(self, arrival: float, service: float) -> float:
        start = max(self.busy_until, arrival)
        self.total_wait += start - arrival
        self.busy_until = start + service
        self.visits += 1
        self.total_service += service
        return self.busy_until


@dataclass
class IspCostParams:
    """Virtual-time constants for the central scheduler.

    ``service`` is the scheduler CPU per MPI event (socket handling +
    interleaving bookkeeping); ``wildcard_service`` replaces it for
    non-deterministic operations, which ISP must buffer and analyse;
    ``tcp_latency`` is the per-direction socket latency to the scheduler
    host (ISP uses Unix/TCP sockets, far slower than the compute fabric).
    The module's :class:`SerializedResource` adds queueing delay on top —
    that queue, not these constants, is what blows up with scale.
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
        self._queue = SerializedResource()
        self.round_trips = 0
        self.wildcard_round_trips = 0
        self._in_batch: list[int] = []

    def setup(self, runtime) -> None:
        self._engine = runtime.engine
        # the scheduler round trip includes the socket latency; the queue
        # is per run, like the engine
        self._engine.cost.latency = max(self._engine.cost.latency, self.params.tcp_latency)
        self._queue = SerializedResource()
        self.round_trips = 0
        self.wildcard_round_trips = 0
        self._in_batch = [0] * runtime.nprocs

    def _visit(self, proc, service: float) -> None:
        """Synchronous round-trip to the scheduler: latency out, queueing +
        service, latency back — all on the calling rank's virtual clock."""
        rank = proc.world_rank
        clocks, cost = self._engine.clocks, self._engine.cost
        arrival = clocks.now(rank) + cost.latency
        done = self._queue.visit(arrival, service)
        clocks.raise_to(rank, done + cost.latency)
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
        queue = self._queue
        return {
            "round_trips": self.round_trips,
            "wildcard_round_trips": self.wildcard_round_trips,
            "scheduler_busy": queue.busy_until,
            "scheduler_service": queue.total_service,
            "scheduler_queue_wait": queue.total_wait,
        }


class IspVerifier(DampiVerifier):
    """Centralized baseline with ISP's cost structure and completeness.

    Reuses DAMPI's replay machinery with two changes that capture what
    made ISP different: every MPI call pays the scheduler round-trip
    (:class:`IspInterpositionModule`, outermost), and match discovery is
    *omniscient* — realised with vector clocks, which are complete on
    these patterns (the Fig. 4 analysis); tests exercise the coverage
    equivalence.
    """

    def __init__(
        self,
        program: Callable,
        nprocs: int,
        config: Optional[DampiConfig] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ):
        config = replace(config or DampiConfig(), clock_impl="vector")
        super().__init__(program, nprocs, config, args=args, kwargs=kwargs)

    def _build_modules(self, decisions: Optional[EpochDecisions]) -> list:
        return [IspInterpositionModule(), *super()._build_modules(decisions)]
