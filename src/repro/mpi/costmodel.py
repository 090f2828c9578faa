"""Virtual-time cost model.

The paper's figures plot wall-clock seconds on an 800-node InfiniBand
cluster.  We cannot measure that on one box, so every rank carries a
virtual clock (seconds) advanced by this model, and benchmark harnesses
report virtual times.  DAMPI's extra traffic is piggyback messages —
cheap and fully parallel — so its curves stay near native.  (ISP's
serialised central scheduler, the comparator of Figs. 5 and 6, is charged
by its own tool module in ``benchmarks/comparators/isp.py``.)

Default constants approximate a 2010-era InfiniBand cluster (~2 µs
latency, ~1.5 GB/s effective bandwidth).  Absolute values are
unimportant; ratios drive the curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log2

from repro.mpi.message import Envelope


@dataclass
class CostModel:
    """Charges virtual seconds for simulated operations.

    Attributes
    ----------
    p2p_overhead:
        CPU cost at sender or receiver to issue/complete a point-to-point op.
    latency:
        Network latency for one message.
    byte_time:
        Seconds per payload byte (1 / bandwidth).
    collective_alpha / collective_beta:
        A collective over ``n`` ranks costs ``alpha + beta * log2(n)``
        (tree-based implementation).
    local_op:
        Cost of purely local MPI ops (comm bookkeeping, request free, ...).
    """

    p2p_overhead: float = 0.5e-6
    latency: float = 2.0e-6
    byte_time: float = 1.0 / 1.5e9
    collective_alpha: float = 2.0e-6
    collective_beta: float = 1.5e-6
    local_op: float = 0.2e-6
    #: CPU-cost multiplier for traffic on tool (shadow) communicators.
    #: Piggyback messages ride the same transport as payload messages but
    #: skip user-level copies/matching bookkeeping; Schulz et al. [15]
    #: measured separate-message piggybacking at a few percent overhead.
    tool_factor: float = 0.35
    #: DAMPI bookkeeping per wildcard epoch: RecordEpochData plus the
    #: potential-match file append.  Dominates overhead in wildcard-dense
    #: codes (milc's 15× in Table II).
    tool_epoch_cost: float = 55.0e-6
    #: DAMPI late-message classification per received message (clock
    #: compare + non-overtaking lookup against the epoch list).
    tool_msg_analysis_cost: float = 0.2e-6
    #: per-call interposition dispatch cost (PnMPI stack traversal plus
    #: DAMPI's wrapper bookkeeping), charged once per instrumented op.
    tool_wrap_cost: float = 0.4e-6

    def send_cost(self, nbytes: int) -> float:
        """Sender-side cost of an eager isend."""
        return self.p2p_overhead + nbytes * self.byte_time

    def transfer_time(self, nbytes: int) -> float:
        """Wire time from issue to matchability at the receiver."""
        return self.latency + nbytes * self.byte_time

    def collective_cost(self, n: int) -> float:
        """Completion cost of a collective over ``n`` ranks."""
        if n <= 1:
            return self.collective_alpha
        return self.collective_alpha + self.collective_beta * log2(n)

    def arrival_vtime(self, env: Envelope) -> float:
        return env.send_vtime + self.transfer_time(env.nbytes)


@dataclass
class VirtualClocks:
    """Per-rank virtual clocks plus helpers the engine uses."""

    nprocs: int
    vtimes: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.vtimes:
            self.vtimes = [0.0] * self.nprocs

    def advance(self, rank: int, dt: float) -> float:
        self.vtimes[rank] += dt
        return self.vtimes[rank]

    def raise_to(self, rank: int, t: float) -> float:
        """Move a rank's clock forward to at least ``t`` (never backward)."""
        if t > self.vtimes[rank]:
            self.vtimes[rank] = t
        return self.vtimes[rank]

    def now(self, rank: int) -> float:
        return self.vtimes[rank]

    @property
    def makespan(self) -> float:
        """Job completion time: the slowest rank's clock."""
        return max(self.vtimes) if self.vtimes else 0.0
