"""Epoch records and potential matches — what one run observes.

Paper §II-B: each non-deterministic operation (wildcard receive or probe)
*starts an epoch*, identified by the issuing rank's Lamport clock value at
the moment of issue.  The trace of one run is, per rank, the ordered list
of epochs plus every late message recorded against them; the explorer
turns that into alternative match decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.clocks.base import Stamp
from repro.mpi.constants import ANY_TAG

#: Epoch identity across runs: ``(rank, lamport-clock-at-issue)``.  Clock
#: evolution is a deterministic function of match outcomes, so forced
#: prefixes reproduce these keys exactly.
EpochKey = tuple[int, int]


@dataclass(slots=True)
class EpochRecord:
    """One non-deterministic operation observed during a run.

    Attributes
    ----------
    rank / lc:
        The epoch key (``lc`` is the clock value *before* the tick).
    index:
        This epoch's ordinal among the rank's epochs (diagnostics).
    ctx / tag:
        Communicator context and the receive's posted tag (possibly
        ``ANY_TAG``).
    kind:
        ``"recv"`` for wildcard (i)receives, ``"probe"`` for wildcard
        probes that reported a message.
    stamp:
        Clock snapshot *after* the epoch's tick — the causal frontier:
        a send whose stamp dominates it (``stamp.leq(send_stamp)``) is
        causally after the epoch and excluded; anything else is late.
    explore:
        False when the epoch was issued inside an ``MPI_Pcontrol`` region
        (loop iteration abstraction, §III-B1): DAMPI keeps the self-run
        match and never explores alternatives.
    forced:
        True when guided mode determinized this receive.
    matched_source / matched_env_uid / matched_seq:
        Filled when the operation completes: the source that actually
        matched (communicator-local), the envelope's uid and its position
        in the (source, dest, ctx) stream.
    """

    rank: int
    lc: int
    index: int
    ctx: int
    tag: int
    kind: str = "recv"
    stamp: Optional[Stamp] = None
    explore: bool = True
    forced: bool = False
    matched_source: Optional[int] = None
    matched_env_uid: Optional[int] = None
    matched_seq: Optional[int] = None

    @property
    def key(self) -> EpochKey:
        return (self.rank, self.lc)

    def accepts_tag(self, tag: int) -> bool:
        return self.tag == ANY_TAG or self.tag == tag

    def __repr__(self) -> str:
        m = f" matched={self.matched_source}" if self.matched_source is not None else ""
        return f"Epoch({self.kind} r{self.rank}@{self.lc} ctx={self.ctx} tag={self.tag}{m})"


@dataclass(slots=True)
class PotentialMatch:
    """A late message recorded against an epoch (paper Fig. 2's red arrows).

    ``source`` is communicator-local; ``seq`` is the message's position in
    the sender's stream (for the earliest-late-send-per-source rule);
    ``env_uid`` identifies the envelope so the actually-matched message can
    be excluded.
    """

    epoch: EpochKey
    source: int
    env_uid: int
    seq: int
    tag: int
    stamp: Optional[Stamp] = None

    def __repr__(self) -> str:
        return f"PotentialMatch(epoch={self.epoch}, src={self.source}, seq={self.seq})"


@dataclass
class RunTrace:
    """Everything DAMPI's modules learned from one execution."""

    nprocs: int
    #: rank -> ordered epoch records
    epochs: dict[int, list[EpochRecord]] = field(default_factory=dict)
    #: raw late-message records, pre non-overtaking finalisation
    potential_matches: list[PotentialMatch] = field(default_factory=list)
    #: decisions that were loaded but never consumed (replay divergence)
    unconsumed_decisions: list[EpochKey] = field(default_factory=list)
    #: epochs where a forced source disagreed with what completed
    forced_mismatches: list[EpochKey] = field(default_factory=list)
    #: epochs whose late-send set may be truncated by scalar-clock
    #: imprecision: a candidate was excluded because its scalar stamp
    #: dominated the epoch's, an ordering vector clocks might refute
    #: (the Fig. 4 cross-coupled pattern).  Empty under vector clocks.
    scalar_risk: list[EpochKey] = field(default_factory=list)

    def all_epochs(self) -> list[EpochRecord]:
        out: list[EpochRecord] = []
        for rank in sorted(self.epochs):
            out.extend(self.epochs[rank])
        return out

    def epoch_by_key(self, key: EpochKey) -> Optional[EpochRecord]:
        for e in self.epochs.get(key[0], ()):
            if e.lc == key[1]:
                return e
        return None

    @property
    def wildcard_count(self) -> int:
        """Number of non-deterministic operations analyzed (Table II's R*)."""
        return sum(len(v) for v in self.epochs.values())

    @property
    def diverged(self) -> bool:
        return bool(self.unconsumed_decisions or self.forced_mismatches)
