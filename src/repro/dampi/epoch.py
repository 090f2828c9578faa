"""Epoch records and potential matches — what one run observes.

Paper §II-B: each non-deterministic operation (wildcard receive or probe)
*starts an epoch*, identified by the issuing rank's Lamport clock value at
the moment of issue.  The trace of one run is, per rank, the ordered list
of epochs plus every late message recorded against them; the explorer
turns that into alternative match decisions.
"""

from __future__ import annotations

from typing import Optional

from repro.clocks.base import Stamp

#: Epoch identity across runs: ``(rank, lamport-clock-at-issue)``.  Clock
#: evolution is a deterministic function of match outcomes, so forced
#: prefixes reproduce these keys exactly.
EpochKey = tuple[int, int]


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

    __slots__ = (
        "rank", "lc", "index", "ctx", "tag", "kind", "stamp", "explore",
        "forced", "matched_source", "matched_env_uid", "matched_seq",
    )

    def __init__(
        self,
        rank: int,
        lc: int,
        index: int,
        ctx: int,
        tag: int,
        kind: str = "recv",
        stamp: Optional[Stamp] = None,
        explore: bool = True,
        forced: bool = False,
        matched_source: Optional[int] = None,
        matched_env_uid: Optional[int] = None,
        matched_seq: Optional[int] = None,
    ):
        self.rank = rank
        self.lc = lc
        self.index = index
        self.ctx = ctx
        self.tag = tag
        self.kind = kind
        self.stamp = stamp
        self.explore = explore
        self.forced = forced
        self.matched_source = matched_source
        self.matched_env_uid = matched_env_uid
        self.matched_seq = matched_seq

    @property
    def key(self) -> EpochKey:
        return (self.rank, self.lc)

    def __repr__(self) -> str:
        m = f" matched={self.matched_source}" if self.matched_source is not None else ""
        return f"Epoch({self.kind} r{self.rank}@{self.lc} ctx={self.ctx} tag={self.tag}{m})"


class PotentialMatch:
    """A late message recorded against an epoch (paper Fig. 2's red arrows).

    ``source`` is communicator-local; ``seq`` is the message's position in
    the sender's stream (for the earliest-late-send-per-source rule);
    ``env_uid`` identifies the envelope so the actually-matched message can
    be excluded.
    """

    __slots__ = ("epoch", "source", "env_uid", "seq", "tag", "stamp")

    def __init__(
        self,
        epoch: EpochKey,
        source: int,
        env_uid: int,
        seq: int,
        tag: int,
        stamp: Optional[Stamp] = None,
    ):
        self.epoch = epoch
        self.source = source
        self.env_uid = env_uid
        self.seq = seq
        self.tag = tag
        self.stamp = stamp

    def __repr__(self) -> str:
        return f"PotentialMatch(epoch={self.epoch}, src={self.source}, seq={self.seq})"


class RunTrace:
    """Everything DAMPI's modules learned from one execution.

    Attributes
    ----------
    epochs:
        rank -> ordered epoch records.
    potential_matches:
        Raw late-message records, pre non-overtaking finalisation.
    unconsumed_decisions:
        Decisions that were loaded but never consumed (replay divergence).
    scalar_risk:
        Epochs whose late-send set may be truncated by scalar-clock
        imprecision: a candidate was excluded because its scalar stamp
        dominated the epoch's, an ordering vector clocks might refute
        (the Fig. 4 cross-coupled pattern).  Empty under vector clocks.
    """

    __slots__ = (
        "nprocs", "epochs", "potential_matches", "unconsumed_decisions", "scalar_risk",
    )

    def __init__(
        self,
        nprocs: int,
        epochs: Optional[dict[int, list[EpochRecord]]] = None,
        potential_matches: Optional[list[PotentialMatch]] = None,
        unconsumed_decisions: Optional[list[EpochKey]] = None,
        scalar_risk: Optional[list[EpochKey]] = None,
    ):
        self.nprocs = nprocs
        self.epochs = {} if epochs is None else epochs
        self.potential_matches = [] if potential_matches is None else potential_matches
        self.unconsumed_decisions = (
            [] if unconsumed_decisions is None else unconsumed_decisions
        )
        self.scalar_risk = [] if scalar_risk is None else scalar_risk

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
        """The replay never reached some forced epoch (an unconsumed
        decision).  A forced epoch that is reached always completes from
        its forced source: the receive is re-posted with that source, so
        the engine cannot match it elsewhere."""
        return bool(self.unconsumed_decisions)
