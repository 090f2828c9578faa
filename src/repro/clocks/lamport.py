"""Lamport clocks — DAMPI's scalable causality approximation.

A Lamport clock is a single integer per process.  Update rules (paper
§II-C): local visible events increment it; on message receipt the local
clock becomes ``max(local, received)``.  If event *a* happened-before
event *b* then ``LC(a) < LC(b)``; the converse does not hold, so Lamport
clocks may order genuinely concurrent events.  DAMPI exploits the sound
direction: a send whose piggybacked clock is *not greater* than a wildcard
receive's epoch clock is provably not causally after the receive, hence a
potential match.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


@total_ordering
@dataclass(frozen=True, slots=True)
class LamportStamp:
    """Immutable Lamport timestamp (one integer + issuing rank for tie notes).

    Ordering compares the integer time only; the rank is metadata used in
    diagnostics and never participates in causality decisions, mirroring the
    paper where only the scalar clock is piggybacked.
    """

    time: int
    rank: int = -1

    def causally_before(self, other: "LamportStamp") -> bool:
        # Sound but incomplete: LC(a) < LC(b) is necessary for a -> b,
        # so we *report* a -> b whenever LC is smaller.  DAMPI's late-message
        # rule is built on exactly this approximation.
        return self.time < other.time

    @property
    def nbytes(self) -> int:
        """Wire size: one integer — the scalability argument for Lamport
        clocks (constant piggyback payload at any process count)."""
        return 8

    def leq(self, other: "LamportStamp") -> bool:
        """Reflexive order: does every event with this stamp (approximately)
        happen-before-or-equal ``other``?  Used by the late-message test
        with *post-tick* epoch stamps: a send is causally after an epoch
        only if the epoch's ticked clock flowed into it, i.e.
        ``epoch_post.leq(send)``."""
        return self.time <= other.time

    def __lt__(self, other: "LamportStamp") -> bool:
        return self.time < other.time

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LamportStamp):
            return NotImplemented
        return self.time == other.time

    def __hash__(self) -> int:
        return hash(self.time)

    def __repr__(self) -> str:  # compact; shows up a lot in decision files
        return f"LC({self.time})"


class LamportClock:
    """Mutable per-process Lamport clock with the paper's §V committed tick.

    The clock keeps two views of one scalar (§V: "a pair of Lamport
    clocks — one for handling wildcard receives, and the other for
    transmittal to other processes … synchronized when a Wait/Test is
    encountered"):

    * the **epoch view** ``time`` — ticks when a wildcard is posted
      (:meth:`tick_epoch`) and identifies epochs;
    * the **transmit view** — what :meth:`snapshot` piggybacks; only
      :meth:`merge` and :meth:`commit_epoch` (the wildcard's Wait/Test)
      move it, so an uncommitted epoch tick never escapes through a send
      or collective issued before its completion (paper Fig. 10).

    :meth:`tick` advances both views: a generic visible event.

    Attributes
    ----------
    rank:
        Owning process rank (diagnostics only).
    time:
        Current epoch-view value.  Starts at 0.
    """

    __slots__ = ("rank", "time", "_xmit", "_snap")

    def __init__(self, rank: int, time: int = 0):
        if time < 0:
            raise ValueError("Lamport time must be non-negative")
        self.rank = rank
        self.time = time
        self._xmit = time
        self._snap: LamportStamp | None = None

    def tick(self) -> None:
        """A visible local event: ``LC += 1`` in both views."""
        self.time += 1
        self._xmit += 1
        self._snap = None

    def tick_epoch(self) -> None:
        """A wildcard was posted: advance the epoch view only."""
        self.time += 1

    def commit_epoch(self, lc: int) -> None:
        """The wildcard posted at epoch-view ``lc`` completed: its tick
        (post-tick value ``lc + 1``) becomes transmittable."""
        if lc >= self._xmit:
            self._xmit = lc + 1
            self._snap = None

    def merge(self, stamp: LamportStamp) -> None:
        """Receive rule: ``LC = max(LC, received)`` in both views.

        Note the paper's Algorithm 1 does *not* tick after merging on a
        receive completion; only wildcard receives tick (they open epochs).
        We follow the paper: ``merge`` is max-only, ticking is explicit.
        """
        t = stamp.time
        if t > self._xmit:  # the epoch view never lags the transmit view
            self._xmit = t
            self._snap = None
            if t > self.time:
                self.time = t

    def snapshot(self) -> LamportStamp:
        """The transmit view, safe to piggyback."""
        # Stamps are immutable and the transmit view only moves on
        # merges/commits, while snapshot() runs once per piggybacked send
        # — cache between movements to avoid the per-send allocation.
        snap = self._snap
        if snap is None:
            snap = self._snap = LamportStamp(self._xmit, self.rank)
        return snap

    def epoch_snapshot(self) -> LamportStamp:
        """The epoch view, recorded as an epoch's post-tick stamp."""
        return LamportStamp(self.time, self.rank)

    def __repr__(self) -> str:
        return f"LamportClock(rank={self.rank}, time={self.time}, xmit={self._xmit})"
