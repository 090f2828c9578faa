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
    """Mutable per-process Lamport clock.

    Attributes
    ----------
    rank:
        Owning process rank (diagnostics only).
    time:
        Current scalar clock value.  Starts at 0.
    """

    __slots__ = ("rank", "time", "_snap")

    def __init__(self, rank: int, time: int = 0):
        if time < 0:
            raise ValueError("Lamport time must be non-negative")
        self.rank = rank
        self.time = time
        self._snap: LamportStamp | None = None

    def tick(self) -> None:
        """A visible local event: ``LC += 1``."""
        self.time += 1
        self._snap = None

    def merge(self, stamp: LamportStamp) -> None:
        """Receive rule: ``LC = max(LC, received)``.

        Note the paper's Algorithm 1 does *not* tick after merging on a
        receive completion; only wildcard receives tick (they open epochs).
        We follow the paper: ``merge`` is max-only, ticking is explicit.
        """
        if stamp.time > self.time:
            self.time = stamp.time
            self._snap = None

    def snapshot(self) -> LamportStamp:
        # Stamps are immutable and the clock only moves on ticks/merges,
        # while snapshot() runs once per piggybacked send — cache between
        # clock movements to avoid the per-send allocation.
        snap = self._snap
        if snap is None:
            snap = self._snap = LamportStamp(self.time, self.rank)
        return snap

    def __repr__(self) -> str:
        return f"LamportClock(rank={self.rank}, time={self.time})"
