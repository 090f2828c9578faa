"""Vector clocks — the precise (but O(N)-payload) causality tracker.

Used by DAMPI's optional ``clock_impl="vector"`` mode to characterise the
extra coverage available on the rare cross-coupled patterns where Lamport
clocks lose completeness (paper §II-F, Fig. 4), and by adaptive clock
escalation's precision replays.
"""

from __future__ import annotations

from typing import Iterable


class VectorStamp:
    """Immutable N-component vector timestamp.

    ``a.causally_before(b)`` iff ``a <= b`` component-wise and ``a != b``
    (the standard strict partial order on vector clocks).
    """

    __slots__ = ("_v", "rank")

    def __init__(self, components: Iterable[int], rank: int = -1):
        self._v = tuple(components)
        self.rank = rank

    @property
    def components(self) -> tuple[int, ...]:
        return self._v

    @property
    def nbytes(self) -> int:
        """Wire size: one integer per process — the O(N) piggyback payload
        that makes vector clocks unscalable (paper §II-C)."""
        return 8 * len(self._v)

    def causally_before(self, other: "VectorStamp") -> bool:
        if len(self._v) != len(other._v):
            raise ValueError("vector stamps of different dimension")
        le = all(a <= b for a, b in zip(self._v, other._v))
        return le and self._v != other._v

    def leq(self, other: "VectorStamp") -> bool:
        """Componentwise ``<=`` (reflexive happens-before).  An event e2
        whose vector dominates event e1's post-event vector has e1 in its
        causal past — the precise form of the late-message exclusion."""
        if len(self._v) != len(other._v):
            raise ValueError("vector stamps of different dimension")
        return all(a <= b for a, b in zip(self._v, other._v))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorStamp):
            return NotImplemented
        return self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __len__(self) -> int:
        return len(self._v)

    def __getitem__(self, i: int) -> int:
        return self._v[i]

    def __repr__(self) -> str:
        return f"VC{self._v!r}"


class VectorClock:
    """Mutable per-process vector clock over ``nprocs`` components, with
    the §V committed tick (see :class:`~repro.clocks.lamport.LamportClock`).

    The epoch view and the transmit view see the same merges, so they
    differ only in this rank's own component: the transmit vector holds
    the committed value, ``time`` the epoch view's."""

    __slots__ = ("rank", "time", "_v")

    def __init__(self, rank: int, nprocs: int):
        if not 0 <= rank < nprocs:
            raise ValueError(f"rank {rank} out of range for {nprocs} processes")
        self.rank = rank
        #: Scalar view: this process's own epoch-view component.  Lets the
        #: DAMPI epoch bookkeeping (which keys epochs by the local scalar
        #: clock) work unchanged under either clock implementation.
        self.time = 0
        self._v = [0] * nprocs

    def tick(self) -> None:
        """A visible local event: both views' own component ``+= 1``."""
        self.time += 1
        self._v[self.rank] += 1

    def tick_epoch(self) -> None:
        """A wildcard was posted: advance the epoch view only."""
        self.time += 1

    def commit_epoch(self, lc: int) -> None:
        """The wildcard posted at epoch-view ``lc`` completed: raise the
        transmitted own component to its post-tick value ``lc + 1``."""
        if lc >= self._v[self.rank]:
            self._v[self.rank] = lc + 1

    def merge(self, stamp: VectorStamp) -> None:
        if len(stamp) != len(self._v):
            raise ValueError("vector stamp of different dimension")
        for k in range(len(self._v)):
            if stamp[k] > self._v[k]:
                self._v[k] = stamp[k]
        own = self._v[self.rank]  # the epoch view never lags the transmit view
        if own > self.time:
            self.time = own

    def snapshot(self) -> VectorStamp:
        """The transmit view, safe to piggyback."""
        return VectorStamp(self._v, self.rank)

    def epoch_snapshot(self) -> VectorStamp:
        """The epoch view, recorded as an epoch's post-tick stamp."""
        v = list(self._v)
        v[self.rank] = self.time
        return VectorStamp(v, self.rank)

    def __repr__(self) -> str:
        return f"VectorClock(rank={self.rank}, time={self.time}, v={self._v!r})"
