"""Shared protocol for logical clocks and their immutable stamps."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.clocks.lamport import LamportClock
from repro.clocks.vector import VectorClock


@runtime_checkable
class Stamp(Protocol):
    """An immutable timestamp produced by :meth:`LogicalClock.snapshot`.

    Stamps of the same flavour are partially ordered by ``causally_before``.
    """

    def causally_before(self, other: "Stamp") -> bool:
        """True iff the event carrying ``self`` happened-before ``other``'s."""
        ...


@runtime_checkable
class LogicalClock(Protocol):
    """Mutable per-process logical clock with the §V committed tick: an
    epoch view (``time``) and a transmit view (``snapshot``)."""

    rank: int
    time: int

    def tick(self) -> None:
        """Record a visible local event (advance both views)."""
        ...

    def tick_epoch(self) -> None:
        """A wildcard was posted: advance the epoch view only."""
        ...

    def commit_epoch(self, lc: int) -> None:
        """The wildcard posted at epoch-view ``lc`` completed: release its
        tick into the transmit view."""
        ...

    def merge(self, stamp: Stamp) -> None:
        """Incorporate a timestamp received from another process."""
        ...

    def snapshot(self) -> Stamp:
        """An immutable copy of the transmit view, safe to piggyback."""
        ...

    def epoch_snapshot(self) -> Stamp:
        """An immutable copy of the epoch view (an epoch's stamp)."""
        ...


def causally_before(a: Stamp, b: Stamp) -> bool:
    """``a`` happened-before ``b`` in the clock's order.

    For vector stamps this is precise; for Lamport stamps it is the usual
    one-way implication (may order concurrent events).
    """
    return a.causally_before(b)


def concurrent(a: Stamp, b: Stamp) -> bool:
    """Neither stamp is causally before the other.

    Note that Lamport stamps with distinct values are never reported
    concurrent — that loss of precision is inherent (paper §II-C).
    """
    return not a.causally_before(b) and not b.causally_before(a)


def make_clock(impl: str, rank: int, nprocs: int) -> LogicalClock:
    """Factory used by the DAMPI clock module.

    Parameters
    ----------
    impl:
        ``"lamport"`` (the paper's scalable default) or ``"vector"``
        (precise, O(nprocs) piggyback payload).  Both keep the §V
        committed-tick pair: uncommitted epoch ticks never transmit.
    """
    if impl == "lamport":
        return LamportClock(rank)
    if impl == "vector":
        return VectorClock(rank, nprocs)
    raise ValueError(f"unknown clock implementation {impl!r}")
