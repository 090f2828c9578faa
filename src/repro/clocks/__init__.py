"""Logical clocks used by DAMPI to track causality between MPI events.

DAMPI's scalable algorithm uses :class:`LamportClock` (a single integer per
process); the precise-but-unscalable alternative is :class:`VectorClock`.
Both expose the same small protocol so the DAMPI clock module can be
parameterised over the implementation:

``tick()``
    advance local time (a visible local event),
``merge(other)``
    incorporate a received timestamp,
``snapshot()``
    an immutable, comparable value suitable for piggybacking.

Both also keep the paper's §V committed tick (``tick_epoch``,
``commit_epoch``, ``epoch_snapshot``; see :class:`LamportClock`).

Comparisons between snapshots implement the *causally-before* partial order;
``concurrent(a, b)`` tests incomparability.  For Lamport snapshots the order
is total, which is exactly the imprecision the paper discusses in §II-F.
"""

from repro.clocks.lamport import LamportClock, LamportStamp
from repro.clocks.base import LogicalClock, Stamp, concurrent, causally_before, make_clock
from repro._lazy import lazy_names

#: a Lamport campaign does not import :mod:`repro.clocks.vector`
__getattr__ = lazy_names(
    globals(),
    {name: "repro.clocks.vector" for name in ("VectorClock", "VectorStamp")},
)

__all__ = [
    "LamportClock",
    "LamportStamp",
    "VectorClock",
    "VectorStamp",
    "LogicalClock",
    "Stamp",
    "concurrent",
    "causally_before",
    "make_clock",
]
