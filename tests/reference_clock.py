"""The paper's single-commit clock: the reference for the §V committed tick.

DAMPI as published ticks one clock when a wildcard is posted, and every
send or collective after that transmits the tick — also those issued
before the wildcard's ``Wait``/``Test``, which is paper Fig. 10's
omission.  The product clocks (``repro.clocks``) keep that tick out of
transmitted stamps until the wildcard completes.  The subclasses below
undo exactly that: their ``tick_epoch`` is ``tick``, so both views move
together and ``commit_epoch`` never has anything left to release.

``single_commit`` (a fixture in ``tests/conftest.py``) runs every DAMPI
clock module under them; ``clock_config`` picks them by test id.
"""

from __future__ import annotations

from repro.clocks.lamport import LamportClock
from repro.clocks.vector import VectorClock
from repro.dampi import clock_module
from repro.dampi.config import DampiConfig


class SingleCommitLamport(LamportClock):
    __slots__ = ()
    tick_epoch = LamportClock.tick


class SingleCommitVector(VectorClock):
    __slots__ = ()
    tick_epoch = VectorClock.tick


def make_single_commit_clock(impl: str, rank: int, nprocs: int):
    """``repro.clocks.make_clock`` for the reference clocks."""
    if impl == "lamport":
        return SingleCommitLamport(rank)
    if impl == "vector":
        return SingleCommitVector(rank, nprocs)
    raise ValueError(f"unknown clock implementation {impl!r}")


def use_single_commit(monkeypatch) -> None:
    """Build every clock module's clocks as the single-commit reference."""
    monkeypatch.setattr(clock_module, "make_clock", make_single_commit_clock)


#: Clocks by test id.  ``lamport_dual`` and ``vector_dual`` are the
#: product's ``lamport`` and ``vector`` (committed tick), under the names
#: they had while the committed tick was opt-in; bare ``lamport`` and
#: ``vector`` are the single-commit reference, as they were then.  The
#: ids stay so that every verdict keeps its test id across the change.
CLOCKS = ("lamport", "lamport_dual", "vector", "vector_dual")


def clock_config(monkeypatch, clock: str, **fields) -> DampiConfig:
    """The config (and, for a reference id, the patched clock factory)
    that runs ``clock``, one of :data:`CLOCKS`."""
    impl = clock.removesuffix("_dual")
    if impl == clock:
        use_single_commit(monkeypatch)
    return DampiConfig(clock_impl=impl, **fields)
