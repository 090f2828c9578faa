"""Ring-buffered structured event tracer.

Design constraints, in priority order:

1. **Payloads need a reader.**  A tracer with ``capture`` off *counts*:
   an emit is one dict increment — no record tuple, no clock read, and the
   ring itself is allocated only by the first captured event.  That is
   what every run of a campaign does unless something will read the
   stream (a ``--trace-out/--events-out`` sink, or
   ``report.events`` through the API); what counting costs a whole
   campaign is the ledger's ``obs.trace_overhead_ratio``.  With
   ``capture`` on, the hot path (:meth:`Tracer.instant`) still allocates
   no :class:`Event` — it packs a raw tuple into a ring slot and defers
   *all* rendering (arg sorting, dataclass construction) to
   :meth:`drain`/:meth:`collect`, which run once per run instead of once
   per event.
2. **Cheap when off.**  Emitter sites hold a ``tracer`` that is either a
   :class:`Tracer` or ``None``; the disabled path is one attribute load
   plus an ``is not None`` test.
3. **Exact counters, sampled payloads.**  Every emit is counted under its
   name whether or not its payload is recorded — at the emit site when
   ``capture`` is off, from the ring (and from what the ring evicted)
   when it is on — so campaign-level ``events.*`` totals are exact and
   identical at any payload sampling rate, with or without a reader.
4. **Bounded memory.**  The ring has a fixed capacity; overflow evicts
   the oldest record (still counting it — eviction folds the record into
   the counters) and bumps ``dropped`` rather than growing without limit.
5. **Deterministic modulo timestamps.**  Everything except ``ts``/``dur``
   is derived from the verified execution, so two serial runs of the same
   workload produce identical streams under :func:`event_signature`
   (which strips the clock fields).  ``args`` is rendered as a sorted
   tuple of pairs — hashable, picklable, and order-stable.

Raw records cross process boundaries (fleet workers ship the
:meth:`collect` payload of each run, and of their own lifecycle tracer,
back through ``repro.dist.protocol.pack_obs``), so they stay plain
tuples/dicts of primitives.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Optional, Tuple

#: Default ring capacity; ~100 bytes/record keeps the worst case ~6 MiB.
DEFAULT_BUFFER = 65536

#: raw-record field order (ring slots are plain tuples, not Events)
_NAME, _CAT, _TS, _PH, _DUR, _RANK, _RUN, _ARGS = range(8)


class Event:
    """One structured trace record.

    ``ph`` follows the Chrome trace_event phase vocabulary for the two
    shapes we emit: ``"i"`` (instant) and ``"X"`` (complete span with
    ``dur``).  ``ts``/``dur`` are seconds relative to the owning tracer's
    epoch; exporters convert units.  Events are equal when every field
    is (a stream read back from JSONL equals the one written).
    """

    __slots__ = ("name", "cat", "ts", "ph", "dur", "rank", "run", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        ts: float,
        ph: str = "i",
        dur: float = 0.0,
        rank: Optional[int] = None,
        run: Optional[int] = None,
        args: Tuple[Tuple[str, object], ...] = (),
    ):
        self.name = name
        self.cat = cat
        self.ts = ts
        self.ph = ph
        self.dur = dur
        self.rank = rank
        self.run = run
        self.args = args

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in Event.__slots__)

    def arg(self, key: str, default=None):
        for k, v in self.args:
            if k == key:
                return v
        return default


def event_signature(events: Iterable[Event]) -> Tuple:
    """The deterministic identity of a stream: everything but the clock.

    Two runs of the same schedule must produce equal signatures; the
    telemetry determinism tests compare these.
    """
    return tuple(
        (e.name, e.cat, e.ph, e.rank, e.run, e.args) for e in events
    )


def _freeze_args(args) -> Tuple[Tuple[str, object], ...]:
    """Render a raw arg payload (kwargs dict, or an already-frozen tuple
    of pairs) into the sorted-tuple form Events carry."""
    if type(args) is tuple:
        return args
    return tuple(sorted(args.items()))


def _materialize(rec) -> Event:
    """Build the Event for one raw ring record (the deferred rendering)."""
    return Event(
        name=rec[0], cat=rec[1], ts=rec[2], ph=rec[3], dur=rec[4],
        rank=rec[5], run=rec[6], args=_freeze_args(rec[7]),
    )


class Tracer:
    """Counts every emit; with ``capture`` on, also records it into a ring.

    The ring is a fixed-size list, allocated by the first captured event,
    whose slots are reused across runs (:meth:`reset` just rewinds the
    indices); records are materialized into :class:`Event` objects only
    on :meth:`drain`.
    """

    __slots__ = (
        "_ring", "_next", "_count", "_counts", "_clock", "_t0",
        "dropped", "buffer", "capture",
    )

    def __init__(self, buffer: int = DEFAULT_BUFFER, clock=time.perf_counter):
        self.buffer = int(buffer)
        self._clock = clock
        self._t0 = clock()
        self.dropped = 0
        #: whether emits are recorded for a reader.  False = count, do not
        #: record: a run nobody will read the payloads of (no sink, or
        #: sampled out — per-run state owned by the verifier)
        self.capture = True
        self._ring: Optional[list] = None
        self._next = 0
        self._count = 0
        #: per-name exact counters for emits not in the ring (counted at
        #: the emit site while capture was off, or evicted); ring contents
        #: are tallied on demand so the capturing hot path pays no dict
        #: write
        self._counts: dict = {}

    def __len__(self) -> int:
        return self._count

    def now(self) -> float:
        """Seconds since this tracer's epoch (last :meth:`reset`)."""
        return self._clock() - self._t0

    # -- hot path -----------------------------------------------------------

    def _tally(self, name: str) -> None:
        counts = self._counts
        counts[name] = counts.get(name, 0) + 1

    def instant(self, name: str, cat: str, rank: Optional[int] = None,
                run: Optional[int] = None, **args) -> None:
        """Record (or, with ``capture`` off, count) a point-in-time event."""
        if not self.capture:  # _tally, inline: a counting run's one cost
            counts = self._counts
            counts[name] = counts.get(name, 0) + 1
            return
        self._push((name, cat, self._clock() - self._t0, "i", 0.0,
                    rank, run, args))

    def complete(self, name: str, cat: str, start: float,
                 rank: Optional[int] = None, run: Optional[int] = None,
                 **args) -> None:
        """Record a span that began at ``start`` (a :meth:`now` sample)
        and ends now."""
        if not self.capture:
            self._tally(name)
            return
        dur = self._clock() - self._t0 - start
        self._push((name, cat, start, "X", dur if dur > 0.0 else 0.0,
                    rank, run, args))

    @contextmanager
    def span(self, name: str, cat: str, rank: Optional[int] = None,
             run: Optional[int] = None, **args):
        start = self.now()
        try:
            yield
        finally:
            self.complete(name, cat, start, rank=rank, run=run, **args)

    # -- cold paths ---------------------------------------------------------

    def _push(self, rec: tuple) -> None:
        if not self.capture:
            self._tally(rec[0])
            return
        ring = self._ring
        if ring is None:
            ring = self._ring = [None] * self.buffer
        i = self._next
        if self._count == self.buffer:
            self._tally(ring[i][0])
            self.dropped += 1
        else:
            self._count += 1
        ring[i] = rec
        i += 1
        self._next = 0 if i == self.buffer else i

    def emit(self, event: Event) -> None:
        """Append a pre-built event (merging another tracer's stream)."""
        self._push((event.name, event.cat, event.ts, event.ph, event.dur,
                    event.rank, event.run, event.args))

    def emit_raw(self, records: Iterable[tuple], run: Optional[int] = None,
                 ts_offset: float = 0.0) -> None:
        """Merge raw records from another tracer's :meth:`collect`
        payload, relabelling each with ``run`` and rebasing timestamps
        (the campaign merge path — no Event round-trip)."""
        push = self._push
        for rec in records:
            push((rec[0], rec[1], rec[2] + ts_offset, rec[3], rec[4],
                  rec[5], run, rec[7]))

    def _records(self) -> list:
        """Ring contents, oldest first (records stay raw)."""
        if not self._count:
            return []
        if self._count < self.buffer:
            return self._ring[:self._count]
        i = self._next
        return self._ring[i:] + self._ring[:i]

    def counts(self) -> dict:
        """Exact per-name emit totals since the last :meth:`reset`:
        counted-only and evicted emits plus whatever is still buffered."""
        totals = dict(self._counts)
        for rec in self._records():
            name = rec[0]
            totals[name] = totals.get(name, 0) + 1
        return totals

    def drain(self) -> list:
        """Materialize, return, and clear the buffered events (oldest
        first).  Counters are *not* cleared — they keep the exact totals
        until :meth:`reset`.  A ``capture``-off tracer folds the payloads
        into the counters and returns nothing."""
        records = self._records()
        counts = self._counts
        for rec in records:
            name = rec[0]
            counts[name] = counts.get(name, 0) + 1
        self._next = 0
        self._count = 0
        if not self.capture:
            return []
        return [_materialize(rec) for rec in records]

    def collect(self) -> dict:
        """Drain into the raw transport payload a run hands back through
        ``RunResult.artifacts["obs"]``: records stay unrendered (cheap to
        pickle, rendered only at export), counters are exact totals.  A
        ``capture``-off run ships counts only."""
        records = self._records()
        self._next = 0
        self._count = 0
        counts = dict(self._counts)
        for rec in records:
            name = rec[0]
            counts[name] = counts.get(name, 0) + 1
        self._counts = {}
        return {
            "records": records if self.capture else [],
            "counts": counts,
            "dropped": self.dropped,
            "captured": self.capture,
        }

    def reset(self) -> None:
        """Rewind the ring and rebase the epoch; per-run tracers reset at
        the top of every run so timestamps are run-relative.  Slots are
        reused, not reallocated; the ``capture`` flag is preserved (the
        verifier sets it before every run)."""
        self._next = 0
        self._count = 0
        self._counts = {}
        self.dropped = 0
        self._t0 = self._clock()
