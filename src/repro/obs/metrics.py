"""Counters, gauges, and fixed-boundary histograms.

The registry replaces the ad-hoc stat plumbing (``pool_stats`` ints,
per-run ``wildcard_count`` threading) with named instruments surfaced in
report JSON v3 under the ``telemetry`` key.

Determinism contract: histogram boundaries are **fixed at creation** (no
adaptive bucketing, no wall-clock-derived boundaries), so the
deterministic namespaces — ``engine.*``, ``pb.*``, ``campaign.*``,
``run.*`` — aggregate to identical snapshots regardless of ``--jobs`` or
host speed.  Environment-dependent instruments live under ``exec.*`` /
``wall.*`` and are excluded by :func:`deterministic_view` (which the
jobs-vs-serial equality tests compare).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Sequence, Tuple

#: Instrument-name prefixes whose values depend on the environment
#: (scheduling, host speed, worker fleet, crash/resume history, injected
#: faults) rather than the verified execution.  Everything else must be
#: jobs-invariant — and invariant across journal resumes.
NONDETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "exec.", "wall.", "journal.", "fault.", "dist.",
)


class Counter:
    """Monotonically increasing number."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n=1) -> None:
        self.value += n


class Gauge:
    """Last-write-wins scalar (numbers or short strings)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = None

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed-boundary histogram.

    ``boundaries`` are upper-inclusive bucket edges: an observation lands
    in the first bucket whose edge is ``>= value``; anything greater than
    the last edge lands in the overflow bucket, so ``counts`` has
    ``len(boundaries) + 1`` entries.
    """

    __slots__ = ("name", "boundaries", "counts", "total", "count")

    def __init__(self, name: str, boundaries: Sequence[float]):
        edges = tuple(sorted(boundaries))
        if not edges:
            raise ValueError(f"histogram {name!r} needs >=1 boundary")
        self.name = name
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    Snapshots are plain JSON-able dicts; :meth:`merge_snapshot` folds a
    snapshot from another process (a replay worker) into this registry —
    counters and histogram buckets add, gauges take the incoming value.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, boundaries: Sequence[float]) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, boundaries)
        elif tuple(sorted(boundaries)) != h.boundaries:
            raise ValueError(
                f"histogram {name!r} re-registered with different boundaries"
            )
        return h

    def inc(self, name: str, n=1) -> None:
        self.counter(name).inc(n)

    def snapshot(self) -> dict:
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snap: dict) -> None:
        for name, value in (snap.get("counters") or {}).items():
            self.counter(name).inc(value)
        for name, value in (snap.get("gauges") or {}).items():
            self.gauge(name).set(value)
        for name, h in (snap.get("histograms") or {}).items():
            mine = self.histogram(name, h["boundaries"])
            for i, n in enumerate(h["counts"]):
                mine.counts[i] += n
            mine.total += h["sum"]
            mine.count += h["count"]


def _deterministic(name: str) -> bool:
    return not name.startswith(NONDETERMINISTIC_PREFIXES)


def deterministic_view(snapshot: dict) -> dict:
    """The jobs-invariant subset of a snapshot: drop every instrument in
    a :data:`NONDETERMINISTIC_PREFIXES` namespace.  Used by the
    determinism tests to compare ``--jobs 2`` against serial."""
    return {
        kind: {
            name: value for name, value in (snapshot.get(kind) or {}).items()
            if _deterministic(name)
        }
        for kind in ("counters", "gauges", "histograms")
    }
