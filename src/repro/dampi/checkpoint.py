"""Prefix-checkpoint cache for prefix-sharing replay.

The schedule generator explores decision points depth-first, and most of
each guided replay re-executes a prefix some earlier run already
executed bit-identically.  Three sharing classes, widening in order of
introduction:

* **Siblings** — schedules that agree on every forced decision except
  the flipped epoch's source.  The first sibling's recording run
  snapshots the engine at the flip; the rest restore and execute only
  their divergent suffix.  :func:`checkpoint_key` encodes exactly this
  equivalence class (the flipped epoch plus the forced map minus the
  flip) and is always safe: siblings *force* identical prefixes, so
  their pre-flip execution is mechanically identical.
* **In-run snapshots** — a recording run captures not only at its flip
  but at every ``checkpoint_interval``-th eligible wildcard post, before
  and after the flip.  Each snapshot is stored under the key of the
  hypothetical schedule whose flip is that post: the epoch about to be
  decided plus everything decided so far.  Future first-visit schedules
  at any depth along the recorded path then *dict-hit* a snapshot at
  their own flip instead of recording from ``MPI_Init``.
* **Ancestor restores** — when no exact key matches, :meth:`find` scans
  for the deepest snapshot whose decided state is *compatible* with the
  requested schedule: every decision the snapshot burned in is one the
  schedule forces with the same value, or one it leaves natural (the
  restored run re-derives it identically).  The child rebases the clock
  module's guidance onto its own decision map after restoring
  (``DampiClockModule.rebase_decisions``) and the run trace is built in
  canonical forced-vs-natural-insensitive form
  (``DampiClockModule.finish``), so the report stays bit-identical to a
  full re-execution.

Compatibility (``snapshot_usable``) is strict where forced-vs-natural
matching is *not* observably equivalent:

* epochs the snapshot decided **naturally** must not appear in the
  schedule's forced map at all — a natural wildcard post reaches the
  piggyback layer as ``MPI_ANY_SOURCE`` (deferred shadow recv, counted
  in ``wildcard_matches``) while a forced post is rewritten to a
  directed recv with an eager shadow, so the two diverge in virtual
  time whenever the message was already available at the post;
* epochs still **pending** (posted naturally, unmatched) at capture must
  not appear in the forced map, nor be the flip itself — the restored
  run cannot retroactively force a post that already happened;
* the flip must be entirely undecided in the snapshot.

Recording runs enforce the same rule at capture time: an in-suffix
snapshot is only taken while every decided epoch is forced (the DFS
explorer forces the whole path to any later consumer's flip, so a
snapshot with a natural decision could never be served soundly anyway —
skipping the capture keeps the cache key free for a fully-forced
producer).

Snapshots produced before this scheme (or synthesized in tests) carry no
``meta`` and simply never match the ancestor scan; exact-key hits on
them keep the original sibling semantics.  ``ineligible`` memoization is
keyed by the same ``(flip, decided...)`` tuples in both schemes, so keys
poisoned under the sibling-only scheme stay poisoned.

The cache is an LRU over the key with a byte budget.  Eviction prefers
to keep *deep* prefixes: among the oldest few entries, the shallowest
(fewest decisions burned in) goes first — a deep snapshot saves the most
re-execution and is the most expensive to rebuild, while a shallow one
is cheap to re-record.
"""

from __future__ import annotations

from itertools import islice
from typing import Optional

from collections import OrderedDict

from repro.dampi.decisions import EpochDecisions

#: eviction looks this far into the LRU-old end for the shallowest victim
_EVICT_WINDOW = 4


def checkpoint_key(decisions: EpochDecisions):
    """Sibling equivalence class of a guided schedule.

    Two schedules share a key iff they flip the same epoch and agree on
    every other forced decision — exactly the condition under which their
    pre-flip execution is bit-identical.  In-run snapshots are stored
    under the same shape: the epoch about to be decided plus everything
    decided so far.  Returns ``None`` for schedules with no flip (the
    self run)."""
    if decisions.flip is None:
        return None
    flip = decisions.flip
    rest = tuple(sorted((k, v) for k, v in decisions.forced.items() if k != flip))
    return (flip, rest)


def capture_key(at, decided: dict):
    """Key for an in-run snapshot taken at epoch ``at`` with ``decided``
    epochs already burned in.  Chosen so that a schedule flipping ``at``
    after forcing exactly ``decided`` dict-hits it via
    :func:`checkpoint_key`."""
    return (at, tuple(sorted(decided.items())))


def snapshot_usable(snap, decisions: EpochDecisions) -> bool:
    """Whether ``snap`` may serve as a (possibly ancestor) checkpoint for
    ``decisions`` — see the module docstring for the soundness argument.
    Snapshots without capture metadata never qualify."""
    meta = getattr(snap, "meta", None)
    if meta is None:
        return False
    flip = decisions.flip
    forced = decisions.forced
    decided = meta["decided"]
    natural = meta["natural"]
    if flip in decided:
        return False
    for k in meta["pending"]:
        if k == flip or k in forced:
            return False
    for k, src in decided.items():
        kind = natural.get(k)
        if kind is None:
            # the snapshot forced this epoch: the schedule must force the
            # same value (a different value, or leaving it natural, means
            # a different prefix)
            if forced.get(k) != src:
                return False
        else:
            # the snapshot decided this epoch naturally.  A schedule that
            # *forces* it may never reuse the snapshot, even at the same
            # value: a natural wildcard post reaches the piggyback layer
            # as MPI_ANY_SOURCE (deferred shadow recv, counted as a
            # wildcard match) while a forced post is rewritten to a
            # directed recv (eager shadow) — observably different virtual
            # time and engine stats whenever the message was already
            # available at the post.  Left natural, the restored run
            # re-derives the same match identically.
            if k in forced:
                return False
    return True


class PrefixCheckpointCache:
    """LRU cache of engine snapshots keyed by decision prefix.

    ``put`` rejects snapshots larger than the whole budget (a cache that
    holds exactly one entry and thrashes is worse than no cache) and
    evicts until the budget holds, preferring to keep deep prefixes.
    Keys that proved ineligible (the cut rank's engine state was not
    resumable) are remembered so later visits skip the capture attempt.
    """

    def __init__(self, budget_bytes: int):
        self.budget_bytes = int(budget_bytes)
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._bytes = 0
        #: keys whose recording run found a non-resumable cut state
        self.ineligible: set = set()
        # counters (surfaced via report.parallel_stats / repro stats)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.skips = 0
        #: hits served by the ancestor scan rather than an exact key
        self.ancestor_hits = 0
        #: in-run snapshots captured beyond the flip point
        self.suffix_captures = 0
        #: restore depth (decisions burned in) -> hit count
        self.depth_hits: dict = {}
        self.restore_seconds = 0.0
        self.capture_seconds = 0.0

    # -- core ---------------------------------------------------------------

    def get(self, key) -> Optional[object]:
        snap = self._entries.get(key)
        if snap is not None:
            self._entries.move_to_end(key)
        return snap

    def find(self, decisions: EpochDecisions) -> Optional[object]:
        """Deepest usable snapshot for ``decisions``: the exact key when
        present and usable, else the deepest compatible ancestor (most
        recently used on ties).  Touches the winner's LRU position."""
        key = checkpoint_key(decisions)
        if key is None:
            return None
        snap = self._entries.get(key)
        if snap is not None:
            meta = getattr(snap, "meta", None)
            if meta is None or snapshot_usable(snap, decisions):
                self._entries.move_to_end(key)
                return snap
        best = best_key = None
        for k, s in self._entries.items():
            if k == key:
                continue
            if not snapshot_usable(s, decisions):
                continue
            # >= prefers the more recently used entry on equal depth
            # (OrderedDict iterates oldest-first)
            if best is None or s.depth >= best.depth:
                best, best_key = s, k
        if best is not None:
            self._entries.move_to_end(best_key)
            self.ancestor_hits += 1
        return best

    def put(self, key, snap) -> bool:
        """Insert; returns False when the snapshot exceeds the budget."""
        nbytes = getattr(snap, "nbytes", 0)
        if nbytes > self.budget_bytes:
            self.skips += 1
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= getattr(old, "nbytes", 0)
        self._entries[key] = snap
        self._bytes += nbytes
        while self._bytes > self.budget_bytes and len(self._entries) > 1:
            # among the LRU-oldest entries (never the one just added),
            # evict the shallowest: deep prefixes save the most
            # re-execution and cost the most to rebuild
            window = islice(self._entries, min(_EVICT_WINDOW, len(self._entries) - 1))
            victim = min(window, key=lambda k: getattr(self._entries[k], "depth", 0))
            evicted = self._entries.pop(victim)
            self._bytes -= getattr(evicted, "nbytes", 0)
            self.evictions += 1
        return True

    def discard(self, key) -> None:
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= getattr(old, "nbytes", 0)

    def clear(self) -> None:
        self._entries.clear()
        self._bytes = 0

    # -- introspection -------------------------------------------------------

    @property
    def bytes_held(self) -> int:
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def record_hit(self, snap) -> None:
        """Count a successful restore, bucketed by snapshot depth."""
        self.hits += 1
        d = getattr(snap, "depth", 0)
        self.depth_hits[d] = self.depth_hits.get(d, 0) + 1

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "skips": self.skips,
            "ancestor_hits": self.ancestor_hits,
            "suffix_captures": self.suffix_captures,
            "entries": len(self._entries),
            "bytes_held": self._bytes,
            "budget_bytes": self.budget_bytes,
            "hit_rate": (self.hits / total) if total else 0.0,
            "depth_hits": {str(k): v for k, v in sorted(self.depth_hits.items())},
            "restore_ms": self.restore_seconds * 1000.0,
            "capture_ms": self.capture_seconds * 1000.0,
        }
