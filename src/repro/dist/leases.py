"""Durable subtree leases.

A *lease* is one independently explorable region of the epoch-decision
tree: a forced prefix (the master path above the subtree root, with the
sources chosen along it) plus one node flipped to one alternative
source.  Its **root schedule** is exactly the ``EpochDecisions`` the
serial walk would emit when it flips that node under that prefix, so
leases partition the serial enumeration: distinct leases can never
produce the same schedule (their forced maps differ at the shallowest
flip node where they diverge), and the union of all leased subtrees
plus the runs already consumed is the whole tree.

Lease identity is content-derived — a stable digest of the root
schedule — so a resumed coordinator re-derives the same ids, shard
journal directories stay attached to their subtree across crashes, and
re-discovered candidates dedup exactly.

Lifecycle::

    offer() ──► pending ──assign()──► active ──complete()──► done
                   ▲                    │
                   └──── release_worker() / expiry (re-issue) ──┘

The table only tracks state; durability is the coordinator journal's
job (a ``lease`` record at first offer, ``lease_done`` at completion).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from repro.dampi.decisions import EpochDecisions, schedule_key
from repro.dampi.journal import decisions_to_jsonable


def lease_root_decisions(spec: dict) -> EpochDecisions:
    """The root schedule of a lease spec (prefix choices + the flip).
    Unmatched prefix nodes (``chosen == -1``) are omitted from the forced
    map, mirroring the serial generator."""
    forced = {tuple(row[0]): row[2] for row in spec["prefix"] if row[2] >= 0}
    forced[tuple(spec["flip_key"])] = spec["alt"]
    return EpochDecisions(forced=forced, flip=tuple(spec["flip_key"]))


def lease_key(spec: dict):
    """Hashable identity of a lease — the root schedule's key.  Two specs
    with the same root schedule denote the same subtree."""
    return schedule_key(lease_root_decisions(spec))


def lease_id(spec: dict) -> str:
    """Stable, filesystem-safe digest of the lease identity (shard
    journal directory names; deterministic across coordinator restarts)."""
    canonical = json.dumps(
        decisions_to_jsonable(lease_root_decisions(spec)),
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass
class Lease:
    id: str
    spec: dict
    state: str = "pending"  # pending | active | done
    worker: Optional[int] = None
    #: times this lease has been (re-)assigned — 1 on first assignment
    issues: int = 0


@dataclass
class LeaseTable:
    """All leases of one campaign, with dedup by root schedule."""

    leases: dict = field(default_factory=dict)  # id -> Lease
    _keys: set = field(default_factory=set)  # root schedule keys ever offered
    _pending: deque = field(default_factory=deque)

    def offer(self, spec: dict) -> Optional[Lease]:
        """Admit a candidate lease; returns the new pending Lease, or
        None when its subtree was already offered (dedup)."""
        key = lease_key(spec)
        if key in self._keys:
            return None
        self._keys.add(key)
        lease = Lease(id=lease_id(spec), spec=spec)
        self.leases[lease.id] = lease
        self._pending.append(lease.id)
        return lease

    def next_pending(self) -> Optional[Lease]:
        while self._pending:
            lease = self.leases.get(self._pending.popleft())
            if lease is not None and lease.state == "pending":
                return lease
        return None

    def assign(self, lease: Lease, worker: int) -> None:
        lease.state = "active"
        lease.worker = worker
        lease.issues += 1

    def complete(self, lease_id_: str) -> Optional[Lease]:
        lease = self.leases.get(lease_id_)
        if lease is None or lease.state == "done":
            return None
        lease.state = "done"
        lease.worker = None
        return lease

    def mark_done(self, lease_id_: str) -> None:
        """Journal replay: a lease the previous attempt completed."""
        lease = self.leases.get(lease_id_)
        if lease is not None:
            lease.state = "done"
            lease.worker = None

    def release_worker(self, worker: int) -> list:
        """A worker died or was expired: its active leases go back to the
        front of the queue for re-issue."""
        released = []
        for lease in self.leases.values():
            if lease.state == "active" and lease.worker == worker:
                lease.state = "pending"
                lease.worker = None
                released.append(lease)
        for lease in reversed(released):
            self._pending.appendleft(lease.id)
        return released

    def active_for(self, worker: int) -> list:
        return [
            l
            for l in self.leases.values()
            if l.state == "active" and l.worker == worker
        ]

    @property
    def pending_count(self) -> int:
        return sum(1 for l in self.leases.values() if l.state == "pending")

    @property
    def active_count(self) -> int:
        return sum(1 for l in self.leases.values() if l.state == "active")

    @property
    def done_count(self) -> int:
        return sum(1 for l in self.leases.values() if l.state == "done")

    @property
    def all_done(self) -> bool:
        return all(l.state == "done" for l in self.leases.values())
