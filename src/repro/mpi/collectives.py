"""Collective operation instances and their completion semantics.

MPI only requires that all members of a communicator *participate* in a
collective; except for ``MPI_Barrier`` it does not require synchronous
completion (the paper leans on this: DAMPI models a broadcast as "everyone
receives the root's clock", an allreduce as a MAX over all clocks).  The
simulator honours the weakest completion rule the standard allows:

=================  =============================================
kind               a rank may complete when ...
=================  =============================================
barrier            every member has entered
allreduce          every member has entered (needs all values)
allgather          every member has entered
alltoall           every member has entered
reduce_scatter     every member has entered
comm_dup/split     every member has entered (context agreement)
bcast              the root has entered (root: immediately)
scatter            the root has entered (root: immediately)
reduce             root: every member; non-root: immediately
gather             root: every member; non-root: immediately
scan               every member at a lower rank has entered
=================  =============================================

Instances are paired by ``(context id, per-rank collective ordinal)``:
the n-th collective call of each member on a communicator joins instance
n.  Mismatched kinds/roots among members of one instance are detected and
reported as MPI errors (a free correctness check real MPI rarely gives).
"""

from __future__ import annotations

from copy import copy
from typing import Any, Optional

from repro.errors import MPIError
from repro.mpi.constants import ReduceOp


#: Collectives where every member must be present before anyone completes.
_SYNCHRONISING = frozenset(
    {"barrier", "allreduce", "allgather", "alltoall", "reduce_scatter", "comm_dup", "comm_split"}
)
#: Rooted collectives where data flows root -> members.
_ROOT_SOURCES = frozenset({"bcast", "scatter"})
#: Rooted collectives where data flows members -> root.
_ROOT_SINKS = frozenset({"reduce", "gather"})
#: Prefix collectives: rank i depends on members 0..i only.
_PREFIX = frozenset({"scan"})

ALL_KINDS = _SYNCHRONISING | _ROOT_SOURCES | _ROOT_SINKS | _PREFIX

#: "no reduction computed yet" (None is a legal reduction result)
_UNSET = object()

#: result types members may share: nothing can update them in place
_IMMUTABLE = frozenset({int, float, complex, bool, str, bytes, type(None)})


def _own(value: Any) -> Any:
    """A member's own copy of a result the instance computed once for
    several members, as a fold per member would give it (each rank of a
    real MPI call writes its own buffer)."""
    return value if value.__class__ in _IMMUTABLE else copy(value)


class CollectiveInstance:
    """One pairing of a collective across a communicator's members.

    An instance costs O(group): its reduction and its completion base are
    computed once, and :meth:`released_by` names only the members an
    arrival lets complete, so the engine wakes each member once."""

    __slots__ = (
        "ctx",
        "seq",
        "kind",
        "group",
        "root",
        "op",
        "contributions",
        "entry_vtimes",
        "_results",
        "_reduced",
        "_base",
        "_prefix",
        "_released",
        "_prefix_max",
        "_scan",
        "merged",
        "waiters",
        "consumed",
        "pending_requests",
    )

    def __init__(self, ctx: int, seq: int, group: tuple[int, ...]):
        self.ctx = ctx
        self.seq = seq
        self.group = group
        self.kind: Optional[str] = None
        self.root: Optional[int] = None  # world rank
        self.op: Optional[ReduceOp] = None
        self.contributions: dict[int, Any] = {}  # world rank -> payload
        self.entry_vtimes: dict[int, float] = {}
        self._results: dict[int, Any] = {}
        #: the reduction over every contribution, once computed
        self._reduced: Any = _UNSET
        #: max entry vtime over every member, once computed
        self._base: Optional[float] = None
        #: prefix kinds: members group[:_prefix] have all entered, and the
        #: last arrival extended the prefix from group[:_released]
        self._prefix = 0
        self._released = 0
        #: prefix kinds: running max entry vtime / running reduction
        self._prefix_max: list[float] = []
        self._scan: list[Any] = []
        #: a tool rendezvous: what its tool derived from the contributions
        self.merged: Any = None
        #: members blocked in this instance, woken by :meth:`released_by`
        self.waiters: set[int] = set()
        #: members whose participation completed (the engine retires the
        #: instance when all have)
        self.consumed = 0
        #: world rank -> the Request of a non-blocking participation not
        #: yet completed; the engine completes it when the member is released
        self.pending_requests: dict = {}

    # -- participation ------------------------------------------------------

    def enter(
        self,
        world_rank: int,
        payload: Any,
        kind: str,
        vtime: float,
        root: Optional[int] = None,
        op: Optional[ReduceOp] = None,
    ) -> None:
        """Record one member's arrival; validates cross-member agreement."""
        if kind not in ALL_KINDS:
            raise MPIError(f"unknown collective kind {kind!r}")
        if self.kind is None:
            self.kind = kind
            self.root = root
            self.op = op
        else:
            if kind != self.kind:
                raise MPIError(
                    f"collective mismatch on ctx {self.ctx} (instance {self.seq}): "
                    f"rank {world_rank} called {kind}, others called {self.kind}"
                )
            if root != self.root:
                raise MPIError(
                    f"root mismatch in {self.kind} on ctx {self.ctx}: "
                    f"rank {world_rank} used root {root}, others {self.root}"
                )
            if (op is None) != (self.op is None) or (
                op is not None and self.op is not None and op.name != self.op.name
            ):
                raise MPIError(
                    f"reduce-op mismatch in {self.kind} on ctx {self.ctx}"
                )
        if world_rank in self.contributions:
            raise MPIError(
                f"rank {world_rank} entered collective instance {self.seq} on "
                f"ctx {self.ctx} twice"
            )
        self.contributions[world_rank] = payload
        self.entry_vtimes[world_rank] = vtime
        if kind in _PREFIX:
            group, entered = self.group, self.entry_vtimes
            p = self._released = self._prefix
            while p < len(group) and group[p] in entered:
                p += 1
            self._prefix = p

    @property
    def all_entered(self) -> bool:
        return len(self.contributions) == len(self.group)

    def ready_for(self, world_rank: int) -> bool:
        """May this member complete now, under the weakest legal rule?"""
        kind = self.kind
        if kind in _SYNCHRONISING:
            return len(self.contributions) == len(self.group)
        if kind in _ROOT_SOURCES:
            return self.root in self.entry_vtimes
        if kind in _ROOT_SINKS:
            if world_rank == self.root:
                return len(self.contributions) == len(self.group)
            return True
        if kind in _PREFIX:
            return self.group.index(world_rank) < self._prefix
        raise MPIError(f"instance has no kind yet for rank {world_rank}")

    def released_by(self, world_rank: int) -> tuple[int, ...]:
        """The members the arrival of ``world_rank`` (just entered) may let
        complete — every member whose readiness it can change, possibly
        including ones that have not entered yet and ``world_rank`` itself.
        Each member is named by at most one arrival."""
        kind = self.kind
        if kind in _SYNCHRONISING:
            return self.group if len(self.contributions) == len(self.group) else ()
        if kind in _ROOT_SOURCES:
            return self.group if world_rank == self.root else ()
        if kind in _ROOT_SINKS:
            return (self.root,) if len(self.contributions) == len(self.group) else ()
        return self.group[self._released : self._prefix]

    # -- completion times ----------------------------------------------------

    def _all_base(self) -> float:
        base = self._base
        if base is None:
            base = self._base = max(self.entry_vtimes.values())
        return base

    def _prefix_base(self, world_rank: int) -> float:
        me = self.group.index(world_rank)
        bases = self._prefix_max
        while len(bases) <= me:
            t = self.entry_vtimes[self.group[len(bases)]]
            bases.append(t if not bases or t > bases[-1] else bases[-1])
        return bases[me]

    def completion_vtime(self, world_rank: int, coll_cost: float, transfer: float) -> float:
        """Virtual completion time for a member, given the communicator-wide
        collective cost and a root->member transfer latency."""
        kind = self.kind
        if kind in _SYNCHRONISING:
            base = self._base  # _all_base, inline: every collective asks
            if base is None:
                base = self._base = max(self.entry_vtimes.values())
            return base + coll_cost
        own = self.entry_vtimes[world_rank]
        if kind in _ROOT_SOURCES:
            if world_rank == self.root:
                return own + coll_cost
            return max(own, self.entry_vtimes[self.root] + transfer) + coll_cost
        if kind in _ROOT_SINKS:
            if world_rank == self.root:
                return self._all_base() + coll_cost
            return own + coll_cost
        if kind in _PREFIX:
            return self._prefix_base(world_rank) + coll_cost
        raise MPIError("completion_vtime on kindless instance")

    # -- values ----------------------------------------------------------------

    def _in_comm_order(self) -> list[Any]:
        return [self.contributions[w] for w in self.group]

    def _reduce_all(self) -> Any:
        acc = self._reduced
        if acc is _UNSET:
            assert self.op is not None
            vals = self._in_comm_order()
            acc = vals[0]
            for v in vals[1:]:
                acc = self.op(acc, v)
            self._reduced = acc
        return acc

    def _scan_for(self, world_rank: int) -> Any:
        assert self.op is not None
        me = self.group.index(world_rank)
        accs = self._scan
        while len(accs) <= me:
            v = self.contributions[self.group[len(accs)]]
            accs.append(self.op(accs[-1], v) if accs else v)
        return accs[me]

    def result_for(self, world_rank: int) -> Any:
        """The value this member's call returns.  Only legal once
        ``ready_for(world_rank)`` holds."""
        kind = self.kind
        if kind == "barrier":
            return None
        if kind == "bcast":
            return self.contributions[self.root]
        if kind == "reduce":
            if world_rank != self.root:
                return None
            return self._reduce_all()
        if kind == "allreduce":
            return _own(self._reduce_all())
        if kind == "gather":
            if world_rank != self.root:
                return None
            return self._in_comm_order()
        if kind == "allgather":
            return self._in_comm_order()
        if kind == "scatter":
            payloads = self.contributions[self.root]
            if payloads is None or len(payloads) != len(self.group):
                raise MPIError(
                    f"scatter root payload must be a sequence of length "
                    f"{len(self.group)}, got {payloads!r}"
                )
            return payloads[self.group.index(world_rank)]
        if kind == "alltoall":
            n = len(self.group)
            me = self.group.index(world_rank)
            out = []
            for w in self.group:
                contrib = self.contributions[w]
                if contrib is None or len(contrib) != n:
                    raise MPIError(
                        f"alltoall contribution from world rank {w} must have "
                        f"length {n}"
                    )
                out.append(contrib[me])
            return out
        if kind == "reduce_scatter":
            n = len(self.group)
            assert self.op is not None
            vectors = self._in_comm_order()
            for w, vec in zip(self.group, vectors):
                if vec is None or len(vec) != n:
                    raise MPIError(
                        f"reduce_scatter contribution from world rank {w} must "
                        f"have length {n}"
                    )
            me = self.group.index(world_rank)
            acc = vectors[0][me]
            for vec in vectors[1:]:
                acc = self.op(acc, vec[me])
            return acc
        if kind == "scan":
            # a member's prefix also feeds the next member's
            return _own(self._scan_for(world_rank))
        if kind in ("comm_dup", "comm_split"):
            # Results are installed by the engine (it owns context creation).
            return self._results.get(world_rank)
        raise MPIError(f"result_for on unknown kind {kind!r}")

    def install_result(self, world_rank: int, value: Any) -> None:
        """Engine hook: store per-rank results for comm_dup/comm_split."""
        self._results[world_rank] = value

    def __repr__(self) -> str:
        return (
            f"CollectiveInstance(ctx={self.ctx}, seq={self.seq}, kind={self.kind}, "
            f"{len(self.contributions)}/{len(self.group)} entered)"
        )
