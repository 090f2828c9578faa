"""Communicators: shared contexts plus per-rank handles.

A :class:`CommContext` is the engine-side object every member shares: a
unique context id (the matching key), the ordered group of world ranks, and
per-pair send sequence counters.  A :class:`Communicator` is the handle one
rank holds; it exposes the mpi4py-flavoured operation surface and delegates
to the owning :class:`~repro.mpi.process.Proc` so every call crosses the
PnMPI interposition stack.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import InvalidCommunicatorError, InvalidRankError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, UNDEFINED


class CommContext:
    """Engine-shared state of one communicator.

    Attributes
    ----------
    ctx:
        Unique context id; point-to-point matching and collective pairing
        are keyed on it, so traffic on different communicators can never
        interfere (the property DAMPI's shadow communicators rely on).
    group:
        Ordered tuple of world ranks; a member's communicator rank is its
        index in this tuple.
    parent:
        Context id this one was dup'd/split from (None for world and for
        contexts created outside dup/split).
    tool:
        True for contexts created by tool modules (e.g. DAMPI's shadow
        communicators); the leak checker skips them.
    """

    __slots__ = (
        "ctx",
        "group",
        "parent",
        "tool",
        "label",
        "freed_by",
        "_send_seq",
        "_coll_seq",
    )

    def __init__(
        self,
        ctx: int,
        group: Sequence[int],
        parent: Optional[int] = None,
        tool: bool = False,
        label: str = "",
    ):
        self.ctx = ctx
        self.group = tuple(group)
        self.parent = parent
        self.tool = tool
        self.label = label or f"ctx{ctx}"
        #: world ranks that have freed their handle (len == size => fully freed)
        self.freed_by: set[int] = set()
        # (src_world, dst_world) -> next sequence number.  Mutated only
        # by the engine's token holder (see next_send_seq).
        self._send_seq: dict[tuple[int, int], int] = {}
        # per-world-rank count of collectives entered on this context; the
        # n-th collective call of every member pairs into instance n.
        self._coll_seq: dict[int, int] = {}

    @property
    def size(self) -> int:
        return len(self.group)

    def rank_of(self, world_rank: int) -> int:
        """Communicator rank of a world rank (raises if not a member)."""
        try:
            return self.group.index(world_rank)
        except ValueError:
            raise InvalidRankError(
                f"world rank {world_rank} is not in communicator {self.label}"
            ) from None

    def world_rank(self, comm_rank: int) -> int:
        """World rank of a communicator rank (raises if out of range)."""
        if not 0 <= comm_rank < len(self.group):
            raise InvalidRankError(
                f"rank {comm_rank} out of range for communicator {self.label} "
                f"of size {len(self.group)}"
            )
        return self.group[comm_rank]

    def next_send_seq(self, src_world: int, dst_world: int) -> int:
        """Allocate the next non-overtaking sequence number for a stream.

        Unlocked: every call site is engine code, which only the token
        holder runs, so calls never overlap."""
        key = (src_world, dst_world)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        return seq

    def next_collective_seq(self, world_rank: int) -> int:
        """Ordinal of this rank's next collective on this context.

        Unlocked — same token argument as :meth:`next_send_seq`."""
        seq = self._coll_seq.get(world_rank, 0)
        self._coll_seq[world_rank] = seq + 1
        return seq

    def is_fully_freed(self) -> bool:
        return len(self.freed_by) == len(self.group)

    def __repr__(self) -> str:
        return f"CommContext({self.label}, size={self.size})"


class Communicator:
    """Per-rank communicator handle (the thing programs call methods on).

    All operations delegate to the owning process handle so they traverse
    the tool stack; see :class:`repro.mpi.process.Proc` for semantics.
    """

    __slots__ = ("context", "proc", "_freed")

    def __init__(self, context: CommContext, proc):
        self.context = context
        self.proc = proc
        self._freed = False

    # -- identity ----------------------------------------------------------

    @property
    def ctx(self) -> int:
        return self.context.ctx

    @property
    def rank(self) -> int:
        """This process's rank within the communicator."""
        self._check_live()
        return self.context.rank_of(self.proc.world_rank)

    @property
    def size(self) -> int:
        self._check_live()
        return self.context.size

    @property
    def group(self) -> tuple[int, ...]:
        return self.context.group

    def _check_live(self) -> None:
        if self._freed:
            raise InvalidCommunicatorError(
                f"operation on freed communicator {self.context.label}"
            )

    def _check_peer(self, peer: int, *, allow_any: bool) -> None:
        """Validate a source/dest rank argument."""
        if peer == PROC_NULL:
            return
        if allow_any and peer == ANY_SOURCE:
            return
        if not isinstance(peer, int) or not 0 <= peer < self.context.size:
            raise InvalidRankError(
                f"rank {peer!r} invalid for communicator {self.context.label} "
                f"of size {self.context.size}"
            )

    # -- point-to-point ----------------------------------------------------

    def isend(self, payload: Any, dest: int, tag: int = 0):
        """Non-blocking eager send; returns a :class:`Request`."""
        self._check_live()
        self._check_peer(dest, allow_any=False)
        return self.proc.isend(self, payload, dest, tag)

    def issend(self, payload: Any, dest: int, tag: int = 0):
        """Synchronous-mode non-blocking send: completes only when matched."""
        self._check_live()
        self._check_peer(dest, allow_any=False)
        return self.proc.issend(self, payload, dest, tag)

    def ssend(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Blocking synchronous send (issend + wait)."""
        self._check_live()
        self._check_peer(dest, allow_any=False)
        self.proc.ssend(self, payload, dest, tag)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, max_count: Optional[int] = None):
        """Non-blocking receive; ``source``/``tag`` may be wildcards.

        ``max_count`` models the receive buffer's element capacity: a
        longer message raises ``TruncationError`` at completion, like
        MPI_ERR_TRUNCATE."""
        self._check_live()
        self._check_peer(source, allow_any=True)
        return self.proc.irecv(self, source, tag, max_count)

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Blocking send (isend + wait, both visible to the tool stack)."""
        self._check_live()
        self._check_peer(dest, allow_any=False)
        self.proc.send(self, payload, dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status=None,
             max_count: Optional[int] = None) -> Any:
        """Blocking receive; returns the payload.

        Pass a :class:`Status` as ``status`` to learn the actual source/tag
        of a wildcard receive; ``max_count`` as in :meth:`irecv`.
        """
        self._check_live()
        self._check_peer(source, allow_any=True)
        return self.proc.recv(self, source, tag, status, max_count)

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int = ANY_SOURCE,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        status=None,
    ) -> Any:
        """Combined send+receive that cannot deadlock against itself."""
        self._check_live()
        self._check_peer(dest, allow_any=False)
        self._check_peer(source, allow_any=True)
        return self.proc.sendrecv(self, payload, dest, source, sendtag, recvtag, status)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Block until a matching message is available; returns its Status."""
        self._check_live()
        self._check_peer(source, allow_any=True)
        return self.proc.probe(self, source, tag)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Non-blocking probe; returns ``(flag, Status | None)``."""
        self._check_live()
        self._check_peer(source, allow_any=True)
        return self.proc.iprobe(self, source, tag)

    # -- collectives ---------------------------------------------------------

    def barrier(self) -> None:
        self._check_live()
        self.proc.barrier(self)

    def ibarrier(self):
        """Non-blocking barrier: the request completes once every member
        has entered (MPI_Ibarrier)."""
        self._check_live()
        return self.proc.ibarrier(self)

    def ibcast(self, payload: Any = None, root: int = 0):
        """Non-blocking broadcast; ``req.wait()``'s request data carries
        the root's value (MPI_Ibcast)."""
        self._check_live()
        self._check_peer(root, allow_any=False)
        return self.proc.ibcast(self, payload, root)

    def iallreduce(self, payload: Any, op=None):
        """Non-blocking allreduce; the result is ``req.data`` after the
        wait (MPI_Iallreduce)."""
        self._check_live()
        return self.proc.iallreduce(self, payload, op)

    def bcast(self, payload: Any = None, root: int = 0) -> Any:
        self._check_live()
        self._check_peer(root, allow_any=False)
        return self.proc.bcast(self, payload, root)

    def reduce(self, payload: Any, op=None, root: int = 0) -> Any:
        self._check_live()
        self._check_peer(root, allow_any=False)
        return self.proc.reduce(self, payload, op, root)

    def allreduce(self, payload: Any, op=None) -> Any:
        self._check_live()
        return self.proc.allreduce(self, payload, op)

    def gather(self, payload: Any, root: int = 0):
        self._check_live()
        self._check_peer(root, allow_any=False)
        return self.proc.gather(self, payload, root)

    def scatter(self, payloads: Optional[Sequence[Any]] = None, root: int = 0):
        self._check_live()
        self._check_peer(root, allow_any=False)
        return self.proc.scatter(self, payloads, root)

    def allgather(self, payload: Any):
        self._check_live()
        return self.proc.allgather(self, payload)

    def alltoall(self, payloads: Sequence[Any]):
        self._check_live()
        return self.proc.alltoall(self, payloads)

    def reduce_scatter(self, payloads: Sequence[Any], op=None):
        self._check_live()
        return self.proc.reduce_scatter(self, payloads, op)

    def scan(self, payload: Any, op=None):
        """Inclusive prefix reduction: rank i gets op-fold of ranks 0..i."""
        self._check_live()
        return self.proc.scan(self, payload, op)

    # -- communicator management ---------------------------------------------

    def group_of(self):
        """The communicator's group (all members, in rank order)."""
        from repro.mpi.groups import Group

        self._check_live()
        return Group(range(self.context.size))

    def create(self, group) -> Optional["Communicator"]:
        """Collective ``MPI_Comm_create``: a new communicator over the
        group's members, ordered as the group lists them.  Non-members
        get ``None``.  Implemented over comm_split (color by membership,
        key by group position) — the orders coincide exactly."""
        self._check_live()
        pos = group.rank_of(self.rank)
        if pos is None:
            return self.proc.comm_split(self, UNDEFINED, 0)
        return self.proc.comm_split(self, 0, pos)

    def cart_create(self, dims, periods=None):
        """Collective ``MPI_Cart_create``: returns ``(comm, topology)``.

        Ranks beyond the topology's size get ``(None, topology)``; no
        reordering is performed (rank i sits at row-major position i)."""
        from repro.errors import MPIError
        from repro.mpi.groups import CartTopology

        self._check_live()
        topo = CartTopology(tuple(dims), tuple(periods or (False,) * len(dims)))
        if topo.size > self.context.size:
            raise MPIError(
                f"cartesian topology needs {topo.size} ranks, communicator "
                f"has {self.context.size}"
            )
        in_grid = self.rank < topo.size
        sub = self.proc.comm_split(self, 0 if in_grid else UNDEFINED, self.rank)
        return sub, topo

    def dup(self) -> "Communicator":
        """Collective duplicate: a congruent communicator with a fresh context."""
        self._check_live()
        return self.proc.comm_dup(self)

    def split(self, color: int, key: int = 0) -> Optional["Communicator"]:
        """Collective split; ``color=UNDEFINED`` yields ``None`` for this rank."""
        self._check_live()
        return self.proc.comm_split(self, color, key)

    def free(self) -> None:
        """Release this handle; the context is gone once all members free it.

        Forgetting this call is exactly the communicator leak DAMPI's
        checker reports (Table II, C-Leak column).
        """
        self._check_live()
        self.proc.comm_free(self)
        self._freed = True

    def __repr__(self) -> str:
        state = "freed" if self._freed else "live"
        return f"Communicator({self.context.label}, size={self.context.size}, {state})"


__all__ = ["CommContext", "Communicator", "UNDEFINED"]
