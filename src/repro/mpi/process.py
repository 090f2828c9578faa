"""Per-rank process handle: identity, PMPI bottoms and request completion.

A :class:`Proc` owns one rank's view of the job: its world communicator
handle, its compiled interposition chains, and the ``pmpi`` facade tool
modules use to issue *uninstrumented* operations (DAMPI's piggyback traffic
must not re-enter DAMPI).  Communicator operations are called on
:class:`~repro.mpi.communicator.Communicator` handles (``p.world.isend``);
``Proc`` keeps only what takes no communicator — request completion
(``wait``/``test``/``waitall``/...), ``pcontrol``, ``compute``, ``wtime``,
``finalize`` and ``abort``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from repro.errors import InvalidRequestError, MPIError
from repro.mpi.communicator import Communicator
from repro.mpi.constants import ANY_SOURCE, PROC_NULL, SUM, UNDEFINED, ReduceOp
from repro.mpi.engine import MessageEngine
from repro.mpi.request import Request, RequestKind, RequestState, Status


class _PMPI:
    """Uninstrumented ("PMPI") access for tool modules.

    Every method calls the engine binding directly, bypassing the tool
    stack.  Tools receive this via ``proc.pmpi``.
    """

    #: Hot entry points are bound eagerly as instance attributes so tool
    #: traffic (e.g. the clock module's finalize drain) skips
    #: ``__getattr__``.  The bottoms are bound methods that read
    #: ``proc.engine`` at call time, so the bindings survive ``Proc.rebind``.
    _HOT = ("isend", "issend", "irecv", "wait", "test", "probe", "iprobe")

    __slots__ = ("_proc",) + _HOT

    def __init__(self, proc: "Proc"):
        self._proc = proc
        bottoms = proc._bottoms
        for point in self._HOT:
            setattr(self, point, bottoms[point])

    #: These bottoms re-enter instrumented chains (see Proc._pmpi_waitall:
    #: waitall completes each request through the *instrumented* wait; the
    #: ssend/sendrecv/waitsome/testall bottoms are compositions over
    #: instrumented isend/irecv/wait) and so are not pure PMPI — tools
    #: compose over ``pmpi.isend``/``pmpi.wait`` themselves instead.
    _IMPURE = frozenset(
        {"waitall", "waitany", "waitsome", "testall", "ssend", "sendrecv"}
    )

    def __getattr__(self, point: str):
        if point in self._IMPURE:
            raise AttributeError(
                f"pmpi.{point} is not uninstrumented; loop over pmpi.wait instead"
            )
        try:
            return self._proc._bottoms[point]
        except KeyError:
            raise AttributeError(f"no PMPI entry point {point!r}") from None


class Proc:
    """One rank's handle onto the simulated MPI job."""

    def __init__(self, world_rank: int, engine: MessageEngine, runtime=None):
        self.world_rank = world_rank
        self.engine = engine
        self.runtime = runtime
        self.initialized = False
        self.finalized = False
        #: wildcard receives rewritten by a tool get their original selector
        #: preserved on the Request (posted_src); nothing needed here.
        self.world = Communicator(engine.world, self)
        self._bottoms = self._make_bottoms()
        self.pmpi = _PMPI(self)
        self._chains = self._bottoms  # replaced by runtime when a stack exists

    def rebind(self, engine: MessageEngine) -> None:
        """Point this handle at a fresh engine for another run of its
        Runtime (see ``Runtime.recycle``).

        The PMPI bottoms are bound methods that read ``self.engine`` at
        call time, and the compiled tool chains close over the bottoms —
        so swapping the engine reference is the entire rebind; chains and
        the pmpi facade stay valid.
        """
        self.engine = engine
        self.initialized = False
        self.finalized = False
        self.world = Communicator(engine.world, self)

    # -- identity ------------------------------------------------------------

    @property
    def rank(self) -> int:
        """World rank (alias; communicator-specific ranks via ``comm.rank``)."""
        return self.world_rank

    @property
    def size(self) -> int:
        return self.engine.nprocs

    # ------------------------------------------------------------------ #
    # PMPI bottoms: translate comm-local ranks, call the engine           #
    # ------------------------------------------------------------------ #

    def _make_bottoms(self) -> dict:
        return {
            "init": self._pmpi_init,
            "finalize": self._pmpi_finalize,
            "isend": self._pmpi_isend,
            "issend": self._pmpi_issend,
            "ssend": self._pmpi_ssend,
            "irecv": self._pmpi_irecv,
            "sendrecv": self._pmpi_sendrecv,
            "wait": self._pmpi_wait,
            "waitall": self._pmpi_waitall,
            "waitany": self._pmpi_waitany,
            "waitsome": self._pmpi_waitsome,
            "test": self._pmpi_test,
            "testall": self._pmpi_testall,
            "probe": self._pmpi_probe,
            "iprobe": self._pmpi_iprobe,
            "barrier": self._pmpi_barrier,
            "ibarrier": self._pmpi_ibarrier,
            "bcast": self._pmpi_bcast,
            "ibcast": self._pmpi_ibcast,
            "reduce": self._pmpi_reduce,
            "allreduce": self._pmpi_allreduce,
            "iallreduce": self._pmpi_iallreduce,
            "gather": self._pmpi_gather,
            "scatter": self._pmpi_scatter,
            "allgather": self._pmpi_allgather,
            "alltoall": self._pmpi_alltoall,
            "reduce_scatter": self._pmpi_reduce_scatter,
            "scan": self._pmpi_scan,
            "comm_dup": self._pmpi_comm_dup,
            "comm_split": self._pmpi_comm_split,
            "comm_free": self._pmpi_comm_free,
            "request_free": self._pmpi_request_free,
            "pcontrol": self._pmpi_pcontrol,
            "compute": self._pmpi_compute,
        }

    def _pmpi_init(self) -> None:
        self.initialized = True

    def _pmpi_finalize(self) -> None:
        self.finalized = True

    def _to_world(self, comm: Communicator, peer: int) -> int:
        if peer == ANY_SOURCE or peer == PROC_NULL:
            return peer
        return comm.context.world_rank(peer)

    # The point-to-point bottoms translate a peer without a call.  A
    # ``Communicator`` call range-checked it already; a ``proc.pmpi``
    # caller and a guided replay's forced source did not, so an
    # out-of-range rank still raises ``CommContext.world_rank``'s error.

    def _pmpi_isend(
        self, comm: Communicator, payload: Any, dest: int, tag: int, sync: bool = False
    ) -> Request:
        if dest == PROC_NULL:
            return self._null_request(RequestKind.SEND, comm)
        context = comm.context
        group = context.group
        if not 0 <= dest < len(group):
            context.world_rank(dest)
        return self.engine.pmpi_isend(
            self.world_rank, context.ctx, payload, group[dest], tag, self, sync
        )

    def _pmpi_issend(self, comm: Communicator, payload: Any, dest: int, tag: int) -> Request:
        return self._pmpi_isend(comm, payload, dest, tag, sync=True)

    def _pmpi_irecv(self, comm: Communicator, source: int, tag: int) -> Request:
        if source == PROC_NULL:
            return self._null_request(RequestKind.RECV, comm)
        context = comm.context
        if source != ANY_SOURCE:
            group = context.group
            if not 0 <= source < len(group):
                context.world_rank(source)
            source = group[source]
        return self.engine.pmpi_irecv(
            self.world_rank, context.ctx, source, tag, proc=self
        )

    def _null_request(self, kind: RequestKind, comm: Communicator) -> Request:
        """Transfers to/from MPI_PROC_NULL complete immediately, no data."""
        req = Request(kind, self.world_rank, comm.context.ctx, posted_src=PROC_NULL, proc=self)
        req.state = RequestState.COMPLETE
        req.status = Status(source=PROC_NULL, tag=UNDEFINED)
        req.complete_vtime = self.engine.clocks.now(self.world_rank)
        self.engine.live_requests[self.world_rank][req.uid] = req
        return req

    def _pmpi_wait(self, req: Request) -> Status:
        return self.engine.pmpi_wait(self.world_rank, req)

    def _pmpi_waitall(self, reqs: list) -> list:
        """Bottom of the waitall chain: completes each request through the
        *instrumented* wait chain, so per-request tool work (piggyback
        pairing, late-message analysis) still happens.  Modules that must
        count/charge MPI_Waitall as one call wrap the ``waitall`` entry
        point and suppress their per-wait hook inside it."""
        return [self.wait(r) for r in reqs]

    def _pmpi_waitany(self, reqs: list) -> tuple:
        idx = self.engine.pmpi_waitany_block(self.world_rank, list(reqs))
        return idx, self.wait(reqs[idx])

    def _pmpi_waitsome(self, reqs: list) -> tuple:
        """Bottom of the waitsome chain: block for one completion, then
        consume every completed request through the instrumented wait
        chain (same per-request tool guarantees as ``_pmpi_waitall``)."""
        self.engine.pmpi_waitany_block(self.world_rank, reqs)
        indices, statuses = [], []
        for i, r in enumerate(reqs):
            if r.state is RequestState.COMPLETE:
                indices.append(i)
                statuses.append(self.wait(r))
        return indices, statuses

    def _pmpi_testall(self, reqs: list) -> tuple:
        if all(r.is_complete for r in reqs):
            return True, [self.wait(r) for r in reqs]
        # a scheduling point, like test, to keep poll loops live
        self.engine.pmpi_yield(self.world_rank)
        return False, None

    def _pmpi_ssend(self, comm: Communicator, payload: Any, dest: int, tag: int) -> None:
        """Bottom of the ssend chain: composed from the *instrumented*
        issend/wait so tool work (piggyback, clock) still happens once per
        constituent; modules charging MPI_Ssend as a single call wrap the
        ``ssend`` entry point and suppress their constituent hooks."""
        chains = self._chains
        chains["wait"](chains["issend"](comm, payload, dest, tag))

    def _pmpi_sendrecv(self, comm: Communicator, payload: Any, dest: int,
                       source: int, sendtag: int, recvtag: int) -> tuple:
        """Bottom of the sendrecv chain; returns ``(data, recv_status)`` so
        the public wrapper can fill a user-supplied Status object."""
        chains = self._chains
        rreq = chains["irecv"](comm, source, recvtag)
        sreq = chains["isend"](comm, payload, dest, sendtag)
        chains["wait"](sreq)
        st = chains["wait"](rreq)
        return rreq.data, st

    def _pmpi_test(self, req: Request):
        return self.engine.pmpi_test(self.world_rank, req)

    def _pmpi_probe(self, comm: Communicator, source: int, tag: int) -> Status:
        return self.engine.pmpi_probe(
            self.world_rank, comm.context.ctx, self._to_world(comm, source), tag
        )

    def _pmpi_iprobe(self, comm: Communicator, source: int, tag: int):
        return self.engine.pmpi_iprobe(
            self.world_rank, comm.context.ctx, self._to_world(comm, source), tag
        )

    def _coll(self, comm: Communicator, kind: str, payload=None, root=None, op=None):
        root_world = None if root is None else self._to_world(comm, root)
        return self.engine.pmpi_collective(
            self.world_rank, comm.context.ctx, kind, payload, root_world, op
        )

    def _pmpi_barrier(self, comm: Communicator) -> None:
        self._coll(comm, "barrier")

    def _icoll(self, comm: Communicator, kind: str, payload=None, root=None, op=None) -> Request:
        root_world = None if root is None else self._to_world(comm, root)
        return self.engine.pmpi_icollective(
            self.world_rank, comm.context.ctx, kind, payload, root_world, op, proc=self
        )

    def _pmpi_ibarrier(self, comm: Communicator) -> Request:
        return self._icoll(comm, "barrier")

    def _pmpi_ibcast(self, comm: Communicator, payload: Any, root: int) -> Request:
        return self._icoll(comm, "bcast", payload, root)

    def _pmpi_iallreduce(self, comm: Communicator, payload: Any, op: ReduceOp) -> Request:
        return self._icoll(comm, "allreduce", payload, None, op or SUM)

    def _pmpi_bcast(self, comm: Communicator, payload: Any, root: int) -> Any:
        return self._coll(comm, "bcast", payload, root)

    def _pmpi_reduce(self, comm: Communicator, payload: Any, op: ReduceOp, root: int) -> Any:
        return self._coll(comm, "reduce", payload, root, op or SUM)

    def _pmpi_allreduce(self, comm: Communicator, payload: Any, op: ReduceOp) -> Any:
        return self._coll(comm, "allreduce", payload, None, op or SUM)

    def _pmpi_gather(self, comm: Communicator, payload: Any, root: int):
        return self._coll(comm, "gather", payload, root)

    def _pmpi_scatter(self, comm: Communicator, payloads, root: int):
        return self._coll(comm, "scatter", payloads, root)

    def _pmpi_allgather(self, comm: Communicator, payload: Any):
        return self._coll(comm, "allgather", payload)

    def _pmpi_alltoall(self, comm: Communicator, payloads):
        return self._coll(comm, "alltoall", payloads)

    def _pmpi_reduce_scatter(self, comm: Communicator, payloads, op: ReduceOp):
        return self._coll(comm, "reduce_scatter", payloads, None, op or SUM)

    def _pmpi_scan(self, comm: Communicator, payload: Any, op: ReduceOp) -> Any:
        return self._coll(comm, "scan", payload, None, op or SUM)

    def _pmpi_comm_dup(self, comm: Communicator) -> Communicator:
        ctx = self._coll(comm, "comm_dup")
        return Communicator(ctx, self)

    def _pmpi_comm_split(self, comm: Communicator, color: int, key: int):
        ctx = self._coll(comm, "comm_split", (color, key))
        return None if ctx is None else Communicator(ctx, self)

    def _pmpi_comm_free(self, comm: Communicator) -> None:
        self.engine.pmpi_comm_free(self.world_rank, comm.context.ctx)

    def _pmpi_request_free(self, req: Request) -> None:
        self.engine.pmpi_request_free(self.world_rank, req)

    def _pmpi_pcontrol(self, level: int) -> None:
        self.engine.pmpi_pcontrol(self.world_rank, level)

    def _pmpi_compute(self, seconds: float) -> None:
        self.engine.pmpi_compute(self.world_rank, seconds)

    # ------------------------------------------------------------------ #
    # instrumented calls that take no communicator                       #
    # ------------------------------------------------------------------ #

    def wait(self, req: Request) -> Status:
        return self._chains["wait"](req)

    def test(self, req: Request):
        return self._chains["test"](req)

    def request_free(self, req: Request) -> None:
        return self._chains["request_free"](req)

    def pcontrol(self, level: int) -> None:
        """``MPI_Pcontrol`` — DAMPI's loop-iteration-abstraction marker.

        ``level >= 1`` opens a no-explore region, ``level == 0`` closes it
        (see :mod:`repro.dampi.explorer`)."""
        return self._chains["pcontrol"](level)

    def compute(self, seconds: float) -> None:
        """Model local computation of ``seconds`` virtual seconds."""
        return self._chains["compute"](seconds)

    def wtime(self) -> float:
        """This rank's virtual clock in seconds (``MPI_Wtime``)."""
        return self.engine.clocks.now(self.world_rank)

    def finalize(self) -> None:
        if self.finalized:
            raise MPIError(f"rank {self.world_rank} finalized twice")
        self._chains["finalize"]()

    def abort(self, errorcode: int = 1) -> None:
        """``MPI_Abort``: kill every rank of the job."""
        self.engine.pmpi_abort(self.world_rank, errorcode)

    def waitall(self, reqs: Sequence[Request]) -> list[Status]:
        """Complete every request (``MPI_Waitall``); order of blocking is
        irrelevant since completion is independent per request."""
        return self._chains["waitall"](list(reqs))

    def waitany(self, reqs: Sequence[Request]) -> tuple[int, Status]:
        """Block until any request completes (``MPI_Waitany``); returns
        ``(index, status)`` and consumes that request."""
        return self._chains["waitany"](list(reqs))

    def waitsome(self, reqs: Sequence[Request]) -> tuple[list[int], list[Status]]:
        """Block until at least one request completes, then consume *every*
        currently-completed one (``MPI_Waitsome``); returns the indices and
        statuses, parallel lists."""
        return self._chains["waitsome"](list(reqs))

    def testsome(self, reqs: Sequence[Request]) -> tuple[list[int], list[Status]]:
        """Consume every currently-completed request without blocking
        (``MPI_Testsome``); empty lists when none are ready.  A scheduling
        point, like test."""
        indices, statuses = [], []
        for i, r in enumerate(reqs):
            if r.state is RequestState.COMPLETE:
                indices.append(i)
                statuses.append(self.wait(r))
        if not indices:
            self.engine.pmpi_yield(self.world_rank)
        return indices, statuses

    def testall(self, reqs: Sequence[Request]) -> tuple[bool, Optional[list[Status]]]:
        """``MPI_Testall``: succeed only if every request is complete.

        Does not consume anything on failure (MPI semantics)."""
        return self._chains["testall"](list(reqs))

    def __repr__(self) -> str:
        return f"Proc(rank={self.world_rank}/{self.size})"
