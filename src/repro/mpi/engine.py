"""The message engine: global matching state, scheduling, deadlock proof.

One :class:`MessageEngine` exists per job.  Rank threads call its
``pmpi_*`` methods — the bottom of the PnMPI stack, i.e. "the MPI library".

Scheduling
----------
Exactly one rank executes at a time: the *token holder*.  The token
passes round-robin from ``from_rank + 1`` when the holder blocks,
finishes or polls (``test``/``iprobe``/``yield``).  This makes entire
executions deterministic, which DAMPI's guided replays rely on, at one
context switch per *blocking event*.  An MPI library's native
non-determinism is modelled by the wildcard
:class:`~repro.mpi.matching.MatchPolicy`, not by thread timing.

Each rank owns a *baton*, a raw ``_thread`` lock that is held while the
rank is not the token holder.  A hand-off releases exactly one baton —
the next holder's — and the outgoing rank then blocks on its own, so a
hand-off wakes one thread however many ranks the last operation
unblocked (unblocking only marks a rank runnable).  Because only the
token holder ever runs engine code, engine state needs no lock.  The one
exception is :meth:`MessageEngine.kill` from the runtime's join timeout:
it sets the fatal error under a small lock and then opens every baton;
a woken rank sees the error and raises.

Deadlock detection is a *proof*, not a timeout: sends are eager, matching
is performed immediately on post, so if every non-finished rank is blocked
then no future engine event can occur and the job is deadlocked.  A rank
main stuck outside the engine is the runtime's join timeout.
"""

from __future__ import annotations

import _thread
import enum
from typing import Any, Optional

from repro.errors import (
    AbortError,
    DeadlockError,
    InvalidCommunicatorError,
    InvalidRequestError,
    MPIError,
    TruncationError,
)
from repro.mpi.collectives import CollectiveInstance
from repro.mpi.communicator import CommContext
from repro.mpi.constants import ANY_SOURCE, UNDEFINED, ReduceOp, validate_tag
from repro.mpi.costmodel import CostModel, VirtualClocks
from repro.mpi.matching import IndexedMailBox, make_policy
from repro.mpi.message import Envelope
from repro.mpi.request import Request, RequestKind, RequestState, Status

# Enum members resolved once — class-level member access goes through a
# descriptor, and these are checked on every wait/test.
_COMPLETE = RequestState.COMPLETE
_CONSUMED = RequestState.CONSUMED
_FREED = RequestState.FREED
_RECV = RequestKind.RECV
_SEND = RequestKind.SEND

WORLD_CTX = 0


class RankRunState(enum.Enum):
    RUNNING = "running"
    RUNNABLE = "runnable"
    BLOCKED = "blocked"
    DONE = "done"


_RUNNING = RankRunState.RUNNING
_RUNNABLE = RankRunState.RUNNABLE
_BLOCKED = RankRunState.BLOCKED
_DONE = RankRunState.DONE


def _open(baton) -> None:
    """Release ``baton``; a no-op if it is already open (the fatal path
    and a hand-off may race to open the same baton)."""
    try:
        baton.release()
    except RuntimeError:
        pass


class _RankState:
    __slots__ = ("rank", "state", "baton", "ready_fn", "describe")

    def __init__(self, rank: int):
        self.rank = rank
        self.state = _RUNNABLE
        #: held while this rank is not the token holder
        self.baton = _thread.allocate_lock()
        self.baton.acquire()
        self.ready_fn = None
        #: zero-arg callable naming what the rank is blocked in, called
        #: only to render a deadlock report
        self.describe = None


class EngineStats:
    """Lightweight global counters (diagnostics; per-class op statistics for
    Table I are counted at the interposition level, by
    ``benchmarks/comparators/opstats.py``)."""

    __slots__ = ("envelopes", "bytes", "collectives", "matches", "wildcard_matches")

    def __init__(self) -> None:
        self.envelopes = 0
        self.bytes = 0
        self.collectives = 0
        self.matches = 0
        self.wildcard_matches = 0


class MessageEngine:
    """Simulated MPI library shared by all ranks of one job."""

    def __init__(
        self,
        nprocs: int,
        cost_model: Optional[CostModel] = None,
        policy="arrival",
        tracer=None,
    ):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        self.cost = cost_model or CostModel()
        self.policy = make_policy(policy)
        #: structured event sink (:class:`repro.obs.trace.Tracer`) or None.
        #: Hot-path emitters guard with ``is not None``; what a tracer
        #: costs a campaign is the ledger's ``obs.trace_overhead_ratio``.
        self.tracer = tracer
        self.clocks = VirtualClocks(nprocs)
        self.stats = EngineStats()

        self._ranks = [_RankState(r) for r in range(nprocs)]
        self._mail = [IndexedMailBox(r) for r in range(nprocs)]
        self._collectives: dict[tuple[int, int], CollectiveInstance] = {}
        self._coll_done: dict[tuple[int, int], int] = {}
        self.contexts: dict[int, CommContext] = {}
        self._next_ctx = WORLD_CTX
        #: per rank, uid -> every request it created that no wait/test
        #: has consumed and no request_free released.  With
        #: :attr:`freed_active` and :meth:`held_contexts`, this is what a
        #: rank still holds at MPI_Finalize — the leak check's C-Leak and
        #: R-Leak read.  Charges no virtual time.
        self.live_requests: list[dict[int, Request]] = [{} for _ in range(nprocs)]
        #: per rank, requests ``MPI_Request_free`` released while pending
        self.freed_active: list[list[Request]] = [[] for _ in range(nprocs)]
        self._fatal: Optional[BaseException] = None
        #: serialises only the first-fatal-wins assignment (see kill)
        self._fatal_lock = _thread.allocate_lock()
        self._current: Optional[int] = 0
        self._ranks[0].baton.release()  # rank 0 holds the first token
        self.world = self._new_context(tuple(range(nprocs)), label="world")

    # ------------------------------------------------------------------ #
    # context management                                                 #
    # ------------------------------------------------------------------ #

    def _new_context(
        self,
        group: tuple[int, ...],
        parent: Optional[int] = None,
        tool: bool = False,
        label: str = "",
    ) -> CommContext:
        ctx_id = self._next_ctx
        self._next_ctx += 1
        ctx = CommContext(ctx_id, group, parent=parent, tool=tool, label=label)
        self.contexts[ctx_id] = ctx
        return ctx

    def new_tool_context(self, base: CommContext, label: str) -> CommContext:
        """Create a shadow context congruent to ``base`` (for piggybacking).

        Called by tool modules outside any collective; deterministic given
        call order, which deterministic scheduling guarantees.
        """
        return self._new_context(base.group, parent=base.ctx, tool=True, label=label)

    def held_contexts(self, rank: int) -> list[CommContext]:
        """The user (non-tool) contexts ``rank`` belongs to and has not
        freed, world included, in creation order."""
        return [
            ctx for ctx in self.contexts.values()
            if not ctx.tool and rank in ctx.group and rank not in ctx.freed_by
        ]

    def _live_context(self, ctx_id: int) -> CommContext:
        ctx = self.contexts.get(ctx_id)
        if ctx is None:
            raise InvalidCommunicatorError(f"unknown context {ctx_id}")
        if ctx.is_fully_freed():
            raise InvalidCommunicatorError(
                f"communication on fully freed communicator {ctx.label}"
            )
        return ctx

    # ------------------------------------------------------------------ #
    # scheduling primitives (called by the token holder unless stated)   #
    # ------------------------------------------------------------------ #

    def thread_started(self, rank: int) -> None:
        """First thing each rank thread does: wait for its first token."""
        st = self._ranks[rank]
        self._wait_for_token(st)
        st.state = _RUNNING

    def thread_finished(self, rank: int) -> None:
        """Last thing each rank thread does (even on exception).  After a
        fatal error every baton is open, so there is no token to pass."""
        self._ranks[rank].state = _DONE
        if self._fatal is None:
            self._schedule_next(rank)

    def kill(self, exc: BaseException) -> None:
        """Abort the whole job with ``exc`` (first fatal wins).  Safe from
        any thread, including while the token holder hands off."""
        with self._fatal_lock:
            if self._fatal is not None:
                return
            self._fatal = exc
        tr = self.tracer
        if tr is not None and isinstance(exc, DeadlockError):
            tr.instant(
                "deadlock", "engine",
                blocked=tuple(sorted(exc.blocked)),
            )
        # _fatal is set before any baton opens, so a rank that passes its
        # baton from here on sees it
        for st in self._ranks:
            _open(st.baton)

    def _check_fatal(self) -> None:
        if self._fatal is not None:
            raise self._fatal

    def _wait_for_token(self, st: _RankState) -> None:
        st.baton.acquire()
        if self._fatal is not None:
            _open(st.baton)  # stay open: every later wait must raise too
            raise self._fatal

    def _schedule_next(self, from_rank: int) -> None:
        """Pass the token to the next runnable rank (round-robin from
        ``from_rank + 1``); prove deadlock if nobody is runnable but
        somebody is blocked."""
        ranks = self._ranks
        n = self.nprocs
        cand = from_rank
        for _ in range(n):
            cand += 1
            if cand == n:
                cand = 0
            st = ranks[cand]
            if st.state is _RUNNABLE:
                self._current = cand
                _open(st.baton)
                return
        blocked = {
            st.rank: st.describe() for st in ranks
            if st.state is _BLOCKED
        }
        if blocked:
            self.kill(DeadlockError(blocked))
        else:
            self._current = None  # everyone DONE

    def _block_until(self, rank: int, ready_fn, describe) -> None:
        """Block the calling rank until ``ready_fn()`` (engine-state
        predicate), passing the token on meanwhile.

        ``describe`` is a zero-arg callable naming the blocking call; it
        is only evaluated if a deadlock is proven, so hot paths never
        format it."""
        if ready_fn():
            return
        st = self._ranks[rank]
        st.ready_fn = ready_fn
        st.describe = describe
        while True:
            st.state = _BLOCKED
            self._schedule_next(rank)
            self._wait_for_token(st)
            if ready_fn():
                break
        st.state = _RUNNING

    def _unblock_if_ready(self, rank: int) -> None:
        """Called by whichever rank just changed state that may satisfy a
        blocked rank's predicate.  Wakes nobody: the rank becomes runnable
        and waits for its turn in the round-robin."""
        st = self._ranks[rank]
        if st.state is _BLOCKED and st.ready_fn():
            st.state = _RUNNABLE

    def _yield_token(self, rank: int) -> None:
        """Voluntary scheduling point (test/iprobe loops)."""
        st = self._ranks[rank]
        st.state = _RUNNABLE
        self._schedule_next(rank)
        self._wait_for_token(st)
        st.state = _RUNNING

    # ------------------------------------------------------------------ #
    # point-to-point                                                      #
    # ------------------------------------------------------------------ #

    def pmpi_isend(
        self, rank: int, ctx_id: int, payload: Any, dest_world: int, tag: int, proc=None
    ) -> Request:
        """Eager non-blocking send: deposits immediately, completes locally."""
        validate_tag(tag, receiving=False)
        cost = self.cost
        if self._fatal is not None:
            raise self._fatal
        # Hot path: a context is only worth re-validating once someone
        # has freed on it (the common case is an untouched world comm).
        ctx = self.contexts.get(ctx_id)
        if ctx is None or ctx.freed_by:
            ctx = self._live_context(ctx_id)
        vtimes = self.clocks.vtimes
        send_vtime = vtimes[rank]
        req = Request(_SEND, rank, ctx_id, proc=proc)
        req.post_vtime = send_vtime
        self.live_requests[rank][req.uid] = req
        seq = ctx.next_send_seq(rank, dest_world)
        env = Envelope(
            src=rank,
            dst=dest_world,
            ctx=ctx_id,
            tag=tag,
            payload=payload,
            seq=seq,
            send_vtime=send_vtime,
        )
        # inlined cost.arrival_vtime / cost.send_cost (hottest call site)
        nbytes = env.nbytes
        byte_cost = nbytes * cost.byte_time
        env.arrival_vtime = send_vtime + cost.latency + byte_cost
        send_cost = cost.p2p_overhead + byte_cost
        if ctx.tool:
            send_cost *= cost.tool_factor
        vtimes[rank] = now = send_vtime + send_cost
        req.state = _COMPLETE
        req.complete_vtime = now
        req.status = Status()
        req.envelope = env
        stats = self.stats
        stats.envelopes += 1
        stats.bytes += nbytes
        self._deposit(env)
        return req

    def pmpi_issend(
        self, rank: int, ctx_id: int, payload: Any, dest_world: int, tag: int, proc=None
    ) -> Request:
        """Synchronous-mode non-blocking send (MPI_Issend): the request
        completes only when a matching receive consumes the message —
        rendezvous semantics, the stricter deadlock discipline."""
        validate_tag(tag, receiving=False)
        self._check_fatal()
        ctx = self._live_context(ctx_id)
        send_vtime = self.clocks.now(rank)
        req = Request(RequestKind.SEND, rank, ctx_id, proc=proc)
        req.post_vtime = send_vtime
        self.live_requests[rank][req.uid] = req
        seq = ctx.next_send_seq(rank, dest_world)
        env = Envelope(
            src=rank,
            dst=dest_world,
            ctx=ctx_id,
            tag=tag,
            payload=payload,
            seq=seq,
            send_vtime=send_vtime,
        )
        env.arrival_vtime = self.cost.arrival_vtime(env)
        env.sync_req = req
        send_cost = self.cost.send_cost(env.nbytes)
        if ctx.tool:
            send_cost *= self.cost.tool_factor
        self.clocks.advance(rank, send_cost)
        req.status = Status()
        req.envelope = env
        self.stats.envelopes += 1
        self.stats.bytes += env.nbytes
        self._deposit(env)  # may complete req immediately if matched
        return req

    def _deposit(self, env: Envelope) -> None:
        """Route an envelope: complete the oldest matching posted receive,
        else queue as unexpected.  Wakes the destination if anything changed."""
        mb = self._mail[env.dst]
        req = mb.first_posted_match(env)
        if req is not None:
            mb.remove_posted(req)
            self._complete_recv(req, env)
        else:
            mb.add_unexpected(env)
        self._unblock_if_ready(env.dst)

    def _complete_recv(self, req: Request, env: Envelope) -> None:
        ctx = self.contexts[env.ctx]
        env.matched = True
        req.data = env.payload
        req.envelope = env
        req.status = Status(source=ctx.rank_of(env.src), tag=env.tag, payload=env.payload)
        cost = self.cost
        completion_cost = cost.p2p_overhead  # receiver-side completion cost
        if ctx.tool:
            completion_cost *= cost.tool_factor
        req.complete_vtime = (
            max(req.post_vtime, env.arrival_vtime, self.clocks.vtimes[req.owner])
            + completion_cost
        )
        req.state = _COMPLETE
        stats = self.stats
        stats.matches += 1
        if req.posted_src == ANY_SOURCE:
            stats.wildcard_matches += 1
            tr = self.tracer
            if tr is not None:
                tr.instant(
                    "wildcard_match", "match", rank=req.owner,
                    src=env.src, tag=env.tag, seq=env.seq,
                )
        if env.sync_req is not None:
            # rendezvous: the synchronous send completes at match time
            sreq = env.sync_req
            sreq.state = _COMPLETE
            sreq.complete_vtime = req.complete_vtime
            self._unblock_if_ready(sreq.owner)

    def pmpi_irecv(
        self, rank: int, ctx_id: int, src_world: int, tag: int, proc=None
    ) -> Request:
        """Non-blocking receive; matches immediately if possible.

        ``src_world`` may be ``ANY_SOURCE`` — then the configured
        :class:`MatchPolicy` arbitrates among eligible sources (this is the
        native non-determinism DAMPI exists to cover).
        """
        validate_tag(tag, receiving=True)
        if self._fatal is not None:
            raise self._fatal
        ctx = self.contexts.get(ctx_id)
        if ctx is None or ctx.freed_by:
            ctx = self._live_context(ctx_id)
        req = Request(
            _RECV, rank, ctx_id, posted_src=src_world, posted_tag=tag, proc=proc
        )
        self.live_requests[rank][req.uid] = req
        cost = self.cost
        post_cost = cost.p2p_overhead  # receiver-side posting cost
        if ctx.tool:
            post_cost *= cost.tool_factor
        vtimes = self.clocks.vtimes
        vtimes[rank] = req.post_vtime = vtimes[rank] + post_cost
        mb = self._mail[rank]
        candidates = mb.candidates_for(ctx_id, src_world, tag)
        if candidates:
            if len(candidates) == 1:
                env = candidates[0]
            else:
                env = self.policy.choose(candidates)
                tr = self.tracer
                if tr is not None and src_world == ANY_SOURCE:
                    # the native non-determinism DAMPI explores: the
                    # policy arbitrated among multiple eligible sends
                    tr.instant(
                        "policy_choice", "match", rank=rank,
                        candidates=len(candidates), chosen=env.src,
                        tag=env.tag,
                    )
            mb.remove_unexpected(env)
            self._complete_recv(req, env)
        else:
            mb.add_posted(req)
        return req

    # ------------------------------------------------------------------ #
    # completion                                                          #
    # ------------------------------------------------------------------ #

    def pmpi_wait(self, rank: int, req: Request) -> Status:
        # _validate_completion_target, inlined (wait is the hottest entry
        # point: one per send and one per receive)
        if (
            req.__class__ is not Request
            or req.owner != rank
            or req.state is _FREED
            or req.state is _CONSUMED
        ):
            self._validate_completion_target(rank, req)
        if self._fatal is not None:
            raise self._fatal
        # Fast path: eager sends and already-matched receives complete at
        # post time, so most waits never block — skip the closure setup.
        if req.state is not _COMPLETE:
            self._block_until(
                rank,
                lambda: req.is_complete,
                lambda: f"wait on {req!r}",
            )
        return self._consume(rank, req)

    def pmpi_test(self, rank: int, req: Request) -> tuple[bool, Optional[Status]]:
        """Non-blocking completion check.  A scheduling point — otherwise
        a test loop would hold the token forever and livelock the job."""
        self._validate_completion_target(rank, req)
        self._check_fatal()
        if req.is_complete:
            return True, self._consume(rank, req)
        self._yield_token(rank)
        if req.is_complete:
            return True, self._consume(rank, req)
        return False, None

    def _validate_completion_target(self, rank: int, req: Request) -> None:
        if not isinstance(req, Request):
            raise InvalidRequestError(f"not a request: {req!r}")
        if req.owner != rank:
            raise InvalidRequestError(
                f"rank {rank} completing rank {req.owner}'s request {req!r}"
            )
        if req.state is RequestState.FREED:
            raise InvalidRequestError(f"completion of freed request {req!r}")
        if req.state is RequestState.CONSUMED:
            raise InvalidRequestError(f"request {req!r} completed twice")

    def _consume(self, rank: int, req: Request) -> Status:
        self.live_requests[rank].pop(req.uid, None)
        if (
            req.kind is _RECV
            and req.max_count is not None
            and req.status is not None
            and req.status.get_count() > req.max_count
        ):
            req.state = _CONSUMED
            raise TruncationError(
                f"rank {rank}: message of {req.status.get_count()} elements "
                f"received into a buffer of {req.max_count} (MPI_ERR_TRUNCATE)"
            )
        req.state = _CONSUMED
        cost = self.cost
        local = cost.local_op
        ctx = self.contexts.get(req.ctx)
        if ctx is not None and ctx.tool:
            local *= cost.tool_factor
        vtimes = self.clocks.vtimes
        t = req.complete_vtime
        if t < vtimes[rank]:
            t = vtimes[rank]
        vtimes[rank] = t + local
        return req.status

    def pmpi_waitany_block(self, rank: int, reqs: list[Request]) -> int:
        """Block until at least one active request completes; returns the
        index of a completed request *without consuming it* (the caller then
        waits on it through the tool stack so tools observe the completion)."""
        self._check_fatal()
        active = [
            r
            for r in reqs
            if r.state not in (RequestState.CONSUMED, RequestState.FREED)
        ]
        if not active:
            raise InvalidRequestError("waitany on no active requests")
        for r in active:
            if r.owner != rank:
                raise InvalidRequestError(
                    f"rank {rank} waiting on rank {r.owner}'s request"
                )
        self._block_until(
            rank,
            lambda: any(r.state is _COMPLETE for r in active),
            lambda: f"waitany over {len(active)} requests",
        )
        for i, r in enumerate(reqs):
            if r.state is RequestState.COMPLETE:
                return i
        raise InvalidRequestError("waitany woke with no completed request")

    def pmpi_request_free(self, rank: int, req: Request) -> None:
        """``MPI_Request_free``: mark freed without completing.  A request
        freed while still pending is the paper's R-Leak.  A consumed
        request is ``MPI_REQUEST_NULL`` and cannot be freed."""
        self._check_fatal()
        if req.owner != rank:
            raise InvalidRequestError("freeing another rank's request")
        if req.state is _FREED:
            raise InvalidRequestError("request freed twice")
        if req.state is _CONSUMED:
            raise InvalidRequestError(f"freeing completed request {req!r}")
        self.live_requests[rank].pop(req.uid, None)
        if req.state is RequestState.PENDING:
            self.freed_active[rank].append(req)
        req.state = _FREED
        self.clocks.advance(rank, self.cost.local_op)

    # ------------------------------------------------------------------ #
    # probes                                                              #
    # ------------------------------------------------------------------ #

    def _probe_status(self, rank: int, ctx_id: int, src_world: int, tag: int):
        mb = self._mail[rank]
        candidates = mb.candidates_for(ctx_id, src_world, tag)
        if not candidates:
            return None
        env = candidates[0] if len(candidates) == 1 else self.policy.choose(candidates)
        ctx = self.contexts[env.ctx]
        return Status(source=ctx.rank_of(env.src), tag=env.tag, payload=env.payload)

    def pmpi_iprobe(
        self, rank: int, ctx_id: int, src_world: int, tag: int
    ) -> tuple[bool, Optional[Status]]:
        validate_tag(tag, receiving=True)
        self._check_fatal()
        self._live_context(ctx_id)
        self.clocks.advance(rank, self.cost.local_op)
        status = self._probe_status(rank, ctx_id, src_world, tag)
        if status is None:
            # scheduling point: iprobe polling loops must let peers run
            self._yield_token(rank)
            status = self._probe_status(rank, ctx_id, src_world, tag)
        return (status is not None), status

    def pmpi_probe(self, rank: int, ctx_id: int, src_world: int, tag: int) -> Status:
        validate_tag(tag, receiving=True)
        self._check_fatal()
        self._live_context(ctx_id)
        mb = self._mail[rank]
        self._block_until(
            rank,
            lambda: bool(mb.candidates_for(ctx_id, src_world, tag)),
            lambda: f"probe(src={src_world}, tag={tag}, ctx={ctx_id})",
        )
        self.clocks.advance(rank, self.cost.local_op)
        status = self._probe_status(rank, ctx_id, src_world, tag)
        assert status is not None
        return status

    # ------------------------------------------------------------------ #
    # collectives                                                         #
    # ------------------------------------------------------------------ #

    def _enter_collective(
        self,
        rank: int,
        ctx_id: int,
        kind: str,
        payload: Any,
        root_world: Optional[int],
        op: Optional[ReduceOp],
    ) -> tuple[CommContext, tuple[int, int], CollectiveInstance]:
        """``rank`` joins its next collective on ``ctx_id``, blocking or
        not: the instance is created by its first member, and a
        communicator-creating kind builds its context(s) once all entered."""
        self._check_fatal()
        ctx = self._live_context(ctx_id)
        if rank not in ctx.group:
            raise InvalidCommunicatorError(
                f"rank {rank} not a member of {ctx.label}"
            )
        key = (ctx_id, ctx.next_collective_seq(rank))
        inst = self._collectives.get(key)
        if inst is None:
            inst = CollectiveInstance(ctx_id, key[1], ctx.group)
            self._collectives[key] = inst
        inst.enter(rank, payload, kind, self.clocks.now(rank), root_world, op)
        self.stats.collectives += 1
        if inst.all_entered and kind in ("comm_dup", "comm_split"):
            self._finish_comm_collective(inst, ctx)
        return ctx, key, inst

    def _collective_cost(self, ctx: CommContext, inst: CollectiveInstance) -> float:
        """Completion cost of ``inst``; tool (shadow) contexts pay
        ``tool_factor`` of it, as their point-to-point traffic does."""
        cost = self.cost.collective_cost(len(inst.group))
        return cost * self.cost.tool_factor if ctx.tool else cost

    def pmpi_collective(
        self,
        rank: int,
        ctx_id: int,
        kind: str,
        payload: Any = None,
        root_world: Optional[int] = None,
        op: Optional[ReduceOp] = None,
    ) -> Any:
        """All collective kinds funnel here; see :mod:`repro.mpi.collectives`
        for pairing, agreement checks, completion rules and result values."""
        ctx, key, inst = self._enter_collective(
            rank, ctx_id, kind, payload, root_world, op
        )
        self._drain_collective_requests(ctx, inst)
        for w in inst.group:
            if w != rank:
                self._unblock_if_ready(w)
        self._block_until(
            rank,
            lambda: inst.ready_for(rank),
            lambda: f"{kind} on {ctx.label} (instance {key[1]})",
        )
        t = inst.completion_vtime(
            rank, self._collective_cost(ctx, inst), self.cost.latency
        )
        self.clocks.raise_to(rank, t)
        result = inst.result_for(rank)
        self._retire_collective(key, inst)
        return result

    def pmpi_icollective(
        self,
        rank: int,
        ctx_id: int,
        kind: str,
        payload: Any = None,
        root_world: Optional[int] = None,
        op: Optional[ReduceOp] = None,
        proc=None,
    ) -> Request:
        """Non-blocking collective (MPI-3 ibarrier/ibcast/iallreduce/...):
        enters the instance immediately and returns a request that
        completes once the kind's completion rule is satisfied."""
        ctx, key, inst = self._enter_collective(
            rank, ctx_id, kind, payload, root_world, op
        )
        req = Request(RequestKind.COLL, rank, ctx_id, proc=proc)
        req.post_vtime = self.clocks.now(rank)
        self.live_requests[rank][req.uid] = req
        inst.pending_requests.append((rank, req, key))
        self._drain_collective_requests(ctx, inst)
        # arrivals may also unblock *blocking* participants
        for w in inst.group:
            if w != rank:
                self._unblock_if_ready(w)
        return req

    def _drain_collective_requests(
        self, ctx: CommContext, inst: CollectiveInstance
    ) -> None:
        """Complete every pending non-blocking participation whose rank is
        now allowed to finish."""
        still = []
        for rank, req, key in inst.pending_requests:
            if inst.kind is not None and inst.ready_for(rank):
                req.data = inst.result_for(rank)
                req.complete_vtime = inst.completion_vtime(
                    rank, self._collective_cost(ctx, inst), self.cost.latency
                )
                req.status = Status()
                req.state = RequestState.COMPLETE
                self._retire_collective(key, inst)
                self._unblock_if_ready(rank)
            else:
                still.append((rank, req, key))
        inst.pending_requests[:] = still

    def _retire_collective(self, key, inst: CollectiveInstance) -> None:
        """Drop a collective instance once every member's participation
        (blocking or via request) has been consumed."""
        done = self._coll_done.get(key, 0) + 1
        if done == len(inst.group):
            self._collectives.pop(key, None)
            self._coll_done.pop(key, None)
        else:
            self._coll_done[key] = done

    def _finish_comm_collective(self, inst: CollectiveInstance, parent: CommContext) -> None:
        """Create the new context(s) for a completed comm_dup/comm_split."""
        if inst.kind == "comm_dup":
            new_ctx = self._new_context(
                parent.group, parent=parent.ctx, label=f"{parent.label}.dup"
            )
            for w in inst.group:
                inst.install_result(w, new_ctx)
            return
        # comm_split: contributions are (color, key) pairs
        by_color: dict[int, list[tuple[int, int, int]]] = {}
        for comm_rank, w in enumerate(inst.group):
            color, key = inst.contributions[w]
            if color == UNDEFINED:
                inst.install_result(w, None)
                continue
            if not isinstance(color, int) or color < 0:
                raise MPIError(f"comm_split color must be a non-negative int, got {color!r}")
            by_color.setdefault(color, []).append((key, comm_rank, w))
        for color, members in sorted(by_color.items()):
            members.sort()  # by (key, original comm rank) — MPI's ordering rule
            group = tuple(w for _, _, w in members)
            new_ctx = self._new_context(
                group, parent=parent.ctx, label=f"{parent.label}.split{color}"
            )
            for w in group:
                inst.install_result(w, new_ctx)

    # ------------------------------------------------------------------ #
    # communicator free                                                   #
    # ------------------------------------------------------------------ #

    def pmpi_comm_free(self, rank: int, ctx_id: int) -> None:
        self._check_fatal()
        ctx = self.contexts.get(ctx_id)
        if ctx is None:
            raise InvalidCommunicatorError(f"unknown context {ctx_id}")
        if rank in ctx.freed_by:
            raise InvalidCommunicatorError(
                f"rank {rank} freed communicator {ctx.label} twice"
            )
        ctx.freed_by.add(rank)
        self.clocks.advance(rank, self.cost.local_op)

    # ------------------------------------------------------------------ #
    # misc                                                                #
    # ------------------------------------------------------------------ #

    def pmpi_compute(self, rank: int, seconds: float) -> None:
        """Model local computation: advances virtual time only."""
        if seconds < 0:
            raise ValueError("compute time must be non-negative")
        self._check_fatal()
        self.clocks.advance(rank, seconds)

    def charge(self, rank: int, seconds: float) -> None:
        """Advance a rank's virtual clock by tool-side CPU time (used by
        interposition modules to model their own overhead).

        A rank only ever charges *itself*, as the token holder.
        Cross-rank reads (e.g. makespan) happen after the job drains."""
        self.clocks.vtimes[rank] += seconds

    def pmpi_pcontrol(self, rank: int, level: int) -> None:
        """No engine semantics; tool modules interpret (loop abstraction)."""
        self._check_fatal()

    def pmpi_abort(self, rank: int, errorcode: int = 1) -> None:
        exc = AbortError(rank, errorcode)
        self.kill(exc)
        raise exc

    def pmpi_yield(self, rank: int) -> None:
        """Explicit voluntary scheduling point (used by busy-poll loops)."""
        self._check_fatal()
        self._yield_token(rank)

    # -- introspection for tools/tests -------------------------------------

    def unexpected_envelopes(self) -> list[tuple[int, Envelope]]:
        """Post-mortem introspection: every arrived-but-unreceived envelope
        as ``(destination rank, envelope)``.  Used by DAMPI to analyse the
        queues of a deadlocked/crashed run (call after the job ended)."""
        return [
            (rank, env)
            for rank, mb in enumerate(self._mail)
            for env in mb.unexpected
        ]

    def mailbox_depths(self) -> list[tuple[int, int]]:
        return [mb.pending_counts() for mb in self._mail]

    @property
    def makespan(self) -> float:
        return self.clocks.makespan
