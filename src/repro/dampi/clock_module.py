"""DAMPI's clock module — the paper's Algorithm 1 as a PnMPI tool.

Responsibilities, per rank:

* maintain the logical clock (Lamport by default, vector optionally) with
  the paper's update discipline: *only wildcard operations tick*; receive
  completions merge the piggybacked stamp; collectives exchange stamps
  according to their data-flow shape;
* keep each tick out of transmitted stamps until its wildcard completes
  (the paper's §V fix for Fig. 10): an epoch ticks the clock's epoch view,
  and its Wait/Test commits the tick to the transmit view;
* record an :class:`~repro.dampi.epoch.EpochRecord` for every wildcard
  receive/probe (``RecordEpochData``) keyed by the pre-tick clock value
  and carrying the post-tick stamp;
* in GUIDED_RUN, rewrite wildcard sources to the Epoch Decisions file's
  forced source (``GetSrcFromEpoch``) until the rank's ``guided_epoch``
  passes, then fall back to SELF_RUN;
* at every receive completion, classify the message late/not-late against
  the recorded epochs and record potential matches
  (``FindPotentialMatches``).

The completeness-relevant refinement over the paper's pseudocode: we test
each incoming stamp against *all* recorded epochs via the stamp order
(exclude iff ``epoch.post_tick_stamp.leq(m.stamp)``), not only those older
than the receiving request.  This is a strict superset of the paper's
``req.LC > m.LC`` pre-filter and remains sound: a send causally after an
epoch necessarily incorporates the epoch's tick, so its stamp dominates
the post-tick stamp.
"""

from __future__ import annotations

import bisect
import sys
from functools import reduce
from typing import Optional

from repro.clocks.base import make_clock
from repro.clocks.lamport import LamportStamp
from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import EpochRecord, PotentialMatch, RunTrace
from repro.dampi.monitor import OmissionMonitorModule
from repro.dampi.piggyback import PiggybackModule
from repro.mpi.collectives import CollectiveInstance
from repro.mpi.communicator import Communicator
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.request import Request, RequestKind, Status
from repro.pnmpi.module import ToolModule


def _stamp_max(a, b):
    """Componentwise/scalar max of two stamps (the MPI_MAX of Algorithm 1)."""
    if isinstance(a, LamportStamp):
        return a if a.time >= b.time else b
    # a process that never imported the vector clock holds no vector stamp
    vector = sys.modules.get("repro.clocks.vector")
    if vector is not None and isinstance(a, vector.VectorStamp):
        return vector.VectorStamp(
            tuple(max(x, y) for x, y in zip(a.components, b.components))
        )
    raise TypeError(f"cannot reduce stamps of type {type(a).__name__}")


SELF_RUN = "SELF_RUN"
GUIDED_RUN = "GUIDED_RUN"

_RECV = RequestKind.RECV
_COLL = RequestKind.COLL

#: collective entry point -> the data-flow shape of its stamp exchange
#: (the rooted shapes, "bcast" and "gather", take the root last)
_EXCHANGES = {
    "barrier": "allreduce",
    "allreduce": "allreduce",
    "allgather": "allreduce",
    "alltoall": "allreduce",
    "reduce_scatter": "allreduce",
    "scan": "scan",
    "bcast": "bcast",
    "scatter": "bcast",
    "reduce": "gather",
    "gather": "gather",
    "ibarrier": "allreduce",
    "iallreduce": "allreduce",
    "ibcast": "bcast",
}
_NONBLOCKING = frozenset({"ibarrier", "iallreduce", "ibcast"})
#: the clock's own entry points
_CLOCK_POINTS = frozenset({
    "irecv", "wait", "test", "probe", "iprobe", "pcontrol", "finalize",
    "comm_dup", "comm_split", *_EXCHANGES,
})
#: entry points the separate piggyback mechanism adds
_PIGGYBACK_POINTS = frozenset({"isend", "issend", "irecv", "wait", "test", "request_free"})
#: entry points the §V monitor adds: transmissions and window closers
_MONITOR_POINTS = frozenset({"isend", "issend", "wait", "test", "request_free"})


def _chain_send(proc, chain, comm, payload, dest, tag):
    return chain(comm, payload, dest, tag)


def _chain_recv(proc, chain, comm, source, tag):
    return chain(comm, source, tag)


class _RankClockState:
    __slots__ = (
        "clock", "mode", "guided_epoch", "epochs", "epoch_lcs",
        "pcontrol_depth", "open_epochs", "icolls",
    )

    def __init__(self, clock, mode: str, guided_epoch: int):
        self.clock = clock
        self.mode = mode
        self.guided_epoch = guided_epoch
        self.epochs: list[EpochRecord] = []
        #: parallel list of epoch lcs for bisect (late-message suffix scan)
        self.epoch_lcs: list[int] = []
        #: >0 inside an MPI_Pcontrol(1)..MPI_Pcontrol(0) region
        self.pcontrol_depth = 0
        #: wildcard receive uid -> its epoch, posted and not yet completed
        #: (or freed): the §V monitor's open window
        self.open_epochs: dict[int, EpochRecord] = {}
        #: user icollective uid -> the stamp rendezvous it joined at post
        self.icolls: dict[int, CollectiveInstance] = {}


class DampiClockModule(ToolModule):
    """Algorithm 1.  Construct one per run; pair with a PiggybackModule
    placed *below* it on the stack.

    One wrapper per entry point runs, in this order, the §V monitor's
    wildcard window (when ``monitor`` is given), the clock, and the
    separate piggyback mechanism, whose stream transport stays the
    piggyback module's: a separate-mechanism piggyback module below
    wraps nothing.  The inline mechanism stays an interposer of its own.
    """

    name = "dampi"

    def __init__(
        self,
        piggyback: PiggybackModule,
        clock_impl: str = "lamport",
        decisions: Optional[EpochDecisions] = None,
        flag_scalar_risk: bool = False,
        monitor: Optional[OmissionMonitorModule] = None,
    ):
        self.piggyback = piggyback
        self.clock_impl = clock_impl
        self.decisions = decisions or EpochDecisions()
        #: record the epochs a *scalar* stamp comparison excluded a
        #: candidate from (the Fig. 4 approximate judgement) on the run
        #: trace, for adaptive clock escalation.  Off by default: the
        #: flagging scan walks the epoch prefix the bisect prefilter
        #: exists to skip.
        self.flag_scalar_risk = flag_scalar_risk
        self.monitor = monitor
        if monitor is not None:
            monitor.wired = True
        piggyback.register(self._provide_stamp, self._consume_stamp)
        #: the separate mechanism runs inside this module's wrappers: its
        #: send and receive posts are the piggyback module's wrappers
        drive = self._drive = piggyback.driven = piggyback.mechanism == "separate"
        self._send = piggyback.isend if drive else _chain_send
        self._post = piggyback.irecv if drive else _chain_recv
        self._state: list[_RankClockState] = []
        self._matches: list[PotentialMatch] = []
        self._consumed_decisions: set = set()
        self._scalar_risk: set = set()
        self._engine = None
        self._nprocs = 0
        self._tracer = None

    def overrides(self, point: str) -> bool:
        return (
            point in _CLOCK_POINTS
            or (self._drive and point in _PIGGYBACK_POINTS)
            or (self.monitor is not None and point in _MONITOR_POINTS)
        )

    # -- lifecycle ---------------------------------------------------------

    def setup(self, runtime) -> None:
        engine = self._engine = runtime.engine
        self._nprocs = runtime.nprocs
        self._tracer = getattr(runtime, "tracer", None)
        mode = GUIDED_RUN if self.decisions else SELF_RUN
        self._state = [
            _RankClockState(
                make_clock(self.clock_impl, rank, runtime.nprocs),
                mode,
                self.decisions.guided_epoch(rank),
            )
            for rank in range(runtime.nprocs)
        ]
        self._matches = []
        self._consumed_decisions = set()
        self._scalar_risk = set()
        cost = engine.cost
        self._vtimes = engine.clocks.vtimes
        self._wrap_cost = cost.tool_wrap_cost
        self._latency = cost.latency
        self._tool_local = cost.local_op * cost.tool_factor

    # -- piggyback wiring ----------------------------------------------------

    def _provide_stamp(self, proc):
        return self._state[proc.world_rank].clock.snapshot()

    def _consume_stamp(self, proc, req: Request, stamp) -> None:
        """A receive completed carrying ``stamp``: find potential matches
        (against the pre-merge epoch list), then merge."""
        rank = proc.world_rank
        state = self._state[rank]
        if req.envelope is not None:
            if state.epochs:
                self._find_potential_matches(rank, req.envelope, stamp)
            # virtual cost of the late-message classification itself
            self._vtimes[rank] += self._engine.cost.tool_msg_analysis_cost
        state.clock.merge(stamp)

    # -- the §V monitor: a transmission inside an open wildcard window -----------

    def _transmits(self, rank: int, operation: str) -> None:
        open_epochs = self._state[rank].open_epochs
        if open_epochs and self.monitor is not None:
            self.monitor.alert(rank, operation, tuple(sorted(open_epochs)))

    def _find_potential_matches(self, rank: int, env, stamp) -> None:
        state = self._state[rank]
        # Epochs whose stamp is not causally before the message's cannot be
        # the send's cause — the send is a potential alternate match.  For
        # scalar stamps only the suffix with lc >= stamp.time qualifies.
        if isinstance(stamp, LamportStamp):
            start = bisect.bisect_left(state.epoch_lcs, stamp.time)
        else:
            start = 0
        ctx_obj = self._engine.contexts[env.ctx]
        src_local = None
        epochs = state.epochs
        env_ctx, env_tag = env.ctx, env.tag
        if start and self.flag_scalar_risk:
            # every epoch the prefilter skipped was excluded by the scalar
            # order *alone* (post-tick lc <= the send's scalar time) — the
            # approximate Fig. 4 judgement vector clocks might refute.
            # Flag the compatible ones for adaptive escalation.
            for i in range(start):
                e = epochs[i]
                if e.ctx == env_ctx and (e.tag == env_tag or e.tag == ANY_TAG):
                    self._scalar_risk.add(e.key)
        for i in range(start, len(epochs)):
            e = epochs[i]
            if e.ctx != env_ctx or (e.tag != env_tag and e.tag != ANY_TAG):
                continue
            if e.stamp.leq(stamp):
                # the epoch's post-tick clock flowed into the send: the
                # send is (under Lamport: approximately) causally after
                # the epoch and can never have matched it.  A scalar
                # exclusion is only approximate (Fig. 4: the scalar order
                # may be coincidental where vectors stay incomparable) —
                # flag the epoch so adaptive escalation can re-check its
                # alternatives under vector clocks.
                if isinstance(stamp, LamportStamp):
                    self._scalar_risk.add(e.key)
                continue
            if src_local is None:
                src_local = ctx_obj.rank_of(env.src)
            self._matches.append(
                PotentialMatch(
                    epoch=e.key,
                    source=src_local,
                    env_uid=env.uid,
                    seq=env.seq,
                    tag=env.tag,
                    stamp=stamp,
                )
            )

    # -- sends: the piggyback's stamp rides along -------------------------------

    def isend(self, proc, chain, comm, payload, dest, tag, operation="isend"):
        rank = proc.world_rank
        if self._state[rank].open_epochs and self.monitor is not None:
            self._transmits(rank, operation)
        return self._send(proc, chain, comm, payload, dest, tag)

    # synchronous sends carry stamps exactly like eager sends; the stamp
    # itself stays eager (the tool must not add rendezvous blocking the
    # user didn't ask for)
    def issend(self, proc, chain, comm, payload, dest, tag):
        return self.isend(proc, chain, comm, payload, dest, tag, "issend")

    # -- Algorithm 1: MPI_Irecv -------------------------------------------------

    def _guided_source(self, rank: int) -> tuple:
        """A wildcard's epoch ``lc`` and the source ``GetSrcFromEpoch``
        forces for it, or None: the rank drops to SELF_RUN for good once
        its clock passes ``guided_epoch``, and an unforced epoch in
        GUIDED_RUN keeps the user's ``ANY_SOURCE``."""
        state = self._state[rank]
        lc = state.clock.time
        if state.mode == GUIDED_RUN and lc > state.guided_epoch:
            state.mode = SELF_RUN
        if state.mode == GUIDED_RUN:
            return lc, self.decisions.source_for(rank, lc)
        return lc, None

    def irecv(self, proc, chain, comm, source, tag):
        if source != ANY_SOURCE:
            return self._post(proc, chain, comm, source, tag)
        rank = proc.world_rank
        lc, forced = self._guided_source(rank)
        if forced is not None:
            req = self._post(proc, chain, comm, forced, tag)
            req.posted_src = ANY_SOURCE  # preserve the user's selector
            self._consumed_decisions.add((rank, lc))
        else:
            req = self._post(proc, chain, comm, source, tag)
        epoch = self._record_epoch(proc, comm, lc, tag, kind="recv", forced=forced is not None)
        self._state[rank].open_epochs[req.uid] = epoch
        return req

    def _record_epoch(self, proc, comm, lc: int, tag: int, kind: str, forced: bool) -> EpochRecord:
        """``RecordEpochData`` + the epoch's tick (epoch view only: it
        transmits once the wildcard completes, ``_commit_epoch``).

        The stored stamp is the *post-tick* epoch-view snapshot: a send is
        causally after this epoch exactly when the committed tick flowed
        into it (``epoch.stamp.leq(send.stamp)``).  The pre-tick value
        ``lc`` is the epoch's identity."""
        state = self._state[proc.world_rank]
        state.clock.tick_epoch()
        # virtual cost of epoch bookkeeping (incl. the potential-match log)
        self._engine.charge(proc.world_rank, self._engine.cost.tool_epoch_cost)
        epoch = EpochRecord(
            rank=proc.world_rank,
            lc=lc,
            index=len(state.epochs),
            ctx=comm.context.ctx,
            tag=tag,
            kind=kind,
            stamp=state.clock.epoch_snapshot(),
            explore=state.pcontrol_depth == 0,
            forced=forced,
        )
        state.epochs.append(epoch)
        state.epoch_lcs.append(lc)
        tr = self._tracer
        if tr is not None:
            tr.instant(
                "epoch", "dampi", rank=proc.world_rank,
                lc=lc, kind=kind, forced=forced,
            )
        return epoch

    # -- Algorithm 1: MPI_Wait / MPI_Test ------------------------------------------

    def wait(self, proc, chain, req):
        """Once the request completed: the separate mechanism completes
        its stamp send or receives the stamp (merged by
        :meth:`_consume_stamp`), a wildcard commits its epoch and closes
        its window, a non-blocking collective finishes its stamp
        exchange."""
        status = chain(req)
        if self._drive:
            self.piggyback.completed(proc, req, status)
        kind = req.kind
        if kind is _RECV:
            state = self._state[proc.world_rank]
            if state.open_epochs:
                epoch = state.open_epochs.pop(req.uid, None)
                if epoch is not None and status is not None:
                    epoch.matched_source = status.source
                    if req.envelope is not None:
                        epoch.matched_env_uid = req.envelope.uid
                        epoch.matched_seq = req.envelope.seq
                    self._commit_epoch(epoch)
        elif kind is _COLL:
            self._finish_exchange(proc, req)
        return status

    def test(self, proc, chain, req):
        """A successful Test completes the request as :meth:`wait` does."""
        flag, status = chain(req)
        if flag:
            self.wait(proc, lambda _req: status, req)
        return flag, status

    def request_free(self, proc, chain, req):
        if self._drive:
            self.piggyback.request_free(proc, chain, req)
        else:
            chain(req)
        self._state[proc.world_rank].open_epochs.pop(req.uid, None)

    def _commit_epoch(self, epoch: EpochRecord) -> None:
        """§V synchronization point: the epoch's tick becomes
        transmittable only now that its Wait/Test completed."""
        self._state[epoch.rank].clock.commit_epoch(epoch.lc)

    # -- Algorithm 1: probes -------------------------------------------------------

    def probe(self, proc, chain, comm, source, tag):
        if source != ANY_SOURCE:
            return chain(comm, source, tag)
        rank = proc.world_rank
        lc, forced = self._guided_source(rank)
        if forced is not None:
            status = chain(comm, forced, tag)
            self._consumed_decisions.add((rank, lc))
        else:
            status = chain(comm, source, tag)
        epoch = self._record_epoch(proc, comm, lc, tag, kind="probe", forced=forced is not None)
        epoch.matched_source = status.source
        self._commit_epoch(epoch)
        return status

    def iprobe(self, proc, chain, comm, source, tag):
        if source != ANY_SOURCE:
            return chain(comm, source, tag)
        rank = proc.world_rank
        lc, forced = self._guided_source(rank)
        if forced is not None:
            # Enforcing a probe match requires the forced message to be
            # observable: use a blocking probe on the forced source.  (A
            # non-blocking probe of the forced source could legitimately
            # report False and the schedule would silently diverge.)
            status = self.probe_forced(proc, comm, forced, tag)
            self._consumed_decisions.add((rank, lc))
            epoch = self._record_epoch(proc, comm, lc, tag, kind="probe", forced=True)
            epoch.matched_source = status.source
            self._commit_epoch(epoch)
            return True, status
        flag, status = chain(comm, source, tag)
        if flag:
            # paper: record a non-blocking probe only when flag is true
            epoch = self._record_epoch(proc, comm, lc, tag, kind="probe", forced=False)
            epoch.matched_source = status.source
            self._commit_epoch(epoch)
        return flag, status

    @staticmethod
    def probe_forced(proc, comm, source, tag) -> Status:
        return proc.pmpi.probe(comm, source, tag)

    # -- Algorithm 1: collectives -----------------------------------------------------
    #
    # Clock exchange mirrors each collective's data flow (paper §II-E,
    # "MPI Collectives"): all-to-all shapes merge the MAX of every stamp;
    # root-to-all shapes spread the root's stamp; all-to-root shapes bring
    # every stamp to the root; a prefix reduction brings each rank the
    # stamps of the ranks at or below it.  DAMPI runs the exchange as a
    # shadow collective on the communicator's shadow, after the user
    # operation and with its blocking shape, so the tool adds no
    # synchronisation the user collective did not already imply.  Here
    # the shadow collective is a bare engine rendezvous on the shadow
    # context: each member contributes its stamp (the clock cannot move
    # inside the user collective, so it is the entry stamp), the merged
    # stamp is computed once per instance, and the module charges what the
    # shadow collective cost — ``tool_wrap_cost``, then the kind's
    # completion rule over the shadow entry times plus
    # ``collective_cost * tool_factor``.
    # ``tests/reference_collective_stamps.py`` keeps the shadow engine
    # collectives as the differential reference.

    def _join_exchange(
        self, proc, comm, shape: str, root: Optional[int]
    ) -> CollectiveInstance:
        """Charge the tool wrapper and join this rank's next ``shape``
        rendezvous on ``comm``'s shadow, contributing its stamp."""
        rank = proc.world_rank
        self._vtimes[rank] += self._wrap_cost
        shadow = self.piggyback.shadow_context(comm.context.ctx)
        return self._engine.join_tool_collective(
            rank,
            shadow,
            shape,
            self._state[rank].clock.snapshot(),
            None if root is None else shadow.group[root],
        )

    def _exchange(self, proc, comm, shape: str, root: Optional[int] = None) -> None:
        """A blocking collective's stamp exchange, run after the user
        operation returned."""
        rank = proc.world_rank
        inst = self._join_exchange(proc, comm, shape, root)
        engine = self._engine
        engine.await_tool_collective(rank, inst)
        t = inst.completion_vtime(rank, engine.contexts[inst.ctx].coll_cost, self._latency)
        vtimes = self._vtimes
        if t > vtimes[rank]:
            vtimes[rank] = t
        self._merge_exchange(rank, inst)

    def _post_exchange(self, proc, comm, shape: str, root, req: Request) -> None:
        """A non-blocking collective joins its exchange at post time (its
        contribution is the post-time transmit view, so uncommitted ticks
        stay local) and finishes it at the Wait/Test of ``req``."""
        inst = self._join_exchange(proc, comm, shape, root)
        self._state[proc.world_rank].icolls[req.uid] = inst

    def _finish_exchange(self, proc, req: Request) -> None:
        inst = self._state[proc.world_rank].icolls.pop(req.uid, None)
        if inst is None:
            return
        rank = proc.world_rank
        engine = self._engine
        engine.await_tool_collective(rank, inst)
        # what waiting a completed shadow request charged: its completion
        # time, then a tool-context local op
        vtimes = self._vtimes
        t = inst.completion_vtime(rank, engine.contexts[inst.ctx].coll_cost, self._latency)
        if t < vtimes[rank]:
            t = vtimes[rank]
        vtimes[rank] = t + self._tool_local
        self._merge_exchange(rank, inst)

    def _merge_exchange(self, rank: int, inst: CollectiveInstance) -> None:
        """Merge what the exchange's shape brings ``rank``; a merged stamp
        is computed once per instance."""
        shape = inst.kind
        if shape == "bcast":
            stamp = inst.contributions[inst.root]
        elif shape == "scan":
            if inst.merged is None:
                inst.merged = []
            prefix = inst.merged
            me = inst.group.index(rank)
            while len(prefix) <= me:
                s = inst.contributions[inst.group[len(prefix)]]
                prefix.append(_stamp_max(prefix[-1], s) if prefix else s)
            stamp = prefix[me]
        elif shape == "gather" and rank != inst.root:
            return
        else:  # allreduce, and the gather's root
            stamp = inst.merged
            if stamp is None:
                stamp = inst.merged = reduce(
                    _stamp_max, [inst.contributions[w] for w in inst.group]
                )
        self._state[rank].clock.merge(stamp)

    def comm_dup(self, proc, chain, comm):
        new_comm = chain(comm)
        self.piggyback.ensure_shadow(new_comm.context)
        self._exchange(proc, comm, "allreduce")
        return new_comm

    def comm_split(self, proc, chain, comm, color, key):
        new_comm = chain(comm, color, key)
        if new_comm is not None:
            self.piggyback.ensure_shadow(new_comm.context)
        self._exchange(proc, comm, "allreduce")
        return new_comm

    # -- loop iteration abstraction (paper §III-B1) --------------------------------

    def pcontrol(self, proc, chain, level):
        state = self._state[proc.world_rank]
        if level >= 1:
            state.pcontrol_depth += 1
        elif level == 0:
            if state.pcontrol_depth == 0:
                raise ValueError(
                    f"rank {proc.world_rank}: MPI_Pcontrol(0) without a matching "
                    f"MPI_Pcontrol(1)"
                )
            state.pcontrol_depth -= 1
        return chain(level)

    # -- finalize-time drain ---------------------------------------------------------
    #
    # A send can be a potential match for an epoch even if the program
    # never receives it (paper Fig. 3: P2's send to P1 stays unmatched in
    # the self run).  Such messages have "impinged" on the process — their
    # piggybacked clocks are sitting in the unexpected queue — so at
    # MPI_Finalize DAMPI synchronises all ranks (MPI_Finalize is collective
    # in spirit) and drains every leftover message addressed to this rank,
    # feeding each through the same late-message analysis.

    def finalize(self, proc, chain):
        proc.pmpi.barrier(proc.world)  # all sends are issued past this point
        rank = proc.world_rank
        if self._state[rank].epochs:
            for ctx_obj in self._engine.held_contexts(rank):
                self._drain_comm(proc, Communicator(ctx_obj, proc))
        return chain()

    def _drain_comm(self, proc, comm) -> None:
        rank = proc.world_rank
        state = self._state[rank]
        while True:
            flag, status = proc.pmpi.iprobe(comm, ANY_SOURCE, ANY_TAG)
            if not flag:
                return
            req = proc.pmpi.irecv(comm, status.source, status.tag)
            proc.pmpi.wait(req)
            env = req.envelope
            if env is None:
                continue
            stamp = self.piggyback.drain_stamp(proc, req)
            if stamp is None:
                continue
            self._find_potential_matches(rank, env, stamp)
            state.clock.merge(stamp)

    # -- post-mortem queue scan ---------------------------------------------------------
    #
    # The finalize drain only runs in executions that reach MPI_Finalize.
    # A deadlocked (or crashed) run leaves arrived-but-unreceived messages
    # in the unexpected queues — and those are often exactly the alternate
    # matches that would steer the search *around* the deadlock.  Real
    # DAMPI faces the same situation when a self run hangs: the tool owns
    # the interposition state and can examine the queues before the job is
    # torn down.  We do the equivalent here, after the engine stopped:
    # pair each leftover user envelope with its piggyback stamp (the
    # stamp streams hold the unreceived stamps in the same per-stream
    # order) and run the ordinary late-message analysis on it.

    def _post_mortem_scan(self, runtime) -> None:
        engine = runtime.engine
        user: dict[tuple, list] = {}
        for rank, env in engine.unexpected_envelopes():
            if not engine.contexts[env.ctx].tool:
                user.setdefault((rank, env.ctx, env.src, env.tag), []).append(env)
        for key, envs in user.items():
            rank = key[0]
            if not self._state[rank].epochs:
                continue
            envs.sort(key=lambda e: e.seq)
            for env, stamp in self.piggyback.leftover_stamps(rank, envs):
                self._find_potential_matches(rank, env, stamp)

    # -- artifact -----------------------------------------------------------------------

    def finish(self, runtime) -> RunTrace:
        self._post_mortem_scan(runtime)
        unconsumed = sorted(set(self.decisions.forced) - self._consumed_decisions)
        return RunTrace(
            nprocs=self._nprocs,
            epochs={r: st.epochs for r, st in enumerate(self._state)},
            potential_matches=self._matches,
            unconsumed_decisions=unconsumed,
            scalar_risk=sorted(self._scalar_risk),
        )

    def clock_of(self, rank: int):
        """Test hook: the rank's live clock object."""
        return self._state[rank].clock


def _collective(point: str, shape: str):
    """The wrapper of a blocking collective."""
    rooted = shape in ("bcast", "gather")

    def wrapper(self, proc, chain, comm, *args):
        self._transmits(proc.world_rank, point)
        result = chain(comm, *args)
        self._exchange(proc, comm, shape, args[-1] if rooted else None)
        return result

    wrapper.__name__ = wrapper.__qualname__ = point
    return wrapper


def _icollective(point: str, shape: str):
    """The wrapper of a non-blocking collective."""
    rooted = shape in ("bcast", "gather")

    def wrapper(self, proc, chain, comm, *args):
        self._transmits(proc.world_rank, point)
        req = chain(comm, *args)
        self._post_exchange(proc, comm, shape, args[-1] if rooted else None, req)
        return req

    wrapper.__name__ = wrapper.__qualname__ = point
    return wrapper


for _point, _shape in _EXCHANGES.items():
    _make = _icollective if _point in _NONBLOCKING else _collective
    setattr(DampiClockModule, _point, _make(_point, _shape))
