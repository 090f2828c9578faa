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
from typing import Optional

from repro.clocks.base import make_clock
from repro.clocks.lamport import LamportStamp
from repro.clocks.vector import VectorStamp
from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import EpochRecord, PotentialMatch, RunTrace
from repro.dampi.piggyback import PiggybackModule
from repro.mpi.communicator import Communicator
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL, ReduceOp
from repro.mpi.request import Request, RequestKind, Status
from repro.pnmpi.module import ToolModule


def _stamp_max(a, b):
    """Componentwise/scalar max of two stamps (the MPI_MAX of Algorithm 1)."""
    if isinstance(a, LamportStamp):
        return a if a.time >= b.time else b
    if isinstance(a, VectorStamp):
        return VectorStamp(
            tuple(max(x, y) for x, y in zip(a.components, b.components))
        )
    raise TypeError(f"cannot reduce stamps of type {type(a).__name__}")


STAMP_MAX = ReduceOp("STAMP_MAX", _stamp_max)

SELF_RUN = "SELF_RUN"
GUIDED_RUN = "GUIDED_RUN"


class _RankClockState:
    __slots__ = ("clock", "mode", "guided_epoch", "epochs", "epoch_lcs", "pcontrol_depth")

    def __init__(self, clock, mode: str, guided_epoch: int):
        self.clock = clock
        self.mode = mode
        self.guided_epoch = guided_epoch
        self.epochs: list[EpochRecord] = []
        #: parallel list of epoch lcs for bisect (late-message suffix scan)
        self.epoch_lcs: list[int] = []
        #: >0 inside an MPI_Pcontrol(1)..MPI_Pcontrol(0) region
        self.pcontrol_depth = 0


class DampiClockModule(ToolModule):
    """Algorithm 1.  Construct one per run; pair with a PiggybackModule
    placed *below* it on the stack."""

    name = "dampi"

    def __init__(
        self,
        piggyback: PiggybackModule,
        clock_impl: str = "lamport",
        decisions: Optional[EpochDecisions] = None,
        flag_scalar_risk: bool = False,
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
        piggyback.register(self._provide_stamp, self._consume_stamp)
        self._state: list[_RankClockState] = []
        self._epoch_by_req: dict[int, EpochRecord] = {}
        #: user icollective request uid -> shadow icollective request
        self._icoll_pb: dict[int, Request] = {}
        self._matches: list[PotentialMatch] = []
        self._consumed_decisions: set = set()
        self._scalar_risk: set = set()
        self._engine = None
        self._nprocs = 0
        self._tracer = None

    # -- lifecycle ---------------------------------------------------------

    def setup(self, runtime) -> None:
        self._engine = runtime.engine
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
        self._epoch_by_req = {}
        self._icoll_pb = {}
        self._matches = []
        self._consumed_decisions = set()
        self._scalar_risk = set()

    # -- piggyback wiring ----------------------------------------------------

    def _provide_stamp(self, proc):
        return self._state[proc.world_rank].clock.snapshot()

    def _consume_stamp(self, proc, req: Request, stamp) -> None:
        """A receive completed carrying ``stamp``: find potential matches
        (against the pre-merge epoch list), then merge."""
        state = self._state[proc.world_rank]
        env = req.envelope
        if env is not None:
            self._find_potential_matches(proc.world_rank, env, stamp)
            # virtual cost of the late-message classification itself
            self._engine.charge(proc.world_rank, self._engine.cost.tool_msg_analysis_cost)
        state.clock.merge(stamp)

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
            return chain(comm, source, tag)
        rank = proc.world_rank
        lc, forced = self._guided_source(rank)
        if forced is not None:
            req = chain(comm, forced, tag)
            req.posted_src = ANY_SOURCE  # preserve the user's selector
            self._consumed_decisions.add((rank, lc))
        else:
            req = chain(comm, source, tag)
        epoch = self._record_epoch(proc, comm, lc, tag, kind="recv", forced=forced is not None)
        self._epoch_by_req[req.uid] = epoch
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
            ctx=comm.ctx,
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
        status = chain(req)  # piggyback layer merges stamps underneath
        self._post_completion(req, status)
        self._finish_icollective(proc, req)
        return status

    def test(self, proc, chain, req):
        flag, status = chain(req)
        if flag:
            self._post_completion(req, status)
            self._finish_icollective(proc, req)
        return flag, status

    def _finish_icollective(self, proc, req) -> None:
        """Completion of a non-blocking collective: wait the shadow
        exchange issued at post time and merge its stamp result."""
        pb = self._icoll_pb.pop(req.uid, None)
        if pb is None:
            return
        proc.pmpi.wait(pb)
        if pb.data is not None:
            self._state[proc.world_rank].clock.merge(pb.data)

    def _post_completion(self, req: Request, status: Optional[Status]) -> None:
        if req.kind is not RequestKind.RECV:
            return
        epoch = self._epoch_by_req.pop(req.uid, None)
        if epoch is None or status is None:
            return
        epoch.matched_source = status.source
        if req.envelope is not None:
            epoch.matched_env_uid = req.envelope.uid
            epoch.matched_seq = req.envelope.seq
        self._commit_epoch(epoch)

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
    # "MPI Collectives"): all-to-all shapes allreduce a MAX of stamps;
    # root-to-all shapes broadcast the root's stamp; all-to-root shapes
    # gather stamps at the root.  The shadow operation runs *after* the
    # user operation and has the same blocking shape, so the tool adds no
    # synchronisation the user collective did not already imply.

    def _shadow(self, proc, comm):
        self._engine.charge(proc.world_rank, self._engine.cost.tool_wrap_cost)
        return self.piggyback.shadow_comm(proc, comm.ctx)

    def _exchange_allmax(self, proc, comm) -> None:
        state = self._state[proc.world_rank]
        merged = proc.pmpi.allreduce(self._shadow(proc, comm), state.clock.snapshot(), STAMP_MAX)
        state.clock.merge(merged)

    def _exchange_from_root(self, proc, comm, root) -> None:
        state = self._state[proc.world_rank]
        stamp = proc.pmpi.bcast(self._shadow(proc, comm), state.clock.snapshot(), root)
        state.clock.merge(stamp)

    def _exchange_to_root(self, proc, comm, root) -> None:
        state = self._state[proc.world_rank]
        stamps = proc.pmpi.gather(self._shadow(proc, comm), state.clock.snapshot(), root)
        if stamps is not None:
            for s in stamps:
                state.clock.merge(s)

    def barrier(self, proc, chain, comm):
        result = chain(comm)
        self._exchange_allmax(proc, comm)
        return result

    def allreduce(self, proc, chain, comm, payload, op):
        result = chain(comm, payload, op)
        self._exchange_allmax(proc, comm)
        return result

    def allgather(self, proc, chain, comm, payload):
        result = chain(comm, payload)
        self._exchange_allmax(proc, comm)
        return result

    def alltoall(self, proc, chain, comm, payloads):
        result = chain(comm, payloads)
        self._exchange_allmax(proc, comm)
        return result

    def reduce_scatter(self, proc, chain, comm, payloads, op):
        result = chain(comm, payloads, op)
        self._exchange_allmax(proc, comm)
        return result

    def scan(self, proc, chain, comm, payload, op):
        # a prefix reduction flows data only from lower ranks: a shadow
        # STAMP_MAX scan gives each rank exactly the clocks of ranks <= it
        result = chain(comm, payload, op)
        state = self._state[proc.world_rank]
        merged = proc.pmpi.scan(self._shadow(proc, comm), state.clock.snapshot(), STAMP_MAX)
        state.clock.merge(merged)
        return result

    def bcast(self, proc, chain, comm, payload, root):
        result = chain(comm, payload, root)
        self._exchange_from_root(proc, comm, root)
        return result

    def scatter(self, proc, chain, comm, payloads, root):
        result = chain(comm, payloads, root)
        self._exchange_from_root(proc, comm, root)
        return result

    def reduce(self, proc, chain, comm, payload, op, root):
        result = chain(comm, payload, op, root)
        self._exchange_to_root(proc, comm, root)
        return result

    def gather(self, proc, chain, comm, payload, root):
        result = chain(comm, payload, root)
        self._exchange_to_root(proc, comm, root)
        return result

    # Non-blocking collectives: the shadow exchange is issued at post time
    # (its stamp contribution is the post-time transmit view, so
    # uncommitted ticks stay local) and completed at Wait/Test.

    def ibarrier(self, proc, chain, comm):
        req = chain(comm)
        state = self._state[proc.world_rank]
        self._icoll_pb[req.uid] = proc.pmpi.iallreduce(
            self._shadow(proc, comm), state.clock.snapshot(), STAMP_MAX
        )
        return req

    def iallreduce(self, proc, chain, comm, payload, op):
        req = chain(comm, payload, op)
        state = self._state[proc.world_rank]
        self._icoll_pb[req.uid] = proc.pmpi.iallreduce(
            self._shadow(proc, comm), state.clock.snapshot(), STAMP_MAX
        )
        return req

    def ibcast(self, proc, chain, comm, payload, root):
        req = chain(comm, payload, root)
        state = self._state[proc.world_rank]
        self._icoll_pb[req.uid] = proc.pmpi.ibcast(
            self._shadow(proc, comm), state.clock.snapshot(), root
        )
        return req

    def comm_dup(self, proc, chain, comm):
        new_comm = chain(comm)
        self.piggyback.ensure_shadow(new_comm.context)
        self._exchange_allmax(proc, comm)
        return new_comm

    def comm_split(self, proc, chain, comm, color, key):
        new_comm = chain(comm, color, key)
        if new_comm is not None:
            self.piggyback.ensure_shadow(new_comm.context)
        self._exchange_allmax(proc, comm)
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
