"""Engine checkpoint/restore: the mechanics behind prefix-sharing replay.

A *checkpoint* is a structured clone of everything one deterministic run
has built up to a decision point: mailboxes, matching queues, requests,
collective instances, contexts, virtual clocks, scheduling state, match
policy, tool-module state, and a per-rank log of every MPI call each rank
has completed so far.  Restoring a checkpoint rebuilds a fresh
:class:`~repro.mpi.engine.MessageEngine` around the clone; rank threads
then *fast-forward* through their logs — returning recorded results
without touching the engine — until each reaches the exact operation it
was captured inside, at which point it re-enters the engine's wait state
(see ``MessageEngine._reenter_block`` / ``reenter_gate``) and execution
continues live from the decision point.

Why replay the program at all instead of freezing threads?  Rank mains are
ordinary Python frames on OS threads; their stacks cannot be cloned.  What
*can* be cloned is every side effect the engine has seen, and rank code is
deterministic given its MPI results — so re-running each rank's code with
recorded results reproduces the exact frame state at a fraction of the
cost (no engine traffic, no token switches, no matching work).

Captures are only taken at *eligible* states: deterministic run_to_block
scheduling, no fatal error, and every non-finished started rank parked in
a plain ``wait``/``waitany`` with no tool hook blocked around it (the
``blocks_this_call`` counter proves that).  Anything else — ranks inside
collectives, probes, finalize drains, piggyback waits — is skipped, never
guessed at.
"""

from __future__ import annotations

import hashlib
import io
import pickle
import sys
import time
from typing import Any, Callable, Optional

from repro.clocks.lamport import LamportStamp
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.engine import MessageEngine, RankRunState, WORLD_CTX
from repro.mpi.message import envelope_ids_mark, set_envelope_ids
from repro.mpi.request import RequestState, request_ids_mark, set_request_ids


class CheckpointError(RuntimeError):
    """Base class for checkpoint capture/restore failures."""


class CheckpointIneligible(CheckpointError):
    """The engine state at the decision point is not capturable (a rank is
    blocked somewhere re-entry cannot resume).  A skip, not a failure."""


class CheckpointUnsupported(CheckpointError):
    """The job uses resources the structured clone cannot capture (a tool
    module without snapshot support, an uncopyable payload, ...).  The
    session demotes to full replay when it sees this."""


class CheckpointRestoreError(CheckpointError):
    """A restore produced state that does not match the capture fingerprint."""


class CheckpointDivergence(CheckpointError):
    """A fast-forwarding rank issued a different MPI call than the one its
    replay log recorded — the restored run is not actually a sibling of the
    recorded one.  The session falls back to a full replay."""


# RecordingProc modes
_PASSTHROUGH = 0
_RECORD = 1
_REPLAY = 2


class RecordingProc:
    """Per-rank facade over a :class:`~repro.mpi.process.Proc`.

    Three modes:

    passthrough
        Delegate every call unchanged (the steady state outside
        checkpointed runs — one extra frame, no behavioural change).
    record
        Delegate, then append ``(op, raised, result)`` to the rank's log.
        Blocking composites (recv, waitall, ...) are decomposed into the
        same primitive sequence the PMPI bottoms use, so the log holds
        exactly the unit of work each engine interaction produced.
    replay
        Return logged results *without* delegating, until the log is
        exhausted — then re-enter the engine (``reenter_gate``) and go
        passthrough.  Branch-relevant observations (request-state checks
        in waitsome/testall) are logged values too, never recomputed:
        request states mutate after capture, but the recorded run's
        control flow must be reproduced bit-for-bit.

    The facade is installed as the program's process handle *and* as the
    ``proc`` behind requests/communicators (``Proc.install_view``), so
    ``req.wait()`` and ``comm.recv(...)`` re-enter it.  Tool modules keep
    the raw ``Proc`` — tool traffic is never recorded; its effects live in
    the cloned module/engine state instead.
    """

    __slots__ = ("_proc", "_mode", "_entries", "_pos", "_trigger", "_record_after")

    def __init__(self, proc):
        self._proc = proc
        self._mode = _PASSTHROUGH
        self._entries: list = []
        self._pos = 0
        #: armed by the session on recording runs: called with this view
        #: before any wildcard receive/probe is delegated (cut detection)
        self._trigger: Optional[Callable] = None
        #: replay mode only: on log exhaustion, switch to record (keeping
        #: the fast-forwarded prefix as the log head) instead of passthrough
        self._record_after = False

    # -- mode control (session/restore side) ------------------------------

    def set_passthrough(self) -> None:
        self._mode = _PASSTHROUGH
        self._entries = []
        self._pos = 0
        self._trigger = None
        self._record_after = False

    def start_record(self) -> None:
        self._mode = _RECORD
        self._entries = []
        self._pos = 0
        self._record_after = False

    def start_replay(self, entries: list, record_after: bool = False) -> None:
        self._mode = _REPLAY
        self._entries = entries
        self._pos = 0
        self._trigger = None
        self._record_after = record_after

    @property
    def recording(self) -> bool:
        return self._mode == _RECORD

    # -- the mode dispatcher ----------------------------------------------

    def _sub(self, tag: str, thunk):
        mode = self._mode
        if mode == _PASSTHROUGH:
            return thunk()
        if mode == _RECORD:
            proc = self._proc
            proc.engine.begin_call(proc.world_rank)
            try:
                value = thunk()
            except BaseException as e:  # noqa: BLE001 - log and re-raise
                self._entries.append((tag, True, e))
                raise
            self._entries.append((tag, False, value))
            return value
        # replay
        entries = self._entries
        pos = self._pos
        if pos >= len(entries):
            # log exhausted: re-enter the engine and run live from here on
            proc = self._proc
            if self._record_after:
                # keep the fast-forwarded prefix as the log head and
                # extend it live, so a later in-suffix capture snapshots
                # a complete log for this rank
                self._mode = _RECORD
                proc.engine.reenter_gate(proc.world_rank)
                proc.engine.begin_call(proc.world_rank)
                try:
                    value = thunk()
                except BaseException as e:  # noqa: BLE001 - log and re-raise
                    self._entries.append((tag, True, e))
                    raise
                self._entries.append((tag, False, value))
                return value
            self._mode = _PASSTHROUGH
            proc.engine.reenter_gate(proc.world_rank)
            return thunk()
        logged_tag, raised, value = entries[pos]
        if logged_tag != tag:
            raise CheckpointDivergence(
                f"rank {self._proc.world_rank}: replay issued {tag!r} where "
                f"the recording logged {logged_tag!r} (entry {pos})"
            )
        self._pos = pos + 1
        if raised:
            raise value
        return value

    def _replay_next(self, tag: str):
        """Replay fast path: the callers' mode checks guarantee the log is
        not exhausted, so no thunk needs building."""
        logged_tag, raised, value = self._entries[self._pos]
        if logged_tag != tag:
            raise CheckpointDivergence(
                f"rank {self._proc.world_rank}: replay issued {tag!r} where "
                f"the recording logged {logged_tag!r} (entry {self._pos})"
            )
        self._pos += 1
        if raised:
            raise value
        return value

    def _maybe_capture(self, source: int) -> None:
        # Fire only while *live recording*: during replay fast-forward the
        # other ranks' clocks are frozen mid-prefix and the engine token is
        # not held, so a capture attempt would wrongly memoize the key as
        # ineligible.
        trigger = self._trigger
        if trigger is not None and self._mode == _RECORD and source == ANY_SOURCE:
            trigger(self)

    # -- primitives (one engine interaction each) -------------------------
    #
    # Each primitive short-circuits the two hot modes before building the
    # `_sub` thunk: passthrough delegates directly (the steady state — the
    # facade tax must stay near zero for non-checkpointed runs), and
    # replay-with-log-remaining returns the logged value without a lambda
    # allocation.  Only record mode and replay exhaustion take `_sub`.

    def isend(self, comm, payload, dest, tag=0):
        if self._mode == _PASSTHROUGH:
            return self._proc.isend(comm, payload, dest, tag)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("isend")
        return self._sub("isend", lambda: self._proc.isend(comm, payload, dest, tag))

    def issend(self, comm, payload, dest, tag=0):
        if self._mode == _PASSTHROUGH:
            return self._proc.issend(comm, payload, dest, tag)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("issend")
        return self._sub("issend", lambda: self._proc.issend(comm, payload, dest, tag))

    def irecv(self, comm, source=ANY_SOURCE, tag=ANY_TAG, max_count=None):
        if self._mode == _PASSTHROUGH:
            return self._proc.irecv(comm, source, tag, max_count)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("irecv")
        self._maybe_capture(source)
        return self._sub(
            "irecv", lambda: self._proc.irecv(comm, source, tag, max_count)
        )

    def wait(self, req):
        if self._mode == _PASSTHROUGH:
            return self._proc.wait(req)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("wait")
        return self._sub("wait", lambda: self._proc.wait(req))

    def test(self, req):
        if self._mode == _PASSTHROUGH:
            return self._proc.test(req)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("test")
        return self._sub("test", lambda: self._proc.test(req))

    def probe(self, comm, source=ANY_SOURCE, tag=ANY_TAG):
        if self._mode == _PASSTHROUGH:
            return self._proc.probe(comm, source, tag)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("probe")
        self._maybe_capture(source)
        return self._sub("probe", lambda: self._proc.probe(comm, source, tag))

    def iprobe(self, comm, source=ANY_SOURCE, tag=ANY_TAG):
        if self._mode == _PASSTHROUGH:
            return self._proc.iprobe(comm, source, tag)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("iprobe")
        self._maybe_capture(source)
        return self._sub("iprobe", lambda: self._proc.iprobe(comm, source, tag))

    def barrier(self, comm):
        if self._mode == _PASSTHROUGH:
            return self._proc.barrier(comm)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("barrier")
        return self._sub("barrier", lambda: self._proc.barrier(comm))

    def ibarrier(self, comm):
        if self._mode == _PASSTHROUGH:
            return self._proc.ibarrier(comm)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("ibarrier")
        return self._sub("ibarrier", lambda: self._proc.ibarrier(comm))

    def ibcast(self, comm, payload=None, root=0):
        if self._mode == _PASSTHROUGH:
            return self._proc.ibcast(comm, payload, root)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("ibcast")
        return self._sub("ibcast", lambda: self._proc.ibcast(comm, payload, root))

    def iallreduce(self, comm, payload, op=None):
        if self._mode == _PASSTHROUGH:
            return self._proc.iallreduce(comm, payload, op)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("iallreduce")
        return self._sub("iallreduce", lambda: self._proc.iallreduce(comm, payload, op))

    def bcast(self, comm, payload=None, root=0):
        if self._mode == _PASSTHROUGH:
            return self._proc.bcast(comm, payload, root)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("bcast")
        return self._sub("bcast", lambda: self._proc.bcast(comm, payload, root))

    def reduce(self, comm, payload, op=None, root=0):
        if self._mode == _PASSTHROUGH:
            return self._proc.reduce(comm, payload, op, root)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("reduce")
        return self._sub("reduce", lambda: self._proc.reduce(comm, payload, op, root))

    def allreduce(self, comm, payload, op=None):
        if self._mode == _PASSTHROUGH:
            return self._proc.allreduce(comm, payload, op)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("allreduce")
        return self._sub("allreduce", lambda: self._proc.allreduce(comm, payload, op))

    def gather(self, comm, payload, root=0):
        if self._mode == _PASSTHROUGH:
            return self._proc.gather(comm, payload, root)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("gather")
        return self._sub("gather", lambda: self._proc.gather(comm, payload, root))

    def scatter(self, comm, payloads=None, root=0):
        if self._mode == _PASSTHROUGH:
            return self._proc.scatter(comm, payloads, root)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("scatter")
        return self._sub("scatter", lambda: self._proc.scatter(comm, payloads, root))

    def allgather(self, comm, payload):
        if self._mode == _PASSTHROUGH:
            return self._proc.allgather(comm, payload)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("allgather")
        return self._sub("allgather", lambda: self._proc.allgather(comm, payload))

    def alltoall(self, comm, payloads):
        if self._mode == _PASSTHROUGH:
            return self._proc.alltoall(comm, payloads)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("alltoall")
        return self._sub("alltoall", lambda: self._proc.alltoall(comm, payloads))

    def reduce_scatter(self, comm, payloads, op=None):
        if self._mode == _PASSTHROUGH:
            return self._proc.reduce_scatter(comm, payloads, op)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("reduce_scatter")
        return self._sub(
            "reduce_scatter", lambda: self._proc.reduce_scatter(comm, payloads, op)
        )

    def scan(self, comm, payload, op=None):
        if self._mode == _PASSTHROUGH:
            return self._proc.scan(comm, payload, op)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("scan")
        return self._sub("scan", lambda: self._proc.scan(comm, payload, op))

    def comm_dup(self, comm):
        if self._mode == _PASSTHROUGH:
            return self._proc.comm_dup(comm)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("comm_dup")
        return self._sub("comm_dup", lambda: self._proc.comm_dup(comm))

    def comm_split(self, comm, color, key=0):
        if self._mode == _PASSTHROUGH:
            return self._proc.comm_split(comm, color, key)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("comm_split")
        return self._sub("comm_split", lambda: self._proc.comm_split(comm, color, key))

    def comm_free(self, comm):
        if self._mode == _PASSTHROUGH:
            return self._proc.comm_free(comm)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("comm_free")
        return self._sub("comm_free", lambda: self._proc.comm_free(comm))

    def request_free(self, req):
        if self._mode == _PASSTHROUGH:
            return self._proc.request_free(req)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("request_free")
        return self._sub("request_free", lambda: self._proc.request_free(req))

    def pcontrol(self, level):
        if self._mode == _PASSTHROUGH:
            return self._proc.pcontrol(level)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("pcontrol")
        return self._sub("pcontrol", lambda: self._proc.pcontrol(level))

    def compute(self, seconds):
        if self._mode == _PASSTHROUGH:
            return self._proc.compute(seconds)
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("compute")
        return self._sub("compute", lambda: self._proc.compute(seconds))

    def finalize(self):
        if self._mode == _PASSTHROUGH:
            return self._proc.finalize()
        if self._mode == _REPLAY and self._pos < len(self._entries):
            return self._replay_next("finalize")
        return self._sub("finalize", lambda: self._proc.finalize())

    # -- composites, decomposed exactly like the PMPI bottoms -------------
    # (valid because checkpoint eligibility requires that no tool module
    # overrides a composite entry point — see session gating)

    def send(self, comm, payload, dest, tag=0):
        req = self.isend(comm, payload, dest, tag)
        self.wait(req)

    def ssend(self, comm, payload, dest, tag=0):
        req = self.issend(comm, payload, dest, tag)
        self.wait(req)

    def recv(self, comm, source=ANY_SOURCE, tag=ANY_TAG, status=None, max_count=None):
        req = self.irecv(comm, source, tag, max_count)
        st = self.wait(req)
        if status is not None:
            status.source = st.source
            status.tag = st.tag
            status._payload = st._payload
        return req.data

    def sendrecv(self, comm, payload, dest, source=ANY_SOURCE, sendtag=0,
                 recvtag=ANY_TAG, status=None):
        rreq = self.irecv(comm, source, recvtag)
        sreq = self.isend(comm, payload, dest, sendtag)
        self.wait(sreq)
        st = self.wait(rreq)
        if status is not None:
            status.source = st.source
            status.tag = st.tag
            status._payload = st._payload
        return rreq.data

    def waitall(self, reqs):
        return [self.wait(r) for r in list(reqs)]

    def waitany(self, reqs):
        reqs = list(reqs)
        proc = self._proc
        idx = self._sub(
            "waitany_block",
            lambda: proc.engine.pmpi_waitany_block(proc.world_rank, list(reqs)),
        )
        return idx, self.wait(reqs[idx])

    def waitsome(self, reqs):
        reqs = list(reqs)
        proc = self._proc
        self._sub(
            "waitany_block",
            lambda: proc.engine.pmpi_waitany_block(proc.world_rank, reqs),
        )
        indices, statuses = [], []
        for i, r in enumerate(reqs):
            if self._sub("chk", lambda r=r: r.state is RequestState.COMPLETE):
                indices.append(i)
                statuses.append(self.wait(r))
        return indices, statuses

    def testall(self, reqs):
        reqs = list(reqs)
        if self._sub("chk", lambda: all(r.is_complete for r in reqs)):
            return True, [self.wait(r) for r in reqs]
        proc = self._proc
        self._sub("yield", lambda: proc.engine.pmpi_yield(proc.world_rank))
        return False, None

    def testsome(self, reqs):
        reqs = list(reqs)
        indices, statuses = [], []
        for i, r in enumerate(reqs):
            if self._sub("chk", lambda r=r: r.state is RequestState.COMPLETE):
                indices.append(i)
                statuses.append(self.wait(r))
        if not indices:
            proc = self._proc
            self._sub("yield", lambda: proc.engine.pmpi_yield(proc.world_rank))
        return indices, statuses

    # -- everything else (identity, pmpi, wtime, abort, world, flags) -----

    def __getattr__(self, name):
        return getattr(self._proc, name)

    def __repr__(self) -> str:
        mode = ("passthrough", "record", "replay")[self._mode]
        return f"RecordingProc(rank={self._proc.world_rank}, {mode})"


# --------------------------------------------------------------------- #
# snapshot capture                                                       #
# --------------------------------------------------------------------- #

#: sites a blocked/woken rank can be resumed from (plain completion waits;
#: re-executing them live repeats no engine side effect)
_RESUMABLE_SITES = ("wait", "waitany")


class Snapshot:
    """One captured engine state, frozen as pinned-pickle bytes; immutable
    once built (each restore deserializes a fresh clone out of it)."""

    __slots__ = (
        "payload", "fingerprint", "nbytes", "capture_seconds", "key", "depth",
        "pins_extra", "meta", "validated",
    )

    def __init__(self, payload: bytes, fingerprint: str, nbytes: int,
                 capture_seconds: float, pins_extra: tuple = ()):
        self.payload = payload
        self.fingerprint = fingerprint
        self.nbytes = nbytes
        self.capture_seconds = capture_seconds
        #: bulk payload values (numpy arrays, large bytes) shared by
        #: reference instead of re-serialized per capture/restore —
        #: kept alive here, resolved positionally after the static pins
        self.pins_extra = pins_extra
        #: cache key / depth / decision metadata, attached by the replay
        #: session when the snapshot enters the PrefixCheckpointCache
        self.key = None
        self.depth = 0
        self.meta: Optional[dict] = None
        #: a restore reproduced the captured fingerprint once; the payload
        #: is immutable and thaw is deterministic, so later restores of the
        #: same snapshot skip re-validation
        self.validated = False


def _pin_list(runtime, views) -> list:
    """Session-lifetime handles shared by *identity* across the clone
    boundary: facades, raw Procs, the runtime, tool modules, and the
    tracer are *referenced* by captured state (``req.proc``, shadow
    communicators) but are not per-run state.  The list is rebuilt the
    same way on capture and restore, so a pin's position is its stable
    persistent id."""
    pins: list = list(views)
    for proc in runtime.procs:
        pins.append(proc)
        pins.append(proc.pmpi)
    pins.append(runtime)
    pins.extend(runtime.stack)
    if runtime.tracer is not None:
        pins.append(runtime.tracer)
    return pins


def _bulk_pin(obj) -> bool:
    """Leaf values worth sharing by reference across the clone boundary
    instead of re-serializing per capture and per restore: message
    payload arrays, large byte blobs, and Lamport stamps.  Safe because
    the engine already aliases payloads across ranks
    (``req.data = env.payload``) — in-place mutation of a received
    buffer was never supported — and because the snapshot keeps the
    pinned objects alive for its own lifetime.  ``bytes`` and
    ``LamportStamp`` are immutable outright (stamps are the most
    numerous leaves in a payload: every epoch record and potential match
    carries one); numpy is looked up in ``sys.modules`` so the check
    costs nothing when the program never imported it."""
    t = type(obj)
    if t is LamportStamp:
        return True
    if t is bytes:
        return len(obj) >= 256
    np = sys.modules.get("numpy")
    return np is not None and t is np.ndarray


class _PinPickler(pickle.Pickler):
    """Pickler that swaps pinned live handles for positional ids.

    Pickle is the structured clone here (one ``dumps`` per capture, one
    ``loads`` per restore) because it is several times faster than
    ``copy.deepcopy`` on the engine's many-small-objects graph while
    preserving the same joint-copy identity guarantees via its memo.
    Beyond the static session-lifetime pins, bulk payload values
    (:func:`_bulk_pin`) are pinned *dynamically*: the first encounter
    assigns the next positional id and appends the object to the shared
    pin list, so identity (payload aliasing between a logged request and
    the mailbox copy) is preserved without serializing the bytes at all.
    Anything unpicklable (notably a stray reference to the engine itself,
    whose locks refuse to serialize) fails loudly — the capture wraps
    that into :class:`CheckpointUnsupported`."""

    def __init__(self, file, pins: list):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._pins = pins  # mutated: dynamically pinned bulk values append
        self._pin_ids = {id(obj): i for i, obj in enumerate(pins)}

    def persistent_id(self, obj):
        pid = self._pin_ids.get(id(obj))
        if pid is None and _bulk_pin(obj):
            pid = len(self._pins)
            self._pin_ids[id(obj)] = pid
            self._pins.append(obj)
        return pid


class _PinUnpickler(pickle.Unpickler):
    def __init__(self, file, pins: list):
        super().__init__(file)
        self._pins = pins

    def persistent_load(self, pid):
        return self._pins[pid]


def _freeze(payload, runtime, views) -> tuple[bytes, tuple]:
    """Serialize ``payload``; returns the frozen bytes plus the bulk
    values that were dynamically pinned out of it (the snapshot must keep
    those alive and hand them back to :func:`_thaw`)."""
    pins = _pin_list(runtime, views)
    n_static = len(pins)
    buf = io.BytesIO()
    _PinPickler(buf, pins).dump(payload)
    return buf.getvalue(), tuple(pins[n_static:])


def _thaw(data: bytes, runtime, views, pins_extra: tuple = ()):
    pins = _pin_list(runtime, views)
    pins.extend(pins_extra)
    return _PinUnpickler(io.BytesIO(data), pins).load()


def ineligible_reason(engine, cut_rank: int) -> Optional[str]:
    """Why the current engine state cannot be captured (None = eligible).

    Caller must hold ``engine._lock``."""
    if engine._fatal is not None:
        return "job already failing"
    if engine._current != cut_rank:
        return f"rank {cut_rank} does not hold the token"
    for st in engine._ranks:
        if st.rank == cut_rank:
            continue
        if st.state is RankRunState.DONE:
            continue
        if st.rank not in engine._started:
            continue  # prestart: restores re-run its full lifecycle
        if st.state not in (RankRunState.BLOCKED, RankRunState.RUNNABLE):
            return f"rank {st.rank} unexpectedly {st.state.value}"
        if st.site not in _RESUMABLE_SITES or st.blocks_this_call != 1:
            return (
                f"rank {st.rank} parked in non-resumable site "
                f"{st.site or 'unknown'!r} (blocks={st.blocks_this_call})"
            )
    return None


def capture_snapshot(runtime, views) -> Snapshot:
    """Clone the full engine state at the current decision point.

    Called from the token-holding rank's thread, just before it delegates
    the decision (flip) operation.  Raises :class:`CheckpointIneligible`
    when the state is not capturable, :class:`CheckpointUnsupported` when
    cloning fails.
    """
    engine = runtime.engine
    cut_rank = engine._current
    t0 = time.perf_counter()
    with engine._lock:
        reason = ineligible_reason(engine, cut_rank)
        if reason is not None:
            raise CheckpointIneligible(reason)
        module_state = {}
        for module in runtime.stack:
            state = module.snapshot_state()
            if state is NotImplemented:
                raise CheckpointUnsupported(
                    f"tool module {module.name!r} has no snapshot support"
                )
            module_state[module.name] = state
        fingerprint = state_fingerprint(engine, runtime._returns)
        payload = {
            "mail": engine._mail,
            "collectives": engine._collectives,
            "coll_done": engine._coll_done,
            "contexts": engine.contexts,
            "next_ctx": engine._next_ctx,
            "current": engine._current,
            "stats": engine.stats,
            "clocks": engine.clocks,
            "central": engine.central,
            "policy": engine.policy,
            "started": set(engine._started),
            "rank_states": [
                (st.state, st.describe, st.site) for st in engine._ranks
            ],
            "modules": module_state,
            # a DONE rank's log is never replayed (restores send it
            # straight to passthrough), so don't serialize it: at deep
            # cuts the finished ranks' logs are most of the payload
            "logs": [
                []
                if engine._ranks[rank].state is RankRunState.DONE
                else list(v._entries)
                for rank, v in enumerate(views)
            ],
            "returns": dict(runtime._returns),
            "proc_flags": [(p.initialized, p.finalized) for p in runtime.procs],
            "env_uid": envelope_ids_mark(),
            "req_uid": request_ids_mark(),
            # the tracer's prefix stream (ring records + exact emit
            # counters): restores reinstate it so a resumed run's event
            # stream and telemetry totals match a full re-execution
            "obs": (
                runtime.tracer.snapshot_state()
                if runtime.tracer is not None
                else None
            ),
        }
        # One joint serialization: identity linkage between logged requests
        # and the requests inside mailboxes/collectives/module state must
        # survive into the clone (two separate copies would split them).
        try:
            frozen, pins_extra = _freeze(payload, runtime, views)
        except CheckpointError:
            raise
        except Exception as e:  # noqa: BLE001 - any clone failure => demote
            raise CheckpointUnsupported(
                f"engine state is not cloneable: {type(e).__name__}: {e}"
            ) from e
    # nbytes counts the serialized clone only: dynamically pinned bulk
    # payloads are *shared* with the live runtime (and with every other
    # snapshot along the same prefix), not owned per-snapshot.
    snap = Snapshot(
        payload=frozen,
        fingerprint=fingerprint,
        nbytes=len(frozen),
        capture_seconds=time.perf_counter() - t0,
        pins_extra=pins_extra,
    )
    return snap


def install_snapshot(runtime, snap: Snapshot, record_after: bool = False) -> dict[int, str]:
    """Rebuild the runtime's engine from ``snap`` (restore side).

    Returns the per-rank resume kinds (``done`` / ``mid`` / ``prestart``)
    and leaves the runtime primed for :meth:`Runtime.run`.  The snapshot
    itself stays pristine — deserializing thaws a fresh clone, so one
    cached snapshot serves any number of restores.

    With ``record_after`` the restored run keeps recording: mid ranks
    extend their fast-forwarded logs live once exhausted, prestart ranks
    record from their first call — so the session can capture further
    snapshots inside the suffix of a run that itself started from one.
    """
    t0 = time.perf_counter()
    views = runtime.views
    if views is None:
        raise CheckpointRestoreError("runtime has no recording views installed")
    thawed = _thaw(snap.payload, runtime, views, snap.pins_extra)

    # Reuse one engine shell across restores: every field that carries
    # run state is overwritten from the thawed payload (or reset) below,
    # and the constructor's work — rank states, mailboxes, the world
    # context — is all discarded, so rebuilding it per restore is pure
    # overhead on the hot path.
    engine = getattr(runtime, "_restore_engine", None)
    if engine is None:
        engine = MessageEngine(
            runtime.nprocs,
            cost_model=runtime._cost_model,
            policy=runtime._policy_spec,
            tracer=runtime.tracer,
        )
        runtime._restore_engine = engine
    engine._fatal = None
    engine._mail = thawed["mail"]
    engine._collectives = thawed["collectives"]
    engine._coll_done = thawed["coll_done"]
    engine.contexts = thawed["contexts"]
    engine._next_ctx = thawed["next_ctx"]
    engine._current = thawed["current"]
    engine.stats = thawed["stats"]
    engine.clocks = thawed["clocks"]
    engine.central = thawed["central"]
    engine.policy = thawed["policy"]
    engine._started = set(thawed["started"])
    engine.world = engine.contexts[WORLD_CTX]

    kinds: dict[int, str] = {}
    reentering: set[int] = set()
    for rank, (state, describe, site) in enumerate(thawed["rank_states"]):
        st = engine._ranks[rank]
        st.state = state
        st.describe = describe
        st.site = site
        st.ready_fn = None
        st.blocks_this_call = 0
        if state is RankRunState.DONE:
            kinds[rank] = "done"
        elif rank not in engine._started:
            kinds[rank] = "prestart"
        else:
            kinds[rank] = "mid"
            if state in (RankRunState.BLOCKED, RankRunState.RUNNABLE):
                reentering.add(rank)
    engine._reentering = reentering

    runtime.engine = engine
    for proc, (initialized, finalized) in zip(runtime.procs, thawed["proc_flags"]):
        proc.rebind(engine)  # resets flags; reinstate the captured ones
        proc.initialized = initialized
        proc.finalized = finalized
    for module in runtime.stack:
        module.restore_state(thawed["modules"][module.name], runtime)
    set_envelope_ids(thawed["env_uid"])
    set_request_ids(thawed["req_uid"])
    if runtime.tracer is not None:
        runtime.tracer.restore_state(thawed.get("obs"))

    logs = thawed["logs"]
    for rank, view in enumerate(views):
        if kinds[rank] == "mid":
            view.start_replay(logs[rank], record_after=record_after)
        elif kinds[rank] == "prestart" and record_after:
            view.start_record()
        else:
            view.set_passthrough()

    runtime._returns = dict(thawed["returns"])
    runtime._errors = {}
    runtime._restored = kinds
    runtime._ran = False

    if not getattr(snap, "validated", False):
        fp = state_fingerprint(engine, runtime._returns)
        if fp != snap.fingerprint:
            raise CheckpointRestoreError(
                f"restored state fingerprint {fp} != captured {snap.fingerprint}"
            )
        snap.validated = True
    runtime._restore_seconds = time.perf_counter() - t0
    return kinds


def state_fingerprint(engine, returns) -> str:
    """Cheap digest of the deterministic engine state, used to validate
    that a restore reproduced the capture exactly.  Covers scheduling,
    clocks, counters, and queue shapes — not payload bytes (payloads are
    cloned by the same machinery that cloned everything hashed here)."""
    h = hashlib.blake2b(digest_size=16)

    def put(*parts) -> None:
        for p in parts:
            h.update(repr(p).encode())
            h.update(b"\x1f")

    put(engine._current, engine._next_ctx, sorted(engine._started))
    put(tuple(engine.clocks.vtimes))
    s = engine.stats
    put(s.envelopes, s.bytes, s.collectives, s.matches, s.wildcard_matches)
    for st in engine._ranks:
        put(st.state.name, st.describe, st.site)
    for mb in engine._mail:
        put(mb.pending_counts())
        put(tuple(env.uid for env in mb.unexpected))
    put(sorted(engine._collectives.keys()), sorted(engine._coll_done.items()))
    put(sorted(engine.contexts.keys()))
    put(sorted(returns.keys()))
    return h.hexdigest()


def estimate_bytes(obj) -> int:
    """Approximate deep size of a snapshot payload (cache budgeting).

    Iterative traversal with cycle protection; numpy arrays report their
    buffer size, everything else ``sys.getsizeof``."""
    seen: set[int] = set()
    stack = [obj]
    total = 0
    while stack:
        o = stack.pop()
        oid = id(o)
        if oid in seen:
            continue
        seen.add(oid)
        nbytes = getattr(o, "nbytes", None)
        if isinstance(nbytes, int) and type(o).__module__.startswith("numpy"):
            total += nbytes + 128  # array header estimate
            continue
        try:
            total += sys.getsizeof(o)
        except TypeError:  # pragma: no cover - exotic objects
            total += 64
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        else:
            d = getattr(o, "__dict__", None)
            if d is not None:
                stack.append(d)
            slots = getattr(type(o), "__slots__", None)
            if slots:
                for name in slots:
                    v = getattr(o, name, None)
                    if v is not None:
                        stack.append(v)
    return total


__all__ = [
    "CheckpointError",
    "CheckpointIneligible",
    "CheckpointUnsupported",
    "CheckpointRestoreError",
    "CheckpointDivergence",
    "RecordingProc",
    "Snapshot",
    "capture_snapshot",
    "install_snapshot",
    "ineligible_reason",
    "state_fingerprint",
    "estimate_bytes",
]
