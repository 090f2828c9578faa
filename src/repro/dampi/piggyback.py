"""Piggyback transport for clock stamps (paper §II-D).

DAMPI must attach the sender's Lamport clock to every message.  The paper
chooses the *separate message* mechanism: for every user message ``m`` on
communicator ``c`` a stamp message ``mp`` travels on a *shadow
communicator* of ``c``; the receiver pairs ``m`` with ``mp``.

Pairing correctness hinges on MPI's non-overtaking rule per ``(source,
dest, communicator, tag)`` stream: we therefore send ``mp`` with the
**same tag** as ``m``, so even when the receiver drains tags out of order
the k-th same-tag receive on the shadow pairs with the k-th same-tag
message, exactly like the payload stream.

The wildcard subtlety (paper §II-D, "Receiving Wildcard Piggybacks"): for
a receive posted with ``ANY_SOURCE`` (or ``ANY_TAG``) we cannot post the
shadow receive up front — posting it wildcard would race other senders'
stamps and deadlock the tool.  We post it only once the user receive
*completes* and its actual source/tag are known.

Transport.  Every shadow receive is therefore fully specified, and a
sender deposits its stamp in the same token-holding step as its payload,
so MPI matching on a shadow context reduces to FIFO order per stream.
The module runs each ``(source, dest, user context, tag)`` stream as a
pair of queues — stamps that arrived before their receive, shadow
receives posted before their stamp — instead of engine messages: no
``Request``, ``Envelope`` or matching per stamp.  The cost model still
charges a message: the module applies the engine's point-to-point
arithmetic on tool contexts itself (send, post, match, completion), so
virtual times are those of an engine-message transport, which
``tests/reference_piggyback.py`` keeps as the differential reference.  A
completion whose stamp has not arrived blocks through the engine's own
scheduler, so a stolen stamp (below) is a proven deadlock naming its
stream.  Collective stamp exchanges are the clock module's: a bare
rendezvous on the shadow context (:mod:`repro.dampi.clock_module`).

Under the DAMPI clock module the separate mechanism runs inside the
clock's wrappers (``driven``): the clock calls this module's
``isend``/``irecv``/``request_free`` wrappers with its own chain and
:meth:`PiggybackModule.completed` after a Wait/Test, so the charge rules
live here alone and a driven module wraps no entry point itself.  The
inline mechanism, and any stack that feeds the module stamps from
elsewhere, run the same wrappers as a layer of their own.

Known limitation (inherited from the paper's mechanism and documented in
DESIGN.md): when a wildcard and a deterministic receive with overlapping
``(source, tag)`` selectors are simultaneously outstanding, the
post-time/completion-time split can pair stamps with the wrong message of
the same stream — or, when the deterministic receive is freed, leave the
wildcard's stamp receive waiting forever (a tool-induced deadlock).  The
``"inline"`` mechanism (clock packed into the payload, the
datatype-packing alternative of [15]) has no such hazard and is provided
for ablation.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Optional

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.datatypes import count_of, sizeof
from repro.mpi.request import Request, RequestKind, Status
from repro.pnmpi.module import ToolModule

_SEND = RequestKind.SEND
_RECV = RequestKind.RECV


class InlinePacked:
    """Wrapper used by the inline mechanism: stamp packed with the payload.
    Its wire size (``nbytes``, what :func:`~repro.mpi.datatypes.sizeof`
    charges) is the payload's plus the stamp's; its element count
    (``element_count``, what :func:`~repro.mpi.datatypes.count_of` reads,
    so a receive buffer too small for the payload is MPI_ERR_TRUNCATE) is
    the payload's alone."""

    __slots__ = ("stamp", "payload", "nbytes", "element_count")

    def __init__(self, stamp: Any, payload: Any):
        self.stamp = stamp
        self.payload = payload
        self.nbytes = sizeof(payload) + sizeof(stamp)
        self.element_count = count_of(payload)


class _StampRecv:
    """A posted shadow receive: done once its stream's stamp matched it."""

    __slots__ = ("key", "post_vtime", "complete_vtime", "stamp", "done")

    def __init__(self, key: tuple, post_vtime: float):
        self.key = key
        self.post_vtime = post_vtime
        self.complete_vtime = 0.0
        self.stamp = None
        self.done = False


def _no_provider(proc):
    raise RuntimeError("piggyback module has no stamp provider registered")


def _no_consumer(proc, req, stamp) -> None:
    pass


class PiggybackModule(ToolModule):
    """Transports clock stamps alongside every point-to-point message.

    The stamp to send is obtained from ``provider(proc)``; a received
    stamp is delivered via ``consumer(proc, req, stamp)`` right after the
    user request completes (the clock module registers both).
    """

    name = "piggyback"

    def __init__(self, mechanism: str = "separate"):
        if mechanism not in ("separate", "inline"):
            raise ValueError(f"unknown piggyback mechanism {mechanism!r}")
        self.mechanism = mechanism
        self.provider: Callable = _no_provider
        self.consumer: Callable = _no_consumer
        #: set by a clock module that runs this mechanism in its own
        #: wrappers: the module then wraps no entry point
        self.driven = False
        self._engine = None
        #: user ctx id -> shadow CommContext (GetPBComm)
        self._shadow_ctx: dict[int, Any] = {}
        #: (src, dst, user ctx id, tag) -> the stream's FIFO: stamps that
        #: arrived before their receive, as ``(stamp, arrival_vtime)`` in
        #: send order, or receives posted before their stamp, as
        #: :class:`_StampRecv` in post order — never both at once
        self._streams: dict[tuple, deque] = {}
        #: user send request uid -> its stamp send's completion vtime (GetPBReq)
        self._pb_send: dict[int, Any] = {}
        #: user recv request uid -> stamp receive posted up front
        self._pb_recv: dict[int, Any] = {}
        self._lock = threading.Lock()
        self._tracer = None
        #: mechanism statistics (ablation benches read these)
        self.pb_messages = 0
        self.deferred_pb_recvs = 0

    def overrides(self, point: str) -> bool:
        return not self.driven and super().overrides(point)

    # -- wiring ----------------------------------------------------------------

    def register(self, provider: Callable, consumer: Callable) -> None:
        """Install the stamp source and sink (called by the clock module)."""
        self.provider = provider
        self.consumer = consumer

    def setup(self, runtime) -> None:
        engine = self._engine = runtime.engine
        self._tracer = getattr(runtime, "tracer", None)
        world = engine.world
        self._shadow_ctx = {world.ctx: engine.new_tool_context(world, "pb.world")}
        self._streams = {}
        self._pb_send = {}
        self._pb_recv = {}
        self.pb_messages = 0
        self.deferred_pb_recvs = 0
        # the engine's point-to-point charges on a tool context
        cost = engine.cost
        self._vtimes = engine.clocks.vtimes
        self._wrap_cost = cost.tool_wrap_cost
        self._latency = cost.latency
        self._byte_time = cost.byte_time
        self._p2p = cost.p2p_overhead
        self._tool_factor = cost.tool_factor
        self._tool_p2p = cost.p2p_overhead * cost.tool_factor
        self._tool_local = cost.local_op * cost.tool_factor
        #: stamp class -> the byte cost of one stamp (see _send_stamp)
        self._stamp_byte_cost = {}

    def ensure_shadow(self, ctx_obj) -> None:
        """Create the shadow context for a newly created communicator.

        Idempotent; called by the clock module's comm_dup/comm_split
        wrappers (the paper creates a shadow for *each existing
        communicator*)."""
        with self._lock:
            if ctx_obj.ctx not in self._shadow_ctx:
                self._shadow_ctx[ctx_obj.ctx] = self._engine.new_tool_context(
                    ctx_obj, f"pb.{ctx_obj.label}"
                )

    def shadow_context(self, user_ctx_id: int):
        """The shadow CommContext of a user context (GetPBComm)."""
        shadow = self._shadow_ctx.get(user_ctx_id)
        if shadow is None:
            raise KeyError(f"no shadow context for user ctx {user_ctx_id}")
        return shadow

    # -- the separate mechanism's transport: per-stream stamp queues ---------------

    def _new_stream(self, key: tuple) -> deque:
        """A stream's queue, made on its first stamp or stamp receive."""
        if key[2] not in self._shadow_ctx:
            raise KeyError(f"no shadow context for user ctx {key[2]}")
        stream = self._streams[key] = deque()
        return stream

    def _send_stamp(self, proc, ctx_id: int, dst: int, tag: int, stamp) -> float:
        """Deposit ``stamp`` on its stream, completing a waiting stamp
        receive as the engine's match would; returns the send's completion
        vtime, which the user send's completion consumes."""
        src = proc.world_rank
        vtimes = self._vtimes
        send_vtime = vtimes[src]
        # every stamp of one class has one wire size within a run (one
        # integer, or one per rank), so its byte cost is looked up once
        byte_cost = self._stamp_byte_cost.get(stamp.__class__)
        if byte_cost is None:
            byte_cost = sizeof(stamp) * self._byte_time
            self._stamp_byte_cost[stamp.__class__] = byte_cost
        arrival = send_vtime + self._latency + byte_cost
        vtimes[src] = now = send_vtime + (self._p2p + byte_cost) * self._tool_factor
        key = (src, dst, ctx_id, tag)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._new_stream(key)
        if stream and stream[0].__class__ is _StampRecv:
            recv = stream.popleft()
            recv.complete_vtime = max(recv.post_vtime, arrival, vtimes[dst]) + self._tool_p2p
            recv.stamp = stamp
            recv.done = True
            self._engine._unblock_if_ready(dst)
        else:
            stream.append((stamp, arrival))
        return now

    def _post_stamp_recv(self, proc, ctx_id: int, src: int, tag: int) -> _StampRecv:
        """Post the fully specified stamp receive of one user receive."""
        rank = proc.world_rank
        vtimes = self._vtimes
        vtimes[rank] = post = vtimes[rank] + self._tool_p2p
        key = (src, rank, ctx_id, tag)
        recv = _StampRecv(key, post)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._new_stream(key)
        if stream and stream[0].__class__ is not _StampRecv:
            recv.stamp, arrival = stream.popleft()  # matched as in _send_stamp
            recv.complete_vtime = max(post, arrival, vtimes[rank]) + self._tool_p2p
            recv.done = True
        else:
            stream.append(recv)
        return recv

    def _wait_stamp(self, proc, recv: _StampRecv):
        """Complete a stamp receive, blocking until its stamp arrives, and
        charge its completion as :meth:`_send_completed` does."""
        rank = proc.world_rank
        if not recv.done:
            self._engine._block(
                rank, lambda: recv.done, lambda: self._describe_wait(recv)
            )
        vtimes = self._vtimes
        t = vtimes[rank]
        if recv.complete_vtime > t:
            t = recv.complete_vtime
        vtimes[rank] = t + self._tool_local
        return recv.stamp

    def _describe_wait(self, recv: _StampRecv) -> str:
        src, dst, ctx_id, tag = recv.key
        label = self._engine.contexts[ctx_id].label
        return f"wait for the piggyback stamp {src}→{dst} on {label}, tag {tag}"

    # -- interposition ---------------------------------------------------------------
    #
    # A clock module that drives the separate mechanism calls these
    # wrappers from inside its own, passing its chain on (``isend``,
    # ``irecv``, ``request_free``) or calling :meth:`completed` after its
    # chain returned; the module then wraps no entry point itself.

    def isend(self, proc, chain, comm, payload, dest, tag):
        if dest == PROC_NULL:
            return chain(comm, payload, dest, tag)
        self._vtimes[proc.world_rank] += self._wrap_cost
        if self.mechanism == "inline":
            return chain(comm, InlinePacked(self.provider(proc), payload), dest, tag)
        req = chain(comm, payload, dest, tag)
        ctx = comm.context  # ``dest`` is valid: the engine accepted it
        self._pb_send[req.uid] = self._send_stamp(
            proc, ctx.ctx, ctx.group[dest], tag, self.provider(proc)
        )
        self.pb_messages += 1
        tr = self._tracer
        if tr is not None:
            tr.instant("pb_send", "pb", rank=proc.world_rank, dest=dest, tag=tag)
        return req

    issend = isend

    def irecv(self, proc, chain, comm, source, tag):
        """A deterministic selector posts its stamp receive now
        (CreatePBReq); any wildcard (source or tag) defers it to
        completion time."""
        req = chain(comm, source, tag)
        if source == PROC_NULL:
            return req
        self._vtimes[proc.world_rank] += self._wrap_cost
        if self.mechanism == "inline":
            return req
        if source != ANY_SOURCE and tag != ANY_TAG:
            ctx = comm.context
            self._pb_recv[req.uid] = self._post_stamp_recv(
                proc, ctx.ctx, ctx.group[source], tag
            )
            return req
        self.deferred_pb_recvs += 1
        tr = self._tracer
        if tr is not None:
            # paper §II-D: the stamp receive is posted only once the
            # wildcard completes and its source/tag are known
            tr.instant("pb_deferred_recv", "pb", rank=proc.world_rank, tag=tag)
        return req

    def wait(self, proc, chain, req):
        status = chain(req)
        self.completed(proc, req, status)
        return status

    def test(self, proc, chain, req):
        flag, status = chain(req)
        if flag:
            self.completed(proc, req, status)
        return flag, status

    def completed(self, proc, req: Request, status: Optional[Status]) -> None:
        """A user request's Wait/Test succeeded: a send completes its
        stamp send; a receive from a process receives its stamp and
        delivers it to the consumer."""
        self._vtimes[proc.world_rank] += self._wrap_cost
        kind = req.kind
        if kind is _SEND:
            self._send_completed(proc, req)
            return
        if kind is not _RECV or status is None or status.source == PROC_NULL:
            return  # collective requests are the clock module's
        if self.mechanism == "inline":
            packed = req.data
            if isinstance(packed, InlinePacked):
                req.data = packed.payload
                status._payload = packed.payload
                self.consumer(proc, req, packed.stamp)
            return
        if req.ctx not in self._shadow_ctx:
            return  # a tool's context, or one created before this module attached
        pb = self._pb_recv.pop(req.uid, None)
        if pb is None:
            # wildcard: now that source and tag are known, receive the stamp
            # deterministically (paper: "only posting the receive call for
            # mp after the completion of m").
            pb = self._post_stamp_recv(proc, req.ctx, req.envelope.src, status.tag)
        self.consumer(proc, req, self._wait_stamp(proc, pb))

    def _send_completed(self, proc, req: Request) -> None:
        """Complete a user send's stamp send with the engine's completion
        charge: ``max(completion, now)`` plus a tool-context local op."""
        t = self._pb_send.pop(req.uid, None)
        if t is not None:
            vtimes = self._vtimes
            now = vtimes[proc.world_rank]
            vtimes[proc.world_rank] = (t if t > now else now) + self._tool_local

    def probe(self, proc, chain, comm, source, tag):
        status = chain(comm, source, tag)
        self._unwrap_probe_status(status)
        return status

    def iprobe(self, proc, chain, comm, source, tag):
        flag, status = chain(comm, source, tag)
        if flag:
            self._unwrap_probe_status(status)
        return flag, status

    def _unwrap_probe_status(self, status: Optional[Status]) -> None:
        """Inline mechanism: probes must report the user payload's count,
        not the stamp wrapper's."""
        if (
            self.mechanism == "inline"
            and status is not None
            and isinstance(status._payload, InlinePacked)
        ):
            status._payload = status._payload.payload

    def request_free(self, proc, chain, req):
        """Freeing a send request also completes its stamp send; freeing a
        pending receive leaves the stamp receive posted — the same leak
        the user created, mirrored in the tool layer."""
        chain(req)
        self._send_completed(proc, req)
        self._pb_recv.pop(req.uid, None)

    # -- stamps of messages the program never received (clock module) -------------

    def drain_stamp(self, proc, req: Request):
        """The stamp of a leftover user message that the clock module's
        finalize drain just received through PMPI, or None if it carries
        none."""
        if self.mechanism == "inline":
            data = req.data
            return data.stamp if isinstance(data, InlinePacked) else None
        env = req.envelope
        return self._wait_stamp(
            proc, self._post_stamp_recv(proc, env.ctx, env.src, env.tag)
        )

    def leftover_stamps(self, rank: int, envs: list) -> list:
        """Post-mortem pairing: ``(envelope, stamp)`` for the unreceived
        user messages of one stream into ``rank``, given in ``seq`` order.
        The stream's unreceived stamps align 1:1, in order, with them."""
        if self.mechanism == "inline":
            return [
                (env, env.payload.stamp)
                for env in envs
                if isinstance(env.payload, InlinePacked)
            ]
        env = envs[0]
        stream = self._streams.get((env.src, rank, env.ctx, env.tag))
        if not stream or stream[0].__class__ is _StampRecv:
            return []
        return list(zip(envs, [stamp for stamp, _ in stream]))

    def finish(self, runtime) -> dict:
        return {
            "mechanism": self.mechanism,
            "pb_messages": self.pb_messages,
            "deferred_pb_recvs": self.deferred_pb_recvs,
            "unpaired_send_stamps": len(self._pb_send),
            "unpaired_recv_stamps": len(self._pb_recv),
        }
