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

Known limitation (inherited from the paper's mechanism and documented in
DESIGN.md): when a wildcard and a deterministic receive with overlapping
``(source, tag)`` selectors are simultaneously outstanding, the
post-time/completion-time split can pair stamps with the wrong message of
the same stream.  The ``"inline"`` mechanism (clock packed into the
payload, the datatype-packing alternative of [15]) has no such hazard and
is provided for ablation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.mpi.communicator import Communicator
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.request import Request, RequestKind, Status
from repro.pnmpi.module import ToolModule


@dataclass(frozen=True)
class InlinePacked:
    """Wrapper used by the inline mechanism: stamp packed with the payload."""

    stamp: Any
    payload: Any


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
        self.provider: Optional[Callable] = None
        self.consumer: Optional[Callable] = None
        self._engine = None
        #: user ctx id -> shadow CommContext (GetPBComm)
        self._shadow_ctx: dict[int, Any] = {}
        #: (rank, user ctx id) -> per-rank shadow Communicator handle
        self._shadow_comm: dict[tuple[int, int], Communicator] = {}
        #: user send request uid -> piggyback send request (GetPBReq)
        self._pb_send: dict[int, Request] = {}
        #: user recv request uid -> piggyback recv request posted up front
        self._pb_recv: dict[int, Request] = {}
        #: inline mechanism: recv request uid -> unpacked stamp
        self._inline_stamp: dict[int, Any] = {}
        self._lock = threading.Lock()
        self._tracer = None
        #: mechanism statistics (ablation benches read these)
        self.pb_messages = 0
        self.deferred_pb_recvs = 0

    # -- wiring ----------------------------------------------------------------

    def register(self, provider: Callable, consumer: Callable) -> None:
        """Install the stamp source and sink (called by the clock module)."""
        self.provider = provider
        self.consumer = consumer

    def setup(self, runtime) -> None:
        self._engine = runtime.engine
        self._tracer = getattr(runtime, "tracer", None)
        world = runtime.engine.world
        self._shadow_ctx = {world.ctx: runtime.engine.new_tool_context(world, "pb.world")}
        self._shadow_comm = {}
        self._pb_send = {}
        self._pb_recv = {}
        self._inline_stamp = {}
        self.pb_messages = 0
        self.deferred_pb_recvs = 0

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

    def shadow_comm(self, proc, user_ctx_id: int) -> Communicator:
        """Per-rank shadow communicator handle for a user context (GetPBComm)."""
        key = (proc.world_rank, user_ctx_id)
        comm = self._shadow_comm.get(key)
        if comm is None:
            with self._lock:
                shadow = self._shadow_ctx.get(user_ctx_id)
            if shadow is None:
                raise KeyError(f"no shadow context for user ctx {user_ctx_id}")
            comm = Communicator(shadow, proc)
            self._shadow_comm[key] = comm
        return comm

    def _stamp(self, proc):
        if self.provider is None:
            raise RuntimeError("piggyback module has no stamp provider registered")
        return self.provider(proc)

    def _deliver(self, proc, req: Request, stamp) -> None:
        if self.consumer is not None:
            self.consumer(proc, req, stamp)

    # -- interposition: sends ---------------------------------------------------

    def isend(self, proc, chain, comm, payload, dest, tag):
        if dest == PROC_NULL:
            return chain(comm, payload, dest, tag)
        self._engine.charge(proc.world_rank, self._engine.cost.tool_wrap_cost)
        if self.mechanism == "inline":
            return chain(comm, InlinePacked(self._stamp(proc), payload), dest, tag)
        req = chain(comm, payload, dest, tag)
        pb = proc.pmpi.isend(self.shadow_comm(proc, comm.ctx), self._stamp(proc), dest, tag)
        self._pb_send[req.uid] = pb
        self.pb_messages += 1
        tr = self._tracer
        if tr is not None:
            tr.instant("pb_send", "pb", rank=proc.world_rank, dest=dest, tag=tag)
        return req

    # synchronous sends carry stamps exactly like eager sends; the
    # piggyback message itself stays eager (``pmpi.isend``: the tool must
    # not add rendezvous blocking the user didn't ask for)
    issend = isend

    # -- interposition: receives ------------------------------------------------

    def irecv(self, proc, chain, comm, source, tag):
        req = chain(comm, source, tag)
        if source == PROC_NULL:
            return req
        self._engine.charge(proc.world_rank, self._engine.cost.tool_wrap_cost)
        if self.mechanism == "inline":
            return req
        # Deterministic selector: post the shadow receive now (CreatePBReq).
        # Any wildcard (source or tag) defers to completion time.
        if source != ANY_SOURCE and tag != ANY_TAG:
            pb = proc.pmpi.irecv(self.shadow_comm(proc, comm.ctx), source, tag)
            self._pb_recv[req.uid] = pb
        else:
            self.deferred_pb_recvs += 1
            tr = self._tracer
            if tr is not None:
                # paper §II-D: the stamp receive is posted only once the
                # wildcard completes and its source/tag are known
                tr.instant(
                    "pb_deferred_recv", "pb", rank=proc.world_rank, tag=tag
                )
        return req

    # -- interposition: completion ------------------------------------------------

    def wait(self, proc, chain, req):
        status = chain(req)
        self._on_completion(proc, req, status)
        return status

    def test(self, proc, chain, req):
        flag, status = chain(req)
        if flag:
            self._on_completion(proc, req, status)
        return flag, status

    def _on_completion(self, proc, req: Request, status: Status) -> None:
        self._engine.charge(proc.world_rank, self._engine.cost.tool_wrap_cost)
        if req.kind is RequestKind.SEND:
            pb = self._pb_send.pop(req.uid, None)
            if pb is not None:
                proc.pmpi.wait(pb)
            return
        if req.kind is not RequestKind.RECV:
            return  # collective requests are handled by the clock module
        # receive side
        if status is None or status.source == PROC_NULL:
            return
        if self.mechanism == "inline":
            packed = req.data
            if isinstance(packed, InlinePacked):
                req.data = packed.payload
                status._payload = packed.payload
                self._deliver(proc, req, packed.stamp)
            return
        if req.ctx not in self._shadow_ctx:
            # a receive on a tool communicator (should not happen: tools use
            # pmpi), or a context created before this module attached
            return
        pb = self._pb_recv.pop(req.uid, None)
        if pb is None:
            # wildcard: now that source and tag are known, receive the stamp
            # deterministically (paper: "only posting the receive call for
            # mp after the completion of m").
            shadow = self.shadow_comm(proc, req.ctx)
            pb = proc.pmpi.irecv(shadow, status.source, status.tag)
        proc.pmpi.wait(pb)
        self._deliver(proc, req, pb.data)

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
        # Freeing a send request also releases its piggyback bookkeeping;
        # freeing a pending receive leaves the shadow receive posted — the
        # same leak the user created, mirrored in the tool layer.
        chain(req)
        pb = self._pb_send.pop(req.uid, None)
        if pb is not None:
            proc.pmpi.wait(pb)
        self._pb_recv.pop(req.uid, None)

    def finish(self, runtime) -> dict:
        return {
            "mechanism": self.mechanism,
            "pb_messages": self.pb_messages,
            "deferred_pb_recvs": self.deferred_pb_recvs,
            "unpaired_send_stamps": len(self._pb_send),
            "unpaired_recv_stamps": len(self._pb_recv),
        }
