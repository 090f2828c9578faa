"""Message envelopes flowing through the engine.

An :class:`Envelope` is one eager point-to-point message: payload plus the
metadata the matching layer needs (world-rank source/dest, context id, tag,
a per-``(source, dest, context)`` sequence number that encodes MPI's
non-overtaking order, and virtual send/arrival times for the cost model).

Envelopes are the hottest allocation in the system — one per send, touched
by deposit, matching, completion, the cost model, and the piggyback layer —
so the class is ``__slots__``-based with the wire size computed once.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.mpi.datatypes import sizeof

_envelope_ids = itertools.count(1)


def reset_envelope_ids() -> None:
    """Restart envelope numbering at 1 (called per ``Runtime.run()``).

    Uids are only ever compared within one run's trace; per-run numbering
    makes traces — and any diagnostics quoting an envelope — deterministic
    functions of the schedule, regardless of what the hosting process ran
    before (the parallel replay engine runs schedules in pool workers,
    whose counters would otherwise have drifted from the serial walk's).

    Uids are assigned by the engine's token holder at send time, so within a run
    uid order is global arrival order — the indexed matcher leans on this
    to reproduce the linear scan's candidate ordering.
    """
    global _envelope_ids
    _envelope_ids = itertools.count(1)


class Envelope:
    """One in-flight (or delivered) point-to-point message.

    Attributes
    ----------
    src, dst:
        World ranks of sender and receiver.
    ctx:
        Context id of the communicator the message was sent on.
    tag:
        User tag (never a wildcard — wildcards live on the receive side).
    payload:
        The Python object being transferred.
    seq:
        Position of this message in the sender's stream towards ``dst`` on
        ``ctx`` (0-based).  Non-overtaking means a receive may only match
        this envelope if every earlier same-tag envelope in the stream has
        already been matched; the matcher enforces it by consuming streams
        in ``seq`` order.
    send_vtime / arrival_vtime:
        Virtual clock at the sender when issued, and at the receiver NIC
        when it becomes matchable (cost model).
    uid:
        Per-run global ordinal (uid order == arrival order).
    matched:
        Set when a receive consumes this envelope (diagnostics/tracing;
        also the indexed matcher's lazy-deletion flag).
    sync_req:
        For synchronous sends (MPI_Issend): the send request to complete
        when this envelope is matched (rendezvous semantics).
    """

    __slots__ = (
        "src",
        "dst",
        "ctx",
        "tag",
        "payload",
        "seq",
        "send_vtime",
        "arrival_vtime",
        "uid",
        "matched",
        "sync_req",
        "_nbytes",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        ctx: int,
        tag: int,
        payload: Any,
        seq: int,
        send_vtime: float = 0.0,
        arrival_vtime: float = 0.0,
        uid: int | None = None,
        matched: bool = False,
        sync_req: object = None,
    ):
        self.src = src
        self.dst = dst
        self.ctx = ctx
        self.tag = tag
        self.payload = payload
        self.seq = seq
        self.send_vtime = send_vtime
        self.arrival_vtime = arrival_vtime
        self.uid = next(_envelope_ids) if uid is None else uid
        self.matched = matched
        self.sync_req = sync_req
        self._nbytes: int | None = None

    @property
    def nbytes(self) -> int:
        """Estimated wire size, used for bandwidth charging.

        Computed on first access and cached — payloads are never mutated
        after send (eager semantics take a logical snapshot), and sizeof on
        derived datatypes walks the type tree.
        """
        n = self._nbytes
        if n is None:
            n = self._nbytes = sizeof(self.payload)
        return n

    def __repr__(self) -> str:
        return (
            f"Envelope(#{self.uid} {self.src}->{self.dst} ctx={self.ctx} "
            f"tag={self.tag} seq={self.seq})"
        )
