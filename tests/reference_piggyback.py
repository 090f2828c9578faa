"""The separate piggyback mechanism spelled literally: every stamp is an
engine message on the shadow communicator.

``repro.dampi.piggyback.PiggybackModule`` runs each shadow stream as a
pair of stamp queues and applies the engine's point-to-point cost
arithmetic itself.  This subclass swaps that transport back for real
engine traffic — a shadow ``isend`` per user send, a shadow ``irecv`` and
``wait`` per user receive, each with its own ``Request``, ``Envelope`` and
matching — exactly as paper §II-D describes the mechanism.  It is the
reference the queue transport is differentially tested against
(``tests/test_piggyback_reference.py``): same ``(payload, stamp)`` pairs,
bit-identical makespans.
"""

from __future__ import annotations

from repro.dampi.piggyback import PiggybackModule


class EngineMessagePiggyback(PiggybackModule):
    """Separate-message piggybacking over engine messages."""

    def _send_stamp(self, proc, ctx_id, dst, tag, stamp):
        shadow = self._shadow_ctx[ctx_id]
        return self._engine.pmpi_isend(
            proc.world_rank, shadow.ctx, stamp, dst, tag, proc=proc
        )

    def _post_stamp_recv(self, proc, ctx_id, src, tag):
        shadow = self._shadow_ctx[ctx_id]
        return self._engine.pmpi_irecv(
            proc.world_rank, shadow.ctx, src, tag, proc=proc
        )

    def _send_completed(self, proc, req):
        pb = self._pb_send.pop(req.uid, None)
        if pb is not None:
            proc.pmpi.wait(pb)

    def _wait_stamp(self, proc, pb):
        proc.pmpi.wait(pb)
        return pb.data

    def leftover_stamps(self, rank, envs):
        if self.mechanism == "inline":
            return super().leftover_stamps(rank, envs)
        engine = self._engine
        head = envs[0]
        shadow = self._shadow_ctx[head.ctx].ctx
        # the unreceived shadow messages of the mirrored stream, in order
        pbs = sorted(
            (
                env
                for dst, env in engine.unexpected_envelopes()
                if dst == rank and env.ctx == shadow
                and env.src == head.src and env.tag == head.tag
            ),
            key=lambda env: env.seq,
        )
        return list(zip(envs, [pb.payload for pb in pbs]))
