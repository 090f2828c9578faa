"""DAMPI's collective stamp exchange spelled literally: a shadow engine
collective after every user collective.

``repro.dampi.clock_module.DampiClockModule`` runs each exchange as a bare
rendezvous on the communicator's shadow context, merges the stamps once
per instance and charges the shadow collective's virtual time itself.
This subclass swaps that back for the paper's mechanism: an ``allreduce``
of a stamp-MAX over the shadow communicator for all-to-all shapes, a
``bcast`` of the root's stamp, a ``gather`` to the root and a ``scan``,
each a real engine collective through ``proc.pmpi``; non-blocking
collectives post a shadow ``iallreduce``/``ibcast`` and wait it at the
user's Wait/Test.  It is the reference the rendezvous is differentially
tested against (``tests/test_collective_stamps_reference.py``): same
per-rank clocks, potential matches and deadlock details, bit-identical
makespans.
"""

from __future__ import annotations

from repro.dampi.clock_module import DampiClockModule, _stamp_max
from repro.mpi.communicator import Communicator
from repro.mpi.constants import ReduceOp

#: the MPI_MAX of Algorithm 1 over stamps
STAMP_MAX = ReduceOp("STAMP_MAX", _stamp_max)


class ShadowCollectiveClock(DampiClockModule):
    """Collective stamp exchanges as shadow engine collectives."""

    def setup(self, runtime) -> None:
        super().setup(runtime)
        #: user icollective request uid -> shadow icollective request
        self._icoll_pb = {}

    def _shadow(self, proc, comm) -> Communicator:
        self._engine.charge(proc.world_rank, self._engine.cost.tool_wrap_cost)
        return Communicator(self.piggyback.shadow_context(comm.ctx), proc)

    def _exchange(self, proc, comm, shape, root=None):
        clock = self._state[proc.world_rank].clock
        shadow = self._shadow(proc, comm)
        if shape == "allreduce":
            clock.merge(proc.pmpi.allreduce(shadow, clock.snapshot(), STAMP_MAX))
        elif shape == "scan":
            clock.merge(proc.pmpi.scan(shadow, clock.snapshot(), STAMP_MAX))
        elif shape == "bcast":
            clock.merge(proc.pmpi.bcast(shadow, clock.snapshot(), root))
        else:
            stamps = proc.pmpi.gather(shadow, clock.snapshot(), root)
            for stamp in stamps or ():
                clock.merge(stamp)

    def _post_exchange(self, proc, comm, shape, root, req):
        clock = self._state[proc.world_rank].clock
        shadow = self._shadow(proc, comm)
        if shape == "allreduce":
            pb = proc.pmpi.iallreduce(shadow, clock.snapshot(), STAMP_MAX)
        else:
            pb = proc.pmpi.ibcast(shadow, clock.snapshot(), root)
        self._icoll_pb[req.uid] = pb

    def _finish_exchange(self, proc, req):
        pb = self._icoll_pb.pop(req.uid, None)
        if pb is None:
            return
        proc.pmpi.wait(pb)
        self._state[proc.world_rank].clock.merge(pb.data)
