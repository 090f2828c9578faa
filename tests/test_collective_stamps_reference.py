"""Differential: the collective stamp rendezvous against the shadow
engine collectives of ``tests/reference_collective_stamps.py``.

Every run of a campaign must end with the same per-rank clocks (both
views), record the same potential matches and reach a bit-identical
virtual makespan, and the campaigns must report the same errors, deadlock
details included — for every collective kind, on world and on a split
sub-communicator, under scalar and vector clocks, and for the bug zoo.
"""

import pytest

from repro.clocks.lamport import LamportStamp
from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.mpi.constants import ANY_SOURCE
from repro.workloads.bugzoo import ZOO

from tests.reference_collective_stamps import ShadowCollectiveClock


def _last(comm):
    return comm.size - 1


#: one call of every kind, rooted kinds at the communicator's last rank
KINDS = {
    "barrier": lambda c: c.barrier(),
    "bcast": lambda c: c.bcast(c.rank, root=_last(c)),
    "reduce": lambda c: c.reduce(c.rank, root=_last(c)),
    "allreduce": lambda c: c.allreduce(c.rank),
    "gather": lambda c: c.gather(c.rank, root=_last(c)),
    "scatter": lambda c: c.scatter(
        list(range(c.size)) if c.rank == _last(c) else None, root=_last(c)
    ),
    "allgather": lambda c: c.allgather(c.rank),
    "alltoall": lambda c: c.alltoall(list(range(c.size))),
    "reduce_scatter": lambda c: c.reduce_scatter([1] * c.size),
    "scan": lambda c: c.scan(c.rank),
    "ibarrier": lambda c: c.ibarrier().wait(),
    "ibcast": lambda c: c.ibcast(c.rank, root=_last(c)).wait(),
    "iallreduce": lambda c: c.iallreduce(c.rank).wait(),
    "comm_dup": lambda c: c.dup().free(),
    "comm_split": lambda c: c.split(c.rank % 2).free(),
}


def kind_program(kind: str, on_split: bool):
    """Rank 0 takes one wildcard message, every rank runs ``kind`` (on a
    split of world into even and odd ranks, or on world), then rank 0
    takes the rest with wildcards: which senders stay potential matches
    of its first epoch is what the collective's clock flow decides.  A
    non-blocking kind is also posted before, and waited after, a send."""

    def prog(p):
        comm = p.world.split(p.rank % 2, p.rank) if on_split else p.world
        if p.rank == 0:
            p.world.recv(source=ANY_SOURCE)
        else:
            p.world.send(f"a{p.rank}", dest=0)
        KINDS[kind](comm)
        if kind.startswith("i"):
            req = getattr(comm, kind)(*(() if kind == "ibarrier" else (1,)))
            if p.rank != 0:
                p.world.send(f"b{p.rank}", dest=0)
            req.wait()
        elif p.rank != 0:
            p.world.send(f"b{p.rank}", dest=0)
        if p.rank == 0:
            for _ in range(2 * (p.size - 1) - 1):
                p.world.recv(source=ANY_SOURCE)
        if on_split:
            comm.free()

    return prog


def _stamp(stamp):
    return stamp.time if isinstance(stamp, LamportStamp) else stamp.components


def _campaign(clock_module_class, program, nprocs, clock):
    """Verify ``program`` with ``clock_module_class``; one observation per
    run, and the report's verdict."""
    runs = []

    class Observing(DampiVerifier):
        def run_once(self, decisions=None):
            result, trace = super().run_once(decisions)
            clocks = [
                (self._clock.clock_of(r).time, _stamp(self._clock.clock_of(r).snapshot()))
                for r in range(nprocs)
            ]
            matches = [
                (m.epoch, m.source, m.env_uid, m.seq, m.tag, _stamp(m.stamp))
                for m in trace.potential_matches
            ]
            runs.append((result.makespan, clocks, matches))
            return result, trace

    Observing.clock_module_class = clock_module_class
    report = Observing(program, nprocs, DampiConfig(clock_impl=clock)).verify()
    verdict = (
        report.interleavings,
        sorted((e.kind, e.detail) for e in report.errors),
        len(report.monitor_report) if report.monitor_report else 0,
    )
    return runs, verdict


@pytest.mark.parametrize("clock", ["lamport", "vector"])
@pytest.mark.parametrize("on_split", [False, True], ids=["world", "split"])
@pytest.mark.parametrize("kind", list(KINDS))
def test_rendezvous_equals_shadow_collectives(kind, on_split, clock):
    program = kind_program(kind, on_split)
    ours = _campaign(DampiVerifier.clock_module_class, program, 4, clock)
    reference = _campaign(ShadowCollectiveClock, program, 4, clock)
    assert ours == reference
    runs, (interleavings, errors, _alerts) = ours
    assert interleavings > 1 and not errors
    assert any(matches for _, _, matches in runs)


@pytest.mark.parametrize("clock", ["lamport", "vector"])
@pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
def test_zoo_equals_shadow_collectives(entry, clock):
    ours = _campaign(DampiVerifier.clock_module_class, entry.program, entry.nprocs, clock)
    reference = _campaign(ShadowCollectiveClock, entry.program, entry.nprocs, clock)
    assert ours == reference
