"""Shared pytest helpers."""

from __future__ import annotations

import pytest

from repro.mpi.constants import ANY_SOURCE
from repro.mpi.runtime import run_program

from tests.reference_clock import use_single_commit


@pytest.fixture
def single_commit(monkeypatch):
    """Run DAMPI under the paper's single-commit clock, the reference for
    the §V committed tick (``tests/reference_clock.py``)."""
    use_single_commit(monkeypatch)


def run_ok(program, nprocs, **kw):
    """Run a program and assert it completed with no errors."""
    result = run_program(program, nprocs, **kw)
    result.raise_any()
    return result


def spin(req):
    """Complete ``req`` through ``MPI_Test`` alone (a poll loop)."""
    while not req.test()[0]:
        pass


def every_entry_point(p):
    """Calls every interposable MPI operation (``pnmpi.module.ENTRY_POINTS``)
    at least once, on 2 ranks; the runtime calls init and finalize.  Rank
    0 sends, rank 1 receives, then both run every collective and
    communicator operation once.  Tool modules that count MPI calls
    (Table I's trace, ISP's scheduler tax) are tested against it."""
    world = p.world
    if p.rank == 0:
        a = world.isend("a", dest=1, tag=1)
        b = world.issend("b", dest=1, tag=2)
        world.ssend("c", dest=1, tag=3)
        world.sendrecv("d", dest=1, source=1, sendtag=4, recvtag=4)
        assert a.test()[0]  # an eager send is complete at once
        p.waitall([b])
        p.waitany([world.isend("e", dest=1, tag=5)])
        p.waitsome([world.isend("f", dest=1, tag=6)])
        assert p.testall([world.isend("g", dest=1, tag=7)])[0]
        world.isend("h", dest=1, tag=8).free()
    else:
        world.probe(source=ANY_SOURCE, tag=1)
        assert world.iprobe(source=ANY_SOURCE, tag=1)[0]
        world.recv(source=ANY_SOURCE, tag=1)
        for tag in (2, 3):
            world.recv(source=0, tag=tag)
        world.sendrecv("d", dest=0, source=0, sendtag=4, recvtag=4)
        for tag in (5, 6, 7, 8):
            world.recv(source=0, tag=tag)
    world.barrier()
    world.ibarrier().wait()
    world.bcast("x", root=0)
    world.ibcast("y", root=0).wait()
    world.reduce(1, root=0)
    world.allreduce(1)
    world.iallreduce(1).wait()
    world.gather(1, root=0)
    world.scatter([0, 1] if p.rank == 0 else None, root=0)
    world.allgather(1)
    world.alltoall([0, 1])
    world.reduce_scatter([1, 1])
    world.scan(1)
    dup = world.dup()
    sub = world.split(color=0, key=p.rank)
    dup.free()
    sub.free()
    p.pcontrol(1)
    p.pcontrol(0)
    p.compute(1e-6)
