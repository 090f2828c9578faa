"""Rank hand-off: one baton per rank, one wake per hand-off.

The engine passes the token round-robin from ``from_rank + 1``; that order
decides the self run's matches and virtual times, so it is pinned here to
the sequence the earlier ``Condition``-per-rank scheduler produced.  The
fatal path (a ``kill`` from the main thread, a proven deadlock) must wake
every blocked rank, and a finished job must leave every baton held.
"""

import threading
import time

import pytest

from repro.errors import DeadlockError
from repro.mpi.constants import ANY_SOURCE, SUM
from repro.mpi.runtime import Runtime, run_program

NPROCS = 16

#: token holders of :func:`token_program` at 16 ranks (hex rank ids,
#: consecutive repeats collapsed), as recorded with the earlier scheduler
EXPECTED_HOLDERS = (
    "0123456789abcdef01245689ade126abf3789abcdef0123456789abcdef"
    "0123456789abcdef0123456789abcdef0123456789"
)


def token_program(p, log):
    """Asymmetric traffic, so that any pick order other than round-robin
    from ``from_rank + 1`` yields a different holder sequence."""
    n, r, w = p.size, p.rank, p.world
    log.append(r)
    for i in range(3):
        peer_to = (r * 5 + 3 + i) % n
        peer_from = next(q for q in range(n) if (q * 5 + 3 + i) % n == r)
        req = w.irecv(source=peer_from, tag=i)
        w.send(r * i, dest=peer_to, tag=i)
        log.append(r)
        req.wait()
        log.append(r)
    sub = w.split(r % 3, key=-r)
    log.append(r)
    sub.allreduce(r, op=SUM)
    log.append(r)
    if r % 4 == 0:
        for _ in range(3):
            w.recv(source=ANY_SOURCE, tag=7)
            log.append(r)
    else:
        w.ssend(r, dest=r - r % 4, tag=7)
        log.append(r)
    if r % 2:
        while not w.iprobe(source=r - 1, tag=9)[0]:
            log.append(r)
        w.recv(source=r - 1, tag=9)
    else:
        w.send(r, dest=r + 1, tag=9)
    log.append(r)
    w.bcast(r if r == 11 else None, root=11)
    log.append(r)
    w.barrier()
    log.append(r)


def holders(log):
    out = [log[0]]
    for r in log[1:]:
        if r != out[-1]:
            out.append(r)
    return "".join("%x" % r for r in out)


def test_token_holder_sequence_is_round_robin():
    log = []
    run_program(token_program, NPROCS, args=(log,)).raise_any()
    assert holders(log) == EXPECTED_HOLDERS


def ssend_cycle(p):
    p.world.ssend(p.rank, dest=1 - p.rank)


def mismatched(p):
    """Rank 0 enters a collective its peers never call; each peer blocks
    in a different primitive."""
    w = p.world
    if p.rank == 0:
        w.barrier()
    elif p.rank == 1:
        w.probe(source=0, tag=4)
    elif p.rank == 2:
        p.waitany([w.irecv(source=0), w.irecv(source=3)])
    else:
        w.recv(source=2)


@pytest.mark.parametrize(
    "program,nprocs,blocked",
    [
        (ssend_cycle, 2, {
            0: "wait on Request(#1 send owner=0 ctx=0 src=-104 tag=-104 pending)",
            1: "wait on Request(#2 send owner=1 ctx=0 src=-104 tag=-104 pending)",
        }),
        (mismatched, 4, {
            0: "barrier on world (instance 0)",
            1: "probe(src=0, tag=4, ctx=0)",
            2: "waitany over 2 requests",
            3: "wait on Request(#3 recv owner=3 ctx=0 src=2 tag=-102 pending)",
        }),
    ],
    ids=["ssend_cycle", "mismatched_collective"],
)
def test_deadlock_report_reads_as_before(program, nprocs, blocked):
    res = run_program(program, nprocs)
    assert isinstance(res.deadlock, DeadlockError)
    assert res.deadlock.blocked == blocked
    assert set(res.errors) == set(range(nprocs))


def test_kill_from_main_thread_wakes_ranks_blocked_in_a_collective():
    """15 ranks block in a barrier while rank 15 holds the token outside
    the engine; the join timeout's kill must end the run promptly."""

    def program(p):
        if p.rank == NPROCS - 1:
            deadline = time.monotonic() + 30.0
            while p.engine._fatal is None and time.monotonic() < deadline:
                time.sleep(0.001)
        p.world.barrier()

    with Runtime(NPROCS, program) as rt:
        t0 = time.monotonic()
        res = rt.run(join_timeout=0.2)
        elapsed = time.monotonic() - t0
        pool = rt._pool
    assert elapsed < 0.2 + 1.0
    assert set(res.errors) == set(range(NPROCS))
    assert all(
        isinstance(e, RuntimeError) and "join timeout" in str(e)
        for e in res.errors.values()
    )
    assert not pool.broken


def ring(p, rounds):
    n, r, w = p.size, p.rank, p.world
    for i in range(rounds):
        req = w.irecv(source=(r - 1) % n, tag=i)
        w.send(i, dest=(r + 1) % n, tag=i)
        req.wait()
        w.allreduce(i, op=SUM)


@pytest.mark.parametrize("delay", [0.0, 0.0005, 0.002, 0.005])
def test_kill_racing_hand_offs_loses_no_wake(delay):
    """A kill lands while the ranks hand the token back and forth: no
    baton is released twice into an error, and no rank is left asleep."""
    rt = Runtime(4, ring, args=(10_000,))
    out = {}
    runner = threading.Thread(
        target=lambda: out.setdefault("res", rt.run()), daemon=True
    )
    runner.start()
    time.sleep(delay)
    stop = RuntimeError("stop")
    rt.engine.kill(stop)
    runner.join(timeout=5.0)
    assert not runner.is_alive()
    res = out["res"]
    assert set(res.errors) == set(range(4))
    assert all(e is stop for e in res.errors.values())


def test_pool_reuse_leaves_every_baton_held():
    with Runtime(NPROCS, ring, args=(5,)) as rt:
        for _ in range(2):
            rt.run().raise_any()
            assert rt.engine._current is None
            assert all(st.baton.locked() for st in rt.engine._ranks)
        assert rt._pool.generations == 2
