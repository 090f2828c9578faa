"""Raw engine throughput (DESIGN.md §5.1): the run-to-block scheduler buys
replay determinism at one token handoff per blocking event.  This bench
measures the simulator's wall-clock throughput (a property of the
substrate, not of the paper) via pytest-benchmark's real timing.
"""

from repro.mpi.constants import SUM
from repro.mpi.runtime import run_program

NPROCS = 16
ROUNDS = 30


def ring_job(p):
    acc = 0
    for _ in range(ROUNDS):
        r = p.world.irecv(source=(p.rank - 1) % p.size)
        p.world.send(p.rank, dest=(p.rank + 1) % p.size)
        acc += r.wait().source
    return p.world.allreduce(acc, op=SUM)


def test_scheduler_ring_throughput(benchmark):
    def run():
        res = run_program(ring_job, NPROCS)
        res.raise_any()
        return res

    res = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    expected = sum((r - 1) % NPROCS for r in range(NPROCS)) * ROUNDS
    assert set(res.returns.values()) == {expected}


def test_engine_p2p_roundtrip_throughput(benchmark):
    """Raw substrate speed: messages per second through the engine."""

    def pingpong(p):
        for _ in range(200):
            if p.rank == 0:
                p.world.send(b"x", dest=1)
                p.world.recv(source=1)
            else:
                p.world.recv(source=0)
                p.world.send(b"y", dest=0)

    def run():
        run_program(pingpong, 2).raise_any()

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)


def test_engine_collective_throughput(benchmark):
    def storm(p):
        for i in range(100):
            p.world.allreduce(i, op=SUM)

    def run():
        run_program(storm, 8).raise_any()

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
