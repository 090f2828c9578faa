"""Engine hand-off cost (DESIGN.md §5.1): the run-to-block scheduler buys
replay determinism at one token hand-off per blocking event.

Reports µs per hand-off for a 2-rank ping-pong and a 16-rank
``allreduce`` storm, next to a bare two-thread baton ping-pong (the floor
any thread hand-off pays), plus pytest-benchmark wall-clock throughput of
a 16-rank ring.  These are properties of the simulator, not of the paper.

    PYTHONPATH=src python benchmarks/bench_ablation_schedulers.py

Pin it (``taskset -c 0``) for figures that compare across runs.  Hand-offs
are counted, not modelled: one calibration run wraps
``MessageEngine._schedule_next``; the timed runs are unwrapped.
"""

import _thread
import statistics
import time

from repro.mpi.constants import SUM
from repro.mpi.engine import MessageEngine
from repro.mpi.runtime import run_program

NPROCS = 16
ROUNDS = 30
PINGPONG_ROUNDS = 2000
STORM_ROUNDS = 200
REPEATS = 7


def ring_job(p):
    acc = 0
    for _ in range(ROUNDS):
        r = p.world.irecv(source=(p.rank - 1) % p.size)
        p.world.send(p.rank, dest=(p.rank + 1) % p.size)
        acc += r.wait().source
    return p.world.allreduce(acc, op=SUM)


def pingpong(p, rounds=PINGPONG_ROUNDS):
    for _ in range(rounds):
        if p.rank == 0:
            p.world.send(b"x", dest=1)
            p.world.recv(source=1)
        else:
            p.world.recv(source=0)
            p.world.send(b"y", dest=0)


def storm(p, rounds=STORM_ROUNDS):
    for i in range(rounds):
        p.world.allreduce(i, op=SUM)


def count_handoffs(program, nprocs: int) -> int:
    """Token passes one run of ``program`` makes (finishing ranks included)."""
    calls = 0
    inner = MessageEngine._schedule_next

    def counting(self, from_rank):
        nonlocal calls
        calls += 1
        inner(self, from_rank)

    MessageEngine._schedule_next = counting
    try:
        run_program(program, nprocs).raise_any()
    finally:
        MessageEngine._schedule_next = inner
    return calls


def us_per_handoff(program, nprocs: int, repeats: int = REPEATS) -> float:
    """Median rank-execution wall of ``program`` over its hand-off count."""
    handoffs = count_handoffs(program, nprocs)
    walls = []
    for _ in range(repeats):
        res = run_program(program, nprocs)
        res.raise_any()
        walls.append(res.phases["execute"])
    return statistics.median(walls) / handoffs * 1e6


def bare_baton_us(rounds: int = 20000, repeats: int = REPEATS) -> float:
    """Two threads handing a ``_thread`` lock pair back and forth."""

    def once() -> float:
        mine, theirs = _thread.allocate_lock(), _thread.allocate_lock()
        mine.acquire()
        theirs.acquire()
        done = _thread.allocate_lock()
        done.acquire()

        def peer():
            for _ in range(rounds):
                theirs.acquire()
                mine.release()
            done.release()

        _thread.start_new_thread(peer, ())
        t0 = time.perf_counter()
        for _ in range(rounds):
            theirs.release()
            mine.acquire()
        elapsed = time.perf_counter() - t0
        done.acquire()
        return elapsed / (2 * rounds) * 1e6

    return statistics.median(once() for _ in range(repeats))


def handoff_rows() -> list[tuple[str, int, float]]:
    return [
        ("ping-pong", 2, us_per_handoff(pingpong, 2)),
        ("allreduce storm", NPROCS, us_per_handoff(storm, NPROCS)),
        ("bare baton ping-pong", 2, bare_baton_us()),
    ]


def handoff_lines(rows) -> list[str]:
    lines = [
        "Engine hand-off cost (median of %d runs)" % REPEATS,
        "",
        f"{'workload':>22} | {'ranks':>5} | {'us/hand-off':>11}",
    ]
    for name, nprocs, us in rows:
        lines.append(f"{name:>22} | {nprocs:>5} | {us:>11.1f}")
    return lines


def test_handoff_cost(benchmark):
    from benchmarks._util import one_shot, record

    rows = one_shot(benchmark, handoff_rows)
    assert all(us > 0 for _, _, us in rows)
    record("ablation_schedulers", handoff_lines(rows))


def test_scheduler_ring_throughput(benchmark):
    def run():
        res = run_program(ring_job, NPROCS)
        res.raise_any()
        return res

    res = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    expected = sum((r - 1) % NPROCS for r in range(NPROCS)) * ROUNDS
    assert set(res.returns.values()) == {expected}


if __name__ == "__main__":
    print("\n".join(handoff_lines(handoff_rows())))
