"""Rank-thread lifetime: a Runtime owns its rank threads.

The first ``Runtime.run`` starts ``nprocs`` rank threads and every later
run reuses them; ``close()`` (or the runtime being collected) stops them.
A verification campaign therefore holds exactly ``nprocs`` rank threads
for as long as it walks and none once ``verify()`` returns."""

from __future__ import annotations

import gc
import re
import threading
import time

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.mpi.runtime import Runtime
from repro.workloads.matmult import matmult_program

_RANK_THREAD = re.compile(r".*-rank\d+")


def rank_threads(before=()) -> list[threading.Thread]:
    """Live rank threads, minus those in ``before`` (threads an earlier
    test's unclosed runtime holds until the collector gets to it)."""
    return [
        t for t in threading.enumerate()
        if _RANK_THREAD.fullmatch(t.name) and t not in before
    ]


def ring(p):
    n, r = p.size, p.rank
    req = p.world.isend(r, dest=(r + 1) % n)
    got = p.world.recv(source=(r - 1) % n)
    req.wait()
    return got


class _CountingVerifier(DampiVerifier):
    """Samples the process's rank threads after every run."""

    def run_once(self, decisions=None):
        out = super().run_once(decisions)
        self.samples.append(len(rank_threads(self.before)))
        return out


def test_campaign_holds_nprocs_rank_threads_then_none():
    gc.collect()
    v = _CountingVerifier(
        matmult_program, 4, DampiConfig(bound_k=1),
        kwargs={"n": 8, "blocks_per_slave": 3, "seed": 1},
    )
    v.before, v.samples = set(rank_threads()), []
    report = v.verify()
    assert report.interleavings >= 700
    assert len(v.samples) == report.interleavings
    assert set(v.samples) == {4}
    assert rank_threads(v.before) == []


def test_unclosed_runtimes_release_their_threads_when_collected():
    gc.collect()
    before = set(rank_threads())
    for _ in range(200):
        assert Runtime(2, ring).run().ok
    gc.collect()
    assert rank_threads(before) == []


def test_broken_pool_is_replaced_without_waiting_for_it():
    before = set(rank_threads())
    reference = Runtime(3, ring)
    with reference:
        expected = reference.run()
    rt = Runtime(3, ring)
    rt.run()
    stuck = rt._pool
    release = threading.Event()
    # one worker wedged outside the engine, as a rank main past its
    # deadline would be; the owner then marks the pool broken
    assert not stuck.run(lambda rank: rank == 0 and release.wait(30.0), timeout=0.05)
    stuck.broken = True
    try:
        result = rt.run()
        assert rt._pool is not stuck
        assert result.returns == expected.returns
        assert result.makespan == expected.makespan
        t0 = time.monotonic()
        rt.close()
        assert time.monotonic() - t0 < 0.5
    finally:
        release.set()
    for t in stuck._threads:
        t.join(timeout=5.0)
    assert rank_threads(before) == []


def test_close_is_idempotent_and_safe_from_a_rank_thread():
    before = set(rank_threads())
    idle = Runtime(2, ring)
    idle.run()

    def closer(p):
        # a pool worker closing an idle runtime, and its own mid-run
        idle.close()
        p.runtime.close()
        return ring(p)

    rt = Runtime(2, closer)
    first = rt.run()
    assert first.ok and first.returns == {0: 1, 1: 0}
    assert rt._pool is None
    assert rt.run().returns == first.returns  # a later run starts new threads
    rt.close()
    rt.close()
    idle.close()
    assert rank_threads(before) == []
