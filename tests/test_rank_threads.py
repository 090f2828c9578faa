"""Rank-thread lifetime: a Runtime owns its rank threads.

The first ``Runtime.run`` starts ``nprocs`` rank threads and every later
run reuses them; ``close()`` (or the runtime being collected) stops them.
A verification campaign therefore holds exactly ``nprocs`` rank threads
for as long as it walks and none once ``verify()`` returns."""

from __future__ import annotations

import ctypes
import gc
import re
import threading
import time

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.mpi.runtime import Runtime, run_program
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


def thread_stack_bytes():
    """The calling thread's stack size, as glibc's ``pthread_getattr_np``
    reports it (``None`` where the C library has no such call)."""
    libc = ctypes.CDLL(None)
    if not hasattr(libc, "pthread_getattr_np"):
        return None
    libc.pthread_self.restype = ctypes.c_ulong
    libc.pthread_getattr_np.argtypes = [ctypes.c_ulong, ctypes.c_void_p]
    attr = ctypes.create_string_buffer(256)  # >= sizeof(pthread_attr_t)
    assert libc.pthread_getattr_np(libc.pthread_self(), attr) == 0
    try:
        addr, size = ctypes.c_void_p(), ctypes.c_size_t()
        assert libc.pthread_attr_getstack(
            attr, ctypes.byref(addr), ctypes.byref(size)) == 0
        return size.value
    finally:
        libc.pthread_attr_destroy(attr)


def test_rank_threads_run_on_the_default_stack():
    """A rank thread gets the stack a plain ``threading.Thread`` gets.
    The size is read from the C library rather than probed by recursing,
    because from Python 3.12 the interpreter caps C recursion itself, so
    recursion depth no longer shows how big the thread stack is."""
    plain = []
    t = threading.Thread(target=lambda: plain.append(thread_stack_bytes()))
    t.start()
    t.join()
    if plain[0] is None:
        pytest.skip("no pthread_getattr_np in this C library")
    res = run_program(lambda p: thread_stack_bytes(), 2)
    assert not res.errors, res.errors
    assert res.returns == {0: plain[0], 1: plain[0]}
    assert plain[0] > 512 * 1024
