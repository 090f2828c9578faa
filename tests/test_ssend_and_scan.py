"""Synchronous sends (rendezvous) and the scan collective."""

import pytest

from repro.mpi.constants import ANY_SOURCE, MAX, SUM
from repro.mpi.runtime import run_program

from tests.conftest import run_ok


class TestSsend:
    def test_ssend_completes_only_on_match(self):
        def prog(p):
            if p.rank == 0:
                req = p.world.issend("sync", dest=1)
                flag, _ = req.test()
                assert not flag  # receiver hasn't posted yet
                p.world.barrier()
                req.wait()
            else:
                p.world.barrier()
                assert p.world.recv(source=0) == "sync"

        run_ok(prog, 2)

    def test_head_to_head_ssend_deadlocks(self):
        """The classic unsafe exchange: eager sends mask it, synchronous
        sends expose it — our engine proves it."""

        def eager(p):
            p.world.send("x", dest=1 - p.rank)
            p.world.recv(source=1 - p.rank)

        def synchronous(p):
            p.world.ssend("x", dest=1 - p.rank)
            p.world.recv(source=1 - p.rank)

        run_ok(eager, 2)
        res = run_program(synchronous, 2)
        assert res.deadlocked

    def test_ssend_vtime_includes_rendezvous(self):
        def prog(p):
            if p.rank == 0:
                p.world.ssend("x", dest=1)
                return p.engine.clocks.now(0)
            p.compute(0.01)  # receiver is late: sender must wait for it
            p.world.recv(source=0)

        res = run_ok(prog, 2)
        assert res.returns[0] >= 0.01

    def test_unmatched_ssend_is_a_deadlock(self):
        def prog(p):
            if p.rank == 0:
                p.world.ssend("never received", dest=1)

        res = run_program(prog, 2)
        assert res.deadlocked

    def test_ssend_under_dampi_verification(self):
        """Wildcard matching over synchronous senders still gets full
        coverage and finds the alternate-match crash."""
        from repro.dampi.verifier import DampiVerifier

        def prog(p):
            if p.rank == 0:
                x = p.world.recv(source=ANY_SOURCE)
                p.world.recv(source=ANY_SOURCE)
                if x == 2:
                    raise RuntimeError("alternate match")
            else:
                p.world.ssend(p.rank, dest=0)

        rep = DampiVerifier(prog, 3).verify()
        assert rep.interleavings == 2
        assert any(e.kind == "crash" for e in rep.errors), rep.summary()

    def test_ssend_nonovertaking_with_eager(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("first", dest=1, tag=1)
                req = p.world.issend("second", dest=1, tag=1)
                p.world.barrier()
                req.wait()
            else:
                p.world.barrier()
                assert p.world.recv(source=0, tag=1) == "first"
                assert p.world.recv(source=0, tag=1) == "second"

        run_ok(prog, 2)


class TestScan:
    def test_inclusive_prefix_sum(self):
        def prog(p):
            return p.world.scan(p.rank + 1, op=SUM)

        res = run_ok(prog, 5)
        assert res.returns == {r: (r + 1) * (r + 2) // 2 for r in range(5)}

    def test_scan_default_op_sum(self):
        def prog(p):
            return p.world.scan(1)

        res = run_ok(prog, 4)
        assert res.returns == {r: r + 1 for r in range(4)}

    def test_scan_max(self):
        vals = [3, 1, 7, 2]

        def prog(p):
            return p.world.scan(vals[p.rank], op=MAX)

        res = run_ok(prog, 4)
        assert res.returns == {0: 3, 1: 3, 2: 7, 3: 7}

    def test_rank0_does_not_wait_for_others(self):
        def prog(p):
            if p.rank == 0:
                v = p.world.scan(1, op=SUM)  # completes alone
                p.world.send(v, dest=1)
            else:
                assert p.world.recv(source=0) == 1
                p.world.scan(1, op=SUM)

        run_ok(prog, 2)

    def test_higher_rank_waits_for_lower(self):
        def prog(p):
            if p.rank == 1:
                p.compute(0.0)
                v = p.world.scan(1, op=SUM)  # needs rank 0's entry
                assert v == 2
            else:
                p.compute(0.005)
                p.world.scan(1, op=SUM)
            return p.engine.clocks.now(p.rank)

        res = run_ok(prog, 2)
        assert res.returns[1] >= 0.005  # rank 1 waited for rank 0

    def test_scan_missing_lower_rank_deadlocks(self):
        def prog(p):
            if p.rank == 1:
                p.world.scan(1, op=SUM)  # rank 0 never joins

        res = run_program(prog, 2)
        assert res.deadlocked

    def test_scan_under_dampi_clock_exchange(self):
        """The shadow scan must carry clocks only downward: rank 0 must not
        learn rank 2's wildcard tick through a scan."""
        from repro.dampi.clock_module import DampiClockModule
        from repro.dampi.piggyback import PiggybackModule

        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=2)
            if p.rank == 2:
                p.world.recv(source=ANY_SOURCE)  # rank 2 ticks
            p.world.scan(1, op=SUM)

        pb = PiggybackModule()
        clock = DampiClockModule(pb)
        res = run_program(prog, 3, modules=[clock, pb])
        res.raise_any()
        assert clock.clock_of(0).time == 0  # no upward flow
        assert clock.clock_of(2).time == 1


class TestTracingAndIsp:
    def test_classification(self):
        from benchmarks.comparators.opstats import CLASSIFICATION, OpClass

        assert CLASSIFICATION["issend"] is OpClass.SEND_RECV
        assert CLASSIFICATION["scan"] is OpClass.COLLECTIVE

    def test_isp_charges_both(self):
        from benchmarks.comparators.isp import IspInterpositionModule

        def prog(p):
            if p.rank == 0:
                p.world.ssend("x", dest=1)
            else:
                p.world.recv(source=0)
            p.world.scan(1, op=SUM)

        mod = IspInterpositionModule()
        res = run_ok(prog, 2, modules=[mod])
        # rank0: issend+wait; rank1: irecv+wait; both: scan = 6
        assert res.artifacts["isp"]["round_trips"] == 6
