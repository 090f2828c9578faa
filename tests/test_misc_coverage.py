"""Odds and ends: report rendering, budgets, error strings, small APIs."""

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.errors import AbortError, DeadlockError
from repro.mpi.constants import BUILTIN_OPS, SUM
from repro.mpi.datatypes import BYTE, CHAR, DOUBLE, FLOAT, INT, LONG
from repro.mpi.runtime import run_program
from repro.workloads.patterns import fig3_program, wildcard_lattice

from tests.conftest import run_ok


class TestRunTable:
    def test_table_shows_flips_and_matches(self):
        rep = DampiVerifier(
            wildcard_lattice, 3, kwargs={"receives": 2, "senders": 2}
        ).verify()
        table = rep.run_table()
        assert "self run" in table
        assert "r0@" in table  # match notation
        assert table.count("\n") == rep.interleavings  # header + one row each

    def test_table_limit(self):
        rep = DampiVerifier(
            wildcard_lattice, 4, kwargs={"receives": 3, "senders": 3}
        ).verify()
        table = rep.run_table(limit=5)
        assert "more runs" in table

    def test_table_marks_errors(self):
        rep = DampiVerifier(fig3_program, 3).verify()
        assert "crash" in rep.run_table()


class TestBudgets:
    def test_max_seconds_stops_exploration(self):
        cfg = DampiConfig(max_seconds=0.0)  # budget exhausted immediately
        rep = DampiVerifier(
            wildcard_lattice, 4, cfg, kwargs={"receives": 3, "senders": 3}
        ).verify()
        assert rep.interleavings == 1  # only the self run
        assert rep.truncated

    def test_wall_seconds_recorded(self):
        rep = DampiVerifier(
            wildcard_lattice, 3, kwargs={"receives": 1, "senders": 2}
        ).verify()
        assert rep.wall_seconds >= 0.0


class TestErrorStrings:
    def test_deadlock_lists_blocked_ranks(self):
        e = DeadlockError({0: "wait on recv", 3: "barrier"})
        msg = str(e)
        assert "rank 0: wait on recv" in msg and "rank 3: barrier" in msg

    def test_abort_carries_code(self):
        e = AbortError(2, errorcode=9)
        assert "rank 2" in str(e) and "9" in str(e)

    def test_empty_deadlock(self):
        assert str(DeadlockError()) == "deadlock detected"


class TestBuiltinDatatypesAndOps:
    def test_extents(self):
        assert BYTE.extent == CHAR.extent == 1
        assert INT.extent == FLOAT.extent == 4
        assert LONG.extent == DOUBLE.extent == 8

    def test_builtin_ops_registry(self):
        assert set(BUILTIN_OPS) == {
            "MAX", "MIN", "SUM", "PROD", "LAND", "LOR", "BAND", "BOR",
        }
        assert BUILTIN_OPS["SUM"](2, 3) == 5

    def test_op_repr(self):
        assert "SUM" in repr(SUM)


class TestAdlbIntrospection:
    def test_workers_of_partition(self):
        from repro.adlb import AdlbContext

        def job(p):
            ctx = AdlbContext(p, num_servers=2)
            if ctx.rank == 0:
                assert ctx.workers_of(0) == {2, 4}
                assert ctx.workers_of(1) == {3, 5}
            if ctx.is_server:
                ctx.serve()
            else:
                ctx.finish()
            p.world.barrier()

        run_ok(job, 6)

    def test_stats_counters(self):
        from repro.adlb import AdlbContext

        collected = {}

        def job(p):
            ctx = AdlbContext(p, num_servers=1)
            if ctx.is_server:
                ctx.serve()
            else:
                ctx.put("a")
                ctx.get()
                ctx.finish()
                collected.update(ctx.stats)
            p.world.barrier()

        run_ok(job, 2)
        assert collected["puts"] == 1
        assert collected["gets"] == 2  # the real get + the finish drain


class TestExplorerStats:
    def test_auto_frozen_counter(self):
        from repro.dampi.explorer import ScheduleGenerator

        cfg = DampiConfig(auto_loop_threshold=1)
        v = DampiVerifier(wildcard_lattice, 3, cfg, kwargs={"receives": 3, "senders": 2})
        rep = v.verify()
        assert rep.interleavings == 2  # one explorable epoch

    def test_stats_dict_keys(self):
        from repro.dampi.explorer import ScheduleGenerator
        from tests.test_explorer import trace_with

        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1)], [(0, 0, 2)]))
        assert set(g.stats()) == {
            "path_length",
            "frozen_nodes",
            "open_alternatives",
            "divergences",
            "prunes",
            "replays_saved",
        }


class TestFreeModeWithNewFeatures:
    def test_icollectives_in_free_mode(self):
        def prog(p):
            req = p.world.iallreduce(1, op=SUM)
            req.wait()
            assert req.data == p.size

        for _ in range(3):
            run_ok(prog, 8)

    def test_ssend_in_free_mode(self):
        def prog(p):
            if p.rank == 0:
                p.world.ssend("x", dest=1)
            else:
                assert p.world.recv(source=0) == "x"

        for _ in range(3):
            run_ok(prog, 2)

    def test_scan_in_free_mode(self):
        def prog(p):
            assert p.world.scan(1, op=SUM) == p.rank + 1

        run_ok(prog, 8)
