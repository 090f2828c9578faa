"""Leak checker as a standalone module, and the §V omission monitor under
the DAMPI clock module that keeps its windows."""

import pytest

from repro.dampi.clock_module import DampiClockModule
from repro.dampi.config import DampiConfig
from repro.dampi.leaks import LeakCheckModule, LeakReport
from repro.dampi.monitor import OmissionMonitorModule
from repro.dampi.piggyback import PiggybackModule
from repro.dampi.verifier import DampiVerifier
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.runtime import run_program

from tests.conftest import run_ok


def leaks_of(prog, nprocs):
    res = run_ok(prog, nprocs, modules=[LeakCheckModule()])
    return res.artifacts["leaks"]


def alerts_of(prog, nprocs):
    monitor = OmissionMonitorModule()
    pb = PiggybackModule()
    clock = DampiClockModule(pb, monitor=monitor)
    res = run_ok(prog, nprocs, modules=[monitor, clock, pb])
    return res.artifacts["monitor"]


class TestLeakChecker:
    def test_clean_program(self):
        def prog(p):
            dup = p.world.dup()
            if p.rank == 0:
                dup.send("x", dest=1)
            elif p.rank == 1:
                dup.recv(source=0)
            dup.free()

        assert leaks_of(prog, 3).clean

    def test_unfreed_dup_is_comm_leak(self):
        def prog(p):
            p.world.dup()

        report = leaks_of(prog, 2)
        assert report.has_comm_leak
        assert len(report.comm_leaks) == 2  # one per rank
        assert not report.has_request_leak

    def test_unfreed_split_is_comm_leak(self):
        def prog(p):
            p.world.split(color=0, key=p.rank)

        assert leaks_of(prog, 2).has_comm_leak

    def test_world_is_not_a_leak(self):
        def prog(p):
            p.world.barrier()

        assert leaks_of(prog, 2).clean

    def test_pending_request_at_finalize(self):
        def prog(p):
            if p.rank == 0:
                p.world.irecv(source=1, tag=77)  # never completed

        report = leaks_of(prog, 2)
        assert report.has_request_leak
        assert "pending at MPI_Finalize" in str(report.request_leaks[0])

    def test_completed_but_unwaited_request(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("m", dest=1)
            else:
                p.world.irecv(source=0)  # matches but is never waited
                p.world.barrier()
            if p.rank == 0:
                p.world.barrier()

        report = leaks_of(prog, 2)
        assert any("never waited" in str(l) for l in report.request_leaks)

    def test_freed_active_request(self):
        def prog(p):
            req = p.world.irecv(source=0, tag=50)
            req.free()
            if p.rank == 0:
                pass

        report = leaks_of(prog, 1)
        assert any("freed while still active" in str(l) for l in report.request_leaks)

    def test_waited_requests_not_leaks(self):
        def prog(p):
            if p.rank == 0:
                reqs = [p.world.isend(i, dest=1) for i in range(3)]
                p.waitall(reqs)
            else:
                for _ in range(3):
                    p.world.recv(source=0)

        assert leaks_of(prog, 2).clean

    def test_unwaited_issend(self):
        def prog(p):
            if p.rank == 0:
                p.world.issend("s", dest=1)  # matched, never waited
            else:
                p.world.recv(source=0)
            p.world.barrier()

        report = leaks_of(prog, 2)
        assert [str(l) for l in report.request_leaks] == [
            "rank 0: send request #1 completed but never waited/tested"
        ]

    def test_unwaited_ibarrier(self):
        def prog(p):
            p.world.ibarrier()

        report = leaks_of(prog, 2)
        assert [(l.rank, l.kind) for l in report.request_leaks] == [
            (0, "coll"), (1, "coll")
        ]

    def test_unwaited_ibcast(self):
        def prog(p):
            if p.rank == 0:
                p.world.ibcast("b", root=0)
            else:
                p.world.ibcast(None, root=0).wait()

        report = leaks_of(prog, 2)
        assert [(l.rank, l.kind) for l in report.request_leaks] == [(0, "coll")]

    def test_unwaited_iallreduce_pending_at_finalize(self):
        def prog(p):
            if p.rank == 0:
                p.world.iallreduce(1)  # rank 1 never joins

        report = leaks_of(prog, 2)
        assert [str(l) for l in report.request_leaks] == [
            "rank 0: coll request #1 pending at MPI_Finalize"
        ]

    def test_unwaited_proc_null_isend(self):
        from repro.mpi.constants import PROC_NULL

        def prog(p):
            p.world.isend("void", dest=PROC_NULL)

        report = leaks_of(prog, 1)
        assert [str(l) for l in report.request_leaks] == [
            "rank 0: send request #1 completed but never waited/tested"
        ]

    def test_leak_order_comms_live_then_freed(self):
        def prog(p):
            first = p.world.irecv(source=0, tag=1)
            p.world.irecv(source=0, tag=2)
            p.world.dup()
            p.world.dup().free()
            p.world.split(color=0, key=0)
            first.free()

        report = leaks_of(prog, 1)
        assert [str(l) for l in report.comm_leaks] == [
            "rank 0: communicator world.dup (ctx 1) never freed",
            "rank 0: communicator world.split0 (ctx 3) never freed",
        ]
        assert [str(l) for l in report.request_leaks] == [
            "rank 0: recv request #2 pending at MPI_Finalize",
            "rank 0: recv request #1 freed while still active",
        ]

    def test_only_finalize_is_wrapped(self):
        from repro.pnmpi.module import ENTRY_POINTS

        assert [p for p in ENTRY_POINTS if LeakCheckModule().overrides(p)] == [
            "finalize"
        ]

    def test_unwaited_ibarrier_under_the_dampi_stack(self):
        # the clock module's shadow iallreduce rides a tool context and
        # is never waited either; only the user's request is a leak
        def prog(p):
            p.world.ibarrier()

        rep = DampiVerifier(prog, 3).verify()
        leaks = sorted(e.detail for e in rep.errors if e.kind == "request_leak")
        assert [d.split(":")[0] for d in leaks] == ["rank 0", "rank 1", "rank 2"]
        assert all("coll request" in d for d in leaks)

    def test_report_merge_and_str(self):
        a, b = LeakReport(), LeakReport()
        assert str(a) == "no leaks"
        from repro.dampi.leaks import CommLeak

        b.comm_leaks.append(CommLeak(0, 5, "world.dup"))
        a.merge(b)
        assert a.has_comm_leak and "world.dup" in str(a)


class TestOmissionMonitor:
    def test_send_between_irecv_and_wait(self):
        def prog(p):
            if p.rank == 0:
                req = p.world.irecv(source=ANY_SOURCE)
                p.world.send("escape", dest=1)  # clock escapes here
                req.wait()
            elif p.rank == 1:
                p.world.recv(source=0)
                p.world.send("m", dest=0)

        report = alerts_of(prog, 2)
        assert report.triggered
        assert report.alerts[0].operation == "isend"

    def test_collective_between_irecv_and_wait(self):
        from repro.workloads.patterns import fig10_program

        report = alerts_of(fig10_program, 3)
        assert report.triggered
        assert report.alerts[0].operation == "barrier"

    def test_wait_before_transmission_is_clean(self):
        def prog(p):
            if p.rank == 0:
                req = p.world.irecv(source=ANY_SOURCE)
                req.wait()
                p.world.send("after", dest=1)
            elif p.rank == 1:
                p.world.send("m", dest=0)
                p.world.recv(source=0)

        assert not alerts_of(prog, 2).triggered

    def test_deterministic_irecv_not_monitored(self):
        def prog(p):
            if p.rank == 0:
                req = p.world.irecv(source=1)
                p.world.barrier()
                req.wait()
            else:
                p.world.send("m", dest=0)
                p.world.barrier()

        assert not alerts_of(prog, 2).triggered

    def test_test_completion_closes_window(self):
        def prog(p):
            if p.rank == 0:
                req = p.world.irecv(source=ANY_SOURCE)
                while not req.test()[0]:
                    pass
                p.world.send("after-test", dest=1)
            else:
                p.world.send("m", dest=0)
                p.world.recv(source=0)

        assert not alerts_of(prog, 2).triggered

    def test_request_free_closes_window(self):
        def prog(p):
            if p.rank == 0:
                req = p.world.irecv(source=ANY_SOURCE, tag=3)
                req.free()
                p.world.barrier()
            else:
                p.world.barrier()

        assert not alerts_of(prog, 2).triggered

    def test_alert_counts_outstanding(self):
        def prog(p):
            if p.rank == 0:
                r1 = p.world.irecv(source=ANY_SOURCE, tag=1)
                r2 = p.world.irecv(source=ANY_SOURCE, tag=2)
                p.world.send("boom", dest=1)
                r1.wait()
                r2.wait()
            elif p.rank == 1:
                p.world.recv(source=0)
                p.world.send("a", dest=0, tag=1)
                p.world.send("b", dest=0, tag=2)

        report = alerts_of(prog, 2)
        assert len(report.alerts[0].outstanding_wildcards) == 2

    def test_a_monitor_no_clock_reports_to_refuses_to_run(self):
        """A bare monitor wraps nothing; on a stack without the clock
        module that reports to it, it would read "no §V pattern"."""

        def prog(p):
            p.world.barrier()

        with pytest.raises(RuntimeError, match="DampiClockModule"):
            run_program(prog, 2, modules=[OmissionMonitorModule(), PiggybackModule()])


class TestCheckersOnPersistentSession:
    """A verifier's one runtime reuses module instances across runs (their
    per-run state is reset by ``setup``); the leak checker and the
    omission monitor must keep firing — identically — on pooled runs."""

    def test_leak_check_fires_on_pooled_runs(self):
        from repro.workloads.patterns import orphan_resources_program

        v = DampiVerifier(orphan_resources_program, 3)
        try:
            reports = []
            for _ in range(3):  # all three on one runtime's rank threads
                result, _ = v.run_once()
                reports.append(result.artifacts["leaks"])
            assert v._runtime._pool.generations == 3
        finally:
            v.close()
        first = reports[0]
        assert first.has_comm_leak and first.has_request_leak
        for rep in reports[1:]:  # identical every run: no carry-over, no loss
            assert rep.has_comm_leak and rep.has_request_leak
            assert len(rep.comm_leaks) == len(first.comm_leaks)
            assert len(rep.request_leaks) == len(first.request_leaks)
            assert [str(l) for l in rep.comm_leaks] == [
                str(l) for l in first.comm_leaks
            ]

    def test_monitor_fires_on_pooled_runs(self):
        from repro.workloads.patterns import fig10_program

        v = DampiVerifier(fig10_program, 3)
        try:
            reports = []
            for _ in range(3):
                result, _ = v.run_once()
                reports.append(result.artifacts["monitor"])
            assert v._runtime._pool.generations == 3
        finally:
            v.close()
        for rep in reports:
            assert rep.triggered
            assert len(rep.alerts) == len(reports[0].alerts)
            assert rep.alerts[0].rank == 1 and rep.alerts[0].operation == "barrier"

    def test_clean_program_stays_clean_on_pooled_runs(self):
        def prog(p):
            dup = p.world.dup()
            dup.barrier()
            dup.free()

        v = DampiVerifier(prog, 2)
        try:
            for _ in range(3):
                result, _ = v.run_once()
                assert result.artifacts["leaks"].clean
                assert not result.artifacts["monitor"].triggered
        finally:
            v.close()
