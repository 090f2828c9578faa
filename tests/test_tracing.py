"""Operation tracing: Table I classification rules."""

from repro.mpi.constants import ANY_SOURCE, SUM

from benchmarks.comparators.opstats import CLASSIFICATION, OpClass, TraceModule
from tests.conftest import every_entry_point, run_ok


def traced(prog, nprocs, **kw):
    tm = TraceModule()
    res = run_ok(prog, nprocs, modules=[tm], **kw)
    return res.artifacts["trace"]


class TestClassification:
    def test_p2p_counts(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=1)  # isend + wait
            else:
                p.world.recv(source=0)  # irecv + wait

        report = traced(prog, 2)
        assert report.total(OpClass.SEND_RECV) == 2  # one isend + one irecv
        assert report.total(OpClass.WAIT) == 2

    def test_collective_counts(self):
        def prog(p):
            p.world.barrier()
            p.world.allreduce(1, op=SUM)
            p.world.bcast("x" if p.rank == 0 else None, root=0)

        report = traced(prog, 3)
        assert report.total(OpClass.COLLECTIVE) == 9

    def test_waitall_counts_once(self):
        def prog(p):
            if p.rank == 0:
                reqs = [p.world.irecv(source=1) for _ in range(4)]
                p.waitall(reqs)
            else:
                for i in range(4):
                    p.world.send(i, dest=0)

        report = traced(prog, 2)
        # rank 0: 1 waitall; rank 1: 4 send-side waits
        assert report.total(OpClass.WAIT) == 5

    def test_local_ops_excluded_from_all(self):
        def prog(p):
            dup = p.world.dup()
            dup.free()
            p.pcontrol(1)
            p.pcontrol(0)

        report = traced(prog, 2)
        # comm_dup is collective; free and pcontrol are local
        assert report.total() == report.total(OpClass.COLLECTIVE) == 2

    def test_per_proc_average(self):
        def prog(p):
            if p.rank == 0:
                for i in range(6):
                    p.world.send(i, dest=1)
            else:
                for _ in range(6):
                    p.world.recv(source=0)

        report = traced(prog, 2)
        assert report.per_proc(OpClass.SEND_RECV) == 6.0

    def test_row_keys_match_table1(self):
        def prog(p):
            p.world.barrier()

        report = traced(prog, 2)
        assert set(report.row()) == {
            "All",
            "All per proc",
            "Send-Recv",
            "Send-Recv per proc",
            "Collective",
            "Collective per proc",
            "Wait",
            "Wait per proc",
        }

    def test_probes_are_send_recv_class(self):
        assert CLASSIFICATION["probe"] is OpClass.SEND_RECV
        assert CLASSIFICATION["iprobe"] is OpClass.SEND_RECV

    def test_wildcard_traffic_counted_once(self):
        """DAMPI's piggyback traffic must not inflate application counts."""
        from repro.dampi.clock_module import DampiClockModule
        from repro.dampi.piggyback import PiggybackModule

        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=1)
            else:
                p.world.recv(source=ANY_SOURCE)

        tm = TraceModule()
        pb = PiggybackModule()
        res = run_ok(prog, 2, modules=[tm, DampiClockModule(pb), pb])
        report = res.artifacts["trace"]
        assert report.total(OpClass.SEND_RECV) == 2


class TestClassificationCompleteness:
    """Satellite: every interposable entry point must be classified, so a
    new entry point cannot silently fall out of Table I (a missing key
    would KeyError inside TraceModule._bump at runtime)."""

    def test_every_entry_point_is_classified(self):
        from repro.pnmpi.module import ENTRY_POINTS

        missing = [p for p in ENTRY_POINTS if p not in CLASSIFICATION]
        assert not missing, f"unclassified entry points: {missing}"

    def test_new_points_have_paper_classes(self):
        assert CLASSIFICATION["ssend"] is OpClass.SEND_RECV
        assert CLASSIFICATION["sendrecv"] is OpClass.SEND_RECV
        assert CLASSIFICATION["waitsome"] is OpClass.WAIT
        assert CLASSIFICATION["testall"] is OpClass.WAIT


class TestEveryEntryPoint:
    """Every wrapper of the module counts: one program calls each entry
    point, and the counts are worked out by hand from its source."""

    def test_hand_counted_classes_per_rank(self):
        report = traced(every_entry_point, 2)
        # rank 0 -- Send-Recv: isend a/e/f/g/h, issend b, ssend, sendrecv
        # (the batched ops count once, their constituents not at all);
        # Wait: test, waitall, waitany, waitsome, testall + the waits of
        # ibarrier/ibcast/iallreduce
        # rank 1 -- Send-Recv: probe, iprobe, 7 irecvs, sendrecv;
        # Wait: the 7 receive waits + the 3 icollective waits
        # both -- Collective: the 13 collectives plus comm_dup and
        # comm_split; comm_free/request_free/pcontrol/compute are local
        assert report.per_rank == [
            {OpClass.SEND_RECV: 8, OpClass.COLLECTIVE: 15, OpClass.WAIT: 8, OpClass.LOCAL: 0},
            {OpClass.SEND_RECV: 10, OpClass.COLLECTIVE: 15, OpClass.WAIT: 10, OpClass.LOCAL: 0},
        ]


class TestBatchedOpCounts:
    """ssend/sendrecv/waitsome/testall are compositions over instrumented
    constituents; Table I counts each as ONE application call."""

    def test_ssend_counts_once(self):
        def prog(p):
            if p.rank == 0:
                p.world.ssend("x", dest=1)
            else:
                p.world.recv(source=0)

        report = traced(prog, 2)
        # rank 0: 1 ssend; rank 1: 1 irecv (+1 wait)
        assert report.total(OpClass.SEND_RECV) == 2
        assert report.total(OpClass.WAIT) == 1

    def test_sendrecv_counts_once(self):
        def prog(p):
            peer = 1 - p.rank
            p.world.sendrecv(p.rank, dest=peer, source=peer)

        report = traced(prog, 2)
        assert report.total(OpClass.SEND_RECV) == 2  # one per rank
        assert report.total(OpClass.WAIT) == 0

    def test_waitsome_counts_once(self):
        def prog(p):
            if p.rank == 0:
                reqs = [p.world.irecv(source=1) for _ in range(3)]
                done = 0
                while done < 3:
                    indices, _ = p.waitsome(reqs)
                    done += len(indices)
                    reqs = [r for i, r in enumerate(reqs) if i not in indices]
            else:
                for i in range(3):
                    p.world.send(i, dest=0)

        report = traced(prog, 2)
        # rank 1: 3 send-side waits; rank 0: one Wait per waitsome round
        per0 = report.per_rank[0]
        assert per0[OpClass.WAIT] >= 1
        assert per0[OpClass.SEND_RECV] == 3  # the irecvs, outside any batch

    def test_testall_counts_once_per_call(self):
        def prog(p):
            if p.rank == 0:
                reqs = [p.world.irecv(source=1) for _ in range(2)]
                calls = 0
                while True:
                    calls += 1
                    ok, _ = p.testall(reqs)
                    if ok:
                        return calls
            else:
                p.world.send(0, dest=0)
                p.world.send(1, dest=0)

        tm = TraceModule()
        res = run_ok(prog, 2, modules=[tm])
        report = res.artifacts["trace"]
        calls = res.returns[0]
        # every testall call counts once; the consuming waits do not
        assert report.per_rank[0][OpClass.WAIT] == calls
