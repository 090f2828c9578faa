"""The ISP centralized baseline: costs, serialization, equivalent coverage."""

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.mpi.constants import ANY_SOURCE, SUM
from repro.mpi.runtime import run_program
from repro.workloads.patterns import fig3_program, fig4_program, wildcard_lattice

from benchmarks.comparators.isp import IspCostParams, IspInterpositionModule, IspVerifier
from tests.conftest import every_entry_point, run_ok


class TestSchedulerTax:
    def test_every_op_visits_the_scheduler(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=1)  # isend + wait
            else:
                p.world.recv(source=0)  # irecv + wait
            p.world.barrier()

        mod = IspInterpositionModule()
        res = run_ok(prog, 2, modules=[mod])
        stats = res.artifacts["isp"]
        assert stats["round_trips"] == 6

    def test_every_entry_point_hand_counted(self):
        """One program calls every entry point; each wrapper's visits are
        worked out by hand from its source.

        rank 0 (17): isend a/e/f/g/h, issend b (6); ssend = issend + wait
        (2); sendrecv = irecv + isend + 2 waits (4); test (1); waitall and
        waitany, one visit each with their inner wait suppressed (2);
        waitsome and testall are not wrapped, so only their inner waits
        visit (2).
        rank 1 (20): wildcard probe and iprobe (2); 7 receives = irecv +
        wait (14); sendrecv (4).
        both (20 each): 13 collectives, the 3 icollective waits, comm_dup,
        comm_split and 2 comm_frees.  request_free, pcontrol and compute
        are local and free.
        Wildcard visits: the probe, the iprobe and the first receive."""
        mod = IspInterpositionModule()
        res = run_ok(every_entry_point, 2, modules=[mod])
        stats = res.artifacts["isp"]
        assert stats["round_trips"] == 17 + 20 + 2 * 20
        assert stats["wildcard_round_trips"] == 3

    def test_wildcards_cost_more(self):
        params = IspCostParams(service=1e-6, wildcard_service=100e-6)

        def wild(p):
            if p.rank == 0:
                p.world.recv(source=ANY_SOURCE)
            else:
                p.world.send(1, dest=0)

        def det(p):
            if p.rank == 0:
                p.world.recv(source=1)
            else:
                p.world.send(1, dest=0)

        rw = run_ok(wild, 2, modules=[IspInterpositionModule(params)])
        rd = run_ok(det, 2, modules=[IspInterpositionModule(params)])
        assert rw.makespan > rd.makespan

    def test_serialization_grows_with_total_ops(self):
        """The scheduler queue makes time scale with *total* op count —
        doubling ranks (same per-rank work) roughly doubles time."""

        def prog(p):
            for _ in range(50):
                p.world.allreduce(1, op=SUM)

        t4 = run_ok(prog, 4, modules=[IspInterpositionModule()]).makespan
        t8 = run_ok(prog, 8, modules=[IspInterpositionModule()]).makespan
        assert t8 > 1.6 * t4

    def test_waitall_charged_once(self):
        def prog(p):
            if p.rank == 0:
                reqs = [p.world.irecv(source=1) for _ in range(4)]
                p.waitall(reqs)
            else:
                for i in range(4):
                    p.world.send(i, dest=0)

        mod = IspInterpositionModule()
        res = run_ok(prog, 2, modules=[mod])
        # rank0: 4 irecv + 1 waitall; rank1: 4 isend + 4 wait = 13
        assert res.artifacts["isp"]["round_trips"] == 13

    def test_dampi_has_no_central_visits(self):
        rep = DampiVerifier(fig3_program, 3).verify()
        v = IspVerifier(fig3_program, 3)
        try:
            result, _trace = v.run_once()
        finally:
            v.close()
        assert result.artifacts["isp"]["round_trips"] > 0


class TestIspVerifier:
    def test_finds_fig3_bug(self):
        rep = IspVerifier(fig3_program, 3).verify()
        assert any(e.kind == "crash" for e in rep.errors)

    def test_complete_on_fig4(self):
        """ISP's centralized view is complete where Lamport-DAMPI is not."""
        rep = IspVerifier(fig4_program, 4).verify()
        assert rep.interleavings == 3

    def test_same_interleavings_as_dampi_on_lattice(self):
        kwargs = {"receives": 2, "senders": 3}
        ri = IspVerifier(wildcard_lattice, 4, kwargs=kwargs).verify()
        rd = DampiVerifier(wildcard_lattice, 4, kwargs=kwargs).verify()
        assert ri.interleavings == rd.interleavings == 9
        assert ri.outcomes == rd.outcomes

    def test_isp_slower_than_dampi(self):
        kwargs = {"receives": 2, "senders": 2}
        ri = IspVerifier(wildcard_lattice, 3, kwargs=kwargs).verify()
        rd = DampiVerifier(wildcard_lattice, 3, kwargs=kwargs).verify()
        assert ri.total_vtime > 3 * rd.total_vtime

    def test_config_forced_to_vector(self):
        v = IspVerifier(fig3_program, 3, DampiConfig(clock_impl="lamport"))
        assert v.config.clock_impl == "vector"

    def test_leaves_the_callers_config_as_it_was(self):
        """The comparator charges ISP's socket latency on its own engine's
        cost model: the caller's config, and the DAMPI runs that reuse it,
        keep theirs (a benchmark runs both on one config)."""
        cfg = DampiConfig()
        before = DampiVerifier(wildcard_lattice, 3, cfg).run_once()[0].makespan
        isp, _ = IspVerifier(wildcard_lattice, 3, cfg).run_once()
        assert cfg == DampiConfig()
        assert DampiVerifier(wildcard_lattice, 3, cfg).run_once()[0].makespan == before
        assert isp.makespan > before
