"""Stress and scale tests: contended programs, larger rank counts."""

import pytest

from repro.adlb import adlb_run, batch_app
from repro.dampi.clock_module import DampiClockModule
from repro.dampi.piggyback import PiggybackModule
from repro.mpi.constants import ANY_SOURCE, SUM
from repro.mpi.runtime import run_program

from tests.conftest import run_ok


class TestFreeModeStress:
    """Contended programs (many-to-one funnels, collective storms, ADLB,
    an instrumented self run): every semantic invariant must survive the
    token hand-offs they force."""

    def test_funnel_conserves_messages(self):
        def prog(p):
            if p.rank == 0:
                got = sorted(
                    p.world.recv(source=ANY_SOURCE) for _ in range(3 * (p.size - 1))
                )
                assert got == sorted(list(range(1, p.size)) * 3)
            else:
                for _ in range(3):
                    p.world.send(p.rank, dest=0)

        for _ in range(5):
            run_ok(prog, 8)

    def test_collectives_under_contention(self):
        def prog(p):
            total = 0
            for i in range(20):
                total = p.world.allreduce(p.rank + i, op=SUM)
            return total

        res = run_ok(prog, 12)
        assert len(set(res.returns.values())) == 1

    def test_adlb_in_free_mode(self):
        def job(p):
            return adlb_run(p, batch_app, num_servers=2, units_per_worker=2)

        for _ in range(3):
            res = run_ok(job, 8)
            total = sum(v[0] for v in res.returns.values() if v is not None)
            assert total == 12

    def test_dampi_self_run_in_free_mode(self):
        """DAMPI's analysis of a six-rank funnel: every wildcard epoch is
        recorded and matched."""

        def prog(p):
            if p.rank == 0:
                for _ in range(p.size - 1):
                    p.world.recv(source=ANY_SOURCE)
            else:
                p.world.send(p.rank, dest=0)

        pb = PiggybackModule()
        cm = DampiClockModule(pb)
        res = run_program(prog, 6, modules=[cm, pb])
        res.raise_any()
        trace = res.artifacts["dampi"]
        assert trace.wildcard_count == 5
        assert all(e.matched_source is not None for e in trace.all_epochs())


class TestScale:
    def test_512_ranks_collectives(self):
        def prog(p):
            assert p.world.allreduce(1, op=SUM) == p.size
            assert p.world.scan(1, op=SUM) == p.rank + 1
            p.world.barrier()

        run_ok(prog, 512)

    def test_256_ranks_instrumented(self):
        def prog(p):
            right = (p.rank + 1) % p.size
            left = (p.rank - 1) % p.size
            req = p.world.irecv(source=left)
            p.world.send(p.rank, dest=right)
            req.wait()
            p.world.allreduce(1, op=SUM)

        pb = PiggybackModule()
        cm = DampiClockModule(pb)
        res = run_program(prog, 256, modules=[cm, pb])
        res.raise_any()

    def test_deep_split_tree(self):
        def prog(p):
            comm = p.world
            created = []
            while comm.size > 1:
                comm = comm.split(color=comm.rank // (comm.size // 2 or 1), key=comm.rank)
                created.append(comm)
            for c in reversed(created):
                c.free()

        run_ok(prog, 16)

    def test_many_outstanding_requests(self):
        def prog(p):
            if p.rank == 0:
                reqs = [p.world.irecv(source=1, tag=i) for i in range(200)]
                p.waitall(reqs)
                assert sorted(r.data for r in reqs) == list(range(200))
            else:
                for i in range(200):
                    p.world.send(i, dest=0, tag=i)

        run_ok(prog, 2)
