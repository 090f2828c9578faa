"""Workload skeletons: they run clean, and their calibration targets hold."""

import numpy as np
import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier, measure_slowdown
from repro.workloads.matmult import matmult_abstracted, matmult_program
from repro.workloads.nas import NAS_PROGRAMS
from repro.workloads.parmetis import neighbor_count, parmetis_program, round_count
from repro.workloads.specmpi import SPEC_PROGRAMS
from repro.workloads.stencils import grid_partners, payload_of, ring_partners

from benchmarks.comparators.opstats import OpClass, TraceModule
from tests.conftest import run_ok


class TestStencils:
    def test_ring_partners_symmetric(self):
        for size in (4, 7, 16):
            for rank in range(size):
                for peer in ring_partners(rank, size, 4):
                    assert rank in ring_partners(peer, size, 4)

    def test_grid_partners_symmetric(self):
        for size in (4, 6, 9, 16):
            for rank in range(size):
                for peer in grid_partners(rank, size):
                    assert rank in grid_partners(peer, size), (size, rank, peer)

    def test_no_self_partner(self):
        for size in (2, 5, 8):
            for rank in range(size):
                assert rank not in ring_partners(rank, size, 6)
                assert rank not in grid_partners(rank, size)

    def test_payload_size(self):
        from repro.mpi.datatypes import sizeof

        assert abs(sizeof(payload_of(4096)) - 4096) < 64


class TestMatmult:
    def test_product_is_correct(self):
        res = run_ok(matmult_program, 4, kwargs={"n": 12, "blocks_per_slave": 2})
        a = res.returns[0]
        assert a.shape == (12, 12)

    def test_needs_two_ranks(self):
        from repro.mpi.runtime import run_program

        res = run_program(matmult_program, 1)
        assert any(isinstance(e, ValueError) for e in res.primary_errors.values())

    def test_every_interleaving_preserves_product(self):
        rep = DampiVerifier(
            matmult_program, 3, kwargs={"n": 8, "blocks_per_slave": 2}
        ).verify()
        assert rep.ok, rep.summary()
        assert rep.interleavings >= 4

    def test_abstracted_variant_explores_once(self):
        rep = DampiVerifier(
            matmult_abstracted, 3, kwargs={"n": 8, "blocks_per_slave": 2}
        ).verify()
        assert rep.interleavings == 1
        assert rep.ok

    def test_wildcard_count(self):
        rep = DampiVerifier(
            matmult_program, 4, DampiConfig(max_interleavings=1),
            kwargs={"n": 8, "blocks_per_slave": 3},
        ).verify()
        assert rep.wildcards_analyzed == 9  # blocks_per_slave * nslaves


class TestParmetis:
    def test_deterministic_and_clean_except_planted_leak(self):
        from repro.dampi.leaks import LeakCheckModule

        res = run_ok(
            parmetis_program, 4, modules=[LeakCheckModule()], kwargs={"scale": 0.005}
        )
        leaks = res.artifacts["leaks"]
        assert leaks.has_comm_leak  # the planted ParMETIS C-Leak
        assert not leaks.has_request_leak

    def test_no_wildcards(self):
        cfg = DampiConfig(max_interleavings=2, enable_leak_check=False)
        rep = DampiVerifier(
            parmetis_program, 4, cfg, kwargs={"scale": 0.005}
        ).verify()
        assert rep.wildcards_analyzed == 0
        assert rep.interleavings == 1

    def test_op_growth_matches_table1_shape(self):
        """Total ops grow much faster than per-proc ops (Table I's point)."""
        rows = {}
        for np_ in (8, 16):
            tm = TraceModule()
            res = run_ok(parmetis_program, np_, modules=[tm], kwargs={"scale": 0.02})
            rows[np_] = res.artifacts["trace"]
        total_growth = rows[16].total() / rows[8].total()
        pp_growth = rows[16].per_proc() / rows[8].per_proc()
        assert total_growth > 1.9  # paper: ~2.5x per doubling
        assert 1.0 < pp_growth < 1.6  # paper: ~1.3x per doubling

    def test_collectives_per_proc_shrink(self):
        rows = {}
        for np_ in (8, 32):
            tm = TraceModule()
            res = run_ok(parmetis_program, np_, modules=[tm], kwargs={"scale": 0.02})
            rows[np_] = res.artifacts["trace"]
        assert rows[32].per_proc(OpClass.COLLECTIVE) < rows[8].per_proc(
            OpClass.COLLECTIVE
        )

    def test_knob_functions(self):
        assert neighbor_count(8) >= 2
        assert neighbor_count(128) > neighbor_count(8)
        assert round_count(0.5) == round_count(1.0) // 2


@pytest.mark.parametrize("name", sorted(NAS_PROGRAMS))
def test_nas_skeleton_runs_clean(name):
    prog, kwargs = NAS_PROGRAMS[name]
    run_ok(prog, 16, kwargs=kwargs)


@pytest.mark.parametrize("name", sorted(SPEC_PROGRAMS))
def test_spec_skeleton_runs_clean(name):
    prog, kwargs = SPEC_PROGRAMS[name]
    run_ok(prog, 16, kwargs=kwargs)


class TestTable2Properties:
    def test_wildcard_counts_scale_with_ranks(self):
        from repro.workloads.specmpi import milc_program, spec_lu_program
        from repro.workloads.nas import lu_program

        cfg = DampiConfig(enable_monitor=False)
        m = measure_slowdown(milc_program, 16, cfg, kwargs={"iters": 10})
        assert m["wildcards"] == 16 * 10
        m = measure_slowdown(lu_program, 16, cfg)
        # one wildcard per rank that has an upstream neighbour in its chain
        assert m["wildcards"] == 15
        m = measure_slowdown(spec_lu_program, 16, cfg, kwargs={"wildcard_budget": 5})
        assert m["wildcards"] == 4  # ranks 1..4 (rank 0 has no upstream)

    def test_planted_leaks_locations(self):
        from repro.workloads.nas import bt_program, cg_program, ft_program

        cfg = DampiConfig(enable_monitor=False)
        assert measure_slowdown(bt_program, 8, cfg)["comm_leak"]
        assert measure_slowdown(ft_program, 8, cfg)["comm_leak"]
        assert not measure_slowdown(cg_program, 8, cfg)["comm_leak"]

    def test_milc_is_much_slower_than_ep(self):
        from repro.workloads.nas import ep_program
        from repro.workloads.specmpi import milc_program

        cfg = DampiConfig(enable_monitor=False)
        milc = measure_slowdown(milc_program, 16, cfg)["slowdown"]
        ep = measure_slowdown(ep_program, 16, cfg)["slowdown"]
        assert milc > 4 * ep
