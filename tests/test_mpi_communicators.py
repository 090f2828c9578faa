"""Communicator management: dup, split, free, rank translation."""

import pytest

from repro.errors import InvalidCommunicatorError, InvalidRankError
from repro.mpi.constants import UNDEFINED
from repro.mpi.communicator import CommContext
from repro.mpi.runtime import run_program

from tests.conftest import run_ok


class TestCommContext:
    def test_rank_translation(self):
        ctx = CommContext(5, group=(3, 7, 9))
        assert ctx.rank_of(7) == 1
        assert ctx.world_rank(2) == 9

    def test_rank_translation_errors(self):
        ctx = CommContext(5, group=(3, 7))
        with pytest.raises(InvalidRankError):
            ctx.rank_of(4)
        with pytest.raises(InvalidRankError):
            ctx.world_rank(2)

    def test_send_seq_per_stream(self):
        ctx = CommContext(1, group=(0, 1, 2))
        assert ctx.next_send_seq(0, 1) == 0
        assert ctx.next_send_seq(0, 1) == 1
        assert ctx.next_send_seq(0, 2) == 0  # independent stream

    def test_fully_freed(self):
        ctx = CommContext(1, group=(0, 1))
        assert not ctx.is_fully_freed()
        ctx.freed_by.update({0, 1})
        assert ctx.is_fully_freed()


class TestDup:
    def test_dup_same_group_fresh_context(self):
        def prog(p):
            dup = p.world.dup()
            assert dup.size == p.world.size
            assert dup.rank == p.world.rank
            assert dup.ctx != p.world.ctx
            dup.free()

        run_ok(prog, 3)

    def test_all_ranks_share_the_dup_context(self):
        def prog(p):
            dup = p.world.dup()
            ids = p.world.allgather(dup.ctx)
            assert len(set(ids)) == 1
            dup.free()

        run_ok(prog, 4)


class TestSplit:
    def test_split_groups_and_ranks(self):
        def prog(p):
            sub = p.world.split(color=p.rank // 2, key=p.rank)
            assert sub.size == 2
            assert sub.rank == p.rank % 2
            sub.free()

        run_ok(prog, 6)

    def test_split_key_orders_ranks(self):
        def prog(p):
            # reversed key: higher world rank gets lower sub rank
            sub = p.world.split(color=0, key=-p.rank)
            assert sub.rank == p.size - 1 - p.rank
            sub.free()

        run_ok(prog, 4)

    def test_split_undefined_yields_none(self):
        def prog(p):
            sub = p.world.split(color=UNDEFINED if p.rank == 0 else 1, key=0)
            if p.rank == 0:
                assert sub is None
            else:
                assert sub.size == p.size - 1
                sub.free()

        run_ok(prog, 4)

    def test_split_negative_color_rejected(self):
        def prog(p):
            p.world.split(color=-3, key=0)

        res = run_program(prog, 2)
        assert not res.ok

    def test_nested_split(self):
        def prog(p):
            half = p.world.split(color=p.rank // 4, key=p.rank)
            quarter = half.split(color=half.rank // 2, key=half.rank)
            assert quarter.size == 2
            total = quarter.allreduce(1)
            assert total == 2
            quarter.free()
            half.free()

        run_ok(prog, 8)


class TestFree:
    def test_use_after_local_free_rejected(self):
        def prog(p):
            dup = p.world.dup()
            dup.free()
            dup.barrier()

        res = run_program(prog, 2)
        assert any(
            isinstance(e, InvalidCommunicatorError)
            for e in res.primary_errors.values()
        )

    def test_double_free_rejected(self):
        def prog(p):
            dup = p.world.dup()
            # bypass the handle's own freed flag so the engine's
            # double-free check is what fires
            p.pmpi.comm_free(dup)
            p.pmpi.comm_free(dup)

        res = run_program(prog, 2)
        assert any(
            isinstance(e, InvalidCommunicatorError)
            for e in res.primary_errors.values()
        )

    def test_traffic_on_fully_freed_context_rejected(self):
        def prog(p):
            dup = p.world.dup()
            ctx = dup.context
            p.world.barrier()
            dup.free()
            p.world.barrier()  # now everyone freed it
            if p.rank == 0:
                p.engine.pmpi_isend(0, ctx.ctx, "zombie", 1, 0)

        res = run_program(prog, 2)
        assert any(
            isinstance(e, InvalidCommunicatorError)
            for e in res.primary_errors.values()
        )
