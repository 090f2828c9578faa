"""Process groups, comm_create, Cartesian topologies, truncation."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidRankError, MPIError, TruncationError
from repro.mpi.groups import CartTopology, Group, dims_create
from repro.mpi.runtime import run_program

from tests.conftest import run_ok


class TestGroupAlgebra:
    def test_construction_rejects_duplicates(self):
        with pytest.raises(MPIError):
            Group([0, 1, 1])

    def test_incl_excl(self):
        g = Group([10, 20, 30, 40])
        assert g.incl([2, 0]).ranks == (30, 10)
        assert g.excl([1, 3]).ranks == (10, 30)
        with pytest.raises(InvalidRankError):
            g.incl([9])
        with pytest.raises(InvalidRankError):
            g.excl([9])

    def test_union_keeps_mpi_order(self):
        a, b = Group([1, 2, 3]), Group([3, 4, 2])
        assert a.union(b).ranks == (1, 2, 3, 4)

    def test_intersection_and_difference(self):
        a, b = Group([1, 2, 3, 4]), Group([4, 2])
        assert a.intersection(b).ranks == (2, 4)
        assert a.difference(b).ranks == (1, 3)

    def test_equality_is_by_ordered_members(self):
        assert Group([1, 2]) == Group([1, 2]) != Group([2, 1])
        assert Group([1, 2]) != (1, 2)
        assert len({Group([1, 2]), Group([1, 2]), Group([2, 1])}) == 2

    def test_rank_of_and_contains(self):
        g = Group([5, 7])
        assert g.rank_of(7) == 1
        assert g.rank_of(6) is None
        assert 5 in g and 6 not in g

    @given(
        a=st.lists(st.integers(min_value=0, max_value=15), unique=True, max_size=8),
        b=st.lists(st.integers(min_value=0, max_value=15), unique=True, max_size=8),
    )
    def test_algebra_properties(self, a, b):
        ga, gb = Group(a), Group(b)
        u = ga.union(gb)
        i = ga.intersection(gb)
        d = ga.difference(gb)
        assert set(u.ranks) == set(a) | set(b)
        assert set(i.ranks) == set(a) & set(b)
        assert set(d.ranks) == set(a) - set(b)
        assert i.size + d.size == ga.size


class TestCommCreate:
    def test_subgroup_communicator(self):
        def prog(p):
            evens = p.world.group_of().incl([0, 2])
            sub = p.world.create(evens)
            if p.rank in (0, 2):
                assert sub.size == 2
                assert sub.rank == (0 if p.rank == 0 else 1)
                assert sub.group == (0, 2)  # members' world ranks
                assert sub.allreduce(1) == 2
                sub.free()
            else:
                assert sub is None

        run_ok(prog, 4)

    def test_group_order_defines_ranks(self):
        def prog(p):
            reordered = p.world.group_of().incl([2, 0, 1])
            sub = p.world.create(reordered)
            # world rank 2 becomes sub rank 0, etc.
            expect = {2: 0, 0: 1, 1: 2}[p.rank]
            assert sub.rank == expect
            sub.free()

        run_ok(prog, 3)


class TestDimsCreate:
    def test_balanced_factorisation(self):
        assert dims_create(16, 2) == [4, 4]
        assert dims_create(12, 2) == [4, 3]
        assert dims_create(8, 3) == [2, 2, 2]
        assert dims_create(7, 2) == [7, 1]

    def test_product_invariant(self):
        for n in range(1, 65):
            for nd in (1, 2, 3):
                dims = dims_create(n, nd)
                prod = 1
                for d in dims:
                    prod *= d
                assert prod == n
                assert dims == sorted(dims, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            dims_create(0, 2)


class TestCartTopology:
    def test_coords_roundtrip(self):
        topo = CartTopology((3, 4), (False, False))
        for r in range(12):
            assert topo.rank(topo.coords(r)) == r

    def test_shift_interior(self):
        topo = CartTopology((3, 3), (False, False))
        src, dst = topo.shift(4, 0)  # centre cell, row dimension
        assert (src, dst) == (1, 7)

    def test_shift_boundary_nonperiodic(self):
        topo = CartTopology((3,), (False,))
        src, dst = topo.shift(0, 0)
        assert src is None and dst == 1
        src, dst = topo.shift(2, 0)
        assert src == 1 and dst is None

    def test_shift_periodic_wraps(self):
        topo = CartTopology((4,), (True,))
        src, dst = topo.shift(0, 0)
        assert (src, dst) == (3, 1)

    def test_neighbors(self):
        topo = CartTopology((2, 2), (False, False))
        assert sorted(topo.neighbors(0)) == [1, 2]
        ring = CartTopology((4,), (True,))
        assert sorted(ring.neighbors(1)) == [0, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            CartTopology((2, 2), (False,))
        with pytest.raises(InvalidRankError):
            CartTopology((2,), (False,)).coords(5)

    def test_cart_create_halo_exchange(self):
        """The classic pattern: build a periodic 2-D grid and do one halo
        exchange along each dimension using cart shifts."""

        def prog(p):
            dims = dims_create(p.size, 2)
            grid, topo = p.world.cart_create(dims, periods=(True, True))
            total = 0
            for dim in range(2):
                src, dst = topo.shift(grid.rank, dim)
                got = grid.sendrecv(grid.rank, dest=dst, source=src, sendtag=dim, recvtag=dim)
                assert got == src
                total += got
            grid.free()
            return total

        run_ok(prog, 6)

    def test_cart_create_excludes_extra_ranks(self):
        def prog(p):
            grid, topo = p.world.cart_create((2, 2))
            if p.rank < 4:
                assert grid.size == 4
                grid.free()
            else:
                assert grid is None

        run_ok(prog, 5)

    def test_cart_too_big_rejected(self):
        def prog(p):
            p.world.cart_create((4, 4))

        res = run_program(prog, 4)
        assert any(isinstance(e, MPIError) for e in res.primary_errors.values())


class TestTruncation:
    def test_oversized_message_raises_at_wait(self):
        def prog(p):
            if p.rank == 0:
                p.world.send([1, 2, 3, 4, 5], dest=1)
            else:
                p.world.recv(source=0, max_count=3)

        res = run_program(prog, 2)
        assert any(
            isinstance(e, TruncationError) for e in res.primary_errors.values()
        )

    def test_exact_fit_is_fine(self):
        def prog(p):
            if p.rank == 0:
                p.world.send([1, 2, 3], dest=1)
            else:
                assert p.world.recv(source=0, max_count=3) == [1, 2, 3]

        run_ok(prog, 2)

    def test_unbounded_by_default(self):
        def prog(p):
            if p.rank == 0:
                p.world.send(list(range(1000)), dest=1)
            else:
                p.world.recv(source=0)

        run_ok(prog, 2)
