"""Point-to-point semantics of the simulated MPI runtime."""

import pytest

from repro.errors import (
    DeadlockError,
    InvalidRankError,
    InvalidRequestError,
    InvalidTagError,
)
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.mpi.request import Status
from repro.mpi.runtime import run_program

from tests.conftest import run_ok


class TestBasicTransfer:
    def test_send_recv_payload(self):
        def prog(p):
            if p.rank == 0:
                p.world.send({"k": [1, 2]}, dest=1, tag=4)
            else:
                st = Status()
                got = p.world.recv(source=0, tag=4, status=st)
                assert got == {"k": [1, 2]}
                assert st.source == 0 and st.tag == 4

        run_ok(prog, 2)

    def test_isend_irecv_wait(self):
        def prog(p):
            if p.rank == 0:
                req = p.world.isend("x", dest=1)
                st = req.wait()
                assert req.is_complete
            else:
                req = p.world.irecv(source=0)
                st = req.wait()
                assert req.data == "x"
                assert st.get_count() == 1

        run_ok(prog, 2)

    def test_self_send(self):
        def prog(p):
            req = p.world.irecv(source=0, tag=1)
            p.world.send("me", dest=0, tag=1)
            assert req.wait().source == 0
            assert req.data == "me"

        run_ok(prog, 1)

    def test_proc_null_transfers_complete_immediately(self):
        def prog(p):
            p.world.send("void", dest=PROC_NULL)
            got = p.world.recv(source=PROC_NULL)
            assert got is None

        run_ok(prog, 1)

    def test_get_count_of_list_payload(self):
        def prog(p):
            if p.rank == 0:
                p.world.send([1, 2, 3, 4], dest=1)
            else:
                st = Status()
                p.world.recv(source=0, status=st)
                assert st.get_count() == 4

        run_ok(prog, 2)


class TestTags:
    def test_tag_selectivity(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("a", dest=1, tag=1)
                p.world.send("b", dest=1, tag=2)
            else:
                # receive tag 2 first although tag 1 was sent first
                assert p.world.recv(source=0, tag=2) == "b"
                assert p.world.recv(source=0, tag=1) == "a"

        run_ok(prog, 2)

    def test_any_tag_takes_send_order(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("first", dest=1, tag=9)
                p.world.send("second", dest=1, tag=3)
            else:
                st = Status()
                assert p.world.recv(source=0, tag=ANY_TAG, status=st) == "first"
                assert st.tag == 9
                assert p.world.recv(source=0, tag=ANY_TAG) == "second"

        run_ok(prog, 2)

    def test_invalid_tag_rejected(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=1, tag=-5)

        res = run_program(prog, 2)
        assert any(isinstance(e, InvalidTagError) for e in res.primary_errors.values())

    def test_any_tag_invalid_on_send(self):
        def prog(p):
            p.world.send("x", dest=0, tag=ANY_TAG)

        res = run_program(prog, 1)
        assert any(isinstance(e, InvalidTagError) for e in res.primary_errors.values())


class TestNonOvertaking:
    def test_same_tag_fifo(self):
        def prog(p):
            if p.rank == 0:
                for i in range(20):
                    p.world.send(i, dest=1, tag=7)
            else:
                got = [p.world.recv(source=0, tag=7) for _ in range(20)]
                assert got == list(range(20))

        run_ok(prog, 2)

    def test_wildcard_respects_per_source_order(self):
        def prog(p):
            if p.rank in (0, 1):
                for i in range(5):
                    p.world.send((p.rank, i), dest=2, tag=1)
            else:
                seen = {0: [], 1: []}
                for _ in range(10):
                    src, i = p.world.recv(source=ANY_SOURCE, tag=1)
                    seen[src].append(i)
                assert seen[0] == list(range(5))
                assert seen[1] == list(range(5))

        run_ok(prog, 3)

    def test_posted_receives_match_in_post_order(self):
        def prog(p):
            if p.rank == 0:
                r1 = p.world.irecv(source=1, tag=5)
                r2 = p.world.irecv(source=1, tag=5)
                # complete out of order: r2 still gets the *second* message
                p.world.send("go", dest=1, tag=0)
                assert r2.wait() and r2.data == "m2"
                assert r1.wait() and r1.data == "m1"
            else:
                p.world.recv(source=0, tag=0)
                p.world.send("m1", dest=0, tag=5)
                p.world.send("m2", dest=0, tag=5)

        run_ok(prog, 2)


class TestRequests:
    def test_double_wait_rejected(self):
        def prog(p):
            if p.rank == 0:
                p.world.send(1, dest=1)
            else:
                req = p.world.irecv(source=0)
                req.wait()
                req.wait()

        res = run_program(prog, 2)
        assert any(
            isinstance(e, InvalidRequestError) for e in res.primary_errors.values()
        )

    def test_wait_on_other_ranks_request_rejected(self):
        shared = {}

        def prog(p):
            if p.rank == 0:
                shared["req"] = p.world.irecv(source=1)
                p.world.send("token", dest=1, tag=9)
                shared["req"].wait()
            else:
                p.world.recv(source=0, tag=9)
                p.engine.pmpi_wait(1, shared["req"])

        res = run_program(prog, 2)
        assert any(
            isinstance(e, InvalidRequestError) for e in res.primary_errors.values()
        )

    def test_test_polls_to_completion(self):
        def prog(p):
            if p.rank == 0:
                req = p.world.irecv(source=1)
                polls = 0
                while True:
                    flag, st = req.test()
                    if flag:
                        break
                    polls += 1
                assert req.data == "eventually"
            else:
                p.world.send("eventually", dest=0)

        run_ok(prog, 2)

    def test_waitall_mixed_kinds(self):
        def prog(p):
            if p.rank == 0:
                reqs = [p.world.irecv(source=1) for _ in range(3)]
                reqs += [p.world.isend(i, dest=1) for i in range(2)]
                statuses = p.waitall(reqs)
                assert len(statuses) == 5
                assert sorted(r.data for r in reqs[:3]) == [0, 1, 2]
            else:
                for i in range(3):
                    p.world.send(i, dest=0)
                for _ in range(2):
                    p.world.recv(source=0)

        run_ok(prog, 2)

    def test_waitany_returns_a_completed_index(self):
        def prog(p):
            if p.rank == 0:
                never = p.world.irecv(source=1, tag=99)  # never sent
                soon = p.world.irecv(source=1, tag=1)
                idx, st = p.waitany([never, soon])
                assert idx == 1 and soon.data == "hi"
                never.free()
            else:
                p.world.send("hi", dest=0, tag=1)

        run_ok(prog, 2)

    def test_request_free_then_wait_rejected(self):
        def prog(p):
            req = p.world.irecv(source=0, tag=1)
            req.free()
            req.wait()

        res = run_program(prog, 1)
        assert any(
            isinstance(e, InvalidRequestError) for e in res.primary_errors.values()
        )

    def test_request_free_after_wait_rejected(self):
        # a consumed request is MPI_REQUEST_NULL: freeing it is an error,
        # as a second wait is
        def prog(p):
            req = p.world.isend("x", dest=0, tag=1)
            req.wait()
            req.free()

        res = run_program(prog, 1)
        assert any(
            isinstance(e, InvalidRequestError) for e in res.primary_errors.values()
        )


class TestWildcards:
    def test_any_source_any_tag(self):
        def prog(p):
            if p.rank == 2:
                st = Status()
                vals = set()
                for _ in range(2):
                    vals.add(p.world.recv(source=ANY_SOURCE, tag=ANY_TAG, status=st))
                assert vals == {"from0", "from1"}
            elif p.rank == 0:
                p.world.send("from0", dest=2, tag=10)
            else:
                p.world.send("from1", dest=2, tag=20)

        run_ok(prog, 3)

    @staticmethod
    def _race_two_senders(p):
        """Both senders' messages are queued (barrier) before rank 0 posts
        its wildcard — the policy must arbitrate."""
        if p.rank == 0:
            p.world.barrier()
            st = Status()
            p.world.recv(source=ANY_SOURCE, status=st)
            p.world.recv(source=ANY_SOURCE)
            return st.source
        p.world.send(p.rank, dest=0)
        p.world.barrier()
        return None

    def test_policy_lowest_vs_highest(self):
        low = run_ok(self._race_two_senders, 3, policy="lowest_rank")
        high = run_ok(self._race_two_senders, 3, policy="highest_rank")
        assert low.returns[0] == 1
        assert high.returns[0] == 2

    def test_seeded_random_policy_is_reproducible(self):
        a = run_ok(self._race_two_senders, 3, policy="random:42").returns[0]
        b = run_ok(self._race_two_senders, 3, policy="random:42").returns[0]
        assert a == b


class TestErrors:
    def test_rank_out_of_range(self):
        def prog(p):
            p.world.send("x", dest=5)

        res = run_program(prog, 2)
        assert any(isinstance(e, InvalidRankError) for e in res.primary_errors.values())
        assert str(res.primary_errors[0]) == "rank 5 invalid for communicator world of size 2"

    @pytest.mark.parametrize("point", ["isend", "issend", "irecv"])
    @pytest.mark.parametrize("peer", [5, -3])
    def test_rank_out_of_range_below_the_communicator(self, point, peer):
        """``proc.pmpi`` skips the ``Communicator``'s peer check (as does a
        guided replay's forced source); the bottom still refuses the rank,
        with ``CommContext.world_rank``'s error."""
        def prog(p):
            if p.rank == 0:
                if point == "irecv":
                    p.pmpi.irecv(p.world, peer, 0)
                else:
                    getattr(p.pmpi, point)(p.world, "x", peer, 0)

        err = run_program(prog, 2).primary_errors[0]
        assert isinstance(err, InvalidRankError)
        assert str(err) == f"rank {peer} out of range for communicator world of size 2"

    def test_head_to_head_deadlock(self):
        def prog(p):
            p.world.recv(source=1 - p.rank)

        res = run_program(prog, 2)
        assert res.deadlocked
        assert set(res.deadlock.blocked) == {0, 1}

    def test_one_rank_waits_forever(self):
        def prog(p):
            if p.rank == 0:
                p.world.recv(source=1, tag=42)  # never sent

        res = run_program(prog, 2)
        assert res.deadlocked

    def test_sendrecv_avoids_exchange_deadlock(self):
        def prog(p):
            other = 1 - p.rank
            got = p.world.sendrecv(f"from{p.rank}", dest=other, source=other)
            assert got == f"from{other}"

        run_ok(prog, 2)

    def test_abort_kills_all_ranks(self):
        def prog(p):
            if p.rank == 0:
                p.abort(3)
            else:
                p.world.recv(source=0)

        res = run_program(prog, 2)
        assert not res.ok
        assert any(
            type(e).__name__ == "AbortError" for e in res.primary_errors.values()
        )


class TestVirtualTime:
    def test_compute_advances_makespan(self):
        def prog(p):
            p.compute(0.5)

        res = run_ok(prog, 2)
        assert res.makespan >= 0.5

    def test_message_adds_latency(self):
        def prog(p):
            if p.rank == 0:
                p.world.send(b"x" * 1000, dest=1)
            else:
                p.world.recv(source=0)

        res = run_ok(prog, 2)
        assert res.makespan > 2.0e-6  # at least one latency

    def test_unbalanced_compute_sets_makespan(self):
        def prog(p):
            p.compute(1.0 if p.rank == 1 else 0.001)

        res = run_ok(prog, 3)
        assert 1.0 <= res.makespan < 1.1
