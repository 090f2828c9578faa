"""Engine internals: scheduling modes, virtual time, datatypes, cost model."""

import os
import subprocess
import sys

import pytest

from repro.mpi.collectives import CollectiveInstance
from repro.mpi.constants import ReduceOp
from repro.mpi.costmodel import CostModel, VirtualClocks
from repro.mpi.datatypes import count_of, sizeof
from repro.mpi.engine import MessageEngine
from repro.mpi.matching import (
    ArrivalPolicy,
    HighestRankPolicy,
    LowestRankPolicy,
    SeededRandomPolicy,
    make_policy,
)
from repro.mpi.message import Envelope
from repro.mpi.runtime import Runtime, run_program

from benchmarks.comparators.isp import SerializedResource
from tests.conftest import run_ok

import numpy as np


class TestDatatypes:
    def test_numpy_loads_when_a_program_imports_it(self):
        """Importing the CLI (and with it the whole substrate) must not
        import numpy; a payload can only be an ndarray once something did."""
        code = (
            "import sys, repro.cli\n"
            "from repro.mpi.datatypes import count_of\n"
            "assert 'numpy' not in sys.modules, 'numpy imported at start-up'\n"
            "assert count_of([1, 2, 3]) == 3 and count_of(42) == 1\n"
            "import numpy\n"
            "assert count_of(numpy.zeros((2, 5))) == 10\n"
        )
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        subprocess.run(
            [sys.executable, "-c", code], check=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )

    def test_count_of(self):
        assert count_of([1, 2, 3]) == 3
        assert count_of("abcd") == 4
        assert count_of(b"xy") == 2
        assert count_of(42) == 1
        assert count_of(np.zeros((2, 5))) == 10

    def test_sizeof(self):
        assert sizeof(np.zeros(10)) == 80
        assert sizeof(b"12345") == 5
        assert sizeof("ab") == 2
        assert sizeof(3.14) == 8
        assert sizeof(object()) == 64  # opaque fallback
        assert sizeof([1] * 10) == 88


class TestCostModel:
    def test_send_cost_scales_with_bytes(self):
        cm = CostModel()
        assert cm.send_cost(10**6) > cm.send_cost(10) * 100

    def test_collective_cost_logarithmic(self):
        cm = CostModel()
        c2, c1024 = cm.collective_cost(2), cm.collective_cost(1024)
        assert c1024 < 11 * c2

    def test_serialized_resource_queues(self):
        r = SerializedResource()
        assert r.visit(arrival=0.0, service=1.0) == 1.0
        # arrives at 0.5 but server busy until 1.0
        assert r.visit(arrival=0.5, service=1.0) == 2.0
        assert r.total_wait == 0.5
        assert r.visits == 2

    def test_virtual_clocks(self):
        vc = VirtualClocks(3)
        vc.advance(1, 2.0)
        vc.raise_to(1, 1.0)  # never backwards
        assert vc.now(1) == 2.0
        vc.raise_to(2, 5.0)
        assert vc.makespan == 5.0


class TestPolicies:
    def _env(self, src, seq=0):
        return Envelope(src=src, dst=0, ctx=0, tag=0, payload=None, seq=seq)

    def test_arrival_takes_head(self):
        envs = [self._env(3), self._env(1)]
        assert ArrivalPolicy().choose(envs).src == 3

    def test_lowest_highest(self):
        envs = [self._env(3), self._env(1), self._env(2)]
        assert LowestRankPolicy().choose(envs).src == 1
        assert HighestRankPolicy().choose(envs).src == 3

    def test_seeded_random_deterministic(self):
        envs = [self._env(i) for i in range(5)]
        a = [SeededRandomPolicy(9).choose(envs).src for _ in range(3)]
        b = [SeededRandomPolicy(9).choose(envs).src for _ in range(3)]
        # fresh policies with same seed produce the same first pick
        assert a[0] == b[0]

    def test_make_policy_specs(self):
        assert make_policy("arrival").name == "arrival"
        assert make_policy("random:7").seed == 7
        assert make_policy(LowestRankPolicy()).name == "lowest_rank"
        with pytest.raises(ValueError):
            make_policy("nonsense")


class TestSchedulingModes:
    def test_run_to_block_deterministic(self):
        """Identical runs produce identical wildcard outcomes."""
        from repro.mpi.constants import ANY_SOURCE
        from repro.mpi.request import Status

        def prog(p):
            if p.rank == 0:
                order = []
                st = Status()
                for _ in range(2):
                    p.world.recv(source=ANY_SOURCE, status=st)
                    order.append(st.source)
                return tuple(order)
            p.world.send(p.rank, dest=0)

        outs = {run_ok(prog, 3).returns[0] for _ in range(5)}
        assert len(outs) == 1

    def test_all_modes_agree_on_deterministic_program(self):
        def prog(p):
            acc = p.world.allreduce(p.rank + 1)
            sub = p.world.split(color=p.rank % 2, key=p.rank)
            acc += sub.allreduce(1)
            sub.free()
            return acc

        res = run_ok(prog, 4)
        assert set(res.returns.values()) == {12}

    def test_nprocs_validated(self):
        with pytest.raises(ValueError):
            MessageEngine(0)

    def test_runtime_reruns_on_a_fresh_engine(self):
        def prog(p):
            p.world.barrier()
            return p.rank

        with Runtime(2, prog) as rt:
            first = rt.run()
            engine = rt.engine
            second = rt.run()  # recycled: a new engine, the same threads
            assert rt.engine is not engine
        assert second.returns == first.returns == {0: 0, 1: 1}
        assert second.makespan == first.makespan > 0


class TestToolCostAccounting:
    def test_tool_traffic_cheaper_than_user_traffic(self):
        def prog(p):
            target = p.engine.contexts  # silence lint; real work below
            if p.rank == 0:
                p.world.send(b"x" * 1024, dest=1)
            else:
                p.world.recv(source=0)

        plain = run_ok(prog, 2).makespan

        shared = {}

        def prog_tool(p):
            from repro.mpi.communicator import Communicator

            comm = Communicator(shared["ctx"], p)
            if p.rank == 0:
                req = p.pmpi.isend(comm, b"x" * 1024, 1, 0)
                p.pmpi.wait(req)
            else:
                req = p.pmpi.irecv(comm, 0, 0)
                p.pmpi.wait(req)

        rt = Runtime(2, prog_tool)
        shared["ctx"] = rt.engine.new_tool_context(rt.engine.world, "t")
        res = rt.run()
        res.raise_any()
        assert res.makespan < plain

    def test_tool_nonblocking_collective_charged_like_blocking(self):
        """On a tool context a collective costs ``tool_factor`` of a user
        one whether it is posted blocking or as a request plus a wait."""
        cost = CostModel()
        shared = {}

        def makespan(body):
            def prog(p):
                from repro.mpi.communicator import Communicator

                body(p, Communicator(shared["ctx"], p))

            with Runtime(4, prog) as rt:
                shared["ctx"] = rt.engine.new_tool_context(rt.engine.world, "t")
                res = rt.run()
            res.raise_any()
            return res.makespan

        blocking = makespan(lambda p, comm: p.pmpi.barrier(comm))
        nonblocking = makespan(lambda p, comm: p.pmpi.wait(p.pmpi.ibarrier(comm)))
        tf = cost.tool_factor
        assert blocking == pytest.approx(cost.collective_cost(4) * tf)
        assert nonblocking == pytest.approx(blocking + cost.local_op * tf)

    def test_charge_helper(self):
        def prog(p):
            p.engine.charge(p.rank, 0.25)

        res = run_ok(prog, 2)
        assert res.makespan >= 0.25


class TestEngineStats:
    def test_envelope_and_match_counters(self):
        from repro.mpi.constants import ANY_SOURCE

        def prog(p):
            if p.rank == 0:
                p.world.send("a", dest=1)
            else:
                p.world.recv(source=ANY_SOURCE)

        rt = Runtime(2, prog)
        res = rt.run()
        res.raise_any()
        assert rt.engine.stats.envelopes == 1
        assert rt.engine.stats.matches == 1
        assert rt.engine.stats.wildcard_matches == 1

    def test_mailbox_depths_empty_after_clean_run(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("a", dest=1)
            else:
                p.world.recv(source=0)

        rt = Runtime(2, prog)
        rt.run().raise_any()
        assert all(d == (0, 0) for d in rt.engine.mailbox_depths())


class TestCollectiveInstanceCost:
    """A collective instance costs O(group): one reduction, and each
    member's readiness evaluated when it enters and when it wakes."""

    def test_allreduce_reduces_once(self):
        calls = []

        def add(a, b):
            calls.append(1)
            return a + b

        counting = ReduceOp("COUNTING_SUM", add)

        def prog(p):
            assert p.world.allreduce(p.rank, op=counting) == sum(range(16))

        run_ok(prog, 16)
        assert len(calls) == 15

    def test_readiness_evaluated_at_most_twice_per_member(self, monkeypatch):
        evaluations = {}
        ready_for = CollectiveInstance.ready_for

        def counting(self, world_rank):
            key = (self.ctx, self.seq)
            evaluations[key] = evaluations.get(key, 0) + 1
            return ready_for(self, world_rank)

        monkeypatch.setattr(CollectiveInstance, "ready_for", counting)

        def prog(p):
            p.world.barrier()
            p.world.allreduce(p.rank)
            p.world.bcast(p.rank, root=5)
            p.world.gather(p.rank, root=3)
            p.world.scan(p.rank)
            p.world.iallreduce(p.rank).wait()

        run_ok(prog, 16)
        assert len(evaluations) == 6
        assert max(evaluations.values()) <= 2 * 16


class TestCollectiveResults:
    """A result an instance computes once for several members is still
    each member's own object: an in-place update on one rank reaches no
    other."""

    def test_allreduce_result_is_each_members_own(self):
        def prog(p):
            mine = p.world.allreduce([p.rank])  # SUM concatenates
            if p.rank == 0:
                mine.append("updated")
            p.world.barrier()
            assert mine == [0, 1, 2] + (["updated"] if p.rank == 0 else [])

        run_ok(prog, 3)

    def test_scan_prefix_is_each_members_own(self):
        def prog(p):
            mine = p.world.scan([p.rank])
            mine.append("updated")
            p.world.barrier()
            assert mine == list(range(p.rank + 1)) + ["updated"]

        run_ok(prog, 4)

