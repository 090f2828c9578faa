"""Piggyback transport: pairing, shadow comms, wildcard deferral."""

import pytest

from repro.clocks.lamport import LamportStamp
from repro.dampi.config import DampiConfig
from repro.dampi.piggyback import InlinePacked, PiggybackModule
from repro.dampi.verifier import measure_slowdown
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.datatypes import sizeof
from repro.mpi.runtime import run_program
from repro.pnmpi.module import ToolModule
from repro.workloads.parmetis import parmetis_program

from tests.conftest import run_ok, spin


class StampHarness(ToolModule):
    """Feeds deterministic per-rank stamps into a PiggybackModule and logs
    what arrives with each receive (for pairing assertions)."""

    name = "harness"

    def __init__(self, pb: PiggybackModule):
        self.pb = pb
        self.sent_counter = {}
        self.received = {}  # rank -> list of (payload, stamp.time)
        pb.register(self._provide, self._consume)

    def setup(self, runtime) -> None:
        self.sent_counter = {r: 0 for r in range(runtime.nprocs)}
        self.received = {r: [] for r in range(runtime.nprocs)}

    def _provide(self, proc):
        # stamp value = 1000*rank + per-rank send ordinal: unique and
        # decodable, so mispairing is detectable
        n = self.sent_counter[proc.world_rank]
        self.sent_counter[proc.world_rank] += 1
        return LamportStamp(1000 * proc.world_rank + n, proc.world_rank)

    def _consume(self, proc, req, stamp):
        self.received[proc.world_rank].append((req.data, stamp.time))


def run_with_pb(prog, nprocs, mechanism="separate", **kw):
    pb = PiggybackModule(mechanism)
    harness = StampHarness(pb)
    res = run_program(prog, nprocs, modules=[harness, pb], **kw)
    res.raise_any()
    return harness, res


@pytest.mark.parametrize("mechanism", ["separate", "inline"])
class TestPairing:
    def test_stream_pairing_in_order(self, mechanism):
        def prog(p):
            if p.rank == 0:
                for i in range(5):
                    p.world.send(f"m{i}", dest=1, tag=2)
            else:
                for i in range(5):
                    assert p.world.recv(source=0, tag=2) == f"m{i}"

        harness, _ = run_with_pb(prog, 2, mechanism)
        # the i-th message carries the i-th stamp of rank 0
        assert harness.received[1] == [(f"m{i}", i) for i in range(5)]

    def test_out_of_order_tags_still_pair(self, mechanism):
        """Receiver drains tag 2 before tag 1: same-tag shadow streams must
        keep each stamp with its own message."""

        def prog(p):
            if p.rank == 0:
                p.world.send("a", dest=1, tag=1)  # stamp 0
                p.world.send("b", dest=1, tag=2)  # stamp 1
            else:
                assert p.world.recv(source=0, tag=2) == "b"
                assert p.world.recv(source=0, tag=1) == "a"

        harness, _ = run_with_pb(prog, 2, mechanism)
        assert sorted(harness.received[1]) == [("a", 0), ("b", 1)]

    def test_wildcard_receive_gets_right_stamp(self, mechanism):
        def prog(p):
            if p.rank == 2:
                got = set()
                for _ in range(2):
                    got.add(p.world.recv(source=ANY_SOURCE, tag=ANY_TAG))
                assert got == {"x", "y"}
            elif p.rank == 0:
                p.world.send("x", dest=2, tag=5)
            else:
                p.world.send("y", dest=2, tag=6)

        harness, _ = run_with_pb(prog, 3, mechanism)
        by_payload = dict(harness.received[2])
        assert by_payload["x"] == 0  # rank 0's first stamp
        assert by_payload["y"] == 1000  # rank 1's first stamp

    def test_mixed_wildcard_and_deterministic(self, mechanism):
        def prog(p):
            if p.rank == 0:
                p.world.send("det", dest=1, tag=1)
                p.world.send("wild", dest=1, tag=2)
            else:
                r_det = p.world.irecv(source=0, tag=1)
                r_wild = p.world.irecv(source=ANY_SOURCE, tag=2)
                r_wild.wait()
                r_det.wait()
                assert r_det.data == "det" and r_wild.data == "wild"

        harness, _ = run_with_pb(prog, 2, mechanism)
        assert sorted(harness.received[1]) == [("det", 0), ("wild", 1)]

    def test_test_loop_and_iprobe_completions_pair(self, mechanism):
        """Requests completed through MPI_Test carry their stamps too, and
        a message found by MPI_Iprobe reports the user payload's count."""

        def prog(p):
            if p.rank == 0:
                spin(p.world.isend([1, 2], dest=1, tag=3))
                p.world.send("b", dest=1, tag=4)
            else:
                flag = False
                while not flag:
                    flag, status = p.world.iprobe(source=0, tag=3)
                assert status.get_count() == 2
                req = p.world.irecv(source=0, tag=3)
                spin(req)
                assert req.data == [1, 2]
                assert p.world.recv(source=0, tag=4) == "b"

        harness, _ = run_with_pb(prog, 2, mechanism)
        assert harness.received[1] == [([1, 2], 0), ("b", 1)]


class TestSeparateMechanism:
    def test_shadow_traffic_is_on_tool_contexts(self):
        """The shadow context exists (collective stamp exchanges use it),
        but a stamp travels on its stream's queue: the engine carries the
        user message alone, and ``pb_messages`` counts the stamp."""

        def prog(p):
            if p.rank == 0:
                p.world.send("m", dest=1)
            else:
                p.world.recv(source=0)

        pb = PiggybackModule("separate")
        harness = StampHarness(pb)
        from repro.mpi.runtime import Runtime

        rt = Runtime(2, prog, modules=[harness, pb])
        rt.run().raise_any()
        tool_ctxs = [c for c in rt.engine.contexts.values() if c.tool]
        assert [c.label for c in tool_ctxs] == ["pb.world"]
        assert rt.engine.stats.envelopes == 1
        assert pb.pb_messages == 1
        assert harness.received[1] == [("m", 0)]

    def test_pb_message_count_matches_user_messages(self):
        def prog(p):
            if p.rank == 0:
                for _ in range(7):
                    p.world.send("m", dest=1)
            else:
                for _ in range(7):
                    p.world.recv(source=0)

        pb = PiggybackModule("separate")
        harness = StampHarness(pb)
        run_program(prog, 2, modules=[harness, pb]).raise_any()
        assert pb.pb_messages == 7

    def test_deferred_counter_counts_wildcards(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("m", dest=1, tag=1)
                p.world.send("m", dest=1, tag=2)
            else:
                p.world.recv(source=ANY_SOURCE, tag=1)  # deferred (wild src)
                p.world.recv(source=0, tag=ANY_TAG)  # deferred (wild tag)

        pb = PiggybackModule("separate")
        harness = StampHarness(pb)
        res = run_program(prog, 2, modules=[harness, pb])
        res.raise_any()
        assert pb.deferred_pb_recvs == 2

    def test_shadow_created_for_dup_and_split(self):
        from repro.dampi.clock_module import DampiClockModule

        def prog(p):
            dup = p.world.dup()
            sub = p.world.split(color=p.rank % 2, key=p.rank)
            if p.rank == 0:
                dup.send("on-dup", dest=1)
            elif p.rank == 1:
                assert dup.recv(source=ANY_SOURCE) == "on-dup"
            sub.barrier()
            dup.free()
            sub.free()

        pb = PiggybackModule("separate")
        clock = DampiClockModule(pb)
        res = run_program(prog, 4, modules=[clock, pb])
        res.raise_any()
        labels = {c for c in pb._shadow_ctx}
        assert len(labels) >= 4  # world + dup + two split halves


class TestWiring:
    def test_a_send_needs_a_stamp_provider(self):
        def prog(p):
            p.world.send("x", dest=1 - p.rank)
            p.world.recv(source=1 - p.rank)

        res = run_program(prog, 2, modules=[PiggybackModule()])
        with pytest.raises(RuntimeError, match="no stamp provider"):
            res.raise_any()

    def test_stamps_without_a_consumer_are_received_and_dropped(self):
        pb = PiggybackModule()
        pb.provider = lambda proc: LamportStamp(7, proc.world_rank)

        def prog(p):
            p.world.send(p.rank, dest=1 - p.rank)
            return p.world.recv(source=1 - p.rank)

        res = run_ok(prog, 2, modules=[pb])
        assert res.returns == {0: 1, 1: 0}
        stats = res.artifacts["piggyback"]
        assert stats["pb_messages"] == 2
        assert stats["unpaired_send_stamps"] == stats["unpaired_recv_stamps"] == 0


class TestInlineMechanism:
    def test_user_never_sees_wrapper(self):
        def prog(p):
            if p.rank == 0:
                p.world.send({"deep": [1]}, dest=1)
            else:
                got = p.world.recv(source=ANY_SOURCE)
                assert got == {"deep": [1]}
                assert not isinstance(got, InlinePacked)

        run_with_pb(prog, 2, "inline")

    def test_probe_count_unwrapped(self):
        def prog(p):
            if p.rank == 0:
                p.world.send([1, 2, 3], dest=1)
            else:
                st = p.world.probe(source=0)
                assert st.get_count() == 3
                p.world.recv(source=0)

        run_with_pb(prog, 2, "inline")

    def test_no_shadow_traffic(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("m", dest=1)
            else:
                p.world.recv(source=0)

        pb = PiggybackModule("inline")
        harness = StampHarness(pb)
        from repro.mpi.runtime import Runtime

        rt = Runtime(2, prog, modules=[harness, pb])
        res = rt.run()
        res.raise_any()
        # the shadow ctx exists (created in setup) but carries no traffic
        assert rt.engine.stats.envelopes == 1
        # the one message carries its payload and the stamp packed into it
        assert rt.engine.stats.bytes == sizeof("m") + sizeof(LamportStamp(0))
        # so instrumenting a program costs virtual time, as it does under
        # separate piggybacking
        slowdown = measure_slowdown(
            parmetis_program, 4, DampiConfig(piggyback="inline"), kwargs={"scale": 0.05}
        )["slowdown"]
        assert slowdown > 1
