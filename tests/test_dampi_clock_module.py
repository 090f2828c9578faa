"""Algorithm 1 behaviour: clock updates, epoch recording, late detection."""

import pytest

from repro.clocks.lamport import LamportStamp
from repro.clocks.vector import VectorStamp
from repro.dampi.clock_module import DampiClockModule, _stamp_max
from repro.dampi.decisions import EpochDecisions
from repro.dampi.piggyback import PiggybackModule
from repro.mpi.constants import ANY_SOURCE, ANY_TAG, SUM
from repro.mpi.runtime import run_program

from tests.reference_collective_stamps import STAMP_MAX


def run_dampi(prog, nprocs, clock_impl="lamport", decisions=None, mechanism="separate", **kw):
    pb = PiggybackModule(mechanism)
    clock = DampiClockModule(pb, clock_impl, decisions)
    res = run_program(prog, nprocs, modules=[clock, pb], **kw)
    return res, res.artifacts.get("dampi")


class TestStampMax:
    def test_lamport(self):
        assert _stamp_max(LamportStamp(3), LamportStamp(5)).time == 5

    def test_vector(self):
        out = _stamp_max(VectorStamp((1, 4)), VectorStamp((3, 2)))
        assert out.components == (3, 4)

    def test_bad_type(self):
        with pytest.raises(TypeError):
            _stamp_max(1, 2)

    def test_op_name(self):
        assert STAMP_MAX.name == "STAMP_MAX"


class TestClockDiscipline:
    def test_only_wildcards_tick(self):
        """Deterministic receives merge but never tick (Algorithm 1)."""

        def prog(p):
            if p.rank == 0:
                p.world.send("a", dest=1)
                p.world.send("b", dest=1)
            else:
                p.world.recv(source=0)
                p.world.recv(source=0)

        res, trace = run_dampi(prog, 2)
        res.raise_any()
        assert trace.wildcard_count == 0

    def test_each_wildcard_gets_unique_lc(self):
        def prog(p):
            if p.rank == 0:
                for _ in range(4):
                    p.world.recv(source=ANY_SOURCE)
            else:
                for i in range(4):
                    p.world.send(i, dest=0)

        res, trace = run_dampi(prog, 2)
        res.raise_any()
        lcs = [e.lc for e in trace.epochs[0]]
        assert lcs == sorted(lcs)
        assert len(set(lcs)) == 4
        assert [e.index for e in trace.epochs[0]] == [0, 1, 2, 3]

    def test_merge_at_wait_propagates_clock(self):
        """Rank 1 ticks (wildcard) then sends to rank 2; rank 2's received
        stamp must carry the tick, proving merge-at-wait happened."""
        seen = {}

        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=1)
            elif p.rank == 1:
                p.world.recv(source=ANY_SOURCE)  # tick -> LC 1
                p.world.send("y", dest=2)
            else:
                p.world.recv(source=1)

        pb = PiggybackModule()
        clock = DampiClockModule(pb)
        res = run_program(prog, 3, modules=[clock, pb])
        res.raise_any()
        assert clock.clock_of(2).time >= 1

    def test_collective_allreduce_merges_max(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=1)
            if p.rank == 1:
                p.world.recv(source=ANY_SOURCE)  # rank 1 ticks
            p.world.barrier()  # everyone should now know LC >= 1

        pb = PiggybackModule()
        clock = DampiClockModule(pb)
        res = run_program(prog, 4, modules=[clock, pb])
        res.raise_any()
        for r in range(4):
            assert clock.clock_of(r).time >= 1

    def test_bcast_spreads_root_clock_only(self):
        """Non-root clock info must NOT flow through a bcast (data flows
        root -> members)."""

        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=2)
            if p.rank == 2:
                p.world.recv(source=ANY_SOURCE)  # rank 2 ticks to 1
            p.world.bcast("payload" if p.rank == 1 else None, root=1)

        pb = PiggybackModule()
        clock = DampiClockModule(pb)
        res = run_program(prog, 3, modules=[clock, pb])
        res.raise_any()
        assert clock.clock_of(0).time == 0  # rank 2's tick must not reach 0
        assert clock.clock_of(2).time == 1

    def test_gather_brings_clocks_to_root(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=2)
            if p.rank == 2:
                p.world.recv(source=ANY_SOURCE)
            p.world.gather(p.rank, root=1)

        pb = PiggybackModule()
        clock = DampiClockModule(pb)
        res = run_program(prog, 3, modules=[clock, pb])
        res.raise_any()
        assert clock.clock_of(1).time >= 1  # root learned rank 2's tick
        assert clock.clock_of(0).time == 0  # non-roots learn nothing


class TestEpochRecords:
    def test_epoch_metadata(self):
        def prog(p):
            if p.rank == 0:
                p.world.recv(source=ANY_SOURCE, tag=9)
            else:
                p.world.send("m", dest=0, tag=9)

        res, trace = run_dampi(prog, 2)
        res.raise_any()
        (e,) = trace.epochs[0]
        assert e.kind == "recv"
        assert e.tag == 9
        assert e.matched_source == 1
        assert e.lc == 0 and e.stamp.time == 1  # post-tick stamp

    def test_probe_epochs_recorded(self):
        def prog(p):
            if p.rank == 0:
                st = p.world.probe(source=ANY_SOURCE)
                p.world.recv(source=st.source, tag=st.tag)
            else:
                p.world.send("m", dest=0)

        res, trace = run_dampi(prog, 2)
        res.raise_any()
        kinds = [e.kind for e in trace.epochs[0]]
        assert kinds == ["probe"]
        assert trace.epochs[0][0].matched_source == 1

    def test_iprobe_only_recorded_when_flag_true(self):
        def prog(p):
            if p.rank == 0:
                # sender is held behind the barrier: this iprobe must miss
                flag, _ = p.world.iprobe(source=ANY_SOURCE)
                assert not flag
                p.world.barrier()
                flag2, st = p.world.iprobe(source=ANY_SOURCE)
                assert flag2
                p.world.recv(source=st.source)
            else:
                p.world.barrier()
                p.world.send("m", dest=0)

        res, trace = run_dampi(prog, 2)
        res.raise_any()
        assert len(trace.epochs[0]) == 1  # only the successful iprobe

    def test_pcontrol_region_flags_no_explore(self):
        def prog(p):
            if p.rank == 0:
                p.pcontrol(1)
                p.world.recv(source=ANY_SOURCE)
                p.pcontrol(0)
                p.world.recv(source=ANY_SOURCE)
            else:
                p.world.send(1, dest=0)
                p.world.send(2, dest=0)

        res, trace = run_dampi(prog, 3)
        res.raise_any()
        flags = [e.explore for e in trace.epochs[0]]
        assert flags == [False, True]

    def test_unbalanced_pcontrol_raises(self):
        def prog(p):
            p.pcontrol(0)

        res, _ = run_dampi(prog, 1)
        assert any(isinstance(e, ValueError) for e in res.primary_errors.values())


class TestLateDetection:
    def test_unreceived_impinging_send_found_at_finalize(self):
        """Fig. 3's core mechanism: the never-received send is drained and
        analyzed at MPI_Finalize."""
        from repro.workloads.patterns import fig3_program

        res, trace = run_dampi(fig3_program, 3)
        res.raise_any()
        from repro.dampi.matcher import compute_alternatives

        alts = compute_alternatives(trace)
        (key,) = [e.key for e in trace.epochs[1]]
        assert set(alts[key]) == {2}

    def test_received_late_send_found(self):
        """A late message consumed by a later deterministic receive is a
        potential match for the earlier wildcard."""

        def prog(p):
            if p.rank == 0:
                p.world.recv(source=ANY_SOURCE, tag=1)  # matches rank 1
                p.world.recv(source=2, tag=1)  # consumes rank 2's late send
            elif p.rank == 1:
                p.world.send("fast", dest=0, tag=1)
            else:
                p.world.send("late", dest=0, tag=1)

        res, trace = run_dampi(prog, 3)
        res.raise_any()
        from repro.dampi.matcher import compute_alternatives

        alts = compute_alternatives(trace)
        (e,) = trace.epochs[0]
        assert set(alts[e.key]) == {2}

    def test_causally_after_send_excluded(self):
        """A send that reacts to the wildcard's own completion can never be
        an alternative (it is causally after the epoch)."""

        def prog(p):
            if p.rank == 0:
                p.world.recv(source=ANY_SOURCE, tag=1)
                p.world.send("go", dest=2, tag=2)  # carries the tick
                p.world.recv(source=2, tag=1)
            elif p.rank == 1:
                p.world.send("first", dest=0, tag=1)
            else:
                p.world.recv(source=0, tag=2)
                p.world.send("reaction", dest=0, tag=1)

        res, trace = run_dampi(prog, 3)
        res.raise_any()
        from repro.dampi.matcher import compute_alternatives

        alts = compute_alternatives(trace)
        (e,) = trace.epochs[0]
        assert alts[e.key] == {}

    def test_tag_mismatch_not_alternative(self):
        def prog(p):
            if p.rank == 0:
                p.world.recv(source=ANY_SOURCE, tag=1)
                p.world.recv(source=2, tag=7)
            elif p.rank == 1:
                p.world.send("m", dest=0, tag=1)
            else:
                p.world.send("other-tag", dest=0, tag=7)

        res, trace = run_dampi(prog, 3)
        res.raise_any()
        from repro.dampi.matcher import compute_alternatives

        alts = compute_alternatives(trace)
        (e,) = trace.epochs[0]
        assert alts[e.key] == {}


class TestGuidedMode:
    def test_forced_source_enforced(self):
        decisions = EpochDecisions(forced={(1, 0): 2}, flip=(1, 0))

        def prog(p):
            if p.rank == 1:
                got = p.world.recv(source=ANY_SOURCE)
                return got
            else:
                p.world.send(f"from{p.rank}", dest=1)

        res, trace = run_dampi(prog, 3, decisions=decisions)
        res.raise_any()
        assert res.returns[1] == "from2"
        (e,) = trace.epochs[1]
        assert e.forced and e.matched_source == 2

    def test_self_run_resumes_after_guided_epoch(self):
        decisions = EpochDecisions(forced={(0, 0): 2}, flip=(0, 0))

        def prog(p):
            if p.rank == 0:
                a = p.world.recv(source=ANY_SOURCE)  # forced to 2
                b = p.world.recv(source=ANY_SOURCE)  # self-run
                return (a, b)
            p.world.send(p.rank, dest=0)

        res, trace = run_dampi(prog, 3, decisions=decisions)
        res.raise_any()
        assert res.returns[0] == (2, 1)
        forced_flags = [e.forced for e in trace.epochs[0]]
        assert forced_flags == [True, False]

    def test_unconsumed_decision_reported(self):
        decisions = EpochDecisions(forced={(0, 5): 1}, flip=(0, 5))

        def prog(p):
            if p.rank == 0:
                p.world.recv(source=ANY_SOURCE)  # lc 0, not 5
            else:
                p.world.send("m", dest=0)

        res, trace = run_dampi(prog, 2, decisions=decisions)
        res.raise_any()
        assert trace.unconsumed_decisions == [(0, 5)]
        assert trace.diverged
