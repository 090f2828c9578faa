"""The record/replay baseline (§IV) and its pinned limitation."""

import pytest

from repro.errors import ReplayDivergenceError
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.request import Status
from repro.mpi.runtime import run_program
from repro.workloads.patterns import fig3_program

from benchmarks.comparators.tracereplay import RecordedTrace, record_run, replay_run
from tests.conftest import spin


def funnel(p):
    """Rank 0 wildcard-receives one message from each other rank and
    returns the source order — the observable schedule."""
    if p.rank == 0:
        order = []
        st = Status()
        for _ in range(p.size - 1):
            p.world.recv(source=ANY_SOURCE, status=st)
            order.append(st.source)
        return tuple(order)
    p.world.send(p.rank, dest=0)
    return None


class TestRecord:
    def test_records_resolved_sources(self):
        result, trace = record_run(funnel, 4)
        result.raise_any()
        recorded = [src for kind, src, tag in trace.events[0]]
        assert sorted(recorded) == [1, 2, 3]
        assert len(trace) == 3

    def test_json_roundtrip(self, tmp_path):
        _, trace = record_run(funnel, 3)
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = RecordedTrace.load(path)
        assert loaded.events == trace.events
        assert loaded.nprocs == trace.nprocs

    def test_probe_outcomes_recorded(self):
        def prog(p):
            if p.rank == 0:
                st = p.world.probe(source=ANY_SOURCE)
                p.world.recv(source=st.source)
            else:
                p.world.send("m", dest=0)

        _, trace = record_run(prog, 2)
        kinds = [k for k, _, _ in trace.events[0]]
        assert kinds == ["probe", "recv"]


class TestReplay:
    def test_replay_reproduces_the_schedule(self):
        # record under one policy, replay under another: the recorded
        # matches win over the runtime's own preference
        result, trace = record_run(funnel, 4, policy="highest_rank")
        original = result.returns[0]
        for other_policy in ("lowest_rank", "arrival", "random:5"):
            replayed = replay_run(funnel, 4, trace, policy=other_policy)
            replayed.raise_any()
            assert replayed.returns[0] == original

    def test_probes_and_test_completions_replay(self):
        """A blocking probe, a polled iprobe and a receive completed by
        MPI_Test are recorded in completion order and replayed."""

        def prog(p):
            if p.rank == 0:
                first = p.world.probe(source=ANY_SOURCE, tag=1).source
                p.world.recv(source=first, tag=1)
                flag, st = p.world.iprobe(source=ANY_SOURCE, tag=2)
                while not flag:
                    flag, st = p.world.iprobe(source=ANY_SOURCE, tag=2)
                spin(p.world.irecv(source=st.source, tag=2))
                return first, st.source
            p.world.send(p.rank, dest=0, tag=1)
            p.world.send(p.rank, dest=0, tag=2)
            return None

        result, trace = record_run(prog, 3, policy="highest_rank")
        result.raise_any()
        assert [kind for kind, _, _ in trace.events[0]] == ["probe", "recv"] * 2
        original = result.returns[0]
        native = run_program(prog, 3, policy="lowest_rank")
        assert native.returns[0] != original  # the policy alone picks others
        replayed = replay_run(prog, 3, trace, policy="lowest_rank")
        replayed.raise_any()
        assert replayed.returns[0] == original

    def test_rank_count_mismatch_rejected_at_setup(self):
        _, trace = record_run(funnel, 3)
        with pytest.raises(ReplayDivergenceError):
            replay_run(funnel, 4, trace)

    def test_extra_receive_diverges(self):
        _, trace = record_run(funnel, 3)

        def longer(p):
            funnel(p)
            if p.rank == 0:
                p.world.irecv(source=ANY_SOURCE)  # one more than recorded

        res = replay_run(longer, 3, trace)
        assert any(
            isinstance(e, ReplayDivergenceError) for e in res.primary_errors.values()
        )

    def test_deterministic_source_validated(self):
        def det(p):
            if p.rank == 0:
                p.world.recv(source=1)
            elif p.rank == 1:
                p.world.send("x", dest=0)

        _, trace = record_run(det, 2)

        def different(p):
            if p.rank == 0:
                p.world.recv(source=2)
            elif p.rank == 2:
                p.world.send("x", dest=0)

        res = replay_run(different, 3, RecordedTrace(nprocs=3, events=trace.events))
        assert not res.ok


class TestTheLimitationThePaperDescribes:
    """§IV: 'these trace-based tools only replay the observed schedule.
    They do not have the ability to ... derive alternate schedules.'"""

    def test_replay_never_finds_the_fig3_bug(self):
        result, trace = record_run(fig3_program, 3)
        result.raise_any()  # the native schedule is the benign one
        # replay it any number of times: always the benign schedule
        for _ in range(5):
            replayed = replay_run(fig3_program, 3, trace)
            replayed.raise_any()

    def test_dampi_finds_it_from_the_same_starting_point(self):
        from repro.dampi.verifier import DampiVerifier

        rep = DampiVerifier(fig3_program, 3).verify()
        assert any(e.kind == "crash" for e in rep.errors)
