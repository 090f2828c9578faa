"""Probe non-determinism under verification (paper's ISP-probe work [7]).

Wildcard probes are epochs too: DAMPI records which message a probe
observed and forces the alternative observation in replays (as a
blocking probe on the forced source, so the observation is enforceable).
"""

import pytest

from repro.dampi.verifier import DampiVerifier
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.request import Status

from tests.kept_traces import TraceKeepingVerifier


def probe_then_dispatch(p):
    """Rank 0 probes with ANY_SOURCE and dispatches on who it saw first —
    control flow hanging off a *probe*, not a receive."""
    if p.rank == 0:
        p.world.barrier()  # both senders' messages are queued
        st = p.world.probe(source=ANY_SOURCE)
        first_seen = st.source
        # drain both messages deterministically afterwards
        p.world.recv(source=1)
        p.world.recv(source=2)
        if first_seen == 2:
            raise RuntimeError("probe saw rank 2 first: the untested branch")
    else:
        p.world.send(p.rank, dest=0)
        p.world.barrier()


class TestProbeCoverage:
    def test_probe_alternative_forced_and_bug_found(self):
        rep = DampiVerifier(probe_then_dispatch, 3).verify()
        assert rep.interleavings == 2
        crashes = [e for e in rep.errors if e.kind == "crash"]
        assert len(crashes) == 1
        assert "rank 2 first" in crashes[0].detail
        # the witness forces the probe epoch, not a receive
        wit = crashes[0].decisions
        assert wit is not None and list(wit.forced.values()) == [2]

    def test_probe_witness_replays(self):
        rep = DampiVerifier(probe_then_dispatch, 3).verify()
        wit = next(e.decisions for e in rep.errors if e.kind == "crash")
        v = DampiVerifier(probe_then_dispatch, 3)
        result, trace = v.run_once(wit)
        assert result.primary_errors
        (probe_epoch,) = [e for e in trace.all_epochs() if e.kind == "probe"]
        assert probe_epoch.forced and probe_epoch.matched_source == 2

    def test_iprobe_epochs_explored(self):
        def prog(p):
            if p.rank == 0:
                p.world.barrier()
                flag, st = p.world.iprobe(source=ANY_SOURCE)
                assert flag
                seen = st.source
                p.world.recv(source=1)
                p.world.recv(source=2)
                return seen
            p.world.send(p.rank, dest=0)
            p.world.barrier()

        v = TraceKeepingVerifier(prog, 3)
        rep = v.verify()
        assert rep.interleavings == 2
        observed = {
            e.matched_source
            for t in v.traces
            for e in t.all_epochs()
            if e.kind == "probe"
        }
        assert observed == {1, 2}

    def test_probe_recv_consistency_under_forcing(self):
        """The probe-then-targeted-recv idiom must stay consistent when the
        probe is forced: the subsequent recv targets the forced source."""

        def prog(p):
            if p.rank == 0:
                p.world.barrier()
                st = p.world.probe(source=ANY_SOURCE)
                got = p.world.recv(source=st.source, tag=st.tag)
                other = p.world.recv(source=ANY_SOURCE)
                assert {got, other} == {1, 2}
            else:
                p.world.send(p.rank, dest=0)
                p.world.barrier()

        rep = DampiVerifier(prog, 3).verify()
        assert rep.ok, rep.summary()
        assert rep.interleavings >= 2
