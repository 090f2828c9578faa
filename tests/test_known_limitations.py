"""Documented limitations, each pinned by a test.

A reproduction should preserve the paper's *weaknesses* as faithfully as
its strengths; these tests pin them down so any behavioural drift is
caught.  Each corresponds to a DESIGN.md / paper section.
"""

import pytest

from repro.clocks.lamport import LamportStamp
from repro.dampi.config import DampiConfig
from repro.dampi.piggyback import PiggybackModule
from repro.dampi.verifier import DampiVerifier
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.runtime import run_program
from repro.pnmpi.module import ToolModule
from repro.workloads.patterns import fig4_program, fig10_program


class TestLamportImprecision:
    """Paper §II-F: cross-coupled patterns lose completeness under LC."""

    def test_fig4_is_the_documented_gap(self):
        lam = DampiVerifier(fig4_program, 4, DampiConfig(clock_impl="lamport")).verify()
        vec = DampiVerifier(fig4_program, 4, DampiConfig(clock_impl="vector")).verify()
        missed = len(vec.outcomes) - len(lam.outcomes)
        assert missed == 2  # both cross matches invisible to Lamport clocks

    def test_dual_lamport_does_not_fix_fig4(self):
        """The committed tick fixes §V (transmit timing), not §II-F
        (scalar ordering): under the default Lamport clock the
        cross-coupled gap remains."""
        dual = DampiVerifier(fig4_program, 4).verify()
        assert dual.interleavings == 1


class TestSectionVOmission:
    """Paper §V / Fig. 10: clock escapes before the wildcard's Wait.  The
    product clocks commit the tick at the Wait (``tests/test_dual_clocks.py``);
    the paper's single-commit clock, kept as the tests-only reference,
    still shows the omission."""

    def test_single_clock_misses_and_alerts(self, single_commit):
        rep = DampiVerifier(fig10_program, 3).verify()
        assert rep.interleavings == 1
        assert rep.monitor_report.triggered


def three_wildcards(p):
    """Fig. 3 with one more receive: only the match order 2, 3, 1 crashes."""
    if p.rank == 0:
        x = p.world.recv(source=ANY_SOURCE)
        y = p.world.recv(source=ANY_SOURCE)
        p.world.recv(source=ANY_SOURCE)
        if x == 22 and y == 33:
            raise RuntimeError("BUG: order 2,3,1")
    else:
        p.world.send(p.rank * 11, dest=0)


class TestPruningHidesABug:
    """ROADMAP open item 1: future-equivalence pruning relabels matched
    sources by first appearance, so the (1,2,3) and (2,1,3) runs share a
    fingerprint and the x=2 subtree, which holds (2,3,1), is pruned.  The
    program stays out of ``workloads.bugzoo.ZOO``: the ledger's
    ``zoo_sweep`` pins the zoo's executions."""

    def test_the_unpruned_walk_finds_the_crash(self):
        rep = DampiVerifier(three_wildcards, 4, DampiConfig(prune=False)).verify()
        assert rep.interleavings == 6
        assert [str(e).split(":")[0] for e in rep.errors] == ["[crash] in replay 3"]

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: default pruning reports 4 interleavings, "
        "2 replays saved and no error",
    )
    def test_the_default_config_finds_the_crash(self):
        rep = DampiVerifier(three_wildcards, 4).verify()
        assert [e.kind for e in rep.errors] == ["crash"]


class _PairingProbe(ToolModule):
    """Records (payload, stamp) pairs delivered by a piggyback module."""

    name = "pairingprobe"

    def __init__(self, pb: PiggybackModule):
        self.pairs = []
        self.counter = {}
        pb.register(self._provide, self._consume)

    def setup(self, runtime):
        self.counter = {r: 0 for r in range(runtime.nprocs)}
        self.pairs = []

    def _provide(self, proc):
        n = self.counter[proc.world_rank]
        self.counter[proc.world_rank] += 1
        return LamportStamp(n, proc.world_rank)

    def _consume(self, proc, req, stamp):
        self.pairs.append((req.data, stamp.time))


class TestSeparatePiggybackPairingHazard:
    """DESIGN.md §5.3 / piggyback module docstring: when a wildcard and a
    deterministic receive with overlapping selectors are outstanding
    simultaneously, the post-time/completion-time split can mispair stamps
    within one stream.  The inline mechanism is immune.

    The wildcard is posted FIRST (matching the stream's first message) but
    the deterministic receive's shadow receive is posted first, stealing
    the first stamp.
    """

    @staticmethod
    def overlapping(p):
        if p.rank == 0:
            p.world.send("m0", dest=1, tag=5)  # stamp 0
            p.world.send("m1", dest=1, tag=5)  # stamp 1
        else:
            wild = p.world.irecv(source=ANY_SOURCE, tag=5)  # will get m0
            det = p.world.irecv(source=0, tag=5)  # will get m1
            wild.wait()
            det.wait()
            assert wild.data == "m0" and det.data == "m1"

    def _pairs(self, mechanism):
        pb = PiggybackModule(mechanism)
        probe = _PairingProbe(pb)
        run_program(self.overlapping, 2, modules=[probe, pb]).raise_any()
        return dict(probe.pairs)

    def test_inline_mechanism_pairs_correctly(self):
        assert self._pairs("inline") == {"m0": 0, "m1": 1}

    def test_separate_mechanism_mispairs_as_documented(self):
        """The known hazard, pinned: the deterministic receive's pre-posted
        shadow receive takes stamp 0 although its payload is m1.  If this
        test ever fails, the limitation documentation must be updated."""
        pairs = self._pairs("separate")
        assert pairs == {"m0": 1, "m1": 0}  # swapped — the documented hazard


def stolen_stamp(p):
    """A deadlock-free program: the wildcard gets m0, the freed receive
    gets nothing."""
    if p.rank == 0:
        p.world.send("m0", dest=1, tag=5)
    else:
        wild = p.world.irecv(source=ANY_SOURCE, tag=5)
        det = p.world.irecv(source=0, tag=5)
        det.free()
        wild.wait()


class TestStolenStampIsAFalseDeadlock:
    """The pairing hazard's other face: the freed deterministic receive's
    stamp receive stays posted (``request_free`` mirrors the user's leak),
    takes the stream's only stamp, and the wildcard's stamp receive —
    posted at completion — waits for a stamp that never comes.  The
    separate mechanism turns a deadlock-free program into a reported
    deadlock; the inline mechanism does not."""

    def test_the_program_is_deadlock_free(self):
        assert not run_program(stolen_stamp, 2).deadlocked
        cfg = DampiConfig(piggyback="inline")
        assert "deadlock" not in {
            e.kind for e in DampiVerifier(stolen_stamp, 2, cfg).verify().errors
        }

    def test_the_default_verifier_reports_a_deadlock(self):
        rep = DampiVerifier(stolen_stamp, 2).verify()
        deadlocks = [e for e in rep.errors if e.kind == "deadlock"]
        assert len(deadlocks) == 1
        # the blocked rank names the stamp stream, not a tool request
        assert "rank 1: wait for the piggyback stamp 0→1 on world, tag 5" in str(
            deadlocks[0]
        )


class TestDeterministicSchedulerBias:
    """The paper's motivation: one runtime policy keeps showing one match.
    Our deterministic self run is exactly such a bias — pinned here so the
    quickstart's '0 failures in N plain runs' claim stays true."""

    def test_native_runs_never_hit_the_fig3_bug(self):
        from repro.workloads.patterns import fig3_program

        for _ in range(10):
            run_program(fig3_program, 3).raise_any()
