"""The §V committed tick: a clock's epoch and transmit views.

Both product clocks keep two views of one clock (paper §V's "pair of
Lamport clocks"): a wildcard's tick moves the epoch view at post time and
reaches the transmit view only at the wildcard's Wait/Test, so it never
escapes through a send or collective issued in between (paper Fig. 10).
The paper's single-commit clock is the tests-only reference
(``tests/reference_clock.py``, the ``single_commit`` fixture).
"""

import pytest

from repro.clocks import LamportClock, LamportStamp, VectorClock, VectorStamp, make_clock
from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.workloads.patterns import (
    fig3_program,
    fig4_program,
    fig10_program,
    wildcard_lattice,
)

from tests.reference_clock import clock_config


class TestDualClockUnit:
    def test_tick_stays_local_until_commit(self):
        c = LamportClock(0)
        c.tick_epoch()
        assert c.time == 1  # epoch view advanced
        assert c.epoch_snapshot().time == 1
        assert c.snapshot().time == 0  # transmit view unchanged
        c.commit_epoch(0)
        assert c.snapshot().time == 1

    def test_merge_reaches_both(self):
        c = LamportClock(0)
        c.merge(LamportStamp(5))
        assert c.time == 5 and c.snapshot().time == 5
        v = VectorClock(0, 2)
        v.tick_epoch()
        v.merge(VectorStamp((3, 4)))
        assert v.time == 3
        assert v.snapshot().components == v.epoch_snapshot().components == (3, 4)

    def test_vector_commit_raises_own_component_only(self):
        c = VectorClock(1, 3)
        c.tick_epoch()
        c.tick_epoch()
        assert c.snapshot().components == (0, 0, 0)
        c.commit_epoch(0)  # commit the first epoch only
        assert c.snapshot().components == (0, 1, 0)
        c.commit_epoch(1)
        assert c.snapshot().components == (0, 2, 0)

    def test_epoch_snapshot_is_main_view(self):
        c = VectorClock(0, 2)
        c.merge(VectorStamp((0, 3)))
        c.tick_epoch()
        c.tick_epoch()
        assert c.epoch_snapshot().components == (2, 3)
        assert c.snapshot().components == (0, 3)
        c.commit_epoch(1)  # the second wildcard completes first ...
        c.commit_epoch(0)  # ... and the first one's commit lowers nothing
        assert c.snapshot().components == (2, 3)

    def test_bad_impl_rejected(self):
        for impl in ("lamport_dual", "vector_dual"):
            with pytest.raises(ValueError):
                make_clock(impl, 0, 2)
            with pytest.raises(ValueError, match="clock_impl"):
                DampiConfig(clock_impl=impl)

    def test_factory(self):
        assert type(make_clock("lamport", 0, 2)) is LamportClock
        assert type(make_clock("vector", 1, 4)) is VectorClock
        # tick() is a generic visible event: both views move
        for c in (make_clock("lamport", 0, 2), make_clock("vector", 1, 4)):
            c.tick()
            assert c.snapshot() == c.epoch_snapshot() and c.time == 1


class TestFig10Closed:
    def test_plain_lamport_misses_the_bug(self, single_commit):
        rep = DampiVerifier(fig10_program, 3).verify()
        assert rep.interleavings == 1
        assert not any(e.kind == "crash" for e in rep.errors)
        assert rep.monitor_report.triggered  # only the alert fires

    @pytest.mark.parametrize("clock", ["lamport_dual", "vector_dual"])
    def test_dual_clocks_find_the_bug(self, monkeypatch, clock):
        rep = DampiVerifier(fig10_program, 3, clock_config(monkeypatch, clock)).verify()
        assert rep.interleavings == 2
        assert any(e.kind == "crash" for e in rep.errors), rep.summary()


class TestDualRegression:
    """The committed tick must preserve coverage everywhere else."""

    def test_fig3_still_found(self):
        rep = DampiVerifier(fig3_program, 3).verify()
        assert any(e.kind == "crash" for e in rep.errors)

    def test_lattice_coverage_exact(self):
        rep = DampiVerifier(
            wildcard_lattice, 4, kwargs={"receives": 3, "senders": 3}
        ).verify()
        assert rep.interleavings == 27
        assert len(rep.outcomes) == 27

    def test_vector_dual_complete_on_fig4(self):
        rep = DampiVerifier(fig4_program, 4, DampiConfig(clock_impl="vector")).verify()
        assert rep.interleavings == 3  # as precise as the single-commit vector

    def test_lamport_dual_coverage_superset_of_lamport(self, monkeypatch):
        """The committed Lamport clock covers every outcome the
        single-commit one does."""
        for prog, n, kw in (
            (fig10_program, 3, {}),
            (wildcard_lattice, 3, {"receives": 2, "senders": 2}),
        ):
            committed = DampiVerifier(prog, n, kwargs=kw).verify()
            with monkeypatch.context() as patch:
                reference = DampiVerifier(
                    prog, n, clock_config(patch, "lamport"), kwargs=kw
                ).verify()
            assert reference.outcomes <= committed.outcomes
