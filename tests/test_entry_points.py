"""Every DAMPI tool-module entry point, driven under ``DampiVerifier``.

Paper Algorithm 1 completes a wildcard epoch at ``MPI_Wait`` *and* at
``MPI_Test``, and the §V committed tick transmits an epoch's tick from
exactly that point.  The test-loop spellings below complete every request through
``MPI_Test`` alone and must verify exactly like the paper's ``wait``
spellings.  The rest drive the collectives whose clock flow and monitor
wrappers nothing else runs under the verifier.
"""

from __future__ import annotations

import pytest

from repro.dampi.clock_module import DampiClockModule
from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.runtime import run_program
from repro.pnmpi.module import ENTRY_POINTS, ToolModule
from repro.workloads.patterns import (
    WildcardBugError,
    fig3_program,
    fig4_program,
    fig10_program,
)

from tests.conftest import every_entry_point, spin
from tests.reference_clock import CLOCKS, clock_config


# -- the paper's patterns, completed through MPI_Test --------------------------


def fig3_test_loop(p):
    """``fig3_program`` with every wait spelled as a test loop."""
    if p.rank == 1:
        req = p.world.irecv(source=ANY_SOURCE)
        spin(req)
        if req.data == 33:
            raise WildcardBugError("x == 33: the alternate match crashes")
    else:
        spin(p.world.isend(22 if p.rank == 0 else 33, dest=1))


def fig4_test_loop(p):
    """``fig4_program`` with the wildcard receives and the sends completed
    by test loops.  The trailing deterministic receive stays blocking: a
    rank polling for a message that never comes would spin forever, where
    a blocked one is a deadlock the engine proves."""
    if p.rank < 2:
        spin(p.world.isend(f"m{p.rank}", dest=p.rank + 2))
    else:
        peer = 5 - p.rank  # 2 <-> 3
        spin(p.world.irecv(source=ANY_SOURCE))
        spin(p.world.isend(f"c{p.rank}", dest=peer))
        p.world.recv(source=peer)


def fig10_test_loop(p):
    """``fig10_program`` with every wait spelled as a test loop: the
    barrier still transmits rank 1's clock before its wildcard completes."""
    if p.rank == 0:
        req = p.world.isend(22, dest=1)
        p.world.barrier()
        spin(req)
    elif p.rank == 1:
        req = p.world.irecv(source=ANY_SOURCE)
        p.world.barrier()
        spin(req)
        if req.data == 33:
            raise WildcardBugError("x == 33 after the barrier")
    else:
        p.world.barrier()
        spin(p.world.isend(33, dest=1))


def _verdict(monkeypatch, program, nprocs, clock):
    rep = DampiVerifier(program, nprocs, clock_config(monkeypatch, clock)).verify()
    alerts = len(rep.monitor_report) if rep.monitor_report else 0
    return rep.interleavings, [e.kind for e in rep.errors], alerts


class TestTestLoopSpellings:
    @pytest.mark.parametrize("clock", CLOCKS)
    @pytest.mark.parametrize(
        "wait_form, test_form, nprocs",
        [
            (fig3_program, fig3_test_loop, 3),
            (fig4_program, fig4_test_loop, 4),
            (fig10_program, fig10_test_loop, 3),
        ],
        ids=["fig3", "fig4", "fig10"],
    )
    def test_same_verdict_as_the_wait_spelling(
        self, monkeypatch, wait_form, test_form, nprocs, clock
    ):
        assert _verdict(monkeypatch, test_form, nprocs, clock) == _verdict(
            monkeypatch, wait_form, nprocs, clock
        )

    @pytest.mark.parametrize("clock", CLOCKS)
    def test_fig3_crash_found_through_test(self, monkeypatch, clock):
        assert _verdict(monkeypatch, fig3_test_loop, 3, clock) == (2, ["crash"], 0)

    @pytest.mark.parametrize(
        "clock, verdict",
        [
            # the single-commit reference: the §V omission, flagged by the
            # monitor
            ("lamport", (1, [], 1)),
            ("lamport_dual", (2, ["crash"], 1)),  # the epoch commits at Test
            ("vector_dual", (2, ["crash"], 1)),
            ("vector", (1, [], 1)),
        ],
    )
    def test_fig10_dual_clocks_commit_at_test(self, monkeypatch, clock, verdict):
        assert _verdict(monkeypatch, fig10_test_loop, 3, clock) == verdict


# -- collectives: clock flow follows data flow ---------------------------------


class _ClockKeepingVerifier(DampiVerifier):
    """Keeps the clock module of the run it builds modules for."""

    def _build_modules(self, decisions):
        modules = super()._build_modules(decisions)
        self.clock = next(m for m in modules if isinstance(m, DampiClockModule))
        return modules


def _clocks_after(collective, nprocs=3):
    """Each rank's vector stamp after a wildcard ring (every rank ticks
    its own component once, and learns nothing else) and ``collective``."""

    def prog(p):
        p.world.isend(p.rank, dest=(p.rank + 1) % p.size).wait()
        p.world.recv(source=ANY_SOURCE)
        collective(p.world)

    v = _ClockKeepingVerifier(prog, nprocs, DampiConfig(clock_impl="vector"))
    try:
        result, _trace = v.run_once()
        result.raise_any()
    finally:
        v.close()
    return [v.clock.clock_of(r).snapshot() for r in range(nprocs)]


class TestCollectiveClockFlow:
    def test_reduce_root_dominates_every_contributor(self):
        stamps = _clocks_after(lambda w: w.reduce(1, root=0))
        root = stamps[0]
        assert all(s.leq(root) for s in stamps)
        assert not any(root.leq(s) for s in stamps[1:])  # nothing flows back

    def test_scatter_every_rank_dominates_the_root(self):
        stamps = _clocks_after(lambda w: w.scatter([0, 1, 2] if w.rank == 0 else None, root=0))
        root = stamps[0]
        assert all(root.leq(s) for s in stamps)
        assert not any(s.leq(root) for s in stamps[1:])

    def test_reduce_scatter_every_rank_dominates_every_other(self):
        stamps = _clocks_after(lambda w: w.reduce_scatter([1, 1, 1]))
        assert all(a.leq(b) for a in stamps for b in stamps)


# -- the §V monitor: every collective transmits the clock ----------------------

TRANSMITS = {
    "scan": lambda w: w.scan(1),
    "ibcast": lambda w: w.ibcast(1, root=0).wait(),
    "iallreduce": lambda w: w.iallreduce(1).wait(),
    "reduce": lambda w: w.reduce(1, root=0),
    "gather": lambda w: w.gather(1, root=0),
    "scatter": lambda w: w.scatter([0, 1] if w.rank == 0 else None, root=0),
    "allgather": lambda w: w.allgather(1),
    "alltoall": lambda w: w.alltoall([0, 1]),
    "reduce_scatter": lambda w: w.reduce_scatter([1, 1]),
}


class TestMonitorCollectives:
    @pytest.mark.parametrize("op", sorted(TRANSMITS))
    def test_transmit_inside_an_open_wildcard_window_alerts(self, op):
        def prog(p):
            if p.rank == 0:
                req = p.world.irecv(source=ANY_SOURCE, tag=7)
                TRANSMITS[op](p.world)
                req.wait()
            else:
                TRANSMITS[op](p.world)
                p.world.send("late", dest=0, tag=7)

        rep = DampiVerifier(prog, 2).verify()
        assert not rep.errors
        assert [(a.rank, a.operation) for a in rep.monitor_report.alerts] == [(0, op)]


# -- the leak check --------------------------------------------------------------


class TestLeakCheckThroughTest:
    def test_request_completed_only_by_test_is_not_a_leak(self):
        def prog(p):
            if p.rank == 0:
                spin(p.world.isend("m", dest=1))
            else:
                spin(p.world.irecv(source=ANY_SOURCE))

        rep = DampiVerifier(prog, 2).verify()
        assert not rep.errors
        assert rep.leak_report.clean


# -- one program, every entry point ------------------------------------------------


class _CallRecorder(ToolModule):
    """Records which entry points a run called."""

    name = "calls"

    def setup(self, runtime):
        self.seen = set()


def _recording_wrapper(point):
    def wrapper(self, proc, chain, *args):
        self.seen.add(point)
        return chain(*args)

    return wrapper


for _point in ENTRY_POINTS:
    setattr(_CallRecorder, _point, _recording_wrapper(_point))


class TestEveryEntryPoint:
    def test_the_program_calls_every_entry_point(self):
        recorder = _CallRecorder()
        run_program(every_entry_point, 2, modules=[recorder]).raise_any()
        assert recorder.seen == set(ENTRY_POINTS)

    @pytest.mark.parametrize("clock", CLOCKS)
    def test_clean_under_the_full_dampi_stack(self, monkeypatch, clock):
        rep = DampiVerifier(every_entry_point, 2, clock_config(monkeypatch, clock)).verify()
        assert rep.interleavings == 1 and not rep.errors
        assert rep.leak_report.clean
        assert not rep.monitor_report.triggered
