"""The distributed fault matrix: workers and the coordinator die at
exit-43 fault sites (and hang past the lease timeout) and the campaign
still converges to the serial report, bit for bit.

Same recipe as :mod:`tests.test_journal`: deterministic ``kill@…`` sites
from :mod:`repro.dampi.faults`, coordinator deaths exercised in a forked
child so the parent can assert the exit code and then resume the journal.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.faults import FAULT_EXIT_CODE
from repro.dampi.verifier import DampiVerifier
from repro.dist import DistError, distributed_verify, protocol
from repro.obs.stats import journal_progress
from repro.workloads.patterns import wildcard_lattice

from tests.test_journal import BIG, LATTICE, _canon


def _oracle(nprocs=4, kwargs=BIG, **cfg):
    return DampiVerifier(
        wildcard_lattice, nprocs, DampiConfig(**cfg), kwargs=dict(kwargs)
    ).verify()


def _dist(fault_plan=None, nprocs=4, kwargs=BIG, workers=2, journal=None, **cfg):
    return distributed_verify(
        wildcard_lattice,
        nprocs,
        DampiConfig(fault_plan=fault_plan, **cfg),
        workers=workers,
        kwargs=dict(kwargs),
        journal=journal,
    )


def _dist_child(journal_dir, fault_plan, nprocs, kwargs, workers):
    """Child-process body: a journaled distributed campaign that a
    ``kill@coord:n`` fault is expected to take down."""
    _dist(
        fault_plan=fault_plan,
        nprocs=nprocs,
        kwargs=kwargs,
        workers=workers,
        journal=journal_dir,
    )
    os._exit(0)  # reached only if the plan never killed us


def _crash_coordinator(journal_dir, fault_plan, nprocs=4, kwargs=BIG, workers=2):
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(
        target=_dist_child,
        args=(str(journal_dir), fault_plan, nprocs, dict(kwargs), workers),
    )
    proc.start()
    proc.join(120)
    assert proc.exitcode == FAULT_EXIT_CODE, proc.exitcode


class TestWorkerDeath:
    def test_kill_mid_lease_report_identical(self, tmp_path):
        """A worker dies before its 2nd replay; the coordinator re-issues
        the lease (its memo journal replays the finished run) and the final
        report matches the serial oracle exactly."""
        oracle = _oracle()
        report = _dist(
            fault_plan="kill@worker:2.2", journal=tmp_path / "j"
        )
        assert _canon(report) == _canon(oracle)
        assert report.parallel_stats["worker_deaths"] == 1
        assert report.telemetry["metrics"]["counters"]["dist.leases_reissued"] >= 1

    def test_kill_without_journal_still_identical(self):
        """No journal: the re-issued lease simply re-executes from its
        root.  Slower, never wrong."""
        oracle = _oracle()
        report = _dist(fault_plan="kill@worker:1.1")
        assert _canon(report) == _canon(oracle)
        assert report.parallel_stats["worker_deaths"] == 1

    def test_every_initial_worker_killed_once(self, tmp_path):
        """The whole starting fleet dies; replacements (fresh ids, so the
        one-shot kills do not re-fire) finish the campaign."""
        oracle = _oracle()
        report = _dist(
            fault_plan="kill@worker:1.1,kill@worker:2.1",
            journal=tmp_path / "j",
        )
        assert _canon(report) == _canon(oracle)
        assert report.parallel_stats["worker_deaths"] == 2

    def test_hung_worker_expires_by_progress_not_heartbeat(self, monkeypatch):
        """A worker that hangs mid-replay keeps heartbeating (the hb
        thread is separate) — only the *progress*-based expiry can catch
        it.  The coordinator must terminate it and re-issue the lease."""
        # forked workers inherit the patched period
        monkeypatch.setattr(protocol, "HEARTBEAT_SECONDS", 0.1)
        oracle = _oracle(nprocs=3, kwargs=LATTICE)
        report = _dist(
            fault_plan="hang@worker:1.1:600",
            nprocs=3,
            kwargs=LATTICE,
            dist_lease_timeout_seconds=1.0,
        )
        assert _canon(report) == _canon(oracle)
        assert report.parallel_stats["worker_deaths"] >= 1
        counters = report.telemetry["metrics"]["counters"]
        assert counters.get("dist.leases_expired", 0) >= 1

    def test_deterministic_crasher_exhausts_reissues(self, tmp_path):
        """A lease whose subtree kills *any* worker that touches it must
        not be re-issued forever: after MAX_LEASE_ISSUES the campaign
        fails loudly instead of spinning."""
        plan = ",".join(f"kill@worker:{i}.1" for i in range(1, 9))
        with pytest.raises(DistError, match="failed"):
            _dist(fault_plan=plan, workers=1, journal=tmp_path / "j")


class TestCoordinatorDeath:
    def test_kill_mid_campaign_then_resume_is_bit_identical(self, tmp_path):
        """THE distributed acceptance test: SIGKILL-equivalent death of
        the coordinator before it journals the 4th streamed record, then
        a resume — the assembled report is bit-identical to
        an uninterrupted serial run, re-executing only uncovered work."""
        oracle = _oracle()
        jdir = tmp_path / "j"
        _crash_coordinator(jdir, "kill@coord:4")
        progress = journal_progress(jdir)
        assert not progress["complete"]
        assert progress["runs"] == 4  # the self run + 3 streamed records
        resumed = _dist(journal=jdir)
        assert _canon(resumed) == _canon(oracle)
        assert resumed.journal_stats["replayed"] == 4
        assert resumed.journal_stats["executed"] > 0
        assert journal_progress(jdir)["complete"]

    def test_kill_before_first_record(self, tmp_path):
        """Death with leases journaled but zero records: resume restarts
        every lease from scratch."""
        oracle = _oracle()
        jdir = tmp_path / "j"
        _crash_coordinator(jdir, "kill@coord:1")
        assert journal_progress(jdir)["runs"] == 1  # the self run
        resumed = _dist(journal=jdir)
        assert _canon(resumed) == _canon(oracle)

    def test_double_crash_then_resume(self, tmp_path):
        """Crash, resume into another crash, resume again — the journal
        only ever moves forward."""
        oracle = _oracle()
        jdir = tmp_path / "j"
        _crash_coordinator(jdir, "kill@coord:2")
        _crash_coordinator(jdir, "kill@coord:6")
        first = journal_progress(jdir)["runs"]
        assert first >= 6  # second crash got further on replayed records
        resumed = _dist(journal=jdir)
        assert _canon(resumed) == _canon(oracle)

    def test_worker_and_coordinator_both_die(self, tmp_path):
        """The full matrix cell: a worker is killed mid-lease AND the
        coordinator dies later in the same campaign; one resume still
        converges to the oracle."""
        oracle = _oracle()
        jdir = tmp_path / "j"
        _crash_coordinator(jdir, "kill@worker:2.1,kill@coord:8")
        resumed = _dist(journal=jdir)
        assert _canon(resumed) == _canon(oracle)

    def test_resume_of_complete_journal_executes_nothing(self, tmp_path):
        jdir = tmp_path / "j"
        first = _dist(journal=jdir)
        again = _dist(journal=jdir)
        assert _canon(again) == _canon(first)
        assert again.journal_stats["executed"] == 0


class TestCliRefusals:
    def test_one_resume_command_serves_both_journal_kinds(self, tmp_path, capsys):
        """``resume`` continues any journal in-process by default, and
        with a fleet of exactly ``--workers`` workers when asked — whoever
        wrote it."""
        from repro.cli import main

        prog = ["--program", "repro.workloads.patterns:wildcard_lattice"]
        fleet_dir, serial_dir = tmp_path / "fleet", tmp_path / "serial"
        _dist(nprocs=3, kwargs=LATTICE, journal=fleet_dir)
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=dict(LATTICE)
        ).verify(journal=serial_dir)
        for journal_dir in fleet_dir, serial_dir:
            for flags, fleet in ([], None), (["--workers", "3"], 3):
                assert main(["resume", str(journal_dir)] + flags + prog) == 0
                out = capsys.readouterr().out
                assert ("distributed:" in out) == bool(fleet)
                if fleet:
                    assert f"distributed: {fleet} worker(s)" in out
                assert "4 run(s) replayed, 0 executed" in out
