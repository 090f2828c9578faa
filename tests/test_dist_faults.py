"""The distributed fault matrix: workers and the coordinator die at
exit-43 fault sites (and hang past the lease timeout) and the campaign
still converges to the serial report, bit for bit.

Same recipe as :mod:`tests.test_journal`: deterministic ``kill@…`` sites
from :mod:`repro.dampi.faults`, coordinator deaths exercised in a forked
child so the parent can assert the exit code and then resume the journal.
"""

from __future__ import annotations

import array
import fcntl
import multiprocessing
import os
import signal
import termios
import threading
import time
from pathlib import Path

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.faults import FAULT_EXIT_CODE
from repro.dampi.verifier import DampiVerifier
from repro.dist import DistError, coordinator, distributed_verify, worker
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


#: the error every run of :func:`_loud_lattice` reports: one record of it
#: is larger than a pipe holds (~200 KB), so its send blocks until read
LOUD_BYTES = 512 * 1024

#: unread bytes on a worker's pipe that mean it is full
FULL_PIPE_BYTES = 64 * 1024


def _loud_lattice(p, receives: int = 2, senders: int = 2):
    """:func:`wildcard_lattice` whose every run crashes rank 0 with a
    ``LOUD_BYTES`` message."""
    wildcard_lattice(p, receives=receives, senders=senders)
    if p.rank == 0:
        raise RuntimeError("x" * LOUD_BYTES)


def _unread_bytes(conn) -> int:
    buf = array.array("i", [0])
    fcntl.ioctl(conn.fileno(), termios.FIONREAD, buf, True)
    return buf[0]


_REAL_RECEIVE = coordinator.DistCoordinator._receive


def _stop_reading_then_die(self, timeout, faults, kinds=None):
    """``DistCoordinator._receive`` that works normally until a lease is
    out, then stops draining the pipes.  A leased worker's first record
    then blocks in its send; once some pipe is full and the unread bytes
    have stopped growing, the coordinator dies like a ``kill@coord``
    fault.  Exit 1 if no pipe ever fills."""
    if not self.table.active_count:
        return _REAL_RECEIVE(self, timeout, faults, kinds)
    last = None
    for _ in range(120):
        queued = [_unread_bytes(s.conn) for s in self._states.values() if s.alive]
        if queued == last and max(queued) >= FULL_PIPE_BYTES:
            os._exit(FAULT_EXIT_CODE)
        last = queued
        time.sleep(0.5)
    os._exit(1)


def _dist_child(
    journal_dir, fault_plan, nprocs, kwargs, workers, pid_dir, stall=False
):
    """Child-process body: a journaled distributed campaign that a
    ``kill@coord:n`` fault is expected to take down — or, with ``stall``,
    a campaign of :func:`_loud_lattice` whose coordinator stops reading
    and dies (:func:`_stop_reading_then_die`).  With ``pid_dir``, every
    worker it forks first touches a file named after its pid."""
    # this child exits below, so its patches die with it
    if pid_dir is not None:
        inner = worker.worker_main

        def worker_main(*args, **kwargs):
            Path(pid_dir, str(os.getpid())).touch()
            return inner(*args, **kwargs)

        coordinator.worker_main = worker_main
    if stall:
        coordinator.DistCoordinator._receive = _stop_reading_then_die
    distributed_verify(
        _loud_lattice if stall else wildcard_lattice,
        nprocs,
        DampiConfig(fault_plan=fault_plan),
        workers=workers,
        kwargs=kwargs,
        journal=journal_dir,
    )
    os._exit(0)  # reached only if the plan never killed us


def _crash_coordinator(
    journal_dir,
    fault_plan,
    nprocs=4,
    kwargs=BIG,
    workers=2,
    pid_dir=None,
    stall=False,
):
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(
        target=_dist_child,
        args=(
            str(journal_dir),
            fault_plan,
            nprocs,
            dict(kwargs),
            workers,
            pid_dir,
            stall,
        ),
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

    def test_hung_worker_expires_by_progress(self):
        """A worker that hangs mid-replay keeps its pipe open and its
        process alive — only the *progress*-based expiry can catch it.
        The coordinator must terminate it and re-issue the lease."""
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


def _gone(pid: int) -> bool:
    """The process has exited: no such pid, or a zombie its new parent
    has not reaped yet."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _assert_fleet_exits(pid_dir) -> None:
    """Every worker that recorded its pid in ``pid_dir`` is gone within
    5 s; survivors are killed so a failure leaks no process."""
    alive = {int(p.name) for p in Path(pid_dir).iterdir()}
    assert len(alive) >= 2
    deadline = time.monotonic() + 5
    while alive and time.monotonic() < deadline:
        alive = {pid for pid in alive if not _gone(pid)}
        time.sleep(0.05)
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    assert not alive, f"workers {sorted(alive)} outlived their coordinator"


class TestNoOrphans:
    def test_no_worker_outlives_its_coordinator(self, tmp_path):
        """A coordinator killed mid-campaign takes its fleet with it: every
        worker it forked exits within seconds, however many siblings were
        forked after it."""
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        _crash_coordinator(tmp_path / "j", "kill@coord:4", pid_dir=str(pid_dir))
        _assert_fleet_exits(pid_dir)

    def test_workers_blocked_in_send_exit_with_their_coordinator(self, tmp_path):
        """A coordinator that stops draining its pipes (it is the fleet's
        bottleneck) and then dies: a worker blocked in a send on a full
        pipe gets a broken pipe and exits too."""
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        _crash_coordinator(
            tmp_path / "j", None, kwargs=LATTICE, pid_dir=str(pid_dir), stall=True
        )
        _assert_fleet_exits(pid_dir)

    def test_campaign_leaves_no_process_or_thread(self):
        threads = threading.active_count()
        oracle = _oracle(nprocs=3, kwargs=LATTICE)
        report = _dist(nprocs=3, kwargs=LATTICE, workers=2)
        assert _canon(report) == _canon(oracle)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads


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
