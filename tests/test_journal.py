"""The durable campaign journal: crash, resume, bit-identity.

The acceptance bar for this subsystem: a campaign killed mid-run (by an
injected fault) and resumed from its journal produces a report
bit-identical to an uninterrupted run — without re-executing the
interleavings already journaled (the re-executed count is asserted).
"""

import collections
import hashlib
import inspect
import json
import multiprocessing
import os
import pickle
import shutil

import pytest
from hypothesis import given, strategies as st

from repro.cli import main
from repro.clocks.lamport import LamportStamp
from repro.clocks.vector import VectorStamp
from repro.dampi import (
    CampaignJournal,
    DampiConfig,
    DampiVerifier,
    JournalError,
    escalating_verify,
)
from repro.dampi import FaultInjected, VerificationReport
from repro.dampi import journal as jr
from repro.dampi import prune as prune_mod
from repro.dampi.config import SEMANTIC_CONFIG_FIELDS
from repro.dampi.decisions import EpochDecisions, schedule_key
from repro.dampi.epoch import EpochRecord, PotentialMatch, RunTrace
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.faults import FAULT_EXIT_CODE
from repro.dist import distributed_verify
from repro.mpi.costmodel import CostModel
from repro.workloads.bugzoo import ZOO
from repro.workloads.patterns import fig4_program, wildcard_lattice
from tests.kept_traces import TraceKeepingVerifier
from tests.test_parallel import _report_fingerprint

#: 4 interleavings at np=3 — small enough to crash precisely mid-walk
LATTICE = {"receives": 2, "senders": 2}
#: 27 interleavings at np=4 — big enough for segment rotation
BIG = {"receives": 3, "senders": 3}


def _canon(report) -> dict:
    """The bit-identity view of a report: its JSON minus the two fields
    that are honest about wall-clock (and therefore never reproducible)."""
    d = json.loads(report.to_json())
    d.pop("wall_seconds", None)
    d.pop("telemetry", None)
    return d


def _fsync_spy(log_path):
    """An ``os.fsync`` that also logs an ``inode size`` line to
    ``log_path`` — installed before a fork, it logs for every process."""
    real = os.fsync

    def spy(fd):
        real(fd)
        st = os.fstat(fd)
        with open(log_path, "a") as log:
            log.write(f"{st.st_ino} {st.st_size}\n")

    return spy


def _fsyncs(log_path) -> dict:
    """What :func:`_fsync_spy` logged: inode -> the file sizes its fsyncs
    covered, in order."""
    synced: dict = {}
    if os.path.exists(log_path):
        with open(log_path) as log:
            for line in log:
                ino, size = map(int, line.split())
                synced.setdefault(ino, []).append(size)
    return synced


def _machine_crash(journal_dir, log_path) -> None:
    """Cut every segment under ``journal_dir`` to the length its last fsync
    covered: what a power loss leaves of what only the page cache held."""
    synced = _fsyncs(log_path)
    for segment in journal_dir.rglob("segment-*.jsonl"):
        os.truncate(segment, max(synced.get(segment.stat().st_ino, [0])))


def _verify_child(
    journal_dir, fault_plan, nprocs, kwargs, workers, journal_kw, fsync_log=None
):
    """Child-process body: run a journaled verification — in-process, or
    by a fleet of ``workers`` — that a ``kill`` fault is expected to take
    down (``fsync_log``: log every fsync, see :func:`_fsync_spy`)."""
    if fsync_log is not None:
        jr.os.fsync = _fsync_spy(fsync_log)
    config = DampiConfig(fault_plan=fault_plan)
    journal = CampaignJournal(journal_dir, **journal_kw)
    if workers:
        distributed_verify(
            wildcard_lattice, nprocs, config, workers=workers,
            kwargs=dict(kwargs), journal=journal,
        )
    else:
        DampiVerifier(
            wildcard_lattice, nprocs, config, kwargs=dict(kwargs)
        ).verify(journal=journal)
    os._exit(0)  # reached only if the plan never killed us


def _crash_campaign(
    journal_dir, fault_plan, nprocs=3, kwargs=LATTICE, workers=None,
    fsync_log=None, **journal_kw
):
    """Run a journaled verification in a forked child process and assert
    the injected fault — not anything else — killed it."""
    ctx = multiprocessing.get_context("fork")
    proc = ctx.Process(
        target=_verify_child,
        args=(
            str(journal_dir), fault_plan, nprocs, kwargs, workers, journal_kw,
            fsync_log,
        ),
    )
    proc.start()
    proc.join(120)
    assert proc.exitcode == FAULT_EXIT_CODE, proc.exitcode


class TestCrashResume:
    def test_midrun_kill_then_resume_is_bit_identical(self, tmp_path):
        """THE acceptance test: kill the campaign before replay 2, resume,
        get the uninterrupted report back bit-for-bit — having re-executed
        only the runs the journal had not yet seen."""
        self._kill_resume_compare(tmp_path / "j", "kill@run:2")

    def test_kill_inside_a_replay_then_resume_is_bit_identical(self, tmp_path):
        """The ``flip`` site strikes inside ``run_once``: replay 2 is the
        one that flips epoch (0, 0), and dying in it loses exactly it."""
        self._kill_resume_compare(tmp_path / "j", "kill@flip:0.0")

    def _kill_resume_compare(self, journal_dir, plan):
        oracle = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify()
        assert [run.flip for run in oracle.runs].index((0, 0)) == 2
        _crash_campaign(journal_dir, plan)
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        # the journal held the self run + replay 1; only 2..3 re-executed
        assert resumed.journal_stats["replayed"] == 2
        assert resumed.journal_stats["executed"] == oracle.interleavings - 2
        assert _canon(resumed) == _canon(oracle)
        assert _report_fingerprint(resumed) == _report_fingerprint(oracle)

    def test_kill_during_self_run_restarts_cleanly(self, tmp_path):
        oracle = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify()
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@self")
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        # nothing made it to the journal before the kill
        assert resumed.journal_stats == {
            "dir": str(journal_dir),
            "replayed": 0,
            "executed": oracle.interleavings,
        }
        assert _canon(resumed) == _canon(oracle)

    @pytest.mark.parametrize("fleet", [False, True], ids=["in-process", "fleet"])
    def test_complete_journal_replays_without_executing(self, tmp_path, fleet):
        """Verifying a finished journal again executes nothing and writes
        nothing: no second ``end`` record, no new segment — whichever
        driver of the walk wrote it."""
        from repro.dist import DistCoordinator

        def attempt():
            v = DampiVerifier(wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE)
            if fleet:
                return DistCoordinator(v, workers=2, journal=tmp_path / "j").run()
            return v.verify(journal=tmp_path / "j")

        def snapshot():
            return {
                p: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in tmp_path.rglob("*")
                if p.is_file()
            }

        first = attempt()
        assert first.journal_stats["executed"] == first.interleavings
        before = snapshot()
        ends = [e for e in CampaignJournal(tmp_path / "j").entries if e["t"] == "end"]
        assert ends == [
            {"t": "end", "interleavings": first.interleavings, "truncated": False}
        ]
        for _ in range(2):
            again = attempt()
            assert again.journal_stats["replayed"] == first.journal_stats["executed"]
            assert again.journal_stats["executed"] == 0
            assert _canon(again) == _canon(first)
            assert snapshot() == before

    def test_live_journal_does_not_retain_what_it_appends(self, tmp_path):
        """``entries`` is the history loaded at open; what a campaign
        appends is durable on disk and not kept in the writing process."""
        journal = CampaignJournal(tmp_path / "j")
        report = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal)
        assert journal.entries == [] and journal.run_entries() == []
        assert journal.complete
        reopened = CampaignJournal(tmp_path / "j")
        assert reopened.complete
        keys = [jr.entry_schedule_key(e) for e in reopened.run_entries()]
        assert len(set(keys)) == len(keys) == report.interleavings
        assert keys[0] is None  # the self run, keyed null

    def test_each_attempt_opens_a_new_segment(self, tmp_path):
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        segments = sorted(p.name for p in journal_dir.glob("segment-*.jsonl"))
        assert segments == ["segment-00000.jsonl"]
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        segments = sorted(p.name for p in journal_dir.glob("segment-*.jsonl"))
        assert segments == ["segment-00000.jsonl", "segment-00001.jsonl"]

    def test_segment_rotation_preserves_resume(self, tmp_path):
        journal_dir = tmp_path / "j"
        oracle = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(), kwargs=BIG
        ).verify()
        _crash_campaign(
            journal_dir, "kill@run:10", nprocs=4, kwargs=BIG, segment_bytes=4096
        )
        assert len(list(journal_dir.glob("segment-*.jsonl"))) > 1
        resumed = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(), kwargs=BIG
        ).verify(journal=CampaignJournal(journal_dir, segment_bytes=4096))
        assert resumed.journal_stats["replayed"] == 10
        assert _canon(resumed) == _canon(oracle)

    def test_torn_tail_is_dropped(self, tmp_path):
        """A record half-written at the instant of death (no trailing
        newline) is discarded on load instead of poisoning the journal."""
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        segment = max(journal_dir.glob("segment-*.jsonl"))
        with open(segment, "ab") as f:
            f.write(b'{"t": "run", "index": 99, "trace"')  # torn mid-record
        oracle = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify()
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] == 2
        assert _canon(resumed) == _canon(oracle)

    def test_corrupt_interior_record_is_rejected(self, tmp_path):
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        segment = max(journal_dir.glob("segment-*.jsonl"))
        with open(segment, "ab") as f:
            f.write(b"this is not json\n")  # newline-terminated: not a torn tail
        with pytest.raises(JournalError):
            CampaignJournal(journal_dir)

    def test_changed_config_is_rejected(self, tmp_path):
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        with pytest.raises(JournalError):
            DampiVerifier(
                wildcard_lattice, 3, DampiConfig(bound_k=0), kwargs=LATTICE
            ).verify(journal=journal_dir)

    def test_changed_kwargs_are_rejected(self, tmp_path):
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        with pytest.raises(JournalError):
            DampiVerifier(
                wildcard_lattice,
                3,
                DampiConfig(),
                kwargs={"receives": 3, "senders": 2},
            ).verify(journal=journal_dir)

    def test_execution_knobs_do_not_invalidate_the_journal(self, tmp_path):
        """tracing / fault_plan are bit-identity-preserving, so resuming
        under different values of them must be allowed (``jobs`` too:
        :class:`TestOneJournal`)."""
        journal_dir = tmp_path / "j"
        _crash_campaign(journal_dir, "kill@run:2")
        resumed = DampiVerifier(
            wildcard_lattice,
            3,
            DampiConfig(trace_events=True, trace_sample_every=2),
            kwargs=LATTICE,
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] == 2

    def test_journal_stats_stay_off_the_report_json(self, tmp_path):
        report = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=tmp_path / "j")
        assert report.journal_stats is not None
        assert "journal_stats" not in json.loads(report.to_json())


class TestRunRecord:
    """One run, one serialised shape: what the journal stores is enough to
    rebuild everything the consume step reads."""

    @pytest.mark.parametrize("entry", ZOO, ids=lambda e: e.name)
    def test_recorded_run_consumes_like_the_live_one(self, entry):
        """The zoo's self runs cover deadlocks, crashes and both leak
        kinds; its racy programs add a guided replay (non-empty key)."""
        v = DampiVerifier(entry.program, entry.nprocs, DampiConfig())
        try:
            runs = [(None, *v.run_once())]
            gen = ScheduleGenerator()
            gen.seed(runs[0][2])
            decisions = gen.next_decisions()
            if decisions is not None:
                runs.append((decisions, *v.run_once(decisions)))
        finally:
            v.close()
        for decisions, result, trace in runs:
            record = json.loads(json.dumps(jr.run_entry(decisions, result, trace)))
            rebuilt = jr.result_from_entry(record)
            rtrace = jr.trace_from_jsonable(record["trace"])
            live_report, rebuilt_report = (
                VerificationReport(nprocs=entry.nprocs, config=v.config)
                for _ in range(2)
            )
            v._record_run(live_report, 1, decisions, result, trace, set())
            v._record_run(rebuilt_report, 1, decisions, rebuilt, rtrace, set())
            assert rebuilt_report.errors == live_report.errors
            assert rebuilt_report.runs == live_report.runs
            assert rebuilt_report.total_vtime == live_report.total_vtime
            # the pruning decision is taken from the same material
            assert prune_mod.outcome_digest(rebuilt, rtrace) == (
                prune_mod.outcome_digest(result, trace)
            )

    def test_resume_at_every_k_with_traces_and_artifacts(self, tmp_path):
        """Interrupt before every replay of a 6-run campaign whose errors
        surface at runs 0 and 2; every resume must hand back the
        uninterrupted report, kept traces and journaled traces (the
        run's on-disk artifact) included."""
        entry = next(e for e in ZOO if e.name == "order-dependent consumption")

        def verify(journal, fault_plan=None):
            """The report and the trace of every run it consumed."""
            v = TraceKeepingVerifier(
                entry.program, entry.nprocs, DampiConfig(fault_plan=fault_plan)
            )
            return v.verify(journal=journal), v.traces

        def journaled_traces(jdir):
            return {
                jr.entry_schedule_key(e): e["trace"]
                for e in CampaignJournal(jdir).run_entries()
            }

        oracle, oracle_traces = verify(tmp_path / "journal-oracle")
        assert oracle.interleavings == 6
        for k in range(1, oracle.interleavings):
            jdir = tmp_path / f"journal-{k}"
            with pytest.raises(FaultInjected):
                verify(jdir, fault_plan=f"raise@run:{k}")
            resumed, resumed_traces = verify(jdir)
            assert resumed.journal_stats["replayed"] == k
            assert resumed.journal_stats["executed"] == oracle.interleavings - k
            assert _canon(resumed) == _canon(oracle)
            assert _report_fingerprint(resumed) == _report_fingerprint(oracle)
            assert [jr.trace_to_jsonable(t) for t in resumed_traces] == [
                jr.trace_to_jsonable(t) for t in oracle_traces
            ]
            assert journaled_traces(jdir) == journaled_traces(
                tmp_path / "journal-oracle"
            )

    def test_v1_journal_is_refused_by_version(self, tmp_path, capsys):
        """A journal of the v1 format (post-dedup ``record`` view, no raw
        facts) or of v4 (a dict per epoch, per match and per stamp) must
        fail on its version, not on a missing field or a row unpacking."""
        v4_trace = {
            "nprocs": 3,
            "epochs": [{
                "rank": 0, "lc": 0, "index": 0, "ctx": 0, "tag": 0,
                "kind": "recv", "stamp": {"kind": "lamport", "time": 1, "rank": 0},
                "explore": True, "forced": False, "matched_source": 1,
                "matched_env_uid": 1, "matched_seq": 0,
            }],
            "matches": [{
                "epoch": [0, 0], "source": 2, "env_uid": 2, "seq": 0, "tag": 0,
                "stamp": {"kind": "lamport", "time": 0, "rank": 2},
            }],
            "unconsumed": [], "mismatches": [], "scalar_risk": [],
        }
        for version, entry in (
            (1, {
                "t": "run", "index": 0, "key": None, "trace": {},
                "record": {"makespan": 0.0}, "errors": [], "seen": [],
            }),
            (4, {
                "t": "run", "key": None, "trace": v4_trace, "makespan": 0.0,
                "stats": {}, "pb": None, "leaks": None, "deadlock": None,
                "errors": [], "monitor": None,
            }),
        ):
            _assert_refused_by_version(tmp_path, capsys, version, entry)

    def test_v3_journal_is_refused_by_version(self, tmp_path, capsys):
        """A v3 journal's ``run`` entries read fine, but its meta record
        hashes and dumps config fields this build no longer has: it fails
        on its version, not on a signature mismatch."""
        _assert_refused_by_version(tmp_path, capsys, 3, {
            "t": "run", "key": None, "trace": {}, "makespan": 0.0,
            "stats": {}, "pb": None, "leaks": None, "deadlock": None,
            "errors": [], "monitor": None,
        })


    def test_v5_journal_is_refused_by_version(self, tmp_path, capsys):
        """v5 ran the single-commit clock under ``clock_impl`` "lamport";
        v6's "lamport" is the committed-tick clock, so a v5 campaign must
        not continue under a v6 build: ``repro resume`` refuses it on its
        version, naming both."""
        jdir = tmp_path / "v5"
        argv = ["verify", "repro.workloads.patterns:fig10_program", "--nprocs", "3"]
        assert main([*argv, "--journal-dir", str(jdir)]) == 1
        capsys.readouterr()
        first = sorted(jdir.glob("segment-*.jsonl"))[0]
        meta, *rest = first.read_text().splitlines(keepends=True)
        record = json.loads(meta)
        assert record["t"] == "meta" and record["version"] == jr.JOURNAL_VERSION == 7
        first.write_text(json.dumps({**record, "version": 5}) + "\n" + "".join(rest))
        assert main(["resume", str(jdir)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "format version 5" in err and "version 7 only" in err

    def test_v6_journal_is_refused_by_version(self, tmp_path, capsys):
        """v6 run traces carry a ``mismatches`` cell that v7 dropped: a v6
        journal fails on its version, not on a trace row."""
        _assert_refused_by_version(tmp_path, capsys, 6, {
            "t": "run", "key": None, "makespan": 0.0, "stats": {},
            "trace": {
                "nprocs": 3, "epochs": [], "matches": [], "unconsumed": [],
                "mismatches": [], "scalar_risk": [],
            },
            "pb": None, "leaks": None, "deadlock": None, "errors": [],
            "monitor": None,
        })


class TestFailureEntryResume:
    def test_journal_with_a_failure_entry_is_refused(self, tmp_path, capsys):
        """The replay pool turned a dead worker into a ``"failure"`` entry;
        only a v2 build wrote one, so a journal holding it fails on its
        version before any reader meets a kind of entry this build no
        longer has."""
        _assert_refused_by_version(tmp_path, capsys, 2, {
            "t": "failure", "index": 4, "key": None, "reason": "worker died",
        })


def _roundtrip(trace):
    """A trace through the run record's trace codec and JSON text."""
    return jr.trace_from_jsonable(json.loads(json.dumps(jr.trace_to_jsonable(trace))))


def _one_epoch_trace(stamp=None, epoch=None, nprocs=4):
    e = epoch or EpochRecord(rank=1, lc=2, index=0, ctx=0, tag=7, stamp=stamp)
    epochs = {r: [] for r in range(nprocs)}
    epochs[e.rank].append(e)
    return RunTrace(nprocs=nprocs, epochs=epochs)


def _field_view(obj):
    """``obj`` with every field and its type spelled out, for comparing a
    trace field by field: stamps keep the rank their ``==`` ignores, a
    trace class (no ``==`` of its own) is compared slot by slot, and a
    tuple never equals a list nor a bool an int."""
    if isinstance(obj, LamportStamp):
        return (LamportStamp, obj.time, obj.rank)
    if isinstance(obj, VectorStamp):
        return (VectorStamp, obj.components, obj.rank)
    if isinstance(obj, (RunTrace, EpochRecord, PotentialMatch)):
        return (type(obj), *(
            _field_view(getattr(obj, name)) for name in type(obj).__slots__
        ))
    if isinstance(obj, dict):
        return {k: _field_view(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return (type(obj), *(_field_view(v) for v in obj))
    return (type(obj), obj)


def _assert_refused_by_version(tmp_path, capsys, version, entry):
    """Write a one-entry journal of format ``version``; both a resume in
    the API and ``repro resume`` must refuse it on that version, the CLI
    as a one-line usage error."""
    journal_dir = tmp_path / f"v{version}"
    journal_dir.mkdir()
    meta = {"t": "meta", "version": version, "nprocs": 3, "signature": {}}
    (journal_dir / "segment-00000.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in (meta, entry))
    )
    needle = f"format version {version}"
    with pytest.raises(JournalError, match=needle):
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
    assert main(["resume", str(journal_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and needle in err


class TestOneJournal:
    """One journal kind: a run record keyed by its schedule is a complete
    memo of that run, so any journal resumes at any worker count,
    whoever wrote it."""

    def test_any_writer_any_resumer(self, tmp_path):
        oracle = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(), kwargs=BIG
        ).verify()
        writers = {
            "in-process": dict(fault_plan="kill@run:10"),
            "fleet": dict(fault_plan="kill@coord:9", workers=2),
        }
        resumers = {
            "in-process": lambda j: DampiVerifier(
                wildcard_lattice, 4, DampiConfig(), kwargs=BIG
            ).verify(journal=j),
            "workers=1": lambda j: distributed_verify(
                wildcard_lattice, 4, DampiConfig(), workers=1, kwargs=BIG,
                journal=j,
            ),
            "workers=2": lambda j: distributed_verify(
                wildcard_lattice, 4, DampiConfig(), workers=2, kwargs=BIG,
                journal=j,
            ),
        }
        for writer, crash in writers.items():
            written = tmp_path / writer
            _crash_campaign(written, nprocs=4, kwargs=BIG, **crash)
            runs = len(CampaignJournal(written).run_entries())
            assert 0 < runs < oracle.interleavings
            for resumer, resume in resumers.items():
                journal_dir = tmp_path / f"{writer}-by-{resumer}"
                shutil.copytree(written, journal_dir)
                resumed = resume(journal_dir)
                assert _canon(resumed) == _canon(oracle), (writer, resumer)
                assert resumed.journal_stats["replayed"] == runs, (writer, resumer)

    def test_worker_memo_resumes_as_a_campaign(self, tmp_path):
        """A fleet worker's memo of one leased subtree is an ordinary
        journal of the campaign: resumed on its own it takes the subtree's
        runs and executes everything else."""
        oracle = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(), kwargs=BIG
        ).verify()
        jdir = tmp_path / "fleet"
        distributed_verify(
            wildcard_lattice, 4, DampiConfig(), workers=2, kwargs=BIG,
            journal=jdir,
        )
        memo = max(
            (jdir / "shards").glob("lease-*"),
            key=lambda d: len(CampaignJournal(d).run_entries()),
        )
        runs = len(CampaignJournal(memo).run_entries())
        assert runs > 0
        resumed = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(), kwargs=BIG
        ).verify(journal=memo)
        assert _canon(resumed) == _canon(oracle)
        assert resumed.journal_stats["replayed"] == runs
        assert resumed.journal_stats["executed"] == oracle.interleavings - runs


class TestGroupCommit:
    """Every append is written and flushed at once, so a process death
    loses nothing; ``run`` entries are fsync'd in groups, so a *machine*
    crash may lose the runs appended since the last sync — which the next
    attempt executes again — but never a lease, a meta or an end record."""

    def test_few_syncs_and_every_other_entry_synced_before_append_returns(
        self, tmp_path, monkeypatch
    ):
        log = tmp_path / "fsync.log"
        monkeypatch.setattr(jr.os, "fsync", _fsync_spy(log))
        real_append = jr.CampaignJournal.append
        checked = []

        def append(self, record):
            real_append(self, record)
            if record["t"] != "run":
                st = os.fstat(self._fh.fileno())
                synced = _fsyncs(log).get(st.st_ino, [None])
                assert synced[-1] == st.st_size, record["t"]
                checked.append(record["t"])

        monkeypatch.setattr(jr.CampaignJournal, "append", append)
        report = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(trace_events=True),
            kwargs={"receives": 5, "senders": 3},
        ).verify(journal=tmp_path / "j")
        assert report.interleavings >= 100
        assert checked == ["meta", "end"]
        counters = report.telemetry["metrics"]["counters"]
        appends, syncs = counters["journal.appends"], counters["journal.syncs"]
        assert appends == report.interleavings + 2
        assert 3 <= syncs <= appends // 4, (syncs, appends)
        # a coordinator's lease ledger: each entry synced as it is written
        checked.clear()
        distributed_verify(
            wildcard_lattice, 4, DampiConfig(), workers=2, kwargs=BIG,
            journal=tmp_path / "fleet",
        )
        assert set(checked) == {"meta", "lease", "lease_done", "end"}

    @pytest.mark.parametrize("fleet", [False, True], ids=["in-process", "fleet"])
    def test_raised_walk_closes_and_syncs_its_journal(
        self, tmp_path, monkeypatch, fleet
    ):
        """An exception out of the walk writes no ``end`` marker, but the
        journal is closed and its last fsync covers every byte written —
        whether the walk ran here or in a fleet's coordinator."""
        from repro.dist import DistCoordinator

        log = tmp_path / "fsync.log"
        monkeypatch.setattr(jr.os, "fsync", _fsync_spy(log))
        journal = CampaignJournal(tmp_path / "j")
        v = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(fault_plan="raise@run:5"), kwargs=BIG
        )
        with pytest.raises(FaultInjected):
            if fleet:
                DistCoordinator(v, workers=2, journal=journal).run()
            else:
                v.verify(journal=journal)
        assert journal._fh is None and not journal.complete
        (segment,) = (tmp_path / "j").glob("segment-*.jsonl")
        st = segment.stat()
        assert _fsyncs(log)[st.st_ino][-1] == st.st_size
        runs = len(CampaignJournal(tmp_path / "j").run_entries())
        # the walk took runs 0..4; a fleet may have delivered more
        assert runs >= 5 if fleet else runs == 5

    @pytest.mark.parametrize("writer", ["in-process", "fleet"])
    def test_machine_crash_keeps_the_synced_prefix(self, tmp_path, writer):
        """Kill a campaign, then drop from every segment what its last
        fsync did not cover: resumed in-process and by a fleet of 2, the
        report is the oracle's, exactly the synced runs are replayed, and
        every lease a worker was handed is in the journal."""
        oracle = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(), kwargs=BIG
        ).verify()
        written, log = tmp_path / "written", tmp_path / "fsync.log"
        crash = (
            dict(fault_plan="kill@run:10") if writer == "in-process"
            else dict(fault_plan="kill@coord:9", workers=2)
        )
        _crash_campaign(written, nprocs=4, kwargs=BIG, fsync_log=log, **crash)
        _machine_crash(written, log)
        survivor = CampaignJournal(written)
        assert survivor.meta is not None
        leases = {e["id"] for e in survivor.entries if e["t"] == "lease"}
        handed = {d.name[len("lease-"):] for d in written.glob("shards/lease-*")}
        assert handed <= leases
        if writer == "fleet":
            assert handed
        runs = len(survivor.run_entries())
        resumers = {
            "in-process": lambda j: DampiVerifier(
                wildcard_lattice, 4, DampiConfig(), kwargs=BIG
            ).verify(journal=j),
            "workers=2": lambda j: distributed_verify(
                wildcard_lattice, 4, DampiConfig(), workers=2, kwargs=BIG,
                journal=j,
            ),
        }
        for resumer, resume in resumers.items():
            journal_dir = tmp_path / resumer
            shutil.copytree(written, journal_dir)
            resumed = resume(journal_dir)
            assert _canon(resumed) == _canon(oracle), resumer
            assert resumed.journal_stats["replayed"] == runs, resumer


class TestRowFormat:
    """The row format loses nothing a live trace holds: vector stamps,
    escalation-injected matches (``env_uid`` -1, no stamp) and every
    field's type included."""

    CLOCKS = {
        "lamport": {},
        "vector": {"clock_impl": "vector"},
        "adaptive": {"adaptive_clocks": True},
    }

    @pytest.mark.parametrize("clock", sorted(CLOCKS))
    def test_every_live_trace_roundtrips_field_by_field(self, clock):
        seen = collections.Counter()
        programs = [(e.program, e.nprocs) for e in ZOO] + [(fig4_program, 4)]
        for program, nprocs in programs:
            v = TraceKeepingVerifier(
                program, nprocs, DampiConfig(**self.CLOCKS[clock])
            )
            v.verify()
            for trace in v.traces:
                assert _field_view(_roundtrip(trace)) == _field_view(trace)
                for m in trace.potential_matches:
                    seen[type(m.stamp).__name__] += 1
                    seen["escalated"] += m.env_uid == prune_mod.ESCALATED_ENV_UID
                for e in trace.all_epochs():
                    seen[type(e.stamp).__name__] += 1
        if clock == "vector":
            assert seen["VectorStamp"] and not seen["LamportStamp"]
        else:
            assert seen["LamportStamp"] and not seen["VectorStamp"]
        if clock == "adaptive":
            assert seen["escalated"] and seen["escalated"] == seen["NoneType"]
        else:
            assert not seen["escalated"] and not seen["NoneType"]


class TestCampaignJournals:
    def test_escalate_resumes_across_stages(self, tmp_path):
        oracle = escalating_verify(wildcard_lattice, 4, kwargs=BIG)
        journal_dir = tmp_path / "j"
        first = escalating_verify(
            wildcard_lattice, 4, kwargs=BIG, journal_dir=journal_dir
        )
        resumed = escalating_verify(
            wildcard_lattice, 4, kwargs=BIG, journal_dir=journal_dir
        )
        assert [s.label for s in resumed.steps] == [s.label for s in oracle.steps]
        for a, b in zip(resumed.steps, oracle.steps):
            assert _canon(a.report) == _canon(b.report)
        for step in resumed.steps:
            assert step.report.journal_stats["executed"] == 0
        assert resumed.stopped_reason == first.stopped_reason


class TestSerialization:
    def test_decisions_roundtrip(self):
        d = EpochDecisions(forced={(0, 1): 2, (1, 0): 0}, flip=(0, 1))
        d2 = jr.decisions_from_jsonable(jr.decisions_to_jsonable(d))
        assert schedule_key(d2) == schedule_key(d)

    def test_decisions_roundtrip_no_flip(self):
        d = EpochDecisions(forced={}, flip=None)
        d2 = jr.decisions_from_jsonable(jr.decisions_to_jsonable(d))
        assert d2.flip is None and d2.forced == {}

    def test_lamport_stamp_roundtrip(self):
        (out,) = _roundtrip(_one_epoch_trace(LamportStamp(7, 3))).all_epochs()
        assert _field_view(out.stamp) == (LamportStamp, 7, 3)

    def test_vector_stamp_roundtrip(self):
        s = VectorStamp((1, 0, 4), 2)
        (out,) = _roundtrip(_one_epoch_trace(s)).all_epochs()
        assert out.stamp == s
        assert _field_view(out.stamp) == (VectorStamp, (1, 0, 4), 2)

    def test_none_stamp(self):
        (out,) = _roundtrip(_one_epoch_trace(None)).all_epochs()
        assert out.stamp is None

    @given(
        rank=st.integers(min_value=0, max_value=9),
        lc=st.integers(min_value=0, max_value=100),
        tag=st.integers(min_value=-102, max_value=50),
        matched=st.one_of(st.none(), st.integers(min_value=0, max_value=9)),
    )
    def test_epoch_roundtrip_property(self, rank, lc, tag, matched):
        e = EpochRecord(
            rank=rank, lc=lc, index=0, ctx=0, tag=tag, stamp=LamportStamp(lc + 1)
        )
        e.matched_source = matched
        (out,) = _roundtrip(_one_epoch_trace(epoch=e, nprocs=10)).all_epochs()
        assert _field_view(out) == _field_view(e)

    def test_match_roundtrip(self):
        m = PotentialMatch(
            epoch=(1, 4), source=2, env_uid=99, seq=3, tag=5, stamp=LamportStamp(2)
        )
        trace = RunTrace(nprocs=2, epochs={0: [], 1: []}, potential_matches=[m])
        (out,) = _roundtrip(trace).potential_matches
        assert _field_view(out) == _field_view(m)

    def test_rows_are_flat_and_fixed_order(self):
        """The on-disk shape: one flat row per epoch and per match, stamps
        as two cells — no dict below the trace."""
        e = EpochRecord(0, 3, 1, 0, -1, "probe", LamportStamp(4, 0), True, False, 2, 17, 1)
        m = PotentialMatch((0, 3), 1, 12, 0, 5, VectorStamp((0, 2), 1))
        payload = jr.trace_to_jsonable(
            RunTrace(nprocs=2, epochs={0: [e], 1: []}, potential_matches=[m])
        )
        assert payload["epochs"] == [
            [0, 3, 1, 0, -1, "probe", 4, 0, True, False, 2, 17, 1]
        ]
        assert payload["matches"] == [[0, 3, 1, 12, 0, 5, [0, 2], 1]]

    def test_config_signature_ignores_execution_knobs(self):
        base = DampiConfig()
        same = DampiConfig(jobs=4, fault_plan="kill@self", trace_events=True)
        different = DampiConfig(bound_k=2)
        assert jr.config_signature(3, base) == jr.config_signature(3, same)
        assert jr.config_signature(3, base) != jr.config_signature(3, different)
        assert jr.config_signature(3, base) != jr.config_signature(4, base)
        assert jr.config_signature(3, base) != jr.config_signature(
            3, base, kwargs={"receives": 2}
        )

    #: fields that cannot change a report (bit-identity holds across them)
    EXECUTION_CONFIG_FIELDS = {
        "jobs",
        "trace_events", "trace_sample_every",
        "progress_interval_seconds", "fault_plan",
        "dist_lease_timeout_seconds",
    }

    def test_every_config_field_is_classified(self):
        """A new DampiConfig field must answer "does it change the
        report?": semantic (hashed into the journal signature) or listed
        above as an execution knob — never neither, never both."""
        semantic = set(SEMANTIC_CONFIG_FIELDS) | {"cost_model"}
        assert len(SEMANTIC_CONFIG_FIELDS) == 11
        assert len(semantic) == len(SEMANTIC_CONFIG_FIELDS) + 1
        assert not semantic & self.EXECUTION_CONFIG_FIELDS
        names = set(DampiConfig.FIELDS)
        # every __init__ parameter is a listed field, in positional order
        assert list(inspect.signature(DampiConfig).parameters) == list(DampiConfig.FIELDS)
        assert len(names) == 18
        assert names == semantic | self.EXECUTION_CONFIG_FIELDS
        assert set(jr.config_signature(3, DampiConfig())) == semantic | {
            "nprocs", "kwargs", "args",
        }

    def test_a_custom_cost_model_signs_and_dumps_by_field(self):
        """The signature and the ``resume`` dump spell a cost model as its
        fields in declaration order — the bytes a journal's meta record
        holds, which an existing journal is matched against."""
        cfg = DampiConfig(bound_k=2, cost_model=CostModel(latency=1e-05, tool_factor=0.5))
        assert json.dumps(jr.config_signature(3, cfg)["cost_model"]) == (
            '{"p2p_overhead": 5e-07, "latency": 1e-05, '
            '"byte_time": 6.666666666666666e-10, "collective_alpha": 2e-06, '
            '"collective_beta": 1.5e-06, "local_op": 2e-07, "tool_factor": 0.5, '
            '"tool_epoch_cost": 5.5e-05, "tool_msg_analysis_cost": 2e-07, '
            '"tool_wrap_cost": 4e-07}'
        )
        payload = jr.config_to_jsonable(cfg)
        assert list(payload) == list(DampiConfig.FIELDS)
        assert payload["cost_model"] == cfg.cost_model.as_dict()
        again = json.loads(json.dumps(payload))
        cm = CostModel(**again.pop("cost_model"))
        assert DampiConfig(**again, cost_model=cm) == cfg
        # a policy instance is not JSON-able: in-process resume only
        assert jr.config_to_jsonable(DampiConfig(policy=object())) is None


class TestConfigRecord:
    """``DampiConfig`` and ``CostModel`` are plain classes: one field tuple
    drives ``replace``, ``as_dict``, ``==`` and ``repr``."""

    def test_replace_copies_and_validates(self):
        cfg = DampiConfig()
        four = cfg.replace(jobs=4, bound_k=1)
        assert (four.jobs, four.bound_k, cfg.jobs, cfg.bound_k) == (4, 1, 1, None)
        assert four.cost_model is cfg.cost_model  # a shallow copy
        with pytest.raises(ValueError, match="bound_k"):
            cfg.replace(bound_k=-1)
        with pytest.raises(TypeError):
            cfg.replace(no_such_knob=1)
        assert CostModel().replace(latency=1.0).latency == 1.0

    def test_equality_repr_and_no_hash(self):
        assert DampiConfig() == DampiConfig()
        assert DampiConfig() != DampiConfig(prune=False)
        assert DampiConfig() != DampiConfig(cost_model=CostModel(latency=1.0))
        assert CostModel() != object()
        assert DampiConfig().cost_model is not DampiConfig().cost_model
        assert repr(CostModel(local_op=1.0)).startswith(
            "CostModel(p2p_overhead=5e-07, latency=2e-06, "
        )
        assert repr(DampiConfig(jobs=2)).startswith(
            "DampiConfig(clock_impl='lamport', piggyback='separate', bound_k=None, "
        )
        assert "jobs=2, " in repr(DampiConfig(jobs=2))
        with pytest.raises(TypeError):
            hash(DampiConfig())

    def test_fields_are_assigned_once(self):
        """A config shares its cost model with every copy ``replace``
        makes, so neither may change in place."""
        cfg = DampiConfig()
        with pytest.raises(AttributeError, match="immutable"):
            cfg.cost_model.latency = 3.0e-5
        with pytest.raises(AttributeError, match="immutable"):
            cfg.jobs = 2
        assert cfg.cost_model.replace(latency=3.0e-5).latency == 3.0e-5
        assert cfg == DampiConfig()
        assert pickle.loads(pickle.dumps(cfg)) == cfg

    def test_positional_order_is_the_field_order(self):
        assert list(inspect.signature(CostModel).parameters) == list(CostModel.FIELDS)
        assert DampiConfig("vector", "inline", 3).as_dict()["bound_k"] == 3


#: a journal written by commit 689ea76, when ``DampiConfig`` and
#: ``CostModel`` were dataclasses: ``repro verify
#: repro.workloads.patterns:wildcard_lattice --nprocs 3 --kwargs LATTICE
#: --fault-plan kill@run:2 --journal-dir ...``, killed before replay 2
OLD_JOURNAL = os.path.join(os.path.dirname(__file__), "data", "journal-kill-run2")


class TestOldJournal:
    """A journal an earlier release wrote resumes under this one: the
    meta record's signature is the one this release computes, so nothing
    is refused, and the walk continues where the kill left it."""

    def _copy(self, tmp_path, name="j"):
        return shutil.copytree(OLD_JOURNAL, tmp_path / name)

    def test_signature_and_in_process_resume(self, tmp_path):
        journal_dir = self._copy(tmp_path)
        meta = CampaignJournal(journal_dir).meta
        assert meta["signature"] == jr.config_signature(3, DampiConfig(), LATTICE)
        assert json.dumps(meta["signature"]) == json.dumps(
            jr.config_signature(3, DampiConfig(), LATTICE)
        )
        oracle = DampiVerifier(wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE).verify()
        resumed = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(journal=journal_dir)
        assert resumed.journal_stats["replayed"] == 2
        assert resumed.journal_stats["executed"] == oracle.interleavings - 2
        assert _canon(resumed) == _canon(oracle)

    @pytest.mark.parametrize("workers", [None, 2], ids=["recorded", "workers2"])
    def test_cli_resume_equals_an_uninterrupted_run(self, tmp_path, capsys, workers):
        """``repro resume`` rebuilds the config from the recorded dump
        (``CostModel(**...)`` included) and reports what ``verify`` does."""
        assert main([
            "verify", TestCliJournal.PROG, "--nprocs", "3",
            "--kwargs", json.dumps(LATTICE), "--json-out", str(tmp_path / "full.json"),
        ]) == 0
        argv = ["resume", str(self._copy(tmp_path)), "--json-out", str(tmp_path / "r.json")]
        capsys.readouterr()
        assert main(argv + (["--workers", str(workers)] if workers else [])) == 0
        assert "journal: 2 run(s) replayed, 2 executed" in capsys.readouterr().out

        def canon(path):
            d = json.loads(path.read_text())
            d.pop("wall_seconds")
            d.pop("telemetry")
            return d

        assert canon(tmp_path / "r.json") == canon(tmp_path / "full.json")


class TestCliJournal:
    PROG = "repro.workloads.patterns:wildcard_lattice"

    def test_verify_journal_dir_then_resume(self, tmp_path, capsys):
        journal_dir = tmp_path / "j"
        rc = main(
            [
                "verify", self.PROG, "--nprocs", "3",
                "--kwargs", json.dumps(LATTICE),
                "--journal-dir", str(journal_dir),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0 and "journal" in out
        rc = main(["resume", str(journal_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        # resumed a complete journal: everything replayed, nothing executed
        assert "run(s) replayed, 0 executed" in out

    def test_journal_naming_a_removed_knob_is_refused(self, tmp_path, capsys):
        """A journal from a version whose DampiConfig had more fields
        (``mode``, ``persistent_session``, ``indexed_matching``; the
        prefix-checkpoint knobs) is never resumed silently: ``repro
        resume`` refuses it and writes nothing, and where a removed field
        was semantic the API door refuses it too."""
        removed = {
            "substrate": (
                {"mode": "run_to_block"},
                dict(
                    mode="run_to_block", persistent_session=True,
                    indexed_matching=True, journal_fsync=True,
                    dist_heartbeat_seconds=0.5,
                ),
            ),
            "prefix-checkpoints": (
                {},
                dict(
                    prefix_checkpoints=True, checkpoint_cache_mb=64,
                    checkpoint_interval=1,
                ),
            ),
        }
        def files(root):
            return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}

        for name, (signature, config) in removed.items():
            journal_dir = tmp_path / name
            DampiVerifier(wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE).verify(
                journal=CampaignJournal(journal_dir, program_label=self.PROG)
            )
            segment = min(journal_dir.glob("segment-*.jsonl"))
            head, _, rest = segment.read_text().partition("\n")
            meta = json.loads(head)
            assert meta["t"] == "meta"
            meta["signature"].update(signature)
            meta["config"].update(config)
            segment.write_text(json.dumps(meta) + "\n" + rest)
            before = files(journal_dir)
            assert main(["resume", str(journal_dir)]) == 2
            err = capsys.readouterr().err
            assert "does not match this version's DampiConfig" in err
            assert files(journal_dir) == before
            if signature:
                with pytest.raises(
                    JournalError, match="different verification semantics"
                ):
                    DampiVerifier(
                        wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
                    ).verify(journal=journal_dir)

    def test_resume_without_meta_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["resume", str(empty)]) == 2
