"""The `python -m repro` command-line front end."""

import json

import pytest

from repro.cli import UsageError, main, resolve_program


class TestResolveProgram:
    def test_resolves(self):
        fn = resolve_program("repro.workloads.patterns:fig3_program")
        from repro.workloads.patterns import fig3_program

        assert fn is fig3_program

    def test_missing_colon(self):
        with pytest.raises(UsageError):
            resolve_program("repro.workloads.patterns")

    def test_bad_module(self):
        with pytest.raises(UsageError):
            resolve_program("no.such.module:fn")

    def test_bad_attr(self):
        with pytest.raises(UsageError):
            resolve_program("repro.workloads.patterns:nope")

    def test_not_callable(self):
        with pytest.raises(UsageError):
            resolve_program("repro.workloads.patterns:ANY_SOURCE")


class TestVerifyCommand:
    def test_finds_fig3_and_exits_nonzero(self, capsys):
        rc = main(
            ["verify", "repro.workloads.patterns:fig3_program", "--nprocs", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "WildcardBugError" in out
        assert "interleavings explored : 2" in out

    def test_clean_program_exits_zero(self, capsys):
        rc = main(
            [
                "verify",
                "repro.workloads.patterns:wildcard_lattice",
                "--nprocs",
                "3",
                "--kwargs",
                json.dumps({"receives": 2, "senders": 2}),
            ]
        )
        assert rc == 0
        assert "no errors found" in capsys.readouterr().out

    def test_bound_k_and_budget_flags(self, capsys):
        rc = main(
            [
                "verify",
                "repro.workloads.patterns:wildcard_lattice",
                "--nprocs",
                "4",
                "--kwargs",
                json.dumps({"receives": 3, "senders": 3}),
                "--bound-k",
                "0",
            ]
        )
        assert rc == 0
        assert "interleavings explored : 7" in capsys.readouterr().out

    def test_witness_dir(self, tmp_path, capsys):
        rc = main(
            [
                "verify",
                "repro.workloads.patterns:fig3_program",
                "--nprocs",
                "3",
                "--witness-dir",
                str(tmp_path),
            ]
        )
        assert rc == 1
        witnesses = list(tmp_path.glob("error*.json"))
        assert len(witnesses) == 1

    def test_monitor_alert_printed(self, capsys):
        rc = main(
            ["verify", "repro.workloads.patterns:fig10_program", "--nprocs", "3"]
        )
        assert rc == 1  # the committed tick exposes the §V crash ...
        out = capsys.readouterr().out
        assert "interleavings explored : 2" in out
        assert "[crash] in replay 1" in out
        assert "alert:" in out  # ... and the monitor still reports its window

    def test_dual_clock_flag(self, capsys):
        """The committed tick is no longer a separate clock: the old
        ``_dual`` names are usage errors."""
        for clock in ("lamport_dual", "vector_dual"):
            argv = [
                "verify",
                "repro.workloads.patterns:fig10_program",
                "--nprocs",
                "3",
                "--clock",
                clock,
            ]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err


class TestReplayCommand:
    def test_replay_reproduces(self, tmp_path, capsys):
        main(
            [
                "verify",
                "repro.workloads.patterns:fig3_program",
                "--nprocs",
                "3",
                "--witness-dir",
                str(tmp_path),
            ]
        )
        capsys.readouterr()
        witness = next(tmp_path.glob("error*.json"))
        argv = [
            "replay",
            "repro.workloads.patterns:fig3_program",
            "--nprocs",
            "3",
            "--decisions",
            str(witness),
        ]
        rc = main(argv)
        out = capsys.readouterr().out
        assert rc == 1
        assert "WildcardBugError" in out
        # a witness written before prefix checkpoints were deleted carries
        # their advisory hint; the key is ignored, the outcome the same
        payload = json.loads(witness.read_text())
        assert "expect_siblings" not in payload
        witness.write_text(json.dumps({**payload, "expect_siblings": False}))
        assert main(argv) == 1
        assert capsys.readouterr().out == out


class TestJobsFlag:
    """``--jobs`` exists only where it sizes something: ``dist run``
    spells its fleet ``--workers``, ``replay`` runs one schedule."""

    @pytest.mark.parametrize(
        "command",
        [
            ["dist", "run"],
            ["replay", "--decisions", "w.json"],
        ],
        ids=["dist run", "replay"],
    )
    def test_rejected_where_it_would_be_ignored(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                command
                + ["repro.workloads.patterns:fig3_program", "-n", "3", "--jobs", "4"]
            )
        assert exc.value.code == 2  # argparse usage error
        assert "--jobs" in capsys.readouterr().err


class TestUsageErrors:
    """Misuse is one line on stderr and argparse's exit code 2 — never a
    traceback, never 1 (which means the program under test has defects)."""

    LATTICE = [
        "verify", "repro.workloads.patterns:wildcard_lattice",
        "--kwargs", json.dumps({"receives": 2, "senders": 2}),
    ]

    def _assert_usage_error(self, argv, capsys, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("repro: error: ") and needle in captured.err

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["-n", "3", "--jobs", "-1"], "jobs"),
            (["-n", "3", "--bound-k", "-1"], "bound_k"),
            (["-n", "0"], "--nprocs"),
            (["-n", "3", "--kwargs", "[1]"], "--kwargs"),
            (["-n", "3", "--kwargs", "{"], "--kwargs"),
            (["-n", "3", "--trace-sample", "0"], "trace_sample_every"),
            (["-n", "3", "--fault-plan", "kill@restore:1.2"], "unknown site 'restore'"),
        ],
        ids=[
            "jobs", "bound-k", "nprocs", "kwargs-list", "kwargs-json",
            "trace-sample", "removed-fault-site",
        ],
    )
    def test_bad_flag_values(self, flags, needle, capsys):
        self._assert_usage_error(self.LATTICE + flags, capsys, needle)

    @pytest.mark.parametrize(
        "command",
        [["escalate"], ["dist", "run"], ["replay", "--decisions", "w.json"]],
        ids=["escalate", "dist run", "replay"],
    )
    def test_every_program_command_validates_its_inputs(self, command, capsys):
        argv = command + ["repro.workloads.patterns:fig3_program", "-n", "0"]
        self._assert_usage_error(argv, capsys, "--nprocs")

    def test_journal_recorded_under_other_semantics(self, tmp_path, capsys):
        argv = self.LATTICE + ["-n", "3", "--journal-dir", str(tmp_path / "j")]
        assert main(argv) == 0
        capsys.readouterr()
        self._assert_usage_error(
            argv + ["--bound-k", "1"], capsys, "different verification semantics"
        )
        # a fleet is refused on the semantics too, and on nothing else
        fleet = ["dist", "run"] + argv[1:] + ["--workers", "2"]
        self._assert_usage_error(
            fleet + ["--bound-k", "1"], capsys, "different verification semantics"
        )
        assert main(fleet) == 0
        assert "4 run(s) replayed, 0 executed" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, needle",
        [
            (["--no-trace", "--trace-sample", "4"], "--trace-sample"),
            (["--no-trace", "--events-out", "e.jsonl"], "--no-trace"),
            (["--trace-sample", "4"], "nothing to sample"),
            (["--adaptive-clocks", "--clock", "vector"], "--adaptive-clocks"),
        ],
        ids=[
            "no-trace+sample", "no-trace+export", "sample-without-sink",
            "adaptive+vector",
        ],
    )
    def test_conflicting_flags(self, flags, needle, capsys):
        self._assert_usage_error(self.LATTICE + ["-n", "3"] + flags, capsys, needle)

    def test_bad_program_spec_and_fleet_size(self, capsys):
        self._assert_usage_error(
            ["verify", "no.such.module:fn", "-n", "3"], capsys, "cannot import"
        )
        self._assert_usage_error(
            ["dist", "run"] + self.LATTICE[1:] + ["-n", "3", "--workers", "0"],
            capsys, "--workers",
        )

    @pytest.mark.parametrize(
        "command, missing, not_a_journal",
        [
            (["resume"], "not a directory", "not a directory"),
            (["stats"], "cannot read", "neither a report"),
        ],
        ids=["resume", "stats"],
    )
    def test_read_only_commands_create_nothing(
        self, command, missing, not_a_journal, tmp_path, capsys
    ):
        nope = tmp_path / "nope"
        self._assert_usage_error(command + [str(nope)], capsys, missing)
        assert not nope.exists()
        a_file = tmp_path / "file"
        a_file.write_text("{}")
        self._assert_usage_error(command + [str(a_file)], capsys, not_a_journal)

    def test_wrong_journal_kind_and_unreadable_stats_input(self, tmp_path, capsys):
        self._assert_usage_error(
            ["stats", str(tmp_path)], capsys, "not a journal directory"
        )
        self._assert_usage_error(
            ["stats", str(tmp_path / "missing.json")], capsys, "cannot read"
        )
        junk = tmp_path / "junk.txt"
        junk.write_text("not telemetry\n")
        self._assert_usage_error(["stats", str(junk)], capsys, "neither a report")
        self._assert_usage_error(
            ["stats", str(junk), "--follow"], capsys, "--follow"
        )

    def test_interrupting_stats_follow_is_not_an_error(
        self, tmp_path, capsys, monkeypatch
    ):
        import time

        from repro.dampi import DampiConfig, DampiVerifier, FaultInjected
        from repro.workloads.patterns import wildcard_lattice

        with pytest.raises(FaultInjected):  # leaves the journal without an end
            DampiVerifier(
                wildcard_lattice, 3, DampiConfig(fault_plan="raise@run:2"),
                kwargs={"receives": 2, "senders": 2},
            ).verify(journal=tmp_path / "j")

        def interrupt(_seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", interrupt)
        assert main(["stats", str(tmp_path / "j"), "--follow"]) == 0
        assert "stopped following" in capsys.readouterr().out


class TestEscalateCommand:
    def test_escalate_finds_error_early(self, capsys):
        rc = main(
            ["escalate", "repro.workloads.patterns:fig3_program", "--nprocs", "3"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "error found at k=0" in out

    def test_escalate_covers_clean_program(self, capsys):
        rc = main(
            [
                "escalate",
                "repro.workloads.patterns:wildcard_lattice",
                "--nprocs",
                "4",
                "--kwargs",
                json.dumps({"receives": 3, "senders": 3}),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "full space covered" in out
        # k=2 already proves full coverage on the 3-deep lattice (its bound
        # never froze a node), so the redundant unbounded stage is skipped
        assert "k=2" in out
        assert "unbounded" not in out


class TestTelemetryFlags:
    ARGS = [
        "verify",
        "repro.workloads.patterns:wildcard_lattice",
        "--nprocs", "3",
        "--kwargs", json.dumps({"receives": 2, "senders": 2}),
    ]

    def test_trace_out_writes_valid_chrome_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        rc = main(self.ARGS + ["--trace-out", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        records = doc["traceEvents"]
        assert any(r["ph"] == "X" and r["name"] == "run" for r in records)
        lanes = {r["tid"] for r in records}
        assert {0, 1, 2, 3} <= lanes  # scheduler + 3 rank lanes
        assert "chrome trace saved" in capsys.readouterr().out

    def test_events_out_roundtrips_and_stats_renders(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        rc = main(self.ARGS + ["--events-out", str(events)])
        assert rc == 0
        capsys.readouterr()
        assert main(["stats", str(events)]) == 0
        out = capsys.readouterr().out
        assert "event log:" in out and "by category" in out

    def test_json_out_and_stats_renders_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        rc = main(self.ARGS + ["--json-out", str(report)])
        assert rc == 0
        payload = json.loads(report.read_text())
        assert payload["version"] == 3
        assert payload["telemetry"]["metrics"]["counters"]["campaign.runs"] == 4
        capsys.readouterr()
        assert main(["stats", str(report)]) == 0
        out = capsys.readouterr().out
        assert "campaign.runs" in out and "counters" in out

    def test_stats_renders_a_fleet_report_and_its_journal(self, tmp_path, capsys):
        report, journal = tmp_path / "report.json", tmp_path / "j"
        fleet = ["dist", "run", *self.ARGS[1:], "--workers", "2"]
        rc = main(fleet + ["--json-out", str(report), "--journal-dir", str(journal)])
        assert rc == 0
        counters = json.loads(report.read_text())["telemetry"]["metrics"]["counters"]
        capsys.readouterr()
        assert main(["stats", str(report)]) == 0
        assert (
            f"distributed       : 2 worker(s), {counters['dist.records']} "
            f"record(s) streamed, 0 death(s)"
        ) in capsys.readouterr().out
        leases = sum(
            1
            for segment in journal.glob("segment-*.jsonl")
            for line in segment.read_text().splitlines()
            if json.loads(line)["t"] == "lease"
        )
        assert leases >= 1
        assert main(["stats", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "(complete)" in out
        assert f"leases            : {leases}/{leases} lease(s) done" in out

    def test_stats_rejects_unrelated_file(self, tmp_path):
        junk = tmp_path / "junk.txt"
        junk.write_text("not telemetry\n")
        assert main(["stats", str(junk)]) == 2

    def test_show_runs_footer_and_all_flag(self, capsys):
        args = [
            "verify",
            "repro.workloads.patterns:wildcard_lattice",
            "--nprocs", "5",
            "--kwargs", json.dumps({"receives": 3, "senders": 4}),
            "--max-interleavings", "60",
            "--show-runs",
        ]
        rc = main(args)
        capped = capsys.readouterr().out
        rc_all = main(args + ["--all"])
        full = capsys.readouterr().out
        assert rc == rc_all == 0
        assert "more runs (use --all)" in capped
        assert "more runs" not in full
        assert full.count("\n") > capped.count("\n")

    def test_progress_heartbeat_written_to_stderr(self, capsys):
        rc = main(self.ARGS + ["--progress", "0"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "[dampi] runs" in err and "queued" in err
