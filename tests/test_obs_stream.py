"""Line-rate telemetry: sampling determinism, the JSONL stream, overflow.

The tentpole contracts of the ring-tracer rebuild:

- event payloads are recorded only for a reader (a CLI sink flag, or
  ``report.events`` through the API) and may be *sampled* (1 in N
  replays), but per-name ``events.*`` counters stay exact and
  bit-identical with or without a reader, at any rate, any ``--jobs``
  setting;
- the sampled stream at rate N is exactly the rate-1 stream filtered to
  the sampled runs (the capture decision is a pure function of the
  schedule signature);
- the JSONL log, the one file format of an event stream, round-trips
  every event up to its sequence args decoding as lists;
- ring overflow drops payloads, never counts.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.obs import Event, Tracer, deterministic_view, event_signature
from repro.obs.export import JSONL_FORMAT, read_events_jsonl, write_events_jsonl
from repro.obs.progress import ProgressReporter
from repro.obs.stats import (
    JournalStatsError,
    journal_follow_line,
    journal_progress,
    render_journal_summary,
)
from repro.workloads.bugzoo import ZOO
from repro.workloads.matmult import matmult_program
from repro.workloads.patterns import wildcard_lattice

MATMULT_KW = {"n": 4, "blocks_per_slave": 2}
LATTICE_KW = {"receives": 2, "senders": 2}


def _verify(program, nprocs, kwargs=None, **cfg):
    return DampiVerifier(
        program, nprocs, DampiConfig(**cfg), kwargs=dict(kwargs or {})
    ).verify()


def _canon(report) -> dict:
    d = json.loads(report.to_json())
    d.pop("wall_seconds", None)
    d.pop("telemetry", None)
    return d


def _sig(events, drop_cats=("dist",)):
    """Stream signature minus environment-dependent categories."""
    return event_signature(e for e in events if e.cat not in drop_cats)


def _event_counters(report) -> dict:
    counters = report.telemetry["metrics"]["counters"]
    return {k: v for k, v in counters.items() if k.startswith("events.")}


# --------------------------------------------------------------------- #
# sampling                                                               #
# --------------------------------------------------------------------- #


class TestSampling:
    def test_sampled_stream_is_the_filtered_rate1_stream(self):
        rate1 = _verify(
            wildcard_lattice, 3, LATTICE_KW, trace_events=True
        )
        rate2 = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=2,
        )
        # which runs kept payloads at rate 2: the runs with per-run
        # (non-campaign) events in the merged stream
        captured = {
            e.run for e in rate2.events
            if e.cat not in ("campaign", "sched") and e.run is not None
        }
        assert 0 in captured  # the self run is always captured
        filtered = [
            e for e in rate1.events
            if e.cat in ("campaign",) or e.run in captured
        ]
        assert _sig(rate2.events) == _sig(filtered)

    def test_sampling_is_deterministic(self):
        a = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=3,
        )
        b = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=3,
        )
        assert _sig(a.events) == _sig(b.events)
        assert (
            a.telemetry["events"]["sampled_runs"]
            == b.telemetry["events"]["sampled_runs"]
        )

    @pytest.mark.parametrize("rate", [2, 3, 7])
    def test_event_totals_exact_at_any_rate(self, rate):
        full = _verify(wildcard_lattice, 3, LATTICE_KW, trace_events=True)
        sampled = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=rate,
        )
        assert _event_counters(sampled) == _event_counters(full)
        assert sampled.telemetry["events"]["sample_every"] == rate
        assert (
            sampled.telemetry["events"]["sampled_runs"]
            <= full.telemetry["events"]["sampled_runs"]
        )

    def test_sampled_signature_identical_across_jobs(self):
        serial = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=2,
        )
        pooled = _verify(
            wildcard_lattice, 3, LATTICE_KW,
            trace_events=True, trace_sample_every=2,
            jobs=2,
        )
        assert _sig(serial.events) == _sig(pooled.events)
        assert deterministic_view(
            serial.telemetry["metrics"]
        ) == deterministic_view(pooled.telemetry["metrics"])

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DampiConfig(trace_sample_every=0)


# --------------------------------------------------------------------- #
# JSONL encoding                                                         #
# --------------------------------------------------------------------- #


def _random_event(rng: random.Random) -> Event:
    def value():
        kind = rng.randrange(7)
        if kind == 0:
            return None
        if kind == 1:
            return rng.choice([True, False])
        if kind == 2:
            return rng.randint(-(2 ** 40), 2 ** 40)
        if kind == 3:
            return rng.uniform(-1e6, 1e6)
        if kind == 4:
            return rng.choice(["", "x", "flip", "événement", "a" * 50])
        if kind == 5:
            return [rng.randint(-5, 5) for _ in range(rng.randrange(4))]
        return (rng.randint(0, 9), rng.choice(["a", "b"]))

    span = rng.random() < 0.4
    return Event(
        name=rng.choice(["alpha", "beta", "gamma_event"]),
        cat=rng.choice(["match", "pb", "dist"]),
        ts=rng.uniform(0, 100),
        ph="X" if span else "i",
        dur=rng.uniform(0, 5) if span else 0.0,
        rank=rng.choice([None, 0, 1, 7]),
        run=rng.choice([None, 0, 3, 1000]),
        args=tuple(
            sorted(
                {f"k{i}": value() for i in range(rng.randrange(4))}.items()
            )
        ),
    )


def _as_jsonl(events) -> list:
    """What the JSONL codec decodes ``events`` to: the in-memory stream
    holds sequence args as tuples, JSON gives them back as lists."""

    def listed(v):
        return [listed(x) for x in v] if isinstance(v, (tuple, list)) else v

    return [
        Event(
            e.name, e.cat, e.ts, e.ph, e.dur, e.rank, e.run,
            args=tuple((k, listed(v)) for k, v in e.args),
        )
        for e in events
    ]


class TestJsonlRoundTrip:
    def test_property_jsonl_roundtrip(self, tmp_path):
        rng = random.Random(0xDA397)
        events = [_random_event(rng) for _ in range(300)]
        path = tmp_path / "events.jsonl"
        write_events_jsonl(events, path, header={"program": "prop", "nprocs": 8})
        header, back = read_events_jsonl(path)
        assert header["program"] == "prop" and header["nprocs"] == 8
        # every field exact, clocks included: JSON repr round-trips doubles
        assert back == _as_jsonl(events)

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_events_jsonl([], path)
        header, events = read_events_jsonl(path)
        assert header["format"] == JSONL_FORMAT and events == []

    def test_campaign_stream_roundtrips(self, tmp_path):
        report = _verify(wildcard_lattice, 3, LATTICE_KW, trace_events=True)
        path = tmp_path / "campaign.jsonl"
        write_events_jsonl(report.events, path, header={"nprocs": 3})
        _, back = read_events_jsonl(path)
        assert back and back == _as_jsonl(report.events)


# --------------------------------------------------------------------- #
# ring overflow and exact counts                                         #
# --------------------------------------------------------------------- #


class TestRingAccounting:
    def test_overflow_drops_payloads_never_counts(self):
        t = Tracer(buffer=4, clock=lambda: 0.0)
        for i in range(7):
            t.instant(f"e{i}", "test")
        assert t.dropped == 3
        counts = t.counts()
        assert sum(counts.values()) == 7  # every emit counted exactly
        assert counts == {f"e{i}": 1 for i in range(7)}
        events = t.drain()
        assert [e.name for e in events] == ["e3", "e4", "e5", "e6"]

    def test_capture_off_counts_without_payloads(self):
        t = Tracer(buffer=8, clock=lambda: 0.0)
        t.capture = False
        for _ in range(5):
            t.instant("quiet", "test")
        payload = t.collect()
        assert payload["records"] == []
        assert payload["counts"] == {"quiet": 5}
        assert payload["captured"] is False
        assert payload["dropped"] == 0

    def test_capture_off_allocates_no_ring(self):
        t = Tracer(clock=lambda: 0.0)
        t.capture = False
        for i in range(100_000):
            t.instant("hot" if i % 4 else "rare", "test", rank=0, k=i)
        t.complete("span", "test", 0.0)
        t.emit(Event("merged", "test", ts=0.0))
        assert t._ring is None and len(t) == 0 and t.dropped == 0
        assert t.counts() == {
            "hot": 75_000, "rare": 25_000, "span": 1, "merged": 1,
        }
        assert t.drain() == []

    def test_collect_is_exact_under_overflow(self):
        t = Tracer(buffer=2, clock=lambda: 0.0)
        for _ in range(5):
            t.instant("hot", "test")
        payload = t.collect()
        assert len(payload["records"]) == 2
        assert payload["counts"] == {"hot": 5}
        assert payload["dropped"] == 3

    def test_campaign_dropped_accounting(self):
        verifier = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(trace_events=True),
            kwargs=dict(LATTICE_KW),
        )
        verifier._run_tracer = Tracer(buffer=4)
        report = verifier.verify()
        ev = report.telemetry["events"]
        assert ev["dropped"] > 0
        # exact counters are immune to the tiny ring
        full = _verify(wildcard_lattice, 3, LATTICE_KW, trace_events=True)
        assert _event_counters(report) == _event_counters(full)

    def test_summary_says_when_the_stream_lost_events(self):
        verifier = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(trace_events=True),
            kwargs=dict(LATTICE_KW),
        )
        verifier._run_tracer = Tracer(buffer=8)
        report = verifier.verify()
        ev = report.telemetry["events"]
        assert ev["dropped"] > 0
        (line,) = [ln for ln in report.summary().splitlines() if "dropped" in ln]
        assert f"{ev['captured']} captured, {ev['dropped']} dropped" in line
        assert f"ring of {ev['buffer']}" in line and "--trace-sample N" in line
        # nothing lost, nothing said
        full = _verify(wildcard_lattice, 3, LATTICE_KW, trace_events=True)
        assert full.telemetry["events"]["dropped"] == 0
        assert "dropped" not in full.summary()


class TestZooTraceBitIdentity:
    """Tracing on vs off must be invisible in the report, zoo-wide."""

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_reports_identical(self, entry):
        on = _verify(
            entry.program, entry.nprocs,
            max_interleavings=40, trace_events=True,
        )
        off = _verify(entry.program, entry.nprocs, max_interleavings=40)
        assert _canon(on) == _canon(off)

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_reader_changes_the_stream_only(self, entry, tmp_path, capsys):
        """No sink / a sink / a sampled sink, in-process and fleet: one
        report, one set of deterministic counters (``events.*`` included),
        and at each rate one stream — the API's ``report.events``."""
        from repro.cli import main

        spec = f"repro.workloads.bugzoo:{entry.program.__name__}"

        def cli(tag, jobs, *flags):
            out = tmp_path / f"{tag}-j{jobs}.json"
            argv = ["verify", spec, "--nprocs", str(entry.nprocs),
                    "--jobs", str(jobs), "--json-out", str(out), *flags]
            assert main(argv) in (0, 1)
            payload = json.loads(out.read_text())
            view = deterministic_view(payload["telemetry"]["metrics"])
            payload.pop("wall_seconds")
            payload.pop("telemetry")
            return payload, view

        def stream(path):
            return _sig(read_events_jsonl(path)[1])

        reports, streams = [], {1: [], 3: []}
        for jobs in (1, 2):
            reports.append(cli("default", jobs))
            for rate in (1, 3):
                sink = tmp_path / f"r{rate}-j{jobs}.jsonl"
                reports.append(cli(
                    f"r{rate}", jobs, "--events-out", str(sink),
                    "--trace-sample", str(rate),
                ))
                streams[rate].append(stream(sink))
        capsys.readouterr()
        assert all(r == reports[0] for r in reports[1:])
        for rate in (1, 3):
            api = _verify(
                entry.program, entry.nprocs,
                trace_events=True, trace_sample_every=rate,
            )
            assert (
                _canon(api), deterministic_view(api.telemetry["metrics"])
            ) == reports[0]
            # through the same codec: it decodes sequence args as lists
            via = tmp_path / f"api-r{rate}.jsonl"
            write_events_jsonl(api.events, via)
            assert streams[rate] == [stream(via)] * 2


# --------------------------------------------------------------------- #
# phase timings                                                          #
# --------------------------------------------------------------------- #


class TestPhaseTimings:
    def test_wall_phase_counters_recorded(self):
        report = _verify(matmult_program, 4, MATMULT_KW)
        counters = report.telemetry["metrics"]["counters"]
        phases = {
            k: v for k, v in counters.items() if k.startswith("wall.phase.")
        }
        assert set(phases) == {
            "wall.phase.spawn_reset", "wall.phase.execute", "wall.phase.finish",
        }
        assert all(v >= 0 for v in phases.values())

    def test_phase_counters_are_nondeterministic_namespace(self):
        report = _verify(wildcard_lattice, 3, LATTICE_KW)
        det = deterministic_view(report.telemetry["metrics"])
        assert not any(
            k.startswith("wall.") for k in det["counters"]
        )


# --------------------------------------------------------------------- #
# stats on journal directories                                           #
# --------------------------------------------------------------------- #


class TestJournalStats:
    def test_campaign_journal_summary(self, tmp_path):
        jdir = tmp_path / "journal"
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=dict(LATTICE_KW)
        ).verify(journal=jdir)
        progress = journal_progress(jdir)
        assert progress["complete"]
        assert progress["runs"] > 0
        assert progress["leases"] == 0
        text = render_journal_summary(progress)
        assert "runs journaled" in text and "runs with findings" in text
        assert "lease" not in text
        assert "complete" in journal_follow_line(progress)

    def test_non_journal_dir_pointed_error(self, tmp_path):
        with pytest.raises(JournalStatsError, match="no journal segments"):
            journal_progress(tmp_path)

    def test_cli_stats_on_journal_dir(self, tmp_path, capsys):
        from repro.cli import main

        jdir = tmp_path / "journal"
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=dict(LATTICE_KW)
        ).verify(journal=jdir)
        assert main(["stats", str(jdir)]) == 0
        assert "runs journaled" in capsys.readouterr().out

    def test_cli_follow_rejects_plain_file(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "x.json"
        f.write_text("{}")
        assert main(["stats", str(f), "--follow"]) == 2
        assert "--follow" in capsys.readouterr().err


class TestFollowInterval:
    """``--follow --interval`` hygiene: interval 0 used to busy-spin the
    journal reader at 100% CPU; negatives were silently treated as the
    old 0.1s floor."""

    def test_zero_clamps_to_floor(self):
        from repro.obs.stats import MIN_FOLLOW_INTERVAL, follow_interval

        assert follow_interval(0) == MIN_FOLLOW_INTERVAL
        assert follow_interval(0.01) == MIN_FOLLOW_INTERVAL
        assert follow_interval(2.0) == 2.0

    def test_negative_rejected_with_pointed_error(self):
        from repro.obs.stats import follow_interval

        with pytest.raises(ValueError, match="--interval must be >= 0"):
            follow_interval(-1)

    def test_cli_rejects_negative_interval(self, tmp_path, capsys):
        from repro.cli import main

        jdir = tmp_path / "journal"
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=dict(LATTICE_KW)
        ).verify(journal=jdir)
        assert main(["stats", str(jdir), "--follow", "--interval", "-1"]) == 2
        assert "--interval must be >= 0" in capsys.readouterr().err

    def test_cli_interval_zero_completes(self, tmp_path, capsys):
        from repro.cli import main

        # a complete journal: the follow loop prints one line and exits,
        # so interval 0 exercises only the clamp (no sleep happens)
        jdir = tmp_path / "journal"
        DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=dict(LATTICE_KW)
        ).verify(journal=jdir)
        assert main(["stats", str(jdir), "--follow", "--interval", "0"]) == 0
        assert "complete" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# CLI tracing defaults and event export                                  #
# --------------------------------------------------------------------- #


class TestCliTracing:
    ARGS = [
        "verify", "repro.workloads.patterns:fig3_program", "--nprocs", "3",
    ]

    def test_default_counts_events_and_records_none(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.json"
        main(self.ARGS + ["--json-out", str(out)])
        telemetry = json.loads(out.read_text())["telemetry"]
        assert telemetry["events"] == {
            "enabled": False, "captured": 0, "dropped": 0,
        }
        assert telemetry["metrics"]["counters"]["events.wildcard_match"] > 0

    def test_no_trace_disables(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.json"
        main(self.ARGS + ["--no-trace", "--json-out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["telemetry"]["events"]["enabled"] is False

    def test_no_trace_conflicts_with_exports(self, tmp_path, capsys):
        from repro.cli import main

        argv = self.ARGS + ["--no-trace", "--events-out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert "--no-trace" in capsys.readouterr().err

    def test_no_trace_conflicts_with_trace_sample(self, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--no-trace", "--trace-sample", "4"]) == 2
        assert "--trace-sample" in capsys.readouterr().err

    def test_events_export_and_stats(self, tmp_path, capsys):
        from repro.cli import main

        jsonl = tmp_path / "c.jsonl"
        main(self.ARGS + ["--events-out", str(jsonl)])
        _, events = read_events_jsonl(jsonl)
        assert events
        assert main(["stats", str(jsonl)]) == 0
        assert "by category" in capsys.readouterr().out

    def test_revt_out_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(self.ARGS + ["--revt-out", str(tmp_path / "c.revt")])
        assert exc.value.code == 2
        assert "--revt-out" in capsys.readouterr().err

    def test_stats_refuses_leftover_revt(self, tmp_path, capsys):
        """A binary stream an older version wrote is refused like any
        other unreadable input: one usage-error line, no traceback."""
        from repro.cli import main

        path = tmp_path / "old.revt"
        path.write_bytes(b"REVT1\n" + bytes(range(256)) * 4)
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "neither a report JSON" in err and "nor a journal directory" in err


# --------------------------------------------------------------------- #
# progress degradation                                                   #
# --------------------------------------------------------------------- #


class _Sink:
    def __init__(self, tty: bool):
        self.tty = tty
        self.chunks: list = []

    def write(self, s):
        self.chunks.append(s)

    def isatty(self):
        return self.tty


class TestProgressStreams:
    def test_non_tty_plain_lines_no_ansi(self):
        sink = _Sink(tty=False)
        p = ProgressReporter(0.0, stream=sink)
        p.tick(1, 2, 3, force=True)
        p.final(1, 0, wall_seconds=5.0)
        assert all(c.endswith("\n") for c in sink.chunks)
        assert not any("\x1b" in c or "\r" in c for c in sink.chunks)

    def test_tty_rewrites_one_line_and_terminates(self):
        sink = _Sink(tty=True)
        p = ProgressReporter(0.0, stream=sink)
        p.tick(1, 2, 3, force=True)
        p.tick(2, 1, 3, force=True)
        assert all(c.startswith("\r\x1b[2K") for c in sink.chunks)
        assert not any(c.endswith("\n") for c in sink.chunks)
        p.final(2, 0, wall_seconds=5.0)
        assert sink.chunks[-1] == "\n"  # the line is closed at the end

    def test_close_is_idempotent(self):
        sink = _Sink(tty=True)
        p = ProgressReporter(0.0, stream=sink)
        p.tick(1, 1, 1, force=True)
        p.close()
        p.close()
        assert sink.chunks.count("\n") == 1


# --------------------------------------------------------------------- #
# dist worker events on the wire                                         #
# --------------------------------------------------------------------- #


class TestDistEventPayloads:
    def test_bye_payload_roundtrip(self):
        """A worker's lifecycle events travel like a run's payload: its
        tracer's ``collect()`` through ``pack_obs``, merged raw onto the
        worker's lane."""
        from repro.dist.protocol import pack_obs, unpack_obs

        worker = Tracer(buffer=16, clock=lambda: 0.0)
        worker.instant("memo_hit", "dist", run=3, lease="L1")
        worker.complete("lease", "dist", 0.0, lease="L1", runs=4)
        blob = pack_obs(worker.collect())
        assert isinstance(blob, str)  # JSON-frame safe
        campaign = Tracer(clock=lambda: 0.0)
        campaign.emit_raw(unpack_obs(blob)["records"], run=9)
        assert event_signature(campaign.drain()) == (
            ("memo_hit", "dist", "i", None, 9, (("lease", "L1"),)),
            ("lease", "dist", "X", None, 9, (("lease", "L1"), ("runs", 4))),
        )

    def test_dist_campaign_collects_worker_events(self):
        from repro.dist import distributed_verify

        report = distributed_verify(
            matmult_program, 3, config=DampiConfig(trace_events=True), workers=2
        )
        counters = report.telemetry["metrics"]["counters"]
        dist_events = [e for e in report.events if e.cat == "dist"]
        assert counters["dist.worker_events"] == len(dist_events)
        leases = [e for e in dist_events if e.name == "lease"]
        assert len(leases) == counters["dist.leases_issued"] > 0

    def test_default_campaign_ships_no_worker_events(self, monkeypatch):
        """Nothing reads a default campaign's events, so its workers
        record none and their ``bye`` frames carry none."""
        from repro.dist import distributed_verify
        from repro.dist.coordinator import DistCoordinator

        byes = []
        handle = DistCoordinator._handle

        def spy(self, tag, frame, faults):
            if frame is not None and frame.get("t") == "bye":
                byes.append(frame)
            return handle(self, tag, frame, faults)

        monkeypatch.setattr(DistCoordinator, "_handle", spy)
        report = distributed_verify(
            matmult_program, 3, config=DampiConfig(), workers=2
        )
        assert byes and not any("events" in frame for frame in byes)
        assert "dist.worker_events" not in report.telemetry["metrics"]["counters"]
        assert report.telemetry["events"] == {
            "enabled": False, "captured": 0, "dropped": 0,
        }
