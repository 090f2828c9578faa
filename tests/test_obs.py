"""The observability layer: tracer, metrics, exporters, progress, and
their integration with the verifier."""

from __future__ import annotations

import json

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.obs import (
    Event,
    MetricsRegistry,
    ProgressReporter,
    Tracer,
    deterministic_view,
    event_signature,
)
from repro.obs.export import (
    JSONL_FORMAT,
    chrome_trace,
    read_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.workloads.patterns import wildcard_lattice


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestTracer:
    def test_instant_records_fields(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        clk.advance(1.5)
        tr.instant("match", "engine", rank=2, src=1, tag=7)
        (e,) = tr.drain()
        assert e.name == "match" and e.cat == "engine" and e.ph == "i"
        assert e.ts == 1.5 and e.rank == 2
        assert e.arg("src") == 1 and e.arg("tag") == 7
        assert e.arg("missing", "d") == "d"

    def test_args_are_sorted_tuples(self):
        tr = Tracer(clock=FakeClock())
        tr.instant("x", "c", z=1, a=2)
        (e,) = tr.drain()
        assert e.args == (("a", 2), ("z", 1))

    def test_span_produces_complete_event(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        with tr.span("work", "sched", run=3):
            clk.advance(0.25)
        (e,) = tr.drain()
        assert e.ph == "X" and e.ts == 0.0 and e.dur == 0.25 and e.run == 3

    def test_ring_overflow_drops_oldest_and_counts(self):
        tr = Tracer(buffer=4, clock=FakeClock())
        for i in range(7):
            tr.instant(f"e{i}", "c")
        assert tr.dropped == 3 and len(tr) == 4
        assert [e.name for e in tr.drain()] == ["e3", "e4", "e5", "e6"]

    def test_reset_rebases_epoch_and_clears(self):
        clk = FakeClock()
        tr = Tracer(clock=clk)
        tr.instant("a", "c")
        clk.advance(2.0)
        tr.reset()
        tr.instant("b", "c")
        (e,) = tr.drain()
        assert e.name == "b" and e.ts == 0.0
        assert tr.dropped == 0

    def test_emit_raw_rebases_and_relabels(self):
        clk = FakeClock()
        src = Tracer(clock=clk)
        clk.advance(0.5)
        src.instant("n", "c", rank=1, run=3, k=2)
        tr = Tracer(clock=FakeClock())
        tr.emit_raw(src.collect()["records"], run=9, ts_offset=10.0)
        (r,) = tr.drain()
        assert r.run == 9 and r.ts == 10.5 and r.rank == 1 and r.name == "n"
        assert r.args == (("k", 2),)

    def test_signature_strips_clock_fields_only(self):
        a = [Event("n", "c", ts=1.0, dur=2.0, ph="X", rank=0, args=(("k", 1),))]
        b = [Event("n", "c", ts=9.0, dur=0.1, ph="X", rank=0, args=(("k", 1),))]
        c = [Event("n", "c", ts=1.0, dur=2.0, ph="X", rank=1, args=(("k", 1),))]
        assert event_signature(a) == event_signature(b)
        assert event_signature(a) != event_signature(c)


class TestMetrics:
    def test_counter_and_gauge(self):
        m = MetricsRegistry()
        m.counter("a").inc()
        m.counter("a").inc(4)
        m.gauge("g").set(7)
        snap = m.snapshot()
        assert snap["counters"]["a"] == 5
        assert snap["gauges"]["g"] == 7

    def test_histogram_edges_are_upper_inclusive(self):
        m = MetricsRegistry()
        h = m.histogram("h", (1, 2, 4))
        for v in (0, 1, 2, 3, 4, 100):
            h.observe(v)
        snap = m.snapshot()["histograms"]["h"]
        # buckets: <=1, <=2, <=4, overflow
        assert snap["boundaries"] == [1, 2, 4]
        assert snap["counts"] == [2, 1, 2, 1]
        assert snap["count"] == 6 and snap["sum"] == 110

    def test_histogram_reregistration_mismatch_raises(self):
        m = MetricsRegistry()
        m.histogram("h", (1, 2))
        assert m.histogram("h", (1, 2)) is m.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            m.histogram("h", (1, 3))

    def test_merge_snapshot_adds_counters_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for m, n in ((a, 2), (b, 3)):
            m.counter("c").inc(n)
            m.gauge("g").set(n)
            m.histogram("h", (1, 10)).observe(n)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 3  # gauges overwrite
        assert snap["histograms"]["h"]["counts"] == [0, 2, 0]
        assert snap["histograms"]["h"]["sum"] == 5

    def test_deterministic_view_filters_env_namespaces(self):
        m = MetricsRegistry()
        m.counter("engine.matches").inc()
        m.counter("exec.submitted").inc()
        m.gauge("wall.seconds").set(1.2)
        m.gauge("campaign.depth").set(3)
        view = deterministic_view(m.snapshot())
        assert "engine.matches" in view["counters"]
        assert "exec.submitted" not in view["counters"]
        assert "wall.seconds" not in view["gauges"]
        assert "campaign.depth" in view["gauges"]


class TestExporters:
    def _stream(self):
        return [
            Event("run", "campaign", ts=0.0, ph="X", dur=0.5, run=0),
            Event("wildcard_match", "match", ts=0.1, rank=1, run=0,
                  args=(("src", 2),)),
            Event("pool_submit", "sched", ts=0.2, args=(("flip", (1, 0)),)),
        ]

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_events_jsonl(self._stream(), path, header={"program": "p"})
        header, events = read_events_jsonl(path)
        assert header["format"] == JSONL_FORMAT and header["program"] == "p"
        # args round-trip through JSON: tuples become lists
        assert event_signature(events)[:2] == event_signature(self._stream())[:2]
        assert [e.name for e in events] == ["run", "wildcard_match", "pool_submit"]

    def test_chrome_trace_shape(self):
        doc = chrome_trace(self._stream(), label="demo", nprocs=2)
        evs = doc["traceEvents"]
        meta = [e for e in evs if e["ph"] == "M"]
        names = {
            e["tid"]: e["args"]["name"]
            for e in meta if e["name"] == "thread_name"
        }
        # lane 0 = scheduler, lane rank+1 per rank
        assert names[0] == "scheduler" and names[1] == "rank 0" and names[2] == "rank 1"
        span = next(e for e in evs if e["name"] == "run")
        assert span["ph"] == "X" and span["dur"] == 0.5e6 and span["pid"] == 1
        inst = next(e for e in evs if e["name"] == "wildcard_match")
        assert inst["tid"] == 2 and inst["ts"] == 0.1e6 and inst["s"] == "t"
        assert inst["args"]["run"] == 0

    def test_chrome_trace_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._stream(), path)
        doc = json.loads(path.read_text())
        assert isinstance(doc["traceEvents"], list)


class TestProgress:
    def test_throttles_by_interval(self):
        clk = FakeClock()
        lines = []

        class Sink:
            def write(self, s):
                lines.append(s)

        p = ProgressReporter(1.0, stream=Sink(), clock=clk)
        assert p.tick(1, 5, 2)  # first tick always fires
        assert not p.tick(2, 4, 2)
        clk.advance(1.1)
        assert p.tick(3, 3, 2, eta_seconds=9.0)
        assert p.lines_written == 2
        assert "runs 3 done / 3 queued" in lines[-1]
        assert "eta ~9.0s" in lines[-1]

    def test_final_skipped_on_fast_silent_campaign(self):
        lines = []

        class Sink:
            def write(self, s):
                lines.append(s)

        p = ProgressReporter(10.0, stream=Sink(), clock=FakeClock())
        p.final(3, 0, wall_seconds=0.1)
        assert lines == []
        p.tick(1, 1, 1, force=True)
        p.final(3, 1, wall_seconds=0.1)
        assert "done: 3 runs, 1 error(s)" in lines[-1]


class TestMergeTick:
    """Satellite: a distributed campaign emits ONE aggregated heartbeat
    line for the whole fleet, not one line per worker."""

    def _reporter(self):
        clk = FakeClock()
        lines = []

        class Sink:
            def write(self, s):
                lines.append(s)

        return ProgressReporter(1.0, stream=Sink(), clock=clk), clk, lines

    def test_one_line_aggregates_the_fleet(self):
        p, clk, lines = self._reporter()
        clk.advance(5.0)
        frames = [
            {"worker": 2, "runs": 7, "seen": 4.5},
            {"worker": 1, "runs": 3, "seen": 5.0},
        ]
        assert p.merge_tick(frames, active_leases=2, pending_leases=4)
        assert len(lines) == 1
        line = lines[0]
        assert "workers 2" in line
        assert "runs 10" in line  # summed across the fleet
        assert "leases 2 active / 4 pending" in line
        # lag column is per worker, id-sorted
        assert "w1 0.0s" in line and "w2 0.5s" in line

    def test_throttles_like_tick(self):
        p, clk, lines = self._reporter()
        frames = [{"worker": 1, "runs": 1, "seen": 0.0}]
        assert p.merge_tick(frames, 1, 0)
        assert not p.merge_tick(frames, 1, 0)  # inside the interval
        clk.advance(1.1)
        assert p.merge_tick(frames, 1, 0)
        assert p.lines_written == 2

    def test_rate_reflects_fleet_run_delta(self):
        p, clk, lines = self._reporter()
        p.merge_tick([{"worker": 1, "runs": 0, "seen": 0.0}], 1, 0)
        clk.advance(2.0)
        p.merge_tick(
            [
                {"worker": 1, "runs": 5, "seen": 2.0},
                {"worker": 2, "runs": 5, "seen": 2.0},
            ],
            2,
            0,
        )
        assert "runs 10 (5.0/s)" in lines[-1]  # 10 runs over 2 seconds

    def test_workers_without_seen_skip_lag_column(self):
        p, clk, lines = self._reporter()
        p.merge_tick([{"worker": 1, "runs": 0}], 1, 0)
        assert "lag" not in lines[-1]

    def test_idle_worker_left_out_of_lag_column(self):
        """The coordinator passes ``seen=None`` for an idle worker."""
        p, clk, lines = self._reporter()
        clk.advance(3.0)
        p.merge_tick(
            [
                {"worker": 1, "runs": 4, "seen": 1.0},
                {"worker": 2, "runs": 2, "seen": None},
            ],
            1,
            0,
        )
        assert "workers 2" in lines[-1] and "runs 6" in lines[-1]
        assert "lag w1 2.0s |" in lines[-1]


class TestVerifierIntegration:
    def _verify(self, **cfg):
        v = DampiVerifier(
            wildcard_lattice, 3,
            DampiConfig(**cfg),
            kwargs={"receives": 2, "senders": 2},
        )
        return v, v.verify()

    def test_tracing_off_by_default_and_no_events(self):
        _, rep = self._verify()
        assert rep.events == []
        assert rep.telemetry["events"]["enabled"] is False
        assert rep.telemetry["metrics"]["counters"]["campaign.runs"] == 4

    def test_tracing_on_captures_run_spans_and_rank_events(self):
        _, rep = self._verify(trace_events=True)
        assert rep.telemetry["events"]["enabled"] is True
        assert rep.telemetry["events"]["captured"] == len(rep.events) > 0
        spans = [e for e in rep.events if e.name == "run"]
        assert [e.run for e in spans] == [0, 1, 2, 3]
        matches = [e for e in rep.events if e.name == "wildcard_match"]
        assert matches and all(e.rank is not None for e in matches)
        # merged per-run events carry their consuming run's index
        assert all(e.run is not None for e in matches)

    def test_close_is_idempotent(self):
        v, _ = self._verify()
        v.close()
        v.close()  # verify() already closed once; two more must be safe

    def test_close_safe_on_partially_constructed_instance(self):
        v = DampiVerifier.__new__(DampiVerifier)
        v.close()  # no _runtime attribute at all

    def test_serial_event_streams_deterministic_modulo_timestamps(self):
        _, a = self._verify(trace_events=True)
        _, b = self._verify(trace_events=True)
        assert event_signature(a.events) == event_signature(b.events)
        assert [e.ts for e in a.events] != [] # streams are non-trivial
