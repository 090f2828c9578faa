"""Per-layer metrics: their names, and how each is derived.

Three sources, never mixed into the end-to-end numbers:

* **counts** from the report JSON of an *untraced* campaign (the product's
  own ``telemetry.metrics``),
* **times** from the spans of one traced campaign (:mod:`.spans`),
* **probes**: the workload's campaign re-run with one thing changed, or the
  in-process stack ablation (:mod:`.probes`).

A layer is a module path under ``src/repro``.  Every metric is emitted for
every workload; one reads 0 where the workload's traced pass neither
exercises nor probes that layer (``dampi.journal.appends`` on ``matmult_k1``,
``dist.tax_s`` on ``parmetis_det``) - the README lists each metric's home.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path
from typing import Optional

from benchmarks.ledger import harness, spans, workloads
from benchmarks.ledger.workloads import Step, Workload

#: name -> (unit, better); the single declaration BENCHMARK.json mirrors
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.report_write_ms": ("ms", "lower"),
    "dampi.verifier.run_once_p50_ms": ("ms", "lower"),
    "dampi.verifier.run_once_p99_ms": ("ms", "lower"),
    "dampi.verifier.run_once_count": ("count", "lower"),
    "dampi.verifier.self_run_s": ("s", "lower"),
    "dampi.verifier.loop_self_s": ("s", "lower"),
    "mpi.runtime.run_p50_ms": ("ms", "lower"),
    "mpi.runtime.recycle_p50_ms": ("ms", "lower"),
    "mpi.runtime.phase_execute_s": ("s", "lower"),
    "mpi.runtime.phase_restore_s": ("s", "lower"),
    "mpi.runtime.phase_spawn_reset_s": ("s", "lower"),
    "mpi.runtime.phase_finish_s": ("s", "lower"),
    "mpi.runtime.native_run_s": ("s", "lower"),
    "mpi.runtime.unpinned_ratio": ("ratio", "lower"),
    "mpi.engine.ops_per_s": ("1/s", "higher"),
    "mpi.matching.deposit_match_us": ("us", "lower"),
    "pnmpi.chain_us_per_op": ("us", "lower"),
    "dampi.piggyback.us_per_op": ("us", "lower"),
    "dampi.piggyback.messages": ("count", "lower"),
    "dampi.piggyback.vtime_slowdown": ("ratio", "lower"),
    "dampi.clock_module.us_per_op": ("us", "lower"),
    "dampi.clock_module.epochs": ("count", "lower"),
    "dampi.checkers.us_per_op": ("us", "lower"),
    "mpi.snapshot.capture_p50_ms": ("ms", "lower"),
    "mpi.snapshot.install_p50_ms": ("ms", "lower"),
    "mpi.snapshot.bytes_p50": ("bytes", "lower"),
    "dampi.checkpoint.find_p50_us": ("us", "lower"),
    "dampi.checkpoint.find_p99_us": ("us", "lower"),
    "dampi.checkpoint.hit_rate": ("ratio", "higher"),
    "dampi.checkpoint.ancestor_hits": ("count", "higher"),
    "dampi.checkpoint.evictions": ("count", "lower"),
    "dampi.checkpoint.bytes_held": ("bytes", "lower"),
    "dampi.checkpoint.capture_total_s": ("s", "lower"),
    "dampi.checkpoint.restore_total_s": ("s", "lower"),
    "dampi.checkpoint.speedup": ("ratio", "higher"),
    "dampi.explorer.next_decisions_p50_us": ("us", "lower"),
    "dampi.explorer.integrate_p50_us": ("us", "lower"),
    "dampi.explorer.integrate_p99_us": ("us", "lower"),
    "dampi.explorer.nodes": ("count", "lower"),
    "dampi.prune.signature_p50_us": ("us", "lower"),
    "dampi.prune.subtrees": ("count", "higher"),
    "dampi.prune.replays_saved": ("count", "higher"),
    "dampi.prune.saved_share": ("ratio", "higher"),
    "dampi.journal.append_p50_ms": ("ms", "lower"),
    "dampi.journal.append_p99_ms": ("ms", "lower"),
    "dampi.journal.appends": ("count", "lower"),
    "dampi.journal.bytes_per_run": ("bytes", "lower"),
    "dampi.journal.replay_ms_per_entry": ("ms", "lower"),
    "dampi.parallel.jobs2_speedup": ("ratio", "higher"),
    "dampi.parallel.submitted": ("count", "lower"),
    "dampi.parallel.wasted": ("count", "lower"),
    "dampi.parallel.cache_hits": ("count", "higher"),
    "dist.workers1_wall_s": ("s", "lower"),
    "dist.workers2_wall_s": ("s", "lower"),
    "dist.tax_s": ("s", "lower"),
    "dist.leases": ("count", "lower"),
    "dist.steals": ("count", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
    "obs.record_run_p50_us": ("us", "lower"),
    "obs.finalize_s": ("s", "lower"),
    "obs.events_captured": ("count", "higher"),
    "obs.events_dropped": ("count", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.root_self_share": ("ratio", "lower"),
}

#: ParMETIS size of the stack ablation: a fifth of the ``parmetis_det``
#: campaign, run twice (fastest pass kept) - cost per op does not depend on
#: how many ops there are, and five full-size stages would not fit the pass
ABLATION_SCALE, ABLATION_PASSES = 0.1, 2


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- times: the spans of a traced rep ----------------------------------------------


def load_traces(paths: list[Path]) -> list[dict]:
    """The traced rep's campaigns (one per timed step) that left a trace."""
    out = []
    for path in paths:
        try:
            out.append(json.loads(path.read_text()))
        except (OSError, ValueError):
            pass
    return out


def span_metrics(campaigns: list[dict], traced_wall_s: float) -> tuple[dict, dict]:
    """Per-layer times out of one traced rep, and self seconds per layer
    (largest first).  Distributions pool the spans of all the rep's
    campaigns; totals are summed over them."""
    dur: dict[str, list[float]] = {}
    val: dict[str, list[float]] = {}
    layer_self: dict[str, float] = {}
    root_self = loop_self = self_run = 0.0
    for campaign in campaigns:
        rows = campaign["rows"]
        own = spans.self_times(rows)
        first_run = True
        for r in rows:
            sid, name, _parent, _run, _thread, start, end, value = r
            dur.setdefault(name, []).append(end - start)
            layer = name.split("/", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own[sid]
            if value is not None:
                val.setdefault(name, []).append(value)
            if name in spans.ROOT_SPANS:
                root_self += own[sid]
            if name == "dampi.verifier/verify":
                loop_self += own[sid]
            if name == "dampi.verifier/run_once" and first_run:
                self_run += end - start
                first_run = False

    def p(name: str, q: float, scale: float) -> float:
        return percentile(dur.get(name, []), q) * scale

    n = max(1, len(campaigns))
    report_write = sum(dur.get("cli/report_to_json", [])) + sum(dur.get("cli/report_summary", []))
    metrics = {
        "cli.report_write_ms": report_write / n * 1e3,
        "dampi.verifier.run_once_p50_ms": p("dampi.verifier/run_once", 0.5, 1e3),
        "dampi.verifier.run_once_p99_ms": p("dampi.verifier/run_once", 0.99, 1e3),
        "dampi.verifier.run_once_count": len(dur.get("dampi.verifier/run_once", [])),
        "dampi.verifier.self_run_s": self_run,
        "dampi.verifier.loop_self_s": loop_self,
        "mpi.runtime.run_p50_ms": p("mpi.runtime/run", 0.5, 1e3),
        "mpi.runtime.recycle_p50_ms": p("mpi.runtime/recycle", 0.5, 1e3),
        "mpi.snapshot.capture_p50_ms": p("mpi.snapshot/capture", 0.5, 1e3),
        "mpi.snapshot.install_p50_ms": p("mpi.snapshot/install", 0.5, 1e3),
        "mpi.snapshot.bytes_p50": percentile(val.get("mpi.snapshot/capture", []), 0.5),
        "dampi.checkpoint.find_p50_us": p("dampi.checkpoint/find", 0.5, 1e6),
        "dampi.checkpoint.find_p99_us": p("dampi.checkpoint/find", 0.99, 1e6),
        "dampi.explorer.next_decisions_p50_us": p("dampi.explorer/next_decisions", 0.5, 1e6),
        "dampi.explorer.integrate_p50_us": p("dampi.explorer/integrate", 0.5, 1e6),
        "dampi.explorer.integrate_p99_us": p("dampi.explorer/integrate", 0.99, 1e6),
        "dampi.explorer.nodes": max(val.get("dampi.explorer/integrate", [0])),
        "dampi.prune.signature_p50_us": p("dampi.prune/signature", 0.5, 1e6),
        "dampi.journal.append_p50_ms": p("dampi.journal/append", 0.5, 1e3),
        "dampi.journal.append_p99_ms": p("dampi.journal/append", 0.99, 1e3),
        "obs.record_run_p50_us": p("obs/record_run", 0.5, 1e6),
        "obs.finalize_s": sum(dur.get("obs/finalize", [])),
        "bench.root_self_share": root_self / traced_wall_s if traced_wall_s else 0.0,
    }
    return metrics, dict(sorted(layer_self.items(), key=lambda kv: -kv[1]))


# -- counts: the reports of an untraced rep ----------------------------------------


def report_metrics(reports: list[dict]) -> dict:
    """Per-layer counts, summed over the rep's campaigns."""
    c: dict[str, float] = {}
    g: dict[str, float] = {}
    captured = dropped = 0
    for report in reports:
        for k, v in harness.counters(report).items():
            c[k] = c.get(k, 0) + v
        for k, v in harness.gauges(report).items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                g[k] = g.get(k, 0) + v
        events = report.get("telemetry", {}).get("events", {})
        captured += events.get("captured", 0)
        dropped += events.get("dropped", 0)
    runs = c.get("campaign.runs", 0)
    saved = c.get("prune.replays_saved", 0)
    lookups = g.get("exec.checkpoint_hits", 0) + g.get("exec.checkpoint_misses", 0)
    return {
        "mpi.runtime.phase_execute_s": c.get("wall.phase.execute", 0.0),
        "mpi.runtime.phase_restore_s": c.get("wall.phase.restore", 0.0),
        "mpi.runtime.phase_spawn_reset_s": c.get("wall.phase.spawn_reset", 0.0),
        "mpi.runtime.phase_finish_s": c.get("wall.phase.finish", 0.0),
        "dampi.piggyback.messages": c.get("pb.messages", 0),
        "dampi.clock_module.epochs": c.get("events.epoch", 0),
        "dampi.checkpoint.hit_rate": g.get("exec.checkpoint_hits", 0) / lookups if lookups else 0.0,
        "dampi.checkpoint.ancestor_hits": g.get("exec.checkpoint_ancestor_hits", 0),
        "dampi.checkpoint.evictions": g.get("exec.checkpoint_evictions", 0),
        "dampi.checkpoint.bytes_held": g.get("exec.checkpoint_bytes_held", 0),
        "dampi.checkpoint.capture_total_s": g.get("exec.checkpoint_capture_ms", 0.0) / 1e3,
        "dampi.checkpoint.restore_total_s": g.get("exec.checkpoint_restore_ms", 0.0) / 1e3,
        "dampi.prune.subtrees": c.get("prune.subtrees", 0),
        "dampi.prune.replays_saved": saved,
        "dampi.prune.saved_share": saved / (runs + saved) if runs + saved else 0.0,
        "dampi.journal.appends": c.get("journal.appends", 0),
        "dampi.journal.bytes_per_run": c.get("journal.bytes", 0) / runs if runs else 0.0,
        "dampi.parallel.submitted": c.get("exec.submitted", 0),
        "dampi.parallel.wasted": c.get("exec.wasted", 0),
        "dampi.parallel.cache_hits": c.get("exec.cache_hits", 0),
        "obs.events_captured": captured,
        "obs.events_dropped": dropped,
    }


# -- probes: the campaign with one thing changed --------------------------------


class Probe:
    """Runs variants of a workload through the harness's accounting, in a
    ledger session (its seed, scratch directory, size and references), and
    collects whatever went wrong in them."""

    def __init__(self, session, workload: Workload):
        self.session, self.workload = session, workload
        self.seed, self.workdir, self.quick = session.seed, session.workdir, session.quick
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def _count(self, failures: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += failures

    def rep(self, steps: list[Step], same_as: harness.Rep, pinned: bool = True) -> harness.Rep:
        """One variant campaign; a report that differs from ``same_as``'s
        makes it a failed campaign like any wrong verdict."""
        rep = harness.run_rep(self.workload, steps, self.workdir, pinned=pinned)
        if not rep.failures and rep.canon != same_as.canon:
            rep.failures.append(f"probe {steps[-1].label}: report differs from the reference's")
        self._count(rep.failures)
        return rep

    def matmult(self, *flags: str, same_as: harness.Rep, command=("verify",),
                pinned=True) -> harness.Rep:
        argv = workloads.matmult_argv(self.seed, self.quick, *flags, command=command)
        return self.rep([Step(" ".join(command + flags), argv)], same_as, pinned=pinned)

    def child(self, module_argv: list[str], pinned: bool) -> harness.Proc:
        proc = harness.spawn(
            [sys.executable, *module_argv], pinned=pinned,
            timeout_s=self.workload.expect_wall_s * harness.TIMEOUT_FACTOR,
            log=self.workdir / "children.log")
        self._count([] if proc.exit_code == 0
                    else [f"probe {module_argv[:3]}: exit {proc.exit_code}"])
        return proc


def import_seconds(probe: Probe) -> float:
    """Wall of ``python -c 'import repro.cli'``: interpreter start plus the
    product's import graph, the floor under every campaign."""
    return statistics.median(
        probe.child(["-c", "import repro.cli"], pinned=True).wall_s
        for _ in range(1 if probe.quick else 3)
    )


def matmult_k1_probes(probe: Probe, base: harness.Rep) -> dict:
    no_checkpoints = probe.matmult("--no-prefix-checkpoints", same_as=base)
    no_trace = probe.matmult("--no-trace", same_as=base)
    return {
        "dampi.checkpoint.speedup": no_checkpoints.wall_s / base.wall_s,
        "obs.trace_overhead_ratio": base.wall_s / no_trace.wall_s,
    }


def matmult_resume_probes(probe: Probe, base: harness.Rep) -> dict:
    """``repro resume`` of a *complete* journal executes nothing: its wall
    over the entries it replays is the journal's read cost per entry."""
    crash, resume = probe.workload.steps(probe.seed, probe.quick)
    finish = Step("finish", resume.argv, timed=False)
    replay = probe.rep([crash, finish, Step("replay", resume.argv)], same_as=base)
    entries = replay.interleavings or 1
    return {"dampi.journal.replay_ms_per_entry": replay.wall_s / entries * 1e3}


def jobs2_probes(probe: Probe, base: harness.Rep) -> dict:
    """The two remote-execution seams on one campaign: ``--jobs 2`` (base)
    and a ``repro dist run`` fleet of 1 and of 2 workers, against serial."""
    serial = probe.session.reference("matmult_k1")
    if serial is None:
        return {}
    one = probe.matmult("--workers", "1", same_as=serial, command=("dist", "run"), pinned=False)
    two = probe.matmult("--workers", "2", same_as=serial, command=("dist", "run"), pinned=False)
    c = harness.counters(two.reports[0]) if two.reports else {}
    return {
        "dampi.parallel.jobs2_speedup": serial.wall_s / base.wall_s,
        "dist.workers1_wall_s": one.wall_s,
        "dist.workers2_wall_s": two.wall_s,
        "dist.tax_s": one.wall_s - serial.wall_s,
        "dist.leases": c.get("dist.leases_issued", 0),
        "dist.steals": c.get("dist.steal_requests", 0),
    }


def parmetis_probes(probe: Probe, _base: harness.Rep) -> dict:
    """The stack ablation (module docstring of :mod:`.probes`)."""
    nprocs = 4 if probe.quick else probe.workload.nprocs
    scale = 0.01 if probe.quick else ABLATION_SCALE
    out = probe.workdir / "ablation.json"

    def ablation(*flags: str, pinned: bool) -> Optional[dict]:
        """One child's results; None when it failed (already counted)."""
        out.unlink(missing_ok=True)
        proc = probe.child(["-m", "benchmarks.ledger.probes", str(out), "--nprocs", str(nprocs),
                            "--scale", str(scale), *flags], pinned=pinned)
        return json.loads(out.read_text()) if proc.exit_code == 0 else None

    passes = [ablation("--matching", pinned=True)
              for _ in range(1 if probe.quick else ABLATION_PASSES)]
    free = ablation("--stages", "native", pinned=False)
    if free is None or None in passes:
        return {}
    unpinned = free["stages"]["native"]["wall_s"]

    stages = passes[0]["stages"]
    wall = {s: min(p["stages"][s]["wall_s"] for p in passes) for s in stages}
    ops = stages["chain"]["ops"]

    def per_op(later: str, earlier: str) -> float:
        return (wall[later] - wall[earlier]) / ops * 1e6

    return {
        "mpi.runtime.native_run_s": wall["native"],
        "mpi.engine.ops_per_s": ops / wall["native"],
        "mpi.runtime.unpinned_ratio": unpinned / wall["native"],
        "mpi.matching.deposit_match_us": min(p["matching_cycle_us"] for p in passes),
        "pnmpi.chain_us_per_op": per_op("chain", "native"),
        "dampi.piggyback.us_per_op": per_op("piggyback", "chain"),
        "dampi.clock_module.us_per_op": per_op("clock", "piggyback"),
        "dampi.checkers.us_per_op": per_op("full", "clock"),
        "dampi.piggyback.vtime_slowdown": stages["full"]["makespan"] / stages["native"]["makespan"],
    }


#: workload -> its own probes, ``(probe, base rep) -> metrics``
HOME_PROBES = {
    "matmult_k1": matmult_k1_probes,
    "matmult_resume": matmult_resume_probes,
    "matmult_k1_jobs2": jobs2_probes,
    "parmetis_det": parmetis_probes,
}
