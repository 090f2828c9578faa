"""The DAMPI front end: self run, schedule generation, guided replays.

:class:`DampiVerifier` reproduces the full loop of paper Fig. 1: run the
program once in SELF_RUN to collect potential matches, then let the
schedule generator drive guided replays until the (possibly bounded)
space of non-deterministic matches is covered.  Every defect found —
deadlock, crash, leak, omission alert — ships with the Epoch Decisions
witness that reproduces it.
"""

from __future__ import annotations

import logging
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.dampi import journal as jr
from repro.dampi.artifacts import ArtifactStore
from repro.dampi.checkpoint import (
    PrefixCheckpointCache,
    capture_key,
    checkpoint_key,
)
from repro.dampi.clock_module import DampiClockModule
from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions, schedule_key
from repro.dampi.epoch import EpochKey, RunTrace
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.faults import FaultPlan
from repro.dampi.leaks import LeakCheckModule, LeakReport
from repro.dampi.monitor import MonitorReport, OmissionMonitorModule
from repro.dampi.piggyback import PiggybackModule
from repro.dampi import prune as prune_mod
from repro.errors import DeadlockError
from repro.mpi.runtime import RankExecutorPool, Runtime, RunResult
from repro.mpi.snapshot import (
    CheckpointError,
    CheckpointIneligible,
    CheckpointUnsupported,
    RecordingProc,
)
from repro.mpi.tracing import TraceModule
from repro.obs.campaign import CampaignTelemetry
from repro.obs.trace import Tracer
from repro.pnmpi.module import ToolModule

_log = logging.getLogger(__name__)

#: composite entry points the RecordingProc facade decomposes into PMPI
#: primitives during record/replay; a tool module wrapping one of these
#: would be bypassed by the decomposition, so its presence demotes
#: checkpointing (full replays are unaffected — chains stay intact there)
_CHECKPOINT_COMPOSITES = (
    "waitall",
    "waitany",
    "waitsome",
    "testall",
    "ssend",
    "sendrecv",
)


class _ReplaySession:
    """Persistent execution substrate reused across one verification's runs.

    Holds one :class:`Runtime` (tool modules constructed once, their
    interposition chains compiled once) and one :class:`RankExecutorPool`
    (rank threads spawned once).  Per run it recycles the runtime — a
    fresh :class:`~repro.mpi.engine.MessageEngine`, so *all* matching,
    scheduling, context, and virtual-clock state is rebuilt from scratch —
    points the clock module at the run's decisions, and dispatches the
    rank mains onto the parked pool threads.  Module per-run state is
    reset by each module's ``setup`` inside ``Runtime.run``.

    The session is an optimisation with a bit-identity contract: a
    recycled run must be indistinguishable from a cold-start one (the
    differential tests in ``tests/test_verifier.py`` compare whole
    reports).  Anything that cannot honour the contract — policy
    instances with hidden state — must bypass the session instead.
    """

    def __init__(self, verifier: "DampiVerifier"):
        cfg = verifier.config
        modules = verifier._build_modules(None)
        self.clock = next(
            m for m in modules if isinstance(m, DampiClockModule)
        )
        self.runtime = Runtime(
            verifier.nprocs,
            verifier.program,
            modules=modules,
            policy=cfg.policy,
            cost_model=cfg.cost_model,
            args=verifier.args,
            kwargs=verifier.kwargs,
            tracer=verifier._run_tracer,
        )
        self.pool = RankExecutorPool(
            verifier.nprocs, name=f"{self.runtime.name}-session"
        )
        # -- prefix-sharing replay (repro.dampi.checkpoint) ----------------
        self.checkpoint_cache: Optional[PrefixCheckpointCache] = None
        self.checkpoint_demote_reason: Optional[str] = None
        self.checkpoint_interval = cfg.checkpoint_interval
        self._ckpt_stats_final: Optional[dict] = None
        self._faults = verifier._faults
        #: deep sharing (ancestor restores + in-run/in-suffix snapshots)
        #: requires the match policy to be stateless: a restored run skips
        #: the prefix's policy consultations, so a policy carrying hidden
        #: state (a seeded RNG) would diverge from a full run.  Stateful
        #: policies keep the sibling-only scheme, whose producer and
        #: consumer force bit-identical prefixes.
        self._deep_sharing = False
        if cfg.prefix_checkpoints:
            reason = self._checkpoint_unsupported_reason()
            if reason is None:
                self.runtime.install_views(
                    [RecordingProc(p) for p in self.runtime.procs]
                )
                self.checkpoint_cache = PrefixCheckpointCache(
                    cfg.checkpoint_cache_mb * 1024 * 1024
                )
                from repro.mpi.matching import make_policy

                self._deep_sharing = bool(
                    getattr(make_policy(cfg.policy), "stateless", False)
                )
            else:
                # mirror the single-CPU jobs demotion: log and fall back
                # to full replays instead of erroring mid-campaign
                self.checkpoint_demote_reason = reason
                _log.info("prefix checkpoints demoted: %s", reason)

    def _checkpoint_unsupported_reason(self) -> Optional[str]:
        """Why this session cannot checkpoint (None = it can)."""
        # per-run event tracing no longer demotes checkpoints: snapshots
        # carry the tracer's prefix stream (repro.mpi.snapshot), so a
        # restored run's events and exact counters match a full run
        for module in self.runtime.stack:
            if type(module).snapshot_state is ToolModule.snapshot_state:
                return f"tool module {module.name!r} has no snapshot support"
            for point in _CHECKPOINT_COMPOSITES:
                if module.overrides(point):
                    return (
                        f"tool module {module.name!r} wraps composite "
                        f"{point!r} (record/replay decomposition would "
                        f"bypass it)"
                    )
        return None

    def run(
        self, decisions: Optional[EpochDecisions]
    ) -> tuple[RunResult, RunTrace]:
        decisions = decisions or EpochDecisions()
        cache = self.checkpoint_cache
        if cache is None or decisions.flip is None:
            return self._run_full(decisions)
        key = checkpoint_key(decisions)
        if key in cache.ineligible:
            cache.skips += 1
            return self._run_full(decisions)
        snap = (
            cache.find(decisions) if self._deep_sharing else cache.get(key)
        )
        if snap is not None:
            out = self._run_restored(snap, decisions, key)
            if out is not None:
                return out
            # the restore/replay failed and demoted checkpointing
            return self._run_full(decisions)
        if self._deep_sharing:
            # record on every miss: in-run captures make the whole path a
            # future dict hit, so a miss is the one chance to amortize it
            # (the expect_siblings hint no longer gates anything — it can
            # go stale across dist steal-splits)
            cache.misses += 1
            return self._run_recording(decisions, key)
        if not decisions.expect_siblings:
            # the generator knows no other schedule shares this prefix
            # right now — recording would almost surely be wasted
            return self._run_full(decisions)
        if len(decisions.forced) % self.checkpoint_interval != 0:
            return self._run_full(decisions)
        cache.misses += 1
        return self._run_recording(decisions, key)

    def _run_full(self, decisions: EpochDecisions) -> tuple[RunResult, RunTrace]:
        self.runtime.recycle()
        self.clock.decisions = decisions
        pool = None if self.pool.broken else self.pool
        result = self.runtime.run(pool=pool)
        return result, result.artifacts["dampi"]

    def _run_recording(
        self, decisions: EpochDecisions, key
    ) -> tuple[RunResult, RunTrace]:
        """Full replay that snapshots the engine at its own flip point, so
        the flipped node's sibling schedules can resume from there.  Under
        deep sharing the run additionally snapshots at every eligible
        wildcard post — before and after the flip — so future first-visit
        schedules anywhere along this path dict-hit their own flip."""
        self.runtime.recycle()
        self.clock.decisions = decisions
        views = self.runtime.views
        for view in views:
            view.start_record()
        if self._deep_sharing:
            self._arm_triggers(decisions, key)
        else:
            flip_rank, flip_lc = decisions.flip
            session = self

            def trigger(view, _rank=flip_rank, _lc=flip_lc, _key=key):
                # pre-tick clock identifies the epoch, exactly as the clock
                # module's irecv/probe hooks key it
                if session.clock._state[_rank].clock.time != _lc:
                    return
                view._trigger = None
                session._capture(_key)

            views[flip_rank]._trigger = trigger
        try:
            pool = None if self.pool.broken else self.pool
            result = self.runtime.run(pool=pool)
        finally:
            for view in views:
                view.set_passthrough()
        return result, result.artifacts["dampi"]

    def _arm_triggers(self, decisions: EpochDecisions, key) -> None:
        """Deep-sharing capture triggers on every rank's view: each
        wildcard post is a potential snapshot point.  The flip itself is
        stored under the schedule's sibling key (always captured); other
        posts go under :func:`capture_key` of the state decided so far,
        gated by ``checkpoint_interval`` and deduplicated against the
        cache.  The triggers run on rank threads that hold the engine
        token, so cache access needs no extra locking."""
        session = self
        flip = decisions.flip
        interval = self.checkpoint_interval
        for rank, view in enumerate(self.runtime.views):

            def trigger(view, _rank=rank):
                cache = session.checkpoint_cache
                if cache is None:  # demoted mid-run
                    view._trigger = None
                    return
                # pre-tick clock identifies the epoch about to be decided
                k = (_rank, session.clock._state[_rank].clock.time)
                if k == flip:
                    if key not in cache and key not in cache.ineligible:
                        session._capture(key, deep=True)
                    return
                meta = session.clock.capture_meta()
                if meta["natural"]:
                    # a naturally-decided epoch makes the snapshot
                    # unusable by every later schedule (the explorer
                    # forces the whole path, and forced-vs-natural posts
                    # are not observably equivalent) — and capturing it
                    # would burn the cache key for a fully-forced
                    # producer
                    return
                if len(meta["decided"]) % interval != 0:
                    return
                ckey = capture_key(k, meta["decided"])
                if ckey in cache or ckey in cache.ineligible:
                    return
                session._capture(ckey, deep=True, suffix=True)

            view._trigger = trigger

    def _capture(self, key, deep: bool = False, suffix: bool = False) -> None:
        """Runs on a rank's thread, just before a wildcard operation is
        delegated to the engine."""
        cache = self.checkpoint_cache
        if cache is None:
            return
        try:
            snap = self.runtime.snapshot()
        except CheckpointIneligible:
            cache.ineligible.add(key)
            cache.skips += 1
            return
        except CheckpointUnsupported as e:
            self._demote_checkpoints(f"capture failed: {e}")
            return
        cache.capture_seconds += snap.capture_seconds
        snap.key = key
        if deep:
            # decided-state metadata makes the snapshot eligible for
            # ancestor restores (checkpoint.snapshot_usable)
            snap.meta = self.clock.capture_meta()
            snap.depth = len(snap.meta["decided"])
        else:
            snap.depth = len(key[1]) + 1
        cache.put(key, snap)
        if suffix:
            cache.suffix_captures += 1
        if not deep:
            # sibling-only mode: the logs up to the cut are inside the
            # snapshot — stop paying record overhead for the rest of this
            # run (deep sharing keeps recording for later capture points)
            for view in self.runtime.views:
                if view.recording:
                    view.set_passthrough()

    def _run_restored(
        self, snap, decisions: EpochDecisions, key
    ) -> Optional[tuple[RunResult, RunTrace]]:
        """Resume a schedule from a prefix checkpoint; None means the
        attempt failed (checkpointing has been demoted — run full).

        An *exact* hit (the snapshot was cut at this schedule's own flip)
        replays the logged prefix and executes only the suffix.  An
        *ancestor* hit restores a shallower snapshot, rebases the clock
        module's guidance onto this schedule's decision map, and — deep
        sharing only — keeps recording past the cut so the novel suffix
        yields further snapshots."""
        cache = self.checkpoint_cache
        exact = getattr(snap, "key", None) == key
        record_after = self._deep_sharing and not exact
        if self._faults:
            self._faults.fire("restore", decisions.flip)
        try:
            self.runtime.recycle(checkpoint=snap, record_after=record_after)
        except Exception as e:  # noqa: BLE001 - any restore failure => demote
            self._demote_checkpoints(
                f"restore failed: {type(e).__name__}: {e}"
            )
            return None
        if self._deep_sharing:
            # the snapshot's guidance state belongs to the producer's
            # schedule; repoint every rank at this schedule's decisions
            self.clock.rebase_decisions(decisions)
        else:
            self.clock.decisions = decisions
        if record_after:
            self._arm_triggers(decisions, key)
        try:
            pool = None if self.pool.broken else self.pool
            result = self.runtime.run(pool=pool)
        finally:
            if record_after:
                for view in self.runtime.views or ():
                    view.set_passthrough()
        for exc in result.errors.values():
            if isinstance(exc, CheckpointError):
                # the restored run's prefix was not actually compatible
                # with the recording — an invariant violation, not a user
                # bug
                self._demote_checkpoints(f"replay diverged: {exc}")
                return None
        cache.record_hit(snap)
        cache.restore_seconds += self.runtime._restore_seconds
        return result, result.artifacts["dampi"]

    def _demote_checkpoints(self, reason: str) -> None:
        cache = self.checkpoint_cache
        if cache is None:
            return
        self._ckpt_stats_final = cache.stats()
        self.checkpoint_cache = None
        self.checkpoint_demote_reason = reason
        _log.info("prefix checkpoints demoted: %s", reason)
        for view in self.runtime.views or ():
            view.set_passthrough()

    def checkpoint_stats(self) -> dict:
        cache = self.checkpoint_cache
        if cache is not None:
            stats = cache.stats()
        elif self._ckpt_stats_final is not None:
            stats = dict(self._ckpt_stats_final)
        else:
            stats = PrefixCheckpointCache(1).stats()
        stats["enabled"] = cache is not None
        stats["demote_reason"] = self.checkpoint_demote_reason
        return stats

    def close(self) -> None:
        self.pool.close()


@dataclass
class FoundError:
    """One defect with its reproduction witness."""

    kind: str  # "deadlock" | "crash" | "communicator_leak" | "request_leak"
    run_index: int
    detail: str
    decisions: Optional[EpochDecisions] = None

    def __str__(self) -> str:
        where = "self run" if self.run_index == 0 else f"replay {self.run_index}"
        return f"[{self.kind}] in {where}: {self.detail}"


def completed_outcome(trace: RunTrace) -> frozenset:
    """The semantic fingerprint of one interleaving: every completed
    wildcard epoch paired with the source it matched."""
    return frozenset(
        (e.key, e.matched_source)
        for e in trace.all_epochs()
        if e.matched_source is not None
    )


@dataclass
class RunRecord:
    """Per-interleaving summary kept on the report."""

    index: int
    makespan: float
    wildcard_count: int
    error_kinds: tuple[str, ...]
    diverged: bool
    flip: Optional[EpochKey]
    #: completed wildcard outcome of this run — the semantic fingerprint of
    #: the interleaving (used by coverage/property tests)
    outcome: frozenset


@dataclass
class VerificationReport:
    """Everything a verification session learned."""

    nprocs: int
    config: DampiConfig
    interleavings: int = 0
    errors: list[FoundError] = field(default_factory=list)
    leak_report: Optional[LeakReport] = None
    monitor_report: Optional[MonitorReport] = None
    wildcards_analyzed: int = 0
    self_run_vtime: float = 0.0
    total_vtime: float = 0.0
    wall_seconds: float = 0.0
    truncated: bool = False
    divergences: int = 0
    #: decision nodes frozen by the bounded-mixing distance rule; 0 on an
    #: untruncated run means the bound never bit and the space is fully
    #: covered (no wider bound can find more)
    bound_frozen: int = 0
    #: how this attempt executed its replays: ``mode`` ``"inline"``
    #: (``jobs``, ``demoted``/``demote_reason``, the ``checkpoint`` cache
    #: counters) or ``"dist"`` (``workers``, ``leases``, ``records``,
    #: ``worker_deaths``)
    parallel_stats: Optional[dict] = None
    #: journal accounting when verify() ran with one: directory, runs
    #: replayed from the journal vs executed live.  Like parallel_stats,
    #: excluded from to_json(): it describes *this attempt*, not the
    #: verification (a resumed report is otherwise bit-identical).
    journal_stats: Optional[dict] = None
    #: pruning / adaptive-escalation accounting (None unless
    #: ``config.prune`` or ``config.adaptive_clocks``): subtrees pruned,
    #: replays saved versus the unpruned walk, precision replays run and
    #: the vector-only alternatives they injected.  Deterministic — part
    #: of to_json() (see :mod:`repro.dampi.prune`).
    prune_stats: Optional[dict] = None
    #: telemetry block (metrics snapshot + event-stream accounting),
    #: filled in by CampaignTelemetry.finalize; report JSON v3
    telemetry: Optional[dict] = None
    #: merged campaign event stream (list of repro.obs.trace.Event);
    #: empty unless config.trace_events
    events: list = field(default_factory=list)
    runs: list[RunRecord] = field(default_factory=list)
    traces: list[RunTrace] = field(default_factory=list)

    @property
    def deadlocks(self) -> list[FoundError]:
        return [e for e in self.errors if e.kind == "deadlock"]

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def outcomes(self) -> set[frozenset]:
        """Distinct wildcard-match outcomes covered (coverage measure)."""
        return {r.outcome for r in self.runs}

    def summary(self) -> str:
        lines = [
            f"DAMPI verification of {self.nprocs} processes "
            f"({self.config.clock_impl} clocks, "
            f"k={'unbounded' if self.config.bound_k is None else self.config.bound_k})",
            f"  interleavings explored : {self.interleavings}"
            + (" (truncated)" if self.truncated else ""),
            f"  wildcard ops analyzed  : {self.wildcards_analyzed}",
            f"  distinct outcomes      : {len(self.outcomes)}",
            f"  total virtual time     : {self.total_vtime:.6f} s"
            f" (self run {self.self_run_vtime:.6f} s)",
            f"  wall-clock             : {self.wall_seconds:.2f} s",
        ]
        if self.monitor_report and self.monitor_report.triggered:
            lines.append(
                f"  omission alerts (§V)   : {len(self.monitor_report)}"
            )
        if self.prune_stats:
            ps = self.prune_stats
            lines.append(
                f"  subtrees pruned        : {ps['subtrees_pruned']}"
                f" ({ps['replays_saved']} replays saved)"
            )
            if ps.get("adaptive_clocks"):
                lines.append(
                    f"  clock escalations      : {ps['escalations']}"
                    f" (+{ps['extra_alternatives']} vector-only alternatives)"
                )
        if self.errors:
            lines.append(f"  ERRORS ({len(self.errors)}):")
            lines.extend(f"    {e}" for e in self.errors)
        else:
            lines.append("  no errors found")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable report for CI pipelines: counts, errors with
        their witness schedules, monitor alerts, and per-run records."""
        import json

        payload = {
            "version": 3,
            "nprocs": self.nprocs,
            "clock_impl": self.config.clock_impl,
            "bound_k": self.config.bound_k,
            "interleavings": self.interleavings,
            "truncated": self.truncated,
            "wildcards_analyzed": self.wildcards_analyzed,
            "distinct_outcomes": len(self.outcomes),
            "self_run_vtime": self.self_run_vtime,
            "total_vtime": self.total_vtime,
            "wall_seconds": self.wall_seconds,
            "divergences": self.divergences,
            "monitor_alerts": (
                len(self.monitor_report) if self.monitor_report else 0
            ),
            "errors": [
                {
                    "kind": e.kind,
                    "run_index": e.run_index,
                    "detail": e.detail,
                    "witness": (
                        None
                        if e.decisions is None
                        else [[r, lc, src] for (r, lc), src in sorted(e.decisions.forced.items())]
                    ),
                }
                for e in self.errors
            ],
            "runs": [
                {
                    "index": r.index,
                    "flip": list(r.flip) if r.flip else None,
                    "errors": list(r.error_kinds),
                    "diverged": r.diverged,
                    "makespan": r.makespan,
                    "wildcard_count": r.wildcard_count,
                }
                for r in self.runs
            ],
            "prune_stats": self.prune_stats,
            "telemetry": self.telemetry or {},
        }
        return json.dumps(payload, indent=2)

    def run_table(self, limit: Optional[int] = 50) -> str:
        """A per-run text table: which epoch each replay flipped, what the
        wildcards matched, and what went wrong.  ``limit`` caps the rows
        (None = all)."""
        lines = [
            f"{'run':>5} | {'flipped epoch':>14} | {'wildcard matches':<40} | outcome"
        ]
        rows = self.runs if limit is None else self.runs[:limit]
        for r in rows:
            matches = ", ".join(
                f"r{rank}@{lc}<-{src}"
                for (rank, lc), src in sorted(r.outcome)
            )
            if len(matches) > 40:
                matches = matches[:37] + "..."
            flip = "self run" if r.flip is None else f"({r.flip[0]},{r.flip[1]})"
            state = ",".join(r.error_kinds) if r.error_kinds else "ok"
            if r.diverged:
                state += " [diverged]"
            lines.append(f"{r.index:>5} | {flip:>14} | {matches:<40} | {state}")
        if limit is not None and len(self.runs) > limit:
            lines.append(
                f"  ... {len(self.runs) - limit} more runs (use --all)"
            )
        return "\n".join(lines)


class _Campaign:
    """What one campaign folds its runs into: the state
    :meth:`DampiVerifier._consume` advances, whether the runs come from
    the live loop, a journal being resumed, or a distributed
    coordinator's collected records."""

    def __init__(self, verifier: "DampiVerifier", telemetry: CampaignTelemetry):
        cfg = verifier.config
        self.report = VerificationReport(nprocs=verifier.nprocs, config=cfg)
        self.telemetry = telemetry
        self.generator = ScheduleGenerator(
            bound_k=cfg.bound_k,
            auto_loop_threshold=cfg.auto_loop_threshold,
            prune=cfg.prune,
        )
        self.store = (
            ArtifactStore(cfg.artifacts_dir)
            if cfg.artifacts_dir is not None
            else None
        )
        #: error-dedup keys claimed so far
        self.seen: set[tuple[str, str]] = set()
        #: adaptive-escalation accounting (precision replays are *extra*
        #: executions — not interleavings — so they are counted here, not
        #: in the walk)
        self.esc = {
            "escalations": 0,
            "escalation_replays": 0,
            "extra_alternatives": 0,
        }
        #: where consumed runs are appended; None while a journal's own
        #: entries are being replayed (and for unjournaled campaigns)
        self.journal: Optional[jr.CampaignJournal] = None
        #: run entries the journal holds / since its last checkpoint
        self.applied = 0
        self.since_checkpoint = 0


class DampiVerifier:
    """Verify ``program`` over the space of wildcard non-determinism.

    Parameters
    ----------
    program:
        ``program(proc, *args, **kwargs)`` — any program runnable under
        :class:`repro.mpi.runtime.Runtime`.
    nprocs:
        Number of ranks to verify at.
    config:
        A :class:`DampiConfig`; defaults are the paper's (Lamport clocks,
        separate-message piggyback, unbounded search).
    """

    def __init__(
        self,
        program: Callable,
        nprocs: int,
        config: Optional[DampiConfig] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ):
        self.program = program
        self.nprocs = nprocs
        self.config = config or DampiConfig()
        self.args = args
        self.kwargs = kwargs or {}
        self._session: Optional[_ReplaySession] = None
        self._runs_started = 0
        #: checkpoint-cache stats preserved across close() (report wiring)
        self._last_checkpoint_stats: Optional[dict] = None
        #: deterministic fault injection (no-op unless config.fault_plan);
        #: fired at self/run sites by verify() and at flip sites by
        #: run_once() — so flip faults strike wherever the replay actually
        #: executes, a fleet worker included
        self._faults = FaultPlan.parse(self.config.fault_plan)
        #: per-run event tracer handed to every Runtime this verifier
        #: builds; None (the fast path) unless config.trace_events
        self._run_tracer: Optional[Tracer] = (
            Tracer(buffer=self.config.trace_buffer)
            if self.config.trace_events
            else None
        )

    # -- module stack -----------------------------------------------------------

    def _extra_outer_modules(self) -> list:
        """Hook for subclasses (the ISP baseline adds its scheduler tax)."""
        return []

    def _build_modules(self, decisions: Optional[EpochDecisions]) -> list:
        cfg = self.config
        piggyback = PiggybackModule(cfg.piggyback)
        clock = DampiClockModule(
            piggyback,
            cfg.clock_impl,
            decisions,
            flag_scalar_risk=cfg.adaptive_clocks,
        )
        modules: list = list(self._extra_outer_modules())
        if cfg.trace_ops:
            modules.append(TraceModule())
        if cfg.enable_monitor:
            modules.append(OmissionMonitorModule())
        if cfg.enable_leak_check:
            modules.append(LeakCheckModule())
        modules.append(clock)
        modules.append(piggyback)
        return modules

    # -- execution ---------------------------------------------------------------

    def _trace_capture(self, decisions: Optional[EpochDecisions]) -> bool:
        """Whether this run's event payloads are recorded (deterministic
        1-in-N sampling keyed off the schedule signature).

        The self run is always captured; guided replays hash their
        canonical schedule key, so the decision is identical in-process,
        in fleet workers, and across resumes — the rate-N stream is a
        deterministic subset of the rate-1 stream.  Exact ``events.*``
        counters are kept either way (see :class:`repro.obs.trace.Tracer`).
        """
        n = self.config.trace_sample_every
        if n <= 1 or decisions is None or decisions.flip is None:
            return True
        return zlib.crc32(repr(schedule_key(decisions)).encode()) % n == 0

    def run_once(
        self, decisions: Optional[EpochDecisions] = None
    ) -> tuple[RunResult, RunTrace]:
        """One instrumented execution (self run if ``decisions`` is empty).

        The first execution always cold-starts (fresh runtime and
        threads): single-run users pay nothing for the session machinery
        and leak no pool threads.  From the second execution on — i.e.
        for guided replays — a persistent session takes over, unless
        ``policy`` is a policy *instance* (see :class:`_ReplaySession`).
        """
        cfg = self.config
        if self._faults and decisions is not None and decisions.flip is not None:
            flip = decisions.flip
            src = decisions.forced.get(flip)
            self._faults.fire(
                "flip", flip if src is None else (flip[0], flip[1], src)
            )
        tracer = self._run_tracer
        if tracer is not None:
            tracer.capture = self._trace_capture(decisions)
        self._runs_started += 1
        if self._session is not None:
            return self._session.run(decisions)
        # a policy instance may carry internal state (e.g. a seeded RNG)
        # across runs; only string specs rebuild from scratch
        if self._runs_started >= 2 and isinstance(cfg.policy, str):
            self._session = _ReplaySession(self)
            return self._session.run(decisions)
        runtime = Runtime(
            self.nprocs,
            self.program,
            modules=self._build_modules(decisions),
            policy=cfg.policy,
            cost_model=cfg.cost_model,
            args=self.args,
            kwargs=self.kwargs,
            tracer=self._run_tracer,
        )
        result = runtime.run()
        trace = result.artifacts["dampi"]
        return result, trace

    def close(self) -> None:
        """Release the persistent replay session (rank-executor threads),
        if one was created.  Idempotent: safe to call repeatedly, from
        ``verify()``'s exit path, user code, and ``__del__`` alike.
        ``getattr`` (not attribute access) keeps it safe even on a
        partially constructed instance."""
        session = getattr(self, "_session", None)
        self._session = None
        if session is not None:
            try:
                self._last_checkpoint_stats = session.checkpoint_stats()
            except Exception:
                pass
            session.close()

    def checkpoint_stats(self) -> Optional[dict]:
        """Prefix-checkpoint cache counters (hits/misses/evictions/bytes),
        from the live session or — after close() — its final snapshot.
        None when no session ever existed (single-run usage)."""
        session = self._session
        if session is not None:
            return session.checkpoint_stats()
        return self._last_checkpoint_stats

    def __del__(self):  # best-effort; daemon threads die with the process
        # At interpreter shutdown module globals may already be None and
        # attributes torn down, raising AttributeError (or anything else)
        # from innocent code — never let that escape a finalizer.
        try:
            self.close()
        except Exception:
            pass

    # -- fleet plumbing -----------------------------------------------------------

    def _spec_extra(self) -> dict:
        """Extra constructor kwargs a fleet worker must pass to rebuild
        this verifier (subclasses with additional state override)."""
        return {}

    def _fleet_size(self) -> tuple[int, Optional[str]]:
        """``(jobs, demote_reason)``: the worker count ``config.jobs``
        asks for, and why this host will not get a fleet for it (None =
        it will).  Replay cost is pure compute, so on a single-CPU host
        workers could only time-slice against each other and the
        coordinator: the campaign stays in-process there (reports are
        identical either way)."""
        cpus = os.cpu_count() or 1
        jobs = self.config.jobs if self.config.jobs is not None else cpus
        if jobs > 1 and cpus <= 1:
            reason = (
                f"auto-demoted to in-process execution: single-CPU host "
                f"(os.cpu_count()={os.cpu_count()!r}) cannot run {jobs} "
                f"compute-bound replay workers concurrently"
            )
            _log.info("%s", reason)
            return jobs, reason
        return jobs, None

    def verify(
        self,
        journal=None,
        faults: Optional[FaultPlan] = None,
    ) -> VerificationReport:
        """The full coverage loop: self run + guided replays to exhaustion
        (or to the configured bounds).

        With ``config.jobs == 1`` the loop runs here, in-process — it is
        the DFS of paper §II-B.  With more, the campaign is handed to a
        :class:`repro.dist.DistCoordinator` over ``jobs`` local workers,
        which assembles that same walk from the records its fleet streams
        back; reports are bit-identical across ``jobs`` settings.

        ``journal`` (a directory path or a
        :class:`~repro.dampi.journal.CampaignJournal`) makes the session
        crash-safe: every consumed run is durably appended, and a later
        ``verify(journal=<same dir>)`` replays the journal instead of
        re-executing the covered interleavings, then continues live —
        producing a report bit-identical to an uninterrupted run (modulo
        ``wall_seconds``/``telemetry``; ``report.journal_stats`` counts
        replayed vs executed).  ``faults`` overrides the config-derived
        fault plan with a shared instance (escalation stages use this so
        one-shot faults stay one-shot across stages).
        """
        cfg = self.config
        if faults is not None:
            self._faults = faults
        faults = self._faults
        jobs, demote_reason = self._fleet_size()
        if jobs > 1 and demote_reason is None:
            # imported here: repro.dist builds on this module
            from repro.dist.coordinator import DistCoordinator

            return DistCoordinator(self, workers=jobs, journal=journal).run()
        telemetry = CampaignTelemetry(cfg)
        started = time.perf_counter()
        camp = _Campaign(self, telemetry)
        report = camp.report
        history = []
        if journal is not None:
            journal = jr.CampaignJournal.open(journal, cfg)
            journal.bind(tracer=telemetry.tracer, metrics=telemetry.metrics)
            journal.ensure_meta(
                self.nprocs, cfg, kwargs=self.kwargs, prog_args=self.args
            )
            history = journal.run_entries()
        run_index = self._replay_journal(camp, journal, history) if history else 0
        # from here on consumed runs are appended (the replayed ones are
        # what the journal already holds)
        camp.journal, camp.applied = journal, len(history)
        if not history:
            if faults:
                faults.fire(
                    "self", tracer=telemetry.tracer, metrics=telemetry.metrics
                )
            tele_token = telemetry.run_started()
            result, trace = self.run_once()
            self._consume(
                camp, 0, None, result, trace,
                esc=self._escalate(None, trace), started=tele_token,
            )

        executed = 0 if history else 1  # the live self run counts as executed
        try:
            while True:
                if cfg.max_interleavings is not None and report.interleavings >= cfg.max_interleavings:
                    report.truncated = not camp.generator.exhausted
                    break
                if cfg.max_seconds is not None and time.perf_counter() - started > cfg.max_seconds:
                    report.truncated = not camp.generator.exhausted
                    break
                decisions = camp.generator.next_decisions()
                if decisions is None:
                    break
                run_index += 1
                if faults:
                    faults.fire(
                        "run",
                        (run_index,),
                        tracer=telemetry.tracer,
                        metrics=telemetry.metrics,
                    )
                tele_token = telemetry.run_started()
                result, trace = self.run_once(decisions)
                executed += 1
                self._consume(
                    camp, run_index, decisions, result, trace,
                    esc=self._escalate(decisions, trace), started=tele_token,
                )
                telemetry.heartbeat(
                    report.interleavings, camp.generator, self.checkpoint_stats
                )
        finally:
            # the journal needs no explicit cleanup here: every append is
            # already flushed+fsync'd, and the normal path below writes the
            # end marker and closes it
            self.close()

        stats = {
            "mode": "inline",
            "jobs": jobs,
            "demoted": demote_reason is not None,
            "demote_reason": demote_reason,
        }
        gauge = telemetry.metrics.gauge
        gauge("exec.jobs").set(stats["jobs"])
        gauge("exec.demoted").set(stats["demoted"])
        ckpt = self.checkpoint_stats()
        if ckpt is not None:
            stats["checkpoint"] = ckpt
            for name, value in ckpt.items():
                # per-depth breakdowns stay in the stats dict; gauges hold
                # scalars only
                if not isinstance(value, dict):
                    gauge(f"exec.checkpoint_{name}").set(value)
        if journal is not None:
            journal.append(
                {
                    "t": "end",
                    "interleavings": report.interleavings,
                    "truncated": report.truncated,
                }
            )
        self._finish_report(
            camp, started, stats, journal, len(history), executed
        )
        return report

    def _escalate(self, decisions, trace) -> Optional[int]:
        """Adaptive clock escalation hook (no-op unless
        ``config.adaptive_clocks`` and the run flagged scalar risk): one
        vector-clock precision replay, whose vector-only alternatives are
        injected into ``trace`` in place *before* it is consumed — so the
        journal, the artifact store, the generator and every later reader
        of the run record (resume, dist assembly) inherit the augmented
        trace for free.  Returns the injected-alternative count, or None
        when no escalation ran (the run record omits the field)."""
        if not self.config.adaptive_clocks or not trace.scalar_risk:
            return None
        return prune_mod.escalate_trace(
            self.program,
            self.nprocs,
            self.config,
            decisions,
            trace,
            args=self.args,
            kwargs=self.kwargs,
        )

    # -- the one consume step -----------------------------------------------------

    def _consume(
        self, camp: _Campaign, index, decisions, result, trace,
        esc=None, started=None, drive=True,
    ) -> None:
        """Fold one run into the campaign — the only place that happens.

        A live run, a resumed journal entry and a distributed worker's
        record all arrive here as ``(result, trace)`` (the latter two
        rebuilt by :func:`repro.dampi.journal.result_from_entry`), with
        ``esc`` the alternatives a clock escalation injected into the
        trace, if one ran.  ``drive=False`` is the fast-forwarded journal
        entry: the generator will be restored from a checkpoint that
        already contains this run, so only the report side is applied."""
        cfg = self.config
        report, generator = camp.report, camp.generator
        if esc is not None:
            camp.esc["escalations"] += 1
            camp.esc["escalation_replays"] += 1
            camp.esc["extra_alternatives"] += esc
        if camp.store is not None:
            camp.store.write_run(index, trace, decisions)
        saved_before = generator.replays_saved
        pruned = False
        if drive:
            signature = (
                prune_mod.signature_of(result, trace) if cfg.prune else None
            )
            if decisions is None:
                generator.seed(trace, signature=signature)
            else:
                pruned = generator.integrate(trace, signature=signature)
        n_err = len(report.errors)
        self._record_run(report, index, decisions, result, trace, camp.seen)
        rec = report.runs[-1]
        if decisions is None:
            report.wildcards_analyzed = trace.wildcard_count
            report.self_run_vtime = result.makespan
            report.leak_report = result.artifacts.get("leaks")
            report.monitor_report = result.artifacts.get("monitor")
        camp.telemetry.record_run(
            index,
            result,
            trace,
            flip=rec.flip,
            error_kinds=rec.error_kinds,
            started=started,
        )
        journal = camp.journal
        if journal is None:
            return
        journal.append(
            self._journal_run_entry(
                index, decisions, result, trace, esc, len(report.errors) - n_err
            )
        )
        if pruned:
            # audit record: resume re-derives the decision from the run
            # record, so this is purely for `repro stats` visibility and
            # postmortems
            journal.append(
                {
                    "t": "prune",
                    "index": index,
                    "flip": list(rec.flip) if rec.flip else None,
                    "saved": generator.replays_saved - saved_before,
                }
            )
        camp.applied += 1
        camp.since_checkpoint += 1
        if camp.since_checkpoint >= cfg.journal_checkpoint_interval:
            self._journal_checkpoint(camp)
            camp.since_checkpoint = 0

    def _consume_entry(
        self, camp: _Campaign, index, decisions, entry: dict, drive=True,
        obs=None,
    ) -> None:
        """:meth:`_consume` a run that exists only as its run record.
        ``obs`` is the run's tracer payload when it travelled beside the
        record (a fleet worker's frame); a journaled record has none."""
        result = jr.result_from_entry(entry)
        if obs:
            result.artifacts["obs"] = obs
        self._consume(
            camp, index, decisions,
            result, jr.trace_from_jsonable(entry["trace"]),
            esc=entry.get("esc"), drive=drive,
        )

    def _finish_report(
        self, camp: _Campaign, started, parallel_stats,
        journal=None, replayed=0, executed=0,
    ) -> None:
        """Close out the report once the walk is over: the generator's
        final counters, the prune/escalation block, this attempt's
        execution and journal accounting, then telemetry."""
        cfg = self.config
        report, generator = camp.report, camp.generator
        metrics = camp.telemetry.metrics
        report.divergences = generator.divergences
        report.bound_frozen = generator.distance_frozen
        report.parallel_stats = parallel_stats
        if cfg.prune or cfg.adaptive_clocks:
            report.prune_stats = {
                "enabled": cfg.prune,
                "adaptive_clocks": cfg.adaptive_clocks,
                "subtrees_pruned": generator.prunes,
                "replays_saved": generator.replays_saved,
                **camp.esc,
            }
            metrics.counter("prune.subtrees").inc(generator.prunes)
            metrics.counter("prune.replays_saved").inc(generator.replays_saved)
            for name, n in camp.esc.items():
                metrics.counter(f"prune.{name}").inc(n)
        if journal is not None:
            journal.close()
            report.journal_stats = {
                "dir": str(journal.root),
                "replayed": replayed,
                "executed": executed,
            }
            metrics.gauge("journal.replayed_runs").set(replayed)
            metrics.gauge("journal.executed_runs").set(executed)
        report.wall_seconds = time.perf_counter() - started
        camp.telemetry.finalize(report)

    # -- journal plumbing ---------------------------------------------------------

    def _replay_journal(self, camp: _Campaign, journal, history) -> int:
        """Rebuild the session state from a journal without executing
        anything: each entry's run record goes through the same
        :meth:`_consume` a live run does, which also feeds the trace back
        through the generator's own ``seed``/``integrate``
        (deterministic, so the rebuilt DFS state is bit-identical) — with
        a fast-forward from the latest checkpoint when one exists.
        Returns the last run index replayed."""
        ckpt = journal.latest_checkpoint()
        fast_forward = 0
        if ckpt is not None:
            fast_forward = ckpt["applied"]
            if fast_forward > len(history):
                raise jr.JournalError(
                    f"journal {journal.root}: checkpoint claims "
                    f"{fast_forward} entries but only {len(history)} exist"
                )
        run_index = 0
        for i, entry in enumerate(history):
            drive = i >= fast_forward
            run_index = entry["index"]
            decisions = (
                jr.decisions_from_jsonable(entry["key"])
                if entry.get("key")
                else None
            )
            if drive and run_index:
                self._check_journal_schedule(
                    journal, run_index, decisions, camp.generator.next_decisions()
                )
            self._consume_entry(camp, run_index, decisions, entry, drive=drive)
            if i + 1 == fast_forward:
                camp.generator = jr.restore_generator(ckpt["generator"])
        if camp.telemetry.tracer is not None:
            camp.telemetry.tracer.instant(
                "journal_resume", "journal", replayed=len(history)
            )
        return run_index

    def _check_journal_schedule(self, journal, index, journaled, asked) -> None:
        """A journaled entry must match what the deterministic walk asks
        for at that point — anything else means the program, its inputs,
        or the config changed under the journal."""
        if (
            asked is None
            or journaled is None
            or schedule_key(journaled) != schedule_key(asked)
        ):
            raise jr.JournalError(
                f"journal {journal.root}: entry {index} diverges "
                f"from the deterministic walk (journaled flip "
                f"{journaled.flip if journaled else None}, walk asks "
                f"{asked.flip if asked else None}) — was the "
                f"program or its configuration changed since the journal "
                f"was written?"
            )

    def _journal_run_entry(
        self, index, decisions, result, trace, esc, found
    ) -> dict:
        """Encode one consumed run as its campaign-journal entry: the run
        record plus its walk index and ``found``, the errors it was first
        to witness (audit only — resume recomputes the dedup)."""
        return {
            "t": "run",
            "index": index,
            "found": found,
            **jr.run_entry(decisions, result, trace, esc=esc),
        }

    def _journal_checkpoint(self, camp: _Campaign) -> None:
        camp.journal.append(
            {
                "t": "checkpoint",
                "applied": camp.applied,
                "generator": jr.snapshot_generator(camp.generator),
            }
        )
        if camp.telemetry.tracer is not None:
            camp.telemetry.tracer.instant(
                "journal_checkpoint", "journal", applied=camp.applied
            )

    def _record_run(
        self,
        report: VerificationReport,
        index: int,
        decisions: Optional[EpochDecisions],
        result: RunResult,
        trace: RunTrace,
        seen: set,
    ) -> None:
        report.interleavings += 1
        report.total_vtime += result.makespan
        kinds = []
        if result.deadlocked:
            kinds.append("deadlock")
            key = ("deadlock", str(sorted(result.deadlock.blocked)))
            if key not in seen:
                seen.add(key)
                report.errors.append(
                    FoundError("deadlock", index, str(result.deadlock), decisions)
                )
        for rank, exc in result.primary_errors.items():
            if isinstance(exc, DeadlockError):
                continue
            kinds.append("crash")
            key = ("crash", f"{rank}:{type(exc).__name__}:{exc}")
            if key not in seen:
                seen.add(key)
                report.errors.append(
                    FoundError(
                        "crash",
                        index,
                        f"rank {rank}: {type(exc).__name__}: {exc}",
                        decisions,
                    )
                )
        leaks: Optional[LeakReport] = result.artifacts.get("leaks")
        if leaks is not None:
            for leak in leaks.comm_leaks:
                key = ("communicator_leak", str(leak))
                if key not in seen:
                    seen.add(key)
                    kinds.append("communicator_leak")
                    report.errors.append(
                        FoundError("communicator_leak", index, str(leak), decisions)
                    )
            for leak in leaks.request_leaks:
                key = ("request_leak", str(leak))
                if key not in seen:
                    seen.add(key)
                    kinds.append("request_leak")
                    report.errors.append(
                        FoundError("request_leak", index, str(leak), decisions)
                    )
        outcome = completed_outcome(trace)
        report.runs.append(
            RunRecord(
                index=index,
                makespan=result.makespan,
                wildcard_count=trace.wildcard_count,
                error_kinds=tuple(kinds),
                diverged=trace.diverged,
                flip=decisions.flip if decisions else None,
                outcome=outcome,
            )
        )
        if self.config.keep_traces:
            report.traces.append(trace)


def measure_slowdown(
    program: Callable,
    nprocs: int,
    config: Optional[DampiConfig] = None,
    args: tuple = (),
    kwargs: Optional[dict] = None,
) -> dict:
    """Table-II style overhead measurement: one native run vs one
    instrumented self run; returns makespans, slowdown, R*, leak flags."""
    cfg = config or DampiConfig()
    native = Runtime(
        nprocs,
        program,
        modules=(),
        policy=cfg.policy,
        cost_model=cfg.cost_model,
        args=args,
        kwargs=kwargs or {},
    ).run()
    native.raise_any()
    verifier = DampiVerifier(program, nprocs, cfg, args=args, kwargs=kwargs)
    result, trace = verifier.run_once()
    leaks: Optional[LeakReport] = result.artifacts.get("leaks")
    return {
        "native_vtime": native.makespan,
        "dampi_vtime": result.makespan,
        "slowdown": result.makespan / native.makespan if native.makespan else float("inf"),
        "wildcards": trace.wildcard_count,
        "comm_leak": bool(leaks and leaks.has_comm_leak),
        "request_leak": bool(leaks and leaks.has_request_leak),
    }
