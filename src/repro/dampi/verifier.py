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
from typing import Callable, Optional

from repro.dampi import journal as jr
from repro.dampi.clock_module import DampiClockModule
from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions, schedule_key
from repro.dampi.epoch import RunTrace
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.faults import FaultPlan
from repro.dampi.leaks import LeakCheckModule, LeakReport
from repro.dampi.monitor import OmissionMonitorModule
from repro.dampi.piggyback import PiggybackModule
from repro.dampi import prune as prune_mod
from repro.dampi.report import (
    FoundError,
    RunRecord,
    VerificationReport,
    completed_outcome,
)
from repro.errors import DeadlockError
from repro.mpi.runtime import Runtime, RunResult
from repro.obs.campaign import CampaignTelemetry
from repro.obs.trace import Tracer

_log = logging.getLogger(__name__)


#: what a run the walk has taken leaves in a campaign's record map
_CONSUMED = (None, None)


class _Campaign:
    """One campaign: the state :meth:`DampiVerifier._consume` folds runs
    into, and the depth-first walk of paper Fig. 1 that asks for them.
    The walk is written once, here; *where* a run comes from is its
    ``source`` — the record map (a journal's runs, a fleet's arrivals),
    else executed in this process (``jobs == 1``) or waited for from a
    fleet (:class:`repro.dist.DistCoordinator`)."""

    def __init__(self, verifier: "DampiVerifier", stream=None):
        cfg = verifier.config
        self.verifier = verifier
        self.started = time.perf_counter()
        self.report = VerificationReport(nprocs=verifier.nprocs, config=cfg)
        self.telemetry = CampaignTelemetry(cfg, stream=stream)
        self.generator = ScheduleGenerator(
            bound_k=cfg.bound_k,
            auto_loop_threshold=cfg.auto_loop_threshold,
            prune=cfg.prune,
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
        #: the campaign's journal, if it has one (:meth:`open_journal`)
        self.journal: Optional[jr.CampaignJournal] = None
        #: schedule key (None = the self run) -> (run record, packed tracer
        #: payload or None): runs the walk takes instead of executing them
        #: — the journal's, loaded at open, and a fleet's as they arrive.
        #: A taken key stays (dedup, the record count) but lets go of both
        self.records: dict = {}
        #: run records the journal held at open / runs this attempt
        #: produced (and journaled, if there is a journal)
        self.replayed = 0
        self.executed = 0
        #: the schedule the walk is parked on (None between runs)
        self.asked: Optional[EpochDecisions] = None

    def open_journal(self, journal):
        """Hook the campaign up to its journal (a directory, a
        :class:`~repro.dampi.journal.CampaignJournal`, or None): telemetry
        sinks bound, meta written or checked against this verification,
        and its runs loaded into the record map."""
        if journal is None:
            return None
        v = self.verifier
        self.journal = journal = jr.CampaignJournal.open(journal)
        journal.bind(tracer=self.telemetry.tracer, metrics=self.telemetry.metrics)
        journal.ensure_meta(v.nprocs, v.config, kwargs=v.kwargs, prog_args=v.args)
        v._replay_journal(self, journal)
        return journal

    def take(self, decisions: Optional[EpochDecisions]) -> Optional[tuple]:
        """The ``(run record, packed tracer payload)`` the record map holds
        for this schedule (None = the self run), or None; a taken record
        is released."""
        key = None if decisions is None else schedule_key(decisions)
        rec = self.records.get(key)
        if rec is None or rec is _CONSUMED:
            return None
        self.records[key] = _CONSUMED
        return rec

    def produced(self, decisions: Optional[EpochDecisions], run: tuple) -> None:
        """Count a run this attempt executed, and journal it."""
        self.executed += 1
        if self.journal is not None:
            self.journal.append(self.verifier._journal_run_entry(decisions, *run))

    def self_run(self) -> tuple:
        """Run 0: from the record map, else executed here whatever the
        source — it seeds the walk and every lease."""
        rec = self.take(None)
        if rec is not None:
            return jr.run_from_entry(rec[0])
        self.verifier._faults.fire(
            "self", tracer=self.telemetry.tracer, metrics=self.telemetry.metrics
        )
        run = self.verifier._execute()
        self.produced(None, run)
        return run

    def walk(self, source) -> bool:
        """Advance the walk: test the budgets, ask the generator for the
        next schedule, get that run from ``source`` and consume it under
        the next index (runs are numbered in walk order).
        ``source(decisions)`` returns ``(result, trace, esc)``, or None
        when it does not have the run yet — the walk then parks on that
        schedule and returns False (call again once it may have arrived).
        True means the walk is over: exhausted, or out of budget with
        ``report.truncated`` set."""
        cfg = self.verifier.config
        report, telemetry = self.report, self.telemetry
        while True:
            if (
                cfg.max_interleavings is not None
                and report.interleavings >= cfg.max_interleavings
            ) or (
                cfg.max_seconds is not None
                and time.perf_counter() - self.started > cfg.max_seconds
            ):
                # a schedule asked for but not consumed is unexplored work
                report.truncated = (
                    self.asked is not None or not self.generator.exhausted
                )
                return True
            if self.asked is None:
                self.asked = self.generator.next_decisions()
                if self.asked is None:
                    return True
                self.verifier._faults.fire(
                    "run",
                    (report.interleavings,),
                    tracer=telemetry.tracer,
                    metrics=telemetry.metrics,
                )
            started = telemetry.run_started()
            run = source(self.asked)
            if run is None:
                return False
            decisions, self.asked = self.asked, None
            self.verifier._consume(
                self, report.interleavings, decisions, *run, started=started
            )

    def abort(self) -> None:
        """The walk raised: close the journal without an ``end`` marker,
        which syncs the runs appended since its last sync."""
        if self.journal is not None:
            self.journal.close()

    def finish(self, parallel_stats) -> VerificationReport:
        """Close out once the walk is over: the journal's ``end`` marker
        (once — verifying a finished journal again leaves it as it is),
        the generator's final counters, the prune/escalation block, this
        attempt's journal accounting (runs the journal held at open, runs
        produced live), then telemetry."""
        cfg = self.verifier.config
        report, generator, journal = self.report, self.generator, self.journal
        metrics = self.telemetry.metrics
        report.divergences = generator.divergences
        report.bound_frozen = generator.distance_frozen
        report.parallel_stats = parallel_stats
        if cfg.prune or cfg.adaptive_clocks:
            report.prune_stats = {
                "enabled": cfg.prune,
                "adaptive_clocks": cfg.adaptive_clocks,
                "subtrees_pruned": generator.prunes,
                "replays_saved": generator.replays_saved,
                **self.esc,
            }
            metrics.counter("prune.subtrees").inc(generator.prunes)
            metrics.counter("prune.replays_saved").inc(generator.replays_saved)
            for name, n in self.esc.items():
                metrics.counter(f"prune.{name}").inc(n)
        if journal is not None:
            if not journal.complete:
                journal.append(
                    {
                        "t": "end",
                        "interleavings": report.interleavings,
                        "truncated": report.truncated,
                    }
                )
            journal.close()
            report.journal_stats = {
                "dir": str(journal.root),
                "replayed": self.replayed,
                "executed": self.executed,
            }
            metrics.gauge("journal.replayed_runs").set(self.replayed)
            metrics.gauge("journal.executed_runs").set(self.executed)
        report.wall_seconds = time.perf_counter() - self.started
        self.telemetry.finalize(report)
        return report


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
        #: every run of this verifier executes on this one runtime (and its
        #: rank threads), built by the first run_once and released by close
        self._runtime: Optional[Runtime] = None
        self._clock: Optional[DampiClockModule] = None
        #: deterministic fault injection (no-op unless config.fault_plan);
        #: fired at self/run sites by verify() and at flip sites by
        #: run_once() — so flip faults strike wherever the replay actually
        #: executes, a fleet worker included
        self._faults = FaultPlan.parse(self.config.fault_plan)
        #: per-run event tracer handed to every Runtime this verifier
        #: builds (it counts every event; :meth:`_trace_capture` says which
        #: runs also record payloads); None unless config.trace_events
        self._run_tracer: Optional[Tracer] = (
            Tracer() if self.config.trace_events else None
        )

    # -- module stack -----------------------------------------------------------

    def _build_modules(self, decisions: Optional[EpochDecisions]) -> list:
        cfg = self.config
        piggyback = PiggybackModule(cfg.piggyback)
        clock = DampiClockModule(
            piggyback,
            cfg.clock_impl,
            decisions,
            flag_scalar_risk=cfg.adaptive_clocks,
        )
        modules: list = []
        if cfg.enable_monitor:
            modules.append(OmissionMonitorModule())
        if cfg.enable_leak_check:
            modules.append(LeakCheckModule())
        modules.append(clock)
        modules.append(piggyback)
        return modules

    # -- execution ---------------------------------------------------------------

    def _trace_capture(self, decisions: Optional[EpochDecisions]) -> bool:
        """Whether this run records its event payloads or only counts its
        events — decided here and nowhere else, from the config and the
        schedule alone, so it is identical in-process, in fleet workers,
        and across resumes.

        ``trace_sample_every`` None: nothing will read payloads, no run
        records any.  Otherwise the self run always does, and guided
        replays are sampled 1-in-N on a hash of their canonical schedule
        key — the rate-N stream is a deterministic subset of the rate-1
        stream.  Exact ``events.*`` counters are kept either way (see
        :class:`repro.obs.trace.Tracer`).
        """
        n = self.config.trace_sample_every
        if n is None:
            return False
        if n <= 1 or decisions is None or decisions.flip is None:
            return True
        return zlib.crc32(repr(schedule_key(decisions)).encode()) % n == 0

    def run_once(
        self, decisions: Optional[EpochDecisions] = None
    ) -> tuple[RunResult, RunTrace]:
        """One instrumented execution (self run if ``decisions`` is empty).

        Every run, the self run included, executes on the verifier's one
        :class:`Runtime`: tool modules built and chains compiled once, rank
        threads started once, a fresh engine per run (``Runtime.run``
        recycles), and the clock module pointed at this run's decisions.
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
        if self._runtime is None:
            modules = self._build_modules(None)
            self._clock = next(
                m for m in modules if isinstance(m, DampiClockModule)
            )
            self._runtime = Runtime(
                self.nprocs,
                self.program,
                modules=modules,
                policy=cfg.policy,
                cost_model=cfg.cost_model,
                args=self.args,
                kwargs=self.kwargs,
                tracer=tracer,
            )
        self._clock.decisions = decisions or EpochDecisions()
        result = self._runtime.run()
        return result, result.artifacts["dampi"]

    def close(self) -> None:
        """Release the runtime and its rank threads; the next run_once
        builds a new one.  Idempotent.  ``getattr`` (not attribute access)
        keeps it safe on a partially constructed instance.  A verifier
        nobody closes releases its threads when its runtime is collected."""
        runtime = getattr(self, "_runtime", None)
        self._runtime = None
        if runtime is not None:
            runtime.close()

    # -- fleet plumbing -----------------------------------------------------------

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
        crash-safe: every run executed is appended (and fsync'd by group
        commit, see :mod:`repro.dampi.journal`), and a later
        ``verify(journal=<same dir>)`` — at any ``jobs``, whoever wrote
        the directory — takes the journaled runs instead of re-executing
        them and executes the rest, producing a report bit-identical to
        an uninterrupted run (modulo ``wall_seconds``/``telemetry``;
        ``report.journal_stats`` counts the runs the journal held vs the
        runs executed).  ``faults`` overrides the config-derived
        fault plan with a shared instance (escalation stages use this so
        one-shot faults stay one-shot across stages).
        """
        if faults is not None:
            self._faults = faults
        jobs, demote_reason = self._fleet_size()
        if jobs > 1 and demote_reason is None:
            # imported here: repro.dist builds on this module
            from repro.dist.coordinator import DistCoordinator

            return DistCoordinator(self, workers=jobs, journal=journal).run()
        camp = _Campaign(self)
        report = camp.report
        camp.open_journal(journal)

        def source(decisions):
            rec = camp.take(decisions)
            if rec is not None:
                return jr.run_from_entry(rec[0])
            # the progress line of a campaign executed here (a fleet's
            # coordinator prints its own, merged over the workers)
            camp.telemetry.heartbeat(report.interleavings, camp.generator)
            run = self._execute(decisions)
            camp.produced(decisions, run)
            return run

        try:
            started = camp.telemetry.run_started()
            self._consume(camp, 0, None, *camp.self_run(), started=started)
            camp.walk(source)
        except BaseException:
            camp.abort()
            raise
        finally:
            self.close()

        stats = {
            "mode": "inline",
            "jobs": jobs,
            "demoted": demote_reason is not None,
            "demote_reason": demote_reason,
        }
        gauge = camp.telemetry.metrics.gauge
        gauge("exec.jobs").set(stats["jobs"])
        gauge("exec.demoted").set(stats["demoted"])
        return camp.finish(stats)

    def _execute(self, decisions: Optional[EpochDecisions] = None) -> tuple:
        """One run executed here, as :meth:`_consume` takes it:
        ``(result, trace, esc)``."""
        result, trace = self.run_once(decisions)
        return result, trace, self._escalate(decisions, trace)

    def _escalate(self, decisions, trace) -> Optional[int]:
        """Adaptive clock escalation hook (no-op unless
        ``config.adaptive_clocks`` and the run flagged scalar risk): one
        vector-clock precision replay, whose vector-only alternatives are
        injected into ``trace`` in place *before* it is consumed — so the
        journal, the generator and every later reader
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
        esc=None, started=None,
    ) -> None:
        """Fold one run into the campaign — the only place that happens.

        A live run, a journaled run record and a distributed worker's
        record all arrive here as ``(result, trace)`` (the latter two
        rebuilt by :func:`repro.dampi.journal.result_from_entry`), with
        ``esc`` the alternatives a clock escalation injected into the
        trace, if one ran."""
        cfg = self.config
        report, generator = camp.report, camp.generator
        if esc is not None:
            camp.esc["escalations"] += 1
            camp.esc["escalation_replays"] += 1
            camp.esc["extra_alternatives"] += esc
        signature = prune_mod.signature_of(result, trace) if cfg.prune else None
        if decisions is None:
            generator.seed(trace, signature=signature)
        else:
            generator.integrate(trace, signature=signature)
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

    # -- journal plumbing ---------------------------------------------------------

    def _replay_journal(self, camp: _Campaign, journal) -> None:
        """Load a journal's run records into the campaign's record map.
        Nothing is executed or consumed here: the walk takes each record
        when it asks for that schedule — whoever wrote the journal, in
        whatever order — and goes through :meth:`_consume` with it as with
        a live run, so the rebuilt walk is bit-identical.  A record the
        walk never asks for is never used."""
        for entry in journal.run_entries():
            camp.records.setdefault(jr.entry_schedule_key(entry), (entry, None))
        camp.replayed = len(camp.records)
        if camp.replayed and camp.telemetry.tracer is not None:
            camp.telemetry.tracer.instant(
                "journal_resume", "journal", replayed=camp.replayed
            )

    def _journal_run_entry(self, decisions, result, trace, esc) -> dict:
        """Encode one run executed here as its journal entry: the run
        record, keyed by its schedule — the entry every writer appends."""
        return {"t": "run", **jr.run_entry(decisions, result, trace, esc=esc)}

    def _journal_checkpoint(self, camp) -> None:
        """Never called; benchmarks/ledger/spans.py:127 wraps it by name."""

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

        def found(kind: str, ident: str, detail: str) -> bool:
            """Report a defect unless an earlier run already did."""
            if (kind, ident) in seen:
                return False
            seen.add((kind, ident))
            report.errors.append(FoundError(kind, index, detail, decisions))
            return True

        if result.deadlocked:
            kinds.append("deadlock")
            found(
                "deadlock",
                str(sorted(result.deadlock.blocked)),
                str(result.deadlock),
            )
        for rank, exc in result.primary_errors.items():
            if isinstance(exc, DeadlockError):
                continue
            kinds.append("crash")
            name = type(exc).__name__
            found("crash", f"{rank}:{name}:{exc}", f"rank {rank}: {name}: {exc}")
        leaks: Optional[LeakReport] = result.artifacts.get("leaks")
        if leaks is not None:
            for kind, leaked in (
                ("communicator_leak", leaks.comm_leaks),
                ("request_leak", leaks.request_leaks),
            ):
                for leak in leaked:
                    if found(kind, str(leak), str(leak)):
                        kinds.append(kind)
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
    with Runtime(
        nprocs,
        program,
        modules=(),
        policy=cfg.policy,
        cost_model=cfg.cost_model,
        args=args,
        kwargs=kwargs or {},
    ) as runtime:
        native = runtime.run()
    native.raise_any()
    verifier = DampiVerifier(program, nprocs, cfg, args=args, kwargs=kwargs)
    try:
        result, trace = verifier.run_once()
    finally:
        verifier.close()
    leaks: Optional[LeakReport] = result.artifacts.get("leaks")
    return {
        "native_vtime": native.makespan,
        "dampi_vtime": result.makespan,
        "slowdown": result.makespan / native.makespan if native.makespan else float("inf"),
        "wildcards": trace.wildcard_count,
        "comm_leak": bool(leaks and leaks.has_comm_leak),
        "request_leak": bool(leaks and leaks.has_request_leak),
    }
