"""What a verification reports: the defects found (each with its Epoch
Decisions witness), the per-interleaving run records, and the
:class:`VerificationReport` that carries them."""

from __future__ import annotations

from typing import Optional

from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import EpochKey, RunTrace
from repro.dampi.leaks import LeakReport
from repro.dampi.monitor import MonitorReport


class FoundError:
    """One defect with its reproduction witness.  ``kind`` is
    ``"deadlock"``, ``"crash"``, ``"communicator_leak"`` or
    ``"request_leak"``; a resumed or fleet-assembled report must hold
    errors equal to the serial walk's."""

    __slots__ = ("kind", "run_index", "detail", "decisions")

    def __init__(
        self,
        kind: str,
        run_index: int,
        detail: str,
        decisions: Optional[EpochDecisions] = None,
    ):
        self.kind = kind
        self.run_index = run_index
        self.detail = detail
        self.decisions = decisions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FoundError):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.run_index == other.run_index
            and self.detail == other.detail
            and self.decisions == other.decisions
        )

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


class RunRecord:
    """Per-interleaving summary kept on the report.  ``outcome`` is the
    completed wildcard outcome of the run — the semantic fingerprint of
    the interleaving (used by coverage/property tests)."""

    __slots__ = (
        "index", "makespan", "wildcard_count", "error_kinds", "diverged",
        "flip", "outcome",
    )

    def __init__(
        self,
        index: int,
        makespan: float,
        wildcard_count: int,
        error_kinds: tuple[str, ...],
        diverged: bool,
        flip: Optional[EpochKey],
        outcome: frozenset,
    ):
        self.index = index
        self.makespan = makespan
        self.wildcard_count = wildcard_count
        self.error_kinds = error_kinds
        self.diverged = diverged
        self.flip = flip
        self.outcome = outcome

    def _fields(self) -> tuple:
        return (
            self.index, self.makespan, self.wildcard_count, self.error_kinds,
            self.diverged, self.flip, self.outcome,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunRecord):
            return NotImplemented
        return self._fields() == other._fields()


class VerificationReport:
    """Everything a verification session learned.  A new report is empty;
    the campaign fills it in."""

    __slots__ = (
        "nprocs", "config", "interleavings", "errors", "leak_report",
        "monitor_report", "wildcards_analyzed", "self_run_vtime",
        "total_vtime", "wall_seconds", "truncated", "divergences",
        "bound_frozen", "parallel_stats", "journal_stats", "prune_stats",
        "telemetry", "events", "runs",
    )

    def __init__(self, nprocs: int, config: DampiConfig):
        self.nprocs = nprocs
        self.config = config
        self.interleavings = 0
        self.errors: list[FoundError] = []
        self.leak_report: Optional[LeakReport] = None
        self.monitor_report: Optional[MonitorReport] = None
        self.wildcards_analyzed = 0
        self.self_run_vtime = 0.0
        self.total_vtime = 0.0
        self.wall_seconds = 0.0
        self.truncated = False
        self.divergences = 0
        #: decision nodes frozen by the bounded-mixing distance rule; 0 on
        #: an untruncated run means the bound never bit and the space is
        #: fully covered (no wider bound can find more)
        self.bound_frozen = 0
        #: how this attempt executed its replays: ``mode`` ``"inline"``
        #: (``jobs``, ``demoted``/``demote_reason``) or ``"dist"``
        #: (``workers``, ``leases``, ``records``, ``worker_deaths``)
        self.parallel_stats: Optional[dict] = None
        #: journal accounting when verify() ran with one: directory, runs
        #: replayed from the journal vs executed live.  Like
        #: parallel_stats, excluded from to_json(): it describes *this
        #: attempt*, not the verification (a resumed report is otherwise
        #: bit-identical).
        self.journal_stats: Optional[dict] = None
        #: pruning / adaptive-escalation accounting (None unless
        #: ``config.prune`` or ``config.adaptive_clocks``): subtrees
        #: pruned, replays saved versus the unpruned walk, precision
        #: replays run and the vector-only alternatives they injected.
        #: Deterministic — part of to_json() (see :mod:`repro.dampi.prune`).
        self.prune_stats: Optional[dict] = None
        #: telemetry block (metrics snapshot + event-stream accounting),
        #: filled in by CampaignTelemetry.finalize; report JSON v3
        self.telemetry: Optional[dict] = None
        #: merged campaign event stream (list of repro.obs.trace.Event);
        #: empty unless config.trace_events
        self.events: list = []
        self.runs: list[RunRecord] = []

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
        ev = (self.telemetry or {}).get("events") or {}
        if ev.get("enabled") and ev["dropped"]:
            lines.append(
                f"  event stream           : {ev['captured']} captured, "
                f"{ev['dropped']} dropped (ring of {ev['buffer']}) — the "
                f"stream holds the tail; thin it with --trace-sample N"
            )
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
