"""Verification campaigns: escalating bounds and configuration sweeps.

The paper's §III-B2 describes how bounded mixing is meant to be *used*:
"users can slowly increase k should they suspect that the reaching effect
of a matching receive is further than they initially assumed."  This
module turns that workflow into an API:

:func:`escalating_verify`
    run k=0, then k=1, 2, ... (finally unbounded) until an error is
    found, the space is fully covered, or the run budget is spent —
    cheap coverage first, exhaustive coverage only if affordable.

:func:`run_campaign`
    sweep a program across process counts and configurations, with one
    deduplicated error list and a comparison table — the "verify my code
    before the big run" driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.dampi.config import DampiConfig
from repro.dampi.faults import FaultPlan
from repro.dampi.verifier import DampiVerifier, FoundError, VerificationReport


@dataclass
class EscalationStep:
    bound_k: Optional[int]
    report: VerificationReport

    @property
    def label(self) -> str:
        return "unbounded" if self.bound_k is None else f"k={self.bound_k}"


@dataclass
class EscalationResult:
    """Outcome of an escalating verification."""

    steps: list[EscalationStep] = field(default_factory=list)
    stopped_reason: str = ""

    @property
    def errors(self) -> list[FoundError]:
        seen, out = set(), []
        for step in self.steps:
            for e in step.report.errors:
                key = (e.kind, e.detail)
                if key not in seen:
                    seen.add(key)
                    out.append(e)
        return out

    @property
    def total_interleavings(self) -> int:
        return sum(s.report.interleavings for s in self.steps)

    @property
    def final_report(self) -> Optional[VerificationReport]:
        return self.steps[-1].report if self.steps else None

    def summary(self) -> str:
        lines = [
            f"escalating verification: {len(self.steps)} stage(s), "
            f"{self.total_interleavings} interleavings total "
            f"(stopped: {self.stopped_reason})"
        ]
        for s in self.steps:
            state = "errors!" if s.report.errors else (
                "truncated" if s.report.truncated else "covered"
            )
            lines.append(
                f"  {s.label:>9}: {s.report.interleavings:6d} interleavings, {state}"
            )
        if self.errors:
            lines.append(f"  distinct errors: {len(self.errors)}")
            lines.extend(f"    {e}" for e in self.errors)
        return "\n".join(lines)


def _covers(k_done: Optional[int], k_next: Optional[int]) -> bool:
    """Does a completed stage at bound ``k_done`` cover a stage at
    ``k_next``?  (``None`` = unbounded = covers everything.)"""
    if k_done is None:
        return True
    return k_next is not None and k_next <= k_done


def escalating_verify(
    program: Callable,
    nprocs: int,
    base_config: Optional[DampiConfig] = None,
    ks: Sequence[Optional[int]] = (0, 1, 2, None),
    run_budget: int = 2000,
    stop_on_error: bool = True,
    kwargs: Optional[dict] = None,
    jobs: Optional[int] = None,
    journal_dir=None,
) -> EscalationResult:
    """Widen bounded mixing stage by stage (paper §III-B2's workflow).

    Budget semantics: ``run_budget`` is a cap on *executed* interleavings
    summed across stages — each stage's self run included, since the
    stage really executes it.  A stage is charged only if it runs:
    stages whose search space is provably already covered are skipped
    without spending anything.  That happens in two cases:

    * an earlier stage finished untruncated at the same or a wider bound
      (possible with custom non-increasing ``ks``), or
    * the previous stage finished untruncated with ``bound_frozen == 0``
      — its bound never froze a single node, so it *was* the unbounded
      walk and no wider ``k`` (nor the unbounded stage) can explore more.
      Escalation then stops immediately with "full space covered"; this
      is what keeps deterministic programs at exactly one self run
      instead of one per stage.

    Escalation also stops when an error is found (if ``stop_on_error``),
    when the unbounded stage covers its space without truncation, or when
    the budget is gone.  ``jobs`` (when not None) overrides the replay
    parallelism of every stage's config (see :class:`DampiConfig.jobs`);
    stages themselves are inherently sequential — each widens the last.

    ``journal_dir`` makes the escalation crash-safe: each stage verifies
    under its own journal (``<dir>/stage-k0``, ``stage-k1``, ...,
    ``stage-unbounded``).  Because stage sequencing and budget arithmetic
    are deterministic functions of the stage reports, re-running
    ``escalating_verify`` with the same arguments after a crash replays
    the completed stages' journals (executing nothing), resumes the
    interrupted stage mid-walk, and lands on the same
    :class:`EscalationResult` as an uninterrupted run.  One shared
    :class:`~repro.dampi.faults.FaultPlan` (from ``base_config.fault_plan``)
    spans every stage, so its ``stage:<label>`` sites fire at stage
    boundaries and one-shot faults stay one-shot across the escalation.
    """
    base = base_config or DampiConfig()
    if jobs is not None:
        base = replace(base, jobs=jobs)
    faults = FaultPlan.parse(base.fault_plan)
    result = EscalationResult()
    remaining = run_budget
    covered_k: Optional[int] = None  # widest bound fully covered so far
    have_covered = False
    for k in ks:
        if have_covered and _covers(covered_k, k):
            continue  # already covered at the same or a wider bound: skip
        if remaining <= 0:
            result.stopped_reason = "run budget exhausted"
            return result
        label = "unbounded" if k is None else f"k{k}"
        if faults:
            faults.fire("stage", (label,))
        cfg = replace(base, bound_k=k, max_interleavings=remaining)
        journal = (
            Path(journal_dir) / f"stage-{label}" if journal_dir is not None else None
        )
        report = DampiVerifier(program, nprocs, cfg, kwargs=kwargs).verify(
            journal=journal, faults=faults
        )
        result.steps.append(EscalationStep(bound_k=k, report=report))
        remaining -= report.interleavings
        if stop_on_error and report.errors:
            result.stopped_reason = f"error found at {result.steps[-1].label}"
            return result
        if not report.truncated:
            if k is None or report.bound_frozen == 0:
                result.stopped_reason = "full space covered"
                return result
            if not have_covered or not _covers(covered_k, k):
                have_covered, covered_k = True, k
    result.stopped_reason = "all stages ran"
    return result


@dataclass
class CampaignCell:
    nprocs: int
    config_name: str
    #: None when the cell's verification never produced a report (it
    #: raised) — see ``failure``
    report: Optional[VerificationReport] = None
    #: why the cell failed to verify, when it did
    failure: Optional[str] = None

    @property
    def label(self) -> str:
        return f"np={self.nprocs}/{self.config_name}"


@dataclass
class CampaignResult:
    cells: list[CampaignCell] = field(default_factory=list)

    @property
    def errors(self) -> list[tuple[str, FoundError]]:
        """(cell label, error) pairs, deduplicated by kind+detail."""
        seen, out = set(), []
        for cell in self.cells:
            if cell.report is None:
                continue
            for e in cell.report.errors:
                key = (e.kind, e.detail)
                if key not in seen:
                    seen.add(key)
                    out.append((cell.label, e))
        return out

    @property
    def failed_cells(self) -> list[CampaignCell]:
        """Cells whose verification itself failed (no report at all)."""
        return [c for c in self.cells if c.report is None]

    @property
    def ok(self) -> bool:
        return all(
            cell.report is not None and cell.report.ok for cell in self.cells
        )

    def summary(self) -> str:
        lines = [
            f"{'nprocs':>6} | {'config':<12} | {'interleavings':>13} | "
            f"{'R*':>5} | errors"
        ]
        for cell in self.cells:
            r = cell.report
            if r is None:
                lines.append(
                    f"{cell.nprocs:>6} | {cell.config_name:<12} | "
                    f"{'FAILED':>13}  | {'-':>5} | {cell.failure}"
                )
                continue
            lines.append(
                f"{cell.nprocs:>6} | {cell.config_name:<12} | "
                f"{r.interleavings:>13}{'+' if r.truncated else ' '} | "
                f"{r.wildcards_analyzed:>5} | {len(r.errors)}"
            )
        for label, e in self.errors:
            lines.append(f"  [{label}] {e}")
        return "\n".join(lines)


def _cell_journal(journal_dir, nprocs: int, name: str):
    return (
        Path(journal_dir) / f"np{nprocs}-{name}" if journal_dir is not None else None
    )


def _run_campaign_cell(
    program: Callable,
    nprocs: int,
    cfg: DampiConfig,
    kwargs: Optional[dict],
    name: Optional[str] = None,
    journal_dir=None,
) -> VerificationReport:
    """One (nprocs, config) cell.  The cell's own fault plan fires its
    ``cell:`` site here, and the same plan instance is handed to
    ``verify`` so one-shot semantics hold across the cell's sites."""
    plan = FaultPlan.parse(cfg.fault_plan)
    if plan and name is not None:
        plan.fire("cell", (nprocs, name))
    return DampiVerifier(program, nprocs, cfg, kwargs=kwargs).verify(
        journal=_cell_journal(journal_dir, nprocs, name), faults=plan
    )


def run_campaign(
    program: Callable,
    nprocs_list: Sequence[int],
    configs: Optional[dict[str, DampiConfig]] = None,
    kwargs: Optional[dict] = None,
    jobs: Optional[int] = None,
    journal_dir=None,
) -> CampaignResult:
    """Verify across a (process count × configuration) grid.

    Default configurations: a quick ``k=0`` pass and a capped unbounded
    pass — the cheap-then-thorough pairing most sessions want.

    Cells run one after another, in grid order; ``jobs`` (when not None)
    overrides the replay parallelism of every cell's config (see
    :class:`DampiConfig.jobs`), exactly as in :func:`escalating_verify`.
    A cell whose verification raises is recorded as a failed
    :class:`CampaignCell` (``report=None``, ``failure=<reason>``) and the
    sweep keeps going.

    ``journal_dir`` gives every cell its own journal under
    ``<dir>/np<nprocs>-<name>``; re-running the campaign with the same
    arguments replays completed cells and resumes interrupted ones (see
    :mod:`repro.dampi.journal`).
    """
    if configs is None:
        configs = {
            "quick-k0": DampiConfig(bound_k=0, max_interleavings=500),
            "full-capped": DampiConfig(max_interleavings=2000),
        }
    result = CampaignResult()
    for nprocs in nprocs_list:
        for name, cfg in configs.items():
            if jobs is not None:
                cfg = replace(cfg, jobs=jobs)
            try:
                report = _run_campaign_cell(
                    program, nprocs, cfg, kwargs, name=name, journal_dir=journal_dir
                )
                result.cells.append(CampaignCell(nprocs, name, report))
            except Exception as e:
                result.cells.append(
                    CampaignCell(
                        nprocs, name, failure=f"{type(e).__name__}: {e}"
                    )
                )
    return result
