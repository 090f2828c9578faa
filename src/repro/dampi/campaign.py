"""Escalating verification: widen the mixing bound stage by stage.

The paper's §III-B2 describes how bounded mixing is meant to be *used*:
"users can slowly increase k should they suspect that the reaching effect
of a matching receive is further than they initially assumed."
:func:`escalating_verify` turns that workflow into an API: run k=0, then
k=1, 2, ... (finally unbounded) until an error is found, the space is
fully covered, or the run budget is spent — cheap coverage first,
exhaustive coverage only if affordable.  (A sweep over process counts or
configurations is a loop over :meth:`DampiVerifier.verify
<repro.dampi.verifier.DampiVerifier.verify>`.)
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.dampi.config import DampiConfig
from repro.dampi.faults import FaultPlan
from repro.dampi.verifier import DampiVerifier, FoundError, VerificationReport


class EscalationStep:
    __slots__ = ("bound_k", "report")

    def __init__(self, bound_k: Optional[int], report: VerificationReport):
        self.bound_k = bound_k
        self.report = report

    @property
    def label(self) -> str:
        return "unbounded" if self.bound_k is None else f"k={self.bound_k}"


class EscalationResult:
    """Outcome of an escalating verification."""

    __slots__ = ("steps", "stopped_reason")

    def __init__(self) -> None:
        self.steps: list[EscalationStep] = []
        self.stopped_reason = ""

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
    the budget is gone.  Every stage runs at ``base_config.jobs`` (see
    :class:`DampiConfig.jobs`); stages themselves are inherently
    sequential — each widens the last.

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
        cfg = base.replace(bound_k=k, max_interleavings=remaining)
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
