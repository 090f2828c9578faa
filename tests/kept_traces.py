"""Test instrumentation: a verifier that keeps every run's trace.

The product holds no traces beyond the run in hand — a run's on-disk
record is its journal entry — but several tests compare whole traces
across walks (resume against an uninterrupted run, the indexed mailbox
against the reference matcher, the journal codec against live traces).
"""

from repro.dampi.verifier import DampiVerifier


class TraceKeepingVerifier(DampiVerifier):
    """A :class:`DampiVerifier` that appends each consumed run's trace to
    ``traces``, in run order: live runs and journaled ones alike, since
    every run goes through ``_record_run``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.traces = []

    def _record_run(self, report, index, decisions, result, trace, seen):
        super()._record_run(report, index, decisions, result, trace, seen)
        self.traces.append(trace)
