"""DAMPI — the Distributed Analyzer for MPI (the paper's contribution).

The pieces, mirroring paper §II and Fig. 1:

* :mod:`repro.dampi.piggyback` — Lamport-clock transport: separate
  messages on shadow communicators (or inline payload packing);
* :mod:`repro.dampi.clock_module` — Algorithm 1: per-rank clock updates,
  epoch recording, guided-mode determinization of wildcard receives and
  probes, late-message detection at Wait/Test;
* :mod:`repro.dampi.matcher` — potential-match finalisation under MPI's
  non-overtaking rule;
* :mod:`repro.dampi.decisions` — the Epoch Decisions file;
* :mod:`repro.dampi.explorer` — the schedule generator: depth-first walk
  over epoch decisions, bounded mixing, loop iteration abstraction;
* :mod:`repro.dampi.verifier` — the front end driving self run + replays;
* :mod:`repro.dampi.journal` — the durable campaign journal: crash-safe
  checkpoint/resume for long verifications;
* :mod:`repro.dampi.faults` — deterministic fault injection for
  robustness testing;
* :mod:`repro.dampi.leaks` / :mod:`repro.dampi.monitor` — resource-leak
  checking and the §V omission-pattern monitor.
"""

from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import EpochRecord, PotentialMatch, RunTrace
from repro.dampi.verifier import DampiVerifier, VerificationReport, FoundError
from repro.dampi.faults import FaultInjected, FaultPlan
from repro.errors import JournalError
from repro._lazy import lazy_names

#: a campaign without a journal or escalation stages imports neither module
__getattr__ = lazy_names(
    globals(),
    {
        "escalating_verify": "repro.dampi.campaign",
        "CampaignJournal": "repro.dampi.journal",
    },
)

__all__ = [
    "DampiConfig",
    "EpochDecisions",
    "EpochRecord",
    "PotentialMatch",
    "RunTrace",
    "DampiVerifier",
    "VerificationReport",
    "FoundError",
    "escalating_verify",
    "FaultInjected",
    "FaultPlan",
    "CampaignJournal",
    "JournalError",
]
