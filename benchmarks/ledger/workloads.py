"""The ledger's workload table.

A workload is a short list of ``repro`` command lines (:class:`Step`) plus
the answer they must give.  Every input is generated here from ``--seed``
(matmult's data ``seed`` kwarg, the zoo's visiting order); the program under
test only ever sees the generated command line.  Every exact count below is
seed-invariant, which the harness checks rather than assumes.

``quick`` shrinks every campaign to a toy size for the self-test; its exact
counts are not pinned (only verdicts and rep-to-rep equality are checked).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

MATMULT = "repro.workloads.matmult:matmult_program"
PARMETIS = "repro.workloads.parmetis:parmetis_program"
ADLB = "benchmarks.ledger.programs:adlb_batch"
NOOP = "benchmarks.ledger.programs:noop"

#: exit code of a campaign killed by ``--fault-plan kill@...`` (repro.dampi.faults)
FAULT_EXIT = 43


@dataclass(frozen=True)
class Step:
    """One CLI process: ``python -m repro <argv>``.

    ``{dir}`` in an argument is replaced by the rep's scratch directory.
    ``findings`` maps finding kind to count, the hand-written answer."""

    label: str
    argv: tuple[str, ...]
    report: Optional[str] = "report.json"
    exit_code: int = 0
    timed: bool = True
    findings: dict = field(default_factory=dict)
    monitor_alert: bool = False


@dataclass(frozen=True)
class Exact:
    """Counts summed over a rep's timed steps; identical at every seed."""

    interleavings: int
    truncated: bool
    executions: int
    replays_saved: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nprocs: int  # rank count of this workload's ``setup_s`` noop campaign
    reps: int  # timed reps in a full ledger run
    pinned: bool  # child restricted to one CPU
    expect_wall_s: float  # sizing figure; a rep is killed at 10x this
    steps: Callable[[int, bool], list[Step]]  # (seed, quick) -> steps
    exact: Exact
    #: workload whose canonical report this one's must equal
    same_report_as: Optional[str] = None


def _campaign(command: tuple, program: str, nprocs: int,
              kwargs: Optional[dict] = None, *flags: str) -> tuple[str, ...]:
    argv = [*command, program, "--nprocs", str(nprocs)]
    if kwargs:
        argv += ["--kwargs", json.dumps(kwargs, sort_keys=True)]
    return (*argv, *flags, "--json-out", "{dir}/report.json")


def matmult_argv(seed: int, quick: bool, *flags: str,
                 command: tuple = ("verify",)) -> tuple[str, ...]:
    """The ``matmult_k1`` campaign, optionally under other flags or another
    subcommand (the probes time it with one thing changed)."""
    nprocs, n, blocks = (3, 4, 2) if quick else (4, 8, 3)
    return _campaign(command, MATMULT, nprocs,
                     {"n": n, "blocks_per_slave": blocks, "seed": seed},
                     "--bound-k", "1", *flags)


def matmult_k1(seed: int, quick: bool) -> list[Step]:
    return [Step("matmult_k1", matmult_argv(seed, quick))]


def adlb_k1(seed: int, quick: bool) -> list[Step]:
    nprocs, budget = (4, 40) if quick else (6, 800)
    return [Step("adlb_k1", _campaign(
        ("verify",), ADLB, nprocs, None, "--bound-k", "1",
        "--max-interleavings", str(budget), "--journal-dir", "{dir}/journal"))]


def matmult_resume(seed: int, quick: bool) -> list[Step]:
    kill_at = 4 if quick else 376
    crash = Step(
        "crash", matmult_argv(seed, quick, "--journal-dir", "{dir}/journal",
                               "--fault-plan", f"kill@run:{kill_at}"),
        report=None, exit_code=FAULT_EXIT, timed=False)
    resume = Step("resume", ("resume", "{dir}/journal",
                             "--json-out", "{dir}/report.json"))
    return [crash, resume]


def matmult_k1_jobs2(seed: int, quick: bool) -> list[Step]:
    return [Step("jobs2", matmult_argv(seed, quick, "--jobs", "2"))]


def parmetis_det(seed: int, quick: bool) -> list[Step]:
    nprocs, scale = (4, 0.01) if quick else (16, 0.5)
    return [Step("parmetis", _campaign(("verify",), PARMETIS, nprocs, {"scale": scale}),
                 exit_code=1, findings={"communicator_leak": nprocs})]


#: ``ZooEntry.expect`` -> (finding kinds that must be exactly the report's,
#: monitor alert expected).  ``mpi_error`` surfaces as a crash in the self run.
_ZOO_VERDICTS = {
    "deadlock": ({"deadlock"}, False),
    "mpi_error": ({"crash"}, False),
    "crash": ({"crash"}, False),
    "communicator_leak": ({"communicator_leak"}, False),
    "request_leak": ({"request_leak"}, False),
    "monitor": (set(), True),
    "clean": (set(), False),
}


def zoo_sweep(seed: int, quick: bool) -> list[Step]:
    from repro.workloads.bugzoo import ZOO

    entries = list(ZOO)
    random.Random(seed).shuffle(entries)
    if quick:
        entries = entries[:3]
    steps = []
    for i, entry in enumerate(entries):
        kinds, alert = _ZOO_VERDICTS[entry.expect]
        report = f"zoo{i:02d}.json"
        steps.append(Step(
            entry.name,
            ("verify", f"repro.workloads.bugzoo:{entry.program.__name__}",
             "--nprocs", str(entry.nprocs), "--json-out", "{dir}/" + report),
            report=report,
            exit_code=1 if kinds else 0,
            # a zoo answer names kinds, not counts: None = "at least one"
            findings={k: None for k in kinds},
            monitor_alert=alert,
        ))
    return steps


#: noop campaigns behind one ``setup_s`` sample: a single 0.2 s process is
#: shorter than a noise burst on a shared host, three in a row average it
SETUP_BATCH = 3


def setup_steps(nprocs: int) -> list[Step]:
    """The ``setup_s`` campaign: everything a campaign pays before and
    after its first MPI call, at the workload's rank count."""
    return [Step("setup", _campaign(("verify",), NOOP, nprocs))] * SETUP_BATCH


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "matmult_k1",
        "750-replay serial campaign: the replay loop (checkpoint find/restore, "
        "engine execute, explorer, prune signature, tracer) does nearly all the work",
        nprocs=4, reps=7, pinned=True, expect_wall_s=3.0, steps=matmult_k1,
        exact=Exact(750, False, 750, 0)),
    Workload(
        "adlb_k1",
        "budget-truncated ADLB at 6 ranks with a 13 MB fsync'd journal: journal "
        "appends, deep ancestor restores and clock-module epochs dominate; nothing prunable",
        nprocs=6, reps=4, pinned=True, expect_wall_s=6.5, steps=adlb_k1,
        exact=Exact(800, True, 800, 0)),
    Workload(
        "matmult_resume",
        "repro resume of the matmult_k1 campaign killed at run 376: the journal "
        "read side plus generator restore, so a cheaper append that makes resume dearer shows",
        nprocs=4, reps=5, pinned=True, expect_wall_s=2.8, steps=matmult_resume,
        exact=Exact(750, False, 750, 0), same_report_as="matmult_k1"),
    Workload(
        "matmult_k1_jobs2",
        "matmult_k1 with --jobs 2 on all CPUs: the only workload where pool "
        "framing, pickling and wave discipline do the work",
        nprocs=4, reps=5, pinned=False, expect_wall_s=5.5, steps=matmult_k1_jobs2,
        exact=Exact(750, False, 750, 0), same_report_as="matmult_k1"),
    Workload(
        "parmetis_det",
        "16-rank ParMETIS skeleton, no wildcards, exactly one execution: pure "
        "per-op cost (engine, thread hand-off, tool chain, piggyback, clock, checkers); "
        "replay-loop optimisations predict no change",
        nprocs=16, reps=5, pinned=True, expect_wall_s=4.6, steps=parmetis_det,
        exact=Exact(1, False, 1, 0)),
    Workload(
        "zoo_sweep",
        "all 18 bug-zoo programs, one process each, in seeded order: set-up, "
        "deadlock detection, report writing and teardown are the cost",
        nprocs=4, reps=3, pinned=True, expect_wall_s=5.0, steps=zoo_sweep,
        exact=Exact(28, False, 28, 2)),
)

BY_NAME = {w.name: w for w in WORKLOADS}
