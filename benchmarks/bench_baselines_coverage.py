"""Ablation — DAMPI vs the §IV baseline families on equal budgets.

Three ways to chase wildcard non-determinism, same run budget each:

* DAMPI: guaranteed, non-redundant coverage (the paper's contribution);
* randomised matching (the Jitterbug/Marmot family): samples schedules,
  no guarantee, duplicates freely;
* record/replay (the ScalaTrace/MPIWiz family): reproduces exactly the
  one observed schedule, forever.

Measured on the wildcard lattice (9 feasible outcomes) and on the Fig. 3
bug-finding task.
"""

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.mpi.runtime import run_program
from repro.workloads.patterns import fig3_program, wildcard_lattice

from benchmarks._util import one_shot, record
from benchmarks.comparators.tracereplay import record_run, replay_run

KW = {"receives": 2, "senders": 3}
NPROCS = 4
SPACE = 9  # 3^2 feasible outcomes


def lattice_outcome(res):
    return res.returns[0]


def run_baselines():
    rows = []
    # DAMPI
    rep = DampiVerifier(wildcard_lattice, NPROCS, DampiConfig(), kwargs=KW).verify()
    budget = rep.interleavings
    rows.append(("DAMPI", budget, len(rep.outcomes), True))
    # random-policy testing, same budget
    distinct = set()
    for seed in range(budget):
        res = run_program(wildcard_lattice, NPROCS, policy=f"random:{seed}", kwargs=KW)
        res.raise_any()
        distinct.add(lattice_outcome(res))
    rows.append((f"random matching", budget, len(distinct), False))
    # record/replay, same budget
    _, trace = record_run(wildcard_lattice, NPROCS, kwargs=KW)
    replay_outcomes = set()
    for _ in range(budget):
        res = replay_run(wildcard_lattice, NPROCS, trace, kwargs=KW)
        res.raise_any()
        replay_outcomes.add(lattice_outcome(res))
    rows.append(("record/replay", budget, len(replay_outcomes), False))

    # the Fig. 3 bug-finding task
    fig3 = []
    rep3 = DampiVerifier(fig3_program, 3).verify()
    fig3.append(("DAMPI", any(e.kind == "crash" for e in rep3.errors)))
    found_random = any(
        not run_program(fig3_program, 3, policy=f"random:{s}").ok for s in range(10)
    )
    fig3.append(("random matching (10 seeds)", found_random))
    _, t3 = record_run(fig3_program, 3)
    found_replay = any(not replay_run(fig3_program, 3, t3).ok for _ in range(10))
    fig3.append(("record/replay (10 replays)", found_replay))
    return rows, fig3


def test_baselines_coverage(benchmark):
    rows, fig3 = one_shot(benchmark, run_baselines)
    lines = [
        f"Baselines — coverage on the 2x3 wildcard lattice ({SPACE} feasible outcomes)",
        f"{'approach':<18} | {'runs':>5} | {'outcomes':>8} | guaranteed",
    ]
    for name, runs, covered, guaranteed in rows:
        lines.append(
            f"{name:<18} | {runs:>5} | {covered:>8} | {'yes' if guaranteed else 'no'}"
        )
    lines += ["", "Fig. 3 Heisenbug found?"]
    for name, found in fig3:
        lines.append(f"  {name:<28}: {'FOUND' if found else 'missed'}")

    by = {r[0]: r for r in rows}
    assert by["DAMPI"][2] == SPACE
    assert by["record/replay"][2] == 1, "replay reproduces exactly one schedule"
    assert by["random matching"][2] <= SPACE
    assert fig3[0][1] is True
    assert fig3[2][1] is False, "replay can never surface the unobserved match"
    lines.append(
        "conclusion (paper §IV): replay tools reproduce, never explore; random "
        "matching samples without a guarantee; DAMPI covers the space exactly."
    )
    record("baselines_coverage", lines)
