"""Table I — statistics of MPI operations in ParMETIS-3.1.

Paper result (per process-count column): total ops grow ≈2.5× per
doubling while per-process ops grow only ≈1.3×; Send-Recv dominates;
collectives per process *shrink* with scale.  These ratios are why a
centralized scheduler (total-ops bound) loses to a decentralized one
(per-proc bound).

Default workload scale 0.05 (REPRO_FULL=1 for 1.0); counts below are
rescaled to scale 1.0 for direct comparison with the paper's numbers.
Process counts: 8..128 (Table I's columns).
"""

from repro.mpi.runtime import run_program
from repro.workloads.parmetis import parmetis_program

from benchmarks._util import FULL, one_shot, record
from benchmarks.comparators.opstats import OpClass, TraceModule

SCALE = 1.0 if FULL else 0.05
PROCS = (8, 16, 32, 64, 128)

#: Table I, in thousands: (All, All/pp, SR, SR/pp, Coll, Coll/pp, Wait, Wait/pp)
PAPER = {
    8: (187, 23, 121, 15, 20, 2.5, 47, 5.8),
    16: (534, 33, 381, 24, 36, 2.2, 118, 7.3),
    32: (1315, 41, 981, 31, 63, 2.0, 272, 8.5),
    64: (3133, 49, 2416, 38, 105, 1.6, 612, 9.6),
    128: (7986, 62, 6346, 50, 178, 1.4, 1463, 11),
}


def run_table1():
    out = {}
    for np_ in PROCS:
        tm = TraceModule()
        res = run_program(parmetis_program, np_, modules=[tm], kwargs={"scale": SCALE})
        res.raise_any()
        out[np_] = res.artifacts["trace"]
    return out


def test_table1(benchmark):
    reports = one_shot(benchmark, run_table1)
    k = 1.0 / SCALE / 1e3  # rescale to scale-1.0, in thousands
    lines = [
        f"Table I — MPI operation statistics of ParMETIS-3.1 "
        f"(counts in K, rescaled from workload scale {SCALE}; 'paper' in parens)",
        f"{'op type':<22}" + "".join(f"{f'procs={p}':>18}" for p in PROCS),
    ]

    def row(label, fn, paper_idx):
        cells = []
        for p in PROCS:
            val = fn(reports[p]) * k
            cells.append(f"{val:8.1f} ({PAPER[p][paper_idx]:>5})")
        lines.append(f"{label:<22}" + "".join(f"{c:>18}" for c in cells))

    row("All", lambda r: r.total(), 0)
    row("All per proc", lambda r: r.per_proc(), 1)
    row("Send-Recv", lambda r: r.total(OpClass.SEND_RECV), 2)
    row("Send-Recv per proc", lambda r: r.per_proc(OpClass.SEND_RECV), 3)
    row("Collective", lambda r: r.total(OpClass.COLLECTIVE), 4)
    row("Collective per proc", lambda r: r.per_proc(OpClass.COLLECTIVE), 5)
    row("Wait", lambda r: r.total(OpClass.WAIT), 6)
    row("Wait per proc", lambda r: r.per_proc(OpClass.WAIT), 7)

    # shape assertions straight from the paper's analysis
    total_growths = [
        reports[PROCS[i + 1]].total() / reports[PROCS[i]].total()
        for i in range(len(PROCS) - 1)
    ]
    pp_growths = [
        reports[PROCS[i + 1]].per_proc() / reports[PROCS[i]].per_proc()
        for i in range(len(PROCS) - 1)
    ]
    avg_total = sum(total_growths) / len(total_growths)
    avg_pp = sum(pp_growths) / len(pp_growths)
    assert 2.0 < avg_total < 3.0, f"total ops should grow ~2.5x/doubling, got {avg_total:.2f}"
    assert 1.05 < avg_pp < 1.6, f"per-proc ops should grow ~1.3x/doubling, got {avg_pp:.2f}"
    coll_pp = [reports[p].per_proc(OpClass.COLLECTIVE) for p in PROCS]
    assert coll_pp == sorted(coll_pp, reverse=True), "collectives/proc must shrink"
    lines.append(
        f"shape: total ops x{avg_total:.2f}/doubling (paper ~2.5), "
        f"per-proc x{avg_pp:.2f}/doubling (paper ~1.3), collectives/proc shrinking."
    )
    record("table1_parmetis_stats", lines)
