"""Fig. 5 — ParMETIS-3.1: DAMPI vs ISP verification time vs process count.

Paper result: ISP's centralized scheduler makes verification time blow up
super-linearly (≈180 s at 32 procs for one deterministic run), while
DAMPI stays near-native.  We reproduce the shape in virtual time: the ISP
curve is driven by the serialised central scheduler whose load is the
*total* MPI op count; DAMPI pays only decentralized piggyback costs.

Default workload scale: 0.02 of Table-I magnitudes (REPRO_FULL=1 for 1.0;
virtual times below scale linearly with it).
"""

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.mpi.runtime import Runtime
from repro.workloads.parmetis import parmetis_program

from benchmarks._util import FULL, one_shot, record
from benchmarks.comparators.isp import IspVerifier

SCALE = 1.0 if FULL else 0.02
PROCS = (4, 8, 12, 16, 20, 24, 28, 32)

#: Fig. 5 eyeballed series for side-by-side shape comparison (seconds)
PAPER_ISP = {4: 5, 8: 12, 12: 20, 16: 33, 20: 55, 24: 85, 28: 120, 32: 185}
PAPER_DAMPI = {p: 3 for p in PROCS}


def run_fig5():
    cfg = DampiConfig(enable_monitor=False, enable_leak_check=False)
    kwargs = {"scale": SCALE}
    rows = []
    for np_ in PROCS:
        native = Runtime(np_, parmetis_program, kwargs=kwargs).run()
        native.raise_any()
        dampi, _ = DampiVerifier(parmetis_program, np_, cfg, kwargs=kwargs).run_once()
        isp, _ = IspVerifier(parmetis_program, np_, cfg, kwargs=kwargs).run_once()
        rows.append((np_, native.makespan, dampi.makespan, isp.makespan))
    return rows


def test_fig5(benchmark):
    rows = one_shot(benchmark, run_fig5)
    lines = [
        f"Fig. 5 — ParMETIS: DAMPI vs ISP (virtual seconds; workload scale {SCALE})",
        f"{'procs':>6} | {'native':>10} | {'DAMPI':>10} | {'ISP':>10} | "
        f"{'DAMPI x':>8} | {'ISP x':>8} | paper ISP(s)",
    ]
    for np_, nat, dam, isp in rows:
        lines.append(
            f"{np_:>6} | {nat:10.4f} | {dam:10.4f} | {isp:10.4f} | "
            f"{dam / nat:8.2f} | {isp / nat:8.1f} | {PAPER_ISP[np_]:>6}"
        )
    # shape assertions: DAMPI near-native and flat; ISP blows up with scale
    first, last = rows[0], rows[-1]
    assert last[2] / last[1] < 2.0, "DAMPI overhead must stay near-native"
    assert last[3] / last[1] > 50, "ISP must be orders slower at 32 procs"
    isp_growth = last[3] / first[3]
    native_growth = last[1] / first[1]
    assert isp_growth > 4 * native_growth, "ISP must grow super-linearly vs native"
    lines.append(
        f"shape: ISP grows {isp_growth:.1f}x from 4->32 procs while the app "
        f"itself grows {native_growth:.1f}x; DAMPI tracks the app."
    )
    record("fig5_parmetis_isp_vs_dampi", lines)
