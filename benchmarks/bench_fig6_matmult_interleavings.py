"""Fig. 6 — matrix multiplication: time to explore N interleavings.

Paper result: exploring 250..1000 interleavings of matmul costs ISP up to
~5400 s but DAMPI a small fraction (both grow linearly in N; the slopes
differ by the per-replay cost — ISP pays a synchronous scheduler
round-trip per MPI call, DAMPI only piggybacks).  Virtual seconds; the
paper's absolute numbers depend on their testbed.
"""

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.workloads.matmult import matmult_program

from benchmarks._util import FULL, one_shot, record
from benchmarks.comparators.isp import IspVerifier

NPROCS = 8
TARGETS = (250, 500, 750, 1000) if FULL else (100, 200, 300, 400)
KW = {"n": 8, "blocks_per_slave": 2}

#: Fig. 6 eyeballed series (seconds at interleaving counts 250..1000)
PAPER = {250: (1400, 150), 500: (2700, 290), 750: (4100, 430), 1000: (5400, 570)}


def run_fig6():
    rows = []
    for target in TARGETS:
        cfg = DampiConfig(
            max_interleavings=target, enable_monitor=False, enable_leak_check=False
        )
        rd = DampiVerifier(matmult_program, NPROCS, cfg, kwargs=KW).verify()
        ri = IspVerifier(matmult_program, NPROCS, cfg, kwargs=KW).verify()
        rows.append((target, rd.interleavings, rd.total_vtime, ri.total_vtime))
    return rows


def test_fig6(benchmark):
    rows = one_shot(benchmark, run_fig6)
    lines = [
        f"Fig. 6 — matmult ({NPROCS} procs): virtual time vs interleavings explored",
        f"{'interleavings':>13} | {'DAMPI (s)':>10} | {'ISP (s)':>10} | {'ISP/DAMPI':>9}",
    ]
    for target, actual, td, ti in rows:
        lines.append(
            f"{actual:>13} | {td:10.4f} | {ti:10.4f} | {ti / td:9.1f}"
        )
    # shape: both linear in N; ISP several times slower per interleaving
    d_slope = rows[-1][2] / rows[0][2]
    i_slope = rows[-1][3] / rows[0][3]
    n_ratio = rows[-1][1] / rows[0][1]
    assert 0.5 * n_ratio < d_slope < 2.0 * n_ratio, "DAMPI time ~ linear in N"
    assert 0.5 * n_ratio < i_slope < 2.0 * n_ratio, "ISP time ~ linear in N"
    assert all(ti > 4 * td for _, _, td, ti in rows), "ISP must be several x slower"
    lines.append(
        f"shape: both linear in interleavings (paper); per-interleaving ratio "
        f"ISP/DAMPI ~{rows[-1][3] / rows[-1][2]:.0f}x (paper ~10x at their scale)."
    )
    record("fig6_matmult_interleavings", lines)
