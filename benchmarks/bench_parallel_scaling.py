"""Parallel replay scaling: wall-clock vs worker count (jobs=1,2,4,8).

Two legs:

* **matmult** (the paper's Fig. 6 workload, k=0): one verification's
  guided replays dispatched onto the replay worker pool — the frontier
  under k=0 is a single embarrassingly-parallel wave, so this is the
  best case for replay-level scaling.
* **ParMETIS** (the paper's Table I workload): a campaign of independent
  (nprocs,) cells dispatched onto the campaign pool — coarse-grained
  cell-level scaling for a deterministic program with no replays.

Methodology: a replay's cost is pure compute, so its speedup is capped by
the physical core count of the machine running the bench (CI containers
often expose one core, where ``jobs > 1`` auto-demotes to in-process
execution — ``pool_stats`` records it).  Only real wall-clock of actual
runs is reported: a path that has never run on > 1 CPU is unmeasured,
not fast.

Every pool run is also checked bit-identical to the serial report — the
scaling never buys a different answer.

Artifacts: ``benchmarks/results/parallel_scaling.txt`` (human-readable)
and ``BENCH_parallel_scaling.json`` at the repo root (canonical schema,
see :func:`benchmarks._util.write_bench_json`).
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from pathlib import Path

if __package__ in (None, ""):  # `python benchmarks/bench_parallel_scaling.py`
    sys.path.insert(0, str(Path(__file__).parent.parent))

import pytest

from repro.dampi.campaign import run_campaign
from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.workloads.matmult import matmult_program
from repro.workloads.parmetis import parmetis_program

from benchmarks._util import FULL, one_shot, record, write_bench_json

JOBS_GRID = (1, 2, 4, 8)

MM_NPROCS = 8
MM_KW = {"n": 8, "blocks_per_slave": 4 if FULL else 3}  # >= 100 interleavings
MM_CFG = DampiConfig(bound_k=0, enable_monitor=False, enable_leak_check=False)

PM_NPROCS = (4, 8, 12, 16)
PM_KW = {"scale": 0.25 if FULL else 0.05}
PM_CFG = DampiConfig(bound_k=0, enable_monitor=False, enable_leak_check=False)


def _fingerprint(report):
    return (
        report.interleavings,
        [r.flip for r in report.runs if "crash" not in r.error_kinds],
        sorted(map(sorted, report.outcomes)),
        sorted((e.kind, e.detail) for e in report.errors),
    )


def run_matmult_leg():
    t0 = time.perf_counter()
    report1 = DampiVerifier(
        matmult_program, MM_NPROCS, MM_CFG, kwargs=MM_KW
    ).verify()
    serial_wall = time.perf_counter() - t0
    measured, stats = {1: serial_wall}, {}
    for j in JOBS_GRID[1:]:
        cfg = replace(MM_CFG, jobs=j)
        t0 = time.perf_counter()
        rep = DampiVerifier(matmult_program, MM_NPROCS, cfg, kwargs=MM_KW).verify()
        measured[j] = time.perf_counter() - t0
        stats[j] = rep.parallel_stats
        assert _fingerprint(rep) == _fingerprint(report1), (
            f"jobs={j} report differs from serial"
        )
    return {
        "interleavings": report1.interleavings,
        "serial_wall_seconds": serial_wall,
        "measured_wall_seconds": measured,
        "measured_speedup": {j: measured[1] / measured[j] for j in JOBS_GRID},
        "pool_stats": stats,
    }


def run_parmetis_leg():
    cells = [(np_, PM_CFG) for np_ in PM_NPROCS]
    durations = []
    t0 = time.perf_counter()
    for np_, cfg in cells:
        t1 = time.perf_counter()
        DampiVerifier(parmetis_program, np_, cfg, kwargs=PM_KW).verify()
        durations.append(time.perf_counter() - t1)
    serial_wall = time.perf_counter() - t0
    configs = {"k0": PM_CFG}
    t0 = time.perf_counter()
    pooled = run_campaign(
        parmetis_program, list(PM_NPROCS), configs, kwargs=PM_KW, jobs=2
    )
    measured2 = time.perf_counter() - t0
    serial = run_campaign(
        parmetis_program, list(PM_NPROCS), configs, kwargs=PM_KW, jobs=1
    )
    assert [_fingerprint(c.report) for c in pooled.cells] == [
        _fingerprint(c.report) for c in serial.cells
    ], "pooled campaign differs from serial sweep"
    return {
        "cells": [
            {"nprocs": np_, "seconds": d} for np_, d in zip(PM_NPROCS, durations)
        ],
        "serial_wall_seconds": serial_wall,
        "measured_jobs2_wall_seconds": measured2,
    }


def run_scaling():
    return {"matmult": run_matmult_leg(), "parmetis": run_parmetis_leg()}


def _report(data) -> list[str]:
    mm, pm = data["matmult"], data["parmetis"]
    lines = [
        f"Parallel replay scaling (measured on this machine, "
        f"{os.cpu_count()} core(s))",
        "",
        f"matmult {MM_NPROCS} procs, k=0, "
        f"{mm['interleavings']} interleavings:",
        f"{'jobs':>6} | {'measured (s)':>13} | {'speedup':>8}",
    ]
    for j in JOBS_GRID:
        lines.append(
            f"{j:>6} | {mm['measured_wall_seconds'][j]:13.3f} | "
            f"{mm['measured_speedup'][j]:7.2f}x"
        )
    lines += [
        "",
        f"ParMETIS campaign cells (nprocs = {', '.join(map(str, PM_NPROCS))}): "
        f"serial {pm['serial_wall_seconds']:.3f} s, "
        f"jobs=2 {pm['measured_jobs2_wall_seconds']:.3f} s",
        "every pool run verified bit-identical to its serial counterpart",
    ]
    return lines


def _check(data):
    mm = data["matmult"]
    assert mm["interleavings"] >= 100, "workload too small to say anything"
    if (os.cpu_count() or 1) >= 4:
        assert mm["measured_speedup"][4] >= 1.5, (
            "4 real cores should show real speedup"
        )


@pytest.mark.slow
def test_parallel_scaling(benchmark):
    data = one_shot(benchmark, run_scaling)
    _check(data)
    record("parallel_scaling", _report(data))
    write_bench_json("parallel_scaling", data)


if __name__ == "__main__":
    data = run_scaling()
    _check(data)
    record("parallel_scaling", _report(data))
    write_bench_json("parallel_scaling", data)
