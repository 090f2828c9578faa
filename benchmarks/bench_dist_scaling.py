"""Distributed verification scaling: wall-clock vs worker count (1, 2, 4)
against the serial baseline.

Two legs: matmult (the paper's Fig. 6 program, the wildcard-richest
frontier the repo's workloads offer) and the largest bug-zoo program by
interleaving count (``safe commutative wildcard``, 6 interleavings — an
honest lower bound on what sharding can buy).  The coordinator runs the
self run, partitions the decision tree into prefix leases, and a fleet
of forked worker *processes* explores the subtrees over pipes — the
single-host stand-in for the paper's cluster-wide distributed walk.

Honesty notes baked into the numbers:

* The serial baseline is a plain ``DampiVerifier.verify`` — no pipes,
  no journal, no process spawns.  The 1-worker fleet therefore measures
  the *distribution tax* (spawn + framing + assembly) head on.
* Replays are pure Python compute, so measured speedup is capped by the
  physical cores of the benching machine — and at simulator scale (a
  replay costs milliseconds) the distribution tax dominates, so the
  speedup-vs-serial column is honestly below 1.  The informative curve
  is fleet-vs-fleet: how wall-clock moves as workers are added.
* Every fleet's report is checked bit-identical to the serial baseline —
  scaling never buys a different answer.

Artifacts: ``benchmarks/results/dist_scaling.txt`` (human-readable) and
``BENCH_dist_scaling.json`` at the repo root (canonical schema, see
:func:`benchmarks._util.write_bench_json`).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # `python benchmarks/bench_dist_scaling.py`
    sys.path.insert(0, str(Path(__file__).parent.parent))

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.dist import distributed_verify
from repro.workloads.bugzoo import safe_wildcard_commutative
from repro.workloads.matmult import matmult_program

from benchmarks._util import FULL, one_shot, record, write_bench_json

FLEETS = (1, 2, 4)

NPROCS = 5 if FULL else 4
KW = {"n": 16, "blocks_per_slave": 3 if FULL else 2}
CFG = DampiConfig(bound_k=0, enable_monitor=False, enable_leak_check=False)

#: largest bug-zoo program by serial interleaving count
ZOO_PROGRAM, ZOO_NPROCS = safe_wildcard_commutative, 4


def _canon(report) -> dict:
    d = json.loads(report.to_json())
    d.pop("wall_seconds", None)
    d.pop("telemetry", None)
    return d


def _run_leg(program, nprocs, cfg, kwargs):
    t0 = time.perf_counter()
    baseline = DampiVerifier(program, nprocs, cfg, kwargs=kwargs).verify()
    serial_wall = time.perf_counter() - t0
    oracle = _canon(baseline)

    walls, stats = {}, {}
    for workers in FLEETS:
        t0 = time.perf_counter()
        report = distributed_verify(
            program, nprocs, cfg, workers=workers, kwargs=kwargs
        )
        walls[workers] = time.perf_counter() - t0
        stats[workers] = report.parallel_stats
        assert _canon(report) == oracle, (
            f"workers={workers} report differs from serial"
        )
    return {
        "nprocs": nprocs,
        "kwargs": kwargs,
        "interleavings": baseline.interleavings,
        "serial_wall_seconds": serial_wall,
        "fleet_wall_seconds": walls,
        "speedup_vs_serial": {w: serial_wall / walls[w] for w in FLEETS},
        "distribution_tax_seconds": walls[1] - serial_wall,
        "parallel_stats": stats,
    }


def run_dist_scaling():
    return {
        "matmult": _run_leg(matmult_program, NPROCS, CFG, KW),
        "zoo_largest": _run_leg(
            ZOO_PROGRAM, ZOO_NPROCS, DampiConfig(), None
        ),
    }


def _leg_lines(title, leg) -> list[str]:
    lines = [
        f"{title}: {leg['nprocs']} procs, "
        f"{leg['interleavings']} interleavings, "
        f"serial baseline {leg['serial_wall_seconds']:.3f}s",
        f"{'workers':>8} | {'wall (s)':>9} | {'vs serial':>9} | {'leases':>7}",
    ]
    for w in FLEETS:
        lines.append(
            f"{w:>8} | {leg['fleet_wall_seconds'][w]:9.3f} | "
            f"{leg['speedup_vs_serial'][w]:8.2f}x | "
            f"{leg['parallel_stats'][w]['leases']:>7}"
        )
    lines.append(
        f"distribution tax (1-worker fleet minus serial): "
        f"{leg['distribution_tax_seconds']:+.3f}s"
    )
    return lines


def _report(data) -> list[str]:
    lines = [
        "Distributed verification scaling (coordinator + N worker "
        f"processes over pipes; {os.cpu_count()} core(s))",
        "",
    ]
    lines += _leg_lines("matmult (Fig. 6), k=0", data["matmult"])
    lines.append("")
    lines += _leg_lines(
        "largest zoo program (safe commutative wildcard)", data["zoo_largest"]
    )
    lines += [
        "",
        "every fleet verified bit-identical to the serial baseline",
    ]
    return lines


def _check(data):
    mm = data["matmult"]
    assert mm["interleavings"] >= 8, "workload too small to say anything"
    assert data["zoo_largest"]["interleavings"] >= 4
    for leg in data.values():
        for w in FLEETS:
            assert leg["parallel_stats"][w]["worker_deaths"] == 0
            assert (
                leg["parallel_stats"][w]["records"]
                >= leg["interleavings"] - 1
            )
    # At simulator scale a replay costs milliseconds, so the distribution
    # tax (spawn + framing + assembly) dominates and speedup vs serial is an
    # honest < 1 — the curve that matters is fleet-vs-fleet.  No speed
    # assertion here: CI containers expose anything from 1 to N cores.


@pytest.mark.slow
def test_dist_scaling(benchmark):
    data = one_shot(benchmark, run_dist_scaling)
    _check(data)
    record("dist_scaling", _report(data))
    write_bench_json("dist_scaling", data)


if __name__ == "__main__":
    data = run_dist_scaling()
    _check(data)
    record("dist_scaling", _report(data))
    write_bench_json("dist_scaling", data)
