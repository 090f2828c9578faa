"""Per-replay latency: the execution-substrate hot path, before vs. after.

DAMPI's verification wall is ``replays x per-replay latency``; the paper
attacks the first factor (distributed replays), this repo's substrate work
attacks the second.  This bench measures the latency factor end-to-end:
the wall-clock of every ``run_once`` a verification performs — replay
construction/reset, rank dispatch, program execution, and trace collection
— on the matmult workload (paper Fig. 6) and one bug-zoo program.

Legs
----
``after``
    The current tree with its defaults: persistent rank-executor session,
    indexed matching, and prefix checkpoints (sibling schedules restore a
    snapshot at the flipped decision point instead of re-executing from
    ``MPI_Init``).
``after_no_checkpoint``
    The current tree with ``prefix_checkpoints=False`` — isolates what the
    checkpoint/restore path buys (or costs) on top of everything else.
``before``
    The pre-overhaul baseline (:data:`BASELINE_REF` — the PR 1 tip, which
    spawned ``nprocs`` OS threads and rebuilt every module per replay and
    matched by linear scan), checked out into a temporary git worktree and
    driven by the *same* driver script in a subprocess.  Where git or the
    baseline commit is unavailable (e.g. a shallow clone), the leg and its
    gate are skipped and ``baseline_mode="unavailable"`` is recorded.

Methodology: legs are interleaved (before/after/no-checkpoint cycling) so
drifting host load hits every distribution, and each leg's p50 is the best
(minimum) across repetitions — the robust statistic under CI-grade jitter.
Runs are measured in fresh subprocesses for all legs so interpreter state
is equalised.

Phase breakdown: ``spawn_reset`` (uid resets, module setup, thread
dispatch), ``execute`` (rank mains), ``trace_integrate`` (module ``finish``
— trace/artifact collection), and ``restore`` (snapshot thaw + install on
checkpoint-restored runs; null elsewhere).  Trees that predate the phase
instrumentation (the PR 1 baseline) get an equivalent breakdown derived
from timing the rank-main span inside the same driver: ``spawn_reset`` is
run start to the first rank main, ``execute`` is first rank-main start to
last rank-main end, ``finish`` is last rank-main end to run end.

Artifacts: ``benchmarks/results/replay_latency.txt`` and
``BENCH_replay_latency.json`` (canonical schema, see
:func:`benchmarks._util.write_bench_json`).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

if __package__ in (None, ""):  # `python benchmarks/bench_replay_latency.py`
    sys.path.insert(0, str(Path(__file__).parent.parent))

import pytest

from benchmarks._util import FULL, REPO_ROOT, one_shot, record, write_bench_json

#: The substrate before this overhaul: thread-spawn-per-replay, fresh
#: modules per run, linear-scan matching (PR 1 tip).
BASELINE_REF = "ad906714525439dfdbec9c6bc5ca14e6a8597185"

#: Repetitions per leg; the reported p50 is the minimum across reps.
#: Full mode takes 5: the checkpoint-speedup gate compares two legs of the
#: same tree, so both must reach their load-independent floor.
REPS = 5 if FULL or os.environ.get("REPRO_BENCH_SMOKE") != "1" else 1

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: (label, program path, nprocs, program kwargs)
PROGRAMS = [
    ("matmult", "repro.workloads.matmult:matmult_program", 8,
     {"n": 8, "blocks_per_slave": 2 if SMOKE else 3}),
    ("zoo_safe_wildcard", "repro.workloads.bugzoo:safe_wildcard_commutative", 4, {}),
]

#: Driver run in a subprocess against either tree.  Wraps ``run_once`` so
#: every execution the verification performs — self run and guided replays
#: — contributes one wall sample.  ``REPLAY_LATENCY_NO_CKPT=1`` disables
#: prefix checkpoints, on trees whose config supports that knob.
_DRIVER = r"""
import dataclasses, json, os, statistics, sys, time, importlib
mod, fn = sys.argv[1].rsplit(":", 1)
nprocs = int(sys.argv[2]); kw = json.loads(sys.argv[3])
from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.mpi.runtime import Runtime
program = getattr(importlib.import_module(mod), fn)
fields = {f.name for f in dataclasses.fields(DampiConfig)}
cfg_kwargs = {"bound_k": 0}
if os.environ.get("REPLAY_LATENCY_NO_CKPT") == "1" and "prefix_checkpoints" in fields:
    cfg_kwargs["prefix_checkpoints"] = False
# rank-main span timing: phase fallback for trees without result.phases
spans = []
_orig_rank_main = Runtime._rank_main
def _timed_rank_main(self, rank):
    t0 = time.perf_counter()
    try:
        return _orig_rank_main(self, rank)
    finally:
        spans.append((t0, time.perf_counter()))
Runtime._rank_main = _timed_rank_main
v = DampiVerifier(program, nprocs, DampiConfig(**cfg_kwargs), kwargs=kw)
walls, phases = [], []
orig = v.run_once
def timed(decisions=None):
    del spans[:]
    t0 = time.perf_counter()
    res = orig(decisions)
    t1 = time.perf_counter()
    walls.append(t1 - t0)
    ph = dict(getattr(res[0], "phases", None) or {})
    if not ph and spans:
        first = min(s for s, _ in spans)
        last = max(e for _, e in spans)
        ph = {
            "spawn_reset": first - t0,
            "execute": last - first,
            "finish": t1 - last,
        }
    phases.append(ph)
    return res
v.run_once = timed
v.verify()
walls.sort()
out = {
    "runs": len(walls),
    "p50_ms": 1000 * statistics.median(walls),
    "p95_ms": 1000 * walls[int(0.95 * (len(walls) - 1))],
}
for key in ("spawn_reset", "execute", "finish", "restore"):
    vals = [ph[key] for ph in phases if key in ph]
    out["phase_%s_p50_ms" % key] = (
        1000 * statistics.median(vals) if vals else None
    )
ck_fn = getattr(v, "checkpoint_stats", None)
ck = ck_fn() if ck_fn is not None else None
if ck and ck.get("enabled"):
    out["checkpoint"] = {
        name: ck.get(name)
        for name in ("hits", "misses", "hit_rate", "entries",
                     "bytes_held", "restore_ms", "capture_ms",
                     "ancestor_hits", "suffix_captures", "depth_hits")
    }
print("REPLAY_LATENCY_JSON:" + json.dumps(out))
"""


def _run_driver(src_root: Path, label: str, program: str, nprocs: int,
                kwargs: dict, no_checkpoints: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src_root))
    if no_checkpoints:
        env["REPLAY_LATENCY_NO_CKPT"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, program, str(nprocs), json.dumps(kwargs)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{label} driver failed ({proc.returncode}):\n{proc.stderr[-2000:]}"
        )
    for line in proc.stdout.splitlines():
        if line.startswith("REPLAY_LATENCY_JSON:"):
            return json.loads(line[len("REPLAY_LATENCY_JSON:"):])
    raise RuntimeError(f"{label} driver produced no result line")


class _Baseline:
    """Checkout of :data:`BASELINE_REF` in a temporary git worktree."""

    def __init__(self):
        self.mode = "worktree"
        self.path: Path | None = None

    def __enter__(self) -> "_Baseline":
        tmp = Path(tempfile.mkdtemp(prefix="replay-latency-baseline-"))
        wt = tmp / "tree"
        try:
            subprocess.run(
                ["git", "-C", str(REPO_ROOT), "worktree", "add",
                 "--detach", str(wt), BASELINE_REF],
                check=True, capture_output=True, text=True, timeout=120,
            )
            self.path = wt
        except (subprocess.SubprocessError, FileNotFoundError):
            self.mode = "unavailable"
        return self

    def __exit__(self, *exc) -> None:
        if self.path is not None:
            subprocess.run(
                ["git", "-C", str(REPO_ROOT), "worktree", "remove",
                 "--force", str(self.path)],
                capture_output=True, timeout=120,
            )


def run_latency() -> dict:
    data: dict = {"baseline_ref": BASELINE_REF, "reps": REPS, "programs": {}}
    with _Baseline() as base:
        data["baseline_mode"] = base.mode
        for label, program, nprocs, kwargs in PROGRAMS:
            before, after, no_ckpt = [], [], []
            for _ in range(REPS):  # interleave legs against host-load drift
                if base.path is not None:
                    before.append(_run_driver(
                        base.path / "src", f"{label}/before", program,
                        nprocs, kwargs,
                    ))
                after.append(_run_driver(
                    REPO_ROOT / "src", f"{label}/after", program, nprocs, kwargs,
                ))
                no_ckpt.append(_run_driver(
                    REPO_ROOT / "src", f"{label}/no_checkpoint", program,
                    nprocs, kwargs, no_checkpoints=True,
                ))
            best_before = min(before, key=lambda r: r["p50_ms"], default=None)
            best_after = min(after, key=lambda r: r["p50_ms"])
            best_no_ckpt = min(no_ckpt, key=lambda r: r["p50_ms"])
            data["programs"][label] = {
                "nprocs": nprocs,
                "kwargs": kwargs,
                "runs_per_rep": best_after["runs"],
                "before": best_before,
                "after": best_after,
                "after_no_checkpoint": best_no_ckpt,
                "p50_speedup": (
                    best_before["p50_ms"] / best_after["p50_ms"]
                    if best_before else None
                ),
                "checkpoint_speedup": (
                    best_no_ckpt["p50_ms"] / best_after["p50_ms"]
                ),
            }
    return data


def _report(data: dict) -> list[str]:
    lines = [
        "Per-replay latency: persistent session + indexed matching + "
        f"prefix checkpoints vs baseline ({data['baseline_mode']}, "
        f"reps={data['reps']})",
        "",
        f"{'program':>18} | {'runs':>5} | {'before p50':>11} | "
        f"{'after p50':>10} | {'no-ckpt p50':>11} | {'speedup':>8} | "
        f"{'ckpt x':>7}",
    ]
    for label, row in data["programs"].items():
        before = (
            f"{row['before']['p50_ms']:9.2f}ms" if row["before"] else f"{'n/a':>11}"
        )
        speedup = (
            f"{row['p50_speedup']:7.2f}x" if row["before"] else f"{'n/a':>8}"
        )
        lines.append(
            f"{label:>18} | {row['runs_per_rep']:>5} | "
            f"{before} | {row['after']['p50_ms']:8.2f}ms | "
            f"{row['after_no_checkpoint']['p50_ms']:9.2f}ms | "
            f"{speedup} | {row['checkpoint_speedup']:6.2f}x"
        )
    mm = data["programs"].get("matmult")
    if mm is not None:
        ph = mm["after"]
        restore = ph.get("phase_restore_p50_ms")
        lines += [
            "",
            "matmult after-leg phase p50s: "
            f"spawn_reset={ph['phase_spawn_reset_p50_ms']:.3f}ms "
            f"execute={ph['phase_execute_p50_ms']:.3f}ms "
            f"trace_integrate={ph['phase_finish_p50_ms']:.3f}ms"
            + (f" restore={restore:.3f}ms" if restore is not None else ""),
        ]
        bph = mm["before"]
        if bph and bph.get("phase_execute_p50_ms") is not None:
            lines.append(
                "matmult before-leg phase p50s (derived): "
                f"spawn_reset={bph['phase_spawn_reset_p50_ms']:.3f}ms "
                f"execute={bph['phase_execute_p50_ms']:.3f}ms "
                f"trace_integrate={bph['phase_finish_p50_ms']:.3f}ms"
            )
        ck = mm["after"].get("checkpoint")
        if ck:
            lines.append(
                f"matmult checkpoint cache: {ck['hits']} hits / "
                f"{ck['misses']} misses ({ck['hit_rate'] * 100:.0f}% hit), "
                f"{ck.get('ancestor_hits') or 0} via ancestor scan, "
                f"{ck.get('suffix_captures') or 0} in-suffix captures, "
                f"{ck['bytes_held'] / 1024:.0f} KiB held"
            )
            depths = ck.get("depth_hits") or {}
            total = sum(depths.values())
            if total:
                lines.append(
                    "matmult per-depth hit rates: "
                    + " ".join(
                        f"d{d}:{n} ({100 * n / total:.0f}%)"
                        for d, n in sorted(
                            depths.items(), key=lambda kv: int(kv[0])
                        )
                    )
                )
    return lines


def _check(data: dict) -> None:
    have_baseline = data["baseline_mode"] == "worktree"
    for label, row in data["programs"].items():
        assert row["runs_per_rep"] >= 4, f"{label}: too few replays to measure"
        if have_baseline:
            # the before leg must carry a derived phase breakdown too
            assert row["before"].get("phase_execute_p50_ms") is not None, (
                f"{label}: before-leg phase breakdown missing"
            )
    mm = data["programs"]["matmult"]
    if have_baseline:
        assert mm["p50_speedup"] > 1.0, (
            f"per-replay p50 regressed: {mm['p50_speedup']:.2f}x"
        )
        if not SMOKE:
            assert mm["p50_speedup"] >= 2.0, (
                f"expected >=2x per-replay p50 on matmult, got "
                f"{mm['p50_speedup']:.2f}x"
            )
    if SMOKE:
        # smoke legs run once each under CI jitter: only guard against a
        # checkpoint path that *costs* latency vs. full re-execution
        assert mm["after"]["p50_ms"] <= mm["after_no_checkpoint"]["p50_ms"] * 1.05, (
            f"checkpointed p50 {mm['after']['p50_ms']:.2f}ms exceeds "
            f"non-checkpointed {mm['after_no_checkpoint']['p50_ms']:.2f}ms"
        )
    else:
        # full mode: deep sharing (ancestor restores + in-suffix
        # captures) must buy a real wall-clock win, not break even
        assert mm["checkpoint_speedup"] >= 1.25, (
            f"expected >=1.25x checkpoint speedup on matmult, got "
            f"{mm['checkpoint_speedup']:.2f}x "
            f"(after {mm['after']['p50_ms']:.2f}ms vs no-ckpt "
            f"{mm['after_no_checkpoint']['p50_ms']:.2f}ms)"
        )
    assert mm["after"].get("checkpoint"), "checkpoint arm recorded no cache stats"
    assert mm["after"]["checkpoint"]["hits"] > 0, (
        "checkpoint arm never restored a snapshot"
    )


@pytest.mark.slow
def test_replay_latency(benchmark):
    data = one_shot(benchmark, run_latency)
    _check(data)
    record("replay_latency", _report(data))
    write_bench_json("replay_latency", data)


if __name__ == "__main__":
    data = run_latency()
    _check(data)
    record("replay_latency", _report(data))
    write_bench_json("replay_latency", data)
