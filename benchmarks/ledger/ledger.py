"""The campaign ledger: run the workloads, write ``ledger.json``, compare two.

``python -m benchmarks.ledger run --out DIR``   every workload, timed and traced
``python -m benchmarks.ledger diff A B``        two ledgers, row by row
``python -m benchmarks.ledger selfcheck``       two sets of one commit must agree
``python benchmarks/ledger/bench.py --workload W --seed N --seconds S --trace T``
                                                one workload, one JSON line (BENCHMARK.json)

End-to-end numbers are measured on plain ``python -m repro`` children with
nothing wrapped; the traced pass is separate and feeds only per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Optional

from benchmarks.ledger import harness, layers, spans, workloads
from benchmarks.ledger.harness import Rep
from benchmarks.ledger.workloads import BY_NAME, WORKLOADS, Workload

#: name -> (unit, better, bound): the share of the base's median by which a
#: metric may worsen before it counts as a regression (README: how chosen)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "campaign_wall_s": ("s", "lower", 0.25),
    "campaign_cpu_s": ("s", "lower", 0.25),
    "executions": ("count", "lower", 0.001),
    "peak_rss_mb": ("MB", "lower", 0.05),
}
#: in the ledger only: BENCHMARK.json carries it as ``failed``/``attempted``
#: (an end-to-end metric there may never read 0, and this one always should)
FAILED_SHARE = ("failed_share", "ratio", "lower", 0.0)

SETUP_SAMPLES = 7
#: least campaign reps (each with a set-up sample) of one ``bench.py`` run
BENCH_MIN_REPS = 3


class Session:
    """One seed, one scratch directory, and the reference reports that
    campaigns of this session must reproduce."""

    def __init__(self, seed: int, workdir: Path, quick: bool = False):
        self.seed, self.workdir, self.quick = seed, workdir, quick
        workdir.mkdir(parents=True, exist_ok=True)
        #: first clean rep of each workload: the reference for the rest
        self.first: dict[str, Rep] = {}
        # one untimed campaign fills the children's bytecode cache, so the
        # first timed sample is no colder than the rest
        self.setup(WORKLOADS[0])

    def rep(self, w: Workload, traced: bool = False) -> Rep:
        rep = harness.run_rep(
            w, w.steps(self.seed, self.quick), self.workdir,
            traced=traced, exact=None if self.quick else w.exact,
        )
        if not rep.failures:
            self._same_report(w, rep, w.name)
            if w.same_report_as is not None:
                self._same_report(w, rep, w.same_report_as)
        return rep

    def reference(self, name: str) -> Optional[Rep]:
        """The named workload's first clean rep, run now (untimed by the
        caller) when this session has not produced one yet."""
        if name not in self.first:
            ref = self.rep(BY_NAME[name])
            if ref.failures:
                return None
        return self.first[name]

    def _same_report(self, w: Workload, rep: Rep, name: str) -> None:
        if name == w.name:
            ref = self.first.setdefault(name, rep)
        else:
            ref = self.reference(name)
            if ref is None:
                rep.failures.append(f"{w.name}: reference campaign {name} failed")
                return
        if rep.canon != ref.canon:
            rep.failures.append(f"{w.name}: report differs from {name}'s reference")

    def setup(self, w: Workload) -> Rep:
        """One ``setup_s`` sample: the mean wall of a batch of noop campaigns."""
        rep = harness.run_rep(w, workloads.setup_steps(w.nprocs), self.workdir, pinned=True)
        rep.wall_s /= workloads.SETUP_BATCH
        return rep


# -- the traced pass -------------------------------------------------------------


def traced_pass(s: Session, w: Workload) -> dict:
    """Per-layer metrics of one workload: an untraced base campaign for the
    counts, the same campaign under the span recorder for the times (serial
    workloads only - spans do not follow work into pool processes), and the
    workload's own probes.  Returns metrics, spans and what failed."""
    probe = layers.Probe(s, w)
    metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
    metrics["cli.import_s"] = layers.import_seconds(probe)
    base = s.rep(w)
    reps = [base]
    metrics.update(layers.report_metrics(base.reports))
    campaigns: list[dict] = []
    layer_self: dict = {}
    if w.pinned:
        traced = s.rep(w, traced=True)
        reps.append(traced)
        campaigns = layers.load_traces(traced.traces)
        for path in traced.traces:
            path.unlink(missing_ok=True)
        timed, layer_self = layers.span_metrics(campaigns, traced.wall_s)
        metrics.update(timed)
        metrics["bench.trace_overhead_ratio"] = traced.wall_s / base.wall_s
    if w.name in layers.HOME_PROBES:
        metrics.update(layers.HOME_PROBES[w.name](probe, base))
    return {
        "metrics": metrics,
        "campaigns": campaigns,
        "layer_self_s": layer_self,
        "attempted": len(reps) + probe.attempted,
        "failed": sum(bool(rep.failures) for rep in reps) + probe.failed,
        "failures": [f for rep in reps for f in rep.failures] + probe.failures,
    }


# -- bench.py: one workload, one line (the BENCHMARK.json contract) ---------------


def bench(args) -> int:
    w = BY_NAME[args.workload]
    harness.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=harness.SCRATCH))
    try:
        s = Session(args.seed, workdir)
        if args.trace:
            out = traced_pass(s, w)
            attempted, failed, failures = out["attempted"], out["failed"], out["failures"]
            metrics = {
                name: {"value": out["metrics"][name], "unit": unit}
                for name, (unit, _better) in layers.PER_LAYER.items()
            }
        else:
            if w.same_report_as is not None:
                s.reference(w.same_report_as)  # outside the measured window
            # one set-up sample beside every campaign rep, so a slow minute of
            # the host falls on both alike; stop while the next pair still
            # fits, so a run lasts --seconds whatever the campaign's length
            setups, reps = [], []
            t0 = time.perf_counter()
            longest = 0.0
            while (len(reps) < BENCH_MIN_REPS
                   or time.perf_counter() - t0 + longest <= args.seconds):
                t = time.perf_counter()
                setups.append(s.setup(w))
                reps.append(s.rep(w))
                longest = max(longest, time.perf_counter() - t)
            samples = end_to_end_samples(setups, reps)
            metrics = {
                name: {"value": statistics.median(samples[name]), "unit": unit}
                for name, (unit, _better, _bound) in END_TO_END.items()
            }
            print("setup_s", [round(x, 4) for x in samples["setup_s"]], "campaign_wall_s",
                  [round(x, 4) for x in samples["campaign_wall_s"]], file=sys.stderr)
            attempted = len(reps) + len(setups)
            failures = [f for r in setups + reps for f in r.failures]
            failed = sum(bool(r.failures) for r in setups + reps)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


# -- run: the whole ledger ----------------------------------------------------------


def end_to_end_samples(setups: list[Rep], reps: list[Rep]) -> dict:
    return {
        "setup_s": [r.wall_s for r in setups],
        "campaign_wall_s": [r.wall_s for r in reps],
        "campaign_cpu_s": [r.cpu_s for r in reps],
        "executions": [r.executions for r in reps],
        "peak_rss_mb": [r.rss_mb for r in reps],
    }


def summarize(samples: list[float], bound: float) -> dict:
    """Median, quartiles and sample count of one metric on one workload; a
    metric whose own quartile spread exceeds its bound cannot resolve a
    change of that size and says so."""
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return {
        "value": median, "n": len(samples), "q1": q1, "q3": q3,
        "min": min(samples), "max": max(samples), "spread": spread,
        "status": "unresolved" if spread > bound else "ok",
        "samples": samples,
    }


def run_ledger(out: Path, seed: int, quick: bool = False) -> dict:
    """Timed pass (workloads round-robin, so drift hits all alike), then the
    traced pass; writes ``ledger.json`` and ``trace_<workload>.json``."""
    out.mkdir(parents=True, exist_ok=True)
    s = Session(seed, out / "work", quick)
    host = harness.host_info()
    setups: dict[str, list[Rep]] = {w.name: [] for w in WORKLOADS}
    reps: dict[str, list[Rep]] = {w.name: [] for w in WORKLOADS}
    n_setup = 1 if quick else SETUP_SAMPLES
    for i in range(max(n_setup, *(w.reps for w in WORKLOADS))):
        for w in WORKLOADS:
            if i < n_setup:
                setups[w.name].append(s.setup(w))
            if i < (1 if quick else w.reps):
                reps[w.name].append(s.rep(w))
                print(f"  timed {w.name} rep {i + 1}: {reps[w.name][-1].wall_s:.2f}s", flush=True)
    ledger = {
        "schema": "ledger/1", "seed": seed, "quick": quick, "host": host, "workloads": {},
    }
    for w in WORKLOADS:
        print(f"  traced pass {w.name}", flush=True)
        traced = traced_pass(s, w)
        (out / f"trace_{w.name}.json").write_text(json.dumps({
            "workload": w.name, "columns": list(spans.COLUMNS),
            "campaigns": traced["campaigns"],
        }, separators=(",", ":")))
        timed = setups[w.name] + reps[w.name]
        samples = end_to_end_samples(setups[w.name], reps[w.name])
        end_to_end = {
            name: {**summarize(samples[name], bound), "unit": unit, "better": better,
                   "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        }
        name, unit, better, bound = FAILED_SHARE
        end_to_end[name] = {
            "value": sum(bool(r.failures) for r in timed) / len(timed), "n": len(timed),
            "unit": unit, "better": better, "bound": bound, "status": "ok",
        }
        first_reports = reps[w.name][0].reports
        ledger["workloads"][w.name] = {
            "why": w.why, "pinned": w.pinned,
            "end_to_end": end_to_end,
            "per_layer": {
                name: {"value": traced["metrics"][name], "unit": unit}
                for name, (unit, _better) in layers.PER_LAYER.items()
            },
            "layer_self_s": traced["layer_self_s"],
            # on a 1-CPU host --jobs 2 demotes to inline: recorded, not modelled
            "jobs_demoted": bool(
                first_reports and harness.gauges(first_reports[0]).get("exec.demoted")),
            "failures": [f for r in timed for f in r.failures] + traced["failures"],
        }
    host["loadavg_end"] = list(os.getloadavg())
    shutil.rmtree(s.workdir, ignore_errors=True)
    (out / "ledger.json").write_text(json.dumps(ledger, indent=1))
    print_ledger(ledger)
    return ledger


def print_ledger(ledger: dict) -> None:
    host = ledger["host"]
    print(f"ledger seed={ledger['seed']} sha={host['git_sha']} nproc={host['nproc']} "
          f"load={host['loadavg'][0]:.2f}")
    for wname, w in ledger["workloads"].items():
        print(f"\n{wname}  ({'pinned' if w['pinned'] else 'all CPUs'})")
        for name, m in w["end_to_end"].items():
            note = f" [{m['q1']:.4g} .. {m['q3']:.4g}]" if "q1" in m else ""
            if m["status"] != "ok":
                note += f"  UNRESOLVED (quartile spread {m['spread']:.0%} > bound {m['bound']:.0%})"
            print(f"  {name:<34} {m['value']:>12.5g} {m['unit']:<6} n={m['n']}{note}")
        for name, m in w["per_layer"].items():
            print(f"  {name:<34} {m['value']:>12.5g} {m['unit']:<6} n=1")
        for failure in w["failures"]:
            print(f"  FAILED {failure}")


# -- diff / selfcheck ---------------------------------------------------------------


def diff_rows(a: dict, b: dict) -> list[dict]:
    """One row per workload and end-to-end metric: B against base A."""
    rows = []
    for wname, wa in a["workloads"].items():
        wb = b["workloads"][wname]
        for name, ma in wa["end_to_end"].items():
            mb = wb["end_to_end"][name]
            va, vb, bound = ma["value"], mb["value"], ma["bound"]
            sign = 1 if ma["better"] == "lower" else -1
            worse = sign * (vb - va) / va if va else float(sign * (vb - va) > 0)
            sa, sb = ma.get("samples"), mb.get("samples")
            apart = bool(sa and sb) and (max(sb) < min(sa) or min(sb) > max(sa))
            if "unresolved" in (ma["status"], mb["status"]) and not apart:
                status = "unresolved"
            elif worse > bound:
                status = "regressed"
            elif worse < -bound:
                status = "improved"
            else:
                status = "within bound"
            rows.append({"workload": wname, "metric": name, "unit": ma["unit"],
                         "base": va, "new": vb, "bound": bound, "status": status})
    return rows


def print_diff(rows: list[dict]) -> None:
    print(f"{'workload':<18}{'metric':<18}{'base':>12}{'new':>12}  new/base  status")
    for r in rows:
        ratio = f"{r['new'] / r['base']:.3f}x" if r["base"] else "-"
        print(f"{r['workload']:<18}{r['metric']:<18}{r['base']:>12.5g}{r['new']:>12.5g}"
              f"  {ratio:>8}  {r['status']} (bound {r['bound'] * 100:g}% of base {r['base']:.5g} {r['unit']})")


def diff(args) -> int:
    rows = diff_rows(json.loads(Path(args.a).read_text()), json.loads(Path(args.b).read_text()))
    print_diff(rows)
    return 1 if any(r["status"] == "regressed" for r in rows) else 0


def selfcheck(args) -> int:
    """Two complete sets of runs of this commit must tell the same story."""
    out = Path(args.out)
    a = run_ledger(out / "a", args.seed, args.quick)
    b = run_ledger(out / "b", args.seed, args.quick)
    rows = diff_rows(a, b)
    print_diff(rows)
    bad = [r for r in rows if r["status"] != "within bound"]
    bad += [{"workload": n, "status": "failed"} for led in (a, b)
            for n, w in led["workloads"].items() if w["failures"]]
    print("selfcheck:", "PASS" if not bad else f"FAIL ({len(bad)} rows)")
    return 1 if bad else 0


def main(argv=None) -> int:
    if not (harness.ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no product to measure: {harness.ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    ap = argparse.ArgumentParser(prog="python -m benchmarks.ledger")
    sub = ap.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="time and trace every workload, write ledger.json")
    s = sub.add_parser("selfcheck", help="two full A/A sets must agree within the bounds")
    for p in (r, s):
        p.add_argument("--out", default="ledger_out")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--quick", action="store_true", help="toy sizes, 1 rep (self-test)")
    d = sub.add_parser("diff", help="compare two ledger.json files, base first")
    d.add_argument("a")
    d.add_argument("b")
    b = sub.add_parser("bench", help="one workload, one JSON line (BENCHMARK.json contract)")
    b.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--seconds", type=float, required=True)
    b.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.command == "run":
        ledger = run_ledger(Path(args.out), args.seed, args.quick)
        return 1 if any(w["failures"] for w in ledger["workloads"].values()) else 0
    return {"selfcheck": selfcheck, "diff": diff, "bench": bench}[args.command](args)
