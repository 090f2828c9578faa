"""Run campaigns as real CLI subprocesses and judge what they return.

Everything here observes the product from outside: a child is spawned, timed
with ``os.wait4`` (wall, CPU of the whole reaped process tree, peak RSS) and
its report JSON is compared with the workload's known answer.  Nothing under
``src/`` is imported into the timed child by this module, let alone patched.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import astuple, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from benchmarks.ledger.workloads import Exact, Step, Workload

ROOT = Path(__file__).resolve().parents[2]

#: how a step's argv is launched; the traced pass swaps in
#: ``python -m benchmarks.ledger.spans TRACE --``
CLI = (sys.executable, "-m", "repro")

#: a child past this multiple of its workload's sizing wall is killed
TIMEOUT_FACTOR = 10.0


#: everything the ledger writes when it is not told where (``bench.py``
#: scratch, the children's bytecode cache); listed in the root .gitignore
SCRATCH = ROOT / ".ledger_work"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{ROOT}"
    # str hashes feed set/dict iteration order in places; fix them so two
    # runs of one command line do the same work
    env["PYTHONHASHSEED"] = "0"
    # a user's campaign starts from compiled bytecode; make that true here
    # whatever the caller's environment says, without writing into src/
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(SCRATCH / "pycache")
    return env


def pin_cpu() -> int:
    """The one CPU pinned children run on (the harness sleeps in wait4
    meanwhile, so sharing it with the harness costs nothing)."""
    return max(os.sched_getaffinity(0))


@dataclass
class Proc:
    """What one child cost, as the OS accounts it."""

    wall_s: float
    cpu_s: float  # user+sys of the child and every descendant it reaped
    rss_mb: float  # largest ru_maxrss in that tree
    exit_code: int
    timed_out: bool = False


def spawn(argv: Sequence[str], *, pinned: bool, timeout_s: float, log: Path) -> Proc:
    """Run ``argv`` to completion, closed loop, and account for it.

    The child runs under :mod:`.launch` (which measures it; see there why)
    in a process group of its own, so a timeout can kill pool and dist
    workers with it; a timed-out child is killed and reported, never
    waited on."""
    result = log.with_suffix(".rusage")
    result.unlink(missing_ok=True)
    launcher = subprocess.Popen(
        [sys.executable, "-S", "-E", str(Path(__file__).with_name("launch.py")),
         str(result), str(pin_cpu()) if pinned else "-", str(log), *argv],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, start_new_session=True,
    )
    t0 = time.perf_counter()
    timed_out = False
    try:
        launcher.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        timed_out = True
    # on time or not, nothing of this step may outlive it (orphaned workers
    # of a crashed campaign included)
    try:
        os.killpg(launcher.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    launcher.wait()
    try:
        wall, cpu, maxrss_kb, exit_code = result.read_text().split()
    except (OSError, ValueError):
        return Proc(time.perf_counter() - t0, 0.0, 0.0, exit_code=-1, timed_out=timed_out)
    return Proc(float(wall), float(cpu), int(maxrss_kb) / 1024.0, int(exit_code), timed_out)


# -- reading reports -----------------------------------------------------------


def canonical(report: dict) -> dict:
    """The report minus what legitimately differs between two executions of
    one campaign: wall clock and the telemetry block."""
    return {k: v for k, v in report.items() if k not in ("wall_seconds", "telemetry")}


def counters(report: dict) -> dict:
    return report.get("telemetry", {}).get("metrics", {}).get("counters", {})


def gauges(report: dict) -> dict:
    return report.get("telemetry", {}).get("metrics", {}).get("gauges", {})


def executions(report: dict) -> int:
    """Program executions the campaign needed: consumed runs plus the
    adaptive-clock precision replays (extra executions, not interleavings)."""
    c = counters(report)
    return int(c.get("campaign.runs", 0)) + int(c.get("prune.escalation_replays", 0))


def check_step(step: Step, proc: Proc, report: Optional[dict]) -> list[str]:
    """Every way this step's outcome differs from its hand-written answer."""
    bad = []
    if proc.timed_out:
        return [f"{step.label}: killed after {proc.wall_s:.1f}s (timeout)"]
    if proc.exit_code != step.exit_code:
        bad.append(f"{step.label}: exit {proc.exit_code}, expected {step.exit_code}")
    if step.report is None:
        return bad
    if report is None:
        return bad + [f"{step.label}: no readable report JSON"]
    found = Counter(e["kind"] for e in report.get("errors", ()))
    if set(found) != set(step.findings):
        bad.append(f"{step.label}: finding kinds {sorted(found)}, "
                   f"expected {sorted(step.findings)}")
    for kind, count in step.findings.items():
        if count is not None and found.get(kind) != count:
            bad.append(f"{step.label}: {found.get(kind, 0)} {kind}, expected {count}")
    if bool(report.get("monitor_alerts")) != step.monitor_alert:
        bad.append(f"{step.label}: monitor_alerts={report.get('monitor_alerts')}")
    return bad


# -- one rep of one workload ---------------------------------------------------


@dataclass
class Rep:
    """One pass over a workload's steps."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    executions: int = 0
    interleavings: int = 0
    truncated: bool = False
    replays_saved: int = 0
    failures: list = field(default_factory=list)
    #: canonical reports of the timed steps, in step order
    canon: list = field(default_factory=list)
    #: full reports of the timed steps (per-layer counters are read here)
    reports: list = field(default_factory=list)
    #: trace files written by a traced rep, in step order
    traces: list = field(default_factory=list)

    def exact(self) -> tuple:
        return (self.interleavings, self.truncated, self.executions, self.replays_saved)


def run_rep(
    workload: Workload,
    steps: list[Step],
    workdir: Path,
    *,
    pinned: Optional[bool] = None,
    traced: bool = False,
    exact: Optional[Exact] = None,
) -> Rep:
    """Execute ``steps`` once, in order, in a fresh scratch directory.

    ``traced`` launches the timed steps under the span recorder instead of
    the plain CLI.  ``exact`` is the known answer for the rep's counts (None
    for toy sizes and for probe variants, which pin none).  ``pinned``
    overrides the workload's affinity (the probes run variants of it)."""
    pinned = workload.pinned if pinned is None else pinned
    rep_dir = workdir / "rep"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    rep = Rep()
    timeout = workload.expect_wall_s * TIMEOUT_FACTOR
    for i, step in enumerate(steps):
        argv = [a.replace("{dir}", str(rep_dir)) for a in step.argv]
        launcher = CLI
        if traced and step.timed:
            trace = workdir / f"spans_{workload.name}_{i:02d}.json"
            trace.unlink(missing_ok=True)
            launcher = (sys.executable, "-m", "benchmarks.ledger.spans", str(trace), "--")
            rep.traces.append(trace)
        proc = spawn(
            [*launcher, *argv],
            pinned=pinned,
            timeout_s=timeout,
            log=workdir / "children.log",
        )
        report = None
        if step.report is not None:
            try:
                report = json.loads((rep_dir / step.report).read_text())
            except (OSError, ValueError):
                report = None
        rep.failures += check_step(step, proc, report)
        if not step.timed:
            continue
        rep.wall_s += proc.wall_s
        rep.cpu_s += proc.cpu_s
        rep.rss_mb = max(rep.rss_mb, proc.rss_mb)
        if report is not None:
            rep.executions += executions(report)
            rep.interleavings += int(report.get("interleavings", 0))
            rep.truncated |= bool(report.get("truncated"))
            rep.replays_saved += int(counters(report).get("prune.replays_saved", 0))
            rep.canon.append(canonical(report))
            rep.reports.append(report)
    if exact is not None and not rep.failures and rep.exact() != astuple(exact):
        rep.failures.append(
            f"{workload.name}: (interleavings, truncated, executions, replays_saved) "
            f"= {rep.exact()}, expected {astuple(exact)}"
        )
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def host_info() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "git_sha": sha or None,  # None in a checkout that is not a git repository
        "host": os.uname().nodename,
        "machine": os.uname().machine,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }
