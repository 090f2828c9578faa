"""Command-line front end: verify and replay MPI programs.

Examples::

    # verify a program over its wildcard non-determinism
    python -m repro verify repro.workloads.patterns:fig3_program --nprocs 3

    # bounded mixing, budget, vector clocks, saved witnesses
    python -m repro verify mymod:my_program --nprocs 8 --bound-k 2 \\
        --max-interleavings 500 --clock vector --witness-dir ./witnesses

    # deterministically replay a saved witness schedule
    python -m repro replay repro.workloads.patterns:fig3_program \\
        --nprocs 3 --decisions ./witnesses/error0.json

A program is addressed as ``module.path:callable``; the callable takes a
:class:`repro.mpi.process.Proc` as its first argument.  Keyword arguments
are passed as JSON via ``--kwargs``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from typing import Callable

from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions
from repro.dampi.verifier import DampiVerifier
from repro.errors import JournalError


class UsageError(Exception):
    """A command line this program cannot act on: ``main`` prints the
    message and exits 2 (argparse's usage code), never 1 — that one means
    the program under test has defects."""


def resolve_program(spec: str) -> Callable:
    """Import ``module.path:callable``."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not attr:
        raise UsageError(f"program must be 'module:callable', got {spec!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as e:
        raise UsageError(f"cannot import {module_name!r}: {e}") from e
    try:
        program = getattr(module, attr)
    except AttributeError:
        raise UsageError(f"{module_name!r} has no attribute {attr!r}") from None
    if not callable(program):
        raise UsageError(f"{spec!r} is not callable")
    return program


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("program", help="program as module.path:callable")
    p.add_argument("--nprocs", "-n", type=int, required=True, help="rank count")
    p.add_argument(
        "--kwargs", default="{}", help="JSON dict of program keyword arguments"
    )
    p.add_argument(
        "--policy",
        default="arrival",
        help="wildcard match policy for SELF_RUN (arrival|lowest_rank|"
        "highest_rank|random:<seed>)",
    )


def _jobs_flag(p: argparse.ArgumentParser) -> None:
    # verify and escalate only: 'dist run' sizes the same fleet with
    # --workers, and 'replay' executes one schedule
    p.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="fleet worker processes (0 = all cores; default 1 = "
        "in-process; the report is identical either way; stays "
        "in-process on single-CPU hosts, where workers could only "
        "time-slice)",
    )


def _verify_flags(v: argparse.ArgumentParser) -> None:
    """Everything 'verify' and 'dist run' share — one campaign, two
    spellings of who executes it."""
    _common(v)
    v.add_argument(
        "--clock",
        default="lamport",
        choices=DampiConfig._CLOCK_IMPLS,
        help="causality tracker (default: lamport, the paper's); both "
        "keep a wildcard's tick out of transmitted clocks until its "
        "Wait/Test (the paper's §V fix)",
    )
    v.add_argument(
        "--piggyback",
        default="separate",
        choices=("separate", "inline"),
        help="clock transport mechanism (default: separate messages)",
    )
    v.add_argument(
        "--bound-k",
        type=int,
        default=None,
        metavar="K",
        help="bounded mixing window (default: unbounded full coverage)",
    )
    v.add_argument(
        "--max-interleavings", type=int, default=None, help="exploration budget"
    )
    v.add_argument(
        "--max-seconds", type=float, default=None, help="wall-clock budget"
    )
    v.add_argument(
        "--no-monitor", action="store_true", help="disable the §V omission monitor"
    )
    v.add_argument(
        "--no-leak-check", action="store_true", help="disable leak checking"
    )
    v.add_argument(
        "--witness-dir",
        type=Path,
        default=None,
        help="save each found error's Epoch Decisions witness here",
    )
    v.add_argument(
        "--show-runs",
        action="store_true",
        help="print the per-run table (flipped epoch, matches, outcome)",
    )
    v.add_argument(
        "--all",
        action="store_true",
        help="with --show-runs, print every run (no 50-row cap)",
    )
    v.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the campaign event stream as a Chrome trace_event "
        "JSON (open in chrome://tracing or Perfetto); makes runs record "
        "event payloads",
    )
    v.add_argument(
        "--events-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the campaign event stream as JSONL; makes runs record "
        "event payloads",
    )
    v.add_argument(
        "--no-trace",
        action="store_true",
        help="no tracer at all: drops the exact events.* counters from "
        "the report's telemetry block (event payloads are recorded only "
        "for a --trace-out/--events-out sink in any case; "
        "what counting costs a whole campaign is the ledger's "
        "obs.trace_overhead_ratio)",
    )
    v.add_argument(
        "--trace-sample",
        type=int,
        default=1,
        metavar="N",
        help="thin the stream a --trace-out/--events-out "
        "sink reads: record event payloads for 1 in N replays "
        "(deterministic, keyed off the schedule signature; the other "
        "replays only count, so events.* stays exact; default 1 = "
        "every run)",
    )
    v.add_argument(
        "--json-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the report JSON (v3, includes the telemetry block)",
    )
    v.add_argument(
        "--progress",
        type=float,
        default=None,
        metavar="SECONDS",
        help="print a live progress heartbeat to stderr every SECONDS",
    )
    v.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="durable campaign journal: every run is written to DIR "
        "at once and fsync'd in groups about every 0.1 s "
        "(with a fleet also its lease ledger and per-lease worker "
        "memos), and 'repro resume DIR' picks up where a crash left off "
        "without re-executing covered interleavings — in-process or "
        "with a fleet of any size, whoever wrote DIR; so does re-running "
        "this command",
    )
    v.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="deterministic fault injection, e.g. 'kill@run:3', "
        "'hang@flip:1.2:30', 'kill@worker:2' or 'kill@coord:3' (see "
        "repro.dampi.faults; robustness testing)",
    )
    # tombstone for benchmarks/ledger/layers.py:285, which passes it: ignored
    v.add_argument(
        "--no-prefix-checkpoints", action="store_true", help=argparse.SUPPRESS
    )
    v.add_argument(
        "--no-prune",
        action="store_true",
        help="disable future-equivalence subtree pruning (on by default: "
        "sibling alternatives whose futures are provably isomorphic are "
        "explored once; findings are identical either way — see "
        "report.prune_stats for what was skipped)",
    )
    v.add_argument(
        "--adaptive-clocks",
        action="store_true",
        help="adaptive clock escalation: run the scalar clock, detect "
        "epochs where its approximation may have excluded a real match "
        "(the paper's Fig. 4 pattern), and re-derive just those epochs' "
        "alternatives under vector clocks via one precision replay each; "
        "requires --clock lamport",
    )


def _verify_args(p: argparse.ArgumentParser) -> None:
    _verify_flags(p)
    _jobs_flag(p)


def _stats_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "file",
        type=Path,
        help="a --json-out report, an --events-out JSONL file, or a "
        "--journal-dir directory",
    )
    p.add_argument(
        "--follow",
        action="store_true",
        help="with a --journal-dir: poll the journal and print one "
        "progress line per interval until the campaign completes "
        "(live introspection of a running verification)",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="--follow poll interval (default 2s)",
    )


def _escalate_args(p: argparse.ArgumentParser) -> None:
    _common(p)
    _jobs_flag(p)
    p.add_argument(
        "--run-budget", type=int, default=2000, help="total interleaving budget"
    )
    p.add_argument(
        "--clock", default="lamport", choices=DampiConfig._CLOCK_IMPLS
    )
    p.add_argument(
        "--keep-going",
        action="store_true",
        help="continue escalating after an error is found",
    )
    p.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="per-stage durable journals under DIR (re-run the same "
        "command after a crash to resume)",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="deterministic fault injection (see repro.dampi.faults)",
    )


def _resume_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "journal_dir", type=Path, help="a verify / dist run --journal-dir"
    )
    p.add_argument(
        "--program",
        default=None,
        help="override the program spec recorded in the journal",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="fault plan for the resumed attempt (the recorded plan is "
        "NOT re-injected by default — the fault already happened)",
    )
    p.add_argument(
        "--json-out", type=Path, default=None, metavar="FILE",
        help="write the report JSON",
    )
    p.add_argument(
        "--show-runs", action="store_true", help="print the per-run table"
    )
    p.add_argument(
        "--workers", "-w", type=int, default=None, metavar="N",
        help="continue with a fleet of N workers, whoever wrote the "
        "journal (default: --jobs as recorded)",
    )


def _dist_args(p: argparse.ArgumentParser) -> None:
    dsub = p.add_subparsers(dest="dist_command", required=True)
    dr = dsub.add_parser(
        "run",
        help="'verify' with the fleet size spelled --workers: always runs "
        "the coordinator, even with one worker or one CPU",
    )
    _verify_flags(dr)
    dr.add_argument(
        "--workers",
        "-w",
        type=int,
        default=2,
        metavar="N",
        help="worker processes exploring leased subtrees (default 2); the "
        "report is bit-identical for any N",
    )


def _replay_args(p: argparse.ArgumentParser) -> None:
    _common(p)
    p.add_argument(
        "--decisions",
        type=Path,
        required=True,
        help="Epoch Decisions JSON (a witness from 'verify')",
    )
    p.add_argument(
        "--clock", default="lamport", choices=DampiConfig._CLOCK_IMPLS
    )


#: every command: ``(name, --help line, adds its arguments)``, in the
#: order ``repro --help`` lists them
_COMMANDS = (
    ("verify", "explore the wildcard match space", _verify_args),
    (
        "stats",
        "summarize a verification's telemetry (report JSON, events "
        "JSONL, or a --journal-dir)",
        _stats_args,
    ),
    (
        "escalate",
        "verify with widening bounded-mixing stages (k=0,1,2,unbounded)",
        _escalate_args,
    ),
    (
        "resume",
        "resume a crashed verification from its --journal-dir "
        "(program, nprocs, and config are read from the journal)",
        _resume_args,
    ),
    (
        "dist",
        "distributed verification: shard the decision tree across "
        "worker processes with durable leases and work stealing",
        _dist_args,
    ),
    ("replay", "re-run one schedule from a decisions file", _replay_args),
)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The ``repro`` parser for the command line ``argv``: the sub-parser
    of the command ``argv`` invokes, with its arguments, and no other —
    building every command costs a process more than parsing the one it
    runs.  A command line that names no command (``repro --help``, a
    typo) gets every command listed, without arguments."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAMPI: dynamic formal verification of MPI programs "
        "(SC'10 reproduction)",
    )
    names = [name for name, _, _ in _COMMANDS]
    # the parser's only option is --help, so the first word that is not
    # an option names the command
    invoked = next((a for a in argv if not a.startswith("-")), None)
    if invoked not in names:
        sub = parser.add_subparsers(dest="command", required=True)
        for name, help_line, _ in _COMMANDS:
            sub.add_parser(name, help=help_line)
        return parser
    # a usage line (an unrecognized argument) names every command still
    sub = parser.add_subparsers(
        dest="command", required=True, metavar="{" + ",".join(names) + "}"
    )
    for name, help_line, add_arguments in _COMMANDS:
        if name == invoked:
            add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _config(**fields) -> DampiConfig:
    try:
        return DampiConfig(**fields)
    except ValueError as e:
        raise UsageError(str(e)) from e


def _program_args(args) -> tuple[Callable, dict]:
    """The program and its keyword arguments, as ``common()`` named them."""
    if args.nprocs < 1:
        raise UsageError(f"--nprocs must be >= 1, not {args.nprocs}")
    try:
        kwargs = json.loads(args.kwargs)
    except ValueError as e:
        raise UsageError(f"--kwargs is not valid JSON: {e}") from e
    if not isinstance(kwargs, dict):
        raise UsageError(f"--kwargs must be a JSON object, not {args.kwargs!r}")
    return resolve_program(args.program), kwargs


def _jobs_arg(args):
    """``--jobs 0`` means "all cores" (DampiConfig spells that None)."""
    return None if args.jobs == 0 else args.jobs


def _check_adaptive_clock(args) -> None:
    """Fail fast with a CLI-shaped message instead of DampiConfig's
    ValueError when --adaptive-clocks meets a non-scalar clock."""
    if args.adaptive_clocks and args.clock != "lamport":
        raise UsageError(
            f"--adaptive-clocks escalates a *scalar* clock to vector "
            f"precision on demand; --clock {args.clock} is already a "
            f"vector clock — drop one of the two flags"
        )


def _existing_journal_dir(path: Path) -> Path:
    """A command that only reads a journal must not conjure one: refuse
    anything that is not already a directory."""
    if not path.is_dir():
        raise UsageError(f"{path} is not a directory (expected a --journal-dir)")
    return path


def cmd_verify(args) -> int:
    """``verify`` and ``dist run``: one campaign, executed in-process, by
    the fleet ``--jobs`` asks for, or by exactly ``--workers`` workers."""
    program, kwargs = _program_args(args)
    workers = getattr(args, "workers", None)  # 'dist run' only
    if workers is not None and workers < 1:
        raise UsageError(f"--workers must be >= 1, not {workers}")
    sink = args.trace_out or args.events_out
    if args.no_trace and sink:
        raise UsageError(
            "--no-trace conflicts with --trace-out/--events-out "
            "(event exports need the tracer)"
        )
    if args.no_trace and args.trace_sample != 1:
        raise UsageError(
            "--no-trace conflicts with --trace-sample "
            "(payload sampling configures the tracer --no-trace disables)"
        )
    if args.trace_sample > 1 and not sink:
        raise UsageError(
            "--trace-sample needs --trace-out/--events-out: event "
            "payloads are recorded only for such a sink, so without one "
            "there is nothing to sample"
        )
    _check_adaptive_clock(args)
    config = _config(
        clock_impl=args.clock,
        piggyback=args.piggyback,
        bound_k=args.bound_k,
        max_interleavings=args.max_interleavings,
        max_seconds=args.max_seconds,
        policy=args.policy,
        jobs=_jobs_arg(args) if workers is None else workers,
        enable_monitor=not args.no_monitor,
        enable_leak_check=not args.no_leak_check,
        # the CLI counts events by default (the API does not); payloads
        # are recorded only for a sink to read, see below
        trace_events=not args.no_trace,
        trace_sample_every=args.trace_sample,
        progress_interval_seconds=args.progress,
        fault_plan=args.fault_plan,
        prune=not args.no_prune,
        adaptive_clocks=args.adaptive_clocks,
    )
    if not sink:
        # nothing will read event payloads: no run records any
        config = config.replace(trace_sample_every=None)
    verifier = DampiVerifier(program, args.nprocs, config, kwargs=kwargs)
    journal = None
    if args.journal_dir is not None:
        from repro.dampi.journal import CampaignJournal

        journal = CampaignJournal(args.journal_dir, program_label=args.program)
    return _report_tail(
        args, _run(verifier, journal, workers), args.program, args.nprocs
    )


def _run(verifier, journal, workers):
    """``workers`` None: the verifier decides from ``config.jobs`` and the
    host; a number: the coordinator over exactly that many."""
    if workers is None:
        return verifier.verify(journal=journal)
    from repro.dist import DistCoordinator

    return DistCoordinator(verifier, workers=workers, journal=journal).run()


def _report_tail(args, report, label, nprocs) -> int:
    """Print a finished campaign and write what the flags asked for; the
    exit code says whether the program under test has defects.  Flags a
    command does not define (``resume`` has only the report ones) read as
    unset."""
    def flag(name):
        return getattr(args, name, None)

    print(report.summary())
    if (report.parallel_stats or {}).get("mode") == "dist":
        ps = report.parallel_stats
        print(
            f"  distributed: {ps['workers']} worker(s), "
            f"{ps['leases']} lease(s), {ps['records']} record(s), "
            f"{ps['worker_deaths']} worker death(s)"
        )
    if report.journal_stats is not None:
        js = report.journal_stats
        print(
            f"  journal: {js['replayed']} run(s) replayed, "
            f"{js['executed']} executed"
        )
    if args.show_runs:
        # 'resume' has no --all and always printed every row
        print(report.run_table(limit=50 if flag("all") is False else None))
    if flag("trace_out") is not None:
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(
            report.events, args.trace_out, label=label, nprocs=nprocs
        )
        print(f"  chrome trace saved: {args.trace_out}")
    if flag("events_out") is not None:
        from repro.obs.export import write_events_jsonl

        write_events_jsonl(
            report.events, args.events_out,
            header={"program": label, "nprocs": nprocs},
        )
        print(f"  event log saved: {args.events_out}")
    if args.json_out is not None:
        args.json_out.write_text(report.to_json() + "\n")
        print(f"  report JSON saved: {args.json_out}")
    if report.monitor_report and report.monitor_report.triggered:
        for alert in report.monitor_report.alerts:
            print(f"  alert: {alert}")
    if flag("witness_dir") is not None and report.errors:
        args.witness_dir.mkdir(parents=True, exist_ok=True)
        for i, error in enumerate(report.errors):
            if error.decisions is not None:
                path = args.witness_dir / f"error{i}_{error.kind}.json"
                error.decisions.save(path)
                print(f"  witness saved: {path}")
    return 1 if report.errors else 0


def _stats_follow(args) -> int:
    """Poll a journal directory, one progress line per interval, until
    the campaign writes its ``end`` record."""
    import time as _time

    from repro.obs.stats import (
        JournalStatsError,
        follow_interval,
        journal_follow_line,
        journal_progress,
        render_journal_summary,
    )

    try:
        interval = follow_interval(args.interval)
    except ValueError as e:
        raise UsageError(str(e)) from e
    try:
        while True:
            progress = journal_progress(args.file)
            print(journal_follow_line(progress), flush=True)
            if progress["complete"]:
                break
            _time.sleep(interval)
    except JournalStatsError as e:
        raise UsageError(str(e)) from e
    except KeyboardInterrupt:
        print("(stopped following; campaign still running)")
        return 0
    print()
    print(render_journal_summary(progress))
    return 0


def cmd_stats(args) -> int:
    """Render a campaign summary from any verify artifact.

    The input kind is auto-detected: a directory is a journal; a single
    JSON object with a ``telemetry`` key is a report; anything else is
    tried as an events JSONL (line-delimited JSON with a header line,
    see :mod:`repro.obs.export`)."""
    from repro.obs.export import JSONL_FORMAT, read_events_jsonl
    from repro.obs.stats import (
        JournalStatsError,
        journal_progress,
        render_events_summary,
        render_journal_summary,
        render_report_summary,
    )

    if args.file.is_dir():
        if args.follow:
            return _stats_follow(args)
        try:
            print(render_journal_summary(journal_progress(args.file)))
        except JournalStatsError as e:
            raise UsageError(str(e)) from e
        return 0
    if args.follow:
        raise UsageError(
            f"--follow needs a --journal-dir directory to tail; "
            f"{args.file} is a file"
        )
    try:
        raw = args.file.read_bytes()
    except OSError as e:
        raise UsageError(f"cannot read {args.file}: {e}") from e
    payload = None
    try:
        payload = json.loads(raw.decode("utf-8", errors="replace"))
    except ValueError:
        pass
    if isinstance(payload, dict) and "telemetry" in payload:
        print(render_report_summary(payload))
        return 0
    try:
        header, events = read_events_jsonl(args.file)
    except (ValueError, KeyError) as e:  # not JSON / not an event
        raise UsageError(
            f"{args.file} is neither a report JSON (--json-out), an "
            f"events JSONL (--events-out), nor a journal directory: {e}"
        ) from e
    if header.get("format") != JSONL_FORMAT:
        raise UsageError(f"{args.file}: not a {JSONL_FORMAT} file")
    print(render_events_summary(header, events))
    return 0


def cmd_escalate(args) -> int:
    from repro.dampi.campaign import escalating_verify

    program, kwargs = _program_args(args)
    result = escalating_verify(
        program,
        args.nprocs,
        base_config=_config(
            clock_impl=args.clock,
            policy=args.policy,
            jobs=_jobs_arg(args),
            fault_plan=args.fault_plan,
        ),
        run_budget=args.run_budget,
        stop_on_error=not args.keep_going,
        kwargs=kwargs,
        journal_dir=args.journal_dir,
    )
    print(result.summary())
    return 1 if result.errors else 0


def _load_resume(args):
    """What ``resume`` reads back from a journal's meta record:
    ``(journal, meta, program, config, kwargs)``, or a refusal naming
    what the operator should do instead."""
    from repro.dampi.journal import CampaignJournal
    from repro.mpi.costmodel import CostModel

    journal = CampaignJournal(_existing_journal_dir(args.journal_dir))
    meta = journal.meta
    if meta is None:
        raise UsageError(
            f"{args.journal_dir}: no journal meta record found "
            f"(empty directory, or not a journal)"
        )
    spec = args.program or meta.get("program")
    if not spec:
        raise UsageError(
            "this journal does not record a program spec (it was written "
            "by the API, not the CLI); pass --program module:callable"
        )
    payload = meta.get("config")
    if not isinstance(payload, dict):
        raise UsageError(
            "this journal's config is not serializable (policy instance?); "
            "resume it through the API: DampiVerifier.verify(journal=...)"
        )
    d = dict(payload)
    cm = d.pop("cost_model", None)
    # the recorded plan already fired — a resume must not re-inject it
    d["fault_plan"] = args.fault_plan
    try:
        config = _config(**d, **({"cost_model": CostModel(**cm)} if cm else {}))
    except TypeError as e:
        # also how a journal from a version with more knobs is refused
        raise UsageError(
            f"journal config does not match this version's DampiConfig: {e}"
        ) from e
    kwargs = meta.get("kwargs")
    if not isinstance(kwargs, dict):
        raise UsageError(
            f"this journal's program kwargs are not serializable "
            f"({kwargs!r}); resume in-process instead"
        )
    return journal, meta, resolve_program(spec), config, kwargs


def cmd_resume(args) -> int:
    """Self-contained crash recovery: everything needed to continue —
    program spec, nprocs, config, kwargs — is read from the journal's
    meta record, so the operator only names the directory.  Any journal
    continues any way: with ``--jobs`` as recorded by default, or with a
    fleet of exactly ``--workers`` workers — whoever wrote it."""
    journal, meta, program, config, kwargs = _load_resume(args)
    workers = args.workers
    if workers is not None and workers < 1:
        raise UsageError(f"--workers must be >= 1, not {workers}")
    # 'resume' has no event sink, whatever the first attempt streamed into
    verifier = DampiVerifier(
        program, meta["nprocs"], config.replace(trace_sample_every=None),
        kwargs=kwargs,
    )
    return _report_tail(
        args, _run(verifier, journal, workers), meta.get("program"), meta["nprocs"]
    )


def cmd_replay(args) -> int:
    program, kwargs = _program_args(args)
    decisions = EpochDecisions.load(args.decisions)
    config = _config(clock_impl=args.clock, policy=args.policy)
    verifier = DampiVerifier(program, args.nprocs, config, kwargs=kwargs)
    result, trace = verifier.run_once(decisions)
    print(f"replayed {len(decisions)} forced decision(s); {result!r}")
    for rank, exc in sorted(result.primary_errors.items()):
        print(f"  rank {rank}: {type(exc).__name__}: {exc}")
    if trace.diverged:
        print(
            f"  warning: replay diverged "
            f"(unconsumed: {trace.unconsumed_decisions})"
        )
    return 1 if result.errors else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "stats":
            return cmd_stats(args)
        if args.command == "escalate":
            return cmd_escalate(args)
        if args.command == "resume":
            return cmd_resume(args)
        if args.command == "dist":
            return cmd_verify(args)
        if args.command == "replay":
            return cmd_replay(args)
    except (UsageError, JournalError) as e:
        print(f"repro: error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream pager/head closed the pipe mid-table; exit quietly
        # (dup devnull over stdout so the interpreter's flush-at-exit
        # doesn't raise the same error again)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
