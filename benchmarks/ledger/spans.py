"""Span recorder for the traced pass.

``python -m benchmarks.ledger.spans TRACE.json -- <repro argv>`` wraps the
product's layer entry points *from here* (nothing under ``src/`` is edited),
calls ``repro.cli.main(argv)`` in this process and writes every span to
``TRACE.json`` at exit.  A span is (id, layer/op name, parent, run index,
thread, start, end, value); spans stay in memory until the campaign is over.

Only the traced pass ever runs under this module: end-to-end metrics come
from plain ``python -m repro`` children (see :mod:`benchmarks.ledger.harness`).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Callable, Optional

COLUMNS = ("id", "name", "parent", "run", "thread", "start", "end", "value")
_ID, _PARENT, _START, _END, _VALUE = (COLUMNS.index(c) for c in ("id", "parent", "start", "end", "value"))

#: the campaign's two root spans; what is left on them after their children
#: are subtracted is time the ledger cannot attribute to a layer
ROOT_SPANS = ("cli/main", "dampi.verifier/verify")


class Recorder:
    """Collects spans from the main thread and from rank threads.

    The parent of a span is the innermost open span on its own thread; a
    rank thread with nothing open adopts the main thread's innermost open
    span (the main thread is blocked inside ``Runtime.run`` while ranks
    execute, so that is the call that caused it)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.rows: list[list] = []
        self.run = -1  # index of the program execution spans belong to
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        new_run: bool = False,
        value: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``.  ``new_run`` marks the call
        that starts a program execution; ``value(self, result)`` attaches
        one number to the span (a size, a count)."""
        rows, clock, ids = self.rows, self.clock, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            if new_run:
                self.run += 1
            sid = next(ids)
            row = [sid, name, parent, self.run, stack is self._main_stack, 0.0, None, None]
            rows.append(row)
            stack.append(sid)
            row[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[_END] = clock()
                stack.pop()
            if value is not None:
                row[_VALUE] = value(args[0] if args else None, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kw))

    def finished(self) -> list[list]:
        """Closed spans in id order (a span a crash left open is dropped)."""
        return sorted((r for r in self.rows if r[_END] is not None), key=lambda r: r[_ID])


def install(rec: Recorder) -> Callable:
    """Wrap the product's layer boundaries; returns the wrapped
    ``repro.cli.main``.  The import of ``repro.cli`` is itself a span."""
    timed_import = rec.wrap(lambda: __import__("repro.cli"), "cli/import")
    timed_import()

    import repro.cli as cli
    from repro.dampi import prune
    from repro.dampi.checkpoint import PrefixCheckpointCache
    from repro.dampi.explorer import ScheduleGenerator
    from repro.dampi.journal import CampaignJournal
    from repro.dampi.verifier import DampiVerifier, VerificationReport
    from repro.mpi.runtime import Runtime
    from repro.obs.campaign import CampaignTelemetry

    p = rec.patch
    p(DampiVerifier, "verify", "dampi.verifier/verify")
    p(DampiVerifier, "run_once", "dampi.verifier/run_once", new_run=True)
    # replaying a resumed campaign's journal, encoding the per-run record
    # and snapshotting the generator into it are verifier methods, but
    # their cost belongs to the journal layer
    p(DampiVerifier, "_replay_journal", "dampi.journal/replay")
    p(DampiVerifier, "_journal_run_entry", "dampi.journal/encode")
    p(DampiVerifier, "_journal_checkpoint", "dampi.journal/checkpoint")
    p(DampiVerifier, "_record_run", "dampi.verifier/record_run")
    p(Runtime, "run", "mpi.runtime/run")
    p(Runtime, "recycle", "mpi.runtime/recycle")
    p(Runtime, "snapshot", "mpi.snapshot/capture",
      value=lambda _self, snap: getattr(snap, "nbytes", None))
    p(Runtime, "restore", "mpi.snapshot/install")
    p(PrefixCheckpointCache, "find", "dampi.checkpoint/find")
    p(PrefixCheckpointCache, "put", "dampi.checkpoint/put")
    p(ScheduleGenerator, "seed", "dampi.explorer/seed")
    p(ScheduleGenerator, "next_decisions", "dampi.explorer/next_decisions")
    p(ScheduleGenerator, "next_decision_batch", "dampi.explorer/next_decision_batch")
    p(ScheduleGenerator, "integrate", "dampi.explorer/integrate",
      value=lambda gen, _pruned: len(gen.path))
    p(prune, "signature_of", "dampi.prune/signature")
    p(CampaignJournal, "__init__", "dampi.journal/load")
    p(CampaignJournal, "ensure_meta", "dampi.journal/ensure_meta")
    p(CampaignJournal, "append", "dampi.journal/append")
    p(CampaignJournal, "run_entries", "dampi.journal/run_entries")
    p(CampaignTelemetry, "record_run", "obs/record_run")
    p(CampaignTelemetry, "heartbeat", "obs/heartbeat")
    p(CampaignTelemetry, "finalize", "obs/finalize")
    p(VerificationReport, "to_json", "cli/report_to_json")
    p(VerificationReport, "summary", "cli/report_summary")
    return rec.wrap(cli.main, "cli/main")


# -- arithmetic on finished spans ------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(rows: list[list]) -> dict[int, float]:
    """A span's self time: its duration minus the part of its interval its
    children cover.  Children on other threads may overlap each other, so
    the cover is a union, not a sum."""
    children: dict[int, list[tuple[float, float]]] = {}
    for r in rows:
        if r[_PARENT] is not None:
            children.setdefault(r[_PARENT], []).append((r[_START], r[_END]))
    return {
        r[_ID]: (r[_END] - r[_START]) - covered(children.get(r[_ID], []), r[_START], r[_END])
        for r in rows
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[1] != "--":
        raise SystemExit("usage: python -m benchmarks.ledger.spans TRACE.json -- <repro argv>")
    trace_path, repro_argv = argv[0], argv[2:]
    rec = Recorder()
    t0 = rec.clock()
    cli_main = install(rec)
    try:
        code = cli_main(repro_argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    with open(trace_path, "w") as fh:
        json.dump(
            {"argv": repro_argv, "t0": t0, "columns": COLUMNS, "rows": rec.finished()},
            fh,
            separators=(",", ":"),
        )
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
