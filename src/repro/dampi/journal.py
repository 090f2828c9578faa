"""Durable campaign journal: crash-safe, resumable verification.

A verification campaign is a long depth-first search over epoch decisions
— thousands of guided replays on real clusters where workers hang, nodes
die, and jobs hit wall-clock limits.  This module makes that search
*resumable*.  A guided replay is a deterministic function of its Epoch
Decisions, so a run record keyed by its schedule is a complete memo of
that run, whoever executed it and in whatever order: a campaign appends
the record of every run it produces, and a later invocation against the
same directory — in-process or by a fleet of any size — loads the records
into a map and walks again, taking each run from the map where it has
one and executing the rest (:meth:`DampiVerifier.verify(journal=...)
<repro.dampi.verifier.DampiVerifier.verify>`).  The walk is the same
deterministic function of the same runs, so the resumed report is
bit-identical to an uninterrupted one (modulo wall-clock).

On-disk format
--------------
A journal directory holds numbered segments::

    <dir>/
      segment-00000.jsonl
      segment-00001.jsonl      # each resume attempt starts a new segment
      ...

Each line is one JSON record with a ``t`` discriminator:

``meta``
    Written once, first: journal version, ``nprocs``, the full config,
    the *semantic* config signature (resume refuses a journal recorded
    under different search semantics), and optionally the CLI program
    spec so ``repro resume <dir>`` is self-contained.
``run``
    One executed run: ``{"t": "run", **run_entry(...)}``, the run record
    (below), keyed by its schedule ``key`` (``null`` for the self run).
    Written by whoever produced the run — the in-process walk, a fleet's
    coordinator as records arrive, a fleet worker's per-lease memo — in
    the order it was produced.
``lease`` / ``lease_done``
    A fleet coordinator's lease ledger: a subtree spec, journaled before
    it is first dispatched, and its completion.  Only a coordinator
    reads them; the in-process walk skips them.
``end``
    Campaign completion marker with final counts (tooling/CI aid; a
    journal without one is simply an interrupted campaign).  Written
    once: verifying a finished journal again appends nothing.

The run record
--------------
One executed run has one serialised shape, wherever it goes: ``run``
entries and the ``record`` frames a fleet worker streams carry the dict
:func:`run_entry` builds, and every reader turns it back into a result
with :func:`result_from_entry` and folds it in through
:meth:`DampiVerifier._consume <repro.dampi.verifier.DampiVerifier._consume>`
— the path a live run takes.  The record ships *raw facts* (schedule
key, full trace, makespan, engine stats, piggyback counters, the
deadlock's blocked map, primary errors as ``(rank, type-name, message)``
rows, the leak report, and the self run's monitor report), never the
report's view of them: run numbering, error dedup and ``error_kinds``
depend on the walk's global order, so they are recomputed wherever the
record is consumed.

It is also the on-disk record of paper Fig. 1: the trace holds every
epoch and every potential match of the run, so a journal re-read offline
seeds a fresh schedule generator to the decisions the live campaign took
(plain line-oriented JSON: grep/jq work on it).  Epochs and matches are
*rows*, not objects: a row lists the fields of
:class:`~repro.dampi.epoch.EpochRecord` or
:class:`~repro.dampi.epoch.PotentialMatch` in declaration order, with
an epoch key and a stamp flattened to two cells each
(:func:`trace_to_jsonable`).  A run's potential matches are most of its
bytes, and a row instead of a dict per match and per stamp cuts a
record to about a quarter.

Durability: every append is one ``write()`` of ``json + "\\n"`` followed
by ``flush``, so a process that dies loses nothing it appended.  What a
*machine* crash may lose is what only the page cache held, and that is
decided per entry type (group commit): ``meta``, ``lease``,
``lease_done`` and ``end`` are fsync'd before :meth:`CampaignJournal.append`
returns — a lease is durable before it is dispatched, so a subtree a
worker discovers is never lost — while a ``run`` is fsync'd only once
:data:`RUN_SYNC_INTERVAL_SECONDS` have passed since the journal's last
sync, and :meth:`CampaignJournal.close` always syncs.  A lost ``run`` is
simply executed again, bit-identically.  A crash mid-append leaves a
torn final line with no trailing newline; the loader drops anything
after the last newline of each segment, so a torn tail costs exactly the
record being written.  Segments rotate at :data:`DEFAULT_SEGMENT_BYTES`,
and every attempt that appends opens a fresh segment (old segments are
never reopened for writing).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Optional

from repro._record import Record
from repro.clocks.lamport import LamportStamp
from repro.clocks.vector import VectorStamp
from repro.dampi.config import SEMANTIC_CONFIG_FIELDS
from repro.dampi.decisions import EpochDecisions, schedule_key
from repro.dampi.epoch import EpochRecord, PotentialMatch, RunTrace
from repro.dampi.leaks import CommLeak, LeakReport, RequestLeak
from repro.dampi.monitor import MonitorReport, OmissionAlert
from repro.errors import DeadlockError, JournalError

#: 7: a run trace has no ``mismatches`` cell (a reached forced epoch
#: always completes from its forced source).  6: ``clock_impl``
#: ``lamport``/``vector`` name the §V committed-tick clocks, which v5 ran
#: under ``lamport_dual``/``vector_dual`` — a v5 ``lamport`` journal holds
#: single-commit runs (v5 made a run trace's epochs and matches
#: fixed-order rows; v4's meta lost two removed knobs; v3 made every run
#: one ``run`` entry keyed by its schedule; v2 kept three kinds and
#: generator checkpoints; v1 stored the report's post-dedup view)
JOURNAL_VERSION = 7

#: default segment rotation threshold (bytes)
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: group commit: a ``run`` entry is fsync'd only when this long has passed
#: since the journal's last sync (every other entry type, and ``close``,
#: always syncs)
RUN_SYNC_INTERVAL_SECONDS = 0.1


# -- payload (de)serialisation -------------------------------------------------


def _stamp_cells(stamp) -> tuple:
    """A stamp as two row cells, ``(value, rank)``: the value is the
    Lamport time (an int), the vector's components (a list) or ``null``
    for no stamp."""
    if stamp is None:
        return None, None
    if isinstance(stamp, LamportStamp):
        return stamp.time, stamp.rank
    if isinstance(stamp, VectorStamp):
        return list(stamp.components), stamp.rank
    raise TypeError(f"unknown stamp type {type(stamp).__name__}")


def _stamp(value, rank):
    if value is None:
        return None
    if value.__class__ is int:
        return LamportStamp(value, rank)
    return VectorStamp(value, rank)


def decisions_to_jsonable(decisions: EpochDecisions) -> dict:
    return {
        "flip": list(decisions.flip) if decisions.flip else None,
        "forced": [[r, lc, src] for (r, lc), src in sorted(decisions.forced.items())],
    }


def decisions_from_jsonable(payload: dict) -> EpochDecisions:
    return EpochDecisions(
        forced={(r, lc): src for r, lc, src in payload["forced"]},
        flip=tuple(payload["flip"]) if payload.get("flip") else None,
    )


def trace_to_jsonable(trace: RunTrace) -> dict:
    """A run trace with its epochs and potential matches as fixed-order
    rows.  A row lists the fields of :class:`~repro.dampi.epoch.EpochRecord`
    or :class:`~repro.dampi.epoch.PotentialMatch` in declaration order,
    with a match's epoch key as two cells ``rank, lc`` and a stamp as two
    cells ``value, rank`` (:func:`_stamp_cells`)::

        epoch: [rank, lc, index, ctx, tag, kind, stamp_value, stamp_rank,
                explore, forced, matched_source, matched_env_uid, matched_seq]
        match: [epoch_rank, epoch_lc, source, env_uid, seq, tag,
                stamp_value, stamp_rank]
    """
    return {
        "nprocs": trace.nprocs,
        "epochs": [
            [
                e.rank, e.lc, e.index, e.ctx, e.tag, e.kind, *_stamp_cells(e.stamp),
                e.explore, e.forced,
                e.matched_source, e.matched_env_uid, e.matched_seq,
            ]
            for e in trace.all_epochs()
        ],
        "matches": [
            [*m.epoch, m.source, m.env_uid, m.seq, m.tag, *_stamp_cells(m.stamp)]
            for m in trace.potential_matches
        ],
        "unconsumed": [list(k) for k in trace.unconsumed_decisions],
        "scalar_risk": [list(k) for k in trace.scalar_risk],
    }


def trace_from_jsonable(payload: dict) -> RunTrace:
    # every rank has a list, as in a live trace: the prune fingerprint
    # walks ranks, so a journaled run and a live one must compare alike
    epochs: dict[int, list[EpochRecord]] = {r: [] for r in range(payload["nprocs"])}
    for (
        rank, lc, index, ctx, tag, kind, value, srank, explore, forced,
        src, uid, seq,
    ) in payload["epochs"]:
        epochs[rank].append(
            EpochRecord(
                rank, lc, index, ctx, tag, kind, _stamp(value, srank),
                explore, forced, src, uid, seq,
            )
        )
    for rank_epochs in epochs.values():
        rank_epochs.sort(key=lambda e: e.index)
    return RunTrace(
        nprocs=payload["nprocs"],
        epochs=epochs,
        potential_matches=[
            PotentialMatch((er, elc), source, uid, seq, tag, _stamp(value, srank))
            for er, elc, source, uid, seq, tag, value, srank in payload["matches"]
        ],
        unconsumed_decisions=[tuple(k) for k in payload["unconsumed"]],
        scalar_risk=[tuple(k) for k in payload["scalar_risk"]],
    )


def leaks_to_jsonable(report: Optional[LeakReport]) -> Optional[dict]:
    if report is None:
        return None
    return {
        "comm": [[l.rank, l.ctx, l.label] for l in report.comm_leaks],
        "request": [
            [l.rank, l.req_uid, l.kind, l.detail] for l in report.request_leaks
        ],
    }


def leaks_from_jsonable(payload: Optional[dict]) -> Optional[LeakReport]:
    if payload is None:
        return None
    return LeakReport(
        comm_leaks=[CommLeak(r, ctx, label) for r, ctx, label in payload["comm"]],
        request_leaks=[
            RequestLeak(r, uid, kind, detail)
            for r, uid, kind, detail in payload["request"]
        ],
    )


def monitor_to_jsonable(report: Optional[MonitorReport]) -> Optional[dict]:
    if report is None:
        return None
    return {
        "alerts": [
            [a.rank, a.operation, list(a.outstanding_wildcards)]
            for a in report.alerts
        ]
    }


def monitor_from_jsonable(payload: Optional[dict]) -> Optional[MonitorReport]:
    if payload is None:
        return None
    return MonitorReport(
        alerts=[
            OmissionAlert(rank, op, tuple(uids))
            for rank, op, uids in payload["alerts"]
        ]
    )


# -- the run record --------------------------------------------------------------


def run_entry(
    decisions: Optional[EpochDecisions], result, trace, esc: Optional[int] = None
) -> dict:
    """Serialize one executed run into its run record (see module doc).
    The self run (``decisions is None``) also carries the monitor report —
    only run 0 feeds the report's monitor block.  ``esc`` (alternatives a
    clock escalation injected into ``trace``) rides along so consumers
    re-derive the escalation stats without the precision replay."""
    pb = result.artifacts.get("piggyback")
    entry = {
        "key": decisions_to_jsonable(decisions) if decisions is not None else None,
        "trace": trace_to_jsonable(trace),
        "makespan": result.makespan,
        "stats": dict(result.stats or {}),
        "pb": dict(pb) if pb else None,
        "leaks": leaks_to_jsonable(result.artifacts.get("leaks")),
        "deadlock": (
            [[r, op] for r, op in sorted(result.deadlock.blocked.items())]
            if result.deadlocked
            else None
        ),
        # primary_errors iterates rank-sorted; preserve that order so the
        # consumer's dedup walk sees errors exactly as the live loop did.
        # DeadlockError rows are omitted (the recorder skips them; the
        # deadlock travels in its own field).
        "errors": [
            [rank, type(exc).__name__, str(exc)]
            for rank, exc in result.primary_errors.items()
            if not isinstance(exc, DeadlockError)
        ],
    }
    if esc is not None:
        entry["esc"] = esc
    if decisions is None:
        entry["monitor"] = monitor_to_jsonable(result.artifacts.get("monitor"))
    return entry


#: dynamically rebuilt exception classes for recorded crash rows, cached so
#: equal type names compare equal across entries
_EXC_CACHE: dict[str, type] = {}


def _recorded_exception(type_name: str, message: str) -> Exception:
    cls = _EXC_CACHE.get(type_name)
    if cls is None:
        cls = _EXC_CACHE[type_name] = type(
            type_name, (Exception,), {"__module__": "repro.dampi.recorded"}
        )
    return cls(message)


class JournaledResult:
    """Duck-typed :class:`~repro.mpi.runtime.RunResult` rebuilt from a run
    record — exactly the fields :meth:`DampiVerifier._consume` and
    :meth:`CampaignTelemetry.record_run` read."""

    __slots__ = ("makespan", "stats", "artifacts", "deadlock", "primary_errors")

    def __init__(
        self,
        makespan: float,
        stats: dict,
        artifacts: dict,
        deadlock: Optional[DeadlockError],
        primary_errors: dict,
    ):
        self.makespan = makespan
        self.stats = stats
        self.artifacts = artifacts
        self.deadlock = deadlock
        self.primary_errors = primary_errors

    @property
    def deadlocked(self) -> bool:
        return self.deadlock is not None


def result_from_entry(entry: dict) -> JournaledResult:
    """Rebuild the duck-typed result from a run record.  The rebuilt
    pieces reproduce the live report byte-for-byte: ``DeadlockError``
    reconstructs from its blocked map (its message is derived from it),
    and crash rows rebuild as dynamic exception types whose ``__name__``
    and ``str()`` match the originals — the two things the error-dedup
    keys and detail strings are made of."""
    artifacts: dict = {}
    if entry.get("pb"):
        artifacts["piggyback"] = dict(entry["pb"])
    leaks = leaks_from_jsonable(entry.get("leaks"))
    if leaks is not None:
        artifacts["leaks"] = leaks
    if entry.get("monitor") is not None:
        artifacts["monitor"] = monitor_from_jsonable(entry["monitor"])
    deadlock = None
    if entry.get("deadlock") is not None:
        deadlock = DeadlockError({int(r): op for r, op in entry["deadlock"]})
    return JournaledResult(
        makespan=entry["makespan"],
        stats=dict(entry.get("stats") or {}),
        artifacts=artifacts,
        deadlock=deadlock,
        primary_errors={
            int(rank): _recorded_exception(name, msg)
            for rank, name, msg in entry.get("errors") or ()
        },
    )


def run_from_entry(entry: dict, obs=None) -> tuple:
    """A run record as ``DampiVerifier._consume`` takes a run: ``(result,
    trace, esc)``.  ``obs`` is the tracer payload that travelled beside
    a fleet worker's record; a journaled record has none."""
    result = result_from_entry(entry)
    if obs:
        result.artifacts["obs"] = obs
    return result, trace_from_jsonable(entry["trace"]), entry.get("esc")


def entry_schedule_key(entry: dict):
    """The canonical schedule identity of a run record (hashable; None
    for the self run) — what a record map is keyed by."""
    if entry.get("key") is None:
        return None
    return schedule_key(decisions_from_jsonable(entry["key"]))


# -- config identity -----------------------------------------------------------


def _jsonable_or_repr(value):
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def config_signature(
    nprocs: int,
    config,
    kwargs: Optional[dict] = None,
    prog_args: tuple = (),
) -> dict:
    """The semantic identity of a verification: resuming a journal under a
    different signature would silently mix two different searches.
    Program arguments are part of it — they change what executes.  Who
    executes does not: any journal of this verification — written
    in-process, by a fleet's coordinator, or as a fleet worker's memo of
    one leased subtree — holds valid runs of it."""
    sig = {"nprocs": nprocs}
    for name in SEMANTIC_CONFIG_FIELDS:
        value = getattr(config, name, None)
        if name == "policy" and not isinstance(value, str):
            value = f"<instance:{type(value).__name__}>"
        sig[name] = value
    cm = getattr(config, "cost_model", None)
    sig["cost_model"] = cm.as_dict() if isinstance(cm, Record) else repr(cm)
    sig["kwargs"] = _jsonable_or_repr(dict(kwargs) if kwargs else {})
    sig["args"] = _jsonable_or_repr(list(prog_args))
    return sig


def config_to_jsonable(config) -> Optional[dict]:
    """Full config dump for ``repro resume`` (None when not JSON-able,
    e.g. a policy instance — in-process resume still works; only the
    self-contained CLI path needs this)."""
    try:
        payload = config.as_dict()
        json.dumps(payload)
        return payload
    except (TypeError, ValueError):
        return None


# -- the journal ---------------------------------------------------------------


class CampaignJournal:
    """Append-only, group-committed, segment-rotated campaign journal.

    One instance serves one :meth:`~repro.dampi.verifier.DampiVerifier
    .verify` call: construct it on a directory (existing segments are
    loaded eagerly), hand it to ``verify(journal=...)``, and the verifier
    does the rest — validates the meta record, walks over the runs it
    holds, appends the ones it executes, and closes it on every exit
    path (a ``run`` appended since the last sync is on disk only once
    :meth:`close` has synced it).

    ``entries`` is the history *loaded at open*: what a resume, ``repro
    stats``, a coordinator's lease reload or a worker's memo read before
    the first append.  :meth:`append` writes a record and does not keep
    it — nothing in the writing process reads it back, and a campaign's
    memory must not grow with its length; re-open the directory to read
    what was written.
    """

    def __init__(
        self,
        root,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = True,
        program_label: Optional[str] = None,
    ):
        self.root = Path(root)
        self.segment_bytes = int(segment_bytes)
        self.fsync = fsync
        self.program_label = program_label
        self.meta: Optional[dict] = None
        self.entries: list[dict] = []
        #: the campaign's ``end`` record is in the journal
        self.complete = False
        self._tracer = None
        self._metrics = None
        self._fh = None
        self._segment_index = 0
        self._segment_written = 0
        self._synced_at = 0.0
        # loading never creates the directory: a read-only command pointed
        # at a typo must leave nothing behind (the first append makes it)
        self._load()

    @classmethod
    def open(cls, journal) -> "CampaignJournal":
        """Coerce a path or an existing journal into a journal."""
        return journal if isinstance(journal, CampaignJournal) else cls(journal)

    def bind(self, tracer=None, metrics=None) -> None:
        """Attach the campaign's telemetry sinks (journal events land in
        the ``journal.*`` namespace / ``journal_*`` trace events)."""
        self._tracer = tracer
        self._metrics = metrics

    # -- reading ---------------------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(self.root.glob("segment-[0-9]*.jsonl"))

    def _load(self) -> None:
        segments = self._segments()
        next_index = 0
        for path in segments:
            try:
                next_index = max(next_index, int(path.stem.split("-")[1]) + 1)
            except ValueError:
                raise JournalError(f"unrecognized segment name {path.name}")
            raw = path.read_bytes()
            # drop a torn tail: a complete append always ends in "\n"
            cut = raw.rfind(b"\n")
            raw = b"" if cut < 0 else raw[: cut + 1]
            for lineno, line in enumerate(raw.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except ValueError as e:
                    raise JournalError(
                        f"{path.name}:{lineno}: corrupt journal record: {e}"
                    ) from None
                if record.get("t") == "meta":
                    if self.meta is None:
                        self._check_version(record)
                        self.meta = record
                    continue
                self.entries.append(record)
                if record.get("t") == "end":
                    self.complete = True
        self._segment_index = next_index

    def _check_version(self, meta: dict) -> None:
        """Refuse another format version at load, before any reader (resume,
        ``repro stats``, dist reload) can misread its entries."""
        if meta.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal {self.root} has format version "
                f"{meta.get('version')!r}; this build reads and writes "
                f"version {JOURNAL_VERSION} only — finish that campaign "
                f"with the build that started it, or start over in a new "
                f"journal directory"
            )

    def run_entries(self) -> list[dict]:
        """The run records loaded at open, in the order they were written
        (which is not walk order when a fleet wrote them)."""
        return [e for e in self.entries if e.get("t") == "run"]

    # -- meta ------------------------------------------------------------------

    def ensure_meta(
        self,
        nprocs: int,
        config,
        kwargs: Optional[dict] = None,
        prog_args: tuple = (),
    ) -> None:
        """First call of a fresh journal writes the meta record; on a
        journal with history, validate that the semantics match."""
        sig = config_signature(nprocs, config, kwargs=kwargs, prog_args=prog_args)
        if self.meta is not None:
            old = dict(self.meta.get("signature") or {})
            if old != sig:
                raise JournalError(
                    f"journal {self.root} was recorded under different "
                    f"verification semantics; refusing to resume "
                    f"(journal: {old!r}, now: {sig!r})"
                )
            return
        self.meta = {
            "t": "meta",
            "version": JOURNAL_VERSION,
            "nprocs": nprocs,
            "signature": sig,
            "config": config_to_jsonable(config),
            "kwargs": _jsonable_or_repr(dict(kwargs) if kwargs else {}),
            "program": self.program_label,
        }
        self.append(self.meta)

    # -- writing ---------------------------------------------------------------

    def _open_segment(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / f"segment-{self._segment_index:05d}.jsonl"
        self._segment_index += 1
        self._segment_written = 0
        self._fh = open(path, "ab")

    def append(self, record: dict) -> None:
        """Append one record as a single ``write()`` plus ``flush``, so a
        process that dies after this returns loses nothing of it.
        ``meta``, ``lease``, ``lease_done`` and ``end`` are also fsync'd
        before this returns; a ``run`` is fsync'd only when
        :data:`RUN_SYNC_INTERVAL_SECONDS` have passed since the last sync
        (group commit: a ``run`` a machine crash loses is executed again,
        bit-identically, and the next sync covers it otherwise)."""
        if self._fh is None or self._segment_written >= self.segment_bytes:
            rotated = self._fh is not None
            self.close()
            self._open_segment()
            if rotated:
                if self._metrics is not None:
                    self._metrics.counter("journal.rotations").inc()
                if self._tracer is not None:
                    self._tracer.instant(
                        "journal_rotate", "journal", segment=self._segment_index - 1
                    )
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        fh = self._fh
        fh.write(data)
        fh.flush()
        self._segment_written += len(data)
        kind = record.get("t")
        if (
            kind != "run"
            or time.monotonic() - self._synced_at >= RUN_SYNC_INTERVAL_SECONDS
        ):
            self._sync(fh)
        if kind == "end":
            self.complete = True
        if self._metrics is not None:
            self._metrics.counter("journal.appends").inc()
            self._metrics.counter("journal.bytes").inc(len(data))

    def _sync(self, fh) -> None:
        if not self.fsync:
            return
        os.fsync(fh.fileno())
        self._synced_at = time.monotonic()
        if self._metrics is not None:
            self._metrics.counter("journal.syncs").inc()

    def close(self) -> None:
        """Flush and fsync the open segment (always: runs appended since
        the last sync reach the disk here) and close it.  Idempotent."""
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.flush()
            self._sync(fh)
            fh.close()

    def __del__(self):  # a last resort: every writer closes its journal
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"CampaignJournal({self.root}, {len(self.entries)} entries loaded"
            f"{', complete' if self.complete else ''})"
        )
