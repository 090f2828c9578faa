"""Coordinator: partition the decision tree, lease it out, assemble.

Architecture (paper §IV, "distributed DAMPI"): the coordinator executes
the self run, seeds a master :class:`ScheduleGenerator`, and converts its
open frontier into *leases* — disjoint subtree roots
(:meth:`~repro.dampi.explorer.ScheduleGenerator.take_subtree_leases`)
each of which one worker explores independently.  Workers stream back one
``record`` per completed run; candidate leases they *discover* (pinned-
prefix alternatives, work-steal donations) flow through the coordinator,
which dedups them against everything already issued
(:class:`~repro.dist.leases.LeaseTable`) and leases them onward.

Bit-identity
------------
The report is **assembled**, not accumulated.  Every global quantity in
a serial report — run indices, error dedup, ``error_kinds`` order,
subtree pruning, budget truncation — depends on the serial walk's
total order, which concurrent workers cannot reproduce.  So the
coordinator keeps records keyed by their canonical schedule
(:func:`~repro.dampi.journal.entry_schedule_key`) and *runs the serial
verify loop without executing anything*: the campaign's one walk
(``_Campaign.walk`` in :mod:`repro.dampi.verifier` — budgets,
``next_decisions()``, run numbering, the verifier's own
:meth:`~repro.dampi.verifier.DampiVerifier._consume`) driven by a source
that looks the schedule up in the record map instead of executing it.
The walk is a deterministic function of the records,
so the assembled report is bit-identical to serial ``verify()`` by
construction; a schedule no lease can still deliver is a hard
:class:`DistError` (coverage hole), never a silent gap.

Streaming and budgets
---------------------
The walk is *streaming*: it advances every time a record arrives, parks
on the first schedule no record covers yet, and it, not the lease table,
decides
when the campaign is over — the moment it is exhausted or reaches
``max_interleavings`` / ``max_seconds`` the fleet is shut down, whatever
leases are still open.  A budget therefore bounds the work done, not
just the report: leases are issued deepest-first, which is the order the
walk visits them, so the records a truncated walk needs come from the
first leases issued.  Records that arrive ahead of the walk wait in the
map and are released as the walk consumes them, so the map holds the
fleet's lead over the walk, not the campaign; records the walk never
asks for (a budget, or a subtree the assembly pruned and a worker did
not) are simply left there.

A run's tracer payload (``obs``: exact ``events.*`` counts, sampled raw
records) travels *beside* its run record in the ``record`` frame as one
packed string, waits in the map with it, and is decoded only when it is
handed to ``_consume``.  A payload is never journaled, so a record that comes out
of a journal contributes no events, exactly like a resumed run of an
in-process campaign — and that includes a worker's memo: a lease
re-issued after a worker death is served from memo hits, which carry no
``obs``, so a traced, journaled campaign that lost a worker can report
smaller ``events.*`` totals than serial (by the runs that worker had
journaled but whose ``record`` frames were not handled before it was
reaped).  ``events.*`` is fleet-size-invariant for campaigns without
deaths or resumes; every other deterministic namespace always is.

Durability
----------
With ``journal=``, the coordinator writes the one journal every driver
writes (:mod:`repro.dampi.journal`):

``run``         the self run's record, then every streamed record as it
                arrives — before the walk can take it
``lease``       a lease's id and spec, once, at first offer — before it
                can be dispatched
``lease_done``  a subtree fully explored
``end``         the walk is over (exhausted or out of budget), with the
                final counts

``resume`` = the campaign loads the ``run`` records into its record map,
this coordinator rebuilds the :class:`LeaseTable` from the lease ledger
and re-enqueues every non-done lease, and the walk continues — at any
fleet size, and from a journal any driver wrote (an in-process
``verify(journal=)`` reads the same directory and skips the ledger).
Workers memoize finished runs in per-lease journals of the same kind
(``shards/lease-<id>``), so a re-issued lease replays from disk instead
of re-executing.  A ``lease`` is fsync'd before it is dispatched; ``run``
records are group-committed, and the journal is closed (synced) on every
exit path, a raised one included.

Failure handling
----------------
Worker death is detected two ways: pipe EOF or a dead process (fast
path), and *progress* expiry — a worker holding a lease whose last
progress (a ``record``, ``discovered``, ``donate`` or ``lease_done``
frame) is older than ``config.dist_lease_timeout_seconds`` is killed and
replaced: that is how a replay wedged by a ``hang`` fault is caught.
Either way the worker's leases return to the queue and a replacement
process is spawned; a lease re-issued more than :data:`MAX_LEASE_ISSUES` times
aborts the campaign (a deterministic crash would loop forever).  A
replay lost this way is *re-executed*, never reported: only a run that
produced a record can put a finding in the report.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Optional

from repro.dampi.config import DampiConfig
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.journal import (
    CampaignJournal,
    entry_schedule_key,
    run_from_entry,
)
from repro.dampi.verifier import DampiVerifier, VerificationReport, _Campaign
from repro.dist import protocol
from repro.dist.leases import Lease, LeaseTable
from repro.dist.protocol import DistError, unpack_obs
from repro.dist.worker import worker_main
from repro.obs.metrics import NONDETERMINISTIC_PREFIXES

#: a lease assigned this many times without completing aborts the campaign
MAX_LEASE_ISSUES = 5

#: a busy worker is asked to ``steal`` at most this often
STEAL_INTERVAL_SECONDS = 0.5

#: the longest the coordinator blocks on its pipes: it wakes at least
#: this often (expiry, respawn, steals, progress)
POLL_SECONDS = 0.25


def _filtered_snapshot(snap: dict) -> dict:
    """Keep only environment (``exec.``/``dist.``/...) instruments of a
    worker's metrics snapshot: everything deterministic is recomputed by
    assembly, and merging it twice would double-count."""
    return {
        kind: {
            name: value
            for name, value in (snap.get(kind) or {}).items()
            if name.startswith(NONDETERMINISTIC_PREFIXES)
        }
        for kind in ("counters", "gauges", "histograms")
    }


@dataclass
class _WorkerState:
    """Coordinator-side view of one worker process."""

    id: int
    proc: object
    conn: object  # the coordinator's end of the worker's pipe
    alive: bool = True
    idle: bool = False
    runs: int = 0  # record frames received
    last_seen: float = 0.0  # any frame
    last_progress: float = 0.0
    leased_at: float = 0.0  # when its active lease was assigned
    last_steal_at: float = float("-inf")
    steal_outstanding: bool = False


class DistCoordinator:
    """One verification campaign run by a fleet: ``verifier`` supplies the
    program, the config and the consume step; ``workers`` processes supply
    the executions (``DampiVerifier.verify`` hands itself over when
    ``config.jobs > 1``)."""

    def __init__(
        self,
        verifier: DampiVerifier,
        workers: int = 2,
        journal=None,
        stream=None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        #: executes the self run, owns the consume step and the shared
        #: one-shot fault plan; workers rebuild their own from its type
        self.verifier = verifier
        self.config = verifier.config
        self.workers = int(workers)
        self.camp = _Campaign(verifier, stream=stream)
        self.telemetry = self.camp.telemetry
        #: fleet accounting (``dist.*``, merged worker ``exec.*``)
        #: lands straight in the report's registry
        self.metrics = self.telemetry.metrics
        self.table = LeaseTable()
        #: the campaign's record map holds what workers stream back
        self.journal: Optional[CampaignJournal] = self.camp.open_journal(journal)
        self._record_count = 0  # every streamed record frame (fault site)
        self._states: dict[int, _WorkerState] = {}  # worker id -> state
        self._next_worker_id = 0

    # -- journal ---------------------------------------------------------------

    def _journal_append(self, record: dict) -> None:
        if self.journal is not None:
            self.journal.append(record)

    def _reload(self) -> None:
        """Rebuild the lease table from a prior attempt's ledger (the
        campaign loaded the journal's runs when it opened it)."""
        if self.journal is None:
            return
        for e in self.journal.entries:
            t = e.get("t")
            if t == "lease":
                self.table.offer(e["spec"])
            elif t == "lease_done":
                self.table.mark_done(e["id"])

    def _offer(self, spec: dict) -> Optional[Lease]:
        """Admit a candidate lease; journal it exactly once, *before* it
        can ever be dispatched."""
        lease = self.table.offer(spec)
        if lease is not None:
            self._journal_append({"t": "lease", "id": lease.id, "spec": spec})
        return lease

    # -- campaign --------------------------------------------------------------

    def run(self) -> VerificationReport:
        try:
            return self._run()
        except BaseException:
            self.camp.abort()
            raise

    def _run(self) -> VerificationReport:
        cfg = self.config
        verifier, camp = self.verifier, self.camp
        self._reload()
        # the trace is augmented (escalation) before it is journaled:
        # resume and the walk then replay it deterministically
        run = camp.self_run()
        verifier.close()
        verifier._consume(camp, 0, None, *run)
        # a journal that already holds every record the walk asks for
        # (a finished campaign, or one whose budget it covers) needs no
        # fleet and gains no lease
        if not camp.walk(self._collected):
            # Enumerate the initial frontier.  On resume this re-derives
            # the same specs (deterministic function of the self trace)
            # and the table dedups them against the journaled ones.
            master = ScheduleGenerator(
                bound_k=cfg.bound_k, auto_loop_threshold=cfg.auto_loop_threshold
            )
            master.seed(run[1])
            for spec in master.take_subtree_leases():
                self._offer(spec)
            self._distribute()
        return self._finish()

    def _collected(self, decisions) -> Optional[tuple]:
        """The walk's source: the run the journal or a worker already
        delivered for this schedule, or None (the walk parks until a frame
        brings it)."""
        rec = self.camp.take(decisions)
        if rec is None:
            return None
        entry, obs = rec
        return run_from_entry(entry, unpack_obs(obs) if obs else None)

    # -- distribution ----------------------------------------------------------

    def _distribute(self) -> None:
        ctx = mp.get_context("fork")
        shards_dir = (
            str(self.journal.root / "shards") if self.journal is not None else None
        )
        self.metrics.gauge("dist.workers").set(self.workers)
        try:
            for _ in range(self.workers):
                self._spawn(ctx, shards_dir)
            faults = self.verifier._faults
            while not self.camp.walk(self._collected):
                if self.table.all_done:
                    # every frame of a lease precedes its lease_done, so
                    # nothing that could still arrive covers the schedule
                    raise DistError(
                        f"coverage hole: the deterministic walk asks for flip "
                        f"{self.camp.asked.flip} at run "
                        f"{self.camp.report.interleavings} but no "
                        f"worker record covers it ({len(self.camp.records)} records "
                        f"collected) — a lease finished without streaming all "
                        f"its runs"
                    )
                self._receive(POLL_SECONDS, faults)
                self._tick(ctx, shards_dir)
            self._shutdown_workers()
        finally:
            self._teardown()

    def _spawn(self, ctx, shards_dir) -> None:
        self._next_worker_id += 1
        wid = self._next_worker_id
        conn, worker_conn = ctx.Pipe()
        proc = ctx.Process(
            target=worker_main,
            args=(
                wid,
                worker_conn,
                # every coordinator end the fork copies into the child:
                # it closes them, so our death is its EOF
                [conn, *(s.conn for s in self._states.values())],
                type(self.verifier),
                self.verifier.program,
                self.verifier.nprocs,
                self.config,
                self.verifier.args,
                self.verifier.kwargs,
                self.verifier._spec_extra(),
                shards_dir,
            ),
            name=f"dist-worker-{wid}",
            daemon=True,
        )
        proc.start()
        # the worker holds the only copy of its end now: its exit is our EOF
        worker_conn.close()
        now = time.monotonic()
        self._states[wid] = _WorkerState(
            id=wid, proc=proc, conn=conn, last_seen=now, last_progress=now
        )

    # -- frame handling --------------------------------------------------------

    def _receive(self, timeout: float, faults, kinds=None) -> None:
        """Wait up to ``timeout`` seconds for any live worker's pipe, then
        handle every frame that is ready (only those of ``kinds``, if
        given); EOF reaps the worker."""
        live = {s.conn: s for s in self._states.values() if s.alive}
        for conn in wait(list(live), timeout):
            state = live[conn]
            try:
                while state.alive:
                    frame = protocol.recv(conn)
                    if kinds is None or frame.get("t") in kinds:
                        self._handle(state, frame, faults)
                    if not conn.poll():
                        break
            except (EOFError, OSError):
                if state.alive:
                    self._worker_died(state)

    def _handle(self, state: _WorkerState, frame: dict, faults) -> None:
        now = time.monotonic()
        state.last_seen = now
        t = frame.get("t")
        if t == "need_lease":
            state.idle = True
        elif t == "record":
            self._record_count += 1
            if faults:
                faults.fire("coord", (self._record_count,), metrics=self.metrics)
            state.runs += 1
            state.last_progress = now
            entry = frame["entry"]
            key = entry_schedule_key(entry)
            records = self.camp.records
            if key is None or key in records:
                self.metrics.inc("dist.duplicate_records")
            else:
                self._journal_append({"t": "run", **entry})
                records[key] = (entry, frame.get("obs"))
                self.camp.executed += 1
                self.metrics.inc("dist.records")
        elif t == "discovered":
            state.last_progress = now
            for spec in frame.get("leases") or ():
                if self._offer(spec) is not None:
                    self.metrics.inc("dist.discovered_leases")
        elif t == "donate":
            state.steal_outstanding = False
            state.last_progress = now
            donated = 0
            for spec in frame.get("leases") or ():
                if self._offer(spec) is not None:
                    donated += 1
            if donated:
                self.metrics.inc("dist.steals")
                self.metrics.inc("dist.stolen_leases", donated)
        elif t == "lease_done":
            state.last_progress = now
            if self.table.complete(frame["id"]) is not None:
                self._journal_append({"t": "lease_done", "id": frame["id"]})
        elif t == "bye":
            snap = frame.get("metrics")
            if snap:
                self.metrics.merge_snapshot(_filtered_snapshot(snap))
            blob = frame.get("events")
            if blob:
                # worker lifecycle events (lease spans, memo hits): merged
                # like a run's payload, with the worker id as their run;
                # timestamps stay on the worker's own clock
                records = unpack_obs(blob)["records"]
                self.metrics.inc("dist.worker_events", len(records))
                self.telemetry.tracer.emit_raw(records, run=state.id)
            state.alive = False

    def _worker_died(self, state: _WorkerState) -> None:
        state.alive = False
        state.idle = False
        self.metrics.inc("dist.worker_deaths")
        released = self.table.release_worker(state.id)
        if released:
            self.metrics.inc("dist.leases_released", len(released))
        state.conn.close()
        if state.proc.is_alive():
            state.proc.terminate()
        state.proc.join(timeout=5)

    # -- periodic work ---------------------------------------------------------

    def _tick(self, ctx, shards_dir) -> None:
        now = time.monotonic()
        timeout = self.config.dist_lease_timeout_seconds
        # progress-based expiry: kill and replace wedged workers
        for state in self._states.values():
            if not state.alive:
                continue
            holding = self.table.active_for(state.id)
            expired = holding and now - state.last_progress > timeout
            if expired or not state.proc.is_alive():
                if expired:
                    self.metrics.inc("dist.leases_expired", len(holding))
                self._worker_died(state)
        # keep the fleet at strength while work remains
        if not self.table.all_done:
            alive = sum(1 for s in self._states.values() if s.alive)
            for _ in range(self.workers - alive):
                self._spawn(ctx, shards_dir)
        # hand pending leases to idle workers
        for state in self._states.values():
            if not (state.alive and state.idle):
                continue
            lease = self.table.next_pending()
            if lease is None:
                break
            if lease.issues >= MAX_LEASE_ISSUES:
                raise DistError(
                    f"lease {lease.id} failed {lease.issues} assignments "
                    f"(root flip {lease.spec['flip_key']} alt "
                    f"{lease.spec['alt']}); a worker dies deterministically "
                    f"inside this subtree — giving up"
                )
            self.table.assign(lease, state.id)
            state.idle = False
            state.last_progress = state.leased_at = time.monotonic()
            self.metrics.inc("dist.leases_issued")
            if lease.issues > 1:
                self.metrics.inc("dist.leases_reissued")
            self._send(state, {"t": "lease", "id": lease.id, "spec": lease.spec})
        # work stealing: idle capacity + empty queue -> split the busy
        # worker that has held its lease longest
        if (
            self.table.pending_count == 0
            and self.table.active_count > 0
            and any(s.alive and s.idle for s in self._states.values())
        ):
            victims = [
                s
                for s in self._states.values()
                if s.alive
                and not s.steal_outstanding
                and self.table.active_for(s.id)
                and now - s.last_steal_at > STEAL_INTERVAL_SECONDS
            ]
            if victims:
                victim = min(victims, key=lambda s: s.leased_at)
                victim.steal_outstanding = True
                victim.last_steal_at = now
                self.metrics.inc("dist.steal_requests")
                self._send(victim, {"t": "steal"})
        if self.telemetry.progress is not None:
            # an idle worker waits on us: it has no lag to show
            self.telemetry.progress.merge_tick(
                [
                    {
                        "worker": s.id,
                        "runs": s.runs,
                        "seen": None if s.idle else s.last_seen,
                    }
                    for s in self._states.values()
                    if s.alive
                ],
                active_leases=self.table.active_count,
                pending_leases=self.table.pending_count,
            )

    def _send(self, state: _WorkerState, frame: dict) -> None:
        try:
            protocol.send(state.conn, frame)
        except OSError:
            pass  # its EOF reaps it

    # -- shutdown --------------------------------------------------------------

    def _shutdown_workers(self) -> None:
        """The walk is over: tell every worker to stop (mid-lease ones
        included) and collect their ``bye`` accounting — and any
        ``lease_done`` already on the wire, so the ledger of a campaign
        that ended with its last record shows that lease closed.  Records
        still in flight are not needed any more and are dropped unread."""
        waiting = [s for s in self._states.values() if s.alive]
        for state in waiting:
            self._send(state, {"t": "shutdown"})
        deadline = time.monotonic() + 10
        while any(s.alive for s in waiting) and time.monotonic() < deadline:
            self._receive(0.1, None, kinds=("bye", "lease_done"))

    def _teardown(self) -> None:
        for state in self._states.values():
            state.conn.close()
            if state.proc.is_alive():
                state.proc.terminate()
            state.proc.join(timeout=5)

    # -- report ----------------------------------------------------------------

    def _finish(self) -> VerificationReport:
        return self.camp.finish(
            {
                "mode": "dist",
                "workers": self.workers,
                "leases": len(self.table.leases),
                # guided replays' records, streamed or journaled
                "records": sum(1 for key in self.camp.records if key is not None),
                "worker_deaths": self.metrics.counter("dist.worker_deaths").value,
            }
        )


def distributed_verify(
    program,
    nprocs: int,
    config: Optional[DampiConfig] = None,
    workers: int = 2,
    journal=None,
    args: tuple = (),
    kwargs: Optional[dict] = None,
    stream=None,
) -> VerificationReport:
    """Verify ``program`` with the decision tree sharded across
    ``workers`` processes, on any host (``DampiVerifier.verify`` with
    ``jobs > 1`` keeps a single-CPU host in-process; this does not);
    returns a report bit-identical to the serial
    :meth:`DampiVerifier.verify` (modulo ``wall_seconds`` and the
    environment-dependent telemetry namespaces)."""
    verifier = DampiVerifier(program, nprocs, config, args=args, kwargs=kwargs)
    return DistCoordinator(
        verifier, workers=workers, journal=journal, stream=stream
    ).run()

