"""Shard worker: explore one leased subtree at a time.

A worker is a single-threaded process the coordinator forks, talking to
it over the one pipe it inherits.  Its life is a loop: ask for a lease, seed a fresh
:class:`~repro.dampi.explorer.ScheduleGenerator` with the leased prefix
(:meth:`~repro.dampi.explorer.ScheduleGenerator.seed_prefix`), then walk
the subtree exactly like the serial verify loop — ``run_once`` →
``integrate`` → ``next_decisions`` — streaming one ``record`` frame per
completed run and finishing with ``lease_done``.

Two deliberate deviations from the serial loop:

* **Pinned prefix.**  Alternatives discovered at prefix nodes belong to
  other shards; they are reported upstream as ``discovered`` candidate
  leases (the coordinator dedups them against everything already
  issued) instead of being explored locally.
* **Durable memo.**  Each lease gets its own journal directory
  (``shards/lease-<id>``): an ordinary journal of the campaign — its
  signature, its ``run`` entries — holding the runs of one subtree.  A
  lease re-issued after a worker death replays its finished work from
  there instead of re-executing it, and the directory resumes as a
  campaign like any other journal.

Work stealing: when the coordinator sends ``steal``, the worker splits
the deepest open node of its current subtree
(:meth:`~repro.dampi.explorer.ScheduleGenerator.split_deepest`) and
donates the upper half as new lease specs; an idle worker donates
nothing.  The pipe is polled between replays, never mid-run, for
``steal`` and for ``shutdown``, which ends a lease where it stands once
the coordinator's walk is over; an idle worker blocks on it.

Death handling is symmetrical: the worker ``os._exit(0)``\\ s once its
coordinator is gone (no orphan exploration) — EOF on a receive, or a
broken pipe on a send, a send blocked on a full pipe included; the
worker closes every coordinator end its fork copied, so only the
coordinator holds the other end of its pipe — and the coordinator
expires a worker whose *progress* stalls past the lease timeout, which
is how a hung replay (e.g. an injected ``hang`` fault) is caught.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from typing import Optional

from repro.dampi import prune as prune_mod
from repro.dampi.decisions import schedule_key
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.journal import (
    CampaignJournal,
    entry_schedule_key,
    run_entry,
    run_from_entry,
)
from repro.dist import protocol
from repro.dist.protocol import pack_obs
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def shard_config(config):
    """The config a worker verifies its subtree under.

    Semantic knobs (clock, piggyback, bound, policy, ...) pass through
    untouched — they define what a run *is* — and so do the event-tracing
    knobs: a run's events are part of what it ships.  Execution knobs are
    normalized: one inline job per worker (the worker process *is* the
    parallelism), no budgets (budgets are properties of the serial walk,
    which the coordinator runs and ends the fleet by), no per-worker
    progress lines (the coordinator prints its own).  A worker's runs
    reach disk only as journal ``run`` records: its lease memo's and,
    once streamed back, the coordinator's.  The fault plan travels along so
    ``worker:*`` sites fire inside the right process.
    """
    return replace(
        config,
        jobs=1,
        progress_interval_seconds=None,
        max_interleavings=None,
        max_seconds=None,
    )


class _ShardWorker:
    def __init__(
        self,
        worker_id: int,
        conn,
        verifier,
        shards_dir,
        campaign_config,
    ):
        self.worker_id = worker_id
        #: this worker's end of its pipe to the coordinator
        self.conn = conn
        self.verifier = verifier
        self.config = verifier.config
        #: the config the campaign was started with (before
        #: :func:`shard_config`): what a memo's signature is made of
        self.campaign_config = campaign_config
        self.metrics = MetricsRegistry()
        #: worker-lifecycle events (lease spans, memo hits), shipped
        #: upstream in the bye frame; these are about the *worker's* walk
        #: — a verified run's own events travel with its record.  Recorded
        #: only when the campaign has a stream to merge them into (the
        #: condition ``CampaignTelemetry`` builds its tracer on)
        self.tracer: Optional[Tracer] = (
            Tracer(buffer=4096)
            if self.config.trace_events
            and self.config.trace_sample_every is not None
            else None
        )
        self.shards_dir = Path(shards_dir) if shards_dir else None
        #: lifetime replay counter — the ``worker:<id>.<seq>`` fault
        #: selector (1-based, memo hits included: "before consuming")
        self._seq = 0
        self._runs = 0
        #: the coordinator said ``shutdown`` while a lease was running
        self._stop = False

    # -- plumbing --------------------------------------------------------------

    def _send(self, frame: dict) -> None:
        try:
            protocol.send(self.conn, frame)
        except OSError:
            # Coordinator gone: nothing useful left to do.  Exit hard so
            # no half-finished exploration outlives the campaign.
            os._exit(0)

    def _receive(self, timeout: Optional[float]) -> Optional[dict]:
        """The coordinator's next frame, or None when none arrives within
        ``timeout`` seconds (``None``: block until one does).  Exits on
        EOF: the coordinator is gone."""
        try:
            if self.conn.poll(timeout):
                return protocol.recv(self.conn)
        except (EOFError, OSError):
            os._exit(0)
        return None

    def _poll(self, gen: ScheduleGenerator) -> None:
        """Between replays: answer steal requests, note a shutdown."""
        while (frame := self._receive(0)) is not None:
            if frame.get("t") == "steal":
                self._send({"t": "donate", "leases": gen.split_deepest()})
            elif frame.get("t") == "shutdown":
                self._stop = True

    # -- main loop -------------------------------------------------------------

    def run(self) -> None:
        while not self._stop:
            self._send({"t": "need_lease"})
            frame = self._receive(None)
            while frame.get("t") == "steal":
                self._send({"t": "donate", "leases": []})
                frame = self._receive(None)
            if frame.get("t") == "shutdown":
                break
            if frame.get("t") == "lease":
                self._explore(frame["id"], frame["spec"])
        bye = {
            "t": "bye",
            "stats": {"runs": self._runs},
            "metrics": self.metrics.snapshot(),
        }
        if self.tracer is not None:
            bye["events"] = pack_obs(self.tracer.collect())
        self._send(bye)

    def _explore(self, lease_id_: str, spec: dict) -> None:
        # Pruning in a shard is a pure walk shortcut: the worker's
        # signature map at any unpinned subtree node is a subset of the
        # assembly generator's at the same node (stamped from the same
        # subtree runs, in the same DFS order), so every schedule the
        # worker prunes away is one the assembly walk provably never
        # requests — no coverage hole, just replays not executed.
        gen = ScheduleGenerator(
            bound_k=self.config.bound_k,
            auto_loop_threshold=self.config.auto_loop_threshold,
            prune=self.config.prune,
        )
        tracer = self.tracer
        lease_t0 = tracer.now() if tracer is not None else 0.0
        decisions = gen.seed_prefix(
            spec["prefix"],
            spec["flip_key"],
            spec["flip_order"],
            spec["alt"],
            covered=spec.get("covered", ()),
        )
        journal = None
        memo: dict = {}
        if self.shards_dir is not None:
            journal = CampaignJournal(self.shards_dir / f"lease-{lease_id_}")
            journal.ensure_meta(
                self.verifier.nprocs,
                self.campaign_config,
                kwargs=self.verifier.kwargs,
                prog_args=self.verifier.args,
            )
            memo = {entry_schedule_key(e): e for e in journal.run_entries()}
        try:
            while decisions is not None:
                self._seq += 1
                self.verifier._faults.fire("worker", (self.worker_id, self._seq))
                self._poll(gen)
                if self._stop:
                    return  # the walk is over; the subtree stays open
                entry = memo.get(schedule_key(decisions))
                obs = None
                if entry is not None:
                    self.metrics.inc("exec.memo_hits")
                    if tracer is not None:
                        tracer.instant(
                            "memo_hit", "dist", run=self._runs, lease=lease_id_
                        )
                    result, trace, _esc = run_from_entry(entry)
                else:
                    # escalated BEFORE the trace is journaled or streamed:
                    # the memo, the coordinator, and the assembly all
                    # inherit the augmented alternatives for free
                    result, trace, esc = self.verifier._execute(decisions)
                    entry = run_entry(decisions, result, trace, esc=esc)
                    # the tracer payload rides beside the record, never in
                    # it: journals (and thus memo hits) carry no events
                    obs = result.artifacts.get("obs")
                    if journal is not None:
                        journal.append({"t": "run", **entry})
                    self.metrics.inc("exec.replays")
                self._runs += 1
                frame = {"t": "record", "lease": lease_id_, "entry": entry}
                if obs:
                    frame["obs"] = pack_obs(obs)
                self._send(frame)
                gen.integrate(
                    trace,
                    signature=(
                        prune_mod.signature_of(result, trace)
                        if self.config.prune
                        else None
                    ),
                )
                discoveries = gen.take_pinned_discoveries()
                if discoveries:
                    specs = [
                        spec
                        for index, sources in discoveries
                        for spec in gen.lease_specs(index, sources)
                    ]
                    self._send({"t": "discovered", "leases": specs})
                decisions = gen.next_decisions()
        finally:
            if tracer is not None:
                tracer.complete(
                    "lease", "dist", lease_t0, lease=lease_id_, runs=self._runs
                )
            if journal is not None:
                journal.close()
        self._send({"t": "lease_done", "id": lease_id_})


def worker_main(
    worker_id: int,
    conn,
    coordinator_ends,
    verifier_cls,
    program,
    nprocs: int,
    config,
    args: tuple = (),
    kwargs: Optional[dict] = None,
    shards_dir=None,
) -> None:
    """Process entry point (target of the coordinator's forked
    ``mp.Process``; ``conn`` is the worker's end of its pipe): rebuild the
    coordinator's verifier — same class, so a subclass's modules ride
    along — under :func:`shard_config` and explore leases with it.

    ``coordinator_ends`` are the coordinator's ends of this pipe and of
    every live sibling's, copied into this process by the fork.  They are
    closed first: then the coordinator's process holds the only copy of
    this pipe's other end, and its death is EOF here."""
    for end in coordinator_ends:
        end.close()
    verifier = verifier_cls(
        program, nprocs, shard_config(config), args=args, kwargs=kwargs,
    )
    worker = _ShardWorker(worker_id, conn, verifier, shards_dir, config)
    try:
        worker.run()
    finally:
        worker.verifier.close()
        conn.close()
