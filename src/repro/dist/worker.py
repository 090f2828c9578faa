"""Shard worker: explore one leased subtree at a time.

A worker is an ordinary OS process (spawned by the coordinator today,
but connecting over TCP so it could equally run on another host).  Its
life is a loop: ask for a lease, seed a fresh
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
nothing.  Steal requests — and ``shutdown``, which ends a lease where it
stands once the coordinator's walk is over — are checked between
replays, never mid-run.

Death handling is symmetrical: the worker ``os._exit(0)``\\ s the moment
its socket to the coordinator drops (no orphan exploration), and the
coordinator expires a worker whose *progress* stalls past the lease
timeout — heartbeats alone do not count as progress, so a hung replay
(e.g. an injected ``hang`` fault) is detected even though the heartbeat
thread keeps beating.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
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
from repro.dist.protocol import pack_obs, send_frame, start_reader
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
        sock: socket.socket,
        verifier,
        shards_dir,
        campaign_config,
    ):
        self.worker_id = worker_id
        self.sock = sock
        self.send_lock = threading.Lock()
        self.inbox: queue.Queue = queue.Queue()
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
        self._lease_id: Optional[str] = None
        self._gen: Optional[ScheduleGenerator] = None
        self._alive = True
        #: the coordinator said ``shutdown`` while a lease was running
        self._stop = False

    # -- plumbing --------------------------------------------------------------

    def _send(self, payload: dict) -> None:
        try:
            send_frame(self.sock, payload, self.send_lock)
        except OSError:
            # Coordinator gone: nothing useful left to do.  Exit hard so
            # no half-finished exploration outlives the campaign.
            os._exit(0)

    def _next_frame(self) -> Optional[dict]:
        _tag, frame = self.inbox.get()
        return frame

    def _heartbeat_loop(self, interval: float) -> None:
        while self._alive:
            time.sleep(interval)
            if not self._alive:
                return
            gen = self._gen
            stats = gen.stats() if gen is not None else {}
            self._send(
                {
                    "t": "hb",
                    "runs": self._runs,
                    "open": stats.get("open_alternatives", 0),
                    "depth": stats.get("path_length", 0),
                    "lease": self._lease_id,
                }
            )

    def _drain_inbox(self, gen: Optional[ScheduleGenerator]) -> None:
        """Between replays: answer steal requests, note a shutdown, die
        on coordinator EOF."""
        while True:
            try:
                _tag, frame = self.inbox.get_nowait()
            except queue.Empty:
                return
            if frame is None:
                os._exit(0)
            if frame.get("t") == "steal":
                leases = gen.split_deepest() if gen is not None else []
                self._send({"t": "donate", "leases": leases})
            elif frame.get("t") == "shutdown":
                self._stop = True

    @staticmethod
    def _discovery_specs(gen: ScheduleGenerator, discoveries) -> list:
        specs = []
        for idx, sources in discoveries:
            node = gen.path[idx]
            prefix = gen.prefix_rows(idx)
            # the discovered sources are already marked tried, so this
            # union covers them plus everything known before — exactly
            # what sibling subtrees must not re-discover
            covered = sorted(node.tried | node.alternatives)
            for src in sources:
                specs.append(
                    {
                        "prefix": prefix,
                        "flip_key": list(node.key),
                        "flip_order": list(node.order),
                        "alt": src,
                        "covered": covered,
                    }
                )
        return specs

    # -- main loop -------------------------------------------------------------

    def run(self) -> None:
        start_reader(self.sock, "coord", self.inbox)
        self._send({"t": "hello", "worker": self.worker_id, "pid": os.getpid()})
        threading.Thread(
            target=self._heartbeat_loop,
            args=(protocol.HEARTBEAT_SECONDS,),
            name=f"dist-hb-{self.worker_id}",
            daemon=True,
        ).start()
        while not self._stop:
            self._send({"t": "need_lease"})
            while True:
                frame = self._next_frame()
                if frame is None:
                    os._exit(0)
                if frame.get("t") == "steal":
                    self._send({"t": "donate", "leases": []})
                    continue
                break
            if frame.get("t") == "shutdown":
                break
            if frame.get("t") == "lease":
                self._explore(frame["id"], frame["spec"])
        self._alive = False
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
        self._gen = gen
        self._lease_id = lease_id_
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
                self._drain_inbox(gen)
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
                    self._send(
                        {
                            "t": "discovered",
                            "leases": self._discovery_specs(gen, discoveries),
                        }
                    )
                decisions = gen.next_decisions()
        finally:
            self._gen = None
            self._lease_id = None
            if tracer is not None:
                tracer.complete(
                    "lease", "dist", lease_t0, lease=lease_id_, runs=self._runs
                )
            if journal is not None:
                journal.close()
        self._send({"t": "lease_done", "id": lease_id_})


def worker_main(
    worker_id: int,
    host: str,
    port: int,
    verifier_cls,
    program,
    nprocs: int,
    config,
    args: tuple = (),
    kwargs: Optional[dict] = None,
    ctor_extra: Optional[dict] = None,
    shards_dir=None,
) -> None:
    """Process entry point (target of the coordinator's ``mp.Process``):
    rebuild the coordinator's verifier — same class, same extra
    constructor state (``DampiVerifier._spec_extra``) — under
    :func:`shard_config` and explore leases with it."""
    sock = socket.create_connection((host, port))
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass
    verifier = verifier_cls(
        program, nprocs, shard_config(config), args=args, kwargs=kwargs,
        **(ctor_extra or {}),
    )
    worker = _ShardWorker(worker_id, sock, verifier, shards_dir, config)
    try:
        worker.run()
    finally:
        worker.verifier.close()
        try:
            sock.close()
        except OSError:
            pass
