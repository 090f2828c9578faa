"""The distributed verification service: lease partitioning, the wire
protocol, and the end-to-end coordinator/worker bit-identity guarantee.

The headline property mirrors the parallel engine's, one level up: for
any program and any ``--workers`` setting (including the degenerate
1-worker fleet and a fleet larger than the subtree count) the assembled
report is *bit-identical* to the serial ``DampiVerifier.verify`` —
sharding changes who executes a schedule, never which schedules exist.
"""

from __future__ import annotations

import io
import json
import multiprocessing
from collections import deque

import pytest

from repro.adlb import adlb_run, batch_app
from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions, schedule_key
from repro.dampi.explorer import DecisionNode, ScheduleGenerator
from repro.dampi.journal import entry_schedule_key, result_from_entry, run_entry
from repro.dampi.verifier import DampiVerifier
from repro.dist import (
    DistCoordinator,
    DistError,
    distributed_verify,
    lease_id,
    lease_key,
    lease_root_decisions,
)
from repro.dist.leases import LeaseTable
from repro.dist.worker import shard_config
from repro.mpi.constants import ANY_SOURCE
from repro.obs.metrics import deterministic_view
from repro.obs.stats import journal_progress
from repro.obs.trace import event_signature
from repro.workloads.bugzoo import ZOO, buffer_too_small, head_to_head_recv
from repro.workloads.matmult import matmult_program
from repro.workloads.patterns import wildcard_lattice

from benchmarks.comparators.isp import IspVerifier
from tests.test_journal import BIG, LATTICE, _canon
from tests.test_parallel import _report_fingerprint


def _spec(alt, flip_key=(1, 0), prefix=()):
    return {
        "prefix": [list(row) for row in prefix],
        "flip_key": list(flip_key),
        "flip_order": [1, flip_key[0], flip_key[1]],
        "alt": alt,
    }


# -- lease identity and the lease table ---------------------------------------


class TestLeases:
    def test_root_decisions_force_prefix_plus_flip(self):
        spec = _spec(2, flip_key=(0, 1), prefix=[[[0, 0], [1, 0, 0], 0, 0]])
        d = lease_root_decisions(spec)
        assert d.forced == {(0, 0): 0, (0, 1): 2}
        assert d.flip == (0, 1)

    def test_root_decisions_skip_unforced_prefix_rows(self):
        # chosen < 0 marks a prefix node with no forced source (the self
        # run decided); it must not appear in the decision file
        spec = _spec(1, prefix=[[[0, 0], [1, 0, 0], -1, 0]])
        assert (0, 0) not in lease_root_decisions(spec).forced

    def test_lease_id_is_stable_and_discriminates(self):
        a, b = _spec(1), _spec(2)
        assert lease_id(a) == lease_id(a)
        assert len(lease_id(a)) == 12
        assert lease_id(a) != lease_id(b)
        assert lease_key(a) != lease_key(b)

    def test_seed_prefix_agrees_with_lease_root_decisions(self):
        spec = _spec(2, flip_key=(0, 1), prefix=[[[0, 0], [1, 0, 0], 0, 0]])
        gen = ScheduleGenerator()
        seeded = gen.seed_prefix(
            spec["prefix"], spec["flip_key"], spec["flip_order"], spec["alt"]
        )
        root = lease_root_decisions(spec)
        assert schedule_key(seeded) == schedule_key(root)
        assert all(n.pinned for n in gen.path)

    def test_offer_dedups_by_root_schedule(self):
        table = LeaseTable()
        assert table.offer(_spec(1)) is not None
        assert table.offer(_spec(1)) is None  # same subtree root
        assert table.offer(_spec(2)) is not None
        assert table.pending_count == 2

    def test_released_leases_requeue_at_the_front(self):
        table = LeaseTable()
        a = table.offer(_spec(1))
        table.offer(_spec(2))
        c = table.offer(_spec(3))
        assert table.next_pending() is a
        table.assign(a, worker=7)
        assert a.issues == 1 and a.worker == 7
        table.release_worker(7)  # worker died holding `a`
        assert table.next_pending() is a  # ahead of b and c
        table.assign(a, worker=8)
        assert a.issues == 2
        # the rest of the queue is undisturbed
        assert table.next_pending().spec["alt"] == 2
        assert table.next_pending() is c

    def test_complete_is_idempotent_and_drives_all_done(self):
        table = LeaseTable()
        a = table.offer(_spec(1))
        table.assign(table.next_pending(), worker=1)
        assert not table.all_done
        assert table.complete(a.id) is a
        assert table.complete(a.id) is None  # duplicate lease_done frame
        assert table.all_done and table.done_count == 1

    def test_mark_done_replays_journal_state(self):
        table = LeaseTable()
        a = table.offer(_spec(1))
        table.mark_done(a.id)
        assert table.all_done
        assert table.next_pending() is None


# -- generator prefix API ------------------------------------------------------


def _node(key, chosen, alts, **kw):
    return DecisionNode(
        key=key,
        order=(1, key[0], key[1]),
        chosen=chosen,
        tried={chosen},
        alternatives={chosen} | set(alts),
        **kw,
    )


def _synthetic_gen(nodes):
    gen = ScheduleGenerator()
    gen._seeded = True
    gen.path = list(nodes)
    return gen


class TestGeneratorPartitionAPI:
    def test_take_subtree_leases_claims_frontier_deepest_first(self):
        gen = _synthetic_gen(
            [_node((0, 0), 0, {1}), _node((1, 0), 0, {1, 2})]
        )
        leases = gen.take_subtree_leases()
        # deepest node's alternatives first, then the shallow node's
        assert [(tuple(s["flip_key"]), s["alt"]) for s in leases] == [
            ((1, 0), 1),
            ((1, 0), 2),
            ((0, 0), 1),
        ]
        # prefixes stop short of the flipped node; the row's covered set
        # carries everything the master accounts for there
        assert leases[0]["prefix"] == [[[0, 0], [1, 0, 0], 0, False, [0, 1]]]
        assert leases[0]["covered"] == [0, 1, 2]
        assert leases[2]["prefix"] == []
        # everything claimed: the local walk has nothing left
        assert gen.take_subtree_leases() == []
        assert all(not n.untried for n in gen.path)

    def test_take_subtree_leases_skips_frozen_and_pinned(self):
        gen = _synthetic_gen(
            [
                _node((0, 0), 0, {1}, frozen=True),
                _node((1, 0), 0, {1}, pinned=True),
            ]
        )
        assert gen.take_subtree_leases() == []

    def test_split_deepest_never_donates_itself_idle(self):
        gen = _synthetic_gen([_node((0, 0), 0, {1})])
        assert gen.split_deepest() == []  # one alternative total: keep it

    def test_split_deepest_donates_upper_half(self):
        gen = _synthetic_gen([_node((0, 0), 0, {1, 2, 3})])
        donated = gen.split_deepest()
        assert [s["alt"] for s in donated] == [2, 3]
        assert gen.path[0].untried == {1}  # victim keeps the lower half

    def test_pinned_discoveries_reported_exactly_once(self):
        pinned = _node((0, 0), 0, set(), pinned=True)
        gen = _synthetic_gen([pinned])
        pinned.alternatives |= {1, 2}  # as integrate() would discover
        assert gen.take_pinned_discoveries() == [(0, [1, 2])]
        assert gen.take_pinned_discoveries() == []  # marked tried


# -- run entries over the wire -------------------------------------------------


class TestProtocolEntries:
    def test_deadlock_round_trip(self):
        v = DampiVerifier(head_to_head_recv, 2, DampiConfig())
        try:
            result, trace = v.run_once(None)
        finally:
            v.close()
        assert result.deadlocked
        entry = json.loads(json.dumps(run_entry(None, result, trace)))
        rebuilt = result_from_entry(entry)
        assert rebuilt.deadlocked
        assert rebuilt.deadlock.blocked == result.deadlock.blocked
        assert str(rebuilt.deadlock) == str(result.deadlock)
        assert entry_schedule_key(entry) is None  # self run

    def test_error_rows_round_trip_names_and_messages(self):
        v = DampiVerifier(buffer_too_small, 2, DampiConfig())
        try:
            result, trace = v.run_once(None)
        finally:
            v.close()
        assert result.primary_errors
        entry = json.loads(json.dumps(run_entry(None, result, trace)))
        rebuilt = result_from_entry(entry)
        assert set(rebuilt.primary_errors) == set(result.primary_errors)
        for rank, exc in result.primary_errors.items():
            remote = rebuilt.primary_errors[rank]
            assert type(remote).__name__ == type(exc).__name__
            assert str(remote) == str(exc)
        # rebuilt exception classes are cached: equal names, same type
        again = result_from_entry(entry)
        rank = next(iter(rebuilt.primary_errors))
        assert type(again.primary_errors[rank]) is type(
            rebuilt.primary_errors[rank]
        )

    def test_entry_schedule_key_matches_canonical_key(self):
        d = EpochDecisions(forced={(0, 1): 2}, flip=(0, 1))
        v = DampiVerifier(wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE)
        try:
            _res, trace = v.run_once(None)
            gen = ScheduleGenerator()
            gen.seed(trace)
            decisions = gen.next_decisions()
            result, rtrace = v.run_once(decisions)
        finally:
            v.close()
        entry = json.loads(json.dumps(run_entry(decisions, result, rtrace)))
        assert entry_schedule_key(entry) == schedule_key(decisions)
        assert entry_schedule_key(entry) != schedule_key(d)


# -- the partition property ----------------------------------------------------


def _serial_schedule_keys(entry_program, nprocs, cfg, kwargs=None):
    """The schedules the serial DFS executes, in order."""
    v = DampiVerifier(entry_program, nprocs, cfg, kwargs=kwargs)
    keys = []
    try:
        _res, trace = v.run_once(None)
        gen = ScheduleGenerator(
            bound_k=cfg.bound_k, auto_loop_threshold=cfg.auto_loop_threshold
        )
        gen.seed(trace)
        decisions = gen.next_decisions()
        while decisions is not None:
            keys.append(schedule_key(decisions))
            _res, trace = v.run_once(decisions)
            gen.integrate(trace)
            decisions = gen.next_decisions()
    finally:
        v.close()
    return keys


def _partitioned_schedule_keys(entry_program, nprocs, cfg, depth, kwargs=None,
                               steal=False):
    """The schedules a distributed campaign executes, reproduced
    in-process: partition the self run's frontier into leases, explore
    each leased subtree with a prefix-seeded generator, route pinned
    discoveries (and, at ``depth > 1``, re-partitions of the subtree's
    own frontier — or ``split_deepest`` donations when ``steal``) back
    through the coordinator-side dedup."""
    v = DampiVerifier(entry_program, nprocs, cfg, kwargs=kwargs)
    keys = []
    try:
        _res, trace = v.run_once(None)
        master = ScheduleGenerator(
            bound_k=cfg.bound_k, auto_loop_threshold=cfg.auto_loop_threshold
        )
        master.seed(trace)
        seen, pending = set(), deque()

        def offer(spec):
            k = lease_key(spec)
            if k not in seen:
                seen.add(k)
                pending.append(spec)

        for spec in master.take_subtree_leases():
            offer(spec)
        while pending:
            spec = pending.popleft()
            gen = ScheduleGenerator(
                bound_k=cfg.bound_k, auto_loop_threshold=cfg.auto_loop_threshold
            )
            decisions = gen.seed_prefix(
                spec["prefix"],
                spec["flip_key"],
                spec["flip_order"],
                spec["alt"],
                covered=spec.get("covered", ()),
            )
            splits = depth - 1
            while decisions is not None:
                keys.append(schedule_key(decisions))
                _res, trace = v.run_once(decisions)
                gen.integrate(trace)
                for index, sources in gen.take_pinned_discoveries():
                    for s in gen.lease_specs(index, sources):
                        offer(s)
                if splits > 0:
                    donated = (
                        gen.split_deepest() if steal else gen.take_subtree_leases()
                    )
                    for s in donated:
                        offer(s)
                    splits -= 1
                decisions = gen.next_decisions()
    finally:
        v.close()
    return keys


class TestPartitionProperty:
    """Satellite: the union of runs produced by exploring any prefix
    partition of the decision tree equals the serial enumeration — no
    schedule lost, none duplicated — at every re-partitioning depth."""

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_partitions_cover_exactly(self, entry):
        cfg = DampiConfig()
        serial = sorted(_serial_schedule_keys(entry.program, entry.nprocs, cfg))
        for depth in (1, 2, 3):
            part = _partitioned_schedule_keys(
                entry.program, entry.nprocs, cfg, depth
            )
            assert len(part) == len(set(part)), (entry.name, depth)
            assert sorted(part) == serial, (entry.name, depth)

    @pytest.mark.parametrize("kwargs", [LATTICE, BIG], ids=["lattice", "big"])
    def test_stealing_partitions_cover_exactly(self, kwargs):
        nprocs = 3 if kwargs is LATTICE else 4
        cfg = DampiConfig()
        serial = sorted(
            _serial_schedule_keys(wildcard_lattice, nprocs, cfg, kwargs=kwargs)
        )
        for depth in (2, 3):
            part = _partitioned_schedule_keys(
                wildcard_lattice, nprocs, cfg, depth, kwargs=kwargs, steal=True
            )
            assert len(part) == len(set(part))
            assert sorted(part) == serial

    def test_bounded_walks_partition_too(self):
        cfg = DampiConfig(bound_k=1)
        serial = sorted(
            _serial_schedule_keys(wildcard_lattice, 4, cfg, kwargs=BIG)
        )
        part = _partitioned_schedule_keys(
            wildcard_lattice, 4, cfg, 2, kwargs=BIG
        )
        assert sorted(part) == serial


# -- end to end over the fleet's pipes ----------------------------------------


def _exec_totals(report):
    counters = report.telemetry["metrics"]["counters"]
    return {k: v for k, v in counters.items() if k.startswith("exec.")}


class TestDistributedBitIdentity:
    """THE acceptance property: ``repro dist run --workers N`` must match
    the serial walk bit for bit."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_lattice_identical_across_fleets(self, workers):
        cfg = DampiConfig()
        serial = DampiVerifier(
            wildcard_lattice, 4, cfg, kwargs=BIG
        ).verify()
        dist = distributed_verify(
            wildcard_lattice, 4, cfg, workers=workers, kwargs=BIG
        )
        assert _canon(dist) == _canon(serial)
        assert _report_fingerprint(dist) == _report_fingerprint(serial)
        assert deterministic_view(dist.telemetry["metrics"]) == deterministic_view(
            serial.telemetry["metrics"]
        )
        assert dist.parallel_stats["mode"] == "dist"
        assert dist.parallel_stats["workers"] == workers
        assert dist.parallel_stats["worker_deaths"] == 0

    def test_more_workers_than_subtrees(self):
        # 4 interleavings / 3 leases with an 8-worker fleet: the surplus
        # workers idle politely and the report is still exact
        cfg = DampiConfig()
        serial = DampiVerifier(
            wildcard_lattice, 3, cfg, kwargs=LATTICE
        ).verify()
        dist = distributed_verify(
            wildcard_lattice, 3, cfg, workers=8, kwargs=LATTICE
        )
        assert _canon(dist) == _canon(serial)

    def test_exec_totals_are_worker_count_independent(self):
        cfg = DampiConfig()
        totals = [
            _exec_totals(
                distributed_verify(
                    wildcard_lattice, 3, cfg, workers=w, kwargs=LATTICE
                )
            )
            for w in (1, 2, 4)
        ]
        assert totals[0] == totals[1] == totals[2]
        assert totals[0]["exec.replays"] > 0

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_identical(self, entry):
        cfg = DampiConfig()
        serial = DampiVerifier(entry.program, entry.nprocs, cfg).verify()
        dist = distributed_verify(entry.program, entry.nprocs, cfg, workers=2)
        assert _canon(dist) == _canon(serial)
        assert _report_fingerprint(dist) == _report_fingerprint(serial)

    def test_budget_truncation_identical(self):
        cfg = DampiConfig(max_interleavings=7)
        serial = DampiVerifier(
            wildcard_lattice, 4, cfg, kwargs=BIG
        ).verify()
        dist = distributed_verify(
            wildcard_lattice, 4, cfg, workers=2, kwargs=BIG
        )
        assert serial.truncated and dist.truncated
        assert _canon(dist) == _canon(serial)

    def test_matmult_identical(self):
        cfg = DampiConfig()
        serial = DampiVerifier(matmult_program, 3, cfg).verify()
        dist = distributed_verify(matmult_program, 3, cfg, workers=3)
        assert _canon(dist) == _canon(serial)

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            distributed_verify(wildcard_lattice, 3, DampiConfig(), workers=0)


def late_sender_behind_a_flip(p):
    """Rank 3's message to rank 0 is a late sender for rank 0's first
    wildcard only when rank 3's own wildcard is flipped to rank 4.

    Self run: rank 3 matches rank 0's ``go``, sent after rank 0's first
    wildcard, so rank 3's reply is causally after that epoch.  Flipping
    rank 3 to rank 4 (whose message depends on nothing rank 0 did) makes
    the reply concurrent with it.  The epoch of rank 0 is shallower than
    rank 3's in the decision path, so a fleet leases rank 3's flip with
    rank 0's node pinned, and the worker reports the new alternative
    upstream as a ``discovered`` lease; the crash lives only there.  Needs
    vector clocks: under Lamport the reply carries rank 3's tick, whose
    value is never below the shallower epoch's, so it is judged causally
    after (docs/DISTRIBUTED.md, "Pinned discoveries")."""
    if p.rank == 0:
        x = p.world.recv(source=ANY_SOURCE)
        if x == 3:
            raise RuntimeError("BUG: rank 3 overtook rank 1")
        p.world.send("go", dest=3)
        p.world.recv(source=ANY_SOURCE)
    elif p.rank == 1:
        p.world.send(1, dest=0)
        p.world.recv(source=4)
        p.world.send("pong", dest=4)
    elif p.rank == 3:
        p.world.recv(source=ANY_SOURCE)
        p.world.send(3, dest=0)
    elif p.rank == 4:
        p.world.send("ping", dest=1)
        p.world.recv(source=1)
        p.world.send(4, dest=3)


class TestPinnedDiscoveries:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_discovered_lease_found_and_report_identical(self, workers):
        cfg = DampiConfig(clock_impl="vector")
        serial = DampiVerifier(late_sender_behind_a_flip, 5, cfg).verify()
        assert [e.kind for e in serial.errors] == ["crash"]
        dist = distributed_verify(late_sender_behind_a_flip, 5, cfg, workers=workers)
        assert dist.telemetry["metrics"]["counters"]["dist.discovered_leases"] >= 1
        assert _canon(dist) == _canon(serial)

    def test_lamport_clocks_discover_nothing(self):
        dist = distributed_verify(late_sender_behind_a_flip, 5, DampiConfig(), workers=2)
        assert "dist.discovered_leases" not in dist.telemetry["metrics"]["counters"]
        assert not dist.errors


def adlb_batch(p):
    """The Fig. 9 batch app over one ADLB server: at 6 ranks its k=1 walk
    is tens of thousands of replays — the campaign only a budget ends."""
    return adlb_run(p, batch_app, num_servers=1, units_per_worker=1)


def _fleet_child(conn, cfg, workers):
    report = distributed_verify(adlb_batch, 6, cfg, workers=workers)
    conn.send(
        (_canon(report), report.telemetry["metrics"]["counters"]["dist.records"])
    )
    conn.close()


def _fleet_within(seconds, cfg, workers):
    """``(canonical report, dist.records)`` of an ADLB fleet campaign run
    in a sacrificial child, which is killed — failing the test — if the
    campaign has not ended after ``seconds``: a budget the fleet ignores
    does not end on its own."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_fleet_child, args=(send, cfg, workers))
    proc.start()
    send.close()
    try:
        assert recv.poll(seconds), f"fleet still exploring after {seconds}s"
        return recv.recv()
    finally:
        proc.kill()
        proc.join(30)


class TestBudgetsBoundWork:
    """The walk, not the lease table, ends the campaign: a budget stops
    the fleet as soon as the report it defines is complete."""

    BUDGET = 100

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_interleaving_budget_identical_and_bounded(self, workers):
        cfg = DampiConfig(bound_k=1, max_interleavings=self.BUDGET)
        serial = DampiVerifier(adlb_batch, 6, cfg).verify()
        assert serial.truncated and serial.interleavings == self.BUDGET
        canon, records = _fleet_within(60, cfg, workers)
        assert canon == _canon(serial)
        # leases go out in walk order, so the fleet runs at most a few
        # leases ahead of what the report needs
        assert records <= 5 * self.BUDGET

    def test_max_seconds_truncates_and_terminates(self):
        cfg = DampiConfig(bound_k=1, max_seconds=1.0)
        canon, _records = _fleet_within(60, cfg, 2)
        assert canon["truncated"] and canon["interleavings"] > 1


class TestFleetCarriesTheVerifier:
    def test_isp_baseline_fleet_matches_isp_serial(self):
        """Workers rebuild ``type(verifier)``: the baseline's scheduler
        tax is in every worker's makespans."""
        cfg = DampiConfig()
        serial = IspVerifier(wildcard_lattice, 4, cfg, kwargs=BIG).verify()
        fleet = DistCoordinator(
            IspVerifier(wildcard_lattice, 4, cfg, kwargs=BIG), workers=2
        ).run()
        assert _canon(fleet) == _canon(serial)
        dampi = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(clock_impl="vector"), kwargs=BIG
        ).verify()
        assert fleet.total_vtime > dampi.total_vtime  # the tax was paid

    @pytest.mark.parametrize("sample_every", [1, 4])
    def test_run_events_travel_with_their_records(self, sample_every):
        cfg = DampiConfig(trace_events=True, trace_sample_every=sample_every)
        serial = DampiVerifier(matmult_program, 3, cfg).verify()
        fleet = distributed_verify(matmult_program, 3, cfg, workers=2)
        # events.* included: exact counts at any sampling rate
        view = deterministic_view(fleet.telemetry["metrics"])
        assert view == deterministic_view(serial.telemetry["metrics"])
        assert any(name.startswith("events.") for name in view["counters"])

        def run_events(report):
            return event_signature(
                e for e in report.events if e.cat not in ("dist", "sched")
            )

        assert run_events(fleet) == run_events(serial)
        # the workers' lifecycle events share the stream; dist.worker_events
        # counts them
        events = dict(fleet.telemetry["events"])
        events["captured"] -= fleet.telemetry["metrics"]["counters"][
            "dist.worker_events"
        ]
        for key in ("captured", "dropped", "sampled_runs"):
            assert events[key] == serial.telemetry["events"][key]

    def test_progress_is_one_merged_fleet_line(self):
        buf = io.StringIO()
        cfg = DampiConfig(progress_interval_seconds=0)
        distributed_verify(
            wildcard_lattice, 3, cfg, workers=2, kwargs=LATTICE, stream=buf
        )
        lines = buf.getvalue().splitlines()
        assert any(line.startswith("[dampi dist] workers 2 | runs ") for line in lines)


class TestDistributedJournal:
    def test_journal_resume_replays_without_reexecution(self, tmp_path):
        cfg = DampiConfig()
        jdir = tmp_path / "dist-j"
        first = distributed_verify(
            wildcard_lattice, 3, cfg, workers=2, kwargs=LATTICE,
            journal=jdir,
        )
        progress = journal_progress(jdir)
        assert progress["complete"]
        assert progress["leases_done"] == progress["leases"] > 0
        assert progress["runs"] == first.journal_stats["executed"]
        resumed = distributed_verify(
            wildcard_lattice, 3, cfg, workers=2, kwargs=LATTICE,
            journal=jdir,
        )
        assert _canon(resumed) == _canon(first)
        assert resumed.journal_stats["executed"] == 0
        assert resumed.journal_stats["replayed"] == first.journal_stats["executed"]


class TestShardConfig:
    def test_execution_knobs_normalized_semantics_kept(self):
        cfg = DampiConfig(
            jobs=4, max_interleavings=9, bound_k=2,
            trace_events=True, progress_interval_seconds=1.0,
        )
        sc = shard_config(cfg)
        assert sc.jobs == 1
        assert sc.max_interleavings is None and sc.max_seconds is None
        assert sc.progress_interval_seconds is None
        assert sc.trace_events  # a run's events ship with its record
        assert sc.bound_k == 2  # semantic knobs untouched
        assert sc.clock_impl == cfg.clock_impl
