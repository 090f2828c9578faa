"""``jobs > 1``: the serial-vs-parallel determinism guarantee.

The headline property: for any program and any ``jobs`` setting the
verification report is *bit-identical* to the serial walk — the fleet
only executes schedules; the coordinator assembles them in the order the
serial DFS asks for them.  ``verify(jobs=N)`` keeps a single-CPU host
in-process, so the tests that must see worker processes on any host go
through ``distributed_verify(workers=N)``, the same coordinator.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.decisions import schedule_key
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.verifier import DampiVerifier
from repro.dist import distributed_verify
from repro.errors import AbortError, DeadlockError
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.matching import ArrivalPolicy
from repro.workloads.bugzoo import ZOO
from repro.workloads.patterns import wildcard_lattice

from tests.test_explorer import trace_with


def _report_fingerprint(report):
    """Everything the determinism property compares between jobs settings."""
    return {
        "interleavings": report.interleavings,
        "outcomes": report.outcomes,
        "errors": {(e.kind, e.detail) for e in report.errors},
        "error_indices": sorted((e.kind, e.run_index) for e in report.errors),
        "flips": [r.flip for r in report.runs],
        "run_outcomes": [r.outcome for r in report.runs],
        "run_errors": [r.error_kinds for r in report.runs],
        "divergences": report.divergences,
        "truncated": report.truncated,
    }


class TestSerialParallelDeterminism:
    """Satellite: jobs=1 and jobs=4 must produce identical reports."""

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_reports_identical(self, entry):
        cfg = DampiConfig(max_interleavings=40)
        serial = DampiVerifier(entry.program, entry.nprocs, cfg).verify()
        parallel = DampiVerifier(
            entry.program, entry.nprocs, cfg.replace(jobs=4)
        ).verify()
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)

    @pytest.mark.parametrize("bound_k", [0, 1, None])
    def test_lattice_identical_across_bounds(self, bound_k):
        # distributed_verify: actually exercise worker processes even on
        # a single-CPU host (where jobs>1 would stay in-process)
        cfg = DampiConfig(bound_k=bound_k)
        kwargs = {"receives": 3, "senders": 3}
        serial = DampiVerifier(wildcard_lattice, 4, cfg, kwargs=kwargs).verify()
        parallel = distributed_verify(
            wildcard_lattice, 4, cfg, workers=4, kwargs=kwargs
        )
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)
        assert parallel.parallel_stats["mode"] == "dist"
        assert parallel.parallel_stats["workers"] == 4

    def test_budget_truncation_identical(self):
        cfg = DampiConfig(max_interleavings=7)
        kwargs = {"receives": 3, "senders": 3}
        serial = DampiVerifier(wildcard_lattice, 4, cfg, kwargs=kwargs).verify()
        parallel = DampiVerifier(
            wildcard_lattice, 4, cfg.replace(jobs=3), kwargs=kwargs
        ).verify()
        assert serial.truncated and parallel.truncated
        assert _report_fingerprint(serial) == _report_fingerprint(parallel)


class TestFrontierBatch:
    """next_decision_batch(): pending schedules without state mutation."""

    def _seeded(self, bound_k=None):
        g = ScheduleGenerator(bound_k=bound_k)
        g.seed(
            trace_with(
                [(0, 0, 1), (0, 1, 1), (1, 2, 0)],
                [(0, 0, 2), (0, 0, 3), (0, 1, 2), (1, 2, 3)],
            )
        )
        return g

    def test_first_element_is_next_decisions(self):
        g = self._seeded()
        batch = g.next_decision_batch(8)
        d = g.next_decisions()
        assert schedule_key(batch[0]) == schedule_key(d)

    def test_batch_is_pure(self):
        g = self._seeded()
        a = [schedule_key(d) for d in g.next_decision_batch(8)]
        b = [schedule_key(d) for d in g.next_decision_batch(8)]
        assert a == b

    def test_unbounded_batch_stays_on_deepest_node(self):
        g = self._seeded(bound_k=None)
        batch = g.next_decision_batch(8)
        # deepest node (1,2) has exactly one alternative; with mixing
        # allowed the wave must not speculate across nodes
        assert [d.flip for d in batch] == [(1, 2)]

    def test_k0_batch_roams_all_open_nodes(self):
        g = self._seeded(bound_k=0)
        batch = g.next_decision_batch(8)
        # k=0: every open node's flips form one wave (4 alternatives total)
        assert [d.flip for d in batch] == [(1, 2), (0, 1), (0, 0), (0, 0)]

    def test_width_caps_the_wave(self):
        g = self._seeded(bound_k=0)
        assert len(g.next_decision_batch(2)) == 2

    def test_empty_iff_exhausted(self):
        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1)], []))
        assert g.next_decision_batch(4) == []
        assert g.next_decisions() is None

    def test_sibling_schedules_match_later_serial_requests(self):
        # the guarantee the executor's cache is built on: every schedule in
        # the wave is eventually requested verbatim by the serial walk
        g = self._seeded(bound_k=0)
        speculated = {schedule_key(d) for d in g.next_decision_batch(16)}
        requested = set()
        while True:
            d = g.next_decisions()
            if d is None:
                break
            requested.add(schedule_key(d))
            epochs = [
                (r, lc, d.forced.get((r, lc), 1))
                for (r, lc) in [(0, 0), (0, 1), (1, 2)]
            ]
            g.integrate(trace_with(epochs, []))
        assert speculated <= requested


def _lattice_body(p):
    if p.rank == 0:
        got = []
        for _ in range(p.size - 1):
            got.append(p.world.recv(source=ANY_SOURCE))
        return tuple(sorted(got))
    p.world.send(bytes([p.rank]), dest=0)
    return None


class TestWorkerPoolDegradation:
    def test_closure_program_and_policy_instance_match_serial(self):
        """Workers are forked, so nothing about the campaign is pickled:
        a closure program and a policy *instance* run on the fleet like
        anything else."""
        captured = []

        def program(p):
            captured.append(p.rank)
            return _lattice_body(p)

        cfg = DampiConfig(policy=ArrivalPolicy())
        fleet = distributed_verify(program, 4, cfg, workers=2)
        assert fleet.parallel_stats["mode"] == "dist"
        serial = DampiVerifier(program, 4, cfg.replace(jobs=1)).verify()
        assert _report_fingerprint(fleet) == _report_fingerprint(serial)
        # and through the front door, wherever this host sends jobs=2
        jobs2 = DampiVerifier(program, 4, cfg.replace(jobs=2)).verify()
        assert _report_fingerprint(jobs2) == _report_fingerprint(serial)

    def test_single_cpu_hosts_auto_demote_with_reason(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        report = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(jobs=4), kwargs={"receives": 2, "senders": 2}
        ).verify()
        stats = report.parallel_stats
        assert stats["mode"] == "inline" and stats["jobs"] == 4
        assert stats["demoted"] and "single-CPU host" in stats["demote_reason"]
        gauges = report.telemetry["metrics"]["gauges"]
        assert gauges["exec.demoted"] and gauges["exec.jobs"] == 4
        serial = DampiVerifier(
            wildcard_lattice, 4, DampiConfig(jobs=1), kwargs={"receives": 2, "senders": 2}
        ).verify()
        assert not serial.parallel_stats["demoted"]
        assert _report_fingerprint(report) == _report_fingerprint(serial)


class TestPicklingSupport:
    def test_deadlock_error_roundtrip(self):
        e = DeadlockError({0: "recv(src=1)", 1: "recv(src=0)"})
        e2 = pickle.loads(pickle.dumps(e))
        assert e2.blocked == e.blocked and str(e2) == str(e)

    def test_abort_error_roundtrip(self):
        e = AbortError(3, errorcode=9)
        e2 = pickle.loads(pickle.dumps(e))
        assert (e2.rank, e2.errorcode) == (3, 9) and str(e2) == str(e)


class TestTelemetryDeterminism:
    """Satellite: telemetry must not break the jobs-independence contract.

    Deterministic metric namespaces (engine.*, pb.*, campaign.*, run.*)
    derive from consumed runs only, and consumed runs are bit-identical
    across jobs settings — so the totals must be too.  Environment-
    dependent numbers (exec.*, wall.*) are excluded by design.
    """

    def _verify(self, jobs):
        cfg = DampiConfig(trace_events=True)
        kwargs = {"receives": 2, "senders": 3}
        if jobs == 1:
            return DampiVerifier(wildcard_lattice, 4, cfg, kwargs=kwargs).verify()
        return distributed_verify(
            wildcard_lattice, 4, cfg, workers=jobs, kwargs=kwargs
        )

    def test_jobs2_metrics_totals_match_serial(self):
        from repro.obs.metrics import deterministic_view

        serial = self._verify(1)
        pooled = self._verify(2)
        assert _report_fingerprint(serial) == _report_fingerprint(pooled)
        assert deterministic_view(
            serial.telemetry["metrics"]
        ) == deterministic_view(pooled.telemetry["metrics"])

    def test_jobs2_run_events_match_serial(self):
        from repro.obs.trace import event_signature

        def consumed_run_events(report):
            # dist-category events come from the fleet itself and are
            # jobs-dependent by nature; everything else must match
            return event_signature(
                e for e in report.events if e.cat != "dist"
            )

        serial = self._verify(1)
        pooled = self._verify(2)
        assert consumed_run_events(serial) == consumed_run_events(pooled)
