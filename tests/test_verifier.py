"""End-to-end verification: coverage, error finding, witnesses, bounds."""

from dataclasses import replace

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.decisions import EpochDecisions
from repro.dampi.verifier import DampiVerifier, measure_slowdown
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.runtime import Runtime
from repro.workloads.patterns import (
    WildcardBugError,
    deadlock_program,
    fig3_program,
    fig4_program,
    fig10_program,
    orphan_resources_program,
    wildcard_lattice,
)

from tests.kept_traces import TraceKeepingVerifier


class TestCoverage:
    @pytest.mark.parametrize("receives,senders", [(1, 2), (2, 2), (2, 3), (3, 2)])
    def test_lattice_full_coverage(self, receives, senders):
        rep = DampiVerifier(
            wildcard_lattice,
            senders + 1,
            kwargs={"receives": receives, "senders": senders},
        ).verify()
        assert rep.interleavings == senders**receives
        assert len(rep.outcomes) == senders**receives

    def test_no_redundant_runs_on_lattice(self):
        rep = DampiVerifier(
            wildcard_lattice, 4, kwargs={"receives": 2, "senders": 3}
        ).verify()
        # every run produced a distinct outcome: the walk is non-redundant
        assert rep.interleavings == len(rep.outcomes) == 9

    def test_deterministic_program_single_run(self):
        def prog(p):
            if p.rank == 0:
                p.world.send("x", dest=1)
            else:
                p.world.recv(source=0)

        rep = DampiVerifier(prog, 2).verify()
        assert rep.interleavings == 1
        assert rep.wildcards_analyzed == 0
        assert rep.ok

    def test_inline_piggyback_same_coverage(self):
        cfg = DampiConfig(piggyback="inline")
        rep = DampiVerifier(
            wildcard_lattice, 4, cfg, kwargs={"receives": 2, "senders": 3}
        ).verify()
        assert rep.interleavings == 9


class TestErrorFinding:
    def test_fig3_heisenbug_found_with_witness(self):
        rep = DampiVerifier(fig3_program, 3).verify()
        crashes = [e for e in rep.errors if e.kind == "crash"]
        assert len(crashes) == 1
        assert "WildcardBugError" in crashes[0].detail
        wit = crashes[0].decisions
        assert wit is not None and wit.forced == {(1, 0): 2}

    def test_fig3_witness_replays_the_bug(self):
        rep = DampiVerifier(fig3_program, 3).verify()
        wit = rep.errors[0].decisions
        v = DampiVerifier(fig3_program, 3)
        result, _ = v.run_once(EpochDecisions(forced=dict(wit.forced), flip=wit.flip))
        assert any(
            isinstance(e, WildcardBugError) for e in result.primary_errors.values()
        )

    def test_deadlock_reported_once(self):
        rep = DampiVerifier(deadlock_program, 2).verify()
        assert len(rep.deadlocks) == 1
        assert rep.interleavings == 1  # no wildcards: nothing to explore

    def test_error_dedup_across_runs(self):
        """The same leak fires every run; the report lists it once."""
        rep = DampiVerifier(
            wildcard_lattice, 3, kwargs={"receives": 2, "senders": 2}
        ).verify()
        rep2 = DampiVerifier(orphan_resources_program, 3).verify()
        kinds = [e.kind for e in rep2.errors]
        assert kinds.count("request_leak") == 1

    def test_leaks_reported(self):
        rep = DampiVerifier(orphan_resources_program, 3).verify()
        assert any(e.kind == "communicator_leak" for e in rep.errors)
        assert any(e.kind == "request_leak" for e in rep.errors)
        assert rep.leak_report.has_comm_leak
        assert rep.leak_report.has_request_leak


class TestClockImplComparison:
    def test_fig4_lamport_incomplete(self):
        rep = DampiVerifier(fig4_program, 4, DampiConfig(clock_impl="lamport")).verify()
        assert rep.interleavings == 1  # cross matches invisible to LC

    def test_fig4_vector_complete(self):
        rep = DampiVerifier(fig4_program, 4, DampiConfig(clock_impl="vector")).verify()
        assert rep.interleavings == 3
        assert rep.deadlocks  # the cross matchings starve a receive

    def test_vector_coverage_superset_of_lamport(self):
        for kwargs in ({"receives": 2, "senders": 2}, {"receives": 3, "senders": 2}):
            rl = DampiVerifier(
                wildcard_lattice, 3, DampiConfig(clock_impl="lamport"), kwargs=kwargs
            ).verify()
            rv = DampiVerifier(
                wildcard_lattice, 3, DampiConfig(clock_impl="vector"), kwargs=kwargs
            ).verify()
            assert rl.outcomes <= rv.outcomes


class TestMonitor:
    def test_fig10_omission_alert(self):
        rep = DampiVerifier(fig10_program, 3).verify()
        assert rep.monitor_report.triggered
        alert = rep.monitor_report.alerts[0]
        assert alert.rank == 1 and alert.operation == "barrier"

    def test_fig10_bug_is_indeed_missed(self, single_commit):
        """The monitor exists because the paper's single-commit clock
        cannot explore the alternate match here — confirm the omission
        under that reference (no crash found, 1 interleaving, the alert)."""
        rep = DampiVerifier(fig10_program, 3).verify()
        assert rep.interleavings == 1
        assert not any(e.kind == "crash" for e in rep.errors)
        assert rep.monitor_report.triggered

    def test_clean_program_no_alerts(self):
        rep = DampiVerifier(
            wildcard_lattice, 3, kwargs={"receives": 2, "senders": 2}
        ).verify()
        assert not rep.monitor_report.triggered


class TestBudgets:
    def test_max_interleavings_truncates(self):
        cfg = DampiConfig(max_interleavings=5)
        rep = DampiVerifier(
            wildcard_lattice, 4, cfg, kwargs={"receives": 3, "senders": 3}
        ).verify()
        assert rep.interleavings == 5
        assert rep.truncated

    def test_exact_budget_not_flagged_truncated(self):
        cfg = DampiConfig(max_interleavings=4)
        rep = DampiVerifier(
            wildcard_lattice, 3, cfg, kwargs={"receives": 2, "senders": 2}
        ).verify()
        assert rep.interleavings == 4
        assert not rep.truncated

    def test_bound_k_zero_linear(self):
        cfg = DampiConfig(bound_k=0)
        rep = DampiVerifier(
            wildcard_lattice, 4, cfg, kwargs={"receives": 4, "senders": 3}
        ).verify()
        # 1 self run + 4 epochs x 2 alternatives each
        assert rep.interleavings == 1 + 4 * 2

    def test_bound_k_monotone(self):
        counts = []
        for k in (0, 1, 2, None):
            cfg = DampiConfig(bound_k=k)
            rep = DampiVerifier(
                wildcard_lattice, 4, cfg, kwargs={"receives": 3, "senders": 3}
            ).verify()
            counts.append(rep.interleavings)
        assert counts == sorted(counts)
        assert counts[-1] == 27


class TestReport:
    def test_summary_mentions_errors(self):
        rep = DampiVerifier(fig3_program, 3).verify()
        text = rep.summary()
        assert "ERRORS" in text and "crash" in text

    def test_summary_clean(self):
        rep = DampiVerifier(
            wildcard_lattice, 3, kwargs={"receives": 1, "senders": 2}
        ).verify()
        assert "no errors found" in rep.summary()

    def test_keep_traces(self):
        v = TraceKeepingVerifier(
            wildcard_lattice, 3, kwargs={"receives": 2, "senders": 2}
        )
        rep = v.verify()
        assert len(v.traces) == rep.interleavings

    def test_run_records(self):
        rep = DampiVerifier(
            wildcard_lattice, 3, kwargs={"receives": 2, "senders": 2}
        ).verify()
        assert rep.runs[0].flip is None  # self run
        assert all(r.flip is not None for r in rep.runs[1:])


class _FreshRuntimeVerifier(DampiVerifier):
    """The reference the verifier's one runtime is held to: a new Runtime
    (new engine, new modules, new rank threads) for every run."""

    def run_once(self, decisions=None):
        cfg = self.config
        with Runtime(
            self.nprocs,
            self.program,
            modules=self._build_modules(decisions),
            policy=cfg.policy,
            cost_model=cfg.cost_model,
            args=self.args,
            kwargs=self.kwargs,
            tracer=self._run_tracer,
        ) as runtime:
            result = runtime.run()
        return result, result.artifacts["dampi"]


class TestPersistentSession:
    """A verifier runs every execution on one runtime (one tool stack, one
    set of parked rank threads, a fresh engine per run).  That is a pure
    optimisation — its reports must be bit-identical to
    fresh-runtime-per-run execution (:class:`_FreshRuntimeVerifier`), and
    no state may bleed between the runs it hosts."""

    def _fp(self, rep):
        from tests.test_parallel import _report_fingerprint

        return _report_fingerprint(rep)

    def test_pooled_reports_bit_identical_to_fresh(self):
        kwargs = {"receives": 3, "senders": 3}
        pooled = DampiVerifier(wildcard_lattice, 4, kwargs=kwargs).verify()
        fresh = _FreshRuntimeVerifier(wildcard_lattice, 4, kwargs=kwargs).verify()
        assert self._fp(pooled) == self._fp(fresh)

    def test_pooled_error_finding_bit_identical_to_fresh(self):
        pooled = DampiVerifier(fig3_program, 3).verify()
        fresh = _FreshRuntimeVerifier(fig3_program, 3).verify()
        assert self._fp(pooled) == self._fp(fresh)
        assert (
            pooled.errors[0].decisions.forced == fresh.errors[0].decisions.forced
        )

    def test_same_verification_twice_identical(self):
        # a second full verification (its own runtime) observes nothing of
        # the first — the runtime is closed with the verifier
        reps = [DampiVerifier(fig3_program, 3).verify() for _ in range(2)]
        assert self._fp(reps[0]) == self._fp(reps[1])

    def test_one_runtime_and_pool_serve_every_run(self):
        v = DampiVerifier(
            wildcard_lattice, 3, kwargs={"receives": 2, "senders": 2}
        )
        try:
            v.run_once()  # the self run already starts the rank threads
            runtime = v._runtime
            pool = runtime._pool
            for _ in range(2):
                v.run_once()
                assert v._runtime is runtime  # recycled, not rebuilt
                assert runtime._pool is pool
            assert pool.generations == 3
        finally:
            v.close()
        assert v._runtime is None and runtime._pool is None

    def test_policy_instance_uses_session(self):
        """A policy instance is one object whether the runtime is recycled
        or rebuilt, so a seeded campaign runs on the verifier's one runtime
        like any other and walks exactly as a fresh runtime per run does."""
        from repro.mpi.matching import SeededRandomPolicy

        kwargs = {"receives": 3, "senders": 3}

        def config():
            return DampiConfig(policy=SeededRandomPolicy(7))

        v = DampiVerifier(wildcard_lattice, 4, config(), kwargs=kwargs)
        try:
            v.run_once()
            runtime = v._runtime
            v.run_once()
            assert v._runtime is runtime
            assert runtime._pool.generations == 2
        finally:
            v.close()
        pooled = DampiVerifier(wildcard_lattice, 4, config(), kwargs=kwargs).verify()
        fresh = _FreshRuntimeVerifier(
            wildcard_lattice, 4, config(), kwargs=kwargs
        ).verify()
        assert self._fp(pooled) == self._fp(fresh)
        # the walk the fresh-runtime-per-run path gives, pinned
        a, b, c = (0, 0), (0, 1), (0, 2)
        assert pooled.interleavings == len(pooled.outcomes) == 25
        assert not pooled.errors and not pooled.truncated
        assert [r.flip for r in pooled.runs] == [
            None, c, c, b, c, c, b, c, c, a, c, c, b, c, c, b, c, c, a,
            c, c, b, b, c, c,
        ]
        assert pooled.runs[0].outcome == frozenset({(a, 1), (b, 2), (c, 1)})


class TestMeasureSlowdown:
    def test_reports_fields(self):
        def prog(p):
            if p.rank == 0:
                p.world.recv(source=ANY_SOURCE)
            else:
                p.world.send(1, dest=0)

        m = measure_slowdown(prog, 2)
        assert m["slowdown"] >= 1.0
        assert m["wildcards"] == 1
        assert not m["comm_leak"] and not m["request_leak"]
