"""Prune before you replay: subtree pruning + adaptive clock escalation.

The two load-bearing contracts (see ALGORITHM.md §4):

- **findings bit-identity** — a pruned campaign reports exactly the
  errors an unpruned one does, zoo-wide, at any ``--jobs`` setting and
  any distributed worker count;
- **full accounting** — every pruned subtree is counted: executed
  interleavings plus ``replays_saved`` equals the unpruned walk's run
  count, and ``repro resume`` replays the pruning deterministically.

Adaptive escalation's contract is the opposite direction: on the
cross-coupled Fig. 4 pattern the Lamport approximation *misses* a match
that vector clocks admit; escalation must close that gap while staying
a no-op everywhere the scalar judgement was genuine causality.
"""

from __future__ import annotations

import json

import pytest

from repro.dampi import prune as prune_mod
from repro.dampi.config import DampiConfig
from repro.dampi.faults import FaultInjected
from repro.dampi.verifier import DampiVerifier
from repro.workloads.bugzoo import ZOO
from repro.workloads.patterns import fig4_program

COMMUTATIVE = next(
    e for e in ZOO if e.name == "safe commutative wildcard"
)


def _verify(program, nprocs, journal=None, **cfg):
    v = DampiVerifier(program, nprocs, DampiConfig(**cfg))
    try:
        return v.verify(journal=journal)
    finally:
        v.close()


def _findings(report):
    return sorted((e.kind, e.detail) for e in report.errors)


# --------------------------------------------------------------------- #
# future-equivalence pruning                                             #
# --------------------------------------------------------------------- #


class TestPruningZooProperty:
    @pytest.mark.parametrize("entry", ZOO, ids=lambda e: e.name)
    def test_findings_identical_and_fully_accounted(self, entry):
        base = _verify(entry.program, entry.nprocs, prune=False)
        pruned = _verify(entry.program, entry.nprocs, prune=True)
        assert _findings(pruned) == _findings(base)
        ps = pruned.prune_stats
        assert ps is not None and ps["enabled"]
        # every skipped replay is accounted for: executed + saved is
        # exactly the unpruned walk's run count
        assert ps["replays_saved"] + pruned.interleavings == base.interleavings

    def test_commutative_wildcard_actually_prunes(self):
        pruned = _verify(COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=True)
        ps = pruned.prune_stats
        assert ps["subtrees_pruned"] > 0
        assert ps["replays_saved"] == 2  # 6-run walk collapses to 4
        assert pruned.interleavings == 4

    def test_on_by_default_and_off_means_no_stats_block(self):
        assert DampiConfig().prune  # library default == CLI default
        report = _verify(COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=False)
        assert report.prune_stats is None
        assert report.interleavings == 6

    def test_jobs_pool_bit_identical(self):
        serial = _verify(COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=True)
        pooled = _verify(
            COMMUTATIVE.program, COMMUTATIVE.nprocs,
            prune=True, jobs=2,
        )
        assert _findings(pooled) == _findings(serial)
        assert pooled.interleavings == serial.interleavings
        assert pooled.prune_stats == serial.prune_stats

    def test_prune_metrics_and_summary_line(self):
        report = _verify(COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=True)
        counters = report.telemetry["metrics"]["counters"]
        assert counters["prune.subtrees"] == report.prune_stats["subtrees_pruned"]
        assert counters["prune.replays_saved"] == 2
        assert "subtrees pruned" in report.summary()
        assert json.loads(report.to_json())["prune_stats"] == report.prune_stats


class TestPruningJournal:
    def test_resume_replays_pruning_deterministically(self, tmp_path):
        jdir = tmp_path / "journal"
        first = _verify(
            COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=True, journal=jdir
        )
        resumed = _verify(
            COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=True, journal=jdir
        )
        assert resumed.journal_stats["executed"] == 0  # pure replay
        assert resumed.interleavings == first.interleavings
        assert resumed.prune_stats == first.prune_stats
        assert _findings(resumed) == _findings(first)

    def test_interrupted_resume_prunes_like_the_live_walk(self, tmp_path):
        """A resumed walk mixes journaled runs with live ones, so a
        journaled run must fingerprint exactly like the live run it stands
        for — a run record that dropped the trace's empty ranks once made
        the resume miss a prune the live walk took (one extra replay)."""
        from tests.test_journal import _canon

        oracle = _verify(COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=True)
        assert oracle.prune_stats["subtrees_pruned"] > 0
        for k in range(1, oracle.interleavings):
            jdir = tmp_path / f"journal-{k}"
            with pytest.raises(FaultInjected):
                _verify(
                    COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=True,
                    journal=jdir, fault_plan=f"raise@run:{k}",
                )
            resumed = _verify(
                COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=True,
                journal=jdir,
            )
            assert resumed.journal_stats["replayed"] == k
            assert _canon(resumed) == _canon(oracle)
            assert resumed.prune_stats == oracle.prune_stats


class TestPruningDistributed:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dist_bit_identical_to_serial(self, workers):
        from repro.dist import distributed_verify

        serial = _verify(COMMUTATIVE.program, COMMUTATIVE.nprocs, prune=True)
        dist = distributed_verify(
            COMMUTATIVE.program,
            COMMUTATIVE.nprocs,
            config=DampiConfig(prune=True),
            workers=workers,
        )
        assert _findings(dist) == _findings(serial)
        assert dist.interleavings == serial.interleavings
        assert dist.prune_stats == serial.prune_stats


# --------------------------------------------------------------------- #
# adaptive clock escalation                                              #
# --------------------------------------------------------------------- #


class TestAdaptiveEscalation:
    def test_fig4_lamport_misses_vector_finds(self):
        # the premise: the cross-coupled pattern really does split the
        # two clock systems apart
        lamport = _verify(fig4_program, 4)
        vector = _verify(fig4_program, 4, clock_impl="vector")
        assert not lamport.errors
        assert any(e.kind == "deadlock" for e in vector.errors)
        assert vector.interleavings > lamport.interleavings

    def test_fig4_adaptive_closes_the_gap(self):
        vector = _verify(fig4_program, 4, clock_impl="vector")
        adaptive = _verify(fig4_program, 4, adaptive_clocks=True)
        assert _findings(adaptive) == _findings(vector)
        assert adaptive.interleavings == vector.interleavings
        ps = adaptive.prune_stats
        assert ps["escalations"] > 0
        assert ps["extra_alternatives"] > 0
        assert "clock escalations" in adaptive.summary()

    def test_injected_matches_are_marked_synthetic(self):
        v = DampiVerifier(fig4_program, 4, DampiConfig(adaptive_clocks=True))
        try:
            _result, trace = v.run_once()
            assert trace.scalar_risk  # the flagging pass fired
            added = v._escalate(None, trace)
            assert added and added > 0
            injected = [
                m
                for m in trace.potential_matches
                if m.env_uid == prune_mod.ESCALATED_ENV_UID
            ]
            assert len(injected) == added
        finally:
            v.close()

    @pytest.mark.parametrize("entry", ZOO, ids=lambda e: e.name)
    def test_zoo_findings_preserved_under_both_features(self, entry):
        base = _verify(entry.program, entry.nprocs)
        both = _verify(
            entry.program, entry.nprocs, prune=True, adaptive_clocks=True
        )
        # escalation may only *add* coverage; on the zoo (no cross-coupled
        # imprecision that hides an error) findings must be unchanged
        assert _findings(both) == _findings(base)

    def test_requires_scalar_clock(self):
        with pytest.raises(ValueError, match="adaptive"):
            DampiConfig(clock_impl="vector", adaptive_clocks=True)

    def test_precision_impl_mapping(self):
        """A precision replay runs the vector clock, which keeps the
        scalar clock's §V committed tick."""
        cfg = prune_mod.escalation_config(DampiConfig(adaptive_clocks=True))
        assert cfg.clock_impl == "vector" and not cfg.adaptive_clocks

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fig4_adaptive_distributed(self, workers):
        from repro.dist import distributed_verify

        serial = _verify(fig4_program, 4, prune=True, adaptive_clocks=True)
        dist = distributed_verify(
            fig4_program,
            4,
            config=DampiConfig(prune=True, adaptive_clocks=True),
            workers=workers,
        )
        assert _findings(dist) == _findings(serial)
        assert dist.interleavings == serial.interleavings
        assert dist.prune_stats == serial.prune_stats

    def test_adaptive_resume_deterministic(self, tmp_path):
        jdir = tmp_path / "journal"
        first = _verify(fig4_program, 4, adaptive_clocks=True, journal=jdir)
        resumed = _verify(fig4_program, 4, adaptive_clocks=True, journal=jdir)
        assert resumed.journal_stats["executed"] == 0
        assert resumed.prune_stats == first.prune_stats
        assert _findings(resumed) == _findings(first)
