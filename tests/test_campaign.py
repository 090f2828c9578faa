"""Escalating verification."""

import pytest

from repro.dampi.campaign import escalating_verify
from repro.workloads.patterns import fig3_program, wildcard_lattice


class TestEscalation:
    def test_stops_at_first_error(self):
        result = escalating_verify(fig3_program, 3)
        assert "error found at k=0" in result.stopped_reason
        assert len(result.steps) == 1
        assert any(e.kind == "crash" for e in result.errors)

    def test_clean_program_escalates_to_full_coverage(self):
        result = escalating_verify(
            wildcard_lattice, 4, kwargs={"receives": 3, "senders": 3}
        )
        assert result.stopped_reason == "full space covered"
        labels = [s.label for s in result.steps]
        # k=2 never freezes a node on the 3-deep lattice (bound_frozen == 0),
        # which proves it already walked the unbounded space — the redundant
        # unbounded stage is skipped and its self run never charged
        assert labels == ["k=0", "k=1", "k=2"]
        assert result.final_report.bound_frozen == 0
        assert result.final_report.interleavings == 27
        assert not result.final_report.truncated

    def test_deterministic_program_stops_after_one_stage(self):
        # no wildcards at all: k=0 covers everything with just the self run;
        # before the bound_frozen check this burned one self run per stage
        def no_wildcards(p):
            if p.rank == 0:
                p.world.send(b"x", dest=1)
            elif p.rank == 1:
                p.world.recv(source=0)

        result = escalating_verify(no_wildcards, 2)
        assert result.stopped_reason == "full space covered"
        assert [s.label for s in result.steps] == ["k=0"]
        assert result.total_interleavings == 1

    def test_redundant_bounds_skipped_without_budget_charge(self):
        # a bound equal to one already fully covered is skipped entirely
        result = escalating_verify(
            wildcard_lattice,
            4,
            ks=(1, 0, 1),
            kwargs={"receives": 2, "senders": 2},
        )
        assert [s.bound_k for s in result.steps] == [1]
        assert result.stopped_reason == "full space covered"

    def test_budget_exhaustion(self):
        result = escalating_verify(
            wildcard_lattice,
            4,
            kwargs={"receives": 3, "senders": 3},
            run_budget=10,
        )
        # each stage is capped at the remaining budget, so the total can
        # never exceed budget + (number of stages) self-run minimums
        assert result.total_interleavings <= 10 + len(result.steps)
        assert result.stopped_reason == "run budget exhausted"

    def test_monotone_stage_counts(self):
        result = escalating_verify(
            wildcard_lattice,
            4,
            kwargs={"receives": 3, "senders": 3},
            stop_on_error=False,
        )
        counts = [s.report.interleavings for s in result.steps]
        assert counts == sorted(counts)

    def test_summary_renders(self):
        result = escalating_verify(fig3_program, 3)
        text = result.summary()
        assert "escalating verification" in text
        assert "errors!" in text

    def test_errors_deduplicated_across_stages(self):
        result = escalating_verify(fig3_program, 3, stop_on_error=False)
        kinds = [e.detail for e in result.errors]
        assert len(kinds) == len(set(kinds))

