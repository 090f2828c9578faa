"""The deterministic fault-injection harness, and what it proves:

* the plan grammar parses (and rejects) what the docs promise;
* kill/hang/delay/raise fire at the self/run/flip/stage sites;
* none of it leaks into the deterministic telemetry namespaces.

What a fleet does about a worker that dies or wedges mid-replay (re-issue
the lease; the replay is re-executed, never reported as a finding) is
:mod:`tests.test_dist_faults`.
"""

import json
import re
from pathlib import Path

import pytest

import repro

from repro.dampi import (
    DampiConfig,
    DampiVerifier,
    FaultInjected,
    FaultPlan,
)
from repro.dampi.campaign import escalating_verify
from repro.dampi.faults import (
    DEFAULT_HANG_SECONDS,
    FAULT_EXIT_CODE,
    FaultPlanError,
    _SITES,
    _parse_term,
)
from repro.obs.metrics import deterministic_view
from repro.workloads.patterns import wildcard_lattice
from tests.test_parallel import _report_fingerprint

LATTICE = {"receives": 2, "senders": 2}


class TestPlanGrammar:
    @pytest.mark.parametrize(
        "term, action, site, selector, param",
        [
            ("kill@self", "kill", "self", (), None),
            ("kill@run:3", "kill", "run", (3,), None),
            ("kill@flip:1.2", "kill", "flip", (1, 2), None),
            ("kill@flip:1.2.0", "kill", "flip", (1, 2, 0), None),
            ("hang@flip:1.2:30", "hang", "flip", (1, 2), 30.0),
            ("delay@run:2:0.05", "delay", "run", (2,), 0.05),
            ("raise@run:4", "raise", "run", (4,), None),
            ("kill@stage:k1", "kill", "stage", ("k1",), None),
            ("kill@stage:unbounded", "kill", "stage", ("unbounded",), None),
            ("delay@self:0.5", "delay", "self", (), 0.5),
            ("kill@worker:2", "kill", "worker", (2,), None),
            ("kill@worker:2.5", "kill", "worker", (2, 5), None),
            ("hang@worker:1.3:60", "hang", "worker", (1, 3), 60.0),
            ("kill@coord:3", "kill", "coord", (3,), None),
        ],
    )
    def test_valid_terms(self, term, action, site, selector, param):
        fault = _parse_term(term)
        assert (fault.action, fault.site, fault.selector, fault.param) == (
            action, site, selector, param,
        )

    @pytest.mark.parametrize(
        "term",
        [
            "kill",                  # no site
            "explode@self",          # unknown action
            "kill@everywhere",       # unknown site
            "kill@restore:1.2",      # a site until prefix checkpoints went
            "kill@run",              # run needs an index
            "kill@run:x",            # non-integer index
            "kill@flip:1",           # flip needs rank.lc
            "kill@flip:1.2.3.4",     # too many flip fields
            "kill@stage",            # stage needs a label
            "kill@run:1:2:3",        # trailing fields
            "kill@worker",           # worker needs an id
            "kill@worker:x",         # non-integer id
            "kill@worker:1.2.3",     # too many worker fields
            "kill@coord",            # coord needs a record index
            "kill@coord:x",          # non-integer index
        ],
    )
    def test_bad_terms_rejected(self, term):
        with pytest.raises(FaultPlanError):
            _parse_term(term)

    def test_every_site_has_a_caller(self):
        """A site nothing fires is grammar without a failure mode behind
        it: a name leaves ``_SITES`` with its last ``fire("<site>"``."""
        source = "\n".join(
            p.read_text() for p in Path(repro.__file__).parent.rglob("*.py")
        )
        assert len(_SITES) == 6
        for site in _SITES:
            assert re.search(rf'fire\(\s*"{site}"', source), site

    def test_plan_parse_and_spec_roundtrip(self):
        spec = "kill@run:3,hang@flip:1.2:30,delay@self:0.5"
        plan = FaultPlan.parse(spec)
        assert len(plan.faults) == 3
        assert FaultPlan.parse(plan.spec()).spec() == plan.spec()

    def test_empty_plan_is_falsy_noop(self):
        plan = FaultPlan.parse(None)
        assert not plan
        plan.fire("self")  # no-op, no error

    def test_config_validates_plan_eagerly(self):
        with pytest.raises(FaultPlanError):
            DampiConfig(fault_plan="explode@self")

    def test_prefix_selector_matching(self):
        fault = _parse_term("kill@flip:1.2")
        assert fault.matches((1, 2))
        assert fault.matches((1, 2, 0))  # any source at that epoch
        assert not fault.matches((1, 3))
        exact = _parse_term("kill@flip:1.2.0")
        assert exact.matches((1, 2, 0))
        assert not exact.matches((1, 2))  # site provides fewer fields


class TestSoftActions:
    def test_raise_aborts_the_verification(self):
        v = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(fault_plan="raise@run:1"),
            kwargs=LATTICE,
        )
        with pytest.raises(FaultInjected):
            v.verify()

    def test_one_shot_across_shared_plan(self):
        plan = FaultPlan.parse("raise@run:1")
        with pytest.raises(FaultInjected):
            DampiVerifier(
                wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
            ).verify(faults=plan)
        # same plan instance: already fired, the retry sails through
        report = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify(faults=plan)
        assert report.ok

    def test_delay_changes_nothing_but_wall_clock(self):
        oracle = DampiVerifier(
            wildcard_lattice, 3, DampiConfig(), kwargs=LATTICE
        ).verify()
        delayed = DampiVerifier(
            wildcard_lattice,
            3,
            DampiConfig(fault_plan="delay@run:1:0.01,delay@self:0.01"),
            kwargs=LATTICE,
        ).verify()
        assert _report_fingerprint(delayed) == _report_fingerprint(oracle)

    def test_default_hang_duration_is_an_hour(self):
        assert DEFAULT_HANG_SECONDS == 3600.0


class TestStageFaults:
    def test_stage_boundary_fault_fires_between_stages(self):
        with pytest.raises(FaultInjected):
            escalating_verify(
                wildcard_lattice,
                4,
                DampiConfig(fault_plan="raise@stage:k1"),
                kwargs={"receives": 3, "senders": 3},
            )

    def test_unfired_stage_fault_is_harmless(self):
        # stage k9 never runs, so the fault never fires
        result = escalating_verify(
            wildcard_lattice,
            3,
            DampiConfig(fault_plan="raise@stage:k9"),
            kwargs=LATTICE,
        )
        assert result.final_report is not None and not result.errors


class TestTelemetryIsolation:
    def test_fault_and_journal_metrics_are_nondeterministic_namespaces(
        self, tmp_path
    ):
        """Journaling and injecting (harmless) faults must not perturb the
        deterministic engine.*/pb.*/campaign.*/run.* totals."""
        def verify(jobs, journal=None, fault_plan=None):
            cfg = DampiConfig(
                jobs=jobs,
                fault_plan=fault_plan,
                trace_events=True,
            )
            return DampiVerifier(
                wildcard_lattice, 3, cfg, kwargs=LATTICE
            ).verify(journal=journal)

        plain = verify(1)
        dressed = verify(
            2, journal=tmp_path / "j", fault_plan="delay@run:1:0.01"
        )
        assert deterministic_view(
            plain.telemetry["metrics"]
        ) == deterministic_view(dressed.telemetry["metrics"])
        counters = dressed.telemetry["metrics"]["counters"]
        assert counters.get("fault.injected") == 1
        assert counters.get("fault.delay") == 1
        assert counters.get("journal.appends", 0) > 0
        view = deterministic_view(dressed.telemetry["metrics"])["counters"]
        assert not any(
            name.startswith(("fault.", "journal.", "exec.")) for name in view
        )
