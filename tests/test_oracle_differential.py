"""Differential testing: DAMPI vs an independent feasibility oracle.

The oracle (tests/oracle.py) enumerates feasible wildcard outcomes by
exhaustive state-space search over an abstract MPI semantics — a
mechanism sharing no code or theory with DAMPI's clocks-and-replay.  On
randomly generated programs:

* **soundness** (both clock modes): every outcome DAMPI explores is
  oracle-feasible;
* **completeness** (vector clocks, the paper's precise mode): DAMPI
  explores *exactly* the oracle's outcome set — with ``prune=False``:
  pruning preserves findings, not outcomes (``DampiConfig.prune``);
* Lamport mode may under-approximate (paper §II-F) but never over.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier

from tests.oracle import (
    as_runnable,
    dampi_outcomes,
    feasible_outcomes,
    recv,
    send,
    wild,
)


def verify(programs, clock_impl, prune=True):
    cfg = DampiConfig(
        clock_impl=clock_impl, enable_monitor=False, enable_leak_check=False,
        prune=prune,
    )
    return DampiVerifier(as_runnable(programs), len(programs), cfg).verify()


class TestOracleItself:
    """Sanity-check the oracle on hand-computable programs first."""

    def test_single_wildcard_two_senders(self):
        programs = [[wild()], [send(0)], [send(0)]]
        outcomes, dead = feasible_outcomes(programs)
        assert outcomes == {
            frozenset({((0, 0), 1)}),
            frozenset({((0, 0), 2)}),
        }
        assert not dead

    def test_non_overtaking_within_stream(self):
        # rank 1 sends twice on one stream; the wildcard can only get the
        # FIRST message (the second is blocked behind it for the det recv)
        programs = [[wild(), recv(1)], [send(0), send(0)]]
        outcomes, dead = feasible_outcomes(programs)
        assert outcomes == {frozenset({((0, 0), 1)})}
        assert not dead

    def test_cross_coupled_fig4(self):
        # the paper's Fig. 4 shape: 3 feasible outcomes, 2 of them deadlock
        programs = [
            [send(2)],
            [send(3)],
            [wild(), send(3), recv(3)],
            [wild(), send(2), recv(2)],
        ]
        outcomes, dead = feasible_outcomes(programs)
        assert len(outcomes) == 1  # only the non-cross matching completes
        assert dead  # the cross matchings starve the trailing receives

    def test_starvation_deadlock(self):
        programs = [[wild(), wild()], [send(0)]]
        outcomes, dead = feasible_outcomes(programs)
        assert outcomes == set()
        assert dead


class TestHandPickedDifferential:
    CASES = [
        # classic funnel
        [[wild(), wild()], [send(0)], [send(0), send(0)]],
        # two receivers, disjoint senders
        [[wild()], [wild()], [send(0)], [send(1)]],
        # mixed det + wild on one stream
        [[recv(1), wild()], [send(0), send(0)], [send(0)]],
        # chained: rank1 sends only after receiving
        [[wild(), wild()], [recv(2), send(0)], [send(1), send(0)]],
        # tags separate streams
        [[wild(1), wild(2)], [send(0, 1), send(0, 2)], [send(0, 2)]],
    ]

    @pytest.mark.parametrize("idx", range(len(CASES)))
    def test_vector_matches_oracle_exactly(self, idx):
        programs = self.CASES[idx]
        expected, dead = feasible_outcomes(programs)
        rep = verify(programs, "vector", prune=False)
        got = dampi_outcomes(rep)
        assert got == expected, (
            f"case {idx}: DAMPI {sorted(map(sorted, got))} != "
            f"oracle {sorted(map(sorted, expected))}"
        )
        if not dead:
            assert not rep.deadlocks

    @pytest.mark.parametrize("idx", range(len(CASES)))
    def test_lamport_sound_subset(self, idx):
        programs = self.CASES[idx]
        expected, _ = feasible_outcomes(programs)
        got = dampi_outcomes(verify(programs, "lamport"))
        assert got <= expected


def random_program(rng: random.Random, nprocs: int):
    """A random deadlock-free-ish program: receivers post at most as many
    receives as messages addressed to them; wildcard-heavy."""
    programs = [[] for _ in range(nprocs)]
    addressed = [0] * nprocs
    # senders: ranks 1.. send 1-2 messages to rank 0 (and sometimes rank 1)
    for r in range(1, nprocs):
        for _ in range(rng.randint(1, 2)):
            dest = 0 if nprocs < 3 or rng.random() < 0.7 else 1
            if dest == r:
                dest = 0
            tag = rng.choice([0, 0, 1])
            programs[r].append(send(dest, tag))
            addressed[dest] += 1
    # receivers consume a prefix of what's addressed to them
    for dest in (0, 1):
        if dest >= nprocs:
            continue
        tags_in = [op[2] for r in range(nprocs) for op in programs[r] if op[0] == "send" and op[1] == dest]
        rng.shuffle(tags_in)
        n_recv = rng.randint(0, len(tags_in))
        for tag in tags_in[:n_recv]:
            if rng.random() < 0.7:
                programs[dest].append(wild(tag))
            else:
                # deterministic receive from some rank that sent this tag here
                senders = [
                    r
                    for r in range(nprocs)
                    if any(op == ("send", dest, tag) for op in programs[r])
                ]
                programs[dest].append(recv(rng.choice(senders), tag))
    return programs


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_random_programs_vector_exact(seed):
    rng = random.Random(seed)
    nprocs = rng.randint(2, 4)
    programs = random_program(rng, nprocs)
    expected, dead = feasible_outcomes(programs)
    rep = verify(programs, "vector", prune=False)
    got = dampi_outcomes(rep)
    # completeness + soundness on completed executions
    assert got == expected, (
        f"seed {seed}: programs={programs}\n"
        f"DAMPI={sorted(map(sorted, got))}\noracle={sorted(map(sorted, expected))}"
    )
    # deadlock agreement: if the oracle proves no branch can deadlock,
    # DAMPI must not report one
    if not dead:
        assert not rep.deadlocks


@pytest.mark.parametrize("seed", [14892])
def test_pruning_may_skip_an_outcome_but_accounts_for_it(seed):
    """A generated program where pruning skips a distinct *outcome* (no
    finding): the unpruned walk is exact, the pruned one sound, and its
    report accounts for the replay it did not run."""
    programs = random_program(random.Random(seed), 4)
    expected, dead = feasible_outcomes(programs)
    assert len(expected) == 6 and not dead
    exact = verify(programs, "vector", prune=False)
    assert dampi_outcomes(exact) == expected
    pruned = verify(programs, "vector")
    assert dampi_outcomes(pruned) < expected
    assert (
        pruned.interleavings + pruned.prune_stats["replays_saved"]
        == exact.interleavings
        == len(expected)
    )
    assert [str(e) for e in pruned.errors] == [str(e) for e in exact.errors] == []


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_random_programs_lamport_sound(seed):
    rng = random.Random(seed)
    nprocs = rng.randint(2, 4)
    programs = random_program(rng, nprocs)
    expected, _ = feasible_outcomes(programs)
    got = dampi_outcomes(verify(programs, "lamport"))
    assert got <= expected, f"seed {seed}: unsound outcomes {got - expected}"
