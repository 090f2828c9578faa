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
* Lamport mode may under-approximate (paper §II-F) but never over;
* **§V** (``TestSectionVFamily``): on a generated family of a wildcard
  ``Irecv`` crossing sends and collectives before its Wait/Test, both
  clocks' committed tick is exact, and the paper's single-commit clock
  falls short only across such a transmit.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier

from tests import oracle
from tests.oracle import (
    ALLREDUCE,
    BARRIER,
    as_runnable,
    dampi_outcomes,
    feasible_outcomes,
    iwild,
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


# -- paper §V: a wildcard's tick must not escape before its Wait/Test -----------

#: rank 1's transmits between its wildcard post and the completion
_TRANSMITS = ("send", "barrier", "allreduce")


def section_v_program(transmits, slot0, slot2, complete, tail=()):
    """Rank 1 posts a wildcard ``Irecv``, runs ``transmits`` (a send to
    rank 0 or a collective every rank calls), completes the wildcard with
    ``complete`` (``oracle.wait`` or ``oracle.test``) and then runs
    ``tail``.  Ranks 0 and 2 each send rank 1 one message in collective
    slot ``slot0``/``slot2`` (0: before the first shared collective);
    rank 0 receives rank 1's sends in the slot rank 1 sends them, before
    its own send."""
    collective = {"barrier": BARRIER, "allreduce": ALLREDUCE}
    ncoll = sum(t != "send" for t in transmits)
    slots = [[[] for _ in range(ncoll + 1)] for _ in range(3)]
    slot = 0
    for t in transmits:
        if t == "send":
            slots[1][slot].append(send(0))
            slots[0][slot].append(recv(1))
        else:
            slot += 1
    slots[0][slot0].append(send(1))
    slots[2][slot2].append(send(1))
    colls = [collective[t] for t in transmits if t != "send"]
    programs = []
    for rank in (0, 2):
        ops = list(slots[rank][0])
        for c, later in zip(colls, slots[rank][1:]):
            ops += [c, *later]
        programs.append(ops)
    middle = [send(0) if t == "send" else collective[t] for t in transmits]
    programs.insert(1, [iwild(0), *middle, complete(0), *tail])
    return programs


#: how rank 1 ends: Wait, Test, or Wait then a receive from rank 0 that
#: deadlocks wherever the wildcard took rank 0's only message
_ENDINGS = ((oracle.wait, ()), (oracle.test, ()), (oracle.wait, (recv(0),)))


def section_v_family():
    """Every transmit sequence of length 0-2, each sender before the
    first or after the last collective, under every ending."""
    family = []
    for n in range(3):
        for transmits in itertools.product(_TRANSMITS, repeat=n):
            last = sum(t != "send" for t in transmits)
            for slot0, slot2 in itertools.product(sorted({0, last}), repeat=2):
                for complete, tail in _ENDINGS:
                    programs = section_v_program(transmits, slot0, slot2, complete, tail)
                    family.append((transmits, programs))
    return family


SECTION_V = section_v_family()
#: paper Fig. 10: rank 0 sends before the barrier, rank 2 after it
FIG10_SHAPE = section_v_program(("barrier",), 0, 1, oracle.wait)


class TestSectionVFamily:
    """One rank, one wildcard: no Fig. 4 cross-coupling, so both product
    clocks (committed tick) must equal the oracle exactly, and the paper's
    single-commit clock (the ``single_commit`` reference) may fall short
    only where a transmit escapes the uncommitted tick."""

    def test_fig10_shape_is_in_the_family(self):
        assert FIG10_SHAPE in [programs for _, programs in SECTION_V]
        assert len(SECTION_V) == 129

    @pytest.mark.parametrize("clock", ["lamport", "vector"])
    def test_committed_clock_equals_the_oracle(self, clock):
        for transmits, programs in SECTION_V:
            expected, dead = feasible_outcomes(programs)
            rep = verify(programs, clock, prune=False)
            assert dampi_outcomes(rep) == expected, programs
            assert bool(rep.deadlocks) == dead, programs

    def test_single_commit_falls_short_only_across_a_transmit(self, single_commit):
        short = []
        for transmits, programs in SECTION_V:
            expected, _ = feasible_outcomes(programs)
            got = dampi_outcomes(verify(programs, "lamport", prune=False))
            assert got <= expected, programs
            if got != expected:
                assert transmits, programs
                short.append(programs)
        assert FIG10_SHAPE in short
