"""Unit tests of the DFS schedule generator (no MPI runs involved)."""

import pytest

from repro.clocks.lamport import LamportStamp
from repro.dampi.epoch import EpochRecord, PotentialMatch, RunTrace
from repro.dampi.explorer import DecisionNode, ScheduleGenerator


def trace_with(epochs_spec, matches_spec, nprocs=4):
    """Build a RunTrace from compact specs.

    ``epochs_spec``: list of (rank, lc, matched_source[, explore]).
    ``matches_spec``: list of (rank, lc, alt_source).
    """
    epochs = {}
    for spec in epochs_spec:
        rank, lc, matched = spec[:3]
        explore = spec[3] if len(spec) > 3 else True
        e = EpochRecord(
            rank=rank,
            lc=lc,
            index=len(epochs.get(rank, [])),
            ctx=0,
            tag=1,
            stamp=LamportStamp(lc + 1),
            explore=explore,
        )
        e.matched_source = matched
        e.matched_env_uid = -(rank * 1000 + lc)  # unique, never collides
        epochs.setdefault(rank, []).append(e)
    matches = [
        PotentialMatch(epoch=(r, lc), source=s, env_uid=r * 100 + lc * 10 + s, seq=0, tag=1)
        for r, lc, s in matches_spec
    ]
    return RunTrace(nprocs=nprocs, epochs=epochs, potential_matches=matches)


class TestSeedAndWalk:
    def test_no_alternatives_means_done(self):
        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1)], []))
        assert g.next_decisions() is None
        assert g.exhausted

    def test_single_alternative_single_replay(self):
        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1)], [(0, 0, 2)]))
        d = g.next_decisions()
        assert d.forced == {(0, 0): 2}
        assert d.flip == (0, 0)
        g.integrate(trace_with([(0, 0, 2)], [(0, 0, 1)]))
        assert g.next_decisions() is None

    def test_deepest_first(self):
        g = ScheduleGenerator()
        g.seed(
            trace_with(
                [(0, 0, 1), (0, 1, 1)],
                [(0, 0, 2), (0, 1, 2)],
            )
        )
        d = g.next_decisions()
        assert d.flip == (0, 1)  # deepest node flips first
        # prefix keeps the self-run choice of the shallower node
        assert d.forced == {(0, 0): 1, (0, 1): 2}

    def test_replay_discovers_new_epochs(self):
        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1)], [(0, 0, 2)]))
        d = g.next_decisions()
        # the replay, having matched 2, discovers a brand-new epoch
        g.integrate(
            trace_with(
                [(0, 0, 2), (1, 1, 0)],
                [(0, 0, 1), (1, 1, 3)],
            )
        )
        d2 = g.next_decisions()
        assert d2.flip == (1, 1)
        assert d2.forced == {(0, 0): 2, (1, 1): 3}

    def test_new_alternatives_merged_into_prefix(self):
        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1), (0, 1, 1)], [(0, 1, 2)]))
        d = g.next_decisions()
        assert d.flip == (0, 1)
        # replay reveals an alternative at the *prefix* node (0,0)
        g.integrate(trace_with([(0, 0, 1), (0, 1, 2)], [(0, 0, 3)]))
        d2 = g.next_decisions()
        assert d2.flip == (0, 0)
        assert d2.forced == {(0, 0): 3}

    def test_frozen_loop_abstraction_never_flipped(self):
        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1, False)], [(0, 0, 2)]))
        assert g.next_decisions() is None

    def test_unmatched_epoch_never_forced(self):
        g = ScheduleGenerator()
        g.seed(
            trace_with(
                [(0, 0, None), (1, 1, 1)],
                [(1, 1, 2)],
            )
        )
        d = g.next_decisions()
        assert (0, 0) not in d.forced

    def test_integrate_requires_pending_flip(self):
        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1)], []))
        with pytest.raises(RuntimeError):
            g.integrate(trace_with([(0, 0, 1)], []))

    def test_double_seed_rejected(self):
        g = ScheduleGenerator()
        g.seed(trace_with([], []))
        with pytest.raises(RuntimeError):
            g.seed(trace_with([], []))

    def test_divergence_counted(self):
        g = ScheduleGenerator()
        g.seed(trace_with([(0, 0, 1)], [(0, 0, 2)]))
        g.next_decisions()
        diverged = trace_with([(0, 0, 2)], [])
        diverged.unconsumed_decisions = [(0, 0)]
        g.integrate(diverged)
        assert g.divergences == 1


class TestBoundedMixing:
    def test_k0_freezes_entire_suffix(self):
        g = ScheduleGenerator(bound_k=0)
        g.seed(trace_with([(0, 0, 1)], [(0, 0, 2)]))
        g.next_decisions()
        g.integrate(
            trace_with(
                [(0, 0, 2), (0, 1, 1), (0, 2, 1)],
                [(0, 1, 3), (0, 2, 3)],
            )
        )
        # fresh nodes (0,1) and (0,2) are frozen; nothing left to flip
        assert g.next_decisions() is None

    def test_k1_allows_one_deep(self):
        g = ScheduleGenerator(bound_k=1)
        g.seed(trace_with([(0, 0, 1)], [(0, 0, 2)]))
        g.next_decisions()
        g.integrate(
            trace_with(
                [(0, 0, 2), (0, 1, 1), (0, 2, 1)],
                [(0, 1, 3), (0, 2, 3)],
            )
        )
        d = g.next_decisions()
        assert d.flip == (0, 1)  # within the window
        g.integrate(trace_with([(0, 0, 2), (0, 1, 3)], []))
        assert g.next_decisions() is None  # (0,2) was frozen, gone now

    def test_run0_nodes_never_distance_frozen(self):
        g = ScheduleGenerator(bound_k=0)
        g.seed(
            trace_with(
                [(0, 0, 1), (0, 1, 1), (0, 2, 1)],
                [(0, 0, 2), (0, 1, 2), (0, 2, 2)],
            )
        )
        flips = []
        while True:
            d = g.next_decisions()
            if d is None:
                break
            flips.append(d.flip)
            # replay reproduces the prefix and nothing new
            epochs = [(0, lc, d.forced.get((0, lc), 1)) for lc in (0, 1, 2)]
            g.integrate(trace_with(epochs, []))
        assert set(flips) == {(0, 0), (0, 1), (0, 2)}  # all three flipped once

    def test_stats(self):
        g = ScheduleGenerator(bound_k=0)
        g.seed(trace_with([(0, 0, 1)], [(0, 0, 2)]))
        s = g.stats()
        assert s["path_length"] == 1
        assert s["open_alternatives"] == 1


class TestDecisionNode:
    def test_untried(self):
        n = DecisionNode(
            key=(0, 0), order=(0, 0, 0), chosen=1, tried={1}, alternatives={1, 2, 3}
        )
        assert n.untried == {2, 3}
