"""Unit and property tests for Lamport and vector clocks."""

import pytest
from hypothesis import given, strategies as st

from repro.clocks import (
    LamportClock,
    LamportStamp,
    VectorClock,
    VectorStamp,
    causally_before,
    concurrent,
    make_clock,
)


class TestLamportClock:
    def test_starts_at_zero(self):
        assert LamportClock(0).time == 0

    def test_tick_increments(self):
        c = LamportClock(0)
        c.tick()
        c.tick()
        assert c.time == 2

    def test_merge_takes_max(self):
        c = LamportClock(0, time=3)
        c.merge(LamportStamp(7))
        assert c.time == 7
        c.merge(LamportStamp(2))
        assert c.time == 7

    def test_merge_does_not_tick(self):
        # paper Algorithm 1: receives merge (max) without incrementing
        c = LamportClock(0, time=3)
        c.merge(LamportStamp(3))
        assert c.time == 3

    def test_snapshot_is_immutable_value(self):
        c = LamportClock(1, time=5)
        s = c.snapshot()
        c.tick()
        assert s.time == 5 and c.time == 6

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            LamportClock(0, time=-1)

    def test_stamp_ordering(self):
        assert LamportStamp(1) < LamportStamp(2)
        assert LamportStamp(2) == LamportStamp(2, rank=9)  # rank is metadata
        assert LamportStamp(1).causally_before(LamportStamp(2))
        assert not LamportStamp(2).causally_before(LamportStamp(2))

    def test_stamp_leq_is_reflexive(self):
        assert LamportStamp(4).leq(LamportStamp(4))
        assert LamportStamp(4).leq(LamportStamp(5))
        assert not LamportStamp(5).leq(LamportStamp(4))

    def test_lamport_totally_orders_everything(self):
        # distinct values are never concurrent — the §II-C imprecision
        assert not concurrent(LamportStamp(1), LamportStamp(2))
        assert causally_before(LamportStamp(1), LamportStamp(2))

    def test_equal_stamps_hash_equal(self):
        # stamps key dicts and sets: equality ignores the rank, so must hash
        assert len({LamportStamp(3, rank=0), LamportStamp(3, rank=1)}) == 1


class TestVectorClock:
    def test_tick_increments_own_component(self):
        c = VectorClock(1, 3)
        c.tick()
        assert c.snapshot().components == (0, 1, 0)
        assert c.time == 1  # scalar view = own component

    def test_merge_componentwise_max(self):
        c = VectorClock(0, 3)
        c.tick()
        c.merge(VectorStamp((0, 5, 2)))
        assert c.snapshot().components == (1, 5, 2)

    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            VectorClock(3, 3)

    def test_partial_order(self):
        a = VectorStamp((1, 0))
        b = VectorStamp((1, 1))
        c = VectorStamp((0, 1))
        assert a.causally_before(b)
        assert not b.causally_before(a)
        assert concurrent(a, c)

    def test_leq_requires_all_components(self):
        assert VectorStamp((1, 1)).leq(VectorStamp((1, 2)))
        assert not VectorStamp((1, 2)).leq(VectorStamp((2, 1)))
        assert VectorStamp((1, 2)).leq(VectorStamp((1, 2)))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            VectorStamp((1,)).causally_before(VectorStamp((1, 2)))
        with pytest.raises(ValueError):
            VectorClock(0, 2).merge(VectorStamp((1, 2, 3)))

    def test_equal_stamps_not_causally_before(self):
        s = VectorStamp((2, 3))
        assert not s.causally_before(VectorStamp((2, 3)))
        assert not causally_before(s, VectorStamp((2, 3)))

    def test_equal_stamps_hash_equal(self):
        assert len({VectorStamp((2, 3)), VectorStamp((2, 3)), VectorStamp((3, 2))}) == 2


class TestFactory:
    def test_make_lamport(self):
        assert isinstance(make_clock("lamport", 0, 4), LamportClock)

    def test_make_vector(self):
        c = make_clock("vector", 2, 4)
        assert isinstance(c, VectorClock) and len(c.snapshot()) == 4

    def test_unknown_impl(self):
        with pytest.raises(ValueError):
            make_clock("hybrid", 0, 4)


# ---------------------------------------------------------------------- #
# property tests: simulate random message histories with both clocks and #
# check the Lamport/vector consistency theorem                           #
# ---------------------------------------------------------------------- #

events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # acting process
        st.sampled_from(["tick", "send"]),
        st.integers(min_value=0, max_value=3),  # send target
    ),
    max_size=60,
)


@given(events)
def test_vector_order_implies_lamport_order(history):
    """VC(a) < VC(b) must imply LC(a) < LC(b) (paper §II-C), on arbitrary
    tick/send/receive histories over 4 processes."""
    n = 4
    lcs = [LamportClock(i) for i in range(n)]
    vcs = [VectorClock(i, n) for i in range(n)]
    stamps = []  # (lamport stamp, vector stamp) per recorded event
    for proc, kind, target in history:
        if kind == "tick":
            lcs[proc].tick()
            vcs[proc].tick()
        else:
            # a send delivers instantly to the target (tick sender per
            # classic VC rules so distinct events have distinct stamps)
            lcs[proc].tick()
            vcs[proc].tick()
            ls, vs = lcs[proc].snapshot(), vcs[proc].snapshot()
            if target != proc:
                lcs[target].merge(ls)
                vcs[target].merge(vs)
        stamps.append((lcs[proc].snapshot(), vcs[proc].snapshot()))
    for la, va in stamps:
        for lb, vb in stamps:
            if va.causally_before(vb):
                assert la.causally_before(lb) or la.time == lb.time or la.time < lb.time
                # the strict theorem: VC-before implies LC <=; with
                # sender ticks it is strictly <
                assert la.time <= lb.time


@given(events)
def test_vector_leq_antisymmetric_up_to_equality(history):
    n = 4
    vcs = [VectorClock(i, n) for i in range(n)]
    stamps = []
    for proc, kind, target in history:
        vcs[proc].tick()
        if kind == "send" and target != proc:
            vcs[target].merge(vcs[proc].snapshot())
        stamps.append(vcs[proc].snapshot())
    for a in stamps:
        for b in stamps:
            if a.leq(b) and b.leq(a):
                assert a == b


@given(st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=20))
def test_lamport_merge_is_max_fold(values):
    c = LamportClock(0)
    for v in values:
        c.merge(LamportStamp(v))
    assert c.time == max(values + [0])
