"""Unit tests: potential-match finalisation and the decisions file."""

import pytest
from hypothesis import given, strategies as st

from repro.clocks.lamport import LamportStamp
from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import EpochRecord, PotentialMatch, RunTrace
from repro.dampi.matcher import (
    alternatives_for_epoch,
    compute_alternatives,
    explorable_alternative_sources,
)
from repro.mpi.constants import ANY_TAG


def mk_epoch(rank=0, lc=0, tag=1, matched_source=1, matched_env=100, **kw):
    e = EpochRecord(
        rank=rank, lc=lc, index=0, ctx=0, tag=tag, stamp=LamportStamp(lc + 1), **kw
    )
    e.matched_source = matched_source
    e.matched_env_uid = matched_env
    return e


def mk_match(epoch, source, seq, env_uid=None, tag=1):
    return PotentialMatch(
        epoch=epoch.key,
        source=source,
        env_uid=env_uid if env_uid is not None else 1000 + source * 10 + seq,
        seq=seq,
        tag=tag,
    )


class TestAlternativesForEpoch:
    def test_earliest_per_source_wins(self):
        e = mk_epoch()
        ms = [mk_match(e, 2, 5), mk_match(e, 2, 1), mk_match(e, 2, 3)]
        alts = alternatives_for_epoch(e, ms)
        assert list(alts) == [2]
        assert alts[2].seq == 1

    def test_matched_source_excluded(self):
        e = mk_epoch(matched_source=1)
        ms = [mk_match(e, 1, 0), mk_match(e, 2, 0)]
        assert set(alternatives_for_epoch(e, ms)) == {2}

    def test_matched_envelope_excluded(self):
        e = mk_epoch(matched_source=1, matched_env=777)
        ms = [mk_match(e, 3, 0, env_uid=777)]
        assert alternatives_for_epoch(e, ms) == {}

    def test_multiple_sources_all_kept(self):
        e = mk_epoch(matched_source=5)
        ms = [mk_match(e, s, 0) for s in (1, 2, 3)]
        assert set(alternatives_for_epoch(e, ms)) == {1, 2, 3}

    def test_empty_input(self):
        assert alternatives_for_epoch(mk_epoch(), []) == {}


class TestTraceLevel:
    def _trace(self):
        e0 = mk_epoch(rank=0, lc=0, matched_source=1)
        e1 = mk_epoch(rank=0, lc=1, matched_source=2)
        e1.index = 1
        trace = RunTrace(nprocs=3, epochs={0: [e0, e1]})
        trace.potential_matches = [
            mk_match(e0, 2, 0),
            mk_match(e1, 1, 1),
            mk_match(e1, 1, 0),  # earlier message from 1, same epoch
        ]
        return trace, e0, e1

    def test_compute_alternatives_groups_by_epoch(self):
        trace, e0, e1 = self._trace()
        alts = compute_alternatives(trace)
        assert set(alts[e0.key]) == {2}
        assert set(alts[e1.key]) == {1}
        assert alts[e1.key][1].seq == 0

    def test_explorable_filters_no_explore(self):
        trace, e0, e1 = self._trace()
        e0.explore = False
        out = explorable_alternative_sources(trace)
        assert out[e0.key] == set()
        assert out[e1.key] == {1}

    def test_explorable_filters_unmatched(self):
        trace, e0, e1 = self._trace()
        e1.matched_source = None
        out = explorable_alternative_sources(trace)
        assert out[e1.key] == set()

    def test_wildcard_count(self):
        trace, *_ = self._trace()
        assert trace.wildcard_count == 2

    def test_epoch_by_key(self):
        trace, e0, _ = self._trace()
        assert trace.epoch_by_key(e0.key) is e0
        assert trace.epoch_by_key((9, 9)) is None


class TestDecisions:
    def test_roundtrip_json(self):
        d = EpochDecisions(forced={(0, 1): 2, (3, 7): 0}, flip=(3, 7))
        d2 = EpochDecisions.from_json(d.to_json())
        assert d2.forced == d.forced
        assert d2.flip == (3, 7)
        # a witness read back is the schedule written (what a resumed
        # report's errors are compared by); the flip is part of it
        assert d2 == d
        assert d2 != EpochDecisions(forced=d.forced)

    def test_save_load(self, tmp_path):
        d = EpochDecisions(forced={(1, 4): 3})
        path = tmp_path / "epoch_decisions.json"
        d.save(path)
        assert EpochDecisions.load(path).forced == {(1, 4): 3}

    def test_guided_epoch_per_rank(self):
        d = EpochDecisions(forced={(0, 1): 2, (0, 9): 1, (2, 4): 0})
        assert d.guided_epoch(0) == 9
        assert d.guided_epoch(2) == 4
        assert d.guided_epoch(1) == -1

    def test_source_for(self):
        d = EpochDecisions(forced={(0, 1): 2})
        assert d.source_for(0, 1) == 2
        assert d.source_for(0, 2) is None

    def test_invalid_decision_rejected(self):
        with pytest.raises(ValueError):
            EpochDecisions(forced={(0, -1): 2})
        with pytest.raises(ValueError):
            EpochDecisions(forced={(0, 1): -2})

    def test_bool_and_len(self):
        assert not EpochDecisions()
        d = EpochDecisions(forced={(0, 0): 1})
        assert d and len(d) == 1

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            EpochDecisions.from_json('{"version": 99, "forced": []}')

    @given(
        st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=1000),
            ),
            st.integers(min_value=0, max_value=50),
            max_size=30,
        )
    )
    def test_roundtrip_property(self, forced):
        d = EpochDecisions(forced=forced)
        assert EpochDecisions.from_json(d.to_json()).forced == forced
