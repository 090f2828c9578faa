"""Coverage soundness + completeness, checked against brute-force ground truth.

For a family of programs whose feasible match outcomes are enumerable in
closed form — rank 0 posts ``R`` sequential wildcard receives; sender
``s`` fires ``c_s`` independent messages — the exact outcome set is every
length-``R`` source sequence using source ``s`` at most ``c_s`` times
(non-overtaking makes which *message* of a source matched determined by
the count so far, so the source sequence is the whole story).

DAMPI must explore **exactly** that set: anything missing breaks the
paper's completeness claim (§II-E) for non-cross-coupled patterns;
anything extra breaks soundness.  This holds for both clock back-ends
here because the family has no cross-coupled receives (rank 0 is the only
receiver), which is precisely the condition under which the paper argues
Lamport clocks lose nothing.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier, completed_outcome
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.matching import IndexedMailBox
from repro.mpi.message import Envelope, reset_envelope_ids
from repro.mpi.request import Request, RequestKind, reset_request_ids
from repro.workloads.bugzoo import ZOO

from tests.kept_traces import TraceKeepingVerifier
from tests.oracle import ReferenceMatcher
from tests.test_parallel import _report_fingerprint


def funnel_program(p, counts: tuple[int, ...], receives: int):
    """Rank 0 wildcard-receives ``receives`` times; rank ``s`` (1-based)
    sends ``counts[s-1]`` messages."""
    if p.rank == 0:
        for _ in range(receives):
            p.world.recv(source=ANY_SOURCE, tag=0)
    elif p.rank - 1 < len(counts):
        for i in range(counts[p.rank - 1]):
            p.world.send((p.rank, i), dest=0, tag=0)


def expected_outcomes(counts: tuple[int, ...], receives: int) -> set[tuple[int, ...]]:
    """All feasible source sequences for the funnel family."""
    sources = [s + 1 for s in range(len(counts))]
    out = set()
    for seq in product(sources, repeat=receives):
        if all(seq.count(s + 1) <= counts[s] for s in range(len(counts))):
            out.add(seq)
    return out


def observed_outcomes(report) -> set[tuple[int, ...]]:
    """Per-run match sequences of rank 0's epochs, ordered by clock."""
    out = set()
    for run in report.runs:
        pairs = sorted((key, src) for (key, src) in run.outcome if key[0] == 0)
        out.add(tuple(src for _, src in pairs))
    return out


counts_strategy = st.lists(
    st.integers(min_value=0, max_value=2), min_size=2, max_size=3
).map(tuple)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(counts=counts_strategy, receives=st.integers(min_value=1, max_value=3))
@pytest.mark.parametrize("clock_impl", ["lamport", "vector"])
def test_funnel_coverage_is_exact(clock_impl, counts, receives):
    total = sum(counts)
    if receives > total:
        # every interleaving deadlocks; covered by the dedicated test below
        receives = max(1, total)
    if total == 0:
        return
    # prune off: this enumerates outcomes, which pruning does not preserve
    cfg = DampiConfig(clock_impl=clock_impl, enable_monitor=False, prune=False)
    rep = DampiVerifier(
        funnel_program, len(counts) + 1, cfg, kwargs={"counts": counts, "receives": receives}
    ).verify()
    assert rep.ok, rep.summary()
    expected = expected_outcomes(counts, receives)
    assert observed_outcomes(rep) == expected
    # optimality: the walk never repeats an outcome on this family
    assert rep.interleavings == len(expected)


def test_starved_funnel_deadlocks_in_every_interleaving():
    cfg = DampiConfig(enable_monitor=False)
    rep = DampiVerifier(
        funnel_program, 3, cfg, kwargs={"counts": (1, 0), "receives": 2}
    ).verify()
    assert rep.deadlocks
    assert all("deadlock" in r.error_kinds for r in rep.runs)


# ---------------------------------------------------------------------------
# Differential matching: indexed vs independent reference
# ---------------------------------------------------------------------------

#: One mailbox operation: (send?, src/selector draw, tag draw, ctx, pick).
_mailbox_ops = st.lists(
    st.tuples(
        st.booleans(),  # True: an envelope arrives; False: a receive is posted
        st.integers(min_value=0, max_value=3),  # source / source-selector draw
        st.integers(min_value=0, max_value=2),  # tag / tag-selector draw
        st.integers(min_value=0, max_value=1),  # context id
        st.integers(min_value=0, max_value=7),  # wildcard candidate pick
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=_mailbox_ops)
def test_mailbox_implementations_agree_with_reference(ops):
    """Drive :class:`IndexedMailBox` and the independent
    :class:`tests.oracle.ReferenceMatcher` with one random
    operation sequence under the engine's discipline (arrivals complete the
    oldest compatible posted receive or queue; receives consume a
    policy-chosen candidate or post) — every query must agree at every
    step, and the final queue contents must be identical in order."""
    reset_envelope_ids()
    reset_request_ids()
    ref = ReferenceMatcher(0)
    boxes = (ref, IndexedMailBox(0))
    seqs: dict = {}
    for is_send, a, b, ctx, pick in ops:
        if is_send:
            src, tag = a % 3, b % 2
            stream = (src, 0, ctx)
            seq = seqs.get(stream, 0)
            seqs[stream] = seq + 1
            env = Envelope(src, 0, ctx, tag, payload=None, seq=seq)
            hits = [box.first_posted_match(env) for box in boxes]
            assert [None if h is None else h.uid for h in hits] == [
                None if hits[0] is None else hits[0].uid
            ] * 2
            if hits[0] is not None:
                for box, hit in zip(boxes, hits):
                    box.remove_posted(hit)
            else:
                for box in boxes:
                    box.add_unexpected(env)
        else:
            sel_src = (0, 1, 2, ANY_SOURCE)[a % 4]
            sel_tag = (0, 1, ANY_TAG)[b % 3]
            cands = [box.candidates_for(ctx, sel_src, sel_tag) for box in boxes]
            uids = [[e.uid for e in c] for c in cands]
            assert uids[1] == uids[0]
            if cands[0]:
                chosen = cands[0][pick % len(cands[0])]
                for box in boxes:
                    box.remove_unexpected(chosen)
            else:
                req = Request(
                    RequestKind.RECV, 0, ctx, posted_src=sel_src, posted_tag=sel_tag
                )
                for box in boxes:
                    box.add_posted(req)
        counts = {box.pending_counts() for box in boxes}
        assert len(counts) == 1
    for box in boxes[1:]:
        assert [e.uid for e in box.unexpected] == [e.uid for e in ref.unexpected]
        assert [r.uid for r in box.posted] == [r.uid for r in ref.posted]


def _trace_fingerprint(trace):
    """Everything one run's trace recorded, down to envelope uids."""
    return (
        tuple(
            (
                e.rank, e.lc, e.index, e.ctx, e.tag, e.kind, e.forced,
                e.matched_source, e.matched_env_uid, e.matched_seq,
            )
            for e in trace.all_epochs()
        ),
        tuple(
            sorted(
                (pm.epoch, pm.source, pm.env_uid, pm.seq, pm.tag)
                for pm in trace.potential_matches
            )
        ),
        tuple(trace.unconsumed_decisions),
    )


class TestIndexedMatchingDifferential:
    """The indexed mailbox must be a pure representation change: reports,
    per-run traces, and outcome fingerprints bit-identical to the engine
    running on the linear-scan :class:`tests.oracle.ReferenceMatcher`
    (patched in as its mailbox class) across the whole bug zoo."""

    @pytest.mark.parametrize("entry", ZOO, ids=[e.name for e in ZOO])
    def test_bugzoo_indexed_vs_linear_identical(self, entry, monkeypatch):
        cfg = DampiConfig(max_interleavings=40)
        indexed = TraceKeepingVerifier(entry.program, entry.nprocs, cfg)
        indexed_report = indexed.verify()
        monkeypatch.setattr("repro.mpi.engine.IndexedMailBox", ReferenceMatcher)
        reference = TraceKeepingVerifier(entry.program, entry.nprocs, cfg)
        reference_report = reference.verify()
        assert _report_fingerprint(indexed_report) == _report_fingerprint(
            reference_report
        )
        assert len(indexed.traces) == len(reference.traces)
        for ti, tr in zip(indexed.traces, reference.traces):
            assert _trace_fingerprint(ti) == _trace_fingerprint(tr)
            assert completed_outcome(ti) == completed_outcome(tr)


def test_two_receivers_cross_free_still_exact():
    """Two independent funnels (ranks 0 and 1 both receive from disjoint
    sender sets) — outcome space is the product of the two."""

    def prog(p):
        if p.rank == 0:
            for _ in range(2):
                p.world.recv(source=ANY_SOURCE, tag=0)
        elif p.rank == 1:
            for _ in range(2):
                p.world.recv(source=ANY_SOURCE, tag=0)
        elif p.rank in (2, 3):
            p.world.send(p.rank, dest=0, tag=0)
        else:
            p.world.send(p.rank, dest=1, tag=0)

    # prune off: this enumerates outcomes, which pruning does not preserve
    cfg = DampiConfig(enable_monitor=False, prune=False)
    rep = DampiVerifier(prog, 6, cfg).verify()
    assert rep.ok
    # rank 0 orders {2,3}: 2 ways; rank 1 orders {4,5}: 2 ways
    assert len(rep.outcomes) == 4
    assert rep.interleavings == 4
