"""Prune before you replay: future-equivalence pruning + adaptive clocks.

Two cooperating passes that cut the number of guided replays a campaign
executes without changing what it *finds*:

**Future-equivalence pruning** (``DampiConfig.prune``).  After every
replay, the run is reduced to a *skeleton fingerprint*: per rank, the
ordered ``(kind, ctx, tag, explore, matched_source, matched_seq)`` tuple
of its wildcard epochs — with the match outcome of one designated epoch
masked out — plus the order-normalized potential-match skeleton
(``(epoch rank, epoch per-rank index, source, seq, tag)`` rows) and the
run's divergence facts.  Two sibling alternatives of a decision node
whose runs carry the same fingerprint *relative to that node* made
identical downstream communication choices; paired with an identical
checker-outcome digest (the exact material report error-dedup keys are
built from), the un-walked sibling's subtree is provably isomorphic to
the already-walked one — same future walk shape, same error keys — so
the generator marks it pruned instead of expanding it.  Every pruned
subtree is accounted for in ``report.prune_stats``, the ``prune.*``
metrics, and the journal.

Soundness (see ALGORITHM.md §4): the epoch keys (Lamport clocks) are
deliberately excluded from the fingerprint — sibling subtrees are
compared *positionally* — and the masked epoch is exactly the node the
siblings differ at, so the comparison is symmetric.  The residual
assumption is that state not observable in the communication skeleton
(a received payload that alters behaviour only under a *deeper* forced
flip) does not differ between fingerprint-equal siblings; the zoo-wide
property tests pin the resulting findings-bit-identity empirically.

**Adaptive clock escalation** (``DampiConfig.adaptive_clocks``).  Run
the configured scalar clock by default; the clock module flags every
epoch where a scalar ``leq`` exclusion fired (the Fig. 4 cross-coupled
imprecision pattern: the scalar order may be coincidental where vectors
stay incomparable).  For each such run, one *precision replay* of the
same schedule under vector clocks re-derives the flagged epochs'
alternatives; sources the vector analysis admits but the scalar one
excluded are injected into the scalar trace as synthetic potential
matches (``env_uid == ESCALATED_ENV_UID``), making the missed
interleavings explorable without paying O(nprocs) piggyback cost
campaign-wide.  The augmentation happens *before* the trace is
journaled or streamed to a coordinator, so resumes and distributed
assembly replay it deterministically for free.
"""

from __future__ import annotations

from typing import Optional

try:  # the builtin module: no OpenSSL mapped for one digest
    from _blake2 import blake2b
except ImportError:  # an interpreter built without it
    from hashlib import blake2b

from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import EpochKey, PotentialMatch, RunTrace
from repro.errors import DeadlockError

#: env uid of a potential match injected by adaptive escalation — real
#: envelope uids are non-negative, so it never collides with (or is
#: mistaken for) an actually-observed message
ESCALATED_ENV_UID = -1


def _digest(obj) -> str:
    return blake2b(repr(obj).encode(), digest_size=16).hexdigest()


def outcome_digest(result, trace: RunTrace) -> str:
    """Checker-outcome digest of one run: exactly the material the
    report's error-dedup keys (`DampiVerifier._record_run`) are built
    from, plus the divergence facts.  Two runs with equal digests
    contribute identical error keys to the report."""
    crashes = tuple(
        sorted(
            (rank, type(exc).__name__, str(exc))
            for rank, exc in result.primary_errors.items()
            if not isinstance(exc, DeadlockError)
        )
    )
    leaks = result.artifacts.get("leaks")
    comm_leaks = tuple(str(l) for l in leaks.comm_leaks) if leaks else ()
    req_leaks = tuple(str(l) for l in leaks.request_leaks) if leaks else ()
    return _digest(
        (
            str(sorted(result.deadlock.blocked.items()))
            if result.deadlocked
            else None,
            crashes,
            comm_leaks,
            req_leaks,
            trace.diverged,
            tuple(trace.unconsumed_decisions),
        )
    )


def _fingerprint(trace: RunTrace) -> str:
    """Skeleton fingerprint of one run, canonical under source renaming.

    Epoch identities (Lamport clocks) are excluded so sibling subtrees
    compare positionally, and matched sources are relabelled by order of
    first appearance along the deterministic ``(rank, index)`` epoch
    traversal.  Two sibling runs share a forced prefix, so the prefix
    relabelling coincides; fingerprint equality therefore means there is
    a source bijection *fixing the prefix* under which the two futures
    are structurally identical — op skeleton per rank, match choices,
    the late-message (alternative) structure, and divergence all line
    up.  Sources that appear only in potential matches (never matched
    anywhere) keep their real identity — they correspond across siblings
    as-is."""
    label: dict[int, int] = {}

    def canon(src):
        if src is None:
            return None
        got = label.get(src)
        return (0, got) if got is not None else (1, src)

    # first pass fixes the relabelling from the matched sources, in
    # deterministic traversal order
    for rank in sorted(trace.epochs):
        for e in trace.epochs[rank]:
            s = e.matched_source
            if s is not None and s not in label:
                label[s] = len(label)
    index_of: dict[EpochKey, tuple[int, int]] = {}
    skeleton = []
    for rank in sorted(trace.epochs):
        row = []
        for e in trace.epochs[rank]:
            index_of[e.key] = (e.rank, e.index)
            row.append(
                (e.kind, e.ctx, e.tag, e.explore,
                 canon(e.matched_source), e.matched_seq)
            )
        skeleton.append((rank, tuple(row)))
    pms = sorted(
        (index_of.get(m.epoch, m.epoch), canon(m.source), m.seq, m.tag)
        for m in trace.potential_matches
    )
    return _digest(
        (
            trace.nprocs,
            trace.wildcard_count,
            trace.diverged,
            tuple(skeleton),
            tuple(pms),
        )
    )


class RunSignature:
    """Future-equivalence signature of one run.

    The canonical fingerprint is position- and relabelling-normalized,
    so it is the same whichever decision node compares it; ``for_key``
    keeps the per-node call shape (the generator asks at the flipped
    node and at each fresh node) while computing the pair once.
    Returns the hashable ``(fingerprint, outcome_digest)`` pair stored
    in ``DecisionNode.sigs``."""

    __slots__ = ("trace", "osig", "_sig")

    def __init__(self, trace: RunTrace, osig: str):
        self.trace = trace
        self.osig = osig
        self._sig: Optional[tuple[str, str]] = None

    def for_key(self, key: EpochKey) -> tuple[str, str]:
        if self._sig is None:
            self._sig = (_fingerprint(self.trace), self.osig)
        return self._sig


def signature_of(result, trace: RunTrace) -> RunSignature:
    """Build a run's signature from its result — live, or rebuilt from a
    run record (:func:`repro.dampi.journal.result_from_entry` reproduces
    exactly the material :func:`outcome_digest` hashes)."""
    return RunSignature(trace, outcome_digest(result, trace))


# -- adaptive clock escalation -------------------------------------------------


def escalation_config(cfg):
    """The config of a precision replay: same program semantics, vector
    clocks, every campaign-level knob (fleet, tracing, journal, faults)
    stripped — one in-process replay, nothing else."""
    return cfg.replace(
        clock_impl="vector",
        adaptive_clocks=False,
        prune=False,
        jobs=1,
        trace_events=False,
        progress_interval_seconds=None,
        fault_plan=None,
        max_interleavings=None,
        max_seconds=None,
    )


def translate_decisions(
    decisions: Optional[EpochDecisions], trace: RunTrace
) -> Optional[EpochDecisions]:
    """Map a scalar-clock schedule onto vector-clock epoch keys.

    A vector clock's local component ticks only at the rank's own
    wildcard operations and merges never raise it, so under vector
    clocks the k-th epoch of rank r has key ``(r, k)`` — the per-rank
    epoch *index*.  The scalar trace supplies the index of every forced
    epoch.  Returns None when some forced key recorded no epoch (a
    diverged prefix — there is nothing sound to escalate)."""
    if decisions is None:
        return EpochDecisions()
    forced = {}
    for (rank, lc), src in decisions.forced.items():
        e = trace.epoch_by_key((rank, lc))
        if e is None:
            return None
        forced[(rank, e.index)] = src
    flip = None
    if decisions.flip is not None:
        e = trace.epoch_by_key(tuple(decisions.flip))
        if e is None:
            return None
        flip = (e.rank, e.index)
    return EpochDecisions(forced=forced, flip=flip)


def escalate_trace(
    program,
    nprocs: int,
    cfg,
    decisions: Optional[EpochDecisions],
    trace: RunTrace,
    args: tuple = (),
    kwargs: Optional[dict] = None,
) -> int:
    """One precision replay: re-verify a scalar run's flagged epochs
    under vector clocks and inject the vector-only alternatives into
    ``trace`` (in place).  Returns the number of injected potential
    matches (0 = every scalar exclusion was genuine causality).

    Safety: an injection only happens when the vector replay's epoch at
    the same per-rank position has the same shape *and the same match*
    as the scalar epoch — a behavioural divergence between the two
    replays skips the epoch rather than guessing."""
    from repro.dampi.matcher import compute_alternatives
    from repro.dampi.verifier import DampiVerifier

    if not trace.scalar_risk:
        return 0
    translated = translate_decisions(decisions, trace)
    if translated is None:
        return 0
    sub = DampiVerifier(
        program, nprocs, escalation_config(cfg), args=args, kwargs=kwargs or {}
    )
    try:
        _result, vtrace = sub.run_once(
            translated if (translated.forced or translated.flip is not None) else None
        )
    finally:
        sub.close()
    valts = compute_alternatives(vtrace)
    injected = 0
    for key in trace.scalar_risk:
        e = trace.epoch_by_key(tuple(key))
        if e is None or not e.explore or e.matched_source is None:
            continue
        vkey = (e.rank, e.index)
        ve = vtrace.epoch_by_key(vkey)
        if (
            ve is None
            or ve.matched_source != e.matched_source
            or (ve.kind, ve.ctx, ve.tag) != (e.kind, e.ctx, e.tag)
        ):
            continue
        have = {m.source for m in trace.potential_matches if m.epoch == e.key}
        have.add(e.matched_source)
        for src, pm in sorted(valts.get(vkey, {}).items()):
            if src in have:
                continue
            trace.potential_matches.append(
                PotentialMatch(
                    epoch=e.key,
                    source=src,
                    env_uid=ESCALATED_ENV_UID,
                    seq=pm.seq,
                    tag=pm.tag,
                    stamp=None,
                )
            )
            injected += 1
    return injected
