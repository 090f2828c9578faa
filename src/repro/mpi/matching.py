"""Point-to-point message matching.

The engine keeps, per destination world rank, two structures that mirror a
real MPI library's *unexpected message queue* and *posted receive queue*:

* arrived envelopes not yet consumed by any receive, in arrival order
  (which, per ``(source, context, tag)`` stream, is send order — this is
  what makes first-compatible scanning implement MPI's non-overtaking
  rule), and
* posted-but-unmatched receive requests, in post order.

Wildcard receives may be satisfiable by several sources at once; a
pluggable :class:`MatchPolicy` picks the winner.  The policy models the
"MPI implementations bias non-deterministic outcomes" phenomenon from the
paper's introduction: DAMPI's whole job is to cover the outcomes a fixed
policy would never produce.

The mailbox is :class:`IndexedMailBox`: dict indexes keyed by
``(ctx, src, tag)`` and ``(ctx, src)`` for the unexpected queue plus
selector buckets for posted receives, making deposit/match/candidate
queries O(1)–O(sources) instead of O(queue depth).  Candidate lists come
out in global arrival order (envelope uids are assigned under the engine
lock at deposit time, so uid order *is* arrival order), and posted
receives complete oldest-first (request uids are assigned at post time).

The matching rule itself is stated once, independently of this module, as
flat first-compatible scans in ``tests/oracle.py::ReferenceMatcher``; a
zoo-wide differential (``tests/test_coverage_property.py``) runs the
engine on both and requires identical reports.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Optional

from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.message import Envelope
from repro.mpi.request import Request


class MatchPolicy:
    """Chooses among candidate envelopes for a wildcard receive.

    ``choose`` receives one candidate per eligible source — each already the
    earliest matchable message from that source — and returns the winner.
    Subclasses must be deterministic functions of their construction
    arguments plus the candidate list if replays are to be reproducible.
    """

    name = "abstract"

    def choose(self, candidates: list[Envelope]) -> Envelope:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"MatchPolicy({self.name})"


class ArrivalPolicy(MatchPolicy):
    """Pick the candidate that arrived first (lowest queue position).

    Candidates are presented in queue order, so this is simply the head —
    the behaviour of most eager-protocol MPI libraries.
    """

    name = "arrival"

    def choose(self, candidates: list[Envelope]) -> Envelope:
        return candidates[0]


class LowestRankPolicy(MatchPolicy):
    """Always favour the lowest source rank — maximally biased, the kind of
    implementation determinism that masks Heisenbugs."""

    name = "lowest_rank"

    def choose(self, candidates: list[Envelope]) -> Envelope:
        return min(candidates, key=lambda e: e.src)


class HighestRankPolicy(MatchPolicy):
    """Mirror of :class:`LowestRankPolicy`; useful in tests to force the
    'other' native outcome."""

    name = "highest_rank"

    def choose(self, candidates: list[Envelope]) -> Envelope:
        return max(candidates, key=lambda e: e.src)


class SeededRandomPolicy(MatchPolicy):
    """Seeded pseudo-random choice — a Jitterbug-style perturbation baseline.

    Deterministic given the seed and the call sequence, so a run is
    reproducible, but distinct seeds sample distinct interleavings with no
    coverage guarantee (the contrast the paper draws with random-delay
    testing).
    """

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, candidates: list[Envelope]) -> Envelope:
        return candidates[self._rng.randrange(len(candidates))]


_POLICIES: dict[str, Callable[[], MatchPolicy]] = {
    "arrival": ArrivalPolicy,
    "lowest_rank": LowestRankPolicy,
    "highest_rank": HighestRankPolicy,
}


def make_policy(spec) -> MatchPolicy:
    """Build a policy from a spec: an instance, a name, or ``random:<seed>``."""
    if isinstance(spec, MatchPolicy):
        return spec
    if isinstance(spec, str):
        if spec in _POLICIES:
            return _POLICIES[spec]()
        if spec.startswith("random"):
            _, _, seed = spec.partition(":")
            return SeededRandomPolicy(int(seed) if seed else 0)
    raise ValueError(f"unknown match policy {spec!r}")


def _env_uid(env: Envelope) -> int:
    return env.uid


def _req_uid(req: Request) -> int:
    return req.uid


class IndexedMailBox:
    """Indexed unexpected/posted queues for one destination rank.

    Each queued envelope lives in exactly one deque:
    ``_streams[(ctx, src)][tag]``, its ``(ctx, src, tag)`` stream in
    arrival order.  Posted receives live in buckets keyed by their exact
    selector ``(ctx, effective_src, posted_tag)``.

    Invariants that make this bit-identical to a first-compatible linear
    scan over flat queues:

    * envelope uids are assigned at deposit time by the engine's token holder, so
      uid order *is* global arrival order — sorting per-source stream
      heads by uid reproduces the linear scan's candidate order exactly;
    * the envelope a receive consumes is always its tag-stream's head
      (non-overtaking), so removal is an O(1) ``popleft``;
    * a source's earliest ``ANY_TAG``-compatible envelope is the smallest
      uid among its tag-stream heads;
    * an arriving envelope checks at most four posted buckets
      (src/ANY × tag/ANY) and completes the bucket head with the smallest
      request uid — the oldest compatible posted receive, as post order
      is uid order.

    Drained deques and their dict entries are *kept* for reuse: per-run
    key cardinality is bounded by the (communicator, peer, tag) combos the
    program actually uses, and dropping the alloc/free churn is where the
    constant-factor win over repeated linear scans comes from on
    short-queue workloads.
    """

    __slots__ = ("dst", "_streams", "_ctx_srcs", "_posted", "_n_unexpected", "_n_posted")

    def __init__(self, dst: int):
        self.dst = dst
        #: (ctx, src) -> {tag: deque[Envelope] in arrival order}
        self._streams: dict[tuple[int, int], dict[int, deque]] = {}
        #: ctx -> sources that have ever deposited on that ctx
        self._ctx_srcs: dict[int, set[int]] = {}
        #: (ctx, effective_src, posted_tag) -> deque[Request], post order
        self._posted: dict[tuple[int, int, int], deque] = {}
        self._n_unexpected = 0
        self._n_posted = 0

    # -- unexpected-queue internals ------------------------------------------

    @staticmethod
    def _src_oldest(by_tag: dict) -> Optional[Envelope]:
        """A source's earliest queued envelope across tags: the smallest
        uid among its tag-stream heads."""
        best = None
        for dq in by_tag.values():
            if dq:
                e = dq[0]
                if best is None or e.uid < best.uid:
                    best = e
        return best

    # -- queries -----------------------------------------------------------

    def candidates_for(self, ctx: int, src: int, tag: int) -> list[Envelope]:
        """Matchable envelopes for a (possibly wildcard) selector; at most
        one per source (its earliest compatible envelope), in global
        arrival order."""
        if not self._n_unexpected:
            return []
        if src != ANY_SOURCE:
            by_tag = self._streams.get((ctx, src))
            if not by_tag:
                return []
            if tag != ANY_TAG:
                dq = by_tag.get(tag)
                return [dq[0]] if dq else []
            env = self._src_oldest(by_tag)
            return [env] if env is not None else []
        srcs = self._ctx_srcs.get(ctx)
        if not srcs:
            return []
        out: list[Envelope] = []
        streams = self._streams
        if tag != ANY_TAG:
            for s in srcs:
                by_tag = streams.get((ctx, s))
                if by_tag:
                    dq = by_tag.get(tag)
                    if dq:
                        out.append(dq[0])
        else:
            for s in srcs:
                by_tag = streams.get((ctx, s))
                if by_tag:
                    env = self._src_oldest(by_tag)
                    if env is not None:
                        out.append(env)
        if len(out) > 1:
            out.sort(key=_env_uid)
        return out

    def first_posted_match(self, env: Envelope) -> Optional[Request]:
        """Oldest posted receive this envelope may complete, honouring
        non-overtaking: any queued envelope of the same (ctx, src, tag)
        stream is older and must match first."""
        ctx, src, tag = env.ctx, env.src, env.tag
        if self._n_unexpected:
            by_tag = self._streams.get((ctx, src))
            if by_tag:
                dq = by_tag.get(tag)
                if dq:
                    return None
        if not self._n_posted:
            return None
        best: Optional[Request] = None
        posted = self._posted
        for key in (
            (ctx, src, tag),
            (ctx, src, ANY_TAG),
            (ctx, ANY_SOURCE, tag),
            (ctx, ANY_SOURCE, ANY_TAG),
        ):
            dq = posted.get(key)
            if dq:
                r = dq[0]
                if best is None or r.uid < best.uid:
                    best = r
        return best

    # -- mutations (engine calls these under its lock) ----------------------

    def add_unexpected(self, env: Envelope) -> None:
        skey = (env.ctx, env.src)
        by_tag = self._streams.get(skey)
        if by_tag is None:
            by_tag = self._streams[skey] = {}
            self._ctx_srcs.setdefault(env.ctx, set()).add(env.src)
        dq = by_tag.get(env.tag)
        if dq is None:
            by_tag[env.tag] = dq = deque()
        dq.append(env)
        self._n_unexpected += 1

    def remove_unexpected(self, env: Envelope) -> None:
        dq = self._streams[(env.ctx, env.src)][env.tag]
        if dq[0] is env:
            dq.popleft()
        else:  # never hit by engine paths (non-overtaking picks the head)
            dq.remove(env)
        # consumed — probes that only *peeked* must not resurrect it
        env.matched = True
        self._n_unexpected -= 1

    def add_posted(self, req: Request) -> None:
        key = (req.ctx, req.effective_src, req.posted_tag)
        dq = self._posted.get(key)
        if dq is None:
            self._posted[key] = dq = deque()
        dq.append(req)
        self._n_posted += 1

    def remove_posted(self, req: Request) -> None:
        dq = self._posted[(req.ctx, req.effective_src, req.posted_tag)]
        if dq[0] is req:
            dq.popleft()
        else:  # never hit by engine paths (oldest-first completion)
            dq.remove(req)
        self._n_posted -= 1

    # -- introspection -------------------------------------------------------

    @property
    def unexpected(self) -> list[Envelope]:
        """Arrived-but-unreceived envelopes in arrival order (uid order) —
        reconstructed from the indexes; introspection/diagnostics only."""
        out = [
            env
            for by_tag in self._streams.values()
            for dq in by_tag.values()
            for env in dq
        ]
        out.sort(key=_env_uid)
        return out

    @property
    def posted(self) -> list[Request]:
        """Posted-but-unmatched receives in post order (uid order)."""
        out = [req for dq in self._posted.values() for req in dq]
        out.sort(key=_req_uid)
        return out

    def pending_counts(self) -> tuple[int, int]:
        """(unexpected, posted) queue depths — used in diagnostics and the
        ISP cost model's state-size term."""
        return self._n_unexpected, self._n_posted

