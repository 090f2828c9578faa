"""An independent feasibility oracle for wildcard match outcomes.

DAMPI's correctness claim is about *coverage*: the set of wildcard match
outcomes it explores should equal the set of outcomes feasible under MPI
semantics.  The verifier itself computes that set with Lamport/vector
clocks and replay — so testing it against itself proves nothing.  This
module computes the ground truth by an entirely different mechanism: an
exhaustive state-space search over an abstract operational semantics of a
restricted program family.

Program family (one op list per rank):

* ``("send", dest, tag)``     — eager send (never blocks)
* ``("recv", src, tag)``      — deterministic receive (blocks)
* ``("wild", tag)``           — wildcard receive (blocks; branch point)
* ``("iwild", h, tag)``       — post a wildcard ``Irecv`` as handle ``h``
* ``("wait", h)`` / ``("test", h)`` — complete handle ``h`` (``test``
  polls until done, so it blocks exactly like ``wait``)
* ``("barrier",)`` / ``("allreduce",)`` — a collective every rank calls

Abstract semantics: an eager send becomes *in flight* the moment its
rank's program counter passes it.  A receive may fire iff the earliest
in-flight compatible message per its selector exists (non-overtaking: per
(source, tag) stream, only the oldest unconsumed message is matchable).
A posted ``iwild`` is *pending* until some step matches it — any time
between its post and its ``wait``/``test``, which block until it has —
and a rank's pending receives take a compatible message before any
receive it posts later.  A collective fires once every rank's program
counter sits on one, advancing them all together.  The search explores
every interleaving of rank steps and every wildcard branch, collecting
the terminal assignments ``wildcard occurrence -> matched source`` plus
whether that branch deadlocks.

Complexity is exponential — keep programs tiny (the differential test
does).
"""

from __future__ import annotations

#: op constructors for readability in tests
def send(dest: int, tag: int = 0):
    return ("send", dest, tag)


def recv(src: int, tag: int = 0):
    return ("recv", src, tag)


def wild(tag: int = 0):
    return ("wild", tag)


def iwild(h: int, tag: int = 0):
    return ("iwild", h, tag)


def wait(h: int):
    return ("wait", h)


def test(h: int):
    return ("test", h)


test.__test__ = False  # an op constructor, not a pytest test


BARRIER = ("barrier",)
ALLREDUCE = ("allreduce",)

#: ops that post a wildcard receive (each one is an epoch, numbered per
#: rank in program order)
_WILDCARDS = ("wild", "iwild")
#: ops every rank calls together
_COLLECTIVES = ("barrier", "allreduce")


def feasible_outcomes(programs: list[list[tuple]]) -> tuple[set, bool]:
    """All feasible wildcard assignments plus a any-deadlock flag.

    Returns ``(outcomes, has_deadlock)`` where each outcome is a frozenset
    of ``((rank, wildcard_ordinal), matched_source)`` for *completed*
    wildcard receives along a maximal execution, and ``has_deadlock`` is
    True iff some branch gets stuck before every rank finishes.
    """
    nprocs = len(programs)
    outcomes: set = set()
    deadlocks = [False]
    seen_states: set = set()

    def matchable(in_flight, dst, want_src, tag):
        """Earliest in-flight message per source satisfying the selector,
        honouring per-(src, dst, tag) stream order."""
        out = []
        for s in range(nprocs):
            if want_src is not None and s != want_src:
                continue
            # the oldest in-flight seq from s to dst with this tag
            cands = [m for m in in_flight if m[0] == s and m[1] == dst and m[2] == tag]
            if cands:
                out.append(min(cands, key=lambda m: m[3]))
        return out

    def unclaimed(hits, pending, rank, before_pc):
        """``hits`` minus the messages a pending receive of ``rank`` posted
        before ``before_pc`` would take first (receives match in post
        order)."""
        claimed = {q[3] for q in pending if q[0] == rank and q[1] < before_pc}
        return [m for m in hits if m[2] not in claimed]

    def step(pcs, in_flight, sent_counts, assignment, pending, done):
        key = (pcs, in_flight, assignment, pending, done)
        if key in seen_states:
            return
        seen_states.add(key)

        progressed = False
        # a pending wildcard Irecv may match at any step before its wait
        for post in pending:
            rank, post_pc, h, tag, ordinal = post
            hits = matchable(in_flight, rank, None, tag)
            for m in unclaimed(hits, pending, rank, post_pc):
                step(
                    pcs,
                    in_flight - {m},
                    sent_counts,
                    assignment | {((rank, ordinal), m[0])},
                    pending - {post},
                    done | {(rank, h)},
                )
                progressed = True
        ops = [prog[pc] if pc < len(prog) else None for prog, pc in zip(programs, pcs)]
        if None not in ops and len({op[0] for op in ops}) == 1 and ops[0][0] in _COLLECTIVES:
            new_pcs = tuple(pc + 1 for pc in pcs)
            step(new_pcs, in_flight, sent_counts, assignment, pending, done)
            progressed = True
        for rank, pc in enumerate(pcs):
            op = ops[rank]
            if op is None:
                continue
            new_pcs = pcs[:rank] + (pc + 1,) + pcs[rank + 1 :]
            if op[0] == "send":
                _, dest, tag = op
                seq = sent_counts.get((rank, dest, tag), 0)
                new_sent = dict(sent_counts)
                new_sent[(rank, dest, tag)] = seq + 1
                step(
                    new_pcs,
                    in_flight | {(rank, dest, tag, seq)},
                    new_sent,
                    assignment,
                    pending,
                    done,
                )
                progressed = True
            elif op[0] == "recv":
                _, src, tag = op
                for m in unclaimed(matchable(in_flight, rank, src, tag), pending, rank, pc):
                    step(new_pcs, in_flight - {m}, sent_counts, assignment, pending, done)
                    progressed = True
            elif op[0] == "wild":
                _, tag = op
                ordinal = sum(1 for prior in programs[rank][:pc] if prior[0] in _WILDCARDS)
                for m in unclaimed(matchable(in_flight, rank, None, tag), pending, rank, pc):
                    new_assignment = assignment | {((rank, ordinal), m[0])}
                    step(new_pcs, in_flight - {m}, sent_counts, new_assignment, pending, done)
                    progressed = True
            elif op[0] == "iwild":
                _, h, tag = op
                ordinal = sum(1 for prior in programs[rank][:pc] if prior[0] in _WILDCARDS)
                post = (rank, pc, h, tag, ordinal)
                step(new_pcs, in_flight, sent_counts, assignment, pending | {post}, done)
                progressed = True
            elif op[0] in ("wait", "test"):
                if (rank, op[1]) in done:
                    step(new_pcs, in_flight, sent_counts, assignment, pending, done)
                    progressed = True

        if not progressed:
            if all(pc >= len(programs[r]) for r, pc in enumerate(pcs)):
                outcomes.add(frozenset(assignment))
            else:
                deadlocks[0] = True
                # partial outcomes of deadlocked branches are still feasible
                # knowledge, but DAMPI reports them as deadlock runs; we
                # collect them separately via the flag only.

    empty = frozenset()
    step(tuple(0 for _ in programs), empty, {}, empty, empty, empty)
    return outcomes, deadlocks[0]


def as_runnable(programs: list[list[tuple]]):
    """Compile an op-list program into a runnable simulator program."""
    from repro.mpi.constants import ANY_SOURCE

    def runner(p):
        reqs = {}
        for op in programs[p.rank]:
            if op[0] == "send":
                p.world.send(f"{p.rank}", dest=op[1], tag=op[2])
            elif op[0] == "recv":
                p.world.recv(source=op[1], tag=op[2])
            elif op[0] == "wild":
                p.world.recv(source=ANY_SOURCE, tag=op[1])
            elif op[0] == "iwild":
                reqs[op[1]] = p.world.irecv(source=ANY_SOURCE, tag=op[2])
            elif op[0] == "wait":
                reqs[op[1]].wait()
            elif op[0] == "test":
                while not reqs[op[1]].test()[0]:
                    pass
            elif op[0] == "barrier":
                p.world.barrier()
            elif op[0] == "allreduce":
                p.world.allreduce(1)

    return runner


# ---------------------------------------------------------------------------
# Reference linear-scan matcher
# ---------------------------------------------------------------------------


class ReferenceMatcher:
    """An independent model of MPI point-to-point matching for one receiver.

    The one executable statement of the semantics the production mailbox
    (``repro.mpi.matching.IndexedMailBox``) must implement —
    unexpected-message queue in arrival order, posted-receive queue in
    post order, first-compatible selection, non-overtaking per
    ``(source, dest, ctx, tag)`` stream — sharing no code with it: flat
    lists, explicit scans, and its own compatibility predicate.  The
    differential tests (``tests/test_coverage_property.py``) drive both
    with identical operation sequences, and run the engine itself on
    this class, requiring identical answers.

    Duck-typed over the engine's objects: envelopes expose
    ``ctx/src/tag/uid``, posted receives ``ctx/effective_src/posted_tag/uid``.
    """

    def __init__(self, dst: int):
        from repro.mpi.constants import ANY_SOURCE, ANY_TAG

        self.dst = dst
        self._any_src = ANY_SOURCE
        self._any_tag = ANY_TAG
        self.unexpected: list = []  # arrival order
        self.posted: list = []  # post order

    def _selector_accepts(self, env, want_src: int, want_tag: int) -> bool:
        if want_src != self._any_src and env.src != want_src:
            return False
        return want_tag == self._any_tag or env.tag == want_tag

    # -- queries (the MailBox protocol) ------------------------------------

    def candidates_for(self, ctx: int, src: int, tag: int) -> list:
        """At most one envelope per source — its earliest compatible one —
        in arrival order of those earliest envelopes."""
        first_per_src: dict = {}
        for env in self.unexpected:
            if env.ctx != ctx or env.src in first_per_src:
                continue
            if self._selector_accepts(env, src, tag):
                first_per_src[env.src] = env
        return list(first_per_src.values())

    def first_posted_match(self, env):
        """Oldest posted receive ``env`` may complete — or None, either
        because nothing compatible is posted or because an older queued
        envelope of the same (ctx, src, tag) stream must match first."""
        for older in self.unexpected:
            if older.ctx == env.ctx and older.src == env.src and older.tag == env.tag:
                return None
        for req in self.posted:
            if req.ctx == env.ctx and self._selector_accepts(
                env, req.effective_src, req.posted_tag
            ):
                return req
        return None

    # -- mutations ---------------------------------------------------------

    def add_unexpected(self, env) -> None:
        self.unexpected.append(env)

    def remove_unexpected(self, env) -> None:
        self.unexpected.remove(env)

    def add_posted(self, req) -> None:
        self.posted.append(req)

    def remove_posted(self, req) -> None:
        self.posted.remove(req)

    def pending_counts(self) -> tuple[int, int]:
        return len(self.unexpected), len(self.posted)


def dampi_outcomes(report) -> set:
    """DAMPI's explored wildcard assignments, shaped like the oracle's.

    Epochs are mapped to (rank, per-rank wildcard ordinal) via the epoch
    index (wildcards only, in program order).
    """
    out = set()
    for run in report.runs:
        if "deadlock" in run.error_kinds:
            continue  # compare completed executions only
        per_rank_sorted = {}
        for (key, src) in run.outcome:
            per_rank_sorted.setdefault(key[0], []).append((key[1], src))
        assignment = set()
        for rank, items in per_rank_sorted.items():
            for ordinal, (_lc, src) in enumerate(sorted(items)):
                assignment.add(((rank, ordinal), src))
        out.add(frozenset(assignment))
    return out
