"""The paper's illustrative micro-patterns, plus parametric test programs.

These are the smallest programs that exhibit each phenomenon the paper
discusses; tests and examples drive the verifiers over them.
"""

from __future__ import annotations

from repro.mpi.constants import ANY_SOURCE


class WildcardBugError(RuntimeError):
    """The planted defect in fig3/fig10: a match outcome the native run
    never produces crashes the program."""


def fig3_program(p):
    """Paper Fig. 3: a Heisenbug only visible under an alternate match.

    P0 sends 22 to P1; P2 sends 33 to P1; P1's wildcard receive natively
    matches P0 (it sends first under deterministic scheduling), but if it
    matches P2's 33 the program errors.  DAMPI must catch this in a
    guided replay.
    """
    if p.rank == 0:
        req = p.world.isend(22, dest=1)
        req.wait()
    elif p.rank == 1:
        req = p.world.irecv(source=ANY_SOURCE)
        status = req.wait()
        if req.data == 33:
            raise WildcardBugError("x == 33: the alternate match crashes")
    elif p.rank == 2:
        req = p.world.isend(33, dest=1)
        req.wait()


def fig4_program(p):
    """Paper Fig. 4: the cross-coupled pattern where Lamport clocks lose
    completeness.

    Rank mapping (vs. the paper's P0..P3, reordered so the deterministic
    self run reproduces the paper's initial matching — each wildcard first
    sees only its "own" sender):

    ======  =================================================
    P0      Isend(to:2)                      (paper's P0)
    P1      Isend(to:3)                      (paper's P3)
    P2      Irecv(*); Isend(to:3); Recv(3)   (paper's P1)
    P3      Irecv(*); Isend(to:2); Recv(2)   (paper's P2)
    ======  =================================================

    Self run: P2's wildcard matches P0, P3's matches P1, and the cross
    sends (P2→P3, P3→P2) pair with the trailing deterministic receives.
    The cross sends are genuinely concurrent with the remote wildcards —
    forcing either produces a feasible (and deadlocking) execution — but
    each carries a Lamport clock equal to the remote epoch's post-tick
    value, so Lamport-DAMPI judges them causally-after and misses both;
    vector clocks keep the epochs incomparable and find both (paper
    §II-F).  Requires 4 ranks.
    """
    if p.rank == 0:
        p.world.send("m0", dest=2)
    elif p.rank == 1:
        p.world.send("m1", dest=3)
    elif p.rank == 2:
        r = p.world.irecv(source=ANY_SOURCE)
        r.wait()
        p.world.send("c2", dest=3)
        p.world.recv(source=3)
    elif p.rank == 3:
        r = p.world.irecv(source=ANY_SOURCE)
        r.wait()
        p.world.send("c3", dest=2)
        p.world.recv(source=2)


def fig10_program(p):
    """Paper Fig. 10: the omission pattern DAMPI's monitor must flag.

    P1 posts a wildcard Irecv and *crosses a barrier before waiting on
    it*; with the paper's single clock the barrier transmits P1's
    already-ticked clock, so P2's late-arriving send no longer looks late
    and DAMPI misses it as a potential match — even though under some MPI
    runtimes it can match (the Isend/Irecv cross the barrier eagerly) and
    would crash the program.  Our clocks commit the tick only at the Wait
    (the paper's §V fix), so the default finds the crash.  Requires 3
    ranks.
    """
    if p.rank == 0:
        req = p.world.isend(22, dest=1)
        p.world.barrier()
        req.wait()
    elif p.rank == 1:
        req = p.world.irecv(source=ANY_SOURCE)
        p.world.barrier()  # clock escapes here, before the wait: §V pattern
        req.wait()
        if req.data == 33:
            raise WildcardBugError("x == 33 after the barrier")
    elif p.rank == 2:
        p.world.barrier()
        req = p.world.isend(33, dest=1)
        req.wait()


def wildcard_lattice(p, receives: int = 2, senders: int = 2, rounds_tag: int = 0):
    """Parametric coverage workload: rank 0 posts ``receives`` sequential
    wildcard receives; ranks ``1..senders`` each send ``ceil`` messages so
    every receive has ``senders`` candidates.

    The full interleaving space has ``senders ** receives`` outcomes when
    every sender keeps a message available for every receive — the
    ``P^N`` state-space example of paper §III-B.  Ranks beyond
    ``senders`` idle.
    """
    if p.rank == 0:
        got = []
        for _ in range(receives):
            got.append(p.world.recv(source=ANY_SOURCE, tag=rounds_tag))
        return tuple(got)
    if 1 <= p.rank <= senders:
        for _ in range(receives):
            p.world.send(p.rank, dest=0, tag=rounds_tag)
    return None


def deadlock_program(p):
    """Head-to-head blocking receives: the canonical deadlock."""
    peer = 1 - p.rank if p.rank < 2 else p.rank
    if p.rank < 2:
        p.world.recv(source=peer)


def orphan_resources_program(p):
    """Creates one communicator leak and one request leak per rank —
    exercises Table II's C-Leak/R-Leak detection."""
    dup = p.world.dup()  # never freed: C-Leak
    if p.rank == 0:
        # a receive that can never complete, freed while active: R-Leak
        req = p.world.irecv(source=p.size - 1, tag=999)
        req.free()
    dup.barrier()
