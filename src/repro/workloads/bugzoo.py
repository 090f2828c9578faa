"""A corpus of classic MPI defect patterns ("the bug zoo").

Each entry is a small program exhibiting one well-known MPI bug class
from the testing/verification literature (the kinds of defects the
paper's intro says existing tools mishandle), together with the detector
expected to flag it.  `tests/test_bugzoo.py` drives every entry through
the right checker; the zoo doubles as executable documentation of what
each detector is *for*.

Entries are deliberately minimal — the smallest program that exhibits
the defect — and deterministic unless the bug class itself is about
non-determinism.
"""

from __future__ import annotations

from typing import Callable

from repro.mpi.constants import ANY_SOURCE, ANY_TAG, SUM


class ZooEntry:
    """One defect pattern.

    ``expect`` names the finding class:
    ``deadlock`` / ``crash`` (via DAMPI verification),
    ``mpi_error`` (engine-level semantic check in any run),
    ``communicator_leak`` / ``request_leak`` (leak checker),
    ``monitor`` (§V omission alert),
    ``clean`` (a tempting-but-correct pattern: must NOT be flagged).
    """

    __slots__ = ("name", "nprocs", "program", "expect", "notes")

    def __init__(
        self, name: str, nprocs: int, program: Callable, expect: str, notes: str = ""
    ):
        self.name = name
        self.nprocs = nprocs
        self.program = program
        self.expect = expect
        self.notes = notes


# --------------------------------------------------------------------- #
# deadlock family                                                        #
# --------------------------------------------------------------------- #


def head_to_head_recv(p):
    """Both ranks receive first: the textbook deadlock."""
    p.world.recv(source=1 - p.rank)
    p.world.send("x", dest=1 - p.rank)


def ssend_cycle(p):
    """A send cycle that only eager buffering hides; synchronous mode
    exposes it (the 'unsafe program' of the MPI standard)."""
    p.world.ssend("x", dest=(p.rank + 1) % p.size)
    p.world.recv(source=(p.rank - 1) % p.size)


def tag_mismatch(p):
    """Sender and receiver disagree on the tag: the receive starves."""
    if p.rank == 0:
        p.world.send("x", dest=1, tag=1)
        p.world.recv(source=1, tag=3)
    else:
        p.world.recv(source=0, tag=2)  # wrong tag


def missing_collective_participant(p):
    """One rank skips a barrier everyone else enters."""
    if p.rank != 1:
        p.world.barrier()


def wildcard_starvation(p):
    """More wildcard receives than messages in the system."""
    if p.rank == 0:
        p.world.recv(source=ANY_SOURCE)
        p.world.recv(source=ANY_SOURCE)  # only one message exists
    else:
        p.world.send("only", dest=0)


def wrong_communicator(p):
    """Send on a dup'd communicator, receive on world: contexts never
    match, both sides starve."""
    dup = p.world.dup()
    if p.rank == 0:
        dup.send("x", dest=1)
        p.world.barrier()
    else:
        p.world.recv(source=0)  # wrong communicator
        p.world.barrier()


# --------------------------------------------------------------------- #
# engine-detected semantic errors                                        #
# --------------------------------------------------------------------- #


def collective_kind_mismatch(p):
    if p.rank == 0:
        p.world.barrier()
    else:
        p.world.allreduce(1, op=SUM)


def collective_root_disagreement(p):
    p.world.bcast("x", root=p.rank % 2)


def buffer_too_small(p):
    if p.rank == 0:
        p.world.send(list(range(10)), dest=1)
    else:
        p.world.recv(source=0, max_count=4)


def double_wait(p):
    if p.rank == 0:
        p.world.send(1, dest=1)
    else:
        req = p.world.irecv(source=0)
        req.wait()
        req.wait()


# --------------------------------------------------------------------- #
# resource leaks                                                         #
# --------------------------------------------------------------------- #


def forgotten_comm_free(p):
    sub = p.world.split(color=p.rank % 2, key=p.rank)
    sub.allreduce(1, op=SUM)
    # sub is never freed


def lost_request(p):
    if p.rank == 0:
        p.world.irecv(source=1, tag=9)  # never completed nor needed
    p.world.barrier()


# --------------------------------------------------------------------- #
# heisenbugs (need DAMPI's coverage to surface)                          #
# --------------------------------------------------------------------- #


def order_dependent_reduction(p):
    """Master folds results with subtraction — non-commutative, so the
    wildcard arrival order changes the answer; the self run's answer is
    blessed, every alternate order crashes."""
    if p.rank == 0:
        acc = 100.0
        for _ in range(p.size - 1):
            acc -= p.world.recv(source=ANY_SOURCE) * 2
        if acc != 100.0 - 2 * (1 + 2):  # any order gives this; bug is below
            raise RuntimeError("unreachable: subtraction of sums commutes")
        first = p.world.recv(source=ANY_SOURCE, tag=2)
        if first == 2:
            raise RuntimeError("rank 2 finished first: untested path")
    else:
        p.world.send(float(p.rank), dest=0)
        p.world.send(p.rank, dest=0, tag=2)


def message_race_overwrite(p):
    """Two producers, single reusable slot: the second arrival silently
    overwrites the first unless the consumer drains in between — whether
    data is lost depends on the match order."""
    if p.rank == 0:
        slot = p.world.recv(source=ANY_SOURCE)
        # consumer "processes" slot, then reads the next
        second = p.world.recv(source=ANY_SOURCE)
        if slot == "fast" and second == "fast":
            raise RuntimeError("duplicate consumption — slow update lost")
    elif p.rank == 1:
        p.world.send("fast", dest=0)
        p.world.send("fast", dest=0)
    else:
        p.world.send("slow", dest=0)


# --------------------------------------------------------------------- #
# §V omission pattern                                                    #
# --------------------------------------------------------------------- #


def clock_escape(p):
    """Wildcard posted, collective crossed, then waited (paper Fig. 10)."""
    if p.rank == 0:
        req = p.world.irecv(source=ANY_SOURCE)
        p.world.allreduce(1, op=SUM)
        req.wait()
    else:
        p.world.allreduce(1, op=SUM)
        if p.rank == 1:
            p.world.send("m", dest=0)


# --------------------------------------------------------------------- #
# tempting but correct (must stay clean)                                 #
# --------------------------------------------------------------------- #


def safe_exchange_via_sendrecv(p):
    other = 1 - p.rank
    got = p.world.sendrecv(p.rank, dest=other, source=other)
    assert got == other


def safe_wildcard_commutative(p):
    if p.rank == 0:
        total = sum(p.world.recv(source=ANY_SOURCE) for _ in range(p.size - 1))
        assert total == sum(range(1, p.size))
    else:
        p.world.send(p.rank, dest=0)


def safe_odd_even_exchange(p):
    """The classic deadlock-free ordering discipline."""
    other = p.rank ^ 1
    if other < p.size:
        if p.rank % 2 == 0:
            p.world.send("a", dest=other)
            p.world.recv(source=other)
        else:
            p.world.recv(source=other)
            p.world.send("b", dest=other)


ZOO: tuple[ZooEntry, ...] = (
    ZooEntry("head-to-head recv", 2, head_to_head_recv, "deadlock"),
    ZooEntry("ssend cycle", 3, ssend_cycle, "deadlock",
             "eager sends would hide this; rendezvous exposes it"),
    ZooEntry("tag mismatch", 2, tag_mismatch, "deadlock"),
    ZooEntry("missing collective participant", 3, missing_collective_participant, "deadlock"),
    ZooEntry("wildcard starvation", 2, wildcard_starvation, "deadlock"),
    ZooEntry("wrong communicator", 2, wrong_communicator, "deadlock"),
    ZooEntry("collective kind mismatch", 2, collective_kind_mismatch, "mpi_error"),
    ZooEntry("collective root disagreement", 2, collective_root_disagreement, "mpi_error"),
    ZooEntry("buffer too small", 2, buffer_too_small, "mpi_error"),
    ZooEntry("double wait", 2, double_wait, "mpi_error"),
    ZooEntry("forgotten comm free", 4, forgotten_comm_free, "communicator_leak"),
    ZooEntry("lost request", 2, lost_request, "request_leak"),
    ZooEntry("order-dependent consumption", 3, order_dependent_reduction, "crash",
             "needs an alternate wildcard match to surface"),
    ZooEntry("message race overwrite", 3, message_race_overwrite, "crash"),
    ZooEntry("clock escape (Fig. 10)", 3, clock_escape, "monitor"),
    ZooEntry("safe sendrecv exchange", 2, safe_exchange_via_sendrecv, "clean"),
    ZooEntry("safe commutative wildcard", 4, safe_wildcard_commutative, "clean"),
    ZooEntry("safe odd-even exchange", 4, safe_odd_even_exchange, "clean"),
)
