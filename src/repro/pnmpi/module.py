"""Base class for interposition tool modules.

A module overrides the entry points it cares about.  Every wrapper has the
signature ``point(self, proc, chain, *args)`` where ``chain(*args)``
invokes the next layer (possibly with rewritten arguments — that is how
DAMPI's guided mode turns ``MPI_Recv(ANY_SOURCE)`` into ``MPI_Recv(src)``).

Modules are **job-level** objects shared by all ranks; keep per-rank state
in containers indexed by ``proc.world_rank`` (``attach`` is the place to
initialise them).  In deterministic scheduling modes only one rank runs at
a time, so per-rank state needs no locking.
"""

from __future__ import annotations

#: Every interposable MPI entry point, in no particular order.  The stack
#: builds one call chain per point; modules not overriding a point add zero
#: overhead there.
ENTRY_POINTS = (
    "init",
    "finalize",
    "isend",
    "issend",
    "ssend",
    "irecv",
    "sendrecv",
    "wait",
    "waitall",
    "waitany",
    "waitsome",
    "test",
    "testall",
    "probe",
    "iprobe",
    "barrier",
    "ibarrier",
    "bcast",
    "ibcast",
    "reduce",
    "allreduce",
    "iallreduce",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "reduce_scatter",
    "scan",
    "comm_dup",
    "comm_split",
    "comm_free",
    "request_free",
    "pcontrol",
    "compute",
)


class ToolModule:
    """Interposition module; subclass and override entry points.

    Lifecycle hooks (all optional):

    ``setup(runtime)``
        once per job, before any rank starts;
    ``attach(proc)``
        once per rank, inside ``MPI_Init``;
    ``detach(proc)``
        once per rank, inside ``MPI_Finalize``;
    ``finish(runtime)``
        once per job after all ranks finished — return an artifact object
        and it appears in ``RunResult.artifacts[self.name]``.
    """

    #: Key under which this module's artifact is stored on the RunResult.
    name = "tool"

    def setup(self, runtime) -> None:  # pragma: no cover - trivial default
        pass

    def attach(self, proc) -> None:  # pragma: no cover - trivial default
        pass

    def detach(self, proc) -> None:  # pragma: no cover - trivial default
        pass

    def finish(self, runtime):  # pragma: no cover - trivial default
        return None

    def overrides(self, point: str) -> bool:
        """Does this module wrap the given entry point?"""
        return getattr(type(self), point, None) is not getattr(ToolModule, point, None)

    # Entry-point default implementations do not exist on the base class on
    # purpose: ToolStack only includes a module in a chain when the subclass
    # actually defines the attribute, keeping un-wrapped points at native
    # speed.

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"
