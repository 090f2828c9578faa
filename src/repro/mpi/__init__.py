"""A from-scratch simulated MPI runtime (the substrate DAMPI verifies).

The real DAMPI interposes on a native MPI library through PMPI/PnMPI.  A
pure-Python reproduction cannot intercept a native library at that level
(and cannot run 1024 ranks as OS processes on one box), so this subpackage
implements the MPI semantics DAMPI depends on:

* thread-per-rank execution with a deterministic *run-to-block* scheduler,
* eager point-to-point sends, non-blocking requests, ``ANY_SOURCE`` /
  ``ANY_TAG`` wildcards, per ``(source, dest, communicator, tag)``
  non-overtaking matching, probes,
* communicators with ``dup``/``split``/``free`` and collective operations
  with MPI-faithful (non-synchronising where permitted) completion rules,
* deadlock detection (proved, not timed out),
* a virtual-time cost model that produces the "Time in secs" axes of the
  paper's figures.

Public entry point: :class:`repro.mpi.runtime.Runtime`.
"""

from repro.mpi.constants import (
    ANY_SOURCE,
    ANY_TAG,
    PROC_NULL,
    UNDEFINED,
    STATUS_IGNORE,
    MAX,
    MIN,
    SUM,
    PROD,
    LAND,
    LOR,
    BAND,
    BOR,
)
from repro.mpi.runtime import Runtime, RunResult
from repro.mpi.process import Proc
from repro.mpi.communicator import Communicator
from repro.mpi.request import Request, Status
from repro.mpi.costmodel import CostModel
from repro.mpi.groups import CartTopology, Group, dims_create

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "UNDEFINED",
    "STATUS_IGNORE",
    "MAX",
    "MIN",
    "SUM",
    "PROD",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "Runtime",
    "RunResult",
    "Proc",
    "Communicator",
    "Request",
    "Status",
    "CostModel",
    "CartTopology",
    "Group",
    "dims_create",
]
