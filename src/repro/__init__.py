"""repro — reproduction of DAMPI (SC'10): a scalable, distributed dynamic
formal verifier for MPI programs.

Layers, bottom-up:

* :mod:`repro.mpi` — a simulated MPI runtime (the substrate);
* :mod:`repro.pnmpi` — PnMPI-style tool interposition;
* :mod:`repro.clocks` — Lamport and vector clocks;
* :mod:`repro.dampi` — the paper's contribution: decentralized wildcard
  match discovery + replay-based coverage, search bounding heuristics,
  leak/deadlock checks;
* :mod:`repro.adlb` — an asynchronous dynamic load balancing library;
* :mod:`repro.workloads` — matmult / ParMETIS / NAS / SpecMPI skeletons
  and the paper's illustrative micro-patterns.

Quickstart::

    from repro import DampiVerifier
    from repro.workloads.patterns import fig3_program

    report = DampiVerifier(fig3_program, nprocs=3).verify()
    print(report.summary())
"""

from repro.mpi import ANY_SOURCE, ANY_TAG, PROC_NULL, Runtime, RunResult
from repro.mpi.runtime import run_program

from repro.dampi.verifier import DampiVerifier, VerificationReport
from repro.dampi.config import DampiConfig

__version__ = "1.0.0"

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "Runtime",
    "RunResult",
    "run_program",
    "DampiVerifier",
    "VerificationReport",
    "DampiConfig",
    "__version__",
]
