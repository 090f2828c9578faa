"""Distributed verification: shard the decision tree across processes.

The paper's scalability claim is that DAMPI's walk *distributes* — no
centralized scheduler serializes exploration.  This package reproduces
that architecture in miniature: a coordinator partitions the epoch-
decision tree by forced prefix and leases each subtree to a worker
process over localhost TCP; workers explore their subtrees independently
(guided to the leased prefix, normal DFS below) and stream completed-run
records back; the coordinator assembles a report that is bit-identical
to a serial :meth:`~repro.dampi.verifier.DampiVerifier.verify`.

See :mod:`repro.dist.coordinator` for the architecture overview and
``docs/DISTRIBUTED.md`` for the protocol, lease lifecycle, and failure
semantics.
"""

from repro.dist.coordinator import DistCoordinator, distributed_verify
from repro.dist.leases import Lease, LeaseTable, lease_id, lease_key, lease_root_decisions
from repro.dist.protocol import DistError

__all__ = [
    "DistCoordinator",
    "DistError",
    "Lease",
    "LeaseTable",
    "distributed_verify",
    "lease_id",
    "lease_key",
    "lease_root_decisions",
]
