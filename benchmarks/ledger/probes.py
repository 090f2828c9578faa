"""In-process layer probes, run as a child of the traced pass.

``python -m benchmarks.ledger.probes OUT.json --nprocs N --scale S --stages a,b``
times one ParMETIS execution per stage of the tool stack, each stage adding
one layer to the one before, so a difference between neighbours divided by
the op count is that layer's cost per MPI op:

    native -> chain (one pass-through ToolModule) -> piggyback (stamps from a
    constant provider, no clock) -> clock (+ DAMPI clock module) -> full
    (+ leak checker and omission monitor)

It also times the indexed mailbox's deposit/match cycle.  No end-to-end
metric comes from here; the modules below are measurement scaffolding that
lives with the benchmark, never on the product's path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.dampi.config import DampiConfig
from repro.dampi.piggyback import PiggybackModule
from repro.dampi.verifier import DampiVerifier
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.mpi.matching import IndexedMailBox
from repro.mpi.message import Envelope
from repro.mpi.runtime import Runtime
from repro.pnmpi.module import ENTRY_POINTS, ToolModule
from repro.workloads.parmetis import parmetis_program

STAGES = ("native", "chain", "piggyback", "clock", "full")


class PassThrough(ToolModule):
    """Wraps every entry point and forwards it untouched, counting MPI
    calls (``compute`` is local work, not an MPI op)."""

    name = "passthrough"

    def __init__(self):
        self.ops = 0


def _forwarder(point: str):
    if point == "compute":
        return lambda self, proc, chain, *args: chain(*args)

    def forward(self, proc, chain, *args):
        self.ops += 1
        return chain(*args)

    return forward


for _point in ENTRY_POINTS:
    setattr(PassThrough, _point, _forwarder(_point))


class ConstStamp(ToolModule):
    """Stands where the clock module stands, but feeds the piggyback layer
    a constant stamp and drops what it receives: the transport's cost
    without any clock bookkeeping."""

    name = "conststamp"

    def __init__(self, piggyback: PiggybackModule):
        self.piggyback = piggyback
        piggyback.register(lambda proc: 0, lambda proc, req, stamp: None)

    def comm_dup(self, proc, chain, comm):
        new_comm = chain(comm)
        self.piggyback.ensure_shadow(new_comm.context)
        return new_comm

    def comm_split(self, proc, chain, comm, color, key):
        new_comm = chain(comm, color, key)
        if new_comm is not None:
            self.piggyback.ensure_shadow(new_comm.context)
        return new_comm


def run_stage(stage: str, nprocs: int, scale: float) -> dict:
    """Build the stage's stack, execute ParMETIS once under it, time it."""
    kwargs = {"scale": scale}
    counter = None
    t0 = time.perf_counter()
    if stage in ("clock", "full"):
        checkers = stage == "full"
        config = DampiConfig(enable_monitor=checkers, enable_leak_check=checkers)
        result, _trace = DampiVerifier(
            parmetis_program, nprocs, config, kwargs=kwargs
        ).run_once()
    else:
        if stage == "native":
            modules = []
        elif stage == "chain":
            modules = [counter := PassThrough()]
        else:
            piggyback = PiggybackModule("separate")
            modules = [ConstStamp(piggyback), piggyback]
        result = Runtime(nprocs, parmetis_program, modules=modules, kwargs=kwargs).run()
    wall = time.perf_counter() - t0
    result.raise_any()
    out = {"wall_s": wall, "makespan": result.makespan}
    if counter is not None:
        out["ops"] = counter.ops
    piggyback_stats = result.artifacts.get("piggyback")
    if piggyback_stats:
        out["pb_messages"] = piggyback_stats["pb_messages"]
    return out


def matching_cycle_us(cycles: int = 4000, sources: int = 8) -> float:
    """Microseconds per deposit + wildcard match + removal on one
    :class:`IndexedMailBox`: each cycle queues one envelope per source,
    then drains them with fully wildcard selectors (the costliest query)."""
    box = IndexedMailBox(0)
    uid = 0
    t0 = time.perf_counter()
    for _ in range(cycles):
        for src in range(1, sources + 1):
            box.add_unexpected(Envelope(src, 0, 0, src % 3, None, uid, uid=uid))
            uid += 1
        for _ in range(sources):
            box.remove_unexpected(box.candidates_for(0, ANY_SOURCE, ANY_TAG)[0])
    return (time.perf_counter() - t0) / (cycles * sources) * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m benchmarks.ledger.probes")
    ap.add_argument("out")
    ap.add_argument("--nprocs", type=int, required=True)
    ap.add_argument("--scale", type=float, required=True)
    ap.add_argument("--stages", default=",".join(STAGES))
    ap.add_argument("--matching", action="store_true")
    args = ap.parse_args(argv)
    out = {"stages": {s: run_stage(s, args.nprocs, args.scale)
                      for s in args.stages.split(",")}}
    if args.matching:
        out["matching_cycle_us"] = matching_cycle_us()
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
