"""Ablation — piggyback mechanisms (DESIGN.md §5.3, paper §II-D / [15]).

Separate-message piggybacking (the paper's choice) doubles the message
count but keeps payloads untouched; inline packing sends one message but
perturbs every payload.  Both must produce identical verification results
— only overhead differs.  The separate mechanism's wildcard deferral is
also counted (the §II-D subtlety this ablation exists to surface).
"""

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier, measure_slowdown
from repro.mpi.runtime import Runtime
from repro.dampi.piggyback import PiggybackModule
from repro.dampi.clock_module import DampiClockModule
from repro.workloads.patterns import wildcard_lattice
from repro.workloads.specmpi import lammps_program, milc_program

from benchmarks._util import one_shot, record

NPROCS = 32


def overhead_rows():
    rows = []
    for mech in ("separate", "inline"):
        cfg = DampiConfig(piggyback=mech, enable_monitor=False)
        for name, prog, kw in (
            ("lammps", lammps_program, {"steps": 10}),
            ("milc", milc_program, {"iters": 20}),
        ):
            m = measure_slowdown(prog, NPROCS, cfg, kwargs=kw)
            rows.append((mech, name, m["slowdown"]))
    return rows


def traffic_rows():
    def prog(p):
        for i in range(10):
            p.world.send(i, dest=(p.rank + 1) % p.size)
            p.world.recv(source=(p.rank - 1) % p.size)

    rows = []
    for mech in ("separate", "inline"):
        pb = PiggybackModule(mech)
        clock = DampiClockModule(pb)
        rt = Runtime(8, prog, modules=[clock, pb])
        rt.run().raise_any()
        # a separate stamp is a message on the wire the cost model charges,
        # though it rides a stamp queue rather than an engine envelope
        wire = rt.engine.stats.envelopes + pb.pb_messages
        rows.append((mech, wire, pb.pb_messages))
    return rows


def equivalence():
    outcomes = {}
    for mech in ("separate", "inline"):
        cfg = DampiConfig(piggyback=mech, enable_monitor=False)
        rep = DampiVerifier(
            wildcard_lattice, 4, cfg, kwargs={"receives": 3, "senders": 3}
        ).verify()
        outcomes[mech] = (rep.interleavings, rep.outcomes)
    return outcomes


def test_ablation_piggyback(benchmark):
    over, traffic, equiv = one_shot(
        benchmark, lambda: (overhead_rows(), traffic_rows(), equivalence())
    )
    lines = [
        "Ablation — separate-message vs inline piggyback",
        "",
        f"slowdown at {NPROCS} procs:",
        f"{'mechanism':>10} | {'workload':>8} | {'slowdown':>8}",
    ]
    for mech, name, slow in over:
        lines.append(f"{mech:>10} | {name:>8} | {slow:7.2f}x")
    lines += ["", "wire traffic (80 user messages on an 8-rank ring):",
              f"{'mechanism':>10} | {'wire msgs':>9} | {'pb msgs':>8}"]
    for mech, wire, pbs in traffic:
        lines.append(f"{mech:>10} | {wire:>9} | {pbs:>8}")

    sep = next(r for r in traffic if r[0] == "separate")
    inl = next(r for r in traffic if r[0] == "inline")
    assert sep[1] == 2 * inl[1], "separate mechanism doubles message count"
    assert inl[2] == 0
    assert equiv["separate"][0] == equiv["inline"][0] == 27
    assert equiv["separate"][1] == equiv["inline"][1], "identical coverage"
    lines.append(
        "conclusion: identical verification results; separate costs 2x messages "
        "(paper [15] deems this cheap), inline perturbs payload wire size."
    )
    record("ablation_piggyback", lines)
