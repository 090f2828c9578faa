"""Differential: the stamp-queue transport against the engine-message
reference (``tests/reference_piggyback.py``).

The two spellings of the separate mechanism must be observationally
equal.  Every run of a campaign delivers the same ``(payload, stamp)``
pairs to each rank, records the same potential matches (finalize drain
and post-mortem scan included) and ends at a bit-identical virtual
makespan, under the single-commit scalar clock (the reference) and the
committed-tick vector clock (ids as in ``tests/reference_clock.py``).
"""

import pytest

from repro.clocks.lamport import LamportStamp
from repro.dampi import verifier as verifier_module
from repro.dampi.piggyback import PiggybackModule
from repro.dampi.verifier import DampiVerifier
from repro.mpi.constants import ANY_SOURCE
from repro.mpi.runtime import Runtime
from repro.workloads.bugzoo import ZOO
from repro.workloads.patterns import fig3_program, fig4_program, fig10_program

from tests import test_known_limitations as limitations
from tests.oracle import as_runnable
from tests.reference_clock import clock_config
from tests.reference_piggyback import EngineMessagePiggyback
from tests.test_entry_points import fig3_test_loop, fig4_test_loop, fig10_test_loop
from tests.test_piggyback import StampHarness
from tests.test_postmortem_scan import PINNED


def freed_requests(p):
    """Both ``request_free`` paths: a freed send completes its stamp send;
    a freed receive leaves its stamp receive posted."""
    if p.rank == 0:
        p.world.isend("gone", dest=1, tag=1).free()
        p.world.send("kept", dest=1, tag=2)
        p.world.send("late", dest=1, tag=1)
    else:
        p.world.irecv(source=0, tag=1).free()
        p.world.recv(source=ANY_SOURCE, tag=2)
        p.world.recv(source=0, tag=1)


PROGRAMS = [
    *[(e.name, e.program, e.nprocs) for e in ZOO],
    ("fig3", fig3_program, 3),
    ("fig3 test loop", fig3_test_loop, 3),
    ("fig4", fig4_program, 4),
    ("fig4 test loop", fig4_test_loop, 4),
    ("fig10", fig10_program, 3),
    ("fig10 test loop", fig10_test_loop, 3),
    ("pairing hazard", limitations.TestSeparatePiggybackPairingHazard.overlapping, 2),
    ("stolen stamp", limitations.stolen_stamp, 2),
    ("freed requests", freed_requests, 2),
    ("post-mortem", as_runnable(PINNED), 4),
]


def _stamp(stamp):
    value = stamp.time if isinstance(stamp, LamportStamp) else stamp.components
    return value, stamp.rank


def _campaign(monkeypatch, transport, program, nprocs, clock):
    """Verify ``program`` with ``transport`` as the piggyback module; one
    observation per run: makespan, per-rank deliveries, potential
    matches (without envelope uids, which number engine messages)."""
    delivered = {}
    original = PiggybackModule._deliver

    def deliver(self, proc, req, stamp):
        delivered.setdefault(proc.world_rank, []).append((req.data, _stamp(stamp)))
        original(self, proc, req, stamp)

    runs = []

    class Observing(DampiVerifier):
        def run_once(self, decisions=None):
            delivered.clear()
            result, trace = super().run_once(decisions)
            matches = [
                (m.epoch, m.source, m.seq, m.tag, _stamp(m.stamp))
                for m in trace.potential_matches
            ]
            runs.append((result.makespan, dict(delivered), matches))
            return result, trace

    with monkeypatch.context() as patch:
        patch.setattr(PiggybackModule, "_deliver", deliver)
        patch.setattr(verifier_module, "PiggybackModule", transport)
        report = Observing(program, nprocs, clock_config(patch, clock)).verify()
    return runs, (report.interleavings, sorted(e.kind for e in report.errors))


@pytest.mark.parametrize("clock", ["lamport", "vector_dual"])
@pytest.mark.parametrize(
    "program,nprocs", [p[1:] for p in PROGRAMS], ids=[p[0] for p in PROGRAMS]
)
def test_queues_equal_engine_messages(monkeypatch, program, nprocs, clock):
    queues = _campaign(monkeypatch, PiggybackModule, program, nprocs, clock)
    reference = _campaign(monkeypatch, EngineMessagePiggyback, program, nprocs, clock)
    assert queues == reference
    assert queues[0]  # at least the self run


def test_the_differential_sees_traffic(monkeypatch):
    """The comparison above is not vacuous: runs deliver stamps and
    record potential matches."""
    runs, _ = _campaign(monkeypatch, PiggybackModule, as_runnable(PINNED), 4, "lamport")
    assert any(delivered for _, delivered, _ in runs)
    assert any(matches for _, _, matches in runs)


def two_left_on_one_stream(p):
    """Rank 1 takes one of three same-stream messages, then starves on a
    tag nobody sends: m1 and m2 stay unreceived."""
    if p.rank == 0:
        for i in range(3):
            p.world.send(f"m{i}", dest=1, tag=3)
    else:
        p.world.recv(source=0, tag=3)
        p.world.recv(source=0, tag=9)


@pytest.mark.parametrize("transport", [PiggybackModule, EngineMessagePiggyback])
def test_leftover_stamps_pair_in_stream_order(transport):
    pb = transport()
    harness = StampHarness(pb)
    rt = Runtime(2, two_left_on_one_stream, modules=[harness, pb])
    assert rt.run().deadlocked
    envs = sorted(
        (env for dst, env in rt.engine.unexpected_envelopes()
         if dst == 1 and not rt.engine.contexts[env.ctx].tool),
        key=lambda env: env.seq,
    )
    pairs = pb.leftover_stamps(1, envs)
    # rank 0's i-th stamp is 1000*0 + i: the k-th leftover message keeps
    # the k-th leftover stamp
    assert [(env.payload, stamp.time) for env, stamp in pairs] == [("m1", 1), ("m2", 2)]
