"""Drive every bug-zoo entry through the detector that must flag it."""

import pytest

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.errors import MPIError
from repro.mpi.runtime import run_program
from repro.workloads.bugzoo import ZOO, ZooEntry


def _by_expect(expect: str):
    return [e for e in ZOO if e.expect == expect]


def _ids(entries):
    return [e.name for e in entries]


CFG = DampiConfig(max_interleavings=40)


@pytest.mark.parametrize("entry", _by_expect("deadlock"), ids=_ids(_by_expect("deadlock")))
def test_deadlocks_detected(entry: ZooEntry):
    rep = DampiVerifier(entry.program, entry.nprocs, CFG).verify()
    assert rep.deadlocks, f"{entry.name}: deadlock not reported"


@pytest.mark.parametrize("entry", _by_expect("mpi_error"), ids=_ids(_by_expect("mpi_error")))
def test_semantic_errors_detected(entry: ZooEntry):
    res = run_program(entry.program, entry.nprocs)
    assert any(
        isinstance(e, MPIError) and not hasattr(e, "blocked")
        for e in res.primary_errors.values()
    ), f"{entry.name}: engine did not flag the misuse"


@pytest.mark.parametrize(
    "entry",
    _by_expect("communicator_leak") + _by_expect("request_leak"),
    ids=_ids(_by_expect("communicator_leak") + _by_expect("request_leak")),
)
def test_leaks_detected(entry: ZooEntry):
    rep = DampiVerifier(entry.program, entry.nprocs, CFG).verify()
    kinds = {e.kind for e in rep.errors}
    assert entry.expect in kinds, f"{entry.name}: expected {entry.expect}, got {kinds}"


@pytest.mark.parametrize("entry", _by_expect("crash"), ids=_ids(_by_expect("crash")))
def test_heisenbugs_surfaced(entry: ZooEntry):
    rep = DampiVerifier(entry.program, entry.nprocs, CFG).verify()
    crashes = [e for e in rep.errors if e.kind == "crash"]
    assert crashes, f"{entry.name}: DAMPI did not surface the crash"
    # every crash ships a witness unless it happened in the self run
    for c in crashes:
        assert c.run_index == 0 or c.decisions is not None


@pytest.mark.parametrize("entry", _by_expect("monitor"), ids=_ids(_by_expect("monitor")))
def test_omission_patterns_alerted(entry: ZooEntry):
    rep = DampiVerifier(entry.program, entry.nprocs, CFG).verify()
    assert rep.monitor_report.triggered, f"{entry.name}: no §V alert"


@pytest.mark.parametrize("entry", _by_expect("clean"), ids=_ids(_by_expect("clean")))
def test_correct_patterns_stay_clean(entry: ZooEntry):
    rep = DampiVerifier(entry.program, entry.nprocs, CFG).verify()
    assert rep.ok, f"{entry.name}: false positive — {rep.summary()}"
    assert not rep.monitor_report.triggered


#: Finding details quote requests by ``#N``, a per-run ordinal.  Stamps
#: travel on stamp queues, not as engine messages, so only user traffic
#: allocates requests and ``#N`` counts the program's own requests.
PINNED_DETAILS = {
    "ssend cycle": (
        "deadlock detected ("
        "rank 0: wait on Request(#1 send owner=0 ctx=0 src=-104 tag=-104 pending), "
        "rank 1: wait on Request(#2 send owner=1 ctx=0 src=-104 tag=-104 pending), "
        "rank 2: wait on Request(#3 send owner=2 ctx=0 src=-104 tag=-104 pending))"
    ),
    "tag mismatch": (
        "deadlock detected ("
        "rank 0: wait on Request(#2 recv owner=0 ctx=0 src=1 tag=3 pending), "
        "rank 1: wait on Request(#3 recv owner=1 ctx=0 src=0 tag=2 pending))"
    ),
    "double wait": (
        "rank 1: InvalidRequestError: request "
        "Request(#2 recv owner=1 ctx=0 src=0 tag=-102 consumed) completed twice"
    ),
    "wildcard starvation": (
        "deadlock detected ("
        "rank 0: wait on Request(#3 recv owner=0 ctx=0 src=-101 tag=-102 pending), "
        "rank 1: barrier on world (instance 0))"
    ),
    "wrong communicator": (
        "deadlock detected (rank 0: barrier on world (instance 1), "
        "rank 1: wait on Request(#2 recv owner=1 ctx=0 src=0 tag=-102 pending))"
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DETAILS))
def test_request_ordinals_count_user_requests(name):
    entry = next(e for e in ZOO if e.name == name)
    rep = DampiVerifier(entry.program, entry.nprocs, CFG).verify()
    assert [e.detail for e in rep.errors] == [PINNED_DETAILS[name]]


@pytest.mark.parametrize("entry", ZOO, ids=_ids(ZOO))
def test_both_piggyback_mechanisms_find_the_same_bugs(entry: ZooEntry):
    """A stamp packed into the payload (inline) and one sent alongside it
    (separate) change nothing the verifier finds: a payload too long for
    its receive buffer is MPI_ERR_TRUNCATE under both."""

    def outcome(mechanism):
        rep = DampiVerifier(entry.program, entry.nprocs, CFG.replace(piggyback=mechanism)).verify()
        return rep.interleavings, [(e.kind, e.detail) for e in rep.errors]

    assert outcome("inline") == outcome("separate")


def test_zoo_covers_every_detector():
    expected = {
        "deadlock",
        "mpi_error",
        "communicator_leak",
        "request_leak",
        "crash",
        "monitor",
        "clean",
    }
    assert {e.expect for e in ZOO} == expected


def test_zoo_names_unique():
    names = [e.name for e in ZOO]
    assert len(set(names)) == len(names)
