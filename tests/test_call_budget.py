"""A per-operation call budget for the DAMPI stack.

Wall time on a shared host swings by ±10% between identical runs; the
number of Python calls a run makes does not.  This test runs ParMETIS
(4 ranks, scale 0.01) once under the default ``DampiVerifier`` stack in a
child process — so that its ``sys.setprofile`` cannot disturb a profiler
the test session runs (``tests/reach.py``) — counts every call into a
``src/repro`` code object, and divides by the program's MPI calls.  The
split by module and the functions called most per op are printed, so a
failing run names the layer, and the helper, that grew.
"""

import json
import subprocess
import sys

from repro.pnmpi.module import ENTRY_POINTS

#: calls into ``src/repro`` per program MPI call, measured on the stack
#: with one DAMPI wrapper per entry point, argument checks, stamp-stream
#: lookups and completion charges inline on the hot path; the budget
#: allows 5% growth
CALLS_PER_OP = 29.77
BUDGET = CALLS_PER_OP * 1.05

#: what a program-level MPI call is: a call from the program's own code
#: into one of these, defined under ``repro/mpi``
MPI_CALLS = sorted((set(ENTRY_POINTS) | {"send", "recv", "dup", "split"}) - {"compute"})

_CHILD = """
import collections, json, os, sys, threading
import repro
from repro.dampi.verifier import DampiVerifier
from repro.workloads import parmetis

root = os.path.dirname(repro.__file__) + os.sep
mpi = root + "mpi" + os.sep
program = parmetis.__file__
mpi_calls = set(json.loads(sys.argv[1]))
calls = collections.Counter()
functions = collections.Counter()
ops = 0
previous = sys.getprofile()


def profile(frame, event, arg):
    global ops
    if event == "call":
        code = frame.f_code
        path = code.co_filename
        if path.startswith(root):
            calls[path[len(root):]] += 1
            functions[path[len(root):] + ":" + code.co_qualname] += 1
            if (
                code.co_name in mpi_calls
                and path.startswith(mpi)
                and frame.f_back.f_code.co_filename == program
            ):
                ops += 1
    if previous is not None:
        previous(frame, event, arg)


verifier = DampiVerifier(parmetis.parmetis_program, 4, kwargs={"scale": 0.01})
threading.setprofile(profile)
sys.setprofile(profile)
result, _trace = verifier.run_once()
sys.setprofile(previous)
threading.setprofile(None)
verifier.close()
assert result.makespan > 0 and not result.errors
print(json.dumps({"ops": ops, "calls": dict(calls), "top": functions.most_common(15)}))
"""


def test_calls_per_mpi_op_stay_within_budget():
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(MPI_CALLS)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    data = json.loads(out.stdout.strip().splitlines()[-1])
    ops, calls = data["ops"], data["calls"]
    total = sum(calls.values())
    print(f"{ops} MPI calls, {total} calls into src/repro: {total / ops:.2f} per op")
    for module, n in sorted(calls.items(), key=lambda kv: -kv[1]):
        print(f"  {module:32s} {n / ops:7.2f}")
    print("the 15 functions called most:")
    for function, n in data["top"]:
        print(f"  {function:60s} {n / ops:7.2f}")
    assert ops > 500
    assert total / ops <= BUDGET
