"""A start-up budget for every ``repro`` process.

Each ``repro verify`` is a process of its own, so what importing the
package costs is paid once per program verified (the bug zoo is 18 of
them).  Wall time on a shared host swings by ±10% between identical runs;
what a process loads does not.  This test runs one zoo campaign through
``repro.cli.main`` in a child process and names what its start-up must not
carry:

* ``dataclasses`` (with the ``inspect`` it imports): a ``@dataclass``
  makes every start compile the generated methods of each class with
  ``exec``, which no ``.pyc`` caches.  Classes on the import path are
  plain ``__slots__`` classes, the config ones ``repro._record.Record``s;
* ``hashlib`` and the OpenSSL binding ``_hashlib`` it loads: prune's
  digest takes ``blake2b`` from the builtin ``_blake2``;
* a module the default campaign never calls: ``logging``, the journal,
  escalation, process groups, the progress heartbeat, vector clocks and
  the fleet.  Each loads on first use.

The child counts only what ``repro`` loads: modules already imported
before it (the interpreter's site hooks, a profiler) are not charged.
"""

import json
import subprocess
import sys

#: the only dataclasses a default campaign may load
DATACLASSES = []

#: modules a default campaign loads only by calling into them
COLD_MODULES = [
    "dataclasses",
    "inspect",
    "hashlib",
    "_hashlib",
    "logging",
    "repro.dampi.journal",
    "repro.dampi.campaign",
    "repro.mpi.groups",
    "repro.obs.progress",
    "repro.clocks.vector",
    "repro.dist",
]

_CHILD = """
import json, sys
before = set(sys.modules)
import repro.cli as cli

code = cli.main([
    "verify", "repro.workloads.bugzoo:head_to_head_recv", "--nprocs", "2",
    "--json-out", sys.argv[1],
])
dataclasses = sorted(
    f"{name}.{attr}"
    for name, module in list(sys.modules.items())
    if name == "repro" or name.startswith("repro.")
    for attr, value in vars(module).items()
    if isinstance(value, type)
    and value.__module__ == name
    and "__dataclass_fields__" in vars(value)
)
cold = [m for m in json.loads(sys.argv[2]) if m in sys.modules and m not in before]
print(json.dumps({"code": code, "dataclasses": dataclasses, "cold": cold}))
"""


def test_a_default_campaign_loads_no_dataclass_and_no_cold_module(tmp_path):
    report = tmp_path / "report.json"
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(report), json.dumps(COLD_MODULES)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    data = json.loads(out.stdout.strip().splitlines()[-1])
    assert data["code"] == 1  # head-to-head recv deadlocks
    assert json.loads(report.read_text())["errors"][0]["kind"] == "deadlock"
    extra = sorted(set(data["dataclasses"]) - set(DATACLASSES))
    assert not extra, f"dataclasses on the start-up path: {extra}"
    assert not data["cold"], f"cold modules loaded by a default campaign: {data['cold']}"


#: a campaign with every writer a ``repro verify`` can open
_SINKS = (
    "verify", "repro.workloads.bugzoo:message_race_overwrite", "--nprocs", "3",
    "--json-out", "{d}/report.json", "--journal-dir", "{d}/journal",
    "--trace-out", "{d}/trace.json", "--events-out", "{d}/events.jsonl",
)

_OPEN_FILES_CHILD = """
import gc, io, json, sys
gc.disable()
import repro.cli as cli

code = cli.main(json.loads(sys.argv[1]))
std = set()
for stream in (sys.stdin, sys.stdout, sys.stderr,
               sys.__stdin__, sys.__stdout__, sys.__stderr__):
    while stream is not None:
        std.add(id(stream))
        stream = getattr(stream, "buffer", None) or getattr(stream, "raw", None)
left = [
    repr(o) for o in gc.get_objects()
    if isinstance(o, io.IOBase) and id(o) not in std and not o.closed
]
print(json.dumps({"code": code, "open": left}))
"""


def _argv(directory) -> list:
    return [a.format(d=directory) for a in _SINKS]


def test_main_leaves_no_file_to_a_finalizer(tmp_path):
    """``python -m repro`` freezes the heap once ``main`` returns, so the
    exit-time collection never finalizes what it holds: a writer left
    open for a finalizer to flush would lose its tail.  The child scans
    with the collector off since before ``main`` — what a collection
    would close is exactly what the freeze strands — and finds every
    file ``main`` opened closed."""
    out = subprocess.run(
        [sys.executable, "-c", _OPEN_FILES_CHILD, json.dumps(_argv(tmp_path))],
        capture_output=True, text=True, check=True, timeout=120,
    )
    data = json.loads(out.stdout.strip().splitlines()[-1])
    assert data["code"] == 1  # the race overwrites a message
    assert data["open"] == []


def test_a_frozen_exit_keeps_every_tail(tmp_path):
    """The same campaign through ``python -m repro``, whose exit is
    frozen: every sink is complete on disk."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", *_argv(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 1, out.stderr
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["errors"]
    assert json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    events = (tmp_path / "events.jsonl").read_text().splitlines()
    assert events and all(json.loads(line) for line in events)
    assert "(complete)" in subprocess.run(
        [sys.executable, "-m", "repro", "stats", str(tmp_path / "journal")],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
