"""A start-up budget for every ``repro`` process.

Each ``repro verify`` is a process of its own, so what importing the
package costs is paid once per program verified (the bug zoo is 18 of
them).  Wall time on a shared host swings by ±10% between identical runs;
what a process loads does not.  This test runs one zoo campaign through
``repro.cli.main`` in a child process and names what its start-up must not
carry:

* a class made by ``@dataclass``: every start compiles the generated
  methods of each one with ``exec``, which no ``.pyc`` caches.
  ``DampiConfig`` and ``CostModel`` stay dataclasses, because
  ``dataclasses.replace/fields/asdict`` on the config is what the journal
  signature and ``repro resume`` are built on;
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
DATACLASSES = ["repro.dampi.config.DampiConfig", "repro.mpi.costmodel.CostModel"]

#: modules a default campaign loads only by calling into them
COLD_MODULES = [
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
