"""Self-test of the ledger: ``python -m pytest benchmarks/ledger -q``.

Not collected by tier-1 (``testpaths = ["tests"]``): the quick run spawns a
few dozen real CLI processes.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import pytest

from benchmarks.ledger import layers, ledger, spans, workloads

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _row(sid, name, parent, start, end, main=True, value=None):
    return [sid, name, parent, 0, main, start, end, value]


def test_self_time_nested_sibling_and_cross_thread_children():
    rows = [
        _row(0, "cli/main", None, 0.0, 10.0),
        # siblings under the root, with a gap between them
        _row(1, "dampi.verifier/verify", 0, 1.0, 6.0),
        _row(2, "cli/report_to_json", 0, 7.0, 9.0),
        # nested: run inside verify, capture inside run
        _row(3, "mpi.runtime/run", 1, 2.0, 5.0),
        # two rank threads capture concurrently: [2.5, 4.0] and [3.0, 4.5]
        # overlap, so they cover 2.0 s of the run, not 3.0 s
        _row(4, "mpi.snapshot/capture", 3, 2.5, 4.0, main=False),
        _row(5, "mpi.snapshot/capture", 3, 3.0, 4.5, main=False),
        # a child that outlives its parent is clipped to the parent
        _row(6, "obs/record_run", 2, 8.0, 9.5),
    ]
    own = spans.self_times(rows)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(5.0 - 3.0)
    assert own[3] == pytest.approx(3.0 - 2.0)
    assert own[4] == pytest.approx(1.5)
    assert own[2] == pytest.approx(2.0 - 1.0)
    # everything inside the root is attributed exactly once
    inside_root = own[0] + own[1] + own[2] + own[3] + (4.5 - 2.5) + (9.0 - 8.0)
    assert inside_root == pytest.approx(10.0)


def test_recorder_parents_run_index_and_thread_adoption():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def capture():
        return 7

    traced_capture = rec.wrap(capture, "mpi.snapshot/capture", value=lambda _s, r: r)

    def run():
        # a rank thread with nothing open adopts the main thread's open span
        t = threading.Thread(target=traced_capture)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    traced_run = rec.wrap(run, "mpi.runtime/run")
    run_once = rec.wrap(lambda: traced_run(), "dampi.verifier/run_once", new_run=True)
    run_once()
    run_once()
    rows = rec.finished()
    by_name = {}
    for r in rows:
        by_name.setdefault(r[1], []).append(r)
    first_once, second_once = by_name["dampi.verifier/run_once"]
    assert (first_once[3], second_once[3]) == (0, 1)  # run index
    first_run = by_name["mpi.runtime/run"][0]
    assert first_run[2] == first_once[0]
    cap = by_name["mpi.snapshot/capture"][0]
    assert cap[2] == first_run[0] and cap[4] is False and cap[7] == 7
    assert all(r[6] is not None and r[6] > r[5] for r in rows)


def test_workload_table_is_contract_shaped():
    names = [w.name for w in workloads.WORKLOADS]
    assert len(set(names)) == len(names)
    for w in workloads.WORKLOADS:
        assert NAME.fullmatch(w.name)
        assert "\n" not in w.why and len(w.why) <= 200


def _ledger(wall, status="ok", samples=None):
    return {"workloads": {"w": {"end_to_end": {"campaign_wall_s": {
        "value": wall, "unit": "s", "better": "lower", "bound": 0.1,
        "status": status, "samples": samples or [wall]}}}}}


@pytest.mark.parametrize(
    "base, new, expected",
    [
        (_ledger(10.0), _ledger(10.5), "within bound"),
        (_ledger(10.0), _ledger(11.5), "regressed"),
        (_ledger(10.0), _ledger(8.0), "improved"),
        # too noisy to tell, and the samples interleave
        (_ledger(10.0, "unresolved", [8, 10, 12]), _ledger(11.5, "ok", [11, 11.5, 12]), "unresolved"),
        # noisy, but every new sample beats every base sample
        (_ledger(10.0, "unresolved", [8, 10, 12]), _ledger(5.0, "ok", [4, 5, 6]), "improved"),
    ],
)
def test_diff_classifies_rows(base, new, expected):
    (row,) = ledger.diff_rows(base, new)
    assert row["status"] == expected


def test_quick_run_emits_everything_benchmark_json_declares(tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = ledger.run_ledger(tmp_path, seed=5, quick=True)
    assert json.loads((tmp_path / "ledger.json").read_text())["schema"] == "ledger/1"
    # the driver gates the workloads steady enough for its bounds (README);
    # `run` covers those and the rest
    gated = [w["name"] for w in declared["workloads"]]
    assert gated == [name for name in out["workloads"] if name in gated]
    for section in ("end_to_end", "per_layer"):
        assert all(NAME.fullmatch(m["name"]) for m in declared[section])
    for name, w in out["workloads"].items():
        assert w["failures"] == [], (name, w["failures"])
        assert w["end_to_end"]["failed_share"]["value"] == 0
        for section in ("end_to_end", "per_layer"):
            for m in declared[section]:
                got = w[section][m["name"]]
                assert got["unit"] == m["unit"], (name, m["name"])
                assert isinstance(got["value"], (int, float))
        if w["pinned"]:
            assert (tmp_path / f"trace_{name}.json").is_file()
            assert w["layer_self_s"]
    # code and BENCHMARK.json declare the same metrics, bounds included
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]} \
        == ledger.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} \
        == layers.PER_LAYER
