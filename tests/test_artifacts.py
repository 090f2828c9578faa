"""The journal as the on-disk record of paper Fig. 1, and offline
re-analysis from it.

Real DAMPI is file-centric: each process writes its potential matches to
disk, and the schedule generator turns those files into the next run's
Epoch Decisions.  Here a journal ``run`` entry holds exactly those facts
(schedule key, every epoch, every potential match); its codec is pinned
in ``tests/test_journal.py``.
"""

import json

from repro.dampi import journal as jr
from repro.dampi import prune as prune_mod
from repro.dampi.config import DampiConfig
from repro.dampi.decisions import schedule_key
from repro.dampi.explorer import ScheduleGenerator
from repro.dampi.journal import CampaignJournal
from repro.dampi.matcher import compute_alternatives
from repro.workloads.patterns import fig3_program, wildcard_lattice

from tests.kept_traces import TraceKeepingVerifier

LATTICE = {"receives": 2, "senders": 2}


def _journaled(tmp_path, program, nprocs, kwargs=None):
    """Verify with a journal; the report, the journal's run entries (an
    in-process walk appends them in walk order) and the live traces."""
    v = TraceKeepingVerifier(program, nprocs, kwargs=kwargs)
    report = v.verify(journal=tmp_path / "j")
    return report, CampaignJournal(tmp_path / "j").run_entries(), v.traces


class TestStore:
    def test_trace_roundtrip_through_disk(self, tmp_path):
        _report, entries, traces = _journaled(tmp_path, wildcard_lattice, 3, LATTICE)
        live = traces[0]
        loaded = jr.trace_from_jsonable(entries[0]["trace"])
        assert loaded.wildcard_count == live.wildcard_count
        assert {e.key for e in loaded.all_epochs()} == {
            e.key for e in live.all_epochs()
        }
        assert len(loaded.potential_matches) == len(live.potential_matches)

    def test_jsonl_files_greppable(self, tmp_path):
        """An epoch is one row, ``[rank, lc, index, ctx, tag, kind, ...]``,
        and a potential match one row that starts with its epoch's key."""
        _journaled(tmp_path, wildcard_lattice, 3, LATTICE)
        (segment,) = (tmp_path / "j").glob("segment-*.jsonl")
        records = [json.loads(line) for line in segment.read_text().splitlines()]
        self_run = next(r for r in records if r["t"] == "run" and r["key"] is None)
        epochs = self_run["trace"]["epochs"]
        assert len(epochs) == 2  # two wildcard epochs
        assert all(len(e) == 13 and e[5] == "recv" for e in epochs)
        keys = {(e[0], e[1]) for e in epochs}
        matches = self_run["trace"]["matches"]
        assert matches and all(
            len(m) == 8 and (m[0], m[1]) in keys for m in matches
        )


class TestOfflineReanalysis:
    """The Fig. 1 pipeline, run offline: the potential matches a journal's
    ``run`` entries hold must drive a fresh schedule generator to the
    decisions the live session took."""

    def test_offline_schedule_matches_live(self, tmp_path):
        report, entries, _traces = _journaled(tmp_path, fig3_program, 3)
        assert len(entries) == report.interleavings > 1

        def run(entry):
            trace = jr.trace_from_jsonable(entry["trace"])
            result = jr.result_from_entry(entry)
            return trace, prune_mod.signature_of(result, trace)

        offline = ScheduleGenerator(prune=DampiConfig().prune)
        trace, signature = run(entries[0])
        offline.seed(trace, signature=signature)
        for entry in entries[1:]:
            decisions = offline.next_decisions()
            assert schedule_key(decisions) == jr.entry_schedule_key(entry)
            trace, signature = run(entry)
            offline.integrate(trace, signature=signature)
        assert offline.next_decisions() is None

    def test_offline_alternatives_match_live(self, tmp_path):
        report, entries, traces = _journaled(
            tmp_path, wildcard_lattice, 4, {"receives": 2, "senders": 3}
        )
        assert len(entries) == report.interleavings
        for live, entry in zip(traces, entries):
            offline = jr.trace_from_jsonable(entry["trace"])
            assert {k: set(v) for k, v in compute_alternatives(live).items()} == {
                k: set(v) for k, v in compute_alternatives(offline).items()
            }
