"""The Epoch Decisions file (paper Fig. 1, "Epoch Decisions").

After a self run, the schedule generator emits, for every epoch in the
guided prefix, the source to force; replayed processes detect the file's
presence (here: the object's) at ``MPI_Init`` and run GUIDED until their
clock passes their ``guided_epoch``, then revert to SELF_RUN to discover
new non-determinism (paper Algorithm 1).

Serialisation is JSON so schedules are portable artifacts: a found defect
ships with the decision file that reproduces it.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.dampi.epoch import EpochKey


class EpochDecisions:
    """Forced matches for a guided replay.

    ``forced`` maps epoch keys to communicator-local source ranks.
    ``flip`` names the decision this schedule was generated to explore
    (provenance for reports and error witnesses).  Two schedules are
    equal when both are.
    """

    __slots__ = ("forced", "flip", "_max_lc")

    def __init__(
        self,
        forced: Optional[dict[EpochKey, int]] = None,
        flip: Optional[EpochKey] = None,
    ):
        forced = {} if forced is None else forced
        for key, src in forced.items():
            rank, lc = key
            if lc < 0 or src < 0:
                raise ValueError(f"invalid decision {key} -> {src}")
        self.forced = forced
        self.flip = flip
        #: lazy per-rank max-lc cache; ``forced`` is never mutated after
        #: construction (the explorer builds the dict first), so the cache
        #: never goes stale
        self._max_lc: Optional[dict[int, int]] = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EpochDecisions):
            return NotImplemented
        return self.forced == other.forced and self.flip == other.flip

    def source_for(self, rank: int, lc: int) -> Optional[int]:
        """``GetSrcFromEpoch``: the forced source for an epoch, if any."""
        return self.forced.get((rank, lc))

    def guided_epoch(self, rank: int) -> int:
        """Largest forced clock value for a rank; past it, SELF_RUN resumes.

        Returns -1 for ranks with no forced epochs (they self-run from the
        start — their behaviour up to the causal frontier is reproduced by
        the deterministic runtime plus the other ranks' forced matches).
        """
        cache = self._max_lc
        if cache is None:
            cache = {}
            for r, lc in self.forced:
                if lc > cache.get(r, -1):
                    cache[r] = lc
            self._max_lc = cache
        return cache.get(rank, -1)

    def __len__(self) -> int:
        return len(self.forced)

    def __bool__(self) -> bool:
        return bool(self.forced)

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "flip": list(self.flip) if self.flip else None,
            "forced": [[r, lc, src] for (r, lc), src in sorted(self.forced.items())],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "EpochDecisions":
        payload = json.loads(text)
        if payload.get("version") != 1:
            raise ValueError(f"unsupported decisions file version: {payload.get('version')!r}")
        forced = {(r, lc): src for r, lc, src in payload["forced"]}
        flip = tuple(payload["flip"]) if payload.get("flip") else None
        return cls(forced=forced, flip=flip)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "EpochDecisions":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def __repr__(self) -> str:
        return f"EpochDecisions({len(self.forced)} forced, flip={self.flip})"


#: canonical, hashable identity of a guided schedule
ScheduleKey = tuple


def schedule_key(decisions: EpochDecisions) -> ScheduleKey:
    """Canonical identity of a guided schedule (its forced map + flip)."""
    return (decisions.flip, tuple(sorted(decisions.forced.items())))
