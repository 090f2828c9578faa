"""The persistent replay session: one runtime and one rank-thread pool
reused across a verification's guided replays, plus the prefix-checkpoint
record/restore/trigger machinery layered on it
(:mod:`repro.dampi.checkpoint`, :mod:`repro.mpi.snapshot`)."""

from __future__ import annotations

import logging
from typing import Optional

from repro.dampi.checkpoint import (
    PrefixCheckpointCache,
    capture_key,
    checkpoint_key,
)
from repro.dampi.clock_module import DampiClockModule
from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import RunTrace
from repro.mpi.runtime import RankExecutorPool, Runtime, RunResult
from repro.mpi.snapshot import (
    CheckpointError,
    CheckpointIneligible,
    CheckpointUnsupported,
    RecordingProc,
)
from repro.pnmpi.module import ToolModule

_log = logging.getLogger(__name__)

#: composite entry points the RecordingProc facade decomposes into PMPI
#: primitives during record/replay; a tool module wrapping one of these
#: would be bypassed by the decomposition, so its presence demotes
#: checkpointing (full replays are unaffected — chains stay intact there)
_CHECKPOINT_COMPOSITES = (
    "waitall",
    "waitany",
    "waitsome",
    "testall",
    "ssend",
    "sendrecv",
)


class _ReplaySession:
    """Persistent execution substrate reused across one verification's runs.

    Holds one :class:`Runtime` (tool modules constructed once, their
    interposition chains compiled once) and one :class:`RankExecutorPool`
    (rank threads spawned once).  Per run it recycles the runtime — a
    fresh :class:`~repro.mpi.engine.MessageEngine`, so *all* matching,
    scheduling, context, and virtual-clock state is rebuilt from scratch —
    points the clock module at the run's decisions, and dispatches the
    rank mains onto the parked pool threads.  Module per-run state is
    reset by each module's ``setup`` inside ``Runtime.run``.

    The session is an optimisation with a bit-identity contract: a
    recycled run must be indistinguishable from a cold-start one (the
    differential tests in ``tests/test_verifier.py`` compare whole
    reports).  Anything that cannot honour the contract — policy
    instances with hidden state — must bypass the session instead.
    """

    def __init__(self, verifier: "DampiVerifier"):
        cfg = verifier.config
        modules = verifier._build_modules(None)
        self.clock = next(
            m for m in modules if isinstance(m, DampiClockModule)
        )
        self.runtime = Runtime(
            verifier.nprocs,
            verifier.program,
            modules=modules,
            policy=cfg.policy,
            cost_model=cfg.cost_model,
            args=verifier.args,
            kwargs=verifier.kwargs,
            tracer=verifier._run_tracer,
        )
        self.pool = RankExecutorPool(
            verifier.nprocs, name=f"{self.runtime.name}-session"
        )
        # -- prefix-sharing replay (repro.dampi.checkpoint) ----------------
        self.checkpoint_cache: Optional[PrefixCheckpointCache] = None
        self.checkpoint_demote_reason: Optional[str] = None
        self.checkpoint_interval = cfg.checkpoint_interval
        self._ckpt_stats_final: Optional[dict] = None
        self._faults = verifier._faults
        #: deep sharing (ancestor restores + in-run/in-suffix snapshots)
        #: requires the match policy to be stateless: a restored run skips
        #: the prefix's policy consultations, so a policy carrying hidden
        #: state (a seeded RNG) would diverge from a full run.  Stateful
        #: policies keep the sibling-only scheme, whose producer and
        #: consumer force bit-identical prefixes.
        self._deep_sharing = False
        if cfg.prefix_checkpoints:
            reason = self._checkpoint_unsupported_reason()
            if reason is None:
                self.runtime.install_views(
                    [RecordingProc(p) for p in self.runtime.procs]
                )
                self.checkpoint_cache = PrefixCheckpointCache(
                    cfg.checkpoint_cache_mb * 1024 * 1024
                )
                from repro.mpi.matching import make_policy

                self._deep_sharing = bool(
                    getattr(make_policy(cfg.policy), "stateless", False)
                )
            else:
                # mirror the single-CPU jobs demotion: log and fall back
                # to full replays instead of erroring mid-campaign
                self.checkpoint_demote_reason = reason
                _log.info("prefix checkpoints demoted: %s", reason)

    def _checkpoint_unsupported_reason(self) -> Optional[str]:
        """Why this session cannot checkpoint (None = it can)."""
        # per-run event tracing no longer demotes checkpoints: snapshots
        # carry the tracer's prefix stream (repro.mpi.snapshot), so a
        # restored run's events and exact counters match a full run
        for module in self.runtime.stack:
            if type(module).snapshot_state is ToolModule.snapshot_state:
                return f"tool module {module.name!r} has no snapshot support"
            for point in _CHECKPOINT_COMPOSITES:
                if module.overrides(point):
                    return (
                        f"tool module {module.name!r} wraps composite "
                        f"{point!r} (record/replay decomposition would "
                        f"bypass it)"
                    )
        return None

    def run(
        self, decisions: Optional[EpochDecisions]
    ) -> tuple[RunResult, RunTrace]:
        decisions = decisions or EpochDecisions()
        cache = self.checkpoint_cache
        if cache is None or decisions.flip is None:
            return self._run_full(decisions)
        key = checkpoint_key(decisions)
        if key in cache.ineligible:
            cache.skips += 1
            return self._run_full(decisions)
        snap = (
            cache.find(decisions) if self._deep_sharing else cache.get(key)
        )
        if snap is not None:
            out = self._run_restored(snap, decisions, key)
            if out is not None:
                return out
            # the restore/replay failed and demoted checkpointing
            return self._run_full(decisions)
        if self._deep_sharing:
            # record on every miss: in-run captures make the whole path a
            # future dict hit, so a miss is the one chance to amortize it
            # (the expect_siblings hint no longer gates anything — it can
            # go stale across dist steal-splits)
            cache.misses += 1
            return self._run_recording(decisions, key)
        if not decisions.expect_siblings:
            # the generator knows no other schedule shares this prefix
            # right now — recording would almost surely be wasted
            return self._run_full(decisions)
        if len(decisions.forced) % self.checkpoint_interval != 0:
            return self._run_full(decisions)
        cache.misses += 1
        return self._run_recording(decisions, key)

    def _run_full(self, decisions: EpochDecisions) -> tuple[RunResult, RunTrace]:
        self.runtime.recycle()
        self.clock.decisions = decisions
        pool = None if self.pool.broken else self.pool
        result = self.runtime.run(pool=pool)
        return result, result.artifacts["dampi"]

    def _run_recording(
        self, decisions: EpochDecisions, key
    ) -> tuple[RunResult, RunTrace]:
        """Full replay that snapshots the engine at its own flip point, so
        the flipped node's sibling schedules can resume from there.  Under
        deep sharing the run additionally snapshots at every eligible
        wildcard post — before and after the flip — so future first-visit
        schedules anywhere along this path dict-hit their own flip."""
        self.runtime.recycle()
        self.clock.decisions = decisions
        views = self.runtime.views
        for view in views:
            view.start_record()
        if self._deep_sharing:
            self._arm_triggers(decisions, key)
        else:
            flip_rank, flip_lc = decisions.flip
            session = self

            def trigger(view, _rank=flip_rank, _lc=flip_lc, _key=key):
                # pre-tick clock identifies the epoch, exactly as the clock
                # module's irecv/probe hooks key it
                if session.clock._state[_rank].clock.time != _lc:
                    return
                view._trigger = None
                session._capture(_key)

            views[flip_rank]._trigger = trigger
        try:
            pool = None if self.pool.broken else self.pool
            result = self.runtime.run(pool=pool)
        finally:
            for view in views:
                view.set_passthrough()
        return result, result.artifacts["dampi"]

    def _arm_triggers(self, decisions: EpochDecisions, key) -> None:
        """Deep-sharing capture triggers on every rank's view: each
        wildcard post is a potential snapshot point.  The flip itself is
        stored under the schedule's sibling key (always captured); other
        posts go under :func:`capture_key` of the state decided so far,
        gated by ``checkpoint_interval`` and deduplicated against the
        cache.  The triggers run on rank threads that hold the engine
        token, so cache access needs no extra locking."""
        session = self
        flip = decisions.flip
        interval = self.checkpoint_interval
        for rank, view in enumerate(self.runtime.views):

            def trigger(view, _rank=rank):
                cache = session.checkpoint_cache
                if cache is None:  # demoted mid-run
                    view._trigger = None
                    return
                # pre-tick clock identifies the epoch about to be decided
                k = (_rank, session.clock._state[_rank].clock.time)
                if k == flip:
                    if key not in cache and key not in cache.ineligible:
                        session._capture(key, deep=True)
                    return
                meta = session.clock.capture_meta()
                if meta["natural"]:
                    # a naturally-decided epoch makes the snapshot
                    # unusable by every later schedule (the explorer
                    # forces the whole path, and forced-vs-natural posts
                    # are not observably equivalent) — and capturing it
                    # would burn the cache key for a fully-forced
                    # producer
                    return
                if len(meta["decided"]) % interval != 0:
                    return
                ckey = capture_key(k, meta["decided"])
                if ckey in cache or ckey in cache.ineligible:
                    return
                session._capture(ckey, deep=True, suffix=True)

            view._trigger = trigger

    def _capture(self, key, deep: bool = False, suffix: bool = False) -> None:
        """Runs on a rank's thread, just before a wildcard operation is
        delegated to the engine."""
        cache = self.checkpoint_cache
        if cache is None:
            return
        try:
            snap = self.runtime.snapshot()
        except CheckpointIneligible:
            cache.ineligible.add(key)
            cache.skips += 1
            return
        except CheckpointUnsupported as e:
            self._demote_checkpoints(f"capture failed: {e}")
            return
        cache.capture_seconds += snap.capture_seconds
        snap.key = key
        if deep:
            # decided-state metadata makes the snapshot eligible for
            # ancestor restores (checkpoint.snapshot_usable)
            snap.meta = self.clock.capture_meta()
            snap.depth = len(snap.meta["decided"])
        else:
            snap.depth = len(key[1]) + 1
        cache.put(key, snap)
        if suffix:
            cache.suffix_captures += 1
        if not deep:
            # sibling-only mode: the logs up to the cut are inside the
            # snapshot — stop paying record overhead for the rest of this
            # run (deep sharing keeps recording for later capture points)
            for view in self.runtime.views:
                if view.recording:
                    view.set_passthrough()

    def _run_restored(
        self, snap, decisions: EpochDecisions, key
    ) -> Optional[tuple[RunResult, RunTrace]]:
        """Resume a schedule from a prefix checkpoint; None means the
        attempt failed (checkpointing has been demoted — run full).

        An *exact* hit (the snapshot was cut at this schedule's own flip)
        replays the logged prefix and executes only the suffix.  An
        *ancestor* hit restores a shallower snapshot, rebases the clock
        module's guidance onto this schedule's decision map, and — deep
        sharing only — keeps recording past the cut so the novel suffix
        yields further snapshots."""
        cache = self.checkpoint_cache
        exact = getattr(snap, "key", None) == key
        record_after = self._deep_sharing and not exact
        if self._faults:
            self._faults.fire("restore", decisions.flip)
        try:
            self.runtime.recycle(checkpoint=snap, record_after=record_after)
        except Exception as e:  # noqa: BLE001 - any restore failure => demote
            self._demote_checkpoints(
                f"restore failed: {type(e).__name__}: {e}"
            )
            return None
        if self._deep_sharing:
            # the snapshot's guidance state belongs to the producer's
            # schedule; repoint every rank at this schedule's decisions
            self.clock.rebase_decisions(decisions)
        else:
            self.clock.decisions = decisions
        if record_after:
            self._arm_triggers(decisions, key)
        try:
            pool = None if self.pool.broken else self.pool
            result = self.runtime.run(pool=pool)
        finally:
            if record_after:
                for view in self.runtime.views or ():
                    view.set_passthrough()
        for exc in result.errors.values():
            if isinstance(exc, CheckpointError):
                # the restored run's prefix was not actually compatible
                # with the recording — an invariant violation, not a user
                # bug
                self._demote_checkpoints(f"replay diverged: {exc}")
                return None
        cache.record_hit(snap)
        cache.restore_seconds += self.runtime._restore_seconds
        return result, result.artifacts["dampi"]

    def _demote_checkpoints(self, reason: str) -> None:
        cache = self.checkpoint_cache
        if cache is None:
            return
        self._ckpt_stats_final = cache.stats()
        self.checkpoint_cache = None
        self.checkpoint_demote_reason = reason
        _log.info("prefix checkpoints demoted: %s", reason)
        for view in self.runtime.views or ():
            view.set_passthrough()

    def checkpoint_stats(self) -> dict:
        cache = self.checkpoint_cache
        if cache is not None:
            stats = cache.stats()
        elif self._ckpt_stats_final is not None:
            stats = dict(self._ckpt_stats_final)
        else:
            stats = PrefixCheckpointCache(1).stats()
        stats["enabled"] = cache is not None
        stats["demote_reason"] = self.checkpoint_demote_reason
        return stats

    def close(self) -> None:
        self.pool.close()
