"""Parallel replay execution: frontier waves over a worker pool.

Replays with disjoint decision prefixes are embarrassingly parallel — the
observation behind every distributed dynamic verifier (and behind the
paper's own design goal of coverage "as fast as the hardware allows").
This module supplies the executor half of that story; the schedule half
lives in :meth:`repro.dampi.explorer.ScheduleGenerator.next_decision_batch`.

Design: the *serial* DFS loop in :meth:`DampiVerifier.verify` stays the
single source of truth.  Each iteration it asks the generator for the
frontier wave — the pending schedules the walk is provably going to
request — and hands the wave to a :class:`ReplayExecutor`.  In pool mode
the executor runs the wave's ``run_once`` jobs on worker processes and
memoises ``(result, trace)`` per schedule; the loop then *consumes* its
next schedule from the cache (blocking only on true cache misses).
Because replays are deterministic functions of their decision file, the
consumed traces — and therefore the DFS state, the run order, and the
final :class:`VerificationReport` — are bit-identical to ``jobs=1``.
Speculative replays that are never requested (budget truncation, newly
discovered alternatives reshaping the frontier) are simply discarded.

Degradation paths, in order:

* ``jobs=1`` or an unpicklable program/config → in-process serial
  execution (the pre-parallel behaviour, exactly);
* a worker that dies (`BrokenProcessPool`) → the lost replay is reported
  as a ``crash`` defect with its witness schedule, the pool is abandoned,
  and the session continues in-process;
* a worker that exceeds ``job_timeout_seconds`` → same ``crash`` report
  for that replay, and the pool is *recycled*: cancelling a running
  ``ProcessPoolExecutor`` future is a no-op, so the hung worker would
  otherwise keep its slot (later waves stall behind it) and block
  ``close()`` indefinitely.  Recycling terminates the old pool's worker
  processes, counts the abandonment in ``pool_stats["abandoned_workers"]``,
  and lazily builds a fresh pool for the next wave.
"""

from __future__ import annotations

import logging
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.dampi.decisions import EpochDecisions, ScheduleKey, schedule_key
from repro.obs.metrics import MetricsRegistry

_log = logging.getLogger(__name__)

#: schedules speculated ahead per wave, as a multiple of the worker count —
#: enough to hide consume latency without unbounded speculative waste
WAVE_DEPTH = 2

@dataclass(frozen=True)
class ReplaySpec:
    """Everything a worker needs to rebuild the verifier and run one replay."""

    verifier_cls: type
    program: Callable
    nprocs: int
    config: Any  # DampiConfig; typed loosely to avoid an import cycle
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    ctor_extra: dict = field(default_factory=dict)

    def picklable(self) -> bool:
        try:
            pickle.dumps(self)
            return True
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            return False


def _discard_pool(pool: ProcessPoolExecutor, swallowed=None) -> None:
    """Abandon a pool that may contain hung workers: terminate its worker
    processes first (``shutdown`` alone would leave a wedged, non-daemon
    worker alive to block interpreter exit), then shut it down without
    waiting.  ``_processes`` is a CPython implementation detail, hence the
    guards — on an exotic runtime we degrade to plain shutdown.  Teardown
    must stay interruptible, so only true errors are swallowed (counted on
    ``swallowed`` when the caller passed its ``exec.*`` counter)."""
    try:
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception:
                if swallowed is not None:
                    swallowed.inc()
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception:
        if swallowed is not None:
            swallowed.inc()
    pool.shutdown(wait=False, cancel_futures=True)


#: per-worker-process verifier reuse: ``(spec, verifier)`` of the last task.
#: Consecutive tasks for the same spec hit the verifier's persistent replay
#: session (parked rank threads, compiled interposition chains) instead of
#: rebuilding everything — the same hot path the serial loop uses.  Replays
#: renumber uids per run, so reuse cannot leak into results.
_WORKER_CACHE: list = [None, None]


def _worker_verifier(spec: ReplaySpec):
    if _WORKER_CACHE[0] == spec and _WORKER_CACHE[1] is not None:
        return _WORKER_CACHE[1]
    if _WORKER_CACHE[1] is not None:
        _WORKER_CACHE[1].close()
    verifier = spec.verifier_cls(
        spec.program,
        spec.nprocs,
        spec.config,
        args=spec.args,
        kwargs=spec.kwargs,
        **spec.ctor_extra,
    )
    _WORKER_CACHE[0] = spec
    _WORKER_CACHE[1] = verifier
    return verifier


def _execute_replay(spec: ReplaySpec, decisions: EpochDecisions):
    """One guided replay plus the worker's checkpoint-cache stats.

    The stats are the worker verifier's *cumulative* counters tagged with
    the process id — the executor keeps the latest snapshot per pid and
    sums across workers (snapshots themselves never cross processes)."""
    verifier = _worker_verifier(spec)
    result, trace = verifier.run_once(decisions)
    wstats = None
    ckpt = verifier.checkpoint_stats()
    if ckpt is not None:
        wstats = dict(ckpt)
        wstats["pid"] = os.getpid()
    return result, trace, wstats


def _execute_replay_group(spec: ReplaySpec, group: Sequence[EpochDecisions]):
    """Worker entry point: a batch of *sibling* schedules (same checkpoint
    key) run back-to-back on one worker, so the first one's prefix
    snapshot serves every other member from this worker's session cache —
    checkpoint-affinity scheduling."""
    return [_execute_replay(spec, d) for d in group]


@dataclass
class _Pending:
    """One schedule awaiting a pool future.  Sibling schedules submitted
    as a group share the future; ``index`` locates each one's entry in the
    group result list."""

    future: Any
    index: int
    size: int


@dataclass
class ReplayOutcome:
    """One consumed replay: a (result, trace) pair or a worker failure."""

    result: Any = None
    trace: Any = None
    #: True when the schedule was not yet computed at consumption time
    miss: bool = True
    #: human-readable reason when the worker crashed or timed out
    failure: Optional[str] = None


class ReplayExecutor:
    """Runs guided replays, optionally on a ``multiprocessing`` pool.

    Parameters
    ----------
    spec:
        The job payload template (program, config, ...).
    jobs:
        Worker count; ``None`` = ``os.cpu_count()``; ``1`` = in-process.
    timeout:
        Per-replay wall-clock limit in pool mode (None = unlimited).
    inline_runner:
        ``run_once``-shaped callable used for in-process execution (kept
        identical to the serial verifier's own path).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` backing the
        executor's counters under the ``exec.*`` namespace (environment-
        dependent: cache behaviour varies with worker timing).  A private
        registry is created when the campaign does not share one.
    tracer:
        Campaign-level tracer for scheduler events (submissions,
        demotions); None disables.
    """

    def __init__(
        self,
        spec: ReplaySpec,
        jobs: Optional[int] = None,
        timeout: Optional[float] = None,
        inline_runner: Optional[Callable] = None,
        force: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        checkpoint_stats_fn: Optional[Callable] = None,
    ):
        self.spec = spec
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.timeout = timeout
        self._inline_runner = inline_runner
        self._tracer = tracer
        self.parallel = self.jobs > 1 and spec.picklable()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: dict[ScheduleKey, _Pending] = {}
        self._done: dict[ScheduleKey, ReplayOutcome] = {}
        #: in-process checkpoint-cache stats source (the serial verifier's
        #: session); pool workers report theirs with each task result
        self._checkpoint_stats_fn = checkpoint_stats_fn
        #: pid -> latest cumulative checkpoint stats from that pool worker
        self._worker_ckpt: dict[int, dict] = {}
        #: group sibling schedules (same prefix checkpoint) onto one worker
        self.checkpoint_affinity = bool(
            getattr(spec.config, "prefix_checkpoints", False)
        )
        # -- observability ----------------------------------------------------
        # counters live in a MetricsRegistry (shared with the campaign's
        # telemetry when verify() built this executor); the attribute names
        # tests and benches read are properties over the registry values
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_submitted = self.metrics.counter("exec.submitted")
        self._c_hits = self.metrics.counter("exec.cache_hits")
        self._c_misses = self.metrics.counter("exec.cache_misses")
        self._c_failures = self.metrics.counter("exec.failures")
        self._c_wasted = self.metrics.counter("exec.wasted")
        self._c_abandoned = self.metrics.counter("exec.abandoned_workers")
        self._c_swallowed = self.metrics.counter("exec.swallowed_errors")
        self.demoted = False
        self.demote_reason: Optional[str] = None
        self.consumed = 0
        # Replay cost is pure compute: on a single-CPU host pool workers
        # time-slice against the consuming loop and dispatch overhead is
        # all the pool can add.  Demote up front unless explicitly forced
        # (DampiConfig.force_jobs) — reports are identical either way.
        if self.parallel and not force and (os.cpu_count() or 1) <= 1:
            self.parallel = False
            self.demoted = True
            self.demote_reason = (
                f"auto-demoted to in-process execution: single-CPU host "
                f"(os.cpu_count()={os.cpu_count()!r}) cannot run "
                f"{self.jobs} compute-bound replay workers concurrently"
            )
            _log.info("%s", self.demote_reason)

    # -- counter views ---------------------------------------------------------

    @property
    def submitted(self) -> int:
        return self._c_submitted.value

    @property
    def hits(self) -> int:
        return self._c_hits.value

    @property
    def misses(self) -> int:
        return self._c_misses.value

    @property
    def failures(self) -> int:
        return self._c_failures.value

    @property
    def wasted(self) -> int:
        return self._c_wasted.value

    @property
    def abandoned(self) -> int:
        return self._c_abandoned.value

    # -- sizing ---------------------------------------------------------------

    @property
    def wave_width(self) -> int:
        """How many pending schedules verify() should ask the generator
        for each iteration (0 = don't bother computing a batch)."""
        return WAVE_DEPTH * self.jobs if self.parallel else 0

    # -- pool lifecycle -------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing as mp

            methods = mp.get_all_start_methods()
            ctx = mp.get_context("fork" if "fork" in methods else methods[0])
            self._pool = ProcessPoolExecutor(max_workers=self.jobs, mp_context=ctx)
        return self._pool

    def _demote(self, reason: str = "worker pool broken") -> None:
        """Abandon the pool and run the rest of the session in-process."""
        self.parallel = False
        self.demoted = True
        if self.demote_reason is None:
            self.demote_reason = reason
            _log.info("replay pool demoted: %s", reason)
            tr = self._tracer
            if tr is not None:
                tr.instant("pool_demote", "sched", reason=reason)
        self._c_wasted.inc(len(self._futures))
        self._futures.clear()
        if self._pool is not None:
            _discard_pool(self._pool, swallowed=self._c_swallowed)
            self._pool = None

    def _recycle_pool(self, reason: str) -> None:
        """Abandon the current pool — hung worker and all — but stay in
        pool mode: a fresh pool is built lazily on the next submission.
        Completed speculative siblings are harvested into the cache first;
        in-flight ones are charged as wasted (their workers die here)."""
        self._c_abandoned.inc()
        _log.info("replay pool recycled: %s", reason)
        tr = self._tracer
        if tr is not None:
            tr.instant("pool_recycle", "sched", reason=reason)
        for key, p in list(self._futures.items()):
            if p.future.done():
                del self._futures[key]
                try:
                    r, t, w = p.future.result()[p.index]
                    self._worker_stats(w)
                    self._done[key] = ReplayOutcome(r, t, miss=False)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    self._c_swallowed.inc()
        self._c_wasted.inc(len(self._futures))
        self._futures.clear()
        if self._pool is not None:
            _discard_pool(self._pool, swallowed=self._c_swallowed)
            self._pool = None

    def close(self) -> None:
        self._c_wasted.inc(len(self._futures) + len(self._done))
        self._futures.clear()
        self._done.clear()
        if self._pool is not None:
            _discard_pool(self._pool, swallowed=self._c_swallowed)
            self._pool = None

    # -- execution ------------------------------------------------------------

    def _submit(self, group: Sequence[EpochDecisions]) -> None:
        """Submit a group of sibling schedules as one worker task."""
        group = [
            d
            for d in group
            if schedule_key(d) not in self._futures
            and schedule_key(d) not in self._done
        ]
        if not group:
            return
        pool = self._ensure_pool()
        try:
            fut = pool.submit(_execute_replay_group, self.spec, group)
            for i, d in enumerate(group):
                self._futures[schedule_key(d)] = _Pending(fut, i, len(group))
            self._c_submitted.inc(len(group))
            tr = self._tracer
            if tr is not None:
                tr.instant(
                    "pool_submit", "sched",
                    flip=group[0].flip, group=len(group),
                )
        except Exception:  # pool already broken/shut down
            self._demote("pool submission failed")

    def _sibling_groups(
        self, batch: Sequence[EpochDecisions]
    ) -> list[list[EpochDecisions]]:
        """Partition a wave into checkpoint-affinity groups: schedules that
        can share a prefix checkpoint run back-to-back on one worker (the
        first records the snapshot, the rest restore it from that worker's
        session cache).  Sharing is hierarchical: exact siblings (same
        key) always land together, and a schedule whose pre-flip prefix
        extends — or is extended by — another group's prefix joins that
        group too, so ancestor restores and in-run snapshots pay off
        within one worker's session.  Deterministic in wave order.
        Without affinity every schedule is its own group."""
        if not self.checkpoint_affinity:
            return [[d] for d in batch]
        from repro.dampi.checkpoint import checkpoint_key

        by_key: dict = {}
        #: merged groups with the prefix item-sets they contain
        keyed: list[tuple[list, list]] = []
        order: list[list[EpochDecisions]] = []
        for d in batch:
            k = checkpoint_key(d)
            if k is None:
                order.append([d])
                continue
            g = by_key.get(k)
            if g is not None:
                g.append(d)
                continue
            rest = frozenset(k[1])
            merged = None
            for cand, rsets in keyed:
                if any(rest <= r or r <= rest for r in rsets):
                    merged = (cand, rsets)
                    break
            if merged is None:
                g, rsets = [], []
                keyed.append((g, rsets))
                order.append(g)
            else:
                g, rsets = merged
            rsets.append(rest)
            by_key[k] = g
            g.append(d)
        return order

    def run(
        self, decisions: EpochDecisions, batch: Sequence[EpochDecisions] = ()
    ) -> ReplayOutcome:
        """Consume one schedule, pre-submitting its frontier wave first."""
        if self.parallel:
            for group in self._sibling_groups(batch):
                if not self.parallel:  # a submit may demote mid-wave
                    break
                self._submit(group)
        out = self._take(decisions) if self.parallel else self._run_inline(decisions)
        self.consumed += 1
        if out.failure is not None:
            self._c_failures.inc()
        elif out.miss:
            self._c_misses.inc()
        else:
            self._c_hits.inc()
        return out

    def _run_inline(self, decisions: EpochDecisions) -> ReplayOutcome:
        runner = self._inline_runner
        if runner is None:
            runner = lambda d: _execute_replay(self.spec, d)[:2]  # noqa: E731
        result, trace = runner(decisions)
        return ReplayOutcome(result, trace, miss=True)

    def _worker_stats(self, wstats: Optional[dict]) -> None:
        """Record a pool worker's cumulative checkpoint-cache snapshot."""
        if wstats:
            self._worker_ckpt[wstats["pid"]] = wstats

    def _take(self, decisions: EpochDecisions) -> ReplayOutcome:
        key = schedule_key(decisions)
        done = self._done.pop(key, None)
        if done is not None:
            return done
        pending = self._futures.pop(key, None)
        if pending is None:
            self._submit([decisions])
            pending = self._futures.pop(key, None)
            if pending is None:  # submission demoted us — run in-process
                return self._run_inline(decisions)
        miss = not pending.future.done()
        try:
            # a group task runs its members back-to-back on one worker, so
            # the per-replay budget scales with the group size
            timeout = self.timeout * pending.size if self.timeout else None
            items = pending.future.result(timeout=timeout)
            r, t, w = items[pending.index]
            self._worker_stats(w)
            out = ReplayOutcome(r, t, miss=miss)
            # the group future resolved every sibling at once — move them
            # from the futures map into the cache
            for k, p in list(self._futures.items()):
                if p.future is pending.future:
                    del self._futures[k]
                    r, t, w = items[p.index]
                    self._worker_stats(w)
                    self._done[k] = ReplayOutcome(r, t, miss=False)
        except FutureTimeoutError:
            # cancel() is a no-op on a running future: the worker is wedged
            # and would keep its slot (and block close()) forever — recycle
            # the whole pool instead and abandon the hung worker
            out = ReplayOutcome(
                miss=miss,
                failure=(
                    f"replay worker exceeded {self.timeout}s "
                    f"replaying flip {decisions.flip}"
                ),
            )
            self._recycle_pool(
                f"worker exceeded {self.timeout}s replaying flip {decisions.flip}"
            )
        except BrokenProcessPool:
            out = ReplayOutcome(
                miss=miss,
                failure=f"replay worker died replaying flip {decisions.flip}",
            )
            self._demote("replay worker died")
        except Exception as e:  # unpicklable result, worker-side import error...
            out = ReplayOutcome(
                miss=miss,
                failure=(
                    f"replay worker failed replaying flip {decisions.flip}: "
                    f"{type(e).__name__}: {e}"
                ),
            )
        # harvest any sibling futures that completed while we waited, so the
        # cache (not the futures map) carries them and close() accounting of
        # still-running work stays accurate
        for k, p in list(self._futures.items()):
            if p.future.done():
                del self._futures[k]
                try:
                    r, t, w = p.future.result()[p.index]
                    self._worker_stats(w)
                    self._done[k] = ReplayOutcome(r, t, miss=False)
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception:
                    # surfaced as a miss-with-failure if ever consumed
                    self._c_swallowed.inc()
        return out

    # -- accounting -----------------------------------------------------------

    def checkpoint_stats(self) -> Optional[dict]:
        """Aggregate prefix-checkpoint cache stats: the in-process session's
        counters plus the latest cumulative snapshot from every pool worker
        that reported one.  None when checkpointing never ran anywhere."""
        sources = []
        if self._checkpoint_stats_fn is not None:
            inline = self._checkpoint_stats_fn()
            if inline is not None:
                sources.append(inline)
        sources.extend(self._worker_ckpt.values())
        if not sources:
            return None
        agg = {
            k: 0
            for k in (
                "hits", "misses", "evictions", "skips",
                "ancestor_hits", "suffix_captures",
                "entries", "bytes_held",
            )
        }
        agg["restore_ms"] = 0.0
        agg["capture_ms"] = 0.0
        depth_hits: dict = {}
        enabled = False
        demote_reasons = []
        for s in sources:
            for k in agg:
                agg[k] += s.get(k, 0)
            for d, n in (s.get("depth_hits") or {}).items():
                depth_hits[d] = depth_hits.get(d, 0) + n
            enabled = enabled or bool(s.get("enabled"))
            if s.get("demote_reason"):
                demote_reasons.append(s["demote_reason"])
        agg["depth_hits"] = {k: depth_hits[k] for k in sorted(depth_hits, key=int)}
        total = agg["hits"] + agg["misses"]
        agg["hit_rate"] = (agg["hits"] / total) if total else 0.0
        agg["enabled"] = enabled
        agg["demote_reason"] = demote_reasons[0] if demote_reasons else None
        agg["workers_reporting"] = len(self._worker_ckpt)
        return agg

    def stats(self) -> dict:
        out = {
            "mode": "pool" if (self.parallel or self.demoted) else "inline",
            "jobs": self.jobs,
            "wave_width": self.wave_width,
            "submitted": self.submitted,
            "consumed": self.consumed,
            "hits": self.hits,
            "misses": self.misses,
            "failures": self.failures,
            "wasted": self.wasted,
            "abandoned_workers": self.abandoned,
            "demoted": self.demoted,
            "demote_reason": self.demote_reason,
        }
        ckpt = self.checkpoint_stats()
        if ckpt is not None:
            out["checkpoint"] = ckpt
        return out
