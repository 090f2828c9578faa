"""Job runner: thread-per-rank execution of an MPI program.

A *program* is a plain callable ``program(proc, *args, **kwargs)`` where
``proc`` is the rank's :class:`~repro.mpi.process.Proc`.  The runtime
runs each rank on its own thread, threads the tool stack through every MPI call,
and collects a :class:`RunResult` containing per-rank return values,
errors, virtual times, and per-module artifacts.

Error policy: the first rank that raises kills the job — other ranks see a
collateral :class:`~repro.errors.AbortError` which :class:`RunResult`
attributes to the original failure.  A proven deadlock raises
:class:`~repro.errors.DeadlockError` in every blocked rank and is reported
once.

Hot path
--------
Guided replays run the same program hundreds of times; starting and
joining ``nprocs`` OS threads per run would dominate the per-replay wall
on small workloads.  So a Runtime owns its rank threads and runs as many
times as it is asked to:

* :class:`RankExecutorPool` — ``nprocs`` persistent daemon threads that
  execute one "generation" of rank mains per run and then park on a
  condition variable.  The first :meth:`Runtime.run` starts the pool and
  later runs reuse it; this is the one place rank threads start.
  :meth:`Runtime.close` (or ``with``, or the runtime being collected)
  stops them.
* ``Runtime.recycle()`` — called by :meth:`Runtime.run` on a runtime that
  has already run: fresh :class:`MessageEngine` (all
  matching/scheduling/clock state is engine-owned), rank handles rebound
  to it, compiled interposition chains reused (the tool stack is
  per-runtime; each module's ``setup`` re-initialises its per-run state
  inside ``run()``).

The reset protocol is *reconstruction, not cleaning*: everything a run can
dirty lives in the engine or in module state rebuilt by ``setup``, so a
recycled run is bit-identical to one on a fresh Runtime.  The differential
tests in ``tests/test_verifier.py`` enforce this.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from typing import Any, Callable, Optional, Sequence

from repro.errors import AbortError, DeadlockError
from repro.mpi.costmodel import CostModel
from repro.mpi.engine import MessageEngine
from repro.mpi.message import reset_envelope_ids
from repro.mpi.process import Proc
from repro.mpi.request import reset_request_ids
from repro.pnmpi.stack import ToolStack


class RunResult:
    """Outcome of one complete program execution.

    ``stats`` holds the engine-level counters (envelopes, bytes, matches,
    wildcard_matches, collectives) — it feeds the campaign's ``engine.*``
    telemetry counters; ``phases`` the real (not virtual) seconds per run
    phase: ``spawn_reset`` (uid resets, module setup, thread
    creation/dispatch), ``execute`` (rank mains), ``finish`` (module
    artifact collection).
    """

    __slots__ = (
        "nprocs", "returns", "errors", "makespan", "artifacts", "stats", "phases",
    )

    def __init__(
        self,
        nprocs: int,
        returns: Optional[dict[int, Any]] = None,
        errors: Optional[dict[int, BaseException]] = None,
        makespan: float = 0.0,
        artifacts: Optional[dict[str, Any]] = None,
        stats: Optional[dict[str, int]] = None,
        phases: Optional[dict[str, float]] = None,
    ):
        self.nprocs = nprocs
        self.returns = {} if returns is None else returns
        self.errors = {} if errors is None else errors
        self.makespan = makespan
        self.artifacts = {} if artifacts is None else artifacts
        self.stats = {} if stats is None else stats
        self.phases = {} if phases is None else phases

    @property
    def deadlocked(self) -> bool:
        return any(isinstance(e, DeadlockError) for e in self.errors.values())

    @property
    def deadlock(self) -> Optional[DeadlockError]:
        for e in self.errors.values():
            if isinstance(e, DeadlockError):
                return e
        return None

    @property
    def primary_errors(self) -> dict[int, BaseException]:
        """Errors minus collateral aborts (an AbortError recorded at a rank
        other than the one that called abort/raised) and minus duplicate
        deadlock reports (the deadlock is surfaced via ``deadlock``)."""
        out: dict[int, BaseException] = {}
        seen_deadlock = False
        for rank, e in sorted(self.errors.items()):
            if isinstance(e, AbortError) and e.rank != rank:
                continue
            if isinstance(e, DeadlockError):
                if seen_deadlock:
                    continue
                seen_deadlock = True
            out[rank] = e
        return out

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_any(self) -> None:
        """Re-raise the first primary error, if any (test convenience)."""
        for _, e in sorted(self.primary_errors.items()):
            raise e

    def __repr__(self) -> str:
        state = "ok" if self.ok else ("deadlock" if self.deadlocked else "error")
        return f"RunResult(nprocs={self.nprocs}, {state}, makespan={self.makespan:.6f}s)"


def _batch_this_thread() -> None:
    """Move the calling rank thread from ``SCHED_OTHER`` to ``SCHED_BATCH``,
    so a rank it wakes does not preempt it (one switch per hand-off; see
    :mod:`repro.mpi.engine`).  With pid 0 the call acts on the calling
    thread alone.  Any other inherited policy, a platform without the
    call, or a refusal leaves the thread as it is."""
    try:
        if os.sched_getscheduler(0) == os.SCHED_OTHER:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):  # not Linux, or refused
        pass


class RankExecutorPool:
    """``nprocs`` persistent rank-executor threads reused across runs.

    One *generation* = one run: :meth:`run` hands every worker the same
    ``target(rank)`` callable, wakes them, and blocks until all ``nprocs``
    have returned.  Between generations workers park on the pool condition
    variable — no thread creation or teardown on the per-replay path.

    Workers never hold run state of their own; everything a generation
    touches lives in the Runtime/engine the target closes over, and the
    pool drops the target when the generation drains, so a parked pool
    keeps no Runtime alive.  If a generation fails to drain — a rank main
    stuck past its deadline even after the engine was killed — the owner
    marks the pool ``broken`` and the next run starts a new one.
    """

    def __init__(self, nprocs: int, name: str = "rankpool"):
        self.nprocs = nprocs
        self.name = name
        self.broken = False
        #: generations executed (diagnostics/bench)
        self.generations = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._gen = 0
        self._target: Optional[Callable[[int], None]] = None
        self._running = 0
        self._shutdown = False
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(rank,),
                name=f"{name}-rank{rank}",
                daemon=True,
            )
            for rank in range(nprocs)
        ]
        for t in self._threads:
            t.start()

    def _worker(self, rank: int) -> None:
        _batch_this_thread()
        seen_gen = 0
        while True:
            with self._cond:
                while self._gen == seen_gen and not self._shutdown:
                    self._cond.wait()
                if self._gen == seen_gen:  # shut down, and no generation
                    return  # was dispatched that this worker has not run
                seen_gen = self._gen
                target = self._target
            try:
                target(rank)
            except BaseException:  # noqa: BLE001 - rank mains catch their own;
                # anything escaping is a harness bug — poison the pool rather
                # than silently losing a rank
                self.broken = True
            # a parked worker must not keep the target's Runtime alive
            target = None
            with self._cond:
                self._running -= 1
                if self._running <= 0:
                    self._target = None
                    self._cond.notify_all()

    def run(self, target: Callable[[int], None], timeout: float) -> bool:
        """Execute one generation: ``target(rank)`` on every worker.

        Returns True once all workers finished, False on timeout (workers
        may then still be running — see :meth:`wait`).
        """
        if self.broken:
            raise RuntimeError("rank-executor pool is broken")
        with self._cond:
            if self._running:
                raise RuntimeError("rank-executor pool generation already active")
            self._target = target
            self._running = self.nprocs
            self._gen += 1
            self.generations += 1
            self._cond.notify_all()
        return self.wait(timeout)

    def wait(self, timeout: float) -> bool:
        """Wait until the active generation drains (True) or timeout (False)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._running > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True

    def close(self) -> None:
        """Shut down the workers.  Idempotent.  Idle workers exit and are
        joined; workers still inside a generation (a stuck rank main) are
        daemons, exit when it returns, and are not waited for.  Never
        joins the calling thread: a finalizer may run on a worker."""
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
            if self._running > 0:
                return
        me = threading.current_thread()
        for t in self._threads:
            if t is not me:
                t.join(timeout=5.0)


class Runtime:
    """Configure and run a simulated MPI job, as many times as asked.

    Each :meth:`run` is one complete execution on the runtime's own rank
    threads.  :meth:`close` stops them; a runtime is also a context
    manager, and one nobody closes stops its threads when collected.

    Parameters
    ----------
    nprocs:
        Number of ranks.
    program:
        ``program(proc, *args, **kwargs)``; its return value lands in
        ``RunResult.returns[rank]``.
    modules:
        Tool modules, outermost first (e.g. ``[LeakCheckModule(), clock, piggyback]``).
    policy:
        Wildcard match policy (see :mod:`repro.mpi.matching`).
    cost_model:
        Virtual-time constants; default :class:`CostModel`.
    """

    def __init__(
        self,
        nprocs: int,
        program: Callable,
        *,
        modules: Sequence = (),
        policy="arrival",
        cost_model: Optional[CostModel] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
        name: str = "",
        tracer=None,
    ):
        self.nprocs = nprocs
        self.program = program
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})
        self.name = name or getattr(program, "__name__", "program")
        self._policy_spec = policy
        self._cost_model = cost_model
        #: per-run event tracer (:class:`repro.obs.trace.Tracer`) or None;
        #: shared with the engine and the tool modules, reset at the top of
        #: every run and collected into ``RunResult.artifacts["obs"]``
        self.tracer = tracer
        self.stack = ToolStack(modules)
        self.engine = MessageEngine(
            nprocs, cost_model=cost_model, policy=policy, tracer=tracer,
        )
        self.procs = [Proc(r, self.engine, runtime=self) for r in range(nprocs)]
        for proc in self.procs:
            proc._chains = self.stack.compile(proc, proc._bottoms)
        self._returns: dict[int, Any] = {}
        self._errors: dict[int, BaseException] = {}
        self._ran = False
        self._pool: Optional[RankExecutorPool] = None
        self._release_pool: Optional[weakref.finalize] = None

    def recycle(self) -> None:
        """Reset a finished Runtime for another run (:meth:`run` calls
        this itself; a no-op on a runtime that has not run).

        Builds a fresh :class:`MessageEngine` from the original
        construction spec — every piece of per-run state (mailboxes,
        contexts, virtual clocks, scheduling tokens, fatal flags) is
        engine-owned, so reconstruction *is* the reset — and rebinds the
        persistent rank handles to it.  Compiled interposition chains are
        reused: they close over the rank handles' bound bottoms, which
        read ``proc.engine`` at call time.  Module per-run state is
        re-initialised by the ``module.setup`` loop inside :meth:`run`.

        The match policy is rebuilt from the original *spec*: a name gives
        a fresh policy, a policy **instance** (e.g. a seeded
        :class:`~repro.mpi.matching.SeededRandomPolicy`) is that same
        object, carrying whatever RNG state it advanced — exactly what a
        new Runtime built from the same instance would get.
        """
        if not self._ran:
            return
        self.engine = MessageEngine(
            self.nprocs,
            cost_model=self._cost_model,
            policy=self._policy_spec,
            tracer=self.tracer,
        )
        for proc in self.procs:
            proc.rebind(self.engine)
        self._returns = {}
        self._errors = {}
        self._ran = False

    # tombstones for benchmarks/ledger/spans.py:131-133, which patches both by name
    def snapshot(self): ...

    def restore(self, snap): ...

    def run(self, join_timeout: float = 900.0) -> RunResult:
        """Execute the job to completion and return its :class:`RunResult`.

        A runtime that has already run is recycled first, so every run
        starts from a fresh engine.  Rank mains run on the runtime's
        :class:`RankExecutorPool`, started by the first run and replaced
        when a stuck generation broke it.
        """
        self.recycle()
        self._ran = True
        t0 = time.perf_counter()
        tracer = self.tracer
        if tracer is not None:
            tracer.reset()  # run-relative timestamps

        # per-run uid numbering: diagnostics quoting a request/envelope must
        # not depend on what this process executed before (guided replays
        # may run in fleet workers — see repro.dist.worker)
        reset_envelope_ids()
        reset_request_ids()

        for module in self.stack:
            module.setup(self)

        pool = self._pool
        if pool is None or pool.broken:
            if pool is not None:
                self._release_pool()  # its stuck workers are not waited for
            pool = self._pool = RankExecutorPool(self.nprocs, name=self.name)
            # holds the pool, not the runtime: an unclosed runtime is
            # collected, and its threads stop then
            self._release_pool = weakref.finalize(self, pool.close)
        t1 = time.perf_counter()
        if not pool.run(self._rank_main, timeout=join_timeout):
            self.engine.kill(RuntimeError("runtime join timeout; ranks stuck on pool"))
            if not pool.wait(30.0):
                pool.broken = True
        t2 = time.perf_counter()

        engine_stats = self.engine.stats
        result = RunResult(
            nprocs=self.nprocs,
            returns=dict(self._returns),
            errors=dict(self._errors),
            makespan=self.engine.makespan,
            stats={
                "envelopes": engine_stats.envelopes,
                "bytes": engine_stats.bytes,
                "collectives": engine_stats.collectives,
                "matches": engine_stats.matches,
                "wildcard_matches": engine_stats.wildcard_matches,
            },
        )
        for module in self.stack:
            artifact = module.finish(self)
            if artifact is not None:
                result.artifacts[module.name] = artifact
        if tracer is not None:
            # the run's raw event records and exact emit counters travel
            # with the result (pickled back from replay workers) for
            # campaign-level merging; rendering is deferred to export
            result.artifacts["obs"] = tracer.collect()
        t3 = time.perf_counter()
        result.phases = {
            "spawn_reset": t1 - t0,
            "execute": t2 - t1,
            "finish": t3 - t2,
        }
        return result

    def close(self) -> None:
        """Stop the rank threads.  Idempotent, safe from any thread; a
        later :meth:`run` starts new ones."""
        self._pool = None
        if self._release_pool is not None:
            self._release_pool()

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _rank_main(self, rank: int) -> None:
        proc = self.procs[rank]
        try:
            self.engine.thread_started(rank)
            for module in self.stack:
                module.attach(proc)
            proc._chains["init"]()
            result = self.program(proc, *self.args, **self.kwargs)
            if not proc.finalized:
                proc.finalize()
            for module in reversed(list(self.stack)):
                module.detach(proc)
            self._returns[rank] = result
        except BaseException as e:  # noqa: BLE001 - verifiers must see everything
            self._errors[rank] = e
            if not isinstance(e, (DeadlockError, AbortError)):
                # first-party failure: tear the job down so blocked peers exit
                abort = AbortError(rank)
                abort.__cause__ = e
                self.engine.kill(abort)
        finally:
            self.engine.thread_finished(rank)


def run_program(
    program: Callable,
    nprocs: int,
    *,
    modules: Sequence = (),
    policy="arrival",
    cost_model: Optional[CostModel] = None,
    args: tuple = (),
    kwargs: Optional[dict] = None,
) -> RunResult:
    """One-shot convenience: build a Runtime, run it once, close it."""
    with Runtime(
        nprocs,
        program,
        modules=modules,
        policy=policy,
        cost_model=cost_model,
        args=args,
        kwargs=kwargs,
    ) as runtime:
        return runtime.run()
