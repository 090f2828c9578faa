"""The persistent replay session: one runtime and one rank-thread pool
reused across a verification's guided replays."""

from __future__ import annotations

from typing import Optional

from repro.dampi.clock_module import DampiClockModule
from repro.dampi.decisions import EpochDecisions
from repro.dampi.epoch import RunTrace
from repro.mpi.runtime import RankExecutorPool, Runtime, RunResult


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
    reports against a fresh runtime per run).  A policy *instance* is no
    exception: a recycled engine and a fresh runtime get that same object
    from the same spec, so its state (a seeded RNG) advances alike either
    way.
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

    def run(
        self, decisions: Optional[EpochDecisions]
    ) -> tuple[RunResult, RunTrace]:
        self.runtime.recycle()
        self.clock.decisions = decisions or EpochDecisions()
        pool = None if self.pool.broken else self.pool
        result = self.runtime.run(pool=pool)
        return result, result.artifacts["dampi"]

    def close(self) -> None:
        self.pool.close()
