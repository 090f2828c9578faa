"""Deterministic fault injection for campaign robustness testing.

Verification campaigns are meant to survive real-cluster failure modes:
workers that die mid-replay, coordinators that OOM, jobs that hit
wall-clock limits and are killed at arbitrary points.  This module turns
those failure modes into a reproducible harness: a :class:`FaultPlan` is
a compact string carried on :attr:`DampiConfig.fault_plan` (and therefore
inherited by fleet workers and escalation stages automatically) that
fires a chosen *action* at a chosen *site*.

Plan syntax — comma-separated ``action@site[:selector][:param]`` terms::

    kill@self                   die (os._exit) during the self run
    kill@run:3                  die just before consuming replay 3
    kill@flip:1.2               die inside the replay flipping epoch (1,2)
    kill@flip:1.2.0             ... only when source 0 is forced there
    hang@flip:1.2:30            sleep 30s inside that replay (timeouts)
    delay@run:2:0.05            sleep 50ms before consuming replay 2
    raise@run:4                 raise FaultInjected before replay 4
    kill@stage:k1               die at the k=1 escalation stage boundary
    kill@worker:2               die in distributed worker 2, first replay
    kill@worker:2.5             ... just before its 5th replay
    kill@coord:3                die in the coordinator before it journals
                                the 3rd streamed record

Actions
-------
``kill``
    ``os._exit(FAULT_EXIT_CODE)`` — a hard, unflushed death, exactly what
    a SIGKILLed worker or a dying node looks like.  Injected in a fleet
    worker it kills that worker (its lease is re-issued); injected in the
    main loop it kills the campaign (the crash the journal exists to
    survive).
``hang``
    Sleep ``param`` seconds (default :data:`DEFAULT_HANG_SECONDS`) — a
    wedged worker, the food for ``dist_lease_timeout_seconds``.
``delay``
    Sleep ``param`` seconds and continue — jitter for race hunting.
``raise``
    Raise :class:`FaultInjected` — a soft, catchable failure.

Sites
-----
``self``
    Immediately before the self run (selector: none).
``run:<n>``
    In the verify loop — or, with a fleet, the coordinator's assembly
    walk — immediately before executing/consuming replay
    ``n`` (the 1-based run index) — and before anything about run ``n``
    reaches the journal, so a ``kill`` here loses exactly that run.
``flip:<rank>.<lc>[.<src>]``
    Inside replay execution (:meth:`DampiVerifier.run_once`), wherever it
    happens — a fleet worker when ``jobs > 1``, the main process
    otherwise.  Matches the schedule's flip epoch, optionally only
    when ``src`` is the source forced at it.
``stage:<label>``
    In :func:`~repro.dampi.campaign.escalating_verify`, before the stage
    with that label (``k0``, ``k1``, ..., ``unbounded``) starts.
``worker:<id>[.<seq>]``
    In a distributed worker process (:mod:`repro.dist.worker`), before it
    consumes its ``seq``-th replay (1-based across its whole lifetime);
    without ``seq``, its first.  The plan travels in the config, so every
    worker carries its own copy and a kill takes down exactly worker
    ``id`` — the coordinator's lease-expiry/re-issue path under test.
``coord:<n>``
    In the distributed coordinator (:mod:`repro.dist.coordinator`),
    before it journals the ``n``-th record streamed back by workers
    (1-based) — a coordinator death mid-campaign, the crash
    ``repro resume`` exists to survive.

Each fault fires **once per process**: a plan object tracks which of its
faults already fired, and worker processes carry their own plan copy —
so a ``flip`` kill fires once per worker (a replacement worker parses a
fresh copy: a lease that kills every worker it is issued to exhausts
``MAX_LEASE_ISSUES`` and aborts the campaign loudly).
"""

from __future__ import annotations

import os
import time
from typing import Optional, Sequence

#: exit status used by ``kill`` faults — distinctive, so tests and CI can
#: assert the death was the injected one and not a real defect
FAULT_EXIT_CODE = 43

#: how long a ``hang`` sleeps when the plan gives no explicit duration
DEFAULT_HANG_SECONDS = 3600.0

_ACTIONS = ("kill", "hang", "delay", "raise")
_SITES = ("self", "run", "flip", "stage", "worker", "coord")


class FaultPlanError(ValueError):
    """A fault-plan spec string that does not parse."""


class FaultInjected(RuntimeError):
    """Raised by ``raise``-action faults."""


class Fault:
    """One parsed ``action@site[:selector][:param]`` term."""

    __slots__ = ("action", "site", "selector", "param")

    def __init__(
        self,
        action: str,
        site: str,
        selector: tuple = (),
        param: Optional[float] = None,
    ):
        self.action = action
        self.site = site
        #: site-specific match key: ``()`` for self, ``(index,)`` for run,
        #: ``(rank, lc)`` or ``(rank, lc, src)`` for flip, ``(label,)`` for
        #: stage, ``(id,)`` or ``(id, seq)`` for worker, ``(n,)`` for coord
        self.selector = selector
        #: seconds for hang/delay; ignored elsewhere
        self.param = param

    def matches(self, selector: Sequence) -> bool:
        """Prefix match: a fault naming fewer selector fields than the
        firing site provides matches any value for the rest."""
        sel = tuple(selector)
        return self.selector == sel[: len(self.selector)]

    def spec(self) -> str:
        out = f"{self.action}@{self.site}"
        if self.selector:
            out += ":" + ".".join(str(s) for s in self.selector)
        if self.param is not None:
            out += f":{self.param:g}"
        return out


def _parse_term(term: str) -> Fault:
    action, sep, rest = term.partition("@")
    if not sep or action not in _ACTIONS:
        raise FaultPlanError(
            f"fault term {term!r}: expected action@site with action in {_ACTIONS}"
        )
    parts = rest.split(":")
    site = parts[0]
    if site not in _SITES:
        raise FaultPlanError(f"fault term {term!r}: unknown site {site!r}")
    selector: tuple = ()
    param: Optional[float] = None
    fields = parts[1:]
    try:
        if site == "self":
            pass  # no selector; an optional trailing field is the param
        elif site == "run":
            if not fields:
                raise FaultPlanError(f"fault term {term!r}: run needs an index")
            selector = (int(fields.pop(0)),)
        elif site == "flip":
            if not fields:
                raise FaultPlanError(f"fault term {term!r}: flip needs rank.lc")
            bits = fields.pop(0).split(".")
            if len(bits) not in (2, 3):
                raise FaultPlanError(
                    f"fault term {term!r}: flip selector is rank.lc[.src]"
                )
            selector = tuple(int(b) for b in bits)
        elif site == "stage":
            if not fields:
                raise FaultPlanError(f"fault term {term!r}: stage needs a label")
            selector = (fields.pop(0),)
        elif site == "worker":
            if not fields:
                raise FaultPlanError(
                    f"fault term {term!r}: worker needs an id (id[.seq])"
                )
            bits = fields.pop(0).split(".")
            if len(bits) not in (1, 2):
                raise FaultPlanError(
                    f"fault term {term!r}: worker selector is id[.seq]"
                )
            selector = tuple(int(b) for b in bits)
        elif site == "coord":
            if not fields:
                raise FaultPlanError(
                    f"fault term {term!r}: coord needs a record count"
                )
            selector = (int(fields.pop(0)),)
        if fields:
            param = float(fields.pop(0))
    except FaultPlanError:
        raise
    except ValueError as e:
        raise FaultPlanError(f"fault term {term!r}: {e}") from None
    if fields:
        raise FaultPlanError(f"fault term {term!r}: trailing fields {fields}")
    return Fault(action=action, site=site, selector=selector, param=param)


class FaultPlan:
    """An ordered set of faults plus per-process fired bookkeeping."""

    __slots__ = ("faults", "_fired")

    def __init__(self, faults: Optional[list] = None):
        self.faults = [] if faults is None else faults
        self._fired: set = set()

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultPlan":
        """Parse a comma-separated plan string; ``None``/empty → no-op plan."""
        if not spec:
            return cls()
        faults = [_parse_term(term.strip()) for term in spec.split(",") if term.strip()]
        return cls(faults=faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def spec(self) -> str:
        return ",".join(f.spec() for f in self.faults)

    def fire(self, site: str, selector: Sequence = (), tracer=None, metrics=None):
        """Fire every not-yet-fired fault matching ``(site, selector)``.

        ``kill`` never returns; ``raise`` raises :class:`FaultInjected`
        after marking itself fired (so a caught injection is not
        re-injected); ``hang``/``delay`` sleep and return.
        """
        for i, fault in enumerate(self.faults):
            if i in self._fired or fault.site != site or not fault.matches(selector):
                continue
            self._fired.add(i)
            if metrics is not None:
                metrics.counter("fault.injected").inc()
                metrics.counter(f"fault.{fault.action}").inc()
            if tracer is not None:
                tracer.instant(
                    "fault_injected",
                    "fault",
                    spec=fault.spec(),
                    selector=tuple(selector),
                )
            if fault.action == "kill":
                os._exit(FAULT_EXIT_CODE)
            elif fault.action == "hang":
                time.sleep(
                    fault.param if fault.param is not None else DEFAULT_HANG_SECONDS
                )
            elif fault.action == "delay":
                time.sleep(fault.param or 0.0)
            elif fault.action == "raise":
                raise FaultInjected(f"injected fault {fault.spec()}")
