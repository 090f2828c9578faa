"""The ISP baseline verifier.

Reuses DAMPI's replay machinery with two changes that capture what made
ISP different (paper §II-A):

* every MPI call pays a synchronous round-trip to the serialised central
  scheduler (:class:`IspInterpositionModule`), and
* match discovery is *omniscient* — the central scheduler sees global
  state, so ISP has none of the Lamport-clock incompleteness.  We realise
  that with vector clocks, which are complete on these patterns (the
  Fig. 4 analysis); the coverage equivalence is exercised by tests.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

from repro.dampi.config import DampiConfig
from repro.dampi.verifier import DampiVerifier
from repro.isp.scheduler import IspInterpositionModule


class IspVerifier(DampiVerifier):
    """Centralized baseline with ISP's cost structure and completeness."""

    def __init__(
        self,
        program: Callable,
        nprocs: int,
        config: Optional[DampiConfig] = None,
        args: tuple = (),
        kwargs: Optional[dict] = None,
    ):
        config = replace(config or DampiConfig(), clock_impl="vector")
        super().__init__(program, nprocs, config, args=args, kwargs=kwargs)

    def _extra_outer_modules(self) -> list:
        return [IspInterpositionModule()]
