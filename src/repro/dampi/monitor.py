"""The §V omission-pattern monitor.

DAMPI's known blind spot (paper Fig. 10): with the paper's single clock a
wildcard ``Irecv`` ticks the local clock immediately, and if the rank
*transmits* its clock (a send or any collective) before the
``Wait``/``Test`` of that receive, other ranks learn a clock value that
makes their competing sends look causally-after the epoch — so a real
potential match is missed.

The paper's mitigation, reproduced here, is a scalable, process-local
monitor: alert whenever a clock-transmitting operation is issued while a
wildcard receive is outstanding (posted, not yet completed).  Our clocks
also carry the paper's §V fix — an epoch's tick reaches transmitted
stamps only at its ``Wait``/``Test`` (:mod:`repro.clocks`) — so the
alert marks where the single clock would have lost coverage, not a gap
in this campaign, and never that the program is wrong.
"""

from __future__ import annotations

from typing import Optional

from repro.pnmpi.module import ToolModule


class OmissionAlert:
    """One detected instance of the §V pattern; ``outstanding_wildcards``
    are request uids."""

    __slots__ = ("rank", "operation", "outstanding_wildcards")

    def __init__(self, rank: int, operation: str, outstanding_wildcards: tuple[int, ...]):
        self.rank = rank
        self.operation = operation
        self.outstanding_wildcards = outstanding_wildcards

    def __str__(self) -> str:
        return (
            f"rank {self.rank}: {self.operation} transmits the clock while "
            f"{len(self.outstanding_wildcards)} wildcard receive(s) are outstanding "
            f"(paper §V; their ticks stay out of it until each completes)"
        )


class MonitorReport:
    __slots__ = ("alerts",)

    def __init__(self, alerts: Optional[list[OmissionAlert]] = None):
        self.alerts = [] if alerts is None else alerts

    @property
    def triggered(self) -> bool:
        return bool(self.alerts)

    def __len__(self) -> int:
        return len(self.alerts)


class OmissionMonitorModule(ToolModule):
    """Collects the §V alerts of one run.  It wraps no entry point: the
    DAMPI clock module (``monitor=``) keeps each rank's wildcard window —
    its posted, not yet completed wildcard receives — and reports every
    clock transmission issued inside one through :meth:`alert`."""

    name = "monitor"

    def __init__(self) -> None:
        self._alerts: list[OmissionAlert] = []
        #: set by the clock module that reports to this monitor
        self.wired = False

    def setup(self, runtime) -> None:
        if not self.wired:
            # a monitor nothing reports to would read "no §V pattern"
            raise RuntimeError(
                "OmissionMonitorModule only collects alerts: pass it to "
                "DampiClockModule(monitor=...) on the same stack"
            )
        self._alerts = []

    def alert(self, rank: int, operation: str, outstanding: tuple[int, ...]) -> None:
        """``operation`` transmitted ``rank``'s clock while the wildcard
        receives ``outstanding`` (request uids, sorted) were open."""
        self._alerts.append(
            OmissionAlert(rank=rank, operation=operation, outstanding_wildcards=outstanding)
        )

    def finish(self, runtime) -> MonitorReport:
        return MonitorReport(alerts=self._alerts)
