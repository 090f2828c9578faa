"""Package names that load their module on first use (PEP 562).

A package ``__init__`` that imported every submodule it re-exports would
make each ``repro`` process pay for modules a default campaign never
calls (the journal, escalation, vector clocks, process groups, the
progress heartbeat).  Such a package lists those names instead::

    __getattr__ = lazy_names(globals(), {"Group": "repro.mpi.groups"})

and ``from repro.mpi import Group`` imports :mod:`repro.mpi.groups` then.
"""

from __future__ import annotations

import importlib


def lazy_names(namespace: dict, table: dict[str, str]):
    """A module ``__getattr__`` that resolves each name of ``table`` from
    the module it maps to, and caches it in ``namespace``."""

    def __getattr__(name: str):
        module = table.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    return __getattr__
