"""Rank programs the ledger addresses through the CLI as ``module:callable``.

Only what ``src/`` does not already export lives here: the empty program
behind ``setup_s`` and a one-server ADLB batch job (``repro.adlb`` apps take
an ADLB context, not a ``Proc``, so they need this adapter to be
CLI-addressable).
"""

from __future__ import annotations

from repro.adlb import adlb_run, batch_app


def noop(p):
    """No MPI calls: a campaign of this program is pure fixed cost."""


def adlb_batch(p, units_per_worker: int = 1):
    """The Fig. 9 batch app over one ADLB server."""
    return adlb_run(p, batch_app, num_servers=1, units_per_worker=units_per_worker)
