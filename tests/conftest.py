"""Shared pytest helpers."""

from __future__ import annotations

from repro.mpi.runtime import run_program


def run_ok(program, nprocs, **kw):
    """Run a program and assert it completed with no errors."""
    result = run_program(program, nprocs, **kw)
    result.raise_any()
    return result
