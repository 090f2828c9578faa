"""MPI constants and reduction operations.

Values mirror the roles (not the numeric values) of their MPI counterparts.
Negative sentinels are chosen so they can never collide with valid ranks or
tags, and are distinct from each other to make misuse loud in errors.
"""

from __future__ import annotations

from typing import Any, Callable

#: Wildcard source for receives and probes (MPI_ANY_SOURCE).
ANY_SOURCE: int = -101

#: Wildcard tag for receives and probes (MPI_ANY_TAG).
ANY_TAG: int = -102

#: Null process: sends/receives to it complete immediately with no data.
PROC_NULL: int = -103

#: Returned by ``comm_split`` callers passing UNDEFINED color, and used as
#: the "no value" rank in a few query APIs (MPI_UNDEFINED).
UNDEFINED: int = -104

#: Callers who do not care about a status object (MPI_STATUS_IGNORE).
STATUS_IGNORE = None

#: Largest valid user tag (MPI guarantees at least 32767 for MPI_TAG_UB).
TAG_UB: int = 2**24


class ReduceOp:
    """A reduction operator usable with ``reduce``/``allreduce``/``reduce_scatter``.

    ``fn`` must be associative; commutativity is assumed (the engine reduces
    in rank order, which matches MPI's recommendation for reproducibility).
    """

    __slots__ = ("name", "fn")

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        self.name = name
        self.fn = fn

    def __call__(self, a: Any, b: Any) -> Any:
        return self.fn(a, b)

    def __repr__(self) -> str:
        return f"ReduceOp({self.name})"


MAX = ReduceOp("MAX", lambda a, b: a if a >= b else b)
MIN = ReduceOp("MIN", lambda a, b: a if a <= b else b)
SUM = ReduceOp("SUM", lambda a, b: a + b)
PROD = ReduceOp("PROD", lambda a, b: a * b)
LAND = ReduceOp("LAND", lambda a, b: bool(a) and bool(b))
LOR = ReduceOp("LOR", lambda a, b: bool(a) or bool(b))
BAND = ReduceOp("BAND", lambda a, b: a & b)
BOR = ReduceOp("BOR", lambda a, b: a | b)

#: All built-in reduction ops by name (used by decision-file serialisation).
BUILTIN_OPS: dict[str, ReduceOp] = {
    op.name: op for op in (MAX, MIN, SUM, PROD, LAND, LOR, BAND, BOR)
}


def validate_tag(tag: int, *, receiving: bool) -> None:
    """Raise ``InvalidTagError`` for tags outside the legal range.

    Receives additionally accept ``ANY_TAG``.
    """
    if receiving and tag == ANY_TAG:
        return
    if not isinstance(tag, int) or not 0 <= tag <= TAG_UB:
        from repro.errors import InvalidTagError

        raise InvalidTagError(f"tag {tag!r} outside [0, {TAG_UB}]")
