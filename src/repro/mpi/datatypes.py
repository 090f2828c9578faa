"""Datatypes: counts, wire sizes, and derived-type layouts.

Payloads in this simulator are arbitrary Python objects; the datatype
layer exists so the cost model can charge realistic byte volumes, so
``Status.get_count`` behaves like ``MPI_Get_count``, and so codes that
describe strided/blocked layouts (every real halo exchange) can express
them: :class:`Datatype` supports the MPI constructor family
(``contiguous``, ``vector``, ``indexed``, ``struct``) with true
size/extent semantics, plus ``pack``/``unpack`` against numpy buffers.

numpy is imported by whoever uses it — ``pack``/``unpack`` here, or the
program under test — never by importing this module: most verified
programs send plain Python objects, and the import is most of a
process's start-up.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    import numpy as np


class Datatype:
    """A (possibly derived) datatype.

    ``size`` is the number of *significant* bytes one element carries;
    ``extent`` is the span it occupies in a buffer (≥ size once holes
    appear — exactly MPI's size-vs-extent distinction).  ``blocks`` lists
    ``(offset_bytes, length_bytes)`` runs of significant data within one
    extent, used by :meth:`pack`/:meth:`unpack`.
    """

    __slots__ = ("name", "extent", "_size", "blocks")

    def __init__(
        self,
        name: str,
        extent: int,
        _size: int = -1,  # -1 => dense (size == extent)
        blocks: tuple[tuple[int, int], ...] = (),
    ):
        self.name = name
        self.extent = extent
        self._size = _size
        self.blocks = blocks

    @property
    def size(self) -> int:
        return self.extent if self._size < 0 else self._size

    @property
    def is_derived(self) -> bool:
        return bool(self.blocks)

    def _own_blocks(self) -> tuple[tuple[int, int], ...]:
        return self.blocks if self.blocks else ((0, self.extent),)

    # -- the MPI constructor family ---------------------------------------

    def contiguous(self, count: int) -> "Datatype":
        """``MPI_Type_contiguous``: ``count`` elements back to back."""
        if count < 1:
            raise ValueError("count must be positive")
        blocks = tuple(
            (i * self.extent + off, ln)
            for i in range(count)
            for off, ln in self._own_blocks()
        )
        return Datatype(
            f"{self.name}[{count}]",
            extent=self.extent * count,
            _size=self.size * count,
            blocks=_coalesce(blocks),
        )

    def vector(self, count: int, blocklength: int, stride: int) -> "Datatype":
        """``MPI_Type_vector``: ``count`` blocks of ``blocklength``
        elements, block starts ``stride`` elements apart."""
        if count < 1 or blocklength < 1 or stride < blocklength:
            raise ValueError("need count>=1, blocklength>=1, stride>=blocklength")
        blocks = tuple(
            (i * stride * self.extent + j * self.extent + off, ln)
            for i in range(count)
            for j in range(blocklength)
            for off, ln in self._own_blocks()
        )
        extent = ((count - 1) * stride + blocklength) * self.extent
        return Datatype(
            f"{self.name}v({count}x{blocklength}/{stride})",
            extent=extent,
            _size=self.size * count * blocklength,
            blocks=_coalesce(blocks),
        )

    def indexed(self, blocklengths: Sequence[int], displacements: Sequence[int]) -> "Datatype":
        """``MPI_Type_indexed``: blocks of varying length at varying
        element displacements."""
        if len(blocklengths) != len(displacements):
            raise ValueError("blocklengths and displacements must align")
        blocks = tuple(
            (d * self.extent + j * self.extent + off, ln)
            for bl, d in zip(blocklengths, displacements)
            for j in range(bl)
            for off, ln in self._own_blocks()
        )
        if not blocks:
            raise ValueError("indexed type needs at least one block")
        extent = max(
            (d + bl) * self.extent for bl, d in zip(blocklengths, displacements)
        )
        return Datatype(
            f"{self.name}x({len(blocklengths)})",
            extent=extent,
            _size=self.size * sum(blocklengths),
            blocks=_coalesce(blocks),
        )

    @staticmethod
    def struct(fields: Sequence[tuple["Datatype", int]]) -> "Datatype":
        """``MPI_Type_create_struct``: ``(datatype, byte_displacement)``
        fields packed into one element."""
        if not fields:
            raise ValueError("struct needs at least one field")
        blocks = tuple(
            (disp + off, ln)
            for dt, disp in fields
            for off, ln in dt._own_blocks()
        )
        extent = max(disp + dt.extent for dt, disp in fields)
        return Datatype(
            "struct(" + ",".join(dt.name for dt, _ in fields) + ")",
            extent=extent,
            _size=sum(dt.size for dt, _ in fields),
            blocks=_coalesce(blocks),
        )

    # -- pack/unpack against byte buffers ------------------------------------

    def pack(self, buffer: np.ndarray) -> np.ndarray:
        """Gather one element's significant bytes from a uint8 buffer."""
        import numpy as np

        buffer = np.asarray(buffer, dtype=np.uint8)
        if buffer.size < self.extent:
            raise ValueError(
                f"buffer of {buffer.size} bytes < extent {self.extent}"
            )
        return np.concatenate(
            [buffer[off : off + ln] for off, ln in self._own_blocks()]
        )

    def unpack(self, packed: np.ndarray, buffer: np.ndarray) -> np.ndarray:
        """Scatter packed bytes back into a uint8 buffer (in place)."""
        import numpy as np

        packed = np.asarray(packed, dtype=np.uint8)
        if packed.size != self.size:
            raise ValueError(f"packed size {packed.size} != type size {self.size}")
        pos = 0
        for off, ln in self._own_blocks():
            buffer[off : off + ln] = packed[pos : pos + ln]
            pos += ln
        return buffer

    def __repr__(self) -> str:
        return f"Datatype({self.name}, size={self.size}, extent={self.extent})"


def _coalesce(blocks: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Merge adjacent (offset, length) runs; reject overlaps."""
    out: list[list[int]] = []
    for off, ln in sorted(blocks):
        if out and off < out[-1][0] + out[-1][1]:
            raise ValueError("derived type blocks overlap")
        if out and off == out[-1][0] + out[-1][1]:
            out[-1][1] += ln
        else:
            out.append([off, ln])
    return tuple((o, l) for o, l in out)


BYTE = Datatype("BYTE", 1)
CHAR = Datatype("CHAR", 1)
INT = Datatype("INT", 4)
LONG = Datatype("LONG", 8)
FLOAT = Datatype("FLOAT", 4)
DOUBLE = Datatype("DOUBLE", 8)

#: Fallback extent for payloads we cannot introspect (a pickled object header
#: plus a small body is on this order).
_DEFAULT_OBJECT_BYTES = 64


def count_of(payload: Any) -> int:
    """Element count of a payload, as ``MPI_Get_count`` would report it.

    Sized containers and numpy arrays report their length, an object
    advertising its count (``element_count``, e.g. a payload packed with
    its piggyback stamp) that count; scalars and opaque objects count as
    one element.
    """
    # a process that never imported numpy holds no ndarray
    np = sys.modules.get("numpy")
    if np is not None and isinstance(payload, np.ndarray):
        return int(payload.size)
    if isinstance(payload, (bytes, bytearray, str, list, tuple)):
        return len(payload)
    count = getattr(payload, "element_count", None)
    return count if isinstance(count, int) else 1


def sizeof(payload: Any) -> int:
    """Estimated wire size in bytes, used by the cost model.

    This is intentionally cheap (no pickling): numpy arrays report
    ``nbytes``, byte strings their length, other sized containers a
    per-element estimate, everything else a flat object cost.
    """
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        # numpy arrays and any object advertising its wire size (e.g.
        # clock stamps, whose size is what makes vector clocks unscalable)
        return nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8", errors="ignore"))
    if isinstance(payload, (list, tuple)):
        return 8 + 8 * len(payload)
    if isinstance(payload, (int, float, bool)) or payload is None:
        return 8
    return _DEFAULT_OBJECT_BYTES
