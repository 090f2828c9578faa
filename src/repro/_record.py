"""A plain base for value classes that are copied, compared and dumped.

``@dataclass`` would write these methods, but it compiles them with
``exec`` at every import, which no ``.pyc`` caches, and pulls in
``dataclasses`` and ``inspect``: a cost every ``repro`` process paid for
two classes.  A subclass lists its fields once, in positional order, as
``FIELDS`` and in ``__slots__``, and writes its own ``__init__``; the
field tuple then drives :meth:`~Record.replace`, :meth:`~Record.as_dict`,
``==`` and ``repr``.

A record is immutable: ``__init__`` assigns each field once and a later
assignment raises, so a shared record (a config's cost model) changes
only by :meth:`~Record.replace`, into a copy.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    #: field names in positional ``__init__`` order
    FIELDS: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def replace(self, **changes):
        """A copy with ``changes`` applied, made (and so validated) by
        ``__init__``; an unknown field name is a ``TypeError``."""
        fields = {name: getattr(self, name) for name in self.FIELDS}
        fields.update(changes)
        return type(self)(**fields)

    def as_dict(self) -> dict:
        """Every field by name, in field order; a field that is itself a
        :class:`Record` becomes a dict of its own."""
        out = {}
        for name in self.FIELDS:
            value = getattr(self, name)
            out[name] = value.as_dict() if isinstance(value, Record) else value
        return out

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None  # compared by value (a field may be unhashable)

    def __setattr__(self, name: str, value) -> None:
        if hasattr(self, name):  # set already: ``__init__`` sets each field once
            raise AttributeError(f"{type(self).__qualname__} is immutable: use replace({name}=...)")
        object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"
