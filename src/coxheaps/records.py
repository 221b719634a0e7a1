"""Immutable value records, without ``dataclasses``.

A ``Record`` subclass names its fields by annotating them in the class
body, in order, after those its parent names.  The record refuses
attribute assignment and deletion, and compares, hashes and prints by its
fields as a frozen dataclass does: equal only to a record of its own
class, hashed as the tuple of its fields, printed as
``Name(field=value, ...)``.  Each record sets its fields in its
``__init__`` with ``object.__setattr__`` (``_set``).  The records on hot
paths write their equality, hashing and ordering out in full rather than
loop over the fields.  ``dataclasses`` costs a command-line call more to
import than the modules the call runs, so the package does not use it.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = (*cls._fields, *cls.__annotations__)  # the parent's, then its own in order

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
