"""Immutable value records, without ``dataclasses``.

A ``Record`` subclass names its fields by annotating them in the class
body, in order, after those its parent names; a class attribute of a
field's name is that field's default.  The record refuses attribute
assignment and deletion and prints as ``Name(field=value, ...)``.

When the class is made, ``Record`` compiles its methods from the fields in
one ``exec``, as ``dataclasses`` does, so each is straight-line code with
no loop over the fields: ``__init__(self, f1, f2, ...)``, which sets each
field with ``object.__setattr__`` (``_set``); ``__eq__``, equal only to a
record of its own class with equal fields; ``__hash__``, the hash of the
tuple of the fields, as a frozen dataclass hashes; and, for a class
declared ``class X(Record, order=True)``, ``__lt__``, ``__le__``, ``__gt__``
and ``__ge__``, which order records of one class as the tuples of their
fields.  A lone field is compared as itself, as a 1-tuple would make
sorting slower.  A method the class body writes itself is kept: ``Graph``
and ``AcyclicOrientation`` write their ``__init__``, which checks its
input.  The code is compiled under the file name ``<record module.Name>``
and each method is named ``Name.method``, so a profile or traceback tells
the records apart.  ``dataclasses`` costs a command-line call more to
import than the modules the call runs, so the package does not use it.
"""

from __future__ import annotations

_set = object.__setattr__

_ORDER = {"__lt__": "<", "__le__": "<=", "__gt__": ">", "__ge__": ">="}


def _display(owner: str, fields: tuple) -> str:
    """The tuple display of ``owner``'s fields."""
    names = [f"{owner}.{f}" for f in fields]
    return f"({', '.join(names)}{',' if len(names) == 1 else ''})"


def _methods(cls, order: bool, defaults: dict) -> dict[str, str]:
    """The source of each method ``cls`` does not write itself, by name; a
    field with a default takes it from ``defaults`` as ``_default_<field>``."""
    fields, own = cls._fields, vars(cls)
    mine, theirs = _display("self", fields), _display("other", fields)
    if len(fields) == 1:
        mine, theirs = f"self.{fields[0]}", f"other.{fields[0]}"
    sources = {
        name: f"def {name}(self, other):\n"
              f"    if other.__class__ is self.__class__:\n"
              f"        return {mine} {op} {theirs}\n"
              f"    return NotImplemented\n"
        for name, op in {"__eq__": "==", **(_ORDER if order else {})}.items()
    }
    sources["__hash__"] = f"def __hash__(self):\n    return hash({_display('self', fields)})\n"
    params = ", ".join(["self", *(f"{f}=_default_{f}" if f"_default_{f}" in defaults else f for f in fields)])
    body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
    sources["__init__"] = f"def __init__({params}):\n{body or '    pass'}\n"
    return {name: source for name, source in sources.items() if name not in own}


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, order: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = (*cls._fields, *vars(cls).get("__annotations__", {}))  # the parent's, then its own in order
        defaults = {f"_default_{f}": getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        sources = _methods(cls, order, defaults)
        namespace = {"_set": _set, **defaults}
        exec(compile("\n".join(sources.values()), f"<record {cls.__module__}.{cls.__qualname__}>", "exec"), namespace)
        for name in sources:
            method = namespace[name]
            method.__qualname__, method.__module__ = f"{cls.__qualname__}.{name}", cls.__module__
            setattr(cls, name, method)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
