"""Immutable value records whose classes are made without generated code.

``@dataclass(frozen=True)`` writes the source of six methods for each class
and runs ``exec`` on it at import, about 1 ms a class.  A ``Record``
subclass instead lists its fields in ``__slots__``; the methods below are
compiled once, with this module.  ``Record.__init__`` binds its arguments to
the fields in slot order, as a frozen dataclass does, taking a field that is
not given from the class's ``_defaults``.  Only a record that checks or
normalizes its arguments writes its own ``__init__``: it raises with
``if``/``raise`` and ends with ``super().__init__`` on the values it keeps.

Equality and the hash read ``_key``, the tuple of the compared fields.  It
is made on first use and kept, so a record compared or hashed again costs
one slot read and one tuple comparison or hash, less than the dataclass
methods, which read every field per call.
"""

from __future__ import annotations

from typing import Optional

set_field = object.__setattr__


class Record:
    """An immutable value with the semantics of a frozen dataclass.

    Two records are equal when they are of the same class and their compared
    fields are equal, and the hash is the hash of the tuple of those fields.
    The compared fields are all of ``__slots__`` unless the class names them
    in ``_compared``.  The constructor takes the fields in slot order,
    positionally or by keyword; a field named in ``_defaults`` may be left
    out.  The repr is ``Name(field=value, ...)`` over every field.
    Assignment and deletion raise ``AttributeError``.
    """

    __slots__ = ("_key",)
    _compared: Optional[tuple[str, ...]] = None
    _defaults: dict[str, object] = {}

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, head = self.__slots__, self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(
                f"{head}() takes {len(names)} positional arguments but {len(args)} were given"
            )
        for name, value in zip(names, args):
            set_field(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                set_field(self, name, kwargs.pop(name))
            elif name in self._defaults:
                set_field(self, name, self._defaults[name])
            else:
                raise TypeError(f"{head}() missing argument {name!r}")
        if kwargs:
            name = next(iter(kwargs))
            if name in names:
                raise TypeError(f"{head}() got multiple values for argument {name!r}")
            raise TypeError(f"{head}() got an unexpected keyword argument {name!r}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            try:
                return self._key == other._key
            except AttributeError:
                return self._make_key() == other._make_key()
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return hash(self._key)
        except AttributeError:
            return hash(self._make_key())

    def _make_key(self) -> tuple:
        """Set ``_key`` from the compared fields; setting it again is harmless,
        since the fields never change."""
        key = tuple([getattr(self, name) for name in self._compared or self.__slots__])
        set_field(self, "_key", key)
        return key

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
