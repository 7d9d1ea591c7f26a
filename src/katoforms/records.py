"""Immutable value records whose classes are made without generated code.

``@dataclass(frozen=True)`` writes the source of six methods for each class
and runs ``exec`` on it at import, about 1 ms a class.  A ``Record``
subclass instead lists its fields in ``__slots__`` and writes its own
``__init__``, which checks its arguments with ``if``/``raise`` and sets each
field through ``set_field`` (``object.__setattr__``); the methods below are
compiled once, with this module.

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
    in ``_compared``.  The repr is ``Name(field=value, ...)`` over every
    field.  Assignment and deletion raise ``AttributeError``.
    """

    __slots__ = ("_key",)
    _compared: Optional[tuple[str, ...]] = None

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
