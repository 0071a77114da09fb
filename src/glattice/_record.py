"""``Record``, the base of the package's record types (``FinAbGroup``, ``GLattice``, ``WeylSearchConfig``, ...)."""


class Record:
    """An immutable value with named fields, and no code generated when a subclass is made.

    Two records are equal when they are of one class and their fields, in
    the order ``_fields`` names them, are equal; the hash is that of the
    fields and the repr is ``Name(field=value, ...)``.  A subclass sets its
    fields in its own ``__init__``: in ``__slots__`` through ``self._set``,
    which is ``object.__setattr__``, or by updating its ``__dict__`` where a
    ``cached_property`` or a reader needs one.  Any other assignment or
    deletion raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _set = object.__setattr__

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join([f'{n}={getattr(self, n)!r}' for n in self._fields])})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
