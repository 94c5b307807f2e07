"""Immutable value records, the one record form of the package.

A record class subclasses ``Record`` and lists its fields as class
annotations.  The fields, in declaration order, are read once when the
class is defined and kept in ``__record_fields__``; every record method is
generic over that tuple, so defining a record generates no code.
"""

from __future__ import annotations


class Record:
    """A frozen value with named fields.

    Fields are bound positionally and then by keyword, in one pass that
    raises ``TypeError`` on too many values, an unknown or repeated field
    or a missing one; then ``__post_init__`` runs, where a record validates
    its values (and may normalise one through ``object.__setattr__``).
    Records are equal, and hash alike, when they are of the same class with
    equal fields; a record never equals a tuple.  Setting or deleting an
    attribute raises ``AttributeError``.
    """

    __record_fields__: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__record_fields__ = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__record_fields__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}: unexpected or repeated field {name!r}")
            values[name] = value
        if len(values) < len(names):
            missing = [name for name in names if name not in values]
            raise TypeError(f"{cls.__name__}: missing fields {missing}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        """Check the field values; records with invariants override this."""

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__record_fields__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__record_fields__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
