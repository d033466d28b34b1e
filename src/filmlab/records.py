"""The record base: immutable value objects with named fields.

A record class names its fields, in order, in ``_fields`` and declares
``__slots__``.  The base ``__init__`` stores the fields: positionally,
or by keyword, with trailing fields filled from the class dict
``_defaults`` when left out.  A class writes its own ``__init__`` only
to check or coerce its arguments; that one stores each field with
``object.__setattr__``.  The base supplies the rest of the contract:

* equality within one class on the field tuple, and a hash of it;
* ``Name(field=value, ...)`` as repr, fields in order;
* fields that cannot be assigned or deleted;
* copies and pickles that rebuild through ``__init__``.

Classes the solvers hash, compare and sort in inner loops (grid cells,
specs and chains, simplicial chains) write ``__eq__`` and ``__hash__``
out field by field, as the generic tuple of ``getattr`` calls would
slow them.

A plain class is defined in microseconds.  A decorator that generates
these methods costs every process the import of ``inspect`` and the
modules behind it, and about 0.65 ms per class to compile the generated
source (see README, "Records"); the one loop over ``_fields`` here is
compiled once.
"""

# bound once: the field loop skips an attribute lookup per field
_setattr = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with keywords or left-out defaults."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                if key not in cls._defaults:
                    raise TypeError(f"{name}() missing required argument {key!r}")
                values[key] = cls._defaults[key]
        return tuple(values[key] for key in fields)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
