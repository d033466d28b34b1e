"""The record base: immutable value objects with named fields.

A record class names its fields, in order, in ``_fields``, declares
``__slots__`` and writes its own ``__init__``: that checks and coerces
the arguments and stores each field with ``object.__setattr__``.  The
base supplies the rest of the contract:

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
source (see README, "Records").
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

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
