"""Immutable value classes: a subclass names its fields in __slots__ (or in
_fields, keeping a __dict__) and sets them in __init__, after its checks,
with object.__setattr__.  Equality and hashing compare the field tuple
within one class, and pickle and copy go back through __init__.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = fields = cls.__dict__.get("_fields", cls.__slots__)
        get = attrgetter(*fields)
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values
