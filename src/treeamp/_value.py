"""Immutable value classes: a subclass names its fields in __slots__ and
sets them in __init__, after its checks, with object.__setattr__.
Equality and hashing compare the field tuple within one class, and
pickle and copy go back through __init__.  exact takes a number exactly.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


def exact(x):
    """x as a Fraction, a float by its binary value; ValueError names an x with none."""
    from fractions import Fraction
    try:
        return Fraction(x)
    except (OverflowError, ValueError, ZeroDivisionError):  # an infinity, a NaN, "1/0"
        raise ValueError(f"expected a finite rational, got {x!r}") from None
