"""Immutable value classes: a subclass names its fields in __slots__, and
Value.__init__ sets them in that order, raising on a wrong count.  A
subclass with checks runs them in its own __init__ and ends in one
super().__init__ call.  Equality and hashing compare the field tuple
within one class, and pickle and copy go back through __init__.  exact
takes a number exactly, integer takes an integer, at least a bound when
one is given, member takes a kind by its name, and instance takes a value
of one class: each is the one check of its kind of parameter.
"""

from operator import attrgetter, index


class Value:
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

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


def integer(x, name: str, low: int | None = None) -> int:
    """x as an int by operator.index, so True is 1; ValueError names the x that has
    none, or that falls below low."""
    try:
        n = index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {x!r}") from None
    if low is not None and n < low:
        raise ValueError(f"{name} must be >= {low}, got {n}")
    return n


def instance(x, cls: type, name: str):
    """x when it is a cls, such as a polynomial or an orbit model; ValueError
    names the x that is not."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {x!r}")
    return x


def member(kinds: type, x, noun: str):
    """The member of the enum kinds that is x or has the value x; ValueError lists the names."""
    try:
        return kinds(x)
    except ValueError:
        known = ", ".join(repr(kind.value) for kind in kinds)
        raise ValueError(f"unknown {noun} {x!r} (choose from {known})") from None
