"""Small helpers around fractions.Fraction used throughout the package."""

from __future__ import annotations

from fractions import Fraction

from .errors import InstanceFormatError

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and strings like "3/4" into an exact Fraction.

    Floats are rejected: every quantity in this package is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InstanceFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(f"bad rational literal {value!r}") from exc
    raise InstanceFormatError(f"not a rational: {value!r}")

