"""Exact rational helpers and the [numerator, denominator] wire format.

No floating point is accepted anywhere: exactness is part of every public
contract, so floats are rejected at the boundary instead of silently rounded.
Hot loops put their rationals on one integer grid with `on_grid` and compute
on ints, which is exact and avoids a gcd per Fraction operation.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm

from .errors import ValidationError


# The exponent of a decimal string, as Fraction(str) reads it (`\d` takes
# any Unicode digit, as int() does).
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _exponent_too_large(text: str) -> bool:
    """Whether text ends in an exponent above sys.get_int_max_str_digits(),
    whose power of ten Fraction(text) would build before any check (the
    int-digit limit reads the digits written, not the exponent)."""
    # 0: no limit, as on Pythons before 3.10.7, which have no such function
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    match = _EXPONENT.search(text) if limit else None
    return match is not None and abs(int(match[1])) > limit


# The characters of an over-long text that its refusal quotes.
_QUOTED = 40


def _not_rational(value) -> ValidationError:
    """The refusal of value: a text longer than _QUOTED characters is
    quoted by its first _QUOTED and its length, not echoed whole."""
    if isinstance(value, str) and len(value) > _QUOTED:
        return ValidationError(
            f"not a rational number: {value[:_QUOTED]!r}... ({len(value)} characters)"
        )
    return ValidationError(f"not a rational number: {value!r}")


def as_fraction(value) -> Fraction:
    """Coerce ints, strings like "3/2" or "2.5e-1", and Fractions to
    Fraction; reject floats, and decimal exponents past the int-digit limit."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise _not_rational(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            if _exponent_too_large(value):
                raise ValueError("exponent too large")
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise _not_rational(value) from exc
    raise _not_rational(value)


def is_rational(value) -> bool:
    """Whether value is an int or a Fraction (a bool is neither): what the
    constructors take as a length or an offset."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def on_grid(values, scale: int = 1) -> tuple:
    """Exact rationals (a sequence of Fractions or ints) as integer ticks
    over one common denominator.

    Returns (d, ticks): d is the least common multiple of `scale` and every
    denominator, and ticks[i] == values[i] * d, so values[i] is
    Fraction(ticks[i], d).  Sums, comparisons, hashes and sorts of ticks
    agree with those of the values."""
    d = lcm(scale, *[v.denominator for v in values])
    return d, [v.numerator * (d // v.denominator) for v in values]


def to_pair(value: Fraction) -> list:
    """Wire form of a rational: [numerator, denominator] with denominator > 0."""
    return [value.numerator, value.denominator]


def from_wire(value) -> Fraction:
    """Parse a wire rational: a [numerator, denominator] pair or a bare integer."""
    if isinstance(value, bool):
        raise ValidationError(f"bad rational on the wire: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        num, den = value
        if isinstance(num, int) and isinstance(den, int) and not isinstance(num, bool) and not isinstance(den, bool):
            if den == 0:
                raise ValidationError("zero denominator")
            return Fraction(num, den)
    raise ValidationError(f"bad rational on the wire: {value!r}")


def shared_from_wire(value, seen: dict) -> Fraction:
    """from_wire, with one Fraction per distinct [int, int] pair or bare
    int kept in `seen`: a cover's lengths and beam offsets repeat its
    base's, and Fraction() normalizes with a gcd."""
    if type(value) is list and len(value) == 2 and type(value[0]) is int and type(value[1]) is int:
        key = (value[0], value[1])
    elif type(value) is int:
        key = value
    else:
        return from_wire(value)
    found = seen.get(key)
    if found is None:
        found = seen[key] = from_wire(value)
    return found
