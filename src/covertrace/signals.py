"""Piecewise-constant control signals over {Port(k), Halt} with exact rational timing.

A signal is a finite word of (symbol, duration) pieces read left to right.  The
canonical form stores no zero-duration pieces and never repeats a symbol in
adjacent pieces, so equality of values coincides with equality of canonical
piece lists.  All durations are Fractions; nothing here is approximate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import PreconditionError, ValidationError
from .rationals import as_fraction, from_wire

HALT = "halt"

Symbol = Union[int, str]


def check_symbol(symbol) -> Symbol:
    """A symbol is a nonnegative port index or the halt marker."""
    if symbol == HALT:
        return HALT
    if isinstance(symbol, int) and not isinstance(symbol, bool) and symbol >= 0:
        return symbol
    raise ValidationError(f"bad control symbol: {symbol!r}")


@dataclass(frozen=True, init=False)
class ControlSignal:
    """A finite piecewise-constant control signal in canonical form.

    pieces: tuple of (symbol, positive duration).  The constructor accepts any
    iterable of (symbol, duration) with int/str/Fraction durations, drops
    zero-duration pieces and merges adjacent equal symbols.
    """

    pieces: tuple

    def __init__(self, pieces: Iterable = ()):
        canonical = []
        for entry in pieces:
            try:
                symbol, duration = entry
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad signal piece: {entry!r}") from exc
            symbol = check_symbol(symbol)
            duration = as_fraction(duration)
            if duration < 0:
                raise ValidationError(f"negative duration: {duration}")
            if duration == 0:
                continue
            if canonical and canonical[-1][0] == symbol:
                canonical[-1] = (symbol, canonical[-1][1] + duration)
            else:
                canonical.append((symbol, duration))
        object.__setattr__(self, "pieces", tuple(canonical))
        object.__setattr__(self, "_duration", sum((d for _, d in canonical), Fraction(0)))

    @property
    def duration(self) -> Fraction:
        return self._duration

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def symbol_at(self, t: Fraction) -> Symbol:
        """Value of the signal at time t, defined for 0 <= t < duration."""
        t = as_fraction(t)
        if t < 0 or t >= self.duration:
            raise PreconditionError(f"time {t} outside [0, {self.duration})")
        acc = Fraction(0)
        for symbol, dur in self.pieces:
            acc += dur
            if t < acc:
                return symbol
        raise AssertionError("unreachable")

    def breakpoints(self) -> list:
        """Times 0 = t0 < t1 < ... < tn = duration at piece boundaries."""
        times = [Fraction(0)]
        for _, dur in self.pieces:
            times.append(times[-1] + dur)
        return times

    def concat(self, other: "ControlSignal") -> "ControlSignal":
        """Play self, then other; adjacent equal symbols merge at the seam."""
        return ControlSignal(self.pieces + other.pieces)

    def restrict_before(self, t) -> "ControlSignal":
        """The initial segment on [0, t); for t >= duration this is the signal itself."""
        t = as_fraction(t)
        if t < 0:
            raise PreconditionError(f"negative cut time: {t}")
        out = []
        remaining = t
        for symbol, dur in self.pieces:
            if remaining <= 0:
                break
            take = min(dur, remaining)
            out.append((symbol, take))
            remaining -= take
        return ControlSignal(out)

    def suffix_from(self, t) -> "ControlSignal":
        """The tail on [t, duration), shifted to start at 0."""
        t = as_fraction(t)
        if t < 0 or t > self.duration:
            raise PreconditionError(f"cut time {t} outside [0, {self.duration}]")
        out = []
        skip = t
        for symbol, dur in self.pieces:
            if skip >= dur:
                skip -= dur
                continue
            out.append((symbol, dur - skip))
            skip = Fraction(0)
        return ControlSignal(out)

    def is_strict_prefix_of(self, other: "ControlSignal") -> bool:
        """Tree order: self is a proper initial segment of other."""
        return self.duration < other.duration and other.restrict_before(self.duration) == self

    def to_json(self) -> list:
        """Wire form: a list of [symbol, numerator, denominator] triples."""
        return [[symbol, dur.numerator, dur.denominator] for symbol, dur in self.pieces]

    @classmethod
    def from_json(cls, data) -> "ControlSignal":
        if not isinstance(data, list):
            raise ValidationError("signal JSON must be a list of [symbol, num, den] triples")
        pieces = []
        for entry in data:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValidationError(f"bad signal JSON entry: {entry!r}")
            symbol, num, den = entry
            pieces.append((symbol, from_wire([num, den])))
        return cls(pieces)


EMPTY = ControlSignal()


def distance(a: ControlSignal, b: ControlSignal) -> Fraction:
    """Exact metric: Lebesgue measure of the disagreement set on the common
    horizon plus the duration gap.

    One merge over both piece lists by piece end time, so the cost is linear
    in the piece count."""
    pa, pb = a.pieces, b.pieces
    ends_a, ends_b = a.breakpoints()[1:], b.breakpoints()[1:]
    total = Fraction(0)
    t = Fraction(0)
    i = j = 0
    while i < len(pa) and j < len(pb):
        hi = min(ends_a[i], ends_b[j])
        if pa[i][0] != pb[j][0]:
            total += hi - t
        t = hi
        if ends_a[i] == hi:
            i += 1
        if ends_b[j] == hi:
            j += 1
    return total + abs(a.duration - b.duration)


def geodesic(a: ControlSignal, b: ControlSignal, s) -> ControlSignal:
    """A point at parameter s on a geodesic from a to b.

    Without loss of generality let a be the shorter signal (otherwise swap and
    replace s by 1-s).  The result keeps b on [0, s*|a|), a on [s*|a|, |a|),
    and the stretch of b past |a| truncated to fraction s of the overhang, so
    the two distances back to the endpoints split |a - b| additively.
    """
    s = as_fraction(s)
    if s < 0 or s > 1:
        raise PreconditionError(f"geodesic parameter {s} outside [0, 1]")
    if a.duration > b.duration:
        a, b, s = b, a, 1 - s
    t0 = a.duration
    cut = s * t0
    head = b.restrict_before(cut)
    middle = a.suffix_from(cut)
    tail = b.suffix_from(t0).restrict_before(s * (b.duration - t0))
    return head.concat(middle).concat(tail)
