"""Piecewise-constant control signals over {Port(k), Halt} with exact rational timing.

A signal is a finite word of (symbol, duration) pieces read left to right.  The
canonical form stores no zero-duration pieces and never repeats a symbol in
adjacent pieces, so equality of values coincides with equality of canonical
piece lists.  All durations are Fractions; nothing here is approximate.

Times are exact Fractions at the API.  Inside, the constructor, `distance`,
`restrict_before` and `suffix_from` put every time they meet on one integer
grid (ints over the common denominator, see `rationals.on_grid`) and build a
Fraction only for the values they return.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import eq
from typing import Iterable, Union

from .errors import PreconditionError, ValidationError
from .rationals import as_fraction, from_wire, on_grid

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
        symbols, durations = [], []
        for entry in pieces:
            try:
                symbol, duration = entry
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"bad signal piece: {entry!r}") from exc
            symbol = check_symbol(symbol)
            duration = as_fraction(duration)
            if duration.numerator < 0:
                raise ValidationError(f"negative duration: {duration}")
            if duration.numerator:
                symbols.append(symbol)
                durations.append(duration)
        scale, ticks = on_grid(durations)
        canonical = tuple(zip(symbols, durations))
        if any(map(eq, symbols, symbols[1:])):
            # runs of equal symbols as [symbol, ticks, duration]; a merged
            # run gets its duration from its ticks
            runs = []
            for symbol, duration, n in zip(symbols, durations, ticks):
                if runs and runs[-1][0] == symbol:
                    runs[-1][1] += n
                    runs[-1][2] = None
                else:
                    runs.append([symbol, n, duration])
            canonical = tuple(
                (symbol, Fraction(n, scale) if duration is None else duration)
                for symbol, n, duration in runs
            )
        object.__setattr__(self, "pieces", canonical)
        object.__setattr__(self, "_duration", Fraction(sum(ticks), scale))

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
        scale, ticks = on_grid([dur for _, dur in self.pieces] + [t])
        remaining = ticks.pop()
        out = []
        for (symbol, dur), n in zip(self.pieces, ticks):
            if n >= remaining:
                if remaining:
                    out.append((symbol, dur if n == remaining else Fraction(remaining, scale)))
                break
            out.append((symbol, dur))
            remaining -= n
        return ControlSignal(out)

    def suffix_from(self, t) -> "ControlSignal":
        """The tail on [t, duration), shifted to start at 0."""
        t = as_fraction(t)
        if t < 0 or t > self.duration:
            raise PreconditionError(f"cut time {t} outside [0, {self.duration}]")
        scale, ticks = on_grid([dur for _, dur in self.pieces] + [t])
        skip = ticks.pop()
        for i, n in enumerate(ticks):
            if skip < n:
                symbol, dur = self.pieces[i]
                head = (symbol, dur if skip == 0 else Fraction(n - skip, scale))
                return ControlSignal((head,) + self.pieces[i + 1:])
            skip -= n
        return EMPTY

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

    One merge over both piece lists by piece end time, in integer ticks over
    the pieces' common denominator, so the cost is linear in the piece count."""
    pa, pb = a.pieces, b.pieces
    scale, ticks = on_grid([dur for _, dur in pa + pb])
    ends_a = list(accumulate(ticks[: len(pa)]))
    ends_b = list(accumulate(ticks[len(pa):]))
    total = t = 0
    i = j = 0
    while i < len(pa) and j < len(pb):
        end_a, end_b = ends_a[i], ends_b[j]
        hi = end_a if end_a < end_b else end_b
        if pa[i][0] != pb[j][0]:
            total += hi - t
        t = hi
        if end_a == hi:
            i += 1
        if end_b == hi:
            j += 1
    gap = (ends_a[-1] if pa else 0) - (ends_b[-1] if pb else 0)
    return Fraction(total + abs(gap), scale)


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
