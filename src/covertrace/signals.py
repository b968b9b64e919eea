"""Piecewise-constant control signals over {Port(k), Halt} with exact rational timing.

A signal is a finite word of (symbol, duration) pieces read left to right.  The
canonical form stores no zero-duration pieces and never repeats a symbol in
adjacent pieces, so equality of values coincides with equality of canonical
piece lists.  All durations are Fractions; nothing here is approximate.

Times are exact Fractions at the API.  Inside, a signal keeps one form,
(scale, symbols, ticks): piece i is symbols[i] for ticks[i] / scale time
units.  The form is canonical as well: every tick is positive, runs are
merged, and the scale is reduced by the gcd of the ticks (gcd(scale,
*ticks) == 1, and the empty signal has scale 1), so the scale is the least
common denominator of the durations and `==` and `hash` compare ints.
`from_json` reads the [symbol, num, den] triples into ticks on the lcm of
the reduced denominators, the reduced scale when no run of one symbol needs
merging, so no gcd over the ticks is run then; a document with runs goes
through `_canonical` like every other constructor.  `pieces` (read by
__repr__ and the benchmark's span sizes) and `duration` are built from the
ticks on first read, and `to_json` reduces each tick with one gcd.
`distance` and `geodesic` cut and join ticks on the lcm of their operands'
scales and build no Fraction per piece; a geodesic point is made by
`_from_ticks`, which merges and reduces but checks nothing again.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from operator import eq, floordiv
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


@dataclass(frozen=True, init=False, eq=False, repr=False)
class ControlSignal:
    """A finite piecewise-constant control signal in canonical form.

    pieces: tuple of (symbol, positive duration).  The constructor accepts any
    iterable of (symbol, duration) with int/str/Fraction durations, drops
    zero-duration pieces and merges adjacent equal symbols.
    """

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
        self._set(*_canonical(scale, symbols, ticks))

    @classmethod
    def _from_ticks(cls, scale: int, symbols, ticks) -> "ControlSignal":
        """The signal playing symbols[i] for ticks[i] / scale, ticks
        positive, merged and reduced but not checked."""
        self = cls.__new__(cls)
        self._set(*_canonical(scale, symbols, ticks))
        return self

    def _set(self, scale: int, symbols: tuple, ticks: tuple) -> None:
        self.__dict__.update(_scale=scale, _symbols=symbols, _ticks=ticks)

    @cached_property
    def pieces(self) -> tuple:
        scale = self._scale
        return tuple(zip(self._symbols, [Fraction(n, scale) for n in self._ticks]))

    @cached_property
    def duration(self) -> Fraction:
        return Fraction(sum(self._ticks), self._scale)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._scale == other._scale
            and self._ticks == other._ticks
            and self._symbols == other._symbols
        )

    def __hash__(self) -> int:
        return hash((self._scale, self._symbols, self._ticks))

    def __repr__(self) -> str:
        return f"ControlSignal(pieces={self.pieces!r})"

    def to_json(self) -> list:
        """Wire form: a list of [symbol, numerator, denominator] triples."""
        scale, out = self._scale, []
        for symbol, n in zip(self._symbols, self._ticks):
            g = gcd(n, scale)
            out.append([symbol, n // g, scale // g])
        return out

    @classmethod
    def from_json(cls, data) -> "ControlSignal":
        """The signal a list of [symbol, num, den] triples spells, read in
        one pass with the checks of `from_wire` and the constructor: a bad
        entry or wire pair is refused at once, in document order; the first
        bad symbol or negative duration, in entry order and the symbol
        before the sign, is refused after every pair has been read."""
        if not isinstance(data, list):
            raise ValidationError("signal JSON must be a list of [symbol, num, den] triples")
        symbols, nums, dens = [], [], []
        refused = None
        for entry in data:
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValidationError(f"bad signal JSON entry: {entry!r}")
            symbol, num, den = entry
            if type(num) is not int or type(den) is not int or den <= 0:
                value = from_wire([num, den])
                num, den = value.numerator, value.denominator
            if type(symbol) is not int or symbol < 0:
                try:
                    symbol = check_symbol(symbol)
                except ValidationError as exc:
                    refused = refused or exc
                    continue
            if num < 0:
                refused = refused or ValidationError(f"negative duration: {Fraction(num, den)}")
            elif num:
                symbols.append(symbol)
                nums.append(num)
                dens.append(den)
        if refused:
            raise refused
        # With every pair reduced and no run to merge, the lcm of the
        # denominators is the least common denominator, so the form is
        # canonical with no gcd over the ticks (on a scale that is a product
        # of many primes, that gcd costs a big-int gcd per piece).
        common = list(map(gcd, nums, dens))
        if common.count(1) != len(common):
            nums, dens = list(map(floordiv, nums, common)), list(map(floordiv, dens, common))
        scale = lcm(*dens)
        ticks = [n * (scale // d) for n, d in zip(nums, dens)]
        if any(map(eq, symbols, symbols[1:])):
            return cls._from_ticks(scale, symbols, ticks)
        self = cls.__new__(cls)
        self._set(scale, tuple(symbols), tuple(ticks))
        return self


def _canonical(scale: int, symbols, ticks) -> tuple:
    """(scale, symbols, ticks) of positive ticks with adjacent equal symbols
    merged and the scale reduced by the gcd of the ticks, as tuples."""
    if any(map(eq, symbols, symbols[1:])):
        merged_symbols, merged_ticks = [], []
        for symbol, n in zip(symbols, ticks):
            if merged_symbols and merged_symbols[-1] == symbol:
                merged_ticks[-1] += n
            else:
                merged_symbols.append(symbol)
                merged_ticks.append(n)
        symbols, ticks = merged_symbols, merged_ticks
    g = gcd(scale, *ticks)
    if g != 1:
        scale //= g
        ticks = [n // g for n in ticks]
    return scale, tuple(symbols), tuple(ticks)


def _scaled(ticks: tuple, q: int) -> list:
    return list(ticks) if q == 1 else [n * q for n in ticks]


def _window(u: ControlSignal, ends: list, q: int, lo: int, hi: int) -> tuple:
    """(symbols, ticks) of u on [lo, hi), 0 <= lo < hi <= its duration, in
    ticks of a scale q times u's; ends are u's piece end times in its own
    ticks.  Piece k covers [ends[k-1] * q, ends[k] * q)."""
    i = bisect_right(ends, lo // q)  # the first piece ending after lo
    j = bisect_left(ends, -(-hi // q), i)  # the first ending at or after hi
    if i == j:
        return [u._symbols[i]], [hi - lo]
    inner = _scaled(u._ticks[i + 1:j], q)
    return u._symbols[i:j + 1], [ends[i] * q - lo, *inner, hi - ends[j - 1] * q]


EMPTY = ControlSignal()


def distance(a: ControlSignal, b: ControlSignal) -> Fraction:
    """Exact metric: Lebesgue measure of the disagreement set on the common
    horizon plus the duration gap.

    One merge over both piece lists by piece end time, in integer ticks over
    the lcm of the two scales, so the cost is linear in the piece count."""
    scale = lcm(a._scale, b._scale)
    ends_a = list(accumulate(_scaled(a._ticks, scale // a._scale)))
    ends_b = list(accumulate(_scaled(b._ticks, scale // b._scale)))
    sa, sb = a._symbols, b._symbols
    total = t = 0
    i = j = 0
    while i < len(sa) and j < len(sb):
        end_a, end_b = ends_a[i], ends_b[j]
        hi = end_a if end_a < end_b else end_b
        if sa[i] != sb[j]:
            total += hi - t
        t = hi
        if end_a == hi:
            i += 1
        if end_b == hi:
            j += 1
    gap = (ends_a[-1] if sa else 0) - (ends_b[-1] if sb else 0)
    return Fraction(total + abs(gap), scale)


def geodesic(a: ControlSignal, b: ControlSignal, s) -> ControlSignal:
    """A point at parameter s on a geodesic from a to b.

    Without loss of generality let a be the shorter signal (otherwise swap and
    replace s by 1-s).  The result keeps b on [0, s*|a|), a on [s*|a|, |a|),
    and the stretch of b past |a| truncated to fraction s of the overhang, so
    the two distances back to the endpoints split |a - b| additively.

    The parameter s is a share of time, not of distance: d(a, g) is not
    s * d(a, b) in general, only d(a, g) + d(g, b) == d(a, b) holds.
    """
    s = as_fraction(s)
    if s < 0 or s > 1:
        raise PreconditionError(f"geodesic parameter {s} outside [0, 1]")
    total_a, total_b = sum(a._ticks), sum(b._ticks)
    if total_a * b._scale > total_b * a._scale:
        a, b, s, total_a, total_b = b, a, 1 - s, total_b, total_a
    # one grid holds |a|, |b|, s*|a| and |a| + s*(|b| - |a|)
    scale = lcm(a._scale, b._scale) * s.denominator
    qa, qb = scale // a._scale, scale // b._scale
    t0, t1 = total_a * qa, total_b * qb
    cut = t0 // s.denominator * s.numerator
    end = t0 + (t1 - t0) // s.denominator * s.numerator
    ends_a, ends_b = list(accumulate(a._ticks)), list(accumulate(b._ticks))
    symbols, ticks = [], []
    for u, ends, q, lo, hi in ((b, ends_b, qb, 0, cut), (a, ends_a, qa, cut, t0), (b, ends_b, qb, t0, end)):
        if lo < hi:
            more_symbols, more_ticks = _window(u, ends, q, lo, hi)
            symbols += more_symbols
            ticks += more_ticks
    return ControlSignal._from_ticks(scale, symbols, ticks)
