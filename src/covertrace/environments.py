"""Environments: a ported graph, a start vertex, a sensor, and the robot dynamics.

The robot interprets a control signal piece by piece.  Under Port(k) it moves
at unit speed toward the head of its current dart; arriving at a vertex it
enters the port-k dart if the vertex has one and k is below the alphabet
width, else it waits for the symbol to change.  Mid-edge the specific port
index is irrelevant: turning around inside an edge is impossible, only at
vertices.  Under Halt it stays put.  All times and offsets are exact
rationals.

Times and offsets are exact Fractions at the API.  Inside, the simulation
runs on the graph's integer tables and on one integer grid per call.
`trajectory` reads the signal's ticks (see signals) and puts them, with a
start offset, on the lcm of the signal's scale and the graph's tick
denominator, one multiply per piece; it walks vertex positions and dart ids
in O(steps) int operations and builds its Trajectory from legs in those
ticks, the one form a Trajectory is built from.  Only `trajectory` decides
where a move ends, folding it onto the dart's head vertex when it gets
there; each leg stores that end, and every other reader reads it.  A
Trajectory builds its Leg objects only when they are first read, as its
equality, its repr and the benchmark's spans read them.
Each environment reads its sensor through one table, `_Readings`, filled
from the sensor's columns the first time the environment traces a signal
or builds a state space: the reading per vertex, the interior reading per
edge and the beam marks per dart, in ticks along the dart.
`trace_of_trajectory` reads the legs' ticks directly, ends included, and
takes every reading from that table, as equivalence.DiscreteStateSpace
does; it reads none of the graph's tables.  A SensorTrace is
built from ticks too and keeps them in one canonical form, its segments and
events in ticks of a reduced scale, so traces compare and hash as ints and
readings; only its `duration` is a Fraction.  `first_divergence` brings two
traces to the lcm of their scales with int multiplies and reads them by
`_readings`.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .errors import ValidationError
from .graphs import Dart, EdgeState, GraphState, PortedGraph, VertexState, check_vertex_name
from .rationals import to_pair
from .sensors import SensorSpec, sensor_from_json
from .signals import HALT, ControlSignal


ZERO = Fraction(0)


@dataclass(frozen=True)
class Environment:
    """Immutable environment.  alphabet_width bounds the usable port symbols:
    valid actions are Port(0..width-1) and Halt.  It defaults to the maximum
    degree but may be smaller, leaving high-port darts unpressable, or larger,
    up to sys.maxsize so that the action range can be built."""

    graph: PortedGraph
    initial: object
    sensor: SensorSpec
    alphabet_width: Optional[int] = None

    def __post_init__(self):
        if self.initial not in self.graph.vertex_index:
            raise ValidationError(f"initial vertex {self.initial!r} not in graph")
        self.sensor.validate(self.graph)
        if self.alphabet_width is None:
            object.__setattr__(self, "alphabet_width", max(1, self.graph.max_degree()))
        width = self.alphabet_width
        if not isinstance(width, int) or isinstance(width, bool) or not 1 <= width <= sys.maxsize:
            raise ValidationError(f"alphabet_width must be an integer from 1 to {sys.maxsize}, got {width!r}")

    @classmethod
    def _derived(cls, graph, initial, sensor, alphabet_width) -> "Environment":
        """An environment a construction (a cover) proves valid, built with
        no check: its initial vertex is in the graph, its sensor is pulled
        back along a covering from a validated one, whose marks, labels and
        readings it repeats on edges of the same lengths, and its width was
        checked on the environment it covers."""
        self = cls.__new__(cls)
        self.__dict__.update(graph=graph, initial=initial, sensor=sensor, alphabet_width=alphabet_width)
        return self

    @property
    def initial_state(self) -> VertexState:
        return VertexState(self.initial)

    def to_json(self) -> dict:
        data = self.graph.to_json()
        data["initial"] = self.initial
        data["sensor"] = self.sensor.to_json()
        data["alphabet_width"] = self.alphabet_width
        return data

    @classmethod
    def from_json(cls, data) -> "Environment":
        if not isinstance(data, dict):
            raise ValidationError("environment JSON must be an object")
        graph = PortedGraph.from_json(data)
        if "initial" not in data:
            raise ValidationError("environment JSON missing initial vertex")
        if "sensor" not in data:
            raise ValidationError("environment JSON missing sensor")
        width = data.get("alphabet_width")
        initial = check_vertex_name(data["initial"])
        return cls(graph, initial, sensor_from_json(data["sensor"]), width)

    @cached_property
    def _readings(self) -> "_Readings":
        return _Readings(self.graph, self.sensor)


class _Readings:
    """What an environment's sensor reads, on the graph's ids, as three
    lists: vertex[v] is the reading at vertex position v, interior[e] the
    reading inside edge e away from its beam marks, and marks[d] the marks
    met along dart d, in the order met, as (den, ((pos, label), ...)), each
    pos the mark's distance from the dart's tail in ticks of 1/den, or ()
    on an edge without marks.  vertex and interior are the sensor's
    columns as they come (see sensors), and marks is built from its dict of
    marked edges, so an edge without marks costs nothing beyond its two
    empty entries.  Inside an edge a sensor reads the label of the mark at
    that point, if any, and else its interior reading (see `at`)."""

    def __init__(self, graph: PortedGraph, sensor: SensorSpec):
        self.vertex, self.interior, marked = sensor.columns(graph)
        lengths = graph.lengths
        self.marks = table = [()] * (2 * len(lengths))
        for e, marks in marked.items():
            length = lengths[e]
            den = lcm(length.denominator, *[pos.denominator for pos, _ in marks])
            # marks lie at distinct points, so no label is compared
            forward = sorted((pos.numerator * (den // pos.denominator), label) for pos, label in marks)
            # against the stored orientation a mark at pos lies at length - pos
            full = length.numerator * (den // length.denominator)
            backward = [(full - pos, label) for pos, label in reversed(forward)]
            table[2 * e] = (den, tuple(forward))
            table[2 * e + 1] = (den, tuple(backward))

    def at(self, d: int, off: int, scale: int):
        """Reading at the tick position (d, off) on a grid of 1/scale that
        the den of marks[d] divides (see Trajectory)."""
        if d < 0:
            return self.vertex[~d]
        marks = self.marks[d]
        if marks:
            den, along = marks
            q = scale // den
            for pos, label in along:
                if pos * q == off:
                    return label
        return self.interior[d >> 1]


@dataclass(frozen=True)
class Leg:
    """One trajectory leg: either resting in a fixed state (dart is None) or
    moving along a dart from offset0 at unit speed.  end is the canonical
    state at t1, stored by the simulation that computed it."""

    t0: Fraction
    t1: Fraction
    dart: Optional[Dart]
    offset0: Optional[Fraction]
    state: Optional[GraphState]
    end: GraphState

    @property
    def moving(self) -> bool:
        return self.dart is not None


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Trajectory:
    """Exact piecewise description of the robot's motion on [0, duration].

    legs are contiguous from time 0 and maximal, as `trajectory` builds them:
    no two adjacent rests share a state and no move continues the move before
    it along the same dart.

    Inside, a trajectory keeps one form: its legs in ticks of 1/scale, each
    (t0, t1, d, off, moving, d_end, off_end), where (d, off) is the position
    at t0 and (d_end, off_end) the one at t1: inside dart id d at off ticks
    from its tail when d >= 0, at vertex position ~d (off 0) when d < 0.  A
    move runs along d at unit speed, and a rest stays put.  `trajectory`
    stores each end, folded onto the dart's head vertex when the move gets
    there.  legs, final, breakpoints and duration are built from that form,
    legs and duration on first read.
    """

    graph: PortedGraph
    start: GraphState

    def __init__(self, graph: PortedGraph, start: GraphState, scale: int, at: tuple, tick_legs):
        """The trajectory from the start state, at tick position `at`, with
        these legs in ticks of 1/scale (see above), which the graph's tick
        denominator divides; as `trajectory` builds them, the legs are
        contiguous from time 0 and maximal."""
        self.__dict__.update(
            graph=graph,
            start=start,
            _scale=scale,
            _start_at=at,  # the start position in ticks
            _ticks=tick_legs,
        )

    def _state(self, d: int, off: int) -> GraphState:
        if d < 0:
            return VertexState(self.graph.vertices[~d])
        return EdgeState(Dart._make(self.graph.dart_keys[d]), Fraction(off, self._scale))

    @cached_property
    def legs(self) -> tuple:
        scale, keys = self._scale, self.graph.dart_keys
        legs = []
        t0 = ZERO
        for _, t1, d, off, moving, d_end, off_end in self._ticks:
            t1 = Fraction(t1, scale)
            end = self._state(d_end, off_end)
            if moving:
                legs.append(Leg(t0, t1, Dart._make(keys[d]), Fraction(off, scale), None, end))
            else:
                legs.append(Leg(t0, t1, None, None, end, end))
            t0 = t1
        return tuple(legs)

    @cached_property
    def duration(self) -> Fraction:
        return Fraction(self._ticks[-1][1], self._scale) if self._ticks else ZERO

    @property
    def final(self) -> GraphState:
        return self._state(*self._ticks[-1][5:]) if self._ticks else self.start

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.graph == other.graph and self.start == other.start and self.legs == other.legs

    def __repr__(self) -> str:
        return f"Trajectory(graph={self.graph!r}, start={self.start!r}, legs={self.legs!r})"

    def breakpoints(self) -> list:
        """Canonical (time, state) list: leg boundaries with canonical states,
        read off the tick legs."""
        scale = self._scale
        return [(ZERO, self.start)] + [
            (Fraction(leg[1], scale), self._state(leg[5], leg[6])) for leg in self._ticks
        ]

    def to_json(self) -> dict:
        return {
            "duration": to_pair(self.duration),
            "breakpoints": [
                {"time": to_pair(t), "state": _state_to_json(s)} for t, s in self.breakpoints()
            ],
        }


def _state_to_json(state: GraphState) -> dict:
    if isinstance(state, VertexState):
        return {"vertex": state.vertex}
    return {
        "dart": [state.dart.vertex, state.dart.port],
        "offset": to_pair(state.offset),
    }


def apply(env: Environment, signal: ControlSignal, state: Optional[GraphState] = None) -> GraphState:
    """Final state after playing the whole signal from `state` (default: initial)."""
    return trajectory(env, signal, state).final


def trajectory(env: Environment, signal: ControlSignal, start: Optional[GraphState] = None) -> Trajectory:
    """The robot's exact motion under the signal from `start` (default: initial)."""
    graph = env.graph
    start = env.initial_state if start is None else graph.check_state(start)
    unit = graph.tick_denominator()
    # the position (d, off) in ticks, as in Trajectory
    if isinstance(start, EdgeState):
        offset = start.offset
        scale = lcm(unit, signal._scale, offset.denominator)
        d, off = graph.dart_index[start.dart], offset.numerator * (scale // offset.denominator)
    else:
        scale = lcm(unit, signal._scale)
        d, off = ~graph.vertex_index[start.vertex], 0
    at = (d, off)
    star, head, lengths = graph.star, graph.dart_head, graph.edge_ticks()
    width = env.alphabet_width
    factor, q = scale // unit, scale // signal._scale
    # a rest in the position of the rest before it, or a move from the stored
    # end of a move that stopped inside the dart, extends that leg
    legs = []
    t = 0
    for symbol, remaining in zip(signal._symbols, signal._ticks):
        remaining *= q
        while remaining > 0:
            if symbol == HALT or d < 0 and (symbol >= width or symbol >= len(star[~d])):
                prev = legs[-1] if legs else None
                if prev and not prev[4] and prev[2] == d and prev[3] == off:
                    prev[1] = t + remaining
                else:
                    legs.append([t, t + remaining, d, off, False, d, off])
                t += remaining
                break
            if d < 0:
                d, off = star[~d][symbol], 0
            full = lengths[d >> 1] * factor
            step = min(remaining, full - off)
            # the move's end, folded onto the dart's head when it reaches it
            if off + step == full:
                d_end, off_end = ~head[d], 0
            else:
                d_end, off_end = d, off + step
            prev = legs[-1] if legs else None
            if prev and prev[4] and prev[5] == d and prev[6] == off:
                prev[1], prev[5], prev[6] = t + step, d_end, off_end
            else:
                legs.append([t, t + step, d, off, True, d_end, off_end])
            d, off = d_end, off_end
            t += step
            remaining -= step
    return Trajectory(graph, start, scale, at, legs)


# --- sensor traces -------------------------------------------------------


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SensorTrace:
    """Canonical sensor readout over [0, duration].

    Its segments partition [0, duration) into maximal half-open intervals of
    almost-everywhere constant value; adjacent segments carry distinct values.
    Its events record every instant whose reading differs from the segment it
    sits in (vertex passes, beam crossings) plus always the final instant.

    A trace keeps one form, (scale, duration, segments, events) with every
    time in ticks of 1/scale, the scale reduced by the gcd of all the ticks.
    The form is canonical, so `==` and `hash` compare ints and readings.
    duration is built from it on first read, and to_json reduces each time
    with one gcd.
    """

    def __init__(self, scale: int, duration: int, segments, events):
        """The trace with these (start, end, value) segments and (time,
        value) events, every time in ticks of 1/scale, put on the reduced
        scale."""
        g = gcd(scale, duration, *[t for a, b, _ in segments for t in (a, b)], *[t for t, _ in events])
        if g != 1:
            scale //= g
            duration //= g
            segments = [(a // g, b // g, v) for a, b, v in segments]
            events = [(t // g, v) for t, v in events]
        self.__dict__["_ticks"] = (scale, duration, tuple(segments), tuple(events))

    @cached_property
    def duration(self) -> Fraction:
        return Fraction(self._ticks[1], self._ticks[0])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ticks == other._ticks

    def __hash__(self) -> int:
        return hash(self._ticks)

    def __repr__(self) -> str:
        scale, _, segments, events = self._ticks
        segments = tuple((Fraction(a, scale), Fraction(b, scale), v) for a, b, v in segments)
        events = tuple((Fraction(t, scale), v) for t, v in events)
        return f"SensorTrace(duration={self.duration!r}, segments={segments!r}, events={events!r})"

    def to_json(self) -> dict:
        scale, duration, segments, events = self._ticks

        def pair(t):
            g = gcd(t, scale)
            return [t // g, scale // g]

        return {
            "duration": pair(duration),
            "segments": [{"from": pair(a), "to": pair(b), "value": v} for a, b, v in segments],
            "events": [{"time": pair(t), "value": v} for t, v in events],
        }


def trace_of(env: Environment, signal: ControlSignal, start: Optional[GraphState] = None) -> SensorTrace:
    """Sensor readout along the trajectory of the signal."""
    traj = trajectory(env, signal, start)
    return trace_of_trajectory(env, traj)


def trace_of_trajectory(env: Environment, traj: Trajectory) -> SensorTrace:
    """Sensor readout along a trajectory on env's graph, read off its legs
    in ticks."""
    table = env._readings
    at, vertex, interior, dart_marks = table.at, table.vertex, table.interior, table.marks
    scale, legs, (d0, off0) = traj._scale, traj._ticks, traj._start_at
    # The grid must also hold the beam marks on every dart the robot is on.
    darts = {leg[2] for leg in legs if leg[2] >= 0}
    if d0 >= 0:
        darts.add(d0)
    fine = lcm(scale, *[dart_marks[d][0] for d in darts if dart_marks[d]])
    if fine != scale:
        q = fine // scale
        legs = [
            (t0 * q, t1 * q, d, off * q, moving, d_end, off_end * q)
            for t0, t1, d, off, moving, d_end, off_end in legs
        ]
        off0 *= q
        scale = fine

    # Legs, and the marks met along each dart, come in time order, so each
    # instant is kept or dropped as it is met: the reading at a leg's start
    # when it differs from the leg's reading, a mark when its label differs
    # from the interior reading, and always the final instant.
    end = 0
    reading = at(d0, off0, scale)  # at the start of the next leg
    merged, events = [], []
    for t0, end, d, off, moving, d_end, off_end in legs:
        v = interior[d >> 1] if moving else reading
        if reading != v:
            events.append((t0, reading))
        if moving:
            off_hi = off + (end - t0)
            marks = dart_marks[d]
            if marks:
                den, along = marks
                k = scale // den
                for pos, label in along:
                    pos *= k
                    if off < pos < off_hi and label != v:
                        events.append((t0 + (pos - off), label))
            reading = vertex[~d_end] if d_end < 0 else at(d_end, off_end, scale)
        if merged and merged[-1][2] == v and merged[-1][1] == t0:
            merged[-1][1] = end
        else:
            merged.append([t0, end, v])
    events.append((end, reading))
    return SensorTrace(scale, end, list(map(tuple, merged)), events)


def first_divergence(a: SensorTrace, b: SensorTrace) -> Optional[Fraction]:
    """Earliest time at which the two traces differ, None if equal.

    Traces must share a duration (they come from one signal)."""
    scale_a, duration_a, segments_a, events_a = a._ticks
    scale_b, duration_b, segments_b, events_b = b._ticks
    if duration_a * scale_b != duration_b * scale_a:
        raise ValidationError("traces of different durations are not comparable")
    if a._ticks == b._ticks:
        return None
    # both traces on the lcm of their scales
    scale = lcm(scale_a, scale_b)
    qa, qb = scale // scale_a, scale // scale_b
    if qa != 1:
        segments_a = [(s * qa, e * qa, v) for s, e, v in segments_a]
        events_a = [(t * qa, v) for t, v in events_a]
    if qb != 1:
        segments_b = [(s * qb, e * qb, v) for s, e, v in segments_b]
        events_b = [(t * qb, v) for t, v in events_b]
    events_a, events_b = dict(events_a), dict(events_b)
    criticals = sorted(
        {t for t, _, _ in segments_a} | {t for t, _, _ in segments_b} | events_a.keys() | events_b.keys()
    )
    readings_a = _readings(segments_a, events_a, criticals)
    readings_b = _readings(segments_b, events_b, criticals)
    for t, ra, rb in zip(criticals, readings_a, readings_b):
        if ra != rb:
            return Fraction(t, scale)
    return None


def _readings(segments, events: dict, times):
    """(instant value, value just after) at each of the sorted times, for a
    trace in ticks: the event there, else the segment holding it (None at
    the end); one forward pointer over the segments, not a scan per time."""
    k = 0
    for t in times:
        while k < len(segments) and segments[k][1] <= t:
            k += 1
        after = segments[k][2] if k < len(segments) and segments[k][0] <= t else None
        yield events.get(t, after), after
