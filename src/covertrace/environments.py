"""Environments: a ported graph, a start vertex, a sensor, and the robot dynamics.

The robot interprets a control signal piece by piece.  Under Port(k) it moves
at unit speed toward the head of its current dart; arriving at a vertex it
enters the port-k dart if the vertex has one and k is below the alphabet
width, else it waits for the symbol to change.  Mid-edge the specific port
index is irrelevant: turning around inside an edge is impossible, only at
vertices.  Under Halt it stays put.  All times and offsets are exact
rationals.

Times and offsets are exact Fractions at the API: in every Leg, Trajectory
and SensorTrace and in every returned time.  Inside, the simulation runs on
the graph's integer tables and on one integer grid per call.  `trajectory`
reads the signal's ticks (see signals) and puts them, with a start offset,
on the lcm of the signal's scale and the graph's tick denominator, one
multiply per piece; it walks vertex positions and dart ids in O(steps) int
operations and keeps its legs in those ticks, and a Trajectory builds its
Leg objects from them only when they are first read.
Each environment reads its sensor through one table, `_Readings`, filled
from the sensor protocol in one pass the first time the environment traces
a signal or builds a state space: the reading per vertex, the interior
reading per edge and the beam marks per dart, in ticks along the dart.
`trace_of_trajectory` reads the legs' ticks directly and takes every reading
from that table, as equivalence.DiscreteStateSpace does.  A SensorTrace
keeps the result in one canonical form, its segments and events in ticks of
a reduced scale, so traces compare and hash as ints and readings, and its
Fraction fields are built only when they are read.  `first_divergence`
brings two traces to the lcm of their scales with int multiplies.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Optional

from .errors import PreconditionError, ValidationError
from .graphs import Dart, EdgeState, GraphState, PortedGraph, VertexState, check_vertex_name
from .rationals import as_fraction, on_grid, to_pair
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

    @property
    def initial_state(self) -> VertexState:
        return VertexState(self.initial)

    def actions(self) -> list:
        """Canonical action order: ports ascending, halt last."""
        return list(range(self.alphabet_width)) + [HALT]

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
    lists filled from the sensor protocol in one pass: vertex[v] is the
    reading at vertex position v, interior[e] the reading inside edge e
    away from its beam marks, and marks[d] the marks met along dart d as
    (den, ((pos, label), ...)), each pos the mark's distance from the
    dart's tail in ticks of 1/den, or () on an edge without marks.  Inside
    an edge a sensor reads the label of the mark at that point, if any, and
    else its interior reading (see `at`)."""

    def __init__(self, graph: PortedGraph, sensor: SensorSpec):
        self.vertex = [sensor.value(graph, VertexState(v)) for v in graph.vertices]
        self.interior = [sensor.interior_value(graph, e) for e in range(len(graph.edges))]
        self.marks = []
        for e, edge in enumerate(graph.edges):
            marks = sensor.marks_on(e)
            if not marks:
                self.marks += [(), ()]
                continue
            length = edge.length
            den = lcm(length.denominator, *[pos.denominator for pos, _ in marks])
            forward = [(pos.numerator * (den // pos.denominator), label) for pos, label in marks]
            # against the stored orientation a mark at pos lies at length - pos
            full = length.numerator * (den // length.denominator)
            backward = [(full - pos, label) for pos, label in forward]
            self.marks += [(den, tuple(forward)), (den, tuple(backward))]

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

    def at(self, graph: PortedGraph, t: Fraction) -> GraphState:
        """Canonical state at time t in [t0, t1]."""
        if self.moving:
            return graph.state_on(self.dart, self.offset0 + (t - self.t0))
        return self.state


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Trajectory:
    """Exact piecewise description of the robot's motion on [0, duration].

    legs are contiguous from time 0 and maximal, as `trajectory` builds them:
    no two adjacent rests share a state and no move continues the move before
    it along the same dart.

    Inside, a trajectory keeps one form: its legs in ticks of 1/scale, each
    (t0, t1, d, off, moving), where (d, off) is the position at t0: inside
    dart id d at off ticks from its tail when d >= 0, at vertex position ~d
    when d < 0.  A move runs along d at unit speed, and a rest stays put.
    legs, final and duration are built from that form, legs and duration on
    first read.
    """

    graph: PortedGraph
    start: GraphState

    def __init__(self, graph: PortedGraph, start: GraphState, legs):
        """The trajectory with the given Legs, contiguous from time 0 and
        maximal, as `trajectory` builds them."""
        legs = tuple(legs)
        values = [start.offset] if isinstance(start, EdgeState) else []
        for leg in legs:
            values.append(leg.t1)
            if leg.moving:
                values.append(leg.offset0)
            elif isinstance(leg.state, EdgeState):
                values.append(leg.state.offset)
        scale, ticks = on_grid(values, graph.tick_denominator())
        it = iter(ticks)
        index = graph.dart_index

        def position(state):
            if isinstance(state, EdgeState):
                return index[state.dart], next(it)
            return ~graph.vertex_index[state.vertex], 0

        at = position(start)
        tick_legs = []
        t0 = 0
        for leg in legs:
            t1 = next(it)
            if leg.moving:
                tick_legs.append((t0, t1, index[leg.dart], next(it), True))
            else:
                tick_legs.append((t0, t1, *position(leg.state), False))
            t0 = t1
        self._set(graph, start, scale, at, tick_legs)

    @classmethod
    def _from_ticks(cls, graph, start, scale, at, tick_legs) -> "Trajectory":
        self = cls.__new__(cls)
        self._set(graph, start, scale, at, tick_legs)
        return self

    def _set(self, graph, start, scale, at, tick_legs) -> None:
        self.__dict__.update(
            graph=graph,
            start=start,
            _scale=scale,
            _start_at=at,  # the start position in ticks
            _ticks=tick_legs,
        )

    def _end(self, leg) -> tuple:
        """The tick position at the end of a tick leg, folded to the dart's
        head when a move reaches it."""
        t0, t1, d, off, moving = leg
        if not moving:
            return d, off
        off += t1 - t0
        graph = self.graph
        if off == graph.edge_ticks()[d >> 1] * (self._scale // graph.tick_denominator()):
            return ~graph.dart_head[d], 0
        return d, off

    def _state(self, d: int, off: int) -> GraphState:
        if d < 0:
            return VertexState(self.graph.vertices[~d])
        return EdgeState(Dart._make(self.graph.dart_keys[d]), Fraction(off, self._scale))

    @cached_property
    def legs(self) -> tuple:
        scale, keys = self._scale, self.graph.dart_keys
        legs = []
        t0 = ZERO
        for leg in self._ticks:
            _, t1, d, off, moving = leg
            t1 = Fraction(t1, scale)
            end = self._state(*self._end(leg))
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
        return self._state(*self._end(self._ticks[-1])) if self._ticks else self.start

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self.graph == other.graph and self.start == other.start and self.legs == other.legs

    def __repr__(self) -> str:
        return f"Trajectory(graph={self.graph!r}, start={self.start!r}, legs={self.legs!r})"

    def at(self, t) -> GraphState:
        """State at time t in [0, duration], canonical."""
        t = as_fraction(t)
        if t < 0 or t > self.duration:
            raise PreconditionError(f"time {t} outside [0, {self.duration}]")
        if not self.legs:
            return self.start
        for leg in self.legs:
            if t <= leg.t1:
                return leg.at(self.graph, t)
        raise AssertionError("unreachable")

    def breakpoints(self) -> list:
        """Canonical (time, state) list: leg boundaries with canonical states."""
        return [(Fraction(0), self.start)] + [(leg.t1, leg.end) for leg in self.legs]

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
    # a rest in the position of the rest before it, or a move that continues
    # the move before it along its dart, extends that leg
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
                    legs.append([t, t + remaining, d, off, False])
                t += remaining
                break
            if d < 0:
                d, off = star[~d][symbol], 0
            step = min(remaining, lengths[d >> 1] * factor - off)
            prev = legs[-1] if legs else None
            if prev and prev[4] and prev[2] == d and prev[3] + (prev[1] - prev[0]) == off:
                prev[1] = t + step
            else:
                legs.append([t, t + step, d, off, True])
            off += step
            if off == lengths[d >> 1] * factor:
                d, off = ~head[d], 0
            t += step
            remaining -= step
    return Trajectory._from_ticks(graph, start, scale, at, legs)


# --- sensor traces -------------------------------------------------------


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SensorTrace:
    """Canonical sensor readout over [0, duration].

    segments partition [0, duration) into maximal half-open intervals of
    almost-everywhere constant value; adjacent segments carry distinct values.
    events record every instant whose reading differs from the segment it sits
    in (vertex passes, beam crossings) plus always the final instant.

    Inside, a trace keeps one form, (scale, duration, segments, events) with
    every time in ticks of 1/scale, the scale reduced by the gcd of all the
    ticks.  The form is canonical, so `==` and `hash` compare ints and
    readings.  duration, segments and events are built from it on first
    read, and to_json reduces each time with one gcd.
    """

    def __init__(self, duration, segments, events):
        segments, events = tuple(segments), tuple(events)
        scale, ticks = on_grid(
            [duration, *[t for a, b, _ in segments for t in (a, b)], *[t for t, _ in events]]
        )
        it = iter(ticks)
        self._set(
            scale,
            next(it),
            [(next(it), next(it), v) for _, _, v in segments],
            [(next(it), v) for _, v in events],
        )

    @classmethod
    def _from_ticks(cls, scale: int, duration: int, segments, events) -> "SensorTrace":
        self = cls.__new__(cls)
        self._set(scale, duration, segments, events)
        return self

    def _set(self, scale, duration, segments, events) -> None:
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

    @cached_property
    def segments(self) -> tuple:
        scale, _, segments, _ = self._ticks
        return tuple((Fraction(a, scale), Fraction(b, scale), v) for a, b, v in segments)

    @cached_property
    def events(self) -> tuple:
        scale, _, _, events = self._ticks
        return tuple((Fraction(t, scale), v) for t, v in events)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._ticks == other._ticks

    def __hash__(self) -> int:
        return hash(self._ticks)

    def __repr__(self) -> str:
        return f"SensorTrace(duration={self.duration!r}, segments={self.segments!r}, events={self.events!r})"

    def value_at(self, t) -> object:
        t = as_fraction(t)
        for te, ve in self.events:
            if te == t:
                return ve
        for a, b, v in self.segments:
            if a <= t < b:
                return v
        raise PreconditionError(f"time {t} outside [0, {self.duration}]")

    def segment_value_after(self, t) -> Optional[object]:
        """Almost-everywhere value just after t, None at the final instant."""
        for a, b, v in self.segments:
            if a <= t < b:
                return v
        return None

    def truncate(self, t) -> "SensorTrace":
        """The trace of the restricted signal: cut at t and close with a final
        instant reading."""
        t = as_fraction(t)
        if t < 0 or t > self.duration:
            raise PreconditionError(f"cut time {t} outside [0, {self.duration}]")
        final_value = self.value_at(t)
        segments = []
        for a, b, v in self.segments:
            if a >= t:
                break
            segments.append((a, min(b, t), v))
        events = tuple((te, ve) for te, ve in self.events if te < t) + ((t, final_value),)
        return SensorTrace(t, tuple(segments), events)

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
    graph, table = env.graph, env._readings
    at, vertex, interior, dart_marks = table.at, table.vertex, table.interior, table.marks
    scale, legs, (d0, off0) = traj._scale, traj._ticks, traj._start_at
    # The grid must also hold the beam marks on every dart the robot is on.
    darts = {leg[2] for leg in legs if leg[2] >= 0}
    if d0 >= 0:
        darts.add(d0)
    fine = lcm(scale, *[dart_marks[d][0] for d in darts if dart_marks[d]])
    if fine != scale:
        q = fine // scale
        legs = [(t0 * q, t1 * q, d, off * q, moving) for t0, t1, d, off, moving in legs]
        off0 *= q
        scale = fine
    lengths, factor = graph.edge_ticks(), scale // graph.tick_denominator()
    head = graph.dart_head

    end = 0
    instants = {0: at(d0, off0, scale)}
    merged = []
    for t0, end, d, off, moving in legs:
        if moving:
            v = interior[d >> 1]
            off_hi = off + (end - t0)
            marks = dart_marks[d]
            if marks:
                den, along = marks
                k = scale // den
                for pos, label in along:
                    pos *= k
                    if off < pos < off_hi:
                        instants[t0 + (pos - off)] = label
            if off_hi == lengths[d >> 1] * factor:
                instants[end] = vertex[head[d]]
            else:
                instants[end] = at(d, off_hi, scale)
        else:
            v = instants[end] = at(d, off, scale)
        if merged and merged[-1][2] == v and merged[-1][1] == t0:
            merged[-1][1] = end
        else:
            merged.append([t0, end, v])

    # Instants and segments are both in time order, so one forward pointer
    # finds the segment each instant sits in.
    events = []
    k = 0
    for t in sorted(instants):
        reading = instants[t]
        if t != end:
            while merged[k][1] <= t:
                k += 1
            if merged[k][2] == reading:
                continue
        events.append((t, reading))
    return SensorTrace._from_ticks(scale, end, list(map(tuple, merged)), events)


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
    """(instant value, value just after) at each of the sorted times, as
    SensorTrace.value_at and segment_value_after give them, for a trace in
    ticks; one forward pointer over the segments instead of a scan per time."""
    k = 0
    for t in times:
        while k < len(segments) and segments[k][1] <= t:
            k += 1
        after = segments[k][2] if k < len(segments) and segments[k][0] <= t else None
        yield events.get(t, after), after


# --- trajectory metric ---------------------------------------------------


def _leg_description(graph: PortedGraph, leg: Leg):
    """Position during the leg as ('V', v), or ('E', idx, c, m) at distance
    c + m*t from the stored tail of edge idx; a rest inside an edge has m = 0."""
    if not leg.moving:
        point = graph.point_of(leg.state)
        return point if point[0] == "V" else point + (ZERO,)
    idx = graph.edge_of(leg.dart)
    if leg.dart == graph.forward_dart(idx):
        return ("E", idx, leg.offset0 - leg.t0, Fraction(1))
    return ("E", idx, graph.length(leg.dart) - leg.offset0 + leg.t0, Fraction(-1))


def _end_distances(graph, desc):
    """Affine distances (alpha, beta) from the described position to candidate
    exit vertices."""
    if desc[0] == "V":
        return [(desc[1], ZERO, ZERO)]
    _, idx, c, m = desc
    e = graph.edges[idx]
    return [(e.tail, c, m), (e.head, e.length - c, -m)]


def trajectory_distance(a: Trajectory, b: Trajectory) -> Fraction:
    """Exact sup-distance of positions over the common horizon plus the
    duration gap.  The sup of the piecewise-affine pointwise distance is
    attained at a leg boundary or at a crossing of two candidate route lines,
    so evaluating at those finitely many times is exact."""
    if a.graph != b.graph:
        raise ValidationError("trajectories live on different graphs")
    graph = a.graph
    horizon = min(a.duration, b.duration)
    dv = graph.vertex_distances()

    cuts = {Fraction(0), horizon}
    for traj in (a, b):
        for leg in traj.legs:
            for t in (leg.t0, leg.t1):
                if t <= horizon:
                    cuts.add(t)
    times = sorted(cuts)

    # Every leg boundary is a cut, so each interval lies inside one leg of
    # each trajectory; one forward pointer per trajectory finds it.
    best = graph.point_distance(a.start, b.start)
    pa = pb = 0
    for lo, hi in zip(times, times[1:]):
        while a.legs[pa].t1 < hi:
            pa += 1
        while b.legs[pb].t1 < hi:
            pb += 1
        leg_a, leg_b = a.legs[pa], b.legs[pb]
        da = _leg_description(graph, leg_a)
        db = _leg_description(graph, leg_b)
        sample_times = {hi}
        lines = []
        for u, alpha1, beta1 in _end_distances(graph, da):
            for w, alpha2, beta2 in _end_distances(graph, db):
                lines.append((alpha1 + alpha2 + dv[(u, w)], beta1 + beta2))
        if da[0] == "E" and db[0] == "E" and da[1] == db[1]:
            delta = (da[2] - db[2], da[3] - db[3])
            lines.append(delta)
            lines.append((-delta[0], -delta[1]))
            if delta[1] != 0:
                tz = -delta[0] / delta[1]
                if lo < tz < hi:
                    sample_times.add(tz)
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                a1, b1 = lines[i]
                a2, b2 = lines[j]
                if b1 != b2:
                    tx = (a2 - a1) / (b1 - b2)
                    if lo < tx < hi:
                        sample_times.add(tx)
        for t in sample_times:
            best = max(best, graph.point_distance(leg_a.at(graph, t), leg_b.at(graph, t)))
    return best + abs(a.duration - b.duration)
