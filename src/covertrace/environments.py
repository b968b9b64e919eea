"""Environments: a ported graph, a start vertex, a sensor, and the robot dynamics.

The robot interprets a control signal piece by piece.  Under Port(k) it moves
at unit speed toward the head of its current dart; arriving at a vertex it
enters the port-k dart if the vertex has one, else it waits for the symbol to
change.  Mid-edge the specific port index is irrelevant: turning around inside
an edge is impossible, only at vertices.  Under Halt it stays put.  All times
and offsets are exact rationals.

Times and offsets are exact Fractions at the API: in every Leg, Trajectory
and SensorTrace and in every returned time.  Inside, the simulation runs on
the graph's integer tables and on one integer grid per call.  `trajectory`
puts the piece durations (and a start offset) on a grid that also holds the
edge lengths, walks vertex positions and dart ids in O(steps) int
operations, and keeps its legs in those ticks; a Trajectory builds its Leg
objects from them only when they are first read.
`trace_of_trajectory` reads the ticks directly, takes every reading from the
environment's reading table (filled on demand from the sensor protocol, beam
marks as ticks along each dart orientation) and builds one Fraction per
distinct time it returns.  `first_divergence` puts both traces on one grid.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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

    @property
    def _readings(self) -> "_Readings":
        # made on a trace's first use and kept; the instance dict takes it,
        # as cached_property would, without that descriptor's lock
        table = self.__dict__.get("_reading_table")
        if table is None:
            table = self.__dict__["_reading_table"] = _Readings(self.graph, self.sensor)
        return table


class _Readings:
    """What an environment's sensor reads, on the graph's ids.

    Each slot is filled from the sensor protocol the first time it is read,
    so a trace pays only for the vertices, edges and darts it meets:
    vertex[v] is the reading at vertex position v, interior[e] the reading
    inside edge e away from its beam marks, and marks[d] the marks met
    along dart d as (den, ((pos, label), ...)), each pos the mark's distance
    from the dart's tail in ticks of 1/den, or () on an edge without marks.
    An unfilled slot holds None, which is no sensor reading.  Inside an edge
    a sensor reads the label of the mark at that point, if any, and else its
    interior value."""

    def __init__(self, graph: PortedGraph, sensor: SensorSpec):
        self.graph, self.sensor = graph, sensor
        self.vertex = [None] * len(graph.vertices)
        self.interior = [None] * len(graph.edges)
        self.marks = [None] * (2 * len(graph.edges))

    def at_vertex(self, v: int):
        reading = self.vertex[v]
        if reading is None:
            state = VertexState(self.graph.vertices[v])
            reading = self.vertex[v] = self.sensor.value(self.graph, state)
        return reading

    def inside(self, e: int):
        reading = self.interior[e]
        if reading is None:
            reading = self.interior[e] = self.sensor.interior_value(self.graph, e)
        return reading

    def marks_along(self, d: int):
        found = self.marks[d]
        if found is None:
            marks = self.sensor.marks_on(d >> 1)
            found = ()
            if marks:
                length = self.graph.edges[d >> 1].length
                den = lcm(length.denominator, *[pos.denominator for pos, _ in marks])
                ticks = [pos.numerator * (den // pos.denominator) for pos, _ in marks]
                if d & 1:
                    full = length.numerator * (den // length.denominator)
                    ticks = [full - pos for pos in ticks]
                found = (den, tuple(zip(ticks, [label for _, label in marks])))
            self.marks[d] = found
        return found

    def at(self, d: int, off: int, scale: int):
        """Reading at the tick position (d, off) on a grid of 1/scale that
        the den of marks_along(d) divides (see Trajectory)."""
        if d < 0:
            return self.at_vertex(~d)
        marks = self.marks_along(d)
        if marks:
            den, along = marks
            q = scale // den
            for pos, label in along:
                if pos * q == off:
                    return label
        return self.inside(d >> 1)


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
    legs, final and duration are built from that form, legs on first read.
    """

    graph: PortedGraph
    start: GraphState
    duration: Fraction

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
            duration=Fraction(tick_legs[-1][1], scale) if tick_legs else ZERO,
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
    pieces = signal.pieces
    durations = [dur for _, dur in pieces]
    inside = isinstance(start, EdgeState)
    if inside:
        durations.append(start.offset)
    unit = graph.tick_denominator()
    scale, ticks = on_grid(durations, unit)
    # the position (d, off) in ticks, as in Trajectory
    if inside:
        d, off = graph.dart_index[start.dart], ticks.pop()
    else:
        d, off = ~graph.vertex_index[start.vertex], 0
    at = (d, off)
    star, head, lengths = graph.star, graph.dart_head, graph.edge_ticks()
    factor = scale // unit
    # a rest in the position of the rest before it, or a move that continues
    # the move before it along its dart, extends that leg
    legs = []
    t = 0
    for (symbol, _), remaining in zip(pieces, ticks):
        while remaining > 0:
            if symbol == HALT or d < 0 and symbol >= len(star[~d]):
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


@dataclass(frozen=True)
class SensorTrace:
    """Canonical sensor readout over [0, duration].

    segments partition [0, duration) into maximal half-open intervals of
    almost-everywhere constant value; adjacent segments carry distinct values.
    events record every instant whose reading differs from the segment it sits
    in (vertex passes, beam crossings) plus always the final instant.
    """

    duration: Fraction
    segments: tuple
    events: tuple

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
        return {
            "duration": to_pair(self.duration),
            "segments": [
                {"from": to_pair(a), "to": to_pair(b), "value": v} for a, b, v in self.segments
            ],
            "events": [{"time": to_pair(t), "value": v} for t, v in self.events],
        }


def trace_of(env: Environment, signal: ControlSignal, start: Optional[GraphState] = None) -> SensorTrace:
    """Sensor readout along the trajectory of the signal."""
    traj = trajectory(env, signal, start)
    return trace_of_trajectory(env, traj)


def trace_of_trajectory(env: Environment, traj: Trajectory) -> SensorTrace:
    """Sensor readout along a trajectory on env's graph, read off its legs
    in ticks."""
    graph, table = env.graph, env._readings
    scale, legs, (d0, off0) = traj._scale, traj._ticks, traj._start_at
    # The grid must also hold the beam marks on every dart the robot is on.
    darts = {leg[2] for leg in legs if leg[2] >= 0}
    if d0 >= 0:
        darts.add(d0)
    fine = lcm(scale, *[marks[0] for marks in map(table.marks_along, darts) if marks])
    if fine != scale:
        q = fine // scale
        legs = [(t0 * q, t1 * q, d, off * q, moving) for t0, t1, d, off, moving in legs]
        off0 *= q
        scale = fine
    lengths, factor = graph.edge_ticks(), scale // graph.tick_denominator()
    head = graph.dart_head
    at, inside, marks_along = table.at, table.inside, table.marks_along

    end = 0
    instants = {0: at(d0, off0, scale)}
    merged = []
    for t0, end, d, off, moving in legs:
        if moving:
            v = inside(d >> 1)
            off_hi = off + (end - t0)
            marks = marks_along(d)
            if marks:
                den, along = marks
                k = scale // den
                for pos, label in along:
                    pos *= k
                    if off < pos < off_hi:
                        instants[t0 + (pos - off)] = label
            if off_hi == lengths[d >> 1] * factor:
                instants[end] = table.at_vertex(head[d])
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
    # one Fraction per distinct tick value; the last segment ends at the
    # final instant, an event
    times = {t: Fraction(t, scale) for t in {*[a for a, _, _ in merged], *[t for t, _ in events]}}
    segments = tuple((times[a], times[b], v) for a, b, v in merged)
    return SensorTrace(traj.duration, segments, tuple((times[t], r) for t, r in events))


def first_divergence(a: SensorTrace, b: SensorTrace) -> Optional[Fraction]:
    """Earliest time at which the two traces differ, None if equal.

    Traces must share a duration (they come from one signal)."""
    if a.duration != b.duration:
        raise ValidationError("traces of different durations are not comparable")
    values = [t for trace in (a, b) for start, end, _ in trace.segments for t in (start, end)]
    values += [t for trace in (a, b) for t, _ in trace.events]
    scale, ticks = on_grid(values)
    it = iter(ticks)
    segments_a = [(next(it), next(it), v) for _, _, v in a.segments]
    segments_b = [(next(it), next(it), v) for _, _, v in b.segments]
    events_a = {next(it): v for _, v in a.events}
    events_b = {next(it): v for _, v in b.events}
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
