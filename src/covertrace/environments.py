"""Environments: a ported graph, a start vertex, a sensor, and the robot dynamics.

The robot interprets a control signal piece by piece.  Under Port(k) it moves
at unit speed toward the head of its current dart; arriving at a vertex it
enters the port-k dart if the vertex has one, else it waits for the symbol to
change.  Mid-edge the specific port index is irrelevant: turning around inside
an edge is impossible, only at vertices.  Under Halt it stays put.  All times
and offsets are exact rationals.

Times and offsets are exact Fractions at the API: in every Leg, Trajectory
and SensorTrace and in every returned time.  Inside, `trajectory`,
`trace_of_trajectory` and `first_divergence` put the rationals of one call
(piece durations, edge lengths, offsets, beam-mark positions, trace times) on
one integer grid, ints over their common denominator, and add, compare, hash
and sort those ints; a Fraction is built only for a value that is returned.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError, ValidationError
from .graphs import Dart, GraphState, PortedGraph, VertexState, check_vertex_name
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
        if self.initial not in set(self.graph.vertices):
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


@dataclass(frozen=True, init=False)
class Trajectory:
    """Exact piecewise description of the robot's motion on [0, duration].

    legs are contiguous from time 0 and maximal, as `trajectory` builds them:
    no two adjacent rests share a state and no move continues the move before
    it along the same dart."""

    graph: PortedGraph
    start: GraphState
    legs: tuple
    duration: Fraction

    def __init__(self, graph: PortedGraph, start: GraphState, legs):
        legs = tuple(legs)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "duration", legs[-1].t1 if legs else ZERO)

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

    @property
    def final(self) -> GraphState:
        return self.legs[-1].end if self.legs else self.start

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
    if not isinstance(start, VertexState):
        durations.append(start.offset)
    scale, ticks = on_grid(durations, graph.tick_denominator())
    # offset of cur in ticks while cur is inside an edge
    off = 0 if isinstance(start, VertexState) else ticks.pop()
    # legs as [t0, t1, dart, offset0 ticks, offset0, state, end], t0 and t1
    # in ticks; a rest in the state of the rest before it, or a move that
    # continues the move before it along its dart, extends that leg
    raw = []
    t = 0
    cur = start
    for (symbol, _), remaining in zip(pieces, ticks):
        while remaining > 0:
            if symbol == HALT or isinstance(cur, VertexState) and symbol >= graph.degree(cur.vertex):
                step = remaining
                if raw and raw[-1][2] is None and raw[-1][5] == cur:
                    raw[-1][1] = t + step
                else:
                    raw.append([t, t + step, None, None, None, cur, cur])
            else:
                if isinstance(cur, VertexState):
                    dart, off0, offset0 = Dart(cur.vertex, symbol), 0, ZERO
                else:
                    dart, off0, offset0 = cur.dart, off, cur.offset
                step = min(remaining, graph.length_ticks(dart, scale) - off0)
                off = off0 + step
                cur = graph.state_on_ticks(dart, off, scale)
                prev = raw[-1] if raw else None
                if prev and prev[2] == dart and prev[3] + (prev[1] - prev[0]) == off0:
                    prev[1] = t + step
                    prev[6] = cur
                else:
                    raw.append([t, t + step, dart, off0, offset0, None, cur])
            t += step
            remaining -= step
    legs = []
    t0 = ZERO
    for _, t1, dart, _, offset0, state, end in raw:
        t1 = Fraction(t1, scale)
        legs.append(Leg(t0, t1, dart, offset0, state, end))
        t0 = t1
    return Trajectory(graph, start, legs)


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
    graph, sensor = env.graph, env.sensor
    value, interior_value = sensor.value, sensor.interior_value

    # Every time, offset and beam-mark position the legs meet, in the order
    # the loop below reads their ticks back.
    values = []
    edges = []
    for leg in traj.legs:
        values += (leg.t0, leg.t1)
        if leg.dart is None:
            edges.append(None)
            continue
        idx = graph.edge_of(leg.dart)
        marks = sensor.marks_on(idx)
        values.append(leg.offset0)
        values += [pos for pos, _ in marks]
        edges.append((idx, marks))
    scale, ticks = on_grid(values, graph.tick_denominator())
    it = iter(ticks)

    end = 0
    times = {0: ZERO}  # ticks -> the Fraction a leg holds for them
    instants = {0: value(graph, traj.start)}
    merged = []
    for leg, edge in zip(traj.legs, edges):
        t0, end = next(it), next(it)
        times[t0], times[end] = leg.t0, leg.t1
        instants[end] = value(graph, leg.end)
        if edge is None:
            v = value(graph, leg.state)
        else:
            idx, marks = edge
            v = interior_value(graph, idx)
            off0 = next(it)
            if marks:
                length = graph.length_ticks(leg.dart, scale)
                forward = leg.dart == graph.forward_dart(idx)
                off_hi = off0 + (end - t0)
                for _, label in marks:
                    pos = next(it)
                    dart_pos = pos if forward else length - pos
                    if off0 < dart_pos < off_hi:
                        instants[t0 + (dart_pos - off0)] = label
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
        events.append((times[t] if t in times else Fraction(t, scale), reading))
    segments = tuple((times[a], times[b], v) for a, b, v in merged)
    return SensorTrace(traj.duration, segments, tuple(events))


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
    """Position during the leg as ('V', v), ('E', idx, pos) for a resting point,
    or ('M', idx, c, m) moving with edge-frame position c + m*t."""
    if not leg.moving:
        return _point_description(graph, leg.state)
    idx = graph.edge_of(leg.dart)
    forward = leg.dart == graph.forward_dart(idx)
    if forward:
        c = leg.offset0 - leg.t0
        m = Fraction(1)
    else:
        c = graph.length(leg.dart) - leg.offset0 + leg.t0
        m = Fraction(-1)
    return ("M", idx, c, m)


def _point_description(graph, state):
    point = graph.point_of(state)
    if point[0] == "V":
        return ("V", point[1])
    return ("E", point[1], point[2])


def _end_distances(graph, desc):
    """Affine distances (alpha, beta) from the described position to candidate
    exit vertices."""
    if desc[0] == "V":
        return [(desc[1], Fraction(0), Fraction(0))]
    if desc[0] == "E":
        _, idx, pos = desc
        e = graph.edges[idx]
        return [(e.tail, pos, Fraction(0)), (e.head, e.length - pos, Fraction(0))]
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
        if da[0] in ("E", "M") and db[0] in ("E", "M") and da[1] == db[1]:
            ca = (da[2], Fraction(0)) if da[0] == "E" else (da[2], da[3])
            cb = (db[2], Fraction(0)) if db[0] == "E" else (db[2], db[3])
            delta = (ca[0] - cb[0], ca[1] - cb[1])
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
