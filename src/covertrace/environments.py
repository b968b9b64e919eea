"""Environments: a ported graph, a start vertex, a sensor, and the robot dynamics.

The robot interprets a control signal piece by piece.  Under Port(k) it moves
at unit speed toward the head of its current dart; arriving at a vertex it
enters the port-k dart if the vertex has one, else it waits for the symbol to
change.  Mid-edge the specific port index is irrelevant: turning around inside
an edge is impossible, only at vertices.  Under Halt it stays put.  All times
and offsets are exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import PreconditionError, ValidationError
from .graphs import Dart, GraphState, PortedGraph, VertexState, check_vertex_name
from .rationals import as_fraction, to_pair
from .sensors import SensorSpec, sensor_from_json
from .signals import HALT, ControlSignal


@dataclass(frozen=True)
class Environment:
    """Immutable environment.  alphabet_width bounds the usable port symbols:
    valid actions are Port(0..width-1) and Halt.  It defaults to the maximum
    degree but may be smaller, leaving high-port darts unpressable."""

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
        if not isinstance(width, int) or isinstance(width, bool) or width < 1:
            raise ValidationError(f"alphabet_width must be a positive integer, got {width!r}")

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
    """Exact piecewise description of the robot's motion on [0, duration]."""

    graph: PortedGraph
    start: GraphState
    legs: tuple
    duration: Fraction

    def __init__(self, graph: PortedGraph, start: GraphState, legs):
        merged = []
        for leg in legs:
            if merged:
                prev = merged[-1]
                if not prev.moving and not leg.moving and prev.state == leg.state:
                    merged[-1] = Leg(prev.t0, leg.t1, None, None, prev.state, leg.end)
                    continue
                if (
                    prev.moving
                    and leg.moving
                    and prev.dart == leg.dart
                    and prev.offset0 + (prev.t1 - prev.t0) == leg.offset0
                ):
                    merged[-1] = Leg(prev.t0, leg.t1, prev.dart, prev.offset0, None, leg.end)
                    continue
            merged.append(leg)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "legs", tuple(merged))
        object.__setattr__(self, "duration", merged[-1].t1 if merged else Fraction(0))

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
    legs = []
    t = Fraction(0)
    cur = start
    for symbol, dur in signal.pieces:
        remaining = dur
        if symbol == HALT:
            legs.append(Leg(t, t + remaining, None, None, cur, cur))
            t += remaining
            continue
        k = symbol
        while remaining > 0:
            if isinstance(cur, VertexState):
                v = cur.vertex
                if k < graph.degree(v):
                    d = Dart(v, k)
                    step = min(remaining, graph.length(d))
                    cur = graph.state_on(d, step)
                    legs.append(Leg(t, t + step, d, Fraction(0), None, cur))
                else:
                    step = remaining
                    legs.append(Leg(t, t + step, None, None, cur, cur))
            else:
                d = cur.dart
                step = min(remaining, graph.length(d) - cur.offset)
                offset0 = cur.offset
                cur = graph.state_on(d, offset0 + step)
                legs.append(Leg(t, t + step, d, offset0, None, cur))
            t += step
            remaining -= step
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
    duration = traj.duration

    instants = {Fraction(0): sensor.value(graph, traj.start)}
    intervals = []
    for leg in traj.legs:
        instants[leg.t1] = sensor.value(graph, leg.end)
        if not leg.moving:
            intervals.append([leg.t0, leg.t1, sensor.value(graph, leg.state)])
            continue
        idx = graph.edge_of(leg.dart)
        intervals.append([leg.t0, leg.t1, sensor.interior_value(graph, idx)])
        length = graph.length(leg.dart)
        forward = leg.dart == graph.forward_dart(idx)
        off_hi = leg.offset0 + (leg.t1 - leg.t0)
        for pos, label in sensor.marks_on(idx):
            dart_pos = pos if forward else length - pos
            if leg.offset0 < dart_pos < off_hi:
                instants[leg.t0 + (dart_pos - leg.offset0)] = label

    merged = []
    for a, b, v in intervals:
        if merged and merged[-1][2] == v and merged[-1][1] == a:
            merged[-1][1] = b
        else:
            merged.append([a, b, v])
    segments = tuple((a, b, v) for a, b, v in merged)

    # Instants and segments are both in time order, so one forward pointer
    # finds the segment each instant sits in.
    events = []
    k = 0
    for t in sorted(instants):
        value = instants[t]
        if t == duration:
            events.append((t, value))
            continue
        while segments[k][1] <= t:
            k += 1
        if segments[k][2] != value:
            events.append((t, value))
    return SensorTrace(duration, segments, tuple(events))


def first_divergence(a: SensorTrace, b: SensorTrace) -> Optional[Fraction]:
    """Earliest time at which the two traces differ, None if equal.

    Traces must share a duration (they come from one signal)."""
    if a.duration != b.duration:
        raise ValidationError("traces of different durations are not comparable")
    criticals = sorted(
        {t for t, _, _ in a.segments}
        | {t for t, _, _ in b.segments}
        | {t for t, _ in a.events}
        | {t for t, _ in b.events}
    )
    for t, ra, rb in zip(criticals, _readings(a, criticals), _readings(b, criticals)):
        if ra != rb:
            return t
    return None


def _readings(trace: SensorTrace, times):
    """(instant value, value just after) at each of the sorted times, as
    value_at and segment_value_after give them, with one forward pointer over
    the segments instead of a scan per time."""
    events = dict(trace.events)
    segments = trace.segments
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
