"""The integer-tick loops against their Fraction oracles.

trajectory, trace_of_trajectory, first_divergence and distance compute on
ints over one common denominator; the naive_* oracles in helpers run the same
algorithms on Fractions.  Results must agree exactly, and every time and
offset they return must still be a Fraction: an int would pass `==`.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covertrace import (
    BLANK,
    HALT,
    BeamMark,
    BeamSensor,
    ControlSignal,
    Dart,
    DegreeSensor,
    EdgeState,
    Environment,
    FilteredSensor,
    LabelSensor,
    PortedGraph,
    SensorTrace,
    VertexState,
    build_edges,
    distance,
    first_divergence,
    trace_of,
    trace_of_trajectory,
    trajectory,
)
from covertrace import environments as simulation
from covertrace.environments import Leg
from covertrace.generate import (
    random_beam_sensor,
    random_label_sensor,
    random_ported_graph,
    random_state,
)
from covertrace.signals import EMPTY

from helpers import (
    labelled_triangles,
    naive_distance,
    naive_first_divergence,
    naive_legs,
    naive_trace,
    naive_trajectory,
    rational_signals,
    three_cycle,
)

PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


@st.composite
def prime_signals(draw, width: int):
    """Signals whose piece denominators are distinct primes up to 97, so the
    common denominator is their product; numerators run up to three times
    the denominator, zero included."""
    n = draw(st.integers(0, 10))
    dens = draw(st.lists(st.sampled_from(PRIMES), unique=True, min_size=n, max_size=n))
    symbols = st.one_of(st.integers(0, width - 1), st.just(HALT))
    return ControlSignal([(draw(symbols), Fraction(draw(st.integers(0, 3 * p)), p)) for p in dens])


def signals(width: int):
    """Prime-denominator signals and small-denominator ones; the ports run
    one past the width, so some symbols name no dart anywhere."""
    return st.one_of(prime_signals(width + 1), rational_signals(width + 1, max_pieces=8))


@st.composite
def environments(draw):
    """A seeded random_ported_graph with unit or rational lengths and a
    degree, label, beam, filtered beam or twice filtered beam sensor."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = random_ported_graph(rng, unit_lengths=draw(st.booleans()), max_denominator=7)
    kind = draw(st.sampled_from(["degree", "label", "beam", "filtered", "filtered twice"]))
    if kind == "degree":
        sensor = DegreeSensor()
    elif kind == "label":
        sensor = random_label_sensor(rng, graph)
    else:
        sensor = random_beam_sensor(rng, graph)
        if kind != "beam":
            sensor = FilteredSensor(sensor, {BLANK: "quiet", "red": "beam", "green": "beam"})
        if kind == "filtered twice":
            sensor = FilteredSensor(sensor, {"quiet": 0, "beam": 1})
    return Environment(graph, rng.choice(graph.vertices), sensor)


@st.composite
def starts(draw, graph):
    """None (the initial vertex), or a random_state, turned against the
    stored orientation of its edge half of the time."""
    if draw(st.booleans()):
        return None
    state = random_state(random.Random(draw(st.integers(0, 2**32 - 1))), graph)
    if isinstance(state, EdgeState) and draw(st.booleans()):
        reverse = graph.reverse(state.dart)
        return graph.state_on(reverse, graph.length(reverse) - state.offset)
    return state


def assert_fraction_state(state):
    if isinstance(state, EdgeState):
        assert type(state.offset) is Fraction


def assert_fraction_trace(trace):
    assert type(trace.duration) is Fraction
    for start, end, _ in trace.segments:
        assert type(start) is Fraction and type(end) is Fraction
    for t, _ in trace.events:
        assert type(t) is Fraction


@settings(max_examples=150, deadline=None)
@given(environments(), st.data())
def test_trajectory_matches_fraction_oracle(env, data):
    start = data.draw(starts(env.graph))
    u = data.draw(signals(env.alphabet_width))
    traj = trajectory(env, u, start)
    first, legs = naive_legs(env, u, start)
    assert traj.legs == tuple(legs)
    assert traj.final == (legs[-1].end if legs else first)
    assert traj.duration == (legs[-1].t1 if legs else 0)
    # a Trajectory built from the oracle's legs keeps them
    oracle = naive_trajectory(env, u, start)
    assert oracle.legs == tuple(legs) and traj == oracle
    assert type(traj.duration) is Fraction
    assert_fraction_state(traj.final)
    for leg in traj.legs:
        assert type(leg.t0) is Fraction and type(leg.t1) is Fraction
        assert leg.offset0 is None if leg.dart is None else type(leg.offset0) is Fraction
        assert_fraction_state(leg.state)
        assert_fraction_state(leg.end)


@settings(max_examples=150, deadline=None)
@given(environments(), st.data())
def test_trace_matches_fraction_oracle(env, data):
    start = data.draw(starts(env.graph))
    u = data.draw(signals(env.alphabet_width))
    trace = trace_of_trajectory(env, trajectory(env, u, start))
    assert trace == naive_trace(env, *naive_legs(env, u, start))
    assert_fraction_trace(trace)
    # the same trace from a Trajectory built from Legs
    assert trace_of_trajectory(env, naive_trajectory(env, u, start)) == trace


@settings(max_examples=100, deadline=None)
@given(environments(), st.data())
def test_ports_past_the_width_match_fraction_oracle(env, data):
    """With an alphabet narrower than the maximum degree, a port at or past
    the width waits at a vertex as a missing port does, and keeps moving
    inside an edge: the trajectory and its trace match the oracles."""
    top = env.graph.max_degree()
    assume(top > 1)
    env = Environment(env.graph, env.initial, env.sensor, data.draw(st.integers(1, top - 1)))
    start = data.draw(starts(env.graph))
    u = data.draw(signals(top))
    traj = trajectory(env, u, start)
    first, legs = naive_legs(env, u, start)
    assert traj.legs == tuple(legs)
    assert traj.final == (legs[-1].end if legs else first)
    assert trace_of_trajectory(env, traj) == naive_trace(env, first, legs)


@settings(max_examples=150, deadline=None)
@given(environments(), environments(), st.data())
def test_first_divergence_matches_fraction_oracle(e1, e2, data):
    u = data.draw(signals(max(e1.alphabet_width, e2.alphabet_width)))
    t1 = trace_of(e1, u, data.draw(starts(e1.graph)))
    t2 = trace_of(e2, u, data.draw(starts(e2.graph)))
    for a, b in ((t1, t2), (t1, t1)):
        found = first_divergence(a, b)
        assert found == naive_first_divergence(a, b)
        assert found is None or type(found) is Fraction


@settings(max_examples=150, deadline=None)
@given(signals(3), signals(3), st.integers(0, 40), st.sampled_from(PRIMES))
def test_signal_algebra_matches_fraction_oracle(a, b, num, den):
    d = distance(a, b)
    assert d == naive_distance(a, b)
    assert type(d) is Fraction
    t = min(Fraction(num, den), a.duration)
    head, tail = a.restrict_before(t), a.suffix_from(t)
    assert head.duration == t and tail.duration == a.duration - t
    assert head.concat(tail) == a
    for u in (a, head, tail, head.concat(b)):
        assert type(u.duration) is Fraction
        assert all(type(dur) is Fraction for _, dur in u.pieces)


def test_mark_crossed_against_the_stored_orientation():
    """From x1, port 1 runs edge 0 (stored x0 -> x1) backwards, so a mark a
    third of the way from x0 is met at t = 2/3, or at 5/12 from a quarter
    of the way along that dart."""
    graph = three_cycle()
    env = Environment(graph, "x1", BeamSensor((BeamMark(0, Fraction(1, 3), "red"),)), 2)
    u = ControlSignal([(1, Fraction(5, 7))])
    for start, met in ((None, Fraction(2, 3)), (EdgeState(Dart("x1", 1), Fraction(1, 4)), Fraction(5, 12))):
        trace = trace_of(env, u, start)
        assert trace.events == ((met, "red"), (Fraction(5, 7), BLANK))
        assert trace == naive_trace(env, *naive_legs(env, u, start))
        assert_fraction_trace(trace)


def test_mark_crossed_at_a_whole_time():
    """A mark in the middle of an edge of length 2 is met at t = 1, which is
    no leg boundary; its time must still be a Fraction."""
    graph = PortedGraph(["a", "b"], build_edges([("a", "b", 0, 0, 2)]))
    env = Environment(graph, "a", BeamSensor((BeamMark(0, Fraction(1), "red"),)), 1)
    u = ControlSignal([(0, Fraction(3, 2))])
    trace = trace_of(env, u)
    assert trace.events == ((1, "red"), (Fraction(3, 2), BLANK))
    assert trace == naive_trace(env, *naive_legs(env, u))
    assert_fraction_trace(trace)


@settings(max_examples=150, deadline=None)
@given(environments())
def test_readings_match_sensor_value(env):
    """Every reading a trace takes from the environment's reading table is
    sensor.value of that state: at each vertex, and inside each edge on
    every mark, between marks and at the far end, along and against the
    edge's stored orientation, both as a start state and as the state a
    move from the dart's tail reaches."""
    graph, sensor = env.graph, env.sensor
    for v in graph.vertices:
        state = VertexState(v)
        assert trace_of(env, EMPTY, state).events == ((0, sensor.value(graph, state)),)
    for idx, edge in enumerate(graph.edges):
        ends = sorted({Fraction(0), edge.length, *[pos for pos, _ in sensor.marks_on(idx)]})
        points = set(ends[1:]) | {(a + b) / 2 for a, b in zip(ends, ends[1:])}
        forward = graph.forward_dart(idx)
        for dart in (forward, graph.reverse(forward)):
            for pos in points:
                offset = pos if dart == forward else edge.length - pos
                state = graph.state_on(dart, offset)
                expected = sensor.value(graph, state)
                assert trace_of(env, EMPTY, state).events == ((0, expected),)
                reached = trace_of(env, ControlSignal([(dart.port, offset)]), VertexState(dart.vertex))
                assert reached.events[-1] == (offset, expected)


def test_trace_of_builds_no_leg_and_no_fraction_per_leg(monkeypatch):
    """trace_of on a signal of hundreds of legs, under a sensor that reads
    alike everywhere, builds no Leg and runs a handful of Fraction gcds, not
    one per leg; the trajectory it simulated then reads back as the oracle's
    legs, final state and duration."""
    rng = random.Random(7)
    graph = random_ported_graph(rng, unit_lengths=False, max_denominator=7)
    sensor = LabelSensor({v: 0 for v in graph.vertices}, [0] * len(graph.edges))
    env = Environment(graph, graph.vertices[0], sensor)
    u = ControlSignal(
        [(rng.choice([0, 1, HALT]), Fraction(rng.randint(1, 14), rng.randint(1, 7))) for _ in range(300)]
    )

    simulated, legs_built, gcds = [], [], []
    real_trajectory, real_gcd = simulation.trajectory, math.gcd

    def recording_trajectory(*args):
        simulated.append(real_trajectory(*args))
        return simulated[-1]

    def counting_leg(*args):
        legs_built.append(args)
        return Leg(*args)

    def counting_gcd(*args):
        gcds.append(args)
        return real_gcd(*args)

    monkeypatch.setattr(simulation, "trajectory", recording_trajectory)
    monkeypatch.setattr(simulation, "Leg", counting_leg)
    monkeypatch.setattr(math, "gcd", counting_gcd)
    trace = trace_of(env, u)
    monkeypatch.undo()

    (traj,) = simulated
    assert trace.segments == ((0, u.duration, 0),)
    assert not legs_built
    assert len(gcds) < 10
    _, legs = naive_legs(env, u)
    assert len(legs) >= 100
    assert traj.legs == tuple(legs)
    assert traj.final == legs[-1].end and traj.duration == legs[-1].t1


@settings(max_examples=150, deadline=None)
@given(environments(), st.data())
def test_trace_equality_and_hash_follow_the_fraction_fields(env, data):
    """Traces compare and hash on their ticks as they would on their
    Fraction fields; a trace rebuilt from those fields is the same trace,
    and its document is the fields' wire form."""
    width = env.alphabet_width
    t1 = trace_of(env, data.draw(signals(width)), data.draw(starts(env.graph)))
    t2 = trace_of(env, data.draw(signals(width)), data.draw(starts(env.graph)))

    def fields(trace):
        return trace.duration, trace.segments, trace.events

    assert (t1 == t2) == (fields(t1) == fields(t2))
    rebuilt = SensorTrace(*fields(t1))
    assert rebuilt == t1 and hash(rebuilt) == hash(t1)
    def pair(t):
        return [t.numerator, t.denominator]

    duration, segments, events = fields(t1)
    assert t1.to_json() == {
        "duration": pair(duration),
        "segments": [{"from": pair(a), "to": pair(b), "value": v} for a, b, v in segments],
        "events": [{"time": pair(t), "value": v} for t, v in events],
    }


def test_trace_form_is_canonical():
    """One walk simulated on ticks of 1 and of 1/2 gives one trace, equal
    and of equal hash; a reading held over [0, 1/2] and over [0, 1] gives
    the same tick lists on scales 2 and 1, and two different traces."""
    triangle, pendant = labelled_triangles()
    u = ControlSignal([(0, 2), (HALT, 1), (1, 1)])
    a, b = trace_of(triangle, u), trace_of(pendant, u)
    assert a == b and hash(a) == hash(b)
    assert first_divergence(a, b) is None
    half = trace_of(triangle, ControlSignal([(HALT, Fraction(1, 2))]))
    whole = trace_of(triangle, ControlSignal([(HALT, 1)]))
    assert half != whole
    assert half.to_json()["duration"] == [1, 2] and whole.to_json()["duration"] == [1, 1]


def test_trace_document_builds_no_fraction_per_segment(monkeypatch):
    """A 200-piece signal through a beam environment: simulating, tracing
    and writing the trace's document build a handful of Fractions, not one
    per segment or event."""
    rng = random.Random(11)
    graph = random_ported_graph(rng, unit_lengths=False, max_denominator=7)
    env = Environment(graph, graph.vertices[0], random_beam_sensor(rng, graph))
    u = ControlSignal.from_json(
        [[rng.choice([0, 1, HALT]), rng.randint(1, 14), rng.randint(1, 7)] for _ in range(200)]
    )
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    document = trace_of(env, u).to_json()
    monkeypatch.undo()
    assert len(built) < 10
    assert len(document["segments"]) + len(document["events"]) > 50
