"""The integer-tick loops against their Fraction oracles.

trajectory, trace_of_trajectory, first_divergence and distance compute on
ints over one common denominator; the naive_* oracles in helpers run the same
algorithms on Fractions.  Results must agree exactly, and every time and
offset they return must still be a Fraction: an int would pass `==`.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from covertrace import (
    BLANK,
    HALT,
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
    ValidationError,
    VertexState,
    cyclic_cover,
    distance,
    first_divergence,
    geodesic,
    trace_of,
    trace_of_trajectory,
    trajectory,
)
from covertrace import environments as simulation
from covertrace.environments import Leg
from covertrace.gallery import GALLERY
from covertrace.generate import random_voltages
from covertrace.signals import EMPTY

from helpers import (
    WireReadings,
    beam_marks,
    forward_dart,
    graph_edges,
    labelled_triangles,
    length_of,
    naive_distance,
    naive_first_divergence,
    naive_geodesic,
    naive_legs,
    naive_trace,
    prefix,
    random_beam_sensor,
    random_label_sensor,
    random_ported_graph,
    random_state,
    random_unit_environment,
    rational_signals,
    reverse_of,
    scan_truncate,
    state_on,
    three_cycle,
    trace_events,
    trace_fields,
    trace_segments,
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
        reverse = reverse_of(graph, state.dart)
        return state_on(graph, reverse, length_of(graph, reverse) - state.offset)
    return state


def assert_fraction_state(state):
    if isinstance(state, EdgeState):
        assert type(state.offset) is Fraction


def assert_fraction_trace(trace):
    """The duration is a Fraction, and the document writes every time as
    the [numerator, denominator] ints of a Fraction in lowest terms."""
    assert type(trace.duration) is Fraction
    doc = trace.to_json()
    pairs = [doc["duration"], *[s[k] for s in doc["segments"] for k in ("from", "to")]]
    pairs += [e["time"] for e in doc["events"]]
    for n, d in pairs:
        assert type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1


@settings(max_examples=150, deadline=None)
@given(environments(), st.data())
def test_trajectory_matches_fraction_oracle(env, data):
    start = data.draw(starts(env.graph))
    u = data.draw(signals(env.alphabet_width))
    traj = trajectory(env, u, start)
    first, legs = naive_legs(env, u, start)
    assert (traj.start, traj.legs) == (first, tuple(legs))
    assert traj.final == (legs[-1].end if legs else first)
    assert traj.duration == (legs[-1].t1 if legs else 0)
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
    assert trace_fields(trace) == naive_trace(env, *naive_legs(env, u, start))
    assert_fraction_trace(trace)


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
    assert trace_fields(trace_of_trajectory(env, traj)) == naive_trace(env, first, legs)


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
    s = Fraction(min(num, den), den)
    g = geodesic(a, b, s)
    assert g.pieces == naive_geodesic(a.pieces, b.pieces, s)
    for u in (a, g):
        assert type(u.duration) is Fraction
        assert all(type(dur) is Fraction for _, dur in u.pieces)


def test_mark_crossed_against_the_stored_orientation():
    """From x1, port 1 runs edge 0 (stored x0 -> x1) backwards, so a mark a
    third of the way from x0 is met at t = 2/3, or at 5/12 from a quarter
    of the way along that dart."""
    graph = three_cycle()
    env = Environment(graph, "x1", BeamSensor([(0, Fraction(1, 3), "red")]), 2)
    u = ControlSignal([(1, Fraction(5, 7))])
    for start, met in ((None, Fraction(2, 3)), (EdgeState(Dart("x1", 1), Fraction(1, 4)), Fraction(5, 12))):
        trace = trace_of(env, u, start)
        assert trace_events(trace) == ((met, "red"), (Fraction(5, 7), BLANK))
        assert trace_fields(trace) == naive_trace(env, *naive_legs(env, u, start))
        assert_fraction_trace(trace)


def test_mark_crossed_at_a_whole_time():
    """A mark in the middle of an edge of length 2 is met at t = 1, which is
    no leg boundary; its time must still be a Fraction."""
    graph = PortedGraph(["a", "b"], [("a", "b", 0, 0, 2)])
    env = Environment(graph, "a", BeamSensor([(0, Fraction(1), "red")]), 1)
    u = ControlSignal([(0, Fraction(3, 2))])
    trace = trace_of(env, u)
    assert trace_events(trace) == ((1, "red"), (Fraction(3, 2), BLANK))
    assert trace_fields(trace) == naive_trace(env, *naive_legs(env, u))
    assert_fraction_trace(trace)


@settings(max_examples=150, deadline=None)
@given(environments())
def test_readings_match_sensor_value(env):
    """Every reading a trace takes from the environment's reading table is
    the reading WireReadings gives at that state from the sensor's wire
    form: at each vertex, and inside each edge on every mark, between marks
    and at the far end, along and against the edge's stored orientation,
    both as a start state and as the state a move from the dart's tail
    reaches."""
    graph = env.graph
    wire = WireReadings(graph, env.sensor)
    for v in graph.vertices:
        state = VertexState(v)
        assert trace_events(trace_of(env, EMPTY, state)) == ((0, wire.at(state)),)
    for idx, edge in enumerate(graph_edges(graph)):
        ends = sorted({Fraction(0), edge.length, *[pos for pos, _ in wire.marks(idx)]})
        points = set(ends[1:]) | {(a + b) / 2 for a, b in zip(ends, ends[1:])}
        forward = forward_dart(graph, idx)
        for dart in (forward, reverse_of(graph, forward)):
            for pos in points:
                offset = pos if dart == forward else edge.length - pos
                state = state_on(graph, dart, offset)
                expected = wire.at(state)
                assert trace_events(trace_of(env, EMPTY, state)) == ((0, expected),)
                reached = trace_of(env, ControlSignal([(dart.port, offset)]), VertexState(dart.vertex))
                assert trace_events(reached)[-1] == (offset, expected)


def assert_columns_match_wire_form(graph, sensor):
    """sensor.columns(graph) against WireReadings of the sensor's wire
    form: every vertex in vertex-position order, every edge, and a marks
    dict holding exactly the edges with marks, in document order."""
    vertex, interior, marks = sensor.columns(graph)
    wire = WireReadings(graph, sensor)
    edges = range(len(graph.lengths))
    assert vertex == [wire.vertex[v] for v in graph.vertices]
    assert interior == wire.interior
    assert {e: list(ms) for e, ms in marks.items()} == {e: wire.marks(e) for e in edges if wire.marks(e)}
    # the lists are the caller's: growing them leaves the sensor as it was
    vertex.append("extra")
    interior.append("extra")
    again = sensor.columns(graph)
    assert len(again[0]) == len(graph.vertices) and len(again[1]) == len(graph.lengths)


def wire_readings_in_order(graph, sensor) -> list:
    """Every reading of sensor on graph from WireReadings: at vertices in
    graph order, inside edges, then on marks edge by edge in edge order."""
    wire = WireReadings(graph, sensor)
    readings = [wire.vertex[v] for v in graph.vertices] + wire.interior
    return readings + [label for e in range(len(graph.lengths)) for _, label in wire.marks(e)]


def filtered_twice(graph, sensor):
    """The sensor behind two relabelling filters: each reading it gives on
    graph sent to a string, and each string to an int."""
    names = {r: f"<{r!r}>" for r in wire_readings_in_order(graph, sensor)}
    once = FilteredSensor(sensor, names)
    return FilteredSensor(once, {name: i for i, name in enumerate(sorted(set(names.values())))})


@settings(max_examples=150, deadline=None)
@given(environments())
def test_columns_match_the_sensor_protocol(env):
    """columns, the one way a sensor is read, against its wire form."""
    assert_columns_match_wire_form(env.graph, env.sensor)


def test_columns_match_the_sensor_protocol_on_gallery_and_generated_environments():
    """Every sensor kind, also behind a filter nested twice, on the gallery
    pairs, their seeded cyclic covers (sensors pulled back) and seeded
    random_unit_environment pools of each kind."""
    rng = random.Random(24)
    pool = [env for name in sorted(GALLERY) for env in GALLERY[name]()]
    pool += [cyclic_cover(env, k, random_voltages(rng, env.graph, k))[0] for env in list(pool) for k in (2, 3)]
    pool += [random_unit_environment(rng, kind=kind) for kind in ("degree", "label", "beam") for _ in range(20)]
    kinds = set()
    for env in pool:
        for sensor in (env.sensor, filtered_twice(env.graph, env.sensor)):
            Environment(env.graph, env.initial, sensor, env.alphabet_width)  # validates
            assert_columns_match_wire_form(env.graph, sensor)
            kinds.add(type(sensor.base.base if isinstance(sensor, FilteredSensor) else sensor).__name__)
    assert kinds == {"DegreeSensor", "LabelSensor", "BeamSensor"}


def test_filter_names_missing_readings_in_edge_order():
    """A filter that is not total names the readings it lacks in order of
    first appearance with the marks listed edge by edge, whatever order the
    beam sensor was given its marks in."""
    rng = random.Random(25)
    seen = 0
    for _ in range(200):
        graph = random_ported_graph(rng, n_max=6, extra_max=4, unit_lengths=rng.random() < 0.5)
        sensor = random_beam_sensor(rng, graph, labels=("red", "green", "blue", 7))
        rows = list(beam_marks(sensor))
        rng.shuffle(rows)
        sensor = BeamSensor(rows)
        table = {r: "x" for r in (BLANK, "red", "green", "blue", 7) if rng.random() < 0.5}
        missing = [r for r in dict.fromkeys(wire_readings_in_order(graph, sensor)) if r not in table]
        for base in (sensor, FilteredSensor(sensor, {r: r for r in (BLANK, "red", "green", "blue", 7)})):
            if not missing:
                FilteredSensor(base, table).validate(graph)
                continue
            seen += 1
            with pytest.raises(ValidationError) as caught:
                FilteredSensor(base, table).validate(graph)
            assert str(caught.value) == f"relabelling not total, missing {missing!r}"
    assert seen > 100


@settings(max_examples=150, deadline=None)
@given(environments(), st.integers(1, 6))
def test_environment_document_round_trip(env, k):
    """Environment.from_json reads back what to_json writes, also with every
    length and beam offset pair multiplied through by k (unreduced on the
    wire): the same environment, the same edges and marks, and the same
    document written again, byte for byte."""
    text = json.dumps(env.to_json(), sort_keys=True)
    doc = json.loads(text)
    for edge in doc["edges"]:
        edge["length"] = [k * n for n in edge["length"]]
    sensor = doc["sensor"]
    while sensor["type"] == "filtered":
        sensor = sensor["base"]
    for mark in sensor.get("marks", ()):
        mark["offset"] = [k * n for n in mark["offset"]]
    loaded = Environment.from_json(doc)
    assert loaded == env
    assert graph_edges(loaded.graph) == graph_edges(env.graph)
    beams, original = loaded.sensor, env.sensor
    while isinstance(beams, FilteredSensor):
        beams, original = beams.base, original.base
    if isinstance(beams, BeamSensor):
        assert beam_marks(beams) == beam_marks(original) and hash(beams) == hash(original)
        assert repr(beams) == f"BeamSensor({beam_marks(original)!r})"
    assert json.dumps(loaded.to_json(), sort_keys=True) == text


def test_trace_of_builds_no_leg_and_no_fraction_per_leg(monkeypatch):
    """trace_of on a signal of hundreds of legs, under a sensor that reads
    alike everywhere, builds no Leg and runs a handful of Fraction gcds, not
    one per leg; the trajectory it simulated then reads back as the oracle's
    legs, final state and duration."""
    rng = random.Random(7)
    graph = random_ported_graph(rng, unit_lengths=False, max_denominator=7)
    sensor = LabelSensor({v: 0 for v in graph.vertices}, [0] * len(graph.lengths))
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
    assert trace_segments(trace) == ((0, u.duration, 0),)
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
    Fraction fields; a trace rebuilt from its ticks on a finer scale is the
    same trace, and its document is the fields' wire form."""
    width = env.alphabet_width
    t1 = trace_of(env, data.draw(signals(width)), data.draw(starts(env.graph)))
    t2 = trace_of(env, data.draw(signals(width)), data.draw(starts(env.graph)))

    assert (t1 == t2) == (trace_fields(t1) == trace_fields(t2))
    k = data.draw(st.integers(2, 6))
    scale, duration, segments, events = t1._ticks
    rebuilt = SensorTrace(
        k * scale, k * duration, [(k * a, k * b, v) for a, b, v in segments], [(k * t, v) for t, v in events]
    )
    assert rebuilt == t1 and hash(rebuilt) == hash(t1) and rebuilt._ticks == t1._ticks

    def pair(t):
        return [t.numerator, t.denominator]

    duration, segments, events = trace_fields(t1)
    assert t1.to_json() == {
        "duration": pair(duration),
        "segments": [{"from": pair(a), "to": pair(b), "value": v} for a, b, v in segments],
        "events": [{"time": pair(t), "value": v} for t, v in events],
    }


@settings(max_examples=150, deadline=None)
@given(environments(), st.data())
def test_trace_of_a_prefix_is_the_fraction_scan_cut(env, data):
    """Reading stops with the signal: the trace of the signal cut at t is
    the whole trace cut at t by the Fraction scan, at every segment start
    and event time and at the midpoints between them.  The repr spells the
    Fraction fields."""
    u, start = data.draw(signals(env.alphabet_width)), data.draw(starts(env.graph))
    trace = trace_of(env, u, start)
    segments, events = trace_segments(trace), trace_events(trace)
    assert repr(trace) == f"SensorTrace(duration={trace.duration!r}, segments={segments!r}, events={events!r})"
    times = sorted({a for a, _, _ in segments} | {t for t, _ in events})
    for t in times + [(a + b) / 2 for a, b in zip(times, times[1:])]:
        cut = trace_of(env, prefix(u, t), start)
        assert trace_fields(cut) == scan_truncate(trace, t)
        assert_fraction_trace(cut)


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
