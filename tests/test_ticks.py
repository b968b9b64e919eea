"""The integer-tick loops against their Fraction oracles.

trajectory, trace_of_trajectory, first_divergence and distance compute on
ints over one common denominator; the naive_* oracles in helpers run the same
algorithms on Fractions.  Results must agree exactly, and every time and
offset they return must still be a Fraction: an int would pass `==`.
"""
from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from covertrace import (
    BLANK,
    HALT,
    BeamMark,
    BeamSensor,
    ControlSignal,
    DegreeSensor,
    EdgeState,
    Environment,
    FilteredSensor,
    PortedGraph,
    build_edges,
    distance,
    first_divergence,
    trace_of,
    trace_of_trajectory,
    trajectory,
)
from covertrace.generate import (
    random_beam_sensor,
    random_label_sensor,
    random_ported_graph,
    random_state,
)

from helpers import (
    naive_distance,
    naive_first_divergence,
    naive_trace_of_trajectory,
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
    degree, label, beam or filtered beam sensor."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    graph = random_ported_graph(rng, unit_lengths=draw(st.booleans()), max_denominator=7)
    kind = draw(st.sampled_from(["degree", "label", "beam", "filtered"]))
    if kind == "degree":
        sensor = DegreeSensor()
    elif kind == "label":
        sensor = random_label_sensor(rng, graph)
    else:
        sensor = random_beam_sensor(rng, graph)
        if kind == "filtered":
            sensor = FilteredSensor(sensor, {BLANK: "quiet", "red": "beam", "green": "beam"})
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
    assert traj == naive_trajectory(env, u, start)
    assert type(traj.duration) is Fraction
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
    traj = trajectory(env, u, start)
    trace = trace_of_trajectory(env, traj)
    assert trace == naive_trace_of_trajectory(env, naive_trajectory(env, u, start))
    assert_fraction_trace(trace)


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
    third of the way from x0 is met at t = 2/3."""
    graph = three_cycle()
    env = Environment(graph, "x1", BeamSensor((BeamMark(0, Fraction(1, 3), "red"),)), 2)
    u = ControlSignal([(1, Fraction(5, 7))])
    trace = trace_of(env, u)
    assert trace.events == ((Fraction(2, 3), "red"), (Fraction(5, 7), BLANK))
    assert trace == naive_trace_of_trajectory(env, naive_trajectory(env, u))
    assert_fraction_trace(trace)


def test_mark_crossed_at_a_whole_time():
    """A mark in the middle of an edge of length 2 is met at t = 1, which is
    no leg boundary; its time must still be a Fraction."""
    graph = PortedGraph(["a", "b"], build_edges([("a", "b", 0, 0, 2)]))
    env = Environment(graph, "a", BeamSensor((BeamMark(0, Fraction(1), "red"),)), 1)
    u = ControlSignal([(0, Fraction(3, 2))])
    trace = trace_of(env, u)
    assert trace.events == ((1, "red"), (Fraction(3, 2), BLANK))
    assert trace == naive_trace_of_trajectory(env, naive_trajectory(env, u))
    assert_fraction_trace(trace)
