"""Shared builders and independent oracles for the test suite."""
from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import NamedTuple

from hypothesis import strategies as st

from covertrace import (
    HALT,
    BeamSensor,
    ControlSignal,
    CoveringCertificate,
    Dart,
    DegreeSensor,
    Environment,
    FilteredSensor,
    GraphMap,
    LabelSensor,
    PortedGraph,
    PreconditionError,
    SensorTrace,
    Trajectory,
    ValidationError,
    VertexState,
    apply,
    structure_map,
    trace_of,
)
from covertrace.environments import Leg
from covertrace.generate import random_beam_sensor, random_label_sensor, random_ported_graph
from covertrace.graphs import check_port, check_vertex_name
from covertrace.sensors import _check_scalar, sensor_from_json
from covertrace.rationals import as_fraction, from_wire
from covertrace.signals import check_symbol
from covertrace.equivalence import DiscreteStateSpace


def three_cycle() -> PortedGraph:
    """Unit triangle; port 0 at each vertex points counterclockwise."""
    return PortedGraph(
        ["x0", "x1", "x2"],
        [("x0", "x1", 0, 1, 1), ("x1", "x2", 0, 1, 1), ("x2", "x0", 0, 1, 1)],
    )


def three_cycle_env(sensor=None, width=2) -> Environment:
    return Environment(three_cycle(), "x0", sensor or DegreeSensor(), width)


def marked_cycle_env(n: int) -> Environment:
    """Unit n-cycle c0..c(n-1), port 0 forward and port 1 backward, label 1
    on the start c0 and 0 elsewhere: marked n- and (n+1)-cycles are told
    apart only by walking all the way round."""
    names = [f"c{i}" for i in range(n)]
    graph = PortedGraph(names, [(names[i], names[(i + 1) % n], 0, 1, 1) for i in range(n)])
    labels = {v: int(i == 0) for i, v in enumerate(names)}
    return Environment(graph, "c0", LabelSensor(labels, [0] * n), 2)


def labelled_triangles() -> tuple:
    """A labelled unit triangle, and the same triangle with a pendant edge
    of length 1/2 at x1 behind port 2, past the alphabet width of 2: the
    two read alike under every signal, but the second simulates on ticks
    of 1/2 where the first uses ticks of 1."""
    labels = {"x0": "a", "x1": "b", "x2": "b"}
    triangle = three_cycle_env(LabelSensor(labels, ["e", "f", "e"]))
    pendant = PortedGraph(
        ["x0", "x1", "x2", "p"],
        [
            ("x0", "x1", 0, 1, 1),
            ("x1", "x2", 0, 1, 1),
            ("x2", "x0", 0, 1, 1),
            ("x1", "p", 2, 0, Fraction(1, 2)),
        ],
    )
    sensor = LabelSensor({**labels, "p": "c"}, ["e", "f", "e", "g"])
    return triangle, Environment(pendant, "x0", sensor, 2)


def path_middle() -> PortedGraph:
    """Two unit edges meeting at m; the comparison partner of the 3-cycle."""
    return PortedGraph(
        ["m", "l", "r"], [("m", "l", 0, 0, 1), ("m", "r", 1, 0, 1)]
    )


def path_middle_env(width=2) -> Environment:
    return Environment(path_middle(), "m", DegreeSensor(), width)


def figure_eight() -> PortedGraph:
    """One vertex with two unit loops, ports (0,1) and (2,3)."""
    return PortedGraph(
        ["o"], [("o", "o", 0, 1, 1), ("o", "o", 2, 3, 1)]
    )


def figure_eight_env(width=4) -> Environment:
    return Environment(figure_eight(), "o", DegreeSensor(), width)


def grid_distance(a: ControlSignal, b: ControlSignal) -> Fraction:
    """Independent signal-distance oracle: evaluate both signals on a uniform
    grid finer than every breakpoint, so each cell is constant, and sum cell
    widths where the symbols differ.  Adds the duration gap."""
    horizon = min(a.duration, b.duration)
    denominators = [1]
    for u in (a, b):
        denominators.extend(duration.denominator for _, duration in u.pieces)
    step = Fraction(1, lcm(*denominators))

    def symbol_at(u: ControlSignal, t: Fraction):
        for symbol, duration in u.pieces:
            if t < duration:
                return symbol
            t -= duration

    total = Fraction(0)
    t = Fraction(0)
    while t < horizon:
        if symbol_at(a, t) != symbol_at(b, t):
            total += step
        t += step
    return total + abs(a.duration - b.duration)


def naive_vertex_distances(graph: PortedGraph) -> dict:
    """Vertex-distance oracle: Floyd-Warshall over the Fraction edge lengths,
    every pair relaxed through every intermediate vertex; None stands for
    no path yet."""
    vertices = graph.vertices
    dist = {(u, w): Fraction(0) if u == w else None for u in vertices for w in vertices}
    for e in graph_edges(graph):
        for pair in ((e.tail, e.head), (e.head, e.tail)):
            if dist[pair] is None or e.length < dist[pair]:
                dist[pair] = e.length
    for k in vertices:
        for u in vertices:
            for w in vertices:
                if dist[u, k] is not None and dist[k, w] is not None:
                    via = dist[u, k] + dist[k, w]
                    if dist[u, w] is None or via < dist[u, w]:
                        dist[u, w] = via
    return dist


def naive_point_distance(graph: PortedGraph, s1, s2) -> Fraction:
    """Point-distance oracle on the path metric: the shortest way between two
    states through the ends of their edges, by naive_vertex_distances, or
    straight along one edge when both lie inside it."""
    dist = naive_vertex_distances(graph)

    def place(state):
        """(edge index, distance from its tail) or None at a vertex, and the
        (end vertex, distance to it) pairs the state can leave by."""
        if isinstance(state, VertexState):
            return None, ((state.vertex, Fraction(0)),)
        for i, e in enumerate(graph_edges(graph)):
            if state.dart == (e.tail, e.port_at_tail):
                pos = state.offset
            elif state.dart == (e.head, e.port_at_head):
                pos = e.length - state.offset
            else:
                continue
            return (i, pos), ((e.tail, pos), (e.head, e.length - pos))
        raise AssertionError(f"{state!r} is not on the graph")

    (on1, ends1), (on2, ends2) = place(s1), place(s2)
    best = min(d1 + dist[u, w] + d2 for u, d1 in ends1 for w, d2 in ends2)
    if on1 is not None and on2 is not None and on1[0] == on2[0]:
        best = min(best, abs(on1[1] - on2[1]))
    return best


def state_at(traj: Trajectory, t):
    """Position oracle: a trajectory's canonical state at time t in
    [0, duration], read off the first of its legs that reaches t; a move is
    offset0 + (t - t0) along its dart, canonicalised by graph.state_on."""
    t = Fraction(t)
    assert 0 <= t <= traj.duration
    for leg in traj.legs:
        if t <= leg.t1:
            if leg.moving:
                return traj.graph.state_on(leg.dart, leg.offset0 + (t - leg.t0))
            return leg.state
    return traj.start


def random_unit_environment(
    rng: random.Random,
    width: int = 3,
    max_edges: int = 3,
    kind: str = "degree",
) -> Environment:
    """Random unit-length environment with at most 2*max_edges darts, degree
    capped by width, suitable for bisimulation pools."""
    n = rng.randint(1, min(4, max_edges + 1))
    graph = random_ported_graph(
        rng,
        n_min=n,
        n_max=n,
        extra_min=0,
        extra_max=max(0, max_edges - (n - 1)),
        unit_lengths=True,
        max_degree=width,
    )
    if kind == "degree":
        sensor = DegreeSensor()
    elif kind == "label":
        sensor = random_label_sensor(rng, graph)
    elif kind == "beam":
        sensor = random_beam_sensor(rng, graph)
    else:
        raise ValueError(f"unknown sensor kind {kind!r}")
    initial = rng.choice(graph.vertices)
    return Environment(graph, initial, sensor, width)


def random_state(rng: random.Random, graph: PortedGraph):
    """Random point: a vertex, or a strictly interior edge point with a
    rational offset."""
    if not graph.lengths or rng.random() < 0.4:
        return VertexState(rng.choice(graph.vertices))
    idx = rng.randrange(len(graph.lengths))
    den = rng.randint(2, 6)
    offset = graph.lengths[idx] * Fraction(rng.randint(1, den - 1), den)
    return graph.state_on(graph.forward_dart(idx), offset)


def rational_signals(width: int = 2, max_pieces: int = 5, denominators=(1, 2, 3, 4, 6)):
    """Hypothesis strategy for signals over Port(0..width-1) and Halt whose
    piece durations are small rationals, zero included (canonical form drops
    them), so grid oracles stay cheap."""
    symbols = st.one_of(st.integers(0, width - 1), st.just(HALT))
    durations = st.builds(Fraction, st.integers(0, 8), st.sampled_from(denominators))
    return st.lists(st.tuples(symbols, durations), max_size=max_pieces).map(ControlSignal)


@st.composite
def graph_states(draw, graph: PortedGraph):
    """Hypothesis strategy for a vertex or a strictly interior edge point, in
    either direction of travel."""
    if draw(st.booleans()):
        return VertexState(draw(st.sampled_from(graph.vertices)))
    dart = draw(st.sampled_from(sorted(graph.darts(), key=str)))
    den = draw(st.integers(2, 6))
    return graph.state_on(dart, graph.length(dart) * Fraction(draw(st.integers(1, den - 1)), den))


# --- Fraction fields of traces, graphs and beam sensors --------------------
#
# Traces, graphs and beam sensors keep ticks and rows; these read their
# Fraction fields back from the objects' documents and public tables.


def trace_segments(trace: SensorTrace) -> tuple:
    """The trace's (start, end, value) segments with Fraction times, read
    from its document."""
    return tuple(
        (Fraction(*s["from"]), Fraction(*s["to"]), s["value"]) for s in trace.to_json()["segments"]
    )


def trace_events(trace: SensorTrace) -> tuple:
    """The trace's (time, value) events with Fraction times, read from its
    document."""
    return tuple((Fraction(*e["time"]), e["value"]) for e in trace.to_json()["events"])


class EdgeRow(NamedTuple):
    """A graph constructor row with its fields named for the oracles."""

    tail: object
    head: object
    port_at_tail: int
    port_at_head: int
    length: Fraction


def graph_edges(graph: PortedGraph) -> tuple:
    """The graph's edge rows in order, each in its stored orientation, read
    from its dart keys and lengths: edge e is darts 2e and 2e + 1."""
    keys = graph.dart_keys
    return tuple(
        EdgeRow(tail, head, port_at_tail, port_at_head, length)
        for (tail, port_at_tail), (head, port_at_head), length in zip(keys[::2], keys[1::2], graph.lengths)
    )


def beam_marks(sensor: BeamSensor) -> tuple:
    """The beam sensor's (edge, offset, label) rows in order, read from its
    document."""
    return tuple((m["edge"], Fraction(*m["offset"]), m["label"]) for m in sensor.to_json()["marks"])


def trace_fields(trace: SensorTrace) -> tuple:
    """(duration, segments, events) with Fraction times, read from the
    trace's document: the fields a trace oracle gives."""
    return trace.duration, trace_segments(trace), trace_events(trace)


def scan_value_at(trace: SensorTrace, t) -> object:
    """The reading at time t by a scan of the Fraction events, then of the
    segments; PreconditionError outside [0, duration]."""
    for te, value in trace_events(trace):
        if te == t:
            return value
    for a, b, value in trace_segments(trace):
        if a <= t < b:
            return value
    raise PreconditionError(f"time {t} outside [0, {trace.duration}]")


def scan_value_after(trace: SensorTrace, t) -> object:
    """The almost-everywhere value just after t by a scan of the Fraction
    segments, None at the final instant."""
    for a, b, value in trace_segments(trace):
        if a <= t < b:
            return value
    return None


def scan_truncate(trace: SensorTrace, t) -> tuple:
    """The fields (as trace_fields gives them) of the trace cut at t on
    Fractions, closed with the reading at t."""
    t = as_fraction(t)
    if t < 0 or t > trace.duration:
        raise PreconditionError(f"cut time {t} outside [0, {trace.duration}]")
    segments = tuple((a, min(b, t), value) for a, b, value in trace_segments(trace) if a < t)
    events = tuple((te, value) for te, value in trace_events(trace) if te < t)
    return t, segments, events + ((t, scan_value_at(trace, t)),)


def scan_first_divergence(a, b):
    """First-divergence oracle: compare instant and just-after readings,
    each found by a scan of the trace, at every segment start and event time
    of either trace, in time order."""
    criticals = sorted(
        {t for t, _, _ in trace_segments(a) + trace_segments(b)}
        | {t for t, _ in trace_events(a) + trace_events(b)}
    )
    for t in criticals:
        if scan_value_at(a, t) != scan_value_at(b, t):
            return t
        if scan_value_after(a, t) != scan_value_after(b, t):
            return t
    return None


# --- Fraction oracles for the integer-tick loops ---------------------------
#
# The signal, simulation and trace loops below do all their arithmetic on
# Fractions, one gcd per operation; the library runs the same loops on ints
# over one common denominator.  Results must agree exactly.


def naive_distance(a: ControlSignal, b: ControlSignal) -> Fraction:
    """Signal distance by one merge over both piece lists, on Fractions."""
    pa, pb = a.pieces, b.pieces
    ends_a, ends_b = list(accumulate(d for _, d in pa)), list(accumulate(d for _, d in pb))
    total = Fraction(0)
    t = Fraction(0)
    i = j = 0
    while i < len(pa) and j < len(pb):
        hi = min(ends_a[i], ends_b[j])
        if pa[i][0] != pb[j][0]:
            total += hi - t
        t = hi
        if ends_a[i] == hi:
            i += 1
        if ends_b[j] == hi:
            j += 1
    return total + abs(a.duration - b.duration)


def naive_pieces(pieces) -> tuple:
    """The canonical pieces of (symbol, duration) pairs, as the signal
    constructor made them on Fractions: symbols checked, durations taken
    exactly and refused when negative, zero durations dropped and adjacent
    equal symbols merged by adding their durations."""
    runs = []
    for symbol, duration in pieces:
        symbol = check_symbol(symbol)
        duration = as_fraction(duration)
        if duration < 0:
            raise ValidationError(f"negative duration: {duration}")
        if not duration:
            continue
        if runs and runs[-1][0] == symbol:
            runs[-1][1] += duration
        else:
            runs.append([symbol, duration])
    return tuple((symbol, duration) for symbol, duration in runs)


def naive_restrict_before(pieces: tuple, t: Fraction) -> tuple:
    """Canonical pieces on [0, t), cut on Fractions."""
    out, remaining = [], t
    for symbol, duration in pieces:
        if duration >= remaining:
            out.append((symbol, remaining))
            break
        out.append((symbol, duration))
        remaining -= duration
    return naive_pieces(out)


def naive_suffix_from(pieces: tuple, t: Fraction) -> tuple:
    """Canonical pieces on [t, duration), shifted to 0, cut on Fractions."""
    skip = t
    for i, (symbol, duration) in enumerate(pieces):
        if skip < duration:
            return naive_pieces(((symbol, duration - skip),) + pieces[i + 1:])
        skip -= duration
    return ()


def naive_concat(first: tuple, second: tuple) -> tuple:
    return naive_pieces(first + second)


def prefix(u: ControlSignal, t) -> ControlSignal:
    """u on [0, t), all of u for t past its end: naive_restrict_before."""
    return ControlSignal(naive_restrict_before(u.pieces, t))


def suffix(u: ControlSignal, t) -> ControlSignal:
    """u on [t, duration), shifted to start at 0: naive_suffix_from."""
    return ControlSignal(naive_suffix_from(u.pieces, t))


def joined(a: ControlSignal, b: ControlSignal) -> ControlSignal:
    """a, then b: naive_concat."""
    return ControlSignal(naive_concat(a.pieces, b.pieces))


def naive_geodesic(a: tuple, b: tuple, s: Fraction) -> tuple:
    """The geodesic point of signals.geodesic on Fraction pieces: with a
    the shorter, b on [0, s|a|), a on [s|a|, |a|), then b from |a| on for
    s times the overhang."""
    length_a = sum((d for _, d in a), Fraction(0))
    length_b = sum((d for _, d in b), Fraction(0))
    if length_a > length_b:
        a, b, s, length_a, length_b = b, a, 1 - s, length_b, length_a
    cut = s * length_a
    head = naive_restrict_before(b, cut)
    middle = naive_suffix_from(a, cut)
    tail = naive_restrict_before(naive_suffix_from(b, length_a), s * (length_b - length_a))
    return naive_concat(naive_concat(head, middle), tail)


@st.composite
def wire_signals(draw, width: int = 3, max_pieces: int = 8):
    """Hypothesis strategy for signal documents, [symbol, num, den] triples
    as from_json reads them, that the reading must merge and reduce: pairs
    scaled by a common factor, zero durations, and runs of one symbol."""
    symbols = st.one_of(st.integers(0, width - 1), st.just(HALT))
    document = []
    for _ in range(draw(st.integers(0, max_pieces))):
        symbol = document[-1][0] if document and draw(st.booleans()) else draw(symbols)
        num, den = draw(st.integers(0, 12)), draw(st.sampled_from([1, 2, 3, 4, 6, 8, 9]))
        k = draw(st.integers(1, 4))
        document.append([symbol, num * k, den * k])
    return document


def naive_from_json(data) -> ControlSignal:
    """ControlSignal.from_json in two stages: every entry's shape and its
    [num, den] pair read by from_wire, in document order, and then the
    checking constructor on the Fraction pieces."""
    if not isinstance(data, list):
        raise ValidationError("signal JSON must be a list of [symbol, num, den] triples")
    pieces = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValidationError(f"bad signal JSON entry: {entry!r}")
        symbol, num, den = entry
        pieces.append((symbol, from_wire([num, den])))
    return ControlSignal(pieces)


def naive_graph_from_json(data) -> PortedGraph:
    """PortedGraph.from_json in two stages: every edge object read into a
    row, field by field with check_vertex_name, check_port and from_wire,
    in document order, and then the checking constructor on the rows."""
    if not isinstance(data, dict):
        raise ValidationError("graph JSON must be an object")
    try:
        vertices = data["vertices"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise ValidationError(f"graph JSON missing key {exc}") from exc
    if not isinstance(vertices, list) or not isinstance(raw_edges, list):
        raise ValidationError("graph JSON: vertices and edges must be lists")
    for v in vertices:
        check_vertex_name(v)
    edges = []
    for raw in raw_edges:
        if not isinstance(raw, dict):
            raise ValidationError(f"bad edge entry: {raw!r}")
        try:
            edges.append(
                EdgeRow(
                    tail=check_vertex_name(raw["tail"]),
                    head=check_vertex_name(raw["head"]),
                    port_at_tail=check_port(raw["port_at_tail"]),
                    port_at_head=check_port(raw["port_at_head"]),
                    length=from_wire(raw["length"]),
                )
            )
        except KeyError as exc:
            raise ValidationError(f"edge entry missing key {exc}") from exc
    return PortedGraph(vertices, edges)


def naive_sensor_from_json(data):
    """sensors.sensor_from_json in two stages for beam marks: every mark
    read into a row with from_wire, in document order, and then the
    BeamSensor constructor on the rows.  A relabel entry that is not an
    array of two is refused where it is met."""
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError(f"bad sensor JSON: {data!r}")
    kind = data["type"]
    if kind == "beam":
        try:
            marks = [(raw["edge"], from_wire(raw["offset"]), raw["label"]) for raw in data.get("marks", [])]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad beam sensor JSON: {data!r}") from exc
        return BeamSensor(marks)
    if kind == "filtered":
        try:
            base = naive_sensor_from_json(data["base"])
            pairs = []
            for entry in data["relabel"]:
                if not (isinstance(entry, list) and len(entry) == 2):
                    raise TypeError(f"{entry!r} is not a [key, value] pair")
                pairs.append((_check_scalar(entry[0]), entry[1]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad filtered sensor JSON: {data!r}") from exc
        return FilteredSensor(base, pairs)
    return sensor_from_json(data)


def naive_validate_beams(marks, graph: PortedGraph) -> None:
    """BeamSensor.validate on (edge, offset, label) rows, against
    graph.lengths, with Fraction comparisons and a set of Fractions."""
    seen = set()
    for edge, offset, label in marks:
        if not 0 <= edge < len(graph.lengths):
            raise ValidationError(f"beam mark on unknown edge {edge}")
        length = graph.lengths[edge]
        if not 0 < offset < length:
            raise ValidationError(f"beam mark offset {offset} not strictly inside edge {edge}")
        if (edge, offset) in seen:
            raise ValidationError(f"two beam marks at one point: edge {edge} offset {offset}")
        seen.add((edge, offset))
        _check_scalar(label)


def naive_environment_from_json(data) -> Environment:
    """Environment.from_json on the two-stage graph and sensor readers."""
    if not isinstance(data, dict):
        raise ValidationError("environment JSON must be an object")
    graph = naive_graph_from_json(data)
    if "initial" not in data:
        raise ValidationError("environment JSON missing initial vertex")
    if "sensor" not in data:
        raise ValidationError("environment JSON missing sensor")
    width = data.get("alphabet_width")
    initial = check_vertex_name(data["initial"])
    return Environment(graph, initial, naive_sensor_from_json(data["sensor"]), width)


def naive_map_from_json(data, source=None) -> GraphMap:
    """GraphMap.from_json with each dart pair read by a call per dart; a
    vertex_map array entry that is not an array of two is refused where it
    is met."""

    def dart(raw):
        vertex, port = raw
        return (check_vertex_name(vertex), check_port(port))

    if not isinstance(data, dict) or "vertex_map" not in data:
        raise ValidationError("graph map JSON must carry vertex_map")
    if "dart_map" not in data and source is None:
        raise ValidationError("dart_map omitted and no source graph to derive it from")
    raw_v = data["vertex_map"]
    try:
        vpairs = raw_v.items() if isinstance(raw_v, dict) else raw_v
        vitems = {}
        for entry in vpairs:
            if not isinstance(raw_v, dict) and not (isinstance(entry, list) and len(entry) == 2):
                raise TypeError(f"{entry!r} is not a [key, value] pair")
            s, d = entry
            s = check_vertex_name(s)
            if s in vitems:
                raise ValidationError(f"vertex {s!r} is mapped twice")
            vitems[s] = check_vertex_name(d)
        if "dart_map" not in data:
            return GraphMap.from_vertex_map(source, vitems)
        ditems = {}
        for d, e in data["dart_map"]:
            d = dart(d)
            if d in ditems:
                raise ValidationError(f"dart {Dart._make(d)!r} is mapped twice")
            ditems[d] = dart(e)
        return GraphMap(vitems, ditems)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad graph map JSON: {exc!r}") from exc


def naive_map_to_json(f: GraphMap) -> dict:
    """GraphMap.to_json with every item sorted by its printed vertex name
    and port through a key function."""
    vertex_items = sorted(f.vertex_map.items(), key=lambda kv: str(kv[0]))
    dart_items = sorted(f.dart_map.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
    return {
        "vertex_map": [[src, dst] for src, dst in vertex_items],
        "dart_map": [[list(d), list(e)] for d, e in dart_items],
    }


def wire_pieces(document) -> tuple:
    """The (symbol, Fraction) pairs a signal document spells."""
    return tuple((symbol, Fraction(num, den)) for symbol, num, den in document)


def _naive_merge(legs) -> list:
    """Join a rest to a rest in the same state before it, and a move to a
    move it continues along the same dart."""
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
    return merged


def naive_legs(env: Environment, signal: ControlSignal, start=None) -> tuple:
    """(start state, legs): the robot's motion simulated step by step on
    Fractions, every step through PortedGraph.state_on, then merged into
    maximal legs.  At a vertex, port k enters a dart when k is below both
    the degree and the alphabet width, and waits otherwise."""
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
                if k < min(graph.degree(v), env.alphabet_width):
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
    return start, _naive_merge(legs)


class WireReadings:
    """What a sensor reads on a graph, from sensor.to_json() and the graph's
    vertex and dart names and Fraction lengths alone; no columns and no
    table the sensor keeps are read.  A filtered sensor is unwrapped layer
    by layer, and each reading of the innermost sensor is sent through the
    relabel pairs of the layers from the inside out.

    vertex[v] is the reading at vertex v, interior[e] the reading inside
    edge e away from its marks, and marks(e) the (offset from the stored
    tail, label) pairs of the marks on edge e in document order."""

    def __init__(self, graph: PortedGraph, sensor):
        doc = sensor.to_json()
        relabels = []
        while doc["type"] == "filtered":
            relabels.append(dict(map(tuple, doc["relabel"])))
            doc = doc["base"]

        def read(value):
            for table in reversed(relabels):
                value = table[value]
            return value

        kind, count = doc["type"], len(graph.lengths)
        if kind == "degree":
            ports = Counter(v for v, _ in graph.dart_keys)
            vertex, interior = {v: ports[v] for v in graph.vertices}, ["edge"] * count
        elif kind == "label":
            vertex, interior = dict(map(tuple, doc["vertex_labels"])), doc["edge_labels"]
        else:
            vertex, interior = dict.fromkeys(graph.vertices, "blank"), ["blank"] * count
        self.graph = graph
        self.vertex = {v: read(vertex[v]) for v in graph.vertices}
        self.interior = [read(value) for value in interior]
        self._marks = {}
        for mark in doc.get("marks", ()):
            self._marks.setdefault(mark["edge"], []).append((Fraction(*mark["offset"]), read(mark["label"])))

    def marks(self, edge_index: int) -> list:
        return self._marks.get(edge_index, [])

    def at(self, state):
        """The reading at a vertex or edge state: inside an edge, the label
        of the mark at that point, else the interior reading."""
        if isinstance(state, VertexState):
            return self.vertex[state.vertex]
        graph = self.graph
        idx = graph.edge_of(state.dart)
        pos = state.offset if state.dart == graph.forward_dart(idx) else graph.lengths[idx] - state.offset
        for offset, label in self.marks(idx):
            if offset == pos:
                return label
        return self.interior[idx]


def naive_trace(env: Environment, start, legs) -> tuple:
    """The fields (as trace_fields gives them) of the sensor trace of the
    legs from start (as naive_legs gives them), with Fraction instants and
    intervals, each reading from WireReadings."""
    graph = env.graph
    readings = WireReadings(graph, env.sensor)
    duration = legs[-1].t1 if legs else Fraction(0)

    instants = {Fraction(0): readings.at(start)}
    intervals = []
    for leg in legs:
        instants[leg.t1] = readings.at(leg.end)
        if not leg.moving:
            intervals.append([leg.t0, leg.t1, readings.at(leg.state)])
            continue
        idx = graph.edge_of(leg.dart)
        intervals.append([leg.t0, leg.t1, readings.interior[idx]])
        length = graph.length(leg.dart)
        forward = leg.dart == graph.forward_dart(idx)
        off_hi = leg.offset0 + (leg.t1 - leg.t0)
        for pos, label in readings.marks(idx):
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
    return duration, segments, tuple(events)


def naive_first_divergence(a: SensorTrace, b: SensorTrace):
    """First divergence by one forward pointer per trace over the sorted
    Fraction critical times."""
    criticals = sorted(
        {t for t, _, _ in trace_segments(a)}
        | {t for t, _, _ in trace_segments(b)}
        | {t for t, _ in trace_events(a)}
        | {t for t, _ in trace_events(b)}
    )

    def readings(trace):
        events = dict(trace_events(trace))
        segments = trace_segments(trace)
        k = 0
        for t in criticals:
            while k < len(segments) and segments[k][1] <= t:
                k += 1
            after = segments[k][2] if k < len(segments) and segments[k][0] <= t else None
            yield events.get(t, after), after

    for t, ra, rb in zip(criticals, readings(a), readings(b)):
        if ra != rb:
            return t
    return None


def naive_discrete_search(e1: Environment, e2: Environment, max_len: int):
    """Oracle for the discrete part of check_equiv_sampled: the same
    depth-first search over unit-action signals with the same budget pruning,
    but every unit action is simulated afresh (trace_of, then apply) and every
    pair of traces goes through naive_first_divergence.  Returns (witness
    pieces or None, divergence or None, signals checked).

    The search runs over the whole alphabet, so the verdict, witness and
    divergence do not lean on ports above the largest degree M moving like
    port M; only the count leaves them out, as the library searches the
    ports up to M and HALT alone."""
    empty = ControlSignal([])
    d = naive_first_divergence(trace_of(e1, empty), trace_of(e2, empty))
    if d is not None:
        return [], d, 1
    checked = 1
    budget_seen = {}
    top = max(e1.graph.max_degree(), e2.graph.max_degree())

    def search(x1, x2, remaining, prefix):
        nonlocal checked
        if remaining == 0 or budget_seen.get((x1, x2), -1) >= remaining:
            return None
        for a in [*range(e1.alphabet_width), HALT]:
            unit = ControlSignal([(a, Fraction(1))])
            checked += a == HALT or a <= top
            d = naive_first_divergence(trace_of(e1, unit, x1), trace_of(e2, unit, x2))
            if d is not None:
                return prefix + [a], len(prefix) + d
            found = search(apply(e1, unit, x1), apply(e2, unit, x2), remaining - 1, prefix + [a])
            if found is not None:
                return found
        budget_seen[(x1, x2)] = remaining
        return None

    found = search(e1.initial_state, e2.initial_state, max_len, [])
    if found is None:
        return None, None, checked
    return found[0], found[1], checked


def universal_ball_size(graph: PortedGraph, base, radius) -> int:
    """Vertex-count oracle for the truncated universal cover: the empty walk
    plus every non-backtracking dart walk from `base` whose length before its
    last step is under `radius`, counted by plain recursion."""

    def walks(vertex, came_back_by, travelled):
        if travelled >= radius:
            return 0
        return sum(
            1 + walks(graph.head(d), graph.reverse(d), travelled + graph.length(d))
            for d in graph.darts_at(vertex)
            if d != came_back_by
        )

    return 1 + walks(base, None, Fraction(0))


def naive_bisimulation(e1: Environment, e2: Environment):
    """Bisimulation oracle by synchronous pair removal over all pairs of the
    disjoint union, reading only the `values`, `succ`, `chunks`,
    `chunk_table` and `starts` lists of the state space of (e1, e2) and
    comparing chunks by value, not by id.  Returns the related cross pairs
    in e1 x e2 state order, stably sorted by their names as strings, the
    number of strictly refining rounds, the round at which the initial pair
    is removed (None if never), and the lexicographically first shortest
    witness as a list of actions (None if never removed).

    The witness is rebuilt greedily from the removal rounds: from a pair
    removed at round r > 0, take the first action whose chunks differ
    (which ends the word) or whose successor pair was removed by round
    r - 1, and go on from that successor pair."""
    space = DiscreteStateSpace(e1, e2)
    rows = range(len(space.states))
    n_actions = len(space.actions)

    def step(x, k):
        return space.succ[x][k]

    def chunk(x, k):
        return space.chunk_table[space.chunks[x][k]]

    related = {(x, y) for x in rows for y in rows if space.values[x] == space.values[y]}
    initial = tuple(space.starts)
    removed_at = {(x, y): 0 for x in rows for y in rows if (x, y) not in related}
    rounds = 0
    while True:
        kept = {
            (x, y)
            for x, y in related
            if all(
                chunk(x, k) == chunk(y, k) and (step(x, k), step(y, k)) in related
                for k in range(n_actions)
            )
        }
        if kept == related:
            break
        rounds += 1
        for pair in related - kept:
            removed_at[pair] = rounds
        related = kept
    separation = removed_at.get(initial)
    witness = None
    if separation is not None:
        witness, (x, y), r = [], initial, separation
        while r > 0:
            k = next(
                k
                for k in range(n_actions)
                if chunk(x, k) != chunk(y, k) or removed_at.get((step(x, k), step(y, k)), r) < r
            )
            witness.append(space.actions[k])
            if chunk(x, k) != chunk(y, k):
                break
            x, y, r = step(x, k), step(y, k), r - 1
    split = space.starts[1]
    pairs = [
        (space.states[i], space.states[j])
        for i in range(split)
        for j in rows[split:]
        if (i, j) in related
    ]
    pairs.sort(key=lambda p: (str(p[0]), str(p[1])))
    return pairs, rounds, separation, witness


def renamed_copy(env: Environment, renaming) -> Environment:
    """env with each vertex v named renaming[v], read back from its wire
    form with the names swapped: ports, lengths, edge order and sensor data
    stay as they are, so the copy reads every trace env reads."""
    data = env.to_json()
    data["vertices"] = [renaming[v] for v in data["vertices"]]
    for edge in data["edges"]:
        edge["tail"], edge["head"] = renaming[edge["tail"]], renaming[edge["head"]]
    data["initial"] = renaming[data["initial"]]
    sensor = data["sensor"]
    while sensor["type"] == "filtered":
        sensor = sensor["base"]
    if sensor["type"] == "label":
        sensor["vertex_labels"] = [[renaming[v], label] for v, label in sensor["vertex_labels"]]
    return Environment.from_json(data)


def automorphisms(graph: PortedGraph) -> list:
    """The port- and length-preserving automorphisms of a connected graph:
    the structure map from the first vertex to each vertex, where it is a
    bijection on vertices that keeps every degree."""
    v0 = graph.vertices[0]
    autos = []
    for w in graph.vertices:
        candidate = structure_map(graph, graph, v0, w)
        if candidate is None:
            continue
        vmap = candidate.vertex_map
        if len(set(vmap.values())) != len(graph.vertices):
            continue
        if any(graph.degree(v) != graph.degree(fv) for v, fv in vmap.items()):
            continue
        autos.append(candidate)
    return autos


def naive_degree_refinement(env: Environment) -> tuple:
    """Degree-refinement oracle with content-addressed colours: each colour
    is the sha256 of its degree, then of its previous colour and its sorted
    neighbour colours, so colours from different graphs compare without a
    shared numbering.  Refines until the colour count stops growing; rows
    list, per class in digest order, the degree and the dart counts into
    each class."""
    graph = env.graph

    def digest(payload: str) -> str:
        return hashlib.sha256(payload.encode()).hexdigest()

    colour = {v: digest(f"deg:{graph.degree(v)}") for v in graph.vertices}
    while True:
        refined = {}
        for v in graph.vertices:
            neighbours = sorted(colour[graph.head(d)] for d in graph.darts_at(v))
            refined[v] = digest(colour[v] + "|" + ",".join(neighbours))
        stable = len(set(refined.values())) == len(set(colour.values()))
        colour = refined
        if stable:
            break

    classes = sorted(set(colour.values()))
    index = {c: i for i, c in enumerate(classes)}
    table = []
    for c in classes:
        representative = next(v for v in graph.vertices if colour[v] == c)
        counts = {}
        for d in graph.darts_at(representative):
            j = index[colour[graph.head(d)]]
            counts[j] = counts.get(j, 0) + 1
        table.append((graph.degree(representative), tuple(sorted(counts.items()))))
    return tuple(table)


def naive_verify_covering(f, source: Environment, target: Environment, skip_star_at=()):
    """verify_covering as it read on Dart dicts, kept as the oracle of the
    version on positions and dart ids: the same checks, messages and
    certificate, every dart a Dart and every star compared as sorted
    lists."""
    sg, tg = source.graph, target.graph
    vmap = f.vertex_map
    dmap = {Dart(*d): Dart(*e) for d, e in f.dart_map.items()}
    target_vertices = set(tg.vertices)
    for v in sg.vertices:
        if v not in vmap:
            raise ValidationError(f"vertex {v!r} unmapped")
        if vmap[v] not in target_vertices:
            raise ValidationError(f"vertex {v!r} maps outside the target")
    unmapped = [d for d in sg.darts() if d not in dmap]
    if unmapped:
        raise ValidationError(f"dart {unmapped[0]!r} unmapped")
    for d in sg.darts():
        image = dmap[d]
        if not tg.has_dart(image):
            raise ValidationError(f"dart {d!r} maps to unknown dart {image!r}")
        if vmap[d.vertex] != image.vertex:
            raise ValidationError(f"dart {d!r}: image tail disagrees with vertex map")
        if vmap[sg.head(d)] != tg.head(image):
            raise ValidationError(f"dart {d!r}: image head disagrees with vertex map")
        if dmap[sg.reverse(d)] != tg.reverse(image):
            raise ValidationError(f"dart {d!r}: image does not respect reversal")

    skip = set(skip_star_at)
    failures = []
    surjective = set(vmap.values()) == set(tg.vertices)
    if surjective and not skip:
        surjective = {dmap[d] for d in sg.darts()} == set(tg.darts())
    if not surjective:
        failures.append("not surjective")
    local_bijection = True
    for v in sg.vertices:
        if v in skip:
            continue
        images = [dmap[d] for d in sg.darts_at(v)]
        expect = tg.darts_at(vmap[v])
        ports_ok = all(dmap[d].port == d.port for d in sg.darts_at(v))
        if sorted(images) != sorted(expect) or not ports_ok:
            local_bijection = False
            failures.append(f"star at {v!r} is not a port-preserving bijection")
    lengths_preserved = True
    for d in sg.darts():
        if sg.length(d) != tg.length(dmap[d]):
            lengths_preserved = False
            failures.append(f"dart {d!r} changes length")
            break
    base_point = vmap.get(source.initial) == target.initial
    if not base_point:
        failures.append("base point not preserved")
    return CoveringCertificate(
        surjective, local_bijection, lengths_preserved, base_point, tuple(failures)
    )
