"""Mutated environment and map documents through the readers and every
subcommand that reads them.

The documents start from the gallery environments and three more (a
filtered beam sensor, rational lengths with marks off the middle, labels on
rational lengths) and from the projections of their 2-fold cyclic covers,
and each takes a few random edits: a value
replaced, often by one of its kind (a port by a port, a name by a name, a
length by a length), a key or entry dropped, an entry repeated, or a part of the
document copied over another.  The one-pass readers must agree with the
two-stage oracles in tests/helpers.py (every edge and mark read into a
row, then the checking constructor on the rows): the same value and the same
`edges` and `marks`, or the same refusal.  Every command must end in exit 0,
1, 2 or 3 with no traceback.
"""
from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertrace import (
    BLANK,
    BeamSensor,
    Environment,
    FilteredSensor,
    GraphMap,
    LabelSensor,
    PortedGraph,
    ValidationError,
    cli,
    cyclic_cover,
    verify_covering,
)
from covertrace.gallery import GALLERY
from covertrace.sensors import sensor_from_json

from helpers import (
    beam_marks,
    graph_edges,
    naive_environment_from_json,
    naive_graph_from_json,
    naive_map_from_json,
    naive_map_to_json,
    naive_sensor_from_json,
    naive_validate_beams,
    naive_verify_covering,
)

ENVIRONMENTS = {f"{name}_{tag}": env for name, pair in GALLERY.items() for tag, env in zip("ab", pair())}
# a filtered beam sensor, and rational lengths with a mark off the middle
ENVIRONMENTS["filtered"] = Environment(
    ENVIRONMENTS["beams_a"].graph,
    ENVIRONMENTS["beams_a"].initial,
    FilteredSensor(ENVIRONMENTS["beams_a"].sensor, {BLANK: "quiet", "green": "beam", "blue": "beam"}),
    2,
)
ENVIRONMENTS["rational"] = Environment(
    PortedGraph(["a", "b"], [("a", "b", 0, 0, Fraction(3, 2)), ("b", "a", 1, 1, Fraction(1, 2))]),
    "b",
    BeamSensor([(0, Fraction(1, 3), "red"), (1, Fraction(1, 4), "red")]),
)
ENVIRONMENTS["labelled"] = Environment(
    ENVIRONMENTS["rational"].graph, "a", LabelSensor({"a": 0, "b": 1}, [2, 3]), 2
)
# each environment with its 2-fold cover, voltage 1 on every edge
COVERS = {name: cyclic_cover(env, 2, [1] * len(env.graph.lengths)) for name, env in ENVIRONMENTS.items()}

# values an edit puts in: names, ports, wire rationals (small and positive
# ones too, so a mutated graph stays cheap to walk), and malformed ones
POOL = [
    0, 1, 2, 3, -1, 7, "x0", "x1", "s", "g", "", "halt", "edge", True, None, 1.5,
    [1, 1], [1, 2], [2, 4], [3, 2], [1, 3], [2, 3], [0, 1], [-1, 2], [1, 0], [1, -2], [True, 1],
    [], {}, [["x0", 0], ["x1", 0]], {"type": "degree"}, {"type": "beam", "marks": []},
]

SIGNAL = [[0, 1, 1], [1, 3, 2], ["halt", 1, 2]]


def paths(doc, prefix=()):
    """Every location in a JSON document, the root first."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from paths(value, prefix + (i,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def alike(value, doc) -> list:
    """Values of the same kind as value: ports and small ints for an int,
    the document's strings for a string, positive rationals for a pair."""
    if type(value) is int:
        return [0, 1, 2, 3]
    if type(value) is str:
        return sorted({v for path in paths(doc) for v in [at(doc, path)] if type(v) is str})
    if isinstance(value, list) and len(value) == 2 and all(type(v) is int for v in value):
        return [[1, 1], [1, 2], [2, 4], [3, 2], [1, 3], [2, 3]]
    return POOL


@st.composite
def mutated(draw, doc):
    """doc after one to three random edits."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        places = list(paths(doc))
        path = draw(st.sampled_from(places[1:] or places))
        if not path:
            return draw(st.sampled_from(POOL))
        parent, key = at(doc, path[:-1]), path[-1]
        edit = draw(st.sampled_from(["alike", "alike", "alike", "replace", "copy", "drop", "repeat"]))
        if edit == "alike":
            parent[key] = copy.deepcopy(draw(st.sampled_from(alike(parent[key], doc))))
        elif edit == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(POOL)))
        elif edit == "copy":
            parent[key] = copy.deepcopy(at(doc, draw(st.sampled_from(places))))
        elif edit == "drop":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    return doc


def environment_documents():
    return st.sampled_from(sorted(ENVIRONMENTS)).flatmap(
        lambda name: mutated(ENVIRONMENTS[name].to_json())
    )


def map_documents():
    return st.sampled_from(sorted(COVERS)).flatmap(
        lambda name: st.tuples(st.just(name), mutated(COVERS[name][1].to_json()))
    )


def outcome(reader, *args):
    """The value read, or the type and message of the refusal."""
    try:
        return reader(*args)
    except Exception as exc:  # noqa: BLE001 - the oracle must fail alike
        return (type(exc), str(exc))


def assert_same_graph(got: PortedGraph, expected: PortedGraph):
    assert got == expected
    assert got.vertex_index == expected.vertex_index
    assert got.dart_keys == expected.dart_keys and got.dart_index == expected.dart_index
    assert got.dart_head == expected.dart_head and got.star == expected.star
    assert got.lengths == expected.lengths
    assert graph_edges(got) == graph_edges(expected)


def beams(sensor):
    while isinstance(sensor, FilteredSensor):
        sensor = sensor.base
    return sensor if isinstance(sensor, BeamSensor) else None


@settings(max_examples=300, deadline=None)
@given(environment_documents())
def test_readers_match_the_two_stage_oracles(doc):
    got, expected = outcome(PortedGraph.from_json, doc), outcome(naive_graph_from_json, doc)
    if isinstance(expected, PortedGraph):
        assert_same_graph(got, expected)
    else:
        assert got == expected

    sensor_doc = doc.get("sensor") if isinstance(doc, dict) else None
    got_sensor = outcome(sensor_from_json, sensor_doc)
    expected_sensor = outcome(naive_sensor_from_json, sensor_doc)
    assert got_sensor == expected_sensor
    if beams(expected_sensor) is not None:
        assert beam_marks(beams(got_sensor)) == beam_marks(beams(expected_sensor))
        assert outcome(hash, got_sensor) == outcome(hash, expected_sensor)
        if isinstance(expected, PortedGraph):
            assert outcome(beams(got_sensor).validate, expected) == outcome(
                naive_validate_beams, beam_marks(beams(expected_sensor)), expected
            )

    got_env, expected_env = outcome(Environment.from_json, doc), outcome(naive_environment_from_json, doc)
    assert got_env == expected_env
    if isinstance(expected_env, Environment):
        assert_same_graph(got_env.graph, expected_env.graph)
        assert json.dumps(got_env.to_json(), sort_keys=True) == json.dumps(expected_env.to_json(), sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(map_documents())
def test_map_reader_matches_the_two_stage_oracle(named_doc):
    name, doc = named_doc
    source = COVERS[name][0].graph
    got, expected = outcome(GraphMap.from_json, doc, source), outcome(naive_map_from_json, doc, source)
    assert got == expected
    if isinstance(expected, GraphMap):
        assert json.dumps(got.to_json()) == json.dumps(naive_map_to_json(expected))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write(directory, name, payload):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(COVERS)), st.sampled_from(["base", "cover", "map"]), st.data())
def test_every_subcommand_exits_cleanly(name, target, data):
    cover, projection = COVERS[name]
    docs = {"base": ENVIRONMENTS[name].to_json(), "cover": cover.to_json(), "map": projection.to_json()}
    docs[target] = data.draw(mutated(docs[target]))
    other = ENVIRONMENTS[name].to_json()
    with tempfile.TemporaryDirectory() as directory:
        base, cover, mapping = (write(directory, f"{key}.json", docs[key]) for key in ("base", "cover", "map"))
        other = write(directory, "other.json", other)
        signal = write(directory, "signal.json", SIGNAL)
        for env in (base, cover):
            for argv in (
                ["trace", env, signal],
                ["bisim", env, other],
                ["equiv", env, other, "--max-len", "2", "--random", "2"],
                ["gen-cyclic", env, "3", "--seed", "1"],
                ["gen-universal", env, "3/2"],
            ):
                code, out, err = run(argv)
                assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, code, err)
        for argv in (["check-cover", mapping, cover, base], ["lift", mapping, cover, base, signal]):
            code, out, err = run(argv)
            assert code in (0, 1, 2, 3) and "Traceback" not in err, (argv, code, err)


def unit_path(lengths):
    """A document of the path v0 - v1 - ... with these wire lengths."""
    n = len(lengths) + 1
    return {
        "vertices": [f"v{i}" for i in range(n)],
        "edges": [
            {"tail": f"v{i}", "head": f"v{i + 1}", "port_at_tail": 1 if i else 0, "port_at_head": 0, "length": length}
            for i, length in enumerate(lengths)
        ],
    }


@pytest.mark.parametrize(
    "lengths, message",
    [
        ([[1, 1], [0, 1]], "edge 1 has non-positive length 0"),
        ([[1, 1], [1, 1], [-1, 2]], "edge 2 has non-positive length -1/2"),
        ([[2, 1], [2, 1], [2, -1]], "edge 2 has non-positive length -2"),
    ],
)
def test_every_edge_length_is_checked(lengths, message):
    """Edges that share one length object are checked once, and a later
    edge with a length of its own still is."""
    doc = unit_path(lengths)
    for reader in (PortedGraph.from_json, naive_graph_from_json):
        with pytest.raises(ValidationError) as refused:
            reader(doc)
        assert str(refused.value) == message


@pytest.mark.parametrize(
    "second, message",
    [
        ({"edge": 0, "offset": 1.5, "label": "b"}, "bad rational on the wire: 1.5"),
        ({"edge": 0, "offset": [1, 0], "label": "b"}, "zero denominator"),
        ({"edge": 0, "offset": [1, 2]}, "bad beam sensor JSON"),
        ({"edge": 0, "offset": [1, 2], "label": "b"}, "bad beam mark: ('0', Fraction(1, 3), 'a')"),
    ],
)
def test_beam_reader_reads_every_mark_before_refusing_an_edge(second, message):
    """A mark on edge "0" (a string) is refused only after every mark's
    fields and wire offset have been read, as the BeamSensor constructor
    refuses it after the list of rows was built."""
    doc = {"type": "beam", "marks": [{"edge": "0", "offset": [1, 3], "label": "a"}, second]}
    for reader in (sensor_from_json, naive_sensor_from_json):
        with pytest.raises(ValidationError) as refused:
            reader(doc)
        assert str(refused.value).startswith(message)


def test_lengths_compare_per_edge_when_length_objects_are_shared():
    """The 6-cycle read from JSON shares one length object; the doubling map
    onto a triangle with one edge of length 2 changes the length of the two
    edges over it, though the edges before them compared equal."""
    six = Environment.from_json(
        {
            "vertices": [f"v{i}" for i in range(6)],
            "edges": [
                {"tail": f"v{i}", "head": f"v{(i + 1) % 6}", "port_at_tail": 1, "port_at_head": 0, "length": [1, 1]}
                for i in range(6)
            ],
            "initial": "v0",
            "sensor": {"type": "degree"},
        }
    )
    triangle = Environment(
        PortedGraph(
            ["x0", "x1", "x2"],
            [("x0", "x1", 1, 0, 1), ("x1", "x2", 1, 0, 1), ("x2", "x0", 1, 0, 2)],
        ),
        "x0",
        six.sensor,
        2,
    )
    f = GraphMap.from_vertex_map(six.graph, {f"v{i}": f"x{i % 3}" for i in range(6)})
    got = verify_covering(f, six, triangle)
    assert got == naive_verify_covering(f, six, triangle)
    assert not got.lengths_preserved
    assert got.failures == ("dart Dart(vertex='v2', port=1) changes length",)


def test_map_document_orders_names_as_printed():
    """Integer and string names sort by their printed form, ties in map
    order, as the key-function oracle sorts them; string names alone sort
    as they are."""
    mixed = GraphMap(
        {10: 1, "1": 9, 9: "1", 1: 10},
        {(10, 1): (1, 0), ("1", 0): (9, 1), (1, 0): (10, 0), (9, 2): ("1", 0), (1, 1): (10, 1)},
    )
    named = GraphMap({"b": "a", "a10": "a", "a9": "b"}, {("b", 1): ("a", 0), ("a9", 0): ("b", 0), ("a10", 0): ("a", 1)})
    for f in (mixed, named):
        assert json.dumps(f.to_json()) == json.dumps(naive_map_to_json(f))
    assert [src for src, _ in mixed.to_json()["vertex_map"]] == ["1", 1, 10, 9]


def test_label_sensor_orders_names_as_printed():
    """Vertex labels sort by printed name, names that print alike (1 and
    "1") in the order given; string names alone sort as they are."""
    for order in ([(10, "a"), ("1", "b"), (9, "c"), (1, "d")], [(1, "d"), (9, "c"), ("1", "b"), (10, "a")]):
        sensor = LabelSensor(order, [])
        assert sensor.vertex_labels == tuple(sorted(order, key=lambda kv: str(kv[0])))
    assert LabelSensor([(1, "d"), ("1", "b")], []).vertex_labels == ((1, "d"), ("1", "b"))
    assert LabelSensor({"1": "b", 1: "d"}, []).vertex_labels == (("1", "b"), (1, "d"))
    named = LabelSensor({"b": 0, "a9": 1, "a10": 2}, [])
    assert named.to_json()["vertex_labels"] == [["a10", 2], ["a9", 1], ["b", 0]]


def two_vertices(sensor):
    """A document of one unit edge a - b read by sensor."""
    return {
        "vertices": ["a", "b"],
        "edges": [{"tail": "a", "head": "b", "port_at_tail": 0, "port_at_head": 0, "length": [1, 1]}],
        "initial": "a",
        "sensor": sensor,
    }


@pytest.mark.parametrize(
    "vertex_map",
    [["aa", "bb"], [["a", "a"], "bb"], [["a", "a"], ["b", "b", "b"]], [["a", "a"], ["b"]], "ab"],
)
def test_map_entries_must_be_pairs(tmp_path, vertex_map):
    """A vertex_map entry that is not an array of two is refused, though a
    2-character string unpacks as a pair: ["aa", "bb"] on vertices a and b
    would read as the identity map."""
    doc = {"vertex_map": vertex_map}
    graph = PortedGraph.from_json(two_vertices({"type": "degree"}))
    for reader in (GraphMap.from_json, naive_map_from_json):
        with pytest.raises(ValidationError, match=r"is not a \[key, value\] pair|bad graph map JSON"):
            reader(doc, graph)
    env = write(tmp_path, "env.json", two_vertices({"type": "degree"}))
    mapping = write(tmp_path, "map.json", doc)
    code, out, err = run(["check-cover", mapping, env, env])
    assert (code, out) == (2, "") and "bad graph map JSON" in err


LABEL = {"type": "label", "vertex_labels": [["a", "1"], ["b", "1"]], "edge_labels": ["1"]}


@pytest.mark.parametrize(
    "sensor",
    [
        {**LABEL, "vertex_labels": ["a0", "b1"]},
        {**LABEL, "vertex_labels": [["a", "0"], "b1"]},
        {**LABEL, "vertex_labels": [["a", "0"], ["b", "1", "2"]]},
        {**LABEL, "edge_labels": "x"},
        {**LABEL, "edge_labels": {"x": 0}},
        {"type": "filtered", "base": LABEL, "relabel": ["1x"]},
        {"type": "filtered", "base": LABEL, "relabel": {"1x": 0}},
        {"type": "filtered", "base": LABEL, "relabel": [["1", "x", "y"]]},
    ],
)
def test_sensor_entries_must_be_pairs_and_edge_labels_an_array(tmp_path, sensor):
    """Label pairs and relabel pairs must be arrays of two and edge_labels an
    array; read as iterables, each document here would load, with its
    strings or object keys split into labels."""
    for reader in (sensor_from_json, naive_sensor_from_json):
        with pytest.raises(ValidationError, match="^bad (label|filtered) sensor JSON"):
            reader(sensor)
    env = write(tmp_path, "env.json", two_vertices(sensor))
    signal = write(tmp_path, "signal.json", SIGNAL)
    code, out, err = run(["trace", env, signal])
    assert (code, out) == (2, "") and "sensor JSON" in err
