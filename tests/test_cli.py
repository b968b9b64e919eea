"""Command line surface: frozen outputs, exit codes, file round trips."""
from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

from fractions import Fraction

import pytest

from covertrace import (
    BLANK,
    EDGE,
    BeamMark,
    BeamSensor,
    DegreeSensor,
    Environment,
    FilteredSensor,
    LabelSensor,
    PortedGraph,
    ValidationError,
    build_edges,
    cli,
    cyclic_cover,
)
from covertrace.dot import environment_to_dot, graph_to_dot
from covertrace.gallery import GALLERY
from covertrace.generate import random_beam_sensor, random_ported_graph, random_voltages

from helpers import WireReadings, marked_cycle_env, path_middle_env, three_cycle_env


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def identity_map_json(first_dart_entry):
    """The identity map of the three-cycle as JSON, with the first dart_map
    entry replaced."""
    darts = [[[v, p], [v, p]] for v in ("x0", "x1", "x2") for p in (0, 1)]
    darts[0] = first_dart_entry
    return {"vertex_map": [[v, v] for v in ("x0", "x1", "x2")], "dart_map": darts}


@pytest.fixture
def env_file(tmp_path):
    return write_json(tmp_path / "env.json", three_cycle_env().to_json())


@pytest.fixture
def gallery_dir(tmp_path, capsys):
    out = tmp_path / "gallery"
    code, _, _ = run(capsys, ["gallery", "--out", str(out)])
    assert code == 0
    return out


class TestSignalCommands:
    def test_trace_frozen(self, capsys, tmp_path, env_file):
        sig = write_json(tmp_path / "sig.json", [[0, 1, 1]])
        code, out, err = run(capsys, ["trace", env_file, sig])
        assert code == 0
        data = json.loads(out)
        assert data == {
            "duration": [1, 1],
            "events": [
                {"time": [0, 1], "value": 2},
                {"time": [1, 1], "value": 2},
            ],
            "segments": [{"from": [0, 1], "to": [1, 1], "value": "edge"}],
        }

    def test_trace_meets_an_asymmetric_mark_against_its_edge(self, capsys, tmp_path):
        """One unit edge a -> b with a mark at 1/3 from a, walked from b:
        the mark is met at 2/3, not at 1/3."""
        env = {
            "vertices": ["a", "b"],
            "edges": [{"tail": "a", "head": "b", "port_at_tail": 0, "port_at_head": 0, "length": [1, 1]}],
            "initial": "b",
            "sensor": {"type": "beam", "marks": [{"edge": 0, "offset": [1, 3], "label": "red"}]},
        }
        sig = write_json(tmp_path / "sig.json", [[0, 1, 1]])
        code, out, _ = run(capsys, ["trace", write_json(tmp_path / "env.json", env), sig])
        assert code == 0
        assert json.loads(out)["events"] == [
            {"time": [2, 3], "value": "red"},
            {"time": [1, 1], "value": BLANK},
        ]

    def test_trace_waits_on_a_port_past_the_width(self, capsys, tmp_path, gallery_dir):
        """circle_a at alphabet width 1: port 1 exists at x0 but is not an
        action, so the robot rests at x0 and reads its degree throughout."""
        env = json.loads((gallery_dir / "circle_a.json").read_text())
        env["alphabet_width"] = 1
        sig = write_json(tmp_path / "sig.json", [[1, 3, 2]])
        code, out, _ = run(capsys, ["trace", write_json(tmp_path / "env.json", env), sig])
        assert code == 0
        assert out == (
            '{"duration": [3, 2], "events": [{"time": [3, 2], "value": 2}], '
            '"segments": [{"from": [0, 1], "to": [3, 2], "value": 2}]}\n'
        )

    def test_metric_frozen(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", [[0, 2, 1]])
        b = write_json(tmp_path / "b.json", [[1, 4, 1]])
        code, out, _ = run(capsys, ["metric", a, b])
        assert code == 0
        assert json.loads(out) == {"distance": [4, 1]}

    def test_geodesic_midpoint(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", [[0, 2, 1]])
        b = write_json(tmp_path / "b.json", [[1, 4, 1]])
        code, out, _ = run(capsys, ["geodesic", a, b, "--at", "1/2"])
        assert code == 0
        assert json.loads(out) == [[1, 1, 1], [0, 1, 1], [1, 1, 1]]

    def test_wire_pieces_merge_and_reduce(self, capsys, tmp_path):
        """Equal neighbours merge and unreduced pairs reduce on reading: a
        is 0 for 1 then 1 for 1, b is halt for 3/2; a is the longer, so
        the point at 1/3 is a on [0, 1), b on [1, 3/2), then 1/3 of a's
        overhang."""
        a = write_json(tmp_path / "a.json", [[0, 2, 4], [0, 1, 2], [1, 3, 3]])
        b = write_json(tmp_path / "b.json", [["halt", 6, 4]])
        code, out, _ = run(capsys, ["geodesic", a, b, "--at", "1/3"])
        assert (code, out) == (0, '[[0, 1, 1], ["halt", 1, 2], [1, 1, 3]]\n')
        code, out, _ = run(capsys, ["metric", a, b])
        assert (code, out) == (0, '{"distance": [2, 1]}\n')

    def test_bad_signal_exits_2_with_its_message(self, capsys, tmp_path, env_file):
        signal = write_json(tmp_path / "sig.json", [[0, 1, 2], [0, 3, 0]])
        for argv in (["trace", env_file, signal], ["metric", signal, signal]):
            assert run(capsys, argv) == (2, "", "invalid input: zero denominator\n")

    def test_geodesic_endpoints(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", [[0, 2, 1]])
        b = write_json(tmp_path / "b.json", [[1, 4, 1]])
        assert json.loads(run(capsys, ["geodesic", a, b, "--at", "0"])[1]) == [[0, 2, 1]]
        assert json.loads(run(capsys, ["geodesic", a, b, "--at", "1"])[1]) == [[1, 4, 1]]

    def test_geodesic_out_of_range(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", [[0, 2, 1]])
        b = write_json(tmp_path / "b.json", [[1, 4, 1]])
        code, _, err = run(capsys, ["geodesic", a, b, "--at", "3/2"])
        assert code == 3
        assert err.strip()

    def test_bad_rational_rejected(self, capsys, tmp_path):
        a = write_json(tmp_path / "a.json", [[0, 2, 1]])
        code, _, _ = run(capsys, ["geodesic", a, a, "--at", "half"])
        assert code == 2


class TestVerdictCommands:
    def test_bisim_related_pair(self, capsys, gallery_dir):
        code, out, _ = run(
            capsys,
            ["bisim", str(gallery_dir / "circle_a.json"), str(gallery_dir / "circle_b.json")],
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "related"
        assert len(data["relation"]) == 18
        assert data["stats"]["states"] == 9

    @pytest.mark.parametrize("pair", sorted(GALLERY))
    def test_bisim_at_the_widest_alphabet_reads_as_port_m_plus_one(self, capsys, tmp_path, gallery_dir, pair):
        """At alphabet_width sys.maxsize bisim prints what it prints at width
        M + 1, M the larger maximum degree, and takes well under a second:
        every port from M on rests at every vertex, as port M does."""
        docs = [json.loads((gallery_dir / f"{pair}_{side}.json").read_text()) for side in "ab"]
        top = max(Environment.from_json(doc).graph.max_degree() for doc in docs)
        outputs = []
        for width in (top + 1, sys.maxsize):
            paths = [
                write_json(tmp_path / f"{width}_{side}.json", {**doc, "alphabet_width": width})
                for side, doc in zip("ab", docs)
            ]
            start = time.perf_counter()
            outputs.append(run(capsys, ["bisim", *paths]))
            assert time.perf_counter() - start < 1
        assert outputs[0][0] in (0, 1)
        assert outputs[1] == outputs[0]

    def test_bisim_note_counts_unit_actions(self, capsys, tmp_path):
        """Marked 5- and 6-cycles are told apart only by walking once round
        the 5-cycle: five port-0 actions, one merged piece on the wire.  The
        note counts the actions."""
        a = write_json(tmp_path / "c5.json", marked_cycle_env(5).to_json())
        b = write_json(tmp_path / "c6.json", marked_cycle_env(6).to_json())
        code, out, err = run(capsys, ["bisim", a, b])
        assert code == 1
        data = json.loads(out)
        assert (data["witness"], data["divergence"]) == ([[0, 5, 1]], [5, 1])
        assert err == "distinguished by a 5-action signal at t = 5\n"

    def test_distinguish_crossing(self, capsys, gallery_dir):
        code, out, _ = run(
            capsys,
            [
                "distinguish",
                str(gallery_dir / "crossing_a.json"),
                str(gallery_dir / "crossing_b.json"),
            ],
        )
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "distinguished"
        assert data["witness"] == [[0, 1, 1]]
        assert data["divergence"] == [1, 1]

    @pytest.mark.parametrize("pair", sorted(GALLERY))
    def test_sampled_search_at_the_widest_alphabet_reads_as_port_m_plus_one(
        self, capsys, tmp_path, gallery_dir, pair
    ):
        """At alphabet_width sys.maxsize the discrete search of distinguish
        and equiv prints what it prints at width M + 1, M the larger maximum
        degree, signals_checked included: every port from M on moves like
        port M, so the search lists no port above it.  The random phase
        draws its symbols without listing the alphabet, so equiv with
        random signals finishes too."""
        docs = [json.loads((gallery_dir / f"{pair}_{side}.json").read_text()) for side in "ab"]
        top = max(Environment.from_json(doc).graph.max_degree() for doc in docs)
        outputs = []
        for width in (top + 1, sys.maxsize):
            paths = [
                write_json(tmp_path / f"{width}_{side}.json", {**doc, "alphabet_width": width})
                for side, doc in zip("ab", docs)
            ]
            start = time.perf_counter()
            outputs.append([run(capsys, [command, *paths, "--random", "0"]) for command in ("distinguish", "equiv")])
            code, out, _ = run(capsys, ["equiv", *paths, "--random", "20"])
            assert time.perf_counter() - start < 2
            assert code in (0, 1) and json.loads(out)["stats"]["random_checked"] <= 20
        assert all(code in (0, 1) for code, _, _ in outputs[0])
        assert outputs[1] == outputs[0]

    @pytest.mark.parametrize("pair, checked", [("circle", 26974), ("kite", 22483)])
    def test_distinguish_searches_deeper_than_the_recursion_limit(
        self, capsys, gallery_dir, pair, checked
    ):
        """1500 pieces is deeper than Python's default recursion limit of
        1000; the search keeps its frames on an explicit stack, so both
        related pairs still come back related."""
        first, second = (str(gallery_dir / f"{pair}_{side}.json") for side in "ab")
        code, out, _ = run(capsys, ["distinguish", first, second, "--max-len", "1500"])
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "related"
        assert data["stats"] == {"horizon": 1500, "random_checked": 0, "signals_checked": checked}

    def test_equiv_finds_kite_counterexample(self, capsys, gallery_dir):
        code, out, _ = run(
            capsys,
            [
                "equiv",
                str(gallery_dir / "kite_a.json"),
                str(gallery_dir / "kite_b.json"),
                "--max-len", "6", "--random", "200", "--seed", "0",
            ],
        )
        assert code == 1
        data = json.loads(out)
        assert data["verdict"] == "distinguished"
        assert data["witness"]

    def test_equiv_passes_cover_pair(self, capsys, gallery_dir):
        code, out, _ = run(
            capsys,
            [
                "equiv",
                str(gallery_dir / "circle_a.json"),
                str(gallery_dir / "circle_b.json"),
                "--max-len", "5", "--random", "50",
            ],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "related"

    @pytest.mark.parametrize("command", ["equiv", "distinguish"])
    @pytest.mark.parametrize("budget", [["--max-len", "-1"], ["--random", "-3"]])
    def test_negative_budgets_exit_2(self, capsys, tmp_path, gallery_dir, command, budget):
        """Both a related pair and a pair that bisim distinguishes are
        refused, with no verdict on stdout."""
        a = write_json(tmp_path / "c4.json", marked_cycle_env(4).to_json())
        b = write_json(tmp_path / "c5.json", marked_cycle_env(5).to_json())
        circle = [str(gallery_dir / "circle_a.json"), str(gallery_dir / "circle_b.json")]
        for pair in (circle, [a, b]):
            code, out, err = run(capsys, [command, *pair, *budget])
            assert (code, out) == (2, "")
            assert "budgets must be at least 0" in err

    def test_malformed_file_exits_2(self, capsys, tmp_path, env_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, ["bisim", str(bad), env_file])
        assert code == 2
        assert err.strip()

    def test_missing_file_exits_2(self, capsys, tmp_path, env_file):
        code, _, _ = run(capsys, ["bisim", str(tmp_path / "void.json"), env_file])
        assert code == 2

    @pytest.mark.parametrize("loader", ["signal", "environment", "vertices", "map"])
    def test_deeply_nested_document_exits_2(self, capsys, tmp_path, env_file, loader):
        """Arrays nested 100000 deep overrun the decoder's recursion limit;
        each loader refuses the file as invalid input (exit 2), where a
        traceback would exit 1 and read as "distinguished"."""
        nest = "[" * 100000 + "]" * 100000
        deep = tmp_path / "deep.json"
        if loader == "vertices":
            text = json.dumps({**three_cycle_env().to_json(), "vertices": "X"})
            deep.write_text(text.replace('"X"', nest))
        else:
            deep.write_text(nest)
        argv = {
            "signal": ["metric", str(deep), str(deep)],
            "environment": ["trace", str(deep), env_file],
            "vertices": ["bisim", str(deep), env_file],
            "map": ["check-cover", str(deep), env_file, env_file],
        }[loader]
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"invalid input: {deep} is nested too deeply to read: ")
        assert "recursion" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "patch",
        [
            {"vertices": [["a"]], "edges": [], "initial": ["a"]},
            {"initial": ["x0"]},
            {"edges": [{"tail": ["x0"], "head": "x1", "port_at_tail": 0,
                        "port_at_head": 0, "length": [1, 1]}]},
            {"edges": [{"tail": "x0", "head": "x1", "port_at_tail": [0],
                        "port_at_head": 0, "length": [1, 1]}]},
            {"sensor": {"type": "beam",
                        "marks": [{"edge": "0", "offset": [1, 2], "label": "m"}]}},
            {"sensor": {"type": "beam",
                        "marks": [{"edge": True, "offset": [1, 2], "label": "m"}]}},
            {"sensor": {"type": "beam", "marks": [[0, [1, 2], "m"]]}},
            {"sensor": {"type": "beam", "marks": 5}},
            {"sensor": {"type": "filtered", "base": {"type": "degree"},
                        "relabel": [[["x"], 1]]}},
        ],
        ids=["vertex", "initial", "edge-tail", "edge-port-list", "beam-edge-str", "beam-edge-bool",
             "beam-mark-list", "beam-marks-int", "relabel-list"],
    )
    def test_non_scalar_vertex_names_exit_2(self, capsys, tmp_path, patch):
        payload = {**three_cycle_env().to_json(), **patch}
        env = write_json(tmp_path / "env.json", payload)
        signal = write_json(tmp_path / "sig.json", [[0, 1, 1]])
        code, _, err = run(capsys, ["trace", env, signal])
        assert code == 2
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "make_env, sensor, missing",
        [
            (three_cycle_env, FilteredSensor(DegreeSensor(), {2: "two"}), [EDGE]),
            (path_middle_env, FilteredSensor(DegreeSensor(), {1: "leaf", EDGE: "e"}), [2]),
            (
                three_cycle_env,
                FilteredSensor(
                    LabelSensor({"x0": 0, "x1": 1, "x2": 2}, (5, 6, 7)),
                    {0: "a", 1: "a", 2: "b", 5: "e", 6: "e"},
                ),
                [7],
            ),
            (
                three_cycle_env,
                FilteredSensor(BeamSensor((BeamMark(1, Fraction(1, 3), "b"),)), {"b": 1}),
                [BLANK],
            ),
            (
                three_cycle_env,
                FilteredSensor(BeamSensor((BeamMark(1, Fraction(1, 3), "b"),)), {BLANK: 0}),
                ["b"],
            ),
            (
                three_cycle_env,
                FilteredSensor(FilteredSensor(DegreeSensor(), {2: "v", EDGE: "e"}), {"v": 1}),
                ["e"],
            ),
            (
                three_cycle_env,
                FilteredSensor(LabelSensor({"x0": "a", "x1": "b", "x2": "c"}, "def"), {}),
                ["a", "b", "c", "d", "e", "f"],
            ),
        ],
        ids=["degree-edge", "degree-degree", "label-edge-label", "beam-blank", "beam-mark",
             "filter-over-filter", "label-all-missing"],
    )
    def test_relabelling_not_total_exits_2(self, capsys, tmp_path, make_env, sensor, missing):
        """A relabelling must cover every reading of its base on the graph:
        vertex values, edge interiors and beam marks.  The missing readings
        are listed in order of first appearance: vertices in graph order,
        then edge interiors, then marks."""
        env = make_env()
        with pytest.raises(ValidationError, match="not total"):
            Environment(env.graph, env.initial, sensor, env.alphabet_width)
        payload = write_json(tmp_path / "env.json", {**env.to_json(), "sensor": sensor.to_json()})
        signal = write_json(tmp_path / "sig.json", [[0, 1, 1]])
        code, out, err = run(capsys, ["trace", payload, signal])
        assert (code, out) == (2, "")
        assert f"relabelling not total, missing {missing!r}" in err

    @pytest.mark.parametrize("command", ["bisim", "equiv", "distinguish"])
    def test_alphabet_width_above_maxsize_exits_2(self, capsys, tmp_path, gallery_dir, command):
        """A width whose action range cannot be built is refused before any
        command starts on it."""
        wide = []
        for tag in ("a", "b"):
            payload = json.loads((gallery_dir / f"circle_{tag}.json").read_text())
            payload["alphabet_width"] = 10**30
            wide.append(write_json(tmp_path / f"wide_{tag}.json", payload))
        code, out, err = run(capsys, [command, *wide])
        assert (code, out) == (2, "")
        assert "alphabet_width must be an integer" in err

    def test_non_unit_lengths_exit_3(self, capsys, tmp_path):
        payload = three_cycle_env().to_json()
        payload["edges"][0]["length"] = [3, 2]
        stretched = write_json(tmp_path / "s.json", payload)
        code, _, _ = run(capsys, ["bisim", stretched, stretched])
        assert code == 3


class TestCoverCommands:
    def test_cyclic_then_check_round_trip(self, capsys, tmp_path, env_file):
        code, out, _ = run(capsys, ["gen-cyclic", env_file, "2", "--voltages", "1,1,1"])
        assert code == 0
        bundle = json.loads(out)
        assert bundle["voltages"] == [1, 1, 1]
        assert len(bundle["environment"]["vertices"]) == 6
        cover = write_json(tmp_path / "cover.json", bundle["environment"])
        mapping = write_json(tmp_path / "map.json", bundle["projection"])
        code, out, _ = run(capsys, ["check-cover", mapping, cover, env_file])
        assert code == 0
        assert json.loads(out)["covering"] is True

    @pytest.mark.parametrize(
        "mapping",
        [
            {"vertex_map": 5},
            {"vertex_map": [["x0", "x0"], ["x1", "x1"], ["x2", "x2"]], "dart_map": 5},
            {"vertex_map": []},
            {"vertex_map": [["x0", "x0"], ["x1", "x1"], ["x2", "x2"]],
             "dart_map": [[["x0", 0], ["x0", 0]]]},
            identity_map_json([[["x0"], 0], ["x0", 0]]),
            identity_map_json([["x0", 0], [["x0"], 0]]),
            {"vertex_map": [["x0", ["x0"]], ["x1", "x1"], ["x2", "x2"]]},
            identity_map_json([["x0", 0], ["x0", False]]),
        ],
        ids=[
            "vertex-map-int",
            "dart-map-int",
            "vertex-map-partial",
            "dart-map-partial",
            "dart-source-list-vertex",
            "dart-image-list-vertex",
            "vertex-image-list",
            "dart-port-bool",
        ],
    )
    def test_malformed_map_exits_2(self, capsys, tmp_path, env_file, mapping):
        bad = write_json(tmp_path / "map.json", mapping)
        code, _, err = run(capsys, ["check-cover", bad, env_file, env_file])
        assert code == 2
        assert "Traceback" not in err

    @staticmethod
    def integer_path_on_cycle(tmp_path, names=(10, 11, 12, 13)):
        """A path of four vertices wound onto the 3-cycle 0, 1, 2: the stars
        at the two ends have one dart instead of two."""
        a, b, c, d = names
        path = PortedGraph(list(names), build_edges([(a, b, 0, 1), (b, c, 0, 1), (c, d, 0, 0)]))
        cycle = PortedGraph([0, 1, 2], build_edges([(0, 1, 0, 1), (1, 2, 0, 1), (2, 0, 0, 1)]))
        src = write_json(tmp_path / "path.json", Environment(path, a, DegreeSensor(), 2).to_json())
        dst = write_json(tmp_path / "cycle.json", Environment(cycle, 0, DegreeSensor(), 2).to_json())
        darts = [(a, 0, 0, 0), (b, 0, 1, 0), (b, 1, 1, 1), (c, 0, 2, 0), (c, 1, 2, 1), (d, 0, 0, 1)]
        mapping = write_json(
            tmp_path / "map.json",
            {
                "vertex_map": [[a, 0], [b, 1], [c, 2], [d, 0]],
                "dart_map": [[[v, p], [w, q]] for v, p, w, q in darts],
            },
        )
        return mapping, src, dst

    def test_skip_star_names_integer_vertices(self, capsys, tmp_path):
        files = self.integer_path_on_cycle(tmp_path)
        code, out, _ = run(capsys, ["check-cover", *files])
        assert code == 1
        assert json.loads(out)["conditions"]["local_bijection"] is False
        code, out, _ = run(capsys, ["check-cover", *files, "--skip-star", "10", "--skip-star", "13"])
        assert code == 0
        assert json.loads(out)["covering"] is True

    def test_skip_star_unknown_vertex_exits_2(self, capsys, tmp_path):
        files = self.integer_path_on_cycle(tmp_path)
        code, out, err = run(capsys, ["check-cover", *files, "--skip-star", "10", "--skip-star", "14"])
        assert (code, out) == (2, "")
        assert "--skip-star 14" in err

    def test_skip_star_ambiguous_name_exits_2(self, capsys, tmp_path):
        files = self.integer_path_on_cycle(tmp_path, names=(1, "1", 2, 3))
        code, out, _ = run(capsys, ["check-cover", *files, "--skip-star", "3", "--skip-star", "2"])
        assert code == 1
        code, out, err = run(capsys, ["check-cover", *files, "--skip-star", "1"])
        assert (code, out) == (2, "")
        assert "--skip-star 1 is ambiguous" in err

    def test_check_cover_negative_exits_1(self, capsys, tmp_path):
        from covertrace import DegreeSensor, PortedGraph, build_edges

        theta = PortedGraph(
            ["u", "v"],
            build_edges([("u", "v", 0, 0), ("u", "v", 1, 1), ("u", "v", 2, 2)]),
        )
        digon = PortedGraph(["u", "v"], build_edges([("u", "v", 0, 0), ("u", "v", 1, 1)]))
        src = write_json(
            tmp_path / "theta.json",
            Environment(theta, "u", DegreeSensor(), 3).to_json(),
        )
        dst = write_json(
            tmp_path / "digon.json",
            Environment(digon, "u", DegreeSensor(), 3).to_json(),
        )
        collapse = write_json(
            tmp_path / "collapse.json",
            {
                "vertex_map": [["u", "u"], ["v", "v"]],
                "dart_map": [
                    [["u", 0], ["u", 0]],
                    [["v", 0], ["v", 0]],
                    [["u", 1], ["u", 1]],
                    [["v", 1], ["v", 1]],
                    [["u", 2], ["u", 1]],
                    [["v", 2], ["v", 1]],
                ],
            },
        )
        code, out, _ = run(capsys, ["check-cover", collapse, src, dst])
        assert code == 1
        data = json.loads(out)
        assert data["covering"] is False
        assert data["conditions"]["local_bijection"] is False

    def test_gen_cyclic_huge_order_builds_only_the_component(self, gallery_dir):
        """Zero voltages keep one copy of the base whatever k is; building
        it must not walk the k copies."""
        proc = subprocess.run(
            [
                sys.executable, "-m", "covertrace.cli", "gen-cyclic",
                str(gallery_dir / "circle_a.json"), str(10**12), "--voltages", "0,0,0",
            ],
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["environment"]["vertices"] == ["x0@0", "x1@0", "x2@0"]

    def test_gen_cyclic_names_a_cover_name_clash(self, capsys, tmp_path):
        """Base vertices 1 and "1" both print as 1: their copies clash only
        when the component holds both at one index."""
        graph = PortedGraph([1, "1"], build_edges([(1, "1", 0, 0)]))
        base = write_json(tmp_path / "base.json", Environment(graph, 1, DegreeSensor()).to_json())
        code, out, err = run(capsys, ["gen-cyclic", base, "2", "--voltages", "0"])
        assert (code, out) == (2, "")
        assert "cover vertex '1@0' would stand for both base vertices 1 and '1'" in err
        code, out, _ = run(capsys, ["gen-cyclic", base, "2", "--voltages", "1"])
        assert code == 0
        assert json.loads(out)["environment"]["vertices"] == ["1@0", "1@1"]

    @pytest.mark.parametrize("command", ["check-cover", "lift"])
    @pytest.mark.parametrize(
        "mapping, message",
        [
            (
                {
                    "vertex_map": [["x0", "x0"], ["x1", "x1"], ["x2", "x2"], ["x0", "x1"]],
                    "dart_map": identity_map_json([["x0", 0], ["x0", 0]])["dart_map"],
                },
                "vertex 'x0' is mapped twice",
            ),
            (
                {
                    "vertex_map": [["x0", "x0"], ["x1", "x1"], ["x2", "x2"]],
                    "dart_map": identity_map_json([["x0", 0], ["x0", 0]])["dart_map"]
                    + [[["x0", 0], ["x1", 0]]],
                },
                "dart Dart(vertex='x0', port=0) is mapped twice",
            ),
        ],
        ids=["vertex", "dart"],
    )
    def test_map_listing_a_source_twice_exits_2(self, capsys, tmp_path, env_file, command, mapping, message):
        bad = write_json(tmp_path / "map.json", mapping)
        sig = write_json(tmp_path / "sig.json", [[0, 1, 1]])
        argv = [command, bad, env_file, env_file] + ([sig] if command == "lift" else [])
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("command", ["check-cover", "lift"])
    def test_map_object_repeating_a_vertex_exits_2(self, capsys, tmp_path, env_file, command):
        """A vertex_map object that names x0 twice is refused like the list
        form, and a map object that names vertex_map twice is refused too:
        neither is read with its last value."""
        bad = tmp_path / "map.json"
        bad.write_text('{"vertex_map": {"x0": "x0", "x1": "x1", "x2": "x2", "x0": "x1"}}')
        sig = write_json(tmp_path / "sig.json", [[0, 1, 1]])
        argv = [command, str(bad), env_file, env_file] + ([sig] if command == "lift" else [])
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "vertex 'x0' is mapped twice" in err
        bad.write_text('{"vertex_map": [["x0", "x0"]], "vertex_map": {"x0": "x0", "x1": "x1", "x2": "x2"}}')
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert "names a key of the map object twice" in err
        bad.write_text('{"vertex_map": {"x0": "x0", "x1": "x1", "x2": "x2"}}')
        assert run(capsys, argv)[0] == 0

    def test_lift_opens_the_loop(self, capsys, tmp_path, env_file):
        _, out, _ = run(capsys, ["gen-cyclic", env_file, "2", "--voltages", "1,1,1"])
        bundle = json.loads(out)
        cover = write_json(tmp_path / "cover.json", bundle["environment"])
        mapping = write_json(tmp_path / "map.json", bundle["projection"])
        sig = write_json(tmp_path / "sig.json", [[0, 3, 1]])
        code, out, _ = run(capsys, ["lift", mapping, cover, env_file, sig])
        assert code == 0
        data = json.loads(out)
        assert data["duration"] == [3, 1]
        assert data["breakpoints"][-1] == {"state": {"vertex": "x0@1"}, "time": [3, 1]}

    def test_universal_truncation(self, capsys, env_file):
        code, out, _ = run(capsys, ["gen-universal", env_file, "2"])
        assert code == 0
        data = json.loads(out)
        assert len(data["environment"]["vertices"]) == 5
        assert len(data["boundary"]) == 2

    def test_universal_ball_checks_with_its_boundary_skipped(self, capsys, tmp_path, gallery_dir):
        base = str(gallery_dir / "crossing_a.json")
        code, out, _ = run(capsys, ["gen-universal", base, "5"])
        assert code == 0
        ball = json.loads(out)
        cover = write_json(tmp_path / "ball.json", ball["environment"])
        mapping = write_json(tmp_path / "ball_map.json", ball["projection"])
        skips = [arg for v in ball["boundary"] for arg in ("--skip-star", v)]
        assert skips
        code, out, _ = run(capsys, ["check-cover", mapping, cover, base, *skips])
        assert code == 0 and json.loads(out)["covering"] is True
        code, out, _ = run(capsys, ["check-cover", mapping, cover, base])
        assert code == 1 and json.loads(out)["covering"] is False

    def test_cyclic_cover_of_beams_checks(self, capsys, tmp_path, gallery_dir):
        base = str(gallery_dir / "beams_a.json")
        code, out, _ = run(capsys, ["gen-cyclic", base, "7"])
        assert code == 0
        bundle = json.loads(out)
        cover = write_json(tmp_path / "cover.json", bundle["environment"])
        mapping = write_json(tmp_path / "map.json", bundle["projection"])
        code, out, _ = run(capsys, ["check-cover", mapping, cover, base])
        assert code == 0 and json.loads(out)["covering"] is True


class TestGalleryCommand:
    def test_file_inventory(self, gallery_dir):
        names = sorted(p.name for p in gallery_dir.iterdir())
        expected = sorted(
            f"{name}_{side}.{ext}"
            for name in ("circle", "crossing", "beams", "kite")
            for side in "ab"
            for ext in ("json", "dot")
        )
        assert names == expected

    def test_round_trip_matches_builders(self, gallery_dir):
        for name, builder in GALLERY.items():
            a, b = builder()
            for side, env in (("a", a), ("b", b)):
                loaded = Environment.from_json(
                    json.loads((gallery_dir / f"{name}_{side}.json").read_text())
                )
                assert loaded == env

    def test_no_dot_flag(self, capsys, tmp_path):
        out = tmp_path / "plain"
        code, _, _ = run(capsys, ["gallery", "--out", str(out), "--no-dot"])
        assert code == 0
        assert all(p.suffix == ".json" for p in out.iterdir())
        assert len(list(out.iterdir())) == 8

    @pytest.mark.parametrize("under", [False, True], ids=["existing-file", "under-a-file"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, under):
        out = tmp_path / "taken"
        out.write_text("")
        target = str(out / "x") if under else str(out)
        code, stdout, err = run(capsys, ["gallery", "--out", target])
        assert (code, stdout) == (2, "")
        assert f"invalid input: cannot write the gallery to {target}" in err


def _subparsers(parser):
    """The subcommand name -> parser table of the full parser."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _command_line(name, sub, bad=None):
    """name's command line with every positional and required option set to
    "1", and the argument bad, if given, set to "x"."""
    argv = [name]
    for action in sub._actions:
        value = "x" if action is bad else "1"
        if not action.option_strings:
            argv.append(value)
        elif action.required or action is bad:
            argv += [action.option_strings[0], value]
    return argv


def _parse_cases():
    """Help and error command lines for every command (help, missing
    arguments, an unknown option, a bad int), plus the top level."""
    cases = [[], ["-h"], ["--version"], ["bogus"], ["bis"]]
    for name, sub in _subparsers(cli.build_parser()).items():
        cases += [[name, "-h"], [name], _command_line(name, sub) + ["--bogus"]]
        bad_int = next((a for a in sub._actions if a.type is int), None)
        if bad_int is not None:
            cases.append(_command_line(name, sub, bad_int))
    return cases


class TestDispatch:
    """main builds only the invoked command's parser, once per process;
    nothing it prints or returns may tell that apart from the full parser,
    and nothing one call parses carries over to the next."""

    @staticmethod
    def outcome(capsys, parse, argv):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("columns", ["80", "200"])
    @pytest.mark.parametrize("argv", _parse_cases(), ids=lambda argv: " ".join(argv) or "(none)")
    def test_narrowed_parsing_matches_full_parser(self, capsys, monkeypatch, columns, argv):
        monkeypatch.setenv("COLUMNS", columns)
        full = self.outcome(capsys, lambda a: cli.build_parser().parse_args(a), argv)
        assert self.outcome(capsys, cli.main, argv) == full

    def test_unknown_command_error_names_the_argument(self, capsys):
        """Only a narrowed parser gets a metavar, which would rename the
        argument in this error."""
        code, out, err = self.outcome(capsys, cli.main, ["bis"])
        assert (code, out) == (2, "")
        assert "covertrace: error: argument command: invalid choice: 'bis'" in err

    def test_builds_each_parser_once_per_process(self, capsys, monkeypatch, tmp_path, env_file):
        """From an empty cache: a command's first call builds the top-level
        parser and its own subparser, a repeated call builds none, and a
        first argument naming no command builds the full parser once."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(cli, "_PARSERS", {})
        sig = write_json(tmp_path / "sig.json", [[0, 1, 1]])

        def parsers_built(argv, expected_code):
            before = len(built)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            capsys.readouterr()
            assert code == expected_code
            return len(built) - before

        assert parsers_built(["bisim", env_file, env_file], 0) == 2
        assert parsers_built(["bisim", env_file, env_file], 0) == 0
        assert parsers_built(["metric", sig, sig], 0) == 2
        assert parsers_built([], 2) == 1 + len(cli._NAMES)
        assert parsers_built(["bogus"], 2) == 0
        assert parsers_built([], 2) == 0
        assert set(cli._PARSERS) == {None, "bisim", "metric"}

    def test_dispatches_to_the_current_handler(self, monkeypatch, capsys, env_file):
        """A handler rebound after import (as a tracer does) is the one
        called, through a parser built before it was rebound, and the
        original is called again once it is restored."""
        assert run(capsys, ["bisim", env_file, env_file])[0] == 0
        calls = []
        monkeypatch.setattr(cli, "cmd_bisim", lambda args: calls.append(args) or 7)
        assert cli.main(["bisim", "a.json", "b.json"]) == 7
        assert [(a.first, a.second) for a in calls] == [("a.json", "b.json")]
        monkeypatch.undo()
        code, out, _ = run(capsys, ["bisim", env_file, env_file])
        assert (code, json.loads(out)["verdict"]) == (0, "related")
        assert len(calls) == 1

    def test_skip_star_does_not_carry_over(self, capsys, tmp_path):
        """The --skip-star list of one call is not the default of the next."""
        files = TestCoverCommands.integer_path_on_cycle(tmp_path)
        code, _, _ = run(capsys, ["check-cover", *files, "--skip-star", "10", "--skip-star", "13"])
        assert code == 0
        code, out, _ = run(capsys, ["check-cover", *files])
        assert code == 1
        assert json.loads(out)["covering"] is False

    @pytest.mark.parametrize("pair, notes", [
        ("circle", {"equiv": "no divergence found (sampled check only)",
                    "distinguish": "no witness up to length 6"}),
        ("crossing", {"equiv": "distinguished at t = 1",
                      "distinguish": "witness found, divergence at t = 1"}),
    ])
    def test_equiv_and_distinguish_keep_their_notes(self, capsys, gallery_dir, pair, notes):
        """The two commands share a handler; each call reads its own
        command's defaults and notes, whichever ran before."""
        files = [str(gallery_dir / f"{pair}_{side}.json") for side in "ab"]
        for command in ("equiv", "distinguish", "equiv"):
            _, _, err = run(capsys, [command, *files])
            assert err == notes[command] + "\n"

    def test_parse_error_leaves_no_trace(self, capsys, gallery_dir):
        """A call that argparse refuses, then a valid call: the valid call
        prints and returns what it does in a fresh process."""
        files = [str(gallery_dir / f"circle_{side}.json") for side in "ab"]
        with pytest.raises(SystemExit) as exc:
            cli.main(["bisim", files[0]])
        assert exc.value.code == 2
        capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "covertrace.cli", "bisim", *files],
            capture_output=True,
            text=True,
        )
        assert run(capsys, ["bisim", *files]) == (fresh.returncode, fresh.stdout, fresh.stderr)


class TestDotExport:
    def test_vertices_that_print_alike_get_distinct_nodes(self):
        """1 and "1" are distinct vertices, and a DOT id drops the quotes
        that tell them apart; the label of "1" keeps its quotes."""
        graph = PortedGraph(
            [1, "1", 2], build_edges([(1, "1", 0, 1), ("1", 2, 0, 1), (2, 1, 0, 1)])
        )
        lines = graph_to_dot(graph).splitlines()[1:-1]
        nodes = [line.split()[0] for line in lines if " -- " not in line]
        edges = [line.split()[:3] for line in lines if " -- " in line]
        assert len(set(nodes)) == 3
        tail, _, head = edges[0]
        assert tail != head
        labels = [line.split("label=")[1] for line in lines[:3]]
        assert labels == ['"1"];', '"\\"1\\""];', '"2"];']

    def test_labels_show_the_readings_of_each_state(self):
        """Each node label ends with the vertex's reading and each edge
        label lists its interior reading (unless edge or blank) and its
        marks as label@pos, read off the sensor's wire form by
        WireReadings: gallery environments, their 3-fold covers and seeded
        beam environments, bare and behind a filter."""
        rng = random.Random(24)
        pool = [env for name in sorted(GALLERY) for env in GALLERY[name]()]
        pool += [cyclic_cover(env, 3, random_voltages(rng, env.graph, 3))[0] for env in list(pool)]
        for _ in range(20):
            graph = random_ported_graph(rng, n_max=6, extra_max=4, unit_lengths=False)
            beams = random_beam_sensor(rng, graph)
            relabel = {BLANK: "quiet", "red": "r", "green": "g"}
            for sensor in (beams, FilteredSensor(beams, relabel)):
                pool.append(Environment(graph, graph.vertices[0], sensor))
        for env in pool:
            graph = env.graph
            wire = WireReadings(graph, env.sensor)
            lines = environment_to_dot(env).splitlines()[1:-1]
            nodes = [line for line in lines if " -- " not in line]
            edges = [line for line in lines if " -- " in line]
            for v, line in zip(graph.vertices, nodes):
                assert f" [{wire.vertex[v]}]\"" in line
            for idx, line in enumerate(edges):
                parts = line.split('label="')[1].split('"]')[0].split()[1:]
                interior = wire.interior[idx]
                expected = [] if graph.lengths[idx] == 1 else ["len", str(graph.lengths[idx])]
                expected += [] if interior in (EDGE, BLANK) else [str(interior)]
                expected += [f"{label}@{pos}" for pos, label in wire.marks(idx)]
                assert parts == expected


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, capsys, gallery_dir, tmp_path):
        """Each command prints the same bytes twice: one line of compact
        JSON with sorted keys."""
        g = {path.stem: str(path) for path in gallery_dir.glob("*.json")}
        a = write_json(tmp_path / "a.json", [[0, 3, 2], ["halt", 1, 1]])
        b = write_json(tmp_path / "b.json", [[1, 2, 1]])
        commands = [
            (["equiv", g["kite_a"], g["kite_b"], "--max-len", "4", "--random", "60", "--seed", "7"], 1),
            (["bisim", g["circle_a"], g["circle_b"]], 0),
            (["distinguish", g["kite_a"], g["kite_b"], "--max-len", "3"], 0),
            (["trace", g["circle_a"], a], 0),
            (["metric", a, b], 0),
            (["gen-cyclic", g["circle_a"], "3", "--seed", "1"], 0),
            (["gen-universal", g["crossing_a"], "4"], 0),
        ]
        for argv, expected in commands:
            first = run(capsys, argv)
            second = run(capsys, argv)
            assert first[0] == second[0] == expected
            assert first[1] == second[1]
            assert first[1] == json.dumps(json.loads(first[1]), sort_keys=True) + "\n"

    def test_gallery_rewrites_identically(self, capsys, gallery_dir, tmp_path):
        again = tmp_path / "again"
        code, _, _ = run(capsys, ["gallery", "--out", str(again)])
        assert code == 0
        for path in sorted(gallery_dir.iterdir()):
            assert path.read_bytes() == (again / path.name).read_bytes()


class TestEmit:
    """Every document a command prints is a fresh tree with no cycle, so
    _emit encodes it without the encoder's cycle scan; the text must be
    what the scan-checked encoding gives."""

    def assert_emits_the_checked_encoding(self, capsys, monkeypatch, argv):
        documents = []
        real = cli._emit

        def checked(data):
            # the default check_circular raises ValueError on a cyclic document
            documents.append(json.dumps(data, sort_keys=True))
            real(data)

        monkeypatch.setattr(cli, "_emit", checked)
        code, out, _ = run(capsys, argv)
        monkeypatch.setattr(cli, "_emit", real)
        if out:
            assert out == documents[0] + "\n" and len(documents) == 1
        else:
            assert code in (2, 3) and not documents
        return code, out

    def test_every_command_on_the_gallery_and_seeded_covers(self, capsys, monkeypatch, tmp_path, gallery_dir):
        emit = lambda *argv: self.assert_emits_the_checked_encoding(capsys, monkeypatch, list(argv))
        a = write_json(tmp_path / "a.json", [[0, 3, 2], ["halt", 1, 3], [1, 5, 4]])
        b = write_json(tmp_path / "b.json", [[1, 2, 1], [0, 1, 7]])
        assert emit("metric", a, b)[0] == 0
        assert emit("geodesic", a, b, "--at", "1/3")[0] == 0
        assert emit("gallery", "--out", str(tmp_path / "again"))[0] == 0
        printed = set()
        for pair in sorted(GALLERY):
            first, second = (str(gallery_dir / f"{pair}_{side}.json") for side in "ab")
            for command in ("equiv", "distinguish", "bisim"):
                printed.add(command)
                emit(command, first, second, *(["--random", "20"] if command == "equiv" else []))
            for base in (first, second):
                printed.update(("trace", "gen-universal"))
                assert emit("trace", base, a)[0] == 0
                assert emit("gen-universal", base, "3")[0] == 0
                for k, seed in ((2, 1), (3, 2), (5, 3)):
                    code, out = emit("gen-cyclic", base, str(k), "--seed", str(seed))
                    assert code == 0
                    bundle = json.loads(out)
                    cover = write_json(tmp_path / f"{pair}_{k}.json", bundle["environment"])
                    mapping = write_json(tmp_path / f"{pair}_{k}_map.json", bundle["projection"])
                    assert emit("check-cover", mapping, cover, base)[0] == 0
                    assert emit("lift", mapping, cover, base, a)[0] == 0
                    assert emit("bisim", cover, base)[0] in (0, 1, 3)
                    printed.update(("gen-cyclic", "check-cover", "lift"))
        assert printed | {"metric", "geodesic", "gallery"} == set(cli._NAMES)


class TestProcessEntry:
    def test_module_invocation(self, tmp_path):
        env = write_json(tmp_path / "env.json", three_cycle_env().to_json())
        sig = write_json(tmp_path / "sig.json", [[0, 1, 1]])
        proc = subprocess.run(
            [sys.executable, "-m", "covertrace.cli", "trace", env, sig],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["duration"] == [1, 1]

    @pytest.mark.parametrize("pair, expected", [("circle", 0), ("crossing", 1)])
    def test_closed_pipe_keeps_the_verdict(self, gallery_dir, pair, expected):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "covertrace.cli", "bisim",
                    str(gallery_dir / f"{pair}_a.json"), str(gallery_dir / f"{pair}_b.json"),
                ],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == expected
        assert "Traceback" not in proc.stderr

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert "covertrace" in capsys.readouterr().out
