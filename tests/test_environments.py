"""Graph environments: validation, dynamics, traces, trajectory metric."""
from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertrace import (
    EDGE,
    BLANK,
    BeamMark,
    BeamSensor,
    ControlSignal,
    DegreeSensor,
    Edge,
    EdgeState,
    Environment,
    FilteredSensor,
    LabelSensor,
    PortedGraph,
    PreconditionError,
    ValidationError,
    VertexState,
    apply,
    build_edges,
    cyclic_cover,
    first_divergence,
    relabel_environment,
    trace_of,
    trajectory,
    trajectory_distance,
)
from covertrace.equivalence import port_preserving_automorphisms
from covertrace.gallery import GALLERY
from covertrace.generate import (
    random_ported_graph,
    random_signal,
    random_state,
)
from covertrace.signals import EMPTY

from helpers import (
    dense_trajectory_distance,
    figure_eight_env,
    graph_states,
    naive_vertex_distances,
    path_middle_env,
    rational_signals,
    scan_first_divergence,
    three_cycle,
    three_cycle_env,
    trace_events,
    trace_segments,
)


def sig(*pieces) -> ControlSignal:
    return ControlSignal(pieces)


def _comparison_pairs() -> list:
    """Environment pairs whose traces of one signal are compared: the gallery
    pairs, and each gallery environment against a 3-fold cyclic cover of it."""
    pairs = [GALLERY[name]() for name in sorted(GALLERY)]
    for first, second in list(pairs):
        for env in (first, second):
            cover, _ = cyclic_cover(env, 3, [i % 3 for i in range(len(env.graph.lengths))])
            pairs.append((env, cover))
    return pairs


COMPARISON_PAIRS = _comparison_pairs()


class TestGraphValidation:
    def test_duplicate_vertex_names(self):
        with pytest.raises(ValidationError):
            PortedGraph(["a", "a"], [])

    def test_ports_must_be_consecutive(self):
        with pytest.raises(ValidationError):
            PortedGraph(["a", "b"], build_edges([("a", "b", 1, 0)]))

    def test_port_reuse_rejected(self):
        with pytest.raises(ValidationError):
            PortedGraph(
                ["a", "b"], build_edges([("a", "b", 0, 0), ("a", "b", 0, 1)])
            )

    def test_self_loop_needs_two_ports(self):
        with pytest.raises(ValidationError):
            PortedGraph(["a"], build_edges([("a", "a", 0, 0)]))
        PortedGraph(["a"], build_edges([("a", "a", 0, 1)]))

    def test_positive_lengths(self):
        with pytest.raises(ValidationError):
            PortedGraph(["a", "b"], [Edge("a", "b", 0, 0, Fraction(0))])

    def test_connectivity(self):
        with pytest.raises(ValidationError):
            PortedGraph(
                ["a", "b", "c", "d"],
                build_edges([("a", "b", 0, 0), ("c", "d", 0, 0)]),
            )

    def test_unknown_endpoint(self):
        with pytest.raises(ValidationError):
            PortedGraph(["a"], build_edges([("a", "z", 0, 0)]))


class TestStates:
    def test_full_offset_is_head_vertex(self):
        g = three_cycle()
        d = g.forward_dart(0)
        assert g.state_on(d, 1) == VertexState("x1")
        assert g.state_on(d, 0) == VertexState("x0")

    def test_interior_state_kept(self):
        g = three_cycle()
        d = g.forward_dart(0)
        s = g.state_on(d, Fraction(1, 3))
        assert s == EdgeState(d, Fraction(1, 3))

    def test_offset_outside_edge_rejected(self):
        g = three_cycle()
        with pytest.raises(ValidationError):
            g.state_on(g.forward_dart(0), 2)

    def test_check_state_rejects_foreign(self):
        g = three_cycle()
        with pytest.raises(ValidationError):
            g.check_state(VertexState("zz"))

    def test_check_state_takes_exact_offsets_only(self):
        """A float or bool offset is refused; an int offset comes back, and
        reaches the trajectory's legs, as a Fraction."""
        g = PortedGraph(["a", "b"], build_edges([("a", "b", 0, 0, 2)]))
        env = Environment(g, "a", DegreeSensor())
        d = g.forward_dart(0)
        for offset in (0.5, True):
            with pytest.raises(ValidationError):
                g.check_state(EdgeState(d, offset))
            with pytest.raises(ValidationError):
                trajectory(env, sig((0, 1)), EdgeState(d, offset))
            with pytest.raises(ValidationError):
                g.point_distance(EdgeState(d, offset), VertexState("a"))
        state = g.check_state(EdgeState(d, 1))
        assert state == EdgeState(d, Fraction(1)) and type(state.offset) is Fraction
        leg = trajectory(env, sig(("halt", 1), (0, 1)), EdgeState(d, 1)).legs[0]
        assert type(leg.state.offset) is Fraction
        leg = trajectory(env, sig((0, Fraction(1, 2))), EdgeState(d, 1)).legs[0]
        assert type(leg.offset0) is Fraction
        assert g.point_distance(EdgeState(d, 1), VertexState("b")) == 1

    @pytest.mark.parametrize(
        "state", [VertexState(["x0"]), EdgeState(["x0", 0], Fraction(1, 2))], ids=["vertex", "dart"]
    )
    def test_check_state_refuses_unhashable_names(self, state):
        """A list vertex or dart, as JSON spells a name, names nothing on the
        graph: a ValidationError, not a TypeError, directly and through
        every function that takes a state."""
        g = three_cycle()
        env = Environment(g, "x0", DegreeSensor(), 2)
        u = sig((0, 1))
        calls = (
            lambda: g.check_state(state),
            lambda: trajectory(env, u, state),
            lambda: apply(env, u, state),
            lambda: trace_of(env, u, state),
            lambda: g.point_distance(state, VertexState("x0")),
            lambda: g.point_distance(VertexState("x0"), state),
        )
        for call in calls:
            with pytest.raises(ValidationError, match="unknown"):
                call()

    def test_point_distance_triangle(self):
        g = three_cycle()
        mid0 = g.state_on(g.forward_dart(0), Fraction(1, 2))
        mid1 = g.state_on(g.forward_dart(1), Fraction(1, 2))
        assert g.point_distance(mid0, VertexState("x2")) == Fraction(3, 2)
        assert g.point_distance(mid0, mid1) == 1
        assert g.point_distance(mid0, mid0) == 0

    def test_vertex_distances_match_floyd_warshall(self):
        rng = random.Random(17)
        graphs = [
            random_ported_graph(rng, n_min=1, n_max=7, extra_max=4, unit_lengths=False)
            for _ in range(60)
        ]
        # from 1 the vertices "1" and 2 tie at distance 1, and names of mixed
        # type do not compare; a longer parallel edge and a loop change nothing
        graphs.append(
            PortedGraph(
                [1, "1", 2],
                build_edges(
                    [
                        (1, "1", 0, 0),
                        (1, 2, 1, 0),
                        ("1", 2, 1, 1),
                        (1, "1", 2, 2, Fraction(3, 2)),
                        (2, 2, 2, 3, Fraction(1, 3)),
                    ]
                ),
            )
        )
        for g in graphs:
            dist = g.vertex_distances()
            assert dist == naive_vertex_distances(g)
            assert all(type(x) is Fraction for x in dist.values())


class TestEnvironmentValidation:
    def test_initial_must_exist(self):
        with pytest.raises(ValidationError):
            Environment(three_cycle(), "zz", DegreeSensor())

    def test_width_default_is_max_degree(self):
        assert three_cycle_env(width=None).alphabet_width == 2
        assert figure_eight_env(width=None).alphabet_width == 4

    def test_width_positive(self):
        with pytest.raises(ValidationError):
            Environment(three_cycle(), "x0", DegreeSensor(), 0)

    def test_width_above_maxsize_rejected(self):
        assert Environment(three_cycle(), "x0", DegreeSensor(), sys.maxsize).alphabet_width == sys.maxsize
        for width in (sys.maxsize + 1, 10**30):
            with pytest.raises(ValidationError):
                Environment(three_cycle(), "x0", DegreeSensor(), width)
            with pytest.raises(ValidationError):
                Environment.from_json({**three_cycle_env().to_json(), "alphabet_width": width})

    def test_filter_on_edgeless_graph_needs_no_edge_entry(self):
        """EDGE cannot be read on a graph without edges, so a relabelling of
        the degree sensor there only has to cover degree 0."""
        env = Environment(PortedGraph(["a"], []), "a", FilteredSensor(DegreeSensor(), {0: "alone"}))
        assert trace_segments(trace_of(env, sig((0, 2)))) == ((0, 2, "alone"),)

    def test_label_sensor_totality(self):
        with pytest.raises(ValidationError):
            LabelSensor({"x0": 1}, (1, 1, 1)).validate(three_cycle())
        with pytest.raises(ValidationError):
            LabelSensor({"x0": 1, "x1": 1, "x2": 1}, (1, 1)).validate(three_cycle())

    def test_beam_marks_strictly_inside(self):
        g = three_cycle()
        with pytest.raises(ValidationError):
            BeamSensor((BeamMark(0, Fraction(0), "m"),)).validate(g)
        with pytest.raises(ValidationError):
            BeamSensor((BeamMark(0, Fraction(1), "m"),)).validate(g)
        with pytest.raises(ValidationError):
            BeamSensor(
                (BeamMark(0, Fraction(1, 2), "m"), BeamMark(0, Fraction(1, 2), "n"))
            ).validate(g)

    @pytest.mark.parametrize(
        "marks, message",
        [
            ([(0, Fraction(8, 5))], "beam mark offset 8/5 not strictly inside edge 0"),
            ([(1, Fraction(-1, 3))], "beam mark offset -1/3 not strictly inside edge 1"),
            ([(0, Fraction(3, 2))], "beam mark offset 3/2 not strictly inside edge 0"),
            ([(1, Fraction(0))], "beam mark offset 0 not strictly inside edge 1"),
            ([(1, 1)], "beam mark offset 1 not strictly inside edge 1"),
            (
                [(0, Fraction(7, 5)), (1, Fraction(1, 2)), (0, Fraction(7, 5))],
                "two beam marks at one point: edge 0 offset 7/5",
            ),
            (
                [(1, Fraction(1, 2)), (1, Fraction(1, 2)), (0, Fraction(2))],
                "two beam marks at one point: edge 1 offset 1/2",
            ),
            (
                [(0, Fraction(2)), (1, Fraction(1, 2)), (1, Fraction(1, 2))],
                "beam mark offset 2 not strictly inside edge 0",
            ),
            ([(3, Fraction(1, 2))], "beam mark on unknown edge 3"),
        ],
    )
    def test_beam_mark_messages(self, marks, message):
        """Offsets are checked against the edge's length (3/2 for edge 0) in
        the order the marks are listed; the first bad mark is named."""
        g = PortedGraph(["a", "b"], build_edges([("a", "b", 0, 0, Fraction(3, 2)), ("b", "a", 1, 1)]))
        BeamSensor([BeamMark(0, Fraction(7, 5), "m"), BeamMark(1, Fraction(1, 2), "m")]).validate(g)
        sensor = BeamSensor([BeamMark(edge, offset, "m") for edge, offset in marks])
        with pytest.raises(ValidationError) as info:
            sensor.validate(g)
        assert str(info.value) == message


class TestApply:
    def test_halt_is_stationary(self):
        env = three_cycle_env()
        assert apply(env, sig(("halt", 5))) == VertexState("x0")

    def test_one_edge_step(self):
        env = three_cycle_env()
        assert apply(env, sig((0, 1))) == VertexState("x1")

    def test_full_loop_closes(self):
        env = three_cycle_env()
        assert apply(env, sig((0, 3))) == VertexState("x0")

    def test_missing_port_waits(self):
        env = three_cycle_env(width=5)
        assert apply(env, sig((4, 7))) == VertexState("x0")

    def test_direction_kept_inside_edge(self):
        # switching the symbol mid-edge does not turn the robot around
        env = three_cycle_env()
        state = apply(env, sig((0, Fraction(1, 2)), (1, Fraction(1, 2))))
        assert state == VertexState("x1")

    def test_rejects_foreign_state(self):
        env = three_cycle_env()
        with pytest.raises(ValidationError):
            apply(env, sig((0, 1)), VertexState("nope"))

    def test_identity_and_splitting_laws(self):
        rng = random.Random(31)
        graphs = [random_ported_graph(rng, unit_lengths=bool(i % 2)) for i in range(12)]
        for _ in range(200):
            g = rng.choice(graphs)
            env = Environment(g, g.vertices[0], DegreeSensor())
            x = random_state(rng, g)
            u = random_signal(rng, env.alphabet_width + 1, max_pieces=4)
            assert apply(env, EMPTY, x) == x
            t = u.duration * Fraction(rng.randint(0, 6), 6)
            split = apply(env, u.suffix_from(t), apply(env, u.restrict_before(t), x))
            assert split == apply(env, u, x)


class TestTrajectory:
    def test_empty_signal(self):
        env = three_cycle_env()
        traj = trajectory(env, EMPTY)
        assert traj.duration == 0
        assert traj.breakpoints() == [(Fraction(0), VertexState("x0"))]

    def test_partial_edge(self):
        env = three_cycle_env()
        traj = trajectory(env, sig((0, Fraction(3, 2))))
        g = env.graph
        assert traj.breakpoints() == [
            (Fraction(0), VertexState("x0")),
            (Fraction(1), VertexState("x1")),
            (Fraction(3, 2), g.state_on(g.forward_dart(1), Fraction(1, 2))),
        ]

    def test_stationary_tail(self):
        env = three_cycle_env()
        traj = trajectory(env, sig((0, 1), ("halt", 1)))
        assert traj.at(Fraction(3, 2)) == VertexState("x1")
        assert traj.at(2) == VertexState("x1")
        last = traj.legs[-1]
        assert not last.moving and (last.t0, last.t1) == (1, 2)

    def test_unit_speed_lipschitz(self):
        rng = random.Random(32)
        for _ in range(100):
            g = random_ported_graph(rng, unit_lengths=False)
            env = Environment(g, g.vertices[0], DegreeSensor())
            traj = trajectory(env, random_signal(rng, env.alphabet_width, max_pieces=4))
            t1 = traj.duration * Fraction(rng.randint(0, 8), 8)
            t2 = traj.duration * Fraction(rng.randint(0, 8), 8)
            d = g.point_distance(traj.at(t1), traj.at(t2))
            assert d <= abs(t1 - t2)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_final_and_breakpoints_match_evaluation(self, data):
        env = data.draw(st.sampled_from([e for pair in COMPARISON_PAIRS for e in pair]))
        start = data.draw(graph_states(env.graph))
        u = data.draw(rational_signals(width=env.alphabet_width))
        traj = trajectory(env, u, start)
        assert traj.final == traj.at(traj.duration) == apply(env, u, start)
        for t, state in traj.breakpoints():
            assert state == traj.at(t)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_stored_leg_end_matches_evaluation(self, seed, data):
        """Each leg's stored end is its state at t1, also on the legs
        Trajectory merges: a wait at a vertex followed by a halt, and a move
        continued along the same dart after the port symbol changes
        mid-edge."""
        rng = random.Random(seed)
        graph = random_ported_graph(rng, unit_lengths=False)
        env = Environment(graph, graph.vertices[0], DegreeSensor())
        u = data.draw(rational_signals(width=env.alphabet_width, max_pieces=8))
        traj = trajectory(env, u, random_state(rng, graph))
        for leg in traj.legs:
            assert leg.end == leg.at(graph, leg.t1)

    def test_evaluation_matches_apply(self):
        rng = random.Random(33)
        env = figure_eight_env()
        for _ in range(50):
            u = random_signal(rng, 4, max_pieces=4)
            traj = trajectory(env, u)
            t = u.duration * Fraction(rng.randint(0, 5), 5)
            assert traj.at(t) == apply(env, u.restrict_before(t))


class TestTraces:
    def test_stationary_degree(self):
        env = three_cycle_env()
        tr = trace_of(env, sig(("halt", 2)))
        assert trace_segments(tr) == ((0, 2, 2),)
        assert trace_events(tr) == ((2, 2),)

    def test_edge_segment_with_vertex_events(self):
        env = three_cycle_env()
        tr = trace_of(env, sig((0, 1)))
        assert trace_segments(tr) == ((0, 1, EDGE),)
        assert trace_events(tr) == ((0, 2), (1, 2))

    def test_beam_crossing_once(self):
        g = three_cycle()
        env = Environment(g, "x0", BeamSensor((BeamMark(0, Fraction(1, 2), "green"),)), 2)
        tr = trace_of(env, sig((0, 3)))
        assert trace_segments(tr) == ((0, 3, BLANK),)
        assert trace_events(tr) == ((Fraction(1, 2), "green"), (3, BLANK))

    def test_beam_not_crossed_while_waiting(self):
        g = three_cycle()
        env = Environment(g, "x0", BeamSensor((BeamMark(0, Fraction(1, 2), "green"),)), 2)
        tr = trace_of(env, sig(("halt", 3)))
        assert trace_events(tr) == ((3, BLANK),)

    def test_label_sensor_trace(self):
        g = three_cycle()
        sensor = LabelSensor({"x0": 10, "x1": 11, "x2": 12}, (7, 8, 9))
        env = Environment(g, "x0", sensor, 2)
        tr = trace_of(env, sig((0, 2)))
        assert trace_segments(tr) == ((0, 1, 7), (1, 2, 8))
        assert trace_events(tr) == ((0, 10), (1, 11), (2, 12))

    def test_filtered_sensor_relabels(self):
        g = three_cycle()
        base = DegreeSensor()
        sensor = FilteredSensor(base, {2: "two", EDGE: "inside"})
        env = Environment(g, "x0", sensor, 2)
        tr = trace_of(env, sig((0, 1)))
        assert trace_segments(tr) == ((0, 1, "inside"),)
        assert trace_events(tr) == ((0, "two"), (1, "two"))

    def test_truncation_matches_restriction(self):
        rng = random.Random(34)
        env = figure_eight_env()
        for _ in range(80):
            u = random_signal(rng, 4, max_pieces=4)
            t = u.duration * Fraction(rng.randint(0, 6), 6)
            assert trace_of(env, u.restrict_before(t)) == trace_of(env, u).truncate(t)

    def test_first_divergence_none_for_equal(self):
        env = three_cycle_env()
        u = sig((0, 2), ("halt", 1))
        assert first_divergence(trace_of(env, u), trace_of(env, u)) is None

    def test_first_divergence_at_arrival(self):
        u = sig((0, 2))
        t1 = trace_of(path_middle_env(), u)
        t2 = trace_of(three_cycle_env(), u)
        assert first_divergence(t1, t2) == 1

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(COMPARISON_PAIRS), rational_signals(width=4, max_pieces=6))
    def test_first_divergence_matches_naive_scan(self, pair, u):
        t1, t2 = (trace_of(env, u) for env in pair)
        assert first_divergence(t1, t2) == scan_first_divergence(t1, t2)

    def test_mismatched_durations_rejected(self):
        env = three_cycle_env()
        with pytest.raises(ValidationError):
            first_divergence(trace_of(env, sig((0, 1))), trace_of(env, sig((0, 2))))


class TestTrajectoryDistance:
    def test_identical(self):
        env = three_cycle_env()
        traj = trajectory(env, sig((0, 2)))
        assert trajectory_distance(traj, traj) == 0

    def test_pure_duration_gap(self):
        env = three_cycle_env()
        a = trajectory(env, sig((0, 3)))
        b = trajectory(env, sig((0, 2)))
        assert trajectory_distance(a, b) == 1

    def test_loop_against_stay(self):
        env = three_cycle_env()
        a = trajectory(env, sig((0, 3)))
        b = trajectory(env, sig(("halt", 3)))
        exact = trajectory_distance(a, b)
        assert exact == Fraction(3, 2)
        assert dense_trajectory_distance(a, b, steps=60) <= exact

    def test_different_graphs_rejected(self):
        a = trajectory(three_cycle_env(), sig((0, 1)))
        b = trajectory(path_middle_env(), sig((0, 1)))
        with pytest.raises(ValidationError):
            trajectory_distance(a, b)

    def test_metric_needs_no_networkx(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        env = three_cycle_env()
        a = trajectory(env, sig((0, 3)))
        b = trajectory(env, sig(("halt", 3)))
        assert trajectory_distance(a, b) == Fraction(3, 2)
        g = three_cycle()
        mid0 = g.state_on(g.forward_dart(0), Fraction(1, 2))
        assert g.point_distance(mid0, VertexState("x2")) == Fraction(3, 2)

    def test_dense_sampling_bracket(self):
        # positions move at most at unit speed, so the pointwise distance is
        # 2-Lipschitz in time and a grid of spacing h can miss at most h
        def check(a, b):
            exact = trajectory_distance(a, b)
            steps = 48
            horizon = min(a.duration, b.duration)
            dense = dense_trajectory_distance(a, b, steps=steps)
            assert dense <= exact
            assert exact <= dense + horizon / steps

        rng = random.Random(35)
        env = figure_eight_env()
        for _ in range(40):
            a = trajectory(env, random_signal(rng, 4, max_pieces=3))
            b = trajectory(env, random_signal(rng, 4, max_pieces=3))
            check(a, b)
        # rational lengths, and starts anywhere on the graph
        for _ in range(30):
            graph = random_ported_graph(rng, unit_lengths=False)
            env = Environment(graph, graph.vertices[0], DegreeSensor())
            a, b = (
                trajectory(
                    env,
                    random_signal(rng, env.alphabet_width, max_pieces=3),
                    random_state(rng, graph),
                )
                for _ in range(2)
            )
            check(a, b)


class TestSensorInvariance:
    def test_rotation_preserves_degree_traces(self):
        env = three_cycle_env()
        autos = port_preserving_automorphisms(env.graph)
        assert len(autos) == 3
        rng = random.Random(36)
        for auto in autos:
            rotated = Environment(
                env.graph, auto.vertex(env.initial), DegreeSensor(), env.alphabet_width
            )
            for _ in range(20):
                u = random_signal(rng, 2, max_pieces=4)
                assert trace_of(env, u) == trace_of(rotated, u)

    def test_relabelling_preserves_traces(self):
        env = three_cycle_env()
        renamed = relabel_environment(env, {"x0": "a", "x1": "b", "x2": "c"})
        rng = random.Random(37)
        for _ in range(30):
            u = random_signal(rng, 2, max_pieces=4)
            assert trace_of(env, u) == trace_of(renamed, u)

    def test_relabelling_moves_labels_through_nested_filters(self):
        labels = LabelSensor({"x0": 0, "x1": 1, "x2": 2}, (3, 4, 5))
        inner = FilteredSensor(labels, {0: "p", 1: "q", 2: "q", 3: "e", 4: "e", 5: "f"})
        sensor = FilteredSensor(inner, {"p": 1, "q": 2, "e": 0, "f": 0})
        env = Environment(three_cycle(), "x0", sensor, 2)
        renamed = relabel_environment(env, {"x0": "a", "x1": "b", "x2": "c"})
        assert renamed.sensor.base.base == LabelSensor({"a": 0, "b": 1, "c": 2}, (3, 4, 5))
        rng = random.Random(38)
        for _ in range(30):
            u = random_signal(rng, 2, max_pieces=4)
            assert trace_of(env, u) == trace_of(renamed, u)


class TestEnvironmentSerialization:
    def test_round_trip_all_sensor_kinds(self):
        g = three_cycle()
        beam = BeamSensor((BeamMark(1, Fraction(1, 3), "b"),))
        label = LabelSensor({"x0": 0, "x1": 1, "x2": 2}, (5, 6, 7))
        for sensor in (
            DegreeSensor(),
            label,
            beam,
            FilteredSensor(DegreeSensor(), {2: 9, EDGE: 8}),
        ):
            env = Environment(g, "x0", sensor, 3)
            again = Environment.from_json(env.to_json())
            assert again == env

    def test_missing_fields_rejected(self):
        env = three_cycle_env()
        data = env.to_json()
        del data["initial"]
        with pytest.raises(ValidationError):
            Environment.from_json(data)
