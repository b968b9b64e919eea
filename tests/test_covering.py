"""Covering maps: verification, lifting, cover generators, degree refinement."""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from covertrace import (
    BLANK,
    BeamMark,
    BeamSensor,
    ControlSignal,
    CoveringCertificate,
    Dart,
    DegreeSensor,
    Edge,
    Environment,
    FilteredSensor,
    GraphMap,
    LabelSensor,
    PortedGraph,
    PreconditionError,
    ValidationError,
    VertexState,
    build_edges,
    cyclic_cover,
    degree_refinement,
    lift_environment,
    lift_sensor,
    lift_state_path,
    pullback_sensor,
    relabel_environment,
    trace_of,
    trajectory,
    universal_cover_truncation,
    verify_covering,
)
from covertrace.gallery import GALLERY, crossing_pair
from covertrace.generate import (
    random_beam_sensor,
    random_label_sensor,
    random_ported_graph,
    random_signal,
    random_voltages,
)

from helpers import (
    figure_eight_env,
    naive_degree_refinement,
    naive_verify_covering,
    path_middle_env,
    three_cycle,
    three_cycle_env,
    universal_ball_size,
)


def sig(*pieces) -> ControlSignal:
    return ControlSignal(pieces)


def six_cycle() -> PortedGraph:
    names = [f"y{i}" for i in range(6)]
    return PortedGraph(
        names,
        build_edges([(f"y{i}", f"y{(i + 1) % 6}", 0, 1) for i in range(6)]),
    )


def doubling_map() -> GraphMap:
    return GraphMap.from_vertex_map(
        six_cycle(), {f"y{i}": f"x{i % 3}" for i in range(6)}
    )


def six_cycle_env(sensor=None, width=2) -> Environment:
    return Environment(six_cycle(), "y0", sensor or DegreeSensor(), width)


def identity_map(g: PortedGraph) -> GraphMap:
    return GraphMap.from_vertex_map(g, {v: v for v in g.vertices})


def theta() -> PortedGraph:
    return PortedGraph(
        ["u", "v"],
        build_edges([("u", "v", 0, 0), ("u", "v", 1, 1), ("u", "v", 2, 2)]),
    )


def digon() -> PortedGraph:
    return PortedGraph(["u", "v"], build_edges([("u", "v", 0, 0), ("u", "v", 1, 1)]))


class TestVerifyCovering:
    def test_identity_is_positive(self):
        env = three_cycle_env()
        cert = verify_covering(identity_map(env.graph), env, env)
        assert cert.positive
        assert cert.failures == ()

    def test_doubling_is_positive(self):
        cert = verify_covering(doubling_map(), six_cycle_env(), three_cycle_env())
        assert cert.positive

    def test_collapsing_parallel_edges_fails_star_bijection(self):
        source = Environment(theta(), "u", DegreeSensor(), 3)
        target = Environment(digon(), "u", DegreeSensor(), 3)
        collapse = GraphMap(
            {"u": "u", "v": "v"},
            {
                Dart("u", 0): Dart("u", 0),
                Dart("v", 0): Dart("v", 0),
                Dart("u", 1): Dart("u", 1),
                Dart("v", 1): Dart("v", 1),
                Dart("u", 2): Dart("u", 1),
                Dart("v", 2): Dart("v", 1),
            },
        )
        cert = verify_covering(collapse, source, target)
        assert not cert.positive
        assert not cert.local_bijection
        assert cert.surjective and cert.lengths_preserved and cert.base_point

    def test_base_point_flag(self):
        wrong_base = Environment(six_cycle(), "y1", DegreeSensor(), 2)
        cert = verify_covering(doubling_map(), wrong_base, three_cycle_env())
        assert not cert.base_point and not cert.positive

    def test_partial_map_rejected(self):
        env = three_cycle_env()
        broken = GraphMap({"x0": "x0", "x1": "x1"}, {})
        with pytest.raises(ValidationError):
            verify_covering(broken, env, env)

    def test_head_mismatch_names_dart(self):
        env = three_cycle_env()
        g = env.graph
        dmap = {d: d for d in g.darts()}
        dmap[Dart("x0", 0)] = Dart("x0", 1)
        dmap[Dart("x1", 1)] = Dart("x2", 0)
        with pytest.raises(ValidationError, match="x0"):
            verify_covering(GraphMap({v: v for v in g.vertices}, dmap), env, env)

    def test_length_change_flagged(self):
        stretched = PortedGraph(
            ["x0", "x1", "x2"],
            [
                replace(e, length=Fraction(2)) if i == 0 else e
                for i, e in enumerate(three_cycle().edges)
            ],
        )
        env = Environment(stretched, "x0", DegreeSensor(), 2)
        cert = verify_covering(identity_map(stretched), env, three_cycle_env())
        assert not cert.lengths_preserved


def _outcome(check, f, source, target, skip=()):
    """The certificate, or the text of the ValidationError raised."""
    try:
        return check(f, source, target, skip)
    except ValidationError as exc:
        return f"ValidationError: {exc}"


def _oracle_pool(rng):
    """(cover, projection, base, boundary) from cyclic covers and truncated
    universal covers of gallery and random bases."""
    bases = [env for name in sorted(GALLERY) for env in GALLERY[name]()]
    for unit in (True, False) * 4:
        g = random_ported_graph(rng, unit_lengths=unit)
        bases.append(Environment(g, rng.choice(g.vertices), random_beam_sensor(rng, g)))
    pool = []
    for env in bases:
        k = rng.randint(1, 4)
        pool.append((*cyclic_cover(env, k, random_voltages(rng, env.graph, k)), env, frozenset()))
        cover, f, boundary = universal_cover_truncation(env, Fraction(rng.randint(1, 9), 2))
        pool.append((cover, f, env, boundary))
    return pool


class TestVerifyCoveringOracle:
    """verify_covering on ids against the Dart-dict oracle, on projections
    that are mutated one or two ways at a time."""

    @staticmethod
    def mutate(rng, cover, f, base, boundary):
        sg, tg = cover.graph, base.graph
        vmap, dmap = dict(f.vertex_map), dict(f.dart_map)
        darts = list(dmap)
        source, skip = cover, boundary
        kind = rng.choice(["swap", "vertex", "drop", "ports", "unknown", "length", "base", "skip"])
        if kind == "swap":
            a, b = rng.sample(darts, 2) if len(darts) > 1 else (darts[0], darts[0])
            dmap[a], dmap[b] = dmap[b], dmap[a]
        elif kind == "vertex":
            v = rng.choice(sg.vertices)
            vmap[v] = rng.choice(list(tg.vertices) + ["nowhere"])
        elif kind == "drop":
            table = rng.choice([vmap, dmap])
            del table[rng.choice(list(table))]
        elif kind == "ports":
            # permute the images of one star and carry the reversals along
            v = rng.choice(sg.vertices)
            star = [d for d in sg.darts_at(v) if d in dmap and tg.has_dart(dmap[d])]
            images = [dmap[d] for d in star]
            rng.shuffle(images)
            for d, image in zip(star, images):
                dmap[d] = image
                dmap[sg.reverse(d)] = tg.reverse(Dart(*image))
        elif kind == "unknown":
            d = rng.choice(darts)
            dmap[d] = (dmap[d][0], tg.max_degree() + 1)
        elif kind == "length":
            idx = rng.randrange(len(sg.edges))
            edges = [replace(e, length=e.length * 2) if i == idx else e for i, e in enumerate(sg.edges)]
            source = Environment(PortedGraph(sg.vertices, edges), cover.initial, DegreeSensor())
        elif kind == "base":
            source = Environment(sg, rng.choice(sg.vertices), DegreeSensor())
        else:
            skip = frozenset(rng.sample(sg.vertices, rng.randint(0, len(sg.vertices))))
        return kind, GraphMap(vmap, dmap), source, skip

    def test_matches_oracle_on_mutated_projections(self):
        rng = random.Random(48)
        kinds = Counter()
        for cover, f, base, boundary in _oracle_pool(rng):
            for skip in (boundary, ()):
                assert _outcome(verify_covering, f, cover, base, skip) == _outcome(
                    naive_verify_covering, f, cover, base, skip
                )
            for _ in range(12):
                kind, g, source, skip = self.mutate(rng, cover, f, base, boundary)
                if rng.random() < 0.3:
                    _, g, source, skip = self.mutate(rng, source, g, base, skip)
                got = _outcome(verify_covering, g, source, base, skip)
                assert got == _outcome(naive_verify_covering, g, source, base, skip), kind
                positive = isinstance(got, CoveringCertificate) and got.positive
                kinds[kind, "error" if isinstance(got, str) else positive] += 1
        # every mutation was tried, and they reached errors, negative and
        # positive certificates
        assert {kind for kind, _ in kinds} == {
            "swap", "vertex", "drop", "ports", "unknown", "length", "base", "skip"
        }
        assert {outcome for _, outcome in kinds} == {"error", False, True}


class TestSensorPullback:
    def test_degree_pulls_back_to_degree(self):
        assert lift_sensor(
            doubling_map(), six_cycle_env(), three_cycle_env()
        ) == DegreeSensor()

    def test_one_mark_becomes_two(self):
        base = three_cycle_env(
            BeamSensor((BeamMark(0, Fraction(1, 2), "green"),)), 2
        )
        lifted = lift_sensor(doubling_map(), six_cycle_env(), base)
        assert isinstance(lifted, BeamSensor)
        found = {(m.edge, m.offset, m.label) for m in lifted.marks}
        assert found == {(0, Fraction(1, 2), "green"), (3, Fraction(1, 2), "green")}

    def test_identity_pullback_is_unchanged(self):
        g = three_cycle()
        ident = identity_map(g)
        for sensor in (
            DegreeSensor(),
            LabelSensor({"x0": 1, "x1": 2, "x2": 3}, (4, 5, 6)),
            BeamSensor((BeamMark(2, Fraction(1, 3), "b"),)),
            FilteredSensor(DegreeSensor(), {2: "v"}),
        ):
            assert pullback_sensor(ident, g, g, sensor) == sensor

    def test_rejects_non_covering(self):
        source = Environment(theta(), "u", DegreeSensor(), 3)
        target = Environment(digon(), "u", DegreeSensor(), 3)
        collapse = GraphMap(
            {"u": "u", "v": "v"},
            {
                Dart("u", 0): Dart("u", 0),
                Dart("v", 0): Dart("v", 0),
                Dart("u", 1): Dart("u", 1),
                Dart("v", 1): Dart("v", 1),
                Dart("u", 2): Dart("u", 1),
                Dart("v", 2): Dart("v", 1),
            },
        )
        with pytest.raises(PreconditionError):
            lift_sensor(collapse, source, target)


class TestSensorProtocol:
    SENSORS = {
        "degree": lambda rng, g: DegreeSensor(),
        "label": random_label_sensor,
        "beam": random_beam_sensor,
        "filtered-beam": lambda rng, g: FilteredSensor(
            random_beam_sensor(rng, g), {BLANK: 0, "red": 1, "green": 1}
        ),
        "filtered-filtered-label": lambda rng, g: FilteredSensor(
            FilteredSensor(random_label_sensor(rng, g), {0: "a", 1: "b", 2: "a"}),
            {"a": 5, "b": 6},
        ),
    }

    @pytest.mark.parametrize("kind", sorted(SENSORS))
    def test_pullbacks_and_renamings_keep_traces(self, kind):
        """A cyclic cover, the same graph with every edge stored the other way
        round, and a renamed copy all read the traces of their base."""
        rng = random.Random(46)
        for case in range(20):
            g = random_ported_graph(rng, unit_lengths=case % 2 == 0)
            env = Environment(g, g.vertices[0], self.SENSORS[kind](rng, g))
            k = rng.randint(2, 4)
            cover, _ = cyclic_cover(env, k, random_voltages(rng, g, k))
            flipped = PortedGraph(
                g.vertices,
                [Edge(e.head, e.tail, e.port_at_head, e.port_at_tail, e.length) for e in g.edges],
            )
            flipped_env = lift_environment(
                identity_map(flipped), Environment(flipped, env.initial, DegreeSensor()), env
            )
            shuffled = list(g.vertices)
            rng.shuffle(shuffled)
            renamed = relabel_environment(env, {v: f"r{w}" for v, w in zip(g.vertices, shuffled)})
            for _ in range(8):
                u = random_signal(rng, env.alphabet_width, max_pieces=5)
                expected = trace_of(env, u)
                assert trace_of(cover, u) == expected
                assert trace_of(flipped_env, u) == expected
                assert trace_of(renamed, u) == expected


class TestLiftStatePath:
    def test_identity_lift(self):
        env = three_cycle_env()
        u = sig((0, 2), ("halt", 1))
        assert lift_state_path(identity_map(env.graph), env, env, u) == trajectory(env, u)

    def test_closed_loop_opens_upstairs(self):
        lift = lift_state_path(doubling_map(), six_cycle_env(), three_cycle_env(), sig((0, 3)))
        assert lift.final == VertexState("y3")

    def test_double_loop_closes_upstairs(self):
        lift = lift_state_path(doubling_map(), six_cycle_env(), three_cycle_env(), sig((0, 6)))
        assert lift.final == VertexState("y0")

    def test_lift_commutation(self):
        rng = random.Random(41)
        pairs = [
            (identity_map(three_cycle()), three_cycle_env(), three_cycle_env()),
            (doubling_map(), six_cycle_env(), three_cycle_env()),
            # port 1 is no action downstairs, so it must not move the lift
            (doubling_map(), six_cycle_env(), three_cycle_env(width=1)),
        ]
        fig8 = figure_eight_env()
        cover, proj = cyclic_cover(fig8, 2, (1, 0))
        pairs.append((proj, cover, fig8))
        for _ in range(200):
            f, src, dst = rng.choice(pairs)
            u = random_signal(rng, dst.alphabet_width + 1, max_pieces=4)
            lifted = lift_state_path(f, src, dst, u)
            base = trajectory(dst, u)
            assert lifted.duration == base.duration
            for t, state in lifted.breakpoints():
                assert f.state(dst.graph, state) == base.at(t)
            t = u.duration * Fraction(rng.randint(0, 7), 7)
            assert f.state(dst.graph, lifted.at(t)) == base.at(t)

    def test_pullback_traces_match_base(self):
        rng = random.Random(42)
        base = three_cycle_env(
            BeamSensor((BeamMark(0, Fraction(1, 2), "green"),)), 2
        )
        lifted_env = lift_environment(doubling_map(), six_cycle_env(), base)
        for _ in range(100):
            u = random_signal(rng, 2, max_pieces=4)
            assert trace_of(lifted_env, u) == trace_of(base, u)


class TestCyclicCover:
    def test_order_one_is_isomorphic_copy(self):
        env = three_cycle_env()
        cover, proj = cyclic_cover(env, 1, (0, 0, 0))
        assert len(cover.graph.vertices) == 3
        assert len(cover.graph.edges) == 3
        assert cover.initial == "x0@0"
        assert verify_covering(proj, cover, env).positive

    def test_unit_voltages_give_six_cycle(self):
        env = three_cycle_env()
        cover, proj = cyclic_cover(env, 2, (1, 1, 1))
        assert len(cover.graph.vertices) == 6
        assert len(cover.graph.edges) == 6
        assert all(cover.graph.degree(v) == 2 for v in cover.graph.vertices)
        assert verify_covering(proj, cover, env).positive

    def test_figure_eight_two_fold(self):
        env = figure_eight_env()
        cover, proj = cyclic_cover(env, 2, (1, 0))
        assert len(cover.graph.vertices) == 2
        assert len(cover.graph.edges) == 4
        assert verify_covering(proj, cover, env).positive

    def test_trivial_voltages_keep_base_component(self):
        # zero voltages split the derived graph; only the base component is kept
        env = three_cycle_env()
        cover, proj = cyclic_cover(env, 2, (0, 0, 0))
        assert len(cover.graph.vertices) == 3
        assert verify_covering(proj, cover, env).positive

    def test_dart_keyed_voltages(self):
        env = three_cycle_env()
        g = env.graph
        volts = {}
        for idx in range(3):
            d = g.forward_dart(idx)
            volts[d] = 1
            volts[g.reverse(d)] = -1
        cover, proj = cyclic_cover(env, 2, volts)
        assert len(cover.graph.vertices) == 6
        assert verify_covering(proj, cover, env).positive

    def test_inconsistent_voltages_rejected(self):
        env = three_cycle_env()
        g = env.graph
        d = g.forward_dart(0)
        volts = {d: 1, g.reverse(d): 1, g.forward_dart(1): 0, g.forward_dart(2): 0}
        with pytest.raises(ValidationError):
            cyclic_cover(env, 3, volts)

    def test_wrong_voltage_count_rejected(self):
        with pytest.raises(ValidationError):
            cyclic_cover(three_cycle_env(), 2, (1, 1))

    def test_bad_order_rejected(self):
        with pytest.raises(ValidationError):
            cyclic_cover(three_cycle_env(), 0, ())

    def test_random_covers_always_verify(self):
        rng = random.Random(43)
        for _ in range(30):
            g = random_ported_graph(rng, unit_lengths=bool(rng.getrandbits(1)))
            env = Environment(g, g.vertices[0], DegreeSensor())
            k = rng.randint(1, 4)
            cover, proj = cyclic_cover(env, k, random_voltages(rng, g, k))
            assert verify_covering(proj, cover, env).positive


def _tables(g: PortedGraph) -> tuple:
    return (
        g.vertices,
        g.edges,
        list(g.vertex_index.items()),
        g.dart_keys,
        list(g.dart_index.items()),
        g.dart_head,
        g.star,
    )


class TestDerivedConstruction:
    """Covers are assembled straight into the tables, skipping the checks
    that their construction proves; the tables must be those that the fully
    validating constructor builds from the same vertices and edges."""

    def test_covers_have_the_tables_of_a_validated_graph(self):
        rng = random.Random(49)
        bases = [env for name in sorted(GALLERY) for env in GALLERY[name]()]
        sizes = set()
        for env in bases:
            g = env.graph
            # k = 12 with voltages in 3Z or 4Z keeps 4 or 3 copies of each
            # vertex; zero voltages keep one
            for k, step in ((1, 1), (2, 1), (2, 2), (5, 1), (5, 5), (17, 1), (17, 17), (12, 3), (12, 4)):
                for _ in range(3):
                    voltages = [rng.randrange(k) * step % k for _ in g.edges]
                    cover, _ = cyclic_cover(env, k, voltages)
                    c = cover.graph
                    assert _tables(c) == _tables(PortedGraph(c.vertices, c.edges))
                    # vertices by base vertex then copy, edges by base edge
                    # then copy of the stored tail, as a scan of all k
                    # copies lists them
                    kept = set(c.vertices)
                    assert c.vertices == tuple(
                        f"{v}@{i}" for v in g.vertices for i in range(k) if f"{v}@{i}" in kept
                    )
                    assert c.edges == tuple(
                        Edge(f"{e.tail}@{i}", f"{e.head}@{(i + x) % k}", e.port_at_tail, e.port_at_head, e.length)
                        for e, x in zip(g.edges, voltages)
                        for i in range(k)
                        if f"{e.tail}@{i}" in kept
                    )
                    sizes.add((k, len(c.vertices) // len(g.vertices)))
            for radius in (Fraction(1, 2), Fraction(3, 2), Fraction(7, 3), Fraction(4)):
                c = universal_cover_truncation(env, radius)[0].graph
                assert _tables(c) == _tables(PortedGraph(c.vertices, c.edges))
        assert {(12, 3), (12, 4), (17, 1), (17, 17)} <= sizes

    def test_derived_graph_still_rejects_a_repeated_name(self):
        with pytest.raises(ValidationError, match="duplicate vertex names"):
            PortedGraph._derived(["a", "a"], [], [], [], [[], []])


class TestUniversalCoverTruncation:
    def test_cycle_unrolls_to_path(self):
        env = three_cycle_env()
        cover, proj, boundary = universal_cover_truncation(env, 2)
        g = cover.graph
        assert len(g.vertices) == 5
        assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 2, 2, 2]
        assert len(boundary) == 2
        assert g.degree(cover.initial) == 2
        assert all(g.degree(v) == 1 for v in boundary)
        for v in boundary:
            assert g.has_dart(Dart(v, 0))
        cert = verify_covering(proj, cover, env, skip_star_at=boundary)
        assert cert.positive

    def test_tree_is_its_own_cover(self):
        env = path_middle_env()
        cover, proj, boundary = universal_cover_truncation(env, 2)
        assert boundary == frozenset()
        assert len(cover.graph.vertices) == 3
        assert len(cover.graph.edges) == 2
        assert verify_covering(proj, cover, env).positive

    def test_figure_eight_ball(self):
        env = figure_eight_env()
        cover, proj, boundary = universal_cover_truncation(env, 2)
        g = cover.graph
        assert len(g.vertices) == 17
        assert len(boundary) == 12
        assert g.degree(cover.initial) == 4
        interior = [v for v in g.vertices if v not in boundary and v != cover.initial]
        assert all(g.degree(v) == 4 for v in interior)
        cert = verify_covering(proj, cover, env, skip_star_at=boundary)
        assert cert.positive

    def test_ball_reaching_every_vertex_misses_darts(self):
        """Radius 1 reaches all three vertices of the triangle but not the
        two darts between the cut leaves: only with those stars skipped is
        the projection surjective."""
        env = three_cycle_env()
        cover, proj, boundary = universal_cover_truncation(env, 1)
        assert set(proj.vertex_map.values()) == set(env.graph.vertices)
        assert not verify_covering(proj, cover, env).surjective
        assert verify_covering(proj, cover, env, skip_star_at=boundary).surjective

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(PreconditionError):
            universal_cover_truncation(three_cycle_env(), 0)

    def test_traces_agree_below_radius(self):
        rng = random.Random(44)
        for env in (three_cycle_env(), figure_eight_env()):
            cover, proj, boundary = universal_cover_truncation(env, 4)
            for _ in range(60):
                u = random_signal(rng, env.alphabet_width, max_pieces=3)
                if u.duration >= 4:
                    u = u.restrict_before(Fraction(7, 2))
                assert trace_of(cover, u) == trace_of(env, u)


    def test_random_rational_balls(self):
        rng = random.Random(45)
        for _ in range(20):
            g = random_ported_graph(rng, unit_lengths=False)
            env = Environment(g, rng.choice(g.vertices), DegreeSensor())
            for radius in (Fraction(3, 2), Fraction(5, 2), Fraction(4)):
                cover, proj, boundary = universal_cover_truncation(env, radius)
                cert = verify_covering(proj, cover, env, skip_star_at=boundary)
                # a small ball need not reach every base vertex, so
                # surjectivity is not asserted
                assert cert.local_bijection and cert.lengths_preserved and cert.base_point
                for v in boundary:
                    assert cover.graph.degree(v) == 1
                    assert g.degree(proj.vertex(v)) > 1
                assert len(cover.graph.vertices) == universal_ball_size(g, env.initial, radius)


def _refinement_pool() -> list:
    """Gallery environments, seeded random graphs with unit and rational
    lengths, and cyclic covers of orders 2 to 4 of each random graph."""
    rng = random.Random(81)
    pool = [env for name in sorted(GALLERY) for env in GALLERY[name]()]
    for unit in (True, False) * 20:
        g = random_ported_graph(rng, n_max=4, unit_lengths=unit)
        env = Environment(g, g.vertices[0], DegreeSensor())
        pool.append(env)
        k = rng.randint(2, 4)
        pool.append(cyclic_cover(env, k, random_voltages(rng, g, k))[0])
    return pool


def _shuffled_copy(rng: random.Random, env: Environment) -> Environment:
    """The same graph with its vertex list and edge list shuffled and some
    edges stored the other way round."""
    g = env.graph
    vertices = list(g.vertices)
    rng.shuffle(vertices)
    edges = [
        Edge(e.head, e.tail, e.port_at_head, e.port_at_tail, e.length)
        if rng.random() < 0.5
        else e
        for e in g.edges
    ]
    rng.shuffle(edges)
    return Environment(PortedGraph(vertices, edges), env.initial, DegreeSensor())


class TestDegreeRefinement:
    def test_equality_matches_content_addressed_oracle(self):
        """Two tables are equal exactly when the sha256-coloured oracle's
        tables are, over every ordered pair of the pool."""
        pool = _refinement_pool()
        tables = [degree_refinement(env) for env in pool]
        oracle = [naive_degree_refinement(env) for env in pool]
        equal_off_diagonal = 0
        for i, j in itertools.product(range(len(pool)), repeat=2):
            assert (tables[i] == tables[j]) == (oracle[i] == oracle[j]), (i, j)
            equal_off_diagonal += i != j and tables[i] == tables[j]
        assert equal_off_diagonal >= len(pool)

    def test_table_independent_of_vertex_and_edge_order(self):
        rng = random.Random(82)
        for env in _refinement_pool():
            for _ in range(3):
                assert degree_refinement(_shuffled_copy(rng, env)) == degree_refinement(env)

    def test_regular_graphs_share_one_row(self):
        k4 = PortedGraph(
            ["a", "b", "c", "d"],
            build_edges(
                [
                    ("a", "b", 0, 0),
                    ("a", "c", 1, 0),
                    ("a", "d", 2, 0),
                    ("b", "c", 1, 1),
                    ("b", "d", 2, 1),
                    ("c", "d", 2, 2),
                ]
            ),
        )
        t1 = degree_refinement(Environment(k4, "a", DegreeSensor(), 3))
        t2 = degree_refinement(Environment(theta(), "u", DegreeSensor(), 3))
        assert t1 == t2 == ((3, ((0, 3),)),)

    def test_cycle_and_double_cover_agree(self):
        assert degree_refinement(three_cycle_env()) == degree_refinement(six_cycle_env())

    def test_stars_differ(self):
        def star(n):
            g = PortedGraph(
                ["z"] + [f"l{i}" for i in range(n)],
                build_edges([("z", f"l{i}", i, 0) for i in range(n)]),
            )
            return Environment(g, "z", DegreeSensor(), n)

        assert degree_refinement(star(3)) != degree_refinement(star(4))

    def test_crossing_pair_differs(self):
        a, b = crossing_pair()
        assert degree_refinement(a) != degree_refinement(b)

    def test_invariant_under_relabelling(self):
        rng = random.Random(45)
        for _ in range(20):
            g = random_ported_graph(rng)
            env = Environment(g, g.vertices[0], DegreeSensor())
            names = list(g.vertices)
            shuffled = names[:]
            rng.shuffle(shuffled)
            renamed = relabel_environment(env, dict(zip(names, shuffled)))
            assert degree_refinement(renamed) == degree_refinement(env)
