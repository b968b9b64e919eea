"""Equivalence checking: sampling, bisimulation, homomorphisms, witnesses."""
from __future__ import annotations

import itertools
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from covertrace import (
    HALT,
    BeamSensor,
    ControlSignal,
    Dart,
    DegreeSensor,
    Environment,
    FilteredSensor,
    LabelSensor,
    PortedGraph,
    PreconditionError,
    ValidationError,
    VertexState,
    apply,
    check_equiv_sampled,
    compute_bisimulation,
    cyclic_cover,
    first_divergence,
    homomorphism_search,
    structure_map,
    trace_of,
    traces_equal,
    verify_bisimulation,
    verify_covering,
)
from covertrace import equivalence
from covertrace.covering import pullback_sensor
from covertrace.equivalence import DiscreteStateSpace
from covertrace.gallery import GALLERY, beams_pair, circle_pair, crossing_pair, kite_pair
from covertrace.generate import (
    random_beam_sensor,
    random_label_sensor,
    random_ported_graph,
    random_signal,
    random_voltages,
)

from helpers import (
    WireReadings,
    automorphisms,
    graph_edges,
    labelled_triangles,
    marked_cycle_env,
    naive_bisimulation,
    naive_degree_refinement,
    naive_discrete_search,
    naive_legs,
    naive_trace,
    path_middle_env,
    random_unit_environment,
    renamed_copy,
    three_cycle,
    three_cycle_env,
    trace_events,
    trace_segments,
)


def one_flipped_mark_pairs() -> list:
    """30 sparse graphs of 8 to 24 vertices, about one in five marked, each
    against itself with one more vertex flipped, as environment pairs."""
    rng = random.Random(58)
    pairs = []
    for _ in range(30):
        n = rng.randint(8, 24)
        g = random_ported_graph(rng, n_min=n, n_max=n, extra_max=1, max_degree=3)
        labels = {v: int(rng.random() < 0.2) for v in g.vertices}
        flipped = dict(labels)
        v = rng.choice(g.vertices[1:])
        flipped[v] = 1 - flipped[v]
        pairs.append(
            tuple(
                Environment(g, g.vertices[0], LabelSensor(marks, [0] * len(g.lengths)), 3)
                for marks in (labels, flipped)
            )
        )
    return pairs


def sig(*pieces) -> ControlSignal:
    return ControlSignal(pieces)


class TestTracesEqual:
    def test_equal_on_same_environment(self):
        env = three_cycle_env()
        cmp = traces_equal(env, env, sig((0, 2), ("halt", 1)))
        assert cmp.equal and cmp.divergence is None

    def test_divergence_reported(self):
        cmp = traces_equal(path_middle_env(), three_cycle_env(), sig((0, 2)))
        assert not cmp.equal
        assert cmp.divergence == 1

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            traces_equal(three_cycle_env(width=2), three_cycle_env(width=3), sig((0, 1)))

    def test_sensor_kind_mismatch_rejected(self):
        g = three_cycle()
        labelled = Environment(
            g, "x0", LabelSensor({"x0": 2, "x1": 2, "x2": 2}, (0, 0, 0)), 2
        )
        with pytest.raises(ValidationError):
            traces_equal(three_cycle_env(), labelled, sig((0, 1)))


class TestSampledCheck:
    def test_identical_environments_pass(self):
        env = three_cycle_env()
        verdict = check_equiv_sampled(env, env, max_len=5, n_random=50)
        assert not verdict.distinguished
        assert verdict.witness is None
        assert verdict.random_checked == 50

    def test_crossing_pair_refuted_discretely(self):
        a, b = crossing_pair()
        verdict = check_equiv_sampled(a, b, max_len=4, n_random=0)
        assert verdict.distinguished
        assert verdict.witness == sig((0, 1))
        assert verdict.divergence == 1

    def test_cover_pair_survives_sampling(self):
        a, b = circle_pair()
        verdict = check_equiv_sampled(a, b, max_len=8, n_random=100)
        assert not verdict.distinguished

    def test_witness_replays(self):
        rng = random.Random(51)
        found = 0
        while found < 10:
            e1 = random_unit_environment(rng, kind="label")
            e2 = random_unit_environment(rng, kind="label")
            verdict = check_equiv_sampled(e1, e2, max_len=5, n_random=20, seed=found)
            if not verdict.distinguished:
                continue
            found += 1
            replay = traces_equal(e1, e2, verdict.witness)
            assert not replay.equal
            assert replay.divergence == verdict.divergence

    def test_search_simulates_each_move_once(self, monkeypatch):
        """The discrete search reaches the oracle's verdict, witness,
        divergence and signal count on both of its step sources.  Between
        two unit-length graphs it reads every step off the
        DiscreteStateSpace table and simulates nothing; when either side
        has a rational length it simulates each (state, action) of each
        side exactly once."""
        calls = []
        real = equivalence.trajectory

        def counting(env, signal, start=None):
            calls.append((id(env), start, signal))
            return real(env, signal, start)

        monkeypatch.setattr(equivalence, "trajectory", counting)

        def agree(e1, e2):
            calls.clear()
            verdict = check_equiv_sampled(e1, e2, max_len=6, n_random=0)
            pieces, divergence, checked = naive_discrete_search(e1, e2, 6)
            assert verdict.distinguished == (pieces is not None)
            if pieces is not None:
                assert verdict.witness == ControlSignal([(a, 1) for a in pieces])
            assert verdict.divergence == divergence
            assert verdict.signals_checked == checked
            if e1.graph.unit_lengths() and e2.graph.unit_lengths():
                assert not calls
            elif verdict.signals_checked > 1:
                assert calls
            for env in (e1, e2):
                mine = [call for call in calls if call[0] == id(env)]
                assert len(mine) == len(set(mine))
            return verdict

        def rational_environment(kind):
            graph = random_ported_graph(rng, n_max=4, unit_lengths=False, max_degree=3)
            sensor = {
                "degree": DegreeSensor(),
                "label": random_label_sensor(rng, graph),
                "beam": random_beam_sensor(rng, graph),
            }[kind]
            return Environment(graph, rng.choice(graph.vertices), sensor, 3)

        rng = random.Random(58)
        for kind in ("degree", "label", "beam"):
            pool = [random_unit_environment(rng, kind=kind) for _ in range(6)]
            for e1, e2 in itertools.permutations(pool, 2):
                agree(e1, e2)
        # rational lengths, each base beside a 2-fold cover of it, which it
        # is searched against to the horizon
        related = 0
        for kind in ("degree", "label", "beam"):
            pool = []
            for _ in range(3):
                base = rational_environment(kind)
                cover, _ = cyclic_cover(base, 2, random_voltages(rng, base.graph, 2))
                pool += [base, cover]
            for e1, e2 in itertools.permutations(pool, 2):
                related += not agree(e1, e2).distinguished
        assert related >= 3 * 6
        # one side of unit lengths and one of rational lengths, both ways
        mixed = [labelled_triangles()]
        for _ in range(6):
            mixed.append((random_unit_environment(rng, kind="label"), rational_environment("label")))
        for e1, e2 in mixed:
            agree(e1, e2)
            agree(e2, e1)
        assert not agree(*labelled_triangles()).distinguished
        # one unit-length graph with one beam mark per environment, a third,
        # a half or two thirds along some edge: a pair is told apart on a
        # traversal of a marked edge, strictly inside that last unit step
        inside = 0
        for _ in range(4):
            graph = random_ported_graph(rng, n_max=4, max_degree=3)
            start = rng.choice(graph.vertices)
            pool = [
                Environment(
                    graph,
                    start,
                    BeamSensor([(rng.randrange(len(graph.lengths)), Fraction(k, 6), "red")]),
                    3,
                )
                for k in (2, 3, 4, 2, 3)
            ]
            for e1, e2 in itertools.permutations(pool, 2):
                verdict = agree(e1, e2)
                if verdict.distinguished:
                    n = verdict.witness.duration
                    assert n - 1 < verdict.divergence <= n
                    inside += n > 1 and verdict.divergence < n
        assert inside

    def test_search_compares_shared_traces(self, monkeypatch):
        """Every unit trace of the two labelled triangles reads alike, on
        ticks of 1 on one side and of 1/2 on the other.  Both sides share
        one copy of each distinct trace, so after the empty signal the
        search compares no pair of traces and no Fraction."""
        triangle, pendant = labelled_triangles()
        compared, equalities = [], []
        real_divergence, real_eq = equivalence.first_divergence, Fraction.__eq__

        def counting_divergence(a, b):
            compared.append((a, b))
            return real_divergence(a, b)

        def counting_eq(self, other):
            equalities.append(other)
            return real_eq(self, other)

        monkeypatch.setattr(equivalence, "first_divergence", counting_divergence)
        monkeypatch.setattr(Fraction, "__eq__", counting_eq)
        verdict = check_equiv_sampled(triangle, pendant, max_len=6, n_random=0)
        monkeypatch.undo()
        assert verdict.verdict == "related" and verdict.signals_checked > 40
        assert len(compared) == 1 and not equalities

    def test_random_signals_draw_as_choice_over_the_alphabet(self):
        """random_signal lists no alphabet, yet its draws are those of
        rng.choice over ports 0..width-1 then HALT, so the random phase of
        the sampled search checks the signals it always checked."""
        for seed in range(60):
            width = 1 + seed % 7
            got = random_signal(random.Random(seed), width, max_pieces=6, max_denominator=8)
            rng = random.Random(seed)
            pieces = []
            for _ in range(rng.randint(1, 6)):
                den = rng.randint(1, 8)
                num = rng.randint(1, 2 * den)
                pieces.append((rng.choice([*range(width), HALT]), Fraction(num, den)))
            assert got == ControlSignal(pieces)

    def test_witness_found_after_backing_out_of_branches(self):
        """One vertex label changed away from the start: some witnesses
        take an action other than the first before their last piece, so the
        search backed out of whole branches before it found them, and it
        still matches the oracle's witness, divergence and signal count."""
        rng = random.Random(60)
        backed_out = 0
        for _ in range(40):
            e1 = random_unit_environment(rng, kind="label")
            far = [v for v in e1.graph.vertices if v != e1.initial]
            if not far:
                continue
            labels = dict(e1.sensor.vertex_labels)
            labels[rng.choice(far)] = "other"
            sensor = LabelSensor(labels, e1.sensor.edge_labels)
            e2 = Environment(e1.graph, e1.initial, sensor, e1.alphabet_width)
            verdict = check_equiv_sampled(e1, e2, max_len=6, n_random=0)
            pieces, divergence, checked = naive_discrete_search(e1, e2, 6)
            assert verdict.distinguished == (pieces is not None)
            if pieces is not None:
                assert verdict.witness == ControlSignal([(a, 1) for a in pieces])
                # port 0 is the first action the search tries
                backed_out += any(a != 0 for a in pieces[:-1])
            assert (verdict.divergence, verdict.signals_checked) == (divergence, checked)
        assert backed_out

    @pytest.mark.parametrize("budgets", [{"max_len": -1}, {"n_random": -3}])
    def test_negative_budgets_rejected(self, budgets):
        """A negative budget searches nothing, so it cannot back a verdict;
        the marked 4- and 5-cycles show it would hide a real difference."""
        a, b = marked_cycle_env(4), marked_cycle_env(5)
        assert not compute_bisimulation(a, b).related
        with pytest.raises(ValidationError):
            check_equiv_sampled(a, b, **budgets)

    def test_verdict_json_shape(self):
        a, b = crossing_pair()
        data = check_equiv_sampled(a, b, max_len=3, n_random=0).to_json()
        assert data["verdict"] == "distinguished"
        assert data["witness"] == [[0, 1, 1]]
        assert data["divergence"] == [1, 1]


class TestBisimulation:
    def test_environment_matches_itself(self):
        env = three_cycle_env()
        res = compute_bisimulation(env, env)
        assert res.related
        for v in env.graph.vertices:
            assert (v, v) in res.relation

    def test_cycle_related_to_double_cover(self):
        a, b = circle_pair()
        res = compute_bisimulation(a, b)
        assert res.related
        assert verify_bisimulation(a, b, res.relation)

    def test_path_middle_distinguished_from_cycle(self):
        res = compute_bisimulation(path_middle_env(), three_cycle_env())
        assert not res.related
        assert res.witness == sig((0, 1))
        assert res.divergence == 1

    def test_stats_count_blocks_and_replays(self):
        related = compute_bisimulation(*circle_pair()).to_json()["stats"]
        assert list(related) == ["states", "pairs", "rounds", "blocks", "signals_checked"]
        assert list(related.values()) == [9, 6, 0, [1], 0]
        # m and x0 both have degree 2; port 0 then leads m to a degree-1
        # end and x0 to the degree-2 x1, so the walk stops at its first
        # step, with only the initial pair queued and no refinement run.
        distinguished = compute_bisimulation(path_middle_env(), three_cycle_env())
        stats = distinguished.to_json()["stats"]
        assert stats == {"states": 6, "pairs": 1, "signals_checked": 1}
        assert (distinguished.rounds, distinguished.blocks) == (None, None)

    def test_non_unit_lengths_rejected(self):
        g = PortedGraph(["a", "b"], [("a", "b", 0, 0, 1)])
        stretched = PortedGraph(
            ["a", "b"],
            [("a", "b", 0, 0, Fraction(3, 2))],
        )
        env1 = Environment(g, "a", DegreeSensor(), 1)
        env2 = Environment(stretched, "a", DegreeSensor(), 1)
        with pytest.raises(PreconditionError):
            compute_bisimulation(env1, env2)

    def test_verdict_agrees_with_exhaustive_sampling(self):
        rng = random.Random(52)
        for kind in ("degree", "label", "beam"):
            for _ in range(25):
                e1 = random_unit_environment(rng, kind=kind)
                e2 = random_unit_environment(rng, kind=kind)
                res = compute_bisimulation(e1, e2)
                verdict = check_equiv_sampled(e1, e2, max_len=10, n_random=0)
                assert res.related == (not verdict.distinguished)
                if res.related:
                    assert verify_bisimulation(e1, e2, res.relation)
                else:
                    replay = traces_equal(e1, e2, res.witness)
                    assert not replay.equal
                    assert replay.divergence == res.divergence

    def test_witness_is_shortest_and_lexicographically_first(self):
        rng = random.Random(53)
        checked = 0
        while checked < 12:
            e1 = random_unit_environment(rng, kind="label")
            e2 = random_unit_environment(rng, kind="label")
            res = compute_bisimulation(e1, e2)
            if res.related:
                continue
            r = int(res.witness.duration)
            if r == 0 or r > 3:
                continue
            checked += 1
            actions = [*range(e1.alphabet_width), "halt"]
            for shorter in range(1, r):
                for combo in itertools.product(actions, repeat=shorter):
                    u = ControlSignal([(a, 1) for a in combo])
                    assert traces_equal(e1, e2, u).equal
            first = next(
                combo
                for combo in itertools.product(actions, repeat=r)
                if not traces_equal(e1, e2, ControlSignal([(a, 1) for a in combo])).equal
            )
            assert ControlSignal([(a, 1) for a in first]) == res.witness


class TestDiscreteStateSpace:
    @staticmethod
    def assert_table_matches(envs, seen):
        """Every row of the table of envs (one environment or two) equals
        the simulated unit moves (apply and trace_of) of its own side:
        successor, segments and the events but the final instant, with
        exact Fraction times; and each value is the one WireReadings reads
        off the sensor's wire form.  Both read the environment's reading
        table, so each chunk is also held against naive_trace, which reads
        the wire form too.  Counts what the moves met into seen."""
        space = DiscreteStateSpace(*envs)
        assert len(space.values) == len(space.succ) == len(space.chunks) == len(space.states)
        top = max(env.graph.max_degree() for env in envs)
        assert space.actions == (*range(min(envs[0].alphabet_width, top + 1)), HALT)
        # the table lists each chunk once, in order of first appearance
        assert len(set(space.chunk_table)) == len(space.chunk_table)
        first_seen = dict.fromkeys(c for row in space.chunks for c in row)
        assert list(first_seen) == list(range(len(space.chunk_table)))
        assert len(space.starts) == len(envs) and space.starts[0] == 0
        ends = [*space.starts[1:], len(space.states)]
        for env, start, end in zip(envs, space.starts, ends):
            graph = env.graph
            wire = WireReadings(graph, env.sensor)
            rows = range(start, end)
            assert space.states[start] == env.initial
            assert len(set(space.states[start:end])) == end - start
            for i in rows:
                v = space.states[i]
                assert space.values[i] == wire.vertex[v]
                assert len(space.succ[i]) == len(space.chunks[i]) == len(space.actions)
                for k, a in enumerate(space.actions):
                    u = ControlSignal([(a, 1)])
                    assert space.succ[i][k] in rows
                    successor = VertexState(space.states[space.succ[i][k]])
                    assert successor == apply(env, u, VertexState(v))
                    tr = trace_of(env, u, VertexState(v))
                    chunk = space.chunk_table[space.chunks[i][k]]
                    assert chunk == (trace_segments(tr), trace_events(tr)[:-1])
                    _, segments, events = naive_trace(env, *naive_legs(env, u, VertexState(v)))
                    assert chunk == (segments, events[:-1])
                    segments, events = chunk
                    times = [t for t, _, _ in segments] + [t for _, t, _ in segments]
                    times += [t for t, _ in events]
                    assert all(type(t) is Fraction for t in times)
                    if a == HALT or a >= graph.degree(v):
                        continue
                    d = Dart(v, a)
                    idx = graph.edge_of(d)
                    edge = graph_edges(graph)[idx]
                    seen["self-loop"] += edge.tail == edge.head
                    if wire.marks(idx) and d != graph.forward_dart(idx):
                        seen["mark against stored orientation"] += 1
                    seen["event at 0", bool(events) and events[0][0] == 0] += 1

    def test_table_matches_simulation(self):
        """The table matches the simulation on random environments covering
        every sensor bare and filtered, widths below and above the maximum
        degree, self-loops and beam marks met against their edge's stored
        orientation."""
        rng = random.Random(59)
        # every reading the pool's degree, label and beam sensors can give
        readings = (0, 1, 2, 3, "edge", "blank", "red", "green")
        seen = Counter()
        for kind in ("degree", "label", "beam"):
            for _ in range(30):
                base = random_unit_environment(rng, width=3, max_edges=4, kind=kind)
                graph = base.graph
                filtered = FilteredSensor(
                    base.sensor, {value: rng.choice((0, "edge", "blank")) for value in readings}
                )
                top = graph.max_degree()
                for sensor in (base.sensor, filtered):
                    for width in sorted({max(1, w) for w in (top - 1, top, top + 1)}):
                        env = Environment(graph, base.initial, sensor, width)
                        self.assert_table_matches([env], seen)
                        seen[kind, sensor is filtered] += 1
                        seen["width", (width > top) - (width < top)] += 1
        for kind in ("degree", "label", "beam"):
            assert seen[kind, False] and seen[kind, True]
        assert seen["width", -1] and seen["width", 1]
        assert seen["self-loop"] and seen["mark against stored orientation"]
        assert seen["event at 0", True] and seen["event at 0", False]

    def test_moves_match_apply_and_trace_of(self):
        envs = [env for name in sorted(GALLERY) for env in GALLERY[name]()]
        unit_envs = [env for env in envs if env.graph.unit_lengths()]
        assert unit_envs
        for env in unit_envs:
            self.assert_table_matches([env], Counter())

    def test_two_environment_table_matches_simulation(self):
        """One table over two environments holds every row of both sides
        against the simulation of its own side, on the gallery pairs and on
        random pairs of each sensor kind, widths below and above the larger
        maximum degree."""
        pairs = [pair() for _, pair in sorted(GALLERY.items())]
        pairs = [(a, b) for a, b in pairs if a.graph.unit_lengths() and b.graph.unit_lengths()]
        rng = random.Random(61)
        seen = Counter()
        for kind in ("degree", "label", "beam"):
            for _ in range(15):
                e1, e2 = (random_unit_environment(rng, kind=kind) for _ in "ab")
                top = max(e1.graph.max_degree(), e2.graph.max_degree())
                width = max(1, top + rng.choice((-1, 0, 1)))
                seen["width", (width > top) - (width < top)] += 1
                pairs.append(tuple(Environment(e.graph, e.initial, e.sensor, width) for e in (e1, e2)))
        for e1, e2 in pairs:
            self.assert_table_matches([e1, e2], seen)
            self.assert_table_matches([e2, e1], seen)
        assert seen["width", -1] and seen["width", 1]
        assert seen["self-loop"] and seen["event at 0", True]

    def test_shared_table_is_the_tables_built_alone(self):
        """The table of (e1, e2) is e1's table followed by e2's, e2's rows
        offset by e1's state count, and every chunk id names the chunk of
        the table built alone: the shared chunk table is e1's, then e2's
        chunks that e1 lacks, in e2's order.  Ports past a table's own
        cap rest, so they read as its last port."""
        rng = random.Random(62)
        for kind in ("degree", "label", "beam"):
            for _ in range(40):
                width = rng.randint(2, 4)
                e1, e2 = (random_unit_environment(rng, width=width, kind=kind) for _ in "ab")
                shared = DiscreteStateSpace(e1, e2)
                alone = DiscreteStateSpace(e1), DiscreteStateSpace(e2)
                n1 = len(alone[0].states)
                assert shared.states == alone[0].states + alone[1].states
                assert shared.starts == [0, n1]
                assert shared.values == alone[0].values + alone[1].values
                table = list(alone[0].chunk_table)
                table += [c for c in alone[1].chunk_table if c not in table]
                assert shared.chunk_table == table
                for side, space in enumerate(alone):
                    columns = [-1 if a == HALT else min(a, len(space.actions) - 2) for a in shared.actions]
                    for i in range(len(space.states)):
                        row = i + side * n1
                        assert shared.succ[row] == tuple(space.succ[i][k] + side * n1 for k in columns)
                        assert [shared.chunk_table[c] for c in shared.chunks[row]] == [
                            space.chunk_table[space.chunks[i][k]] for k in columns
                        ]

    def test_ports_past_the_largest_degree_rest_like_port_m(self):
        """At width sys.maxsize the table lists ports 0..M and halt, M the
        largest degree over its graphs, and a port past M + 1 gives port
        M's successor and unit trace at every state."""
        for a, b in (circle_pair(), beams_pair(), kite_pair(), crossing_pair()):
            top = max(a.graph.max_degree(), b.graph.max_degree())
            wide = [Environment(e.graph, e.initial, e.sensor, sys.maxsize) for e in (a, b)]
            space = DiscreteStateSpace(*wide)
            assert space.actions == (*range(top + 1), HALT)
            ends = [*space.starts[1:], len(space.states)]
            for env, start, end in zip(wide, space.starts, ends):
                for i in range(start, end):
                    here = VertexState(space.states[i])
                    chunk = space.chunk_table[space.chunks[i][top]]
                    for port in (top + 2, 10**9, sys.maxsize - 1):
                        u = ControlSignal([(port, 1)])
                        assert apply(env, u, here) == VertexState(space.states[space.succ[i][top]])
                        tr = trace_of(env, u, here)
                        assert (trace_segments(tr), trace_events(tr)[:-1]) == chunk


class TestRefinementOracle:
    """compute_bisimulation against the pair-removal oracle, which shares
    nothing with it but the values/succ/chunks table of the state space."""

    def assert_matches_oracle(self, e1, e2):
        res = compute_bisimulation(e1, e2)
        pairs, rounds, separation, witness = naive_bisimulation(e1, e2)
        states = len(DiscreteStateSpace(e1).states) + len(DiscreteStateSpace(e2).states)
        assert res.states == states
        # each queued pair unites two classes of the union-find
        assert 1 <= res.pairs <= states - 1
        assert res.related == (separation is None)
        if res.related:
            # only a related verdict runs refinement
            assert res.rounds == rounds
            assert len(res.blocks) == res.rounds + 1
            assert all(a < b for a, b in zip(res.blocks, res.blocks[1:]))
            assert list(res.relation) == pairs
        else:
            assert (res.rounds, res.blocks) == (None, None)
            assert res.witness.duration == separation
            assert res.witness == ControlSignal([(a, 1) for a in witness])
        return res

    def test_random_unit_environments(self):
        rng = random.Random(56)
        for kind in ("degree", "label", "beam"):
            for _ in range(20):
                e1 = random_unit_environment(rng, kind=kind)
                e2 = random_unit_environment(rng, kind=kind)
                self.assert_matches_oracle(e1, e2)

    def test_random_cyclic_cover_pairs(self):
        rng = random.Random(57)
        for kind in ("degree", "label", "beam"):
            for _ in range(10):
                base = random_unit_environment(rng, max_edges=5, kind=kind)
                k1, k2 = rng.randint(1, 3), rng.randint(1, 3)
                c1, _ = cyclic_cover(base, k1, random_voltages(rng, base.graph, k1))
                c2, _ = cyclic_cover(base, k2, random_voltages(rng, base.graph, k2))
                assert self.assert_matches_oracle(c1, c2).related

    def test_one_flipped_mark(self):
        """A sparse graph of 8 to 24 vertices, about one in five marked,
        against itself with one more vertex flipped: a witness must reach
        the flipped vertex, so words run longer than in the small pools,
        and most of them are not palindromes, so a witness read backwards
        would show."""
        words = []
        for e1, e2 in one_flipped_mark_pairs():
            assert not self.assert_matches_oracle(e1, e2).related
            words.append(naive_bisimulation(e1, e2)[3])
        assert sum(word != word[::-1] for word in words) >= 10
        assert max(map(len, words)) >= 5

    def test_marked_cycles_need_the_whole_way_round(self):
        """A marked n-cycle against an (n+1)-cycle: only n forward steps
        reach a vertex read differently, so the witness is n pieces of
        action 0, far past the lengths a brute force over all words
        reaches."""
        for n in range(4, 41):
            res = self.assert_matches_oracle(marked_cycle_env(n), marked_cycle_env(n + 1))
            assert res.witness.to_json() == [[0, n, 1]]
            assert res.divergence == n

    def test_distinguished_verdicts_run_no_refinement(self, monkeypatch):
        """With refine made to raise, distinguished verdicts still give the
        oracle's witness: the marked 40- against the 41-cycle, a cover of
        one crossing against a cover of the other, and the flipped-mark
        pool."""

        def refuse(*args):
            raise AssertionError("refine ran")

        monkeypatch.setattr(equivalence, "refine", refuse)
        a, b = crossing_pair()
        rng = random.Random(60)
        covers = [
            cyclic_cover(env, k, random_voltages(rng, env.graph, k))[0]
            for env, k in ((a, 3), (b, 2))
        ]
        pairs = [(marked_cycle_env(40), marked_cycle_env(41)), covers, *one_flipped_mark_pairs()]
        for e1, e2 in pairs:
            assert not self.assert_matches_oracle(e1, e2).related
        with pytest.raises(AssertionError, match="refine ran"):
            compute_bisimulation(*circle_pair())

    def test_marked_cycles_of_thousands_of_states(self):
        """The marked 4000- against the 4001-cycle: the walk queues at most
        one pair per state but one, where refinement would take 4000
        rounds over 8001 states."""
        res = compute_bisimulation(marked_cycle_env(4000), marked_cycle_env(4001))
        assert not res.related
        assert res.witness.to_json() == [[0, 4000, 1]]
        assert res.divergence == 4000
        assert res.states == 8001 and res.pairs <= 8000

    def test_names_sharing_a_string(self):
        """1 and "1" print alike, so only a stable sort of the pairs in
        state order keeps their relative order."""
        graph = PortedGraph(
            [1, "1", 2], [(1, "1", 0, 1, 1), ("1", 2, 0, 1, 1), (2, 1, 0, 1, 1)]
        )
        e1 = Environment(graph, 1, DegreeSensor(), 2)
        e2 = Environment(graph, "1", DegreeSensor(), 2)
        res = self.assert_matches_oracle(e1, e2)
        assert len(res.relation) == 9

    def test_names_sharing_a_string_on_both_sides(self):
        """A 6-cycle reading a, b, a, b, a, b, with vertices 1 and "1" in one
        block and 2 and "2" in the other, against itself from another start
        and with another vertex order: the relation is the stable sort by
        (str, str) of the related pairs listed in breadth-first order, so
        the pairs of 1 and of "1" interleave by the partner's name."""
        names = [1, 2, "1", "2", 3, 4]
        edges = [(names[i], names[(i + 1) % 6], 0, 1, 1) for i in range(6)]
        labels = {v: "ab"[i % 2] for i, v in enumerate(names)}
        sensor = LabelSensor(labels, ["e"] * 6)
        e1 = Environment(PortedGraph(names, edges), 1, sensor, 2)
        e2 = Environment(PortedGraph(names[::-1], edges), 3, sensor, 2)
        res = self.assert_matches_oracle(e1, e2)
        assert res.related and res.blocks[-1] == 2
        related = set(naive_bisimulation(e1, e2)[0])
        listed = [
            (v1, v2)
            for v1 in DiscreteStateSpace(e1).states
            for v2 in DiscreteStateSpace(e2).states
            if (v1, v2) in related
        ]
        expected = sorted(listed, key=lambda p: (str(p[0]), str(p[1])))
        assert list(res.relation) == expected
        assert expected[:6] == [(1, 1), (1, "1"), ("1", 1), ("1", "1"), (1, 3), ("1", 3)]

    def test_a_rest_and_a_traversal_reading_alike_are_one_chunk(self):
        """Every vertex and edge of the three-cycle reads 0, so its first
        chunk comes from a traversal, while an edgeless vertex reading 0
        only rests.  The two chunks are equal, so the environments are
        related: the chunks are numbered by value, not by how they arose."""
        a = three_cycle_env(LabelSensor({"x0": 0, "x1": 0, "x2": 0}, (0, 0, 0)))
        b = Environment(PortedGraph(["p"], []), "p", LabelSensor({"p": 0}, ()), 2)
        rest = (((Fraction(0), Fraction(1), 0),), ())
        assert DiscreteStateSpace(a).chunk_table == DiscreteStateSpace(b).chunk_table == [rest]
        assert DiscreteStateSpace(a, b).chunk_table == [rest]
        for e1, e2 in ((a, b), (b, a)):
            res = self.assert_matches_oracle(e1, e2)
            assert res.related and len(res.relation) == 3


class TestVerifyBisimulation:
    def test_accepts_computed_relation(self):
        a, b = circle_pair()
        res = compute_bisimulation(a, b)
        assert verify_bisimulation(a, b, res.relation)

    def test_rejects_relation_without_initial_pair(self):
        a, b = circle_pair()
        res = compute_bisimulation(a, b)
        pruned = [p for p in res.relation if p != (a.initial, b.initial)]
        assert not verify_bisimulation(a, b, pruned)

    def test_rejects_unclosed_relation(self):
        a, b = circle_pair()
        assert not verify_bisimulation(a, b, [(a.initial, b.initial)])

    def test_rejects_value_mismatch(self):
        a = path_middle_env()
        b = three_cycle_env()
        assert not verify_bisimulation(a, b, [("m", "x0"), ("l", "x1"), ("r", "x2")])

    def test_unknown_vertices_rejected(self):
        a, b = circle_pair()
        with pytest.raises(ValidationError):
            verify_bisimulation(a, b, [("nope", b.initial)])

    def test_widest_alphabet_checks_as_port_m_plus_one(self, monkeypatch):
        """The checker replays the actions the decider searches, ports up
        to the larger maximum degree M and halt, so at width sys.maxsize it
        gives width M + 1's verdict on each gallery pair, each in under a
        second: for the relation bisim returns at the gallery width (every
        pair of names for the distinguished crossing pair), which holds at
        width M + 1 for the circle and beams pairs but not for the kite
        pair, and for that relation with one pair dropped, which fails.  A
        relation that holds has had every one of those actions replayed."""
        replayed = set()
        real = equivalence.trajectory

        def recording(env, signal, start=None):
            replayed.add(signal.pieces[0][0])
            return real(env, signal, start)

        monkeypatch.setattr(equivalence, "trajectory", recording)
        held = []
        for a, b in (circle_pair(), beams_pair(), kite_pair(), crossing_pair()):
            top = max(a.graph.max_degree(), b.graph.max_degree())
            narrow, wide = (
                [Environment(e.graph, e.initial, e.sensor, width) for e in (a, b)] for width in (top + 1, sys.maxsize)
            )
            res = compute_bisimulation(a, b)
            if res.related:
                relation = list(res.relation)
            else:
                relation = [(v1, v2) for v1 in a.graph.vertices for v2 in b.graph.vertices]
            for pairs in (relation, relation[:-1]):
                verdict = verify_bisimulation(*narrow, pairs)
                replayed.clear()
                start = time.perf_counter()
                assert verify_bisimulation(*wide, pairs) == verdict
                assert time.perf_counter() - start < 1
                if verdict:
                    assert replayed == {*range(top + 1), HALT}
                held.append(verdict)
        assert held == [True, False, True, False, False, False, False, False]

    def test_rejects_relation_from_a_corrupted_table(self, monkeypatch):
        """A table with a wrong chunk on one edge's darts misleads the
        refinement but not the checker, which replays every move through
        the simulation."""
        zeros = {"x0": 0, "x1": 0, "x2": 0}
        a = three_cycle_env(LabelSensor(zeros, (0, 0, 0)))
        b = three_cycle_env(LabelSensor(zeros, (0, 0, 1)))
        assert not compute_bisimulation(a, b).related
        one, zero = Fraction(1), Fraction(0)
        wrong = (((zero, one, 1),), ((zero, 0),))
        right = (((zero, one, 0),), ())
        real = DiscreteStateSpace.__init__

        def corrupted(self, *envs):
            real(self, *envs)
            bad, good = self.chunk_table.index(wrong), self.chunk_table.index(right)
            self.chunks = [tuple(good if c == bad else c for c in row) for row in self.chunks]

        monkeypatch.setattr(DiscreteStateSpace, "__init__", corrupted)
        res = compute_bisimulation(a, b)
        assert res.related
        assert not verify_bisimulation(a, b, res.relation)


class TestHomomorphisms:
    def test_cover_maps_onto_base(self):
        a, b = circle_pair()
        f = homomorphism_search(b, a)
        assert f is not None
        assert f.vertex(b.initial) == a.initial
        assert verify_covering(f, b, a).positive

    def test_no_map_from_base_to_cover(self):
        a, b = circle_pair()
        assert homomorphism_search(a, b) is None

    def test_found_map_implies_equal_traces(self):
        rng = random.Random(54)
        a, b = circle_pair()
        f = homomorphism_search(b, a)
        assert f is not None
        for _ in range(50):
            u = random_signal(rng, a.alphabet_width, max_pieces=4)
            assert traces_equal(b, a, u).equal

    @pytest.mark.parametrize("flip, found", [(True, True), (False, False)])
    def test_marks_meet_against_the_stored_orientation(self, flip, found):
        """e2 stores the one edge b -> a where e1 stores it a -> b, and e1
        lists its marks in descending order.  e2's marks match e1's only at
        length - q."""
        length = Fraction(2)
        marks = [(Fraction(1), "blue"), (Fraction(1, 3), "red")]

        def env(edge, marks):
            graph = PortedGraph(["a", "b"], [edge])
            return Environment(graph, "a", BeamSensor([(0, q, label) for q, label in marks]), 2)

        e1 = env(("a", "b", 0, 0, length), marks)
        e2 = env(("b", "a", 0, 0, length), [(length - q if flip else q, label) for q, label in marks])
        for source, target in ((e1, e2), (e2, e1)):
            assert (homomorphism_search(source, target) is not None) == found
        assert traces_equal(e1, e2, sig((0, 2), (1, 1), (0, 2))).equal == found

    def test_random_cyclic_cover_projections_are_found(self):
        rng = random.Random(55)
        for _ in range(15):
            base = random_unit_environment(rng, kind="degree")
            k = rng.randint(1, 3)
            cover, proj = cyclic_cover(base, k, random_voltages(rng, base.graph, k))
            f = homomorphism_search(cover, base)
            assert f is not None
            for _ in range(10):
                u = random_signal(rng, base.alphabet_width, max_pieces=3)
                assert traces_equal(cover, base, u).equal


class TestAutomorphisms:
    """The automorphism list of tests/helpers.py, which the isometry checks
    read, finds every rotation of a cycle and nothing more on a rigid path."""

    def test_cycle_rotations(self):
        a, b = circle_pair()
        assert len(automorphisms(a.graph)) == 3
        assert len(automorphisms(b.graph)) == 6

    def test_rigid_path(self):
        autos = automorphisms(path_middle_env().graph)
        assert len(autos) == 1
        assert all(autos[0].vertex(v) == v for v in path_middle_env().graph.vertices)


def has_common_cover(a: Environment, b: Environment) -> bool:
    """Try small cyclic covers of `a` as pointed common covers of both sides."""
    candidates = []
    for k in (1, 2):
        for idx in range(2 ** len(a.graph.lengths)):
            volts = [(idx >> i) & 1 for i in range(len(a.graph.lengths))]
            candidates.append(cyclic_cover(a, k, volts)[0])
    for cand in candidates:
        f = structure_map(cand.graph, b.graph, cand.initial, b.initial)
        if f is None:
            continue
        if not verify_covering(f, cand, b).positive:
            continue
        if pullback_sensor(f, cand.graph, b.graph, b.sensor) == cand.sensor:
            return True
    return False


class TestCommonCovers:
    def test_cover_pair_has_common_cover(self):
        a, b = circle_pair()
        assert has_common_cover(a, b)

    def test_distinguished_pairs_have_none(self):
        # a distinguishing signal rules out any common cover; check that the
        # degree tables or the cover search agree for known distinguished pairs
        for e1, e2 in (crossing_pair(), (path_middle_env(), three_cycle_env())):
            assert not compute_bisimulation(e1, e2).related
            assert naive_degree_refinement(e1) != naive_degree_refinement(e2) or not has_common_cover(
                e1, e2
            )


class TestGalleryPairs:
    def test_crossing_divergence_at_first_vertex(self):
        a, b = crossing_pair()
        res = compute_bisimulation(a, b)
        assert not res.related
        assert res.witness == sig((0, 1))
        assert res.divergence == 1

    def test_beams_related_without_any_map(self):
        a, b = beams_pair()
        res = compute_bisimulation(a, b)
        assert res.related
        assert verify_bisimulation(a, b, res.relation)
        assert homomorphism_search(a, b) is None
        assert homomorphism_search(b, a) is None

    def test_beams_agree_on_continuous_signals(self):
        a, b = beams_pair()
        rng = random.Random(56)
        for _ in range(60):
            u = random_signal(rng, a.alphabet_width, max_pieces=4)
            assert traces_equal(a, b, u).equal

    def test_kite_related_discretely(self):
        a, b = kite_pair()
        res = compute_bisimulation(a, b)
        assert res.related
        assert sorted(res.relation) == [
            ("T", "a"),
            ("T", "b"),
            ("a", "T"),
            ("b", "T"),
            ("g", "g"),
        ]
        assert verify_bisimulation(a, b, res.relation)
        assert homomorphism_search(a, b) is None
        assert homomorphism_search(b, a) is None

    def test_kite_differs_on_a_fractional_schedule(self):
        # discrete relatedness does not extend to arbitrary durations here: a
        # signal that reverses direction mid-edge separates the two labellings
        a, b = kite_pair()
        u = sig((0, 1), (1, Fraction(1, 2)), (0, Fraction(3, 2)))
        d = first_divergence(trace_of(a, u), trace_of(b, u))
        assert d == Fraction(5, 2)

    def test_kite_refuted_by_random_sampling(self):
        a, b = kite_pair()
        verdict = check_equiv_sampled(a, b, max_len=6, n_random=200, seed=0)
        assert verdict.distinguished
        assert verdict.witness.duration > int(verdict.witness.duration) or any(
            dur != int(dur) for _, dur in verdict.witness.pieces
        )
        replay = traces_equal(a, b, verdict.witness)
        assert not replay.equal and replay.divergence == verdict.divergence


class TestInterfaceGuards:
    def test_bisimulation_needs_shared_width(self):
        with pytest.raises(ValidationError):
            compute_bisimulation(three_cycle_env(width=2), three_cycle_env(width=3))

    def test_homomorphism_needs_shared_width(self):
        with pytest.raises(ValidationError):
            homomorphism_search(three_cycle_env(width=2), three_cycle_env(width=3))

    def test_relabelled_pair_stays_related(self):
        env = three_cycle_env()
        renamed = renamed_copy(env, {"x0": "p", "x1": "q", "x2": "r"})
        res = compute_bisimulation(env, renamed)
        assert res.related
        assert ("x0", "p") in res.relation
