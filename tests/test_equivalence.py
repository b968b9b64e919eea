"""Equivalence checking: sampling, bisimulation, homomorphisms, witnesses."""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from covertrace import (
    ControlSignal,
    DegreeSensor,
    Environment,
    LabelSensor,
    PortedGraph,
    PreconditionError,
    ValidationError,
    VertexState,
    apply,
    build_edges,
    check_equiv_sampled,
    compute_bisimulation,
    cyclic_cover,
    degree_refinement,
    first_divergence,
    homomorphism_search,
    port_preserving_automorphisms,
    relabel_environment,
    structure_map,
    trace_of,
    traces_equal,
    verify_bisimulation,
    verify_covering,
)
from covertrace.covering import pullback_sensor
from covertrace.equivalence import DiscreteStateSpace
from covertrace.gallery import GALLERY, beams_pair, circle_pair, crossing_pair, kite_pair
from covertrace.generate import (
    random_signal,
    random_unit_environment,
    random_voltages,
)

from helpers import naive_bisimulation, path_middle_env, three_cycle, three_cycle_env


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
        assert related == {"states": 9, "rounds": 0, "blocks": [1], "signals_checked": 0}
        # degree 1 {l, r} against degree 2 {m, x0, x1, x2}; then port 0
        # leads m to a degree-1 end and every x_i to a degree-2 vertex.
        distinguished = compute_bisimulation(path_middle_env(), three_cycle_env())
        stats = distinguished.to_json()["stats"]
        assert stats == {"states": 6, "rounds": 1, "blocks": [2, 3], "signals_checked": 1}

    def test_non_unit_lengths_rejected(self):
        g = PortedGraph(
            ["a", "b"],
            [e for e in build_edges([("a", "b", 0, 0)])],
        )
        stretched = PortedGraph(
            ["a", "b"],
            build_edges([("a", "b", 0, 0, Fraction(3, 2))]),
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
    def test_moves_match_apply_and_trace_of(self):
        envs = [env for name in sorted(GALLERY) for env in GALLERY[name]()]
        unit_envs = [env for env in envs if env.graph.unit_lengths()]
        assert unit_envs
        for env in unit_envs:
            space = DiscreteStateSpace(env)
            for v in space.states:
                for a in space.actions:
                    u = ControlSignal([(a, 1)])
                    assert VertexState(space.step(v, a)) == apply(env, u, VertexState(v))
                    tr = trace_of(env, u, VertexState(v))
                    assert space.chunk(v, a) == (tr.segments, tr.events[:-1])


class TestRefinementOracle:
    """compute_bisimulation against the pair-removal oracle, which shares
    nothing with it but the public step/chunk/value of the state spaces."""

    def assert_matches_oracle(self, e1, e2):
        res = compute_bisimulation(e1, e2)
        pairs, rounds, separation = naive_bisimulation(e1, e2)
        states = len(DiscreteStateSpace(e1).states) + len(DiscreteStateSpace(e2).states)
        assert (res.states, res.rounds) == (states, rounds)
        assert res.related == (separation is None)
        assert len(res.blocks) == res.rounds + 1
        assert all(a < b for a, b in zip(res.blocks, res.blocks[1:]))
        if res.related:
            assert list(res.relation) == pairs
        else:
            assert res.witness.duration == separation
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

    def test_names_sharing_a_string(self):
        """1 and "1" print alike, so only a stable sort of the pairs in
        state order keeps their relative order."""
        graph = PortedGraph(
            [1, "1", 2], build_edges([(1, "1", 0, 1), ("1", 2, 0, 1), (2, 1, 0, 1)])
        )
        e1 = Environment(graph, 1, DegreeSensor(), 2)
        e2 = Environment(graph, "1", DegreeSensor(), 2)
        res = self.assert_matches_oracle(e1, e2)
        assert len(res.relation) == 9


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
    def test_cycle_rotations(self):
        a, b = circle_pair()
        assert len(port_preserving_automorphisms(a.graph)) == 3
        assert len(port_preserving_automorphisms(b.graph)) == 6

    def test_rigid_path(self):
        autos = port_preserving_automorphisms(path_middle_env().graph)
        assert len(autos) == 1
        assert all(autos[0].vertex(v) == v for v in path_middle_env().graph.vertices)


def has_common_cover(a: Environment, b: Environment) -> bool:
    """Try small cyclic covers of `a` as pointed common covers of both sides."""
    candidates = []
    for k in (1, 2):
        for idx in range(2 ** len(a.graph.edges)):
            volts = [(idx >> i) & 1 for i in range(len(a.graph.edges))]
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
            assert degree_refinement(e1) != degree_refinement(e2) or not has_common_cover(
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
        renamed = relabel_environment(env, {"x0": "p", "x1": "q", "x2": "r"})
        res = compute_bisimulation(env, renamed)
        assert res.related
        assert ("x0", "p") in res.relation
