"""Signal space: canonical form, segmentation algebra, metric, geodesics."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from covertrace import EMPTY, HALT, ControlSignal, PreconditionError, ValidationError
from covertrace.generate import random_signal
from covertrace.signals import distance, geodesic

from helpers import grid_distance, rational_signals


def sig(*pieces) -> ControlSignal:
    return ControlSignal(pieces)


class TestCanonicalForm:
    def test_zero_durations_dropped(self):
        assert sig((0, 1), (1, 0), (0, 2)) == sig((0, 3))

    def test_adjacent_equal_symbols_merge(self):
        assert sig((0, 1), (0, 2), (1, 1)).pieces == ((0, 3), (1, 1))

    def test_empty(self):
        assert EMPTY.duration == 0
        assert EMPTY.is_empty
        assert ControlSignal([]) == EMPTY

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            sig((0, -1))

    def test_float_duration_rejected(self):
        with pytest.raises(ValidationError):
            ControlSignal([(0, 0.5)])

    def test_bad_symbols_rejected(self):
        with pytest.raises(ValidationError):
            sig((-1, 1))
        with pytest.raises(ValidationError):
            sig(("stop", 1))
        with pytest.raises(ValidationError):
            sig((True, 1))

    def test_halt_symbol_allowed(self):
        assert sig((HALT, 2)).pieces == ((HALT, Fraction(2)),)


class TestConcat:
    def test_empty_identity(self):
        b = sig((1, 2), (0, 1))
        assert EMPTY.concat(b) == b
        assert b.concat(EMPTY) == b

    def test_merging_seam(self):
        assert sig((0, 2)).concat(sig((0, 3))) == sig((0, 5))

    def test_disjoint(self):
        assert sig((0, 1)).concat(sig((1, 2))).pieces == ((0, 1), (1, 2))

    def test_duration_adds(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b = random_signal(rng, 3), random_signal(rng, 3)
            assert a.concat(b).duration == a.duration + b.duration

    def test_associativity(self):
        rng = random.Random(12)
        for _ in range(100):
            a, b, c = (random_signal(rng, 2) for _ in range(3))
            assert a.concat(b).concat(c) == a.concat(b.concat(c))


class TestRestrictAndSuffix:
    def test_truncate_last_piece(self):
        assert sig((0, 2), (1, 3)).restrict_before(4) == sig((0, 2), (1, 2))

    def test_restrict_to_zero(self):
        assert sig((0, 2)).restrict_before(0) == EMPTY

    def test_overlong_restriction_clamps(self):
        u = sig((0, 2), (1, 1))
        assert u.restrict_before(u.duration + 1) == u

    def test_negative_restriction_rejected(self):
        with pytest.raises(PreconditionError):
            sig((0, 1)).restrict_before(-1)

    def test_suffix_at_piece_boundary(self):
        assert sig((0, 2), (1, 3)).suffix_from(2) == sig((1, 3))

    def test_suffix_identity(self):
        u = sig((0, 2), (1, 3))
        assert u.suffix_from(0) == u

    def test_suffix_mid_piece(self):
        assert sig((0, 2)).suffix_from(Fraction(1, 2)) == sig((0, Fraction(3, 2)))

    def test_suffix_past_end_rejected(self):
        with pytest.raises(PreconditionError):
            sig((0, 2)).suffix_from(3)

    def test_segmentation_closure(self):
        rng = random.Random(13)
        for _ in range(200):
            u = random_signal(rng, 3)
            t = u.duration * Fraction(rng.randint(0, 8), 8)
            assert u.restrict_before(t).concat(u.suffix_from(t)) == u

    def test_concat_decomposition(self):
        rng = random.Random(14)
        for _ in range(200):
            a, b = random_signal(rng, 3), random_signal(rng, 3)
            c = a.concat(b)
            assert c.restrict_before(a.duration) == a
            assert c.suffix_from(a.duration) == b


class TestStrictPrefix:
    def test_prefix_of_extension(self):
        a, b = sig((0, 1)), sig((1, 2))
        assert a.is_strict_prefix_of(a.concat(b))

    def test_not_prefix_of_self(self):
        a = sig((0, 1))
        assert not a.is_strict_prefix_of(a)

    def test_symbol_mismatch(self):
        assert not sig((0, 1)).is_strict_prefix_of(sig((1, 2)))

    def test_empty_below_everything(self):
        assert EMPTY.is_strict_prefix_of(sig((0, 1)))
        assert not EMPTY.is_strict_prefix_of(EMPTY)

    def test_tree_order(self):
        # two prefixes of one signal are comparable
        rng = random.Random(15)
        for _ in range(200):
            c = random_signal(rng, 3)
            ta = c.duration * Fraction(rng.randint(0, 7), 8)
            tb = c.duration * Fraction(rng.randint(0, 7), 8)
            a, b = c.restrict_before(ta), c.restrict_before(tb)
            if a.duration > b.duration:
                a, b = b, a
            assert a == b or a.is_strict_prefix_of(b)


class TestDistance:
    def test_empty_versus_signal(self):
        assert distance(EMPTY, sig((0, 3))) == 3

    def test_full_overlap_disagreement(self):
        assert distance(sig((0, 2)), sig((1, 2))) == 2

    def test_partial_overlap(self):
        a = sig((0, 1), (1, 1))
        b = sig((0, 3))
        assert distance(a, b) == 2
        assert grid_distance(a, b) == 2

    @settings(max_examples=150, deadline=None)
    @given(rational_signals(width=3), rational_signals(width=3))
    def test_matches_grid_oracle(self, a, b):
        assert distance(a, b) == grid_distance(a, b)

    def test_metric_axioms(self):
        rng = random.Random(17)
        for _ in range(300):
            a, b, c = (random_signal(rng, 2, max_pieces=4) for _ in range(3))
            assert distance(a, b) >= 0
            assert distance(a, b) == distance(b, a)
            assert (distance(a, b) == 0) == (a == b)
            assert distance(a, c) <= distance(a, b) + distance(b, c)

    def test_lipschitz_restriction(self):
        rng = random.Random(18)
        for _ in range(300):
            u, v = random_signal(rng, 3), random_signal(rng, 3)
            t = u.duration * Fraction(rng.randint(0, 8), 8)
            s = v.duration * Fraction(rng.randint(0, 8), 8)
            lhs = distance(u.restrict_before(t), v.restrict_before(s))
            assert lhs <= distance(u, v) + abs(t - s)


class TestGeodesic:
    def test_endpoints(self):
        rng = random.Random(19)
        for _ in range(50):
            a, b = random_signal(rng, 2), random_signal(rng, 2)
            assert geodesic(a, b, 0) == a
            assert geodesic(a, b, 1) == b

    def test_halfway_example(self):
        a, b = sig((0, 2)), sig((1, 4))
        mid = geodesic(a, b, Fraction(1, 2))
        assert mid.duration == 3
        assert mid == sig((1, 1), (0, 1), (1, 1))

    def test_parameter_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            geodesic(sig((0, 1)), sig((1, 1)), 2)
        with pytest.raises(PreconditionError):
            geodesic(sig((0, 1)), sig((1, 1)), Fraction(-1, 2))

    def test_additivity(self):
        rng = random.Random(20)
        values = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        for _ in range(100):
            a, b = random_signal(rng, 3), random_signal(rng, 3)
            for s in values:
                g = geodesic(a, b, s)
                assert distance(g, a) + distance(g, b) == distance(a, b)

    def test_duration_interpolates(self):
        a, b = sig((0, 1)), sig((0, 5))
        for s in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)):
            assert geodesic(a, b, s).duration == 1 + 4 * s


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(21)
        for _ in range(50):
            u = random_signal(rng, 3)
            assert ControlSignal.from_json(u.to_json()) == u

    def test_wire_shape(self):
        u = sig((0, Fraction(1, 2)), (HALT, 2))
        assert u.to_json() == [[0, 1, 2], ["halt", 2, 1]]

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            ControlSignal.from_json({"pieces": []})
        with pytest.raises(ValidationError):
            ControlSignal.from_json([[0, 1]])
