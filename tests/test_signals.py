"""Signal space: canonical form, segmentation algebra, metric, geodesics."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertrace import EMPTY, HALT, ControlSignal, PreconditionError, ValidationError
from covertrace.generate import random_signal
from covertrace.signals import distance, geodesic

from helpers import (
    grid_distance,
    joined,
    naive_geodesic,
    naive_pieces,
    prefix,
    rational_signals,
    suffix,
    wire_pieces,
    wire_signals,
)


def sig(*pieces) -> ControlSignal:
    return ControlSignal(pieces)


class TestCanonicalForm:
    def test_zero_durations_dropped(self):
        assert sig((0, 1), (1, 0), (0, 2)) == sig((0, 3))

    def test_adjacent_equal_symbols_merge(self):
        assert sig((0, 1), (0, 2), (1, 1)).pieces == ((0, 3), (1, 1))

    def test_empty(self):
        assert EMPTY.duration == 0
        assert EMPTY.pieces == ()
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
    """The Fraction join of tests/helpers.py, which the geodesic oracle is
    built on, obeys the laws of concatenation."""

    def test_empty_identity(self):
        b = sig((1, 2), (0, 1))
        assert joined(EMPTY, b) == b
        assert joined(b, EMPTY) == b

    def test_merging_seam(self):
        assert joined(sig((0, 2)), sig((0, 3))) == sig((0, 5))

    def test_disjoint(self):
        assert joined(sig((0, 1)), sig((1, 2))).pieces == ((0, 1), (1, 2))

    def test_duration_adds(self):
        rng = random.Random(11)
        for _ in range(50):
            a, b = random_signal(rng, 3), random_signal(rng, 3)
            assert joined(a, b).duration == a.duration + b.duration

    def test_associativity(self):
        rng = random.Random(12)
        for _ in range(100):
            a, b, c = (random_signal(rng, 2) for _ in range(3))
            assert joined(joined(a, b), c) == joined(a, joined(b, c))


class TestRestrictAndSuffix:
    """The Fraction cuts of tests/helpers.py, which the geodesic oracle and
    the causality checks of the simulation are built on, split a signal
    into its two parts."""

    def test_truncate_last_piece(self):
        assert prefix(sig((0, 2), (1, 3)), 4) == sig((0, 2), (1, 2))

    def test_restrict_to_zero(self):
        assert prefix(sig((0, 2)), 0) == EMPTY

    def test_overlong_restriction_clamps(self):
        u = sig((0, 2), (1, 1))
        assert prefix(u, u.duration + 1) == u

    def test_suffix_at_piece_boundary(self):
        assert suffix(sig((0, 2), (1, 3)), 2) == sig((1, 3))

    def test_suffix_identity(self):
        u = sig((0, 2), (1, 3))
        assert suffix(u, 0) == u

    def test_suffix_mid_piece(self):
        assert suffix(sig((0, 2)), Fraction(1, 2)) == sig((0, Fraction(3, 2)))

    def test_segmentation_closure(self):
        rng = random.Random(13)
        for _ in range(200):
            u = random_signal(rng, 3)
            t = u.duration * Fraction(rng.randint(0, 8), 8)
            assert joined(prefix(u, t), suffix(u, t)) == u

    def test_concat_decomposition(self):
        rng = random.Random(14)
        for _ in range(200):
            a, b = random_signal(rng, 3), random_signal(rng, 3)
            c = joined(a, b)
            assert prefix(c, a.duration) == a
            assert suffix(c, a.duration) == b


class TestStrictPrefix:
    def test_tree_order(self):
        # two prefixes of one signal are comparable: the shorter is a
        # prefix of the longer
        rng = random.Random(15)
        for _ in range(200):
            c = random_signal(rng, 3)
            ta = c.duration * Fraction(rng.randint(0, 7), 8)
            tb = c.duration * Fraction(rng.randint(0, 7), 8)
            a, b = prefix(c, ta), prefix(c, tb)
            if a.duration > b.duration:
                a, b = b, a
            assert prefix(b, a.duration) == a


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
            lhs = distance(prefix(u, t), prefix(v, s))
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

    @pytest.mark.parametrize(
        "document, message",
        [
            ([[1, 1, 2], [0, True, 1]], "bad rational on the wire: [True, 1]"),
            ([[1, 1, 2], [0, 1, 0]], "zero denominator"),
            ([[1, 1, 2], [0, -1, 2]], "negative duration: -1/2"),
            ([[1, 1, 2], [0, 2, -4]], "negative duration: -1/2"),
            ([[1, 1, 2], [0, 0.5, 1]], "bad rational on the wire: [0.5, 1]"),
            ([[1, 1, 2], [0, 1]], "bad signal JSON entry: [0, 1]"),
            ([[1, 1, 2], ["stop", 1, 1]], "bad control symbol: 'stop'"),
            ([[1, 1, 2], [True, 1, 1]], "bad control symbol: True"),
            # every entry is read off the wire before any symbol is checked
            ([["stop", 1, 1], [0, 1, 0]], "zero denominator"),
            ([[0, -1, 1], [0, 1]], "bad signal JSON entry: [0, 1]"),
        ],
    )
    def test_refusal_messages(self, document, message):
        with pytest.raises(ValidationError) as refused:
            ControlSignal.from_json(document)
        assert str(refused.value) == message

    def test_negative_over_negative_is_positive(self):
        assert ControlSignal.from_json([[0, -2, -4], [0, 1, 2]]) == sig((0, 1))


class TestTickForm:
    """The (scale, symbols, ticks) form against the Fraction oracles in
    helpers: the same pieces, durations, equality and hashes, and the same
    algebra."""

    @settings(max_examples=200, deadline=None)
    @given(wire_signals())
    def test_wire_reading_matches_oracle(self, document):
        u = ControlSignal.from_json(document)
        expected = naive_pieces(wire_pieces(document))
        assert u.pieces == expected
        assert all(type(d) is Fraction for _, d in u.pieces)
        assert u.duration == sum((d for _, d in expected), Fraction(0))
        assert type(u.duration) is Fraction
        assert u.to_json() == [[s, d.numerator, d.denominator] for s, d in expected]
        built = ControlSignal(wire_pieces(document))
        assert built.pieces == expected
        assert u == built and hash(u) == hash(built)

    @settings(max_examples=200, deadline=None)
    @given(wire_signals(), wire_signals(), st.integers(1, 3))
    def test_equality_and_hash_follow_the_pieces(self, first, second, k):
        """Two documents are equal signals exactly when the oracle's pieces
        agree; splitting every piece into k parts over k times the
        denominator spells the same signal."""
        u, v = ControlSignal.from_json(first), ControlSignal.from_json(second)
        assert (u == v) == (naive_pieces(wire_pieces(first)) == naive_pieces(wire_pieces(second)))
        split = [[symbol, num, den * k] for symbol, num, den in first for _ in range(k)]
        w = ControlSignal.from_json(split)
        assert w == u and hash(w) == hash(u)
        assert w.to_json() == u.to_json()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0, 1, 2, 3, HALT]), max_size=30))
    def test_unit_word_from_ticks_matches_the_constructor(self, word):
        """The bisim and sampled-search witnesses and the unit moves are
        words of unit actions built from ticks; runs merge and the empty
        word is the empty signal, as the checking constructor makes them."""
        u = ControlSignal._from_ticks(1, word, [1] * len(word))
        built = ControlSignal([(a, Fraction(1)) for a in word])
        assert u == built and hash(u) == hash(built)
        assert (u.to_json(), repr(u), u.duration) == (built.to_json(), repr(built), len(word))

    @settings(max_examples=200, deadline=None)
    @given(wire_signals(), wire_signals(), st.integers(0, 12), st.integers(1, 12))
    def test_algebra_matches_oracle(self, first, second, num, den):
        a, b = ControlSignal.from_json(first), ControlSignal.from_json(second)
        pa, pb = naive_pieces(wire_pieces(first)), naive_pieces(wire_pieces(second))
        s = Fraction(min(num, den), den)
        g = geodesic(a, b, s)
        assert g.pieces == naive_geodesic(pa, pb, s)
        assert g == ControlSignal(g.pieces) and hash(g) == hash(ControlSignal(g.pieces))

    def test_no_fraction_per_piece(self, monkeypatch):
        """Reading two 200-piece documents, their geodesic and distance, and
        writing the geodesic back out build a handful of Fractions, not one
        per piece."""
        rng = random.Random(5)

        def document():
            return [[rng.choice([0, 1, 2, HALT]), rng.randint(1, 16), rng.randint(1, 8)] for _ in range(200)]

        first, second = document(), document()
        built = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        a, b = ControlSignal.from_json(first), ControlSignal.from_json(second)
        g = geodesic(a, b, Fraction(2, 7))
        wire = g.to_json()
        d = distance(a, g)
        monkeypatch.undo()
        assert len(built) < 10
        assert len(a.pieces) > 100 and len(wire) > 100
        assert ControlSignal.from_json(wire) == g
        assert d + distance(g, b) == distance(a, b)
