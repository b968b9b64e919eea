"""Known-answer checkers.

Each factory takes the expected answer, worked out from theory or from an
independent reference in references.py, and returns check(out), where out is
the parsed JSON a command printed.  A check returns None when the output is
right and a one-line reason when it is not.  Reference answers are computed
on the first check, so that set-up time covers only the inputs.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

import references as ref


def _rational(pair):
    return Fraction(pair[0], pair[1])


def related_bisim(left, right, initial, same_class):
    """bisim on two covers of one base: related, and the relation is exactly
    the pairs whose base vertices are bisimilar in the base.  left and right
    list the vertices of each cover, initial is the pair of start vertices,
    and same_class(u, w) decides base bisimilarity of base vertices."""

    def check(out):
        if out.get("verdict") != "related":
            return f"verdict {out.get('verdict')!r}, expected 'related'"
        pairs = {tuple(p) for p in out.get("relation", ())}
        if len(pairs) != len(out["relation"]):
            return "relation lists a pair twice"
        if initial not in pairs:
            return "initial pair missing from relation"
        expected = sum(
            1 for u in left for w in right if same_class(ref.base_of(u), ref.base_of(w))
        )
        wrong = [p for p in pairs if not same_class(ref.base_of(p[0]), ref.base_of(p[1]))]
        if wrong or len(pairs) != expected:
            return f"relation has {len(pairs)} pairs ({len(wrong)} wrong), expected {expected}"
        if out["stats"]["states"] != len(left) + len(right):
            return f"{out['stats']['states']} states, expected {len(left) + len(right)}"
        return None

    return check


def distinguished_bisim(duration, cycle=None):
    """bisim verdict 'distinguished' with a shortest witness of the given
    duration that first diverges at its end.  For marked cycles (cycle = n)
    the witness is also replayed on the n- and (n+1)-cycles."""

    def check(out):
        if out.get("verdict") != "distinguished":
            return f"verdict {out.get('verdict')!r}, expected 'distinguished'"
        pieces = ref.parse_signal(out["witness"])
        if ref.signal_duration(pieces) != duration:
            return f"witness duration {ref.signal_duration(pieces)}, expected {duration}"
        if _rational(out["divergence"]) != duration:
            return f"divergence {_rational(out['divergence'])}, expected {duration}"
        if cycle is not None:
            a = ref.cycle_readings(cycle, pieces)
            b = ref.cycle_readings(cycle + 1, pieces)
            first = next((t for t, (x, y) in enumerate(zip(a, b)) if x != y), None)
            if first != duration:
                return f"witness replay diverges at {first}, expected {duration}"
        return None

    return check


def metric(a, b):
    expected = cache(lambda: ref.distance(a, b))

    def check(out):
        got = _rational(out["distance"])
        if got != expected():
            return f"distance {got}, reference {expected()}"
        return None

    return check


def geodesic(a, b, s):
    """The point g lies on a geodesic, d(a, g) + d(g, b) = d(a, b) by the
    reference distance, and is exactly the point the geodesic's docstring
    specifies for the time-share parameter s."""
    whole = cache(lambda: ref.distance(a, b))
    expected = cache(lambda: ref.geodesic_point(a, b, s))

    def check(out):
        g = ref.parse_signal(out)
        to_a, to_b = ref.distance(a, g), ref.distance(g, b)
        if to_a + to_b != whole():
            return f"d(a,g) + d(g,b) = {to_a} + {to_b}, d(a,b) = {whole()}"
        if g != expected():
            return f"point differs from the specified one at s = {s}"
        return None

    return check


def trace(env, pieces):
    """The trace equals the reference simulation on env.  A cover's ops use
    the base as env: the covering map carries the robot and its readings, so
    the trace on a cover equals the trace on its base."""
    expected = cache(lambda: ref.trace(env, pieces))

    def check(out):
        if out != expected():
            return "trace differs from the reference trace on the base"
        return None

    return check


def equiv(verdict):
    """Sampled equivalence: beams pairs are related, kite pairs are
    distinguished by a witness that diverges within its own duration."""

    def check(out):
        if out.get("verdict") != verdict:
            return f"verdict {out.get('verdict')!r}, expected {verdict!r}"
        if verdict == "distinguished":
            length = ref.signal_duration(ref.parse_signal(out["witness"]))
            when = _rational(out["divergence"])
            if not 0 <= when <= length:
                return f"divergence {when} outside the witness [0, {length}]"
        return None

    return check


def gen_cyclic(k, base):
    """An order-k cover of a connected derived graph has k |V| vertices and
    k |E| edges, and its projection hits every base vertex k times."""
    n_vertices, n_edges = k * len(base["vertices"]), k * len(base["edges"])

    def check(out):
        env = out["environment"]
        if len(env["vertices"]) != n_vertices or len(env["edges"]) != n_edges:
            return (
                f"cover has {len(env['vertices'])} vertices and {len(env['edges'])} edges, "
                f"expected {n_vertices} and {n_edges}"
            )
        fibres = {}
        for _, image in out["projection"]["vertex_map"]:
            fibres[image] = fibres.get(image, 0) + 1
        if fibres != {v: k for v in base["vertices"]}:
            return "projection fibres are not all of size k"
        return None

    return check


def gen_universal(base, radius):
    """Vertex and boundary counts of the radius ball equal the reference
    count of reduced walks."""
    expected = cache(lambda: ref.reduced_walk_counts(base, radius))

    def check(out):
        got = len(out["environment"]["vertices"]), len(out["boundary"])
        if got != expected():
            return f"ball has {got[0]} vertices and {got[1]} boundary, expected {expected()}"
        return None

    return check


def check_cover(positive):
    """A true projection is a covering; moving the target's initial vertex
    breaks only the base-point condition."""

    def check(out):
        conditions = out["conditions"]
        if positive:
            if out["covering"] is not True or not all(conditions.values()):
                return f"covering {out['covering']!r} with conditions {conditions}"
            return None
        others = {k: v for k, v in conditions.items() if k != "base_point"}
        if out["covering"] is not False or conditions["base_point"] is not False:
            return f"moved base point accepted: covering {out['covering']!r}"
        if not all(others.values()):
            return f"conditions other than base_point failed: {others}"
        return None

    return check
