"""Shared builders and independent oracles for the test suite."""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from hypothesis import strategies as st

from covertrace import (
    HALT,
    ControlSignal,
    DegreeSensor,
    Environment,
    PortedGraph,
    VertexState,
    build_edges,
)
from covertrace.equivalence import DiscreteStateSpace


def three_cycle() -> PortedGraph:
    """Unit triangle; port 0 at each vertex points counterclockwise."""
    return PortedGraph(
        ["x0", "x1", "x2"],
        build_edges([("x0", "x1", 0, 1), ("x1", "x2", 0, 1), ("x2", "x0", 0, 1)]),
    )


def three_cycle_env(sensor=None, width=2) -> Environment:
    return Environment(three_cycle(), "x0", sensor or DegreeSensor(), width)


def path_middle() -> PortedGraph:
    """Two unit edges meeting at m; the comparison partner of the 3-cycle."""
    return PortedGraph(
        ["m", "l", "r"], build_edges([("m", "l", 0, 0), ("m", "r", 1, 0)])
    )


def path_middle_env(width=2) -> Environment:
    return Environment(path_middle(), "m", DegreeSensor(), width)


def figure_eight() -> PortedGraph:
    """One vertex with two unit loops, ports (0,1) and (2,3)."""
    return PortedGraph(
        ["o"], build_edges([("o", "o", 0, 1), ("o", "o", 2, 3)])
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
        denominators.extend(t.denominator for t in u.breakpoints())
    step = Fraction(1, lcm(*denominators))
    total = Fraction(0)
    t = Fraction(0)
    while t < horizon:
        if a.symbol_at(t) != b.symbol_at(t):
            total += step
        t += step
    return total + abs(a.duration - b.duration)


def dense_trajectory_distance(traj_a, traj_b, steps: int = 60) -> Fraction:
    """Lower-bound oracle for the trajectory metric: max point distance over a
    dense rational time grid plus the duration gap."""
    graph = traj_a.graph
    horizon = min(traj_a.duration, traj_b.duration)
    best = Fraction(0)
    for i in range(steps + 1):
        t = horizon * Fraction(i, steps)
        d = graph.point_distance(traj_a.at(t), traj_b.at(t))
        best = max(best, d)
    return best + abs(traj_a.duration - traj_b.duration)


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


def naive_first_divergence(a, b):
    """First-divergence oracle: compare instant and just-after readings,
    each found by a scan of the trace, at every segment start and event time
    of either trace, in time order."""
    criticals = sorted(
        {t for t, _, _ in a.segments + b.segments} | {t for t, _ in a.events + b.events}
    )
    for t in criticals:
        if a.value_at(t) != b.value_at(t):
            return t
        if a.segment_value_after(t) != b.segment_value_after(t):
            return t
    return None


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
    disjoint union, reading only `DiscreteStateSpace.step`, `chunk` and
    `value`.  Returns the related cross pairs in s1 x s2 order, stably sorted
    by their names as strings, the number of strictly refining rounds, and
    the round at which the initial pair is removed (None if never)."""
    spaces = (DiscreteStateSpace(e1), DiscreteStateSpace(e2))
    tagged = [(side, v) for side, space in enumerate(spaces) for v in space.states]
    actions = spaces[0].actions

    def step(x, a):
        return (x[0], spaces[x[0]].step(x[1], a))

    def chunk(x, a):
        return spaces[x[0]].chunk(x[1], a)

    related = {
        (x, y)
        for x in tagged
        for y in tagged
        if spaces[x[0]].value(x[1]) == spaces[y[0]].value(y[1])
    }
    initial = ((0, e1.initial), (1, e2.initial))
    separation = None if initial in related else 0
    rounds = 0
    while True:
        kept = {
            (x, y)
            for x, y in related
            if all(
                chunk(x, a) == chunk(y, a) and (step(x, a), step(y, a)) in related
                for a in actions
            )
        }
        if kept == related:
            break
        rounds += 1
        related = kept
        if separation is None and initial not in related:
            separation = rounds
    pairs = [
        (v1, v2)
        for v1 in spaces[0].states
        for v2 in spaces[1].states
        if ((0, v1), (1, v2)) in related
    ]
    pairs.sort(key=lambda p: (str(p[0]), str(p[1])))
    return pairs, rounds, separation
