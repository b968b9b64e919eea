"""Deciding whether two environments can be told apart.

traces_equal compares the readouts of one signal.  check_equiv_sampled
enumerates every discrete signal up to a horizon and samples random
rational-breakpoint signals; it can refute equivalence but not prove it.
compute_bisimulation decides discrete-time equivalence exactly on unit-length
graphs by partition refinement and reconstructs a shortest distinguishing
signal on failure.  It refines one table per environment, a
DiscreteStateSpace: per state its sensor value (`values`), and per action
the successor's position (`succ`) and the id of the readout chunk
(`chunks`) in the space's `chunk_table` of distinct chunks.  Both are read
off the graph's integer tables (vertex positions and dart ids) and the
environment's one reading table, which the environment fills from its
sensor once and its traces read too, instead of simulated; a chunk is built
only the first time its key of table entries is met.
compute_bisimulation then maps the two chunk tables to common ids by value,
so equal chunks from different keys (a rest and a traversal that read
alike) are one chunk.
verify_bisimulation re-checks a relation by replaying every move through the
simulation (trajectory and trace_of_trajectory) instead of reading the
state-space tables; the simulation's traces read the same reading table as
the decider, so tests hold that table against the sensor protocol on its
own.  Simulated unit moves are memoized in one place, _unit_moves,
which both verify_bisimulation and check_equiv_sampled use.  The two
environments of one check share a table of the distinct unit traces, so
check_equiv_sampled tells two moves apart by the identity of their traces
and calls first_divergence only on traces that differ.
homomorphism_search looks for a trace-preserving structure map, a
sufficient but not necessary condition for equivalence.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from typing import Optional

from .environments import (
    Environment,
    first_divergence,
    trace_of,
    trace_of_trajectory,
    trajectory,
)
from .errors import PreconditionError, ValidationError
from .covering import GraphMap, refine
from .graphs import Dart, VertexState
from .rationals import to_pair
from .signals import EMPTY, ControlSignal

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _require_shared_interface(e1: Environment, e2: Environment) -> None:
    if e1.alphabet_width != e2.alphabet_width:
        raise ValidationError(
            f"environments use different alphabet widths "
            f"({e1.alphabet_width} vs {e2.alphabet_width})"
        )
    if e1.sensor.kind() != e2.sensor.kind():
        raise ValidationError(
            f"environments use different sensor kinds "
            f"({e1.sensor.kind()!r} vs {e2.sensor.kind()!r})"
        )


@dataclass(frozen=True)
class TraceComparison:
    """Outcome of running one signal through two environments."""

    equal: bool
    divergence: Optional[Fraction] = None

    def to_json(self) -> dict:
        return {
            "equal": self.equal,
            "divergence": None if self.divergence is None else to_pair(self.divergence),
        }


def traces_equal(e1: Environment, e2: Environment, u: ControlSignal) -> TraceComparison:
    """Exact comparison of the two sensor traces of u, with the earliest
    divergence time when they differ."""
    _require_shared_interface(e1, e2)
    d = first_divergence(trace_of(e1, u), trace_of(e2, u))
    return TraceComparison(d is None, d)


def _unit_moves(env: Environment, traces: dict):
    """A function move(state, action) giving the (final state, sensor trace)
    of the unit action from state.  Each (state, action) is simulated once,
    by one trajectory and its trace_of_trajectory, and then remembered.

    traces keeps one copy of each distinct trace, keyed by itself; shared
    by the moves of two environments, it makes two moves read alike exactly
    when they return the same trace object.  A SensorTrace hashes and
    compares its canonical ticks, so equal traces meet there whatever scale
    each simulation ran on."""
    unit = {a: ControlSignal([(a, _ONE)]) for a in env.actions()}
    memo: dict = {}

    def move(state, a):
        key = (state, a)
        found = memo.get(key)
        if found is None:
            traj = trajectory(env, unit[a], state)
            trace = trace_of_trajectory(env, traj)
            found = memo[key] = traj.final, traces.setdefault(trace, trace)
        return found

    return move


# --- sampled equivalence checking ----------------------------------------


@dataclass(frozen=True)
class SampledVerdict:
    """Result of the sampled checker.  `distinguished` is conclusive; its
    absence only says no divergence was found within the family searched."""

    distinguished: bool
    witness: Optional[ControlSignal] = None
    divergence: Optional[Fraction] = None
    horizon: int = 0
    signals_checked: int = 0
    random_checked: int = 0

    @property
    def verdict(self) -> str:
        return "distinguished" if self.distinguished else "related"

    def to_json(self) -> dict:
        data = {
            "verdict": self.verdict,
            "stats": {
                "horizon": self.horizon,
                "signals_checked": self.signals_checked,
                "random_checked": self.random_checked,
            },
        }
        if self.distinguished:
            data["witness"] = self.witness.to_json()
            data["divergence"] = to_pair(self.divergence)
        return data


def check_equiv_sampled(
    e1: Environment,
    e2: Environment,
    max_len: int = 8,
    n_random: int = 200,
    seed: int = 0,
    max_denominator: int = 8,
) -> SampledVerdict:
    """Compare traces over every discrete signal with at most max_len unit
    pieces, then over n_random random rational-breakpoint signals.

    The discrete part shares work between signals with a common prefix: since
    dynamics are deterministic and time-invariant, all continuations of a
    product state revisited with no larger budget are already covered, and
    each (state, action) of either side is simulated once per call.
    """
    import random

    from .generate import random_signal

    _require_shared_interface(e1, e2)
    if max_len < 0 or n_random < 0:
        raise ValidationError(
            f"search budgets must be at least 0, got max_len={max_len}, n_random={n_random}"
        )
    actions = e1.actions()
    checked = 0

    cmp = traces_equal(e1, e2, EMPTY)
    checked += 1
    if not cmp.equal:
        return SampledVerdict(True, EMPTY, cmp.divergence, max_len, checked, 0)

    # Depth-first on an explicit stack of [x1, x2, remaining, next action
    # index] frames, so a horizon past the recursion limit is searched too;
    # prefix holds the actions taken from the root frame to the top one.
    budget_seen: dict = {}
    traces: dict = {}
    move1, move2 = _unit_moves(e1, traces), _unit_moves(e2, traces)
    prefix: list = []
    stack = [[e1.initial_state, e2.initial_state, max_len, 0]] if max_len else []
    while stack:
        top = stack[-1]
        x1, x2, remaining, k = top
        if k == len(actions):
            budget_seen[(x1, x2)] = remaining
            stack.pop()
            if stack:
                prefix.pop()
            continue
        a = actions[k]
        top[3] = k + 1
        y1, tr1 = move1(x1, a)
        y2, tr2 = move2(x2, a)
        checked += 1
        if tr1 is not tr2:
            d = first_divergence(tr1, tr2)
            if d is not None:
                witness = ControlSignal([(b, _ONE) for b in prefix + [a]])
                return SampledVerdict(
                    True, witness, Fraction(len(prefix)) + d, max_len, checked, 0
                )
        if remaining > 1 and budget_seen.get((y1, y2), -1) < remaining - 1:
            prefix.append(a)
            stack.append([y1, y2, remaining - 1, 0])

    rng = random.Random(seed)
    for i in range(n_random):
        u = random_signal(
            rng,
            e1.alphabet_width,
            max_pieces=max(1, max_len),
            max_denominator=max_denominator,
        )
        cmp = traces_equal(e1, e2, u)
        if not cmp.equal:
            return SampledVerdict(True, u, cmp.divergence, max_len, checked, i + 1)

    return SampledVerdict(False, None, None, max_len, checked, n_random)


# --- exact bisimulation on unit-length graphs ----------------------------


def _require_unit_lengths(env: Environment) -> None:
    if not env.graph.unit_lengths():
        raise PreconditionError(
            "bisimulation needs all edge lengths equal to 1; rescale the graph first"
        )


class DiscreteStateSpace:
    """Unit-time behaviour of a unit-length environment, as one table.

    States are the vertices reachable at integer times (a finished edge
    traversal hands off at the head vertex, so integer-time states are always
    vertices), listed in breadth-first order; `index` maps each state to its
    position in `states`.  Row i of the table is three parallel lists:
    `values[i]` is state i's sensor reading, and per action, in `actions`
    order, `succ[i]` holds the successor's position in `states` and
    `chunks[i]` the id of the readout chunk in `chunk_table`.  A chunk is
    the trace of the unit action with its final instant dropped, so that
    chunks concatenate into full traces without double counting the seams;
    `chunk_table` lists the distinct chunks in order of first appearance.

    On unit-length edges a unit action either rests at its vertex or
    traverses one dart from end to end, so each move is read off the graph's
    id tables and the environment's reading table instead of being
    simulated; that table is the one its traces read.  The breadth-first
    pass runs over vertex positions: port k < width of vertex v is dart
    d = star[v][k], with successor dart_head[d] and edge d >> 1; ports from
    the degree up to the width, and HALT, rest.  A chunk is looked up by a
    key of table entries, with no Fraction in it: (vertex[v],) for a rest
    and (vertex[v], interior[d >> 1], marks[d]) for a traversal of dart d,
    whose marks the table lists along d.  Only a new key builds its chunk,
    which is then numbered by value, so keys that read alike (a rest, and a
    traversal on which nothing changes) share one id.  The chunks equal
    those the simulation gives and those the Fraction oracle reads off the
    sensor protocol, and a property test holds the three together.
    """

    def __init__(self, env: Environment):
        _require_unit_lengths(env)
        graph, table = env.graph, env._readings
        vertex, interior, marks = table.vertex, table.interior, table.marks
        self.actions = tuple(env.actions())
        width = len(self.actions) - 1  # ports 0..width-1, then HALT
        vertices, star, head = graph.vertices, graph.star, graph.dart_head
        start = graph.vertex_index[env.initial]
        order = [start]  # vertex positions, breadth-first
        at = [-1] * len(vertices)  # vertex position -> state index
        at[start] = 0
        self.values: list = []
        self.succ: list = []
        self.chunks: list = []
        self.chunk_table: list = []
        known: dict = {}  # key -> chunk id
        numbered: dict = {}  # chunk -> chunk id

        def number(key):
            # A rest reads the vertex value throughout.  A traversal reads
            # the edge's interior value, with an event at time 0 for the
            # vertex value and one at each mark, in order along the dart,
            # whose reading differs from the interior.
            if len(key) == 1:
                chunk = (((_ZERO, _ONE, key[0]),), ())
            else:
                here, inside, along = key
                events = [(_ZERO, here)] if here != inside else []
                if along:
                    den, along = along
                    events += sorted(
                        (Fraction(pos, den), label) for pos, label in along if label != inside
                    )
                chunk = (((_ZERO, _ONE, inside),), tuple(events))
            c = numbered.get(chunk)
            if c is None:
                c = numbered[chunk] = len(self.chunk_table)
                self.chunk_table.append(chunk)
            known[key] = c
            return c

        # The loop visits the states appended while it runs: a FIFO queue.
        for i, v in enumerate(order):
            here = vertex[v]
            succ, chunks = [], []
            darts = star[v][:width]
            for d in darts:
                key = (here, interior[d >> 1], marks[d])
                c = known.get(key)
                chunks.append(number(key) if c is None else c)
                w = head[d]
                j = at[w]
                if j < 0:
                    j = at[w] = len(order)
                    order.append(w)
                succ.append(j)
            rests = width + 1 - len(darts)
            c = known.get((here,))
            chunks += [number((here,)) if c is None else c] * rests
            succ += [i] * rests
            self.values.append(here)
            self.succ.append(succ)
            self.chunks.append(chunks)
        self.states: list = [vertices[v] for v in order]
        self.index: dict = dict(zip(self.states, range(len(order))))


@dataclass(frozen=True)
class BisimulationResult:
    """Either a relation witnessing equivalence or a shortest
    distinguishing signal with its first divergence time.  blocks holds the
    block count after round 0 and after each refining round."""

    related: bool
    relation: tuple = ()
    witness: Optional[ControlSignal] = None
    divergence: Optional[Fraction] = None
    states: int = 0
    rounds: int = 0
    blocks: tuple = ()

    @property
    def verdict(self) -> str:
        return "related" if self.related else "distinguished"

    def to_json(self) -> dict:
        data = {
            "verdict": self.verdict,
            "stats": {
                "states": self.states,
                "rounds": self.rounds,
                "blocks": list(self.blocks),
                # a distinguished verdict replays its witness once
                "signals_checked": 0 if self.related else 1,
            },
        }
        if self.related:
            data["relation"] = [[a, b] for a, b in self.relation]
        else:
            data["witness"] = self.witness.to_json()
            data["divergence"] = to_pair(self.divergence)
        return data


def compute_bisimulation(e1: Environment, e2: Environment) -> BisimulationResult:
    """Decide discrete-time equivalence by partition refinement.

    States of both environments are partitioned together, first by sensor
    output, then repeatedly by (readout chunk, successor block) over every
    action until stable.  The initial vertices share a block exactly when the
    environments are equivalent for all discrete signals; the cross pairs of
    each block then form a bisimulation.  Otherwise the round at which the
    initial pair separated equals the length of a shortest distinguishing
    signal, which is rebuilt action by action, lexicographically first.

    States are numbered s1 first, then s2.  Each space numbers its distinct
    chunks in its own chunk_table; one dict maps both tables to common ids by
    value, so a chunk that the two spaces reached under different keys gets
    one id, and the rounds compare tuples of ints.  They run in `refine`,
    the loop degree_refinement uses too.
    """
    _require_shared_interface(e1, e2)
    s1, s2 = DiscreteStateSpace(e1), DiscreteStateSpace(e2)
    actions = s1.actions
    n1 = len(s1.states)
    ids: dict = {}

    def common_rows(space):
        common = [ids.setdefault(c, len(ids)) for c in space.chunk_table]
        return [tuple(map(common.__getitem__, row)) for row in space.chunks]

    chunks = common_rows(s1) + common_rows(s2)
    succs = s1.succ + [[w + n1 for w in row] for row in s2.succ]
    n_states = len(succs)

    values: dict = {}
    part = [values.setdefault(x, len(values)) for x in s1.values + s2.values]
    # there are always at least two actions, so each getter returns a tuple
    successor_blocks = [itemgetter(*row) for row in succs]
    history = refine(part, lambda prev, i: (chunks[i], successor_blocks[i](prev)))
    blocks = [len(set(p)) for p in history]

    final = history[-1]
    x0, y0 = 0, n1  # each space lists its initial vertex first
    n_rounds = len(history) - 1

    if final[x0] == final[y0]:
        relation = _cross_pairs(s1.states, s2.states, final)
        return BisimulationResult(
            True, tuple(relation), states=n_states, rounds=n_rounds, blocks=tuple(blocks)
        )

    def separation(x, y):
        for r, p in enumerate(history):
            if p[x] != p[y]:
                return r
        return None

    r = separation(x0, y0)
    x, y = x0, y0
    pieces = []
    while r > 0:
        chosen = None
        terminal = False
        for k, a in enumerate(actions):
            if chunks[x][k] != chunks[y][k]:
                chosen, terminal = a, True
                break
            s = separation(succs[x][k], succs[y][k])
            if s is not None and s <= r - 1:
                chosen = a
                break
        assert chosen is not None, "separated pair with no separating action"
        pieces.append(chosen)
        if terminal:
            break
        x, y = succs[x][k], succs[y][k]
        r -= 1

    witness = ControlSignal([(a, Fraction(1)) for a in pieces])
    replay = traces_equal(e1, e2, witness)
    assert not replay.equal, "reconstructed witness failed to distinguish"
    return BisimulationResult(
        False,
        witness=witness,
        divergence=replay.divergence,
        states=n_states,
        rounds=n_rounds,
        blocks=tuple(blocks),
    )


def _cross_pairs(states1: list, states2: list, final: list) -> list:
    """The pairs (v1, v2) of states1 x states2 that share a block of final
    (states1's blocks first, then states2's), in the order of a stable sort
    by (str(v1), str(v2)) of the pairs listed in breadth-first order.

    Both sides are walked in (str, breadth-first) order, so no pair is
    sorted.  Only names of states1 that print alike (1 and "1") need their
    pairs merged, by str(v2), then breadth-first as they are listed."""
    n1 = len(states1)
    text1, text2 = list(map(str, states1)), list(map(str, states2))
    by_block: dict = {}
    for j in sorted(range(len(states2)), key=text2.__getitem__):
        by_block.setdefault(final[n1 + j], []).append(states2[j])
    relation: list = []
    for _, group in groupby(sorted(range(n1), key=text1.__getitem__), text1.__getitem__):
        group = list(group)
        pairs = [(states1[i], v2) for i in group for v2 in by_block.get(final[i], ())]
        if len(group) > 1:
            pairs.sort(key=lambda p: str(p[1]))
        relation += pairs
    return relation


def verify_bisimulation(e1: Environment, e2: Environment, relation) -> bool:
    """Independent clause-by-clause check that `relation` (pairs of vertex
    names) is a bisimulation containing the initial pair: outputs agree,
    readout chunks agree, and every action keeps pairs inside the relation.

    Each move is replayed through the simulation (`trajectory` and
    `trace_of_trajectory`), once per (vertex, action) of each side, not read
    off the DiscreteStateSpace that compute_bisimulation refines.  The
    replayed traces read the environment's reading table, which the decider
    reads too; test_readings_match_sensor_value and
    test_trace_matches_fraction_oracle in tests/test_ticks.py, and
    TestDiscreteStateSpace.test_table_matches_simulation in
    tests/test_equivalence.py, hold that table against `sensor.value`."""
    _require_shared_interface(e1, e2)
    for env in (e1, e2):
        _require_unit_lengths(env)
    pairs = {(a, b) for a, b in relation}
    v1_known = set(e1.graph.vertices)
    v2_known = set(e2.graph.vertices)
    for v1, v2 in pairs:
        if v1 not in v1_known or v2 not in v2_known:
            raise ValidationError(f"relation mentions unknown vertices ({v1!r}, {v2!r})")
    if (e1.initial, e2.initial) not in pairs:
        return False
    actions = e1.actions()
    traces: dict = {}
    move1, move2 = _unit_moves(e1, traces), _unit_moves(e2, traces)
    for v1, v2 in pairs:
        x1, x2 = VertexState(v1), VertexState(v2)
        if e1.sensor.value(e1.graph, x1) != e2.sensor.value(e2.graph, x2):
            return False
        for a in actions:
            w1, tr1 = move1(x1, a)
            w2, tr2 = move2(x2, a)
            if (tr1.segments, tr1.events[:-1]) != (tr2.segments, tr2.events[:-1]):
                return False
            if (w1.vertex, w2.vertex) not in pairs:
                return False
    return True


# --- homomorphism search -------------------------------------------------


def structure_map(g1, g2, v1, v2) -> Optional[GraphMap]:
    """Port-equivariant propagation of f(v1) = v2 across g1.

    A map commuting with port actions is forced: dart (v, k) goes to
    (f(v), k).  Propagation fails when an image dart is missing or when
    lengths or reversal ports disagree.  The result is total on darts of g1;
    sensors and alphabet widths are not consulted.
    """
    vmap = {v1: v2}
    dmap = {}
    queue = deque([v1])
    while queue:
        v = queue.popleft()
        fv = vmap[v]
        if g2.degree(fv) < g1.degree(v):
            return None
        for k in range(g1.degree(v)):
            dart, image = Dart(v, k), Dart(fv, k)
            if g1.length(dart) != g2.length(image):
                return None
            if g1.reverse(dart).port != g2.reverse(image).port:
                return None
            head1, head2 = g1.head(dart), g2.head(image)
            if head1 in vmap:
                if vmap[head1] != head2:
                    return None
            else:
                vmap[head1] = head2
                queue.append(head1)
            dmap[dart] = image
    return GraphMap(vmap, dmap)


def port_preserving_automorphisms(graph) -> list:
    """All port-preserving length-preserving automorphisms, found by
    propagating each choice of image for one base vertex."""
    v0 = graph.vertices[0]
    autos = []
    for w in graph.vertices:
        candidate = structure_map(graph, graph, v0, w)
        if candidate is None:
            continue
        vmap = candidate.vertex_map
        if len(set(vmap.values())) != len(graph.vertices):
            continue
        if any(graph.degree(v) != graph.degree(fv) for v, fv in vmap.items()):
            continue
        autos.append(candidate)
    return autos


def homomorphism_search(e1: Environment, e2: Environment) -> Optional[GraphMap]:
    """Search for a trace-preserving map from e1 into e2.

    Such a map sends the initial vertex to the initial vertex and commutes
    with every action, which forces it to be port-equivariant; it is therefore
    determined by propagation from the initial pair.  The propagated candidate
    is returned if every remaining condition holds: pressing any usable symbol
    moves on both sides or waits on both sides, and sensor readings agree
    everywhere, including beam mark positions inside edges.  Returns None when
    some condition fails.
    """
    _require_shared_interface(e1, e2)
    g1, g2 = e1.graph, e2.graph
    width = e1.alphabet_width
    candidate = structure_map(g1, g2, e1.initial, e2.initial)
    if candidate is None:
        return None
    for v, fv in candidate.vertex_map.items():
        if min(g1.degree(v), width) != min(g2.degree(fv), width):
            return None
        if e1.sensor.value(g1, VertexState(v)) != e2.sensor.value(g2, VertexState(fv)):
            return None
    for idx in range(len(g1.edges)):
        image = candidate.dart_map[g1.forward_dart(idx)]
        jdx = g2.edge_of(image)
        if e1.sensor.interior_value(g1, idx) != e2.sensor.interior_value(g2, jdx):
            return None
        length = g1.edges[idx].length
        forward = image == g2.forward_dart(jdx)
        source_marks = sorted(e1.sensor.marks_on(idx))
        target_marks = sorted(
            (q if forward else length - q, label)
            for q, label in e2.sensor.marks_on(jdx)
        )
        if source_marks != target_marks:
            return None
    return candidate
