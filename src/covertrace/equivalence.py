"""Deciding whether two environments can be told apart.

traces_equal compares the readouts of one signal.  check_equiv_sampled
enumerates every discrete signal up to a horizon and samples random
rational-breakpoint signals; it can refute equivalence but not prove it.
compute_bisimulation decides discrete-time equivalence exactly on unit-length
graphs, from the initial pair: a breadth-first walk over pairs of states in
action order, with one union-find over the states of both environments,
queues a pair only when it joins two classes, so it reads
O((V1 + V2) * actions) table entries.  The pairs it queues are a
bisimulation up to equivalence when no step tells a pair apart; otherwise
the first step that does ends the lexicographically first shortest
distinguishing signal.  Only a related verdict runs partition refinement,
which keeps only the current partition, because it prints the maximal
bisimulation.  Both read one table over the two environments, a
DiscreteStateSpace: per state its sensor value (`values`), and per action
the successor's row (`succ`) and the id of the readout chunk (`chunks`) in
one `chunk_table` of the distinct chunks of both.  Both are read off the
graphs' integer tables (vertex positions and dart ids) and each
environment's one reading table, which the environment fills from its
sensor once and its traces read too, instead of simulated; a chunk is
built only the first time its key of table entries is met, and numbered
by value.
verify_bisimulation re-checks a relation by replaying every move through the
simulation (trajectory and trace_of_trajectory) instead of reading the
state-space tables; it and the simulation's traces read the same reading
table as the decider, so tests hold that table against an oracle that
reads the sensor's wire form (to_json) alone.  check_equiv_sampled takes
the steps of its bounded search from one of two sources: between two
unit-length graphs it reads them off one DiscreteStateSpace of the pair
(_table_step), and otherwise it simulates them (_simulated_step).
Simulated unit moves are memoized in one place, _unit_moves, which both
verify_bisimulation and the simulated step use; the two environments of
one check share a table of the distinct unit traces, so the simulated step
tells two moves apart by the identity of their traces.  Either way the
first step that tells the sides apart ends the witness, whose two traces
are replayed for its divergence, as compute_bisimulation replays its own.
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
from .covering import GraphMap
from .graphs import VertexState
from .rationals import to_pair
from .signals import EMPTY, HALT, ControlSignal

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


def traces_equal(e1: Environment, e2: Environment, u: ControlSignal) -> TraceComparison:
    """Exact comparison of the two sensor traces of u, with the earliest
    divergence time when they differ."""
    _require_shared_interface(e1, e2)
    d = _divergence(e1, e2, u)
    return TraceComparison(d is None, d)


def _divergence(e1: Environment, e2: Environment, u: ControlSignal) -> Optional[Fraction]:
    """traces_equal's divergence, for callers that have checked the pair."""
    return first_divergence(trace_of(e1, u), trace_of(e2, u))


def _searched_actions(*envs: Environment) -> tuple:
    """The actions a search over unit actions needs, in canonical order:
    the ports below min(width, M + 1), M the largest degree of the graphs,
    then HALT.  Every port from M on moves like port M from every state
    (along the current edge to its head, then resting, as at a vertex),
    and port M comes first, so listing the ports above it would only
    repeat its moves."""
    top = max(env.graph.max_degree() for env in envs)
    return (*range(min(envs[0].alphabet_width, top + 1)), HALT)


def _unit_moves(env: Environment, actions, traces: dict):
    """A function move(position, action) giving the (final position, sensor
    trace) of the unit action from a position, for each of the given
    actions: vertex position v of the graph as the int ~v, as in
    Trajectory, and a point inside an edge as its EdgeState.  Each
    (position, action) is simulated once, by one trajectory and its
    trace_of_trajectory, and then remembered; a vertex end is the ~v its
    last tick leg stores.  On a unit-length graph every key is a pair of
    ints.

    traces keeps one copy of each distinct trace, keyed by itself; shared
    by the moves of two environments, it makes two moves read alike exactly
    when they return the same trace object.  A SensorTrace hashes and
    compares its canonical ticks, so equal traces meet there whatever scale
    each simulation ran on."""
    unit = {a: ControlSignal._from_ticks(1, (a,), (1,)) for a in actions}
    vertices = env.graph.vertices
    memo: dict = {}

    def move(position, a):
        key = (position, a)
        found = memo.get(key)
        if found is None:
            start = VertexState(vertices[~position]) if type(position) is int else position
            traj = trajectory(env, unit[a], start)
            trace = trace_of_trajectory(env, traj)
            d_end = traj._ticks[-1][5]
            end = d_end if d_end < 0 else traj.final
            found = memo[key] = end, traces.setdefault(trace, trace)
        return found

    return move


def _simulated_step(e1: Environment, e2: Environment, actions):
    """A function step((x1, x2), k) for positions as _unit_moves keys them:
    the pair of final positions of the unit action actions[k] from x1 on
    e1 and from x2 on e2, or None when its two traces differ.  The two
    sides share one copy of each distinct trace, so they are told apart by
    identity."""
    traces: dict = {}
    move1, move2 = _unit_moves(e1, actions, traces), _unit_moves(e2, actions, traces)

    def step(pair, k):
        a = actions[k]
        y1, trace1 = move1(pair[0], a)
        y2, trace2 = move2(pair[1], a)
        return (y1, y2) if trace1 is trace2 else None

    return step


def _table_step(space):
    """The step of _simulated_step over the rows of a DiscreteStateSpace of
    two unit-length environments, read off its table: a pair of rows and an
    index into space.actions give the pair of successor rows, or None.  A
    unit trace is its chunk and the reading at its final instant, and on
    unit lengths that reading is the successor's value, so the two traces
    are equal exactly when the chunk ids and the successors' values are."""
    values, succ, chunks = space.values, space.succ, space.chunks

    def step(pair, k):
        x1, x2 = pair
        y1, y2 = succ[x1][k], succ[x2][k]
        if chunks[x1][k] == chunks[x2][k] and values[y1] == values[y2]:
            return y1, y2
        return None

    return step


def _replayed_witness(e1: Environment, e2: Environment, word) -> tuple:
    """(witness, divergence): the signal of unit pieces of the actions in
    word, which a search found to tell e1 and e2 apart, and the first
    divergence of its two traces."""
    witness = ControlSignal._from_ticks(1, word, [1] * len(word))
    divergence = _divergence(e1, e2, witness)
    assert divergence is not None, "reconstructed witness failed to distinguish"
    return witness, divergence


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
) -> SampledVerdict:
    """Compare traces over every discrete signal with at most max_len unit
    pieces, then over n_random random rational-breakpoint signals whose
    piece durations have denominators at most 8 (generate.MAX_DENOMINATOR).

    The discrete part searches the ports below min(width, M + 1), M the
    largest degree, then HALT (see _searched_actions): a port above M moves
    like port M, so the verdict and witness are those of the whole
    alphabet, and signals_checked counts the signals of those actions.
    The random part draws each symbol as rng.randrange(width + 1), the
    value width standing for HALT, so a wide alphabet is never listed.
    The discrete part shares work between signals with a common prefix: since
    dynamics are deterministic and time-invariant, all continuations of a
    product state revisited with no larger budget are already covered.
    When both graphs have unit lengths, each step is read off one
    DiscreteStateSpace of the pair, built once per call when max_len is at
    least 1 (see _table_step); otherwise each (state, action) of either
    side is simulated once per call (see _simulated_step).  The first step
    that tells the sides apart ends the witness, whose two traces are
    replayed for its divergence: every step before it read alike, so that
    is len(prefix) plus the divergence inside the last step.
    """
    import random

    from .generate import random_signal

    _require_shared_interface(e1, e2)
    if max_len < 0 or n_random < 0:
        raise ValidationError(
            f"search budgets must be at least 0, got max_len={max_len}, n_random={n_random}"
        )
    checked = 1
    divergence = _divergence(e1, e2, EMPTY)
    if divergence is not None:
        return SampledVerdict(True, EMPTY, divergence, max_len, checked, 0)

    # Depth-first on an explicit stack of [pair, remaining, next action
    # index] frames, so a horizon past the recursion limit is searched too;
    # a pair holds the two sides' positions as the step source keys them,
    # and budget_seen is keyed by pairs; prefix holds the actions taken from
    # the root frame to the top one.
    stack: list = []
    actions = ()
    if max_len and e1.graph.unit_lengths() and e2.graph.unit_lengths():
        space = DiscreteStateSpace(e1, e2)
        actions, step = space.actions, _table_step(space)
        stack.append([tuple(space.starts), max_len, 0])
    elif max_len:
        actions = _searched_actions(e1, e2)
        step = _simulated_step(e1, e2, actions)
        start = (~e1.graph.vertex_index[e1.initial], ~e2.graph.vertex_index[e2.initial])
        stack.append([start, max_len, 0])
    budget_seen: dict = {}
    prefix: list = []
    word = None
    while stack:
        top = stack[-1]
        pair, remaining, k = top
        if k == len(actions):
            budget_seen[pair] = remaining
            stack.pop()
            if stack:
                prefix.pop()
            continue
        top[2] = k + 1
        after = step(pair, k)
        checked += 1
        if after is None:
            word = prefix + [actions[k]]
            break
        if remaining > 1 and budget_seen.get(after, -1) < remaining - 1:
            prefix.append(actions[k])
            stack.append([after, remaining - 1, 0])

    if word is not None:
        witness, divergence = _replayed_witness(e1, e2, word)
        return SampledVerdict(True, witness, divergence, max_len, checked, 0)

    rng = random.Random(seed)
    for i in range(n_random):
        u = random_signal(rng, e1.alphabet_width, max_pieces=max(1, max_len))
        divergence = _divergence(e1, e2, u)
        if divergence is not None:
            return SampledVerdict(True, u, divergence, max_len, checked, i + 1)

    return SampledVerdict(False, None, None, max_len, checked, n_random)


# --- exact bisimulation on unit-length graphs ----------------------------


def _require_unit_lengths(env: Environment) -> None:
    if not env.graph.unit_lengths():
        raise PreconditionError(
            "bisimulation needs all edge lengths equal to 1; rescale the graph first"
        )


class DiscreteStateSpace:
    """Unit-time behaviour of unit-length environments, as one table over
    their disjoint union; the environments share a width and sensor kind.

    States are the vertices reachable at integer times (a finished edge
    traversal hands off at the head vertex, so integer-time states are always
    vertices).  Each environment in turn appends its states, in breadth-first
    order, to `states`, and `starts[i]` is the row of environment i's initial
    vertex.  Row r of the table is three parallel entries: `values[r]` is
    state r's sensor reading, and per action, in `actions` order, the tuple
    `succ[r]` holds the successor's row and the tuple `chunks[r]` the id of
    the readout chunk in `chunk_table`.  A chunk is the trace of the unit
    action with its final instant dropped, so that chunks concatenate into
    full traces without double counting the seams; `chunk_table` lists the
    distinct chunks of all the environments in order of first appearance.
    `actions` are the ports below min(width, M + 1), M the largest degree,
    then HALT: every port from M on rests at every vertex, as port M does.

    On unit-length edges a unit action either rests at its vertex or
    traverses one dart from end to end, so each move is read off the graph's
    id tables and the environment's reading table instead of being
    simulated; that table is the one its traces read.  The breadth-first
    pass runs over vertex positions: port k of vertex v is dart
    d = star[v][k], with successor dart_head[d] and edge d >> 1; ports from
    the degree on, and HALT, rest.  A chunk is looked up by a key of
    readings, with no Fraction in it, shared by all the environments:
    (vertex[v],) for a rest and (vertex[v], interior[d >> 1], marks[d]) for
    a traversal of dart d, whose marks the table lists along d.  Only a new
    key builds its chunk, which is then numbered by value, so keys that read
    alike (a rest, and a traversal on which nothing changes) share one id.
    The chunks equal those the simulation gives and those the Fraction
    oracle reads off the sensor's wire form, and a property test holds the
    three together.
    """

    def __init__(self, *envs: Environment):
        for env in envs[1:]:
            _require_shared_interface(envs[0], env)
        for env in envs:
            _require_unit_lengths(env)
        self.actions = _searched_actions(*envs)
        width = len(self.actions) - 1  # ports 0..width-1, then HALT
        self.states, self.starts, self.values = [], [], []
        self.succ, self.chunks = [], []
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
                    events += [(Fraction(pos, den), label) for pos, label in along if label != inside]
                chunk = (((_ZERO, _ONE, inside),), tuple(events))
            c = known[key] = numbered.setdefault(chunk, len(numbered))
            return c

        for env in envs:
            graph, table = env.graph, env._readings
            vertex, interior, marks = table.vertex, table.interior, table.marks
            vertices, star, head = graph.vertices, graph.star, graph.dart_head
            first = len(self.states)
            start = graph.vertex_index[env.initial]
            order = [start]  # vertex positions, breadth-first
            at = [-1] * len(vertices)  # vertex position -> row
            at[start] = first
            self.starts.append(first)
            # The loop visits the states appended while it runs: a FIFO queue.
            for i, v in enumerate(order, first):
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
                        j = at[w] = first + len(order)
                        order.append(w)
                    succ.append(j)
                rests = width + 1 - len(darts)
                c = known.get((here,))
                self.values.append(here)
                self.succ.append((*succ, *(i,) * rests))
                self.chunks.append((*chunks, *(number((here,)) if c is None else c,) * rests))
            self.states += [vertices[v] for v in order]
        self.chunk_table = list(numbered)


@dataclass(frozen=True)
class BisimulationResult:
    """Either a relation witnessing equivalence or a shortest
    distinguishing signal with its first divergence time.

    pairs counts the pairs of states the walk from the initial pair queued,
    the initial pair included; on either verdict it is at most states - 1.
    rounds and blocks are counted only on a related verdict, the one
    verdict that runs partition refinement: blocks holds the block count
    after round 0 and after each refining round.  A distinguished verdict
    leaves them None and prints neither."""

    related: bool
    relation: tuple = ()
    witness: Optional[ControlSignal] = None
    divergence: Optional[Fraction] = None
    states: int = 0
    pairs: int = 0
    rounds: Optional[int] = None
    blocks: Optional[tuple] = None

    @property
    def verdict(self) -> str:
        return "related" if self.related else "distinguished"

    def to_json(self) -> dict:
        stats = {"states": self.states, "pairs": self.pairs}
        if self.related:
            stats["rounds"] = self.rounds
            stats["blocks"] = list(self.blocks)
        # a distinguished verdict replays its witness once
        stats["signals_checked"] = 0 if self.related else 1
        data = {"verdict": self.verdict, "stats": stats}
        if self.related:
            data["relation"] = [[a, b] for a, b in self.relation]
        else:
            data["witness"] = self.witness.to_json()
            data["divergence"] = to_pair(self.divergence)
        return data


def compute_bisimulation(e1: Environment, e2: Environment) -> BisimulationResult:
    """Decide discrete-time equivalence from the initial pair.

    The two environments are deterministic Moore machines over the unit
    actions, so a walk over pairs of states from (x0, y0) decides (see
    _pair_walk) in O((V1 + V2) * actions) steps, queueing at most
    V1 + V2 - 1 pairs.  A distinguished verdict ends the walk with the
    lexicographically first shortest distinguishing signal, which is
    replayed for its divergence time; no partition is refined.

    A related verdict prints the maximal bisimulation, which the walk's
    pairs do not give, so only then are the states of both environments
    partitioned together, first by sensor output, then repeatedly by
    (readout chunk, successor block) over every action until stable; the
    cross pairs of each block are the relation.  The rounds run in `refine`,
    which reports the block counts that `rounds` and `blocks` read.  The
    walk and the rounds read one DiscreteStateSpace of (e1, e2), whose rows
    and chunk ids span both.
    """
    space = DiscreteStateSpace(e1, e2)
    n_states = len(space.states)
    word, pairs = _pair_walk(space)

    if word is not None:
        witness, divergence = _replayed_witness(e1, e2, word)
        return BisimulationResult(
            False, witness=witness, divergence=divergence, states=n_states, pairs=pairs
        )

    chunks = space.chunks
    values: dict = {}
    part = [values.setdefault(x, len(values)) for x in space.values]
    # there are always at least two actions, so each getter returns a tuple
    successor_blocks = [itemgetter(*row) for row in space.succ]
    final, counts = refine(part, lambda prev, i: (chunks[i], successor_blocks[i](prev)))
    x0, y0 = space.starts
    assert final[x0] == final[y0], "the pair walk and refinement disagree"
    relation = _cross_pairs(space.states, y0, final)
    return BisimulationResult(
        True,
        tuple(relation),
        states=n_states,
        pairs=pairs,
        rounds=len(counts) - 1,
        blocks=tuple(counts),
    )


def _pair_walk(space) -> tuple:
    """(word, pairs): the lexicographically first shortest word of actions
    telling apart the initial states of the two environments of space, or
    None when there is none, and the number of pairs queued.

    Pairs (x, y), x a state of the first environment and y one of the
    second, are walked breadth-first from (x0, y0) in action order.  One
    union-find runs over the rows of space.  A successor pair is queued,
    with a back pointer (previous pair, action), only when its two states
    are in different classes, and queueing unites them; so at most
    V1 + V2 - 1 pairs are queued (Hopcroft & Karp 1971), and the walk reads
    O((V1 + V2) * actions) table entries, with near-constant union-find
    work per entry.  The first (pair, action) whose chunks differ, or whose
    successors differ in sensor value, ends the word, read back along the
    back pointers.  Successor values are compared only for a pair about to
    be queued: a class holds states of one value, since each pair was
    compared before it joined two classes.

    When no step fails, the queued pairs R read alike and every action
    leads each pair of R into the equivalence closure of R: R is a
    bisimulation up to equivalence, so that closure is a bisimulation
    holding (x0, y0) (Bonchi & Pous, POPL 2013).

    The word found, f, is the shortlex-first one.  Queued pairs get their
    words, and (pair, action) steps are tested, in shortlex order.  Suppose
    s = u v < f told the initial pair apart, u the word of a queued pair
    (p, q) and v a word telling p and q apart; take s least, then u
    longest.  The step (p, q, v[0]), of word u v[0], comes no later than s
    and so before f: it passed, so v is longer than v[0].  If that step
    queued its successor pair, u v[0] is a longer u.  If not, the
    successor states were already joined by a chain of queued pairs, and
    the rest of v tells apart one link of the chain, queued earlier, by a
    word shortlex-smaller than u v[0]: a smaller s.  Either way the choice
    of s is contradicted."""
    values, succ, chunks = space.values, space.succ, space.chunks
    parent = list(range(len(values)))
    x0, y0 = space.starts
    # the loop visits the pairs appended while it runs, a FIFO queue, and
    # back[i] is queue[i]'s back pointer
    queue = [(x0, y0)]
    back = [None]

    def read_back(q, a):
        word = [a]
        while q:
            q, a = back[q]
            word.append(a)
        return word[::-1], len(queue)

    if values[x0] != values[y0]:
        return [], 1
    parent[x0] = y0
    for q, (x, y) in enumerate(queue):
        for a, cx, cy, nx, ny in zip(space.actions, chunks[x], chunks[y], succ[x], succ[y]):
            if cx != cy:
                return read_back(q, a)
            # find both roots, halving the paths walked
            rx, ry = nx, ny
            while parent[rx] != rx:
                parent[rx] = rx = parent[parent[rx]]
            while parent[ry] != ry:
                parent[ry] = ry = parent[parent[ry]]
            if rx != ry:
                if values[nx] != values[ny]:
                    return read_back(q, a)
                parent[rx] = ry
                queue.append((nx, ny))
                back.append((q, a))
    return None, len(queue)


def _cross_pairs(states: list, split: int, final: list) -> list:
    """The pairs (v1, v2) of states[:split] x states[split:] that share a
    block of final, in the order of a stable sort by (str(v1), str(v2)) of
    the pairs listed in breadth-first order.

    Both sides are walked in (str, breadth-first) order, so no pair is
    sorted.  Only names of the first side that print alike (1 and "1") need
    their pairs merged, by str(v2), then breadth-first as they are listed."""
    text = list(map(str, states))
    by_block: dict = {}
    for j in sorted(range(split, len(states)), key=text.__getitem__):
        by_block.setdefault(final[j], []).append(states[j])
    relation: list = []
    for _, group in groupby(sorted(range(split), key=text.__getitem__), text.__getitem__):
        group = list(group)
        pairs = [(states[i], v2) for i in group for v2 in by_block.get(final[i], ())]
        if len(group) > 1:
            pairs.sort(key=lambda p: str(p[1]))
        relation += pairs
    return relation


def refine(part: list, signature) -> tuple:
    """Split the blocks of `part` (one int per element) until stable.

    Each round keys element i by (part[i], *signature(part, i)) and numbers
    the distinct keys in sorted order, so block ids depend only on the keys,
    not on the element order.  Stops when the block count stops growing or
    every block is a singleton.  Only the current partition is kept: returns
    the stable partition and the block count after round 0 and after each
    refining round.
    """
    counts = [len(set(part))]
    indices = range(len(part))
    while counts[-1] < len(part):
        keys = [(part[i], *signature(part, i)) for i in indices]
        distinct = dict.fromkeys(keys)
        if len(distinct) == counts[-1]:
            break
        counts.append(len(distinct))
        ranks = {key: rank for rank, key in enumerate(sorted(distinct))}
        part = [ranks[key] for key in keys]
    return part, counts


def verify_bisimulation(e1: Environment, e2: Environment, relation) -> bool:
    """Independent clause-by-clause check that `relation` (pairs of vertex
    names) is a bisimulation containing the initial pair: outputs agree,
    readout chunks agree, and every action keeps pairs inside the relation.

    Each move is replayed through the simulation (`trajectory` and
    `trace_of_trajectory`), once per (vertex, action) of each side, not read
    off the DiscreteStateSpace that compute_bisimulation refines.  The
    actions are those the decider searches (see _searched_actions): a port
    from M on moves like port M, so a wide alphabet is never listed.  Two
    replayed traces are compared as tick forms without their final instant:
    both last 1, so their reduced scales agree when their readings do.  The
    vertex readings and the replayed traces read the environment's reading
    table, which the decider reads too; test_readings_match_sensor_value and
    test_trace_matches_fraction_oracle in tests/test_ticks.py, and
    TestDiscreteStateSpace.test_table_matches_simulation in
    tests/test_equivalence.py, hold that table against an oracle that reads
    the sensor's wire form.

    The vertex-reading clause is a cheap early exit, not a separate
    condition: halt is always among the actions, and the one segment of its
    chunk reads the vertex reading, so the chunk clause refuses every pair
    this clause refuses."""
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
    actions = _searched_actions(e1, e2)
    traces: dict = {}
    move1, move2 = _unit_moves(e1, actions, traces), _unit_moves(e2, actions, traces)
    g1, g2 = e1.graph, e2.graph
    read1, read2 = e1._readings.vertex, e2._readings.vertex
    for v1, v2 in pairs:
        i1, i2 = g1.vertex_index[v1], g2.vertex_index[v2]
        if read1[i1] != read2[i2]:
            return False
        x1, x2 = ~i1, ~i2
        for a in actions:
            # unit lengths: a unit move ends at a vertex, position ~w
            w1, tr1 = move1(x1, a)
            w2, tr2 = move2(x2, a)
            (s1, _, segments1, events1), (s2, _, segments2, events2) = tr1._ticks, tr2._ticks
            if (s1, segments1, events1[:-1]) != (s2, segments2, events2[:-1]):
                return False
            if (g1.vertices[~w1], g2.vertices[~w2]) not in pairs:
                return False
    return True


# --- homomorphism search -------------------------------------------------


def _propagate(g1, g2, x0: int, y0: int) -> Optional[tuple]:
    """Port-equivariant propagation of f(x0) = y0 over vertex positions and
    dart ids: (image, dart_image), dicts from the positions and darts of
    g1's component of x0 to those of g2 in the order they are reached, or
    None when an image dart is missing or lengths, reverse ports or heads
    disagree."""
    star1, star2 = g1.star, g2.star
    head1, head2 = g1.dart_head, g2.dart_head
    lengths1, lengths2 = g1.lengths, g2.lengths
    keys1, keys2 = g1.dart_keys, g2.dart_keys
    image = {x0: y0}
    dart_image = {}
    queue = deque([x0])
    while queue:
        x = queue.popleft()
        out1, out2 = star1[x], star2[image[x]]
        if len(out2) < len(out1):
            return None
        # dart (x, k) goes to (f(x), k): zip pairs the stars port by port
        for d, e in zip(out1, out2):
            if lengths1[d >> 1] != lengths2[e >> 1]:
                return None
            if keys1[d ^ 1][1] != keys2[e ^ 1][1]:
                return None
            h1, h2 = head1[d], head2[e]
            seen = image.get(h1)
            if seen is None:
                image[h1] = h2
                queue.append(h1)
            elif seen != h2:
                return None
            dart_image[d] = e
    return image, dart_image


def _named(g1, g2, image: dict, dart_image: dict) -> GraphMap:
    names1, names2, keys1, keys2 = g1.vertices, g2.vertices, g1.dart_keys, g2.dart_keys
    return GraphMap(
        {names1[x]: names2[y] for x, y in image.items()},
        {keys1[d]: keys2[e] for d, e in dart_image.items()},
    )


def structure_map(g1, g2, v1, v2) -> Optional[GraphMap]:
    """Port-equivariant propagation of f(v1) = v2 across g1.

    A map commuting with port actions is forced: dart (v, k) goes to
    (f(v), k).  Propagation fails when an image dart is missing or when
    lengths or reversal ports disagree.  The result is total on darts of g1;
    sensors and alphabet widths are not consulted.  A start vertex not in
    its graph is refused with ValidationError.
    """
    for graph, v in ((g1, v1), (g2, v2)):
        graph.check_state(VertexState(v))
    found = _propagate(g1, g2, g1.vertex_index[v1], g2.vertex_index[v2])
    return None if found is None else _named(g1, g2, *found)


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
    found = _propagate(g1, g2, g1.vertex_index[e1.initial], g2.vertex_index[e2.initial])
    if found is None:
        return None
    image, dart_image = found
    star1, star2 = g1.star, g2.star
    r1, r2 = e1._readings, e2._readings
    for x, y in image.items():
        if min(len(star1[x]), width) != min(len(star2[y]), width):
            return None
        if r1.vertex[x] != r2.vertex[y]:
            return None
    for d, e in dart_image.items():
        if r1.interior[d >> 1] != r2.interior[e >> 1]:
            return None
        # the edges have equal lengths, so equal marks have equal tick
        # denominators and compare as ints
        if r1.marks[d] != r2.marks[e]:
            return None
    return _named(g1, g2, image, dart_image)
