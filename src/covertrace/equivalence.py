"""Deciding whether two environments can be told apart.

traces_equal compares the readouts of one signal.  check_equiv_sampled
enumerates every discrete signal up to a horizon and samples random
rational-breakpoint signals; it can refute equivalence but not prove it.
compute_bisimulation decides discrete-time equivalence exactly on unit-length
graphs by partition refinement and reconstructs a shortest distinguishing
signal on failure.  verify_bisimulation re-checks a relation through the
state spaces' step/chunk/value and deliberately not through the interned
integer rows that compute_bisimulation refines, so that it stays an
independent check.  homomorphism_search looks for a trace-preserving
structure map, a sufficient but not necessary condition for equivalence.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
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
from .graphs import Dart, VertexState
from .rationals import to_pair
from .signals import EMPTY, ControlSignal


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
    product state revisited with no larger budget are already covered.
    """
    import random

    from .generate import random_signal

    _require_shared_interface(e1, e2)
    actions = e1.actions()
    unit = {a: ControlSignal([(a, Fraction(1))]) for a in actions}
    checked = 0

    cmp = traces_equal(e1, e2, EMPTY)
    checked += 1
    if not cmp.equal:
        return SampledVerdict(True, EMPTY, cmp.divergence, max_len, checked, 0)

    budget_seen: dict = {}

    def search(x1, x2, remaining, prefix):
        nonlocal checked
        if remaining == 0:
            return None
        if budget_seen.get((x1, x2), -1) >= remaining:
            return None
        for a in actions:
            traj1 = trajectory(e1, unit[a], x1)
            traj2 = trajectory(e2, unit[a], x2)
            checked += 1
            d = first_divergence(trace_of_trajectory(e1, traj1), trace_of_trajectory(e2, traj2))
            if d is not None:
                return prefix + [a], Fraction(len(prefix)) + d
            found = search(traj1.final, traj2.final, remaining - 1, prefix + [a])
            if found is not None:
                return found
        budget_seen[(x1, x2)] = remaining
        return None

    found = search(e1.initial_state, e2.initial_state, max_len, [])
    if found is not None:
        pieces, when = found
        witness = ControlSignal([(a, Fraction(1)) for a in pieces])
        return SampledVerdict(True, witness, when, max_len, checked, 0)

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


class DiscreteStateSpace:
    """Unit-time behaviour of a unit-length environment.

    States are the vertices reachable at integer times (a finished edge
    traversal hands off at the head vertex, so integer-time states are always
    vertices), listed in breadth-first order; `index` maps each state to its
    position in `states`.  For each state and action the space records the
    successor and the readout chunk: the trace of the unit action with its
    final instant dropped, so that chunks concatenate into full traces
    without double counting the seams.
    """

    def __init__(self, env: Environment):
        if not env.graph.unit_lengths():
            raise PreconditionError(
                "bisimulation needs all edge lengths equal to 1; rescale the graph first"
            )
        self.env = env
        self.actions = tuple(env.actions())
        self._unit = {a: ControlSignal([(a, Fraction(1))]) for a in self.actions}
        self._moves: dict = {}
        self.states: list = [env.initial]
        self.index: dict = {env.initial: 0}
        # The loop visits the states appended while it runs: a FIFO queue.
        for v in self.states:
            for a in self.actions:
                w = self.step(v, a)
                if w not in self.index:
                    self.index[w] = len(self.states)
                    self.states.append(w)

    def value(self, v):
        return self.env.sensor.value(self.env.graph, VertexState(v))

    def _move(self, v, a):
        """(successor, chunk) of the unit action a from v, simulated once."""
        key = (v, a)
        if key not in self._moves:
            traj = trajectory(self.env, self._unit[a], VertexState(v))
            state = traj.final
            if not isinstance(state, VertexState):
                raise PreconditionError(f"unit action {a!r} from {v!r} ended mid-edge")
            tr = trace_of_trajectory(self.env, traj)
            self._moves[key] = (state.vertex, (tr.segments, tr.events[:-1]))
        return self._moves[key]

    def step(self, v, a):
        return self._move(v, a)[0]

    def chunk(self, v, a):
        return self._move(v, a)[1]

    def rows(self, chunk_ids: dict, offset: int) -> list:
        """Per state, in `states` order, the flat row (chunk id, successor
        index + offset, ...) over the actions.  chunk_ids numbers distinct
        chunks; sharing it between two spaces gives equal chunks one id."""
        rows = []
        for v in self.states:
            row = []
            for a in self.actions:
                w, chunk = self._move(v, a)
                row += (chunk_ids.setdefault(chunk, len(chunk_ids)), self.index[w] + offset)
            rows.append(row)
        return rows


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

    States are numbered s1 first, then s2, and every chunk is interned once,
    so the rounds compare tuples of ints.
    """
    _require_shared_interface(e1, e2)
    s1, s2 = DiscreteStateSpace(e1), DiscreteStateSpace(e2)
    actions = s1.actions
    n1 = len(s1.states)
    chunk_ids: dict = {}
    rows = s1.rows(chunk_ids, 0) + s2.rows(chunk_ids, n1)
    chunks = [tuple(row[0::2]) for row in rows]
    succs = [row[1::2] for row in rows]
    n_states = len(rows)

    values: dict = {}
    part = [values.setdefault(s.value(v), len(values)) for s in (s1, s2) for v in s.states]
    history = [part]
    blocks = [len(values)]
    while True:
        prev = history[-1]
        signatures: dict = {}
        part = [
            signatures.setdefault(
                (prev[i], chunks[i], *[prev[j] for j in succs[i]]), len(signatures)
            )
            for i in range(n_states)
        ]
        if len(signatures) == blocks[-1]:
            break
        history.append(part)
        blocks.append(len(signatures))

    final = history[-1]
    x0, y0 = 0, n1  # each space lists its initial vertex first
    n_rounds = len(history) - 1

    if final[x0] == final[y0]:
        by_block: dict = {}
        for j, v2 in enumerate(s2.states):
            by_block.setdefault(final[n1 + j], []).append(v2)
        relation = sorted(
            (
                (v1, v2)
                for v1, block in zip(s1.states, final)
                for v2 in by_block.get(block, ())
            ),
            key=lambda p: (str(p[0]), str(p[1])),
        )
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


def verify_bisimulation(e1: Environment, e2: Environment, relation) -> bool:
    """Independent clause-by-clause check that `relation` (pairs of vertex
    names) is a bisimulation containing the initial pair: outputs agree,
    readout chunks agree, and every action keeps pairs inside the relation."""
    _require_shared_interface(e1, e2)
    s1, s2 = DiscreteStateSpace(e1), DiscreteStateSpace(e2)
    pairs = {(a, b) for a, b in relation}
    v1_known = set(e1.graph.vertices)
    v2_known = set(e2.graph.vertices)
    for v1, v2 in pairs:
        if v1 not in v1_known or v2 not in v2_known:
            raise ValidationError(f"relation mentions unknown vertices ({v1!r}, {v2!r})")
    if (e1.initial, e2.initial) not in pairs:
        return False
    for v1, v2 in pairs:
        if s1.value(v1) != s2.value(v2):
            return False
        for a in s1.actions:
            if s1.chunk(v1, a) != s2.chunk(v2, a):
                return False
            if (s1.step(v1, a), s2.step(v2, a)) not in pairs:
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
