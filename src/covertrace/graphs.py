"""Ported metric graphs and robot states on them.

A ported graph is a finite connected multigraph where every vertex numbers its
incident half-edges (darts) 0..deg-1 and every edge carries a positive rational
length.  Darts are identified by (vertex, port), which is unique, and come with
a reversal involution pairing the two darts of each edge.  Self-loops are
allowed but must use two distinct ports.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Optional, Union

from .errors import ValidationError
from .rationals import as_fraction, from_wire, to_pair


def check_vertex_name(name):
    """Vertex names read from JSON must be strings or integers."""
    if isinstance(name, bool) or not isinstance(name, (int, str)):
        raise ValidationError(f"vertex names must be strings or integers, got {name!r}")
    return name


def check_port(port):
    """Ports read from JSON must be integers (bools are not ports)."""
    if isinstance(port, bool) or not isinstance(port, int):
        raise ValidationError(f"ports must be integers, got {port!r}")
    return port


class Dart(NamedTuple):
    vertex: object
    port: int


@dataclass(frozen=True)
class Edge:
    """One undirected edge given in its stored orientation."""

    tail: object
    head: object
    port_at_tail: int
    port_at_head: int
    length: Fraction

    def to_json(self) -> dict:
        return {
            "tail": self.tail,
            "head": self.head,
            "port_at_tail": self.port_at_tail,
            "port_at_head": self.port_at_head,
            "length": to_pair(self.length),
        }


@dataclass(frozen=True)
class VertexState:
    """Robot sitting at a vertex.  Direction is irrelevant while at a vertex:
    the next dart is chosen by the incoming symbol, so no dart is stored."""

    vertex: object


@dataclass(frozen=True)
class EdgeState:
    """Robot strictly inside an edge, moving frame fixed by the dart: offset is
    measured from tail(dart) and satisfies 0 < offset < length."""

    dart: Dart
    offset: Fraction


GraphState = Union[VertexState, EdgeState]


class PortedGraph:
    """Validated immutable ported metric graph.

    Construction checks: ports at each vertex are exactly {0..deg-1}, self-loops
    use two distinct ports, lengths are positive, and the graph is connected.
    """

    def __init__(self, vertices: Iterable, edges: Iterable[Edge]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValidationError("duplicate vertex names")
        vertex_set = set(self.vertices)
        self.edges = tuple(edges)

        head_of = {}
        length_of = {}
        reverse_of = {}
        edge_index_of = {}
        for idx, e in enumerate(self.edges):
            if e.tail not in vertex_set or e.head not in vertex_set:
                raise ValidationError(f"edge {idx} touches an unknown vertex")
            if e.length <= 0:
                raise ValidationError(f"edge {idx} has non-positive length {e.length}")
            fwd = Dart(e.tail, e.port_at_tail)
            bwd = Dart(e.head, e.port_at_head)
            if fwd == bwd:
                raise ValidationError(f"edge {idx} is a self-loop reusing one port")
            for d in (fwd, bwd):
                if d in head_of:
                    raise ValidationError(f"port {d.port} at vertex {d.vertex!r} used twice")
            head_of[fwd] = e.head
            head_of[bwd] = e.tail
            length_of[fwd] = length_of[bwd] = e.length
            reverse_of[fwd] = bwd
            reverse_of[bwd] = fwd
            edge_index_of[fwd] = edge_index_of[bwd] = idx

        ports = {v: [] for v in self.vertices}
        for d in head_of:
            ports[d.vertex].append(d.port)
        for v, used in ports.items():
            if set(used) != set(range(len(used))):
                raise ValidationError(
                    f"vertex {v!r} must use ports 0..{len(used) - 1}, got {sorted(used)}"
                )

        self._head = head_of
        self._length = length_of
        self._reverse = reverse_of
        self._edge_index = edge_index_of
        self._degree = {v: len(used) for v, used in ports.items()}
        self._vertex_dist: Optional[dict] = None
        self._tick_denominator: Optional[int] = None

        if not self._connected():
            raise ValidationError("graph is not connected")

    def _connected(self) -> bool:
        if not self.vertices:
            raise ValidationError("graph needs at least one vertex")
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            v = stack.pop()
            for k in range(self._degree[v]):
                w = self._head[Dart(v, k)]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    # --- basic accessors -------------------------------------------------

    def degree(self, v) -> int:
        return self._degree[v]

    def max_degree(self) -> int:
        return max(self._degree.values())

    def darts(self):
        return self._head.keys()

    def darts_at(self, v) -> list:
        return [Dart(v, k) for k in range(self._degree[v])]

    def has_dart(self, d: Dart) -> bool:
        return d in self._head

    def head(self, d: Dart):
        return self._head[d]

    def length(self, d: Dart) -> Fraction:
        return self._length[d]

    def reverse(self, d: Dart) -> Dart:
        return self._reverse[d]

    def edge_of(self, d: Dart) -> int:
        return self._edge_index[d]

    def forward_dart(self, edge_index: int) -> Dart:
        e = self.edges[edge_index]
        return Dart(e.tail, e.port_at_tail)

    def unit_lengths(self) -> bool:
        return all(e.length == 1 for e in self.edges)

    def tick_denominator(self) -> int:
        """Least common denominator of the edge lengths, computed on first use
        (a simulation's integer grid is a multiple of it)."""
        if self._tick_denominator is None:
            self._tick_denominator = lcm(*[e.length.denominator for e in self.edges])
        return self._tick_denominator

    def length_ticks(self, d: Dart, scale: int) -> int:
        """Length of the dart in ticks of 1/scale, for a scale that its
        length denominator divides (any multiple of tick_denominator())."""
        length = self._length[d]
        return length.numerator * (scale // length.denominator)

    # --- states ----------------------------------------------------------

    def vertex_state(self, v) -> VertexState:
        if v not in self._degree:
            raise ValidationError(f"unknown vertex {v!r}")
        return VertexState(v)

    def state_on(self, d: Dart, offset) -> GraphState:
        """Canonical state at the given offset along a dart: endpoints fold to
        vertex states so equality matches geometric identity."""
        if d not in self._head:
            raise ValidationError(f"unknown dart {d!r}")
        offset = as_fraction(offset)
        length = self._length[d]
        if offset < 0 or offset > length:
            raise ValidationError(f"offset {offset} outside [0, {length}]")
        if offset == 0:
            return VertexState(d.vertex)
        if offset == length:
            return VertexState(self._head[d])
        return EdgeState(d, offset)

    def state_on_ticks(self, d: Dart, offset: int, scale: int) -> GraphState:
        """state_on(d, Fraction(offset, scale)) with the range check and the
        folding done on ints, for a scale that the dart's length denominator
        divides (any multiple of tick_denominator())."""
        if d not in self._head:
            raise ValidationError(f"unknown dart {d!r}")
        length = self.length_ticks(d, scale)
        if offset < 0 or offset > length:
            raise ValidationError(f"offset {Fraction(offset, scale)} outside [0, {self._length[d]}]")
        if offset == 0:
            return VertexState(d.vertex)
        if offset == length:
            return VertexState(self._head[d])
        return EdgeState(d, Fraction(offset, scale))

    def check_state(self, state: GraphState) -> GraphState:
        if isinstance(state, VertexState):
            if state.vertex not in self._degree:
                raise ValidationError(f"state at unknown vertex {state.vertex!r}")
            return state
        if isinstance(state, EdgeState):
            if state.dart not in self._head:
                raise ValidationError(f"state on unknown dart {state.dart!r}")
            if not (0 < state.offset < self._length[state.dart]):
                raise ValidationError(f"interior offset {state.offset} out of range")
            return state
        raise ValidationError(f"not a graph state: {state!r}")

    def point_of(self, state: GraphState):
        """Undirected position: ('V', v) or ('E', edge_index, distance from the
        stored tail).  Opposite-direction states at one point coincide here."""
        if isinstance(state, VertexState):
            return ("V", state.vertex)
        idx = self._edge_index[state.dart]
        if state.dart == self.forward_dart(idx):
            pos = state.offset
        else:
            pos = self._length[state.dart] - state.offset
        return ("E", idx, pos)

    # --- metric ----------------------------------------------------------

    def vertex_distances(self) -> dict:
        """All-pairs shortest path lengths between vertices, exact."""
        if self._vertex_dist is None:
            import networkx as nx

            g = nx.MultiGraph()
            g.add_nodes_from(self.vertices)
            for e in self.edges:
                g.add_edge(e.tail, e.head, weight=e.length)
            dist = {}
            for src, table in nx.all_pairs_dijkstra_path_length(g, weight="weight"):
                for dst, d in table.items():
                    dist[(src, dst)] = as_fraction(d)
            self._vertex_dist = dist
        return self._vertex_dist

    def point_distance(self, s1: GraphState, s2: GraphState) -> Fraction:
        """Path-metric distance between the positions of two states."""
        p1 = self.point_of(self.check_state(s1))
        p2 = self.point_of(self.check_state(s2))
        dv = self.vertex_distances()

        def ends(p):
            if p[0] == "V":
                return [(p[1], Fraction(0))]
            _, idx, pos = p
            e = self.edges[idx]
            return [(e.tail, pos), (e.head, e.length - pos)]

        best = None
        if p1[0] == "E" and p2[0] == "E" and p1[1] == p2[1]:
            best = abs(p1[2] - p2[2])
        for u, du in ends(p1):
            for w, dw in ends(p2):
                cand = du + dv[(u, w)] + dw
                if best is None or cand < best:
                    best = cand
        return best

    # --- equality and serialization --------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PortedGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return f"PortedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edges": [e.to_json() for e in self.edges],
        }

    @classmethod
    def from_json(cls, data) -> "PortedGraph":
        if not isinstance(data, dict):
            raise ValidationError("graph JSON must be an object")
        try:
            vertices = data["vertices"]
            raw_edges = data["edges"]
        except KeyError as exc:
            raise ValidationError(f"graph JSON missing key {exc}") from exc
        if not isinstance(vertices, list) or not isinstance(raw_edges, list):
            raise ValidationError("graph JSON: vertices and edges must be lists")
        for v in vertices:
            check_vertex_name(v)
        edges = []
        for raw in raw_edges:
            if not isinstance(raw, dict):
                raise ValidationError(f"bad edge entry: {raw!r}")
            try:
                edges.append(
                    Edge(
                        tail=check_vertex_name(raw["tail"]),
                        head=check_vertex_name(raw["head"]),
                        port_at_tail=check_port(raw["port_at_tail"]),
                        port_at_head=check_port(raw["port_at_head"]),
                        length=from_wire(raw["length"]),
                    )
                )
            except KeyError as exc:
                raise ValidationError(f"edge entry missing key {exc}") from exc
        return cls(vertices, edges)


def build_edges(specs: Iterable) -> list:
    """Convenience: edges from (tail, head, port_at_tail, port_at_head[, length])
    tuples, length defaulting to 1."""
    edges = []
    for spec in specs:
        if len(spec) == 4:
            tail, head, pt, ph = spec
            length = Fraction(1)
        else:
            tail, head, pt, ph, length = spec
            length = as_fraction(length)
        edges.append(Edge(tail, head, pt, ph, length))
    return edges
