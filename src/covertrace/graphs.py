"""Ported metric graphs and robot states on them.

A ported graph is a finite connected multigraph where every vertex numbers its
incident half-edges (darts) 0..deg-1 and every edge carries a positive rational
length.  Darts are identified by (vertex, port), which is unique, and come with
a reversal involution pairing the two darts of each edge.  Self-loops are
allowed but must use two distinct ports.

Names (vertex names, Darts) are the API; inside, a graph is integer tables.
Vertex i is the i-th entry of `vertices`.  Dart id 2e is edge e in its
stored orientation and 2e+1 its reverse, so a dart's edge is id >> 1, its
reverse is id ^ 1 and it is stored-forward when id & 1 == 0.  The tables
are `vertex_index` (name -> i), `dart_keys` (id -> (vertex, port) tuple),
`dart_index` (its inverse, in which a Dart looks up as the tuple it is),
`dart_head` (id -> head vertex), `star` (vertex -> dart ids in port
order) and `lengths` (edge -> its length, a Fraction); a dart's tail is
dart_head[id ^ 1] and its length lengths[id >> 1], which edge_ticks() holds
as an int.  Edge e is dart_keys[2e] and dart_keys[2e + 1] with
lengths[e].  Code in this package reads the tables and never writes them.

A graph is built from its vertices and one row (tail, head, port_at_tail,
port_at_head, length) per edge, in edge order; one loop validates the rows
in O(V + E) while it builds the tables.  `from_json` reads each edge object
into a row, with one Fraction per distinct wire length, and `to_json`
writes the columns.  Covers are assembled straight into the tables
(PortedGraph._derived).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Union

from .errors import ValidationError
from .rationals import as_fraction, is_rational, shared_from_wire


def check_vertex_name(name):
    """Vertex names read from JSON must be strings or integers."""
    if type(name) is str or type(name) is int:
        return name
    if isinstance(name, bool) or not isinstance(name, (int, str)):
        raise ValidationError(f"vertex names must be strings or integers, got {name!r}")
    return name


def sorted_by_name(items) -> list:
    """(vertex name, value) items stably sorted by the printed name; a
    string prints as itself, so names that are all strings are the keys."""
    items = list(items)
    if set(map(type, map(itemgetter(0), items))) <= {str}:
        return sorted(items, key=itemgetter(0))
    return sorted(items, key=lambda kv: str(kv[0]))


def check_port(port):
    """Ports read from JSON must be integers (bools are not ports)."""
    if type(port) is int:
        return port
    if isinstance(port, bool) or not isinstance(port, int):
        raise ValidationError(f"ports must be integers, got {port!r}")
    return port


def wire_pairs(raw):
    """The entries of a JSON array of [key, value] pairs; one that is not an
    array of two (a 2-character string unpacks too) raises TypeError."""
    for entry in raw:
        if type(entry) is not list or len(entry) != 2:
            raise TypeError(f"{entry!r} is not a [key, value] pair")
        yield entry


class Dart(NamedTuple):
    vertex: object
    port: int


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


def _holds(index: dict, key) -> bool:
    """key in index, and False for an unhashable key (a list read from
    JSON), which no index holds."""
    try:
        return key in index
    except TypeError:
        return False


def _vertex_index(vertices: tuple) -> dict:
    index = {v: i for i, v in enumerate(vertices)}
    if len(index) != len(vertices):
        raise ValidationError("duplicate vertex names")
    return index


def _positive_length(idx: int, length) -> Fraction:
    """Edge idx's length as a Fraction: an int or a Fraction (not a bool,
    a float or a string) above 0."""
    if type(length) is not Fraction:
        if not is_rational(length):
            raise ValidationError(f"edge {idx} has length {length!r}, not an int or a Fraction")
        length = Fraction(length)
    if length.numerator <= 0:
        raise ValidationError(f"edge {idx} has non-positive length {length}")
    return length


class PortedGraph:
    """Validated immutable ported metric graph.

    Construction checks: ports at each vertex are exactly {0..deg-1}, self-loops
    use two distinct ports, lengths are positive ints or Fractions, and the
    graph is connected.  The id tables are described in the module docstring.
    """

    def __init__(self, vertices: Iterable, rows: Iterable):
        """The graph on the vertices with one edge per (tail, head,
        port_at_tail, port_at_head, length) row, in edge order; an int
        length is kept as a Fraction."""
        self.vertices = tuple(vertices)
        index = _vertex_index(self.vertices)

        # one pass builds the dart tables and finds a reused port
        dart_index = {}
        dart_head = []
        lengths = []
        at = [[] for _ in self.vertices]
        checked = fraction = None  # rows often share one length object: check it once
        for idx, (tail_name, head_name, port_at_tail, port_at_head, length) in enumerate(rows):
            tail, head = index.get(tail_name), index.get(head_name)
            if tail is None or head is None:
                raise ValidationError(f"edge {idx} touches an unknown vertex")
            if length is not checked:
                checked, fraction = length, _positive_length(idx, length)
            if tail == head and port_at_tail == port_at_head:
                raise ValidationError(f"edge {idx} is a self-loop reusing one port")
            fwd = (tail_name, port_at_tail)
            if fwd in dart_index:
                raise ValidationError(f"port {port_at_tail} at vertex {tail_name!r} used twice")
            dart_index[fwd] = 2 * idx
            bwd = (head_name, port_at_head)
            if bwd in dart_index:
                raise ValidationError(f"port {port_at_head} at vertex {head_name!r} used twice")
            dart_index[bwd] = 2 * idx + 1
            dart_head += (head, tail)
            lengths.append(fraction)
            at[tail].append(2 * idx)
            at[head].append(2 * idx + 1)
        dart_keys = list(dart_index)

        # the ports at a vertex are distinct, so they are 0..deg-1 exactly
        # when each is an int in that range
        star = []
        for v, ids in zip(self.vertices, at):
            degree = len(ids)
            row = [None] * degree
            for d in ids:
                port = dart_keys[d][1]
                if type(port) is not int or not 0 <= port < degree:
                    used = sorted(dart_keys[d][1] for d in ids)
                    raise ValidationError(f"vertex {v!r} must use ports 0..{degree - 1}, got {used}")
                row[port] = d
            star.append(row)

        self._set_tables(index, lengths, dart_keys, dart_index, dart_head, star)
        if not self._connected():
            raise ValidationError("graph is not connected")

    @classmethod
    def _derived(cls, vertices, lengths, dart_keys, dart_head, star) -> "PortedGraph":
        """A graph from tables its caller built, for a construction (a cover)
        that proves what __init__ would check beyond the names: the darts at
        each vertex are listed in port order with ports 0..deg-1, dart 2e is
        edge e's stored orientation, lengths are positive and the graph is
        connected.  Vertex names are still checked to be distinct."""
        self = cls.__new__(cls)
        self.vertices = tuple(vertices)
        index = _vertex_index(self.vertices)
        dart_index = dict(zip(dart_keys, range(len(dart_keys))))
        self._set_tables(index, list(lengths), dart_keys, dart_index, dart_head, star)
        return self

    def _set_tables(self, index, lengths, dart_keys, dart_index, dart_head, star) -> None:
        self.vertex_index = index
        self.lengths = lengths
        self.dart_keys = dart_keys
        self.dart_index = dart_index
        self.dart_head = dart_head
        self.star = star
        self._tick_denominator: Optional[int] = None
        self._edge_ticks: Optional[list] = None

    def _connected(self) -> bool:
        if not self.vertices:
            raise ValidationError("graph needs at least one vertex")
        head, star = self.dart_head, self.star
        seen = [False] * len(self.vertices)
        seen[0] = True
        stack = [0]
        reached = 1
        while stack:
            for d in star[stack.pop()]:
                w = head[d]
                if not seen[w]:
                    seen[w] = True
                    reached += 1
                    stack.append(w)
        return reached == len(self.vertices)

    # --- basic accessors -------------------------------------------------

    def degree(self, v) -> int:
        return len(self.star[self.vertex_index[v]])

    def max_degree(self) -> int:
        return max(map(len, self.star))

    def darts(self) -> list:
        """Every dart, in id order."""
        return list(map(Dart._make, self.dart_keys))

    def darts_at(self, v) -> list:
        return [Dart(v, k) for k in range(self.degree(v))]

    def has_dart(self, d: Dart) -> bool:
        return d in self.dart_index

    def head(self, d: Dart):
        return self.vertices[self.dart_head[self.dart_index[d]]]

    def length(self, d: Dart) -> Fraction:
        return self.lengths[self.dart_index[d] >> 1]

    def reverse(self, d: Dart) -> Dart:
        return Dart._make(self.dart_keys[self.dart_index[d] ^ 1])

    def edge_of(self, d: Dart) -> int:
        return self.dart_index[d] >> 1

    def forward_dart(self, edge_index: int) -> Dart:
        return Dart._make(self.dart_keys[2 * edge_index])

    def unit_lengths(self) -> bool:
        # read off the cached tick tables: on ticks of 1, every edge is 1 tick
        ticks = self.edge_ticks()
        return self.tick_denominator() == 1 and ticks.count(1) == len(ticks)

    def tick_denominator(self) -> int:
        """Least common denominator of the edge lengths, computed on first use
        (a simulation's integer grid is a multiple of it)."""
        if self._tick_denominator is None:
            self._tick_denominator = lcm(*[x.denominator for x in self.lengths])
        return self._tick_denominator

    def edge_ticks(self) -> list:
        """Each edge's length in ticks of 1/tick_denominator(), in edge
        order, computed on first use and kept."""
        if self._edge_ticks is None:
            unit = self.tick_denominator()
            self._edge_ticks = [x.numerator * (unit // x.denominator) for x in self.lengths]
        return self._edge_ticks

    # --- states ----------------------------------------------------------

    def vertex_state(self, v) -> VertexState:
        if v not in self.vertex_index:
            raise ValidationError(f"unknown vertex {v!r}")
        return VertexState(v)

    def state_on(self, d: Dart, offset) -> GraphState:
        """Canonical state at the given offset along a dart: endpoints fold to
        vertex states so equality matches geometric identity."""
        i = self.dart_index.get(d)
        if i is None:
            raise ValidationError(f"unknown dart {d!r}")
        offset = as_fraction(offset)
        length = self.lengths[i >> 1]
        if offset < 0 or offset > length:
            raise ValidationError(f"offset {offset} outside [0, {length}]")
        if offset == 0:
            return VertexState(d.vertex)
        if offset == length:
            return VertexState(self.vertices[self.dart_head[i]])
        return EdgeState(d, offset)

    def check_state(self, state: GraphState) -> GraphState:
        """The state if it lies on this graph, with an EdgeState's offset as
        a Fraction strictly inside its edge (floats and bools are refused)."""
        if isinstance(state, VertexState):
            if not _holds(self.vertex_index, state.vertex):
                raise ValidationError(f"state at unknown vertex {state.vertex!r}")
            return state
        if isinstance(state, EdgeState):
            if not _holds(self.dart_index, state.dart):
                raise ValidationError(f"state on unknown dart {state.dart!r}")
            offset = as_fraction(state.offset)
            if not (0 < offset < self.length(state.dart)):
                raise ValidationError(f"interior offset {offset} out of range")
            return state if offset is state.offset else EdgeState(state.dart, offset)
        raise ValidationError(f"not a graph state: {state!r}")

    # --- equality and serialization --------------------------------------

    def __eq__(self, other) -> bool:
        # the dart keys in id order and the lengths spell the edges in order
        return (
            isinstance(other, PortedGraph)
            and self.vertices == other.vertices
            and self.dart_keys == other.dart_keys
            and self.lengths == other.lengths
        )

    def __repr__(self) -> str:
        return f"PortedGraph({len(self.vertices)} vertices, {len(self.lengths)} edges)"

    def to_json(self) -> dict:
        keys = self.dart_keys
        return {
            "vertices": list(self.vertices),
            "edges": [
                {
                    "tail": tail,
                    "head": head,
                    "port_at_tail": port_at_tail,
                    "port_at_head": port_at_head,
                    "length": [length.numerator, length.denominator],
                }
                for (tail, port_at_tail), (head, port_at_head), length in zip(keys[::2], keys[1::2], self.lengths)
            ],
        }

    @classmethod
    def from_json(cls, data) -> "PortedGraph":
        """The graph a document spells.  Every edge object is read into a
        row, with the checks of check_vertex_name, check_port and from_wire
        field by field, before the constructor checks the rows; so the first
        malformed field in document order is refused before any bad name,
        port or length in the graph's structure."""
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
            if type(v) is not str and type(v) is not int:
                check_vertex_name(v)
        rows = []
        lengths = {}
        for raw in raw_edges:
            if not isinstance(raw, dict):
                raise ValidationError(f"bad edge entry: {raw!r}")
            try:
                tail = raw["tail"]
                if type(tail) is not str and type(tail) is not int:
                    check_vertex_name(tail)
                head = raw["head"]
                if type(head) is not str and type(head) is not int:
                    check_vertex_name(head)
                port_at_tail = raw["port_at_tail"]
                if type(port_at_tail) is not int:
                    check_port(port_at_tail)
                port_at_head = raw["port_at_head"]
                if type(port_at_head) is not int:
                    check_port(port_at_head)
                length = shared_from_wire(raw["length"], lengths)
            except KeyError as exc:
                raise ValidationError(f"edge entry missing key {exc}") from exc
            rows.append((tail, head, port_at_tail, port_at_head, length))
        return cls(vertices, rows)
