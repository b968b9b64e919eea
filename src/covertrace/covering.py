"""Covering maps between ported graphs, lifts, and cover constructions.

A covering here is a structure-preserving graph map that is a port-preserving
bijection on every vertex star, preserves lengths, and sends base point to
base point.  Ports can always be relabelled to make an abstract covering
port-preserving, so port preservation is folded into the star condition of the
certificate rather than assumed up front: candidate maps that scramble ports
are reported as failing, not rejected.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .environments import Environment, Trajectory, trajectory
from .errors import PreconditionError, ValidationError
from .graphs import Dart, Edge, GraphState, PortedGraph, VertexState, check_port, check_vertex_name
from .rationals import as_fraction
from .sensors import SensorSpec
from .signals import ControlSignal


@dataclass(frozen=True, init=False)
class GraphMap:
    """A candidate map between ported graphs: total on vertices and darts."""

    vertex_map: dict
    dart_map: dict

    def __init__(self, vertex_map, dart_map):
        ditems = dart_map.items() if isinstance(dart_map, Mapping) else dart_map
        object.__setattr__(self, "vertex_map", dict(vertex_map))
        object.__setattr__(self, "dart_map", {Dart(*d): Dart(*e) for d, e in ditems})

    @classmethod
    def from_vertex_map(cls, source: PortedGraph, vertex_map: Mapping) -> "GraphMap":
        """Port-preserving dart map induced by a vertex map."""
        darts = {d: Dart(vertex_map[d.vertex], d.port) for d in source.darts()}
        return cls(vertex_map, darts)

    def vertex(self, v):
        return self.vertex_map[v]

    def dart(self, d: Dart) -> Dart:
        return self.dart_map[d]

    def state(self, target: PortedGraph, state: GraphState) -> GraphState:
        if isinstance(state, VertexState):
            return target.vertex_state(self.vertex(state.vertex))
        return target.state_on(self.dart(state.dart), state.offset)

    def to_json(self) -> dict:
        vertex_items = sorted(self.vertex_map.items(), key=lambda kv: str(kv[0]))
        dart_items = sorted(
            self.dart_map.items(), key=lambda kv: (str(kv[0].vertex), kv[0].port)
        )
        return {
            "vertex_map": [[src, dst] for src, dst in vertex_items],
            "dart_map": [[[d.vertex, d.port], [e.vertex, e.port]] for d, e in dart_items],
        }

    @classmethod
    def from_json(cls, data, source: Optional[PortedGraph] = None) -> "GraphMap":
        if not isinstance(data, dict) or "vertex_map" not in data:
            raise ValidationError("graph map JSON must carry vertex_map")
        if "dart_map" not in data and source is None:
            raise ValidationError("dart_map omitted and no source graph to derive it from")
        raw_v = data["vertex_map"]
        try:
            vpairs = raw_v.items() if isinstance(raw_v, dict) else raw_v
            vitems = {check_vertex_name(s): check_vertex_name(d) for s, d in vpairs}
            if "dart_map" not in data:
                return cls.from_vertex_map(source, vitems)
            ditems = [
                (_dart_from_json(d), _dart_from_json(e)) for d, e in data["dart_map"]
            ]
            return cls(vitems, ditems)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad graph map JSON: {exc!r}") from exc


def _dart_from_json(raw) -> Dart:
    vertex, port = raw
    return Dart(check_vertex_name(vertex), check_port(port))


@dataclass(frozen=True)
class CoveringCertificate:
    """Outcome of verify_covering: one flag per condition plus diagnostics."""

    surjective: bool
    local_bijection: bool
    lengths_preserved: bool
    base_point: bool
    failures: tuple

    @property
    def positive(self) -> bool:
        return (
            self.surjective
            and self.local_bijection
            and self.lengths_preserved
            and self.base_point
        )

    def to_json(self) -> dict:
        return {
            "covering": self.positive,
            "conditions": {
                "surjective": self.surjective,
                "local_bijection": self.local_bijection,
                "lengths_preserved": self.lengths_preserved,
                "base_point": self.base_point,
            },
            "failures": list(self.failures),
        }


def _check_structure(f: GraphMap, source: PortedGraph, target: PortedGraph) -> None:
    vmap, dmap = f.vertex_map, f.dart_map
    target_vertices = set(target.vertices)
    for v in source.vertices:
        if v not in vmap:
            raise ValidationError(f"vertex {v!r} unmapped")
        if vmap[v] not in target_vertices:
            raise ValidationError(f"vertex {v!r} maps outside the target")
    unmapped = [d for d in source.darts() if d not in dmap]
    if unmapped:
        raise ValidationError(f"dart {unmapped[0]!r} unmapped")
    for d in source.darts():
        image = dmap[d]
        if not target.has_dart(image):
            raise ValidationError(f"dart {d!r} maps to unknown dart {image!r}")
        if vmap[d.vertex] != image.vertex:
            raise ValidationError(f"dart {d!r}: image tail disagrees with vertex map")
        if vmap[source.head(d)] != target.head(image):
            raise ValidationError(f"dart {d!r}: image head disagrees with vertex map")
        if dmap[source.reverse(d)] != target.reverse(image):
            raise ValidationError(f"dart {d!r}: image does not respect reversal")


def verify_covering(
    f: GraphMap,
    source: Environment,
    target: Environment,
    skip_star_at: Iterable = (),
) -> CoveringCertificate:
    """Check the covering conditions and report a certificate.

    Structural violations (partial maps, broken incidence or reversal) are
    rejected with a diagnostic; the certificate then grades surjectivity, the
    port-preserving star bijections (skipped at `skip_star_at`, used for
    truncated covers with boundary), length preservation, and the base point.
    """
    sg, tg = source.graph, target.graph
    _check_structure(f, sg, tg)
    vmap, dmap = f.vertex_map, f.dart_map
    skip = set(skip_star_at)
    failures = []

    hit_vertices = set(vmap.values())
    surjective = hit_vertices == set(tg.vertices)
    if surjective and not skip:
        surjective = {dmap[d] for d in sg.darts()} == set(tg.darts())
    if not surjective:
        failures.append("not surjective")

    local_bijection = True
    for v in sg.vertices:
        if v in skip:
            continue
        images = [dmap[d] for d in sg.darts_at(v)]
        expect = tg.darts_at(vmap[v])
        ports_ok = all(dmap[d].port == d.port for d in sg.darts_at(v))
        if sorted(images) != sorted(expect) or not ports_ok:
            local_bijection = False
            failures.append(f"star at {v!r} is not a port-preserving bijection")

    lengths_preserved = True
    for d in sg.darts():
        if sg.length(d) != tg.length(dmap[d]):
            lengths_preserved = False
            failures.append(f"dart {d!r} changes length")
            break

    base_point = vmap.get(source.initial) == target.initial
    if not base_point:
        failures.append("base point not preserved")

    return CoveringCertificate(
        surjective, local_bijection, lengths_preserved, base_point, tuple(failures)
    )


def _require_covering(f, source, target, skip_star_at=()):
    cert = verify_covering(f, source, target, skip_star_at)
    if not cert.positive:
        raise PreconditionError(f"map is not a verified covering: {cert.failures}")
    return cert


def pullback_sensor(
    f: GraphMap, source_graph: PortedGraph, target_graph: PortedGraph, sensor: SensorSpec
) -> SensorSpec:
    """Pull a sensor on the target back along the map: h' = h after f.
    Beam marks reappear once on every preimage edge."""
    target_forward = [target_graph.forward_dart(j) for j in range(len(target_graph.edges))]
    edge_image = []
    for idx, e in enumerate(source_graph.edges):
        image = f.dart_map[source_graph.forward_dart(idx)]
        image_idx = target_graph.edge_of(image)
        edge_image.append((image_idx, image == target_forward[image_idx], e.length))
    return sensor.pullback({v: f.vertex_map[v] for v in source_graph.vertices}, edge_image)


def lift_sensor(f: GraphMap, source: Environment, target: Environment) -> SensorSpec:
    """Pullback of the target sensor along a verified covering."""
    _require_covering(f, source, target)
    return pullback_sensor(f, source.graph, target.graph, target.sensor)


def lift_environment(f: GraphMap, source: Environment, target: Environment) -> Environment:
    """The source environment re-equipped with the pulled-back sensor and the
    target's alphabet width."""
    sensor = lift_sensor(f, source, target)
    return Environment(source.graph, source.initial, sensor, target.alphabet_width)


def lift_state_path(
    f: GraphMap, source: Environment, target: Environment, signal: ControlSignal
) -> Trajectory:
    """The unique lift of the target trajectory of `signal`: run the same
    signal upstairs.  Port preservation makes the projection commute."""
    _require_covering(f, source, target)
    return trajectory(source, signal)


# --- cover constructions -------------------------------------------------


def _normalize_voltages(env: Environment, k: int, voltages) -> list:
    """Per-edge voltage in Z_k from a dart-keyed mapping (checked antisymmetric)
    or an edge-ordered sequence."""
    graph = env.graph
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"cover order must be a positive integer, got {k!r}")
    per_edge = [None] * len(graph.edges)
    if isinstance(voltages, Mapping):
        for d, value in voltages.items():
            d = Dart(*d)
            if not graph.has_dart(d):
                raise ValidationError(f"voltage on unknown dart {d!r}")
            idx = graph.edge_of(d)
            forward = d == graph.forward_dart(idx)
            value = value % k
            oriented = value if forward else (-value) % k
            if per_edge[idx] is not None and per_edge[idx] != oriented:
                raise ValidationError(f"inconsistent voltages on edge {idx}")
            per_edge[idx] = oriented
        missing = [i for i, v in enumerate(per_edge) if v is None]
        if missing:
            raise ValidationError(f"edges without a voltage: {missing}")
    else:
        values = list(voltages)
        if len(values) != len(graph.edges):
            raise ValidationError(
                f"{len(values)} voltages for {len(graph.edges)} edges"
            )
        per_edge = [v % k for v in values]
    return per_edge


def cyclic_cover(env: Environment, k: int, voltages):
    """Degree-k cyclic cover from voltages in Z_k.

    Builds the derived graph on vertex copies (v, i), keeps the component of
    the lifted base point (the full derived graph may fall apart when the
    voltages do not generate Z_k), pulls the sensor back, and returns the cover
    with its projection.  k = 1 returns an isomorphic copy.
    """
    per_edge = _normalize_voltages(env, k, voltages)
    graph = env.graph
    voltage = {}
    for e, value in zip(graph.edges, per_edge):
        voltage[Dart(e.tail, e.port_at_tail)] = value
        voltage[Dart(e.head, e.port_at_head)] = -value

    def name(v, i):
        return f"{v}@{i}"

    component = set()
    stack = [(env.initial, 0)]
    while stack:
        node = stack.pop()
        if node in component:
            continue
        component.add(node)
        v, i = node
        for d in graph.darts_at(v):
            stack.append((graph.head(d), (i + voltage[d]) % k))

    edges = [
        Edge(
            name(e.tail, i),
            name(e.head, (i + value) % k),
            e.port_at_tail,
            e.port_at_head,
            e.length,
        )
        for e, value in zip(graph.edges, per_edge)
        for i in range(k)
        if (e.tail, i) in component
    ]
    vertex_map = {
        name(v, i): v for v in graph.vertices for i in range(k) if (v, i) in component
    }
    cover_graph = PortedGraph(vertex_map, edges)
    projection = GraphMap.from_vertex_map(cover_graph, vertex_map)
    sensor = pullback_sensor(projection, cover_graph, graph, env.sensor)
    cover = Environment(cover_graph, name(env.initial, 0), sensor, env.alphabet_width)
    return cover, projection


def universal_cover_truncation(env: Environment, radius):
    """Tree of reduced edge-walks from the base point, cut past `radius`.

    Nodes whose walk length reaches the radius are not expanded; such cut
    leaves keep their single backward dart, renumbered to port 0 so the tree
    is a valid ported graph, and are reported as boundary.  Away from the
    boundary the projection satisfies the covering conditions, and any signal
    of duration under the radius never sees the boundary.
    Returns (cover environment, projection, boundary vertex set).
    """
    radius = as_fraction(radius)
    if radius <= 0:
        raise PreconditionError(f"radius must be positive, got {radius}")
    graph = env.graph

    root = "t0"
    vertex_map = {root: env.initial}
    dart_map = {}
    edges = []
    boundary = set()
    # (tree node, walk length, base dart leading from the node back to its parent)
    queue = deque([(root, Fraction(0), None)])
    while queue:
        node, dist, back = queue.popleft()
        for d in graph.darts_at(vertex_map[node]):
            if d == back:
                continue
            child = f"t{len(vertex_map)}"
            vertex_map[child] = graph.head(d)
            child_dist = dist + graph.length(d)
            reverse = graph.reverse(d)
            if child_dist < radius:
                queue.append((child, child_dist, reverse))
                child_port = reverse.port
            else:
                # a cut leaf keeps only its backward dart, which is port 0; it
                # is boundary when the base vertex has darts the tree dropped
                child_port = 0
                if graph.degree(vertex_map[child]) > 1:
                    boundary.add(child)
            edges.append(Edge(node, child, d.port, child_port, graph.length(d)))
            dart_map[Dart(node, d.port)] = d
            dart_map[Dart(child, child_port)] = reverse

    cover_graph = PortedGraph(vertex_map, edges)
    projection = GraphMap(vertex_map, dart_map)
    sensor = pullback_sensor(projection, cover_graph, graph, env.sensor)
    cover = Environment(cover_graph, root, sensor, env.alphabet_width)
    return cover, projection, frozenset(boundary)


def relabel_environment(env: Environment, vertex_renaming: Mapping) -> Environment:
    """Pure vertex renaming: same ports, lengths, sensor data, moved names.
    With a renaming that is a graph automorphism this realizes the isometry."""
    renaming = dict(vertex_renaming)
    graph = env.graph
    new_edges = [
        Edge(renaming[e.tail], renaming[e.head], e.port_at_tail, e.port_at_head, e.length)
        for e in graph.edges
    ]
    new_graph = PortedGraph([renaming[v] for v in graph.vertices], new_edges)
    sensor = env.sensor.rename(renaming)
    return Environment(new_graph, renaming[env.initial], sensor, env.alphabet_width)


# --- partition refinement ------------------------------------------------


def refine(part: list, signature) -> list:
    """Split the blocks of `part` (one int per element) until stable.

    Each round keys element i by (prev[i], *signature(prev, i)) and numbers
    the distinct keys in sorted order, so block ids depend only on the keys,
    not on the element order.  Stops when the block count stops growing or
    every block is a singleton; returns `part` and each partition after it.
    """
    history = [part]
    count = len(set(part))
    indices = range(len(part))
    while count < len(part):
        prev = history[-1]
        keys = [(prev[i], *signature(prev, i)) for i in indices]
        distinct = dict.fromkeys(keys)
        if len(distinct) == count:
            break
        count = len(distinct)
        ranks = {key: rank for rank, key in enumerate(sorted(distinct))}
        history.append([ranks[key] for key in keys])
    return history


def degree_refinement(env: Environment) -> tuple:
    """Canonical degree refinement table.

    Vertices start coloured by degree and are recoloured by the sorted
    colours at the heads of their darts until stable.  Ports and lengths are
    ignored, so the claim is about the underlying multigraph: two finite
    connected graphs share a universal cover exactly when their tables
    agree.  Colour ids are canonical ranks (see refine), independent of
    vertex and edge order.  Rows list, per final colour in rank order: the
    degree and the dart counts into each colour.
    """
    graph = env.graph
    position = {v: i for i, v in enumerate(graph.vertices)}
    heads = [[position[graph.head(d)] for d in graph.darts_at(v)] for v in graph.vertices]
    colour = refine(
        [graph.degree(v) for v in graph.vertices], lambda prev, i: sorted(prev[j] for j in heads[i])
    )[-1]
    member = {c: i for i, c in enumerate(colour)}
    index = {c: rank for rank, c in enumerate(sorted(member))}
    rows = [heads[member[c]] for c in index]
    return tuple(
        (len(row), tuple(sorted(Counter(index[colour[j]] for j in row).items()))) for row in rows
    )
