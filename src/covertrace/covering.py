"""Covering maps between ported graphs, lifts, and cover constructions.

A covering here is a structure-preserving graph map that is a port-preserving
bijection on every vertex star, preserves lengths, and sends base point to
base point.  Ports can always be relabelled to make an abstract covering
port-preserving, so port preservation is folded into the star condition of the
certificate rather than assumed up front: candidate maps that scramble ports
are reported as failing, not rejected.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import lcm
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .environments import Environment, Trajectory, trajectory
from .errors import PreconditionError, ValidationError
from .graphs import Dart, PortedGraph, check_port, check_vertex_name, sorted_by_name, wire_pairs
from .rationals import as_fraction
from .sensors import SensorSpec
from .signals import ControlSignal


@dataclass(frozen=True, init=False)
class GraphMap:
    """A candidate map between ported graphs: total on vertices and darts.

    dart_map sends (vertex, port) pairs, Darts or plain tuples, to such
    pairs."""

    vertex_map: dict
    dart_map: dict

    def __init__(self, vertex_map, dart_map):
        object.__setattr__(self, "vertex_map", dict(vertex_map))
        object.__setattr__(self, "dart_map", dict(dart_map))

    @classmethod
    def from_vertex_map(cls, source: PortedGraph, vertex_map: Mapping) -> "GraphMap":
        """Port-preserving dart map induced by a vertex map."""
        return cls(vertex_map, {d: (vertex_map[d[0]], d[1]) for d in source.dart_keys})

    def to_json(self) -> dict:
        # sorted by printed vertex name, then port; a string prints as
        # itself, so when every name is a string the keys sort as they are
        vertex_items = sorted_by_name(self.vertex_map.items())
        key = itemgetter(0)
        if set(map(type, map(key, self.dart_map))) <= {str}:
            dart_items = sorted(self.dart_map.items(), key=key)
        else:
            dart_items = sorted(self.dart_map.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
        return {
            "vertex_map": [[src, dst] for src, dst in vertex_items],
            "dart_map": [[[v, p], [w, q]] for (v, p), (w, q) in dart_items],
        }

    @classmethod
    def from_json(cls, data, source: Optional[PortedGraph] = None) -> "GraphMap":
        if not isinstance(data, dict) or "vertex_map" not in data:
            raise ValidationError("graph map JSON must carry vertex_map")
        if "dart_map" not in data and source is None:
            raise ValidationError("dart_map omitted and no source graph to derive it from")
        raw_v = data["vertex_map"]
        try:
            vpairs = raw_v.items() if isinstance(raw_v, dict) else wire_pairs(raw_v)
            vitems = {}
            for s, d in vpairs:
                if type(s) is not str and type(s) is not int:
                    check_vertex_name(s)
                if s in vitems:
                    raise ValidationError(f"vertex {s!r} is mapped twice")
                if type(d) is not str and type(d) is not int:
                    check_vertex_name(d)
                vitems[s] = d
            if "dart_map" not in data:
                return cls.from_vertex_map(source, vitems)
            # each dart is a (vertex, port) pair, with the checks of
            # check_vertex_name and check_port
            ditems = {}
            for d, e in data["dart_map"]:
                vertex, port = d
                if type(vertex) is not str and type(vertex) is not int:
                    check_vertex_name(vertex)
                if type(port) is not int:
                    check_port(port)
                d = (vertex, port)
                if d in ditems:
                    raise ValidationError(f"dart {Dart._make(d)!r} is mapped twice")
                vertex, port = e
                if type(vertex) is not str and type(vertex) is not int:
                    check_vertex_name(vertex)
                if type(port) is not int:
                    check_port(port)
                ditems[d] = (vertex, port)
            return cls(vitems, ditems)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad graph map JSON: {exc!r}") from exc


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


def _check_structure(f: GraphMap, source: PortedGraph, target: PortedGraph) -> tuple:
    """Reject a map that is partial or breaks incidence or reversal; else
    return its images in ids: the target position of each source vertex and
    the target dart id of each source dart."""
    vmap, dmap = f.vertex_map, f.dart_map
    target_index = target.vertex_index
    vimg = []
    for v in source.vertices:
        if v not in vmap:
            raise ValidationError(f"vertex {v!r} unmapped")
        w = target_index.get(vmap[v])
        if w is None:
            raise ValidationError(f"vertex {v!r} maps outside the target")
        vimg.append(w)
    keys = source.dart_keys
    images = list(map(dmap.get, keys))
    if None in images:
        for d in keys:
            if d not in dmap:
                raise ValidationError(f"dart {Dart._make(d)!r} unmapped")
    dimg = list(map(target.dart_index.get, images))
    head, target_head = source.dart_head, target.dart_head
    # Every image a dart, reversal kept and every head mapped to the image
    # of the head: then every tail is too (the tail of s is the head of
    # s ^ 1), so the dart-by-dart loop below, which names the first dart
    # that fails, has nothing to find.
    if (
        None not in dimg
        and [t ^ 1 for t in dimg[::2]] == dimg[1::2]
        and [vimg[v] for v in head] == [target_head[t] for t in dimg]
    ):
        return vimg, dimg
    for s, t in enumerate(dimg):
        if t is None:
            raise ValidationError(
                f"dart {Dart._make(keys[s])!r} maps to unknown dart {Dart._make(images[s])!r}"
            )
        if vimg[head[s ^ 1]] != target_head[t ^ 1]:
            raise ValidationError(f"dart {Dart._make(keys[s])!r}: image tail disagrees with vertex map")
        if vimg[head[s]] != target_head[t]:
            raise ValidationError(f"dart {Dart._make(keys[s])!r}: image head disagrees with vertex map")
        if dimg[s ^ 1] != t ^ 1:
            raise ValidationError(f"dart {Dart._make(keys[s])!r}: image does not respect reversal")
    return vimg, dimg


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
    Everything past the names is O(V + E) work on positions and dart ids.
    """
    sg, tg = source.graph, target.graph
    vimg, dimg = _check_structure(f, sg, tg)
    vmap = f.vertex_map
    skip = set(skip_star_at)
    failures = []

    surjective = set(vmap.values()) == tg.vertex_index.keys()
    if surjective and not skip:
        surjective = len(set(dimg)) == len(tg.dart_keys)
    if not surjective:
        failures.append("not surjective")

    # with the tails checked, the star at v is a port-preserving bijection
    # exactly when its images, in port order, are the star at the image.
    # That holds at every vertex exactly when every dart keeps its port and
    # every vertex its degree, which whole-list comparisons read; the loop
    # over the vertices runs only to name the stars that fail.
    local_bijection = True
    target_star = tg.star
    if not (
        not skip
        and [len(row) for row in sg.star] == [len(target_star[w]) for w in vimg]
        and [key[1] for key in sg.dart_keys] == [tg.dart_keys[t][1] for t in dimg]
    ):
        for v, w, row in zip(sg.vertices, vimg, sg.star):
            if v in skip:
                continue
            if [dimg[d] for d in row] != target_star[w]:
                local_bijection = False
                failures.append(f"star at {v!r} is not a port-preserving bijection")

    # a dart and its reverse lie on one edge and so do their images, so the
    # forward darts 2e decide; lengths are in lowest terms, so they are
    # equal exactly when their numerators and denominators are.  The copies
    # of a base edge are numbered together and share length objects, so the
    # last pair found equal is kept and not compared again.
    lengths_preserved = True
    target_lengths = tg.lengths
    equal = (None, None)
    for e, (length, t) in enumerate(zip(sg.lengths, dimg[::2])):
        image = target_lengths[t >> 1]
        if length is image or (length is equal[0] and image is equal[1]):
            continue
        if length.numerator != image.numerator or length.denominator != image.denominator:
            lengths_preserved = False
            failures.append(f"dart {Dart._make(sg.dart_keys[2 * e])!r} changes length")
            break
        equal = (length, image)

    base_point = vmap.get(source.initial) == target.initial
    if not base_point:
        failures.append("base point not preserved")

    return CoveringCertificate(
        surjective, local_bijection, lengths_preserved, base_point, tuple(failures)
    )


def _require_covering(f, source, target):
    cert = verify_covering(f, source, target)
    if not cert.positive:
        raise PreconditionError(f"map is not a verified covering: {cert.failures}")
    return cert


def pullback_sensor(
    f: GraphMap, source_graph: PortedGraph, target_graph: PortedGraph, sensor: SensorSpec
) -> SensorSpec:
    """Pull a sensor on the target back along the map: h' = h after f.
    Beam marks reappear once on every preimage edge."""
    target_index, dmap = target_graph.dart_index, f.dart_map
    edge_image = []
    for key, length in zip(source_graph.dart_keys[::2], source_graph.lengths):
        t = target_index[dmap[key]]
        edge_image.append((t >> 1, not t & 1, length))
    return sensor.pullback({v: f.vertex_map[v] for v in source_graph.vertices}, edge_image)


def lift_state_path(
    f: GraphMap, source: Environment, target: Environment, signal: ControlSignal
) -> Trajectory:
    """The unique lift of the target trajectory of `signal`: run the same
    signal upstairs, with the target's alphabet width deciding which ports
    move the robot.  Port preservation makes the projection commute."""
    _require_covering(f, source, target)
    upstairs = Environment(source.graph, source.initial, source.sensor, target.alphabet_width)
    return trajectory(upstairs, signal)


# --- cover constructions -------------------------------------------------


def _normalize_voltages(env: Environment, k: int, voltages) -> list:
    """Per-edge voltage in Z_k from a sequence of one voltage per edge, in
    edge order, each for the edge's stored orientation."""
    graph = env.graph
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"cover order must be a positive integer, got {k!r}")
    values = list(voltages)
    if len(values) != len(graph.lengths):
        raise ValidationError(
            f"{len(values)} voltages for {len(graph.lengths)} edges"
        )
    return [v % k for v in values]


def cyclic_cover(env: Environment, k: int, voltages):
    """Degree-k cyclic cover from voltages in Z_k.

    Builds the derived graph on vertex copies (v, i), keeps the component of
    the lifted base point (the full derived graph may fall apart when the
    voltages do not generate Z_k), pulls the sensor back, and returns the cover
    with its projection.  k = 1 returns an isomorphic copy.  Only the
    component is visited, so the cost is O(component * degree) for any k.
    """
    per_edge = _normalize_voltages(env, k, voltages)
    graph = env.graph
    head, star, base_vertices, base_keys = graph.dart_head, graph.star, graph.vertices, graph.dart_keys
    voltage = [x for value in per_edge for x in (value, -value)]

    # node (v, i) is the int v * k + i, so sorted nodes are in (v, i) order
    start = graph.vertex_index[env.initial] * k
    reached = {start}
    stack = [start]
    while stack:
        v, i = divmod(stack.pop(), k)
        for d in star[v]:
            node = head[d] * k + (i + voltage[d]) % k
            if node not in reached:
                reached.add(node)
                stack.append(node)
    nodes = sorted(reached)
    position = {node: p for p, node in enumerate(nodes)}
    names = [f"{base_vertices[node // k]}@{node % k}" for node in nodes]
    if len(set(map(str, base_vertices))) < len(base_vertices):
        _check_cover_names(names, nodes, base_vertices, k)

    # Z_k shifts copies freely, so every fiber of the component is a coset
    # of one subgroup: each base vertex has m copies, at positions v*m ..
    # v*m + m - 1, and each base edge e has m copies, edges e*m .. e*m + m - 1,
    # ordered like the copies of its stored tail.
    m = len(nodes) // len(base_vertices)
    cover_head = [0] * (2 * m * len(graph.lengths))
    cover_star = []
    for p, node in enumerate(nodes):
        v, i = divmod(node, k)
        row = []
        for d in star[v]:
            q = position[head[d] * k + (i + voltage[d]) % k]
            c = 2 * ((d >> 1) * m + (q if d & 1 else p) % m) + (d & 1)
            cover_head[c] = q
            row.append(c)
        cover_star.append(row)

    # copy c of base edge e keeps its ports and shares its length
    dart_keys, images = [], []
    for e in range(len(graph.lengths)):
        forward, backward = base_keys[2 * e], base_keys[2 * e + 1]
        pt, ph = forward[1], backward[1]
        for c in range(2 * e * m, 2 * (e + 1) * m, 2):
            dart_keys += ((names[cover_head[c + 1]], pt), (names[cover_head[c]], ph))
            images += (forward, backward)
    lengths = [length for length in graph.lengths for _ in range(m)]

    cover_graph = PortedGraph._derived(names, lengths, dart_keys, cover_head, cover_star)
    vertex_map = dict(zip(names, [base_vertices[node // k] for node in nodes]))
    projection = GraphMap(vertex_map, dict(zip(dart_keys, images)))
    sensor = pullback_sensor(projection, cover_graph, graph, env.sensor)
    cover = Environment._derived(cover_graph, names[position[start]], sensor, env.alphabet_width)
    return cover, projection


def _check_cover_names(names, nodes, base_vertices, k) -> None:
    """Reject two copies that print as one name: base vertices 1 and "1"
    both give 1@0."""
    seen = {}
    for name, node in zip(names, nodes):
        first = seen.setdefault(name, node)
        if first != node:
            raise ValidationError(
                f"cover vertex {name!r} would stand for both base vertices "
                f"{base_vertices[first // k]!r} and {base_vertices[node // k]!r}"
            )


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
    head, star, base_keys, base_lengths = graph.dart_head, graph.star, graph.dart_keys, graph.lengths
    # walk lengths in ticks of 1/scale
    scale = lcm(radius.denominator, graph.tick_denominator())
    limit = radius.numerator * (scale // radius.denominator)
    ticks = [x.numerator * (scale // x.denominator) for x in base_lengths]

    # per tree node: its name, its base vertex position and its darts in
    # port order; tree edge c has darts 2c (parent to child) and 2c + 1
    names = ["t0"]
    base_of = [graph.vertex_index[env.initial]]
    cover_star = [None]
    lengths, dart_keys, images, cover_head = [], [], [], []
    boundary = set()
    # (tree node, walk length, base dart and tree dart from the node back to
    # its parent)
    queue = deque([(0, 0, None, None)])
    while queue:
        node, dist, back, up = queue.popleft()
        row = []
        for port, d in enumerate(star[base_of[node]]):
            if d == back:
                row.append(up)
                continue
            child = len(names)
            names.append(f"t{child}")
            base_of.append(head[d])
            child_dist = dist + ticks[d >> 1]
            c = 2 * len(lengths)
            if child_dist < limit:
                queue.append((child, child_dist, d ^ 1, c + 1))
                child_port = base_keys[d ^ 1][1]
                cover_star.append(None)
            else:
                # a cut leaf keeps only its backward dart, which is port 0; it
                # is boundary when the base vertex has darts the tree dropped
                child_port = 0
                cover_star.append([c + 1])
                if len(star[head[d]]) > 1:
                    boundary.add(names[child])
            lengths.append(base_lengths[d >> 1])
            dart_keys += ((names[node], port), (names[child], child_port))
            images += (base_keys[d], base_keys[d ^ 1])
            cover_head += (child, node)
            row.append(c)
        cover_star[node] = row

    cover_graph = PortedGraph._derived(names, lengths, dart_keys, cover_head, cover_star)
    vertex_map = dict(zip(names, [graph.vertices[b] for b in base_of]))
    projection = GraphMap(vertex_map, dict(zip(dart_keys, images)))
    sensor = pullback_sensor(projection, cover_graph, graph, env.sensor)
    cover = Environment._derived(cover_graph, "t0", sensor, env.alphabet_width)
    return cover, projection, frozenset(boundary)
