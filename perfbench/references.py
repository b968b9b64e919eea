"""Independent references for the benchmark's known answers.

Nothing here imports covertrace: environments are written directly in the
JSON wire format, covers are built by a separate derived-graph construction,
and every expected answer is computed by code that shares no logic with the
code under test.
"""
from __future__ import annotations

from fractions import Fraction

HALT = "halt"


# --- base environments in wire format -----------------------------------


def _edges(specs):
    return [
        {"tail": t, "head": h, "port_at_tail": pt, "port_at_head": ph, "length": [1, 1]}
        for t, h, pt, ph in specs
    ]


def _three_cycle(sensor):
    return {
        "vertices": ["x0", "x1", "x2"],
        "edges": _edges([("x0", "x1", 0, 1), ("x1", "x2", 0, 1), ("x2", "x0", 0, 1)]),
        "initial": "x0",
        "sensor": sensor,
        "alphabet_width": 2,
    }


def circle_base():
    """Unit 3-cycle read by a degree sensor: every vertex looks alike."""
    return _three_cycle({"type": "degree"})


def beams_base():
    """Unit 3-cycle with beam marks that tell all three vertices apart."""
    return _three_cycle(
        {
            "type": "beam",
            "marks": [
                {"edge": 0, "offset": [1, 2], "label": "green"},
                {"edge": 1, "offset": [1, 3], "label": "blue"},
                {"edge": 1, "offset": [2, 3], "label": "blue"},
            ],
        }
    )


def crossing_a():
    """Degree-2 start one unit away from a degree-4 crossing."""
    return {
        "vertices": ["s", "c"],
        "edges": _edges([("s", "c", 0, 0), ("s", "c", 1, 1), ("c", "c", 2, 3)]),
        "initial": "s",
        "sensor": {"type": "degree"},
        "alphabet_width": 4,
    }


def crossing_b():
    """Degree-2 start one unit away from degree-3 junctions."""
    return {
        "vertices": ["s", "d1", "d2"],
        "edges": _edges(
            [("s", "d1", 0, 0), ("s", "d2", 1, 0), ("d1", "d2", 1, 1), ("d1", "d2", 2, 2)]
        ),
        "initial": "s",
        "sensor": {"type": "degree"},
        "alphabet_width": 4,
    }


def kite_a():
    return {
        "vertices": ["g", "a", "b", "T"],
        "edges": _edges([("g", "a", 0, 0), ("a", "b", 1, 1), ("b", "g", 0, 2), ("g", "T", 1, 0)]),
        "initial": "g",
        "sensor": {
            "type": "label",
            "vertex_labels": [["g", 0], ["a", -1], ["b", -1], ["T", 1]],
            "edge_labels": [-1, -1, -1, 1],
        },
        "alphabet_width": 2,
    }


def kite_b():
    """kite_a with labels negated and g's two usable ports exchanged: equal
    for every discrete signal, told apart by off-grid switching."""
    return {
        "vertices": ["g", "a", "b", "T"],
        "edges": _edges([("g", "a", 1, 0), ("a", "b", 1, 1), ("b", "g", 0, 2), ("g", "T", 0, 0)]),
        "initial": "g",
        "sensor": {
            "type": "label",
            "vertex_labels": [["g", 0], ["a", 1], ["b", 1], ["T", -1]],
            "edge_labels": [1, 1, 1, -1],
        },
        "alphabet_width": 2,
    }


# Each base with the stored edges that lie on a cycle: a voltage on such an
# edge can connect a cyclic cover (a voltage on a bridge never does).
BASES = {
    "circle": (circle_base, (0, 1, 2)),
    "beams": (beams_base, (0, 1, 2)),
    "crossing_a": (crossing_a, (0, 1, 2)),
    "crossing_b": (crossing_b, (0, 1, 2, 3)),
    "kite": (kite_a, (0, 1, 2)),
}


def marked_cycle(n, names, edge_order):
    """n-cycle, port 0 forward and port 1 backward at every vertex, label 1
    on the start vertex c0 and 0 elsewhere.  names[i] is the name of c_i;
    edge_order permutes the stored edge list."""
    specs = [(names[i], names[(i + 1) % n], 0, 1) for i in range(n)]
    edges = _edges([specs[j] for j in edge_order])
    return {
        "vertices": sorted(names),
        "edges": edges,
        "initial": names[0],
        "sensor": {
            "type": "label",
            "vertex_labels": [[v, 1 if i == 0 else 0] for i, v in enumerate(names)],
            "edge_labels": [0] * n,
        },
        "alphabet_width": 2,
    }


def relabel(env, rename, edge_order):
    """Isomorphic copy: vertices renamed, stored edges permuted."""
    edges = [dict(env["edges"][j]) for j in edge_order]
    for e in edges:
        e["tail"], e["head"] = rename[e["tail"]], rename[e["head"]]
    sensor = dict(env["sensor"])
    if sensor["type"] == "label":
        sensor["vertex_labels"] = [[rename[v], x] for v, x in sensor["vertex_labels"]]
        sensor["edge_labels"] = [sensor["edge_labels"][j] for j in edge_order]
    elif sensor["type"] == "beam":
        where = {old: new for new, old in enumerate(edge_order)}
        sensor["marks"] = [dict(m, edge=where[m["edge"]]) for m in sensor["marks"]]
    return dict(
        env,
        vertices=[rename[v] for v in env["vertices"]],
        edges=edges,
        initial=rename[env["initial"]],
        sensor=sensor,
    )


# --- cyclic covers --------------------------------------------------------


def _darts(env):
    for e in env["edges"]:
        yield e["tail"], e["port_at_tail"]
        yield e["head"], e["port_at_head"]


def cover_name(v, i):
    return f"{v}@{i}"


def base_of(name):
    return name.rpartition("@")[0]


def cyclic_cover(base, k, voltages):
    """Derived graph of a Z_k voltage assignment (one voltage per stored
    edge, added along the stored orientation), with the sensor pulled back,
    and its projection onto the base.  Returns (cover, projection) in wire
    format, or None when the derived graph is not connected."""
    vertices = [cover_name(v, i) for v in base["vertices"] for i in range(k)]
    edges = []
    for e, volt in zip(base["edges"], voltages):
        for i in range(k):
            edges.append(
                dict(e, tail=cover_name(e["tail"], i), head=cover_name(e["head"], (i + volt) % k))
            )
    if not _connected(vertices, edges):
        return None
    sensor = base["sensor"]
    if sensor["type"] == "label":
        sensor = {
            "type": "label",
            "vertex_labels": [
                [cover_name(v, i), x] for v, x in sensor["vertex_labels"] for i in range(k)
            ],
            "edge_labels": [x for x in sensor["edge_labels"] for _ in range(k)],
        }
    elif sensor["type"] == "beam":
        sensor = {
            "type": "beam",
            "marks": [dict(m, edge=m["edge"] * k + i) for m in sensor["marks"] for i in range(k)],
        }
    cover = {
        "vertices": vertices,
        "edges": edges,
        "initial": cover_name(base["initial"], 0),
        "sensor": sensor,
        "alphabet_width": base["alphabet_width"],
    }
    projection = {
        "vertex_map": [[v, base_of(v)] for v in vertices],
        "dart_map": [[[v, p], [base_of(v), p]] for v, p in _darts(cover)],
    }
    return cover, projection


def _connected(vertices, edges):
    adjacent = {v: [] for v in vertices}
    for e in edges:
        adjacent[e["tail"]].append(e["head"])
        adjacent[e["head"]].append(e["tail"])
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for w in adjacent[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(vertices)


def connected_cover(rng, base, k, cycle_edges):
    """A connected cyclic cover with seeded voltages: draw one voltage per
    edge, then step one cycle edge's voltage until the derived graph is
    connected (some step makes that cycle's net voltage a unit mod k)."""
    voltages = [rng.randrange(k) for _ in base["edges"]]
    edge = rng.choice(cycle_edges)
    for _ in range(k):
        built = cyclic_cover(base, k, voltages)
        if built is not None:
            return built
        voltages[edge] = (voltages[edge] + 1) % k
    raise RuntimeError(f"no connected order-{k} cover found")


# --- signals --------------------------------------------------------------


def parse_signal(data):
    """Wire triples to (symbol, Fraction) pieces."""
    return [(s, Fraction(n, d)) for s, n, d in data]


def signal_duration(pieces):
    return sum((d for _, d in pieces), Fraction(0))


def distance(a, b):
    """Measure of disagreement over the common horizon plus the duration gap,
    by a two-pointer merge over the pieces."""
    i = j = 0
    left_a = a[0][1] if a else Fraction(0)
    left_b = b[0][1] if b else Fraction(0)
    total = Fraction(0)
    while i < len(a) and j < len(b):
        step = min(left_a, left_b)
        if a[i][0] != b[j][0]:
            total += step
        left_a -= step
        left_b -= step
        if left_a == 0:
            i += 1
            left_a = a[i][1] if i < len(a) else Fraction(0)
        if left_b == 0:
            j += 1
            left_b = b[j][1] if j < len(b) else Fraction(0)
    return total + abs(signal_duration(a) - signal_duration(b))


def canonical(pieces):
    """Drop zero-duration pieces and merge adjacent equal symbols."""
    out = []
    for symbol, dur in pieces:
        if dur == 0:
            continue
        if out and out[-1][0] == symbol:
            out[-1] = (symbol, out[-1][1] + dur)
        else:
            out.append((symbol, dur))
    return out


def window(pieces, start, stop):
    """The part of a signal on [start, stop), shifted to start at 0."""
    out, t = [], Fraction(0)
    for symbol, dur in pieces:
        lo, hi = max(t, start), min(t + dur, stop)
        if lo < hi:
            out.append((symbol, hi - lo))
        t += dur
    return out


def geodesic_point(a, b, s):
    """The point at parameter s that covertrace.signals.geodesic documents,
    with s a share of time, not of distance: with a the shorter signal
    (otherwise swap them and use 1 - s), b on [0, s|a|), a on [s|a|, |a|),
    then the first s-share of b's overhang past |a|."""
    if signal_duration(a) > signal_duration(b):
        a, b, s = b, a, 1 - s
    ta, tb = signal_duration(a), signal_duration(b)
    return canonical(
        window(b, 0, s * ta) + window(a, s * ta, ta) + window(b, ta, ta + s * (tb - ta))
    )


def random_signal(rng, n_pieces, width, max_den):
    """n_pieces wire triples with adjacent symbols distinct, so the signal is
    already canonical and keeps exactly n_pieces pieces."""
    symbols = list(range(width)) + [HALT]
    out = []
    prev = None
    for _ in range(n_pieces):
        symbol = rng.choice([s for s in symbols if s != prev])
        den = rng.randint(1, max_den)
        num = rng.randint(1, 2 * den)
        f = Fraction(num, den)
        out.append([symbol, f.numerator, f.denominator])
        prev = symbol
    return out


# --- universal cover ball -------------------------------------------------


def reduced_walk_counts(env, radius):
    """(vertices, boundary) of the radius ball of the universal cover:
    reduced walks from the base point, grown while shorter than the radius.
    Counted by dynamic programming over (last dart, length) classes, not by
    building the tree."""
    head = {}
    reverse = {}
    length = {}
    for e in env["edges"]:
        fwd, bwd = (e["tail"], e["port_at_tail"]), (e["head"], e["port_at_head"])
        head[fwd], head[bwd] = e["head"], e["tail"]
        reverse[fwd], reverse[bwd] = bwd, fwd
        length[fwd] = length[bwd] = Fraction(*e["length"])
    darts_at = {}
    for d in head:
        darts_at.setdefault(d[0], []).append(d)
    radius = Fraction(radius)

    nodes, boundary = 1, 0
    frontier = {(None, env["initial"], Fraction(0)): 1}
    while frontier:
        grown = {}
        for (back, v, dist), count in frontier.items():
            onward = [d for d in darts_at.get(v, []) if back is None or d != reverse[back]]
            if dist >= radius:
                if onward:
                    boundary += count
                continue
            for d in onward:
                key = (d, head[d], dist + length[d])
                grown[key] = grown.get(key, 0) + count
                nodes += count
        frontier = grown
    return nodes, boundary


# --- marked cycles ----------------------------------------------------------


def cycle_readings(n, pieces):
    """Vertex labels read at integer times while the unit pieces of a
    discrete signal drive a robot around a marked n-cycle from c0."""
    pos = 0
    readings = [1]
    for symbol, dur in pieces:
        if dur.denominator != 1:
            raise ValueError("witness is not a discrete signal")
        for _ in range(dur.numerator):
            if symbol == 0:
                pos = (pos + 1) % n
            elif symbol == 1:
                pos = (pos - 1) % n
            readings.append(1 if pos == 0 else 0)
    return readings


# --- sensor traces ----------------------------------------------------------


def _reading(env, where):
    """Sensor value at a point: ("V", v) or ("E", edge index, position from
    the stored tail); position None stands for a generic interior point."""
    sensor = env["sensor"]
    if sensor["type"] == "degree":
        if where[0] == "V":
            return sum(1 for d in _darts(env) if d[0] == where[1])
        return "edge"
    if sensor["type"] == "beam":
        if where[0] == "E":
            for mark in sensor["marks"]:
                if mark["edge"] == where[1] and Fraction(*mark["offset"]) == where[2]:
                    return mark["label"]
        return "blank"
    raise ValueError(f"no reference reading for {sensor['type']} sensors")


def trace(env, pieces):
    """Wire-format sensor trace of a signal, by direct simulation: maximal
    segments of equal almost-everywhere reading, and events at the instants
    whose reading differs from their segment, plus the final instant."""
    darts = {}
    for idx, e in enumerate(env["edges"]):
        length = Fraction(*e["length"])
        darts[(e["tail"], e["port_at_tail"])] = (idx, True, length)
        darts[(e["head"], e["port_at_head"])] = (idx, False, length)

    def point(vertex, dart, offset):
        if dart is None:
            return ("V", vertex)
        idx, forward, length = darts[dart]
        return ("E", idx, offset if forward else length - offset)

    def head(dart):
        idx, forward, _ = darts[dart]
        e = env["edges"][idx]
        return e["head"] if forward else e["tail"]

    legs = []  # (t0, t1, almost-everywhere reading)
    instants = {}
    vertex, dart, offset = env["initial"], None, Fraction(0)
    t = Fraction(0)
    instants[t] = _reading(env, point(vertex, dart, offset))
    for symbol, dur in pieces:
        left = dur
        while left > 0:
            if dart is None and symbol != HALT and (vertex, symbol) in darts:
                dart, offset = (vertex, symbol), Fraction(0)
            if symbol == HALT or dart is None:
                legs.append((t, t + left, _reading(env, point(vertex, dart, offset))))
                t += left
                left = 0
            else:
                idx, forward, length = darts[dart]
                step = min(left, length - offset)
                legs.append((t, t + step, _reading(env, ("E", idx, None))))
                for mark in env["sensor"].get("marks", ()):
                    pos = Fraction(*mark["offset"])
                    along = pos if forward else length - pos
                    if mark["edge"] == idx and offset < along < offset + step:
                        instants[t + along - offset] = mark["label"]
                offset += step
                t += step
                left -= step
                if offset == length:
                    vertex, dart, offset = head(dart), None, Fraction(0)
            instants[t] = _reading(env, point(vertex, dart, offset))

    segments = []
    for t0, t1, value in legs:
        if segments and segments[-1][2] == value:
            segments[-1][1] = t1
        else:
            segments.append([t0, t1, value])
    events = []
    for when in sorted(instants):
        inside = next((v for a, b, v in segments if a <= when < b), None)
        if when == t or instants[when] != inside:
            events.append((when, instants[when]))
    def pair(q):
        return [q.numerator, q.denominator]

    return {
        "duration": pair(t),
        "segments": [{"from": pair(a), "to": pair(b), "value": v} for a, b, v in segments],
        "events": [{"time": pair(w), "value": v} for w, v in events],
    }
