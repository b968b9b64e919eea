"""Seeded random instances: signals, ported graphs, environments, voltages.

All generators take an explicit random.Random so that test runs and CLI
invocations reproduce exactly from a seed.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .environments import Environment
from .graphs import Edge, PortedGraph, VertexState
from .sensors import BeamMark, BeamSensor, DegreeSensor, LabelSensor
from .signals import HALT, ControlSignal


def random_signal(
    rng: random.Random,
    width: int,
    max_pieces: int = 6,
    max_denominator: int = 8,
    allow_halt: bool = True,
) -> ControlSignal:
    """Random signal with rational piece durations in (0, 2]."""
    symbols = list(range(width)) + ([HALT] if allow_halt else [])
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        den = rng.randint(1, max_denominator)
        num = rng.randint(1, 2 * den)
        pieces.append((rng.choice(symbols), Fraction(num, den)))
    return ControlSignal(pieces)


def random_ported_graph(
    rng: random.Random,
    n_min: int = 2,
    n_max: int = 5,
    extra_min: int = 0,
    extra_max: int = 2,
    unit_lengths: bool = True,
    max_denominator: int = 4,
    max_degree: Optional[int] = None,
) -> PortedGraph:
    """Random connected ported graph: a spanning tree plus extra edges, which
    may be loops or parallels.  Ports are shuffled per vertex.  When
    max_degree is given no vertex exceeds it (extras that would are skipped)."""
    n = rng.randint(n_min, n_max)
    vertices = [f"v{i}" for i in range(n)]
    degree = [0] * n
    pairs = []

    def room(i: int, amount: int = 1) -> bool:
        return max_degree is None or degree[i] + amount <= max_degree

    for i in range(1, n):
        candidates = [j for j in range(i) if room(j)]
        j = rng.choice(candidates)
        pairs.append((j, i))
        degree[j] += 1
        degree[i] += 1
    for _ in range(rng.randint(extra_min, extra_max)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            if not room(a, 2):
                continue
            degree[a] += 2
        else:
            if not (room(a) and room(b)):
                continue
            degree[a] += 1
            degree[b] += 1
        pairs.append((a, b))

    slots = {i: [] for i in range(n)}
    for e, (a, b) in enumerate(pairs):
        slots[a].append((e, "tail"))
        slots[b].append((e, "head"))
    port_of = {}
    for i in range(n):
        rng.shuffle(slots[i])
        for p, key in enumerate(slots[i]):
            port_of[key] = p

    def length(e: int) -> Fraction:
        if unit_lengths:
            return Fraction(1)
        den = rng.randint(1, max_denominator)
        return Fraction(rng.randint(1, 2 * den), den)

    edges = [
        Edge(vertices[a], vertices[b], port_of[(e, "tail")], port_of[(e, "head")], length(e))
        for e, (a, b) in enumerate(pairs)
    ]
    return PortedGraph(vertices, edges)


def random_beam_sensor(rng: random.Random, graph: PortedGraph, labels=("red", "green")) -> BeamSensor:
    marks = []
    for idx, e in enumerate(graph.edges):
        for _ in range(rng.randint(0, 2)):
            den = rng.randint(2, 4)
            offset = e.length * Fraction(rng.randint(1, den - 1), den)
            if any(m.edge == idx and m.offset == offset for m in marks):
                continue
            marks.append(BeamMark(idx, offset, rng.choice(labels)))
    return BeamSensor(tuple(marks))


def random_label_sensor(rng: random.Random, graph: PortedGraph, labels=(0, 1, 2)) -> LabelSensor:
    return LabelSensor(
        {v: rng.choice(labels) for v in graph.vertices},
        tuple(rng.choice(labels) for _ in graph.edges),
    )


def random_unit_environment(
    rng: random.Random,
    width: int = 3,
    max_edges: int = 3,
    kind: str = "degree",
) -> Environment:
    """Random unit-length environment with at most 2*max_edges darts, degree
    capped by width, suitable for bisimulation pools."""
    n = rng.randint(1, min(4, max_edges + 1))
    graph = random_ported_graph(
        rng,
        n_min=n,
        n_max=n,
        extra_min=0,
        extra_max=max(0, max_edges - (n - 1)),
        unit_lengths=True,
        max_degree=width,
    )
    if kind == "degree":
        sensor = DegreeSensor()
    elif kind == "label":
        sensor = random_label_sensor(rng, graph)
    elif kind == "beam":
        sensor = random_beam_sensor(rng, graph)
    else:
        raise ValueError(f"unknown sensor kind {kind!r}")
    initial = rng.choice(graph.vertices)
    return Environment(graph, initial, sensor, width)


def random_state(rng: random.Random, graph: PortedGraph):
    """Random point: a vertex, or a strictly interior edge point with a
    rational offset."""
    if not graph.edges or rng.random() < 0.4:
        return VertexState(rng.choice(graph.vertices))
    idx = rng.randrange(len(graph.edges))
    e = graph.edges[idx]
    den = rng.randint(2, 6)
    offset = e.length * Fraction(rng.randint(1, den - 1), den)
    return graph.state_on(graph.forward_dart(idx), offset)


def random_voltages(rng: random.Random, graph: PortedGraph, k: int) -> list:
    """One voltage per stored edge orientation, for cyclic covers of order k."""
    return [rng.randrange(k) for _ in graph.edges]
