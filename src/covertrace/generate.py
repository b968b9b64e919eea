"""Seeded random instances: signals, ported graphs, sensors, voltages.

All generators take an explicit random.Random so that test runs and CLI
invocations reproduce exactly from a seed.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Optional

from .graphs import PortedGraph
from .sensors import BeamSensor, LabelSensor
from .signals import HALT, ControlSignal


def random_signal(
    rng: random.Random,
    width: int,
    max_pieces: int = 6,
    max_denominator: int = 8,
) -> ControlSignal:
    """Random signal of ports below width and HALT, with rational piece
    durations in (0, 2].  Each symbol is drawn as rng.randrange(width + 1),
    the value width standing for HALT, so no list of the alphabet is built
    and the draws are those of rng.choice over ports 0..width-1 then HALT."""
    nums, dens, chosen = [], [], []
    for _ in range(rng.randint(1, max_pieces)):
        den = rng.randint(1, max_denominator)
        nums.append(rng.randint(1, 2 * den))
        dens.append(den)
        symbol = rng.randrange(width + 1)
        chosen.append(HALT if symbol == width else symbol)
    # the durations straight onto ticks of their lcm, as from_json reads them
    scale = lcm(*dens)
    return ControlSignal._from_ticks(scale, chosen, [n * (scale // d) for n, d in zip(nums, dens)])


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

    rows = [
        (vertices[a], vertices[b], port_of[(e, "tail")], port_of[(e, "head")], length(e))
        for e, (a, b) in enumerate(pairs)
    ]
    return PortedGraph(vertices, rows)


def random_beam_sensor(rng: random.Random, graph: PortedGraph, labels=("red", "green")) -> BeamSensor:
    marks = []
    for idx, length in enumerate(graph.lengths):
        for _ in range(rng.randint(0, 2)):
            den = rng.randint(2, 4)
            offset = length * Fraction(rng.randint(1, den - 1), den)
            if any(row[:2] == (idx, offset) for row in marks):
                continue
            marks.append((idx, offset, rng.choice(labels)))
    return BeamSensor(marks)


def random_label_sensor(rng: random.Random, graph: PortedGraph, labels=(0, 1, 2)) -> LabelSensor:
    return LabelSensor(
        {v: rng.choice(labels) for v in graph.vertices},
        tuple(rng.choice(labels) for _ in graph.lengths),
    )


def random_voltages(rng: random.Random, graph: PortedGraph, k: int) -> list:
    """One voltage per stored edge orientation, for cyclic covers of order k."""
    return [rng.randrange(k) for _ in graph.lengths]
