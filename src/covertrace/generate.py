"""Seeded random instances: signals and cover voltages.

All generators take an explicit random.Random so that test runs and CLI
invocations reproduce exactly from a seed.
"""
from __future__ import annotations

import random
from math import lcm

from .graphs import PortedGraph
from .signals import HALT, ControlSignal

# Every piece duration is p/q with q at most this; ROADMAP item 4's 1/840
# grid (840 = lcm(1..8)) relies on it, as it holds every random signal.
MAX_DENOMINATOR = 8


def random_signal(rng: random.Random, width: int, max_pieces: int = 6) -> ControlSignal:
    """Random signal of ports below width and HALT, with rational piece
    durations in (0, 2] of denominators at most MAX_DENOMINATOR.  Each
    symbol is drawn as rng.randrange(width + 1), the value width standing
    for HALT, so no list of the alphabet is built and the draws are those
    of rng.choice over ports 0..width-1 then HALT."""
    nums, dens, chosen = [], [], []
    for _ in range(rng.randint(1, max_pieces)):
        den = rng.randint(1, MAX_DENOMINATOR)
        nums.append(rng.randint(1, 2 * den))
        dens.append(den)
        symbol = rng.randrange(width + 1)
        chosen.append(HALT if symbol == width else symbol)
    # the durations straight onto ticks of their lcm, as from_json reads them
    scale = lcm(*dens)
    return ControlSignal._from_ticks(scale, chosen, [n * (scale // d) for n, d in zip(nums, dens)])


def random_voltages(rng: random.Random, graph: PortedGraph, k: int) -> list:
    """One voltage per stored edge orientation, for cyclic covers of order k."""
    return [rng.randrange(k) for _ in graph.lengths]
