"""Seeded inputs and known answers for the three workloads.

build(workload, seed, directory, scale) returns the ops of one workload.
Every op is one covertrace command line with the exit code and checker its
output must satisfy.  The seed draws names, edge orders, voltages and signal
contents; the size schedules are fixed, so every seed asks for the same
amount of work of each kind.  scale shrinks the schedules for the
self-test.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checkers
import references as ref

WORKLOADS = ("bisim", "signals", "covers")


@dataclass
class Op:
    name: str
    command: str
    argv: list
    exit_code: int
    check: Callable


class InputFiles:
    """Input documents named for the ops that read them, written in one go."""

    def __init__(self, directory):
        self.directory = directory
        self.documents = {}

    def add(self, name, document):
        path = os.path.join(self.directory, f"{name}.json")
        self.documents[path] = document
        return path

    def write(self):
        os.makedirs(self.directory, exist_ok=True)
        for path, document in self.documents.items():
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(document, handle)


def spread(lo, hi, n):
    """n sizes from lo to hi in geometric steps, rounded to integers."""
    if n == 1:
        return [lo]
    return [round(lo * (hi / lo) ** (i / (n - 1))) for i in range(n)]


def renamed(rng, env):
    """A seeded isomorphic copy with fresh vertex names and shuffled edges,
    and the order: stored edge j of the copy is edge order[j] of env."""
    names = rng.sample(range(10 * len(env["vertices"]) + 10), len(env["vertices"]))
    rename = {v: f"q{j}" for v, j in zip(env["vertices"], names)}
    order = list(range(len(env["edges"])))
    rng.shuffle(order)
    return ref.relabel(env, rename, order), order


def _sized(count, scale):
    return max(2, round(count * scale))


# --- bisim ----------------------------------------------------------------


def bisim_ops(rng, files, scale):
    ops = []
    families = (
        ("circle", lambda u, w: True),  # a degree sensor sees one class
        ("beams", lambda u, w: u == w),  # port 0 reads different marks
    )
    for family, same_class in families:
        make, cycle_edges = ref.BASES[family]
        for i, k1 in enumerate(spread(2, 12, _sized(20, scale))):
            k2 = k1 + 1 + i % 3
            a, _ = ref.connected_cover(rng, make(), k1, cycle_edges)
            b, _ = ref.connected_cover(rng, make(), k2, cycle_edges)
            name = f"bisim.{family}.{i}.{k1}-{k2}"
            ops.append(
                Op(
                    name,
                    "bisim",
                    ["bisim", files.add(f"{name}.a", a), files.add(f"{name}.b", b)],
                    0,
                    checkers.related_bisim(
                        a["vertices"], b["vertices"], (a["initial"], b["initial"]), same_class
                    ),
                )
            )

    for n in range(4, 4 + _sized(30, scale)):
        pair = []
        for m in (n, n + 1):
            names = [f"v{j}" for j in rng.sample(range(4 * m), m)]
            order = list(range(m))
            rng.shuffle(order)
            pair.append(ref.marked_cycle(m, names, order))
        name = f"bisim.cycles.{n}"
        ops.append(
            Op(
                name,
                "bisim",
                ["bisim", files.add(f"{name}.a", pair[0]), files.add(f"{name}.b", pair[1])],
                1,
                checkers.distinguished_bisim(n, cycle=n),
            )
        )

    make_a, edges_a = ref.BASES["crossing_a"]
    make_b, edges_b = ref.BASES["crossing_b"]
    for i, k in enumerate(spread(1, 20, _sized(50, scale))):
        kb = max(1, k + i % 3 - 1)
        a, _ = ref.connected_cover(rng, make_a(), k, edges_a)
        b, _ = ref.connected_cover(rng, make_b(), kb, edges_b)
        name = f"bisim.crossing.{i}.{k}-{kb}"
        ops.append(
            Op(
                name,
                "bisim",
                ["bisim", files.add(f"{name}.a", a), files.add(f"{name}.b", b)],
                1,
                checkers.distinguished_bisim(1),
            )
        )
    return ops


# --- signals --------------------------------------------------------------


def signals_ops(rng, files, scale):
    ops = []
    for i, n in enumerate(spread(15, 70, _sized(30, scale))):
        a = ref.random_signal(rng, n, 3, 8)
        b = ref.random_signal(rng, n, 3, 8)
        name = f"signals.metric.{i}.{n}"
        ops.append(
            Op(
                name,
                "metric",
                ["metric", files.add(f"{name}.a", a), files.add(f"{name}.b", b)],
                0,
                checkers.metric(ref.parse_signal(a), ref.parse_signal(b)),
            )
        )

    for i, n in enumerate(spread(40, 200, _sized(30, scale))):
        a = ref.random_signal(rng, n, 3, 8)
        b = ref.random_signal(rng, n + rng.randint(-n // 4, n // 4), 3, 8)
        q = rng.randint(2, 9)
        s = Fraction(rng.randint(1, q - 1), q)
        name = f"signals.geodesic.{i}.{n}"
        ops.append(
            Op(
                name,
                "geodesic",
                ["geodesic", files.add(f"{name}.a", a), files.add(f"{name}.b", b), "--at", str(s)],
                0,
                checkers.geodesic(ref.parse_signal(a), ref.parse_signal(b), s),
            )
        )

    for i, n in enumerate(spread(40, 200, _sized(20, scale))):
        family = ("circle", "beams")[i % 2]
        make, cycle_edges = ref.BASES[family]
        cover, _ = ref.connected_cover(rng, make(), 2 + i % 5, cycle_edges)
        signal = ref.random_signal(rng, n, 2, 8)
        name = f"signals.trace.{family}.{i}.{n}"
        signal_path = files.add(f"{name}.signal", signal)
        check = checkers.trace(make(), ref.parse_signal(signal))
        for where, env in (("base", make()), ("cover", cover)):
            ops.append(
                Op(
                    f"{name}.{where}",
                    "trace",
                    ["trace", files.add(f"{name}.{where}", env), signal_path],
                    0,
                    check,
                )
            )

    make, cycle_edges = ref.BASES["beams"]
    for i, max_len in enumerate(spread(3, 7, _sized(10, scale))):
        k1 = 2 + i % 3
        k2 = k1 + 1 + i % 2
        a, _ = ref.connected_cover(rng, make(), k1, cycle_edges)
        b, _ = ref.connected_cover(rng, make(), k2, cycle_edges)
        name = f"signals.equiv.beams.{i}.{max_len}"
        ops.append(
            Op(
                name,
                "equiv",
                [
                    "equiv", files.add(f"{name}.a", a), files.add(f"{name}.b", b),
                    "--max-len", str(max_len), "--random", "15", "--seed", str(rng.randrange(10**6)),
                ],
                0,
                checkers.equiv("related"),
            )
        )

    # The kite pair agrees on every discrete signal, so each kite op runs the
    # whole discrete enumeration and then needs a random signal that switches
    # off the integer grid; the budget of 200 makes missing one negligible.
    for i, max_len in enumerate(spread(6, 20, _sized(10, scale))):
        name = f"signals.equiv.kite.{i}.{max_len}"
        ops.append(
            Op(
                name,
                "equiv",
                [
                    "equiv",
                    files.add(f"{name}.a", renamed(rng, ref.kite_a())[0]),
                    files.add(f"{name}.b", renamed(rng, ref.kite_b())[0]),
                    "--max-len", str(max_len), "--random", "200", "--seed", str(rng.randrange(10**6)),
                ],
                1,
                checkers.equiv("distinguished"),
            )
        )
    return ops


# --- covers ---------------------------------------------------------------


def covers_ops(rng, files, scale):
    ops = []
    families = ("circle", "crossing_a", "crossing_b", "kite", "beams")
    for i, k in enumerate(spread(15, 150, _sized(40, scale))):
        family = families[i % len(families)]
        make, cycle_edges = ref.BASES[family]
        base, order = renamed(rng, make())
        lifted = rng.choice(cycle_edges)
        voltages = [1 if j == lifted else 0 for j in order]
        name = f"covers.gen-cyclic.{family}.{i}.{k}"
        ops.append(
            Op(
                name,
                "gen-cyclic",
                ["gen-cyclic", files.add(name, base), str(k), "--voltages", ",".join(map(str, voltages))],
                0,
                checkers.gen_cyclic(k, base),
            )
        )

    radii = [Fraction(4) + Fraction(j, 3) for j in range(10)]
    families = ("crossing_a", "crossing_b", "kite", "circle")
    count = _sized(40, scale)
    for i in range(count):
        family = families[i % len(families)]
        radius = radii[(i // len(families)) % len(radii)]
        base, _ = renamed(rng, ref.BASES[family][0]())
        name = f"covers.gen-universal.{family}.{i}"
        ops.append(
            Op(
                name,
                "gen-universal",
                ["gen-universal", files.add(name, base), str(radius)],
                0,
                checkers.gen_universal(base, radius),
            )
        )

    families = ("circle", "crossing_a", "crossing_b", "kite", "beams")
    for i, k in enumerate(spread(15, 150, _sized(40, scale))):
        family = families[i % len(families)]
        make, cycle_edges = ref.BASES[family]
        base = make()
        cover, projection = ref.connected_cover(rng, base, k, cycle_edges)
        positive = i % 4 != 3
        if not positive:
            base["initial"] = rng.choice([v for v in base["vertices"] if v != base["initial"]])
        name = f"covers.check-cover.{family}.{i}.{k}" + ("" if positive else ".moved")
        ops.append(
            Op(
                name,
                "check-cover",
                [
                    "check-cover",
                    files.add(f"{name}.map", projection),
                    files.add(f"{name}.cover", cover),
                    files.add(f"{name}.base", base),
                ],
                0 if positive else 1,
                checkers.check_cover(positive),
            )
        )
    return ops


BUILDERS = {"bisim": bisim_ops, "signals": signals_ops, "covers": covers_ops}


def build(workload, seed, directory, scale=1.0):
    """The ops of one workload and the input files they read (not yet
    written)."""
    files = InputFiles(directory)
    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](rng, files, scale)
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise RuntimeError(f"duplicate op names in workload {workload}")
    return ops, files
