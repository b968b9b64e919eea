"""Built-in example environment pairs.

Four pairs, each probing a different face of indistinguishability:

* circle: a 3-cycle and its connected double cover, equivalent by lifting.
* crossing: two junction graphs telling themselves apart by the degree of the
  first vertex they bump into.
* beams: two cyclic covers (orders 2 and 3) of one beam-marked 3-cycle;
  equivalent, yet no structure map exists in either direction because the
  cover sizes do not divide each other.
* kite: a labelled triangle with a pendant edge versus a copy with the labels
  negated and the junction's usable ports swapped; equivalent for every
  discrete signal, with only a many-to-many relation as witness, but told
  apart by a signal that switches symbols off the integer grid.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Callable, Dict, Tuple

from .covering import cyclic_cover
from .dot import environment_to_dot
from .environments import Environment
from .graphs import PortedGraph
from .sensors import BeamSensor, DegreeSensor, LabelSensor


def _three_cycle() -> PortedGraph:
    return PortedGraph(
        ["x0", "x1", "x2"],
        [("x0", "x1", 0, 1, 1), ("x1", "x2", 0, 1, 1), ("x2", "x0", 0, 1, 1)],
    )


def circle_pair() -> Tuple[Environment, Environment]:
    """3-cycle with a degree sensor and its connected double cover."""
    base = Environment(_three_cycle(), "x0", DegreeSensor(), 2)
    cover, _ = cyclic_cover(base, 2, [0, 0, 1])
    return base, cover


def crossing_pair() -> Tuple[Environment, Environment]:
    """A 4-way crossing behind a corridor versus a 3-way one.

    Both start at a degree-2 vertex; one unit of Port 0 reaches a degree-4
    vertex in the first environment and a degree-3 vertex in the second.
    """
    four = PortedGraph(
        ["s", "c"],
        [("s", "c", 0, 0, 1), ("s", "c", 1, 1, 1), ("c", "c", 2, 3, 1)],
    )
    three = PortedGraph(
        ["s", "d1", "d2"],
        [("s", "d1", 0, 0, 1), ("s", "d2", 1, 0, 1), ("d1", "d2", 1, 1, 1), ("d1", "d2", 2, 2, 1)],
    )
    return (
        Environment(four, "s", DegreeSensor(), 4),
        Environment(three, "s", DegreeSensor(), 4),
    )


def beams_pair() -> Tuple[Environment, Environment]:
    """Cyclic covers of orders 2 and 3 of a 3-cycle carrying beam marks."""
    marks = [(0, Fraction(1, 2), "green"), (1, Fraction(1, 3), "blue"), (1, Fraction(2, 3), "blue")]
    base = Environment(_three_cycle(), "x0", BeamSensor(marks), 2)
    double, _ = cyclic_cover(base, 2, [0, 0, 1])
    triple, _ = cyclic_cover(base, 3, [0, 0, 1])
    return double, triple


def kite_pair() -> Tuple[Environment, Environment]:
    """Labelled triangle g-a-b with a pendant tip T at g, against the copy
    with all labels negated and g's two usable ports exchanged."""
    first = PortedGraph(
        ["g", "a", "b", "T"],
        [("g", "a", 0, 0, 1), ("a", "b", 1, 1, 1), ("b", "g", 0, 2, 1), ("g", "T", 1, 0, 1)],
    )
    second = PortedGraph(
        ["g", "a", "b", "T"],
        [("g", "a", 1, 0, 1), ("a", "b", 1, 1, 1), ("b", "g", 0, 2, 1), ("g", "T", 0, 0, 1)],
    )
    labels_first = LabelSensor({"g": 0, "a": -1, "b": -1, "T": 1}, (-1, -1, -1, 1))
    labels_second = LabelSensor({"g": 0, "a": 1, "b": 1, "T": -1}, (1, 1, 1, -1))
    return (
        Environment(first, "g", labels_first, 2),
        Environment(second, "g", labels_second, 2),
    )


GALLERY: Dict[str, Callable[[], Tuple[Environment, Environment]]] = {
    "circle": circle_pair,
    "crossing": crossing_pair,
    "beams": beams_pair,
    "kite": kite_pair,
}


def write_gallery(outdir: str, dot: bool = True) -> list:
    """Write every pair as <name>_a.json / <name>_b.json (plus .dot files when
    requested) and return the list of paths written."""
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name in sorted(GALLERY):
        pair = GALLERY[name]()
        for env, tag in zip(pair, ("a", "b")):
            path = os.path.join(outdir, f"{name}_{tag}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(env.to_json(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            written.append(path)
            if dot:
                dot_path = os.path.join(outdir, f"{name}_{tag}.dot")
                with open(dot_path, "w", encoding="utf-8") as handle:
                    handle.write(environment_to_dot(env, name=f"{name}_{tag}"))
                written.append(dot_path)
    return written
