"""Sensor models: what the robot reads at each state.

Four families: degree readout, vertex/edge labellings, beam marks strictly
inside edges, and a total relabelling filter over any of the others.  Sensor
values must be JSON scalars so traces serialize losslessly.

Every sensor is read one way, so no other module dispatches on the sensor
type: columns(graph), on a graph the sensor validates, returns (vertex,
interior, marks).  vertex[i] is the reading at vertex position i,
interior[e] the reading inside edge e away from its beam marks, and marks
maps each edge that carries beam marks, and no other edge, to its
(position from the stored tail, label) pairs in the order given.  Inside
an edge a sensor reads the label of the mark at that point if there is
one, else the interior reading.  The lists are new; the marks dict and its
tuples may be the sensor's own and are read only.  The environment's
reading table, a filter's validation and the DOT export read the columns.

pullback(vertex_image, edge_image) is the sensor read through a graph map,
h' = h after f: vertex_image sends each source vertex to its image, and
edge_image gives, for each source edge in order, (image edge index,
whether the stored orientations agree, source edge length).  A vertex
renaming is the pullback along the inverse renaming.  A beam sensor is
built from its marks as plain (edge, offset, label) rows.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ValidationError
from .graphs import PortedGraph, sorted_by_name, wire_pairs
from .rationals import is_rational, shared_from_wire

EDGE = "edge"
BLANK = "blank"


def _check_scalar(value):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValidationError(f"sensor values must be ints or strings, got {value!r}")
    return value


@dataclass(frozen=True)
class DegreeSensor:
    """Reads deg(v) at a vertex and the marker EDGE strictly inside edges."""

    def validate(self, graph: PortedGraph) -> None:
        pass

    def columns(self, graph: PortedGraph):
        return list(map(len, graph.star)), [EDGE] * len(graph.lengths), {}

    def pullback(self, vertex_image: dict, edge_image: list) -> "DegreeSensor":
        return self

    def kind(self) -> str:
        return "degree"

    def to_json(self) -> dict:
        return {"type": "degree"}


@dataclass(frozen=True, init=False)
class LabelSensor:
    """Reads a fixed label at each vertex and along each edge interior.

    edge_labels[e] is the label inside edge e, in the graph's edge order.
    """

    vertex_labels: tuple
    edge_labels: tuple

    def __init__(self, vertex_labels, edge_labels):
        items = vertex_labels.items() if isinstance(vertex_labels, dict) else vertex_labels
        items = sorted_by_name((v, label) for v, label in items)
        object.__setattr__(self, "vertex_labels", tuple(items))
        object.__setattr__(self, "edge_labels", tuple(edge_labels))
        object.__setattr__(self, "_vertex_table", dict(items))

    def validate(self, graph: PortedGraph) -> None:
        table = self._vertex_table
        missing = [v for v in graph.vertices if v not in table]
        if missing:
            raise ValidationError(f"label sensor missing vertices {missing!r}")
        known = set(graph.vertices)
        extra = [v for v in table if v not in known]
        if extra:
            raise ValidationError(f"label sensor labels unknown vertices {extra!r}")
        if len(self.edge_labels) != len(graph.lengths):
            raise ValidationError(
                f"label sensor has {len(self.edge_labels)} edge labels "
                f"for {len(graph.lengths)} edges"
            )
        for value in list(table.values()) + list(self.edge_labels):
            if type(value) is not str and type(value) is not int:
                _check_scalar(value)

    def columns(self, graph: PortedGraph):
        return list(map(self._vertex_table.__getitem__, graph.vertices)), list(self.edge_labels), {}

    def pullback(self, vertex_image: dict, edge_image: list) -> "LabelSensor":
        table = self._vertex_table
        return LabelSensor(
            {v: table[w] for v, w in vertex_image.items()},
            [self.edge_labels[j] for j, _, _ in edge_image],
        )

    def kind(self) -> str:
        return "label"

    def to_json(self) -> dict:
        return {
            "type": "label",
            "vertex_labels": [[v, label] for v, label in self.vertex_labels],
            "edge_labels": list(self.edge_labels),
        }


@dataclass(frozen=True, init=False, eq=False, repr=False)
class BeamSensor:
    """Reads BLANK everywhere except exactly on a beam mark, where it reads the
    mark's label.  Crossing a mark mid-flight shows up as a trace event.

    A beam mark is an (edge, offset, label) row: a beam through the interior
    of the edge with that index, offset from its stored tail.  The sensor
    keeps its rows in the order given, which equality, hash, validate,
    to_json and __repr__ read, and a per-edge table of (offset, label) pairs
    in that order, which columns and pullback read.  A sensor read from JSON
    shares one offset Fraction per distinct wire pair.
    """

    def __init__(self, rows):
        """The sensor with these (edge, offset, label) tuples, each edge an
        int and each offset an int or a Fraction (bools are neither);
        validate checks them against a graph."""
        rows = tuple(rows)
        by_edge = {}
        for row in rows:
            if type(row) is not tuple or len(row) != 3 or isinstance(row[0], bool) or not isinstance(row[0], int):
                raise ValidationError(f"bad beam mark: {row!r}")
            edge, offset, label = row
            if type(offset) is not Fraction and not is_rational(offset):
                raise ValidationError(f"beam mark offset {offset!r} is not an int or a Fraction")
            by_edge.setdefault(edge, []).append((offset, label))
        self.__dict__.update(_rows=rows, _by_edge={e: tuple(ms) for e, ms in by_edge.items()})

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"BeamSensor({self._rows!r})"

    def validate(self, graph: PortedGraph) -> None:
        # offsets and lengths are compared as numerators and denominators,
        # and a point is keyed by them: both are in lowest terms
        lengths = graph.lengths
        count = len(lengths)
        seen = set()
        for edge, offset, label in self._rows:
            if not 0 <= edge < count:
                raise ValidationError(f"beam mark on unknown edge {edge}")
            length = lengths[edge]
            n, q = offset.numerator, offset.denominator
            if n <= 0 or n * length.denominator >= length.numerator * q:
                raise ValidationError(f"beam mark offset {offset} not strictly inside edge {edge}")
            key = (edge, n, q)
            if key in seen:
                raise ValidationError(f"two beam marks at one point: edge {edge} offset {offset}")
            seen.add(key)
            if type(label) is not str and type(label) is not int:
                _check_scalar(label)

    def pullback(self, vertex_image: dict, edge_image: list) -> "BeamSensor":
        """Beam marks reappear once on every preimage edge."""
        by_edge = self._by_edge
        rows = []
        for idx, (j, same_orientation, length) in enumerate(edge_image):
            for offset, label in by_edge.get(j, ()):
                rows.append((idx, offset if same_orientation else length - offset, label))
        return BeamSensor(rows)

    def columns(self, graph: PortedGraph):
        return [BLANK] * len(graph.vertices), [BLANK] * len(graph.lengths), self._by_edge

    def kind(self) -> str:
        return "beam"

    def to_json(self) -> dict:
        return {
            "type": "beam",
            "marks": [
                {"edge": edge, "offset": [offset.numerator, offset.denominator], "label": label}
                for edge, offset, label in self._rows
            ],
        }


@dataclass(frozen=True, init=False)
class FilteredSensor:
    """A base sensor post-composed with a total relabelling of its outputs."""

    base: object
    relabel: tuple

    def __init__(self, base, relabel):
        items = relabel.items() if isinstance(relabel, dict) else relabel
        items = sorted(((src, dst) for src, dst in items), key=lambda kv: str(kv))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "relabel", tuple(items))
        object.__setattr__(self, "_table", dict(items))

    def validate(self, graph: PortedGraph) -> None:
        # a source equal to a reading but of another type (2.0, True) would
        # pass as a dict key and then be written to the wire
        for src, _ in self.relabel:
            _check_scalar(src)
        base, table = self.base, self._table
        base.validate(graph)
        # every reading the base gives here: at vertices in graph order, inside
        # edges, on marks in edge order; listed in order of first appearance,
        # so the message does not depend on the hash seed
        readings, interior, marks = base.columns(graph)
        readings += interior
        readings += [label for e in sorted(marks) for _, label in marks[e]]
        missing = [v for v in dict.fromkeys(readings) if v not in table]
        if missing:
            raise ValidationError(f"relabelling not total, missing {missing!r}")
        for value in table.values():
            _check_scalar(value)

    def columns(self, graph: PortedGraph):
        read = self._table.__getitem__
        vertex, interior, marks = self.base.columns(graph)
        return (
            list(map(read, vertex)),
            list(map(read, interior)),
            {e: [(pos, read(label)) for pos, label in ms] for e, ms in marks.items()},
        )

    def pullback(self, vertex_image: dict, edge_image: list) -> "FilteredSensor":
        return FilteredSensor(self.base.pullback(vertex_image, edge_image), self.relabel)

    def kind(self) -> str:
        return self.base.kind()

    def to_json(self) -> dict:
        return {
            "type": "filtered",
            "base": self.base.to_json(),
            "relabel": [[src, dst] for src, dst in self.relabel],
        }


SensorSpec = Union[DegreeSensor, LabelSensor, BeamSensor, FilteredSensor]


def sensor_from_json(data) -> SensorSpec:
    if not isinstance(data, dict) or "type" not in data:
        raise ValidationError(f"bad sensor JSON: {data!r}")
    kind = data["type"]
    if kind == "degree":
        return DegreeSensor()
    if kind == "label":
        try:
            raw, edge_labels = data["vertex_labels"], data["edge_labels"]
            if type(edge_labels) is not list:
                raise TypeError("edge_labels is not an array")
            return LabelSensor(raw if isinstance(raw, dict) else wire_pairs(raw), edge_labels)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad label sensor JSON: {data!r}") from exc
    if kind == "beam":
        # every mark is read, with the checks of from_wire, before the
        # constructor refuses the first edge that is not an int
        rows = []
        offsets = {}
        try:
            for raw in data.get("marks", []):
                rows.append((raw["edge"], shared_from_wire(raw["offset"], offsets), raw["label"]))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad beam sensor JSON: {data!r}") from exc
        return BeamSensor(rows)
    if kind == "filtered":
        try:
            base = sensor_from_json(data["base"])
            pairs = [(_check_scalar(src), dst) for src, dst in wire_pairs(data["relabel"])]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad filtered sensor JSON: {data!r}") from exc
        return FilteredSensor(base, pairs)
    raise ValidationError(f"unknown sensor type {kind!r}")
