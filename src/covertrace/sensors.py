"""Sensor models: what the robot reads at each state.

Four families: degree readout, vertex/edge labellings, beam marks strictly
inside edges, and a total relabelling filter over any of the others.  Sensor
values must be JSON scalars so traces serialize losslessly.

Every sensor answers the same protocol, so no other module dispatches on the
sensor type: value and interior_value read it, marks_on lists its beam marks
inside an edge, pullback pulls it back along a graph map and rename moves it
along a vertex renaming.  Inside an edge, value is the label of the mark at
that point if there is one, else interior_value; traces tabulate readings
on that rule.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ValidationError
from .graphs import EdgeState, GraphState, PortedGraph, VertexState
from .rationals import from_wire, to_pair

EDGE = "edge"
BLANK = "blank"


def _check_scalar(value):
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValidationError(f"sensor values must be ints or strings, got {value!r}")
    return value


class _Sensor:
    """Protocol defaults for a sensor without beam marks or vertex data."""

    def marks_on(self, edge_index: int):
        """Instant-readout points inside the edge as (position from stored
        tail, output value) pairs."""
        return ()

    def pullback(self, vertex_image: dict, edge_image: list) -> "SensorSpec":
        """The sensor read through a graph map, h' = h after f.  vertex_image
        sends each source vertex to its image; edge_image gives, for each
        source edge in order, (image edge index, whether the stored
        orientations agree, source edge length)."""
        return self

    def rename(self, renaming: dict) -> "SensorSpec":
        """The same sensor with its vertex data moved along a vertex renaming."""
        return self


@dataclass(frozen=True)
class DegreeSensor(_Sensor):
    """Reads deg(v) at a vertex and the marker EDGE strictly inside edges."""

    def validate(self, graph: PortedGraph) -> None:
        pass

    def value(self, graph: PortedGraph, state: GraphState):
        if isinstance(state, VertexState):
            return graph.degree(state.vertex)
        return EDGE

    def interior_value(self, graph: PortedGraph, edge_index: int):
        return EDGE

    def kind(self) -> str:
        return "degree"

    def to_json(self) -> dict:
        return {"type": "degree"}


@dataclass(frozen=True, init=False)
class LabelSensor(_Sensor):
    """Reads a fixed label at each vertex and along each edge interior.

    edge_labels is ordered like graph.edges.
    """

    vertex_labels: tuple
    edge_labels: tuple

    def __init__(self, vertex_labels, edge_labels):
        items = vertex_labels.items() if isinstance(vertex_labels, dict) else vertex_labels
        items = sorted(((v, label) for v, label in items), key=lambda kv: str(kv[0]))
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
        if len(self.edge_labels) != len(graph.edges):
            raise ValidationError(
                f"label sensor has {len(self.edge_labels)} edge labels "
                f"for {len(graph.edges)} edges"
            )
        for value in list(table.values()) + list(self.edge_labels):
            _check_scalar(value)

    def value(self, graph: PortedGraph, state: GraphState):
        if isinstance(state, VertexState):
            return self._vertex_table[state.vertex]
        return self.edge_labels[graph.edge_of(state.dart)]

    def interior_value(self, graph: PortedGraph, edge_index: int):
        return self.edge_labels[edge_index]

    def pullback(self, vertex_image: dict, edge_image: list) -> "LabelSensor":
        table = self._vertex_table
        return LabelSensor(
            {v: table[w] for v, w in vertex_image.items()},
            [self.edge_labels[j] for j, _, _ in edge_image],
        )

    def rename(self, renaming: dict) -> "LabelSensor":
        return LabelSensor(
            {renaming[v]: label for v, label in self.vertex_labels}, self.edge_labels
        )

    def kind(self) -> str:
        return "label"

    def to_json(self) -> dict:
        return {
            "type": "label",
            "vertex_labels": [[v, label] for v, label in self.vertex_labels],
            "edge_labels": list(self.edge_labels),
        }


@dataclass(frozen=True)
class BeamMark:
    """One beam through an edge interior: 0 < offset < length, measured from
    the stored tail of the edge."""

    edge: int
    offset: Fraction
    label: object


@dataclass(frozen=True, init=False)
class BeamSensor(_Sensor):
    """Reads BLANK everywhere except exactly on a beam mark, where it reads the
    mark's label.  Crossing a mark mid-flight shows up as a trace event."""

    marks: tuple

    def __init__(self, marks):
        object.__setattr__(self, "marks", tuple(marks))
        by_edge = {}
        for mark in self.marks:
            if (
                not isinstance(mark, BeamMark)
                or isinstance(mark.edge, bool)
                or not isinstance(mark.edge, int)
            ):
                raise ValidationError(f"bad beam mark: {mark!r}")
            by_edge.setdefault(mark.edge, []).append((mark.offset, mark.label))
        object.__setattr__(self, "_marks_by_edge", {e: tuple(ms) for e, ms in by_edge.items()})

    def validate(self, graph: PortedGraph) -> None:
        # offsets and lengths are compared as numerators and denominators,
        # and a point is keyed by them: both are in lowest terms
        edges = graph.edges
        seen = set()
        for mark in self.marks:
            if not 0 <= mark.edge < len(edges):
                raise ValidationError(f"beam mark on unknown edge {mark.edge}")
            length = edges[mark.edge].length
            n, q = mark.offset.numerator, mark.offset.denominator
            if n <= 0 or n * length.denominator >= length.numerator * q:
                raise ValidationError(
                    f"beam mark offset {mark.offset} not strictly inside edge {mark.edge}"
                )
            key = (mark.edge, n, q)
            if key in seen:
                raise ValidationError(f"two beam marks at one point: edge {mark.edge} offset {mark.offset}")
            seen.add(key)
            _check_scalar(mark.label)

    def marks_on(self, edge_index: int):
        return self._marks_by_edge.get(edge_index, ())

    def pullback(self, vertex_image: dict, edge_image: list) -> "BeamSensor":
        """Beam marks reappear once on every preimage edge."""
        marks = []
        for idx, (j, same_orientation, length) in enumerate(edge_image):
            for offset, label in self.marks_on(j):
                marks.append(BeamMark(idx, offset if same_orientation else length - offset, label))
        return BeamSensor(marks)

    def value(self, graph: PortedGraph, state: GraphState):
        if isinstance(state, EdgeState):
            kind, idx, pos = graph.point_of(state)
            for offset, label in self._marks_by_edge.get(idx, ()):
                if offset == pos:
                    return label
        return BLANK

    def interior_value(self, graph: PortedGraph, edge_index: int):
        return BLANK

    def kind(self) -> str:
        return "beam"

    def to_json(self) -> dict:
        return {
            "type": "beam",
            "marks": [
                {"edge": m.edge, "offset": to_pair(m.offset), "label": m.label}
                for m in self.marks
            ],
        }


@dataclass(frozen=True, init=False)
class FilteredSensor(_Sensor):
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
        base, table = self.base, self._table
        base.validate(graph)
        # every reading the base gives here: at vertices in graph order, inside
        # edges, on marks; listed in order of first appearance, so the message
        # does not depend on the hash seed
        edges = range(len(graph.edges))
        readings = [base.value(graph, VertexState(v)) for v in graph.vertices]
        readings += [base.interior_value(graph, idx) for idx in edges]
        readings += [label for idx in edges for _, label in base.marks_on(idx)]
        missing = [v for v in dict.fromkeys(readings) if v not in table]
        if missing:
            raise ValidationError(f"relabelling not total, missing {missing!r}")
        for value in table.values():
            _check_scalar(value)

    def value(self, graph: PortedGraph, state: GraphState):
        return self._table[self.base.value(graph, state)]

    def interior_value(self, graph: PortedGraph, edge_index: int):
        return self._table[self.base.interior_value(graph, edge_index)]

    def marks_on(self, edge_index: int):
        table = self._table
        return [(pos, table[label]) for pos, label in self.base.marks_on(edge_index)]

    def pullback(self, vertex_image: dict, edge_image: list) -> "FilteredSensor":
        return FilteredSensor(self.base.pullback(vertex_image, edge_image), self.relabel)

    def rename(self, renaming: dict) -> "FilteredSensor":
        return FilteredSensor(self.base.rename(renaming), self.relabel)

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
            raw = data["vertex_labels"]
            pairs = raw.items() if isinstance(raw, dict) else [(v, label) for v, label in raw]
            return LabelSensor(pairs, list(data["edge_labels"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad label sensor JSON: {data!r}") from exc
    if kind == "beam":
        try:
            marks = [
                BeamMark(raw["edge"], from_wire(raw["offset"]), raw["label"])
                for raw in data.get("marks", [])
            ]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad beam sensor JSON: {data!r}") from exc
        return BeamSensor(marks)
    if kind == "filtered":
        try:
            base = sensor_from_json(data["base"])
            pairs = [(_check_scalar(src), dst) for src, dst in data["relabel"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad filtered sensor JSON: {data!r}") from exc
        return FilteredSensor(base, pairs)
    raise ValidationError(f"unknown sensor type {kind!r}")
