"""Sensor models: what the robot reads at each state.

Four families: degree readout, vertex/edge labellings, beam marks strictly
inside edges, and a total relabelling filter over any of the others.  Sensor
values must be JSON scalars so traces serialize losslessly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ValidationError
from .graphs import EdgeState, GraphState, PortedGraph, VertexState
from .rationals import as_fraction, from_wire, to_pair

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

    def value(self, graph: PortedGraph, state: GraphState):
        if isinstance(state, VertexState):
            return graph.degree(state.vertex)
        return EDGE

    def interior_value(self, graph: PortedGraph, edge_index: int):
        return EDGE

    def kind(self) -> str:
        return "degree"

    def output_values(self, graph: PortedGraph) -> set:
        return {graph.degree(v) for v in graph.vertices} | {EDGE}

    def to_json(self) -> dict:
        return {"type": "degree"}


@dataclass(frozen=True, init=False)
class LabelSensor:
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

    def kind(self) -> str:
        return "label"

    def output_values(self, graph: PortedGraph) -> set:
        return set(self._vertex_table.values()) | set(self.edge_labels)

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
class BeamSensor:
    """Reads BLANK everywhere except exactly on a beam mark, where it reads the
    mark's label.  Crossing a mark mid-flight shows up as a trace event."""

    marks: tuple

    def __init__(self, marks):
        object.__setattr__(self, "marks", tuple(marks))
        by_edge = {}
        for mark in self.marks:
            if not isinstance(mark, BeamMark):
                raise ValidationError(f"bad beam mark: {mark!r}")
            by_edge.setdefault(mark.edge, []).append(mark)
        object.__setattr__(self, "_marks_by_edge", by_edge)

    def validate(self, graph: PortedGraph) -> None:
        seen = set()
        for mark in self.marks:
            if not 0 <= mark.edge < len(graph.edges):
                raise ValidationError(f"beam mark on unknown edge {mark.edge}")
            length = graph.edges[mark.edge].length
            if not (0 < mark.offset < length):
                raise ValidationError(
                    f"beam mark offset {mark.offset} not strictly inside edge {mark.edge}"
                )
            key = (mark.edge, mark.offset)
            if key in seen:
                raise ValidationError(f"two beam marks at one point: edge {mark.edge} offset {mark.offset}")
            seen.add(key)
            _check_scalar(mark.label)

    def marks_on(self, edge_index: int) -> list:
        return list(self._marks_by_edge.get(edge_index, ()))

    def value(self, graph: PortedGraph, state: GraphState):
        if isinstance(state, EdgeState):
            kind, idx, pos = graph.point_of(state)
            for mark in self._marks_by_edge.get(idx, ()):
                if mark.offset == pos:
                    return mark.label
        return BLANK

    def interior_value(self, graph: PortedGraph, edge_index: int):
        return BLANK

    def kind(self) -> str:
        return "beam"

    def output_values(self, graph: PortedGraph) -> set:
        return {BLANK} | {m.label for m in self.marks}

    def to_json(self) -> dict:
        return {
            "type": "beam",
            "marks": [
                {"edge": m.edge, "offset": to_pair(m.offset), "label": m.label}
                for m in self.marks
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
        self.base.validate(graph)
        table = self._table
        missing = [v for v in self.base.output_values(graph) if v not in table]
        if missing:
            raise ValidationError(f"relabelling not total, missing {missing!r}")
        for value in table.values():
            _check_scalar(value)

    def value(self, graph: PortedGraph, state: GraphState):
        return self._table[self.base.value(graph, state)]

    def interior_value(self, graph: PortedGraph, edge_index: int):
        return self._table[self.base.interior_value(graph, edge_index)]

    def kind(self) -> str:
        return self.base.kind()

    def output_values(self, graph: PortedGraph) -> set:
        return {self._table[v] for v in self.base.output_values(graph)}

    def to_json(self) -> dict:
        return {
            "type": "filtered",
            "base": self.base.to_json(),
            "relabel": [[src, dst] for src, dst in self.relabel],
        }


SensorSpec = Union[DegreeSensor, LabelSensor, BeamSensor, FilteredSensor]


def mark_positions(sensor: SensorSpec, graph: PortedGraph, edge_index: int) -> list:
    """Instant-readout points inside an edge as (position from stored tail,
    output value); empty for sensors without beams."""
    if isinstance(sensor, BeamSensor):
        return [(m.offset, m.label) for m in sensor.marks_on(edge_index)]
    if isinstance(sensor, FilteredSensor):
        table = sensor._table
        return [(pos, table[label]) for pos, label in mark_positions(sensor.base, graph, edge_index)]
    return []


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
        marks = []
        for raw in data.get("marks", []):
            try:
                marks.append(BeamMark(raw["edge"], from_wire(raw["offset"]), raw["label"]))
            except KeyError as exc:
                raise ValidationError(f"beam mark JSON missing {exc}") from exc
        return BeamSensor(marks)
    if kind == "filtered":
        try:
            base = sensor_from_json(data["base"])
            pairs = [(src, dst) for src, dst in data["relabel"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad filtered sensor JSON: {data!r}") from exc
        return FilteredSensor(base, pairs)
    raise ValidationError(f"unknown sensor type {kind!r}")
