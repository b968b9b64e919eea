"""Graphviz DOT export for ported graphs and environments.

Output is deterministic: vertices and edges appear in graph order.  Node
ids are the vertices' positions in graph order (n0, n1, ...), because a DOT id
drops the quotes that tell vertex 1 from vertex "1"; every node's label shows
its vertex name, with JSON quotes on a string that would otherwise read as an
integer or as a quoted name, so distinct vertices get distinct labels.  Edge
labels show the two ports and the length; sensor data appears on node and
edge labels where it exists.
"""
from __future__ import annotations

import json
import re

from .environments import Environment
from .graphs import PortedGraph, VertexState
from .sensors import BLANK, EDGE, SensorSpec


def _quote(text: str) -> str:
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _vertex_label(v) -> str:
    if isinstance(v, str) and (re.fullmatch("-?[0-9]+", v) or v.startswith('"')):
        return json.dumps(v)
    return str(v)


def _edge_label(graph: PortedGraph, sensor, idx: int) -> str:
    e = graph.edges[idx]
    parts = [f"{e.port_at_tail}:{e.port_at_head}"]
    if e.length != 1:
        parts.append(f"len {e.length}")
    if sensor is not None:
        interior = sensor.interior_value(graph, idx)
        if interior not in (EDGE, BLANK):
            parts.append(str(interior))
        for pos, label in sensor.marks_on(idx):
            parts.append(f"{label}@{pos}")
    return " ".join(parts)


def graph_to_dot(graph: PortedGraph, sensor: SensorSpec = None, initial=None, name: str = "G") -> str:
    node = {v: f"n{i}" for i, v in enumerate(graph.vertices)}
    lines = [f"graph {_quote(name)} {{"]
    for v in graph.vertices:
        label = _vertex_label(v)
        if sensor is not None:
            label += f" [{sensor.value(graph, VertexState(v))}]"
        attrs = [f"label={_quote(label)}"]
        if v == initial:
            attrs.append("shape=doublecircle")
        lines.append(f"  {node[v]} [{', '.join(attrs)}];")
    for idx, e in enumerate(graph.edges):
        label = _edge_label(graph, sensor, idx)
        lines.append(f"  {node[e.tail]} -- {node[e.head]} [label={_quote(label)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def environment_to_dot(env: Environment, name: str = "G") -> str:
    return graph_to_dot(env.graph, env.sensor, env.initial, name)
