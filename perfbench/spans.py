"""Timing spans around covertrace's public functions, installed from outside.

Tracer.install() wraps each target and rebinds the wrapper in every
covertrace module that holds the original (for example both
covertrace.environments.apply and covertrace.equivalence.apply); uninstall()
puts the originals back, so untraced passes run unmodified code.  A span is
(name id, start ns, end ns, parent span index, size) and belongs to the op
that was running; spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import gzip
import math
import sys
from array import array
from time import perf_counter_ns


def _vertices(graph_owner):
    return len(graph_owner.graph.vertices)


# (module, attribute, span name, size of one call from (args, result)).
# Sizes feed the per-layer slope fits: pieces, vertices, k|V| or states.
LIBRARY_TARGETS = (
    ("covertrace.signals", "distance", "signals.distance",
     lambda args, result: len(args[0].pieces) + len(args[1].pieces)),
    ("covertrace.signals", "geodesic", "signals.geodesic", None),
    ("covertrace.signals", "ControlSignal.from_json", "signals.ControlSignal.from_json", None),
    ("covertrace.graphs", "PortedGraph.__init__", "graphs.PortedGraph",
     lambda args, result: len(args[0].vertices)),
    ("covertrace.environments", "apply", "environments.apply", None),
    ("covertrace.environments", "trajectory", "environments.trajectory", None),
    ("covertrace.environments", "trace_of_trajectory", "environments.trace_of_trajectory",
     lambda args, result: len(args[1].legs)),
    ("covertrace.environments", "first_divergence", "environments.first_divergence", None),
    ("covertrace.environments", "Environment.from_json", "environments.Environment.from_json", None),
    ("covertrace.covering", "cyclic_cover", "covering.cyclic_cover",
     lambda args, result: _vertices(result[0])),
    ("covertrace.covering", "universal_cover_truncation", "covering.universal_cover_truncation",
     lambda args, result: _vertices(result[0])),
    ("covertrace.covering", "verify_covering", "covering.verify_covering",
     lambda args, result: _vertices(args[1])),
    ("covertrace.covering", "pullback_sensor", "covering.pullback_sensor", None),
    ("covertrace.equivalence", "DiscreteStateSpace.__init__", "equivalence.DiscreteStateSpace",
     lambda args, result: len(args[0].states)),
    ("covertrace.equivalence", "compute_bisimulation", "equivalence.compute_bisimulation",
     lambda args, result: result.states),
    ("covertrace.equivalence", "check_equiv_sampled", "equivalence.check_equiv_sampled", None),
    ("covertrace.generate", "random_signal", "generate.random_signal", None),
)

COMMANDS = ("bisim", "metric", "geodesic", "trace", "equiv", "gen-cyclic", "gen-universal", "check-cover")

TARGETS = LIBRARY_TARGETS + tuple(
    ("covertrace.cli", "cmd_" + c.replace("-", "_"), "cli." + c, None) for c in COMMANDS
)

NAMES = tuple(t[2] for t in TARGETS)

# Calls smaller than this are dominated by fixed per-call cost and are left
# out of the slope fits.
SLOPE_MIN_SIZE = 8


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name_id, fn, size_of):
        tracer = self

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name_id, start, end, parent, 0)
            if size_of is not None:
                spans[index] = (name_id, start, end, parent, size_of(args, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "covertrace"]
        for name_id, (module_name, attribute, _, size_of) in enumerate(TARGETS):
            owner = sys.modules[module_name]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name_id, raw.__func__, size_of))
                else:
                    replacement = self._wrap(name_id, raw, size_of)
                self._restore.append((owner, leaf, raw))
                setattr(owner, leaf, replacement)
                continue
            original = getattr(owner, leaf)
            wrapper = self._wrap(name_id, original, size_of)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, bound, original))
                        setattr(module, bound, wrapper)

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    def clear(self):
        self.spans = []

    def take(self):
        """The spans recorded since the last take, packed flat."""
        flat = array("q")
        for span in self.spans:
            flat.extend(span)
        self.spans = []
        return flat


def _rows(flat):
    return [tuple(flat[i:i + 5]) for i in range(0, len(flat), 5)]


def summarize(per_op_spans):
    """Per span name: calls, inclusive ms (outermost call of that name
    only), self ms, summed size, and (size, ms) samples for slope fits."""
    stats = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0, "size": 0, "samples": []} for name in NAMES}
    for flat in per_op_spans:
        rows = _rows(flat)
        covered = [0] * len(rows)
        for name_id, start, end, parent, _ in rows:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name_id, start, end, parent, size) in enumerate(rows):
            entry = stats[NAMES[name_id]]
            ms = (end - start) / 1e6
            entry["calls"] += 1
            entry["self_ms"] += ms - covered[i] / 1e6
            entry["size"] += size
            ancestor = parent
            while ancestor >= 0 and rows[ancestor][0] != name_id:
                ancestor = rows[ancestor][3]
            if ancestor < 0:
                entry["ms"] += ms
                if size >= SLOPE_MIN_SIZE:
                    entry["samples"].append((size, ms))
    return stats


def slope(samples):
    """Least-squares exponent b in ms ~ size^b; 0 when the sizes do not span
    a factor of two."""
    sizes = [s for s, _ in samples]
    if len(samples) < 3 or max(sizes) < 2 * min(sizes):
        return 0.0
    xs = [math.log(s) for s, _ in samples]
    ys = [math.log(max(ms, 1e-6)) for _, ms in samples]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def write_spans(path, per_op_spans, op_names):
    """One tab-separated line per span: op, span, parent, name, start ns,
    end ns, size."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write("op\tspan\tparent\tname\tstart_ns\tend_ns\tsize\n")
        for op_name, flat in zip(op_names, per_op_spans):
            for i, (name_id, start, end, parent, size) in enumerate(_rows(flat)):
                handle.write(f"{op_name}\t{i}\t{parent}\t{NAMES[name_id]}\t{start}\t{end}\t{size}\n")
