"""Command-line interface.

Structured results go to standard output as one line of compact JSON with
sorted keys (pipe it through `python -m json.tool` to read it indented);
short human-readable summaries go to standard error.  Exit codes: 0 success or
verdict "related", 1 verdict "distinguished" (or a failed covering check),
2 malformed input, 3 precondition violation.

A process builds the parser of each command it runs once, the first time
`main` needs it, and reuses it on later calls (every command in one parser
when the first argument names none, so help and errors read the same).  A
kept parser holds nothing read from a command line, help is formatted when it
is printed, and the handler is looked up by name on every call.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .covering import (
    GraphMap,
    cyclic_cover,
    lift_state_path,
    universal_cover_truncation,
    verify_covering,
)
from .environments import Environment, trace_of
from .equivalence import check_equiv_sampled, compute_bisimulation
from .errors import PreconditionError, ValidationError
from .gallery import write_gallery
from .generate import random_voltages
from .rationals import as_fraction, to_pair
from .signals import ControlSignal, distance, geodesic


def _load_json(path: str, object_pairs_hook=None):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, object_pairs_hook=object_pairs_hook)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # malformed JSON, or an integer literal longer than
        # sys.get_int_max_str_digits() digits
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _load_environment(path: str) -> Environment:
    return Environment.from_json(_load_json(path))


def _load_signal(path: str) -> ControlSignal:
    return ControlSignal.from_json(_load_json(path))


class _RepeatedKeys(list):
    """The (key, value) pairs of a JSON object that names a key twice."""


def _pairs_if_repeated(pairs: list):
    """A JSON object as a dict, or as its list of pairs when a key repeats,
    so that a vertex_map object naming a vertex twice reads like the list
    form and is refused by the same check instead of keeping the last
    value."""
    data = dict(pairs)
    return data if len(data) == len(pairs) else _RepeatedKeys(map(list, pairs))


def _load_map(path: str, source: Environment) -> GraphMap:
    data = _load_json(path, _pairs_if_repeated)
    if isinstance(data, _RepeatedKeys):
        raise ValidationError(f"{path} names a key of the map object twice")
    return GraphMap.from_json(data, source=source.graph)


def _emit(data) -> None:
    try:
        text = json.dumps(data, sort_keys=True)
    except ValueError as exc:
        # an integer longer than sys.get_int_max_str_digits() digits
        raise PreconditionError(f"the result cannot be printed: {exc}") from exc
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (`covertrace ... | head`).  Point stdout at
        # the null device so the flush at exit cannot fail again, and let the
        # command return its own exit code.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_trace(args) -> int:
    env = _load_environment(args.environment)
    signal = _load_signal(args.signal)
    trace = trace_of(env, signal)
    document = trace.to_json()
    _emit(document)
    _note(
        f"trace over {trace.duration}: {len(document['segments'])} segments, "
        f"{len(document['events'])} events"
    )
    return 0


def cmd_metric(args) -> int:
    a = _load_signal(args.first)
    b = _load_signal(args.second)
    d = distance(a, b)
    _emit({"distance": to_pair(d)})
    _note(f"distance = {d}")
    return 0


def cmd_geodesic(args) -> int:
    a = _load_signal(args.first)
    b = _load_signal(args.second)
    s = as_fraction(args.at)
    point = geodesic(a, b, s)
    _emit(point.to_json())
    _note(f"geodesic point at s = {s}, duration {point.duration}")
    return 0


def _source_vertex(text: str, source: Environment):
    """The source vertex a command-line name stands for: a string vertex equal
    to the text or an integer vertex that prints as it, exactly one of them."""
    matches = [v for v in source.graph.vertices if (str(v) if isinstance(v, int) else v) == text]
    if not matches:
        raise ValidationError(f"--skip-star {text}: the source has no vertex of that name")
    if len(matches) > 1:
        raise ValidationError(
            f"--skip-star {text} is ambiguous: it names the source vertices {matches[0]!r} and {matches[1]!r}"
        )
    return matches[0]


def cmd_check_cover(args) -> int:
    source = _load_environment(args.source)
    target = _load_environment(args.target)
    mapping = _load_map(args.map, source)
    skip = [_source_vertex(text, source) for text in args.skip_star]
    cert = verify_covering(mapping, source, target, skip_star_at=skip)
    _emit(cert.to_json())
    _note("covering conditions hold" if cert.positive else "not a covering")
    return 0 if cert.positive else 1


def cmd_lift(args) -> int:
    source = _load_environment(args.source)
    target = _load_environment(args.target)
    mapping = _load_map(args.map, source)
    signal = _load_signal(args.signal)
    lifted = lift_state_path(mapping, source, target, signal)
    _emit(lifted.to_json())
    _note(f"lifted trajectory: {len(lifted.legs)} legs over {lifted.duration}")
    return 0


def cmd_gen_cyclic(args) -> int:
    env = _load_environment(args.environment)
    if args.k < 1:
        raise PreconditionError(f"cover order must be at least 1, got {args.k}")
    if args.voltages is not None:
        try:
            voltages = [int(part) for part in args.voltages.split(",")]
        except ValueError as exc:
            raise ValidationError(f"bad voltage list {args.voltages!r}") from exc
    else:
        import random

        voltages = random_voltages(random.Random(args.seed), env.graph, args.k)
    cover, projection = cyclic_cover(env, args.k, voltages)
    _emit(
        {
            "environment": cover.to_json(),
            "projection": projection.to_json(),
            "voltages": voltages,
        }
    )
    _note(f"order-{args.k} cyclic cover: {len(cover.graph.vertices)} vertices")
    return 0


def cmd_gen_universal(args) -> int:
    env = _load_environment(args.environment)
    radius = as_fraction(args.radius)
    cover, projection, boundary = universal_cover_truncation(env, radius)
    _emit(
        {
            "environment": cover.to_json(),
            "projection": projection.to_json(),
            "boundary": sorted(boundary),
        }
    )
    _note(
        f"universal cover ball of radius {radius}: "
        f"{len(cover.graph.vertices)} vertices, {len(boundary)} boundary"
    )
    return 0


def _verdict_exit(verdict_json: dict, note: str) -> int:
    _emit(verdict_json)
    _note(note)
    return 0 if verdict_json["verdict"] == "related" else 1


def cmd_equiv(args) -> int:
    """The sampled search behind both equiv and distinguish, with the
    defaults and the two notes of the subcommand that ran it."""
    a = _load_environment(args.first)
    b = _load_environment(args.second)
    verdict = check_equiv_sampled(
        a, b, max_len=args.max_len, n_random=args.random, seed=args.seed
    )
    if verdict.distinguished:
        note = args.found_note.format(t=verdict.divergence)
    else:
        note = args.missing_note.format(max_len=args.max_len)
    return _verdict_exit(verdict.to_json(), note)


def cmd_bisim(args) -> int:
    a = _load_environment(args.first)
    b = _load_environment(args.second)
    result = compute_bisimulation(a, b)
    note = (
        f"related: {len(result.relation)} state pairs"
        if result.related
        # the witness is a word of unit actions, so its duration counts them
        else f"distinguished by a {result.witness.duration}-action signal at t = {result.divergence}"
    )
    return _verdict_exit(result.to_json(), note)


def cmd_gallery(args) -> int:
    try:
        written = write_gallery(args.out, dot=not args.no_dot)
    except OSError as exc:
        raise ValidationError(f"cannot write the gallery to {args.out}: {exc}") from exc
    _emit({"written": written})
    _note(f"wrote {len(written)} files to {args.out}")
    return 0


def _args(p, *positionals, **defaults) -> argparse.ArgumentParser:
    """Add the positionals to p and set its defaults (handler: the name of
    the cmd_* function that runs the command)."""
    for name in positionals:
        p.add_argument(name)
    p.set_defaults(**defaults)
    return p


def _check_cover(p) -> None:
    _args(p, "map", "source", "target", handler="cmd_check_cover")
    p.add_argument("--skip-star", action="append", default=[], metavar="VERTEX",
                   help="skip the star condition at this source vertex (truncated covers); "
                   "an integer vertex is named by its digits")


def _gen_cyclic(p) -> None:
    _args(p, "environment", handler="cmd_gen_cyclic")
    p.add_argument("k", type=int)
    p.add_argument("--voltages", help="comma-separated, one per edge, e.g. 0,0,1")
    p.add_argument("--seed", type=int, default=0)


def _sampled(max_len, n_random, found_note, missing_note):
    """equiv and distinguish: one handler, each with its own defaults and notes."""
    def add(p) -> None:
        _args(p, "first", "second", handler="cmd_equiv", found_note=found_note, missing_note=missing_note)
        p.add_argument("--max-len", type=int, default=max_len)
        p.add_argument("--random", type=int, default=n_random)
        p.add_argument("--seed", type=int, default=0)
    return add


def _gallery(p) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--no-dot", action="store_true")
    p.set_defaults(handler="cmd_gallery")


# Every command once, in help order: its name, its help and the function that
# adds its arguments.  A parser names its handler and main looks the name up
# on every call, so a handler rebound after import (a tracer's wrapper) is the
# one dispatched, even by a parser built before.
_COMMANDS = (
    ("trace", "sensor trace of a signal in an environment",
     lambda p: _args(p, "environment", "signal", handler="cmd_trace")),
    ("metric", "exact distance between two signals",
     lambda p: _args(p, "first", "second", handler="cmd_metric")),
    ("geodesic", "point on the geodesic between two signals",
     lambda p: _args(p, "first", "second", handler="cmd_geodesic")
     .add_argument("--at", default="1/2", help="parameter s in [0, 1], e.g. 1/3")),
    ("check-cover", "grade a candidate covering map", _check_cover),
    ("lift", "lift a signal's trajectory through a covering",
     lambda p: _args(p, "map", "source", "target", "signal", handler="cmd_lift")),
    ("gen-cyclic", "cyclic cover from voltages", _gen_cyclic),
    ("gen-universal", "truncated universal cover",
     lambda p: _args(p, "environment", handler="cmd_gen_universal")
     .add_argument("radius", help="positive rational, e.g. 6 or 13/2")),
    ("equiv", "sampled equivalence check",
     _sampled(8, 200, "distinguished at t = {t}", "no divergence found (sampled check only)")),
    ("bisim", "exact bisimulation on unit-length graphs",
     lambda p: _args(p, "first", "second", handler="cmd_bisim")),
    ("distinguish", "search for a distinguishing signal",
     _sampled(6, 0, "witness found, divergence at t = {t}", "no witness up to length {max_len}")),
    ("gallery", "write the built-in example pairs", _gallery),
)


_NAMES = tuple(name for name, _, _ in _COMMANDS)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given a command's name, of that one
    command alone; its usage line lists every command either way."""
    parser = argparse.ArgumentParser(
        prog="covertrace",
        description="Exact tools for telling apart sensor-driven graph environments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    narrow = command in _NAMES
    # a metavar also renames "argument command" in errors, which only the full parser prints
    metavar = {"metavar": "{" + ",".join(_NAMES) + "}"} if narrow else {}
    sub = parser.add_subparsers(dest="command", required=True, **metavar)
    for name, help_text, add_arguments in _COMMANDS:
        if not narrow or name == command:
            add_arguments(sub.add_parser(name, help=help_text))
    return parser


# The parsers main has built in this process, by command name (None: the full
# parser), so at most one per command plus one.  They hold no value read from
# a command line: each call parses into a fresh namespace.
_PARSERS: dict = {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _NAMES else None
    parser = _PARSERS.get(command)
    if parser is None:
        parser = _PARSERS[command] = build_parser(command)
    args = parser.parse_args(argv)
    try:
        return globals()[args.handler](args)
    except ValidationError as exc:
        _note(f"invalid input: {exc}")
        return 2
    except PreconditionError as exc:
        _note(f"precondition violated: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
