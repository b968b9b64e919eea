"""Command-line interface.

Structured results go to standard output as one line of compact JSON with
sorted keys (pipe it through `python -m json.tool` to read it indented);
short human-readable summaries go to standard error.  Exit codes: 0 success or
verdict "related", 1 verdict "distinguished" (or a failed covering check),
2 malformed input, 3 precondition violation.

Every document a command prints is a fresh tree of dicts, lists, strings,
ints, bools and None that the command's `to_json` calls (or the handler
itself) built for that one print, and no container in it holds itself or
an ancestor; so `_emit` encodes it with the encoder's cycle scan switched
off (`check_circular=False`), which prints the same text without one dict
insert and delete per list and dict.

Every input document (environment, signal, map) is read by `_load_json`
alone: one unbuffered binary read of the whole file (`readall`, which
drains a FIFO or a process substitution like a file), one strict UTF-8
decode of the bytes, and `json.loads` on the text; no text wrapper,
incremental decoder or newline pass is built.  The bytes are decoded
before the parse and never handed to it, since `json.loads` would guess
UTF-16 or UTF-32 from bytes, strip a UTF-8 byte-order mark and pass
encoded surrogates.  So bytes that are not UTF-8 (a UTF-16 document, an
encoded surrogate) and a leading byte-order mark are invalid JSON (exit
2), as is a syntax error; a file that cannot be opened or read exits 2
too.  A CR is whitespace between JSON tokens, so a CRLF document reads as
its LF twin does; only the position a syntax error names counts its CR
characters, which no newline pass removes.

A process builds the parsers of each command it runs once, the first time
`main` needs them, and reuses them on later calls: the top-level parser
narrowed to that command and the command's own subparser (every command in
one parser when the first argument names none, so help and errors read the
same).  A line that names a command is parsed in one pass by that command's
subparser alone, into a namespace that already holds `command`, so the
handler gets the namespace that the top-level parser, handing the rest of
the line to the subparser, would build.  Words that subparser leaves over
are an error: `main` then hands the whole line to the narrowed top-level
parser, which reports them in argparse's own words.  A
kept parser holds nothing read from a command line, help is formatted when it
is printed, and the handler is looked up by name on every call.

`main` switches Python's cyclic garbage collector off while it parses the
command line and runs the handler, and switches it back on afterwards only
if it was on when `main` was called, however `main` ends (a return, a
SystemExit from parsing, or an exception).  What a command builds (graph
tables, state spaces, covers, signals, traces and the printed documents)
holds no reference cycle, so reference counting frees all of it, and the
collections its allocations would trigger only re-scan live objects and
find nothing.  The one exception is `gallery`: the indented `json.dump`
builds its encoder from closures that refer to one another, a fixed few
dozen objects per file, which the collector frees once it runs again.  The
switch is process-wide: another thread of a program that calls `main`
runs without cyclic collection until `main` returns.
"""
from __future__ import annotations

import argparse
import gc
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
        # one unbuffered read and one strict decode: see the module docstring
        with open(path, "rb", buffering=0) as handle:
            text = handle.readall().decode("utf-8")
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # bytes that are not UTF-8, malformed JSON, or an integer literal
        # longer than sys.get_int_max_str_digits() digits
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # arrays or objects nested deeper than the decoder's recursion limit
        raise ValidationError(f"{path} is nested too deeply to read: {exc}") from exc


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
        # no cycle scan: see the module docstring
        text = json.dumps(data, sort_keys=True, check_circular=False)
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
    to the text or an integer vertex that prints as it, exactly one of them.
    Two lookups in the graph's name table; only an int's own spelling names
    it, so `010`, `+10` or ` 10` never name the vertex 10."""
    index = source.graph.vertex_index
    matches = [text] if text in index else []
    try:
        number = int(text)
    except ValueError:  # not an int, or more digits than int() reads
        pass
    else:
        if str(number) == text and number in index:
            matches.append(number)
    if not matches:
        raise ValidationError(f"--skip-star {text}: the source has no vertex of that name")
    if len(matches) > 1:
        first, second = sorted(matches, key=index.__getitem__)
        raise ValidationError(
            f"--skip-star {text} is ambiguous: it names the source vertices {first!r} and {second!r}"
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


def _build(command: str | None) -> tuple:
    """build_parser(command), and the subparser of the command it names
    (None for the full parser)."""
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
    return parser, sub.choices[command] if narrow else None


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command or, given a command's name, of that one
    command alone; its usage line lists every command either way."""
    return _build(command)[0]


# The parsers main has built in this process, by command name: the top-level
# parser narrowed to the command and the command's own subparser (None: the
# full parser and None), so at most two per command plus the full parser.
# They hold no value read from a command line: each call parses into a fresh
# namespace.
_PARSERS: dict = {}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no cyclic collection while a command runs: see the module docstring
    collecting = gc.isenabled()
    gc.disable()
    try:
        command = argv[0] if argv and argv[0] in _NAMES else None
        parsers = _PARSERS.get(command)
        if parsers is None:
            parsers = _PARSERS[command] = _build(command)
        parser, own = parsers
        if own is None:
            args = parser.parse_args(argv)
        else:
            # one pass, as the top-level parser's subparser action would
            # make it: see the module docstring
            args, extras = own.parse_known_args(argv[1:], argparse.Namespace(command=command))
            if extras:
                args = parser.parse_args(argv)
        try:
            return globals()[args.handler](args)
        except ValidationError as exc:
            _note(f"invalid input: {exc}")
            return 2
        except PreconditionError as exc:
            _note(f"precondition violated: {exc}")
            return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
