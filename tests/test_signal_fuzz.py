"""Arbitrary JSON signal documents through `trace`, `metric` and `geodesic`.

Every run must end in exit 0, 2 or 3 with no traceback (exit 1 means
"distinguished"), and exits 2 and 3 must leave standard output empty.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from covertrace import (
    BeamMark,
    BeamSensor,
    ControlSignal,
    Environment,
    PortedGraph,
    ValidationError,
    build_edges,
    cli,
)

from helpers import naive_from_json

# One vertex with a loop of length 2**200 and a beam mark on it: ports 0 and
# 1 run the loop either way and higher ports wait, so a signal of any
# duration the documents below can spell is simulated in a few steps.
LOOP_ENV = Environment(
    PortedGraph(["o"], build_edges([("o", "o", 0, 1, 2**200)])),
    "o",
    BeamSensor((BeamMark(0, 1, "mark"),)),
    3,
)

HUGE = st.sampled_from([2**64, -(2**64), 10**30, 2**200, -(10**100)])

scalars = st.one_of(
    st.integers(-3, 5),
    HUGE,
    st.integers(-(2**100), 2**100),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(["halt", "1/2", "0", ""]),
    st.text(max_size=3),
)

json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)

# entries of the right shape with arbitrary parts, entries of the wrong
# length, and anything else JSON can hold
entries = st.one_of(
    st.tuples(scalars, scalars, scalars).map(list),
    st.tuples(st.sampled_from([0, 1, 2, "halt"]), st.integers(-2, 9), st.integers(-3, 9)).map(list),
    st.lists(scalars, max_size=5),
    json_values,
)
documents = st.one_of(st.lists(entries, max_size=6), json_values)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def write(directory, name, payload, raw=None):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload) if raw is None else raw)
    return path


def assert_clean(code, out, err):
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code:
        assert out == ""
    else:
        json.loads(out)


@settings(max_examples=100, deadline=None)
@given(documents, documents, st.sampled_from(["1/2", "0", "1", "2/7", "2", "-1", "x", "1/0"]))
def test_arbitrary_signal_documents_exit_cleanly(first, second, at):
    with tempfile.TemporaryDirectory() as directory:
        env = write(directory, "env.json", LOOP_ENV.to_json())
        a = write(directory, "a.json", first)
        b = write(directory, "b.json", second)
        for argv in (
            ["trace", env, a],
            ["metric", a, b],
            ["geodesic", a, b, "--at", at],
        ):
            assert_clean(*run(argv))


def read(reader, document):
    try:
        return reader(document)
    except ValidationError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_from_json_matches_the_two_stage_oracle(document):
    """One pass gives the signal, or the refusal message, of reading each
    entry's pair with from_wire and then checking the pieces."""
    got, expected = read(ControlSignal.from_json, document), read(naive_from_json, document)
    assert type(got) is type(expected) and got == expected


def test_integer_past_the_digit_limit_exits_2():
    with tempfile.TemporaryDirectory() as directory:
        env = write(directory, "env.json", LOOP_ENV.to_json())
        long = write(directory, "long.json", None, raw="[[0, 1, 1" + "0" * 5000 + "]]")
        for argv in (["trace", env, long], ["metric", long, long], ["geodesic", long, long]):
            code, out, err = run(argv)
            assert (code, out) == (2, "")
            assert "not valid JSON" in err


def test_result_past_the_digit_limit_exits_3():
    """Each input denominator has 2501 digits; the distance's denominator is
    their product, too long to print."""
    with tempfile.TemporaryDirectory() as directory:
        a = write(directory, "a.json", None, raw=f"[[0, 1, {10**2500 + 1}]]")
        b = write(directory, "b.json", None, raw=f"[[0, 1, {10**2500 + 3}]]")
        code, out, err = run(["metric", a, b])
        assert (code, out) == (3, "")
        assert "cannot be printed" in err
