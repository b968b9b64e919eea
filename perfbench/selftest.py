"""Self-test of the benchmark's checkers and references, at tiny sizes.

    python3 perfbench/selftest.py

For every op of every workload (schedules shrunk to a tenth) it runs the
command once and shows that the op's checker accepts a correct output and
rejects tampered ones: a flipped verdict, an off-by-one distance, a witness
one unit too long, a dropped vertex.  It also checks the references against
answers known by hand, and that the kite ops find their separation on 20
seeds.  Exits 1 on
the first group that fails.
"""
from __future__ import annotations

import json
import sys
import tempfile
from fractions import Fraction

import references as ref
import run
import workloads


class SelfTestFailure(Exception):
    pass


def require(condition, message):
    if not condition:
        raise SelfTestFailure(message)


def _bump(pair):
    return [pair[0] + pair[1], pair[1]]


def tampered(op, out):
    """(what was changed, wrong output) pairs for one op's correct output."""
    if op.command == "bisim":
        if out["verdict"] == "related":
            yield "verdict flipped", dict(out, verdict="distinguished")
            yield "pair dropped", dict(out, relation=out["relation"][1:])
            yield "foreign pair added", dict(out, relation=out["relation"] + [["nowhere", "nobody"]])
        else:
            yield "verdict flipped", dict(out, verdict="related")
            yield "witness one unit longer", dict(out, witness=out["witness"] + [["halt", 1, 1]])
            yield "divergence off by one", dict(out, divergence=_bump(out["divergence"]))
    elif op.command == "metric":
        yield "distance off by one", {"distance": _bump(out["distance"])}
    elif op.command == "geodesic":
        symbol, num, den = out[-1]
        yield "last piece longer", out[:-1] + [[symbol, num + den, den]]
        if len(out) > 2:
            yield "first two pieces swapped", [out[1], out[0]] + out[2:]
    elif op.command == "trace":
        yield "duration off by one", dict(out, duration=_bump(out["duration"]))
        segments = [dict(s) for s in out["segments"]]
        segments[-1]["value"] = "tampered"
        yield "segment value changed", dict(out, segments=segments)
    elif op.command == "equiv":
        flipped = "related" if out["verdict"] == "distinguished" else "distinguished"
        yield "verdict flipped", dict(out, verdict=flipped)
    elif op.command == "gen-cyclic":
        env = dict(out["environment"], vertices=out["environment"]["vertices"][1:])
        yield "vertex dropped", dict(out, environment=env)
    elif op.command == "gen-universal":
        yield "boundary vertex dropped", dict(out, boundary=out["boundary"][1:])
        env = dict(out["environment"], vertices=out["environment"]["vertices"] + ["extra"])
        yield "vertex added", dict(out, environment=env)
    elif op.command == "check-cover":
        yield "covering flipped", dict(out, covering=not out["covering"])
        conditions = dict(out["conditions"], base_point=not out["conditions"]["base_point"])
        yield "base point flipped", dict(out, conditions=conditions)


def check_references():
    f = Fraction
    a = [(0, f(2))]
    b = [(1, f(4))]
    require(ref.distance(a, b) == 4, "disjoint symbols: overlap 2 plus gap 2")
    require(ref.distance(a, a) == 0, "distance to itself")
    c = [(0, f(1)), (1, f(1, 2)), ("halt", f(3, 2))]
    d = [(0, f(3, 2)), ("halt", f(3, 2))]
    require(ref.distance(c, d) == f(1, 2) == ref.distance(d, c), "disagreement on [1, 3/2) only")
    half = [(1, f(1)), (0, f(1)), (1, f(1))]
    require(ref.geodesic_point(a, b, f(1, 2)) == half, "b on [0, 1), a on [1, 2), half of b's overhang")
    require(ref.geodesic_point(b, a, f(1, 2)) == half, "the longer signal first: s becomes 1 - s")
    require(ref.geodesic_point(a, b, 0) == a and ref.geodesic_point(a, b, 1) == b, "geodesic endpoints")
    circle = ref.circle_base()
    require(ref.reduced_walk_counts(circle, 5) == (11, 2), "a cycle ball is a path")
    require(ref.reduced_walk_counts(circle, Fraction(11, 2)) == (13, 2), "radius 11/2 reaches length 6")
    # crossing_a: s has 2 darts, c has 4; the ball of radius 1 holds s, its
    # two neighbours, each with 3 onward darts, so both are boundary.
    require(ref.reduced_walk_counts(ref.crossing_a(), 1) == (3, 2), "radius-1 ball of crossing_a")
    cover, projection = ref.cyclic_cover(circle, 4, [1, 0, 0])
    require(len(cover["vertices"]) == 12 and len(projection["dart_map"]) == 24, "order-4 cover size")
    require(ref.cyclic_cover(circle, 4, [2, 0, 0]) is None, "net voltage 2 splits Z_4")
    require(ref.cycle_readings(3, [(0, f(3))]) == [1, 0, 0, 1], "once round a 3-cycle")


def check_ops(cli, workload, directory):
    ops, files = workloads.build(workload, 7, directory, scale=0.1)
    files.write()
    outputs = {}
    for op in ops:
        _, text, problem = run.execute(cli, op)
        if problem is not None:
            raise SelfTestFailure(f"{op.name}: {problem}")
        outputs[op.name] = json.loads(text)
    for op in ops:
        out = outputs[op.name]
        problem = op.check(out)
        require(problem is None, f"{op.name}: correct output rejected: {problem}")
        cases = list(tampered(op, out))
        require(cases, f"{op.name}: no tampering defined")
        for what, wrong in cases:
            require(op.check(wrong) is not None, f"{op.name}: accepted with {what}")
    return len(ops)


def check_kite(cli, directory):
    found = 0
    for seed in range(1, 21):
        ops, files = workloads.build("signals", seed, directory)
        files.write()
        for op in ops:
            if ".kite." in op.name:
                _, text, problem = run.execute(cli, op)
                require(problem is None, f"seed {seed} {op.name}: {problem}")
                require(op.check(json.loads(text)) is None, f"seed {seed} {op.name}: no separation")
                found += 1
    return found


def main():
    sys.path.insert(0, str(run.SRC))
    cli = run.import_covertrace()
    check_references()
    print("references: ok")
    with tempfile.TemporaryDirectory(dir=run.ROOT) as directory:
        for workload in workloads.WORKLOADS:
            n = check_ops(cli, workload, directory)
            print(f"{workload}: {n} ops, correct outputs accepted, tampered outputs rejected")
        print(f"kite: separation found in {check_kite(cli, directory)} ops over 20 seeds")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as exc:
        print(f"self-test failed: {exc}", file=sys.stderr)
        sys.exit(1)
