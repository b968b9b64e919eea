"""Acceptance gate: ten numbered checks, one printed verdict line each.

Every check collects failures into a list and reports at the end, so the
PASS/FAIL line always prints (run with -s to see the lines as they happen).
All comparisons are exact rational equality; three checks carry runtime
budgets asserted alongside correctness.
"""
from __future__ import annotations

import json
import random
import time
from fractions import Fraction

from covertrace import (
    ControlSignal,
    DegreeSensor,
    Environment,
    apply,
    check_equiv_sampled,
    cli,
    compute_bisimulation,
    cyclic_cover,
    distance,
    geodesic,
    homomorphism_search,
    trace_of,
    traces_equal,
    universal_cover_truncation,
)
from covertrace.gallery import GALLERY, beams_pair, circle_pair, crossing_pair, kite_pair
from covertrace.generate import random_signal, random_voltages
from covertrace.signals import EMPTY

from helpers import (
    automorphisms,
    figure_eight_env,
    naive_degree_refinement,
    prefix,
    random_beam_sensor,
    random_label_sensor,
    random_ported_graph,
    random_state,
    random_unit_environment,
    suffix,
)


def report(number: int, failures: list, detail: str) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} ({detail})", flush=True)
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def test_criterion_01_metric_axioms():
    rng = random.Random(101)
    failures = []
    started = time.monotonic()
    for i in range(1000):
        a = random_signal(rng, 3, max_pieces=4)
        b = random_signal(rng, 3, max_pieces=4)
        c = random_signal(rng, 3, max_pieces=4)
        dab, dba = distance(a, b), distance(b, a)
        if dab < 0:
            failures.append(f"negative distance at {i}")
        if dab != dba:
            failures.append(f"asymmetric at {i}")
        if distance(a, a) != 0:
            failures.append(f"nonzero self distance at {i}")
        if a != b and dab == 0:
            failures.append(f"distinct signals at distance 0 at {i}")
        if distance(a, c) > dab + distance(b, c):
            failures.append(f"triangle violated at {i}")
    elapsed = time.monotonic() - started
    if elapsed >= 5:
        failures.append(f"too slow: {elapsed:.2f}s")
    report(1, failures, f"1000 triples, {elapsed:.2f}s < 5s")


def test_criterion_02_geodesic_additivity():
    rng = random.Random(102)
    failures = []
    stops = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    for i in range(200):
        a = random_signal(rng, 3, max_pieces=4)
        b = random_signal(rng, 3, max_pieces=4)
        for s in stops:
            g = geodesic(a, b, s)
            if distance(g, a) + distance(g, b) != distance(a, b):
                failures.append(f"additivity violated at pair {i}, s={s}")
    report(2, failures, "200 pairs x 5 stops, exact")


def test_criterion_03_lipschitz_restriction():
    rng = random.Random(103)
    failures = []
    for i in range(500):
        u = random_signal(rng, 3, max_pieces=4)
        v = random_signal(rng, 3, max_pieces=4)
        t = u.duration * Fraction(rng.randint(0, 8), 8)
        s = v.duration * Fraction(rng.randint(0, 8), 8)
        left = distance(prefix(u, t), prefix(v, s))
        if left > distance(u, v) + abs(t - s):
            failures.append(f"bound violated at {i}")
    report(3, failures, "500 tuples, exact")


def test_criterion_04_path_action_laws():
    rng = random.Random(104)
    graphs = [random_ported_graph(rng, unit_lengths=bool(i % 2)) for i in range(12)]
    failures = []
    for i in range(500):
        g = graphs[rng.randrange(len(graphs))]
        env = Environment(g, g.vertices[0], DegreeSensor())
        x = random_state(rng, g)
        u = random_signal(rng, env.alphabet_width + 1, max_pieces=4)
        t = u.duration * Fraction(rng.randint(0, 6), 6)
        if apply(env, EMPTY, x) != x:
            failures.append(f"empty signal moved the state at {i}")
        whole = apply(env, u, x)
        split = apply(env, suffix(u, t), apply(env, prefix(u, t), x))
        if whole != split:
            failures.append(f"splitting law violated at {i}")
    report(4, failures, "500 tuples over 12 graphs, exact")


def test_criterion_05_covering_lift_equivalence():
    rng = random.Random(105)
    failures = []
    started = time.monotonic()
    pairs = [("circle doubling", *circle_pair())]
    fig8 = figure_eight_env()
    pairs.append(("figure-eight 2-fold", fig8, cyclic_cover(fig8, 2, (1, 0))[0]))
    for j in range(3):
        g = random_ported_graph(rng, unit_lengths=j < 2, max_denominator=2)
        if j == 0:
            sensor = random_label_sensor(rng, g)
        elif j == 1:
            sensor = random_beam_sensor(rng, g)
        else:
            sensor = DegreeSensor()
        base = Environment(g, g.vertices[0], sensor)
        k = rng.randint(2, 3)
        cover, _ = cyclic_cover(base, k, random_voltages(rng, g, k))
        pairs.append((f"random cover {j}", base, cover))
    for name, base, cover in pairs:
        verdict = check_equiv_sampled(base, cover, max_len=8, n_random=200, seed=105)
        if verdict.distinguished:
            failures.append(f"{name}: diverged, witness {verdict.witness.to_json()}")
        elif verdict.random_checked != 200:
            failures.append(f"{name}: only {verdict.random_checked} random signals ran")
    elapsed = time.monotonic() - started
    if elapsed >= 30:
        failures.append(f"too slow: {elapsed:.2f}s")
    report(5, failures, f"{len(pairs)} covers, all discrete len<=8 + 200 random, {elapsed:.2f}s < 30s")


def test_criterion_06_universal_truncation_agreement():
    rng = random.Random(106)
    failures = []
    started = time.monotonic()
    for name, builder in GALLERY.items():
        base = builder()[0]
        trunc, _, _ = universal_cover_truncation(base, 6)
        verdict = check_equiv_sampled(base, trunc, max_len=5, n_random=0)
        if verdict.distinguished:
            failures.append(f"{name}: discrete divergence {verdict.witness.to_json()}")
        for i in range(200):
            u = random_signal(rng, base.alphabet_width, max_pieces=5)
            if u.duration >= 6:
                u = prefix(u, Fraction(59, 10))
            if not traces_equal(base, trunc, u).equal:
                failures.append(f"{name}: random divergence at signal {i}")
                break
    elapsed = time.monotonic() - started
    if elapsed >= 30:
        failures.append(f"too slow: {elapsed:.2f}s")
    report(6, failures, f"4 bases, radius 6, duration < 6, {elapsed:.2f}s < 30s")


def test_criterion_07_bisimulation_matches_enumeration():
    rng = random.Random(107)
    envs = [random_unit_environment(rng, width=3, max_edges=3, kind="degree") for _ in range(20)]
    failures = []
    agreements = 0
    for e1 in envs:
        for e2 in envs:
            res = compute_bisimulation(e1, e2)
            oracle = check_equiv_sampled(e1, e2, max_len=10, n_random=0)
            if res.related == (not oracle.distinguished):
                agreements += 1
            else:
                failures.append(
                    f"verdicts differ: refinement={res.related}, enumeration={not oracle.distinguished}"
                )
    report(7, failures, f"{agreements}/400 ordered pairs agree with horizon-10 enumeration")


def test_criterion_08_crossing_reproduction(tmp_path, capsys):
    failures = []
    a, b = crossing_pair()
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    path_a.write_text(json.dumps(a.to_json()))
    path_b.write_text(json.dumps(b.to_json()))
    code = cli.main(["distinguish", str(path_a), str(path_b)])
    out = capsys.readouterr().out
    if code != 1:
        failures.append(f"distinguish exited {code}, expected 1")
    else:
        data = json.loads(out)
        witness = ControlSignal(
            [(sym, Fraction(num, den)) for sym, num, den in data["witness"]]
        )
        if witness.duration > 6:
            failures.append(f"witness longer than 6: {data['witness']}")
        if traces_equal(a, b, witness).equal:
            failures.append("reported witness does not distinguish")
    if naive_degree_refinement(a) == naive_degree_refinement(b):
        failures.append("degree refinement tables unexpectedly equal")
    report(8, failures, "witness <= 6 found and refinement tables differ")


def test_criterion_09_beams_and_kite():
    failures = []
    for name, (a, b) in (("beams", beams_pair()), ("kite", kite_pair())):
        res = compute_bisimulation(a, b)
        if not res.related:
            failures.append(f"{name}: expected Related, got witness {res.witness.to_json()}")
        if homomorphism_search(a, b) is not None:
            failures.append(f"{name}: unexpected map forward")
        if homomorphism_search(b, a) is not None:
            failures.append(f"{name}: unexpected map backward")
    report(9, failures, "both pairs Related with homomorphism search exhausted")


def test_criterion_10_degree_sensor_invariance():
    rng = random.Random(110)
    pool = [circle_pair()[0], circle_pair()[1], figure_eight_env()]
    for _ in range(4):
        g = random_ported_graph(rng)
        pool.append(Environment(g, g.vertices[0], DegreeSensor()))
    failures = []
    nontrivial = 0
    for i in range(50):
        env = pool[rng.randrange(len(pool))]
        autos = automorphisms(env.graph)
        phi = autos[rng.randrange(len(autos))]
        if any(phi.vertex_map[v] != v for v in env.graph.vertices):
            nontrivial += 1
        moved = Environment(
            env.graph, phi.vertex_map[env.initial], DegreeSensor(), env.alphabet_width
        )
        u = random_signal(rng, env.alphabet_width, max_pieces=4)
        if trace_of(env, u) != trace_of(moved, u):
            failures.append(f"trace changed under automorphism at {i}")
    if nontrivial == 0:
        failures.append("no nontrivial automorphism was exercised")
    report(10, failures, f"50 triples, {nontrivial} with a nontrivial automorphism")
