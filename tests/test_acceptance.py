"""End-to-end acceptance gate.

Each test is one acceptance criterion; the pytest report line per test is the
pass/fail line for that criterion.  Stated tolerances and time budgets appear
inline as literals.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import graphnest as gn
from conftest import (
    CLASSIFY_FIXTURES,
    CYCLE_CORPUS,
    make_graph,
    random_graph,
    random_nonzero_element,
    random_walk,
)
from exact_oracle import bfs_reachable

FIXTURES = Path(__file__).parent / "fixtures"


def turn(t):
    return complex(np.exp(2j * np.pi * t))


def corpus_cycles(max_len=6):
    for name in CYCLE_CORPUS:
        g = make_graph(name)
        for u in gn.all_cycles(g, max_len):
            yield g, u


def generated_dimension(rep):
    gens = list(rep.vertex_images.values()) + list(rep.edge_images.values())
    dim, _ = gn.span_closure_dim(gens, rep.dimension)
    return dim


def test_01_span_dimension_dichotomy_on_corpus_cycles():
    # generated algebra is full k x k exactly for primitive cycles;
    # every cycle of length <= 6 in the 10-graph corpus, lambda in {1, i}
    started = time.monotonic()
    checked = 0
    for g, u in corpus_cycles():
        _, p = gn.primitive_root(u)
        for lam in (1.0, 1j):
            rep = gn.phi_cycle(g, u, lam)
            dim = generated_dimension(rep)
            assert (dim == u.length ** 2) == (p == 1), (u, lam, dim)
            checked += 1
    elapsed = time.monotonic() - started
    assert checked > 0
    assert elapsed <= 5.0, f"span dichotomy sweep took {elapsed:.2f}s (> 5s)"


def test_02_row_operator_norm_is_half_on_corpus_cycles():
    for g, u in corpus_cycles():
        for lam in (1.0, 1j):
            rep = gn.phi_cycle(g, u, lam)
            norm = gn.row_operator_norm(list(rep.edge_images.values()))
            assert abs(norm - 0.5) <= 1e-10, (u, lam, norm)


def test_03_cycle_evaluation_formula_on_corpus_cycles():
    # phi(u) = 2^-k * lambda * (sum of the diagonal units at positions fixed
    # by the primitive rotation); for primitive u that sum is the single
    # corner dyad h1 h1*
    for g, u in corpus_cycles():
        root, p = gn.primitive_root(u)
        k = u.length
        for lam in (1.0, 1j, turn(1 / 7)):
            rep = gn.phi_cycle(g, u, lam)
            got = gn.evaluate(rep, gn.FormalElement.single(g, u))
            expected = np.zeros((k, k), dtype=complex)
            for j in range(0, k, root.length):
                expected[j, j] = lam * 2.0 ** (-k)
            assert gn.operator_norm(got - expected) <= 1e-10, (u, lam)
            if p == 1:
                h1 = np.zeros((k, 1), dtype=complex)
                h1[0, 0] = 1.0
                dyad = lam * 2.0 ** (-k) * (h1 @ h1.conj().T)
                assert gn.operator_norm(got - dyad) <= 1e-10, (u, lam)


def test_04_fourier_recovery_round_trip():
    started = time.monotonic()
    plans = [
        (gn.recover_irreducible, ["p2", "c2_loops_both", "triangle_chord"], 101),
        (gn.recover_nest, ["scc_chain", "case_three", "chain3"], 202),
        (gn.recover_upper, ["p2", "scc_chain", "case_three"], 303),
    ]
    for recover, names, seed in plans:
        rng = random.Random(seed)
        graphs = [make_graph(n) for n in names]
        worst = 0.0
        for i in range(100):
            g = graphs[i % len(graphs)]
            a = random_nonzero_element(rng, g, max_terms=15, max_degree=5)
            for path, coeff in a.items():
                got = recover(g, a, path)
                worst = max(worst, abs(got - coeff))
        assert worst <= 1e-8, (recover.__name__, worst)
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0, f"recovery sweep took {elapsed:.2f}s (> 30s)"


def test_05_nest_separation_end_to_end():
    names = [
        "p2", "c2", "c3", "c6", "c2_loop", "triangle_chord", "parallel_pair",
        "chain3", "scc_chain", "case_three",
    ]
    rng = random.Random(55)
    for name in names:
        g = make_graph(name)
        for _ in range(20):
            a = random_nonzero_element(rng, g, max_terms=10, max_degree=5)
            wit = gn.separate(g, a, "nest")
            assert wit.value >= 1e-10, (name, wit.value)
            assert abs(wit.reevaluate(a) - wit.value) <= 1e-8, name


def test_06_generated_algebra_dimensions():
    # 50 triangular representations with distinct diagonal parameters
    rng = random.Random(66)
    names = ["p2", "scc_chain", "case_three", "c2_loops_both"]
    built = 0
    while built < 50:
        g = make_graph(names[built % len(names)])
        designated = gn.designated_loops(g)
        w = random_walk(rng, g, rng.randrange(9), avoid=designated)
        k = w.length + 1
        plan = gn.upper_plan(g, w, designated)
        lams = [turn(t / 53) for t in rng.sample(range(53), len(plan.loop_positions))]
        rep = gn.psi_upper(g, w, lams)
        assert generated_dimension(rep) == k * (k + 1) // 2, (w, k)
        built += 1

    # 20 nest representations: dimension sum_{i >= j} d_i d_j
    built = 0
    while built < 20:
        g = make_graph(("scc_chain", "case_three")[built % 2])
        w = random_walk(rng, g, rng.randrange(7))
        lams = [turn(rng.random()) for _ in gn.nest_plan(g, w).blocks]
        rep, nest = gn.rho_nest(g, w, lams)
        ds = nest.block_sizes
        expected = sum(ds[i] * ds[j] for i in range(len(ds)) for j in range(i + 1))
        assert generated_dimension(rep) == expected, (w, ds)
        built += 1


def test_07_radical_triple_equivalence_and_annihilation():
    rng = random.Random(77)
    lambdas = (1.0, 1j, turn(1 / 7), turn(3 / 5))
    for _ in range(200):
        g = random_graph(rng, max_vertices=8, max_edges=16)
        every_edge_on_cycle = all(
            e.source in bfs_reachable(g, e.target) for e in g.edges
        )
        gens = gn.radical_edge_generators(g)
        semisimple = gn.is_transitive_in_components(g)
        assert semisimple == every_edge_on_cycle == (not gens)

        if not gens:
            continue
        # an element supported on paths through radical edges
        terms = []
        for name in gens[:3]:
            e = g.edge(name)
            path = g.path_from_traversal([name])
            terms.append((path, complex(rng.uniform(-2, 2), rng.uniform(-2, 2))))
        a = gn.FormalElement(g, terms)
        if a.is_zero:
            continue
        assert gn.is_in_radical(g, a)

        # sampled cycle representations annihilate it
        cycles = []
        seen = set()
        for e in g.edges:
            if len(cycles) >= 40:
                break
            if e.source not in bfs_reachable(g, e.target):
                continue
            closing = gn.complete_to_cycle(g, g.path_from_traversal([e.name]))
            u = g.path_from_traversal([e.name, *closing.traversal])
            if u.traversal in seen:
                continue
            seen.add(u.traversal)
            cycles.append(u)
        for u in cycles:
            for lam in lambdas:
                rep = gn.phi_cycle(g, u, lam)
                assert gn.operator_norm(gn.evaluate(rep, a)) <= 1e-10


def test_08_purity_defect_decay():
    # the two-loop scalar representation has defect exactly 2^-d
    p2 = make_graph("p2")
    hand = gn.FiniteRepresentation(
        p2, 1,
        {"v": np.array([[1.0 + 0j]])},
        {"a": np.array([[0.5 + 0j]]), "b": np.array([[0.5 + 0j]])},
    )
    for d in range(1, 9):
        assert abs(gn.purity_defect(hand, d) - 2.0 ** (-d)) <= 1e-12

    reps = [hand]
    for name, word in [
        ("p2", ["a", "b"]), ("p2", ["a", "a", "b"]), ("c3", ["e1", "e2", "e3"]),
        ("loop1", ["e"]), ("c2_loop", ["l"]),
        ("c6", ["e1", "e2", "e3", "e4", "e5", "e6"]),
    ]:
        g = make_graph(name)
        reps.append(gn.phi_cycle(g, g.path_from_traversal(word), turn(1 / 9)))
    rng = random.Random(88)
    for name in ("scc_chain", "case_three"):
        g = make_graph(name)
        designated = gn.designated_loops(g)
        w = random_walk(rng, g, 5, avoid=designated)
        plan = gn.upper_plan(g, w, designated)
        lams = [turn(t / 53) for t in rng.sample(range(53), len(plan.loop_positions))]
        reps.append(gn.psi_upper(g, w, lams))
        w2 = random_walk(rng, g, 5)
        lams = [turn(rng.random()) for _ in gn.nest_plan(g, w2).blocks]
        reps.append(gn.rho_nest(g, w2, lams)[0])
    reps.append(gn.truncated_left_regular(p2, 2))
    reps.append(gn.truncated_left_regular(make_graph("c3"), 3))

    for rep in reps:
        r = gn.row_operator_norm(list(rep.edge_images.values()))
        for d in range(1, 9):
            defect = gn.purity_defect(rep, d)
            assert defect <= r ** (2 * d) + 1e-9, (rep.graph, d, defect, r)


def test_09_classification_fixture_table():
    # (semisimple, strongly_semisimple, radical generators, ut separating,
    #  faithful irreducible, nest conditions (order, no-cycle, chain),
    #  nest satisfied, n-nest case, requires_infinite)
    expected = {
        "p2": (True, True, (), True, True, (True, True, True), True, "One", False),
        "c3": (True, True, (), False, False, (True, False, True), False, "None", False),
        "chain3": (False, False, ("t1", "t2"), True, False, (True, True, True), True, "None", True),
        "c2": (True, True, (), False, False, (True, False, True), False, "None", False),
        "c2_loops_both": (True, True, (), True, True, (True, True, True), True, "One", False),
        "disjoint_pair": (True, True, (), True, False, (False, True, True), False, "None", False),
        "case_three": (False, False, ("g", "e1"), True, False, (True, True, True), True, "Three", False),
        "parallel_chain": (False, False, ("e1", "e2"), True, False, (True, True, False), False, "None", False),
    }
    assert set(expected) == set(CLASSIFY_FIXTURES)
    for name, row in expected.items():
        r = gn.classify(make_graph(name))
        fn = r.faithful_nest
        got = (
            r.semisimple,
            r.strongly_semisimple,
            r.radical_generators,
            r.ut_separating,
            r.faithful_irreducible,
            (fn.quotient_totally_ordered, fn.no_cycle_component,
             fn.trivial_chain_interval),
            fn.satisfied,
            r.n_nest.case,
            r.n_nest.requires_infinite,
        )
        assert got == row, (name, got)


def test_10_cli_json_outputs_are_reproducible():
    p2 = str(FIXTURES / "p2.graph")
    scc = str(FIXTURES / "scc_chain.graph")
    elem = str(FIXTURES / "elem_p2.json")
    invocations = [
        ("classify", p2, "--json"),
        ("classify", scc, "--json"),
        ("rep", p2, "nnest", "--prefix-len", "5", "--seed", "7", "--json"),
        ("separate", p2, elem, "--family", "nest", "--json"),
        ("recover", p2, elem, "a,b", "--family", "nest"),
    ]
    for args in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "graphnest.cli", *args],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, args
        assert runs[0].stdout == runs[1].stdout, args
        json.loads(runs[0].stdout) if "--json" in args else None
