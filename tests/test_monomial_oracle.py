"""Monomial storage checked against dense k×k matrices.

Every ``FiniteRepresentation`` stores a vertex label per basis vector and a
weighted partial map per edge, and answers the relation checks, the
coisometry test, the purity defect and ``evaluate`` from those arrays.  The
oracles in ``exact_oracle`` build the same representations as dense
matrices from the family's layout (or the Fock basis) and compute the same
quantities with dense products, SVDs and eigenvalues.  On every corpus
graph and on 100 random graphs, for the cycle, nest, triangular, n-nest and
Fock families up to dimension 511, the dense views must equal the oracle's
matrices bit for bit, the oracle's validation must accept them, residuals
and the purity defect must agree within 1e-12 (relative past 1) with equal
verdicts, and ``evaluate`` must agree within 1e-12: the dense products
round complex products with fused multiply-adds, so they can differ from
the walk in the last place.  Random weighted partial permutations built
through the dense constructor, with weights past ½, go through the same
comparison.  The purity defect is compared at depths 1–6 up to dimension
63, while the oracle's dense path walk stays within its path budget.  The
schema-1 JSON that ``rep_to_json`` writes from the arrays must equal, byte
for byte, the JSON of the dense views encoded entry by entry and the text
``rep_to_json_text`` writes (also on graphs with names json must escape),
and read back to the same representation.
"""

import cmath
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphnest as gn
from conftest import GRAPH_TEXTS, make_graph, random_graph, random_nonzero_element, random_walk
from exact_oracle import (
    check_relations_dense,
    dense_fock,
    dense_from_layout,
    evaluate_dense,
    is_coisometric_dense,
    purity_defect_dense,
    rep_to_json_by_entries,
    validate_dense,
)

MAX_DIMENSION = 511
CLOSE = 1e-12
#: Surviving paths the dense purity oracle may walk per comparison.
PURITY_ORACLE_PATHS = 10_000


def _unit(rng):
    return cmath.exp(2j * cmath.pi * rng.random())


def _n_nest_dense(g, rep):
    """The oracle's matrices for an n-nest corner: its walk is read off the
    subdiagonal and its parameters off the designated loops' diagonal, and
    the triangular layout of that walk is filled densely."""
    designated = {x: g.loops_at(x)[0].name for x in g.vertices}
    k = rep.dimension
    walk = []
    for j in range(1, k):
        (name,) = [
            e for e in rep.edge_images
            if e not in designated.values() and rep.edge_images[e][j, j - 1] != 0
        ]
        walk.append(name)
    w = g.path_from_traversal(walk) if walk else g.vertex_path(g.vertices[rep.labels[0]])
    plan = gn.upper_plan(g, w, designated)
    lambdas = [
        2 * rep.edge_images[designated[plan.positions[j - 1]]][j - 1, j - 1]
        for j in plan.loop_positions
    ]
    return dense_from_layout(plan.layout, lambdas)


def _cases(rng, g, count, fock_limit):
    """``(label, representation, vertex_images, edge_images, interior)`` for
    ``count`` inputs of each family that applies to ``g``, with Fock depths
    up to dimension ``fock_limit``."""
    out = []
    for u in gn.all_cycles(g, 4)[:count]:
        lam = _unit(rng)
        ps, ss = dense_from_layout(gn.reps._cycle_layout(g, u), [lam])
        out.append(("phi", gn.phi_cycle(g, u, lam), ps, ss, None))
    for _ in range(count):
        w = random_walk(rng, g, 6)
        plan = gn.nest_plan(g, w)
        lams = [_unit(rng) for _ in plan.blocks]
        ps, ss = dense_from_layout(plan.layout, lams)
        out.append(("rho", gn.rho_nest(g, w, lams)[0], ps, ss, None))
    if gn.ut_separating_condition(g):
        designated = gn.designated_loops(g)
        for _ in range(count):
            w = random_walk(rng, g, 6, avoid=designated)
            plan = gn.upper_plan(g, w)
            lams = [_unit(rng) for _ in plan.loop_positions]
            ps, ss = dense_from_layout(plan.layout, lams)
            rep = gn.psi_upper(g, w, lams)
            out.append(("psi", rep, ps, ss, None))
            out.append(("psi reversed", gn.reverse_basis(rep), *_reversed(ps, ss), None))
    try:
        corners = [gn.n_nest_truncation(g, n, seed=n) for n in (0, 3, 7)[:count]]
    except gn.PreconditionError:
        corners = []
    for rep in corners:
        out.append(("nnest", rep, *_n_nest_dense(g, rep), None))
    for d in range(0, 9):
        try:
            gn.truncated_fock_basis(g, d, max_basis=fock_limit)
        except gn.LimitError:
            break
        rep = gn.truncated_left_regular(g, d)
        basis, ps, ss = dense_fock(g, d)
        assert rep.fock_basis == basis
        out.append(("fock", rep, ps, ss, basis.indices_of_length_at_most(d - 1)))
    return out


def _reversed(ps, ss):
    def flip(m):
        return m[::-1, ::-1].copy()

    return {x: flip(m) for x, m in ps.items()}, {e: flip(m) for e, m in ss.items()}


def _close(got, want):
    """Within 1e-12, relative to the value once it passes 1."""
    return abs(got - want) <= CLOSE * max(1.0, abs(want))


def _verdicts(residuals):
    return [all(v <= 1e-9 for v in r.values()) for r in residuals]


def _compare(rng, g, label, rep, ps, ss, interior, whole=True):
    """Compare one representation with its dense matrices; relations are
    compressed to ``interior`` (a random half when None), and measured
    uncompressed too when ``whole``."""
    k = rep.dimension
    where = (label, k)
    assert len(rep.vertex_images) == len(g.vertices)
    assert len(rep.edge_images) == len(g.edges)
    for x in g.vertices:
        assert np.array_equal(rep.vertex_images[x], ps[x]), where
    for e in g.edges:
        assert np.array_equal(rep.edge_images[e.name], ss[e.name]), where
    validate_dense(g, ps, ss)

    restricts = [interior or sorted(rng.sample(range(k), k // 2))]
    for restrict in [None] * whole + restricts:
        want = check_relations_dense(g, ps, ss, restrict)
        report = gn.check_relations(rep, restrict_interior=restrict)
        got = (
            report.vertex_orthogonality,
            report.edge_orthogonality,
            report.edge_isometry,
            report.range_bound,
        )
        for have, expected in zip(got, want):
            assert have.keys() == expected.keys(), where
            for key, value in expected.items():
                assert _close(have[key], value), (where, key, have[key], value)
        assert list(report.verdicts.values()) == _verdicts(want), where

    assert gn.is_coisometric(rep) == is_coisometric_dense(g, ss, k), where
    if k <= 63:
        for d in range(1, 7):
            try:
                want = purity_defect_dense(g, ss, k, d, max_paths=PURITY_ORACLE_PATHS)
            except gn.LimitError:
                break  # past here only the path walk, not the diagonal power, grows
            assert _close(gn.purity_defect(rep, d), want), (where, d)
    for _ in range(2 if k <= 63 else 1):
        a = random_nonzero_element(rng, g, max_terms=6, max_degree=4)
        assert np.allclose(
            gn.evaluate(rep, a), evaluate_dense(ps, ss, k, a), rtol=CLOSE, atol=CLOSE
        ), where


@pytest.mark.parametrize("name", sorted(GRAPH_TEXTS))
def test_monomial_storage_matches_dense_on_corpus(name):
    rng = random.Random(name)
    g = make_graph(name)
    # Dense relation checks cost |E|²·k³: the largest Fock spaces go to the
    # graphs with few edges.
    limit = MAX_DIMENSION if len(g.edges) <= 3 else 127
    for case in _cases(rng, g, 3, limit):
        _compare(rng, g, *case)


def test_monomial_storage_matches_dense_on_random_graphs():
    rng = random.Random(2024)
    families = set()
    for _ in range(100):
        g = random_graph(rng)
        for case in _cases(rng, g, 1, 31):
            families.add(case[0])
            _compare(rng, g, *case, whole=False)
    assert families == {"phi", "rho", "psi", "psi reversed", "nnest", "fock"}


def _random_monomial(rng, g):
    """Dense images of a random weighted partial permutation over ``g``:
    random labels (some positions unlabelled), and per edge a random
    injective map from some of its source's positions to its target's with
    weights in [-2, 2]², so sums of |w|² can pass 1."""
    k = rng.randint(1, 9)
    labels = [rng.choice(g.vertices + (None,)) for _ in range(k)]
    at = {x: [i for i, y in enumerate(labels) if y == x] for x in g.vertices}
    ps = {x: np.diag([1.0 + 0j if y == x else 0j for y in labels]) for x in g.vertices}
    ss = {}
    for e in g.edges:
        m = np.zeros((k, k), dtype=complex)
        cols, rows = at[e.source][:], at[e.target][:]
        rng.shuffle(rows)
        for col, row in zip(cols, rows):
            if rng.random() < 0.7:
                m[row, col] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ss[e.name] = m
    return gn.FiniteRepresentation(g, k, ps, ss), ps, ss


def test_dense_constructed_representations_match_dense():
    # weights beyond ½ exercise the range bound, coisometry and purity sums
    rng = random.Random(77)
    for _ in range(150):
        g = random_graph(rng, max_vertices=4, max_edges=8)
        rep, ps, ss = _random_monomial(rng, g)
        _compare(rng, g, "dense", rep, ps, ss, None)


def test_fock_depth_twelve_stays_monomial(p2):
    tracemalloc.start()
    try:
        rep = gn.truncated_left_regular(p2, 12)
        interior = rep.fock_basis.indices_of_length_at_most(11)
        report = gn.check_relations(rep, restrict_interior=interior)
        coisometric = gn.is_coisometric(rep)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.dimension == 8191
    assert report.is_partially_isometric
    assert not coisometric
    # one dense 8191×8191 complex image alone would take 1 GB
    assert peak < 64 * 2**20, peak


def _check_json(g, rep):
    # repr tells -0.0 from 0.0, which == does not
    text = json.dumps(gn.rep_to_json(rep), sort_keys=True)
    assert text == json.dumps(rep_to_json_by_entries(rep), sort_keys=True), repr(rep)
    assert gn.reps.rep_to_json_text(rep) == text, repr(rep)
    assert gn.rep_from_json(g, json.loads(text)) == rep, repr(rep)


@pytest.mark.parametrize("name", sorted(GRAPH_TEXTS))
def test_rep_json_is_the_dense_encoding_byte_for_byte_on_corpus(name):
    rng = random.Random(name)
    g = make_graph(name)
    reps = [case[1] for case in _cases(rng, g, 3, 127)]
    for u in gn.all_cycles(g, 4)[:1]:
        # ½·λ keeps a negative zero part here, which the JSON must keep
        for lam in (complex(-1, -0.0), complex(-0.0, 1)):
            rep = gn.phi_cycle(g, u, lam)
            assert np.signbit(np.concatenate([rep.weights.real, rep.weights.imag])).any()
            reps.append(rep)
    for rep in reps:
        _check_json(g, rep)


def test_rep_json_is_the_dense_encoding_byte_for_byte_on_random_graphs():
    # the random monomials have unlabelled positions and signed weights
    rng = random.Random(2025)
    for _ in range(60):
        g = random_graph(rng)
        for case in _cases(rng, g, 1, 31):
            _check_json(g, case[1])
        _check_json(g, _random_monomial(rng, g)[0])


#: Characters json.dumps escapes (quote, backslash, control and non-ASCII
#: ones), a slash, which it does not, and any other character.
ODD_CHARACTERS = st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f\u2028é😀'), st.characters())


@st.composite
def odd_named_graphs(draw):
    names = st.text(ODD_CHARACTERS, min_size=1, max_size=3)
    vertices = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    edge_names = draw(st.lists(names, max_size=7, unique=True))
    ends = st.sampled_from(vertices)
    return gn.DirectedGraph(vertices, [(e, draw(ends), draw(ends)) for e in edge_names])


@settings(deadline=None, max_examples=60)
@given(g=odd_named_graphs(), seed=st.integers(0, 2**32 - 1))
def test_rep_json_text_is_json_dumps_of_the_payload_on_odd_names(g, seed):
    rng = random.Random(seed)
    reps = [case[1] for case in _cases(rng, g, 1, 31)] + [_random_monomial(rng, g)[0]]
    for u in gn.all_cycles(g, 3)[:1]:
        # λ = −1 written with a negative zero part keeps it in ½·λ
        reps += [gn.phi_cycle(g, u, lam) for lam in (-1.0, complex(-1, -0.0))]
    for rep in reps:
        assert gn.reps.rep_to_json_text(rep) == json.dumps(gn.rep_to_json(rep), sort_keys=True)
