"""Coefficient recovery, separating witnesses, and radical membership."""

import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import graphnest as gn
from conftest import (
    loop_walk,
    make_graph,
    random_graph,
    random_nonzero_element,
    two_loop_chain_text,
)
from exact_oracle import (
    bfs_reachable,
    recover_irreducible_sampled,
    recover_nest_sampled,
    recover_upper_sampled,
)


def coefficient_of(a, w):
    for path, coeff in a.items():
        if path == w:
            return coeff
    return 0j


# -- single-coefficient recovery ----------------------------------------------------


def test_recover_irreducible_single_terms(p2):
    la = gn.FormalElement.single(p2, p2.path_from_traversal(["a"]))
    assert gn.recover_irreducible(p2, la, p2.path_from_traversal(["a"])) == pytest.approx(1.0)
    pv = gn.FormalElement.single(p2, p2.vertex_path("v"), 2.5 - 1j)
    assert gn.recover_irreducible(p2, pv, p2.vertex_path("v")) == pytest.approx(2.5 - 1j)


def test_recover_nest_single_crossing_edge():
    chain = make_graph("chain2")
    lt = gn.FormalElement.single(chain, chain.path_from_traversal(["t"]))
    assert gn.recover_nest(chain, lt, chain.path_from_traversal(["t"])) == pytest.approx(1.0)


def test_recover_upper_dwell_and_override(p2):
    aab = p2.path_from_traversal(["a", "a", "b"])
    a = gn.FormalElement(p2, [(aab, 0.5 - 0.25j), (p2.vertex_path("v"), 1.0)])
    assert gn.recover_upper(p2, a, aab) == pytest.approx(0.5 - 0.25j, abs=1e-10)
    got = gn.recover_upper(p2, a, aab, loop_choice={"v": "b"})
    assert got == pytest.approx(0.5 - 0.25j, abs=1e-10)


def test_recover_absent_path_gives_zero(p2):
    a = gn.FormalElement.single(p2, p2.path_from_traversal(["a", "b"]), 3.0)
    absent = p2.path_from_traversal(["b", "b"])
    assert abs(gn.recover_irreducible(p2, a, absent)) <= 1e-9
    assert abs(gn.recover_nest(p2, a, absent)) <= 1e-9
    assert abs(gn.recover_upper(p2, a, absent)) <= 1e-9


def test_recover_irreducible_needs_completable_path():
    chain = make_graph("chain2")
    lt = gn.FormalElement.single(chain, chain.path_from_traversal(["t"]))
    with pytest.raises(gn.PreconditionError):
        gn.recover_irreducible(chain, lt, chain.path_from_traversal(["t"]))


def test_recover_upper_needs_loops_on_cycles(c2):
    le = gn.FormalElement.single(c2, c2.path_from_traversal(["e"]))
    with pytest.raises(gn.PreconditionError):
        gn.recover_upper(c2, le, c2.path_from_traversal(["e"]))


@pytest.mark.parametrize("graph_name", ["p2", "c2_loops_both", "c3"])
def test_recover_irreducible_random_roundtrip(graph_name):
    rng = random.Random(hash(graph_name) % 1000)
    g = make_graph(graph_name)
    for _ in range(8):
        a = random_nonzero_element(rng, g, max_terms=6, max_degree=4)
        for path, coeff in a.items():
            got = gn.recover_irreducible(g, a, path)
            assert abs(got - coeff) <= 1e-8, (graph_name, path)


def test_recover_nest_random_roundtrip(scc_chain):
    rng = random.Random(7)
    for _ in range(8):
        a = random_nonzero_element(rng, scc_chain, max_terms=6, max_degree=5)
        for path, coeff in a.items():
            assert abs(gn.recover_nest(scc_chain, a, path) - coeff) <= 1e-8


def test_recover_upper_random_roundtrip(scc_chain):
    rng = random.Random(11)
    for _ in range(8):
        a = random_nonzero_element(rng, scc_chain, max_terms=6, max_degree=5)
        for path, coeff in a.items():
            assert abs(gn.recover_upper(scc_chain, a, path) - coeff) <= 1e-8


def test_recover_families_agree_on_transitive_graph(p2):
    rng = random.Random(23)
    for _ in range(5):
        a = random_nonzero_element(rng, p2, max_terms=5, max_degree=4)
        for path, _ in a.items():
            irr = gn.recover_irreducible(p2, a, path)
            nest = gn.recover_nest(p2, a, path)
            upper = gn.recover_upper(p2, a, path)
            assert abs(irr - nest) <= 1e-9
            assert abs(irr - upper) <= 1e-9


def test_recovery_grid_oversampling_is_exact(scc_chain, p2):
    # the sampling oracle agrees with recovery on any grid refinement
    rng = random.Random(31)
    a = random_nonzero_element(rng, scc_chain, max_terms=6, max_degree=5)
    for path, _ in a.items():
        dense = recover_nest_sampled(scc_chain, a, path, oversample=2)
        assert abs(gn.recover_nest(scc_chain, a, path) - dense) <= 1e-10
        dense = recover_upper_sampled(scc_chain, a, path, oversample=2)
        assert abs(gn.recover_upper(scc_chain, a, path) - dense) <= 1e-10
    b = random_nonzero_element(rng, p2, max_terms=5, max_degree=4)
    for path, _ in b.items():
        dense = recover_irreducible_sampled(p2, b, path, oversample=3)
        assert abs(gn.recover_irreducible(p2, b, path) - dense) <= 1e-10


def test_recovery_rejects_bad_oversample(p2):
    a = gn.FormalElement.single(p2, p2.vertex_path("v"))
    with pytest.raises(ValueError):
        recover_nest_sampled(p2, a, p2.vertex_path("v"), oversample=0)


def test_longest_path_below_the_cap_recovers(p2):
    # 2^-1022 is the smallest normal double
    w = p2.path_from_traversal(["a"] * 1022)
    a = gn.FormalElement.single(p2, w)
    for recover in (gn.recover_irreducible, gn.recover_nest, gn.recover_upper):
        assert recover(p2, a, w) == pytest.approx(1.0, abs=1e-9)
    for family in ("irreducible", "nest", "upper"):
        wit = gn.separate(p2, a, family)
        assert wit.frequency == (1022,)
        assert abs(abs(wit.entry_value) * 2.0 ** 1022 - 1.0) <= 1e-9
        assert wit.value >= abs(wit.entry_value) > 0


@pytest.mark.parametrize("coeff", [1e-300, 1e-20, -3.5e-308j])
def test_tiny_coefficients_on_long_paths_recover_exactly(p2, coeff):
    # c * 2^-1000 leaves the normal doubles; the pairing keeps c apart
    w = p2.path_from_traversal(["a"] * 1000)
    a = gn.FormalElement(p2, [(w, coeff), (p2.path_from_traversal(["b"]), 1.0)])
    for recover in (gn.recover_irreducible, gn.recover_nest, gn.recover_upper):
        assert recover(p2, a, w) == coeff


@pytest.mark.parametrize("coeff", [1e-300, 1e-20])
def test_subnormal_witness_entry_raises_limit_error(p2, coeff):
    a = gn.FormalElement.single(p2, p2.path_from_traversal(["a"] * 1000), coeff)
    for family in ("irreducible", "nest", "upper"):
        with pytest.raises(gn.LimitError, match="below the smallest normal double"):
            gn.separate(p2, a, family)
    # a coefficient that keeps the entry normal still separates
    a = gn.FormalElement.single(p2, p2.path_from_traversal(["a"] * 1000), 1e-5)
    for family in ("irreducible", "nest", "upper"):
        wit = gn.separate(p2, a, family)
        assert wit.value >= abs(wit.entry_value) >= sys.float_info.min


def test_separation_grid_past_the_cap_raises_limit_error():
    g = gn.parse_graph(two_loop_chain_text(21))
    w = g.path_from_traversal(loop_walk(21))
    a = gn.FormalElement.single(g, w)
    for family in ("nest", "upper"):
        with pytest.raises(
            gn.LimitError,
            match="2097152 points exceeds the cap 1048576 set by recovery.MAX_GRID_POINTS",
        ):
            gn.separate(g, a, family)
    # recovery reads one coefficient and samples no grid
    assert gn.recover_nest(g, a, w) == 1.0
    assert gn.recover_upper(g, a, w) == 1.0


def test_separation_grid_at_the_cap_separates():
    g = gn.parse_graph(two_loop_chain_text(20))
    a = gn.FormalElement.single(g, g.path_from_traversal(loop_walk(20)))
    assert gn.recovery.MAX_GRID_POINTS == 2 ** 20
    wit = gn.separate(g, a, "nest")
    assert wit.frequency == (1,) * 20
    assert wit.value >= abs(wit.entry_value) > 0


def test_paths_past_the_cap_raise_limit_error(p2):
    w = p2.path_from_traversal(["a"] * 1024)
    a = gn.FormalElement.single(p2, w)
    for recover in (gn.recover_irreducible, gn.recover_nest, gn.recover_upper):
        with pytest.raises(gn.LimitError, match="1024.*1022"):
            recover(p2, a, w)
    for family in ("irreducible", "nest", "upper"):
        with pytest.raises(gn.LimitError, match="1024.*1022"):
            gn.separate(p2, a, family)


@st.composite
def walks_near_the_cap(draw):
    """A power of a closed walk of at most 4 edges on p2 or c2_loops_both,
    1010 to 1035 edges long, with a coefficient for it."""
    g = make_graph(draw(st.sampled_from(["p2", "c2_loops_both"])))
    word = draw(st.sampled_from(gn.all_cycles(g, 4))).traversal
    n = draw(st.integers(-(-1010 // len(word)), 1035 // len(word)))
    coeff = complex(draw(st.floats(0.5, 2.0)), draw(st.floats(-2.0, 2.0)))
    return g, word, g.path_from_traversal(word * n), coeff


@settings(deadline=None, max_examples=40)
@given(walks_near_the_cap())
def test_walks_near_the_length_cap(case):
    g, word, w, coeff = case
    a = gn.FormalElement(g, [(w, coeff), (g.path_from_traversal(word), 1.0)])
    for recover in (gn.recover_irreducible, gn.recover_nest, gn.recover_upper):
        if w.length <= gn.recovery.MAX_PATH_LENGTH:
            assert abs(recover(g, a, w) - coeff) <= 1e-8 * abs(coeff)
        else:
            with pytest.raises(gn.LimitError, match="recovery.MAX_PATH_LENGTH"):
                recover(g, a, w)
    single = gn.FormalElement.single(g, w, coeff)
    # A walk on no designated loop keeps every edge in the triangular
    # skeleton, so its witness is |w|+1-dimensional: at this length the
    # evaluation and SVD take about a second.  The 70-edge case below
    # covers that branch.
    avoids_loops = not set(word) & set(gn.designated_loops(g).values())
    for family in ("irreducible", "nest") + (() if avoids_loops else ("upper",)):
        try:
            wit = gn.separate(g, single, family)
        except gn.LimitError:
            continue
        assert wit.value >= abs(wit.entry_value) > 0


def test_upper_witness_with_more_parameters_than_array_axes(p2):
    # 71 diagonal parameters, none of them raised: past numpy's 64 axes
    a = gn.FormalElement.single(p2, p2.path_from_traversal(["b"] * 70))
    wit = gn.separate(p2, a, "upper")
    assert wit.representation.dimension == 71
    assert wit.witness_point == (1 + 0j,) * 71
    assert wit.value >= abs(wit.entry_value) > 0


# -- separating witnesses -------------------------------------------------------------


def test_separate_vertex_projection(p2):
    pv = gn.FormalElement.single(p2, p2.vertex_path("v"))
    wit = gn.separate(p2, pv, "nest")
    assert wit.family == "nest"
    assert wit.path == p2.vertex_path("v")
    assert wit.representation.dimension == 1
    assert wit.value == pytest.approx(1.0)
    assert wit.entry_value == pytest.approx(1.0 + 0j)
    assert wit.reevaluate(pv) == pytest.approx(wit.value)


def test_separate_picks_minimal_support_path(p2):
    a = gn.FormalElement(p2, [
        (p2.path_from_traversal(["b"]), 2.0),
        (p2.path_from_traversal(["a"]), 1.0),
    ])
    wit = gn.separate(p2, a, "nest")
    assert wit.path == p2.path_from_traversal(["a"])


def test_separate_binomial_all_families(p2):
    u = p2.path_from_traversal(["a", "b"])
    a = gn.FormalElement(p2, [(u, 1.0), (gn.power(u, 2), -0.75 + 0.5j)])
    for family in ("irreducible", "nest", "upper"):
        wit = gn.separate(p2, a, family)
        assert wit.value >= 1e-10
        assert abs(wit.entry_value) > 0
        assert abs(wit.entry_value) <= wit.value + 1e-12
        assert abs(wit.reevaluate(a) - wit.value) <= 1e-8
        assert wit.entry(a) == pytest.approx(wit.entry_value, abs=1e-10)


def test_separate_random_elements(scc_chain):
    rng = random.Random(5)
    c2l = make_graph("c2_loops_both")
    for g, families in (
        (scc_chain, ("nest", "upper")),
        (c2l, ("irreducible", "nest", "upper")),
    ):
        for _ in range(6):
            a = random_nonzero_element(rng, g, max_terms=5, max_degree=4)
            for family in families:
                wit = gn.separate(g, a, family)
                assert wit.value >= 1e-10
                assert abs(wit.reevaluate(a) - wit.value) <= 1e-8


def test_separate_witness_structure(p2):
    a = gn.FormalElement.single(p2, p2.path_from_traversal(["a", "b"]))
    wit = gn.separate(p2, a, "nest")
    payload = wit.to_json()
    assert set(payload) == {
        "family", "path", "dimension", "nest_blocks", "row", "col",
        "witness_point", "frequency", "entry_value", "value",
    }
    assert payload["family"] == "nest"
    assert len(payload["witness_point"]) == len(payload["frequency"])


def test_separate_errors(p2, c2):
    with pytest.raises(gn.EmptyInputError):
        gn.separate(p2, gn.FormalElement.zero(p2), "nest")
    chain = make_graph("chain2")
    lt = gn.FormalElement.single(chain, chain.path_from_traversal(["t"]))
    with pytest.raises(gn.PreconditionError):
        gn.separate(chain, lt, "irreducible")
    le = gn.FormalElement.single(c2, c2.path_from_traversal(["e"]))
    with pytest.raises(gn.PreconditionError):
        gn.separate(c2, le, "upper")
    with pytest.raises(ValueError):
        gn.separate(p2, lt.__class__.single(p2, p2.vertex_path("v")), "bogus")


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_each_family_separates_exactly_where_the_paper_says(seed):
    # irreducible iff every edge lies on a cycle (transitive in components);
    # upper iff every vertex on a cycle carries a loop; nest on every graph
    rng = random.Random(seed)
    g = random_graph(rng, max_vertices=6, max_edges=10)
    a = random_nonzero_element(rng, g, max_terms=4, max_degree=4)
    reach = {x: bfs_reachable(g, x) for x in g.vertices}
    on_cycle = {e.source for e in g.edges if e.source in reach[e.target]}
    available = {
        "irreducible": all(e.source in reach[e.target] for e in g.edges),
        "upper": on_cycle <= {e.source for e in g.edges if e.source == e.target},
        "nest": True,
    }
    for family, separates in available.items():
        if separates:
            wit = gn.separate(g, a, family)
            assert wit.value >= abs(wit.entry_value) > 0
        else:
            with pytest.raises(gn.PreconditionError):
                gn.separate(g, a, family)


# -- radical membership ----------------------------------------------------------------


def test_radical_edge_generators(scc_chain, p2):
    assert gn.radical_edge_generators(scc_chain) == ("e", "f", "h")
    assert gn.radical_edge_generators(p2) == ()
    chain = make_graph("chain2")
    assert gn.radical_edge_generators(chain) == ("t",)


def test_is_in_radical_examples(scc_chain):
    le = gn.FormalElement.single(scc_chain, scc_chain.path_from_traversal(["e"]))
    assert gn.is_in_radical(scc_chain, le)
    la = gn.FormalElement.single(scc_chain, scc_chain.path_from_traversal(["a"]))
    assert not gn.is_in_radical(scc_chain, la)
    assert gn.is_in_radical(scc_chain, gn.FormalElement.zero(scc_chain))
    mixed = le + la
    assert not gn.is_in_radical(scc_chain, mixed)


def test_is_in_radical_matches_support_criterion(scc_chain):
    # membership == every support path uses at least one edge on no cycle
    rng = random.Random(13)
    on_cycle = {
        e.name: e.source in bfs_reachable(scc_chain, e.target) for e in scc_chain.edges
    }
    for _ in range(20):
        a = random_nonzero_element(rng, scc_chain, max_terms=4, max_degree=4)
        expected = all(
            not path.is_vertex
            and any(not on_cycle[name] for name in path.traversal)
            for path, _ in a.items()
        )
        assert gn.is_in_radical(scc_chain, a) == expected


def test_radical_elements_vanish_on_cycle_representations(scc_chain):
    # an off-cycle edge maps to the zero matrix in every cycle representation,
    # so radical elements evaluate to exactly zero
    le = gn.FormalElement.single(scc_chain, scc_chain.path_from_traversal(["e"]), 2.0 - 1j)
    deeper = gn.FormalElement.single(
        scc_chain, scc_chain.path_from_traversal(["a", "e", "c"]), 1j
    )
    a = le + deeper
    assert gn.is_in_radical(scc_chain, a)
    for word in (["a"], ["b"], ["a", "b"], ["c"], ["d"]):
        u = scc_chain.path_from_traversal(word)
        rep = gn.phi_cycle(scc_chain, u, 1j)
        assert gn.operator_norm(gn.evaluate(rep, a)) == 0.0
