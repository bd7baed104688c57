"""Paths by length, checked against the enumerations they replace.

The truncated Fock basis and the free words of the naturally ordered nest
corner are both lists of paths ordered by length, then by edge declaration
order.  ``exact_oracle`` builds them the older way, the Fock basis vertex by
vertex with one final sort and the free words by a walk that sorts each
length.  The package must build the same Fock bases at depths 0–3 and the
same n-nest corners (``==`` on the representation) at every tested prefix
length, on the corpus and on random graphs whose edges are declared in
shuffled order, so that one-edge paths out of a later vertex can be declared
first.
"""

import random

import pytest

import graphnest as gn
from conftest import GRAPH_TEXTS, make_graph, random_graph
from exact_oracle import fock_basis_per_vertex, n_nest_by_free_word_walk

PREFIX_LENGTHS = (0, 1, 2, 5, 9, 14)


def _case_one_graph(rng):
    """A loop at every vertex, a Hamiltonian cycle and random extra edges,
    declared in shuffled order: strongly transitive, so case One."""
    n = rng.randint(1, 6)
    edges = [(f"l{i}", i, i) for i in range(n)]
    edges += [(f"h{i}", i, (i + 1) % n) for i in range(n)]
    edges += [(f"x{j}", rng.randrange(n), rng.randrange(n)) for j in range(rng.randint(0, 6))]
    rng.shuffle(edges)
    lines = [f"vertex v{i}" for i in range(n)]
    lines += [f"edge {name} v{s} v{t}" for name, s, t in edges]
    return gn.parse_graph("\n".join(lines) + "\n")


CASE_ONE_CORPUS = [
    name for name in GRAPH_TEXTS if gn.check_n_nest_case(make_graph(name)).case == "One"
]


def _same_corners(g, seed):
    for prefix_len in PREFIX_LENGTHS:
        rep = gn.n_nest_truncation(g, prefix_len, seed)
        assert rep == n_nest_by_free_word_walk(g, prefix_len, seed), (prefix_len, seed)
        assert rep.dimension == prefix_len + 1


@pytest.mark.parametrize("name", CASE_ONE_CORPUS)
def test_n_nest_corner_matches_the_free_word_walk_on_corpus(name):
    _same_corners(make_graph(name), seed=3)


def test_n_nest_corner_matches_the_free_word_walk_on_random_case_one_graphs():
    rng = random.Random(909)
    for _ in range(300):
        g = _case_one_graph(rng)
        assert gn.check_n_nest_case(g).case == "One"
        _same_corners(g, seed=rng.randrange(1000))


@pytest.mark.parametrize("name", sorted(GRAPH_TEXTS))
def test_fock_basis_matches_the_per_vertex_enumeration_on_corpus(name):
    g = make_graph(name)
    for depth in range(4):
        assert gn.truncated_fock_basis(g, depth).paths == fock_basis_per_vertex(g, depth)


def test_fock_basis_matches_the_per_vertex_enumeration_on_random_graphs():
    rng = random.Random(808)
    for _ in range(300):
        g = random_graph(rng)
        for depth in range(4):
            assert gn.truncated_fock_basis(g, depth).paths == fock_basis_per_vertex(g, depth)


def test_fock_basis_cap_counts_every_path(p2):
    assert gn.truncated_fock_basis(p2, 2, max_basis=7).dimension == 7
    with pytest.raises(gn.LimitError, match="cap of 6 paths"):
        gn.truncated_fock_basis(p2, 2, max_basis=6)
    three = gn.parse_graph("vertex x\nvertex y\nvertex z\n")
    assert gn.truncated_fock_basis(three, 4, max_basis=3).dimension == 3
    with pytest.raises(gn.LimitError, match="cap of 2 paths"):
        gn.truncated_fock_basis(three, 0, max_basis=2)


def test_fock_basis_limit_error_states_the_count_the_depth_needs(p2):
    loop1 = gn.parse_graph("vertex v\nedge a v v\n")
    chain = gn.parse_graph("vertex A\nvertex B\nedge t A B\n")
    cases = [
        (p2, 3, 5, "depth 3 has 15 paths, over the cap of 5 paths"),
        (p2, 14, 20_000, "depth 14 has 32767 paths, over the cap of 20000 paths"),
        # an acyclic graph runs out of paths whatever the depth
        (chain, 10**9, 2, "depth 1000000000 has 3 paths, over the cap of 2 paths"),
        (loop1, 20, 20, "depth 20 has 21 paths, over the cap of 20 paths"),
        # past max_basis levels, or max_basis² paths, the count stops early
        (loop1, 10**9, 20, "depth 1000000000 has more than 21 paths"),
        (p2, 10**9, 20_000, "depth 1000000000 has more than 536870911 paths"),
    ]
    for g, depth, cap, message in cases:
        with pytest.raises(gn.LimitError, match=message + ".*max_basis \\(--max-basis\\)"):
            gn.truncated_fock_basis(g, depth, max_basis=cap)
    assert gn.truncated_fock_basis(loop1, 19, max_basis=20).dimension == 20


def test_free_word_cap_counts_the_words_of_every_length(p2, monkeypatch):
    # without its designated loop a, p2 has one free word per length (b, bb,
    # …), and the vertex: a walk of 5 edges reads v, b, bb and bbb
    monkeypatch.setattr(gn.reps, "MAX_FREE_WORDS", 4)
    assert gn.n_nest_truncation(p2, 5, 0).dimension == 6
    monkeypatch.setattr(gn.reps, "MAX_FREE_WORDS", 3)
    # bbb is needed, and the count of length 3 comes before its words
    message = "to length 3 reaches 4 paths, over the cap of 3 paths set by reps.MAX_FREE_WORDS"
    with pytest.raises(gn.LimitError, match=message):
        gn.n_nest_truncation(p2, 5, 0)


def test_enumerate_paths_counts_before_it_enumerates(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated past the cap")

    three = gn.parse_graph("vertex v\nedge a v v\nedge b v v\nedge c v v\n")
    wide = gn.parse_graph("vertex v\n" + "".join(f"edge l{i} v v\n" for i in range(1000)))
    monkeypatch.setattr(gn.graphs, "_levels", no_enumeration)
    cases = [
        # 1 + 3 + … + 3^12 paths out of v
        (three, 12, "reaches 797161 paths"),
        # past MAX_ENUM_PATHS² paths the count stops
        (wide, 12, "reaches more than 1001001001001 paths"),
    ]
    for g, max_len, size in cases:
        message = f"from 'v' to length {max_len} {size}, over the cap of 200000 paths set by graphs.MAX_ENUM_PATHS"
        with pytest.raises(gn.LimitError, match=message):
            gn.enumerate_paths(g, "v", "v", max_len)
    monkeypatch.undo()
    # to length 10 the 88573 paths fit under the cap
    assert len(gn.enumerate_paths(three, "v", "v", 10)) == (3**11 - 1) // 2
