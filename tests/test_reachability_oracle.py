"""Condensation reachability, radical membership and the faithful-nest
conditions, checked against plain breadth-first search, and the n-nest case
analysis, checked against a chain found by walking it.

The large graphs have more than 64 strongly connected components, and their
vertices are declared in shuffled order, so component indices (ordered by
first-declared vertex) disagree with the topological order.
"""

import hashlib
import json
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import graphnest as gn
from conftest import GRAPH_TEXTS, random_graph, random_walk
from exact_oracle import (
    component_by_definition,
    condensation_by_names,
    faithful_nest_by_pairs,
    n_nest_case_by_chain_walk,
    reach_table,
)


def _component(rng, tag, kind):
    """Vertices and internal edges of one planted component."""
    if kind == "trivial":
        return [f"{tag}a"], []
    if kind == "loop":
        return [f"{tag}a"], [(f"{tag}l", f"{tag}a", f"{tag}a")]
    if kind == "two_loops":
        return [f"{tag}a"], [(f"{tag}l{i}", f"{tag}a", f"{tag}a") for i in range(2)]
    size = rng.randint(2, 3)
    verts = [f"{tag}{i}" for i in range(size)]
    edges = [(f"{tag}c{i}", verts[i], verts[(i + 1) % size]) for i in range(size)]
    if kind == "chord":
        edges.append((f"{tag}x", verts[1], verts[0]))
    return verts, edges


def planted_chain(rng, count, linked=True):
    """Components in a planted order, each joined to the next by one edge,
    with a few forward shortcuts; ``linked=False`` drops one link, so the
    quotient is no longer totally ordered.  The trivial components form one
    block, lie scattered, or are absent.  A block may get a detour: a
    looped component entered from one trivial vertex and leaving to a later
    one, so it lies between trivial components."""
    layout = rng.choice(["block_end", "block_start", "block_middle", "scattered", "none"])
    start = {"block_end": count - 8, "block_start": 0, "block_middle": count // 2}.get(layout)
    kinds = []
    for i in range(count):
        if layout == "scattered":
            trivial = rng.random() < 0.3
        else:
            trivial = start is not None and start <= i < start + 8
        kinds.append("trivial" if trivial else rng.choice(["loop", "two_loops", "cycle", "chord"]))
    comps = [_component(rng, f"k{i}_", kind) for i, kind in enumerate(kinds)]
    vertices = [v for verts, _ in comps for v in verts]
    edges = [e for _, internal in comps for e in internal]
    dropped = -1 if linked else rng.randrange(count - 1)
    for i in range(count - 1):
        if i != dropped:
            edges.append((f"j{i}", rng.choice(comps[i][0]), rng.choice(comps[i + 1][0])))
    for n in range(rng.randint(0, 4)):
        i = rng.randrange(count - 2)
        j = rng.randrange(i + 2, count)
        if not (i < dropped < j):
            edges.append((f"s{n}", rng.choice(comps[i][0]), rng.choice(comps[j][0])))
    if start is not None and rng.random() < 0.4:
        i = rng.randrange(start, start + 7)
        j = rng.randrange(i + 1, start + 8)
        vertices.append("detour")
        edges += [("dl", "detour", "detour"), ("din", comps[i][0][0], "detour"),
                  ("dout", "detour", comps[j][0][0])]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return gn.DirectedGraph(vertices, edges)


def planted_core_chain(rng):
    """A core of looped vertices on one cycle feeding a chain of bare
    vertices; either part may be empty.  Each perturbation, applied at
    random, may break the naturally ordered nest case: a dropped loop, a
    parallel or shortcut chain edge, an edge back into the core, a dropped
    chain link, or the feed entering the chain past its head."""
    core = [f"c{i}" for i in range(rng.randint(0, 3))]
    chain = [f"x{j}" for j in range(rng.randint(0 if core else 1, 6))]
    edges = [(f"l{i}", c, c) for i, c in enumerate(core)]
    if len(core) == 1:
        edges.append(("l1", core[0], core[0]))
    if len(core) > 1:
        edges += [(f"r{i}", c, core[(i + 1) % len(core)]) for i, c in enumerate(core)]
    edges += [(f"t{j}", a, b) for j, (a, b) in enumerate(zip(chain, chain[1:]))]
    if core and chain:
        edges.append(("feed", rng.choice(core), chain[0]))

    def maybe():
        return rng.random() < 0.12

    if core and maybe():
        edges.remove(edges[rng.randrange(len(core))])
    if len(chain) > 1 and maybe():
        edges.append(("twin", chain[0], chain[1]))
    if len(chain) > 2 and maybe():
        j = rng.randrange(len(chain) - 2)
        edges.append(("skip", chain[j], chain[rng.randrange(j + 2, len(chain))]))
    if core and chain and maybe():
        edges.append(("back", rng.choice(chain), rng.choice(core)))
    if len(chain) > 1 and maybe():
        edges = [e for e in edges if e[0] != f"t{rng.randrange(len(chain) - 1)}"]
    if core and len(chain) > 1 and maybe():
        edges.append(("late", rng.choice(core), rng.choice(chain[1:])))
    vertices = core + chain
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return gn.DirectedGraph(vertices, edges)


def random_dag_with_cycles(rng, n=150):
    """Sparse forward edges over a random vertex order, plus a few loops and
    short back edges that close small cycles."""
    order = [f"v{i}" for i in range(n)]
    rng.shuffle(order)
    edges = []
    for i in range(n):
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(i, min(n, i + 12))
            if j > i:
                edges.append((order[i], order[j]))
        if rng.random() < 0.1:
            edges.append((order[i], order[i]))
        if rng.random() < 0.05 and i >= 2:
            edges.append((order[i], order[i - rng.randint(1, 2)]))
    return gn.DirectedGraph(
        sorted(order), [(f"e{k}", s, t) for k, (s, t) in enumerate(edges)]
    )


def _check_reachability(g, table):
    cond = gn.condensation(g)
    comp = cond.vertex_component
    for x in g.vertices:
        for y in g.vertices:
            expected = y in table[x]
            assert gn.reaches(g, x, y) == expected, (x, y)
            assert cond.component_reaches(comp[x], comp[y]) == expected, (x, y)
    every_edge_on_cycle = all(e.source in table[e.target] for e in g.edges)
    assert gn.is_transitive_in_components(g) == every_edge_on_cycle
    for c in cond.components:
        members, cls = component_by_definition(g, table, c.vertices[0])
        assert (set(c.vertices), c.component_class.value) == (members, cls)


def _check_radical(rng, g, table):
    for _ in range(10):
        terms = [(random_walk(rng, g, 6), 1.0 + 0j) for _ in range(rng.randint(1, 3))]
        a = gn.FormalElement(g, terms)
        expected = all(p.source not in table[p.target] for p in a.support)
        assert gn.is_in_radical(g, a) == expected


def _check_faithful_nest(g):
    report = gn.classify(g).faithful_nest
    total, chain = faithful_nest_by_pairs(g)
    assert report.quotient_totally_ordered == total
    assert report.trivial_chain_interval == chain
    return total, chain


def _check_n_nest(g):
    report = gn.check_n_nest_case(g)
    outcome = (report.case, report.requires_infinite)
    assert outcome == n_nest_case_by_chain_walk(g)
    return outcome


def test_small_random_graphs_agree_with_bfs():
    rng = random.Random(2004)
    for _ in range(300):
        g = random_graph(rng)
        table = reach_table(g)
        _check_reachability(g, table)
        _check_radical(rng, g, table)
        _check_faithful_nest(g)
        _check_n_nest(g)


def test_planted_chains_agree_with_bfs():
    rng = random.Random(1972)
    verdicts = set()
    for trial in range(24):
        g = planted_chain(rng, rng.randint(66, 130), linked=trial % 4 != 3)
        assert len(gn.condensation(g).components) > 64
        table = reach_table(g)
        _check_reachability(g, table)
        _check_radical(rng, g, table)
        verdicts.add(_check_faithful_nest(g))
        _check_n_nest(g)
    # both conditions came out both ways, so neither check is vacuous here
    assert {t for t, _ in verdicts} == {True, False}
    assert {c for _, c in verdicts} == {True, False}


def test_random_dags_with_many_components_agree_with_bfs():
    rng = random.Random(64)
    for _ in range(6):
        g = random_dag_with_cycles(rng)
        assert len(gn.condensation(g).components) > 64
        table = reach_table(g)
        _check_reachability(g, table)
        _check_radical(rng, g, table)
        _check_faithful_nest(g)
        _check_n_nest(g)


def test_planted_cores_and_chains_agree_with_the_chain_walk():
    rng = random.Random(3)
    outcomes = Counter(_check_n_nest(planted_core_chain(rng)) for _ in range(600))
    # every case occurred, so no branch of the analysis goes unchecked
    assert set(outcomes) == {("One", False), ("Three", False), ("None", True), ("None", False)}


def test_condensation_is_computed_once_and_read_only():
    g = planted_chain(random.Random(5), 70)
    cond = gn.condensation(g)
    assert gn.condensation(g) is cond
    with pytest.raises(TypeError):
        cond.vertex_component[g.vertices[0]] = 0
    # an equal graph built separately gets an equal condensation of its own
    twin = gn.DirectedGraph(g.vertices, [(e.name, e.source, e.target) for e in g.edges])
    assert gn.condensation(twin) == cond
    # the quotient is kept as its edges, one sorted tuple of successors each
    assert type(cond.successors) is tuple
    assert all(type(s) is tuple and list(s) == sorted(set(s)) for s in cond.successors)
    comp = cond.vertex_component
    pairs = {(comp[e.source], comp[e.target]) for e in cond.quotient_edges}
    assert {(i, j) for i, s in enumerate(cond.successors) for j in s} == pairs


def _one_loop_chain(n):
    """n vertices, each with a loop and an edge to the next: n components."""
    return gn.DirectedGraph(
        [f"x{i}" for i in range(n)],
        [(f"l{i}", f"x{i}", f"x{i}") for i in range(n)]
        + [(f"e{i}", f"x{i}", f"x{i + 1}") for i in range(n - 1)],
    )


def _condensation_peak_bytes(g):
    tracemalloc.start()
    try:
        gn.condensation(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_condensation_memory_grows_linearly():
    small, large = (_condensation_peak_bytes(_one_loop_chain(n)) for n in (10_000, 20_000))
    # about 1 kB a vertex; a transitive closure of the quotient, one bit per
    # pair of components, took 23 MB at 10^4 and grew 3.1x to 2*10^4
    assert small < 15e6
    assert large < 2.1 * small


# -- the int core against the name-keyed reference ------------------------------------

CONDENSATION_FIELDS = (
    "components", "vertex_component", "quotient_edges",
    "topological_order", "successors", "rank",
)


def _check_against_reference(g):
    got, want = gn.condensation(g), condensation_by_names(g)
    for name in CONDENSATION_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
        assert type(getattr(got, name)) is type(getattr(want, name)), name
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    # classify reads its component list off the int core, not the objects
    assert gn.classify(g).to_json()["graph"]["components"] == [
        {"vertices": list(c.vertices), "class": c.component_class.value,
         "loop_multiplicity": c.loop_multiplicity}
        for c in want.components
    ]


@st.composite
def shuffled_graphs(draw):
    """Random multigraphs with loops and parallel edges, their vertices and
    edges declared in a shuffled order."""
    n = draw(st.integers(1, 12))
    ends = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=30))
    vertices = draw(st.permutations([f"v{i}" for i in range(n)]))
    edges = draw(st.permutations([(f"e{k}", f"v{s}", f"v{t}") for k, (s, t) in enumerate(pairs)]))
    return gn.DirectedGraph(vertices, edges)


@settings(deadline=None, max_examples=300)
@given(shuffled_graphs())
def test_condensation_agrees_with_the_name_keyed_reference(g):
    _check_against_reference(g)


def test_condensation_agrees_with_the_reference_on_planted_chains():
    rng = random.Random(1972)
    for trial in range(24):
        g = planted_chain(rng, rng.randint(66, 130), linked=trial % 4 != 3)
        _check_against_reference(g)


def test_no_condensation_outlives_its_graph():
    text = gn.format_graph(planted_chain(random.Random(5), 70))
    first, second = (gn.condensation(gn.parse_graph(text)) for _ in range(2))
    assert first is not second
    assert first == second


CLASSIFY_JSON_SHA256 = "d61a2008ce3887216ca40746859ae7de685182a1e49923cd48fe6a6e5b0bd3bf"


def test_classify_json_over_the_oracle_graphs_is_unchanged():
    """The corpus, 300 random graphs, 24 planted chains and 100 planted
    cores with chains: the sha256 of their classification JSON, as written
    before the graphs had an int core."""
    rng = random.Random(1972)
    graphs = [gn.parse_graph(text) for text in GRAPH_TEXTS.values()]
    graphs += [random_graph(random.Random(2024 + k)) for k in range(300)]
    graphs += [planted_chain(rng, rng.randint(66, 130), linked=k % 4 != 3) for k in range(24)]
    graphs += [planted_core_chain(rng) for _ in range(100)]
    reports = json.dumps([gn.classify(g).to_json() for g in graphs], sort_keys=True)
    assert hashlib.sha256(reports.encode()).hexdigest() == CLASSIFY_JSON_SHA256

