"""Segments cut from a checked walk, against segments checked one by one.

``decompose_path`` checks its walk once and cuts the segments out of it
without checking them again; the nest and irreducible layouts complete each
segment to a cycle the same way.  Here every segment must still pass
``validate_path``, the segments and crossing edges must compose back to the
walk, and the segments must equal a reference that cuts the walk where
breadth-first reachability says the component changes and builds each
piece with ``path_from_traversal``.  The nest blocks must carry the
primitive roots of the checked ``complete_to_cycle``, and recovery must
agree with the dense sampling of ``exact_oracle``.

The inputs are the corpus graphs and the 150-vertex chain of two-loop
vertices, with random walks of up to 40 edges.  The sampling oracle rebuilds
the representation at every point of a grid whose size is the product of
the blocks' wrap counts, so it runs on the walks of up to 8 edges; the
longer ones are recovered against the element's own coefficient.
"""

import random

import pytest

import graphnest as gn
from conftest import GRAPH_TEXTS, make_graph, random_walk, two_loop_chain_text
from exact_oracle import (
    reach_table,
    recover_irreducible_sampled,
    recover_nest_sampled,
    recover_upper_sampled,
)

MAX_WALK = 40
SAMPLED_WALK = 8

FAMILIES = (
    (gn.recover_irreducible, recover_irreducible_sampled),
    (gn.recover_nest, recover_nest_sampled),
    (gn.recover_upper, recover_upper_sampled),
)


def reference_decomposition(g, table, w):
    """Segments of ``w`` built by ``path_from_traversal``, cut at the edges
    whose ends do not reach each other, and those crossing edges."""
    segments, crossing, names, start = [], [], [], w.source
    for name in w.traversal:
        e = g.edge(name)
        if e.source in table[e.target]:
            names.append(name)
        else:
            segments.append(g.path_from_traversal(names) if names else g.vertex_path(start))
            crossing.append(name)
            names, start = [], e.target
    segments.append(g.path_from_traversal(names) if names else g.vertex_path(start))
    return tuple(segments), tuple(crossing)


def _outcome(recover, *args, **kwargs):
    try:
        return recover(*args, **kwargs)
    except gn.GraphNestError as exc:
        return type(exc)


def _check_walk(g, table, w, rng):
    d = gn.decompose_path(g, w)
    assert (d.segments, d.crossing) == reference_decomposition(g, table, w)
    rebuilt = d.segments[0]
    for name, seg in zip(d.crossing, d.segments[1:]):
        rebuilt = gn.compose(seg, gn.compose(g.edge_path(name), rebuilt))
    assert rebuilt == w
    for seg in d.segments:
        assert g.validate_path(seg) is seg
    plan = gn.nest_plan(g, w)
    for seg, block in zip(d.segments, plan.blocks):
        if not seg.is_vertex:
            completed = gn.compose(gn.complete_to_cycle(g, seg), seg)
            assert block.cycle == gn.primitive_root(completed)[0]

    coeff = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    other = random_walk(rng, g, 3)
    a = gn.FormalElement(g, [(w, coeff), (other, 1.5)])
    for fast, slow in FAMILIES:
        got = _outcome(fast, g, a, w)
        if isinstance(got, complex):
            assert abs(got - a.coefficient(w)) <= 1e-8 * max(1.0, abs(coeff)), (fast, w)
        if w.length <= SAMPLED_WALK:
            want = _outcome(slow, g, a, w)
            if isinstance(got, complex) and isinstance(want, complex):
                assert abs(got - want) <= 1e-8, (fast, w, got, want)
            else:
                assert got == want, (fast, w, got, want)
    return len(d.segments)


@pytest.mark.parametrize("name", sorted(GRAPH_TEXTS))
def test_segments_match_the_checked_reference_on_corpus(name):
    g = make_graph(name)
    table = reach_table(g)
    rng = random.Random(name)
    for _ in range(40):
        _check_walk(g, table, random_walk(rng, g, MAX_WALK), rng)


def test_segments_match_the_checked_reference_on_the_two_loop_chain():
    g = gn.parse_graph(two_loop_chain_text(150))
    table = reach_table(g)
    rng = random.Random(150)
    segments = [_check_walk(g, table, random_walk(rng, g, MAX_WALK), rng) for _ in range(120)]
    # the walks cross many blocks, not just one
    assert max(segments) >= 10
