"""Call counts that pin where paths are ordered and checked.

An element orders its support once, when it is built, so recovery and
separation never sort it again.  A recovery checks its path a fixed number
of times however many segments the path has: ``decompose_path`` cuts the
segments out of the checked walk, and the nest blocks complete them to
cycles without checking them again.  The counts come from wrapping the
methods with ``monkeypatch``; nothing is timed.
"""

import random

import pytest

import graphnest as gn
from conftest import loop_walk, make_graph, random_nonzero_element, two_loop_chain_text


def _count_calls(monkeypatch, name):
    """Wrap ``DirectedGraph.<name>`` and return the list its calls fill."""
    calls = []
    real = getattr(gn.DirectedGraph, name)

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(gn.DirectedGraph, name, counted)
    return calls


@pytest.mark.parametrize(
    "name, families",
    [
        ("p2", ("irreducible", "nest", "upper")),
        ("c2_loops_both", ("irreducible", "nest", "upper")),
        ("scc_chain", ("nest", "upper")),
        ("cycle_exit", ("nest",)),
    ],
)
def test_recovery_and_separation_sort_nothing(name, families, monkeypatch):
    g = make_graph(name)
    rng = random.Random(name)
    elements = [random_nonzero_element(rng, g, max_terms=8, max_degree=4) for _ in range(5)]
    calls = _count_calls(monkeypatch, "path_sort_key")
    for a in elements:
        for family in families:
            gn.separate(g, a, family)
        for w in a.support:
            gn.recover_nest(g, a, w)
            if "upper" in families:
                gn.recover_upper(g, a, w)
            if "irreducible" in families:
                gn.recover_irreducible(g, a, w)
    assert calls == []


def test_path_checks_of_a_recovery_do_not_grow_with_its_segments(monkeypatch):
    # loop_walk(n) has n nest blocks: n internal segments and n - 1 crossings
    g = gn.parse_graph(two_loop_chain_text(24))
    walks = {n: g.path_from_traversal(loop_walk(n)) for n in (1, 2, 6, 24)}
    a = gn.FormalElement(g, [(w, 1.0) for w in walks.values()])
    calls = _count_calls(monkeypatch, "validate_path")
    counts = {}
    for recover in (gn.recover_nest, gn.recover_upper):
        for n, w in walks.items():
            calls.clear()
            assert recover(g, a, w) == 1.0
            counts[recover.__name__, n] = len(calls)
    # each checks its own argument, and the public plan it builds checks its walk
    assert set(counts.values()) == {2}, counts


def test_irreducible_recovery_checks_its_path_once(monkeypatch):
    g = make_graph("c6")
    w = g.path_from_traversal(["e2", "e3", "e4", "e5", "e6", "e1", "e2"])
    a = gn.FormalElement(g, [(w, 2.0)])
    calls = _count_calls(monkeypatch, "validate_path")
    assert gn.recover_irreducible(g, a, w) == 2.0
    assert calls == [(w,)]
