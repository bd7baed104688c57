"""Coefficient recovery checked against dense sampling.

Each ``recover_*`` reads a path's coefficient from the exact pairing
polynomial of its family's basis layout.  The oracles in ``exact_oracle``
rebuild the dense representation at every point of a root-of-unity grid
and take the discrete Fourier transform.  On every support path and one
absent path per element, both must agree at oversample 1 and 2, or both
must raise the same error.  A value recovered must also be the element's
coefficient, which does not depend on the layout both sides share.
"""

import random

import pytest

import graphnest as gn
from conftest import GRAPH_TEXTS, make_graph, random_graph, random_nonzero_element, random_walk
from exact_oracle import (
    recover_irreducible_sampled,
    recover_nest_sampled,
    recover_upper_sampled,
)

FAMILIES = (
    (gn.recover_irreducible, recover_irreducible_sampled),
    (gn.recover_nest, recover_nest_sampled),
    (gn.recover_upper, recover_upper_sampled),
)


def _outcome(recover, *args, **kwargs):
    try:
        return recover(*args, **kwargs)
    except gn.GraphNestError as exc:
        return type(exc)


def _absent_path(rng, g, a):
    support = set(a.support)
    for _ in range(20):
        w = random_walk(rng, g, 3)
        if w not in support:
            return [w]
    return []


def _compare(rng, g, elements):
    """(numeric agreements checked, mismatches) over random elements."""
    checked, mismatches = 0, []
    for _ in range(elements):
        a = random_nonzero_element(rng, g, max_terms=4, max_degree=3)
        for w in list(a.support) + _absent_path(rng, g, a):
            for fast, slow in FAMILIES:
                got = _outcome(fast, g, a, w)
                if isinstance(got, complex) and abs(got - a.coefficient(w)) > 1e-8:
                    mismatches.append((fast.__name__, 0, w, got, a.coefficient(w)))
                for oversample in (1, 2):
                    want = _outcome(slow, g, a, w, oversample=oversample)
                    if isinstance(got, complex) and isinstance(want, complex):
                        checked += 1
                        if abs(got - want) <= 1e-8:
                            continue
                    elif got == want:
                        continue
                    mismatches.append((fast.__name__, oversample, w, got, want))
    return checked, mismatches


@pytest.mark.parametrize("name", sorted(GRAPH_TEXTS))
def test_recovery_matches_sampling_on_corpus(name):
    checked, mismatches = _compare(random.Random(name), make_graph(name), 6)
    assert mismatches == []
    assert checked > 0


def test_recovery_matches_sampling_on_random_graphs():
    rng = random.Random(41)
    total = 0
    for _ in range(100):
        checked, mismatches = _compare(rng, random_graph(rng, 5, 8), 2)
        assert mismatches == []
        total += checked
    assert total > 1000
