"""Formal elements: arithmetic, Cesàro means, Fock-space truncations."""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import graphnest as gn
from conftest import GRAPH_TEXTS, make_graph, random_nonzero_element


def elem(g, *items):
    return gn.FormalElement(g, list(items))


# -- construction invariants --------------------------------------------------------


def test_zero_coefficients_are_pruned(p2):
    pa = p2.path_from_traversal(["a"])
    a = elem(p2, (pa, 1.0), (pa, -1.0), (p2.vertex_path("v"), 2.0))
    assert a.support == (p2.vertex_path("v"),)
    assert a.coefficient(pa) == 0j
    assert a.num_terms == 1


def test_duplicate_terms_merge(p2):
    pa = p2.path_from_traversal(["a"])
    a = elem(p2, (pa, 1.0), (pa, 2.5))
    assert a.coefficient(pa) == pytest.approx(3.5)


def test_foreign_paths_rejected(p2, c2):
    with pytest.raises(gn.PathError):
        elem(p2, (c2.path_from_traversal(["e"]), 1.0))


def test_degree_and_zero(p2):
    assert gn.FormalElement.zero(p2).is_zero
    assert gn.degree(gn.FormalElement.zero(p2)) == 0
    a = elem(p2, (p2.path_from_traversal(["a", "b", "a"]), 1.0))
    assert gn.degree(a) == 3 and a.degree == 3


# -- multiplication -----------------------------------------------------------------


def test_distinct_vertex_projections_annihilate(c2):
    px = gn.FormalElement.single(c2, c2.vertex_path("x"))
    py = gn.FormalElement.single(c2, c2.vertex_path("y"))
    assert gn.multiply(px, py).is_zero
    assert gn.multiply(px, px) == px


def test_edge_times_source_projection(c2):
    le = gn.FormalElement.single(c2, c2.path_from_traversal(["e"]))
    px = gn.FormalElement.single(c2, c2.vertex_path("x"))  # e runs x -> y
    assert gn.multiply(le, px) == le
    py = gn.FormalElement.single(c2, c2.vertex_path("y"))
    assert gn.multiply(le, py).is_zero
    assert gn.multiply(py, le) == le


def test_square_of_loop_sum(p2):
    la = gn.FormalElement.single(p2, p2.path_from_traversal(["a"]))
    lb = gn.FormalElement.single(p2, p2.path_from_traversal(["b"]))
    s = elem(p2, (p2.path_from_traversal(["a"]), 1.0), (p2.path_from_traversal(["b"]), 1.0))
    sq = gn.multiply(s, s)
    words = [["a", "a"], ["a", "b"], ["b", "a"], ["b", "b"]]
    assert sq.num_terms == 4
    for word in words:
        assert sq.coefficient(p2.path_from_traversal(word)) == pytest.approx(1.0)
    assert gn.multiply(la, lb).support == (p2.path_from_traversal(["b", "a"]),)


def test_multiply_rejects_graph_mismatch(p2, c2):
    a = gn.FormalElement.single(p2, p2.vertex_path("v"))
    b = gn.FormalElement.single(c2, c2.vertex_path("x"))
    with pytest.raises(ValueError):
        gn.multiply(a, b)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_multiply_associative_and_bilinear(seed):
    rng = random.Random(seed)
    g = make_graph("scc_chain")
    a = random_nonzero_element(rng, g, max_terms=6, max_degree=3)
    b = random_nonzero_element(rng, g, max_terms=6, max_degree=3)
    c = random_nonzero_element(rng, g, max_terms=6, max_degree=3)
    left = gn.multiply(gn.multiply(a, b), c)
    right = gn.multiply(a, gn.multiply(b, c))
    assert left.support == right.support
    for p in left.support:
        assert left.coefficient(p) == pytest.approx(right.coefficient(p))
    # bilinearity against a scaled copy
    two_a = gn.FormalElement(g, [(p, 2 * v) for p, v in a.items()])
    prod = gn.multiply(two_a, b)
    base = gn.multiply(a, b)
    for p in prod.support:
        assert prod.coefficient(p) == pytest.approx(2 * base.coefficient(p))


# -- Cesàro means -------------------------------------------------------------------


def test_cesaro_examples(p2):
    px = gn.FormalElement.single(p2, p2.vertex_path("v"))
    assert gn.cesaro_mean(px, 1) == px
    assert gn.cesaro_mean(px, 7) == px

    a = elem(p2, (p2.vertex_path("v"), 1.0), (p2.path_from_traversal(["a"]), 1.0))
    m = gn.cesaro_mean(a, 2)
    assert m.coefficient(p2.vertex_path("v")) == pytest.approx(1.0)
    assert m.coefficient(p2.path_from_traversal(["a"])) == pytest.approx(0.5)

    le = gn.FormalElement.single(p2, p2.path_from_traversal(["a"]))
    assert gn.cesaro_mean(le, 1).is_zero


def test_cesaro_converges_coefficientwise(p2):
    rng = random.Random(2)
    a = random_nonzero_element(rng, p2, max_terms=8, max_degree=4)
    d = gn.degree(a)
    k = 10 * d + 1
    m = gn.cesaro_mean(a, k)
    max_c = max(abs(v) for _, v in a.items())
    for p, v in a.items():
        assert abs(m.coefficient(p) - v) <= (d / k) * max_c + 1e-15


def test_cesaro_rejects_bad_k(p2):
    a = gn.FormalElement.single(p2, p2.vertex_path("v"))
    with pytest.raises(ValueError):
        gn.cesaro_mean(a, 0)


# -- Fourier coefficients -----------------------------------------------------------


def test_fourier_coefficient_lookup(p2):
    pa = p2.path_from_traversal(["a"])
    a = elem(p2, (pa, 3.0))
    assert gn.fourier_coefficient(a, pa) == pytest.approx(3.0)
    assert gn.fourier_coefficient(a, p2.vertex_path("v")) == 0j
    assert gn.fourier_coefficient(gn.FormalElement.zero(p2), pa) == 0j


def test_fourier_coefficient_matches_fock_inner_product():
    rng = random.Random(31)
    for name in ("p2", "scc_chain"):
        g = make_graph(name)
        for _ in range(10):
            a = random_nonzero_element(rng, g, max_terms=8, max_degree=3)
            rep = gn.truncated_left_regular(g, gn.degree(a))
            mat = gn.evaluate(rep, a)
            basis = rep.fock_basis
            index = {p: i for i, p in enumerate(basis.paths)}
            for w, coeff in a.items():
                col = index[g.vertex_path(w.source)]
                row = index[w]
                assert mat[row, col] == pytest.approx(coeff, abs=1e-12)


# -- truncated Fock space -----------------------------------------------------------


def test_fock_basis_enumeration(p2):
    basis = gn.truncated_fock_basis(p2, 1)
    assert [str(p) for p in basis.paths] == [
        "Path<v>", "Path<v-[a]->v>", "Path<v-[b]->v>",
    ]
    assert basis.depth == 1


def test_fock_basis_prefix_closed():
    g = make_graph("scc_chain")
    basis = gn.truncated_fock_basis(g, 3)
    members = set(basis.paths)
    for p in basis.paths:
        if p.length > 0:
            # dropping the last walked edge stays in the basis
            names = p.traversal[:-1]
            shorter = g.path_from_traversal(list(names)) if names else g.vertex_path(p.source)
            assert shorter in members
    assert all(g.vertex_path(x) in members for x in g.vertices)


def test_fock_basis_ordering_by_length_then_declaration(p2):
    basis = gn.truncated_fock_basis(p2, 2)
    lengths = [p.length for p in basis.paths]
    assert lengths == sorted(lengths)
    level2 = [p.traversal for p in basis.paths if p.length == 2]
    assert level2 == [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]


def test_left_regular_single_vertex():
    g = gn.parse_graph("vertex s\n")
    rep = gn.truncated_left_regular(g, 4)
    assert rep.dimension == 1
    assert rep.vertex_images["s"] == pytest.approx(np.array([[1.0]]))


def test_left_regular_shift_action(p2):
    rep = gn.truncated_left_regular(p2, 1)
    assert rep.dimension == 3
    # the image of loop a sends the vacuum at v to the basis vector of path a
    basis = rep.fock_basis
    index = {p: i for i, p in enumerate(basis.paths)}
    va = rep.edge_images["a"]
    col = index[p2.vertex_path("v")]
    row = index[p2.path_from_traversal(["a"])]
    assert va[row, col] == pytest.approx(1.0)
    # shifting past the truncation boundary gives zero
    assert np.allclose(va[:, index[p2.path_from_traversal(["b"])]], 0.0)


def test_left_regular_relations_hold_on_interior(p2):
    rep = gn.truncated_left_regular(p2, 2)
    interior = [i for i, p in enumerate(rep.fock_basis.paths) if p.length <= 1]
    report = gn.check_relations(rep, restrict_interior=interior)
    assert report.is_partially_isometric
    # without the restriction, the truncation boundary breaks relation (3)
    full = gn.check_relations(rep)
    assert not full.verdicts["edges_partial_isometries"]


def test_left_regular_respects_basis_cap(p2):
    with pytest.raises(gn.LimitError):
        gn.truncated_left_regular(p2, 10, max_basis=100)


# -- JSON ---------------------------------------------------------------------------


def test_element_json_round_trip():
    rng = random.Random(41)
    for name in ("p2", "scc_chain", "chain3"):
        g = make_graph(name)
        for _ in range(5):
            a = random_nonzero_element(rng, g, max_terms=6, max_degree=3)
            assert gn.element_from_json(g, gn.element_to_json(a)) == a


def test_element_json_rejects_malformed(p2):
    with pytest.raises(gn.GraphParseError):
        gn.element_from_json(p2, {"terms": [{"coeff": [1.0, 0.0]}]})
    with pytest.raises(gn.GraphParseError):
        gn.element_from_json(p2, {"terms": [{"coeff": [1.0], "vertex": "v"}]})
    with pytest.raises(gn.GraphParseError):
        gn.element_from_json(p2, [])
    for coeff in ([float("nan"), 0.0], [0.0, float("inf")]):
        with pytest.raises(gn.GraphParseError, match="non-finite"):
            gn.element_from_json(p2, {"terms": [{"coeff": coeff, "vertex": "v"}]})


def test_non_finite_coefficients_are_rejected(p2):
    v = p2.vertex_path("v")
    # a NaN coefficient used to reach recovery, which returned nan+0j
    with pytest.raises(ValueError, match="path vertex:v has the non-finite coefficient"):
        gn.recover_nest(p2, gn.FormalElement(p2, [(v, float("nan"))]), v)
    ab = p2.path_from_traversal(["a", "b"])
    for coeff in (complex(0.0, float("inf")), -float("inf"), complex(float("nan"), 1.0)):
        with pytest.raises(ValueError, match="path a,b has the non-finite coefficient"):
            gn.FormalElement(p2, {ab: coeff})
    # finite terms whose sum or scaling overflows are caught as well
    big = gn.FormalElement(p2, [(ab, 1e308)])
    with pytest.raises(ValueError, match="path a,b"):
        big + big
    with pytest.raises(ValueError, match="path a,b"):
        big * 10.0
    with pytest.raises(ValueError, match="path vertex:v"):
        gn.FormalElement(p2, [(v, 1e308), (v, 1e308)])


# -- order and checks at construction --------------------------------------------


@st.composite
def walks(draw, g, max_len=5):
    """A walk of ``g`` with up to ``max_len`` edges (a vertex at dead ends)."""
    start = current = draw(st.sampled_from(g.vertices))
    names = []
    for _ in range(draw(st.integers(0, max_len))):
        outs = g.out_edges(current)
        if not outs:
            break
        e = draw(st.sampled_from(outs))
        names.append(e.name)
        current = e.target
    return g.path_from_traversal(names) if names else g.vertex_path(start)


def term_json(w, coeff):
    if w.is_vertex:
        return {"coeff": coeff, "vertex": w.source}
    return {"coeff": coeff, "path": list(w.traversal)}


@st.composite
def element_json(draw, g):
    """Element JSON over ``g``; small integer coefficients, so that terms
    cancel and repeat."""
    coeffs = st.lists(st.integers(-2, 2).map(float), min_size=2, max_size=2)
    return {"terms": [term_json(w, draw(coeffs)) for w in draw(st.lists(walks(g), max_size=8))]}


def _ordered(x):
    g = x.graph
    return (
        x.support == tuple(sorted(x.support, key=g.path_sort_key))
        and tuple(p for p, _ in x.items()) == x.support
    )


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_support_is_in_path_order_after_every_operation(data):
    g = make_graph(data.draw(st.sampled_from(sorted(GRAPH_TEXTS))))
    a = gn.element_from_json(g, data.draw(element_json(g)))
    b = gn.element_from_json(g, data.draw(element_json(g)))
    z = complex(data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3)))
    k = data.draw(st.integers(1, 6))
    for x in (a, b, a + b, a - b, -a, a * b, b * a, z * a, a * z, gn.cesaro_mean(a, k)):
        assert _ordered(x), x


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_malformed_element_json_raises_a_typed_error(data):
    names = sorted(GRAPH_TEXTS)
    g = make_graph(data.draw(st.sampled_from(names)))
    terms = data.draw(element_json(g))["terms"]
    kind = data.draw(st.sampled_from(["gap", "unknown edge", "foreign vertex", "foreign edge"]))
    other = make_graph(data.draw(st.sampled_from(names)))
    if kind == "gap":
        gaps = [[e.name, f.name] for e in g.edges for f in g.edges if e.target != f.source]
        assume(gaps)
        bad = {"coeff": [1.0, 0.0], "path": data.draw(st.sampled_from(gaps))}
    elif kind == "unknown edge":
        w = data.draw(walks(g))
        path = list(w.traversal)
        path.insert(data.draw(st.integers(0, len(path))), "no_such_edge")
        bad = {"coeff": [1.0, 0.0], "path": path}
    elif kind == "foreign vertex":
        foreign = [x for x in other.vertices if x not in g.vertices]
        assume(foreign)
        bad = {"coeff": [1.0, 0.0], "vertex": data.draw(st.sampled_from(foreign))}
    else:
        w = data.draw(walks(other))
        assume(w.length and any(n not in g._edge_index for n in w.traversal))
        bad = term_json(w, [1.0, 0.0])
    terms.insert(data.draw(st.integers(0, len(terms))), bad)
    with pytest.raises((gn.GraphParseError, gn.PathError)):
        gn.element_from_json(g, {"terms": terms})
