"""The generated algebra checked against the semi-naive loop it replaces.

``span_closure_dim`` closes span(S) under left multiplication by an
orthonormal basis of span(S).  ``exact_oracle.span_closure_dim_semi_naive``
multiplies new directions by the whole basis, in both orders.  On random
dense matrices, weighted partial permutations, nilpotent integer matrices,
0/1 diagonals and their unitary conjugates, each set at one common scale,
and on every representation of the graph corpus, the two must return the
same dimension and the same span.  The returned basis must be orthonormal
and closed under products, the dimension must not move when the generators
are scaled by 1e-10 or 1e10, and for k ≤ 3 it must equal the exact count.

Sets of weighted partial maps take the monomial closure; the dense loop,
``linalg._dense_closure``, is its reference on random partial maps (each
set at one common scale and with every generator at its own scale
10^±8), on long words whose raw weights fall near ``RANK_TOL`` and on
cycle representations of length 16.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import graphnest as gn
from conftest import GRAPH_TEXTS, make_graph, random_walk
from exact_oracle import span_closure_dim_exact, span_closure_dim_semi_naive

KINDS = ("dense", "partial_permutation", "nilpotent", "diagonal", "conjugated_diagonal")
SETS_PER_KIND = 400
MAX_CORPUS_DIMENSION = 10


def _unitary(rng, k):
    q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    return q


def _generator(rng, kind, k, exact=False):
    """One k×k matrix of ``kind``.  With ``exact``, every entry is a
    Gaussian integer or half of one, so the exact oracle reads it as is, and
    a conjugated diagonal is conjugated by an integer similarity."""
    if kind == "dense":
        if exact:
            return (rng.integers(-2, 3, (k, k)) + 1j * rng.integers(-2, 3, (k, k))).astype(complex)
        return rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    if kind == "partial_permutation":
        m = np.zeros((k, k), dtype=complex)
        for col, row in enumerate(rng.permutation(k)):
            if rng.random() < 0.7:
                unit = 1j ** int(rng.integers(4)) if exact else np.exp(2j * np.pi * rng.random())
                m[row, col] = 0.5 * unit
        return m
    if kind == "nilpotent":
        return np.triu(rng.integers(-2, 3, (k, k)), 1).astype(complex)
    d = np.diag(rng.integers(0, 2, k)).astype(complex)
    if kind == "diagonal":
        return d
    if exact:
        # a unipotent integer similarity keeps the entries integers
        s = np.eye(k) + np.triu(rng.integers(-1, 2, (k, k)), 1)
        return s @ d @ np.round(np.linalg.inv(s))
    q = _unitary(rng, k)
    return q @ d @ q.conj().T


def _generator_sets(kind, count, seed, max_k=5, exact=False):
    """``count`` sets of 1–3 generators of one kind, each set at one common
    scale 10^±6 (1 when ``exact``)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, max_k + 1))
        scale = 1.0 if exact else 10.0 ** rng.uniform(-6, 6)
        yield k, [scale * _generator(rng, kind, k, exact) for _ in range(rng.integers(1, 4))]


def _corpus_sets():
    """Vertex and edge images of every representation family on every
    corpus graph, up to dimension ``MAX_CORPUS_DIMENSION``."""
    for name in sorted(GRAPH_TEXTS):
        g = make_graph(name)
        rng = random.Random(name)
        lams = np.exp(2j * np.pi * np.arange(1, 9) / 9)
        reps = [gn.phi_cycle(g, u, 1j) for u in gn.all_cycles(g, 4)[:4]]
        for _ in range(3):
            w = random_walk(rng, g, 5)
            reps.append(gn.rho_nest(g, w, lams[: len(gn.nest_plan(g, w).blocks)])[0])
        if gn.ut_separating_condition(g):
            designated = gn.designated_loops(g)
            for _ in range(3):
                w = random_walk(rng, g, 5, avoid=designated)
                reps.append(gn.psi_upper(g, w, lams[: len(gn.upper_plan(g, w).loop_positions)]))
        if gn.check_n_nest_case(g).case == "One":
            reps += [gn.n_nest_truncation(g, n, seed=n) for n in (0, 3, 7)]
        for d in range(4):
            reps.append(gn.truncated_left_regular(g, d))
        for rep in reps:
            if rep.dimension <= MAX_CORPUS_DIMENSION:
                images = list(rep.vertex_images.values()) + list(rep.edge_images.values())
                yield name, rep.dimension, images


def _projector(basis):
    if not basis:
        return np.zeros((1, 1))
    rows = np.array([b.reshape(-1) for b in basis])
    return rows.T @ rows.conj()


def _assert_orthonormal_and_closed(k, basis):
    if not basis:
        return
    rows = np.array([b.reshape(-1) for b in basis])
    assert np.abs(rows @ rows.conj().T - np.eye(len(basis))).max() <= 1e-10
    cube = rows.reshape(-1, k, k)
    prods = (cube[:, None] @ cube[None]).reshape(-1, k * k)
    residual = prods - (prods @ rows.conj().T) @ rows
    assert np.linalg.norm(residual, axis=1).max() <= 1e-8


def _assert_agrees_with_semi_naive(k, gens, where):
    dim, basis = gn.span_closure_dim(gens, k)
    want, want_basis = span_closure_dim_semi_naive(gens, k)
    assert dim == want == len(basis), where
    assert np.abs(_projector(basis) - _projector(want_basis)).max() <= 1e-8, where
    _assert_orthonormal_and_closed(k, basis)
    for scale in (1e-10, 1e10):
        assert gn.span_closure_dim([scale * m for m in gens], k)[0] == dim, (where, scale)


@pytest.mark.parametrize("kind", KINDS)
def test_span_closure_matches_the_semi_naive_loop(kind):
    for i, (k, gens) in enumerate(_generator_sets(kind, SETS_PER_KIND, KINDS.index(kind))):
        _assert_agrees_with_semi_naive(k, gens, (kind, i, k))


def test_span_closure_matches_the_semi_naive_loop_on_the_corpus():
    seen = set()
    for name, k, images in _corpus_sets():
        _assert_agrees_with_semi_naive(k, images, (name, k))
        seen.add(name)
    assert seen == set(GRAPH_TEXTS)


@pytest.mark.parametrize("kind", KINDS)
def test_span_closure_matches_the_exact_count(kind):
    for i, (k, gens) in enumerate(
        _generator_sets(kind, 25, 100 + KINDS.index(kind), max_k=3, exact=True)
    ):
        exact = [
            [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in m] for m in gens
        ]
        assert gn.span_closure_dim(gens, k)[0] == span_closure_dim_exact(exact), (kind, i)


def test_span_closure_basis_is_orthonormal_and_closed_at_mixed_scales():
    # Each generator at its own scale, 10^±8: the dimension may then depend
    # on the tolerance, but the returned basis must still be orthonormal and
    # closed under products.  A direction kept with a singular value just
    # above RANK_TOL carries rounding along the basis of about 1e-16 / 1e-9,
    # which the last projection removes (a few of these sets need it).
    rng = np.random.default_rng(0)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        kinds = rng.choice(KINDS, rng.integers(1, 4))
        gens = [10.0 ** rng.uniform(-8, 8) * _generator(rng, kind, k) for kind in kinds]
        _, basis = gn.span_closure_dim(gens, k)
        _assert_orthonormal_and_closed(k, basis)


def test_phi_generates_the_full_matrix_algebra_exactly_when_the_cycle_is_primitive(p2):
    rng = random.Random(12)
    for k in range(1, 13):
        words = [["a"] * k, ["a"] * (k - 1) + ["b"]]
        words += [[rng.choice("ab") for _ in range(k)] for _ in range(3)]
        if k % 2 == 0:
            words.append(["a", "b"] * (k // 2))
        for word in words:
            u = p2.path_from_traversal(word)
            rep = gn.phi_cycle(p2, u, np.exp(0.3j))
            gens = list(rep.vertex_images.values()) + list(rep.edge_images.values())
            dim, _ = gn.span_closure_dim(gens, k)
            primitive = gn.primitive_root(u)[0].length == k
            assert (dim == k * k) == primitive, word


def test_mixed_scale_projections_show_a_tolerance_dependent_rank():
    # D = diag(1, 1, 0), a unitary conjugate P of D and a unitary conjugate
    # of the identity (the identity up to rounding).  Exactly conjugated,
    # they generate C ⊕ M_2 (dimension 5: the ranges of D and P meet in a
    # common invariant line), and both loops find 5 at one common scale.
    # The rounding of the conjugations (about 1e-16) makes the float
    # matrices generate all of M_3 exactly, so the exact count is 9.  At the
    # scales 1e-5, 5e3 and 5e-3 the generators' singular values span more
    # than 1/RANK_TOL: the smallest falls below the tolerance, and the rank
    # decisions see the rounding or not.  This loop finds 5 here; the
    # semi-naive loop finds 9 (on 400 seeds of this family, 396 and 377 of
    # the answers are 5).
    rng = np.random.default_rng(14)
    d = np.diag([1.0, 1.0, 0.0]).astype(complex)
    q1, q2 = _unitary(rng, 3), _unitary(rng, 3)
    raw = [d, q1 @ d @ q1.conj().T, q2 @ q2.conj().T]
    exact = [[[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in m] for m in raw]
    assert span_closure_dim_exact(exact) == 9
    assert gn.span_closure_dim(raw, 3)[0] == span_closure_dim_semi_naive(raw, 3)[0] == 5

    gens = [1e-5 * raw[0], 5e3 * raw[1], 5e-3 * raw[2]]
    s = np.linalg.svd(np.array([m.reshape(-1) for m in gens]), compute_uv=False)
    assert s[-1] < gn.linalg.RANK_TOL * s[0]
    assert gn.span_closure_dim(gens, 3)[0] == 5
    assert span_closure_dim_semi_naive(gens, 3)[0] == 9


# -- the monomial path against the dense loop ----------------------------------------


def _weighted_partial_map(rng, k, lam, modulus=0.5, density=0.7):
    """Each column goes, with probability ``density``, to a distinct row with
    weight modulus·λ^n for a random integer n."""
    m = np.zeros((k, k), dtype=complex)
    for col, row in enumerate(rng.permutation(k)):
        if rng.random() < density:
            m[row, col] = modulus * lam ** int(rng.integers(8))
    return m


def _long_word_set(rng, k, lam):
    """A chain e_{π0} → … → e_{π(k-1)} and its closing edge, with a 0/1
    diagonal sometimes.  Matrix units need words of up to 2k - 1 letters,
    and the weights' modulus puts the raw weight of such a word within a
    factor 10 of ``RANK_TOL``."""
    modulus = 10.0 ** (rng.uniform(-10, -8) / (2 * k - 1))
    order = rng.permutation(k)
    chain, closing = np.zeros((k, k), dtype=complex), np.zeros((k, k), dtype=complex)
    for src, dst in zip(order[:-1], order[1:]):
        chain[dst, src] = modulus * lam ** int(rng.integers(8))
    closing[order[0], order[-1]] = modulus * lam ** int(rng.integers(8))
    gens = [chain, closing]
    if rng.random() < 0.5:
        gens.append(np.diag(rng.integers(0, 2, k)).astype(complex))
    return gens


def _partial_map_sets(count, seed):
    """``count`` sets of 1–4 weighted partial maps (weights ½·λ^n) and 0/1
    diagonals, k ≤ 10; every fourth set is a long-word set."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k = int(rng.integers(2 if i % 4 == 0 else 1, 11))
        lam = np.exp(2j * np.pi * rng.random())
        if i % 4 == 0:
            yield k, _long_word_set(rng, k, lam)
            continue
        gens = []
        for _ in range(rng.integers(1, 5)):
            if rng.random() < 0.25:
                gens.append(np.diag(rng.integers(0, 2, k)).astype(complex))
            else:
                gens.append(_weighted_partial_map(rng, k, lam))
        yield k, gens


def _assert_matches_the_dense_loop(k, gens, want, want_basis, where):
    assert gn.linalg._partial_maps(np.array(gens)) is not None, where
    dim, basis = gn.span_closure_dim(gens, k)
    assert dim == want == len(basis), where
    assert np.abs(_projector(basis) - _projector(want_basis)).max() <= 1e-8, where
    _assert_orthonormal_and_closed(k, basis)


def test_monomial_closure_matches_the_dense_loop_on_partial_maps():
    # The dense loop is scale-free only under one common scale; the words of
    # partial maps span the same algebra whatever each generator's scale, so
    # the mixed-scale sets are held to the dense loop's answer at one scale.
    rng = np.random.default_rng(5)
    for i, (k, gens) in enumerate(_partial_map_sets(300, 4)):
        common = 10.0 ** rng.uniform(-6, 6)
        want, want_basis = gn.linalg._dense_closure([common * m for m in gens], k)
        mixed = 10.0 ** rng.uniform(-8, 8, len(gens))
        for scales in (np.full(len(gens), common), mixed):
            scaled = [s * m for s, m in zip(scales, gens)]
            _assert_matches_the_dense_loop(k, scaled, want, want_basis, (i, k, scales))


def _phi_generators(g, word):
    rep = gn.phi_cycle(g, g.path_from_traversal(word), np.exp(0.3j))
    return list(rep.vertex_images.values()) + list(rep.edge_images.values())


def test_monomial_closure_matches_the_dense_loop_on_long_cycles(p2):
    k = 16
    words = [["a"] + ["b"] * 15, ["a"] * 7 + ["b"] * 9, ["a", "b"] * 8, (["a"] * 3 + ["b"]) * 4]
    for word in words:
        gens = _phi_generators(p2, word)
        dim, basis = gn.linalg._dense_closure(gens, k)
        _assert_matches_the_dense_loop(k, gens, dim, basis, word)
        primitive = gn.primitive_root(p2.path_from_traversal(word))[0].length == k
        assert (dim == k * k) == primitive, word
    # words of up to 63 letters: unnormalized, (½·1e-10)^63 underflows to 0
    gens = _phi_generators(p2, ["a"] + ["b"] * 31)
    for scale in (1.0, 1e-10, 1e10):
        assert gn.span_closure_dim([scale * m for m in gens], 32)[0] == 32 * 32, scale


def test_monomial_rank_decisions_are_relative_to_each_word():
    # g = E₁₀ + εE₂₁ with ε = 2⁻⁴⁰ generates span{g, εE₂₀}.  The word g²
    # has largest entry ε, below RANK_TOL: measured against itself it is
    # kept, as the exact count says; the dense loop's rounds measure it
    # against the orthonormal g and drop it.
    g = np.zeros((3, 3), dtype=complex)
    g[1, 0], g[2, 1] = 1.0, 2.0 ** -40
    for gens, want in (([g], 2), ([g, np.diag([0.0, 1.0, 0.0])], 4)):
        exact = [[[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in m] for m in gens]
        assert gn.span_closure_dim(gens, 3)[0] == span_closure_dim_exact(exact) == want
        assert gn.linalg._dense_closure([gn.linalg.as_matrix(m) for m in gens], 3)[0] == want // 2


def test_inputs_outside_the_monomial_path_behave_as_before(monkeypatch):
    rng = np.random.default_rng(8)
    k = 4
    partial = [_weighted_partial_map(rng, k, 1j) for _ in range(2)]
    with_nan = partial[0].copy()
    with_nan[with_nan != 0] = np.nan
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        gn.span_closure_dim(partial + [with_nan], k)
    with pytest.raises(ValueError, match=r"generator has shape \(3, 3\), expected \(4, 4\)"):
        gn.span_closure_dim(partial + [np.eye(3)], k)

    def no_monomial_closure(*args):
        raise AssertionError("a dense generator took the monomial path")

    monkeypatch.setattr(gn.linalg, "_monomial_closure", no_monomial_closure)
    for dense in (_generator(rng, "dense", k), _generator(rng, "conjugated_diagonal", k)):
        gens = partial + [dense]
        dim, basis = gn.span_closure_dim(gens, k)
        want, want_basis = span_closure_dim_semi_naive(gens, k)
        assert dim == want
        assert np.abs(_projector(basis) - _projector(want_basis)).max() <= 1e-8
