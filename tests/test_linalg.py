"""Matrix kernel: norms, projections, span closure, JSON round trips."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

import graphnest as gn
from exact_oracle import (
    IMAG,
    ONE,
    ZERO,
    gmul,
    matrix_to_json_by_entries,
    span_closure_dim_exact,
    to_complex,
)


def unit(i, j, k):
    m = np.zeros((k, k), dtype=complex)
    m[i, j] = 1.0
    return m


# -- norms --------------------------------------------------------------------------


def test_operator_norm_examples():
    assert gn.operator_norm(np.eye(3, dtype=complex)) == pytest.approx(1.0)
    assert gn.operator_norm(np.zeros((2, 2))) == 0.0
    h = np.array([[1.0], [0.0]], dtype=complex)
    assert gn.operator_norm(0.5 * (h @ h.conj().T)) == pytest.approx(0.5)


def test_operator_norm_adjoint_and_submultiplicative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert gn.operator_norm(a) == pytest.approx(gn.operator_norm(a.conj().T))
        assert gn.operator_norm(a @ b) <= gn.operator_norm(a) * gn.operator_norm(b) + 1e-9


def test_row_operator_norm_examples():
    r = 1.0 / np.sqrt(2.0)
    two = [np.array([[r]], dtype=complex), np.array([[r]], dtype=complex)]
    assert gn.row_operator_norm(two) == pytest.approx(1.0)
    assert gn.row_operator_norm([np.zeros((3, 3))]) == 0.0


def test_row_operator_norm_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        gn.row_operator_norm([np.zeros((2, 2)), np.zeros((3, 3))])
    with pytest.raises(ValueError):
        gn.row_operator_norm([])


# -- span closure -------------------------------------------------------------------


def test_span_closure_examples():
    dim, basis = gn.span_closure_dim([np.eye(3, dtype=complex)], 3)
    assert dim == 1 and len(basis) == 1

    dim, _ = gn.span_closure_dim([unit(1, 0, 2), unit(0, 1, 2)], 2)
    assert dim == 4

    dim, _ = gn.span_closure_dim(
        [np.diag([1.0 + 0j, 0.0]), np.diag([0.0, 1.0 + 0j])], 2
    )
    assert dim == 2


def test_span_closure_monotone_and_idempotent():
    gens = [unit(1, 0, 3), unit(2, 1, 3)]
    dim_small, basis = gn.span_closure_dim(gens, 3)
    dim_large, _ = gn.span_closure_dim(gens + [unit(0, 2, 3)], 3)
    assert dim_small <= dim_large
    redone, _ = gn.span_closure_dim(basis, 3)
    assert redone == dim_small


def test_span_closure_conjugated_matrix_units_full():
    rng = np.random.default_rng(17)
    for k in (2, 3):
        a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        q, _ = np.linalg.qr(a)
        gens = [q @ unit(i, (i + 1) % k, k) @ q.conj().T for i in range(k)]
        dim, _ = gn.span_closure_dim(gens, k)
        assert dim == k * k


def test_span_closure_matches_exact_oracle():
    rng = random.Random(23)
    frac = Fraction
    for k in (2, 3):
        for _ in range(5):
            exact = []
            for _g in range(2):
                m = [
                    [
                        (frac(rng.randint(-2, 2)), frac(rng.randint(-2, 2)))
                        for _ in range(k)
                    ]
                    for _ in range(k)
                ]
                exact.append(m)
            gens = [np.array(to_complex(m)) for m in exact]
            dim, _ = gn.span_closure_dim(gens, k)
            assert dim == span_closure_dim_exact(exact)


def _exact_unit(i, j, k):
    return [[ONE if (r, c) == (i, j) else ZERO for c in range(k)] for r in range(k)]


def test_exact_oracle_self_checks():
    e21 = _exact_unit(1, 0, 2)
    e12 = _exact_unit(0, 1, 2)
    assert span_closure_dim_exact([e21, e12]) == 4
    ident = [[ONE if r == c else ZERO for c in range(2)] for r in range(2)]
    assert span_closure_dim_exact([ident]) == 1
    # an i-scaled copy is linearly dependent, adds nothing
    scaled = [[gmul(IMAG, e) for e in row] for row in e21]
    assert span_closure_dim_exact([e21, scaled]) == 1


# -- predicates and serialization ----------------------------------------------------


def test_is_orthogonal_projection():
    assert gn.is_orthogonal_projection(np.diag([1.0 + 0j, 0.0]))
    assert not gn.is_orthogonal_projection(0.5 * np.eye(2, dtype=complex))
    h = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
    assert gn.is_orthogonal_projection(h @ h.conj().T)
    with pytest.raises(ValueError):
        gn.is_orthogonal_projection(np.zeros((2, 3)))


def test_matrices_equal():
    a = np.eye(2, dtype=complex)
    assert gn.matrices_equal(a, a + 1e-12)
    assert not gn.matrices_equal(a, a + 1e-3)
    assert not gn.matrices_equal(a, np.zeros((3, 3)))


def test_matrix_json_round_trip():
    m = np.array([[0.5 + 0j, -1j], [2.0 + 3.0j, 0.0]])
    back = gn.matrix_from_json(gn.matrix_to_json(m))
    assert gn.matrices_equal(m, back, 0.0)


def _edge_values_matrix():
    tiny = 5e-324  # the smallest subnormal double
    return np.array(
        [
            [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)],
            [complex(tiny, -tiny), complex(1e300, -1e300), 0.5j],
            [complex(2.2250738585072014e-308, 1e-310), -1e300j, 1 / 3],
        ]
    )


@pytest.mark.parametrize(
    "m",
    [
        _edge_values_matrix(),
        np.zeros((0, 0), dtype=complex),
        np.zeros((2, 0), dtype=complex),
        np.array([[0.5j]]),
        np.random.default_rng(8).standard_normal((7, 5, 2)).view(complex)[..., 0],
        np.asfortranarray(np.arange(12.0).reshape(3, 4) * (1 - 2j)),
    ],
    ids=["signed-zero-subnormal-huge", "empty", "no-columns", "half-i", "random", "fortran"],
)
def test_matrix_json_matches_the_per_entry_encoding(m):
    new, old = gn.matrix_to_json(m), matrix_to_json_by_entries(m)
    # repr tells -0.0 from 0.0, which == does not
    assert json.dumps(new) == json.dumps(old)
    assert all(type(x) is float for pair in new["entries"] for x in pair)
    back = gn.matrix_from_json(json.loads(json.dumps(new)))
    assert back.shape == m.shape
    assert back.tobytes() == np.ascontiguousarray(m, dtype=complex).tobytes()


def test_matrix_json_rejects_malformed():
    with pytest.raises(ValueError):
        gn.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})


def test_nonfinite_entries_rejected():
    bad = np.array([[np.nan + 0j]])
    with pytest.raises(ValueError):
        gn.operator_norm(bad)
    with pytest.raises(ValueError):
        gn.span_closure_dim([bad], 1)
