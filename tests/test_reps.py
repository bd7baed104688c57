"""Representation constructors: cycle, nest, triangular, Fock, and their checks."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

import graphnest as gn
from conftest import make_graph, random_nonzero_element, random_walk
from exact_oracle import IMAG, ONE, cycle_rep_exact, span_closure_dim_exact, to_complex


def unit_lambda(num, den):
    return complex(np.exp(2j * np.pi * (num / den)))


def walk_pairs(g, u):
    """(edge name, source vertex) pairs of a path in walking order."""
    return [(name, g.edge(name).source) for name in u.traversal]


# -- cycle representations ----------------------------------------------------------


def test_phi_on_single_loop():
    g = make_graph("loop1")
    rep = gn.phi_cycle(g, g.path_from_traversal(["e"]), 1.0)
    assert rep.dimension == 1
    assert rep.edge_images["e"] == pytest.approx(np.array([[0.5]]))
    assert rep.vertex_images["x"] == pytest.approx(np.array([[1.0]]))


def test_phi_on_two_cycle():
    c2 = make_graph("c2")
    lam = 1j
    rep = gn.phi_cycle(c2, c2.path_from_traversal(["e", "f"]), lam)
    e = np.zeros((2, 2), dtype=complex)
    e[1, 0] = 0.5
    f = np.zeros((2, 2), dtype=complex)
    f[0, 1] = 0.5 * lam
    assert gn.matrices_equal(rep.edge_images["e"], e, 0.0)
    assert gn.matrices_equal(rep.edge_images["f"], f, 0.0)
    assert gn.matrices_equal(rep.vertex_images["x"], np.diag([1.0 + 0j, 0.0]), 0.0)
    assert gn.matrices_equal(rep.vertex_images["y"], np.diag([0.0j, 1.0]), 0.0)


def test_phi_matches_exact_construction_oracle():
    cases = [
        ("p2", ["a", "b"]),
        ("p2", ["a", "b", "a", "b"]),
        ("p2", ["b", "a", "a"]),
        ("c3", ["e1", "e2", "e3"]),
        ("c2_loop", ["l", "e", "f"]),
    ]
    for name, word in cases:
        g = make_graph(name)
        u = g.path_from_traversal(word)
        for lam_exact, lam in ((ONE, 1.0 + 0j), (IMAG, 1j)):
            rep = gn.phi_cycle(g, u, lam)
            vmats, emats = cycle_rep_exact(walk_pairs(g, u), lam_exact)
            for x, m in vmats.items():
                assert gn.matrices_equal(
                    rep.vertex_images[x], np.array(to_complex(m)), 1e-15
                ), (name, word, x)
            for ename, m in emats.items():
                assert gn.matrices_equal(
                    rep.edge_images[ename], np.array(to_complex(m)), 1e-15
                ), (name, word, ename)


def test_phi_off_cycle_edges_vanish():
    p2 = make_graph("p2")
    rep = gn.phi_cycle(p2, p2.path_from_traversal(["a"]), 1.0)
    assert np.count_nonzero(rep.edge_images["b"]) == 0


def test_phi_vertex_images_resolve_identity():
    for name, word in [("c3", ["e1", "e2", "e3"]), ("p2", ["a", "b", "a"])]:
        g = make_graph(name)
        rep = gn.phi_cycle(g, g.path_from_traversal(word), unit_lambda(1, 5))
        total = sum(rep.vertex_images.values())
        assert gn.matrices_equal(total, np.eye(rep.dimension), 1e-15)


def test_phi_row_norm_is_exactly_half():
    c6 = make_graph("c6")
    u = c6.path_from_traversal(["e1", "e2", "e3", "e4", "e5", "e6"])
    rep = gn.phi_cycle(c6, u, unit_lambda(2, 7))
    norm = gn.row_operator_norm(list(rep.edge_images.values()))
    assert norm == pytest.approx(0.5, abs=1e-12)


def test_phi_rejects_bad_inputs():
    c2 = make_graph("c2")
    with pytest.raises(gn.PreconditionError):
        gn.phi_cycle(c2, c2.path_from_traversal(["e"]), 1.0)
    with pytest.raises(gn.PreconditionError):
        gn.phi_cycle(c2, c2.path_from_traversal(["e", "f"]), 2.0)
    with pytest.raises(gn.PreconditionError):
        gn.phi_cycle(c2, c2.vertex_path("x"), 1.0)


def test_nan_parameters_are_rejected(p2):
    nan = complex(float("nan"), 0.0)
    with pytest.raises(gn.PreconditionError, match="modulus 1"):
        gn.phi_cycle(p2, p2.path_from_traversal(["a"]), nan)
    with pytest.raises(gn.PreconditionError, match="modulus 1"):
        gn.rho_nest(p2, p2.path_from_traversal(["a"]), [nan])
    with pytest.raises(gn.PreconditionError, match="modulus 1"):
        gn.psi_upper(p2, p2.path_from_traversal(["b"]), [1.0, nan])


def test_phi_evaluates_cycle_to_scaled_dyad():
    # primitive cycle: rank-one dyad at the corner, scaled by lambda / 2^k
    p2 = make_graph("p2")
    u = p2.path_from_traversal(["a", "b", "a"])
    lam = unit_lambda(3, 11)
    rep = gn.phi_cycle(p2, u, lam)
    got = gn.evaluate(rep, gn.FormalElement.single(p2, u))
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 0] = lam / 8.0
    assert gn.matrices_equal(got, expected, 1e-14)


def test_phi_evaluates_cycle_power_to_diagonal():
    # u = v^2: the image picks up one lambda on the rotation-fixed diagonal
    p2 = make_graph("p2")
    u = p2.path_from_traversal(["a", "b", "a", "b"])
    lam = unit_lambda(1, 3)
    rep = gn.phi_cycle(p2, u, lam)
    got = gn.evaluate(rep, gn.FormalElement.single(p2, u))
    expected = np.diag([lam / 16.0, 0.0, lam / 16.0, 0.0])
    assert gn.matrices_equal(got, expected, 1e-14)


def test_phi_span_closure_detects_primitivity():
    p2 = make_graph("p2")
    loop1 = make_graph("loop1")
    cases = [
        (loop1, ["e"], 1),
        (loop1, ["e", "e"], 2),
        (p2, ["a", "b"], 4),
        (p2, ["a", "b", "a", "b"], 8),
        (p2, ["a", "a", "b"], 9),
    ]
    for g, word, frozen_dim in cases:
        u = g.path_from_traversal(word)
        rep = gn.phi_cycle(g, u, 1j)
        gens = list(rep.vertex_images.values()) + list(rep.edge_images.values())
        dim, _ = gn.span_closure_dim(gens, rep.dimension)
        assert dim == frozen_dim, (word, dim)
        # full matrix algebra exactly when the cycle is primitive
        root, _ = gn.primitive_root(u)
        assert (dim == u.length ** 2) == (root.length == u.length)

        exact_v, exact_e = cycle_rep_exact(walk_pairs(g, u), IMAG)
        exact_gens = list(exact_v.values()) + list(exact_e.values())
        assert span_closure_dim_exact(exact_gens) == dim, word


# -- nest representations -----------------------------------------------------------


def test_rho_single_component_matches_phi(p2):
    w = p2.path_from_traversal(["a", "b"])
    lam = unit_lambda(1, 5)
    rep, nest = gn.rho_nest(p2, w, [lam])
    phi = gn.phi_cycle(p2, w, lam)
    assert nest.block_sizes == (2,)
    for x in p2.vertices:
        assert gn.matrices_equal(rep.vertex_images[x], phi.vertex_images[x], 0.0)
    for e in ("a", "b"):
        assert gn.matrices_equal(rep.edge_images[e], phi.edge_images[e], 0.0)


def test_rho_single_crossing_edge():
    chain = make_graph("chain2")
    w = chain.path_from_traversal(["t"])
    rep, nest = gn.rho_nest(chain, w, [1.0, 1.0])
    assert nest.block_sizes == (1, 1)
    expected = np.zeros((2, 2), dtype=complex)
    expected[1, 0] = 0.5
    assert gn.matrices_equal(rep.edge_images["t"], expected, 0.0)
    assert gn.matrices_equal(rep.vertex_images["A"], np.diag([1.0 + 0j, 0.0]), 0.0)
    assert gn.matrices_equal(rep.vertex_images["B"], np.diag([0.0j, 1.0]), 0.0)


def test_rho_images_are_block_lower_triangular(scc_chain):
    w = scc_chain.path_from_traversal(["a", "e", "c", "c", "f", "h"])
    plan_blocks = gn.nest_plan(scc_chain, w).blocks
    lams = [unit_lambda(j + 1, 9) for j in range(len(plan_blocks))]
    rep, nest = gn.rho_nest(scc_chain, w, lams)
    assert rep.orientation == "lower"
    assert nest.dimension == rep.dimension
    offsets = nest.offsets
    for mats in (rep.vertex_images, rep.edge_images):
        for m in mats.values():
            for bi, oi in enumerate(offsets):
                for bj, oj in enumerate(offsets):
                    if bj > bi:  # strictly above the block diagonal
                        block = m[
                            oi : oi + nest.block_sizes[bi],
                            oj : oj + nest.block_sizes[bj],
                        ]
                        assert np.count_nonzero(block) == 0


def test_rho_pairing_entry_value(scc_chain):
    # the corner entry of rho(w) carries 2^-|w| times the block frequencies
    w = scc_chain.path_from_traversal(["a", "a", "e", "c", "f", "h", "d"])
    plan = gn.nest_plan(scc_chain, w)
    lams = [unit_lambda(j + 2, 11) for j in range(len(plan.blocks))]
    rep, nest = gn.rho_nest(scc_chain, w, lams)
    got = gn.evaluate(rep, gn.FormalElement.single(scc_chain, w))
    expected = 2.0 ** (-w.length)
    for lam, freq in zip(lams, plan.frequencies):
        expected *= lam ** freq
    assert got[plan.exit_index, plan.entry_index] == pytest.approx(expected, abs=1e-14)


def test_rho_edge_norms(scc_chain):
    # each edge image is a scaled partial permutation (norm <= 1/2); jointly the
    # crossing and the wrap edge of a block share a target vector, so the row
    # operator norm can reach 1/sqrt(2) but never exceed it
    rng = random.Random(19)
    for _ in range(10):
        w = random_walk(rng, scc_chain, 6)
        blocks = gn.nest_plan(scc_chain, w).blocks
        lams = [unit_lambda(rng.randrange(13), 13) for _ in blocks]
        rep, _ = gn.rho_nest(scc_chain, w, lams)
        for m in rep.edge_images.values():
            assert gn.operator_norm(m) <= 0.5 + 1e-12
        row = gn.row_operator_norm(list(rep.edge_images.values()))
        assert row <= 2.0 ** -0.5 + 1e-12


def test_rho_rejects_wrong_lambda_count(scc_chain):
    w = scc_chain.path_from_traversal(["e"])
    with pytest.raises(gn.PreconditionError):
        gn.rho_nest(scc_chain, w, [1.0, 1.0, 1.0])


# -- triangular representations -----------------------------------------------------


def test_psi_on_plain_edge():
    chain = make_graph("chain2")
    rep = gn.psi_upper(chain, chain.path_from_traversal(["t"]), [])
    assert rep.dimension == 2
    expected = np.zeros((2, 2), dtype=complex)
    expected[1, 0] = 0.5
    assert gn.matrices_equal(rep.edge_images["t"], expected, 0.0)
    assert gn.matrices_equal(rep.vertex_images["A"], np.diag([1.0 + 0j, 0.0]), 0.0)


def test_psi_two_loop_vertex_diagonal(p2):
    lams = [unit_lambda(j, 7) for j in (1, 2, 3)]
    rep = gn.psi_upper(p2, p2.path_from_traversal(["b", "b"]), lams)
    assert rep.dimension == 3
    assert gn.matrices_equal(
        rep.edge_images["a"], 0.5 * np.diag(lams), 1e-15
    )
    sub = np.zeros((3, 3), dtype=complex)
    sub[1, 0] = 0.5
    sub[2, 1] = 0.5
    assert gn.matrices_equal(rep.edge_images["b"], sub, 0.0)
    gens = list(rep.vertex_images.values()) + list(rep.edge_images.values())
    dim, _ = gn.span_closure_dim(gens, 3)
    assert dim == 6


def test_psi_row_operator_bound(p2):
    lams = [unit_lambda(j, 11) for j in (1, 4, 7, 9)]
    rep = gn.psi_upper(p2, p2.path_from_traversal(["b", "b", "b"]), lams)
    row = gn.row_operator_norm(list(rep.edge_images.values()))
    assert row ** 2 <= 0.5 + 1e-12


def test_psi_rejects_bad_inputs(p2):
    lams = [unit_lambda(j, 7) for j in (1, 2)]
    with pytest.raises(gn.PreconditionError):
        gn.psi_upper(p2, p2.path_from_traversal(["a"]), lams)  # designated loop
    with pytest.raises(gn.PreconditionError):
        gn.psi_upper(p2, p2.path_from_traversal(["b"]), [1.0, 1.0])  # repeated
    c2 = make_graph("c2")
    with pytest.raises(gn.PreconditionError):
        gn.psi_upper(c2, c2.path_from_traversal(["e"]), [])  # cycle vertex, no loop


def test_psi_loop_choice_override(p2):
    lams = [unit_lambda(j, 7) for j in (1, 2)]
    rep = gn.psi_upper(p2, p2.path_from_traversal(["a"]), lams, {"v": "b"})
    assert gn.matrices_equal(rep.edge_images["b"], 0.5 * np.diag(lams), 1e-15)
    with pytest.raises(gn.PathError):
        gn.psi_upper(p2, p2.path_from_traversal(["a"]), lams, {"v": "missing"})


def test_designated_loops_defaults_and_override(p2):
    assert gn.designated_loops(p2) == {"v": "a"}
    assert gn.designated_loops(p2, {"v": "b"}) == {"v": "b"}
    chain = make_graph("chain2")
    assert gn.designated_loops(chain) == {}


def test_reverse_basis_flips_orientation(p2):
    lams = [unit_lambda(j, 7) for j in (1, 2, 3)]
    rep = gn.psi_upper(p2, p2.path_from_traversal(["b", "b"]), lams)
    assert rep.orientation == "lower"
    rev = gn.reverse_basis(rep)
    assert rev.orientation == "upper"
    for m in list(rev.edge_images.values()) + list(rev.vertex_images.values()):
        assert np.count_nonzero(np.tril(m, -1)) == 0
    again = gn.reverse_basis(rev)
    for e in rep.edge_images:
        assert gn.matrices_equal(again.edge_images[e], rep.edge_images[e], 0.0)


# -- the one-sided nest truncation ---------------------------------------------------


def test_n_nest_truncation_shape_and_density(p2):
    rep = gn.n_nest_truncation(p2, 3, seed=0)
    assert rep.dimension == 4
    gens = list(rep.vertex_images.values()) + list(rep.edge_images.values())
    dim, _ = gn.span_closure_dim(gens, 4)
    assert dim == 10  # 4*5/2


def test_n_nest_truncation_deterministic(p2):
    a = gn.n_nest_truncation(p2, 4, seed=9)
    b = gn.n_nest_truncation(p2, 4, seed=9)
    for e in a.edge_images:
        assert gn.matrices_equal(a.edge_images[e], b.edge_images[e], 0.0)


def test_n_nest_truncation_requires_case_one():
    with pytest.raises(gn.PreconditionError):
        gn.n_nest_truncation(make_graph("c3"), 3, seed=0)
    with pytest.raises(gn.PreconditionError):
        gn.n_nest_truncation(make_graph("chain2"), 3, seed=0)


# -- evaluation ---------------------------------------------------------------------


def test_evaluate_vertex_projection_and_linearity(p2):
    rep = gn.phi_cycle(p2, p2.path_from_traversal(["a", "b"]), 1.0)
    pv = gn.FormalElement.single(p2, p2.vertex_path("v"), 2.0)
    assert gn.matrices_equal(gn.evaluate(rep, pv), 2 * np.eye(2), 0.0)


def test_evaluate_is_multiplicative():
    rng = random.Random(43)
    g = make_graph("scc_chain")
    w = g.path_from_traversal(["a", "e", "c"])
    lams = [unit_lambda(j + 1, 9) for j in range(len(gn.nest_plan(g, w).blocks))]
    rep, _ = gn.rho_nest(g, w, lams)
    for _ in range(10):
        a = random_nonzero_element(rng, g, max_terms=5, max_degree=3)
        b = random_nonzero_element(rng, g, max_terms=5, max_degree=3)
        lhs = gn.evaluate(rep, gn.multiply(a, b))
        rhs = gn.evaluate(rep, a) @ gn.evaluate(rep, b)
        assert gn.matrices_equal(lhs, rhs, 1e-9)


def test_evaluate_rejects_graph_mismatch(p2, c2):
    rep = gn.phi_cycle(p2, p2.path_from_traversal(["a"]), 1.0)
    with pytest.raises(ValueError):
        gn.evaluate(rep, gn.FormalElement.single(c2, c2.vertex_path("x")))


# -- relation reports ----------------------------------------------------------------


def test_relations_on_cycle_rep():
    g = make_graph("loop1")
    rep = gn.phi_cycle(g, g.path_from_traversal(["e"]), 1.0)
    report = gn.check_relations(rep)
    assert report.is_contractive
    assert not report.is_partially_isometric
    assert report.edge_isometry["e"] == pytest.approx(0.75)


def test_relations_pass_vacuously_without_edges():
    g = gn.parse_graph("vertex x\nvertex y\n")
    rep = gn.FiniteRepresentation(
        g, 2,
        {"x": np.diag([1.0 + 0j, 0.0]), "y": np.diag([0.0j, 1.0])},
        {},
    )
    report = gn.check_relations(rep)
    assert report.is_partially_isometric
    assert report.edge_isometry == {} and report.edge_orthogonality == {}


def test_relations_json_shape(p2):
    rep = gn.phi_cycle(p2, p2.path_from_traversal(["a"]), 1.0)
    payload = gn.check_relations(rep).to_json()
    assert set(payload["verdicts"]) == {
        "vertex_projections_orthogonal", "edge_ranges_orthogonal",
        "edges_partial_isometries", "range_sum_dominated",
    }
    assert payload["contractive"] is True


def test_relations_reject_a_negative_interior_index(p2):
    # numpy indexing would wrap -1 to coordinate 6: "compressed to 1 of 7"
    rep = gn.truncated_left_regular(p2, 2)
    with pytest.raises(ValueError, match=r"index -1 is outside range\(7\)"):
        gn.check_relations(rep, restrict_interior=[0, -1, -2])


def test_relations_reject_an_interior_index_past_the_dimension(p2):
    rep = gn.truncated_left_regular(p2, 2)
    with pytest.raises(ValueError, match=r"index 7 is outside range\(7\)"):
        gn.check_relations(rep, restrict_interior=[3, 7, 8])
    with pytest.raises(ValueError, match="float64 values, not indices"):
        gn.check_relations(rep, restrict_interior=[0, 2.5])


def test_relations_count_distinct_interior_coordinates(p2):
    rep = gn.truncated_left_regular(p2, 2)
    report = gn.check_relations(rep, restrict_interior=[0, 0, 0])
    assert report.restriction == "compressed to 1 of 7 coordinates"
    assert report == gn.check_relations(rep, restrict_interior=[0])
    assert gn.check_relations(rep, restrict_interior=[]).restriction == (
        "compressed to 0 of 7 coordinates"
    )


# -- purity and coisometry -----------------------------------------------------------


def test_purity_defect_hand_case(p2):
    rep = gn.FiniteRepresentation(
        p2, 1,
        {"v": np.array([[1.0 + 0j]])},
        {"a": np.array([[0.5 + 0j]]), "b": np.array([[0.5 + 0j]])},
    )
    for d in range(1, 9):
        assert abs(gn.purity_defect(rep, d) - 2.0 ** (-d)) <= 1e-12


def test_purity_defect_geometric_bound():
    for name, word in [("p2", ["a", "b"]), ("c3", ["e1", "e2", "e3"])]:
        g = make_graph(name)
        rep = gn.phi_cycle(g, g.path_from_traversal(word), unit_lambda(1, 7))
        r = gn.row_operator_norm(list(rep.edge_images.values()))
        for d in (1, 3, 5, 8):
            assert gn.purity_defect(rep, d) <= r ** (2 * d) + 1e-9


def test_purity_defect_zero_edges():
    g = gn.parse_graph("vertex x\nedge e x x\n")
    rep = gn.FiniteRepresentation(
        g, 1, {"x": np.array([[1.0 + 0j]])}, {"e": np.zeros((1, 1), dtype=complex)}
    )
    assert gn.purity_defect(rep, 3) == 0.0


def test_purity_defect_path_cap(p2):
    # both loops act by a nonzero scalar, so every one of the 2^d paths
    # survives: the diagonal power sums them all without walking them
    rep = gn.FiniteRepresentation(
        p2, 1,
        {"v": np.array([[1.0 + 0j]])},
        {"a": np.array([[0.5 + 0j]]), "b": np.array([[0.5 + 0j]])},
    )
    for d in (30, 17, 60):
        assert gn.purity_defect(rep, d) == 2.0 ** -d
    assert not hasattr(gn.reps, "MAX_DEFECT_PATHS")


def test_purity_walk_drops_vanishing_paths(p2):
    # in a cycle representation each basis vector survives along one path
    # of the 2^d paths of length d
    rep = gn.phi_cycle(p2, p2.path_from_traversal(["a", "b"]), unit_lambda(1, 5))
    assert gn.purity_defect(rep, 12) == pytest.approx(4.0 ** -12, abs=1e-20)


def test_purity_defect_of_deep_fock_is_one(p2):
    # 4096 paths of length 12, each an isometry onto one basis vector: a walk
    # over the paths would hold one 8191-wide array per path
    rep = gn.truncated_left_regular(p2, 12)
    start = time.perf_counter()
    assert gn.purity_defect(rep, 12) == 1.0
    assert gn.purity_defect(rep, 13) == 0.0
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("d", [0, -1, 2.5, 2.0, "3", None])
def test_purity_defect_rejects_a_depth_that_is_not_a_positive_integer(p2, d):
    rep = gn.phi_cycle(p2, p2.path_from_traversal(["a"]), 1.0)
    with pytest.raises(ValueError, match="depth must be an integer ≥ 1"):
        gn.purity_defect(rep, d)


def test_is_coisometric(p2):
    r = 1.0 / np.sqrt(2.0)
    rep = gn.FiniteRepresentation(
        p2, 1,
        {"v": np.array([[1.0 + 0j]])},
        {"a": np.array([[r + 0j]]), "b": np.array([[r + 0j]])},
    )
    assert gn.is_coisometric(rep)
    phi = gn.phi_cycle(p2, p2.path_from_traversal(["a"]), 1.0)
    assert not gn.is_coisometric(phi)


# -- serialization -------------------------------------------------------------------


def test_rep_json_round_trip(p2):
    lams = [unit_lambda(j, 7) for j in (1, 2, 3)]
    rep = gn.psi_upper(p2, p2.path_from_traversal(["b", "b"]), lams)
    back = gn.rep_from_json(p2, gn.rep_to_json(rep))
    assert back.dimension == rep.dimension
    for x in p2.vertices:
        assert gn.matrices_equal(back.vertex_images[x], rep.vertex_images[x], 0.0)
    for e in ("a", "b"):
        assert gn.matrices_equal(back.edge_images[e], rep.edge_images[e], 0.0)


def test_rep_from_json_rejects_what_is_not_a_monomial_representation():
    g = gn.parse_graph("vertex v\nvertex w\nedge a v v\nedge b v w\n")
    ok = {
        "dimension": 2,
        "orientation": None,
        "vertex_images": {
            "v": gn.matrix_to_json(np.diag([1.0 + 0j, 0.0])),
            "w": gn.matrix_to_json(np.diag([0.0j, 1.0])),
        },
        "edge_images": {
            "a": gn.matrix_to_json(np.array([[0.5, 0], [0, 0]], dtype=complex)),
            "b": gn.matrix_to_json(np.array([[0, 0], [0.5, 0]], dtype=complex)),
        },
    }
    gn.rep_from_json(g, ok)

    def altered(part, name, matrix):
        image = gn.matrix_to_json(np.array(matrix, dtype=complex))
        return {**ok, part: {**ok[part], name: image}}

    bad = [
        # two nonzeros in one column
        (altered("edge_images", "a", [[0.5, 0], [0.5, 0]]), "partial permutation"),
        # an entry outside the source and target positions
        (altered("edge_images", "b", [[0.5, 0], [0, 0]]), "covariance"),
        # a non-0/1 vertex diagonal
        (altered("vertex_images", "w", [[0, 0], [0, 0.5]]), "0/1 projection"),
        # overlapping vertex images
        (altered("vertex_images", "w", [[1, 0], [0, 1]]), "overlap"),
    ]
    for obj, message in bad:
        with pytest.raises(ValueError, match=message):
            gn.rep_from_json(g, obj)


def test_rep_from_json_checks_its_input_before_allocating(p2):
    # 10**12 basis vectors would take terabytes: the missing images are
    # reported before anything of that size is allocated
    huge = {"dimension": 10**12, "vertex_images": {}, "edge_images": {}}
    with pytest.raises(ValueError, match="missing or has the wrong shape"):
        gn.rep_from_json(p2, huge)
    ok = gn.rep_to_json(gn.phi_cycle(p2, p2.path_from_traversal(["a"]), 1.0))
    for orientation in ("sideways", ["lower"], 1):
        with pytest.raises(ValueError, match="orientation"):
            gn.rep_from_json(p2, {**ok, "orientation": orientation})
    assert gn.rep_from_json(p2, {**ok, "orientation": "upper"}).orientation == "upper"


def test_rep_from_json_on_a_graph_without_vertices_fails_before_allocating():
    # no image bounds the dimension: this used to ask numpy for 7.28 TiB
    empty = gn.DirectedGraph([], [])
    with pytest.raises(gn.EmptyInputError, match="no vertices"):
        gn.rep_from_json(empty, {"dimension": 10**12, "vertex_images": {}, "edge_images": {}})


def test_dense_constructor_converts_exact_weighted_partial_permutations(p2):
    v = np.eye(2, dtype=complex)
    swap = np.array([[0, 0.5j], [0.25, 0]])
    rep = gn.FiniteRepresentation(p2, 2, {"v": v}, {"a": swap, "b": np.zeros((2, 2))})
    assert np.array_equal(rep.edge_images["a"], swap)
    assert not np.any(rep.edge_images["b"])
    # the same facts through another representation's views
    assert gn.FiniteRepresentation(p2, 2, rep.vertex_images, rep.edge_images) == rep
    rejected = {
        "non-diagonal projection": ({"v": np.full((2, 2), 0.5)}, {"a": swap, "b": swap}),
        "two nonzeros in one row": ({"v": v}, {"a": [[0.5, 0.5], [0, 0]], "b": swap}),
        "missing edge": ({"v": v}, {"a": swap}),
        "unknown edge": ({"v": v}, {"a": swap, "b": swap, "c": swap}),
        "wrong shape": ({"v": v}, {"a": np.zeros((3, 3)), "b": swap}),
    }
    for why, (vertex_images, edge_images) in rejected.items():
        with pytest.raises(ValueError):
            gn.FiniteRepresentation(p2, 2, vertex_images, edge_images)


def test_images_are_read_only_views_built_per_key(p2):
    rep = gn.truncated_left_regular(p2, 3)
    assert len(rep.edge_images) == 2 and len(rep.vertex_images) == 1
    assert "a" in rep.edge_images and "v" not in rep.edge_images
    with pytest.raises(TypeError):
        rep.edge_images["a"] = np.eye(rep.dimension)
    with pytest.raises(KeyError):
        rep.edge_images["c"]
    image = rep.edge_images["a"]
    image[:] = 7
    assert np.count_nonzero(rep.edge_images["a"]) == 7  # ξ_w -> ξ_aw for |w| < 3
    assert np.array_equal(rep.vertex_images["v"], np.eye(rep.dimension))


def test_reverse_basis_twice_is_the_identity(scc_chain):
    w = scc_chain.path_from_traversal(["a", "e", "c", "f", "h", "d"])
    lams = [unit_lambda(j + 1, 9) for j in range(len(gn.nest_plan(scc_chain, w).blocks))]
    rep, _ = gn.rho_nest(scc_chain, w, lams)
    flipped = gn.reverse_basis(rep)
    assert flipped != rep
    assert gn.reverse_basis(flipped) == rep
