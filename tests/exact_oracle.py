"""Reference oracles used to pin expected values independently.

Matrices over the Gaussian rationals are stored as tuples of tuples of
``(Fraction, Fraction)`` pairs (real, imaginary).  The span-closure
dimension is computed by exact Gaussian elimination, so the expected
generated-algebra dimensions frozen into the tests do not depend on any
floating-point rank decision.  The cycle-representation builder here is a
separate, direct transcription of the defining formulas, used to
cross-check the package's construction entry by entry.

The dense builders and checks take representations the slow way: every
vertex and edge image is a k×k matrix, filled from a family's basis layout
or from the truncated Fock basis, validated with per-pair operator norms,
and measured with dense products, SVDs and eigenvalues.  They check the
package's monomial storage, which builds no k×k array for these.

The sampled recoveries at the end take each path coefficient the slow way:
they build the dense representation at every point of a root-of-unity grid
sized from the element's degree, read the pairing entry there, and take
the discrete Fourier transform.  They check the package's recovery, which
reads the same coefficient from a polynomial without sampling.

``span_closure_dim_semi_naive`` is the generated-algebra loop that
multiplied new directions by the whole basis in both orders; the package
now multiplies them only by an orthonormal basis of the generators' span.

``matrix_to_json_by_entries`` is the per-entry matrix encoding that the
package's one-call numpy encoding replaces, and ``rep_to_json_by_entries``
the schema-1 representation JSON encoded that way from the dense views,
which the package writes from its monomial storage instead.

``fock_basis_per_vertex`` and ``n_nest_by_free_word_walk`` enumerate paths
by length the way the package did before it had one enumerator: the Fock
basis vertex by vertex with one final sort, and the free words of the
naturally ordered nest by a walk of their own that sorts each length.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

import graphnest as gn
from graphnest.graphs import _bfs_shortest_lex
from graphnest.linalg import _orthonormal_rows

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
IMAG = (Fraction(0), Fraction(1))
HALF = (Fraction(1, 2), Fraction(0))


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gsub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gdiv(a, b):
    denom = b[0] * b[0] + b[1] * b[1]
    conj = (b[0] / denom, -b[1] / denom)
    return gmul(a, conj)


def mat_zero(k):
    return [[ZERO for _ in range(k)] for _ in range(k)]


def mat_mul(a, b):
    k = len(a)
    out = mat_zero(k)
    for i in range(k):
        for j in range(k):
            acc = ZERO
            for m in range(k):
                if a[i][m] != ZERO and b[m][j] != ZERO:
                    acc = gadd(acc, gmul(a[i][m], b[m][j]))
            out[i][j] = acc
    return out


def to_complex(m):
    return [[complex(e[0], e[1]) for e in row] for row in m]


def cycle_rep_exact(walk, lam):
    """Exact matrices of the cycle representation, from the formulas.

    ``walk`` is the cycle as a list of ``(edge_name, source_vertex)`` pairs
    in walking order.  Position j (1-based) carries the basis vector sitting
    at the source of the j-th walked edge; the j-th walked edge contributes
    1/2 at (j mod k, j-1) in 0-based indexing, with the wrap entry scaled
    by ``lam``.  Returns (vertex_images, edge_images) keyed by name.
    """
    k = len(walk)
    vmats = {}
    emats = {}
    for j, (ename, src) in enumerate(walk, start=1):
        vm = vmats.setdefault(src, mat_zero(k))
        vm[j - 1][j - 1] = ONE
        em = emats.setdefault(ename, mat_zero(k))
        weight = gmul(HALF, lam) if j == k else HALF
        em[j % k][j - 1] = gadd(em[j % k][j - 1], weight)
    return vmats, emats


def _reduce(vec, echelon):
    vec = list(vec)
    for pivot, bvec in echelon:
        if vec[pivot] != ZERO:
            f = gdiv(vec[pivot], bvec[pivot])
            for i in range(len(vec)):
                vec[i] = gsub(vec[i], gmul(f, bvec[i]))
    return vec


def _insert(vec, echelon):
    """Add a vector to the echelon basis; return True if independent."""
    vec = _reduce(vec, echelon)
    for pivot, entry in enumerate(vec):
        if entry != ZERO:
            echelon.append((pivot, vec))
            return True
    return False


def span_closure_dim_exact(gens):
    """Dimension of the algebra generated by exact matrices.

    Iterates products until the linear span is multiplicatively closed,
    with all rank decisions exact.
    """
    echelon = []
    members = []
    frontier = []
    for m in gens:
        vec = [e for row in m for e in row]
        if _insert(vec, echelon):
            members.append(m)
            frontier.append(m)
    while frontier:
        fresh = []
        for f in frontier:
            for m in members:
                for prod in (mat_mul(f, m), mat_mul(m, f)):
                    vec = [e for row in prod for e in row]
                    if _insert(vec, echelon):
                        fresh.append(prod)
        members.extend(fresh)
        frontier = fresh
    return len(echelon)


def span_closure_dim_semi_naive(gens, dim):
    """The generated algebra of complex k×k matrices the way the package
    computed it before it multiplied only by the generators: each round
    multiplies the basis directions new since the last round by the whole
    basis, in both orders, and re-ranks the stack with one SVD.  Returns
    ``(dimension, orthonormal basis)`` like ``span_closure_dim``."""
    k = int(dim)
    mats = [np.asarray(m, dtype=np.complex128) for m in gens]
    if not mats:
        return 0, []
    basis_rows = _orthonormal_rows(np.array([m.reshape(-1) for m in mats]))
    r = fresh = basis_rows.shape[0]
    full = k * k
    for _ in range(1 + full):
        if r == 0 or r == full:
            break
        cube = basis_rows.reshape(r, k, k)
        old, new = cube[: r - fresh], cube[r - fresh:]
        stacked = np.vstack([
            basis_rows,
            (new[:, None] @ cube[None]).reshape(-1, full),
            (old[:, None] @ new[None]).reshape(-1, full),
        ])
        grown = _orthonormal_rows(stacked)
        fresh = grown.shape[0] - r
        if fresh <= 0:
            break
        residual = grown - (grown @ basis_rows.conj().T) @ basis_rows
        basis_rows = np.vstack(
            [basis_rows, np.linalg.svd(residual, full_matrices=False)[2][:fresh]]
        )
        r = basis_rows.shape[0]
    return r, [row.reshape(k, k) for row in basis_rows]


# -- reachability ----------------------------------------------------------------


def bfs_reachable(g, x):
    """Every vertex reachable from ``x`` (``x`` included), by a plain
    breadth-first search over out-edges."""
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for v in frontier:
            for e in g.out_edges(v):
                if e.target not in seen:
                    seen.add(e.target)
                    nxt.append(e.target)
        frontier = nxt
    return seen


def reach_table(g):
    """Reflexive reachability as ``{x: set of vertices x reaches}``."""
    return {x: bfs_reachable(g, x) for x in g.vertices}


def faithful_nest_by_pairs(g):
    """``(quotient_totally_ordered, trivial_chain_interval)`` from their
    definitions, over all vertex pairs of the reachability table.

    Vertices in one strongly connected component are comparable with the
    same vertices, so the quotient is totally ordered iff every pair of
    vertices is comparable.  A vertex is trivial when it lies on no cycle.
    Condition 3 asks that the trivial vertices be totally ordered, that the
    edges among them be exactly one per consecutive pair of that order, and
    that no vertex on a cycle be reached from a trivial vertex while
    reaching one.
    """
    table = reach_table(g)

    def comparable(x, y):
        return y in table[x] or x in table[y]

    total = all(comparable(x, y) for x in g.vertices for y in g.vertices)
    on_cycle = {e.source for e in g.edges if e.source in table[e.target]}
    trivial = [x for x in g.vertices if x not in on_cycle]
    if not trivial:
        return total, True
    if not all(comparable(x, y) for x in trivial for y in trivial):
        return total, False
    chain = sorted(trivial, key=lambda x: -sum(1 for y in trivial if y in table[x]))
    members = set(trivial)
    induced = sorted((e.source, e.target) for e in g.edges
                     if e.source in members and e.target in members)
    if induced != sorted(zip(chain, chain[1:])):
        return total, False
    between = any(
        any(c in table[t] for t in trivial) and any(t in table[c] for t in trivial)
        for c in on_cycle
    )
    return total, not between


def _chain_order(g, chain_set):
    """If the induced subgraph on ``chain_set`` is a simple directed path
    covering it (one edge between consecutive members, nothing else), return
    the vertices in flow order; otherwise None.  Walks the path from its one
    vertex without an in-edge, by in- and out-degree counts."""
    internal = [e for e in g.edges if e.source in chain_set and e.target in chain_set]
    n = len(chain_set)
    if len(internal) != n - 1:
        return None
    out_deg = {v: 0 for v in chain_set}
    in_deg = {v: 0 for v in chain_set}
    nxt = {}
    for e in internal:
        out_deg[e.source] += 1
        in_deg[e.target] += 1
        nxt[e.source] = e.target
    if any(d > 1 for d in out_deg.values()) or any(d > 1 for d in in_deg.values()):
        return None
    heads = [v for v in chain_set if in_deg[v] == 0]
    if len(heads) != 1:
        return None
    walk = [heads[0]]
    while walk[-1] in nxt:
        walk.append(nxt[walk[-1]])
    return walk if len(walk) == n else None


def n_nest_case_by_chain_walk(g):
    """``(case, requires_infinite)`` of the naturally ordered nest case
    analysis, finding each chain by walking it with ``_chain_order``."""
    cond = gn.condensation(g)
    if gn.is_strongly_transitive(g) and all(g.loops_at(x) for x in g.vertices):
        return "One", False
    nontrivial = [c for c in cond.components if not c.is_trivial]
    trivial = [c for c in cond.components if c.is_trivial]
    if (
        len(nontrivial) == 1
        and nontrivial[0].component_class is gn.ComponentClass.STRONGLY_TRANSITIVE
        and trivial
        and all(g.loops_at(x) for x in nontrivial[0].vertices)
    ):
        base = set(nontrivial[0].vertices)
        chain_set = {c.vertices[0] for c in trivial}
        if not any(e.source in chain_set and e.target in base for e in g.edges):
            walk = _chain_order(g, chain_set)
            if walk is not None and any(
                e.source in base and e.target == walk[0] for e in g.edges
            ):
                return "Three", False
    if not nontrivial and _chain_order(g, set(g.vertices)) is not None:
        return "None", True
    return "None", False


def component_by_definition(g, table, x):
    """The strongly connected component of ``x`` and its class name: the
    vertices that ``x`` reaches and is reached from; "Trivial" for one
    vertex without a loop, "Cycle" when each member has exactly one
    internal out-edge and one internal in-edge, else "StronglyTransitive"."""
    members = {y for y in table[x] if x in table[y]}
    internal = [e for e in g.edges if e.source in members and e.target in members]
    if len(members) == 1 and not internal:
        return members, "Trivial"
    single = all(
        sum(e.source == v for e in internal) == 1 == sum(e.target == v for e in internal)
        for v in members
    )
    return members, "Cycle" if single else "StronglyTransitive"


# -- dense representations --------------------------------------------------------


def dense_from_layout(layout, lambdas):
    """``(vertex_images, edge_images)`` of a basis layout at one parameter per
    axis, as k×k matrices over every vertex and edge of its graph."""
    g = layout.graph
    k = len(layout.labels)
    vertex_images = {x: np.zeros((k, k), dtype=np.complex128) for x in g.vertices}
    edge_images = {e.name: np.zeros((k, k), dtype=np.complex128) for e in g.edges}
    for i, x in enumerate(layout.labels):
        vertex_images[x][i, i] = 1.0
    for name, cols in layout.steps.items():
        image = edge_images[name]
        for col, (row, axis) in cols.items():
            image[row, col] = 0.5 if axis is None else 0.5 * lambdas[axis]
    return vertex_images, edge_images


def dense_fock(g, d):
    """``(basis, vertex_images, edge_images)`` of the truncated left regular
    representation: ξ_w at r(w), and ξ_w -> ξ_{ew} while |ew| <= d."""
    basis = gn.truncated_fock_basis(g, d)
    n = basis.dimension
    vertex_images = {}
    for x in g.vertices:
        m = np.zeros((n, n), dtype=np.complex128)
        for i, w in enumerate(basis.paths):
            if w.target == x:
                m[i, i] = 1.0
        vertex_images[x] = m
    edge_images = {}
    for e in g.edges:
        m = np.zeros((n, n), dtype=np.complex128)
        ep = g.edge_path(e.name)
        for i, w in enumerate(basis.paths):
            if w.target == e.source and w.length + 1 <= d:
                m[basis.index(gn.compose(ep, w)), i] = 1.0
        edge_images[e.name] = m
    return basis, vertex_images, edge_images


def validate_dense(g, ps, ss, norm_tol=1e-9):
    """Raise ValueError unless the vertex images are pairwise orthogonal
    projections and each edge image E satisfies E = P_r(e)·E·P_s(e)."""
    names = list(g.vertices)
    for x in names:
        if not gn.is_orthogonal_projection(ps[x]):
            raise ValueError(f"vertex {x!r} image is not an orthogonal projection")
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            if gn.operator_norm(ps[x] @ ps[y]) > norm_tol:
                raise ValueError(f"vertex images of {x!r} and {y!r} are not orthogonal")
    for e in g.edges:
        s = ss[e.name]
        framed = ps[e.target] @ s @ ps[e.source]
        if gn.operator_norm(s - framed) > norm_tol:
            raise ValueError(f"edge {e.name!r} image violates vertex covariance")


def check_relations_dense(g, ps, ss, restrict_interior=None):
    """Residual dicts of the four relations (vertex orthogonality, edge
    orthogonality, edge isometry, range bound), each formed from the full
    matrices and compressed afterwards to ``restrict_interior``."""
    if restrict_interior is not None:
        idx = list(restrict_interior)

        def c(m):
            return m[np.ix_(idx, idx)]

    else:

        def c(m):
            return m

    vertex_orth = {}
    names = list(g.vertices)
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            vertex_orth[(x, y)] = gn.operator_norm(c(ps[x] @ ps[y]))
    edge_orth = {}
    edge_names = [e.name for e in g.edges]
    for i, e in enumerate(edge_names):
        for f in edge_names[i + 1 :]:
            edge_orth[(e, f)] = gn.operator_norm(c(ss[e].conj().T @ ss[f]))
    edge_iso = {
        e.name: gn.operator_norm(c(ss[e.name].conj().T @ ss[e.name] - ps[e.source]))
        for e in g.edges
    }
    range_bound = {}
    for x in names:
        acc = -ps[x].astype(np.complex128)
        for e in g.in_edges(x):
            acc = acc + ss[e.name] @ ss[e.name].conj().T
        compressed = c((acc + acc.conj().T) / 2)
        if compressed.size == 0:
            range_bound[x] = 0.0
        else:
            range_bound[x] = max(0.0, float(np.linalg.eigvalsh(compressed).max()))
    return vertex_orth, edge_orth, edge_iso, range_bound


def purity_defect_dense(g, ss, k, d, max_paths=100_000):
    """‖Σ_{|p|=d} ρ(p)ρ(p)^*‖ by incremental dense products, dropping
    exactly vanishing ones; LimitError past ``max_paths`` survivors."""
    frontier = [(e.target, ss[e.name]) for e in g.edges if np.count_nonzero(ss[e.name])]
    for _ in range(d - 1):
        nxt = []
        for v, m in frontier:
            for e in g.out_edges(v):
                prod = ss[e.name] @ m
                if np.count_nonzero(prod):
                    nxt.append((e.target, prod))
                    if len(nxt) > max_paths:
                        raise gn.LimitError(f"purity walk exceeded {max_paths} surviving paths")
        frontier = nxt
        if not frontier:
            break
    acc = np.zeros((k, k), dtype=np.complex128)
    for _, m in frontier:
        acc += m @ m.conj().T
    return gn.operator_norm(acc)


def is_coisometric_dense(g, ss, k, norm_tol=1e-9):
    """Whether Σ S_e S_e^* = I within ``norm_tol`` in operator norm."""
    acc = -np.eye(k, dtype=np.complex128)
    for e in g.edges:
        acc += ss[e.name] @ ss[e.name].conj().T
    return gn.operator_norm(acc) <= norm_tol


def evaluate_dense(ps, ss, k, a):
    """Σ c_p ρ(p), each path a product of edge images in composition order."""
    out = np.zeros((k, k), dtype=np.complex128)
    for p, c in a.items():
        if p.is_vertex:
            m = ps[p.source]
        else:
            m = ss[p.edges[0]]
            for name in p.edges[1:]:
                m = m @ ss[name]
        out += c * m
    return out


def matrix_to_json_by_entries(m):
    """Row-major [re, im] pairs, one Python float pair per entry."""
    a = np.asarray(m, dtype=np.complex128)
    rows, cols = a.shape
    return {
        "rows": rows,
        "cols": cols,
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def rep_to_json_by_entries(rep):
    """Schema-1 representation JSON: every vertex and edge image read as a
    dense k×k matrix and encoded entry by entry."""
    return {
        "dimension": rep.dimension,
        "orientation": rep.orientation,
        "vertex_images": {x: matrix_to_json_by_entries(m) for x, m in rep.vertex_images.items()},
        "edge_images": {e: matrix_to_json_by_entries(m) for e, m in rep.edge_images.items()},
    }


# -- sampled recovery ------------------------------------------------------------


def _sampled_coefficient(rep_at, a, row, col, counts, frequency):
    """Fourier coefficient of the (row, col) entry of ``a`` at ``frequency``,
    from the dense representation ``rep_at(point)`` rebuilt at every point
    of the product grid of ``counts[i]``-th roots of unity."""
    samples = np.empty(counts, dtype=np.complex128)
    for index in itertools.product(*(range(n) for n in counts)):
        point = tuple(
            complex(np.exp(2j * np.pi * (t / n))) for t, n in zip(index, counts)
        )
        samples[index] = gn.evaluate(rep_at(point), a)[row, col]
    return complex(np.fft.fftn(samples)[frequency] / math.prod(counts))


def _check_oversample(oversample):
    if oversample < 1:
        raise ValueError("oversample must be at least 1")


def recover_irreducible_sampled(g, a, w, oversample=1):
    """Coefficient of ``w`` from cycle representations on the primitive
    cycle completing ``w``; a vertex path reads the 1×1 representation
    supported on its vertex.  ``oversample`` multiplies the sample count."""
    _check_oversample(oversample)
    if w.is_vertex:
        zero = np.zeros((1, 1), dtype=np.complex128)
        rep = gn.FiniteRepresentation(
            g, 1,
            {y: np.ones((1, 1)) if y == w.source else zero for y in g.vertices},
            {e.name: zero for e in g.edges},
        )
        return complex(gn.evaluate(rep, a)[0, 0])
    root, _ = gn.primitive_root(gn.compose(gn.complete_to_cycle(g, w), w))
    k = root.length
    row, freq = w.length % k, w.length // k
    count = oversample * (1 + max(freq, max(0, (gn.degree(a) - w.length) // k)))
    coeff = _sampled_coefficient(
        lambda point: gn.phi_cycle(g, root, point[0]),
        a, row, 0, (count,), (freq,),
    )
    return (2.0 ** w.length) * coeff


def recover_nest_sampled(g, a, w, oversample=1):
    """Coefficient of ``w`` from nest representations on ``w``, sampled on
    a grid wide enough for every block's frequencies up to the degree."""
    _check_oversample(oversample)
    plan = gn.nest_plan(g, w)
    d = gn.degree(a)
    base = len(plan.crossing) + sum(b.prefix_len for b in plan.blocks)
    counts = tuple(
        oversample * (1 if b.cycle is None else 1 + max(b.wraps, max(0, (d - base) // b.size)))
        for b in plan.blocks
    )
    coeff = _sampled_coefficient(
        lambda point: gn.rho_nest(g, w, point)[0],
        a, plan.exit_index, plan.entry_index, counts, plan.frequencies,
    )
    return (2.0 ** w.length) * coeff


def recover_upper_sampled(g, a, v, loop_choice=None, oversample=1):
    """Coefficient of ``v`` from triangular representations on its skeleton
    (``v`` without designated loops), at the dwell counts' frequency."""
    _check_oversample(oversample)
    designated = gn.designated_loops(g, loop_choice)
    kept, dwell, current = [], {}, v.source
    for name in v.traversal:
        if designated.get(current) == name:
            dwell[len(kept) + 1] = dwell.get(len(kept) + 1, 0) + 1
        else:
            kept.append(name)
        current = g.edge(name).target
    skeleton = g.path_from_traversal(kept) if kept else g.vertex_path(v.source)
    plan = gn.upper_plan(g, skeleton, loop_choice)
    frequency = tuple(dwell.get(j, 0) for j in plan.loop_positions)
    slack = max(0, gn.degree(a) - (plan.k - 1))
    counts = []
    for j, m_j in zip(plan.loop_positions, frequency):
        loop = designated[plan.positions[j - 1]]
        occurrences = max(p.traversal.count(loop) for p in a.support) if a.support else 0
        counts.append(oversample * (1 + max(m_j, min(occurrences, slack))))
    coeff = _sampled_coefficient(
        lambda point: gn.upper_plan(g, skeleton, loop_choice).layout.dense(point),
        a, plan.k - 1, 0, tuple(counts), frequency,
    )
    return (2.0 ** v.length) * coeff


# -- path enumeration by length --------------------------------------------------


def fock_basis_per_vertex(g, depth):
    """Paths of length <= ``depth``: each vertex's paths level by level,
    then all of them sorted by ``path_sort_key``."""
    collected = []
    for v in g.vertices:
        level = [g.vertex_path(v)]
        collected += level
        for _ in range(depth):
            level = [
                gn.Path(p.source, e.target, (e.name,) + p.edges)
                for p in level
                for e in g.out_edges(p.target)
            ]
            collected += level
    return tuple(sorted(collected, key=g.path_sort_key))


def _free_words(g, reserved):
    """Words avoiding the ``reserved`` edges, by length then declaration
    order; each length is built from the last and sorted."""
    level = [g.vertex_path(v) for v in g.vertices]
    while True:
        nxt = [
            gn.Path(p.source, e.target, (e.name,) + p.edges)
            for p in level
            for e in g.out_edges(p.target)
            if e.name not in reserved
        ]
        if not nxt:
            return
        nxt.sort(key=g.path_sort_key)
        yield from nxt
        level = nxt


def _prime_at_least(n):
    while n < 2 or any(n % d == 0 for d in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def n_nest_by_free_word_walk(g, prefix_len, seed):
    """The naturally ordered nest corner of a case-One graph: the free words
    joined by shortest connecting paths, cut to ``prefix_len`` edges, with
    roots of unity of a prime order >= 101 on the designated loops."""
    designated = {x: g.loops_at(x)[0].name for x in g.vertices}
    edges, start, end = [], None, None
    for word in _free_words(g, set(designated.values())):
        if end is None:
            start = word.source
        else:
            edges += _bfs_shortest_lex(g, end, word.source)
        edges += word.traversal
        end = word.target
        if len(edges) >= prefix_len:
            break
    edges = edges[:prefix_len]
    walk = g.path_from_traversal(edges) if edges else g.vertex_path(start)
    plan = gn.upper_plan(g, walk, designated)
    order = _prime_at_least(max(101, plan.k + 1))
    return plan.layout.dense(
        [cmath.exp(2j * cmath.pi * ((seed + j) % order) / order) for j in plan.loop_positions]
    )
