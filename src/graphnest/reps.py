"""Finite-dimensional representations of the path semigroupoid.

Three explicit constructions drive everything downstream:

* ``phi_cycle`` — the k-dimensional representation attached to a cycle of
  length k and a unit-modulus parameter, supported on the cycle's edges with
  every edge scaled by ½.  It is irreducible exactly when the cycle is
  primitive.
* ``rho_nest`` — a block lower-triangular representation attached to an
  arbitrary path: one ``phi_cycle`` block per component-internal segment of
  the path (a 1×1 block per vertex segment), with the crossing edges mapped
  to ½-scaled dyads connecting consecutive blocks.
* ``psi_upper`` — a triangular representation attached to a path in a graph
  whose cycle-supporting vertices all carry loops: one designated loop per
  loop vertex acts diagonally with unit-modulus weights, every other walked
  edge steps down the subdiagonal.

All constructions scale edges by ½ so the row operator is a strict
contraction; the relation report distinguishes such contractive
representations from partially isometric ones instead of erroring.  Each
is decided once as a basis layout, in which every edge sends a basis vector
to at most one other: the layout builds the dense matrices and reads an
element's pairing entry as an exact polynomial in the parameters.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .classify import is_strongly_transitive, ut_separating_condition
from .errors import LimitError, PreconditionError
from .graphs import (
    DirectedGraph,
    Path,
    complete_to_cycle,
    compose,
    decompose_path,
    primitive_root,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    ToleranceConfig,
    as_matrix,
    is_orthogonal_projection,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .elements import FormalElement

#: Modulus slack accepted when checking |λ| = 1 on constructor inputs.
UNIT_MODULUS_TOL = 1e-12

#: Default ceiling on the number of (nonvanishing) paths purity_defect walks.
DEFAULT_MAX_DEFECT_PATHS = 100_000


class FiniteRepresentation:
    """A representation by k×k complex matrices.

    ``vertex_images`` and ``edge_images`` are total maps over the graph's
    vertices and edges.  On construction (unless ``validate=False``) the
    vertex images are checked to be pairwise-orthogonal projections and each
    edge image E to satisfy E = P_{r(e)}·E·P_{s(e)} within ``tol.norm_tol``.

    ``orientation`` records triangularity of the construction ("lower",
    "upper", or None); ``fock_basis`` carries the basis labels for the
    truncated left regular representation.
    """

    __slots__ = ("graph", "dimension", "vertex_images", "edge_images", "orientation", "fock_basis")

    def __init__(
        self,
        graph: DirectedGraph,
        dimension: int,
        vertex_images: Mapping[str, np.ndarray],
        edge_images: Mapping[str, np.ndarray],
        *,
        orientation: str | None = None,
        fock_basis=None,
        tol: ToleranceConfig = DEFAULT_TOLERANCES,
        validate: bool = True,
    ):
        self.graph = graph
        self.dimension = int(dimension)
        self.vertex_images = {x: as_matrix(m) for x, m in vertex_images.items()}
        self.edge_images = {e: as_matrix(m) for e, m in edge_images.items()}

        k = self.dimension
        for x in graph.vertices:
            if x not in self.vertex_images:
                raise ValueError(f"missing image for vertex {x!r}")
            if self.vertex_images[x].shape != (k, k):
                raise ValueError(f"vertex {x!r} image has wrong shape")
        for e in graph.edges:
            if e.name not in self.edge_images:
                raise ValueError(f"missing image for edge {e.name!r}")
            if self.edge_images[e.name].shape != (k, k):
                raise ValueError(f"edge {e.name!r} image has wrong shape")
        self.orientation = orientation
        self.fock_basis = fock_basis
        if validate:
            self._validate(tol)

    def _validate(self, tol: ToleranceConfig):
        names = list(self.graph.vertices)
        for x in names:
            if not is_orthogonal_projection(self.vertex_images[x], tol):
                raise ValueError(f"vertex {x!r} image is not an orthogonal projection")
        for i, x in enumerate(names):
            for y in names[i + 1 :]:
                if operator_norm(self.vertex_images[x] @ self.vertex_images[y]) > tol.norm_tol:
                    raise ValueError(f"vertex images of {x!r} and {y!r} are not orthogonal")
        for e in self.graph.edges:
            s = self.edge_images[e.name]
            framed = self.vertex_images[e.target] @ s @ self.vertex_images[e.source]
            if operator_norm(s - framed) > tol.norm_tol:
                raise ValueError(f"edge {e.name!r} image violates vertex covariance")

    # -- evaluation ----------------------------------------------------------

    def image(self, name: str) -> np.ndarray:
        """Image of a vertex or edge by name."""
        if name in self.vertex_images:
            return self.vertex_images[name]
        if name in self.edge_images:
            return self.edge_images[name]
        raise KeyError(f"{name!r} is neither a vertex nor an edge of the graph")

    def evaluate_path(self, p: Path) -> np.ndarray:
        """Matrix of a path: the product of edge images in composition
        order (a vertex path gives its projection)."""
        if p.is_vertex:
            return self.vertex_images[p.source]
        m = self.edge_images[p.edges[0]]
        for name in p.edges[1:]:
            m = m @ self.edge_images[name]
        return m

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteRepresentation):
            return NotImplemented
        return (
            self.graph == other.graph
            and self.dimension == other.dimension
            and self.orientation == other.orientation
            and all(
                np.array_equal(self.vertex_images[x], other.vertex_images[x])
                for x in self.graph.vertices
            )
            and all(
                np.array_equal(self.edge_images[e.name], other.edge_images[e.name])
                for e in self.graph.edges
            )
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        tag = f", {self.orientation} triangular" if self.orientation else ""
        return f"FiniteRepresentation(dim={self.dimension}{tag})"


def evaluate(rep: FiniteRepresentation, a: "FormalElement") -> np.ndarray:
    """Extend the representation linearly to a formal element."""
    if rep.graph != a.graph:
        raise ValueError("representation and element live over different graphs")
    out = np.zeros((rep.dimension, rep.dimension), dtype=np.complex128)
    for p, c in a.items():
        out += c * rep.evaluate_path(p)
    return out


@dataclass(frozen=True)
class NestStructure:
    """Ordered block sizes of a block-triangular structure; order matters."""

    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.block_sizes or any(
            (not isinstance(b, int)) or b < 1 for b in self.block_sizes
        ):
            raise ValueError("block sizes must be positive integers")

    @property
    def dimension(self) -> int:
        return sum(self.block_sizes)

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for b in self.block_sizes:
            out.append(acc)
            acc += b
        return tuple(out)

    def block_slice(self, i: int) -> slice:
        off = self.offsets[i]
        return slice(off, off + self.block_sizes[i])


def _check_unit_modulus(lam: complex) -> complex:
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > UNIT_MODULUS_TOL:
        raise PreconditionError(f"parameter must have modulus 1, got |λ| = {abs(lam)!r}")
    return lam


def _check_parameters(lambdas: Sequence[complex], count: int, per: str) -> list[complex]:
    if len(lambdas) != count:
        raise PreconditionError(
            f"need {count} unit-modulus parameters (one per {per}), "
            f"got {len(lambdas)}"
        )
    return [_check_unit_modulus(z) for z in lambdas]


# -- basis layouts ----------------------------------------------------------------


class _Layout:
    """Basis layout of one representation family at a fixed path.

    ``labels[i]`` is the vertex of basis vector i; vertex images project
    onto their labelled positions.  ``steps[e][col] = (row, axis)`` says the
    image of edge ``e`` sends basis vector ``col`` to ½·(basis vector
    ``row``), times the parameter on ``axis`` unless ``axis`` is None; every
    other basis vector goes to 0.  Only ``dense`` and ``pairing`` read it.
    """

    __slots__ = ("graph", "labels", "steps", "axes", "orientation")

    def __init__(
        self,
        graph: DirectedGraph,
        labels: Sequence[str],
        entries: Sequence[tuple[str, int, int, int | None]],
        axes: int,
        orientation: str | None,
    ):
        self.graph = graph
        self.labels = tuple(labels)
        self.axes = axes
        self.orientation = orientation
        self.steps: dict[str, dict[int, tuple[int, int | None]]] = {}
        for name, col, row, axis in entries:
            self.steps.setdefault(name, {})[col] = (row, axis)

    def dense(
        self,
        lambdas: Sequence[complex],
        *,
        tol: ToleranceConfig = DEFAULT_TOLERANCES,
        validate: bool = True,
    ) -> FiniteRepresentation:
        """The representation by k×k matrices at one parameter per axis."""
        g = self.graph
        k = len(self.labels)
        vertex_images = {x: np.zeros((k, k), dtype=np.complex128) for x in g.vertices}
        edge_images = {e.name: np.zeros((k, k), dtype=np.complex128) for e in g.edges}
        for i, x in enumerate(self.labels):
            vertex_images[x][i, i] = 1.0
        for name, cols in self.steps.items():
            image = edge_images[name]
            for col, (row, axis) in cols.items():
                image[row, col] = 0.5 if axis is None else 0.5 * lambdas[axis]
        return FiniteRepresentation(
            g, k, vertex_images, edge_images,
            orientation=self.orientation, tol=tol, validate=validate,
        )

    def pairing(
        self, a: "FormalElement", col: int, row: int
    ) -> dict[tuple[int, ...], complex]:
        """Entry (row, col) of ``a`` as a polynomial ``{exponents: coefficient}``.

        Each support path p walks basis vector ``col`` once; if it arrives at
        ``row`` it adds c_p·2^-|p| at the multi-frequency counting how often
        it stepped along each axis.
        """
        poly: dict[tuple[int, ...], complex] = {}
        for p, c in a.items():
            if self.labels[col] != p.source:
                continue
            i, exponents = col, [0] * self.axes
            for name in reversed(p.edges):
                step = self.steps.get(name, {}).get(i)
                if step is None:
                    break
                i, axis = step
                if axis is not None:
                    exponents[axis] += 1
            else:
                if i == row:
                    key = tuple(exponents)
                    poly[key] = poly.get(key, 0j) + c * 0.5 ** p.length
        return poly


def _cycle_entries(
    g: DirectedGraph, u: Path, offset: int, axis: int
) -> tuple[list[str], list[tuple[str, int, int, int | None]]]:
    """Labels and edge steps of the cycle basis h_1 … h_k of ``u``, placed
    from ``offset``: h_j sits at the source of the j-th walked edge, which
    sends it to ½·h_{j+1}; the wrap-around h_{k+1} means λ·h_1."""
    walk = u.traversal
    k = len(walk)
    labels = [g.edge(name).source for name in walk]
    entries = [
        (name, offset + j, offset + (j + 1) % k, axis if j == k - 1 else None)
        for j, name in enumerate(walk)
    ]
    return labels, entries


def _cycle_layout(g: DirectedGraph, u: Path) -> _Layout:
    return _Layout(g, *_cycle_entries(g, u, 0, 0), 1, None)


def _carrier(g: DirectedGraph, seg: Path) -> tuple[Path, int, int]:
    """Primitive cycle completing a component-internal path, the steps the
    path ends past whole turns of it, and its number of whole turns."""
    root, _ = primitive_root(compose(complete_to_cycle(g, seg), seg))
    k = root.length
    return root, seg.length % k, seg.length // k


# -- cycle representation -------------------------------------------------------


def phi_cycle(
    g: DirectedGraph,
    u: Path,
    lam: complex,
    *,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    validate: bool = True,
) -> FiniteRepresentation:
    """The k-dimensional representation attached to a cycle u of length k.

    Basis vectors h_1 …​ h_k follow the cycle's walk: the vertex of h_j is
    the source of the j-th walked edge.  A vertex maps to the projection
    onto its positions; the j-th walked edge sends h_j to ½·h_{j+1}, with
    the wrap-around h_{k+1} meaning λ·h_1.  Edges not on the cycle map to 0.
    """
    g.validate_path(u)
    if u.length < 1 or not u.is_cycle:
        raise PreconditionError(f"phi_cycle needs a cycle of length ≥ 1, got {u!r}")
    lam = _check_unit_modulus(lam)
    return _cycle_layout(g, u).dense([lam], tol=tol, validate=validate)


# -- block nest representation -----------------------------------------------------


@dataclass(frozen=True)
class _NestBlock:
    """One diagonal block of the nest construction."""

    segment: Path         # the component-internal piece of the path
    cycle: Path | None    # primitive cycle carrying the block; None = vertex block
    size: int             # block dimension (cycle length, or 1)
    offset: int           # global index of the block's first basis vector
    prefix_len: int       # steps into the cycle the segment ends at (c_i)
    wraps: int            # full cycle traversals the segment makes (n_i)

    @property
    def entry_index(self) -> int:
        """Global index of the block's entry vector (h_1 of the block)."""
        return self.offset

    @property
    def exit_index(self) -> int:
        """Global index of the segment's arrival vector (h_{c_i+1})."""
        return self.offset + self.prefix_len


@dataclass(frozen=True)
class NestPlan:
    """Blueprint shared by the nest constructor and the nest recovery."""

    path: Path
    blocks: tuple[_NestBlock, ...]
    crossing: tuple[str, ...]
    layout: _Layout = field(repr=False, compare=False)

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(b.size for b in self.blocks)

    @property
    def dimension(self) -> int:
        return sum(self.block_sizes)

    @property
    def entry_index(self) -> int:
        return self.blocks[0].entry_index

    @property
    def exit_index(self) -> int:
        return self.blocks[-1].exit_index

    @property
    def frequencies(self) -> tuple[int, ...]:
        """Per-block wrap counts — the multi-frequency of the path itself."""
        return tuple(b.wraps for b in self.blocks)


def nest_plan(g: DirectedGraph, w: Path) -> NestPlan:
    """Decompose a path and complete each component-internal segment to a
    primitive cycle, fixing block sizes, dyad positions and frequencies.

    Block i is a cycle basis on parameter axis i (one vertex-labelled
    vector for a vertex segment); crossing edge i sends block i's arrival
    vector to ½ times block i+1's entry vector.
    """
    dec = decompose_path(g, w)
    blocks: list[_NestBlock] = []
    labels: list[str] = []
    entries: list[tuple[str, int, int, int | None]] = []
    offset = 0
    for axis, seg in enumerate(dec.segments):
        if seg.is_vertex:
            blocks.append(_NestBlock(seg, None, 1, offset, 0, 0))
            labels.append(seg.source)
        else:
            root, prefix, wraps = _carrier(g, seg)
            blocks.append(_NestBlock(seg, root, root.length, offset, prefix, wraps))
            block_labels, block_entries = _cycle_entries(g, root, offset, axis)
            labels += block_labels
            entries += block_entries
        offset += blocks[-1].size
    for name, src, dst in zip(dec.crossing, blocks, blocks[1:]):
        entries.append((name, src.exit_index, dst.entry_index, None))
    layout = _Layout(g, labels, entries, len(blocks), "lower")
    return NestPlan(w, tuple(blocks), dec.crossing, layout)


def rho_nest(
    g: DirectedGraph,
    w: Path,
    lambdas: Sequence[complex],
    *,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    validate: bool = True,
) -> tuple[FiniteRepresentation, NestStructure]:
    """Block lower-triangular representation attached to a path.

    The path decomposes into component-internal segments joined by crossing
    edges; each segment contributes a ``phi_cycle`` diagonal block on the
    primitive cycle completing it (a 1×1 block for a vertex segment), and
    each crossing edge maps to ½ times the dyad from the previous block's
    arrival vector to the next block's entry vector.  One unit-modulus
    parameter per block.  Returns the representation and its block sizes.
    """
    plan = nest_plan(g, w)
    lams = _check_parameters(lambdas, len(plan.blocks), "block")
    rep = plan.layout.dense(lams, tol=tol, validate=validate)
    return rep, NestStructure(plan.block_sizes)


# -- triangular representation from a loop-avoiding walk ------------------------------


@dataclass(frozen=True)
class UpperPlan:
    """Blueprint shared by the triangular constructor and its recovery."""

    path: Path                      # the walked skeleton (avoids designated loops)
    positions: tuple[str, ...]      # vertex at each basis position (length k)
    loop_positions: tuple[int, ...]  # 1-based positions whose vertex has a loop
    designated: dict[str, str]      # loop vertex -> designated loop edge
    layout: _Layout = field(repr=False, compare=False)

    @property
    def k(self) -> int:
        return len(self.positions)


def designated_loops(
    g: DirectedGraph, loop_choice: Mapping[str, str] | None = None
) -> dict[str, str]:
    """Pick one designated loop per loop-supporting vertex.

    Defaults to the first declared loop; ``loop_choice`` overrides per vertex
    (each override must name a loop at its vertex).
    """
    designated = {x: loops[0].name for x in g.vertices if (loops := g.loops_at(x))}
    if loop_choice:
        for x, name in loop_choice.items():
            e = g.edge(name)
            if e.source != x or e.target != x:
                raise PreconditionError(f"{name!r} is not a loop at {x!r}")
            designated[x] = name
    return designated


def upper_plan(
    g: DirectedGraph, w: Path, loop_choice: Mapping[str, str] | None = None
) -> UpperPlan:
    """Validate the loop condition and lay out basis positions for a walk.

    Requires every cycle-supporting vertex of the graph to support a loop.
    The designated loop of a loop vertex defaults to its first declared loop;
    ``loop_choice`` overrides per vertex.  The walk must avoid designated
    loops (non-designated loops are ordinary edges here).  The designated
    loop at the i-th loop position acts there on parameter axis i.
    """
    if not ut_separating_condition(g):
        raise PreconditionError(
            "a vertex on a cycle supports no loop, so the triangular "
            "construction does not apply to this graph"
        )
    designated = designated_loops(g, loop_choice)
    g.validate_path(w)
    walk = w.traversal
    positions = tuple(g.edge(n).source for n in walk) + (w.target,)
    for j, name in enumerate(walk, start=1):
        if designated.get(positions[j - 1]) == name:
            raise PreconditionError(
                f"walk uses the designated loop {name!r} at position {j}; "
                "designated loops are reserved for the diagonal"
            )
    loop_positions = tuple(
        j for j, x in enumerate(positions, start=1) if x in designated
    )
    entries: list[tuple[str, int, int, int | None]] = [
        (designated[positions[j - 1]], j - 1, j - 1, axis)
        for axis, j in enumerate(loop_positions)
    ]
    entries += [(name, j - 1, j, None) for j, name in enumerate(walk, start=1)]
    layout = _Layout(g, positions, entries, len(loop_positions), "lower")
    return UpperPlan(w, positions, loop_positions, designated, layout)


def psi_upper(
    g: DirectedGraph,
    w: Path,
    lambdas: Sequence[complex],
    loop_choice: Mapping[str, str] | None = None,
    *,
    require_distinct: bool = True,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    validate: bool = True,
) -> FiniteRepresentation:
    """Triangular representation on k = |w|+1 dimensions from a walk w that
    avoids designated loops.

    Position j sits at the vertex the walk occupies before its j-th edge;
    a vertex maps to the projection onto its positions, the designated loop
    of a loop vertex acts diagonally as ½λ_j on each of its positions, and
    the j-th walked edge sends h_j to ½·h_{j+1}.  The matrices come out
    lower triangular (see ``reverse_basis`` for the upper form); with
    pairwise distinct diagonal parameters the generated algebra is the full
    triangular algebra of dimension k(k+1)/2.
    """
    plan = upper_plan(g, w, loop_choice)
    lams = _check_parameters(
        lambdas, len(plan.loop_positions), "loop-supporting position"
    )
    if require_distinct:
        for i in range(len(lams)):
            for j in range(i + 1, len(lams)):
                if abs(lams[i] - lams[j]) <= UNIT_MODULUS_TOL:
                    raise PreconditionError(
                        "diagonal parameters must be pairwise distinct"
                    )
    return plan.layout.dense(lams, tol=tol, validate=validate)


def reverse_basis(rep: FiniteRepresentation) -> FiniteRepresentation:
    """Conjugate by the basis-reversal permutation, turning block lower
    triangular images into block upper triangular ones (and back)."""
    perm = np.arange(rep.dimension)[::-1]
    flip = {"lower": "upper", "upper": "lower", None: None}
    return FiniteRepresentation(
        rep.graph,
        rep.dimension,
        {x: m[np.ix_(perm, perm)] for x, m in rep.vertex_images.items()},
        {e: m[np.ix_(perm, perm)] for e, m in rep.edge_images.items()},
        orientation=flip.get(rep.orientation, rep.orientation),
        fock_basis=rep.fock_basis,
        validate=False,
    )


# -- natural-number nest truncation ---------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def n_nest_truncation(
    g: DirectedGraph,
    prefix_len: int,
    seed: int,
    *,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    max_paths: int = 100_000,
) -> FiniteRepresentation:
    """Finite corner of the naturally ordered nest construction.

    Requires a strongly transitive graph with a loop at every vertex.  The
    designated loops are the first-declared loop per vertex; the remaining
    ("free") words are enumerated by length then declaration order and
    concatenated — joined by shortest connecting paths — into one long walk,
    truncated to ``prefix_len`` edges.  Diagonal parameters are roots of
    unity of a prime order ≥ 101, rotated by ``seed``, so they are
    automatically distinct.  Returns ``psi_upper`` of the walk.
    """
    if prefix_len < 0:
        raise ValueError("prefix_len must be nonnegative")
    if not is_strongly_transitive(g) or not all(g.loops_at(x) for x in g.vertices):
        raise PreconditionError(
            "the naturally ordered nest corner needs a strongly transitive "
            "graph with a loop at every vertex"
        )
    designated = {x: g.loops_at(x)[0].name for x in g.vertices}
    reserved = set(designated.values())

    def free_words():
        level = [g.vertex_path(v) for v in g.vertices]
        while True:
            nxt = []
            for p in level:
                for e in g.out_edges(p.target):
                    if e.name in reserved:
                        continue
                    nxt.append(Path(p.source, e.target, (e.name,) + p.edges))
            if not nxt:
                return
            if len(nxt) > max_paths:
                raise LimitError(
                    f"free-word enumeration exceeded {max_paths} paths"
                )
            nxt.sort(key=g.path_sort_key)
            yield from nxt
            level = nxt

    from .graphs import _bfs_shortest_lex

    edges: list[str] = []
    start_vertex: str | None = None
    current_end: str | None = None
    for word in free_words():
        if current_end is None:
            start_vertex = word.source
        else:
            connector = _bfs_shortest_lex(g, current_end, word.source)
            assert connector is not None  # strongly transitive
            edges.extend(connector)
        edges.extend(word.traversal)
        current_end = word.target
        if len(edges) >= prefix_len:
            break
    if start_vertex is None:  # pragma: no cover - unreachable for valid inputs
        raise PreconditionError("the graph admits no loop-avoiding words")
    edges = edges[:prefix_len]
    walk = g.path_from_traversal(edges) if edges else g.vertex_path(start_vertex)

    plan = upper_plan(g, walk, designated)
    order = _next_prime(max(101, plan.k + 1))
    lambdas = [
        cmath.exp(2j * cmath.pi * ((seed + j) % order) / order)
        for j in plan.loop_positions
    ]
    return plan.layout.dense(lambdas, tol=tol)


# -- diagnostics -----------------------------------------------------------------------


@dataclass(frozen=True)
class RelationReport:
    """Residual norms for the four partial-isometry relations.

    1. vertex projections pairwise orthogonal: ‖P_x P_y‖ per pair,
    2. edge ranges orthogonal: ‖S_e^* S_f‖ per pair of distinct edges,
    3. edges are partial isometries: ‖S_e^* S_e − P_{s(e)}‖ per edge,
    4. summed range bound: smallest ε ≥ 0 with Σ_{r(e)=x} S_e S_e^* ≤ P_x + εI,
       per vertex.

    Failures are reported, never raised: the package's constructions are
    ½-scaled contractions, so relation 3 fails for them by design.
    """

    vertex_orthogonality: dict[tuple[str, str], float]
    edge_orthogonality: dict[tuple[str, str], float]
    edge_isometry: dict[str, float]
    range_bound: dict[str, float]
    norm_tol: float
    restriction: str | None = None

    def _ok(self, residuals) -> bool:
        return all(v <= self.norm_tol for v in residuals.values())

    @property
    def verdicts(self) -> dict[str, bool]:
        return {
            "vertex_projections_orthogonal": self._ok(self.vertex_orthogonality),
            "edge_ranges_orthogonal": self._ok(self.edge_orthogonality),
            "edges_partial_isometries": self._ok(self.edge_isometry),
            "range_sum_dominated": self._ok(self.range_bound),
        }

    @property
    def is_partially_isometric(self) -> bool:
        return all(self.verdicts.values())

    @property
    def is_contractive(self) -> bool:
        """Relations 1, 2, 4 hold (the shape a ½-scaled construction has)."""
        v = self.verdicts
        return (
            v["vertex_projections_orthogonal"]
            and v["edge_ranges_orthogonal"]
            and v["range_sum_dominated"]
        )

    def to_json(self) -> dict:
        def m(residuals):
            return max(residuals.values(), default=0.0)

        return {
            "max_residuals": {
                "vertex_projections_orthogonal": m(self.vertex_orthogonality),
                "edge_ranges_orthogonal": m(self.edge_orthogonality),
                "edges_partial_isometries": m(self.edge_isometry),
                "range_sum_dominated": m(self.range_bound),
            },
            "verdicts": self.verdicts,
            "partially_isometric": self.is_partially_isometric,
            "contractive": self.is_contractive,
            "restriction": self.restriction,
        }


def check_relations(
    rep: FiniteRepresentation,
    restrict_interior: Sequence[int] | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> RelationReport:
    """Measure the four relations; optionally compress each relation's
    residual to the coordinate subspace ``restrict_interior`` (used to check
    the truncated left regular representation away from its boundary).

    The residuals are formed from the full matrices and compressed
    afterwards, so products that pass through the complement are still
    accounted exactly on the retained coordinates."""
    g = rep.graph
    if restrict_interior is not None:
        idx = list(restrict_interior)
        note = f"compressed to {len(idx)} of {rep.dimension} coordinates"

        def c(m):
            return m[np.ix_(idx, idx)]

    else:
        note = None

        def c(m):
            return m

    ps = rep.vertex_images
    ss = rep.edge_images

    vertex_orth = {}
    names = list(g.vertices)
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            vertex_orth[(x, y)] = operator_norm(c(ps[x] @ ps[y]))
    edge_orth = {}
    edge_names = [e.name for e in g.edges]
    for i, e in enumerate(edge_names):
        for f in edge_names[i + 1 :]:
            edge_orth[(e, f)] = operator_norm(c(ss[e].conj().T @ ss[f]))
    edge_iso = {
        e.name: operator_norm(c(ss[e.name].conj().T @ ss[e.name] - ps[e.source]))
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
            top = float(np.linalg.eigvalsh(compressed).max())
            range_bound[x] = max(0.0, top)
    return RelationReport(
        vertex_orthogonality=vertex_orth,
        edge_orthogonality=edge_orth,
        edge_isometry=edge_iso,
        range_bound=range_bound,
        norm_tol=tol.norm_tol,
        restriction=note,
    )


def purity_defect(
    rep: FiniteRepresentation,
    d: int,
    *,
    max_paths: int = DEFAULT_MAX_DEFECT_PATHS,
) -> float:
    """‖Σ over paths p of length d of ρ(p)ρ(p)^*‖.

    Walks the paths explicitly with incremental products, dropping exactly
    vanishing partial products; raises a limit error if the surviving path
    count exceeds ``max_paths``.
    """
    if d < 1:
        raise ValueError("depth must be ≥ 1")
    g = rep.graph
    frontier = [
        (e.target, rep.edge_images[e.name])
        for e in g.edges
        if np.count_nonzero(rep.edge_images[e.name])
    ]
    for _ in range(d - 1):
        nxt = []
        for v, m in frontier:
            for e in g.out_edges(v):
                prod = rep.edge_images[e.name] @ m
                if np.count_nonzero(prod):
                    nxt.append((e.target, prod))
                    if len(nxt) > max_paths:
                        raise LimitError(
                            f"purity walk exceeded {max_paths} surviving paths"
                        )
        frontier = nxt
        if not frontier:
            break
    acc = np.zeros((rep.dimension, rep.dimension), dtype=np.complex128)
    for _, m in frontier:
        acc += m @ m.conj().T
    return operator_norm(acc)


def is_coisometric(
    rep: FiniteRepresentation, tol: ToleranceConfig = DEFAULT_TOLERANCES
) -> bool:
    """True when the edge row operator is a coisometry: Σ S_e S_e^* = I."""
    acc = -np.eye(rep.dimension, dtype=np.complex128)
    for e in rep.graph.edges:
        s = rep.edge_images[e.name]
        acc += s @ s.conj().T
    return operator_norm(acc) <= tol.norm_tol


# -- JSON encoding -----------------------------------------------------------------


def rep_to_json(rep: FiniteRepresentation) -> dict:
    return {
        "dimension": rep.dimension,
        "orientation": rep.orientation,
        "vertex_images": {x: matrix_to_json(m) for x, m in sorted(rep.vertex_images.items())},
        "edge_images": {e: matrix_to_json(m) for e, m in sorted(rep.edge_images.items())},
    }


def rep_from_json(g: DirectedGraph, obj) -> FiniteRepresentation:
    try:
        dim = int(obj["dimension"])
        orientation = obj.get("orientation")
        vertex_images = {x: matrix_from_json(m) for x, m in obj["vertex_images"].items()}
        edge_images = {e: matrix_from_json(m) for e, m in obj["edge_images"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed representation JSON: {exc}") from exc
    return FiniteRepresentation(
        g, dim, vertex_images, edge_images,
        orientation=orientation, validate=False,
    )
