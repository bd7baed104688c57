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
to at most one other: the layout fills a representation's monomial storage
(which the Fock representation shares), where the relation checks are
closed forms, and reads an element's pairing entry as an exact polynomial.
"""

from __future__ import annotations

import cmath
import json
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from .classify import check_n_nest_case, ut_separating_condition
from .errors import EmptyInputError, PreconditionError
from .graphs import (
    DirectedGraph,
    Path,
    _bfs_shortest_lex,
    _completion,
    _levels,
    compose,
    decompose_path,
    primitive_root,
)
from .linalg import NORM_TOL, as_matrix, matrix_from_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .elements import FormalElement

#: Modulus slack accepted when checking |λ| = 1 on constructor inputs.
UNIT_MODULUS_TOL = 1e-12

#: Cap on all the free words ``n_nest_truncation`` enumerates, of every
#: length so far (the length-0 words count too), not on one length's words.
MAX_FREE_WORDS = 100_000


def _squared(weights: np.ndarray) -> np.ndarray:
    """|w|², as the diagonal of S S^* (or S^* S) holds it."""
    return (weights * weights.conj()).real


class _Images(Mapping):
    """Read-only images by name: reading one builds its k×k matrix."""

    __slots__ = ("names", "build")

    def __init__(self, names: Mapping[str, int], build):
        self.names, self.build = names, build

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.names:
            raise KeyError(name)
        return self.build(name)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


def _from_dense(g: DirectedGraph, k: int, vertex_images, edge_images):
    """The monomial form of dense images by name (see ``FiniteRepresentation``)."""
    if not g.vertices:
        # Only an image's shape bounds the dimension, and there is none.
        raise EmptyInputError("a graph with no vertices has no images to bound the dimension")
    unknown = (set(vertex_images) - set(g.vertices)) | (set(edge_images) - set(g._edge_index))
    if unknown:
        raise ValueError(f"{sorted(map(repr, unknown))[0]} is not a vertex or edge of the graph")

    def image(name: str, images) -> np.ndarray:
        m = as_matrix(images[name]) if name in images else None
        if m is None or m.shape != (k, k):
            raise ValueError(f"the image of {name!r} is missing or has the wrong shape")
        return m

    # Every shape is checked before anything of size k is allocated.
    vertex_mats = [image(x, vertex_images) for x in g.vertices]
    edge_mats = [image(e.name, edge_images) for e in g.edges]
    labels = np.full(k, -1, dtype=np.intp)
    for i, (x, m) in enumerate(zip(g.vertices, vertex_mats)):
        ones = m.diagonal() == 1
        if np.count_nonzero(m) != np.count_nonzero(ones):
            raise ValueError(f"vertex {x!r} image is not a diagonal 0/1 projection")
        if np.any(labels[ones] >= 0):
            raise ValueError(f"vertex image of {x!r} overlaps another vertex image")
        labels[ones] = i
    names, rows = [], np.full((len(g.edges), k), -1, dtype=np.intp)
    weights = np.zeros((len(g.edges), k), dtype=np.complex128)
    for e, m in zip(g.edges, edge_mats):
        dst, cols = np.nonzero(m)
        if len(set(dst.tolist())) < len(dst) or len(set(cols.tolist())) < len(cols):
            raise ValueError(f"edge {e.name!r} image is not a weighted partial permutation")
        if np.any(labels[cols] != g.vertex_index(e.source)) or np.any(
            labels[dst] != g.vertex_index(e.target)
        ):
            raise ValueError(f"edge {e.name!r} image violates vertex covariance")
        if cols.size:
            rows[len(names), cols] = dst
            weights[len(names), cols] = m[dst, cols]
            names.append(e.name)
    return labels, (names, rows[: len(names)], weights[: len(names)])


class FiniteRepresentation:
    """A representation by k×k complex matrices, stored as weighted partial
    maps: ``labels[i]`` indexes basis vector i's vertex in ``graph.vertices``
    (or is -1), and a vertex maps to the projection onto its positions.  Row
    i of ``rows`` and ``weights`` is the image of ``edge_names[i]`` (edges
    with a nonzero image, in declaration order): basis vector j goes to
    weights[i, j]·(basis vector rows[i, j]), or to 0 where rows[i, j] = -1,
    injectively from its source's positions to its target's.  The read-only
    views ``vertex_images`` and ``edge_images`` build one k×k matrix per key.

    The constructor converts dense matrices by name, raising ``ValueError``
    naming an image without that shape (``EmptyInputError`` on a graph
    without vertices, where no image bounds k); the package's builders pass
    ``labels`` and an ``(edge_names, rows, weights)`` table instead, which
    their layouts satisfy by construction.  ``orientation`` is "lower",
    "upper" or None; ``fock_basis`` is the truncated Fock basis, if any.
    """

    __slots__ = ("graph", "dimension", "labels", "edge_names", "rows", "weights",
                 "orientation", "fock_basis")

    def __init__(
        self, graph: DirectedGraph, dimension: int, vertex_images, edge_images,
        *, orientation: str | None = None, fock_basis=None,
    ):
        k = int(dimension)
        if not isinstance(vertex_images, np.ndarray):
            vertex_images, edge_images = _from_dense(graph, k, vertex_images, edge_images)
        names, rows, weights = edge_images
        order = sorted(range(len(names)), key=lambda i: graph.edge_index(names[i]))
        self.graph, self.dimension, self.labels = graph, k, vertex_images
        self.edge_names = tuple(names[i] for i in order)
        self.rows, self.weights = rows[order], weights[order]
        self.orientation, self.fock_basis = orientation, fock_basis

    # The graph's own name -> index dicts serve as the views' key sets.
    @property
    def vertex_images(self) -> Mapping[str, np.ndarray]:
        return _Images(self.graph._vertex_index, self._vertex_matrix)

    @property
    def edge_images(self) -> Mapping[str, np.ndarray]:
        return _Images(self.graph._edge_index, self._edge_matrix)

    def _vertex_matrix(self, x: str) -> np.ndarray:
        m = np.zeros((self.dimension,) * 2, dtype=np.complex128)
        at = np.flatnonzero(self.labels == self.graph.vertex_index(x))
        m[at, at] = 1.0
        return m

    def _edge_matrix(self, name: str) -> np.ndarray:
        m = np.zeros((self.dimension,) * 2, dtype=np.complex128)
        if name in self.edge_names:
            i = self.edge_names.index(name)
            cols = np.flatnonzero(self.rows[i] >= 0)
            m[self.rows[i, cols], cols] = self.weights[i, cols]
        return m

    # -- evaluation ----------------------------------------------------------

    def _sum(self, terms) -> np.ndarray:
        """Σ c·ρ(p) over ``(p, c)`` in ``terms``: every position of p's source
        walks p's edges, first walked first, until an edge sends it to 0 —
        O(k·|p|) steps, below the k×k matrix filled."""
        out = np.zeros((self.dimension,) * 2, dtype=np.complex128)
        rows = dict(zip(self.edge_names, self.rows.tolist()))
        weights = dict(zip(self.edge_names, self.weights.tolist()))
        at: dict[int, list[int]] = {}
        for i, x in enumerate(self.labels.tolist()):
            at.setdefault(x, []).append(i)
        for p, c in terms:
            for col in at.get(self.graph.vertex_index(p.source), ()):
                i, w = col, 1.0
                for name in reversed(p.edges):
                    step = rows.get(name)
                    if step is None or step[i] < 0:
                        break
                    i, w = step[i], weights[name][i] * w
                else:
                    out[i, col] += c * w
        return out

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteRepresentation):
            return NotImplemented
        same = ("graph", "dimension", "orientation", "edge_names")
        return all(getattr(self, a) == getattr(other, a) for a in same) and all(
            np.array_equal(getattr(self, a), getattr(other, a))
            for a in ("labels", "rows", "weights")
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        tag = f", {self.orientation} triangular" if self.orientation else ""
        return f"FiniteRepresentation(dim={self.dimension}{tag})"


def evaluate(rep: FiniteRepresentation, a: "FormalElement") -> np.ndarray:
    """Extend the representation linearly to a formal element."""
    if rep.graph != a.graph:
        raise ValueError("representation and element live over different graphs")
    return rep._sum(a.items())


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


def _check_unit_modulus(lam: complex) -> complex:
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) <= UNIT_MODULUS_TOL:  # NaN fails too
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
    other basis vector goes to 0.  Only ``dense``, which fills a
    representation's monomial storage, and ``pairing`` read it.
    """

    __slots__ = ("graph", "labels", "steps", "axes", "orientation")

    def __init__(
        self, graph: DirectedGraph, labels: Sequence[str],
        entries: Sequence[tuple[str, int, int, int | None]], axes: int, orientation: str | None,
    ):
        self.graph = graph
        self.labels = tuple(labels)
        self.axes = axes
        self.orientation = orientation
        self.steps: dict[str, dict[int, tuple[int, int | None]]] = {}
        for name, col, row, axis in entries:
            self.steps.setdefault(name, {})[col] = (row, axis)

    def dense(self, lambdas: Sequence[complex]) -> FiniteRepresentation:
        """The representation at one parameter per axis."""
        g = self.graph
        k = len(self.labels)
        labels = np.array([g.vertex_index(x) for x in self.labels], dtype=np.intp)
        halves = [0.5 * lam for lam in lambdas]
        rows = np.full((len(self.steps), k), -1, dtype=np.intp)
        weights = np.zeros((len(self.steps), k), dtype=np.complex128)
        for i, cols in enumerate(self.steps.values()):
            for col, (row, axis) in cols.items():
                rows[i, col] = row
                weights[i, col] = 0.5 if axis is None else halves[axis]
        return FiniteRepresentation(
            g, k, labels, (list(self.steps), rows, weights), orientation=self.orientation
        )

    def pairing(
        self, a: "FormalElement", col: int, row: int
    ) -> dict[tuple[int, ...], tuple[int, complex]]:
        """Entry (row, col) of ``a`` as ``{exponents: (length, sum)}``.

        Each support path p walks basis vector ``col`` once; if it arrives at
        ``row`` it adds c_p at the multi-frequency counting its steps along
        each axis.  All such paths have one length, so the entry's
        coefficient there is 2^-length times the sum, which stays exact.
        """
        poly: dict[tuple[int, ...], tuple[int, complex]] = {}
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
                    poly[key] = (p.length, poly.get(key, (0, 0j))[1] + c)
        return poly


def _cycle_entries(g: DirectedGraph, u: Path, offset: int, axis: int):
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
    """Primitive cycle completing a component-internal path (already
    checked against ``g``), the steps the path ends past whole turns of it,
    and its number of whole turns."""
    root, _ = primitive_root(compose(_completion(g, seg), seg))
    k = root.length
    return root, seg.length % k, seg.length // k


# -- cycle representation -------------------------------------------------------


def phi_cycle(g: DirectedGraph, u: Path, lam: complex) -> FiniteRepresentation:
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
    return _cycle_layout(g, u).dense([lam])


# -- block nest representation -----------------------------------------------------


@dataclass(frozen=True)
class _NestBlock:
    """One diagonal block of the nest construction."""

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
            blocks.append(_NestBlock(None, 1, offset, 0, 0))
            labels.append(seg.source)
        else:
            root, prefix, wraps = _carrier(g, seg)
            blocks.append(_NestBlock(root, root.length, offset, prefix, wraps))
            block_labels, block_entries = _cycle_entries(g, root, offset, axis)
            labels += block_labels
            entries += block_entries
        offset += blocks[-1].size
    for name, src, dst in zip(dec.crossing, blocks, blocks[1:]):
        entries.append((name, src.exit_index, dst.entry_index, None))
    layout = _Layout(g, labels, entries, len(blocks), "lower")
    return NestPlan(tuple(blocks), dec.crossing, layout)


def rho_nest(
    g: DirectedGraph, w: Path, lambdas: Sequence[complex]
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
    rep = plan.layout.dense(lams)
    return rep, NestStructure(plan.block_sizes)


# -- triangular representation from a loop-avoiding walk ------------------------------


@dataclass(frozen=True)
class UpperPlan:
    """Blueprint shared by the triangular constructor and its recovery."""

    positions: tuple[str, ...]      # vertex at each basis position (length k)
    loop_positions: tuple[int, ...]  # 1-based positions whose vertex has a loop
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
    return UpperPlan(positions, loop_positions, layout)


def psi_upper(
    g: DirectedGraph,
    w: Path,
    lambdas: Sequence[complex],
    loop_choice: Mapping[str, str] | None = None,
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
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if abs(lams[i] - lams[j]) <= UNIT_MODULUS_TOL:
                raise PreconditionError("diagonal parameters must be pairwise distinct")
    return plan.layout.dense(lams)


def reverse_basis(rep: FiniteRepresentation) -> FiniteRepresentation:
    """Conjugate by the basis-reversal permutation, turning block lower
    triangular images into block upper triangular ones (and back)."""
    k = rep.dimension
    flip = {"lower": "upper", "upper": "lower", None: None}
    rows = np.where(rep.rows >= 0, k - 1 - rep.rows, -1)[:, ::-1]
    return FiniteRepresentation(
        rep.graph, k, rep.labels[::-1], (rep.edge_names, rows, rep.weights[:, ::-1]),
        orientation=flip.get(rep.orientation, rep.orientation), fock_basis=rep.fock_basis,
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


def n_nest_truncation(g: DirectedGraph, prefix_len: int, seed: int) -> FiniteRepresentation:
    """Finite corner of the naturally ordered nest construction.

    Requires a graph in n-nest case One: strongly transitive with a loop at
    every vertex.  The designated loops are the first-declared loop per
    vertex (``designated_loops``); the remaining ("free") words, read from
    the graph without them by length then declaration order, are
    concatenated — joined by shortest connecting paths — into one long walk,
    truncated to ``prefix_len`` edges.  Raises ``LimitError`` before the
    free words of all lengths so far would number more than
    ``MAX_FREE_WORDS``; each length is counted before its words are built.
    Diagonal parameters are roots of unity of a prime order ≥ 101, rotated
    by ``seed``, so they are automatically distinct.  Returns ``psi_upper``
    of the walk.
    """
    if prefix_len < 0:
        raise ValueError("prefix_len must be nonnegative")
    if check_n_nest_case(g).case != "One":
        raise PreconditionError(
            "the naturally ordered nest corner needs a strongly transitive "
            "graph with a loop at every vertex"
        )
    designated = designated_loops(g)
    reserved = set(designated.values())
    kept = [(e.name, e.source, e.target) for e in g.edges if e.name not in reserved]
    # A strongly transitive graph keeps a cycle without its designated
    # loops, so there are free words of every length.
    free = _levels(
        DirectedGraph(g.vertices, kept), g.vertices, max(prefix_len, 1),
        MAX_FREE_WORDS, "reps.MAX_FREE_WORDS",
    )
    edges: list[str] = []
    end = None  # where the walk stands
    for word in (w for level in free for w in level if w.edges):
        if end is not None:
            edges += _bfs_shortest_lex(g, end, word.source)
        edges += word.traversal
        end = word.target
        if len(edges) >= prefix_len:
            break
    start = g.edge(edges[0]).source
    walk = g.path_from_traversal(edges[:prefix_len]) if prefix_len else g.vertex_path(start)

    plan = upper_plan(g, walk, designated)
    order = _next_prime(max(101, plan.k + 1))
    lambdas = [
        cmath.exp(2j * cmath.pi * ((seed + j) % order) / order)
        for j in plan.loop_positions
    ]
    return plan.layout.dense(lambdas)


# -- diagnostics -----------------------------------------------------------------------


@dataclass(frozen=True)
class RelationReport:
    """Residual norms for the four partial-isometry relations.

    1. vertex projections pairwise orthogonal: ‖P_x P_y‖ per pair,
    2. edge ranges orthogonal: ‖S_e^* S_f‖ per pair of distinct edges,
    3. edges are partial isometries: ‖S_e^* S_e − P_{s(e)}‖ per edge,
    4. summed range bound: smallest ε ≥ 0 with Σ_{r(e)=x} S_e S_e^* ≤ P_x + εI,
       per vertex.

    A relation holds when each of its residuals is at most ``NORM_TOL``.
    Failures are reported, never raised: the package's constructions are
    ½-scaled contractions, so relation 3 fails for them by design.
    """

    vertex_orthogonality: dict[tuple[str, str], float]
    edge_orthogonality: dict[tuple[str, str], float]
    edge_isometry: dict[str, float]
    range_bound: dict[str, float]
    restriction: str | None = None

    @property
    def _residuals(self) -> dict[str, dict]:
        return {
            "vertex_projections_orthogonal": self.vertex_orthogonality,
            "edge_ranges_orthogonal": self.edge_orthogonality,
            "edges_partial_isometries": self.edge_isometry,
            "range_sum_dominated": self.range_bound,
        }

    @property
    def verdicts(self) -> dict[str, bool]:
        return {
            name: all(v <= NORM_TOL for v in residuals.values())
            for name, residuals in self._residuals.items()
        }

    @property
    def is_partially_isometric(self) -> bool:
        return all(self.verdicts.values())

    @property
    def is_contractive(self) -> bool:
        """Relations 1, 2, 4 hold (the shape a ½-scaled construction has)."""
        return all(ok for name, ok in self.verdicts.items() if name != "edges_partial_isometries")

    def to_json(self) -> dict:
        return {
            "max_residuals": {
                name: max(residuals.values(), default=0.0)
                for name, residuals in self._residuals.items()
            },
            "verdicts": self.verdicts,
            "partially_isometric": self.is_partially_isometric,
            "contractive": self.is_contractive,
            "restriction": self.restriction,
        }


def check_relations(
    rep: FiniteRepresentation,
    restrict_interior: Sequence[int] | None = None,
) -> RelationReport:
    """Measure the four relations; optionally compress each relation's
    residual to the coordinate subspace ``restrict_interior`` (used to check
    the truncated left regular representation away from its boundary).

    Residuals come from the exact partial maps, compressed afterwards, so
    products through the complement still count.  Vertex projections never
    overlap; S_e^* S_f is a partial map (norm: its largest modulus) that
    vanishes unless e and f share a target; the other two are diagonal.
    ``restrict_interior`` holds indices in range(k), else ``ValueError``
    names the first outside it; the report's note counts distinct ones.
    """
    g, k, labels, live = rep.graph, rep.dimension, rep.labels, rep.rows >= 0
    kept, note = np.ones(k, dtype=bool), None
    if restrict_interior is not None:
        at = np.asarray(list(restrict_interior))
        if at.size and at.dtype.kind not in "iu":
            raise ValueError(f"restrict_interior holds {at.dtype} values, not indices")
        outside = (at < 0) | (at >= k)
        if outside.any():
            raise ValueError(f"restrict_interior index {at[outside][0]} is outside range({k})")
        kept[:] = False
        kept[at.astype(np.intp)] = True
        note = f"compressed to {np.count_nonzero(kept)} of {k} coordinates"
    squared = _squared(rep.weights)
    names, edge_names = list(g.vertices), [e.name for e in g.edges]
    ends = [g.edge(name) for name in rep.edge_names]

    vertex_orth = {(x, y): 0.0 for i, x in enumerate(names) for y in names[i + 1 :]}
    edge_orth = {(e, f): 0.0 for i, e in enumerate(edge_names) for f in edge_names[i + 1 :]}
    for j, f in enumerate(ends):
        for i, e in enumerate(ends[:j]):
            if e.target == f.target:
                mate = np.full(k + 1, -1, dtype=np.intp)  # row of e -> column
                mate[rep.rows[i]] = np.arange(k)
                cols = np.flatnonzero(live[j] & kept)
                i_cols = mate[rep.rows[j, cols]]
                met = (i_cols >= 0) & kept[i_cols]
                z = rep.weights[i, i_cols[met]].conj() * rep.weights[j, cols[met]]
                # |z| rounded once from extended precision, as LAPACK's dznrm2
                # rounds one entry (np.abs can be one unit in the last place off).
                re, im = z.real.astype(np.longdouble), z.imag.astype(np.longdouble)
                modulus = np.sqrt(re * re + im * im).astype(np.float64)
                edge_orth[e.name, f.name] = float(modulus.max(initial=0.0))

    # An edge acting by 0 leaves −P_{s(e)}; the others add |w|² where they map.
    covered = np.zeros(len(names), dtype=bool)
    covered[labels[kept & (labels >= 0)]] = True
    edge_iso = {e.name: float(covered[g.vertex_index(e.source)]) for e in g.edges}
    source = np.array([g.vertex_index(e.source) for e in ends], dtype=np.intp)
    defect = np.abs(np.where(live, squared, 0.0) - (labels == source[:, None]))
    edge_iso.update(zip(rep.edge_names, defect[:, kept].max(axis=1, initial=0.0).tolist()))

    # Each position has one label and an edge reaches only positions of its
    # target, so one diagonal holds Σ_{r(e)=x} S_e S_e^* − P_x for every x.
    ranges = -(labels >= 0).astype(np.float64)
    np.add.at(ranges, rep.rows[live], squared[live])
    top = np.zeros(len(names))
    np.maximum.at(top, labels[kept & (labels >= 0)], ranges[kept & (labels >= 0)])
    return RelationReport(
        vertex_orthogonality=vertex_orth,
        edge_orthogonality=edge_orth,
        edge_isometry=edge_iso,
        range_bound=dict(zip(names, top.tolist())),
        restriction=note,
    )


def purity_defect(rep: FiniteRepresentation, d: int) -> float:
    """‖Σ over paths p of length d of ρ(p)ρ(p)^*‖, for an integer d ≥ 1
    (``ValueError`` otherwise).

    The sum is Φ^d(I) with Φ(X) = Σ_e S_e X S_e^*: products of edges that
    do not compose vanish by vertex covariance.  Each S_e is a weighted
    partial permutation, so Φ sends diag(x) to the diagonal holding
    |w|²·x[j] at row rows[e, j]: d bincounts over the stored nonzeros, in
    O(d·nnz) time and O(k) memory.  The norm of that nonnegative diagonal
    is its largest entry.
    """
    if not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"depth must be an integer ≥ 1, got {d!r}")
    live = rep.rows >= 0
    rows, cols = rep.rows[live], np.nonzero(live)[1]
    squared = _squared(rep.weights[live])
    x = np.ones(rep.dimension)
    for _ in range(d):
        x = np.bincount(rows, weights=squared * x[cols], minlength=rep.dimension)
    return float(x.max(initial=0.0))


def is_coisometric(rep: FiniteRepresentation) -> bool:
    """True when the edge row operator is a coisometry: Σ S_e S_e^* = I."""
    live = rep.rows >= 0
    acc = -np.ones(rep.dimension)
    np.add.at(acc, rep.rows[live], _squared(rep.weights[live]))
    return float(np.abs(acc).max(initial=0.0)) <= NORM_TOL


# -- JSON encoding -----------------------------------------------------------------


def _image_cells(rep: FiniteRepresentation):
    """Schema 1's layout: every vertex image, then every edge image, each
    in sorted name order as its nonzero cells ``(row * k + col, re, im)``
    in row-major order, read from the monomial storage: ``(1.0, 0.0)`` at
    a vertex's positions, the stored weight's parts where an edge sends a
    position."""
    g, k = rep.graph, rep.dimension
    positions: list[list[int]] = [[] for _ in g.vertices]
    for col, x in enumerate(rep.labels.tolist()):
        if x >= 0:
            positions[x].append(col)
    stored = {
        name: sorted(
            (row * k + col, w.real, w.imag)
            for col, (row, w) in enumerate(zip(rows, weights))
            if row >= 0
        )
        for name, rows, weights in zip(rep.edge_names, rep.rows.tolist(), rep.weights.tolist())
    }
    vertex_cells = {
        x: [(col * (k + 1), 1.0, 0.0) for col in positions[g.vertex_index(x)]]
        for x in sorted(g.vertices)
    }
    return vertex_cells, {e: stored.get(e, []) for e in sorted(g._edge_index)}


def rep_to_json(rep: FiniteRepresentation) -> dict:
    """Schema 1: every vertex and edge image of the graph as the
    ``matrix_to_json`` object of its k×k matrix (row-major ``[re, im]``
    pairs), written from the monomial storage without building the matrix.
    Each image starts as one shared ``(0.0, 0.0)`` pair per cell, and only
    its at most k nonzero cells (``_image_cells``) are set."""
    k = rep.dimension
    zero = (0.0, 0.0)

    def image(cells) -> dict:
        entries = [zero] * (k * k)
        for at, re, im in cells:
            entries[at] = (re, im)
        return {"rows": k, "cols": k, "entries": entries}

    vertex_cells, edge_cells = _image_cells(rep)
    return {
        "dimension": k,
        "orientation": rep.orientation,
        "vertex_images": {x: image(cells) for x, cells in vertex_cells.items()},
        "edge_images": {e: image(cells) for e, cells in edge_cells.items()},
    }


def rep_to_json_text(rep: FiniteRepresentation) -> str:
    """``json.dumps(rep_to_json(rep), sort_keys=True)``, byte for byte,
    written from the same cells without a pair per empty cell: a run of
    empty cells is one pre-encoded ``[0.0, 0.0]`` repeated, a stored float
    is its ``repr`` (what json's encoder writes for a finite float), and a
    name is ``json.dumps`` of it.  The pieces are joined once, at the end:
    each join of a multi-megabyte image would copy it again."""
    k = rep.dimension
    num = float.__repr__ if np.isfinite(rep.weights).all() else json.dumps
    zero = "[0.0, 0.0]"
    out = [f'{{"dimension": {k}, "edge_images": ']

    def images(cells_by_name) -> None:
        out.append("{")
        for i, (name, cells) in enumerate(cells_by_name.items()):
            out.append(f'{", " if i else ""}{json.dumps(name)}: {{"cols": {k}, "entries": [')
            at = 0
            for pos, re, im in cells:
                out.append(f"{zero}, " * (pos - at))
                out.append(f"[{num(re)}, {num(im)}], ")
                at = pos + 1
            if at < k * k:
                out.append(f"{zero}, " * (k * k - at - 1))
                out.append(zero)
            elif cells:
                out[-1] = out[-1][:-2]  # the last cell takes no separator
            out.append(f'], "rows": {k}}}')
        out.append("}")

    vertex_cells, edge_cells = _image_cells(rep)
    images(edge_cells)
    out.append(f', "orientation": {json.dumps(rep.orientation)}, "vertex_images": ')
    images(vertex_cells)
    out.append("}")
    return "".join(out)


def rep_from_json(g: DirectedGraph, obj) -> FiniteRepresentation:
    try:
        dim = int(obj["dimension"])
        orientation = obj.get("orientation")
        vertex_images = {x: matrix_from_json(m) for x, m in obj["vertex_images"].items()}
        edge_images = {e: matrix_from_json(m) for e, m in obj["edge_images"].items()}
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed representation JSON: {exc}") from exc
    if orientation not in ("lower", "upper", None):
        raise ValueError(f"orientation {orientation!r} is not 'lower', 'upper' or null")
    return FiniteRepresentation(g, dim, vertex_images, edge_images, orientation=orientation)
