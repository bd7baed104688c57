"""Exact coefficient recovery and separation through finite pairings.

Every finitely supported element pairs with the finite-dimensional
representation families in a single matrix entry that is a trigonometric
polynomial in the family's unit-modulus parameters; the path coefficients
are its Fourier coefficients, scaled by a power of two coming from the ½
weights on edge images.  Sampling that entry on a product grid of roots of
unity that is fine enough to rule out aliasing therefore recovers any
coefficient exactly (up to floating-point roundoff), and an argmax over the
same grid produces a concrete witness that a nonzero element acts
nontrivially.  Paths longer than ``MAX_PATH_LENGTH`` edges raise
``LimitError``: their scale 2^-|w| is no longer a normal double.

The radical helpers at the bottom answer membership combinatorially: an
element lies in the radical exactly when none of its support paths can be
closed into a cycle, and the radical is generated by the edges that cross
strongly connected components.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .elements import FormalElement, degree
from .errors import EmptyInputError, LimitError, PreconditionError
from .graphs import (
    DirectedGraph,
    Path,
    complete_to_cycle,
    compose,
    condensation,
    is_transitive_in_components,
    primitive_root,
)
from .linalg import DEFAULT_TOLERANCES, ToleranceConfig, operator_norm
from .reps import (
    FiniteRepresentation,
    NestStructure,
    _psi_from_plan,
    _rho_from_plan,
    designated_loops,
    evaluate,
    nest_plan,
    phi_cycle,
    upper_plan,
)


@dataclass(frozen=True)
class QuadratureGrid:
    """Product grid of roots of unity, one axis per free parameter."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(n < 1 for n in self.counts):
            raise ValueError("grid counts must be positive")

    @property
    def size(self) -> int:
        out = 1
        for n in self.counts:
            out *= n
        return out

    def indices(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(n) for n in self.counts))

    def point(self, index: tuple[int, ...]) -> tuple[complex, ...]:
        """The tuple of roots of unity at a grid index."""
        return tuple(
            complex(np.exp(2j * np.pi * (t / n)))
            for t, n in zip(index, self.counts)
        )


def _check_same_graph(g: DirectedGraph, a: FormalElement) -> None:
    if a.graph != g:
        raise ValueError("element belongs to a different graph")


def _check_oversample(oversample: int) -> None:
    if oversample < 1:
        raise ValueError("oversample must be at least 1")


#: Longest path whose pairing scale 2^-|w| is still a normal double.
MAX_PATH_LENGTH = 1022


def _check_length(w: Path) -> None:
    if w.length > MAX_PATH_LENGTH:
        raise LimitError(
            f"path length {w.length} exceeds the cap {MAX_PATH_LENGTH}: the "
            f"pairing scale 2^-{w.length} is below the normal double range"
        )


def _vertex_block_rep(
    g: DirectedGraph, x: str, tol: ToleranceConfig
) -> FiniteRepresentation:
    """One-dimensional representation supported on a single vertex.

    Pairs any element to exactly its coefficient at that vertex: every
    edge maps to 0 and every other vertex projection vanishes.
    """
    vertex_images = {
        y: np.array([[1.0 + 0j]]) if y == x else np.zeros((1, 1), dtype=np.complex128)
        for y in g.vertices
    }
    edge_images = {e.name: np.zeros((1, 1), dtype=np.complex128) for e in g.edges}
    return FiniteRepresentation(
        g, 1, vertex_images, edge_images, tol=tol, validate=False
    )


# -- irreducible family -----------------------------------------------------------


def _irreducible_layout(g: DirectedGraph, w: Path) -> tuple[Path, int, int, int]:
    """Primitive carrier cycle of ``w`` plus (row, frequency, cycle length)."""
    connector = complete_to_cycle(g, w)
    root, _ = primitive_root(compose(connector, w))
    k = root.length
    return root, w.length % k, w.length // k, k


def _irreducible_samples(
    g: DirectedGraph,
    a: FormalElement,
    root: Path,
    row: int,
    count: int,
    tol: ToleranceConfig,
) -> np.ndarray:
    samples = np.empty(count, dtype=np.complex128)
    for t in range(count):
        lam = complex(np.exp(2j * np.pi * (t / count)))
        rep = phi_cycle(g, root, lam, tol=tol, validate=False)
        samples[t] = evaluate(rep, a)[row, 0]
    return samples


def recover_irreducible(
    g: DirectedGraph,
    a: FormalElement,
    w: Path,
    *,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    oversample: int = 1,
) -> complex:
    """Recover the coefficient of ``w`` in ``a`` from the irreducible family.

    The family lives on the primitive cycle that completes ``w``; the pairing
    entry (row ``|w| mod k``, column 0) is a polynomial in the family's
    parameter whose coefficient at frequency ``|w| div k`` is ``2^{-|w|}``
    times the wanted coefficient.  Requires the end of ``w`` to reach its
    start; a vertex path is recovered from the one-dimensional representation
    supported on that vertex.  ``oversample`` multiplies the sample count;
    any value leaves the result unchanged up to roundoff.
    """
    _check_same_graph(g, a)
    _check_oversample(oversample)
    g.validate_path(w)
    _check_length(w)
    if w.is_vertex:
        rep = _vertex_block_rep(g, w.source, tol)
        return complex(evaluate(rep, a)[0, 0])
    if a.is_zero:
        return 0j
    root, row, freq, k = _irreducible_layout(g, w)
    count = oversample * (1 + max(freq, max(0, (degree(a) - w.length) // k)))
    samples = _irreducible_samples(g, a, root, row, count, tol)
    return complex((2.0 ** w.length) * np.fft.fft(samples)[freq] / count)


# -- nest family ------------------------------------------------------------------


def _nest_grid(plan, d: int, oversample: int = 1) -> QuadratureGrid:
    base = len(plan.crossing) + sum(b.prefix_len for b in plan.blocks)
    counts = []
    for b in plan.blocks:
        if b.cycle is None:
            counts.append(oversample)
        else:
            counts.append(
                oversample * (1 + max(b.wraps, max(0, (d - base) // b.size)))
            )
    return QuadratureGrid(tuple(counts))


def _nest_samples(
    g: DirectedGraph,
    a: FormalElement,
    plan,
    grid: QuadratureGrid,
    tol: ToleranceConfig,
) -> np.ndarray:
    samples = np.empty(grid.counts, dtype=np.complex128)
    for idx in grid.indices():
        rep, _ = _rho_from_plan(g, plan, grid.point(idx), tol=tol, validate=False)
        samples[idx] = evaluate(rep, a)[plan.exit_index, plan.entry_index]
    return samples


def recover_nest(
    g: DirectedGraph,
    a: FormalElement,
    w: Path,
    *,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    oversample: int = 1,
) -> complex:
    """Recover the coefficient of ``w`` in ``a`` from the nest family on ``w``.

    The pairing entry from the first block's entry vector to the last block's
    arrival vector is a multivariate polynomial, one variable per diagonal
    block; the coefficient of ``w`` sits at the multi-frequency given by the
    blocks' wrap counts, scaled by ``2^{-|w|}``.  Works for any path,
    vertex paths included.  ``oversample`` multiplies every axis of the
    sampling grid without changing the result beyond roundoff.
    """
    _check_same_graph(g, a)
    _check_oversample(oversample)
    g.validate_path(w)
    _check_length(w)
    if a.is_zero:
        return 0j
    plan = nest_plan(g, w)
    grid = _nest_grid(plan, degree(a), oversample)
    samples = _nest_samples(g, a, plan, grid, tol)
    coeff = np.fft.fftn(samples)[plan.frequencies] / grid.size
    return complex((2.0 ** w.length) * coeff)


# -- triangular family -------------------------------------------------------------


def _strip_designated(
    g: DirectedGraph, v: Path, designated: Mapping[str, str]
) -> tuple[Path, dict[int, int]]:
    """Split a walk into its designated-loop dwells and the skeleton walk.

    Returns the skeleton (``v`` with designated loops removed) and a map
    from 1-based skeleton position to the number of dwells taken there.
    """
    dwell: dict[int, int] = {}
    kept: list[str] = []
    current = v.source
    for name in v.traversal:
        e = g.edge(name)
        if designated.get(current) == name:
            j = len(kept) + 1
            dwell[j] = dwell.get(j, 0) + 1
        else:
            kept.append(name)
        current = e.target
    skeleton = g.path_from_traversal(kept) if kept else g.vertex_path(v.source)
    return skeleton, dwell


def _upper_grid(
    a: FormalElement, plan, m_vec: tuple[int, ...], oversample: int = 1
) -> QuadratureGrid:
    slack = max(0, degree(a) - (plan.k - 1))
    counts = []
    for j, m_j in zip(plan.loop_positions, m_vec):
        fname = plan.designated[plan.positions[j - 1]]
        occurrences = max(
            (sum(1 for n in p.traversal if n == fname) for p in a.support),
            default=0,
        )
        counts.append(oversample * (1 + max(m_j, min(occurrences, slack))))
    return QuadratureGrid(tuple(counts))


def _upper_samples(
    g: DirectedGraph,
    a: FormalElement,
    plan,
    grid: QuadratureGrid,
    tol: ToleranceConfig,
) -> np.ndarray:
    samples = np.empty(grid.counts, dtype=np.complex128)
    for idx in grid.indices():
        rep = _psi_from_plan(
            g, plan, grid.point(idx),
            require_distinct=False, tol=tol, validate=False,
        )
        samples[idx] = evaluate(rep, a)[plan.k - 1, 0]
    return samples


def recover_upper(
    g: DirectedGraph,
    a: FormalElement,
    v: Path,
    *,
    loop_choice: Mapping[str, str] | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
    oversample: int = 1,
) -> complex:
    """Recover the coefficient of ``v`` in ``a`` from the triangular family.

    The walk ``v`` splits into designated-loop dwells and a loop-avoiding
    skeleton; the corner entry of the triangular representation on the
    skeleton is a polynomial in the diagonal parameters, and the coefficient
    of ``v`` sits at the multi-frequency given by the dwell counts, scaled by
    ``2^{-|v|}``.  Requires every cycle-supporting vertex to carry a loop.
    ``oversample`` multiplies every axis of the sampling grid without
    changing the result beyond roundoff.
    """
    _check_same_graph(g, a)
    _check_oversample(oversample)
    g.validate_path(v)
    _check_length(v)
    designated = designated_loops(g, loop_choice)
    skeleton, dwell = _strip_designated(g, v, designated)
    plan = upper_plan(g, skeleton, loop_choice)
    if a.is_zero:
        return 0j
    m_vec = tuple(dwell.get(j, 0) for j in plan.loop_positions)
    total = v.length
    if not plan.loop_positions:
        rep = _psi_from_plan(g, plan, [], require_distinct=False, tol=tol, validate=False)
        return complex((2.0 ** total) * evaluate(rep, a)[plan.k - 1, 0])
    grid = _upper_grid(a, plan, m_vec, oversample)
    samples = _upper_samples(g, a, plan, grid, tol)
    coeff = np.fft.fftn(samples)[m_vec] / grid.size
    return complex((2.0 ** total) * coeff)


# -- separation --------------------------------------------------------------------


SEPARATION_FAMILIES = ("irreducible", "nest", "upper")


@dataclass(frozen=True)
class SeparationWitness:
    """A concrete finite representation on which a nonzero element acts
    nontrivially.

    ``entry_value`` is the pairing entry at (row, col) evaluated at the
    witness point; ``value`` is the operator norm of the whole evaluated
    matrix there, so ``value ≥ |entry_value| > 0``.
    """

    family: str
    path: Path
    representation: FiniteRepresentation
    nest: NestStructure | None
    row: int
    col: int
    witness_point: tuple[complex, ...]
    frequency: tuple[int, ...]
    entry_value: complex
    value: float

    def reevaluate(self, a: FormalElement) -> float:
        """Recompute ‖evaluate(rep, a)‖ from scratch (consistency check)."""
        return operator_norm(evaluate(self.representation, a))

    def entry(self, a: FormalElement) -> complex:
        """Recompute the witnessed matrix entry of ``a``."""
        return complex(evaluate(self.representation, a)[self.row, self.col])

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "path": {
                "source": self.path.source,
                "edges": list(self.path.traversal),
            },
            "dimension": self.representation.dimension,
            "nest_blocks": list(self.nest.block_sizes) if self.nest else None,
            "row": self.row,
            "col": self.col,
            "witness_point": [[z.real, z.imag] for z in self.witness_point],
            "frequency": list(self.frequency),
            "entry_value": [self.entry_value.real, self.entry_value.imag],
            "value": self.value,
        }


def _argmax_index(samples: np.ndarray) -> tuple[int, ...]:
    flat = int(np.argmax(np.abs(samples)))
    return tuple(int(i) for i in np.unravel_index(flat, samples.shape))


def _finish_witness(
    family: str,
    w: Path,
    a: FormalElement,
    rep: FiniteRepresentation,
    nest: NestStructure | None,
    row: int,
    col: int,
    point: tuple[complex, ...],
    frequency: tuple[int, ...],
) -> SeparationWitness:
    evaluated = evaluate(rep, a)
    entry = complex(evaluated[row, col])
    return SeparationWitness(
        family, w, rep, nest, row, col, point, frequency,
        entry, operator_norm(evaluated),
    )


def separate(
    g: DirectedGraph,
    a: FormalElement,
    family: str,
    *,
    loop_choice: Mapping[str, str] | None = None,
    tol: ToleranceConfig = DEFAULT_TOLERANCES,
) -> SeparationWitness:
    """Produce a representation from the named family separating ``a`` from 0.

    Takes the minimal support path of ``a`` (shortest, then earliest by edge
    declaration), builds the family's recovery grid for it, and returns the
    representation at the grid point where the pairing entry is largest in
    absolute value.  Families: "irreducible" (requires every edge on a
    cycle), "nest" (any graph), "upper" (requires loops at cycle-supporting
    vertices).  Raises ``EmptyInputError`` for the zero element.
    """
    _check_same_graph(g, a)
    if family not in SEPARATION_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {SEPARATION_FAMILIES}"
        )
    if a.is_zero:
        raise EmptyInputError("the zero element has no separating witness")
    w = a.support[0]
    _check_length(w)

    if family == "irreducible":
        if not is_transitive_in_components(g):
            raise PreconditionError(
                "the irreducible family separates only graphs whose every "
                "edge lies on a cycle"
            )
        if w.is_vertex:
            rep = _vertex_block_rep(g, w.source, tol)
            return _finish_witness(family, w, a, rep, None, 0, 0, (), ())
        root, row, freq, k = _irreducible_layout(g, w)
        count = 1 + max(freq, max(0, (degree(a) - w.length) // k))
        samples = _irreducible_samples(g, a, root, row, count, tol)
        (best,) = _argmax_index(samples)
        lam = complex(np.exp(2j * np.pi * (best / count)))
        rep = phi_cycle(g, root, lam, tol=tol, validate=False)
        return _finish_witness(family, w, a, rep, None, row, 0, (lam,), (freq,))

    if family == "nest":
        plan = nest_plan(g, w)
        grid = _nest_grid(plan, degree(a))
        samples = _nest_samples(g, a, plan, grid, tol)
        point = grid.point(_argmax_index(samples))
        rep, structure = _rho_from_plan(g, plan, point, tol=tol, validate=False)
        return _finish_witness(
            family, w, a, rep, structure,
            plan.exit_index, plan.entry_index, point, plan.frequencies,
        )

    designated = designated_loops(g, loop_choice)
    skeleton, dwell = _strip_designated(g, w, designated)
    plan = upper_plan(g, skeleton, loop_choice)
    m_vec = tuple(dwell.get(j, 0) for j in plan.loop_positions)
    if not plan.loop_positions:
        rep = _psi_from_plan(g, plan, [], require_distinct=False, tol=tol, validate=False)
        return _finish_witness(family, w, a, rep, None, plan.k - 1, 0, (), ())
    grid = _upper_grid(a, plan, m_vec)
    samples = _upper_samples(g, a, plan, grid, tol)
    point = grid.point(_argmax_index(samples))
    rep = _psi_from_plan(
        g, plan, point, require_distinct=False, tol=tol, validate=False
    )
    return _finish_witness(
        family, w, a, rep, None, plan.k - 1, 0, point, m_vec
    )


# -- radical -----------------------------------------------------------------------


def is_in_radical(g: DirectedGraph, a: FormalElement) -> bool:
    """Whether every support path of ``a`` fails to close into a cycle.

    A path closes into a cycle exactly when its end reaches its start; as
    the path already runs from start to end, that is when both ends lie in
    one strongly connected component (vertex paths always do).  So elements
    supported on any vertex or on any cycle-completable path are excluded.
    The zero element is a member.
    """
    _check_same_graph(g, a)
    comp = condensation(g).vertex_component
    return all(comp[p.source] != comp[p.target] for p in a.support)


def radical_edge_generators(g: DirectedGraph) -> tuple[str, ...]:
    """Names of the edges crossing between strongly connected components,
    in declaration order; together they generate the radical as an ideal."""
    return condensation(g).crossing_edge_names
