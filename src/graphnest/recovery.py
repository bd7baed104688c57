"""Exact coefficient recovery and separation through finite pairings.

Every finitely supported element pairs with the finite-dimensional
representation families in a single matrix entry that is a polynomial in
the family's unit-modulus parameters.  Every edge image carries weight ½
and sends each basis vector to at most one other, so the coefficient of
that polynomial at a path's multi-frequency is 2^-|w| times the path's
coefficient.  The family's basis layout (``reps``) gives the polynomial
exactly, one walk per support path, with the scale 2^-|w| kept apart, and
recovery reads one coefficient of it unscaled.  Separation evaluates the
polynomial on a root-of-unity grid with one more point per axis than its
largest exponent, where a nonzero polynomial cannot vanish everywhere, and
builds the witness where the entry is largest.  ``LimitError`` is raised
for paths longer than ``MAX_PATH_LENGTH`` edges, separation grids of more
than ``MAX_GRID_POINTS`` points and zero or subnormal witness entries.

The radical helpers at the bottom answer membership combinatorially: an
element lies in the radical exactly when none of its support paths can be
closed into a cycle, and the radical is generated by the edges that cross
strongly connected components.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .elements import FormalElement
from .errors import EmptyInputError, LimitError, PreconditionError
from .graphs import DirectedGraph, Path, condensation, is_transitive_in_components
from .linalg import operator_norm
from .reps import (
    FiniteRepresentation,
    NestPlan,
    NestStructure,
    _carrier,
    _cycle_layout,
    _Layout,
    designated_loops,
    evaluate,
    nest_plan,
    upper_plan,
)

#: Longest path whose pairing scale 2^-|w| is still a normal double.
MAX_PATH_LENGTH = 1022

#: Most root-of-unity points a separation grid may have.
MAX_GRID_POINTS = 2**20

# A family's pairing entry for a path: layout, column, row, multi-frequency.
_Target = tuple[_Layout, int, int, tuple[int, ...]]


def _check_same_graph(g: DirectedGraph, a: FormalElement) -> None:
    if a.graph != g:
        raise ValueError("element belongs to a different graph")


def _check_length(w: Path) -> None:
    if w.length > MAX_PATH_LENGTH:
        raise LimitError(
            f"path length {w.length} exceeds the cap {MAX_PATH_LENGTH} set by "
            f"recovery.MAX_PATH_LENGTH: the pairing scale 2^-{w.length} is below "
            "the normal double range"
        )


def _check_path(g: DirectedGraph, a: FormalElement, w: Path) -> None:
    _check_same_graph(g, a)
    g.validate_path(w)
    _check_length(w)


def _coefficient(a: FormalElement, target: _Target) -> complex:
    layout, col, row, frequency = target
    return complex(layout.pairing(a, col, row).get(frequency, (0, 0j))[1])


# -- targets ------------------------------------------------------------------------


def _nest_target(plan: NestPlan) -> _Target:
    return plan.layout, plan.entry_index, plan.exit_index, plan.frequencies


def _irreducible_target(g: DirectedGraph, w: Path) -> _Target:
    """The cycle layout of the primitive cycle completing ``w``, entered at
    h_1; a vertex path uses its one-dimensional nest layout instead."""
    if w.is_vertex:
        return _nest_target(nest_plan(g, w))
    root, row, wraps = _carrier(g, w)
    return _cycle_layout(g, root), 0, row, (wraps,)


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
    # Dropping loops keeps the walk connected and its ends where they were.
    return Path(v.source, v.target, tuple(reversed(kept))), dwell


def _upper_target(
    g: DirectedGraph, v: Path, loop_choice: Mapping[str, str] | None
) -> _Target:
    """The triangular layout of ``v``'s skeleton, corner entry, at the
    multi-frequency given by the designated-loop dwell counts."""
    skeleton, dwell = _strip_designated(g, v, designated_loops(g, loop_choice))
    plan = upper_plan(g, skeleton, loop_choice)
    frequency = tuple(dwell.get(j, 0) for j in plan.loop_positions)
    return plan.layout, 0, plan.k - 1, frequency


# -- recovery -----------------------------------------------------------------------


def recover_irreducible(g: DirectedGraph, a: FormalElement, w: Path) -> complex:
    """Recover the coefficient of ``w`` in ``a`` from the irreducible family.

    The family lives on the primitive cycle that completes ``w``; the pairing
    entry (row ``|w| mod k``, column 0) is a polynomial in the family's
    parameter whose coefficient at frequency ``|w| div k`` is ``2^{-|w|}``
    times the wanted coefficient.  Requires the end of ``w`` to reach its
    start; a vertex path is recovered from the one-dimensional representation
    supported on that vertex.
    """
    _check_path(g, a, w)
    return _coefficient(a, _irreducible_target(g, w))


def recover_nest(g: DirectedGraph, a: FormalElement, w: Path) -> complex:
    """Recover the coefficient of ``w`` in ``a`` from the nest family on ``w``.

    The pairing entry from the first block's entry vector to the last block's
    arrival vector is a multivariate polynomial, one variable per diagonal
    block; the coefficient of ``w`` sits at the multi-frequency given by the
    blocks' wrap counts, scaled by ``2^{-|w|}``.  Works for any path,
    vertex paths included.
    """
    _check_path(g, a, w)
    return _coefficient(a, _nest_target(nest_plan(g, w)))


def recover_upper(
    g: DirectedGraph,
    a: FormalElement,
    v: Path,
    *,
    loop_choice: Mapping[str, str] | None = None,
) -> complex:
    """Recover the coefficient of ``v`` in ``a`` from the triangular family.

    The walk ``v`` splits into designated-loop dwells and a loop-avoiding
    skeleton; the corner entry of the triangular representation on the
    skeleton is a polynomial in the diagonal parameters, and the coefficient
    of ``v`` sits at the multi-frequency given by the dwell counts, scaled by
    ``2^{-|v|}``.  Requires every cycle-supporting vertex to carry a loop.
    """
    _check_path(g, a, v)
    return _coefficient(a, _upper_target(g, v, loop_choice))


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


def _peak(poly: dict[tuple[int, ...], tuple[int, complex]], axes: int) -> tuple[complex, ...]:
    """The root-of-unity point where the polynomial is largest in modulus.

    The grid has one more point per axis than the largest exponent on it,
    so the inverse FFT of the coefficient tensor gives the polynomial's
    values there (up to a positive factor) and they are not all zero.
    Each coefficient is scaled by 2^-length relative to the shortest length,
    which does not move the peak.  λ = 1, where the weights ½ multiply
    exactly, wins ties within rounding (one term has one modulus everywhere).
    """
    shape = tuple(1 + max((e[i] for e in poly), default=0) for i in range(axes))
    size = math.prod(shape)
    if size > MAX_GRID_POINTS:
        raise LimitError(
            f"separation grid of {size} points exceeds the cap {MAX_GRID_POINTS} "
            "set by recovery.MAX_GRID_POINTS"
        )
    # Axes no exponent reaches stay at λ = 1, outside the transform (numpy allows 64 axes).
    live = [i for i, n in enumerate(shape) if n > 1]
    coefficients = np.zeros([shape[i] for i in live], dtype=np.complex128)
    shortest = min([length for length, _ in poly.values()], default=0)
    for exponents, (length, c) in poly.items():
        coefficients[tuple(exponents[i] for i in live)] = c * 0.5 ** (length - shortest)
    values = np.abs(np.fft.ifftn(coefficients)).reshape(-1)
    best = int(np.argmax(values))
    best = 0 if values[0] >= values[best] * (1 - 1e-12) else best
    turns = dict(zip(live, np.unravel_index(best, coefficients.shape)))
    return tuple(complex(np.exp(2j * np.pi * (int(turns.get(i, 0)) / n))) for i, n in enumerate(shape))


def separate(
    g: DirectedGraph,
    a: FormalElement,
    family: str,
    *,
    loop_choice: Mapping[str, str] | None = None,
) -> SeparationWitness:
    """Produce a representation from the named family separating ``a`` from 0.

    Takes the minimal support path of ``a`` (shortest, then earliest by edge
    declaration), evaluates the family's pairing polynomial for it on a
    root-of-unity grid, and returns the representation at the grid point
    where the pairing entry is largest in absolute value.  Families:
    "irreducible" (requires every edge on a cycle), "nest" (any graph),
    "upper" (requires loops at cycle-supporting vertices).  Raises
    ``EmptyInputError`` for the zero element, and ``LimitError`` when the
    grid would have more than ``MAX_GRID_POINTS`` points or the witness
    entry is zero or subnormal, so every witness has ``value ≥ |entry| > 0``.
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

    nest = None
    if family == "irreducible":
        if not is_transitive_in_components(g):
            raise PreconditionError(
                "the irreducible family separates only graphs whose every "
                "edge lies on a cycle"
            )
        target = _irreducible_target(g, w)
    elif family == "nest":
        plan = nest_plan(g, w)
        nest = NestStructure(plan.block_sizes)
        target = _nest_target(plan)
    else:
        target = _upper_target(g, w, loop_choice)
    layout, col, row, frequency = target
    point = _peak(layout.pairing(a, col, row), len(frequency))
    rep = layout.dense(point)
    evaluated = evaluate(rep, a)
    entry = complex(evaluated[row, col])
    if not abs(entry) >= sys.float_info.min:
        raise LimitError(f"witness entry {abs(entry)!r} (scale 2^-{w.length}) is "
                         f"below the smallest normal double {sys.float_info.min!r}")
    # The norm bounds every entry; the SVD of a tiny matrix can round it below.
    value = max(operator_norm(evaluated), abs(entry))
    return SeparationWitness(family, w, rep, nest, row, col, point, frequency, entry, value)


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
    comp, index = condensation(g)._component, g._vertex_index
    return all(comp[index[p.source]] != comp[index[p.target]] for p in a.support)


def radical_edge_generators(g: DirectedGraph) -> tuple[str, ...]:
    """Names of the edges crossing between strongly connected components,
    in declaration order; together they generate the radical as an ideal."""
    return condensation(g).crossing_edge_names
