"""Formal elements of a graph's path algebra.

A formal element is a finitely supported complex combination of paths — a
finite Fourier series Σ a_p L_p over the path semigroupoid.  Products follow
the semigroupoid: L_p·L_q = L_{pq} when the paths compose and vanish
otherwise.  This module also builds the truncated Fock basis (all paths up
to a length cap, ordered by length then declaration order) and the truncated
left regular representation on it, in the monomial storage of ``reps``.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

from .errors import GraphParseError, LimitError
from .graphs import DirectedGraph, Path, compose, _levels, _path_count

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .reps import FiniteRepresentation

#: Default ceiling on the truncated Fock basis size.
DEFAULT_MAX_BASIS = 20_000


class FormalElement:
    """A finitely supported map Path → coefficient over a fixed graph.

    Zero coefficients are never stored (exact-zero pruning only; floating
    arithmetic on coefficients is otherwise untouched).  A NaN or infinite
    coefficient, given or summed, raises ``ValueError`` naming its path.
    The terms are ordered by ``path_sort_key`` once, at construction, and
    ``support`` and ``items`` read that order.  Instances are immutable;
    arithmetic returns new elements.
    """

    __slots__ = ("graph", "_terms")

    def __init__(
        self,
        graph: DirectedGraph,
        terms: Mapping[Path, complex] | Iterable[tuple[Path, complex]] = (),
        *,
        validate: bool = True,
    ):
        self.graph = graph
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Path, complex] = {}
        for path, coeff in items:
            c = complex(coeff)
            if c == 0:
                continue
            if validate:
                graph.validate_path(path)
            acc[path] = acc.get(path, 0) + c
        for p, c in acc.items():
            if not cmath.isfinite(c):
                label = f"vertex:{p.source}" if p.is_vertex else ",".join(p.traversal)
                raise ValueError(f"path {label} has the non-finite coefficient {c!r}")
        kept = sorted((p for p, c in acc.items() if c != 0), key=graph.path_sort_key)
        self._terms = {p: acc[p] for p in kept}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, graph: DirectedGraph) -> "FormalElement":
        return cls(graph, ())

    @classmethod
    def single(cls, graph: DirectedGraph, path: Path, coeff: complex = 1.0) -> "FormalElement":
        return cls(graph, [(path, coeff)])

    # -- inspection -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    @property
    def degree(self) -> int:
        """Largest path length in the support (0 for the zero element)."""
        return max((p.length for p in self._terms), default=0)

    @property
    def support(self) -> tuple[Path, ...]:
        """Supported paths in deterministic (length, declaration) order."""
        return tuple(self._terms)

    def items(self) -> list[tuple[Path, complex]]:
        """Term list in deterministic (length, declaration) order."""
        return list(self._terms.items())

    def coefficient(self, p: Path) -> complex:
        return self._terms.get(p, 0j)

    # -- arithmetic -------------------------------------------------------------

    def _require_same_graph(self, other: "FormalElement"):
        if self.graph != other.graph:
            raise ValueError("formal elements live over different graphs")

    def __add__(self, other: "FormalElement") -> "FormalElement":
        if not isinstance(other, FormalElement):
            return NotImplemented
        self._require_same_graph(other)
        acc = dict(self._terms)
        for p, c in other._terms.items():
            acc[p] = acc.get(p, 0) + c
        return FormalElement(self.graph, acc, validate=False)

    def __sub__(self, other: "FormalElement") -> "FormalElement":
        if not isinstance(other, FormalElement):
            return NotImplemented
        return self + (-1.0) * other

    def __neg__(self) -> "FormalElement":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, FormalElement):
            self._require_same_graph(other)
            acc: dict[Path, complex] = {}
            for p, ap in self._terms.items():
                for q, bq in other._terms.items():
                    if q.target != p.source:
                        continue
                    r = compose(p, q)
                    acc[r] = acc.get(r, 0) + ap * bq
            return FormalElement(self.graph, acc, validate=False)
        if isinstance(other, numbers.Complex):
            return FormalElement(
                self.graph,
                {p: c * complex(other) for p, c in self._terms.items()},
                validate=False,
            )
        return NotImplemented

    def __rmul__(self, scalar):
        if isinstance(scalar, numbers.Complex):
            return self * scalar
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FormalElement)
            and self.graph == other.graph
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.graph, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero:
            return "FormalElement<0>"
        bits = []
        for p, c in self.items()[:4]:
            label = p.source if p.is_vertex else ",".join(p.traversal)
            bits.append(f"{c:.3g}·[{label}]")
        more = "" if self.num_terms <= 4 else f" (+{self.num_terms - 4} terms)"
        return f"FormalElement<{' + '.join(bits)}{more}>"


# -- spec'd operations -----------------------------------------------------------


def multiply(a: FormalElement, b: FormalElement) -> FormalElement:
    """Semigroupoid convolution: (ab)_r = Σ over factorizations r = pq of
    a_p·b_q, with non-composable pairs contributing nothing."""
    return a * b


def cesaro_mean(a: FormalElement, k: int) -> FormalElement:
    """Weight coefficients by (1 − |p|/k) for |p| < k; drop the rest."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return FormalElement(
        a.graph,
        {p: c * (1 - p.length / k) for p, c in a._terms.items() if p.length < k},
        validate=False,
    )


def fourier_coefficient(a: FormalElement, w: Path) -> complex:
    """The coefficient a_w (0 when absent)."""
    return a.coefficient(w)


def degree(a: FormalElement) -> int:
    return a.degree


# -- truncated Fock space ------------------------------------------------------------


@dataclass(frozen=True)
class TruncatedFockBasis:
    """All paths of length ≤ depth, ordered by length then declaration order.

    The basis contains every vertex and is closed under prefixes in the
    walking sense: removing the last walked edge of a member gives a member.
    """

    depth: int
    paths: tuple[Path, ...]

    @property
    def dimension(self) -> int:
        return len(self.paths)

    def index(self, p: Path) -> int:
        try:
            return self._index[p]  # type: ignore[attr-defined]
        except AttributeError:
            object.__setattr__(self, "_index", {q: i for i, q in enumerate(self.paths)})
            return self._index[p]  # type: ignore[attr-defined]

    def indices_of_length_at_most(self, m: int) -> list[int]:
        """Basis positions of paths with length ≤ m (the 'interior' of the
        truncation when m = depth − 1)."""
        return [i for i, p in enumerate(self.paths) if p.length <= m]


def truncated_fock_basis(
    g: DirectedGraph, depth: int, *, max_basis: int = DEFAULT_MAX_BASIS
) -> TruncatedFockBasis:
    """Enumerate all paths of length ≤ depth across the whole graph; raises
    ``LimitError`` past ``max_basis`` paths, naming the count depth needs.

    The count comes first, by the recurrence n_{l+1}(y) = Σ n_l(s(e)) over
    the edges e into y.  It is exact unless it passes ``max_basis``² or
    ``max_basis`` levels (each holding a path), where it stops and the error
    states a lower bound."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    count, exact = _path_count(g, g.vertices, depth, max_basis)
    if count > max_basis:
        bound = "" if exact else "more than "
        raise LimitError(
            f"the truncated Fock basis of depth {depth} has {bound}{count} paths, "
            f"over the cap of {max_basis} paths set by max_basis (--max-basis)"
        )
    levels = _levels(g, g.vertices, depth)
    return TruncatedFockBasis(depth, tuple(p for level in levels for p in level))


def truncated_left_regular(
    g: DirectedGraph, d: int, *, max_basis: int = DEFAULT_MAX_BASIS
) -> FiniteRepresentation:
    """Left multiplication on the span of {ξ_w : |w| ≤ d}.

    A vertex acts as the projection onto {ξ_w : r(w) = x}; an edge sends ξ_w
    to ξ_{ew} when the composition is defined and still fits the truncation,
    and to 0 otherwise.  Each basis vector ξ_w is labelled by r(w) and each
    edge image is stored as that partial map with weight 1, so no k×k array
    is built.  The returned representation carries the basis on its
    ``fock_basis`` attribute.
    """
    import numpy as np  # here, so that importing this module leaves numpy unloaded
    from .reps import FiniteRepresentation

    basis = truncated_fock_basis(g, d, max_basis=max_basis)
    n, nv = basis.dimension, len(g.vertices)
    edges = g.edges if d else ()
    target, out = g._dst, g._out
    # Positions follow ``_levels``: ξ_x goes to the one-edge path e at
    # n_vertices + (index of e), and past level 1 the children e·w of the
    # paths w, in basis order and each w's out-edges in declaration order,
    # take the next positions in turn.  Once they fill the basis, the later
    # paths have no children inside it.
    labels = list(range(nv)) + target[: len(edges)]
    rows = [[-1] * n for _ in edges]
    for i, s in enumerate(g._src[: len(edges)]):
        rows[i][s] = nv + i
    for col in range(nv, n):
        if len(labels) == n:
            break
        for i in out[labels[col]]:
            rows[i][col] = len(labels)
            labels.append(target[i])
    rows = np.array(rows, dtype=np.intp).reshape(len(edges), n)
    weights = (rows >= 0).astype(np.complex128)
    return FiniteRepresentation(
        g, n, np.array(labels, dtype=np.intp), ([e.name for e in edges], rows, weights),
        fock_basis=basis,
    )


# -- JSON encoding ------------------------------------------------------------------


def element_to_json(a: FormalElement) -> dict:
    """Stable JSON encoding; path arrays list edges in walking order."""
    terms = []
    for p, c in a.items():
        entry: dict = {"coeff": [float(c.real), float(c.imag)]}
        if p.is_vertex:
            entry["vertex"] = p.source
        else:
            entry["path"] = list(p.traversal)
        terms.append(entry)
    return {"terms": terms}


def element_from_json(g: DirectedGraph, obj) -> FormalElement:
    """Inverse of element_to_json; duplicate terms accumulate."""
    if not isinstance(obj, dict) or "terms" not in obj or not isinstance(obj["terms"], list):
        raise GraphParseError("element JSON must be an object with a 'terms' array")
    pairs: list[tuple[Path, complex]] = []
    for i, entry in enumerate(obj["terms"]):
        if not isinstance(entry, dict):
            raise GraphParseError(f"element term {i} is not an object")
        try:
            re, im = entry["coeff"]
            coeff = complex(float(re), float(im))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphParseError(f"element term {i} has a malformed coefficient") from exc
        if not cmath.isfinite(coeff):
            raise GraphParseError(f"element term {i} has a non-finite coefficient")
        if ("vertex" in entry) == ("path" in entry):
            raise GraphParseError(
                f"element term {i} must carry exactly one of 'vertex' or 'path'"
            )
        if "vertex" in entry:
            path = g.vertex_path(str(entry["vertex"]))
        else:
            names = entry["path"]
            if not isinstance(names, list) or not names:
                raise GraphParseError(f"element term {i} has a malformed path array")
            path = g.path_from_traversal([str(n) for n in names])
        pairs.append((path, coeff))
    # vertex_path and path_from_traversal have checked every path.
    return FormalElement(g, pairs, validate=False)
