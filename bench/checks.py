"""Output checks that do not go through graphnest.

Every expected value here comes from the benchmark's own data (the planted
graph, the stored coefficients) or from a computation made with plain
Python and numpy: breadth-first search, integer matrix powers and explicit
matrix products.  No check compares against a stored copy of the program's
output.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

COEFF_TOL = 1e-8
ENTRY_TOL = 1e-10
PURITY_TOL = 1e-12
ROW_NORM_TOL = 1e-12


def coefficient_ok(got: complex, expected: complex) -> bool:
    """A recovered coefficient matches the stored one (0 off the support)."""
    return abs(complex(got) - expected) <= COEFF_TOL * max(1.0, abs(expected))


def path_matrix(edge_images, vertex_images, source: str, traversal) -> np.ndarray:
    """Product of edge images along a walk, last step leftmost; a walk of
    length 0 gives the image of its vertex."""
    if not traversal:
        return np.asarray(vertex_images[source])
    m = np.asarray(edge_images[traversal[0]])
    for name in traversal[1:]:
        m = np.asarray(edge_images[name]) @ m
    return m


def witness_ok(witness, terms) -> bool:
    """``value ≥ |entry| > 0`` and the entry equals the (row, col) entry of
    Σ c_p · (product of the witness's images along p).

    ``terms`` lists ``(source, traversal, coefficient)`` as generated.
    """
    rep = witness.representation
    entry = 0j
    magnitude = 0.0  # Σ |term|, the scale roundoff is measured against
    for source, traversal, c in terms:
        m = path_matrix(rep.edge_images, rep.vertex_images, source, traversal)
        term = c * complex(m[witness.row, witness.col])
        entry += term
        magnitude += abs(term)
    got = complex(witness.entry_value)
    if not abs(got) > 0.0 or witness.value < abs(got) * (1.0 - 1e-12):
        return False
    return abs(got - entry) <= ENTRY_TOL * magnitude


# -- graph structure ----------------------------------------------------------


class PlantedGraph:
    """A graph as the generator built it: vertices, edges and, when planted,
    the intended strongly connected components with their classes."""

    def __init__(self, vertices, edges, components=None, crossing=()):
        self.vertices = list(vertices)
        self.edges = list(edges)  # (name, source, target)
        self.components = components  # list of (vertex tuple, class name)
        self.crossing = list(crossing)  # crossing edge names, declaration order
        self.out = {v: [] for v in self.vertices}  # vertex -> [(edge, target)]
        for name, s, t in self.edges:
            self.out[s].append((name, t))

    def text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"edge {n} {s} {t}" for n, s, t in self.edges]
        return "\n".join(lines) + "\n"

    def reachable_from(self, x: str) -> set[str]:
        seen = {x}
        frontier = deque([x])
        while frontier:
            v = frontier.popleft()
            for _, w in self.out[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    def quotient_totally_ordered(self) -> bool:
        """Every pair of planted components is comparable by reachability."""
        reps = [verts[0] for verts, _ in self.components]
        reach = [self.reachable_from(r) for r in reps]
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                if reps[j] not in reach[i] and reps[i] not in reach[j]:
                    return False
        return True

    def fock_dimension(self, depth: int) -> int:
        """Σ_{ℓ≤depth} 1ᵀAˡ1 from integer powers of the adjacency matrix."""
        index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        adj = [[0] * n for _ in range(n)]
        for _, s, t in self.edges:
            adj[index[s]][index[t]] += 1
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        total = 0
        for _ in range(depth + 1):
            total += sum(sum(row) for row in power)
            power = [
                [sum(power[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        return total


def classification_ok(report: dict, planted: PlantedGraph, ordered: bool) -> bool:
    """Check a ``ClassificationReport.to_json()`` payload against the plant.

    Components and classes must equal the planted partition (components in
    order of first-declared vertex), the radical generators the planted
    crossing edges in declaration order, ``semisimple`` must hold exactly
    when nothing crosses, and ``quotient_totally_ordered`` must equal the
    breadth-first answer ``ordered``.
    """
    got = [
        (tuple(c["vertices"]), c["class"]) for c in report["graph"]["components"]
    ]
    position = {v: i for i, v in enumerate(planted.vertices)}
    want = sorted(
        ((tuple(sorted(vs, key=position.get)), cls) for vs, cls in planted.components),
        key=lambda item: position[item[0][0]],
    )
    return (
        got == want
        and list(report["radical_generators"]) == planted.crossing
        and report["semisimple"] == (not planted.crossing)
        and report["faithful_nest"]["conditions"]["quotient_totally_ordered"] == ordered
    )


# -- dense representations ------------------------------------------------------


def fock_dimension_ok(dimension: int, planted: PlantedGraph, depth: int) -> bool:
    return int(dimension) == planted.fock_dimension(depth)


def relations_all_hold(verdicts: dict) -> bool:
    return len(verdicts) == 4 and all(verdicts.values())


def purity_ok(value: float, depth: int) -> bool:
    """A cycle representation reaches each basis vector by exactly one
    length-d walk of weight 2^-d, so the defect is 4^-d."""
    return abs(value - 4.0 ** -depth) <= PURITY_TOL


def span_ok(dimension: int, k: int) -> bool:
    """A primitive cycle of length k generates all k×k matrices."""
    return int(dimension) == k * k


def row_norm_of(images) -> float:
    acc = sum(np.asarray(m) @ np.asarray(m).conj().T for m in images)
    return math.sqrt(float(np.linalg.norm(acc, 2)))


def row_norm_ok(value: float) -> bool:
    return abs(value - 0.5) <= ROW_NORM_TOL
