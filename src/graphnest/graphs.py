"""Directed multigraphs and their path semigroupoid.

A finite directed multigraph (loops and parallel edges allowed) is the base
object of the whole package.  Paths compose right-to-left, the way operator
products do: in ``p = e_k …​ e_2 e_1`` the edge ``e_1`` is traversed first, and
the product ``pq`` is defined when ``r(q) = s(p)``.  Vertices are paths of
length zero and act as local units.  A *cycle* is any path whose source and
target agree (so every vertex is a trivial cycle; most cycle machinery below
requires length ≥ 1 and says so).

This module provides the graph/path data model, a line-oriented text format,
strongly connected components with a classified condensation, primitive-root
extraction for cycles, the component-wise path decomposition, cycle
completion, and deterministic path enumeration.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    GraphParseError,
    LimitError,
    PathError,
    PreconditionError,
)

#: Cap on the ``max_len`` argument of the enumeration helpers.
MAX_ENUM_LENGTH = 12

#: Cap on the number of paths an enumeration may produce.
MAX_ENUM_PATHS = 200_000


@dataclass(frozen=True)
class Edge:
    """A directed edge: ``source`` and ``target`` are vertex names."""

    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A path in the semigroupoid of a fixed graph.

    ``edges`` holds edge names in *composition order*: ``edges[0]`` is the
    last edge traversed (the leftmost factor), matching the right-to-left
    product convention.  ``traversal`` gives the walking order.  A path of
    length zero has ``edges == ()`` and ``source == target`` (a vertex).
    """

    source: str
    target: str
    edges: tuple[str, ...] = ()

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def is_vertex(self) -> bool:
        return not self.edges

    @property
    def is_cycle(self) -> bool:
        """True when source and target agree (vertices count, trivially)."""
        return self.source == self.target

    @property
    def traversal(self) -> tuple[str, ...]:
        """Edge names in walking order (first traversed first)."""
        return tuple(reversed(self.edges))

    def __repr__(self) -> str:
        if self.is_vertex:
            return f"Path<{self.source}>"
        word = ",".join(self.traversal)
        return f"Path<{self.source}-[{word}]->{self.target}>"


class ComponentClass(enum.Enum):
    """Structural class of a strongly connected component."""

    TRIVIAL = "Trivial"
    CYCLE = "Cycle"
    STRONGLY_TRANSITIVE = "StronglyTransitive"


#: Number of primitive cycles through a fixed vertex of the component,
#: as a class rather than a count.
LOOP_MULTIPLICITY = {
    ComponentClass.TRIVIAL: "Zero",
    ComponentClass.CYCLE: "One",
    ComponentClass.STRONGLY_TRANSITIVE: "Infinite",
}


@dataclass(frozen=True)
class Component:
    """One strongly connected component with its classification."""

    index: int
    vertices: tuple[str, ...]
    internal_edges: tuple[str, ...]
    component_class: ComponentClass

    @property
    def loop_multiplicity(self) -> str:
        return LOOP_MULTIPLICITY[self.component_class]

    @property
    def is_trivial(self) -> bool:
        return self.component_class is ComponentClass.TRIVIAL


@dataclass(frozen=True)
class Condensation:
    """SCC partition of a graph plus the acyclic quotient structure.

    ``components`` are ordered by first-declared member vertex.
    ``quotient_edges`` are the original edges whose endpoints lie in distinct
    components, in declaration order.  ``topological_order`` lists component
    indices so that every quotient edge points forward, and ``rank[i]`` is
    component ``i``'s position in it.  ``successors[i]`` is the sorted tuple
    of components that one quotient edge leads to from component ``i``;
    reachability is a search over it.
    """

    components: tuple[Component, ...]
    vertex_component: Mapping[str, int] = field(compare=False)
    quotient_edges: tuple[Edge, ...] = ()
    topological_order: tuple[int, ...] = field(default=(), repr=False, compare=False)
    successors: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)
    rank: tuple[int, ...] = field(default=(), repr=False, compare=False)

    def component_of(self, vertex: str) -> Component:
        try:
            return self.components[self.vertex_component[vertex]]
        except KeyError:
            raise PathError(f"unknown vertex {vertex!r}") from None

    def component_reaches(self, i: int, j: int) -> bool:
        """Reflexive reachability between component indices in the quotient;
        no component reaches an index outside ``range(len(components))``.
        Every quotient edge raises the rank, so the search skips components
        ranked past ``j``."""
        rank = self.rank
        if not (0 <= i < len(rank) and 0 <= j < len(rank)) or rank[i] > rank[j]:
            return False
        seen, todo = {i}, [i]
        while todo and j not in seen:
            for s in self.successors[todo.pop()]:
                if s not in seen and rank[s] <= rank[j]:
                    seen.add(s)
                    todo.append(s)
        return j in seen

    @property
    def crossing_edge_names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.quotient_edges)


@dataclass(frozen=True)
class PathDecomposition:
    """Factorization of a path into component-internal segments joined by
    crossing edges.

    ``segments[i]`` lies inside a single strongly connected component (or is
    a vertex), ``crossing[i]`` is the edge walked between ``segments[i]`` and
    ``segments[i+1]``; segments are listed in walking order, so there is
    always one more segment than crossing edge and the visited components are
    pairwise distinct.
    """

    segments: tuple[Path, ...]
    crossing: tuple[str, ...]


class DirectedGraph:
    """A finite directed multigraph with ordered, uniquely named parts.

    Vertex and edge declaration order is significant: it fixes basis orders,
    enumeration orders and tie-breaks throughout the package, and the order
    in which the constructor checks names, vertices first: the first empty or
    duplicate name or undeclared endpoint raises ``GraphParseError``.  A
    lookup by a name the graph does not have raises ``PathError``.  Instances
    are immutable, which lets ``condensation`` compute its result once.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.edges: tuple[Edge, ...] = tuple(Edge(n, s, t) for (n, s, t) in edges)
        self._condensation: Condensation | None = None

        # One pass in declaration order; the first bad name raises.
        self._vertex_index: dict[str, int] = {}
        self._out: dict[str, list[Edge]] = {}
        for i, v in enumerate(self.vertices):
            if not v:
                raise GraphParseError("empty vertex name")
            if self._vertex_index.setdefault(v, i) != i:
                raise GraphParseError(f"duplicate vertex {v!r}")
            self._out[v] = []
        self._edge_index: dict[str, int] = {}
        for i, e in enumerate(self.edges):
            if not e.name:
                raise GraphParseError("empty edge name")
            if self._edge_index.setdefault(e.name, i) != i:
                raise GraphParseError(f"duplicate edge {e.name!r}")
            out = self._out.get(e.source)
            if out is None or e.target not in self._out:
                missing = e.source if out is None else e.target
                raise GraphParseError(f"edge {e.name!r} references undeclared vertex {missing!r}")
            out.append(e)

    # -- basic lookups ----------------------------------------------------

    def vertex_index(self, v: str) -> int:
        try:
            return self._vertex_index[v]
        except KeyError:
            raise PathError(f"unknown vertex {v!r}") from None

    def edge(self, name: str) -> Edge:
        try:
            return self.edges[self._edge_index[name]]
        except KeyError:
            raise PathError(f"unknown edge {name!r}") from None

    def edge_index(self, name: str) -> int:
        try:
            return self._edge_index[name]
        except KeyError:
            raise PathError(f"unknown edge {name!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        try:
            return tuple(self._out[v])
        except KeyError:
            raise PathError(f"unknown vertex {v!r}") from None

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        self.vertex_index(v)
        return tuple(e for e in self.edges if e.target == v)

    def loops_at(self, v: str) -> tuple[Edge, ...]:
        try:
            return tuple(e for e in self._out[v] if e.target == v)
        except KeyError:
            raise PathError(f"unknown vertex {v!r}") from None

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._out[v])

    def sources(self) -> tuple[str, ...]:
        targets = {e.target for e in self.edges}
        return tuple(v for v in self.vertices if v not in targets)

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.vertices, self.edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DirectedGraph) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"DirectedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    # -- path construction --------------------------------------------------

    def vertex_path(self, v: str) -> Path:
        self.vertex_index(v)
        return Path(v, v, ())

    def edge_path(self, name: str) -> Path:
        e = self.edge(name)
        return Path(e.source, e.target, (name,))

    def path_from_traversal(self, edge_names: Sequence[str]) -> Path:
        """Build a path from edge names in walking order, validating that
        consecutive edges compose."""
        if not edge_names:
            raise PathError("a positive-length path needs at least one edge; "
                            "use vertex_path for length zero")
        walked = [self.edge(n) for n in edge_names]
        for a, b in zip(walked, walked[1:]):
            if a.target != b.source:
                raise PathError(
                    f"edges {a.name!r} and {b.name!r} do not compose: "
                    f"{a.name!r} ends at {a.target!r} but {b.name!r} starts at {b.source!r}"
                )
        return Path(walked[0].source, walked[-1].target, tuple(reversed(edge_names)))

    def validate_path(self, p: Path) -> Path:
        """Check a path against this graph; returns it unchanged."""
        if p.is_vertex:
            self.vertex_index(p.source)
            if p.source != p.target:
                raise PathError(f"vertex path with mismatched endpoints: {p!r}")
            return p
        rebuilt = self.path_from_traversal(p.traversal)
        if (rebuilt.source, rebuilt.target) != (p.source, p.target):
            raise PathError(f"path endpoints disagree with its edges: {p!r}")
        return p

    def path_sort_key(self, p: Path) -> tuple[int, tuple[int, ...]]:
        """Deterministic path order: by length, then lexicographically by
        edge declaration index in walking order.  Length-0 paths compare by
        vertex declaration index."""
        if p.is_vertex:
            return (0, (self.vertex_index(p.source),))
        try:
            return (p.length, tuple(self._edge_index[n] for n in p.traversal))
        except KeyError as exc:
            raise PathError(f"unknown edge {exc.args[0]!r}") from None

    # -- graph transforms ----------------------------------------------------

    def transpose(self) -> "DirectedGraph":
        """Reverse every edge; vertex/edge names and order are kept."""
        return DirectedGraph(self.vertices, [(e.name, e.target, e.source) for e in self.edges])

    def add_tails(self, depth: int) -> "DirectedGraph":
        """Append a length-``depth`` chain of fresh vertices to every sink,
        so that (for depth ≥ 1) only the chain tips remain sinks."""
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        taken_v = set(self.vertices)
        taken_e = {e.name for e in self.edges}
        vertices = list(self.vertices)
        edges = [(e.name, e.source, e.target) for e in self.edges]

        def fresh(base: str, taken: set[str]) -> str:
            name = base
            while name in taken:
                name += "_"
            taken.add(name)
            return name

        for sink in self.sinks():
            prev = sink
            for i in range(1, depth + 1):
                v = fresh(f"{sink}_t{i}", taken_v)
                e = fresh(f"{sink}_te{i}", taken_e)
                vertices.append(v)
                edges.append((e, prev, v))
                prev = v
        return DirectedGraph(vertices, edges)


# -- composition -------------------------------------------------------------


def compose(p: Path, q: Path) -> Path:
    """Product ``pq``: walk ``q`` first, then ``p``; defined when the target
    of ``q`` is the source of ``p``.  Vertex paths act as units."""
    if q.target != p.source:
        raise PathError(
            f"paths do not compose: second factor ends at {q.target!r}, "
            f"first factor starts at {p.source!r}"
        )
    return Path(q.source, p.target, p.edges + q.edges)


def power(u: Path, n: int) -> Path:
    """n-th power of a cycle (n ≥ 0; the 0-th power is the base vertex)."""
    if not u.is_cycle:
        raise PathError(f"cannot take powers of a non-cycle {u!r}")
    if n < 0:
        raise ValueError("exponent must be nonnegative")
    return Path(u.source, u.target, u.edges * n)


# -- text format -------------------------------------------------------------


def parse_graph(text: str) -> DirectedGraph:
    """Parse the line-oriented graph format.

    Lines are ``vertex <name>``, ``edge <name> <src> <dst>``, blank, or
    comments starting with ``#`` (trailing comments allowed).  Errors carry
    1-based line numbers.
    """
    vertices: list[str] = []
    edge_rows: list[tuple[int, str, str, str]] = []
    seen_v: dict[str, int] = {}
    seen_e: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex" and len(parts) == 2:
            name = parts[1]
            if name in seen_v:
                raise GraphParseError(
                    f"duplicate vertex {name!r} (first declared on line {seen_v[name]})",
                    line=lineno,
                )
            seen_v[name] = lineno
            vertices.append(name)
        elif parts[0] == "edge" and len(parts) == 4:
            name = parts[1]
            if name in seen_e:
                raise GraphParseError(
                    f"duplicate edge {name!r} (first declared on line {seen_e[name]})",
                    line=lineno,
                )
            seen_e[name] = lineno
            edge_rows.append((lineno, name, parts[2], parts[3]))
        else:
            raise GraphParseError(
                f"expected 'vertex <name>' or 'edge <name> <src> <dst>', got {line!r}",
                line=lineno,
            )
    for lineno, name, src, dst in edge_rows:
        for endpoint in (src, dst):
            if endpoint not in seen_v:
                raise GraphParseError(
                    f"edge {name!r} references undeclared vertex {endpoint!r}",
                    line=lineno,
                )
    return DirectedGraph(vertices, [(n, s, t) for (_, n, s, t) in edge_rows])


def format_graph(g: DirectedGraph) -> str:
    """Serialize a graph back to the text format (inverse of parse_graph)."""
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e.name} {e.source} {e.target}" for e in g.edges]
    return "\n".join(lines) + "\n"


def graph_to_json(g: DirectedGraph) -> dict:
    """JSON-ready structure: vertex list plus [name, source, target] edges."""
    return {
        "vertices": list(g.vertices),
        "edges": [[e.name, e.source, e.target] for e in g.edges],
    }


def graph_from_json(obj: object) -> DirectedGraph:
    """Inverse of graph_to_json; malformed input raises GraphParseError."""
    if not isinstance(obj, dict):
        raise GraphParseError("graph JSON must be an object")
    vertices = obj.get("vertices")
    edges = obj.get("edges")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphParseError("graph JSON needs a 'vertices' list of strings")
    if not isinstance(edges, list):
        raise GraphParseError("graph JSON needs an 'edges' list")
    triples = []
    for item in edges:
        if (
            not isinstance(item, list)
            or len(item) != 3
            or not all(isinstance(s, str) for s in item)
        ):
            raise GraphParseError(
                "each edge must be a [name, source, target] string triple"
            )
        triples.append(tuple(item))
    return DirectedGraph(vertices, triples)


# -- strongly connected structure ---------------------------------------------


def condensation(g: DirectedGraph) -> Condensation:
    """Strongly connected components, classified, with the acyclic quotient.

    Components are ordered by their first-declared vertex; the classification
    per component is Trivial (one vertex, no loop), Cycle (a single directed
    cycle), or StronglyTransitive (everything else).  Computed once per
    graph, in time linear in its size.
    """
    if g._condensation is not None:
        return g._condensation
    n = len(g.vertices)
    succ_of = [[g._vertex_index[e.target] for e in g._out[v]] for v in g.vertices]
    order = [0] * n          # discovery index, 0 = unvisited (we offset by 1)
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 1
    # Tarjan emits each component after every component it reaches, so
    # ``emitted`` is in reverse topological order.
    emitted: list[list[int]] = []

    # Tarjan, iterative.  Work items are (vertex, iterator over successors).
    for root in range(n):
        if order[root]:
            continue
        work: list[tuple[int, Iterator[int]]] = []
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work.append((root, iter(succ_of[root])))
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not order[w]:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ_of[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], order[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == order[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                emitted.append(members)

    # Deterministic order: by smallest declaration index of a member vertex.
    by_first = sorted(range(len(emitted)), key=lambda k: min(emitted[k]))
    comp_of_emitted = [0] * len(emitted)
    vertex_component: dict[str, int] = {}
    for ci, k in enumerate(by_first):
        comp_of_emitted[k] = ci
        for vi in emitted[k]:
            vertex_component[g.vertices[vi]] = ci

    internal: list[list[str]] = [[] for _ in emitted]
    succ: list[set[int]] = [set() for _ in emitted]
    crossing: list[Edge] = []
    for e in g.edges:
        cs = vertex_component[e.source]
        ct = vertex_component[e.target]
        if cs == ct:
            internal[cs].append(e.name)
        else:
            crossing.append(e)
            succ[cs].add(ct)

    components = []
    for ci, k in enumerate(by_first):
        verts = tuple(g.vertices[vi] for vi in sorted(emitted[k]))
        internal_edges = tuple(internal[ci])
        # In a nontrivial component every vertex has an internal in- and
        # out-edge, so it is a single cycle exactly when it has no others.
        if len(verts) == 1 and not internal_edges:
            cls = ComponentClass.TRIVIAL
        elif len(internal_edges) == len(verts):
            cls = ComponentClass.CYCLE
        else:
            cls = ComponentClass.STRONGLY_TRANSITIVE
        components.append(Component(ci, verts, internal_edges, cls))

    g._condensation = Condensation(
        components=tuple(components),
        vertex_component=MappingProxyType(vertex_component),
        quotient_edges=tuple(crossing),
        topological_order=tuple(reversed(comp_of_emitted)),
        successors=tuple(tuple(sorted(s)) for s in succ),
        rank=tuple(len(emitted) - 1 - k for k in by_first),
    )
    return g._condensation


def is_transitive_in_components(g: DirectedGraph) -> bool:
    """True when every edge has both endpoints in the same strongly connected
    component — equivalently, every edge lies on a cycle."""
    return not condensation(g).quotient_edges


def reaches(g: DirectedGraph, x: str, y: str) -> bool:
    """Reflexive reachability: is there a (possibly trivial) path x → y?"""
    cond = condensation(g)
    return cond.component_reaches(cond.component_of(x).index, cond.component_of(y).index)


# -- cycles --------------------------------------------------------------------


def primitive_root(u: Path) -> tuple[Path, int]:
    """Express a cycle as ``u = v**p`` with ``v`` primitive (not itself a
    nontrivial power); returns ``(v, p)`` with ``p`` maximal.

    Works on the edge word alone: the smallest period of the word under
    cyclic rotation is the primitive root's length.
    """
    if not u.is_cycle or u.length < 1:
        raise PreconditionError(f"primitive_root needs a cycle of length ≥ 1, got {u!r}")
    word = u.traversal
    k = len(word)
    for d in range(1, k + 1):
        if k % d:
            continue
        if all(word[i] == word[i % d] for i in range(k)):
            root = Path(u.source, u.target, tuple(reversed(word[:d])))
            return root, k // d
    raise AssertionError("unreachable: d = k always matches")


def _bfs_shortest_lex(g: DirectedGraph, start: str, goal: str) -> list[str] | None:
    """Shortest path ``start → goal`` as a traversal-order edge-name list,
    breaking ties lexicographically by edge declaration order; None when
    unreachable.  A trivial path (start == goal) is the empty list."""
    if start == goal:
        return []
    parent: dict[str, tuple[str, str]] = {}  # vertex -> (previous vertex, edge name)
    seen = {start}
    frontier = deque([start])
    while frontier:
        v = frontier.popleft()
        for e in g.out_edges(v):
            if e.target in seen:
                continue
            seen.add(e.target)
            parent[e.target] = (v, e.name)
            if e.target == goal:
                names: list[str] = []
                cur = goal
                while cur != start:
                    prev, name = parent[cur]
                    names.append(name)
                    cur = prev
                names.reverse()
                return names
            frontier.append(e.target)
    return None


def complete_to_cycle(g: DirectedGraph, w: Path) -> Path:
    """A shortest path ``v`` from the target of ``w`` back to its source, so
    that ``vw`` is a cycle; ties broken by edge declaration order.  Requires
    both endpoints in one strongly connected component."""
    g.validate_path(w)
    return _completion(g, w)


def _completion(g: DirectedGraph, w: Path) -> Path:
    """``complete_to_cycle`` of a path already checked against ``g``."""
    names = _bfs_shortest_lex(g, w.target, w.source)
    if names is None:
        raise PreconditionError(
            f"no completion to a cycle: {w.target!r} cannot reach {w.source!r} "
            "(endpoints lie in distinct strongly connected components)"
        )
    # The search walks edges out of each vertex it reaches, so they compose.
    return Path(w.target, w.source, tuple(reversed(names)))


def decompose_path(g: DirectedGraph, w: Path) -> PathDecomposition:
    """Factor ``w`` into maximal component-internal segments joined by
    component-crossing edges; segments in walking order, one more segment
    than crossing edge (vertex segments fill the gaps)."""
    g.validate_path(w)
    comp = condensation(g).vertex_component
    segments: list[Path] = []
    crossing: list[str] = []
    current: list[str] = []     # traversal-order edge names of the open segment
    seg_start = cursor = w.source
    # ``w`` has been checked, so its segments are paths of ``g`` as they stand.
    for name in w.traversal:
        e = g.edge(name)
        if comp[e.source] == comp[e.target]:
            current.append(name)
        else:
            segments.append(Path(seg_start, cursor, tuple(reversed(current))))
            crossing.append(name)
            current = []
            seg_start = e.target
        cursor = e.target
    segments.append(Path(seg_start, cursor, tuple(reversed(current))))
    return PathDecomposition(tuple(segments), tuple(crossing))


# -- enumeration -----------------------------------------------------------------


def _path_count(
    g: DirectedGraph, starts: Sequence[str], max_len: int, cap: int
) -> tuple[int, bool]:
    """The number of paths out of ``starts`` of length ≤ ``max_len``, and
    whether it is exact, by the recurrence n_{l+1}(y) = Σ n_l(s(e)) over the
    edges e into y, with n_0(y) the number of starts at y.  Past ``cap``²
    paths or ``cap`` levels (each holding a path) the count stops, as a lower
    bound that already passes ``cap``."""
    ends = [0] * len(g.vertices)
    for v in starts:
        ends[g.vertex_index(v)] += 1
    count, length = len(starts), 0
    arrows = [(g._vertex_index[e.source], g._vertex_index[e.target]) for e in g.edges]
    while length < min(max_len, cap) and any(ends) and count <= cap**2:
        grown = [0] * len(ends)
        for s, t in arrows:
            grown[t] += ends[s]
        ends = grown
        count += sum(ends)
        length += 1
    return count, not (length < max_len and any(ends))


def _levels(
    g: DirectedGraph,
    starts: Sequence[str],
    max_len: int,
    max_paths: int | None = None,
    setting: str = "",
) -> Iterator[list[Path]]:
    """Yield the paths out of ``starts`` (given in declaration order) grouped
    by length 0 … ``max_len``, each level in ``path_sort_key`` order, until a
    level is empty.  Level 0 is ``starts`` and level 1 the edges out of them
    in declaration order; each later level holds the children e·p of the
    level before, p by p, each p's out-edges e in declaration order.  The
    truncated left regular representation places its images by this order.
    Each level is counted before it is built, and ``LimitError`` is raised,
    naming the count and the ``setting`` that caps it, before the paths so
    far would pass ``max_paths``."""
    level: list[Path] = []
    produced = 0
    for length in range(max_len + 1):
        # Every path of the last level extends by each edge out of its end.
        size = sum(len(g._out[p.target]) for p in level) if length else len(starts)
        produced += size
        if max_paths is not None and produced > max_paths:
            raise LimitError(
                f"path enumeration to length {length} reaches {produced} paths, "
                f"over the cap of {max_paths} paths set by {setting}"
            )
        if not size:
            return
        if length == 0:
            level = [g.vertex_path(v) for v in starts]
        else:
            level = [
                Path(p.source, e.target, (e.name,) + p.edges)
                for p in level
                for e in g._out[p.target]
            ]
            if length == 1:
                # One-edge paths sort by edge index, whatever their start;
                # extending a sorted level edge by edge keeps it sorted.
                level.sort(key=g.path_sort_key)
        yield level


def enumerate_paths(
    g: DirectedGraph,
    source: str,
    target: str,
    max_len: int,
) -> list[Path]:
    """All paths ``source → target`` of length ≤ ``max_len``, ordered by
    length then lexicographically by edge declaration order.  The length-0
    vertex path is included when source == target.  Raises ``LimitError``
    past ``MAX_ENUM_LENGTH`` edges, or before enumerating when the paths out
    of ``source`` up to ``max_len`` number more than ``MAX_ENUM_PATHS``."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if max_len > MAX_ENUM_LENGTH:
        raise LimitError(
            f"max_len {max_len} exceeds the cap {MAX_ENUM_LENGTH} set by graphs.MAX_ENUM_LENGTH"
        )
    g.vertex_index(source)
    g.vertex_index(target)
    count, exact = _path_count(g, [source], max_len, MAX_ENUM_PATHS)
    if count > MAX_ENUM_PATHS:
        bound = "" if exact else "more than "
        raise LimitError(
            f"path enumeration from {source!r} to length {max_len} reaches {bound}"
            f"{count} paths, over the cap of {MAX_ENUM_PATHS} paths set by "
            "graphs.MAX_ENUM_PATHS"
        )
    out: list[Path] = []
    for level in _levels(g, [source], max_len):
        out.extend(p for p in level if p.target == target)
    return out


def enumerate_cycles_through(g: DirectedGraph, x: str, max_len: int) -> list[Path]:
    """All cycles of length 1..max_len based at ``x``, in enumeration order."""
    return [p for p in enumerate_paths(g, x, x, max_len) if p.length >= 1]


def all_cycles(g: DirectedGraph, max_len: int) -> list[Path]:
    """All based cycles of length 1..max_len, grouped by base vertex in
    declaration order.  Rotations of one geometric cycle are distinct paths
    and are all listed."""
    out: list[Path] = []
    for x in g.vertices:
        out.extend(enumerate_cycles_through(g, x, max_len))
    return out
