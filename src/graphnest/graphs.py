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

    ``condensation`` also keeps its int core: ``_component[v]`` is the
    component of vertex id ``v``, ``_members[i]``, ``_internal[i]`` and
    ``_classes[i]`` are component ``i``'s vertex ids in declaration order,
    its internal edge ids and its class, and ``_popped`` lists the vertex
    ids in the order Tarjan's stack gave them up.  It leaves ``components``
    and ``vertex_component`` out, and the first read of each builds it from
    that core.
    """

    components: tuple[Component, ...]
    vertex_component: Mapping[str, int] = field(compare=False)
    quotient_edges: tuple[Edge, ...] = ()
    topological_order: tuple[int, ...] = field(default=(), repr=False, compare=False)
    successors: tuple[tuple[int, ...], ...] = field(default=(), repr=False, compare=False)
    rank: tuple[int, ...] = field(default=(), repr=False, compare=False)

    def __getattr__(self, name: str):
        # Reached only for attributes not set: ``condensation`` leaves out
        # ``components`` and ``vertex_component``, and the first read builds
        # one from the int core and keeps it, as ``cached_property`` does.
        core = self.__dict__
        if name not in ("components", "vertex_component") or "_members" not in core:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        vertices, component = core["_vertices"], core["_component"]
        if name == "components":
            edges = core["_edges"]
            value = tuple(
                Component(i, tuple(map(vertices.__getitem__, members)),
                          tuple(edges[e].name for e in internal), cls)
                for i, (members, internal, cls) in enumerate(
                    zip(core["_members"], core["_internal"], core["_classes"])
                )
            )
        else:
            # By component, and within one in the order Tarjan's stack
            # gave them up, which a stable sort of that order keeps.
            popped = sorted(core["_popped"], key=component.__getitem__)
            value = MappingProxyType({vertices[v]: component[v] for v in popped})
        core[name] = value
        return value

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

    Inside, a vertex or an edge is its declaration index.  Once the names
    have passed the constructor's checks (or ``parse_graph``'s), ``_index``
    fills ``_src[i]`` and ``_dst[i]``, the endpoint ids of edge ``i``, and
    ``_out[v]``, the ids of the edges out of vertex ``v`` in declaration
    order; ``_vertex_index`` and ``_edge_index`` map names to ids.
    ``condensation``, ``classify`` and the path checks work over these ints,
    and names and ``Edge`` objects appear only at the public boundary.
    ``edges`` is built with the rest, not on first read.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str, str]]):
        self.vertices: tuple[str, ...] = tuple(vertices)
        rows = [(n, s, t) for (n, s, t) in edges]

        # One pass in declaration order; the first bad name raises.
        vertex_index: dict[str, int] = {}
        for i, v in enumerate(self.vertices):
            if not v:
                raise GraphParseError("empty vertex name")
            if vertex_index.setdefault(v, i) != i:
                raise GraphParseError(f"duplicate vertex {v!r}")
        edge_index: dict[str, int] = {}
        for i, (n, s, t) in enumerate(rows):
            if not n:
                raise GraphParseError("empty edge name")
            if edge_index.setdefault(n, i) != i:
                raise GraphParseError(f"duplicate edge {n!r}")
            if s not in vertex_index or t not in vertex_index:
                missing = t if s in vertex_index else s
                raise GraphParseError(f"edge {n!r} references undeclared vertex {missing!r}")
        names, sources, targets = zip(*rows) if rows else ((), (), ())
        self._index(vertex_index, edge_index, names, sources, targets)

    def _index(
        self,
        vertex_index: dict[str, int],
        edge_index: dict[str, int],
        names: Sequence[str],
        sources: Sequence[str],
        targets: Sequence[str],
    ) -> None:
        """Set the int core and ``edges`` from checked names: ``self.vertices``
        and the name-to-id maps are whole, and every endpoint is declared."""
        self._vertex_index = vertex_index
        self._edge_index = edge_index
        self._src = src = list(map(vertex_index.__getitem__, sources))
        self._dst = list(map(vertex_index.__getitem__, targets))
        self._out = out = [[] for _ in self.vertices]
        for i, s in enumerate(src):
            out[s].append(i)
        self.edges = tuple(map(Edge, names, sources, targets))
        self._condensation: Condensation | None = None

    # -- basic lookups ----------------------------------------------------

    def vertex_index(self, v: str) -> int:
        try:
            return self._vertex_index[v]
        except KeyError:
            raise PathError(f"unknown vertex {v!r}") from None

    def edge(self, name: str) -> Edge:
        return self.edges[self.edge_index(name)]

    def edge_index(self, name: str) -> int:
        try:
            return self._edge_index[name]
        except KeyError:
            raise PathError(f"unknown edge {name!r}") from None

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return tuple(map(self.edges.__getitem__, self._out[self.vertex_index(v)]))

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        vi = self.vertex_index(v)
        return tuple(e for e, t in zip(self.edges, self._dst) if t == vi)

    def loops_at(self, v: str) -> tuple[Edge, ...]:
        vi = self.vertex_index(v)
        return tuple(self.edges[i] for i in self._out[vi] if self._dst[i] == vi)

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v, out in zip(self.vertices, self._out) if not out)

    def sources(self) -> tuple[str, ...]:
        targets = set(self._dst)
        return tuple(v for i, v in enumerate(self.vertices) if i not in targets)

    # -- identity ----------------------------------------------------------

    def _key(self):
        return (self.vertices, self.edges)

    def __eq__(self, other: object) -> bool:
        return other is self or (isinstance(other, DirectedGraph) and self._key() == other._key())

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
        first, last = self._walk(edge_names)
        return Path(self.vertices[first], self.vertices[last], tuple(reversed(edge_names)))

    def _walk(self, edge_names: Iterable[str]) -> tuple[int, int]:
        """Source and target ids of a nonempty walk given by edge names in
        walking order; an unknown name or a gap raises ``PathError``."""
        try:
            ids = list(map(self._edge_index.__getitem__, edge_names))
        except KeyError as exc:
            raise PathError(f"unknown edge {exc.args[0]!r}") from None
        src, dst = self._src, self._dst
        for a, b in zip(ids, ids[1:]):
            if dst[a] != src[b]:
                a, b = self.edges[a], self.edges[b]
                raise PathError(
                    f"edges {a.name!r} and {b.name!r} do not compose: "
                    f"{a.name!r} ends at {a.target!r} but {b.name!r} starts at {b.source!r}"
                )
        return src[ids[0]], dst[ids[-1]]

    def validate_path(self, p: Path) -> Path:
        """Check a path against this graph; returns it unchanged."""
        if p.is_vertex:
            self.vertex_index(p.source)
            if p.source != p.target:
                raise PathError(f"vertex path with mismatched endpoints: {p!r}")
            return p
        first, last = self._walk(reversed(p.edges))
        if (self.vertices[first], self.vertices[last]) != (p.source, p.target):
            raise PathError(f"path endpoints disagree with its edges: {p!r}")
        return p

    def path_sort_key(self, p: Path) -> tuple[int, tuple[int, ...]]:
        """Deterministic path order: by length, then lexicographically by
        edge declaration index in walking order.  Length-0 paths compare by
        vertex declaration index."""
        if p.is_vertex:
            return (0, (self.vertex_index(p.source),))
        try:
            return (len(p.edges), tuple(map(self._edge_index.__getitem__, reversed(p.edges))))
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
    lines = text.splitlines()
    vertices: list[str] = []
    vertex_index: dict[str, int] = {}
    names: list[str] = []
    sources: list[str] = []
    targets: list[str] = []
    edge_index: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        parts = raw.split()
        if len(parts) == 4 and parts[0] == "edge":
            _, name, src, dst = parts
            if edge_index.setdefault(name, len(names)) != len(names):
                first = _declaring_line(lines, parts)
                raise GraphParseError(
                    f"duplicate edge {name!r} (first declared on line {first})", line=lineno
                )
            names.append(name)
            sources.append(src)
            targets.append(dst)
        elif len(parts) == 2 and parts[0] == "vertex":
            name = parts[1]
            if vertex_index.setdefault(name, len(vertices)) != len(vertices):
                first = _declaring_line(lines, parts)
                raise GraphParseError(
                    f"duplicate vertex {name!r} (first declared on line {first})", line=lineno
                )
            vertices.append(name)
        elif parts:
            raise GraphParseError(
                f"expected 'vertex <name>' or 'edge <name> <src> <dst>', got {raw.strip()!r}",
                line=lineno,
            )
    for name, src, dst in zip(names, sources, targets):
        for endpoint in (src, dst):
            if endpoint not in vertex_index:
                raise GraphParseError(
                    f"edge {name!r} references undeclared vertex {endpoint!r}",
                    line=_declaring_line(lines, ["edge", name, src, dst]),
                )
    # The checks above are the constructor's, with line numbers.  The lines
    # go before the edges are built, which keeps the peak memory down.
    del lines
    g = DirectedGraph.__new__(DirectedGraph)
    g.vertices = tuple(vertices)
    g._index(vertex_index, edge_index, names, sources, targets)
    return g


def _declaring_line(lines: list[str], parts: list[str]) -> int:
    """The number of the first line that declares the vertex or edge of
    ``parts`` (its words), for error messages; line numbers are kept only
    here, so a graph's build stores none."""
    kind, name = parts[:2]
    return next(
        lineno
        for lineno, raw in enumerate(lines, start=1)
        if len(words := raw.partition("#")[0].split()) == len(parts) and words[:2] == [kind, name]
    )


def format_graph(g: DirectedGraph) -> str:
    """Serialize a graph back to the text format (inverse of parse_graph).

    The format splits lines on whitespace and cuts them at ``#``, so a name
    holding either cannot be written; the first such name, vertices before
    edges, raises ``GraphParseError``."""
    for kind, names in (("vertex", g.vertices), ("edge", [e.name for e in g.edges])):
        for name in names:
            if "#" in name or name.split() != [name]:
                raise GraphParseError(
                    f"{kind} name {name!r} holds whitespace or '#', "
                    "which the graph text format cannot carry"
                )
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
    graph, in time linear in its size: Tarjan's search over the graph's
    vertex and edge ids, one pass over the vertices in declaration order that
    numbers the components, and one pass over the edges that splits them into
    internal and quotient edges.  No ``sorted`` or ``min`` orders the
    components, and no name is looked up.  The result keeps that int core,
    which ``classify`` reads, and builds ``components`` and
    ``vertex_component`` when first read.
    """
    if g._condensation is not None:
        return g._condensation
    n = len(g.vertices)
    out, src, dst = g._out, g._src, g._dst
    order = [0] * n          # discovery number, 0 = unvisited
    low = [0] * n
    # Tarjan's id of each vertex's component, -1 until it is emitted: a
    # visited vertex is on the stack exactly while its id is -1.  Tarjan
    # emits each component after every component it reaches, so these ids
    # run in reverse topological order.
    emitted = [-1] * n
    count = 0
    stack: list[int] = []
    popped: list[int] = []
    counter = 1

    # Tarjan, iterative.  Work items are (vertex, iterator over out-edge ids).
    for root in range(n):
        if order[root]:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work: list[tuple[int, Iterator[int]]] = [(root, iter(out[root]))]
        while work:
            v, it = work[-1]
            for e in it:
                w = dst[e]
                if not order[w]:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(out[w])))
                    break
                if emitted[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        emitted[w] = count
                        popped.append(w)
                        if w == v:
                            break
                    count += 1

    # Number the components by first-declared member: a vertex whose
    # component has no number yet opens the next one.
    number = [-1] * count
    component = emitted  # renumbered in place, each entry after its last read
    members: list[list[int]] = []
    for v in range(n):
        k = emitted[v]
        i = number[k]
        if i < 0:
            i = number[k] = len(members)
            members.append([v])
        else:
            members[i].append(v)
        component[v] = i

    internal: list[list[int]] = [[] for _ in members]
    succ: list[set[int]] = [set() for _ in members]
    crossing: list[int] = []
    for e, (s, t) in enumerate(zip(src, dst)):
        cs = component[s]
        ct = component[t]
        if cs == ct:
            internal[cs].append(e)
        else:
            crossing.append(e)
            succ[cs].add(ct)

    # In a nontrivial component every vertex has an internal in- and
    # out-edge, so it is a single cycle exactly when it has no others.
    classes = [
        ComponentClass.TRIVIAL if len(vs) == 1 and not es
        else ComponentClass.CYCLE if len(es) == len(vs)
        else ComponentClass.STRONGLY_TRANSITIVE
        for vs, es in zip(members, internal)
    ]
    topological_order = number[::-1]
    rank = [0] * count
    for r, i in enumerate(topological_order):
        rank[i] = r

    cond = object.__new__(Condensation)
    cond.__dict__.update(
        quotient_edges=tuple(map(g.edges.__getitem__, crossing)),
        topological_order=tuple(topological_order),
        successors=tuple([tuple(sorted(s)) if s else () for s in succ]),
        rank=tuple(rank),
        _vertices=g.vertices,
        _edges=g.edges,
        _component=component,
        _popped=popped,
        _members=members,
        _internal=internal,
        _classes=classes,
    )
    g._condensation = cond
    return cond


def is_transitive_in_components(g: DirectedGraph) -> bool:
    """True when every edge has both endpoints in the same strongly connected
    component — equivalently, every edge lies on a cycle."""
    return not condensation(g).quotient_edges


def reaches(g: DirectedGraph, x: str, y: str) -> bool:
    """Reflexive reachability: is there a (possibly trivial) path x → y?"""
    cond = condensation(g)
    comp = cond._component
    return cond.component_reaches(comp[g.vertex_index(x)], comp[g.vertex_index(y)])


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
    src, dst, out = g._src, g._dst, g._out
    goal_id = g._vertex_index.get(goal)
    begin = g.vertex_index(start)
    into = {begin: -1}  # vertex id -> id of the edge the search entered it by
    frontier = deque([begin])
    while frontier:
        for e in out[frontier.popleft()]:
            w = dst[e]
            if w in into:
                continue
            into[w] = e
            if w == goal_id:
                walked: list[str] = []
                while w != begin:
                    e = into[w]
                    walked.append(g.edges[e].name)
                    w = src[e]
                walked.reverse()
                return walked
            frontier.append(w)
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
    comp = condensation(g)._component
    src, dst, index, vertices = g._src, g._dst, g._edge_index, g.vertices
    segments: list[Path] = []
    crossing: list[str] = []
    current: list[str] = []     # traversal-order edge names of the open segment
    seg_start = cursor = g._vertex_index[w.source]
    # ``w`` has been checked, so its segments are paths of ``g`` as they stand.
    for name in w.traversal:
        e = index[name]
        if comp[src[e]] == comp[dst[e]]:
            current.append(name)
        else:
            segments.append(Path(vertices[seg_start], vertices[cursor], tuple(reversed(current))))
            crossing.append(name)
            current = []
            seg_start = dst[e]
        cursor = dst[e]
    segments.append(Path(vertices[seg_start], vertices[cursor], tuple(reversed(current))))
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
    arrows = list(zip(g._src, g._dst))
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
    # The edges out of each vertex, by name: each path meets its end by name.
    out = {v: [g.edges[e] for e in ids] for v, ids in zip(g.vertices, g._out)}
    level: list[Path] = []
    produced = 0
    for length in range(max_len + 1):
        # Every path of the last level extends by each edge out of its end.
        size = sum(len(out[p.target]) for p in level) if length else len(starts)
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
                for e in out[p.target]
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
