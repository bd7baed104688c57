"""The benchmark's three workloads: seeded inputs and the operation list.

A workload is a fixed list of operations.  Each operation is one public
graphnest call, or one in-process ``graphnest.cli.main([...])`` invocation,
paired with a check of its output (see ``checks.py``).  A pass runs the list
once against a fresh context: graphs and elements are parsed again by the
pass's own ``parse_graph`` and ``element_from_json`` operations, so nothing
the program builds carries over from one pass to the next.

The seed draws coefficients, unit-circle parameters, the order of edges
inside each walk, the positions of walks in large graphs and the make-up of
planted graphs.  It never changes the shape that sets an operation's cost:
walk lengths and letter counts, grid sizes, graph sizes and the number of
terms are fixed, so runs with different seeds measure the same work.
Letter counts of target walks are coprime, so every target's primitive root
has the same length whatever order the seed gives its letters.
"""

from __future__ import annotations

import cmath
import contextlib
import importlib
import io
import json
import math
import os

import graphnest as gn
import numpy as np

from checks import (
    PlantedGraph,
    classification_ok,
    coefficient_ok,
    fock_dimension_ok,
    purity_ok,
    relations_all_hold,
    row_norm_of,
    row_norm_ok,
    span_ok,
    witness_ok,
)

WORKLOADS = ("quadrature", "wide-graphs", "fock-dense")

RECOVER = {
    "irreducible": "recover_irreducible",
    "nest": "recover_nest",
    "upper": "recover_upper",
}


class Op:
    """One timed operation: ``run(ctx)`` returns a result, ``check(result)``
    says whether the result is correct.  Checks run outside the timing."""

    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class ElementSpec:
    """A generated element: terms ``(source, traversal, coefficient)``."""

    def __init__(self):
        self.terms: list[tuple[str, tuple[str, ...], complex]] = []
        self.paths: set[tuple[str, tuple[str, ...]]] = set()

    def add(self, rng, source, traversal):
        c = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        self.terms.append((source, tuple(traversal), c))
        self.paths.add((source, tuple(traversal)))

    def coefficient(self, source, traversal) -> complex:
        for s, t, c in self.terms:
            if s == source and t == tuple(traversal):
                return c
        return 0j

    def to_json(self) -> dict:
        out = []
        for s, t, c in self.terms:
            entry = {"coeff": [c.real, c.imag]}
            if t:
                entry["path"] = list(t)
            else:
                entry["vertex"] = s
            out.append(entry)
        return {"terms": out}


def run_cli(ctx, argv):
    """Run ``graphnest.cli.main`` in process with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = importlib.import_module("graphnest.cli").main(argv)
    text = buf.getvalue()
    ctx["stdout_bytes"] = ctx.get("stdout_bytes", 0) + len(text.encode("utf-8"))
    return code, text


def fresh(rng, spec: ElementSpec, make, tries=1000):
    """Draw walks from ``make(rng)`` until one is not yet in the support."""
    for _ in range(tries):
        source, traversal = make(rng)
        if (source, tuple(traversal)) not in spec.paths:
            return source, tuple(traversal)
    raise RuntimeError("no fresh walk of the requested shape")


def coprime_split(length: int) -> int:
    """Largest j ≤ length/2 with gcd(length − j, j) = 1 (j ≥ 1)."""
    for j in range(length // 2, 0, -1):
        if math.gcd(length - j, j) == 1:
            return j
    return 1


# -- shared operation builders ---------------------------------------------------


def parse_graph_op(key, planted: PlantedGraph):
    text = planted.text()
    vertices = tuple(planted.vertices)
    edges = [tuple(e) for e in planted.edges]

    def run(ctx):
        g = gn.parse_graph(text)
        ctx[key] = g
        return g

    def check(g):
        return g.vertices == vertices and [
            (e.name, e.source, e.target) for e in g.edges
        ] == edges

    return Op("parse_graph", run, check)


def parse_element_op(key, gkey, spec: ElementSpec):
    obj = spec.to_json()
    n = len(spec.terms)

    def run(ctx):
        a = gn.element_from_json(ctx[gkey], obj)
        ctx[key] = a
        return a

    return Op("element_from_json", run, lambda a: a.num_terms == n)


def recover_op(family, gkey, ekey, spec: ElementSpec, target):
    source, traversal = target
    expected = spec.coefficient(source, traversal)
    name = RECOVER[family]

    def run(ctx):
        g = ctx[gkey]
        w = g.path_from_traversal(traversal) if traversal else g.vertex_path(source)
        return getattr(gn, name)(g, ctx[ekey], w)

    return Op(name, run, lambda got: coefficient_ok(got, expected))


def separate_op(family, gkey, ekey, spec: ElementSpec):
    def run(ctx):
        return gn.separate(ctx[gkey], ctx[ekey], family)

    return Op("separate", run, lambda wit: witness_ok(wit, spec.terms))


# -- quadrature --------------------------------------------------------------------

P2 = PlantedGraph(["v"], [("a", "v", "v"), ("b", "v", "v")])
C3 = PlantedGraph(
    ["x1", "x2", "x3"], [("e1", "x1", "x2"), ("e2", "x2", "x3"), ("e3", "x3", "x1")]
)
C2L = PlantedGraph(
    ["x", "y"],
    [("e", "x", "y"), ("f", "y", "x"), ("lx", "x", "x"), ("ly", "y", "y")],
)
# the four-component chain of tests/fixtures/scc_chain.graph
SCC = PlantedGraph(
    ["v", "w", "z", "u"],
    [
        ("a", "v", "v"), ("b", "v", "v"), ("e", "v", "w"), ("c", "w", "w"),
        ("f", "w", "z"), ("h", "z", "u"), ("d", "u", "u"),
    ],
)


def shuffled(rng, letters):
    out = list(letters)
    rng.shuffle(out)
    return out


def p2_word(na, nb):
    return lambda rng: ("v", shuffled(rng, ["a"] * na + ["b"] * nb))


def c3_word(length, start=None):
    order = ["x1", "x2", "x3"]
    names = {"x1": "e1", "x2": "e2", "x3": "e3"}

    def make(rng):
        s = start if start is not None else rng.choice(order)
        i = order.index(s)
        return s, [names[order[(i + k) % 3]] for k in range(length)]

    return make


def c2l_word(crosses, nlx, nly):
    """Walk from x with ``crosses`` steps alternating e, f and the loops
    spread over the visits to x and to y."""

    def make(rng):
        visits = [["lx", "ly"][i % 2] for i in range(crosses + 1)]
        xs = [i for i, v in enumerate(visits) if v == "lx"]
        ys = [i for i, v in enumerate(visits) if v == "ly"]
        dwell = [0] * len(visits)
        for _ in range(nlx):
            dwell[rng.choice(xs)] += 1
        for _ in range(nly):
            dwell[rng.choice(ys)] += 1
        walk = []
        for i, loop in enumerate(visits):
            walk += [loop] * dwell[i]
            if i < crosses:
                walk.append("e" if loop == "lx" else "f")
        return "x", walk

    return make


def scc_cross_word(na, nb, nc):
    """Loops at v, the crossing e, then ``nc`` loops c at w."""
    return lambda rng: ("v", shuffled(rng, ["a"] * na + ["b"] * nb) + ["e"] + ["c"] * nc)


class Case:
    """One element of the quadrature series and what is asked of it.

    ``targets`` maps a family to ``(inside, shape)``: a walk of the support
    and a generator of walks of the same shape, used to draw a target
    outside the support.  ``extra`` lists further ``(family, walk)``
    recoveries of support walks.
    """

    def __init__(self, spec, targets, separate_families, extra=()):
        self.spec = spec
        self.targets = targets
        self.separate_families = separate_families
        self.extra = extra


def _p2_case(rng, d):
    spec = ElementSpec()
    spec.add(rng, "v", ["a"] if d % 2 else ["b"])
    for length in range(2, d + 1):
        j = coprime_split(length)
        for na, nb in ((length - j, j), (j, length - j)):
            spec.add(rng, *fresh(rng, spec, p2_word(na, nb)))
    j = coprime_split(d)
    inside = spec.terms[-2][:2]  # letter counts (d − j, j)
    families = ("irreducible", "nest", "upper")
    # At degree 5 the (2, 3) walk also goes through the triangular family: an
    # 81-point grid, which puts the 90th percentile inside a cost cluster.
    extra = (("upper", spec.terms[-1][:2]),) if d == 5 else ()
    return Case(spec, {f: (inside, p2_word(d - j, j)) for f in families}, families, extra)


def _c3_case(rng, d):
    spec = ElementSpec()
    spec.add(rng, *c3_word(1)(rng))
    for length in range(2, d + 1):
        for _ in range(2):
            spec.add(rng, *fresh(rng, spec, c3_word(length)))
    inside = spec.terms[-1][:2]
    families = ("irreducible", "nest")
    return Case(spec, {f: (inside, c3_word(d)) for f in families}, families)


def _c2l_case(rng, d):
    spec = ElementSpec()
    spec.add(rng, "x", ["lx"])
    spec.add(rng, *c2l_word(1, 1, 0)(rng))
    spec.add(rng, *c2l_word(2, 0, 0)(rng))
    for length in range(3, d + 1):
        spec.add(rng, *fresh(rng, spec, c2l_word(length - 2, 1, 1)))
        spec.add(rng, *fresh(rng, spec, c2l_word(2, length - 2, 0)))
    inside = spec.terms[-2][:2]  # d − 2 crossings, one loop at x, one at y
    families = ("irreducible", "nest", "upper")
    return Case(spec, {f: (inside, c2l_word(d - 2, 1, 1)) for f in families}, families)


def _scc_case(rng, d):
    spec = ElementSpec()
    spec.add(rng, "w", ["c"])
    spec.add(rng, "v", ["a", "e"])
    spec.add(rng, *p2_word(1, 1)(rng))
    for length in range(3, d + 1):
        j = coprime_split(length)
        spec.add(rng, *fresh(rng, spec, p2_word(length - j, j)))
        k = length - 2
        jk = coprime_split(k) if k >= 2 else 0
        spec.add(rng, *fresh(rng, spec, scc_cross_word(k - jk, jk, 1)))
    j = coprime_split(d)
    jk = coprime_split(d - 2)
    v_word = (spec.terms[-2][:2], p2_word(d - j, j))
    crossing = (spec.terms[-1][:2], scc_cross_word(d - 2 - jk, jk, 1))
    # irreducible recovery needs a target inside one component: the v-word
    return Case(
        spec,
        {"irreducible": v_word, "nest": crossing, "upper": crossing},
        ("nest", "upper"),
    )


# (name, graph, case builder, degrees, (family, vertex) pairs whose vertex
# path is also recovered from the first element; its coefficient is 0)
QUADRATURE_GRAPHS = (
    ("p2", P2, _p2_case, (3, 4, 5, 6, 7), (("irreducible", "v"),)),
    ("c3", C3, _c3_case, (4, 6, 8), (("nest", "x2"),)),
    ("c2l", C2L, _c2l_case, (4, 5, 6), (("irreducible", "x"), ("nest", "y"))),
    ("scc", SCC, _scc_case, (4, 5, 6), (("nest", "z"),)),
)


def quadrature(rng, workdir, tiny=False):
    """Coefficient recovery and separation on small graphs over a degree
    series; targets from the support and from outside it (coefficient 0)."""
    ops = []
    for gname, planted, make_case, degrees, vertex_targets in QUADRATURE_GRAPHS:
        gkey = f"g:{gname}"
        ops.append(parse_graph_op(gkey, planted))
        for d in degrees[:1] if tiny else degrees:
            case = make_case(rng, d)
            ekey = f"a:{gname}:{d}"
            ops.append(parse_element_op(ekey, gkey, case.spec))
            if d == degrees[0]:
                for family, vertex in vertex_targets:
                    ops.append(recover_op(family, gkey, ekey, case.spec, (vertex, ())))
            for family, (inside, shape) in case.targets.items():
                outside = fresh(rng, case.spec, shape)
                ops.append(recover_op(family, gkey, ekey, case.spec, inside))
                ops.append(recover_op(family, gkey, ekey, case.spec, outside))
            for family, walk in case.extra:
                ops.append(recover_op(family, gkey, ekey, case.spec, walk))
            for family in case.separate_families:
                ops.append(separate_op(family, gkey, ekey, case.spec))
    return ops


# -- wide-graphs ---------------------------------------------------------------------

# Planted component kinds: (kind, vertex count, class the program must report).
KIND_CLASS = {"L2": "StronglyTransitive", "L1": "Cycle", "B": "Trivial",
              "C": "Cycle", "X": "StronglyTransitive"}


def ladder(n: int) -> tuple[PlantedGraph, list[str]]:
    """Chain v0 → v1 → … of n vertices with loops a_i, b_i at each."""
    vertices = [f"v{i}" for i in range(n)]
    edges, spine = [], []
    for i in range(n):
        edges += [(f"a{i}", f"v{i}", f"v{i}"), (f"b{i}", f"v{i}", f"v{i}")]
        if i + 1 < n:
            edges.append((f"e{i}", f"v{i}", f"v{i + 1}"))
            spine.append(f"e{i}")
    comps = [((v,), "StronglyTransitive") for v in vertices]
    return PlantedGraph(vertices, edges, comps, spine), spine


def planted_dag(rng, kinds, extra, branch=False, crossing=True):
    """Strongly connected components of the given kinds, in a seeded order,
    declared one after another.  With ``crossing``, a spine edge joins
    vertex 0 of each component to vertex 0 of the next, and ``extra``
    forward edges join random members of earlier and later components.
    ``branch`` reroutes the spine around one position so that two
    neighbouring components become incomparable.

    Returns the graph and ``spine[i]``, the edge from component i to i + 1
    (None where the branch removed it).
    """
    kinds = list(kinds)
    rng.shuffle(kinds)
    vertices, internal, comps = [], [], []
    for i, (kind, size) in enumerate(kinds):
        vs = [f"c{i}v{j}" for j in range(size)]
        vertices += vs
        if kind == "L2":
            internal += [(f"c{i}a", vs[0], vs[0]), (f"c{i}b", vs[0], vs[0])]
        elif kind == "L1":
            internal.append((f"c{i}a", vs[0], vs[0]))
        elif kind in ("C", "X"):
            internal += [(f"c{i}e{j}", vs[j], vs[(j + 1) % size]) for j in range(size)]
            if kind == "X":
                internal.append((f"c{i}r", vs[1], vs[0]))
        comps.append((tuple(vs), KIND_CLASS[kind]))
    m = len(kinds)
    links: list[tuple[int, int, str, str]] = []  # (from comp, to comp, src, dst)
    spine: list[str | None] = [None] * (m - 1)
    cut = rng.randrange(2, m - 3) if branch else None
    if crossing:
        for i in range(m - 1):
            if branch and i in (cut, cut + 1):
                continue
            links.append((i, i + 1, comps[i][0][0], comps[i + 1][0][0]))
        if branch:
            links.append((cut - 1, cut + 1, comps[cut - 1][0][0], comps[cut + 1][0][0]))
            links.append((cut, cut + 2, comps[cut][0][0], comps[cut + 2][0][0]))
        for _ in range(extra):
            while True:
                i, j = sorted(rng.sample(range(m), 2))
                if not branch or (i, j) != (cut, cut + 1):
                    break
            links.append((i, j, rng.choice(comps[i][0]), rng.choice(comps[j][0])))
    rng.shuffle(links)
    cross_edges = []
    for k, (i, j, s, t) in enumerate(links):
        name = f"x{k}"
        cross_edges.append((name, s, t))
        if j == i + 1 and s == comps[i][0][0] and t == comps[j][0][0] and spine[i] is None:
            spine[i] = name
    planted = PlantedGraph(
        vertices, internal + cross_edges, comps, [e[0] for e in cross_edges]
    )
    return planted, spine


def dag_kinds(scale: int) -> list[tuple[str, int]]:
    """A fixed multiset of component kinds and sizes (the seed orders it)."""
    kinds = []
    for _ in range(scale):
        kinds += [("L2", 1), ("L1", 1), ("B", 1), ("C", 2), ("C", 4), ("C", 6),
                  ("X", 3), ("X", 5), ("X", 6)]
    return kinds


def walk_from(rng, planted: PlantedGraph, start: str, length: int):
    """Uniform random walk of the given length; None at a dead end."""
    walk, v = [], start
    for _ in range(length):
        if not planted.out[v]:
            return None
        name, v = rng.choice(planted.out[v])
        walk.append(name)
    return walk, v


def radical_element(rng, planted, terms, max_len, component_of):
    """Walks that cross at least one component, from stratified start
    components, so that no support path closes into a cycle."""
    spec = ElementSpec()
    m = len(planted.components)
    usable = m - max_len - 1
    for t in range(terms):
        length = 2 + t % (max_len - 1)
        ci = (t * usable) // terms + rng.randrange(max(1, usable // terms))
        for attempt in range(100 * m):
            # move on to the next component when one yields no fresh walk
            start = rng.choice(planted.components[(ci + attempt // 100) % m][0])
            got = walk_from(rng, planted, start, length)
            if got is None:
                continue
            walk, end = got
            if component_of[end] != component_of[start] and (start, tuple(walk)) not in spec.paths:
                spec.add(rng, start, walk)
                break
        else:
            raise RuntimeError("no fresh crossing walk in the planted graph")
    return spec


def in_radical(planted: PlantedGraph, spec: ElementSpec) -> bool:
    """The benchmark's own answer: no support path's end reaches its start."""
    target = {name: t for name, _, t in planted.edges}
    return all(
        s not in planted.reachable_from(target[walk[-1]] if walk else s)
        for s, walk, _ in spec.terms
    )


def classify_ops(gkey, path, planted, ordered):
    def lib(ctx):
        return gn.classify(ctx[gkey]).to_json()

    def via_cli(ctx):
        return run_cli(ctx, ["classify", path, "--json"])

    def cli_ok(result):
        code, text = result
        return code == 0 and classification_ok(json.loads(text)["report"], planted, ordered)

    def gens(ctx):
        return gn.radical_edge_generators(ctx[gkey])

    return [
        Op("classify", lib, lambda rep: classification_ok(rep, planted, ordered)),
        Op("cli.classify", via_cli, cli_ok),
        Op("radical_edge_generators", gens, lambda got: list(got) == planted.crossing),
    ]


def write_element(workdir, stem, spec: ElementSpec) -> str:
    path = os.path.join(workdir, f"{stem}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec.to_json(), fh)
    return path


def cli_radical_op(graph_path, workdir, name, planted, spec):
    """``radical --element --json`` on a radical element."""
    element_path = write_element(workdir, f"{name}-radical", spec)

    def run(ctx):
        return run_cli(ctx, ["radical", graph_path, "--element", element_path, "--json"])

    def check(result):
        code, text = result
        if code != 0:
            return False
        payload = json.loads(text)
        return (
            payload["generators"] == planted.crossing
            and payload["element_in_radical"] is True
        )

    return Op("cli.radical", run, check)


def radical_op(gkey, ekey, expected):
    def run(ctx):
        return gn.is_in_radical(ctx[gkey], ctx[ekey])

    return Op("is_in_radical", run, lambda got: got is expected)


def wide_graph_case(rng, name, planted, workdir, spine, recover):
    """Operations on one large graph; ``recover`` adds nest recovery and
    separation on short paths across two or three components."""
    gkey = f"g:{name}"
    path = os.path.join(workdir, f"{name}.graph")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(planted.text())
    ordered = planted.quotient_totally_ordered()
    component_of = {v: i for i, (vs, _) in enumerate(planted.components) for v in vs}
    ops = [parse_graph_op(gkey, planted)] + classify_ops(gkey, path, planted, ordered)

    elements = []
    if planted.crossing:
        elements += [(f"R{k}", radical_element(rng, planted, 40, 6, component_of))
                     for k in range(2)]
        closed = radical_element(rng, planted, 40, 6, component_of)
        loops = [(src, e) for e, src, dst in planted.edges if src == dst]
        loop_vertex, loop = loops[rng.randrange(len(loops))]
        # a closed walk longer than every other term, so it is checked last
        closed.add(rng, loop_vertex, [loop] * 8)
        elements.append(("N", closed))
    else:
        cyclic = [vs[0] for vs, cls in planted.components if cls != "Trivial"]
        for k in range(2):
            closed = ElementSpec()
            for t in range(40):
                start, length = cyclic[(t * len(cyclic)) // 40], 2 + t % 5
                closed.add(rng, *fresh(
                    rng, closed, lambda r: (start, walk_from(r, planted, start, length)[0])
                ))
            elements.append((f"N{k}", closed))
    for tag, spec in elements:
        ekey = f"a:{name}:{tag}"
        ops.append(parse_element_op(ekey, gkey, spec))
        ops.append(radical_op(gkey, ekey, in_radical(planted, spec)))
    if planted.crossing:
        tag, spec = elements[0]
        ops.append(cli_radical_op(path, workdir, name, planted, spec))

    if recover is not None:
        spec, targets = recover(rng, planted, spine)
        ekey = f"a:{name}:E"
        ops.append(parse_element_op(ekey, gkey, spec))
        for target in targets:
            ops.append(recover_op("nest", gkey, ekey, spec, target))
        ops.append(separate_op("nest", gkey, ekey, spec))
    return ops


def ladder_recovery(rng, planted, spine):
    """Short walks on the two-loop chain; the grid has one axis per loop
    block, so a target a_i e_i b_{i+1} samples a 3×3 grid at degree 3."""
    n = len(spine) + 1
    spec = ElementSpec()
    slots = list(range(0, n - 3, max(1, (n - 3) // 8)))[:8]
    rng.shuffle(slots)
    spec.add(rng, f"v{slots[0]}", [f"e{slots[0]}"])
    letters = {}
    for i in slots[1:]:
        first, second = letters[i] = rng.sample(["a", "b"], 2)
        spec.add(rng, f"v{i}", [f"{first}{i}", f"e{i}", f"{second}{i + 1}"])
        spec.add(rng, f"v{i}", [f"{first}{i}", f"{first}{i}", f"e{i}"])
    i = slots[1]
    first, second = letters[i]
    outside = (f"v{i}", (f"{second}{i}", f"e{i}", f"{first}{i + 1}"))
    return spec, [spec.terms[1][:2], outside]


def spine_recovery(rng, planted, spine):
    """Walks along spine edges, which join vertex 0 of neighbouring
    components, so every nest block is a vertex block and the grid is one
    point: the cost is the representation of the whole graph."""
    source = {name: s for name, s, _ in planted.edges}
    runs = [i for i in range(len(spine) - 1) if spine[i] and spine[i + 1]]
    picks = [runs[(k * len(runs)) // 9] for k in range(9)]
    spec = ElementSpec()
    for i in picks[:-1]:
        spec.add(rng, source[spine[i]], [spine[i], spine[i + 1]])
    spec.add(rng, source[spine[picks[0]]], [spine[picks[0]]])
    last = picks[-1]
    outside = (source[spine[last]], (spine[last], spine[last + 1]))
    return spec, [spec.terms[1][:2], outside]


def wide_graphs(rng, workdir, tiny=False):
    """Structural questions on graphs of a few hundred vertices."""
    scale = 2 if tiny else 10
    chain, chain_spine = ladder(20 if tiny else 150)
    ordered, ordered_spine = planted_dag(rng, dag_kinds(scale), 3 * scale)
    branched, branched_spine = planted_dag(rng, dag_kinds(scale), 3 * scale, branch=True)
    islands, _ = planted_dag(rng, dag_kinds(max(1, scale // 2)), 0, crossing=False)
    ops = []
    ops += wide_graph_case(rng, "ladder", chain, workdir, chain_spine, ladder_recovery)
    ops += wide_graph_case(rng, "ordered", ordered, workdir, ordered_spine, spine_recovery)
    ops += wide_graph_case(rng, "branched", branched, workdir, branched_spine, spine_recovery)
    ops += wide_graph_case(rng, "islands", islands, workdir, None, None)
    return ops


# -- fock-dense ------------------------------------------------------------------------


def unit(rng) -> tuple[float, complex]:
    """A random point of the unit circle, with its fraction of a turn."""
    t = rng.random()
    return t, cmath.exp(2j * cmath.pi * t)


def fock_ops(gkey, planted, depth):
    """Build the truncated Fock representation, check the relations on its
    interior, and ask whether it is coisometric (it is not: no edge maps
    onto a vacuum vector)."""
    key = f"fock:{gkey}:{depth}"

    def build(ctx):
        rep = gn.truncated_left_regular(ctx[gkey], depth)
        ctx[key] = rep
        return rep

    def relations(ctx):
        rep = ctx[key]
        interior = rep.fock_basis.indices_of_length_at_most(depth - 1)
        return gn.check_relations(rep, restrict_interior=interior).verdicts

    def coisometric(ctx):
        return gn.is_coisometric(ctx[key])

    return [
        Op("truncated_left_regular", build,
           lambda rep: fock_dimension_ok(rep.dimension, planted, depth)),
        Op("check_relations", relations, relations_all_hold),
        Op("is_coisometric", coisometric, lambda got: got is False),
    ]


def cycle_ops(rng, gkey, planted, traversal, depth):
    """A cycle representation: its row norm, generated algebra and purity
    defect at ``depth``."""
    k = len(traversal)
    _, lam = unit(rng)
    key = f"phi:{gkey}:{'.'.join(traversal)}"

    def build(ctx):
        g = ctx[gkey]
        rep = gn.phi_cycle(g, g.path_from_traversal(traversal), lam)
        ctx[key] = rep
        return rep

    def built_ok(rep):
        return rep.dimension == k and row_norm_ok(row_norm_of(rep.edge_images.values()))

    def row_norm(ctx):
        return gn.row_operator_norm(list(ctx[key].edge_images.values()))

    def span(ctx):
        rep = ctx[key]
        gens = list(rep.vertex_images.values()) + list(rep.edge_images.values())
        return gn.span_closure_dim(gens, rep.dimension)[0]

    def purity(ctx):
        return gn.purity_defect(ctx[key], depth)

    return [
        Op("phi_cycle", build, built_ok),
        Op("row_operator_norm", row_norm, row_norm_ok),
        Op("span_closure_dim", span, lambda dim: span_ok(dim, k)),
        Op("purity_defect", purity, lambda value: purity_ok(value, depth)),
    ]


def cli_rep_ops(rng, graph_path, planted, fock_depths, cycles):
    """``rep fock --json`` and ``rep phi --json`` through the CLI."""
    ops = []
    for depth in fock_depths:
        def fock(ctx, depth=depth):
            return run_cli(ctx, ["rep", graph_path, "fock", "--depth", str(depth), "--json"])

        def fock_ok(result, depth=depth):
            code, text = result
            payload = json.loads(text)
            return (
                code == 0
                and fock_dimension_ok(payload["representation"]["dimension"], planted, depth)
                and len(payload["representation"]["edge_images"]) == len(planted.edges)
            )

        ops.append(Op("cli.rep_fock", fock, fock_ok))
    for traversal in cycles:
        turn, _ = unit(rng)

        def phi(ctx, traversal=traversal, turn=turn):
            return run_cli(ctx, ["rep", graph_path, "phi", "--cycle", ",".join(traversal),
                                 "--lambda-arg", repr(turn), "--json"])

        def phi_ok(result, k=len(traversal)):
            code, text = result
            rep = json.loads(text)["representation"]
            images = [
                np_matrix(m) for m in rep["edge_images"].values()
            ]
            return code == 0 and rep["dimension"] == k and row_norm_ok(row_norm_of(images))

        ops.append(Op("cli.rep_phi", phi, phi_ok))
    return ops


def np_matrix(obj):
    flat = np.array([complex(re, im) for re, im in obj["entries"]], dtype=complex)
    return flat.reshape(obj["rows"], obj["cols"])


def coisometry_ops():
    """The scalar representation of the two-loop vertex with both loops
    acting by 1/√2 is coisometric: |1/√2|² + |1/√2|² = 1."""
    s = np.array([[2 ** -0.5 + 0j]])

    def build(ctx):
        rep = gn.FiniteRepresentation(
            ctx["g:p2"], 1, {"v": np.eye(1, dtype=complex)}, {"a": s, "b": s}
        )
        ctx["coisometric"] = rep
        return rep

    def ask(ctx):
        return gn.is_coisometric(ctx["coisometric"])

    return [
        Op("FiniteRepresentation", build, lambda rep: rep.dimension == 1),
        Op("is_coisometric", ask, lambda got: got is True),
    ]


def fock_dense(rng, workdir, tiny=False):
    """Dense linear algebra on the representations users inspect."""
    p2_depths = (3, 4) if tiny else (6, 7, 8)
    c2l_depths = (2, 3) if tiny else (4, 5)
    ops = [parse_graph_op("g:p2", P2), parse_graph_op("g:c2l", C2L)]
    for depth in p2_depths:
        ops += fock_ops("g:p2", P2, depth)
    for depth in c2l_depths:
        ops += fock_ops("g:c2l", C2L, depth)
    # The rounds span_closure_dim needs depend on the cycle word, so these
    # words are fixed; the seed draws their unit-circle parameters.
    lengths = (2, 3) if tiny else (3, 4, 5, 6, 7, 8)
    for k in lengths:
        j = coprime_split(k)
        word = ["a"] * (k - j) + ["b"] * j
        ops += cycle_ops(rng, "g:p2", P2, word, depth=2 + 2 * k)
    c2l_cycles = (["lx", "e", "f"], ["lx", "e", "ly", "f"])
    for word in c2l_cycles[:1] if tiny else c2l_cycles:
        ops += cycle_ops(rng, "g:c2l", C2L, word, depth=2 + 2 * len(word))
    ops += coisometry_ops()
    graph_path = os.path.join(workdir, "p2.graph")
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(P2.text())
    cycles = [p2_word(k - coprime_split(k), coprime_split(k))(rng)[1] for k in (3, 5)]
    ops += cli_rep_ops(rng, graph_path, P2, (3,) if tiny else (4, 5), cycles)
    return ops
