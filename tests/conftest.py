"""Shared graph corpus and seeded random generators for the test suite."""

import pytest

import graphnest as gn

GRAPH_TEXTS = {
    # single vertex, one loop
    "loop1": "vertex x\nedge e x x\n",
    # single vertex, two loops
    "p2": "vertex v\nedge a v v\nedge b v v\n",
    # plain cycles
    "c2": "vertex x\nvertex y\nedge e x y\nedge f y x\n",
    "c3": (
        "vertex x1\nvertex x2\nvertex x3\n"
        "edge e1 x1 x2\nedge e2 x2 x3\nedge e3 x3 x1\n"
    ),
    "c6": (
        "vertex x1\nvertex x2\nvertex x3\nvertex x4\nvertex x5\nvertex x6\n"
        "edge e1 x1 x2\nedge e2 x2 x3\nedge e3 x3 x4\n"
        "edge e4 x4 x5\nedge e5 x5 x6\nedge e6 x6 x1\n"
    ),
    # 2-cycle with one loop
    "c2_loop": "vertex x\nvertex y\nedge l x x\nedge e x y\nedge f y x\n",
    # 3-cycle with a reverse chord
    "triangle_chord": (
        "vertex x1\nvertex x2\nvertex x3\n"
        "edge e1 x1 x2\nedge e2 x2 x3\nedge e3 x3 x1\nedge c x2 x1\n"
    ),
    # parallel edges one way, single edge back
    "parallel_pair": "vertex x\nvertex y\nedge e1 x y\nedge e2 x y\nedge f y x\n",
    # acyclic two-vertex chain
    "chain2": "vertex A\nvertex B\nedge t A B\n",
    # 2-cycle with a loop at each vertex
    "c2_loops_both": (
        "vertex x\nvertex y\n"
        "edge e x y\nedge f y x\nedge lx x x\nedge ly y y\n"
    ),
    # acyclic three-vertex chain
    "chain3": "vertex A\nvertex B\nvertex C\nedge t1 A B\nedge t2 B C\n",
    # two disconnected two-loop vertices
    "disjoint_pair": (
        "vertex u\nvertex w\n"
        "edge a1 u u\nedge a2 u u\nedge b1 w w\nedge b2 w w\n"
    ),
    # two-loop vertex feeding a two-vertex chain through one edge
    "case_three": (
        "vertex v\nvertex x2\nvertex x1\n"
        "edge a v v\nedge b v v\nedge g v x2\nedge e1 x2 x1\n"
    ),
    # two parallel edges between two otherwise bare vertices
    "parallel_chain": "vertex A\nvertex B\nedge e1 A B\nedge e2 A B\n",
    # chain of components: two-loop vertex -> one-loop vertex -> bare -> one-loop
    "scc_chain": (
        "vertex v\nvertex w\nvertex z\nvertex u\n"
        "edge a v v\nedge b v v\nedge e v w\nedge c w w\n"
        "edge f w z\nedge h z u\nedge d u u\n"
    ),
    # 3-cycle left mid-turn through a crossing edge to a one-loop vertex
    "cycle_exit": (
        "vertex x1\nvertex x2\nvertex x3\nvertex y\n"
        "edge e1 x1 x2\nedge e2 x2 x3\nedge e3 x3 x1\nedge t x2 y\nedge l y y\n"
    ),
}

# graphs whose cycles feed the cycle-representation checks
CYCLE_CORPUS = (
    "loop1", "p2", "c2", "c3", "c6",
    "c2_loop", "triangle_chord", "parallel_pair", "chain2", "c2_loops_both",
)

# the hand-classified graphs for the structural report checks
CLASSIFY_FIXTURES = (
    "p2", "c3", "chain3", "c2", "c2_loops_both",
    "disjoint_pair", "case_three", "parallel_chain",
)


def make_graph(name):
    return gn.parse_graph(GRAPH_TEXTS[name])


@pytest.fixture
def p2():
    return make_graph("p2")


@pytest.fixture
def c2():
    return make_graph("c2")


@pytest.fixture
def c3():
    return make_graph("c3")


@pytest.fixture
def chain3():
    return make_graph("chain3")


@pytest.fixture
def scc_chain():
    return make_graph("scc_chain")


def random_walk(rng, g, max_len, avoid=None):
    """Random path of length ≤ max_len; stops early at dead ends.

    ``avoid`` maps vertex -> edge name never taken from that vertex.
    """
    start = rng.choice(list(g.vertices))
    current = start
    names = []
    for _ in range(rng.randint(0, max_len)):
        outs = [
            e for e in g.out_edges(current)
            if avoid is None or avoid.get(current) != e.name
        ]
        if not outs:
            break
        e = rng.choice(outs)
        names.append(e.name)
        current = e.target
    if names:
        return g.path_from_traversal(names)
    return g.vertex_path(start)


def random_nonzero_element(rng, g, max_terms=15, max_degree=5):
    """Random formal element with bounded support and degree."""
    while True:
        items = [
            (random_walk(rng, g, max_degree),
             complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
            for _ in range(rng.randint(1, max_terms))
        ]
        a = gn.FormalElement(g, items)
        if not a.is_zero:
            return a


def random_graph(rng, max_vertices=8, max_edges=16):
    nv = rng.randint(1, max_vertices)
    lines = [f"vertex v{i}" for i in range(nv)]
    for j in range(rng.randint(0, max_edges)):
        lines.append(f"edge e{j} v{rng.randrange(nv)} v{rng.randrange(nv)}")
    return gn.parse_graph("\n".join(lines) + "\n")


def two_loop_chain_text(n):
    """Vertices v0 … v(n-1), each with loops a_i and b_i, joined by e_i."""
    lines = [f"vertex v{i}" for i in range(n)]
    for i in range(n):
        lines += [f"edge a{i} v{i} v{i}", f"edge b{i} v{i} v{i}"]
    lines += [f"edge e{i} v{i} v{i + 1}" for i in range(n - 1)]
    return "\n".join(lines) + "\n"


def loop_walk(n):
    """The walk a0 e0 a1 … e(n-2) a(n-1) on ``two_loop_chain_text(n)``:
    one wrap in each of its n nest blocks."""
    return ["a0"] + [name for i in range(n - 1) for name in (f"e{i}", f"a{i + 1}")]
