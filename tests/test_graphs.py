"""Graph parsing, path arithmetic, and condensation structure."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import graphnest as gn
from conftest import GRAPH_TEXTS, make_graph, random_graph, random_walk
from exact_oracle import bfs_reachable, parse_graph_by_lines


# -- parsing and serialization ----------------------------------------------------


def test_parse_round_trip_through_format():
    for name, text in GRAPH_TEXTS.items():
        g = gn.parse_graph(text)
        assert gn.parse_graph(gn.format_graph(g)) == g, name


def test_equal_graphs_parsed_apart_compare_and_hash_equal():
    text = GRAPH_TEXTS["scc_chain"]
    g, h = gn.parse_graph(text), gn.parse_graph(text)
    assert g is not h and g == h and hash(g) == hash(h)
    assert g == g and not g != g
    assert g != gn.parse_graph(text + "vertex extra\n")
    assert g != gn.parse_graph(text.replace("edge h z u", "edge h u z"))


def test_format_graph_rejects_names_the_text_cannot_carry():
    g = gn.DirectedGraph(["v", "w#x"], [("a", "v", "w#x")])
    with pytest.raises(gn.GraphParseError, match="vertex name 'w#x'"):
        gn.format_graph(g)
    g = gn.DirectedGraph(["v"], [("a b", "v", "v")])
    with pytest.raises(gn.GraphParseError, match="edge name 'a b'"):
        gn.format_graph(g)


@st.composite
def graphs_with_odd_names(draw):
    """Graphs whose names may hold whitespace (line breaks included) or "#"."""
    names = st.text(alphabet="ab# \t\n\x1c\u2028", min_size=1, max_size=3)
    vertices = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(names, ends, ends), max_size=4, unique_by=lambda e: e[0]))
    return gn.DirectedGraph(vertices, edges)


@settings(deadline=None, max_examples=200)
@given(graphs_with_odd_names())
def test_format_graph_round_trips_or_names_the_first_bad_name(g):
    names = [("vertex", v) for v in g.vertices] + [("edge", e.name) for e in g.edges]
    bad = [(kind, n) for kind, n in names if "#" in n or n.split() != [n]]
    if not bad:
        assert gn.parse_graph(gn.format_graph(g)) == g
        return
    with pytest.raises(gn.GraphParseError) as info:
        gn.format_graph(g)
    kind, name = bad[0]
    assert str(info.value).startswith(f"{kind} name {name!r} ")


def test_parse_accepts_comments_and_blanks():
    g = gn.parse_graph("# header\n\nvertex v  # trailing\n\nedge a v v\n")
    assert g.vertices == ("v",)
    assert [e.name for e in g.edges] == ["a"]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("vertex v\nvertex v\n", "line 2"),
        ("vertex v\nedge a v q\n", "undeclared vertex 'q'"),
        ("garbage\n", "line 1"),
        ("vertex v\nedge a v v\nedge a v v\n", "duplicate edge 'a'"),
        ("edge a v v\n", "undeclared vertex"),
    ],
)
def test_parse_errors_carry_line_context(text, fragment):
    with pytest.raises(gn.GraphParseError, match=fragment):
        gn.parse_graph(text)


@st.composite
def graph_texts(draw):
    """Texts of vertex and edge lines over small alphabets, where "q" is
    never declared, with blank, comment and malformed lines mixed in."""
    vertex_names = st.sampled_from(["u", "v", "w"])
    ends = st.sampled_from(["u", "v", "w", "q"])
    lines = st.one_of(
        st.builds("vertex {}".format, vertex_names),
        st.builds("edge {} {} {}".format, st.sampled_from(["a", "b", "c"]), ends, ends),
        st.sampled_from(["", "  ", "# note", "vertex", "vertex u v", "edge a u", "node u"]),
    )
    comments = st.sampled_from(["", " # note", "#", "\t"])
    rows = draw(st.lists(st.tuples(lines, comments), max_size=10))
    return "\n".join(line + comment for line, comment in rows)


@settings(deadline=None, max_examples=300)
@given(graph_texts())
def test_parse_graph_agrees_with_the_line_by_line_parser(text):
    def outcome(parse):
        try:
            return parse(text)
        except gn.GraphParseError as exc:
            return str(exc)

    assert outcome(gn.parse_graph) == outcome(parse_graph_by_lines)


def test_graph_json_round_trip():
    for name in GRAPH_TEXTS:
        g = make_graph(name)
        assert gn.graph_from_json(gn.graph_to_json(g)) == g, name


def test_graph_json_rejects_malformed():
    with pytest.raises(gn.GraphParseError):
        gn.graph_from_json({"vertices": ["v"]})
    with pytest.raises(gn.GraphParseError):
        gn.graph_from_json({"vertices": ["v"], "edges": [["a", "v"]]})


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (["v", ""], [], "empty vertex name"),
        (["v", "w", "v"], [], "duplicate vertex 'v'"),
        (["v"], [("", "v", "v")], "empty edge name"),
        (["v"], [("a", "v", "v"), ("a", "v", "v")], "duplicate edge 'a'"),
        (["v"], [("a", "v", "q")], "edge 'a' references undeclared vertex 'q'"),
        # the first fault in declaration order wins, vertices before edges
        (["v", "v"], [("a", "v", "q"), ("", "v", "v")], "duplicate vertex 'v'"),
        (["v"], [("a", "q", "v"), ("a", "v", "v")], "edge 'a' references undeclared vertex 'q'"),
        (["v"], [("a", "v", "v"), ("a", "v", "q")], "duplicate edge 'a'"),
    ],
)
def test_graph_constructor_names_the_first_fault(vertices, edges, message):
    with pytest.raises(gn.GraphParseError) as info:
        gn.DirectedGraph(vertices, edges)
    assert str(info.value) == message
    assert info.value.__context__ is None


def first_fault(vertices, edges):
    """The constructor's message for the first bad name, walking vertices
    and then edges in declaration order; None when every name is good."""
    seen_v = set()
    for v in vertices:
        if not v:
            return "empty vertex name"
        if v in seen_v:
            return f"duplicate vertex {v!r}"
        seen_v.add(v)
    seen_e = set()
    for name, src, dst in edges:
        if not name:
            return "empty edge name"
        if name in seen_e:
            return f"duplicate edge {name!r}"
        seen_e.add(name)
        for endpoint in (src, dst):
            if endpoint not in seen_v:
                return f"edge {name!r} references undeclared vertex {endpoint!r}"
    return None


@st.composite
def graph_parts(draw):
    """Vertex names and edge triples from small alphabets, where "" is never
    a good name and "q" is never declared.  Half the draws keep vertex names
    unique and endpoints mostly declared, and half of those edge names too,
    so that good graphs with edges and faults past the vertices both occur."""
    tame = draw(st.booleans())
    vertices = draw(st.lists(st.sampled_from(["u", "v", "w"] if tame else ["", "u", "v", "w"]),
                             unique=tame, max_size=4))
    ends = st.sampled_from(vertices * 5 + ["q"] if tame else ["", "u", "v", "w", "q"])
    names = st.sampled_from(["a", "b", "c", "d", "e"] if tame else ["", "a", "b", "c"])
    distinct = tame and draw(st.booleans())
    edges = draw(st.lists(st.tuples(names, ends, ends), max_size=5,
                          unique_by=(lambda e: e[0]) if distinct else None))
    return vertices, edges


@settings(deadline=None, max_examples=300)
@given(graph_parts())
def test_graph_constructor_agrees_with_the_first_fault_oracle(parts):
    vertices, edges = parts
    expected = first_fault(vertices, edges)
    if expected is not None:
        with pytest.raises(gn.GraphParseError) as info:
            gn.DirectedGraph(vertices, edges)
        assert str(info.value) == expected
        assert info.value.__context__ is None
        return
    g = gn.DirectedGraph(vertices, edges)
    for v in vertices:
        assert g.out_edges(v) == tuple(e for e in g.edges if e.source == v)
        assert g.in_edges(v) == tuple(e for e in g.edges if e.target == v)
        assert g.loops_at(v) == tuple(e for e in g.edges if e.source == e.target == v)
    assert g.sinks() == tuple(v for v in vertices if all(e.source != v for e in g.edges))
    assert g.sources() == tuple(v for v in vertices if all(e.target != v for e in g.edges))
    assert gn.graph_from_json(gn.graph_to_json(g)) == g


@pytest.mark.parametrize(
    "lookup, message",
    [
        (lambda g: g.out_edges("nope"), "unknown vertex 'nope'"),
        (lambda g: g.in_edges("nope"), "unknown vertex 'nope'"),
        (lambda g: g.loops_at("nope"), "unknown vertex 'nope'"),
        (lambda g: g.path_sort_key(gn.Path("v", "v", ("zz",))), "unknown edge 'zz'"),
        (lambda g: gn.condensation(g).component_of("nope"), "unknown vertex 'nope'"),
        (lambda g: gn.reaches(g, "v", "nope"), "unknown vertex 'nope'"),
    ],
    ids=["out_edges", "in_edges", "loops_at", "path_sort_key", "component_of", "reaches"],
)
def test_lookups_by_an_unknown_name_raise_path_error(lookup, message):
    g = gn.parse_graph("vertex v\nedge a v v\n")
    with pytest.raises(gn.PathError) as info:
        lookup(g)
    assert str(info.value) == message


# -- paths and composition ---------------------------------------------------------


def test_vertex_paths_are_units():
    c2 = make_graph("c2")
    x = c2.vertex_path("x")
    e = c2.path_from_traversal(["e"])
    assert gn.compose(x, x) == x
    assert x.is_vertex and x.length == 0
    # e runs x -> y, so the unit on the left is the one at y
    y = c2.vertex_path("y")
    assert gn.compose(y, e) == e
    assert gn.compose(e, x) == e


def test_compose_concatenates_lengths():
    c2 = make_graph("c2")
    e = c2.path_from_traversal(["e"])
    f = c2.path_from_traversal(["f"])
    fe = gn.compose(f, e)
    assert fe.length == 2
    assert fe.traversal == ("e", "f")
    assert fe.source == "x" and fe.target == "x"


def test_compose_rejects_mismatched_endpoints():
    c2 = make_graph("c2")
    e = c2.path_from_traversal(["e"])
    with pytest.raises(gn.PathError):
        gn.compose(e, e)


def test_traversal_and_composition_orders_are_reversed():
    c2 = make_graph("c2")
    fe = c2.path_from_traversal(["e", "f"])
    assert fe.traversal == ("e", "f")
    assert fe.edges == ("f", "e")


def test_path_from_traversal_rejects_gaps():
    c3 = make_graph("c3")
    with pytest.raises(gn.PathError):
        c3.path_from_traversal(["e1", "e3"])
    with pytest.raises(gn.PathError):
        c3.path_from_traversal([])


def test_power():
    loop1 = make_graph("loop1")
    e = loop1.path_from_traversal(["e"])
    assert gn.power(e, 3).length == 3
    assert gn.power(e, 1) == e


# -- primitive roots ---------------------------------------------------------------


def test_primitive_root_examples():
    loop1 = make_graph("loop1")
    e = loop1.path_from_traversal(["e"])
    assert gn.primitive_root(e) == (e, 1)
    assert gn.primitive_root(gn.power(e, 3)) == (e, 3)

    p2 = make_graph("p2")
    fe = p2.path_from_traversal(["a", "b"])
    root, p = gn.primitive_root(p2.path_from_traversal(["a", "b", "a", "b"]))
    assert (root, p) == (fe, 2)


def test_primitive_root_rejects_non_cycles():
    c2 = make_graph("c2")
    with pytest.raises(gn.PreconditionError):
        gn.primitive_root(c2.path_from_traversal(["e"]))


@settings(deadline=None, max_examples=60)
@given(
    word=st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=4),
    p=st.integers(min_value=1, max_value=3),
)
def test_primitive_root_reconstructs_and_is_primitive(word, p):
    g = make_graph("p2")
    u = gn.power(g.path_from_traversal(word), p)
    root, q = gn.primitive_root(u)
    assert gn.power(root, q) == u
    assert q % p == 0
    # brute force: the root's word is fixed by no proper rotation
    letters = root.traversal
    n = len(letters)
    for d in range(1, n):
        if n % d == 0:
            assert letters != letters[d:] + letters[:d]


# -- decomposition and completion ---------------------------------------------------


def test_decompose_single_component_is_one_segment():
    p2 = make_graph("p2")
    w = p2.path_from_traversal(["a", "b", "a"])
    d = gn.decompose_path(p2, w)
    assert d.segments == (w,)
    assert d.crossing == ()


def test_decompose_vertex_path():
    p2 = make_graph("p2")
    x = p2.vertex_path("v")
    d = gn.decompose_path(p2, x)
    assert d.segments == (x,)
    assert d.crossing == ()


def test_decompose_crossing_walk():
    sc = make_graph("scc_chain")
    w = sc.path_from_traversal(["a", "e", "c", "f", "h", "d"])
    d = gn.decompose_path(sc, w)
    assert [str(s) for s in d.segments] == [
        "Path<v-[a]->v>", "Path<w-[c]->w>", "Path<z>", "Path<u-[d]->u>",
    ]
    assert d.crossing == ("e", "f", "h")


def test_decompose_recomposes_and_crosses(scc_chain):
    rng = random.Random(7)
    cond = gn.condensation(scc_chain)
    for _ in range(50):
        w = random_walk(rng, scc_chain, 8)
        d = gn.decompose_path(scc_chain, w)
        # recomposition: interleave segments and crossing edges in walk order
        rebuilt = d.segments[0]
        for name, seg in zip(d.crossing, d.segments[1:]):
            rebuilt = gn.compose(scc_chain.edge_path(name), rebuilt)
            rebuilt = gn.compose(seg, rebuilt)
        assert rebuilt == w
        for seg in d.segments:
            comps = {cond.component_of(v) for v in
                     [seg.source] + [scc_chain.edge(n).target for n in seg.traversal]}
            assert len(comps) == 1
        for name in d.crossing:
            e = scc_chain.edge(name)
            assert cond.component_of(e.source) != cond.component_of(e.target)


def test_complete_to_cycle_examples():
    c3 = make_graph("c3")
    e1 = c3.path_from_traversal(["e1"])
    v = gn.complete_to_cycle(c3, e1)
    assert v.traversal == ("e2", "e3")
    assert gn.compose(v, e1).is_cycle

    full = c3.path_from_traversal(["e1", "e2", "e3"])
    assert gn.complete_to_cycle(c3, full) == c3.vertex_path("x1")

    c2 = make_graph("c2")
    assert gn.complete_to_cycle(c2, c2.path_from_traversal(["e"])).traversal == ("f",)


def test_complete_to_cycle_needs_same_component():
    chain = make_graph("chain2")
    with pytest.raises(gn.PreconditionError):
        gn.complete_to_cycle(chain, chain.path_from_traversal(["t"]))


def test_complete_to_cycle_is_shortest():
    # x has a direct return edge and a longer detour; the direct one wins
    g = gn.parse_graph(
        "vertex x\nvertex y\nvertex z\n"
        "edge e x y\nedge long1 y z\nedge long2 z x\nedge back y x\n"
    )
    v = gn.complete_to_cycle(g, g.path_from_traversal(["e"]))
    assert v.traversal == ("back",)


# -- transpose and tails ------------------------------------------------------------


def test_transpose_involution_and_classes():
    for name in GRAPH_TEXTS:
        g = make_graph(name)
        t = g.transpose()
        assert t.transpose() == g
        classes = sorted(c.component_class.value for c in gn.condensation(g).components)
        t_classes = sorted(c.component_class.value for c in gn.condensation(t).components)
        assert classes == t_classes, name


def test_transpose_reverses_edges():
    chain = make_graph("chain2")
    t = chain.transpose()
    (e,) = t.edges
    assert (e.source, e.target) == ("B", "A")


def test_add_tails():
    p2 = make_graph("p2")
    assert p2.add_tails(3) == p2  # no sinks

    single = gn.parse_graph("vertex s\n")
    tailed = single.add_tails(2)
    assert len(tailed.vertices) == 3
    assert len(tailed.edges) == 2
    assert tailed.sinks() == (tailed.vertices[-1],)

    two = gn.parse_graph("vertex a\nvertex b\nvertex c\nedge e a b\nedge f a c\n")
    tailed2 = two.add_tails(1)
    assert len(tailed2.vertices) == 5
    assert len(tailed2.edges) == 4
    assert all(v.endswith("1") for v in tailed2.sinks())


def test_add_tails_vertex_count_property():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, max_vertices=6, max_edges=8)
        d = rng.randint(0, 3)
        tailed = g.add_tails(d)
        assert len(tailed.vertices) == len(g.vertices) + d * len(g.sinks())
        if d >= 1:
            assert all(v not in g.vertices for v in tailed.sinks())


# -- enumeration --------------------------------------------------------------------


def test_enumerate_paths_hand_corpus():
    p2 = make_graph("p2")
    got = [str(p) for p in gn.enumerate_paths(p2, "v", "v", 2)]
    assert got == [
        "Path<v>",
        "Path<v-[a]->v>", "Path<v-[b]->v>",
        "Path<v-[a,a]->v>", "Path<v-[a,b]->v>",
        "Path<v-[b,a]->v>", "Path<v-[b,b]->v>",
    ]


def test_enumerate_paths_disconnected_is_empty():
    g = gn.parse_graph("vertex a\nvertex b\n")
    assert gn.enumerate_paths(g, "a", "b", 4) == []


def test_enumerate_respects_length_limit():
    p2 = make_graph("p2")
    with pytest.raises(
        gn.LimitError, match="max_len 13 exceeds the cap 12 set by graphs.MAX_ENUM_LENGTH"
    ):
        gn.enumerate_paths(p2, "v", "v", 13)
    with pytest.raises(gn.LimitError):
        gn.all_cycles(p2, 13)


def test_all_cycles_c3():
    c3 = make_graph("c3")
    cycles = gn.all_cycles(c3, 3)
    assert len(cycles) == 3
    assert all(c.is_cycle and c.length == 3 for c in cycles)
    assert sorted(c.source for c in cycles) == ["x1", "x2", "x3"]


def test_enumerate_cycles_through():
    c3 = make_graph("c3")
    assert len(gn.enumerate_cycles_through(c3, "x1", 3)) == 1
    p2 = make_graph("p2")
    assert len(gn.enumerate_cycles_through(p2, "v", 2)) == 6


# -- condensation -------------------------------------------------------------------


def test_condensation_trivial_classes():
    single = gn.parse_graph("vertex s\n")
    (comp,) = gn.condensation(single).components
    assert comp.component_class is gn.ComponentClass.TRIVIAL
    assert comp.loop_multiplicity == "Zero"
    assert comp.is_trivial


def test_condensation_cycle_class():
    (comp,) = gn.condensation(make_graph("c3")).components
    assert comp.component_class is gn.ComponentClass.CYCLE
    assert comp.loop_multiplicity == "One"

    (one_loop,) = gn.condensation(make_graph("loop1")).components
    assert one_loop.component_class is gn.ComponentClass.CYCLE


def test_condensation_strongly_transitive_class():
    (comp,) = gn.condensation(make_graph("p2")).components
    assert comp.component_class is gn.ComponentClass.STRONGLY_TRANSITIVE
    assert comp.loop_multiplicity == "Infinite"


def test_condensation_quotient_structure():
    sc = make_graph("scc_chain")
    cond = gn.condensation(sc)
    assert len(cond.components) == 4
    assert cond.crossing_edge_names == ("e", "f", "h")
    i_v = cond.component_of("v").index
    i_u = cond.component_of("u").index
    assert cond.component_reaches(i_v, i_u)
    assert not cond.component_reaches(i_u, i_v)
    for outside in ((i_v, -1), (-1, i_v), (i_v, 4), (4, i_v)):
        assert not cond.component_reaches(*outside)


def test_condensation_quotient_acyclic_on_random_graphs():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng)
        cond = gn.condensation(g)
        for e in cond.quotient_edges:
            src = cond.component_of(e.source).index
            dst = cond.component_of(e.target).index
            assert src != dst
            assert not cond.component_reaches(dst, src)


def test_transitive_in_components_agrees_with_edge_check():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng)
        expected = all(e.source in bfs_reachable(g, e.target) for e in g.edges)
        assert gn.is_transitive_in_components(g) == expected


def test_transitive_examples():
    assert gn.is_transitive_in_components(make_graph("c3"))
    assert not gn.is_transitive_in_components(make_graph("chain2"))
    assert gn.is_transitive_in_components(make_graph("disjoint_pair"))


def test_reaches_is_reflexive():
    g = gn.parse_graph("vertex a\nvertex b\n")
    assert gn.reaches(g, "a", "a")
    assert not gn.reaches(g, "a", "b")
