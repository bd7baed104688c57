"""Structural classification of finite directed multigraphs.

Each decision procedure here answers one representation-theoretic question
about the graph's path algebra purely combinatorially:

* semisimplicity (equivalently: every edge lies on a cycle, equivalently the
  radical has no generators),
* existence of a separating family of triangular representations (every
  cycle-supporting vertex carries a loop),
* existence of a faithful irreducible representation (strong transitivity),
* existence of a faithful nest representation (three conditions on the
  condensation),
* which naturally ordered nest case, if any, the graph matches at finite
  size.

``classify`` bundles everything into one deterministic report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    ComponentClass,
    Condensation,
    DirectedGraph,
    condensation,
    is_transitive_in_components,
)


def is_strongly_transitive(g: DirectedGraph) -> bool:
    """A non-trivial transitive graph that is not a single cycle.

    One vertex with one loop is a cycle graph (not strongly transitive);
    one vertex with two loops is strongly transitive.
    """
    cond = condensation(g)
    return (
        len(cond.components) == 1
        and cond.components[0].component_class is ComponentClass.STRONGLY_TRANSITIVE
    )


def ut_separating_condition(g: DirectedGraph) -> bool:
    """Every vertex that supports a cycle also supports a loop edge.

    This is the graph condition under which triangular representations
    separate the path algebra; it holds vacuously for acyclic graphs.
    """
    comps = condensation(g).components
    return all(g.loops_at(v) for c in comps if not c.is_trivial for v in c.vertices)


@dataclass(frozen=True)
class FaithfulNestConditions:
    """Breakdown of the three conditions for a faithful nest representation.

    1. the condensation's reachability relation is a total order,
    2. no component is a single cycle,
    3. the trivial components form an interval of that order and their
       induced subgraph is a simple directed path with exactly one edge
       between consecutive members (vacuously true with no trivial
       components; ``c3_vacuous`` records that).
    """

    quotient_totally_ordered: bool
    no_cycle_component: bool
    trivial_chain_interval: bool
    c3_vacuous: bool

    @property
    def satisfied(self) -> bool:
        return (
            self.quotient_totally_ordered
            and self.no_cycle_component
            and self.trivial_chain_interval
        )

    def to_json(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "conditions": {
                "quotient_totally_ordered": self.quotient_totally_ordered,
                "no_cycle_component": self.no_cycle_component,
                "trivial_chain_interval": self.trivial_chain_interval,
            },
            "c3_vacuous": self.c3_vacuous,
        }


def check_faithful_nest_conditions(g: DirectedGraph) -> FaithfulNestConditions:
    cond = condensation(g)
    succ = cond.successors
    topo = cond.topological_order

    # Reachability is transitive and respects the topological order, so it
    # is total exactly when a quotient edge joins each component to the next.
    c1 = all(b in succ[a] for a, b in zip(topo, topo[1:]))
    c2 = all(
        comp.component_class is not ComponentClass.CYCLE for comp in cond.components
    )

    if not any(comp.is_trivial for comp in cond.components):
        return FaithfulNestConditions(c1, c2, True, c3_vacuous=True)

    chain = _trivial_chain(g, cond)
    ok = chain is not None
    if ok:
        # Along the chain, some trivial component reaches c iff the head
        # does, and c reaches some trivial component iff it reaches the tail:
        # one pass forward from the head, and one backward into the tail.
        after = {cond.vertex_component[chain[0]]}
        before = {cond.vertex_component[chain[-1]]}
        for a in topo:
            if a in after:
                after.update(succ[a])
        for a in reversed(topo):
            if not before.isdisjoint(succ[a]):
                before.add(a)
        ok = all(cond.components[c].is_trivial for c in after & before)

    return FaithfulNestConditions(c1, c2, ok, c3_vacuous=False)


@dataclass(frozen=True)
class NNestResult:
    """Which naturally ordered nest case the graph matches.

    ``case`` is "One" (strongly transitive with loops everywhere), "Three"
    (a looped strongly transitive core feeding a simple outgoing chain), or
    "None".  ``requires_infinite`` marks the finite graphs that are exactly
    a bare chain: at finite size no case applies, but they are prefixes of
    the infinite-chain pattern, which needs infinitely many vertices.
    """

    case: str
    requires_infinite: bool
    detail: str

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "requires_infinite": self.requires_infinite,
            "detail": self.detail,
        }


def _trivial_chain(g: DirectedGraph, cond: Condensation) -> list[str] | None:
    """The vertices of the trivial components in topological order, when
    they form a simple chain; otherwise (or with none) None.

    Every edge among them runs forward in that order, so they form a simple
    directed path exactly when those edges are the consecutive pairs, once
    each.
    """
    chain = [
        cond.components[i].vertices[0]
        for i in cond.topological_order
        if cond.components[i].is_trivial
    ]
    members = set(chain)
    internal = [
        (e.source, e.target) for e in g.edges if e.source in members and e.target in members
    ]
    if not chain or sorted(internal) != sorted(zip(chain, chain[1:])):
        return None
    return chain


def check_n_nest_case(g: DirectedGraph) -> NNestResult:
    cond = condensation(g)

    if is_strongly_transitive(g) and all(g.loops_at(x) for x in g.vertices):
        return NNestResult(
            "One", False, "strongly transitive with a loop at every vertex"
        )

    nontrivial = [c for c in cond.components if not c.is_trivial]
    chain = _trivial_chain(g, cond)

    if (
        chain is not None
        and len(nontrivial) == 1
        and nontrivial[0].component_class is ComponentClass.STRONGLY_TRANSITIVE
        and all(g.loops_at(x) for x in nontrivial[0].vertices)
    ):
        # Every vertex outside the core lies on the chain.
        base = set(nontrivial[0].vertices)
        if not any(e.target in base and e.source not in base for e in g.edges) and any(
            e.source in base and e.target == chain[0] for e in g.edges
        ):
            return NNestResult(
                "Three",
                False,
                "looped strongly transitive core feeding a simple "
                f"chain of {len(chain)} vertices",
            )

    if not nontrivial and chain is not None:
        return NNestResult(
            "None",
            True,
            "finite bare chain: a prefix of the infinite-chain pattern, "
            "which needs infinitely many vertices",
        )

    return NNestResult("None", False, "no finite case pattern matches")


@dataclass(frozen=True)
class ClassificationReport:
    """All classification verdicts for one graph, with provenance slugs."""

    graph_stats: dict
    semisimple: bool
    strongly_semisimple: bool
    radical_generators: tuple[str, ...]
    ut_separating: bool
    faithful_irreducible: bool
    faithful_nest: FaithfulNestConditions
    n_nest: NNestResult
    theorems: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "graph": self.graph_stats,
            "semisimple": self.semisimple,
            "strongly_semisimple": self.strongly_semisimple,
            "radical_generators": list(self.radical_generators),
            "ut_separating": self.ut_separating,
            "faithful_irreducible": self.faithful_irreducible,
            "faithful_nest": self.faithful_nest.to_json(),
            "n_nest": self.n_nest.to_json(),
            "theorems": [dict(t) for t in self.theorems],
        }


_THEOREM_SLUGS = (
    {"field": "semisimple", "theorem": "semisimple-iff-transitive-in-components"},
    {"field": "strongly_semisimple", "theorem": "radical-equals-strong-radical-at-finite-size"},
    {"field": "radical_generators", "theorem": "radical-generated-by-cycle-free-edges"},
    {"field": "ut_separating", "theorem": "triangular-separation-iff-loops-at-cycle-vertices"},
    {"field": "faithful_irreducible", "theorem": "faithful-irreducible-iff-strongly-transitive"},
    {"field": "faithful_nest", "theorem": "faithful-nest-three-condensation-conditions"},
    {"field": "n_nest", "theorem": "naturally-ordered-nest-case-analysis"},
)


def classify(g: DirectedGraph) -> ClassificationReport:
    """Run every decision procedure and bundle the verdicts."""
    cond = condensation(g)
    stats = {
        "vertices": len(g.vertices),
        "edges": len(g.edges),
        "sinks": list(g.sinks()),
        "sources": list(g.sources()),
        "components": [
            {
                "vertices": list(c.vertices),
                "class": c.component_class.value,
                "loop_multiplicity": c.loop_multiplicity,
            }
            for c in cond.components
        ],
    }
    generators = tuple(e.name for e in cond.quotient_edges)
    return ClassificationReport(
        graph_stats=stats,
        semisimple=is_transitive_in_components(g),
        strongly_semisimple=not generators,
        radical_generators=generators,
        ut_separating=ut_separating_condition(g),
        faithful_irreducible=is_strongly_transitive(g),
        faithful_nest=check_faithful_nest_conditions(g),
        n_nest=check_n_nest_case(g),
        theorems=_THEOREM_SLUGS,
    )
