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

``classify`` bundles everything into one deterministic report.  Each check
walks the condensation's int core (vertex, edge and component ids) once,
without building ``Component`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    LOOP_MULTIPLICITY,
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
    return condensation(g)._classes == [ComponentClass.STRONGLY_TRANSITIVE]


def _loop_flags(g: DirectedGraph) -> bytearray:
    """``looped[v]`` is 1 when vertex id ``v`` carries a loop edge."""
    looped = bytearray(len(g.vertices))
    for s, t in zip(g._src, g._dst):
        if s == t:
            looped[s] = 1
    return looped


def ut_separating_condition(g: DirectedGraph) -> bool:
    """Every vertex that supports a cycle also supports a loop edge.

    This is the graph condition under which triangular representations
    separate the path algebra; it holds vacuously for acyclic graphs.
    """
    cond = condensation(g)
    looped = _loop_flags(g)
    return all(
        looped[v]
        for members, cls in zip(cond._members, cond._classes)
        if cls is not ComponentClass.TRIVIAL
        for v in members
    )


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
    classes = cond._classes

    # Reachability is transitive and respects the topological order, so it
    # is total exactly when a quotient edge joins each component to the next.
    c1 = all(b in succ[a] for a, b in zip(topo, topo[1:]))
    c2 = ComponentClass.CYCLE not in classes

    if ComponentClass.TRIVIAL not in classes:
        return FaithfulNestConditions(c1, c2, True, c3_vacuous=True)

    chain = _trivial_chain(g, cond)
    ok = chain is not None
    if ok:
        # Along the chain, some trivial component reaches c iff the head
        # does, and c reaches some trivial component iff it reaches the tail:
        # one pass forward from the head, and one backward into the tail.
        after = {chain[0]}
        before = {chain[-1]}
        for a in topo:
            if a in after:
                after.update(succ[a])
        for a in reversed(topo):
            if not before.isdisjoint(succ[a]):
                before.add(a)
        ok = all(classes[c] is ComponentClass.TRIVIAL for c in after & before)

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


def _trivial_chain(g: DirectedGraph, cond: Condensation) -> list[int] | None:
    """The trivial components in topological order, when their vertices
    form a simple chain; otherwise (or with none) None.

    Every edge among them runs forward in that order, so they form a simple
    directed path exactly when those edges are the consecutive pairs, once
    each.
    """
    members = cond._members
    chain = [i for i in cond.topological_order if cond._classes[i] is ComponentClass.TRIVIAL]
    if not chain:
        return None
    position = {members[i][0]: k for k, i in enumerate(chain)}
    linked = bytearray(len(chain))  # linked[k]: an edge joins members k and k + 1
    out, dst = g._out, g._dst
    for k, i in enumerate(chain):
        for e in out[members[i][0]]:
            j = position.get(dst[e])
            if j is not None:
                if j != k + 1 or linked[k]:
                    return None
                linked[k] = 1
    return chain if all(linked[:-1]) else None


def check_n_nest_case(g: DirectedGraph) -> NNestResult:
    cond = condensation(g)

    if is_strongly_transitive(g) and all(_loop_flags(g)):
        return NNestResult(
            "One", False, "strongly transitive with a loop at every vertex"
        )

    classes, succ = cond._classes, cond.successors
    nontrivial = [i for i, cls in enumerate(classes) if cls is not ComponentClass.TRIVIAL]
    chain = _trivial_chain(g, cond)

    if (
        chain is not None
        and len(nontrivial) == 1
        and classes[nontrivial[0]] is ComponentClass.STRONGLY_TRANSITIVE
        and all(map(_loop_flags(g).__getitem__, cond._members[nontrivial[0]]))
    ):
        # Every vertex outside the core lies on the chain: no quotient edge
        # enters the core, and one leaves it for the chain's head.
        core = nontrivial[0]
        if not any(core in s for s in succ) and chain[0] in succ[core]:
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
    vertices = g.vertices
    stats = {
        "vertices": len(vertices),
        "edges": len(g.edges),
        "sinks": list(g.sinks()),
        "sources": list(g.sources()),
        "components": [
            {
                "vertices": list(map(vertices.__getitem__, members)),
                "class": cls.value,
                "loop_multiplicity": LOOP_MULTIPLICITY[cls],
            }
            for members, cls in zip(cond._members, cond._classes)
        ],
    }
    generators = cond.crossing_edge_names
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
