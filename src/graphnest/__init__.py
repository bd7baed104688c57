"""Finite-dimensional nest representations of directed-graph path algebras.

The package builds the explicit representation families attached to cycles,
paths, and loop-avoiding walks of a finite directed multigraph, decides the
structural graph conditions under which each family exists or separates, and
recovers the path coefficients of finitely supported elements exactly from
the pairing polynomial each family's basis layout gives.

``import graphnest`` loads the graph layer (``errors``, ``graphs``, ``classify``,
``elements``) and not numpy, which the structural verdicts do not need.  The names
of ``linalg``, ``reps`` and ``recovery``, those submodules and ``cli`` are looked
up when read (PEP 562); the first such read imports numpy.
"""

import importlib

from .classify import (
    ClassificationReport,
    FaithfulNestConditions,
    NNestResult,
    check_faithful_nest_conditions,
    check_n_nest_case,
    classify,
    is_strongly_transitive,
    ut_separating_condition,
)
from .elements import (
    FormalElement,
    TruncatedFockBasis,
    cesaro_mean,
    degree,
    element_from_json,
    element_to_json,
    fourier_coefficient,
    multiply,
    truncated_fock_basis,
    truncated_left_regular,
)
from .errors import (
    EmptyInputError,
    GraphNestError,
    GraphParseError,
    LimitError,
    PathError,
    PreconditionError,
)
from .graphs import (
    Component,
    ComponentClass,
    Condensation,
    DirectedGraph,
    Edge,
    Path,
    PathDecomposition,
    all_cycles,
    complete_to_cycle,
    compose,
    condensation,
    decompose_path,
    enumerate_cycles_through,
    enumerate_paths,
    format_graph,
    graph_from_json,
    graph_to_json,
    is_transitive_in_components,
    parse_graph,
    power,
    primitive_root,
    reaches,
)

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "Component",
    "ComponentClass",
    "Condensation",
    "DirectedGraph",
    "Edge",
    "EmptyInputError",
    "FaithfulNestConditions",
    "FiniteRepresentation",
    "FormalElement",
    "GraphNestError",
    "GraphParseError",
    "LimitError",
    "NNestResult",
    "NORM_TOL",
    "NestStructure",
    "Path",
    "PathDecomposition",
    "PathError",
    "PreconditionError",
    "RANK_TOL",
    "RelationReport",
    "SeparationWitness",
    "TruncatedFockBasis",
    "all_cycles",
    "cesaro_mean",
    "check_faithful_nest_conditions",
    "check_n_nest_case",
    "check_relations",
    "classify",
    "complete_to_cycle",
    "compose",
    "condensation",
    "decompose_path",
    "degree",
    "designated_loops",
    "element_from_json",
    "element_to_json",
    "enumerate_cycles_through",
    "enumerate_paths",
    "evaluate",
    "format_graph",
    "fourier_coefficient",
    "graph_from_json",
    "graph_to_json",
    "is_coisometric",
    "is_in_radical",
    "is_orthogonal_projection",
    "is_strongly_transitive",
    "is_transitive_in_components",
    "matrices_equal",
    "matrix_from_json",
    "matrix_to_json",
    "multiply",
    "n_nest_truncation",
    "nest_plan",
    "operator_norm",
    "parse_graph",
    "phi_cycle",
    "power",
    "primitive_root",
    "psi_upper",
    "purity_defect",
    "radical_edge_generators",
    "reaches",
    "recover_irreducible",
    "recover_nest",
    "recover_upper",
    "rep_from_json",
    "rep_to_json",
    "reverse_basis",
    "rho_nest",
    "row_operator_norm",
    "separate",
    "span_closure_dim",
    "truncated_fock_basis",
    "truncated_left_regular",
    "upper_plan",
    "ut_separating_condition",
]


_PUBLIC = frozenset(__all__)


def __getattr__(name: str):
    # Reached for the public names of ``linalg``, ``reps`` and ``recovery``, which
    # are not bound above.  Not cached, so ``graphnest.X`` always reads what the
    # defining module holds, also while a tracer or a test has replaced it.
    if name in ("linalg", "reps", "recovery", "cli"):
        return importlib.import_module("." + name, __name__)
    if name in _PUBLIC:
        for module in ("linalg", "reps", "recovery"):
            namespace = vars(globals().get(module) or importlib.import_module("." + module, __name__))
            if name in namespace:
                return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _PUBLIC)
