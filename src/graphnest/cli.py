"""Command-line front end: graph/element file ingestion, JSON reports, exit codes.

Commands
--------
classify   structural report for a graph file
separate   witness representation separating a nonzero element from zero
rep        build a representation (phi | rho | psi | fock | nnest) and
           report how well it satisfies the defining relations
recover    recover one path coefficient of an element through a family
radical    radical generators, plus membership for an optional element

Exit codes (``EXIT_CODES``): 0 success; 2 unreadable input (parse errors,
bad paths, malformed flag values) or a size cap exceeded (LimitError,
including the path-length cap of recovery, the grid cap of separation and a
subnormal separation witness entry); 3 file-system errors; 4 empty input
(zero element, empty graph); 5 a construction's mathematical precondition
fails.

Every subcommand takes ``--json``.  A kind-specific ``rep`` flag given with
a kind that does not read it (``REP_FLAG_KINDS``) exits 2 with "--FLAG
applies only to rep KINDS".  Relation verdicts use ``linalg.NORM_TOL``.

Each command returns its JSON payload and a function rendering its text
report; ``main`` writes one of the two to stdout.  ``rep --emit FILE``
returns the JSON text it wrote to FILE instead, so with ``--json`` stdout
is the same string, rendered once.  A representation in a
payload is written from its storage by ``reps.rep_to_json_text``, byte for
byte the json.dumps text of ``rep_to_json``, every image a dense matrix;
the text report writes none.  ``--json`` and ``--emit FILE`` write
compact JSON: one line, keys sorted, ending in a newline, with
``schema_version`` 1.  Pipe it through ``python3 -m json.tool`` to read
it.

Unit-modulus parameters are written as fractions of a full turn:
``--lambda-arg 0.25`` means e^{2πi·0.25} = i.  Path arguments list edge names
in walking order (first walked first), comma separated; a length-0 path is
written ``vertex:NAME``.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

from .classify import classify
from .elements import (
    DEFAULT_MAX_BASIS,
    FormalElement,
    element_from_json,
    truncated_left_regular,
)
from .errors import (
    EmptyInputError,
    GraphNestError,
    GraphParseError,
    PathError,
    PreconditionError,
)
from .graphs import DirectedGraph, Path, graph_to_json, parse_graph
from .recovery import (
    is_in_radical,
    radical_edge_generators,
    recover_irreducible,
    recover_nest,
    recover_upper,
    separate,
)
from .reps import (
    FiniteRepresentation,
    check_relations,
    n_nest_truncation,
    phi_cycle,
    psi_upper,
    rep_to_json_text,
    rho_nest,
)

SCHEMA_VERSION = 1

EXIT_OK = 0

#: Exit code of each error class a command may raise; the first match wins.
EXIT_CODES = (
    (EmptyInputError, 4),
    (PreconditionError, 5),
    (OSError, 3),
    (GraphNestError, 2),  # parse errors, bad paths, size caps
    (ValueError, 2),  # malformed flag values and representation JSON
)


# -- input helpers -------------------------------------------------------------------


def _load_graph(path: str) -> DirectedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        g = parse_graph(fh.read())
    if not g.vertices:
        raise EmptyInputError(f"graph file {path!r} declares no vertices")
    return g


def _load_element(path: str, g: DirectedGraph) -> FormalElement:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphParseError(f"{path}: invalid JSON ({exc})") from exc
    return element_from_json(g, obj)


def _parse_pathspec(g: DirectedGraph, spec: str) -> Path:
    spec = spec.strip()
    if spec.startswith("vertex:"):
        return g.vertex_path(spec[len("vertex:"):])
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        raise PathError(f"empty path specification {spec!r}")
    return g.path_from_traversal(names)


def _parse_lambdas(spec: str) -> list[complex]:
    """Comma-separated fractions of a turn -> points on the unit circle."""
    out = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            t = float(part)
        except ValueError:
            t = math.nan
        if not math.isfinite(t):
            raise PathError(f"bad turn fraction {part!r} in --lambda-arg")
        out.append(cmath.exp(2j * cmath.pi * t))
    if not out:
        raise PathError("--lambda-arg needs at least one turn fraction")
    return out


def _parse_loop_choice(g: DirectedGraph, spec: str | None) -> dict[str, str] | None:
    if spec is None:
        return None
    choice: dict[str, str] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        vertex, sep, edge = part.partition("=")
        if not sep or not vertex or not edge:
            raise PathError(
                f"bad --loop-choice entry {part!r}; expected VERTEX=EDGE"
            )
        choice[vertex] = edge
    return choice or None


# -- output helpers ------------------------------------------------------------------


def _encode(value) -> str:
    # Without ``indent`` json.dumps runs its C encoder.  Every payload is a
    # tree built fresh for this call, so nothing can cycle: the encoder need
    # not record each container it enters.
    return json.dumps(value, sort_keys=True, check_circular=False)


def _dump_json(obj: dict) -> str:
    """The payload as one line of JSON.  A ``representation`` entry holds a
    ``FiniteRepresentation``, written as ``rep_to_json_text`` writes it; the
    top level is then joined as json.dumps joins a dict's items."""
    payload = {"schema_version": SCHEMA_VERSION, **obj}
    rep = payload.get("representation")
    if rep is None:
        return _encode(payload) + "\n"
    items = (
        f"{json.dumps(key)}: "
        + (rep_to_json_text(rep) if key == "representation" else _encode(payload[key]))
        for key in sorted(payload)
    )
    return "{" + ", ".join(items) + "}\n"


def _write_emit(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


# -- commands ------------------------------------------------------------------------


def _cmd_classify(args: argparse.Namespace):
    g = _load_graph(args.graph)
    report = classify(g)

    def text() -> list[str]:
        s = report.graph_stats
        comps = "; ".join(
            "{{{0}}} {1} loops={2}".format(
                ",".join(c["vertices"]), c["class"], c["loop_multiplicity"]
            )
            for c in s["components"]
        )
        fn = report.faithful_nest
        return [
            f"vertices:             {s['vertices']}",
            f"edges:                {s['edges']}",
            f"sinks:                {' '.join(s['sinks']) or '(none)'}",
            f"sources:              {' '.join(s['sources']) or '(none)'}",
            f"components:           {comps}",
            f"semisimple:           {_yesno(report.semisimple)}",
            f"strongly semisimple:  {_yesno(report.strongly_semisimple)}",
            f"radical generators:   {' '.join(report.radical_generators) or '(none)'}",
            f"ut separating:        {_yesno(report.ut_separating)}",
            f"faithful irreducible: {_yesno(report.faithful_irreducible)}",
            (
                f"faithful nest:        {_yesno(fn.satisfied)}  "
                f"(order {_yesno(fn.quotient_totally_ordered)}, "
                f"no-cycle {_yesno(fn.no_cycle_component)}, "
                f"chain {_yesno(fn.trivial_chain_interval)}"
                + (", vacuous" if fn.c3_vacuous else "")
                + ")"
            ),
            (
                f"n-nest case:          {report.n_nest.case}"
                + (" (requires an infinite graph)" if report.n_nest.requires_infinite else "")
            ),
        ]

    return {"graph": graph_to_json(g), "report": report.to_json()}, text


def _cmd_separate(args: argparse.Namespace):
    g = _load_graph(args.graph)
    a = _load_element(args.element, g)
    witness = separate(
        g, a, args.family,
        loop_choice=_parse_loop_choice(g, args.loop_choice),
    )
    if args.emit:
        _write_emit(
            args.emit,
            _dump_json({"graph": graph_to_json(g), "representation": witness.representation}),
        )

    def text() -> list[str]:
        blocks = (
            " ".join(str(b) for b in witness.nest.block_sizes)
            if witness.nest
            else "(none)"
        )
        point = " ".join(
            f"{z.real!r} {z.imag!r}" for z in witness.witness_point
        ) or "(none)"
        path = ",".join(witness.path.traversal) or f"vertex:{witness.path.source}"
        return [
            f"family:        {witness.family}",
            f"support path:  {path}",
            f"dimension:     {witness.representation.dimension}",
            f"nest blocks:   {blocks}",
            f"entry:         [{witness.row}, {witness.col}] = "
            f"{witness.entry_value.real!r} {witness.entry_value.imag!r}",
            f"lambda point:  {point}",
            f"value:         {witness.value!r}",
        ]

    return {"graph": graph_to_json(g), "witness": witness.to_json()}, text


#: The ``rep`` kinds that read each kind-specific flag, in checking order.
REP_FLAG_KINDS = {
    "cycle": ("phi",), "path": ("rho", "psi"), "lambda_arg": ("phi", "rho", "psi"),
    "loop_choice": ("psi",), "depth": ("fock",), "prefix_len": ("nnest",),
    "seed": ("nnest",), "max_basis": ("fock",),
}


def _build_rep(
    args: argparse.Namespace, g: DirectedGraph
) -> tuple[FiniteRepresentation, list[int] | None]:
    kind = args.kind
    if kind == "phi":
        if not args.cycle or args.lambda_arg is None:
            raise PathError("rep phi needs --cycle and --lambda-arg")
        u = _parse_pathspec(g, args.cycle)
        lams = _parse_lambdas(args.lambda_arg)
        if len(lams) != 1:
            raise PathError("rep phi takes exactly one --lambda-arg value")
        return phi_cycle(g, u, lams[0]), None
    if kind == "rho":
        if not args.path or args.lambda_arg is None:
            raise PathError("rep rho needs --path and --lambda-arg")
        w = _parse_pathspec(g, args.path)
        rep, structure = rho_nest(g, w, _parse_lambdas(args.lambda_arg))
        return rep, list(structure.block_sizes)
    if kind == "psi":
        if not args.path or args.lambda_arg is None:
            raise PathError("rep psi needs --path and --lambda-arg")
        w = _parse_pathspec(g, args.path)
        rep = psi_upper(
            g, w, _parse_lambdas(args.lambda_arg),
            _parse_loop_choice(g, args.loop_choice),
        )
        return rep, [1] * rep.dimension
    if kind == "fock":
        depth = 2 if args.depth is None else args.depth
        return truncated_left_regular(g, depth, max_basis=args.max_basis or DEFAULT_MAX_BASIS), None
    rep = n_nest_truncation(g, 4 if args.prefix_len is None else args.prefix_len, args.seed or 0)
    return rep, [1] * rep.dimension


def _cmd_rep(args: argparse.Namespace):
    for flag, kinds in REP_FLAG_KINDS.items():
        if getattr(args, flag) is not None and args.kind not in kinds:
            raise ValueError(f"--{flag.replace('_', '-')} applies only to rep {', '.join(kinds)}")
    if args.max_basis is not None and args.max_basis < 1:
        raise ValueError("--max-basis must be positive")
    g = _load_graph(args.graph)
    rep, nest_blocks = _build_rep(args, g)
    relations = check_relations(rep)
    payload = {
        "graph": graph_to_json(g),
        "kind": args.kind,
        "representation": rep,
        "nest_blocks": nest_blocks,
        "relations": relations.to_json(),
    }
    if args.emit:
        payload = _dump_json(payload)
        _write_emit(args.emit, payload)

    def text() -> list[str]:
        lines = [
            f"kind:        {args.kind}",
            f"dimension:   {rep.dimension}",
            f"orientation: {rep.orientation or '(none)'}",
        ]
        lines += [f"{name + ':':36s} {_yesno(ok)}" for name, ok in relations.verdicts.items()]
        if not args.emit:
            lines.append("(use --json or --emit FILE for the full matrix data)")
        return lines

    return payload, text


def _cmd_recover(args: argparse.Namespace):
    g = _load_graph(args.graph)
    a = _load_element(args.element, g)
    w = _parse_pathspec(g, args.path)
    if args.family == "irreducible":
        value = recover_irreducible(g, a, w)
    elif args.family == "nest":
        value = recover_nest(g, a, w)
    else:
        value = recover_upper(
            g, a, w, loop_choice=_parse_loop_choice(g, args.loop_choice)
        )
    payload = {
        "graph": graph_to_json(g),
        "family": args.family,
        "path": {"source": w.source, "edges": list(w.traversal)},
        "coefficient": [value.real, value.imag],
    }
    return payload, lambda: [f"{value.real!r} {value.imag!r}"]


def _cmd_radical(args: argparse.Namespace):
    g = _load_graph(args.graph)
    generators = radical_edge_generators(g)
    membership = is_in_radical(g, _load_element(args.element, g)) if args.element else None
    payload = {
        "graph": graph_to_json(g),
        "generators": list(generators),
        "element_in_radical": membership,
    }

    def text() -> list[str]:
        lines = [f"generators: {' '.join(generators) or '(none)'}"]
        if membership is not None:
            lines.append(f"element in radical: {_yesno(membership)}")
        return lines

    return payload, text


# -- argument parsing ----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` leaves it as it
    was, so every call of ``main`` parses with the same parser."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="graphnest",
        description="Finite-dimensional representations of directed-graph path algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="structural report for a graph")
    p.add_argument("graph", help="graph text file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("separate", parents=[common], help="witness separating an element from zero")
    p.add_argument("graph", help="graph text file")
    p.add_argument("element", help="element JSON file")
    p.add_argument("--family", required=True, choices=["irreducible", "nest", "upper"])
    p.add_argument("--emit", metavar="FILE", help="write the witness representation JSON here")
    p.add_argument("--loop-choice", metavar="V=E,...", help="designated loop overrides (upper family)")
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("rep", parents=[common], help="build a representation and check its relations")
    p.add_argument("graph", help="graph text file")
    p.add_argument("kind", choices=["phi", "rho", "psi", "fock", "nnest"])
    p.add_argument("--cycle", metavar="E1,E2,...", help="cycle edges in walking order (phi)")
    p.add_argument("--path", metavar="SPEC", help="path edges in walking order, or vertex:NAME (rho, psi)")
    p.add_argument("--lambda-arg", metavar="T1,T2,...", help="unit-circle parameters as fractions of a turn")
    p.add_argument("--loop-choice", metavar="V=E,...", help="designated loop overrides (psi)")
    p.add_argument("--depth", type=int, help="truncation depth (fock only; default 2)")
    p.add_argument("--prefix-len", type=int, help="walk length (nnest only; default 4)")
    p.add_argument("--seed", type=int, help="parameter rotation (nnest only; default 0)")
    p.add_argument(
        "--max-basis", type=int,
        help=f"basis size cap (fock only; default {DEFAULT_MAX_BASIS})",
    )
    p.add_argument("--emit", metavar="FILE", help="also write the JSON payload here")
    p.set_defaults(func=_cmd_rep)

    p = sub.add_parser("recover", parents=[common], help="recover one path coefficient")
    p.add_argument("graph", help="graph text file")
    p.add_argument("element", help="element JSON file")
    p.add_argument("path", help="path edges in walking order, or vertex:NAME")
    p.add_argument("--family", required=True, choices=["irreducible", "nest", "upper"])
    p.add_argument("--loop-choice", metavar="V=E,...", help="designated loop overrides (upper family)")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("radical", parents=[common], help="radical generators and membership")
    p.add_argument("graph", help="graph text file")
    p.add_argument("--element", metavar="FILE", help="element JSON file to test for membership")
    p.set_defaults(func=_cmd_radical)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, text = args.func(args)
        if args.json and not isinstance(payload, str):
            payload = _dump_json(payload)
        sys.stdout.write(payload if args.json else "\n".join(text()) + "\n")
    except tuple(cls for cls, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
