"""Command-line interface: subcommands, exit codes, and output formats."""

import cmath
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import graphnest as gn
from graphnest import cli
from conftest import loop_walk, two_loop_chain_text
from exact_oracle import rep_to_json_by_entries

FIXTURES = Path(__file__).parent / "fixtures"
P2 = str(FIXTURES / "p2.graph")
C3 = str(FIXTURES / "c3.graph")
CHAIN = str(FIXTURES / "chain.graph")
SCC = str(FIXTURES / "scc_chain.graph")
ELEM = str(FIXTURES / "elem_p2.json")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "graphnest.cli", *args],
        capture_output=True,
        text=True,
    )


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_classify_human_readable():
    proc = run_cli("classify", P2)
    assert proc.returncode == 0
    assert "faithful irreducible: yes" in proc.stdout
    assert "n-nest case:          One" in proc.stdout


def test_classify_json():
    proc = run_cli("classify", P2, "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert set(payload) == {"graph", "report", "schema_version"}
    report = payload["report"]
    assert report["semisimple"] is True
    assert report["n_nest"]["case"] == "One"
    assert len(report["theorems"]) == 7


def test_rep_phi_on_loop():
    proc = run_cli("rep", P2, "phi", "--cycle", "a", "--lambda-arg", "0", "--json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    rep = payload["representation"]
    assert rep["dimension"] == 1
    assert rep["edge_images"]["a"] == {
        "rows": 1, "cols": 1, "entries": [[0.5, 0.0]],
    }
    assert payload["relations"]["contractive"] is True


def test_rep_fock_truncation_dimension():
    proc = run_cli("rep", P2, "fock", "--depth", "1")
    assert proc.returncode == 0
    assert "dimension:   3" in proc.stdout


def test_rep_rho_with_crossings():
    proc = run_cli("rep", SCC, "rho", "--path", "a,e,c", "--lambda-arg", "0,0.25")
    assert proc.returncode == 0
    assert "dimension:   2" in proc.stdout
    assert "orientation: lower" in proc.stdout


def test_rep_psi_rejects_malformed_lambda():
    proc = run_cli("rep", P2, "psi", "--path", "b,b", "--lambda-arg", "1/7,2/7,3/7")
    assert proc.returncode == 2
    assert "bad turn fraction" in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("psi", "--path", "b,b", "--lambda-arg", "0.1,inf,0.3"),
        ("phi", "--cycle", "a", "--lambda-arg", "nan"),
    ],
    ids=["inf", "nan"],
)
def test_rep_rejects_non_finite_lambda(args):
    proc = run_cli("rep", P2, *args)
    assert proc.returncode == 2
    assert "bad turn fraction" in proc.stderr
    assert "Warning" not in proc.stderr


def test_rep_nnest_precondition_exit():
    proc = run_cli("rep", C3, "nnest")
    assert proc.returncode == 5
    assert "strongly transitive" in proc.stderr


def test_rep_emit_round_trips(tmp_path):
    out = tmp_path / "rep.json"
    proc = run_cli(
        "rep", P2, "psi", "--path", "b,b",
        "--lambda-arg", "0.1,0.2,0.3", "--emit", str(out),
    )
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    g = gn.parse_graph(Path(P2).read_text())
    rep = gn.rep_from_json(g, payload["representation"])
    assert rep.dimension == 3


def test_separate_witness_and_emit(tmp_path):
    out = tmp_path / "wit.json"
    proc = run_cli(
        "separate", P2, ELEM, "--family", "upper", "--json", "--emit", str(out)
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    wit = payload["witness"]
    assert wit["family"] == "upper"
    assert wit["value"] > 0
    emitted = json.loads(out.read_text())
    g = gn.parse_graph(Path(P2).read_text())
    rep = gn.rep_from_json(g, emitted["representation"])
    a = gn.element_from_json(g, json.loads(Path(ELEM).read_text()))
    assert gn.operator_norm(gn.evaluate(rep, a)) == pytest.approx(
        wit["value"], abs=1e-10
    )


def test_separate_zero_element_exit(tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"terms": []}))
    proc = run_cli("separate", P2, str(zero), "--family", "nest")
    assert proc.returncode == 4
    assert "zero element" in proc.stderr


def test_separate_precondition_exit(tmp_path):
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({"terms": [{"coeff": [1.0, 0.0], "path": ["t"]}]}))
    proc = run_cli("separate", CHAIN, str(elem), "--family", "irreducible")
    assert proc.returncode == 5
    assert "every edge lies on a cycle" in proc.stderr


def test_recover_prints_real_imaginary_pair():
    proc = run_cli("recover", P2, ELEM, "a,b", "--family", "nest")
    assert proc.returncode == 0
    re, im = map(float, proc.stdout.split())
    assert abs(re - 0.0) <= 1e-8 and abs(im - 0.75) <= 1e-8

    proc = run_cli("recover", P2, ELEM, "vertex:v", "--family", "irreducible")
    re, im = map(float, proc.stdout.split())
    assert abs(re - 1.5) <= 1e-8 and abs(im) <= 1e-8


def test_radical_generators_and_membership(tmp_path):
    proc = run_cli("radical", SCC)
    assert proc.returncode == 0
    assert "generators: e f h" in proc.stdout

    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({"terms": [{"coeff": [1.0, 0.0], "path": ["e"]}]}))
    proc = run_cli("radical", SCC, "--element", str(elem))
    assert "element in radical: yes" in proc.stdout

    proc = run_cli("radical", P2)
    assert "generators: (none)" in proc.stdout


def test_malformed_graph_exits_2(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex v\nedge a v q\n")
    proc = run_cli("classify", str(bad))
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_path_past_the_length_cap_exits_2(tmp_path):
    elem = tmp_path / "long.json"
    elem.write_text(json.dumps({"terms": [{"coeff": [1.0, 0.0], "path": ["a"] * 1024}]}))
    proc = run_cli("recover", P2, str(elem), ",".join(["a"] * 1024), "--family", "nest")
    assert proc.returncode == 2
    assert "exceeds the cap 1022 set by recovery.MAX_PATH_LENGTH" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_separation_grid_past_the_cap_exits_2(tmp_path):
    # 21 blocks of one wrap each: a grid of 2^21 points, over the 2^20 cap
    graph = tmp_path / "chain.graph"
    graph.write_text(two_loop_chain_text(21))
    elem = tmp_path / "walk.json"
    elem.write_text(json.dumps({"terms": [{"coeff": [1.0, 0.0], "path": loop_walk(21)}]}))
    proc = run_cli("separate", str(graph), str(elem), "--family", "nest")
    assert proc.returncode == 2
    assert "2097152 points exceeds the cap 1048576 set by recovery.MAX_GRID_POINTS" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_subnormal_witness_entry_exits_2(tmp_path):
    # 1e-20 * 2^-1000 is subnormal: no witness with |entry| > 0 can be trusted
    elem = tmp_path / "tiny.json"
    elem.write_text(json.dumps({"terms": [{"coeff": [1e-20, 0.0], "path": ["a"] * 1000}]}))
    proc = run_cli("separate", P2, str(elem), "--family", "nest")
    assert proc.returncode == 2
    assert "below the smallest normal double" in proc.stderr
    assert "Traceback" not in proc.stderr
    proc = run_cli("recover", P2, str(elem), ",".join(["a"] * 1000), "--family", "nest")
    assert proc.returncode == 0
    assert proc.stdout == "1e-20 0.0\n"


def test_non_finite_coefficient_exits_2(tmp_path):
    elem = _write(tmp_path, "nan.json", '{"terms": [{"coeff": [NaN, 0.0], "vertex": "v"}]}')
    for argv in (
        ("recover", P2, elem, "vertex:v", "--family", "nest"),
        ("separate", P2, elem, "--family", "nest"),
    ):
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert "term 0 has a non-finite coefficient" in proc.stderr
        assert proc.stdout == ""


def test_rank_tolerance_flag_is_gone():
    proc = run_cli("rep", P2, "fock", "--depth", "1", "--rank-tol", "1e-9")
    assert proc.returncode == 2
    assert "--rank-tol" in proc.stderr
    assert run_cli("rep", P2, "fock", "--depth", "1", "--norm-tol", "1e-9").returncode == 2


@pytest.mark.parametrize(
    "kind, code",
    [
        ("GraphParseError", 2),
        ("PathError", 2),
        ("LimitError", 2),
        ("ValueError", 2),
        ("OSError", 3),
        ("EmptyInputError", 4),
        ("PreconditionError", 5),
    ],
)
def test_each_error_kind_has_its_exit_code(tmp_path, kind, code):
    argv = {
        "GraphParseError": ("classify", _write(tmp_path, "bad.graph", "vertex v\nedge a v q\n")),
        "PathError": ("rep", P2, "phi", "--cycle", "zz", "--lambda-arg", "0"),
        "LimitError": ("rep", P2, "fock", "--depth", "3", "--max-basis", "5"),
        "ValueError": ("rep", P2, "fock", "--depth", "-1"),
        "OSError": ("classify", str(FIXTURES / "no_such.graph")),
        "EmptyInputError": ("radical", _write(tmp_path, "empty.graph", "# no vertices\n")),
        "PreconditionError": ("rep", C3, "nnest"),
    }[kind]
    proc = run_cli(*argv)
    assert proc.returncode == code
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("classify", P2, "--seed", "3"),
        ("radical", SCC, "--max-basis", "5"),
        ("rep", P2, "fock", "--norm-tol", "1e-9"),
    ],
    ids=["seed-on-classify", "max-basis-on-radical", "norm-tol"],
)
def test_flags_are_accepted_only_where_read(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


def test_rep_nnest_accepts_seed():
    proc = run_cli("rep", P2, "nnest", "--seed", "3", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["representation"]["dimension"] == 5


def test_rep_fock_accepts_max_basis():
    proc = run_cli("rep", P2, "fock", "--depth", "1", "--max-basis", "3", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["representation"]["dimension"] == 3


@pytest.mark.parametrize(
    "args, message",
    [
        (("phi", "--cycle", "a", "--lambda-arg", "0", "--seed", "9", "--max-basis", "3"),
         "--seed applies only to rep nnest"),
        (("fock", "--seed", "9"), "--seed applies only to rep nnest"),
        (("nnest", "--max-basis", "5"), "--max-basis applies only to rep fock"),
        (("psi", "--path", "b", "--lambda-arg", "0,0", "--max-basis", "3"),
         "--max-basis applies only to rep fock"),
        (("psi", "--path", "b", "--lambda-arg", "0,0", "--cycle", "b"),
         "--cycle applies only to rep phi"),
        (("phi", "--cycle", "a", "--lambda-arg", "0", "--depth", "7", "--prefix-len", "3",
          "--path", "b", "--loop-choice", "v=a"),
         "--path applies only to rep rho, psi"),
        (("fock", "--lambda-arg", "0"), "--lambda-arg applies only to rep phi, rho, psi"),
        (("rho", "--path", "a", "--lambda-arg", "0", "--loop-choice", "v=a"),
         "--loop-choice applies only to rep psi"),
        (("nnest", "--depth", "3"), "--depth applies only to rep fock"),
        (("fock", "--prefix-len", "3"), "--prefix-len applies only to rep nnest"),
    ],
    ids=[
        "seed-on-phi", "seed-on-fock", "max-basis-on-nnest", "max-basis-on-psi",
        "cycle-on-psi", "path-on-phi", "lambda-arg-on-fock", "loop-choice-on-rho",
        "depth-on-nnest", "prefix-len-on-fock",
    ],
)
def test_rep_rejects_seed_and_max_basis_on_kinds_that_ignore_them(args, message):
    proc = run_cli("rep", P2, *args)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert proc.stdout == ""


def test_fock_limit_error_states_the_max_basis(capsys):
    assert cli.main(["rep", P2, "fock", "--depth", "3", "--max-basis", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: the truncated Fock basis of depth 3 has 15 paths, "
        "over the cap of 5 paths set by max_basis (--max-basis)\n"
    )
    assert captured.out == ""


def test_missing_file_exits_3():
    proc = run_cli("classify", str(FIXTURES / "no_such.graph"))
    assert proc.returncode == 3


def test_console_script_entry_point():
    proc = subprocess.run(
        ["graphnest", "classify", P2], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "semisimple:           yes" in proc.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("classify", P2, "--json"),
        ("rep", P2, "nnest", "--prefix-len", "4", "--seed", "7", "--json"),
        ("separate", P2, ELEM, "--family", "nest", "--json"),
        ("recover", P2, ELEM, "a,b", "--family", "upper"),
    ],
    ids=["classify", "nnest", "separate", "recover"],
)
def test_output_is_deterministic(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout


# -- JSON output format, in process --------------------------------------------------

G_P2 = gn.parse_graph(Path(P2).read_text())
G_SCC = gn.parse_graph(Path(SCC).read_text())


def _elem(g):
    return gn.element_from_json(g, json.loads(Path(ELEM).read_text()))


def _turns(*ts):
    return [cmath.exp(2j * cmath.pi * t) for t in ts]


def _rep_payload(g, kind, rep, nest_blocks):
    return {
        "graph": gn.graph_to_json(g),
        "kind": kind,
        "representation": gn.rep_to_json(rep),
        "nest_blocks": nest_blocks,
        "relations": gn.check_relations(rep).to_json(),
    }


def _rho_payload():
    rep, nest = gn.rho_nest(G_SCC, G_SCC.path_from_traversal(["a", "e", "c"]), _turns(0, 0.25))
    return _rep_payload(G_SCC, "rho", rep, list(nest.block_sizes))


def _psi_payload():
    rep = gn.psi_upper(G_P2, G_P2.path_from_traversal(["b", "b"]), _turns(0.1, 0.2, 0.3))
    return _rep_payload(G_P2, "psi", rep, [1] * rep.dimension)


def _nnest_payload():
    rep = gn.n_nest_truncation(G_P2, 5, 7)
    return _rep_payload(G_P2, "nnest", rep, [1] * rep.dimension)


def _recover_payload():
    value = gn.recover_nest(G_P2, _elem(G_P2), G_P2.path_from_traversal(["a", "b"]))
    return {
        "graph": gn.graph_to_json(G_P2),
        "family": "nest",
        "path": {"source": "v", "edges": ["a", "b"]},
        "coefficient": [value.real, value.imag],
    }


def _radical_payload():
    return {
        "graph": gn.graph_to_json(G_SCC),
        "generators": list(gn.radical_edge_generators(G_SCC)),
        "element_in_radical": gn.is_in_radical(G_SCC, _elem(G_SCC)),
    }


def _separate_payload():
    witness = gn.separate(G_P2, _elem(G_P2), "nest")
    return {"graph": gn.graph_to_json(G_P2), "witness": witness.to_json()}


def _separate_emit_payload():
    witness = gn.separate(G_P2, _elem(G_P2), "nest")
    return {
        "graph": gn.graph_to_json(G_P2),
        "representation": gn.rep_to_json(witness.representation),
    }


#: Each subcommand's --json invocation, and the payload the library calls build.
JSON_CASES = {
    "classify": (
        ("classify", SCC),
        lambda: {"graph": gn.graph_to_json(G_SCC), "report": gn.classify(G_SCC).to_json()},
    ),
    "rep-fock": (
        ("rep", P2, "fock", "--depth", "5"),
        lambda: _rep_payload(G_P2, "fock", gn.truncated_left_regular(G_P2, 5), None),
    ),
    "rep-phi": (
        ("rep", P2, "phi", "--cycle", "a,b", "--lambda-arg", "0.25"),
        lambda: _rep_payload(
            G_P2, "phi", gn.phi_cycle(G_P2, G_P2.path_from_traversal(["a", "b"]), _turns(0.25)[0]),
            None,
        ),
    ),
    "rep-rho": (("rep", SCC, "rho", "--path", "a,e,c", "--lambda-arg", "0,0.25"), _rho_payload),
    "rep-psi": (("rep", P2, "psi", "--path", "b,b", "--lambda-arg", "0.1,0.2,0.3"), _psi_payload),
    "rep-nnest": (("rep", P2, "nnest", "--prefix-len", "5", "--seed", "7"), _nnest_payload),
    "separate": (("separate", P2, ELEM, "--family", "nest"), _separate_payload),
    "recover": (("recover", P2, ELEM, "a,b", "--family", "nest"), _recover_payload),
    "radical": (("radical", SCC, "--element", ELEM), _radical_payload),
}


def _as_json_values(payload):
    """The payload as JSON reads it back: tuples become lists."""
    return json.loads(json.dumps({"schema_version": 1, **payload}))


@pytest.mark.parametrize("case", list(JSON_CASES))
def test_json_output_is_one_line_holding_the_library_payload(case, capsys):
    argv, build = JSON_CASES[case]
    assert cli.main([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out) == _as_json_values(build())


@pytest.mark.parametrize(
    "argv, build",
    [
        (JSON_CASES["rep-psi"][0], _psi_payload),
        (JSON_CASES["separate"][0], _separate_emit_payload),
    ],
    ids=["rep", "separate"],
)
def test_emitted_file_is_one_line_holding_the_library_payload(tmp_path, capsys, argv, build):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--emit", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == _as_json_values(build())


@pytest.mark.parametrize("case", [c for c in JSON_CASES if c.startswith("rep-")] + ["separate"])
def test_representation_json_is_the_dense_encoding_byte_for_byte(
    case, tmp_path, capsys, monkeypatch
):
    # json.loads reads -0.0 as equal to 0.0, so these compare the text
    argv, build = JSON_CASES[case]
    out = tmp_path / "out.json"
    extra = ["--emit", str(out)] if case == "separate" else ["--json", "--emit", str(out)]
    assert cli.main([*argv, *extra]) == 0
    stdout = capsys.readouterr().out
    # the library payload, every representation encoded from its dense views
    monkeypatch.setattr(gn.reps, "rep_to_json", rep_to_json_by_entries)
    payload = _separate_emit_payload() if case == "separate" else build()
    expected = json.dumps({"schema_version": 1, **payload}, sort_keys=True) + "\n"
    assert out.read_text() == expected
    if case != "separate":
        assert stdout == expected


@pytest.mark.parametrize("case", ["rep-fock", "rep-phi"])
def test_rep_json_with_emit_renders_the_representation_once(case, tmp_path, capsysbinary, monkeypatch):
    calls = []

    def counted(rep):
        calls.append(rep)
        return gn.reps.rep_to_json_text(rep)

    monkeypatch.setattr(cli, "rep_to_json_text", counted)
    out = tmp_path / "out.json"
    assert cli.main([*JSON_CASES[case][0], "--json", "--emit", str(out)]) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()
    assert len(calls) == 1


# -- text output, in process ---------------------------------------------------------

_REP_HINT = "(use --json or --emit FILE for the full matrix data)\n"


def _rep_text(kind, dimension, orientation, ranges_orthogonal):
    return (
        f"kind:        {kind}\n"
        f"dimension:   {dimension}\n"
        f"orientation: {orientation}\n"
        "vertex_projections_orthogonal:       yes\n"
        f"edge_ranges_orthogonal:              {ranges_orthogonal}\n"
        "edges_partial_isometries:            no\n"
        "range_sum_dominated:                 yes\n"
    )


def _separate_text(family, blocks):
    return (
        f"family:        {family}\n"
        "support path:  vertex:v\n"
        "dimension:     1\n"
        f"nest blocks:   {blocks}\n"
        "entry:         [0, 0] = 1.5 0.0\n"
        "lambda point:  1.0 0.0\n"
        "value:         1.5\n"
    )

#: Each subcommand's text report, byte for byte.
TEXT_CASES = {
    "classify-p2": (
        ("classify", P2),
        "vertices:             1\n"
        "edges:                2\n"
        "sinks:                (none)\n"
        "sources:              (none)\n"
        "components:           {v} StronglyTransitive loops=Infinite\n"
        "semisimple:           yes\n"
        "strongly semisimple:  yes\n"
        "radical generators:   (none)\n"
        "ut separating:        yes\n"
        "faithful irreducible: yes\n"
        "faithful nest:        yes  (order yes, no-cycle yes, chain yes, vacuous)\n"
        "n-nest case:          One\n",
    ),
    "classify-scc": (
        ("classify", SCC),
        "vertices:             4\n"
        "edges:                7\n"
        "sinks:                (none)\n"
        "sources:              (none)\n"
        "components:           {v} StronglyTransitive loops=Infinite; {w} Cycle loops=One; "
        "{z} Trivial loops=Zero; {u} Cycle loops=One\n"
        "semisimple:           no\n"
        "strongly semisimple:  no\n"
        "radical generators:   e f h\n"
        "ut separating:        yes\n"
        "faithful irreducible: no\n"
        "faithful nest:        no  (order yes, no-cycle no, chain yes)\n"
        "n-nest case:          None\n",
    ),
    "rep-phi": (
        ("rep", P2, "phi", "--cycle", "a,b", "--lambda-arg", "0.25"),
        _rep_text("phi", 2, "(none)", "yes") + _REP_HINT,
    ),
    "rep-rho": (
        ("rep", SCC, "rho", "--path", "a,e,c", "--lambda-arg", "0,0.25"),
        _rep_text("rho", 2, "lower", "no") + _REP_HINT,
    ),
    "rep-psi": (
        ("rep", P2, "psi", "--path", "b,b", "--lambda-arg", "0.1,0.2,0.3"),
        _rep_text("psi", 3, "lower", "no") + _REP_HINT,
    ),
    "rep-fock": (("rep", P2, "fock"), _rep_text("fock", 7, "(none)", "yes") + _REP_HINT),
    "rep-nnest": (("rep", P2, "nnest", "--seed", "7"), _rep_text("nnest", 5, "lower", "no") + _REP_HINT),
    "separate-nest": (("separate", P2, ELEM, "--family", "nest"), _separate_text("nest", 1)),
    "separate-irreducible": (
        ("separate", P2, ELEM, "--family", "irreducible"),
        _separate_text("irreducible", "(none)"),
    ),
    "recover": (("recover", P2, ELEM, "a,b", "--family", "upper"), "0.0 0.75\n"),
    "radical": (("radical", SCC), "generators: e f h\n"),
    "radical-element": (
        ("radical", SCC, "--element", ELEM),
        "generators: e f h\nelement in radical: no\n",
    ),
}


@pytest.mark.parametrize("case", list(TEXT_CASES))
def test_text_output_is_pinned(case, capsys):
    argv, expected = TEXT_CASES[case]
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("case", ["rep-psi", "separate-nest"])
def test_text_output_with_emit_is_pinned(tmp_path, capsys, case):
    argv, expected = TEXT_CASES[case]
    assert cli.main([*argv, "--emit", str(tmp_path / "out.json")]) == 0
    assert capsys.readouterr().out == expected.replace(_REP_HINT, "")
    assert (tmp_path / "out.json").read_text().count("\n") == 1


@pytest.mark.parametrize("case", [c for c in TEXT_CASES if c.startswith("rep-")])
def test_rep_text_report_builds_no_json_payload(case, capsys, monkeypatch):
    def refuse(rep):
        raise AssertionError("the text report built the JSON payload")

    # neither the library payload nor the text writer, wherever it is named
    monkeypatch.setattr(gn.reps, "rep_to_json", refuse)
    monkeypatch.setattr(gn.reps, "rep_to_json_text", refuse)
    monkeypatch.setattr(cli, "rep_to_json_text", refuse)
    argv, expected = TEXT_CASES[case]
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == expected


def _main_in_process(argv, capsys):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_called_repeatedly_matches_fresh_processes(capsys, monkeypatch):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        ("classify", P2),
        ("rep", P2, "fock", "--no-such-flag"),
        ("rep", P2, "phi", "--cycle", "a,b", "--lambda-arg", "0.25"),
        (),
        ("recover", P2, ELEM, "a,b", "--family", "upper"),
        ("rep", P2, "nnest", "--depth", "3"),
        ("radical", SCC, "--json"),
        ("separate", P2, ELEM, "--family", "sideways"),
        ("classify", P2),
    ]
    for argv in runs:
        fresh = run_cli(*argv)
        assert _main_in_process(argv, capsys) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert cli._build_parser() is cli._build_parser()


# -- exit codes on random input ------------------------------------------------------

_vertex = st.sampled_from(["v", "w"])
_edge = st.sampled_from(["a", "b", "c"])


@st.composite
def graph_texts(draw):
    """Well-formed graphs on up to two vertices and three edges, or lines
    drawn at random, malformed ones among them."""
    if draw(st.booleans()):
        vertices = draw(st.lists(_vertex, min_size=1, unique=True))
        ends = st.sampled_from(vertices)
        edges = draw(st.lists(st.tuples(_edge, ends, ends), max_size=3, unique_by=lambda e: e[0]))
        lines = [f"vertex {v}" for v in vertices] + [f"edge {n} {s} {t}" for n, s, t in edges]
    else:
        lines = draw(st.lists(st.one_of(
            st.builds("vertex {}".format, _vertex),
            st.builds("edge {} {} {}".format, _edge, _vertex, _vertex),
            st.sampled_from(["", "# comment", "edge a v", "vertex", "vertex v w", "node v"]),
        ), max_size=6))
    return "\n".join(lines) + "\n"


_coeff = st.one_of(
    st.tuples(st.sampled_from([1.0, -2.5, 0.0]), st.sampled_from([0.0, 0.5])).map(list),
    st.sampled_from([[1e-300, 0.0], [float("nan"), 0.0], [float("inf"), 1.0], [1.0], 1.0, "x", None]),
)
_term = st.one_of(
    st.fixed_dictionaries({"coeff": _coeff, "path": st.lists(_edge, min_size=1, max_size=4)}),
    st.fixed_dictionaries({"coeff": _coeff, "vertex": _vertex}),
    st.sampled_from([{}, {"coeff": [1.0, 0.0]}, {"coeff": [1.0, 0.0], "path": []}, [], "a"]),
)
_element_text = st.one_of(
    st.builds(lambda terms: json.dumps({"terms": terms}), st.lists(_term, max_size=3)),
    st.sampled_from(["", "{", "[]", "null", '{"terms": 3}', '{"terms": [null]}']),
)
_spec = st.one_of(
    st.lists(_edge, min_size=1, max_size=4).map(",".join),
    st.builds("vertex:{}".format, _vertex),
    st.builds("{}={}".format, _vertex, _edge),
    st.sampled_from(["", ",", "vertex:", "v=", "0.25", "0,0.5", "nan", "x"]),
)
_small_int = st.integers(-2, 4).map(str)


@st.composite
def cli_argv(draw):
    """A command line that argparse accepts, over random graph and element
    files and random values for the flags each subcommand reads."""
    command = draw(st.sampled_from(["classify", "separate", "rep", "recover", "radical"]))
    argv = [command, "MISSING" if draw(st.integers(0, 9)) == 9 else "GRAPH"]
    if command in ("separate", "recover"):
        argv.append("ELEMENT")
    if command == "recover":
        argv.append(draw(_spec))
    if command in ("separate", "recover"):
        argv += ["--family", draw(st.sampled_from(["irreducible", "nest", "upper"]))]
        if draw(st.booleans()):
            argv += ["--loop-choice", draw(_spec)]
    if command == "radical" and draw(st.booleans()):
        argv += ["--element", "ELEMENT"]
    if command == "rep":
        kind = draw(st.sampled_from(["phi", "rho", "psi", "fock", "nnest"]))
        argv.append(kind)
        flags = {
            "phi": ["--cycle", "--lambda-arg"],
            "rho": ["--path", "--lambda-arg"],
            "psi": ["--path", "--lambda-arg", "--loop-choice"],
            "fock": ["--depth", "--max-basis"],
            "nnest": ["--prefix-len", "--seed"],
        }[kind]
        values = _small_int if kind in ("fock", "nnest") else _spec
        for flag in draw(st.lists(st.sampled_from(flags), unique=True)):
            argv += [flag, draw(values)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _expected_exit_code(argv):
    """Run the command's own function outside ``main`` and map the error it
    raises, if any, through ``EXIT_CODES``."""
    args = cli._build_parser().parse_args(argv)
    try:
        payload, text = args.func(args)
        cli._dump_json(payload) if args.json else text()
    except Exception as exc:
        return next(code for cls, code in cli.EXIT_CODES if isinstance(exc, cls))
    return cli.EXIT_OK


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("random_cli")


@settings(deadline=None, max_examples=150)
@given(graph_text=graph_texts(), element=_element_text, argv=cli_argv())
def test_random_input_exits_with_the_mapped_code(input_dir, graph_text, element, argv):
    graph, elem = input_dir / "g.graph", input_dir / "e.json"
    graph.write_text(graph_text)
    elem.write_text(element)
    files = {"GRAPH": graph, "ELEMENT": elem, "MISSING": input_dir / "missing.graph"}
    argv = [str(files.get(arg, arg)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == _expected_exit_code(argv), (argv, err.getvalue())
    if code != cli.EXIT_OK:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
