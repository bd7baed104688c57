"""Tests of the benchmark itself: its checkers reject wrong answers, and
every workload runs clean at tiny sizes.

    python3 -m pytest bench/test_bench.py -q

The repository's ``testpaths`` keeps these out of the main test run.
"""

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.load_program()

import checks  # noqa: E402
import graphnest as gn  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


# -- checkers reject perturbed answers ----------------------------------------------


@pytest.mark.parametrize("c", [0j, 0.3 - 1.9j, 2.0 + 2.0j])
def test_coefficient_off_by_1e6_is_rejected(c):
    assert checks.coefficient_ok(c, c)
    assert not checks.coefficient_ok(c + 1e-6, c)
    assert not checks.coefficient_ok(c + 1e-6j, c)


def test_recovered_coefficient_passes_and_perturbed_fails():
    rng = random.Random(3)
    case = workloads._p2_case(rng, 4)
    g = gn.parse_graph(workloads.P2.text())
    a = gn.element_from_json(g, case.spec.to_json())
    (source, traversal), _ = case.targets["nest"]
    expected = case.spec.coefficient(source, traversal)
    got = gn.recover_nest(g, a, g.path_from_traversal(traversal))
    assert checks.coefficient_ok(got, expected)
    assert not checks.coefficient_ok(got + 1e-6, expected)


def _planted_dag():
    planted, _ = workloads.planted_dag(random.Random(5), workloads.dag_kinds(1), 2)
    return planted


def test_classification_check_accepts_the_program_and_rejects_a_moved_class():
    planted = _planted_dag()
    ordered = planted.quotient_totally_ordered()
    report = gn.classify(gn.parse_graph(planted.text())).to_json()
    assert checks.classification_ok(report, planted, ordered)

    moved = json.loads(json.dumps(report))
    comp = moved["graph"]["components"][0]
    comp["class"] = "Cycle" if comp["class"] != "Cycle" else "Trivial"
    assert not checks.classification_ok(moved, planted, ordered)

    merged = json.loads(json.dumps(report))
    first, second = merged["graph"]["components"][:2]
    first["vertices"] = first["vertices"] + second["vertices"][:1]
    second["vertices"] = second["vertices"][1:]
    assert not checks.classification_ok(merged, planted, ordered)

    assert not checks.classification_ok(report, planted, not ordered)

    dropped = json.loads(json.dumps(report))
    dropped["radical_generators"] = dropped["radical_generators"][1:]
    assert not checks.classification_ok(dropped, planted, ordered)


def test_branch_makes_the_quotient_partial():
    branched, _ = workloads.planted_dag(
        random.Random(5), workloads.dag_kinds(1), 2, branch=True
    )
    assert not branched.quotient_totally_ordered()
    assert _planted_dag().quotient_totally_ordered()


@pytest.mark.parametrize("planted,depth", [
    (workloads.P2, 5), (workloads.C2L, 4), (workloads.C3, 3),
])
def test_fock_dimension_off_by_one_is_rejected(planted, depth):
    rep = gn.truncated_left_regular(gn.parse_graph(planted.text()), depth)
    assert checks.fock_dimension_ok(rep.dimension, planted, depth)
    assert not checks.fock_dimension_ok(rep.dimension + 1, planted, depth)
    assert not checks.fock_dimension_ok(rep.dimension - 1, planted, depth)


def test_witness_check_rejects_a_perturbed_entry():
    case = workloads._c2l_case(random.Random(4), 4)
    g = gn.parse_graph(workloads.C2L.text())
    a = gn.element_from_json(g, case.spec.to_json())
    witness = gn.separate(g, a, "upper")
    assert checks.witness_ok(witness, case.spec.terms)

    assert not checks.witness_ok(
        replace(witness, entry_value=witness.entry_value * (1 + 1e-6)), case.spec.terms
    )
    assert not checks.witness_ok(replace(witness, entry_value=0j), case.spec.terms)
    assert not checks.witness_ok(
        replace(witness, value=abs(witness.entry_value) / 2), case.spec.terms
    )


def test_dense_property_checks_reject_perturbations():
    assert checks.purity_ok(4.0 ** -6, 6)
    assert not checks.purity_ok(4.0 ** -6 + 1e-9, 6)
    assert checks.span_ok(25, 5) and not checks.span_ok(24, 5)
    assert checks.row_norm_ok(0.5) and not checks.row_norm_ok(0.5 + 1e-9)
    verdicts = {"a": True, "b": True, "c": True, "d": True}
    assert checks.relations_all_hold(verdicts)
    assert not checks.relations_all_hold({**verdicts, "c": False})


# -- the benchmark runs clean ------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_has_no_failures(name):
    result, lines = run.run_workload(name, seed=7, seconds=0, trace=False, tiny=True)
    assert result["failed"] == 0, lines
    assert result["correct"] and result["attempted"] >= run.MIN_SAMPLES
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_and_self_times_fit_the_wall(name):
    first, _ = run.run_workload(name, seed=11, seconds=0, trace=True, tiny=True)
    second, _ = run.run_workload(name, seed=11, seconds=0, trace=True, tiny=True)
    assert first["failed"] == 0
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(first["metrics"]) == names
    for metric, unit in tracing.PER_LAYER:
        if unit in ("count", "bytes"):
            assert first["metrics"][metric] == second["metrics"][metric], metric
    values = {m: v["value"] for m, v in first["metrics"].items()}
    self_total = sum(v for m, v in values.items() if m.endswith(".self_s"))
    assert self_total <= values["trace.wall_s"]
    if name == "wide-graphs":
        assert values["classify.condensations_per_call"] == 7


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        build = getattr(workloads, name.replace("-", "_"))
        a = [op.name for op in build(random.Random(2), str(tmp_path), True)]
        first = sorted(p.read_text() for p in Path(tmp_path).iterdir())
        b = [op.name for op in build(random.Random(2), str(tmp_path), True)]
        assert a == b
        assert sorted(p.read_text() for p in Path(tmp_path).iterdir()) == first


def test_tracer_restores_the_program():
    before = gn.graphs.condensation, gn.reps.FiniteRepresentation.__init__
    tracer = tracing.Tracer()
    tracer.install()
    assert gn.graphs.condensation is not before[0]
    tracer.uninstall()
    assert (gn.graphs.condensation, gn.reps.FiniteRepresentation.__init__) == before
