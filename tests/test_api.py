"""The package's public surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphnest as gn

SRC = str(Path(gn.__file__).resolve().parents[1])


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout; its stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_every_public_name_resolves():
    missing = [name for name in gn.__all__ if not hasattr(gn, name)]
    assert missing == []
    assert len(set(gn.__all__)) == len(gn.__all__)


def test_import_leaves_numpy_unloaded():
    assert fresh("import sys, graphnest; print('numpy' in sys.modules)") == "False"


def test_graph_only_session_leaves_numpy_unloaded():
    code = """
import sys
import graphnest as gn

g = gn.parse_graph("vertex x\\nvertex y\\nedge a x x\\nedge e x y\\nedge f y y\\n")
gn.classify(g).to_json()
cond = gn.condensation(g)
assert gn.reaches(g, "x", "y") and not gn.reaches(g, "y", "x")
paths = gn.enumerate_paths(g, "x", "y", 3)
a = gn.FormalElement(g, [(p, 1.0 + k) for k, p in enumerate(paths)])
assert len(paths) == 6 and gn.element_from_json(g, gn.element_to_json(a)) == a
print(len(cond.components), 'numpy' in sys.modules)
"""
    assert fresh(code) == "2 False"


def test_first_numerical_name_loads_numpy():
    code = """
import sys
import graphnest as gn

before = 'numpy' in sys.modules
print(before, gn.separate is sys.modules['graphnest.recovery'].separate, 'numpy' in sys.modules)
"""
    assert fresh(code) == "False True True"


def test_numerical_name_follows_its_module_when_replaced_and_restored():
    # What a tracer or a mock does: replace the function in its defining module,
    # let the package read it once, then put the original back.
    code = """
import graphnest as gn
import graphnest.recovery as recovery

original = recovery.separate
recovery.separate = stand_in = lambda *args: None
first = gn.separate
recovery.separate = original
print(first is stand_in, gn.separate is original)
"""
    assert fresh(code) == "True True"


def test_numerical_modules_resolve_as_submodules():
    code = """
import graphnest as gn

print(*(getattr(gn, m).__name__ for m in ("linalg", "reps", "recovery", "cli")))
"""
    assert fresh(code) == "graphnest.linalg graphnest.reps graphnest.recovery graphnest.cli"


def test_dir_covers_all_before_any_name_is_resolved():
    code = """
import sys
import graphnest as gn

print(sorted(set(gn.__all__) - set(dir(gn))), 'numpy' in sys.modules)
"""
    assert fresh(code) == "[] False"


def test_star_import_binds_every_public_name():
    code = """
import graphnest
from graphnest import *

print([name for name in graphnest.__all__ if name not in globals()])
"""
    assert fresh(code) == "[]"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gn.no_such_name


def test_cli_import_loads_the_numerical_layer():
    # bench/run.py --trace 1 wraps functions it looks up in these modules
    # right after importing graphnest.cli.
    code = """
import sys
import graphnest.cli

print(*sorted(m for m in sys.modules if m.startswith("graphnest.")))
"""
    loaded = set(fresh(code).split())
    assert {
        "graphnest.graphs", "graphnest.classify", "graphnest.elements",
        "graphnest.linalg", "graphnest.reps", "graphnest.recovery",
    } <= loaded
