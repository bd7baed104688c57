"""Spans around calls into graphnest's modules, recorded from outside.

The tracer wraps public functions (and ``FiniteRepresentation.__init__``)
in place while a traced run lasts.  A module that imported a function under
its own name holds its own reference, so every ``graphnest`` module in
``sys.modules`` whose attribute is the original function gets the wrapper.
(``import graphnest.classify as m`` would return the re-exported function,
not the module, which is why modules are looked up in ``sys.modules``.)

Spans are kept in memory as ``[name, start, end, parent]`` and written out
when the run ends.  A span's self time is its duration minus the time its
direct children cover; calls are single-threaded, so children nest.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute); the span name is "<layer>.<function>".
TRACED = (
    ("graphs.parse_graph", "graphnest.graphs", "parse_graph"),
    ("graphs.condensation", "graphnest.graphs", "condensation"),
    ("graphs.reaches", "graphnest.graphs", "reaches"),
    ("graphs.decompose_path", "graphnest.graphs", "decompose_path"),
    ("graphs.complete_to_cycle", "graphnest.graphs", "complete_to_cycle"),
    ("classify.classify", "graphnest.classify", "classify"),
    ("reps.evaluate", "graphnest.reps", "evaluate"),
    ("reps.check_relations", "graphnest.reps", "check_relations"),
    ("reps.purity_defect", "graphnest.reps", "purity_defect"),
    ("elements.truncated_fock_basis", "graphnest.elements", "truncated_fock_basis"),
    ("elements.truncated_left_regular", "graphnest.elements", "truncated_left_regular"),
    ("linalg.span_closure_dim", "graphnest.linalg", "span_closure_dim"),
    ("linalg.operator_norm", "graphnest.linalg", "operator_norm"),
    ("recovery.recover_irreducible", "graphnest.recovery", "recover_irreducible"),
    ("recovery.recover_nest", "graphnest.recovery", "recover_nest"),
    ("recovery.recover_upper", "graphnest.recovery", "recover_upper"),
    ("recovery.separate", "graphnest.recovery", "separate"),
    ("recovery.is_in_radical", "graphnest.recovery", "is_in_radical"),
    ("cli.main", "graphnest.cli", "main"),
)
REP_BUILT = "reps.rep_built"
RECOVERIES = (
    "recovery.recover_irreducible", "recovery.recover_nest",
    "recovery.recover_upper", "recovery.separate",
)

# Per-layer metrics, in BENCHMARK.json order, with their units.
PER_LAYER = (
    ("graphs.parse_graph.self_s", "s"),
    ("graphs.condensation.calls", "count"),
    ("graphs.condensation.self_s", "s"),
    ("graphs.reaches.calls", "count"),
    ("graphs.reaches.self_s", "s"),
    ("graphs.decompose_path.self_s", "s"),
    ("graphs.complete_to_cycle.self_s", "s"),
    ("classify.classify.self_s", "s"),
    ("classify.condensations_per_call", "count"),
    ("reps.rep_built.count", "count"),
    ("reps.rep_built.self_s", "s"),
    ("reps.rep_bytes", "bytes"),
    ("reps.evaluate.calls", "count"),
    ("reps.evaluate.self_s", "s"),
    ("reps.check_relations.self_s", "s"),
    ("reps.purity_defect.self_s", "s"),
    ("elements.truncated_fock_basis.self_s", "s"),
    ("elements.truncated_left_regular.self_s", "s"),
    ("linalg.span_closure_dim.self_s", "s"),
    ("linalg.operator_norm.calls", "count"),
    ("linalg.operator_norm.self_s", "s"),
    ("recovery.pairing_evals", "count"),
    ("recovery.pairing_evals_per_op", "count"),
    ("recovery.recover.self_s", "s"),
    ("recovery.separate.self_s", "s"),
    ("recovery.is_in_radical.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.wall_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rep_bytes = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave(index)

        return traced

    def _wrap_init(self, init):
        @functools.wraps(init)
        def traced_init(rep, *args, **kwargs):
            index = self.enter(REP_BUILT)
            try:
                init(rep, *args, **kwargs)
            finally:
                self.leave(index)
            images = len(rep.vertex_images) + len(rep.edge_images)
            self.rep_bytes += 16 * rep.dimension ** 2 * images

        return traced_init

    # -- patching ------------------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("graphnest.cli")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "graphnest" or name.startswith("graphnest."))
        ]
        for span, module, attr in TRACED:
            original = getattr(sys.modules[module], attr)
            wrapped = self.wrap(span, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapped)
        cls = sys.modules["graphnest.reps"].FiniteRepresentation
        self._restore.append((cls, "__init__", cls.__init__))
        cls.__init__ = self._wrap_init(cls.__init__)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------------------

    def metrics(self, passes: int, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics per timed pass."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]

        def under(i, names) -> bool:
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return True
                parent = spans[parent][3]
            return False

        in_classify = sum(
            1 for i, s in enumerate(spans)
            if s[0] == "graphs.condensation" and under(i, ("classify.classify",))
        )
        pairing = sum(
            1 for i, s in enumerate(spans)
            if s[0] == "reps.evaluate" and under(i, RECOVERIES)
        )
        recoveries = sum(calls.get(n, 0) for n in RECOVERIES)
        wall = sum(end - start for name, start, end, parent in spans if parent < 0)

        def per_pass(x):
            return x / passes

        out = {}
        for metric, _ in PER_LAYER:
            layer_fn, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = per_pass(self_s.get(layer_fn, 0.0))
            elif kind in ("calls", "count"):
                out[metric] = per_pass(calls.get(layer_fn, 0))
        out["recovery.recover.self_s"] = per_pass(sum(
            self_s.get(n, 0.0) for n in RECOVERIES if n != "recovery.separate"
        ))
        out["classify.condensations_per_call"] = (
            in_classify / calls["classify.classify"] if calls.get("classify.classify") else 0.0
        )
        out["reps.rep_bytes"] = per_pass(self.rep_bytes)
        out["recovery.pairing_evals"] = per_pass(pairing)
        out["recovery.pairing_evals_per_op"] = pairing / recoveries if recoveries else 0.0
        out["cli.stdout_bytes"] = per_pass(stdout_bytes)
        out["trace.wall_s"] = per_pass(wall)
        return out

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "names": names,
                    "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                },
                fh,
            )
