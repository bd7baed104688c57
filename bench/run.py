"""Run one graphnest benchmark workload and print its metrics.

    python3 bench/run.py --workload quadrature --seed 1 --seconds 30 --trace 0

One process drives graphnest's public API in a closed loop: one caller
starts each operation when the previous one has returned.  A run measures
set-up (fresh interpreters importing graphnest), builds the workload's
inputs from the seed, makes one untimed warm-up pass over the operation
list, then timed passes until ``--seconds`` have gone by and the last
statistics window is whole.  Every output is checked, outside
the timing.  With ``--trace 1`` the timed passes run under the tracer and
the run reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the 511-dimensional products would otherwise spread over
# every core of a shared machine.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Timing statistics are taken per window, the fewest whole passes with at
# least MIN_SAMPLES operations (so ten or more lie beyond the 90th
# percentile), and the run reports the median over its windows: the host's
# slow spells then move a run's figures less than a pooled average would.
MIN_SAMPLES = 100
SETUP_STARTS = 7

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_program():
    """Import graphnest from this checkout's ``src``, and nowhere else."""
    package = SRC / "graphnest" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a graphnest checkout")
    sys.path.insert(0, str(SRC))
    import graphnest

    if Path(graphnest.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: graphnest imported from {graphnest.__file__}, not {SRC}")


def measure_setup(starts: int = SETUP_STARTS) -> float:
    """Median wall time from interpreter start through ``import graphnest``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(starts):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import graphnest"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.stdout_bytes = 0
        self.errors: dict[str, str] = {}


def run_pass(ops, tally: Tally | None, tracer=None) -> None:
    """One pass over the operation list against a fresh context."""
    ctx: dict = {}
    gc.collect()
    for op in ops:
        span = tracer.enter("bench." + op.name) if tracer else None
        t0 = time.perf_counter()
        try:
            result = op.run(ctx)
            raised = None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, raised = None, exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.leave(span)
        if raised is None:
            try:
                ok = bool(op.check(result))
            except Exception as exc:
                ok, raised = False, exc
            wrong = not ok
        else:
            wrong = False
        if tally is None:
            continue
        tally.attempted += 1
        tally.latencies.append(elapsed)
        if raised is not None or wrong:
            tally.failed += 1
            tally.wrong += wrong
            tally.errors.setdefault(op.name, repr(raised) if raised else "check failed")
    if tally is not None:
        tally.stdout_bytes += ctx.get("stdout_bytes", 0)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns the result object and the report lines."""
    import workloads
    from tracing import Tracer

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; one of {workloads.WORKLOADS}")
    setup_s = None if trace else measure_setup()
    workdir = OUT / "inputs" / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    build = getattr(workloads, name.replace("-", "_"))
    ops = build(random.Random(seed), str(workdir), tiny)

    run_pass(ops, None)  # warm-up, untimed and uncounted
    # Peak memory over set-up and one whole pass: a fixed amount of work.
    # Later passes only add allocator fragmentation, which varies run to run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    window = -(-MIN_SAMPLES // len(ops))  # passes per statistics window
    tally = Tally()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    passes = 0
    started = time.perf_counter()
    try:
        while passes % window or passes == 0 or time.perf_counter() - started < seconds:
            run_pass(ops, tally, tracer)
            passes += 1
    finally:
        if tracer:
            tracer.uninstall()

    windows = passes // window
    lines = [
        f"workload {name} seed {seed}: {len(ops)} operations per pass, "
        f"{passes} timed passes, {len(tally.latencies)} latency samples "
        f"in {windows} windows of {window * len(ops)}",
        f"attempted {tally.attempted} failed {tally.failed} (wrong outputs {tally.wrong})",
    ]
    lines += [f"failing operation {op}: {why}" for op, why in tally.errors.items()]
    if tracer:
        from tracing import PER_LAYER

        values = tracer.metrics(passes, tally.stdout_bytes)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER}
        raw_path = OUT / f"trace-{name}-seed{seed}.json"
        tracer.write(raw_path)
    else:
        lat = tally.latencies
        size = window * len(ops)
        chunks = [lat[i:i + size] for i in range(0, len(lat), size)]
        deciles = [statistics.quantiles(c, n=10, method="inclusive") for c in chunks]
        values = {
            "ops_per_s": statistics.median(len(c) / sum(c) for c in chunks),
            "latency_p50_ms": 1e3 * statistics.median(d[4] for d in deciles),
            "latency_p90_ms": 1e3 * statistics.median(d[8] for d in deciles),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        raw_path = OUT / f"run-{name}-seed{seed}.json"
        with open(raw_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"operations": [op.name for op in ops], "passes": passes,
                 "latencies_s": lat, "metrics": values},
                fh,
            )
    lines += [f"{m} {v['value']!r} {v['unit']}" for m, v in metrics.items()]
    lines.append(f"raw output: {raw_path.relative_to(ROOT)}")
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    sys.path.insert(0, str(BENCH))
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
