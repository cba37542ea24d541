"""E4 — running-time scaling (the ``O((m+n)·n)`` claim of Theorem 3.3).

The table sweeps n (fixed m) and m (fixed n), fits power-law exponents, and
the micro-benchmarks below give pytest-benchmark's statistically robust
timings at three sizes — the "series" behind the scaling figure.  Each size
is benchmarked on both the Fraction reference backend and the exact
scaled-integer kernel, so a regression in either shows up here.

``bench_e4_regression_report`` additionally runs the ``bench`` row of the
sweep registry (``repro-sched sweep run bench``) and writes its
``BENCH_1.json`` next to the repo root; this file records per-point
wall-clock, speedup and peak RSS and is the artifact the ≥10× speedup
acceptance criterion is checked against.  The smoke invocation is::

    REPRO_BENCH_SCALE=small pytest benchmarks/bench_e4_runtime.py -q
"""

import random
from pathlib import Path

from repro.analysis import run_e4
from repro.core.scheduler import schedule_srj
from repro.engine import solve_srj
from repro.sweep.registry import get_sweep, run_entry
from repro.workloads import make_instance

from conftest import SCALE, run_table

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_e4_table(benchmark, capsys):
    run_table(benchmark, capsys, run_e4)


def _inst(n, m=8, seed=42):
    return make_instance("uniform", random.Random(seed), m, n)


def bench_srj_n100(benchmark):
    inst = _inst(100)
    benchmark(schedule_srj, inst)


def bench_srj_n400(benchmark):
    inst = _inst(400)
    benchmark(schedule_srj, inst)


def bench_srj_n1600(benchmark):
    inst = _inst(1600)
    benchmark(schedule_srj, inst)


def bench_srj_m64_n400(benchmark):
    inst = _inst(400, m=64)
    benchmark(schedule_srj, inst)


def bench_srj_int_n400(benchmark):
    inst = _inst(400)
    benchmark(solve_srj, inst, backend="int")


def bench_srj_int_n1600(benchmark):
    inst = _inst(1600)
    benchmark(solve_srj, inst, backend="int")


def bench_srj_int_m64_n400(benchmark):
    inst = _inst(400, m=64)
    benchmark(solve_srj, inst, backend="int")


def bench_e4_regression_report(benchmark, capsys):
    """Run the BENCH_1.json registry row once under the benchmark timer."""
    out = REPO_ROOT / "BENCH_1.json"
    report = benchmark.pedantic(
        lambda: run_entry(get_sweep("bench"), SCALE, 0, out=str(out)),
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        s = report["summary"]
        print()
        print(
            f"BENCH_1.json written to {out} — speedup at n="
            f"{s['largest_n']}: {s['speedup_at_largest_n']}x "
            f"(min {s['min_speedup']}x, max {s['max_speedup']}x)"
        )
    assert report["rows"], "bench harness produced no rows"
    assert s["speedup_at_largest_n"] >= 1.0
