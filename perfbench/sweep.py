"""``sweep-srt``: ``run_sweep`` with ``workers = nproc`` over a fixed grid,
once into an empty store (cold: every point solved and written) and then
again on the identical spec (warm: every point read back).

The grid is mostly SRT points (``make_taskset`` families ``mixed`` and
``cloud``, k in {160, 640}, m in {8, 16}, two replicates; each runs
``solve_srt(record_steps=True)`` and ``validate_task_schedule``) plus
three SRJ points at n = 5000.  It is the only workload that uses the
tasks layer, the sweep fabric's worker pool and its content-addressed
store, which it both writes and reads.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

from .common import (
    WORK,
    NullTracer,
    Result,
    SpeedLog,
    Tracer,
    median,
    peak_rss_mb,
    settle_gc,
    time_setup,
)

SWEEP_NAME = "perfbench-sweep-srt"
#: warm re-runs per cold run
WARM_REPS = 5


def grid(seed: int, small: bool = False) -> List[Dict]:
    """The fixed point list; only the instance seeds depend on *seed*."""
    points: List[Dict] = []
    srt = [("mixed", 160, 8), ("cloud", 160, 8)] if small else [
        (family, k, m)
        for family in ("mixed", "cloud")
        for k in (160, 640)
        for m in (8, 16)
    ]
    for rep in range(1 if small else 2):
        for family, k, m in srt:
            points.append({"kind": "srt", "family": family, "k": k, "m": m,
                           "rep": rep})
    for family in ("uniform",) if small else (
            "uniform", "anti_correlated", "heavy_tail"):
        points.append({"kind": "srj", "family": family, "m": 8,
                       "n": 1_000 if small else 5_000})
    for index, params in enumerate(points):
        params["seed"] = seed * 1_000_003 + index
    return points


def run_point(params: Dict) -> Dict:
    """The sweep's point function (module-level: it is pickled by name to
    the pool workers).  Times its own calls into each layer."""
    from repro.core.bounds import makespan_lower_bound
    from repro.core.validate import validate_result
    from repro.engine import solve_srj
    from repro.tasks.scheduler import solve_srt
    from repro.tasks.validate import validate_task_schedule
    from repro.workloads import make_instance, make_taskset

    rng = random.Random(params["seed"])
    clock = time.perf_counter
    t0 = clock()
    if params["kind"] == "srt":
        taskset = make_taskset(params["family"], rng, params["m"],
                               params["k"])
        t1 = clock()
        result = solve_srt(taskset, backend="int", record_steps=True)
        t2 = clock()
        violations = validate_task_schedule(taskset, result)
        t3 = clock()
        return {
            "makespan": result.makespan,
            "violations": len(violations),
            "spans": [["workloads.make_taskset", t1 - t0],
                      ["tasks.solve_srt", t2 - t1],
                      ["tasks.validate_task_schedule", t3 - t2]],
        }
    instance = make_instance(params["family"], rng, params["m"], params["n"])
    t1 = clock()
    result = solve_srj(instance, backend="int")
    t2 = clock()
    lower = makespan_lower_bound(instance)
    t3 = clock()
    report = validate_result(result)
    t4 = clock()
    return {
        "makespan": result.makespan,
        "lower_bound": lower,
        "violations": len(report.violations),
        "spans": [["workloads.make_instance", t1 - t0],
                  ["engine.solve_srj", t2 - t1],
                  ["bounds.makespan_lower_bound", t3 - t2],
                  ["validate.validate_result", t4 - t3]],
    }


def _store_bytes(root: Path) -> int:
    return sum(
        path.stat().st_size for path in root.rglob("*.json")
        if len(path.stem) == 64
    )


def sweep_reps(seed: int, seconds: float, tracer: Tracer, result: Result,
               prefix: str, speed: SpeedLog, small: bool = False,
               ) -> Tuple[List[float], List[float], Dict]:
    """Cold-then-warm rounds: one, then more while another still fits in
    *seconds*.

    The machine speed is sampled after each run.  Returns the wall
    seconds of the cold and warm runs and the counts of the last round.
    """
    from repro.sweep import SweepSpec, canonical_json, run_sweep

    workers = os.cpu_count() or 1
    spec = SweepSpec.from_points(SWEEP_NAME, run_point, grid(seed, small),
                                 version="1")
    total = len(spec)
    cold_s: List[float] = []
    warm_s: List[float] = []
    counts: Dict = {}
    t_start = time.perf_counter()
    rep = 0
    last = 0.0
    while rep == 0 or time.perf_counter() - t_start + last <= seconds:
        t_rep = time.perf_counter()
        store = WORK / f"store-{os.getpid()}-{prefix}-{rep}"
        shutil.rmtree(store, ignore_errors=True)
        try:
            t0 = time.perf_counter()
            with tracer.op(f"{prefix}/cold/{rep}", "bench.sweep"):
                with tracer.span("sweep.run_sweep"):
                    cold = run_sweep(spec, cache_dir=str(store),
                                     workers=workers)
            cold_s.append(time.perf_counter() - t0)
            speed.sample()
            ok = cold.complete and cold.solved == total
            result.check(ok, f"{prefix} cold {rep}: solved {cold.solved} "
                             f"of {total}")
            for index, row in enumerate(cold.rows):
                good = row["violations"] == 0 and \
                    row["makespan"] >= row.get("lower_bound", 0)
                result.check(good, f"{prefix} cold {rep} point {index}: "
                                   f"{row['violations']} violation(s)")
                tracer.add_op(f"{prefix}/point/{rep}/{index}", "bench.point",
                              row["spans"])
            counts["sweep.solved"] = cold.solved
            counts["sweep.store_bytes"] = _store_bytes(store)
            cold_text = canonical_json(cold.rows)
            for k in range(WARM_REPS):
                t0 = time.perf_counter()
                with tracer.op(f"{prefix}/warm/{rep}/{k}", "bench.sweep"):
                    with tracer.span("sweep.run_sweep"):
                        warm = run_sweep(spec, cache_dir=str(store),
                                         workers=workers)
                warm_s.append(time.perf_counter() - t0)
                speed.sample()
                same = canonical_json(warm.rows) == cold_text
                result.check(
                    same and warm.cache_hits == total and warm.solved == 0,
                    f"{prefix} warm {rep}.{k}: hits {warm.cache_hits}/"
                    f"{total}, solved {warm.solved}, rows identical {same}",
                )
                counts["sweep.cache_hits"] = warm.cache_hits
                counts["sweep.hit_ratio.warm"] = warm.cache_hits / total
        finally:
            shutil.rmtree(store, ignore_errors=True)
        rep += 1
        last = time.perf_counter() - t_rep
    return cold_s, warm_s, counts


def layer_metrics(tracer: Tracer, prefix: str, counts: Dict,
                  result: Result, source: str) -> None:
    for span_name, metric in (
        ("tasks.solve_srt", "tasks.solve_srt_s"),
        ("tasks.validate_task_schedule", "tasks.validate_s"),
    ):
        result.layer(metric, median(tracer.durations(span_name, prefix)),
                     "s", source)
    units = {"sweep.hit_ratio.warm": "ratio", "sweep.store_bytes": "bytes"}
    for name, value in counts.items():
        result.layer(name, value, units.get(name, "count"), source)


def run(seed: int, seconds: float, traced: bool) -> Tuple[Result, Tracer]:
    result = Result("sweep-srt")
    speed = SpeedLog()
    setup_wall = time_setup("sweep", speed)
    # warm-up: the small grid once, cold and warm (pool start, imports)
    sweep_reps(seed, 0.0, NullTracer(), result, "warmup", SpeedLog(),
               small=True)
    settle_gc()
    tracer: Tracer = Tracer() if traced else NullTracer()
    cold, warm, counts = sweep_reps(seed, seconds, tracer, result,
                                    "sweep-srt", speed)
    points = len(grid(seed))
    points_per_s = median([points / s for s in cold])
    warm_s = median(warm)
    factor = speed.factor()
    print(f"# sweep: {len(cold)} cold runs of {points} points, "
          f"{len(warm)} warm runs; speed factor {factor:.4g}")
    result.named.update({
        "setup_s": (setup_wall * factor, "s"),
        "points_per_s.cold": (points_per_s / factor, "1/s"),
        "warm_s": (warm_s * factor, "s"),
        "setup_s.wall": (setup_wall, "s"),
        "points_per_s.cold.wall": (points_per_s, "1/s"),
        "warm_s.wall": (warm_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    result.end_to_end = {
        "setup_s": result.named["setup_s"],
        "throughput": result.named["points_per_s.cold"],
        "latency_ms": (warm_s * factor * 1e3, "ms"),
        "peak_rss_mb": result.named["peak_rss_mb"],
    }
    if traced:
        layer_metrics(tracer, "sweep-srt/", counts, result, "sweep-srt grid")
    return result, tracer


def mini(seed: int, tracer: Tracer, result: Result) -> None:
    """One cold/warm pair of the small grid, for the per-layer numbers of
    the other workloads' traced runs."""
    _, _, counts = sweep_reps(seed, 0.0, tracer, result, "mini-sweep",
                              SpeedLog(), small=True)
    layer_metrics(tracer, "mini-sweep/", counts, result, "mini sweep")
