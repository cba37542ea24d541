"""What the BENCH rows of the sweep registry measure.

Every BENCH artifact is one row of :data:`repro.sweep.registry.SWEEPS`
and is produced by ``repro-sched sweep run <name>``.  This module holds
the pieces those rows are built from:

* :func:`srj_point` — the E4 runtime sweep (``bench`` → ``BENCH_1.json``):
  the general SRJ kernel on the Fraction reference backend and the
  scaled-integer backend, cross-checked for identical makespans;
* :func:`srt_point` — the same for the Theorem-4.8 SRT scheduler
  (``bench-srt`` → ``BENCH_2.json``), cross-checked on completion times;
* :func:`obs_point` — the observer-overhead gate (``bench-obs`` →
  ``BENCH_3.json``), see below;
* :func:`axis_spec` — the one spec builder for the two-axis runtime
  sweeps (size axis at fixed m, then m at fixed size), and
  :func:`power_law_summary` — their speedups plus the fitted power-law
  exponent of time vs the size axis (the Theorem 3.3 scaling claim);
* :func:`obs_spec` / :func:`obs_summary` for the gate.

Runtime rows report per-point wall clock as the median of ``reps`` with
the mean alongside.  Timing specs are ``serial=True``: uncached points
run in-process so concurrent workers never distort the measured clock.

The observer gate times the SRJ int kernel in three modes — ``base``
(``observer=None``, the bare loop), ``noop`` (``NULL_OBSERVER``, pure
dispatch overhead) and ``stats`` (``collect_stats=True``) — and gates
``noop`` within :data:`GATE_NOOP` (5%) and ``stats`` within
:data:`GATE_STATS` (30%) of ``base``.  Rounds are interleaved, each
sample batches :data:`INNER` solves, and the gate *ratio* uses each
mode's fastest batched sample: ambient load only ever inflates samples,
so the batched minimum tracks noise-free kernel time, while a ratio of
two independently-noisy medians can swing by more than the 5% gate on a
busy host (a single-solve sample once drove BENCH_3 to −0.42%).
"""

from __future__ import annotations

import random
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..sweep import SweepSpec, scale_grid
from .parallel import seed_for

__all__ = [
    "SCHEMA", "GATE_NOOP", "GATE_STATS", "peak_rss_kb",
    "srj_point", "srt_point", "obs_point", "axis_spec", "obs_spec",
    "power_law_summary", "obs_summary",
]

#: schema version of the emitted JSON (bump on incompatible change);
#: 2 = timing columns are median-of-reps with ``*_mean_s`` alongside
SCHEMA = 2

#: maximum tolerated relative overhead of an installed no-op observer
GATE_NOOP = 0.05

#: maximum tolerated relative overhead of full stats collection
GATE_STATS = 0.30

MODES = ("base", "noop", "stats")

#: solves per timed observer sample — a single small-scale solve is only a
#: few ms, where OS jitter alone swings samples by ±5%; batching stretches
#: each sample past ~10 ms so the ratio is decided by the kernels
INNER = 5


def peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize to KiB.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        rss //= 1024
    return int(rss)


def _time_backend(solve: Callable, problem, backend: str,
                  reps: int) -> Tuple[List[float], object]:
    times: List[float] = []
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = solve(problem, backend=backend)
        times.append(time.perf_counter() - t0)
    return times, result


def _time_both_backends(solve: Callable, problem, reps: int):
    """``(fraction result, int result, timing columns)`` of *solve*."""
    t_frac, res_frac = _time_backend(solve, problem, "fraction", reps)
    t_int, res_int = _time_backend(solve, problem, "int", reps)
    med_frac, med_int = statistics.median(t_frac), statistics.median(t_int)
    return res_frac, res_int, {
        "fraction_s": round(med_frac, 6), "int_s": round(med_int, 6),
        "speedup": round(med_frac / med_int, 2) if med_int > 0
        else float("inf"),
        "fraction_mean_s": round(sum(t_frac) / len(t_frac), 6),
        "int_mean_s": round(sum(t_int) / len(t_int), 6),
    }


def srj_point(params: Dict) -> Dict[str, object]:
    """Solve-and-time one E4 grid point (pure function of *params*)."""
    from ..engine import solve_srj
    from ..workloads import make_instance

    m, n = params["m"], params["n"]
    inst = make_instance("uniform", random.Random(params["seed"]), m, n)
    frac, fast, columns = _time_both_backends(solve_srj, inst, params["reps"])
    if frac.makespan != fast.makespan:
        raise AssertionError(
            f"backend mismatch at (m={m}, n={n}): "
            f"fraction makespan {frac.makespan} != int makespan "
            f"{fast.makespan}"
        )
    return {"sweep": params["sweep"], "m": m, "n": n,
            "makespan": frac.makespan, **columns}


def srt_point(params: Dict) -> Dict[str, object]:
    """Solve-and-time one SRT grid point (pure function of *params*)."""
    from ..tasks import solve_srt
    from ..workloads import make_taskset

    m, k = params["m"], params["k"]
    ti = make_taskset("mixed", random.Random(params["seed"]), m, k)
    frac, fast, columns = _time_both_backends(solve_srt, ti, params["reps"])
    if frac.completion_times != fast.completion_times:
        raise AssertionError(
            f"backend mismatch at (m={m}, k={k}): completion times "
            "differ between fraction and int"
        )
    return {
        "sweep": params["sweep"], "m": m, "k": k, "n_jobs": ti.n_jobs,
        "makespan": frac.makespan,
        "sum_completion": frac.sum_completion_times(), **columns,
    }


def _solve_mode(inst, mode: str):
    from ..engine import solve_srj
    from ..obs import NULL_OBSERVER

    if mode == "base":
        return solve_srj(inst, backend="int")
    if mode == "noop":
        return solve_srj(inst, backend="int", observer=NULL_OBSERVER)
    return solve_srj(inst, backend="int", collect_stats=True)


def obs_point(params: Dict) -> Dict[str, object]:
    """Time the three instrumentation modes on one shape (pure in *params*)."""
    from ..workloads import make_instance

    m, n, reps = params["m"], params["n"], params["reps"]
    inst = make_instance("uniform", random.Random(params["seed"]), m, n)
    # warm-up round: JIT-free Python still benefits (allocator, caches)
    # and it cross-checks that instrumentation never changes the result
    makespans = {mode: _solve_mode(inst, mode).makespan for mode in MODES}
    if len(set(makespans.values())) != 1:
        raise AssertionError(
            f"observer changed the schedule at (m={m}, n={n}): "
            f"{makespans}"
        )
    times: Dict[str, List[float]] = {mode: [] for mode in MODES}
    for _ in range(reps):
        for mode in MODES:  # interleaved: noise hits all modes alike
            t0 = time.perf_counter()
            for _ in range(INNER):
                _solve_mode(inst, mode)
            times[mode].append((time.perf_counter() - t0) / INNER)
    med = {mode: statistics.median(times[mode]) for mode in MODES}
    mean = {mode: sum(times[mode]) / reps for mode in MODES}
    best = {mode: min(times[mode]) for mode in MODES}
    return {
        "m": m, "n": n, "makespan": makespans["base"],
        "base_s": round(med["base"], 6),
        "noop_s": round(med["noop"], 6),
        "stats_s": round(med["stats"], 6),
        "noop_overhead": round(best["noop"] / best["base"] - 1.0, 4),
        "stats_overhead": round(best["stats"] / best["base"] - 1.0, 4),
        "base_mean_s": round(mean["base"], 6),
        "noop_mean_s": round(mean["noop"], 6),
        "stats_mean_s": round(mean["stats"], 6),
    }


def axis_spec(
    name: str,
    point: Callable[[Dict], Dict],
    kind: str,
    axis: str,
    scale: str = "small",
    seed: int = 0,
    reps: Optional[int] = None,
) -> SweepSpec:
    """A two-axis runtime sweep: *axis* at fixed m, then m at fixed *axis*.

    Reads the ``<axis>s``, ``ms``, ``<axis>_fixed``, ``m_fixed`` and
    ``reps`` entries of ``scale_grid(kind, scale)``; point *i* is seeded
    ``seed_for(seed, i)`` and tagged ``sweep=<axis>`` or ``sweep=m``.
    """
    grid = scale_grid(kind, scale)
    reps = reps if reps is not None else grid["reps"][0]
    m_fixed, size_fixed = grid["m_fixed"][0], grid[f"{axis}_fixed"][0]
    cells = [(axis, m_fixed, size) for size in grid[f"{axis}s"]]
    cells += [("m", m, size_fixed) for m in grid["ms"]]
    params = [
        {"sweep": sweep, "m": m, axis: size,
         "seed": seed_for(seed, idx), "reps": reps}
        for idx, (sweep, m, size) in enumerate(cells)
    ]
    return SweepSpec.from_points(
        name, point, params, version=f"v{SCHEMA}", serial=True
    )


def obs_spec(
    scale: str = "small", seed: int = 0, reps: Optional[int] = None
) -> SweepSpec:
    """The observer-overhead sweep (one point per ``(m, n)`` shape)."""
    grid = scale_grid("obs", scale)
    reps = reps if reps is not None else grid["reps"][0]
    params = [
        {"m": m, "n": n, "seed": seed_for(seed, idx), "reps": reps}
        for idx, (m, n) in enumerate(grid["shapes"])
    ]
    return SweepSpec.from_points(
        "bench-obs", obs_point, params, version=f"v{SCHEMA}", serial=True
    )


def power_law_summary(rows: List[Dict], axis: str) -> Dict[str, object]:
    """Speedups and the per-backend power-law exponent of time vs *axis*."""
    from ..analysis.stats import fit_power_law

    sized = [r for r in rows if r["sweep"] == axis]
    largest = max(sized, key=lambda r: r[axis])
    summary: Dict[str, object] = {f"largest_{axis}": largest[axis]}
    if "n_jobs" in largest:
        summary["largest_n_jobs"] = largest["n_jobs"]
    summary[f"speedup_at_largest_{axis}"] = largest["speedup"]
    summary["max_speedup"] = max(r["speedup"] for r in rows)
    summary["min_speedup"] = min(r["speedup"] for r in rows)
    xs = [float(r[axis]) for r in sized]
    for backend in ("fraction", "int"):
        exponent, _ = fit_power_law(
            xs, [max(r[f"{backend}_s"], 1e-9) for r in sized]
        )
        summary[f"power_law_exponent_{backend}"] = round(exponent, 3)
    summary["peak_rss_kb"] = peak_rss_kb()
    return summary


def obs_summary(rows: List[Dict]) -> Dict[str, object]:
    """Worst overhead per mode against :data:`GATE_NOOP`/:data:`GATE_STATS`."""
    max_noop = max(r["noop_overhead"] for r in rows)
    max_stats = max(r["stats_overhead"] for r in rows)
    return {
        "max_noop_overhead": max_noop,
        "max_stats_overhead": max_stats,
        "gate_noop": GATE_NOOP,
        "gate_stats": GATE_STATS,
        "passed": max_noop <= GATE_NOOP and max_stats <= GATE_STATS,
        "peak_rss_kb": peak_rss_kb(),
    }
