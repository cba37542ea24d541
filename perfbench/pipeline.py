"""``pipeline-50k``: the in-process CLI-solve path, one operation per
instance: generate -> solve_srj(int) -> makespan_lower_bound ->
validate_result -> serialize.

The generator, engine, bounds, validator and serializer do almost all
the work here, at a size where the kernel's superlinear growth and the
exact-Fraction edges show.  The service and the worker pool do none.
"""

from __future__ import annotations

import json
import random
import time
from typing import List, Optional, Tuple

from .common import (
    NullTracer,
    PhaseClock,
    Result,
    Tracer,
    SpeedLog,
    engine_observer,
    fit_exponent,
    median,
    peak_rss_mb,
    settle_gc,
    time_setup,
)

M = 8
N = 50_000
FAMILIES = ("uniform", "anti_correlated", "heavy_tail")
#: warm-up size: loads every lazy import and cache without the full cost
WARMUP_N = 2_000
#: scaling ladder of the traced run (n = 5*10^4 is the workload's own size)
LADDER = (1_000, 10_000, N)

#: pipeline phases: (span name, per-layer metric)
PHASES = (
    ("workloads.make_instance", "workloads.generate_s"),
    ("engine.solve_srj", "engine.solve_s"),
    ("bounds.makespan_lower_bound", "bounds.lower_bound_s"),
    ("validate.validate_result", "validate.validate_s"),
    ("io.serialize", "io.serialize_s"),
)
EXPONENTS = (
    ("workloads.make_instance", "workloads.exponent"),
    ("engine.solve_srj", "engine.exponent"),
    ("bounds.makespan_lower_bound", "bounds.exponent"),
    ("validate.validate_result", "validate.exponent"),
)


def op_inputs(seed: int, index: int) -> Tuple[str, int]:
    """Family and generator seed of operation *index* (families cycle)."""
    return FAMILIES[index % len(FAMILIES)], seed * 1_000_003 + index


def pipeline_op(tracer: Tracer, op_id: str, family: str, gen_seed: int,
                n: int) -> Tuple[Optional[str], PhaseClock, int]:
    """Run one instance through the whole path.

    Returns ``(problem or None, the op's clock, trace runs)``.
    """
    from repro import io
    from repro.core.bounds import makespan_lower_bound
    from repro.core.validate import validate_result
    from repro.engine import solve_srj
    from repro.workloads import make_instance

    observer = engine_observer(tracer)
    clock = PhaseClock()
    with tracer.op(op_id, "bench.op"):
        with clock.phase(), tracer.span("workloads.make_instance"):
            instance = make_instance(family, random.Random(gen_seed), M, n)
        with clock.phase(), tracer.span("engine.solve_srj"):
            result = solve_srj(instance, backend="int", observer=observer)
        with clock.phase(), tracer.span("bounds.makespan_lower_bound"):
            lower = makespan_lower_bound(instance)
        with clock.phase(), tracer.span("validate.validate_result"):
            report = validate_result(result)
        with clock.phase(), tracer.span("io.serialize"):
            document = io.instance_to_json(instance)
            completions = json.dumps(
                {str(j): t for j, t in sorted(result.completion_times.items())}
            )
    problem = None
    if not report.ok:
        problem = f"{op_id}: validate_result: {report.violations[:3]}"
    elif result.makespan < lower:
        problem = f"{op_id}: makespan {result.makespan} < bound {lower}"
    elif len(result.completion_times) != n or not document or not completions:
        problem = f"{op_id}: {len(result.completion_times)} of {n} jobs done"
    return problem, clock, len(result.trace)


def _ops(seed: int, seconds: float, result: Result) -> List[PhaseClock]:
    """Untraced ops, families in turn: one per family, then more while
    another op as long as the last still fits in *seconds*."""
    clocks: List[PhaseClock] = []
    t_start = time.perf_counter()
    while len(clocks) < len(FAMILIES) or \
            time.perf_counter() - t_start + clocks[-1].wall <= seconds:
        index = len(clocks)
        family, gen_seed = op_inputs(seed, index)
        problem, clock, _ = pipeline_op(
            NullTracer(), f"pipeline-50k/plain/{family}/{index}", family,
            gen_seed, N,
        )
        result.check(problem is None, problem or "")
        clocks.append(clock)
    return clocks


def warm_up(seed: int, result: Result) -> None:
    for index, family in enumerate(FAMILIES):
        problem, _, _ = pipeline_op(
            NullTracer(), f"warmup/{index}", family, seed + index, WARMUP_N
        )
        result.check(problem is None, problem or "")


def phase_metrics(tracer: Tracer, prefix: str, n: int, result: Result,
                  source: str) -> None:
    """Per-layer medians of the pipeline ops under *prefix* at size *n*."""
    for span_name, metric in PHASES:
        result.layer(metric, median(tracer.durations(span_name, prefix)),
                     "s", source)
    solve = tracer.durations("engine.solve_srj", prefix)
    validate = tracer.durations("validate.validate_result", prefix)
    result.layer("engine.us_per_job", median(solve) / n * 1e6, "us", source)
    result.layer("validate.per_solve",
                 median([v / s for v, s in zip(validate, solve)]), "ratio",
                 source)
    for phase in ("scale", "loop", "emit"):
        result.layer(f"engine.{phase}_s",
                     median(tracer.durations(f"engine.{phase}", prefix)),
                     "s", source)


def ladder(seed: int, tracer: Tracer, result: Result,
           top_prefix: str) -> None:
    """Scaling ladder on the ``uniform`` family: per-phase times at each
    size in :data:`LADDER` and a fitted exponent per layer.  The top rung
    is the already traced n = 5*10^4 ops under *top_prefix*."""
    for n in LADDER[:-1]:
        problem, _, _ = pipeline_op(
            tracer, f"ladder/{n}/uniform", "uniform", seed + n, n
        )
        result.check(problem is None, problem or "")
    prefixes = [f"ladder/{n}/" for n in LADDER[:-1]] + [top_prefix]
    for span_name, metric in EXPONENTS:
        times = [median(tracer.durations(span_name, p)) for p in prefixes]
        result.layer(metric, fit_exponent(LADDER, times), "1",
                     "ladder uniform n=1e3,1e4,5e4")
        print(f"# ladder {span_name}: " + ", ".join(
            f"n={n} {t:.6g} s" for n, t in zip(LADDER, times)))


def overhead_probe(seed: int, tracer: Tracer, result: Result) -> None:
    """The path for workloads that do not run it: one n = 5*10^4
    ``uniform`` instance untraced, then traced (the tracing overhead),
    then the scaling ladder."""
    problem, plain, _ = pipeline_op(NullTracer(), "probe/plain", "uniform",
                                    seed + N, N)
    result.check(problem is None, problem or "")
    prefix = f"ladder/{N}/"
    problem, traced, runs = pipeline_op(tracer, prefix + "uniform",
                                        "uniform", seed + N, N)
    result.check(problem is None, problem or "")
    source = "probe: uniform n=5e4"
    result.layer("trace.overhead", traced.norm / plain.norm - 1.0, "ratio",
                 source)
    result.layer("engine.trace_runs", runs, "count", source)
    phase_metrics(tracer, prefix, N, result, source)
    ladder(seed, tracer, result, prefix)


def _family_balanced(times: List[float]) -> Tuple[float, float]:
    """``(jobs per second, op p50)`` with every family weighted equally:
    per-family median op times, so the figures do not depend on how many
    ops of each family fitted in the run."""
    family_s = [median(times[i::len(FAMILIES)])
                for i in range(len(FAMILIES))]
    return N * len(FAMILIES) / sum(family_s), median(family_s)


def run(seed: int, seconds: float, traced: bool) -> Tuple[Result, Tracer]:
    result = Result("pipeline-50k")
    speed = SpeedLog()
    setup_wall = time_setup("pipeline", speed)
    warm_up(seed, result)
    settle_gc()
    clocks = _ops(seed, seconds, result)
    jobs_per_s, op_p50 = _family_balanced([c.norm for c in clocks])
    wall_jobs_per_s, wall_op_p50 = _family_balanced([c.wall for c in clocks])
    result.named.update({
        "setup_s": (setup_wall * speed.factor(), "s"),
        "jobs_per_s": (jobs_per_s, "1/s"),
        "op_p50_s": (op_p50, "s"),
        "setup_s.wall": (setup_wall, "s"),
        "jobs_per_s.wall": (wall_jobs_per_s, "1/s"),
        "op_p50_s.wall": (wall_op_p50, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })
    print(f"# pipeline: {len(clocks)} ops over {FAMILIES}; wall seconds "
          f"{[round(c.wall, 4) for c in clocks]}, normalized "
          f"{[round(c.norm, 4) for c in clocks]}")
    result.end_to_end = {
        "setup_s": result.named["setup_s"],
        "throughput": result.named["jobs_per_s"],
        "latency_ms": (op_p50 * 1e3, "ms"),
        "peak_rss_mb": result.named["peak_rss_mb"],
    }
    tracer: Tracer = NullTracer()
    if traced:
        tracer = Tracer()
        # the first cycle again, traced: the difference is the overhead
        traced_ops = []
        for index in range(len(FAMILIES)):
            family, gen_seed = op_inputs(seed, index)
            problem, clock, runs = pipeline_op(
                tracer, f"pipeline-50k/traced/{family}/{index}", family,
                gen_seed, N,
            )
            result.check(problem is None, problem or "")
            traced_ops.append((clock, runs))
        overhead = (
            sum(c.norm for c, _ in traced_ops)
            / sum(c.norm for c in clocks[:len(FAMILIES)]) - 1.0
        )
        source = "pipeline n=5e4, one op per family"
        result.layer("trace.overhead", overhead, "ratio",
                     "traced vs untraced, same instances")
        result.layer("engine.trace_runs", sum(r for _, r in traced_ops),
                     "count", source)
        phase_metrics(tracer, "pipeline-50k/traced/", N, result, source)
        ladder(seed, tracer, result, "pipeline-50k/traced/uniform/")
        sums = []
        for index, family in enumerate(FAMILIES):
            selfs = tracer.self_times(f"pipeline-50k/traced/{family}/{index}")
            sums.append(sum(v for k, v in selfs.items() if k != "bench"))
        cover = median([t / c.wall for t, (c, _) in zip(sums, traced_ops)])
        limit = wall_op_p50 * (1.0 + overhead)
        print(f"# program layers' self time covers {cover:.2%} of a traced "
              f"op; median {median(sums):.6g} s per op against untraced "
              f"op_p50_s.wall x (1 + trace.overhead) = {limit:.6g} s")
    return result, tracer
