"""The combined SRT scheduler — Theorem 4.8.

Partition the tasks into heavy 𝓣₁ and light 𝓣₂ (Section 4.2), schedule

* 𝓣₁ by Listing 3 (tasks ordered by non-decreasing ``r(T)``) on ``⌊m/2⌋``
  processors with resource ``R₁ = (⌊m/2⌋-1)/(m-1)``, and
* 𝓣₂ by Listing 4 (tasks ordered by non-decreasing ``|T|``) on ``⌈m/2⌉``
  processors with resource ``R₂ = 1/2``,

in parallel on disjoint processor sets (``R₁ + R₂ ≤ 1``).  The resulting sum
of completion times is ``((2 + 4/(m-3)) + o(1)) · OPT`` where the ``o(1)``
is with respect to the number of tasks (Lemmas 4.5–4.7).

For ``m < 4`` the split degenerates (𝓣₁ would get zero resource); we fall
back to scheduling all tasks sequentially on the whole machine in
non-decreasing ``r(T)`` order — no approximation guarantee is claimed there
by the paper.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from .model import TaskInstance, TaskScheduleResult
from .partition import heavy_allotment, light_allotment, partition_tasks
from .sequential import SequentialResult, run_sequential


def schedule_tasks(
    instance: TaskInstance,
    record_steps: bool = False,
    backend: str = "auto",
    observer=None,
    collect_stats: bool = False,
) -> TaskScheduleResult:
    """Run the Theorem 4.8 algorithm on *instance*.

    ``backend`` selects the engine's numeric backend (``"auto"``/``"int"``
    run on LCM-rescaled integers, ``"fraction"`` on exact rationals; the
    results are bit-identical).  ``observer=`` / ``collect_stats=``
    install telemetry; one observer is shared across the heavy and light
    half-runs, so ``result.stats`` aggregates both (the ``$REPRO_TRACE``
    emitter is composed once per engine run, in :mod:`repro.engine.api`).
    """
    from ..obs import setup_observer

    obs, metrics = setup_observer(observer, collect_stats, env=False)
    m = instance.m
    if not instance.tasks:
        return TaskScheduleResult(
            instance=instance,
            completion_times={},
            makespan=0,
            algorithm="srt-split",
            stats=metrics,
        )
    if m < 4:
        ordered = sorted(
            instance.tasks, key=lambda t: (t.total_requirement(), t.id)
        )
        res = run_sequential(
            ordered, m, Fraction(1), record_steps=record_steps,
            backend=backend, observer=obs,
        )
        return TaskScheduleResult(
            instance=instance,
            completion_times=res.completion_times,
            makespan=res.makespan,
            algorithm="srt-fallback-sequential",
            stats=metrics,
        )
    heavy, light = partition_tasks(instance)
    completion: Dict[int, int] = {}
    makespan = 0
    heavy_result: Optional[SequentialResult] = None
    light_result: Optional[SequentialResult] = None
    if heavy:
        m1, r1 = heavy_allotment(m)
        heavy_sorted = sorted(
            heavy, key=lambda t: (t.total_requirement(), t.id)
        )
        heavy_result = run_sequential(
            heavy_sorted, m1, r1, record_steps=record_steps,
            backend=backend, observer=obs,
        )
        completion.update(heavy_result.completion_times)
        makespan = max(makespan, heavy_result.makespan)
    if light:
        m2, r2 = light_allotment(m)
        light_sorted = sorted(light, key=lambda t: (t.n_jobs, t.id))
        light_result = run_sequential(
            light_sorted, m2, r2, record_steps=record_steps,
            backend=backend, observer=obs,
        )
        completion.update(light_result.completion_times)
        makespan = max(makespan, light_result.makespan)
    result = TaskScheduleResult(
        instance=instance,
        completion_times=completion,
        makespan=makespan,
        algorithm="srt-split",
        stats=metrics,
    )
    # expose the half-results for analysis/diagnostics
    result.heavy_result = heavy_result  # type: ignore[attr-defined]
    result.light_result = light_result  # type: ignore[attr-defined]
    return result


def solve_srt(
    instance: TaskInstance,
    backend: str = "auto",
    record_steps: bool = False,
    observer=None,
    collect_stats: bool = False,
) -> TaskScheduleResult:
    """Backend-selectable SRT entry point (alias of :func:`schedule_tasks`
    with the backend argument first, mirroring :func:`repro.engine.solve_srj`).
    """
    return schedule_tasks(
        instance, record_steps=record_steps, backend=backend,
        observer=observer, collect_stats=collect_stats,
    )
