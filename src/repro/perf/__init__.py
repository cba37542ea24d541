"""Performance subsystem: the deterministic worker pool and the bench points.

* :mod:`repro.perf.parallel` — a deterministic
  :class:`~concurrent.futures.ProcessPoolExecutor` sweep runner with
  per-task timeouts, retries and crash recovery (:func:`parallel_map`,
  :func:`seed_for`, :func:`auto_workers`), used by the experiment harness
  and the sweep fabric.
* :mod:`repro.perf.bench` — the point functions, spec builders and
  summaries behind the ``bench``/``bench-srt``/``bench-obs`` rows of the
  sweep registry (``BENCH_1/2/3.json``).
* :mod:`repro.perf.faultsweep` — the fault-injection trial behind the
  ``faultsweep`` row (``FAULTSWEEP.json``).

Every BENCH/FAULTSWEEP artifact is produced by
``repro-sched sweep run <name>`` (:mod:`repro.sweep.registry`).  The
exact scaled-integer kernels themselves live in :mod:`repro.engine`
(:func:`repro.engine.solve_srj`, ``backend="int"``).  See
``docs/PERFORMANCE.md`` for the exactness argument and usage.
"""

from .parallel import auto_workers, parallel_map, seed_for

__all__ = ["parallel_map", "seed_for", "auto_workers"]
