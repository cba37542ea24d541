"""The experiment fabric: sharded, resumable, content-addressed sweeps.

Every sweep in the repo — the BENCH artifacts, the fault-injection stress
sweep and the heavy E/F-series experiment fan-outs — runs through this
one subsystem instead of its own ad-hoc loop:

* :class:`SweepSpec` (:mod:`.spec`) — a declarative sweep: named axes or
  an explicit point list, a pure ``run_point`` callable, deterministic
  per-point seeds and content-addressed point keys.
* :class:`ResultStore` (:mod:`.store`) — one JSON payload per solved
  point under ``<cache_dir>/<sweep>/``, keyed by the SHA-256 of the
  point's canonical parameters, so repeated and overlapping sweeps only
  solve new points.
* :func:`run_sweep` (:mod:`.runner`) — checkpointed, sharded execution on
  the hardened :func:`repro.perf.parallel_map`; a killed sweep resumes
  where it stopped and merged results are bit-identical for any worker
  count, shard count or interrupt pattern.
* :func:`scale_grid` (:mod:`.grids`) — the shared small/full scale grids
  the bench rows read.
* :data:`SWEEPS` (:mod:`.registry`) — the bench registry: every
  BENCH/FAULTSWEEP artifact is one row, produced by
  ``repro-sched sweep run <name>``.

See ``docs/SCALING.md`` for the architecture, resume semantics and
cache-invalidation rules; ``python -m repro.sweep.smoke`` is the
interrupt → resume → 100%-cache-hit identity gate (``make sweep-smoke``).
"""

from .grids import scale_grid
from .runner import SweepReport, run_sweep, sweep_status
from .spec import SweepPoint, SweepSpec, canonical_json, point_key
from .store import DEFAULT_CACHE_DIR, NullStore, ResultStore

__all__ = [
    "SweepSpec",
    "SweepPoint",
    "SweepReport",
    "run_sweep",
    "sweep_status",
    "ResultStore",
    "NullStore",
    "DEFAULT_CACHE_DIR",
    "scale_grid",
    "canonical_json",
    "point_key",
]
