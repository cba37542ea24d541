"""The SRJ approximation algorithm — Listing 1 of the paper.

Per time step the scheduler

1. computes an (m-1)-maximal job window (Lines 2–5),
2. computes the Case-1/Case-2 resource assignment (Lines 6–20), and
3. applies the shares to the state.

Two execution modes are provided:

* **step-exact** (``accelerate=False``): one loop iteration per time step —
  pseudo-polynomial, exactly the pseudocode, used by the validation tests;
* **accelerated** (``accelerate=True``, default): when the recomputed share
  vector is identical to the previous step's, the scheduler *bulk-applies*
  it for as many steps as it provably stays identical (until the first job
  finish or the first fracture-status change of a partially-served job —
  both horizons are computed exactly).  This realizes the paper's
  ``O((m+n)·n)`` running-time argument (proof of Theorem 3.3): steps in
  which nothing finishes are skipped with a closed-form jump.

Since the engine refactor the step loop itself lives in
:mod:`repro.engine` (:class:`~repro.engine.policies.SlidingWindowPolicy`
driven by :func:`repro.engine.api.solve_srj`); this module keeps the
historical entry points on the exact-rational backend and re-exports the
canonical trace types (:class:`TraceRun`, :class:`SRJResult`, now defined
in :mod:`repro.engine.trace`).  The step-exact Listing-1 reference
(``compute_window``/``compute_assignment``) lives in
:mod:`repro.engine.policies`.

The produced trace is run-length encoded; :meth:`SRJResult.schedule`
expands it to a full :class:`~repro.core.schedule.Schedule` on demand.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..engine import api as _engine
from ..engine.trace import SRJResult, TraceRun
from .instance import Instance

__all__ = [
    "SRJResult",
    "TraceRun",
    "SlidingWindowScheduler",
    "schedule_srj",
]

class SlidingWindowScheduler:
    """Listing 1 — the ``2 + 1/(m-2)``-approximation for SRJ.

    Runs the engine on the exact-rational backend; use
    :func:`repro.engine.solve_srj` to select the scaled-integer backend
    instead.

    Parameters
    ----------
    instance:
        The SRJ instance (jobs canonically ordered by requirement).
    accelerate:
        Use the closed-form step-skipping fast path (default True).  The
        produced schedule is identical to the step-exact mode; tests assert
        this equivalence property-based.
    window_size:
        Window size parameter; defaults to ``m - 1`` (the reserved-processor
        scheme of Section 3).  The ablation experiment E7 overrides it.
    enable_move:
        Whether MoveWindowRight runs (ablation E7 disables it; disabling
        voids the approximation guarantee).
    """

    def __init__(
        self,
        instance: Instance,
        accelerate: bool = True,
        window_size: Optional[int] = None,
        enable_move: bool = True,
    ) -> None:
        self.instance = instance
        self.accelerate = accelerate
        self.window_size = (
            window_size if window_size is not None else max(instance.m - 1, 1)
        )
        self.enable_move = enable_move
        self.budget = Fraction(1)

    def run(self) -> SRJResult:
        """Execute the algorithm and return the result."""
        return _engine.solve_srj(
            self.instance,
            backend="fraction",
            accelerate=self.accelerate,
            window_size=self.window_size,
            enable_move=self.enable_move,
        )


def schedule_srj(
    instance: Instance,
    accelerate: bool = True,
    backend: str = "fraction",
    observer=None,
    collect_stats: bool = False,
) -> SRJResult:
    """Convenience wrapper: run Listing 1 on *instance*.

    Defaults to the exact-rational backend (this is the reference path the
    property tests compare everything against); pass ``backend="int"`` or
    ``"auto"`` for the scaled-integer fast path.  ``observer=`` /
    ``collect_stats=`` install telemetry (see :mod:`repro.obs`);
    ``collect_stats=True`` attaches the metrics registry as
    ``result.stats``.
    """
    return _engine.solve_srj(
        instance,
        backend=backend,
        accelerate=accelerate,
        observer=observer,
        collect_stats=collect_stats,
    )
