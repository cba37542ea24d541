"""Shared scale grids for the bench rows of the sweep registry.

This module is the one place the BENCH grids live (read by
:func:`repro.perf.bench.axis_spec` and :func:`repro.perf.bench.obs_spec`).
Each grid maps a ``scale`` knob (``"small"`` for CI-fast runs, ``"full"``
for the recorded numbers) to the axis values of that bench's sweep.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["scale_grid", "GRID_KINDS"]

_GRIDS: Dict[str, Dict[str, Dict[str, List]]] = {
    # general SRJ kernel (BENCH_1): n-sweep at fixed m + m-sweep at fixed n
    "srj": {
        "small": {"ns": [50, 100, 200, 400], "ms": [4, 8, 16, 32],
                  "n_fixed": [200], "m_fixed": [8], "reps": [2]},
        "full": {"ns": [100, 200, 400, 800, 1600], "ms": [4, 8, 16, 32, 64],
                 "n_fixed": [800], "m_fixed": [8], "reps": [3]},
    },
    # SRT scheduler (BENCH_2): k-sweep at fixed m + m-sweep at fixed k
    "srt": {
        "small": {"ks": [10, 20, 40, 80], "ms": [4, 8, 16],
                  "k_fixed": [40], "m_fixed": [8], "reps": [2]},
        "full": {"ks": [20, 40, 80, 160, 320], "ms": [4, 8, 16, 32],
                 "k_fixed": [160], "m_fixed": [8], "reps": [3]},
    },
    # observer-overhead gate (BENCH_3): (m, n) shapes, interleaved reps;
    # each rep is only a few ms, so the median needs a wide sample to sit
    # inside the 5% no-op gate (15 reps keeps its noise well under that)
    "obs": {
        "small": {"shapes": [(8, 300)], "reps": [15]},
        "full": {"shapes": [(8, 300), (16, 600)], "reps": [15]},
    },
}

GRID_KINDS = tuple(sorted(_GRIDS))


def scale_grid(kind: str, scale: str) -> Dict[str, List]:
    """The axis table for bench *kind* at *scale* (a fresh copy)."""
    try:
        grids = _GRIDS[kind]
    except KeyError:
        raise ValueError(f"unknown grid kind {kind!r}") from None
    if scale not in grids:
        raise ValueError(f"unknown scale {scale!r}")
    return {axis: list(values) for axis, values in grids[scale].items()}
