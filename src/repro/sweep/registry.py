"""The bench registry: every BENCH/FAULTSWEEP artifact is one row here.

``repro-sched sweep run <name>`` is the one way to produce these
artifacts.  A row is data — a name, the default artifact, the report's
leading fields (bench name and schema), a spec builder that names the
point function, and ``summarize(rows)``, whose dict carries a ``passed``
flag when the row is gated.  :func:`run_entry` does the rest for every
row: run the spec on the fabric, build the shared report header, mark a
sharded run ``partial`` and summarize a complete one, then write the
artifact.  A new benchmark is one more row.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional

from ..perf.bench import (
    SCHEMA,
    axis_spec,
    obs_spec,
    obs_summary,
    power_law_summary,
    srj_point,
    srt_point,
)
from ..perf.faultsweep import fault_summary, faultsweep_spec
from .runner import run_sweep
from .spec import SweepSpec

__all__ = ["SweepEntry", "SWEEPS", "get_sweep", "run_entry"]


@dataclass(frozen=True)
class SweepEntry:
    """One CLI-addressable sweep and the artifact it produces."""

    name: str
    default_out: str
    #: report fields ahead of the shared header (bench name, schema)
    header: Dict[str, object]
    #: ``(scale, seed, reps=None) -> SweepSpec`` over the point function
    build_spec: Callable[..., SweepSpec]
    #: complete rows -> summary; a gated entry sets ``passed``
    summarize: Callable[[List[Dict]], Dict]


def run_entry(
    entry: SweepEntry,
    scale: str = "small",
    seed: int = 0,
    *,
    out: Optional[str] = None,
    reps: Optional[int] = None,
    **sweep_kw,
) -> Dict[str, object]:
    """Run *entry*; return (and, given *out*, write) its report.

    *sweep_kw* goes to :func:`~repro.sweep.run_sweep` (``cache_dir``,
    ``workers``, ``shard``, ``spans``, ``timeout``, ``retries``,
    ``backoff``).  A sharded run reports only its slice and is marked
    ``partial``; an unsharded run over the same cache assembles the
    full report, summary included.
    """
    spec = entry.build_spec(scale, seed, reps)
    sweep = run_sweep(spec, **sweep_kw)
    report: Dict[str, object] = {**entry.header, "scale": scale, "seed": seed}
    if spec.points and "reps" in spec.points[0].params:
        report["reps"] = spec.points[0].params["reps"]
    report.update(
        python=platform.python_version(),
        platform=platform.platform(),
        cache={"hits": sweep.cache_hits, "solved": sweep.solved},
        rows=sweep.rows,
    )
    if sweep.complete:
        report["summary"] = entry.summarize(sweep.rows)
    else:
        report["partial"] = True
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


#: faultsweep scale presets (the analogue of the bench grids)
_FAULT_SCALE = {
    "small": {"trials": 8, "m": 4, "n": 16, "events": 5, "horizon": 100},
    "full": {"trials": 40, "m": 4, "n": 24, "events": 6, "horizon": 200},
}


def _fault_spec(
    scale: str, seed: int, reps: Optional[int] = None
) -> SweepSpec:
    """The faultsweep preset at *scale*; trials are not repeated, so
    *reps* is ignored."""
    if scale not in _FAULT_SCALE:
        raise ValueError(f"unknown scale {scale!r}")
    return faultsweep_spec(seed=seed, **_FAULT_SCALE[scale])


#: name -> entry
SWEEPS: Dict[str, SweepEntry] = {
    entry.name: entry
    for entry in (
        SweepEntry(
            "bench", "BENCH_1.json",
            {"schema": SCHEMA, "bench": "E4 runtime, fraction vs int backend"},
            partial(axis_spec, "bench-srj", srj_point, "srj", "n"),
            partial(power_law_summary, axis="n"),
        ),
        SweepEntry(
            "bench-srt", "BENCH_2.json",
            {"schema": SCHEMA,
             "bench": "SRT runtime, fraction vs int backend"},
            partial(axis_spec, "bench-srt", srt_point, "srt", "k"),
            partial(power_law_summary, axis="k"),
        ),
        SweepEntry(
            "bench-obs", "BENCH_3.json",
            {"schema": SCHEMA, "bench": "observer overhead, SRJ int kernel"},
            obs_spec, obs_summary,
        ),
        SweepEntry(
            "faultsweep", "FAULTSWEEP.json", {"sweep": "faultsweep"},
            _fault_spec, fault_summary,
        ),
    )
}


def get_sweep(name: str) -> SweepEntry:
    """The named entry; raises :class:`ValueError` with the valid names."""
    try:
        return SWEEPS[name]
    except KeyError:
        raise ValueError(
            f"unknown sweep {name!r} (choose from: {', '.join(sorted(SWEEPS))})"
        ) from None
