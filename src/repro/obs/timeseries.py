"""Durable perf time-series: bench rows → history → regression gates.

The BENCH rows of the sweep registry (``repro-sched sweep run bench`` /
``bench-srt`` / ``bench-obs``, see :mod:`repro.sweep.registry`) emit
schema-2 reports whose rows mix *identity* fields
(grid parameters: ``m``, ``n``, ``sweep``, plus the deterministic
``makespan`` cross-check) with *measurement* fields (median-of-reps
timings ``*_s``, their ``*_mean_s`` companions, ``speedup`` and the
``*_overhead`` ratios).  Fixed thresholds ("15.4x", "≤ 5%") age badly:
they are re-asserted against whatever machine last regenerated the file.
:class:`PerfHistory` replaces that with a durable, content-addressed
record of every measurement over time:

* one JSONL series per **(bench, code-version, point identity)** — the
  key is the SHA-256 of the canonical identity JSON, so the same grid
  point always appends to the same series, a schema bump starts fresh
  series, and unrelated benches never collide;
* :meth:`PerfHistory.ingest` appends every row of a report (idempotent
  storage layout: re-ingesting adds observations, never corrupts);
* :meth:`PerfHistory.compare` diffs a fresh report against a **rolling
  baseline** (median of the last *window* observations per metric) and
  flags any gated metric that exceeds ``baseline × (1 + gate)`` — the
  ``repro-sched perf compare`` CLI exits non-zero on a flagged
  regression, which is what ``make telemetry-smoke`` and CI gate on.

Gated metrics default to the median timing columns (``fraction_s``,
``int_s``, ``base_s``, … — anything matching ``*_s`` except the noisier
``*_mean_s`` means); points with no history yet are reported as ``new``,
never as regressions, so a fresh checkout passes vacuously.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_HISTORY_DIR",
    "TIMESERIES_SCHEMA",
    "PerfHistory",
    "bench_slug",
    "split_row",
    "series_key",
]

#: default on-disk location (gitignored, next to the sweep cache)
DEFAULT_HISTORY_DIR = ".repro-cache/perf-history"

#: schema version stamped on every history record
TIMESERIES_SCHEMA = 1

#: a row field is a *measurement* (everything else is identity)
_MEASUREMENT_RE = re.compile(r"(?:_s|_overhead)$|^speedup$")

#: measurements gated by default: median timings, not means/derived ratios
_GATED_RE = re.compile(r"(?<!_mean)_s$")

#: rolling-baseline window (observations per metric)
DEFAULT_WINDOW = 5

#: default relative regression gate (10%)
DEFAULT_GATE = 0.10


def bench_slug(name: str) -> str:
    """Filesystem-safe series-directory name for a bench."""
    slug = re.sub(r"[^a-z0-9]+", "-", str(name).lower()).strip("-")
    if not slug:
        raise ValueError(f"cannot derive a bench slug from {name!r}")
    return slug


def split_row(row: Dict) -> Tuple[Dict, Dict]:
    """Split one bench row into ``(identity, measurements)``."""
    identity, measurements = {}, {}
    for key, value in row.items():
        if _MEASUREMENT_RE.search(key):
            measurements[key] = value
        else:
            identity[key] = value
    return identity, measurements


def series_key(bench: str, code_version: str, identity: Dict) -> str:
    """Content address of one time series (64 hex chars)."""
    text = json.dumps(
        {"bench": bench, "code_version": code_version, "identity": identity},
        sort_keys=True, separators=(",", ":"), allow_nan=False,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class PerfHistory:
    """Filesystem-backed perf time-series store under *root*.

    Layout::

        <root>/<bench-slug>/<64-hex-series-key>.jsonl

    with one observation record per line: ``{ts, schema, bench,
    code_version, identity, measurements}``.
    """

    def __init__(self, root=DEFAULT_HISTORY_DIR) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    @staticmethod
    def _report_meta(report: Dict, bench: Optional[str]) -> Tuple[str, str]:
        """Resolve ``(bench_slug, code_version)`` for *report*."""
        name = bench if bench is not None else report.get("bench")
        if not name:
            raise ValueError(
                "report carries no 'bench' field; pass bench= explicitly"
            )
        return bench_slug(name), f"schema{report.get('schema', 0)}"

    def ingest(
        self,
        report: Dict,
        bench: Optional[str] = None,
        ts: Optional[float] = None,
    ) -> int:
        """Append every measured row of *report*; returns rows ingested.

        Rows without any measurement field are skipped.  Partial (sharded)
        reports ingest fine — each row stands alone.
        """
        slug, code_version = self._report_meta(report, bench)
        rows = report.get("rows") or []
        if not rows:
            raise ValueError("report has no rows to ingest")
        stamp = round(time.time() if ts is None else float(ts), 3)
        ingested = 0
        for row in rows:
            identity, measurements = split_row(row)
            if not measurements:
                continue
            key = series_key(slug, code_version, identity)
            path = self.root / slug / f"{key}.jsonl"
            path.parent.mkdir(parents=True, exist_ok=True)
            record = {
                "ts": stamp,
                "schema": TIMESERIES_SCHEMA,
                "bench": slug,
                "code_version": code_version,
                "identity": identity,
                "measurements": measurements,
            }
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
                fh.write("\n")
            ingested += 1
        return ingested

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def benches(self) -> List[str]:
        """The bench slugs with at least one stored series."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and any(p.glob("*.jsonl"))
        )

    def series(self, bench: str, key: str) -> List[Dict]:
        """All observations of one series, oldest first (file order; a
        torn final line from a killed writer is skipped)."""
        path = self.root / bench_slug(bench) / f"{key}.jsonl"
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return []
        records = []
        for i, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(lines):
                    continue
                raise ValueError(f"{path}:{i}: corrupt history record")
        return records

    def iter_series(self, bench: str) -> Iterator[Tuple[str, List[Dict]]]:
        """``(series_key, observations)`` for every series of *bench*."""
        bench_dir = self.root / bench_slug(bench)
        if not bench_dir.is_dir():
            return
        for path in sorted(bench_dir.glob("*.jsonl")):
            yield path.stem, self.series(bench, path.stem)

    def summary(self, bench: Optional[str] = None) -> List[Dict]:
        """One summary dict per stored series (the ``perf history`` view)."""
        benches = [bench_slug(bench)] if bench is not None else self.benches()
        out: List[Dict] = []
        for slug in benches:
            for key, records in self.iter_series(slug):
                if not records:
                    continue
                latest = records[-1]
                out.append({
                    "bench": slug,
                    "key": key,
                    "code_version": latest.get("code_version"),
                    "identity": latest.get("identity", {}),
                    "observations": len(records),
                    "first_ts": records[0].get("ts"),
                    "latest_ts": latest.get("ts"),
                    "latest": latest.get("measurements", {}),
                })
        return out

    # ------------------------------------------------------------------
    # Regression detection
    # ------------------------------------------------------------------

    def compare(
        self,
        report: Dict,
        bench: Optional[str] = None,
        gate: float = DEFAULT_GATE,
        window: int = DEFAULT_WINDOW,
        metrics: Optional[Sequence[str]] = None,
    ) -> Dict:
        """Diff *report* against the rolling baseline of its series.

        For every row and every gated metric the baseline is the median
        of the last *window* stored observations; the metric regresses
        when ``value > baseline * (1 + gate)``.  Returns a verdict dict:
        ``ok`` is false iff at least one metric regressed; rows with no
        stored history are counted in ``new_points`` and never regress.
        The report itself is *not* ingested — ingest after comparing, so
        the baseline never includes the run under test.
        """
        if gate < 0:
            raise ValueError("gate must be >= 0")
        if window < 1:
            raise ValueError("window must be >= 1")
        slug, code_version = self._report_meta(report, bench)
        rows = report.get("rows") or []
        if not rows:
            raise ValueError("report has no rows to compare")
        row_verdicts: List[Dict] = []
        regressions: List[Dict] = []
        new_points = 0
        for row in rows:
            identity, measurements = split_row(row)
            if not measurements:
                continue
            key = series_key(slug, code_version, identity)
            history = self.series(slug, key)
            verdict: Dict = {"identity": identity, "key": key}
            if not history:
                new_points += 1
                verdict["status"] = "new"
                row_verdicts.append(verdict)
                continue
            checks: Dict[str, Dict] = {}
            for name, value in measurements.items():
                if metrics is not None:
                    if name not in metrics:
                        continue
                elif not _GATED_RE.search(name):
                    continue
                past = [
                    r["measurements"][name]
                    for r in history[-window:]
                    if name in r.get("measurements", {})
                ]
                if not past or not isinstance(value, (int, float)):
                    continue
                baseline = _median(past)
                delta = (value / baseline - 1.0) if baseline > 0 else 0.0
                regressed = value > baseline * (1.0 + gate)
                checks[name] = {
                    "value": value,
                    "baseline": round(baseline, 6),
                    "delta": round(delta, 4),
                    "samples": len(past),
                    "regressed": regressed,
                }
                if regressed:
                    regressions.append({
                        "identity": identity, "metric": name,
                        "value": value, "baseline": round(baseline, 6),
                        "delta": round(delta, 4),
                    })
            verdict["status"] = (
                "regressed"
                if any(c["regressed"] for c in checks.values())
                else "ok"
            )
            verdict["metrics"] = checks
            row_verdicts.append(verdict)
        return {
            "bench": slug,
            "code_version": code_version,
            "gate": gate,
            "window": window,
            "rows": row_verdicts,
            "regressions": regressions,
            "new_points": new_points,
            "ok": not regressions,
        }
