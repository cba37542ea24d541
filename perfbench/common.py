"""Shared machinery of the benchmark: statistics, spans, set-up timing,
process accounting and the result line.

Everything here is benchmark-side.  The program under test is only ever
called through its public functions, timed from outside.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: checkout root (the directory holding ``perfbench/`` and ``src/``)
ROOT = Path(__file__).resolve().parent.parent
#: scratch space for stores, daemon state and span dumps (gitignored)
WORK = ROOT / ".perfbench-work"

#: how many fresh processes ``setup_s`` is the median of
SETUP_REPS = 5


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile *q* in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n_samples: int, wanted: int = 95) -> Optional[int]:
    """The highest percentile <= *wanted* that leaves at least ten samples
    beyond it, or ``None`` when not even the median does."""
    for pct in (wanted, 90, 75, 50):
        if pct <= wanted and n_samples * (100 - pct) / 100.0 >= 10:
            return pct
    return None


def fit_exponent(sizes: Sequence[float], seconds: Sequence[float]) -> float:
    """Least-squares slope of log(seconds) over log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in seconds]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory span recorder around calls into the program's layers.

    A span has a name (``<layer>.<call>``), start, end, parent and the id
    of the operation it belongs to.  Spans stay in memory until
    :meth:`dump`.  The layer of a span is the part of its name before the
    first dot; a layer's self time is its spans' durations minus the part
    covered by their child spans.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._op: Optional[str] = None

    @contextmanager
    def op(self, op_id: str, name: str):
        """Root span of one operation; its children share *op_id*."""
        previous, self._op = self._op, op_id
        try:
            with self.span(name):
                yield
        finally:
            self._op = previous

    def record(self, op: Optional[str], name: str, start: float,
               end: Optional[float],
               parent: Optional[int] = None) -> Optional[int]:
        """Append one span; returns its id."""
        self.spans.append({"id": len(self.spans), "parent": parent,
                           "op": op, "name": name, "start": start,
                           "end": end})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span_id = self.record(self._op, name, time.perf_counter(), None,
                              parent)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[span_id]["end"] = time.perf_counter()

    def completed(self, name: str, seconds: float) -> None:
        """Record a span that just ended after *seconds* (engine phases
        reported through the public ``observer.on_span`` hook)."""
        end = time.perf_counter()
        self.record(self._op, name, end - seconds, end,
                    self._stack[-1] if self._stack else None)

    def add_op(self, op_id: str, name: str, parts) -> None:
        """Record a finished operation timed elsewhere (e.g. in a worker
        process): a root span with the ``(name, seconds)`` *parts* laid
        end to end as its children."""
        root = self.record(op_id, name, 0.0, sum(t for _, t in parts))
        start = 0.0
        for child, seconds in parts:
            self.record(op_id, child, start, start + seconds, root)
            start += seconds

    def durations(self, name: str, op_prefix: str = "") -> List[float]:
        return [
            s["end"] - s["start"] for s in self.spans
            if s["name"] == name and (s["op"] or "").startswith(op_prefix)
        ]

    def self_times(self, op_prefix: str = "") -> Dict[str, float]:
        """Summed self time per layer over the spans of matching ops."""
        chosen = [
            s for s in self.spans if (s["op"] or "").startswith(op_prefix)
        ]
        child_time: Dict[int, float] = {}
        for s in chosen:
            if s["parent"] is not None:
                child_time[s["parent"]] = (
                    child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
                )
        out: Dict[str, float] = {}
        for s in chosen:
            layer = s["name"].split(".", 1)[0]
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[layer] = out.get(layer, 0.0) + max(own, 0.0)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")


class NullTracer(Tracer):
    """Untraced runs: the same call sites, no clock reads, no records."""

    enabled = False

    @contextmanager
    def op(self, op_id: str, name: str):
        yield

    @contextmanager
    def span(self, name: str):
        yield

    def record(self, op, name, start, end, parent=None) -> None:
        return None


def engine_observer(tracer: Tracer):
    """An engine observer that turns ``on_span`` phases into spans, or
    ``None`` when untraced (the engine then skips observer dispatch)."""
    if not tracer.enabled:
        return None
    from repro.obs import Observer

    class _PhaseSpans(Observer):
        __slots__ = ()

        def on_span(self, name: str, seconds: float) -> None:
            tracer.completed(f"engine.{name}", seconds)

    return _PhaseSpans()


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

#: iterations of the calibration loop (about 5 ms on an uncontended core)
CALIB_ITERS = 40_000
#: normalized figures read as if one calibration loop took exactly this long
CALIB_REF_S = 0.005


def _loop_seconds() -> float:
    best = float("inf")
    for _ in range(3):  # best of three: skips a stray preemption
        t0 = time.perf_counter()
        table: Dict[int, int] = {}
        acc = 0
        for i in range(CALIB_ITERS):
            acc += i * i % 7
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate(all_cores: bool = True) -> float:
    """Wall seconds of a fixed interpreter-bound loop, best of three: on
    the current core, or (*all_cores*) pinned to each allowed core in turn
    (at most 8) and averaged, for work spread over several processes."""
    if not all_cores or not hasattr(os, "sched_setaffinity"):
        return _loop_seconds()
    allowed = os.sched_getaffinity(0)
    samples = []
    try:
        for cpu in sorted(allowed)[:8]:
            os.sched_setaffinity(0, {cpu})
            samples.append(_loop_seconds())
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(samples) / len(samples)


class SpeedLog:
    """Machine-speed calibrations taken at idle points of one run.

    On a shared host the speed of a core swings by up to ~1.7x over
    seconds to minutes (a busy neighbour on the same physical core), so
    raw times of identical runs spread far wider than any useful
    regression bound.  The program is interpreter-bound like the
    calibration loop, so the end-to-end figures are scaled by
    :meth:`factor`: they read as on a machine of fixed speed, and a slower
    program still reads slower, because the loop runs no program code.
    Samples are taken only while none of the run's own work is running.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(calibrate())

    def factor(self) -> float:
        """Nominal over measured loop time: multiply a time by it, divide
        a rate by it."""
        return CALIB_REF_S / median(self.samples)


class PhaseClock:
    """Speed-normalized time of a single-process operation.

    Where the work runs in this process, the speed can be sampled on its
    own core before the first phase and after each one, which follows the
    swings within an operation; each phase's time is scaled by the mean
    of the two samples around it.
    """

    def __init__(self) -> None:
        self.wall = 0.0
        self.norm = 0.0
        self._last = calibrate(all_cores=False)

    @contextmanager
    def phase(self):
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0
        sample = calibrate(all_cores=False)
        self.wall += seconds
        self.norm += seconds * 2.0 * CALIB_REF_S / (self._last + sample)
        self._last = sample


# ---------------------------------------------------------------------------
# timing discipline and resources
# ---------------------------------------------------------------------------


def settle_gc() -> None:
    """Collect, then freeze survivors so timed operations do not rescan
    the long-lived import-time heap (the GC stays enabled)."""
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def child_env(marker: Optional[str] = None) -> Dict[str, str]:
    """Environment for a program subprocess: ``src`` importable, and an
    optional marker every descendant inherits (see :func:`marked_pids`)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "") \
        if env.get("PYTHONPATH") else src
    if marker is not None:
        env["PERFBENCH_MARKER"] = marker
    return env


def marked_pids(marker: str) -> List[int]:
    """Live (non-zombie) processes whose environment carries *marker*."""
    needle = f"PERFBENCH_MARKER={marker}".encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                if needle not in fh.read().split(b"\0"):
                    continue
            with open(f"/proc/{entry}/stat", "rb") as fh:
                state = fh.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if state != b"Z":
            found.append(int(entry))
    return found


def kill_marked(marker: str) -> None:
    """SIGKILL every process carrying *marker* and wait until none is left
    (last-resort cleanup; children of ours are reaped by their Popen)."""
    for _ in range(100):
        pids = marked_pids(marker)
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        time.sleep(0.05)


def time_setup(workload: str, speed: SpeedLog) -> float:
    """Median wall time of fresh processes that import the workload's
    layers and do its lazy set-up (``setup_child.py``)."""
    samples = []
    speed.sample()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_child.py"),
             workload],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=120, check=False,
        )
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.strip() != b"ready":
            raise RuntimeError(
                "set-up probe failed: " + proc.stderr.decode(errors="replace")
            )
        speed.sample()
    return median(samples)


# ---------------------------------------------------------------------------
# result reporting
# ---------------------------------------------------------------------------


class Result:
    """What one workload run measured and checked."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.end_to_end: Dict[str, tuple] = {}
        self.named: Dict[str, tuple] = {}
        self.layers: Dict[str, tuple] = {}

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed check counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def layer(self, name: str, value: float, unit: str,
              source: str = "") -> None:
        """Record a per-layer metric unless an earlier source set it."""
        self.layers.setdefault(name, (value, unit, source))

    def emit(self, traced: bool) -> Dict:
        fail_frac = self.failed / self.attempted if self.attempted else 1.0
        print(f"# workload {self.workload}: attempted={self.attempted} "
              f"failed={self.failed}")
        print(f"metric {self.workload} fail_frac = {fail_frac:.6g} ratio")
        for what in self.problems:
            print(f"# FAILED: {what}")
        for name, (value, unit) in self.named.items():
            print(f"metric {self.workload} {name} = {value:.6g} {unit}")
        for name, (value, unit, source) in sorted(self.layers.items()):
            note = f"  [{source}]" if source else ""
            print(f"layer {self.workload} {name} = {value:.6g} {unit}{note}")
        chosen = self.layers if traced else self.end_to_end
        metrics = {
            name: {"value": spec[0], "unit": spec[1]}
            for name, spec in chosen.items()
        }
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }
