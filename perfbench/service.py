"""``service-small``: a ``repro-sched serve --workers 2`` daemon driven by
this process as the one load generator.

About 90% of requests are ``solve`` at m = 8, n = 100; the other 10% are
the same request with ``fault_seed`` set, so the faults runner works too.
Two open-loop phases (15 and 40 req/s, requests spread over ``nproc``
pipelining connections, each timed from when it was due) are followed by
a closed-loop phase with ``nproc`` connections that measures saturation.
The engine is a small part of a request here: the per-request worker
process, framing and queueing dominate, so an engine speed-up should not
show on this workload.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from .common import (
    SETUP_REPS,
    WORK,
    NullTracer,
    Result,
    SpeedLog,
    Tracer,
    child_env,
    kill_marked,
    marked_pids,
    median,
    peak_rss_mb,
    quantile,
    settle_gc,
    tail_percentile,
)

FAMILIES = ("uniform", "anti_correlated", "heavy_tail")
M, N = 8, 100
RATES = (15, 40)
#: share of the run's seconds given to the r15, r40 and closed phases
PHASE_SHARES = (0.45, 0.20, 0.35)
#: every FAULT_EVERY-th request carries a fault_seed (10%)
FAULT_EVERY = 10
WORKERS = 2
SERVE_TIMEOUT_S = 60.0
#: request indices of the untimed warm-up (one plain, one fault_seed)
WARMUP_INDICES = (1_000_000, 1_000_000 + FAULT_EVERY - 1)
#: load phases run in chunks of about this many seconds, drained and
#: speed-sampled in between
CHUNK_S = 2.0


def request_params(seed: int, index: int) -> Dict:
    """Parameters of request *index*; a pure function of the seed."""
    params = {
        "family": FAMILIES[index % len(FAMILIES)],
        "m": M,
        "n": N,
        "seed": seed * 1_000_003 + index,
        "backend": "int",
    }
    if index % FAULT_EVERY == FAULT_EVERY - 1:
        params["fault_seed"] = seed * 7 + index
    return params


def trivial(value):
    """The no-op task of the ``parallel.isolate_map_ms`` probe."""
    return value


# ---------------------------------------------------------------------------
# the daemon
# ---------------------------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess.  Every process it forks inherits a
    unique environment marker, so leftovers can be found after it exits."""

    def __init__(self, state_dir: Path) -> None:
        self.state_dir = state_dir
        self.marker = uuid.uuid4().hex
        state_dir.mkdir(parents=True, exist_ok=True)
        self._log = open(state_dir / "daemon.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(state_dir), "--host", "127.0.0.1",
             "--port", "0", "--workers", str(WORKERS)],
            env=child_env(self.marker), stdout=self._log,
            stderr=subprocess.STDOUT, cwd=str(state_dir),
        )

    def wait_serving(self) -> Tuple[str, int]:
        """Poll SERVICE.json until the daemon serves; returns its address."""
        path = self.state_dir / "SERVICE.json"
        deadline = time.monotonic() + SERVE_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"serving (log: {self.state_dir / 'daemon.log'})"
                )
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    state = json.load(fh)
            except (OSError, ValueError):
                state = {}
            if state.get("status") == "serving" and state.get("port"):
                return state["host"], state["port"]
            time.sleep(0.005)
        raise RuntimeError("daemon did not start serving in time")

    def rss_hwm_mb(self) -> float:
        """Peak resident set of the daemon process itself (VmHWM)."""
        try:
            with open(f"/proc/{self.proc.pid}/status", "r") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> Tuple[int, int]:
        """SIGTERM, wait; returns (exit code, live descendants after)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=SERVE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        time.sleep(0.05)
        live = len(marked_pids(self.marker))
        self.close()
        return code, live

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        kill_marked(self.marker)
        self._log.close()


def spawn(state_dir: Path) -> Tuple[Daemon, float, str, int]:
    """Start a daemon and wait until it serves; returns it with the wall
    seconds that took and its address."""
    t0 = time.perf_counter()
    daemon = Daemon(state_dir)
    try:
        host, port = daemon.wait_serving()
    except BaseException:
        daemon.close()
        raise
    return daemon, time.perf_counter() - t0, host, port


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------


class Sample:
    """One request: its wire id, the index of its params, and when it was
    due, sent and answered."""

    __slots__ = ("req_id", "index", "due", "sent", "done", "response")

    def __init__(self, req_id: int, index: int, due: float) -> None:
        self.req_id = req_id
        self.index = index
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.response: Optional[Dict] = None


async def _connect(host: str, port: int):
    reader, writer = await asyncio.open_connection(host, port)
    sock = writer.get_extra_info("socket")
    if sock is not None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return reader, writer


async def _reader(reader, by_id: Dict[int, Sample], count: int) -> None:
    from repro.service import protocol as wire

    for _ in range(count):
        payload = await wire.read_frame(reader)
        if payload is None:
            return
        now = time.perf_counter()
        sample = by_id.get(payload.get("id"))
        if sample is not None:
            sample.done = now
            sample.response = wire.validate_response(payload)


async def _open_chunk(host: str, port: int, conns: int, rate: float,
                      count: int, seed: int, first: int) -> List[Sample]:
    """Send *count* requests at *rate* on a fixed schedule regardless of
    replies, round-robin over *conns* connections; wait for every reply."""
    from repro.service import protocol as wire

    streams = [await _connect(host, port) for _ in range(conns)]
    seconds = count / rate
    t0 = time.perf_counter() + 0.01
    samples = [Sample(first + i, first + i, t0 + i / rate)
               for i in range(count)]
    lanes = [samples[c::conns] for c in range(conns)]

    async def sender(writer, lane: List[Sample]) -> None:
        for sample in lane:
            delay = sample.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sample.sent = time.perf_counter()
            writer.write(wire.encode_frame(wire.make_request(
                sample.req_id, "solve", request_params(seed, sample.index)
            )))
            await writer.drain()

    tasks = []
    for (reader, writer), lane in zip(streams, lanes):
        by_id = {s.req_id: s for s in lane}
        tasks.append(asyncio.create_task(sender(writer, lane)))
        tasks.append(asyncio.create_task(_reader(reader, by_id, len(lane))))
    try:
        await asyncio.wait_for(asyncio.gather(*tasks),
                               timeout=seconds + SERVE_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    finally:
        for _, writer in streams:
            writer.close()
    return samples


async def _closed_chunk(host: str, port: int, conns: int, seconds: float,
                        seed: int, first: int,
                        reuse: int) -> Tuple[List[Sample], float]:
    """*conns* callers that each send the next request only after the
    reply; the params cycle over the *reuse* open-loop requests, whose
    expected results are computed anyway.  Returns the samples and the
    wall seconds until the last reply."""
    from repro.service import protocol as wire

    streams = [await _connect(host, port) for _ in range(conns)]
    samples: List[Sample] = []
    t0 = time.perf_counter()
    t_end = t0 + seconds

    async def caller(reader, writer, lane: int) -> None:
        k = 0
        while time.perf_counter() < t_end:
            req_id = first + k * conns + lane
            k += 1
            sample = Sample(req_id, req_id % reuse, time.perf_counter())
            sample.sent = sample.due
            samples.append(sample)
            writer.write(wire.encode_frame(wire.make_request(
                req_id, "solve", request_params(seed, sample.index)
            )))
            await writer.drain()
            payload = await wire.read_frame(reader)
            if payload is None:
                return
            sample.done = time.perf_counter()
            sample.response = wire.validate_response(payload)

    try:
        await asyncio.wait_for(
            asyncio.gather(*(caller(r, w, i)
                             for i, (r, w) in enumerate(streams))),
            timeout=seconds + SERVE_TIMEOUT_S,
        )
    except asyncio.TimeoutError:
        pass
    finally:
        for _, writer in streams:
            writer.close()
    finished = [s.done for s in samples if s.done]
    return samples, (max(finished) if finished else time.perf_counter()) - t0


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------


def _references(seed: int, indices: List[int], tracer: Tracer,
                prefix: str) -> Tuple[Dict[int, Dict], List[float]]:
    """In-process ``execute_request`` of the same params: the expected
    results, and the handler times of the plain (fault-free) requests."""
    from repro.service.handlers import execute_request

    expected: Dict[int, Dict] = {}
    plain_ms: List[float] = []
    for index in indices:
        params = request_params(seed, index)
        faulted = "fault_seed" in params
        name = ("faults.execute_request" if faulted
                else "service.execute_request")
        t0 = time.perf_counter()
        with tracer.op(f"{prefix}/ref/{index}", "bench.reference"):
            with tracer.span(name):
                envelope = execute_request(
                    {"method": "solve", "params": params}
                )
        if not faulted:
            plain_ms.append((time.perf_counter() - t0) * 1e3)
        # the wire form: what the daemon's JSON response carries
        expected[index] = json.loads(json.dumps(envelope))
    return expected, plain_ms


def _check_samples(samples: List[Sample], expected: Dict[int, Dict],
                   result: Result) -> None:
    for s in samples:
        if s.response is None:
            result.check(False, f"request {s.req_id}: no response")
            continue
        want = expected[s.index]
        if not s.response["ok"]:
            result.check(False, f"request {s.req_id}: error "
                                f"{s.response['error'].get('code')}")
            continue
        result.check(s.response["result"] == want.get("result"),
                     f"request {s.req_id}: result differs from in-process "
                     f"execute_request")


def _latency_metrics(samples: List[Sample], label: str, factor: float,
                     result: Result) -> float:
    """Record the phase's p50 and tail (speed-normalized, and the p50 as
    measured); returns the wall p50."""
    lat = [(s.done - s.due) * 1e3 for s in samples if s.done]
    p50 = median(lat)
    result.named[f"p50_ms.{label}"] = (p50 * factor, "ms")
    result.named[f"p50_ms.{label}.wall"] = (p50, "ms")
    pct = tail_percentile(len(lat))
    if pct and pct != 50:
        result.named[f"p{pct}_ms.{label}"] = (
            quantile(lat, pct / 100.0) * factor, "ms"
        )
    print(f"# {label}: {len(lat)} samples")
    return p50


def isolate_map_probe(result: Result, tracer: Tracer, prefix: str,
                      reps: int = 9) -> None:
    """One-item ``parallel_map(isolate=True)``: the process spawn the
    daemon pays per request."""
    from repro.perf.parallel import parallel_map

    times = []
    for k in range(reps):
        t0 = time.perf_counter()
        with tracer.op(f"{prefix}/isolate/{k}", "bench.probe"):
            with tracer.span("parallel.parallel_map"):
                out = parallel_map(trivial, [k], workers=1, isolate=True)
        times.append((time.perf_counter() - t0) * 1e3)
        result.check(out == [k], "parallel_map(isolate=True) result")
    result.layer("parallel.isolate_map_ms", median(times), "ms",
                 f"{reps} one-item isolate maps")


def drive(seed: int, seconds: float, tracer: Tracer, result: Result,
          prefix: str, setup_reps: int) -> None:
    """Spawn the daemon, run the open- and closed-loop phases, check every
    response, drain the daemon and count what it left running."""
    from repro.service.client import ServiceClient

    conns = os.cpu_count() or 1
    shares = [seconds * share for share in PHASE_SHARES]
    base = WORK / f"service-{os.getpid()}-{prefix.replace('/', '-')}"
    speed = SpeedLog()
    setups: List[float] = []
    for k in range(setup_reps - 1):
        probe, seconds_to_serve, _, _ = spawn(base / f"setup{k}")
        try:
            setups.append(seconds_to_serve)
            speed.sample()
            code, _ = probe.stop()
            result.check(code == 0, f"set-up daemon {k}: exit status {code}")
        finally:
            probe.close()
    daemon, seconds_to_serve, host, port = spawn(base / "daemon")
    try:
        setups.append(seconds_to_serve)
        speed.sample()
        # warm-up: one plain and one fault_seed request, not timed
        with ServiceClient(host, port) as client:
            for index in WARMUP_INDICES:
                client.call("solve", request_params(seed, index))
        settle_gc()
        # the load runs in chunks of about CHUNK_S; each ends with every
        # reply in, so the speed sample after it competes with no request
        phases: List[Tuple[str, List[Sample]]] = []
        next_id = 0
        for rate, phase_s in zip(RATES, shares):
            samples: List[Sample] = []
            total = max(round(rate * phase_s), 1)
            chunks = max(1, round(phase_s / CHUNK_S))
            for k in range(chunks):
                count = total * (k + 1) // chunks - total * k // chunks
                chunk = asyncio.run(_open_chunk(
                    host, port, conns, rate, count, seed, next_id
                ))
                speed.sample()
                samples += chunk
                next_id += len(chunk)
            phases.append((f"r{rate}", samples))
        reuse = next_id
        closed: List[Sample] = []
        rates: List[float] = []
        chunks = max(1, round(shares[2] / CHUNK_S))
        for _ in range(chunks):
            chunk, wall = asyncio.run(_closed_chunk(
                host, port, conns, shares[2] / chunks, seed, next_id, reuse
            ))
            speed.sample()
            closed += chunk
            rates.append(sum(1 for s in chunk if s.done) / wall)
            next_id = max([s.req_id for s in chunk] + [next_id]) + 1
        with ServiceClient(host, port) as client:
            status = client.status()
        daemon_rss = daemon.rss_hwm_mb()
        code, live = daemon.stop()
    finally:
        daemon.close()
        shutil.rmtree(base, ignore_errors=True)
    result.check(code == 0, f"daemon exit status {code} after SIGTERM")
    if tracer.enabled:
        isolate_map_probe(result, tracer, prefix)
    everything = [s for _, ss in phases for s in ss] + closed
    expected, handler_ms = _references(
        seed, sorted({s.index for s in everything}), tracer, prefix
    )
    for _, samples in phases:
        _check_samples(samples, expected, result)
    _check_samples(closed, expected, result)

    if tracer.enabled:
        for label, samples in phases + [("closed", closed)]:
            for s in samples:
                if s.done:
                    tracer.record(f"{prefix}/{label}/{s.req_id}",
                                  "service.request", s.due, s.done)
    factor = speed.factor()
    latencies = {label: _latency_metrics(samples, label, factor, result)
                 for label, samples in phases}
    lags = [(s.sent - s.due) * 1e3 for _, ss in phases for s in ss if s.sent]
    saturated = median(rates)
    setup_s = median(setups)
    handler = median(handler_ms)
    counters = status["metrics"]["counters"]
    gauges = status["metrics"]["gauges"]
    result.named.update({
        "setup_s": (setup_s * factor, "s"),
        "saturated_rps": (saturated / factor, "1/s"),
        "setup_s.wall": (setup_s, "s"),
        "saturated_rps.wall": (saturated, "1/s"),
        "peak_rss_mb": (max(peak_rss_mb(), daemon_rss), "MB"),
    })
    source = "daemon status" if prefix == "service-small" else "mini service"
    for metric, value in (
        ("service.shed", counters.get("service.shed_total", 0)),
        ("service.deadline_exceeded",
         counters.get("service.deadline_exceeded", 0)),
        ("service.pool_retries", counters.get("service.pool_retries", 0)),
        ("service.queue_depth_max",
         gauges.get("service.queue_depth_max", 0)),
        ("service.live_children_after", live),
    ):
        result.layer(metric, value, "count", source)
    first_label = phases[0][0]
    result.layer("service.handler_ms", handler, "ms",
                 "in-process execute_request, plain requests")
    result.layer("service.overhead_ms", latencies[first_label] - handler,
                 "ms", f"p50_ms.{first_label}.wall - service.handler_ms")
    result.layer("gen.lag_ms", quantile(lags, 0.95), "ms",
                 "open-loop send lateness p95")
    faulted = tracer.durations("faults.execute_request", prefix)
    if faulted:
        result.layer("faults.run_s", median(faulted), "s",
                     "in-process execute_request, fault_seed requests")
    if live:
        print(f"# WARNING: {live} daemon descendant(s) outlived SIGTERM")
    print(f"# closed loop: {len(closed)} requests over {conns} "
          f"connections; replies/s per chunk {[round(r, 2) for r in rates]}"
          f"; speed factor {factor:.4g}")
    result.end_to_end = {
        "setup_s": result.named["setup_s"],
        "throughput": result.named["saturated_rps"],
        "latency_ms": result.named[f"p50_ms.{first_label}"],
        "peak_rss_mb": result.named["peak_rss_mb"],
    }


def run(seed: int, seconds: float, traced: bool) -> Tuple[Result, Tracer]:
    result = Result("service-small")
    tracer: Tracer = Tracer() if traced else NullTracer()
    drive(seed, seconds, tracer, result, "service-small",
          setup_reps=SETUP_REPS)
    return result, tracer


def mini(seed: int, tracer: Tracer, result: Result) -> None:
    """A short service run for the per-layer numbers of the other
    workloads' traced runs; its end-to-end figures are discarded."""
    scratch = Result("service-mini")
    drive(seed, 4.0, tracer, scratch, "mini-service", setup_reps=1)
    result.attempted += scratch.attempted
    result.failed += scratch.failed
    result.problems += scratch.problems
    for name, spec in scratch.layers.items():
        result.layers.setdefault(name, spec)
