"""Tests for the hardened parallel_map: crashes, timeouts, retries.

Worker functions live at module level so they pickle into pool workers.
The crash/hang ones key off a sentinel file: the first worker to see it
removes it and dies (or stalls), so the retry round succeeds — a
deterministic single-shot infrastructure failure.
"""

import os
import time

import pytest

from repro.perf.faultsweep import faultsweep_spec
from repro.perf.parallel import (
    ParallelExecutionError,
    _jitter_factor,
    parallel_map,
    seed_for,
)
from repro.sweep import run_sweep


def _square(x):
    return x * x


def _crash_once(arg):
    x, sentinel = arg
    if x == 5 and os.path.exists(sentinel):
        os.remove(sentinel)
        os._exit(17)  # simulate a segfaulting worker
    return x * x


def _hang_once(arg):
    x, sentinel = arg
    if x == 3 and os.path.exists(sentinel):
        os.remove(sentinel)
        time.sleep(60)
    return x * x


def _hang_always(x):
    time.sleep(60)
    return x


def _boom(x):
    if x == 4:
        raise ValueError("deterministic failure")
    return x


class TestHappyPath:
    def test_matches_serial(self):
        items = list(range(25))
        expected = [x * x for x in items]
        assert parallel_map(_square, items, workers=1) == expected
        assert parallel_map(_square, items, workers=4) == expected

    def test_worker_count_independent_with_timeout(self):
        items = list(range(16))
        a = parallel_map(_square, items, workers=1)
        b = parallel_map(_square, items, workers=4, timeout=30.0)
        assert a == b

    def test_invalid_retries_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_square, list(range(8)), retries=-1)


class TestWorkerCrash:
    def test_crashed_worker_retried(self, tmp_path):
        sentinel = str(tmp_path / "crash-once")
        open(sentinel, "w").close()
        items = [(x, sentinel) for x in range(12)]
        out = parallel_map(_crash_once, items, workers=4, retries=2)
        assert out == [x * x for x in range(12)]
        assert not os.path.exists(sentinel)  # the crash really happened

    def test_crashed_worker_serial_fallback_without_retries(self, tmp_path):
        sentinel = str(tmp_path / "crash-no-retry")
        open(sentinel, "w").close()
        items = [(x, sentinel) for x in range(12)]
        out = parallel_map(_crash_once, items, workers=4, retries=0)
        assert out == [x * x for x in range(12)]


class TestTimeout:
    def test_hung_task_retried(self, tmp_path):
        sentinel = str(tmp_path / "hang-once")
        open(sentinel, "w").close()
        items = [(x, sentinel) for x in range(12)]
        out = parallel_map(
            _hang_once, items, workers=4, timeout=3.0, retries=2
        )
        assert out == [x * x for x in range(12)]

    def test_persistent_hang_raises_after_retries(self):
        with pytest.raises(ParallelExecutionError) as exc_info:
            parallel_map(
                _hang_always,
                list(range(4)),
                workers=2,
                timeout=0.5,
                retries=1,
                backoff=0.01,
            )
        assert "2 attempt(s)" in str(exc_info.value)


class TestDeterministicFailure:
    def test_fn_exception_propagates_unretried(self):
        with pytest.raises(ValueError, match="deterministic failure"):
            parallel_map(_boom, list(range(8)), workers=4, timeout=30.0)

    def test_fn_exception_propagates_on_fast_path(self):
        with pytest.raises(ValueError, match="deterministic failure"):
            parallel_map(_boom, list(range(8)), workers=4)


class TestJitter:
    def test_factor_in_range_and_deterministic(self):
        for seed in (0, 1, 99):
            for attempt in (1, 2, 3):
                f = _jitter_factor(seed, attempt)
                assert 1.0 <= f < 2.0
                assert f == _jitter_factor(seed, attempt)

    def test_seed_for_stable(self):
        assert seed_for(0, 0) == seed_for(0, 0)
        assert seed_for(0, 0) != seed_for(0, 1)


def _fault_rows(workers):
    """Rows of a 5-trial fault sweep (seed 2026) run on *workers*."""
    return run_sweep(faultsweep_spec(trials=5, m=3, n=10),
                     workers=workers).rows


class TestFaultSweep:
    def test_rows_worker_count_independent(self):
        assert _fault_rows(1) == _fault_rows(4)

    def test_all_rows_valid(self):
        rows = _fault_rows(2)
        assert all(row["valid"] for row in rows)
        assert [row["seed"] for row in rows] == [
            seed_for(2026, i) for i in range(5)
        ]
