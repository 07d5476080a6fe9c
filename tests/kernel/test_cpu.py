"""Unit tests for the CPU pool."""

import pytest

from repro.kernel.cpu import CpuPool


class TestInfinitePool:
    def test_work_never_queues(self):
        pool = CpuPool(None)
        assert pool.acquire(10, 100) == (10, 110)
        assert pool.acquire(10, 100) == (10, 110)

    def test_infinite_flag(self):
        assert CpuPool(None).infinite

    def test_utilization_reports_mean_parallelism(self):
        # No finite capacity to divide by: the infinite pool reports
        # busy ticks per elapsed tick (mean parallelism), not 0.0.
        pool = CpuPool(None)
        pool.acquire(0, 100)
        pool.acquire(0, 100)
        assert pool.utilization(100) == pytest.approx(2.0)
        assert pool.utilization(400) == pytest.approx(0.5)
        assert pool.utilization(0) == 0.0


class TestFinitePool:
    """A pool sized for a finite machine only records its count: grants
    on a finite machine go through the SMP scheduler, so the pool itself
    never queues work."""

    def test_idle_gap_respected(self):
        pool = CpuPool(1)
        pool.acquire(0, 5)
        # Work requested after the CPU is already free starts immediately.
        assert pool.acquire(50, 5) == (50, 55)

    def test_zero_duration(self):
        pool = CpuPool(1)
        assert pool.acquire(3, 0) == (3, 3)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            CpuPool(1).acquire(0, -1)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            CpuPool(0)

    def test_busy_ticks_accumulate(self):
        pool = CpuPool(4)
        pool.acquire(0, 3)
        pool.acquire(0, 4)
        assert pool.busy_ticks == 7
