"""Simulated CPU pool (the unbounded-machine latency model).

On an unbounded machine simulated work by different processes overlaps
freely: every acquisition starts at once.  Finite machines are
scheduled by the SMP virtual machine in :mod:`repro.kernel.sched`
(per-CPU runqueues, scheduling classes, node-local domains); the pool
only records their CPU count for reporting.
"""

from __future__ import annotations


class CpuPool:
    """The machine's CPU count plus busy-time accounting for unbounded work."""

    __slots__ = ("count", "busy_ticks")

    def __init__(self, count: int | None) -> None:
        if count is not None and count < 1:
            raise ValueError(f"cpu count must be >= 1 or None, got {count}")
        self.count = count
        #: Total busy ticks accumulated (for utilization reporting).
        self.busy_ticks = 0

    @property
    def infinite(self) -> bool:
        return self.count is None

    def acquire(self, now: int, duration: int) -> tuple[int, int]:
        """Occupy a CPU for ``duration`` ticks starting at ``now``.

        Returns ``(start, end)``; the work always starts immediately.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        self.busy_ticks += duration
        return now, now + duration

    def utilization(self, elapsed: int) -> float:
        """Mean parallelism over ``elapsed`` ticks.

        An unbounded machine has no capacity to divide by, so this is
        busy ticks per elapsed tick (how many CPUs were occupied on
        average) rather than a silently-lying 0.0.
        """
        if elapsed <= 0:
            return 0.0
        return self.busy_ticks / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CpuPool(count={self.count}, busy={self.busy_ticks})"
