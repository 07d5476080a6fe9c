"""Shared helpers for the test suite."""

from __future__ import annotations

from typing import Any, Callable

from repro.kernel import Kernel
from repro.kernel.process import Process
from repro.obs import Counter


def drive(kernel: Kernel, *fns: Callable[[], Any], **spawn_kwargs: Any) -> list[Process]:
    """Spawn every fn, run the kernel to quiescence, return the processes."""
    procs = [kernel.spawn(fn, **spawn_kwargs) for fn in fns]
    kernel.run()
    return procs


def results_of(procs: list[Process]) -> list[Any]:
    return [p.result for p in procs]


def run1(fn: Callable[[], Any], kernel: Kernel | None = None, **kernel_kwargs: Any) -> Any:
    """Run one process on a fresh kernel and return its result."""
    k = kernel or Kernel(**kernel_kwargs)
    return k.run_process(fn)


def counter_values(kernel: Kernel) -> dict[str, int]:
    """Every typed counter on ``kernel.metrics`` by dotted name.

    Counters only: histograms such as ``calls.latency`` exist only while
    spans are on, so comparing whole registry snapshots would confuse
    "recorded differently" with "recorded at all".
    """
    return {
        metric.name: metric.value
        for metric in kernel.metrics.metrics()
        if isinstance(metric, Counter)
    }
