"""Host time, scaled to a reference host so that host drift cancels.

On a shared 2-vCPU virtual machine, host speed switches between states
almost 2x apart, each lasting a fraction of a second to a few seconds.
A rep of one to three seconds sees a different mix of states every
time: raw rep times spread 17-21% (IQR over median).  So the simulation
runs in chunks of :data:`CHUNK_EVENTS` kernel events, and after each
chunk a short :func:`calibration` loop measures the host's current
speed.  Each chunk's time is scaled to a host on which that loop takes
:data:`REFERENCE_CALIB_S`; the scaled rep times spread 2-5%.  Chunks
fall on the same events in every rep, so a run's time is the sum of
each chunk's median over the reps.

The loop shares no code with repro, so a slower program still reads
slower.  Stopping the kernel between events (``run(max_events=...)``)
leaves the schedule unchanged; every rep's digest checks that.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: Kernel events per timed chunk.
CHUNK_EVENTS = 2000
#: Steps of the calibration loop run after each chunk.
CALIB_STEPS = 2000
#: Scaled seconds are seconds on a host where :func:`calibration` takes
#: this long.
REFERENCE_CALIB_S = 0.0025


class _Task:
    __slots__ = ("gen", "steps")

    def __init__(self, gen) -> None:
        self.gen = gen
        self.steps = 0


def calibration(tasks: int = 64, steps: int = CALIB_STEPS) -> float:
    """Seconds for a fixed event loop of generators, a heap and a dict.

    It has the simulator's character, so it speeds up and slows down
    with the host as the simulator does.  The collector is paused: a
    collection would scan whatever the caller left on the heap and time
    that instead of the host.
    """
    def body(i: int, table: dict):
        k = 0
        while True:
            k += 1
            table[(i, k % 8)] = table.get((i, (k - 1) % 8), 0) + 1
            yield (i * 7 + k) % 13 + 1

    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict = {}
        procs = [_Task(body(i, table)) for i in range(tasks)]
        heap = [(0, i) for i in range(tasks)]
        for _ in range(steps):
            now, i = heapq.heappop(heap)
            proc = procs[i]
            proc.steps += 1
            heapq.heappush(heap, (now + next(proc.gen), i))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, calib_s: float) -> float:
    return seconds * REFERENCE_CALIB_S / calib_s


def timed_run(kernel, profiler=None) -> tuple[float, list[float], list[float]]:
    """Run ``kernel`` to quiescence in calibrated chunks.

    Returns (host seconds, scaled seconds of each chunk, calibration
    times).  Chunk boundaries fall on the same events in every rep of a
    seed, so chunk ``i`` of one rep is comparable with chunk ``i`` of
    another (see :func:`steady_seconds`).  A given ``profiler``
    (``cProfile.Profile``) is enabled during the chunks only, never
    during calibration.
    """
    raw = 0.0
    chunks: list[float] = []
    calibs: list[float] = []
    done = False
    while not done:
        mark = (kernel.clock.now, kernel.stats.resumptions)
        if profiler is not None:
            profiler.enable()
        t0 = time.perf_counter()
        kernel.run(max_events=CHUNK_EVENTS)
        if (kernel.clock.now, kernel.stats.resumptions) == mark:
            # No progress: at most stale events are left.  An unbounded
            # run drains them and checks quiescence.
            kernel.run()
            done = True
        elapsed = time.perf_counter() - t0
        if profiler is not None:
            profiler.disable()
        calibs.append(calibration())
        raw += elapsed
        chunks.append(scaled(elapsed, calibs[-1]))
    return raw, chunks, calibs


def steady_seconds(runs: list[list[float]]) -> float:
    """Scaled seconds of one run, from several reps' chunk times.

    The sum over chunks of each chunk's median across reps: a chunk that
    a host-state switch or an interrupted calibration distorted in one
    rep is outvoted by the same chunk in the other reps.
    """
    if len({len(chunks) for chunks in runs}) != 1:
        raise ValueError("reps split into different numbers of chunks")
    return sum(statistics.median(column) for column in zip(*runs))
