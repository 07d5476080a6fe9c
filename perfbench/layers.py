"""Layer attribution from outside the program: cProfile counts and a stack sampler.

A *layer* is a repro module group, named after its modules:

==============  ======================================================
layer           modules
==============  ======================================================
kernel          repro.kernel.* except sched and cpu
kernel.sched    repro.kernel.sched, repro.kernel.cpu
channels, core, stdlib, workloads, obs, faults, net, ...
                repro.<package>.*
==============  ======================================================

Two instruments, used on separate reps so neither distorts the other:

* :func:`profile_rep` runs one rep under ``cProfile`` and gives, per
  layer, the Python calls (generator resumptions included) and the
  self-time of its functions.  Builtins take the layer of the repro
  function that called them; everything else is ``other``.  The call
  counts are a pure function of the schedule, so they repeat exactly;
* :class:`StackSampler` samples the Python stack on a CPU-time timer
  and keeps the ``repro`` frames, giving host self-time as folded stacks
  that ``repro.obs.analyze.parse_folded``/``render_svg`` render.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import signal
from collections import Counter
from typing import Callable

from hosttime import timed_run

_MARK = f"{os.sep}repro{os.sep}"


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to, or None outside repro."""
    at = filename.rfind(_MARK)
    if at < 0:
        return None
    parts = filename[at + len(_MARK):].split(os.sep)
    if len(parts) == 1:  # repro/errors.py, repro/__init__.py
        return os.path.splitext(parts[0])[0]
    if parts[0] == "kernel" and parts[1] in ("sched.py", "cpu.py"):
        return "kernel.sched"
    return parts[0]


class Profile:
    """Per-layer calls and self-time, plus per-function call counts."""

    def __init__(self, stats: dict) -> None:
        self.calls: Counter[str] = Counter()
        self.self_time: Counter[str] = Counter()
        #: ``(module path under repro, function name) -> calls``.
        self.functions: Counter[tuple[str, str]] = Counter()
        for (filename, _line, name), (_cc, nc, tt, _ct, callers) in stats.items():
            layer = layer_of(filename)
            if layer is not None:
                self.calls[layer] += nc
                self.self_time[layer] += tt
                rel = filename[filename.rfind(_MARK) + len(_MARK):]
                self.functions[(rel, name)] += nc
                continue
            # Not a repro frame: a builtin is charged to the repro
            # function that called it, per call edge.
            for (caller_file, _l, _n), edge in callers.items():
                caller_layer = layer_of(caller_file) if filename == "~" else None
                self.self_time[caller_layer or "other"] += edge[2]
            if not callers:
                self.self_time["other"] += tt

    @property
    def total_time(self) -> float:
        return sum(self.self_time.values())

    def share(self, layer: str) -> float:
        total = self.total_time
        return self.self_time[layer] / total if total else 0.0

    def function_calls(self, module: str, name: str) -> int:
        return self.functions[(module.replace("/", os.sep), name)]


def profile_rep(kernel) -> tuple[Profile, float]:
    """Run ``kernel`` under cProfile; returns the profile and the scaled
    host seconds of the run (see :mod:`hosttime`).

    The cyclic collector is paused while profiling so that finalizers of
    earlier reps' garbage cannot run repro code inside this one.
    """
    gc.collect()
    gc.disable()
    profiler = cProfile.Profile()
    try:
        _, chunks, _ = timed_run(kernel, profiler)
    finally:
        gc.enable()
    return Profile(pstats.Stats(profiler).stats), sum(chunks)  # type: ignore[attr-defined]


class StackSampler:
    """Samples the stack every ``interval`` s of process CPU time.

    Each sample adds one to the folded stack of the repro frames on the
    stack (root first), so a stack's count is its self-time in samples.
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.samples: Counter[str] = Counter()

    def _handler(self, _signum, frame) -> None:
        names = []
        while frame is not None:
            code = frame.f_code
            filename = code.co_filename
            at = filename.rfind(_MARK)
            if at >= 0:
                module = filename[at + 1:-3].replace(os.sep, ".")
                names.append(f"{module}:{code.co_qualname}")
            frame = frame.f_back
        if names:
            self.samples[";".join(reversed(names))] += 1

    def run(self, run: Callable[[], None]) -> None:
        previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            run()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def folded(self) -> list[str]:
        return [f"{stack} {count}" for stack, count in sorted(self.samples.items())]
