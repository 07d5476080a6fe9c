"""Layer-attributed benchmark of the ALPS simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kv-overload --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: host throughput of the
kernel run, set-up time and peak memory, plus the virtual-time outcome
of the modelled objects.  ``--trace 1`` measures the per-layer metrics
instead: cProfile call counts and self-time per repro layer, counter
ratios, the live plane's and the profiler's own overhead, and a
folded-stack flame graph of host self-time under ``perfbench/out/``.

Every rep is checked: its digest of the virtual results (outcomes,
final clock, kernel counters) must equal the first rep's, the engine's
conservation identity must hold, and crash-guarded must lose no
acknowledged write.  The traced run also checks that two profiled reps
count exactly the same calls, that the digest survives a rerun in a
fresh interpreter, and that each workload still exercises the layer it
was chosen for, on the given seed and on a held-out one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

#: Offset of the held-out seed the purpose self-check also runs on.
HELD_OUT = 7919
#: Minimum timed reps in a run, however short ``--seconds`` is.
MIN_REPS = 3
#: Extra set-ups timed (and discarded) per rep, more than this many and
#: for more than this many host seconds: set-up is short, so it needs
#: more samples than the reps give for a steady median.
EXTRA_SETUPS = 4
SETUP_BUDGET_S = 0.05

LAYERS = ("kernel", "kernel.sched", "channels", "core", "stdlib",
          "workloads", "obs", "faults", "net")


class Checks:
    """Correctness bookkeeping: every rep's ops count as attempted, and as
    failed when the rep broke a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def rep(self, label: str, summary, reference: str | None) -> None:
        self.attempted += summary.ops
        problems = [f"{label}: {p}" for p in summary.problems]
        if reference is not None and summary.digest != reference:
            problems.append(f"{label}: digest {summary.digest} != {reference}")
        self.failed += summary.ops if problems else summary.errors
        self.problems += problems

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def nearest_rank(values: list[int], p: int) -> tuple[int, int]:
    """(p-th percentile, samples beyond it) by exact nearest rank."""
    ordered = sorted(values)
    rank = max(1, -(-p * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Rep:
    """One timed rep: scaled host seconds of its set-ups and run chunks."""

    def __init__(self, summary, raw_run_s: float, chunks: list[float],
                 setups: list[float], calibs: list[float]) -> None:
        self.summary = summary
        self.raw_run_s = raw_run_s
        self.chunks = chunks
        self.setups = setups
        self.calibs = calibs


def timed_rep(w, inputs, plane: bool | None = None, setups: bool = False) -> Rep:
    """One calibrated rep; with ``setups``, extra set-ups are timed first."""
    from hosttime import calibration, scaled, timed_run

    use_plane = w.plane if plane is None else plane
    gc.collect()
    raw_setups: list[float] = []
    while True:
        t0 = time.perf_counter()
        prepared = w.setup(inputs, use_plane)
        raw_setups.append(time.perf_counter() - t0)
        if not setups or (len(raw_setups) > EXTRA_SETUPS
                          and sum(raw_setups) > SETUP_BUDGET_S):
            break
    calib = calibration()
    setup_s = [scaled(t, calib) for t in raw_setups]
    gc.collect()
    raw, chunks, run_calibs = timed_run(prepared.kernel)
    return Rep(prepared.summary(), raw, chunks, setup_s, [calib] + run_calibs)


def warm_up(w, inputs):
    """An untimed rep under tracemalloc: the reference digest, the kernel
    counters and the peak heap."""
    gc.collect()
    tracemalloc.start()
    try:
        prepared = w.setup(inputs, w.plane)
        prepared.kernel.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return prepared, prepared.summary(), peak


def end_to_end(w, seed: int, seconds: float, checks: Checks) -> dict:
    from hosttime import steady_seconds

    inputs = w.inputs(seed)
    prepared, ref, peak = warm_up(w, inputs)
    checks.rep("warm-up", ref, None)
    reps: list[Rep] = []
    start = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
        reps.append(timed_rep(w, inputs, setups=True))
        checks.rep(f"rep {len(reps)}", reps[-1].summary, ref.digest)

    p50, _ = nearest_rank(ref.latencies, 50)
    p99, beyond = nearest_rank(ref.latencies, 99)
    checks.require(beyond >= 10, f"only {beyond} samples beyond p99")
    stats = prepared.kernel.stats
    run_s = steady_seconds([r.chunks for r in reps])
    print(f"# {w.name} seed {seed}: digest {ref.digest}; {len(reps)} timed reps; "
          f"host s {[round(r.raw_run_s, 3) for r in reps]}; scaled s "
          f"{[round(sum(r.chunks), 3) for r in reps]}, steady {run_s:.3f}; "
          f"{len(ref.latencies)} latency samples, {beyond} beyond p99; "
          f"{stats.resumptions} events")
    return {
        "ops_per_s": metric(ref.ops / run_s, "ops/s"),
        "events_per_s": metric(stats.resumptions / run_s, "events/s"),
        "setup_s": metric(statistics.median(t for r in reps for t in r.setups), "s"),
        "peak_mem_mb": metric(peak / 1e6, "MB"),
        "virt_goodput_per_ktick": metric(ref.ok * 1000 / ref.elapsed, "ok/ktick"),
        "virt_p50_ticks": metric(p50, "ticks"),
        "virt_p99_ticks": metric(p99, "ticks"),
        "ok_share": metric(ref.ok / ref.ops, "share"),
        "virt_attempts_per_op": metric(ref.attempts / ref.ops, "attempts/op"),
        "virt_switches_per_op": metric(stats.context_switches / ref.ops, "switches/op"),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

UNITS = {"calls_per_event": "calls/event", "switches_per_event": "switches/event",
         "guard_polls_per_select": "polls/select", "useful_poll_ratio": "commits/poll",
         "cpu_util": "share", "steals": "count", "migrations_per_event": "migrations/event",
         "sends_per_event": "sends/event", "pending_count_calls_per_event": "calls/event",
         "slot_visits_per_event": "visits/event", "accepts_per_op": "accepts/op",
         "shed_per_op": "shed/op", "retries_per_op": "retries/op",
         "breaker_transitions": "count", "deadline_expired_per_op": "expired/op",
         "rpc_messages_per_op": "messages/op"}


def counted(w, prepared, summary, profile) -> dict[str, float]:
    """Counter- and count-derived per-layer ratios (exact for a seed)."""
    kernel = prepared.kernel
    stats = kernel.stats
    events = stats.resumptions
    ops = summary.ops
    if kernel.cpus.infinite:
        # Unbounded machine: mean busy CPUs.
        util = kernel.cpus.busy_ticks / summary.elapsed
    else:
        util = sum(stats.cpu.values()) / (kernel.cpus.count * summary.elapsed)
    runtime = "core/runtime.py"
    guard_views = sum(profile.function_calls(runtime, name)
                      for name in ("pending_count", "_matching", "try_attach"))
    value = kernel.metrics.value
    out = {f"{layer}.calls_per_event": profile.calls[layer] / events
           for layer in ("kernel", "kernel.sched", "channels", "core", "obs")}
    out.update({
        "kernel.switches_per_event": stats.context_switches / events,
        "kernel.guard_polls_per_select": stats.guard_polls / max(1, stats.selects),
        "kernel.useful_poll_ratio": stats.commits / max(1, stats.guard_polls),
        "kernel.sched.cpu_util": util,
        "kernel.sched.steals": stats.steals,
        "kernel.sched.migrations_per_event": stats.migrations / events,
        "channels.sends_per_event": stats.sends / events,
        "core.pending_count_calls_per_event":
            profile.function_calls(runtime, "pending_count") / events,
        "core.slot_visits_per_event": guard_views * w.array_size / events,
        "core.accepts_per_op": stats.accepts / ops,
        "core.shed_per_op": stats.calls_shed / ops,
        "faults.retries_per_op": summary.retries / ops,
        "faults.breaker_transitions": value("breaker.transitions"),
        "faults.deadline_expired_per_op": value("deadline.expired") / ops,
        "net.rpc_messages_per_op": value("rpc.messages") / ops,
    })
    return out


def purpose(w, counts: dict, profile) -> list[str]:
    """Why the workload exists, as checks on its traced numbers."""
    failures = []
    if w.name == "kv-overload":
        if counts["core.shed_per_op"] <= 0:
            failures.append("the shedding arm never fired")
        top = max(LAYERS, key=profile.share)
        if top != "core":
            failures.append(f"largest self-time share is {top}, not core")
    elif w.name == "chan-smp":
        if counts["core.calls_per_event"] != 0:
            failures.append("the manager runtime was called")
        if counts["kernel.sched.migrations_per_event"] == 0 and counts["kernel.sched.steals"] == 0:
            failures.append("no migrations or steals: the SMP path was idle")
    elif w.name == "crash-guarded":
        if counts["faults.retries_per_op"] <= 0:
            failures.append("no retries")
        if counts["faults.breaker_transitions"] <= 0:
            failures.append("the circuit breaker never moved")
    return failures


def fresh_digest(workload: str, seed: int) -> str:
    """The digest of one rep in a new interpreter with another hash seed."""
    env = dict(os.environ, PYTHONHASHSEED="4242")
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--digest"],
        env=env, capture_output=True, text=True, timeout=150, check=False,
    )
    lines = done.stdout.split()
    return lines[-1] if done.returncode == 0 and lines else f"<exit {done.returncode}>"


def traced(w, seed: int, seconds: float, checks: Checks) -> dict:
    from hosttime import steady_seconds
    from layers import StackSampler, profile_rep
    from repro.obs.analyze import parse_folded, render_svg

    inputs = w.inputs(seed)
    _, ref, _ = warm_up(w, inputs)
    checks.rep("warm-up", ref, None)

    # Live plane on and off, interleaved, alternating which goes first;
    # both must give the same digest.
    on: list[list[float]] = []
    off: list[list[float]] = []
    calibs: list[float] = []
    start = time.perf_counter()
    while len(on) < MIN_REPS or time.perf_counter() - start < seconds:
        for plane, times in ((True, on), (False, off))[:: 1 if len(on) % 2 else -1]:
            timed = timed_rep(w, inputs, plane)
            checks.rep(f"plane {'on' if plane else 'off'}", timed.summary, ref.digest)
            times.append(timed.chunks)
            calibs += timed.calibs
    on_s, off_s = steady_seconds(on), steady_seconds(off)
    untraced_s = on_s if w.plane else off_s

    def profiled(label: str, inputs: dict, reference: str | None):
        prepared = w.setup(inputs, w.plane)
        profile, run_s = profile_rep(prepared.kernel)
        summary = prepared.summary()
        checks.rep(label, summary, reference)
        return prepared, summary, profile, run_s

    prepared, summary, profile, traced_s = profiled("profiled rep 1", inputs, ref.digest)
    counts = counted(w, prepared, summary, profile)
    prepared2, summary2, profile2, traced_s2 = profiled("profiled rep 2", inputs,
                                                        ref.digest)
    checks.require(profile2.functions == profile.functions
                   and counted(w, prepared2, summary2, profile2) == counts,
                   "two profiled reps counted different calls")
    for problem in purpose(w, counts, profile):
        checks.problems.append(f"seed {seed}: {problem}")

    held = seed + HELD_OUT
    held_prepared, held_summary, held_profile, _ = profiled(
        f"held-out seed {held}", w.inputs(held), None)
    for problem in purpose(w, counted(w, held_prepared, held_summary, held_profile),
                           held_profile):
        checks.problems.append(f"held-out seed {held}: {problem}")

    rerun = fresh_digest(w.name, seed)
    checks.require(rerun == ref.digest,
                   f"fresh interpreter digest {rerun} != {ref.digest}")

    sampler = StackSampler()
    sampled = w.setup(inputs, w.plane)
    gc.collect()
    sampler.run(sampled.kernel.run)
    checks.rep("sampled rep", sampled.summary(), ref.digest)
    OUT.mkdir(exist_ok=True)
    folded = sampler.folded()
    (OUT / f"{w.name}.folded").write_text("\n".join(folded) + "\n", encoding="utf-8")
    (OUT / f"{w.name}.svg").write_text(
        render_svg(parse_folded(folded), title=f"{w.name}: host self-time (samples)"),
        encoding="utf-8")

    metrics = {f"{layer}.self_share": metric(profile.share(layer), "share")
               for layer in LAYERS}
    for name, value in counts.items():
        metrics[name] = metric(value, UNITS[name.rsplit(".", 1)[1]])
    metrics["obs.live_overhead_x"] = metric(on_s / off_s, "x")
    metrics["trace_overhead_x"] = metric(
        statistics.median([traced_s, traced_s2]) / untraced_s, "x")
    metrics["host.calib_s"] = metric(statistics.median(calibs), "s")
    shares = ", ".join(f"{layer} {profile.share(layer):.3f}" for layer in LAYERS)
    print(f"# {w.name} seed {seed}: digest {ref.digest}; self-time shares: {shares}; "
          f"other {profile.share('other'):.3f}; folded stacks in {OUT / w.name}.folded")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true",
                        help="print the digest of one rep and exit")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.digest:
        prepared = w.setup(w.inputs(args.seed), w.plane)
        prepared.kernel.run()
        print(prepared.summary().digest)
        return 0

    checks = Checks()
    measure = traced if args.trace else end_to_end
    metrics = measure(w, args.seed, args.seconds, checks)
    for problem in checks.problems:
        print(f"# CHECK FAILED: {problem}")
    correct = not checks.problems
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
