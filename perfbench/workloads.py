"""The three benchmark workloads, built from a seed through repro's public API.

Each workload has two halves:

* ``inputs(seed)`` — the benchmark's own generator.  Arrival gaps, keys,
  per-message work and crash times come from ``random.Random(seed)``
  here, so the program under test receives only the generated inputs;
* ``setup(inputs, plane)`` — builds the kernel, network, objects, engine
  schedule and (optionally) the live telemetry plane, and returns a
  :class:`Prepared` whose ``kernel.run()`` is the timed part.

After the run, :meth:`Prepared.summary` reduces the virtual outcome to
a :class:`Summary`: counts, latencies, a digest of everything the
schedule decided, and any correctness problem found.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.channels import Channel, Receive, Send
from repro.faults import CircuitBreaker, FaultPlan, FixedBackoff, RetryBudget, install
from repro.kernel import Charge, Kernel
from repro.net import ring
from repro.stdlib import GatedKVStore
from repro.workloads import ArrivalProcess, TrafficEngine, watch_traffic


@dataclass
class Summary:
    """Virtual outcome of one rep (identical for every rep of one seed)."""

    ops: int  #: requests resolved / messages delivered (fixed per seed)
    ok: int
    errors: int  #: outcomes no correct run produces
    attempts: int
    retries: int
    latencies: list[int]  #: ok ops only, virtual ticks
    elapsed: int  #: final virtual clock
    digest: str
    problems: list[str] = field(default_factory=list)


@dataclass
class Prepared:
    """A built workload: ``kernel.run()`` runs it, then ``summary()``."""

    kernel: Kernel
    summary: Callable[[], Summary]


class Gaps(ArrivalProcess):
    """Arrival process replaying gaps the benchmark generated."""

    def __init__(self, gaps: list[int]) -> None:
        self._gaps = gaps

    def gaps(self):
        yield from self._gaps


def poisson_gaps(rng: random.Random, count: int, mean_gap: float) -> list[int]:
    """Gaps of ``count`` Poisson arrivals conditioned on a fixed window.

    Given its count, a Poisson process places its arrivals uniformly in
    the window, so every seed offers exactly ``count / (count * mean_gap)``
    requests per tick, and seeds differ only in how the arrivals bunch.
    """
    times = sorted(round(rng.uniform(0, count * mean_gap)) for _ in range(count))
    return [b - a for a, b in zip([0] + times, times)]


def digest(records: list, kernel: Kernel) -> str:
    """sha256 of the outcome records, the final clock and the kernel stats."""
    snapshot = sorted(kernel.stats.snapshot().items())
    blob = repr((records, kernel.clock.now, snapshot)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def traffic_summary(engine: TrafficEngine, kernel: Kernel, problems: list[str]) -> Summary:
    result = engine.result
    try:
        result.check_conservation()
    except AssertionError as exc:
        problems.append(str(exc))
    counts = result.counts
    outcomes = sorted(result.outcomes, key=lambda o: o.request.index)
    records = [
        (o.request.index, o.status, o.issued_at, o.finished_at, repr(o.value), o.retries)
        for o in outcomes
    ]
    if counts["error"]:
        problems.append(f"{counts['error']} requests ended in an unexpected error")
    return Summary(
        ops=result.issued,
        ok=counts["ok"],
        errors=counts["error"],
        attempts=result.attempts,
        retries=sum(o.retries for o in outcomes),
        latencies=[o.latency for o in outcomes if o.status == "ok"],
        elapsed=kernel.clock.now,
        digest=digest(records, kernel),
        problems=problems,
    )


# ----------------------------------------------------------------------
# kv-overload: open-loop Zipf traffic at ~1.5x the knee of a gated store
# ----------------------------------------------------------------------

KV_COUNT = 4000
KV_KEYS = 32
#: At E14's KV costs and N=32 the knee is near gap 7.5, so gap 5 offers
#: 1.5x it.
KV_MEAN_GAP = 5.0
KV_REQUEST_MAX = 32
KV_QUEUE_CAP = 16
#: End-to-end budget per request.  Without one, a few admitted calls wait
#: thousands of ticks under sustained overload, and p99 measured those
#: waits: 4.0k to 12.5k ticks across ten seeds.
KV_DEADLINE = 400


def kv_inputs(seed: int) -> dict:
    rng = random.Random(f"kv-overload:{seed}")
    weights = [1.0 / (rank ** 1.2) for rank in range(1, KV_KEYS + 1)]
    keys = rng.choices([f"k{i}" for i in range(KV_KEYS)], weights=weights, k=KV_COUNT)
    return {"seed": seed, "keys": keys, "gaps": poisson_gaps(rng, KV_COUNT, KV_MEAN_GAP)}


def kv_setup(inputs: dict, plane: bool) -> Prepared:
    keys = inputs["keys"]
    kernel = Kernel(seed=inputs["seed"])
    kv = GatedKVStore(kernel, name="kv", read_work=2, write_work=6,
                      request_max=KV_REQUEST_MAX, queue_cap=KV_QUEUE_CAP)

    def request(req):
        key = keys[req.index]
        if req.index % 3 == 0:
            return kv.put(key, req.index)
        return kv.get(key)

    engine = TrafficEngine(kernel, Gaps(inputs["gaps"]), KV_COUNT, request,
                           engines=4, clients=48, seed=inputs["seed"],
                           deadline=KV_DEADLINE)
    if plane:
        # As E14 attaches it: latency window, rates, burn-rate monitor,
        # and a heavy-hitter sketch of the touched keys.
        watch_traffic(kernel.obs.live, engine, objective=0.9, window=1200,
                      fast=600, slow=3000, key=lambda o: keys[o.request.index])
    engine.start()

    def summary() -> Summary:
        return traffic_summary(engine, kernel, [])

    return Prepared(kernel, summary)


# ----------------------------------------------------------------------
# chan-smp: ESPEED's producer/consumer pairs on a 2-CPU kernel, lengthened
# ----------------------------------------------------------------------

CHAN_PAIRS = 4
#: Per producer.  At 2500 the p99 latency spread 10% across seeds; at
#: 5000, 4%.
CHAN_MESSAGES = 5000
CHAN_CAPACITY = 8


def chan_inputs(seed: int) -> dict:
    rng = random.Random(f"chan-smp:{seed}")
    return {
        "seed": seed,
        "produce": [[rng.randint(1, 3) for _ in range(CHAN_MESSAGES)]
                    for _ in range(CHAN_PAIRS)],
        "consume": [[rng.randint(2, 4) for _ in range(CHAN_MESSAGES)]
                    for _ in range(CHAN_PAIRS)],
    }


def chan_setup(inputs: dict, plane: bool) -> Prepared:
    kernel = Kernel(num_cpus=2, seed=inputs["seed"])
    chan = Channel(capacity=CHAN_CAPACITY)
    clock = kernel.clock
    received: list[tuple] = []
    live = None
    if plane:
        # ESPEED's -live configuration: the consumers feed a latency
        # window, a rate and an SLO monitor; a clock-rolled sends rate.
        live = kernel.obs.live
        lat = live.histogram("chan.latency", window=1000)
        rate = live.rate("chan.rate", window=1000)
        slo = live.monitor("chan.slo", objective=0.99)
        live.metric_rate("sends")

    # A message's latency runs from the start of its production to the
    # end of its consumption.
    def producer(pid: int, work: list[int]):
        for i, ticks in enumerate(work):
            made_at = clock.now
            yield Charge(ticks)
            yield Send(chan, (pid, i, made_at))

    def consumer(cid: int, work: list[int]):
        for ticks in work:
            pid, i, made_at = yield Receive(chan)
            yield Charge(ticks)
            received.append((cid, pid, i, made_at, clock.now))
            if live is not None:
                lat.observe(clock.now - made_at)
                rate.mark()
                slo.record(True)

    for p in range(CHAN_PAIRS):
        kernel.spawn(producer, p, inputs["produce"][p], name=f"prod{p}")
        kernel.spawn(consumer, p, inputs["consume"][p], name=f"cons{p}")

    def summary() -> Summary:
        problems = []
        expected = {(p, i) for p in range(CHAN_PAIRS) for i in range(CHAN_MESSAGES)}
        got = [(pid, i) for _c, pid, i, _m, _d in received]
        if len(got) != len(expected) or set(got) != expected:
            problems.append(f"{len(got)} messages delivered, {len(expected)} sent")
        n = len(received)
        return Summary(
            ops=n, ok=n, errors=0,
            attempts=kernel.stats.sends, retries=0,
            latencies=[r - s for _c, _p, _i, s, r in received],
            elapsed=kernel.clock.now,
            digest=digest(received, kernel),
            problems=problems,
        )

    return Prepared(kernel, summary)


# ----------------------------------------------------------------------
# crash-guarded: E15's guarded stack at 1.5x knee, repeated crash/heal
# ----------------------------------------------------------------------

CRASH_COUNT = 4000
CRASH_MEAN_GAP = 17.0  #: E15's storm gap: 1.5x its calm knee (gap ~26)
CRASH_CYCLES = 8
CRASH_OUTAGE = 200
CRASH_DETECTION = 10


def crash_inputs(seed: int) -> dict:
    rng = random.Random(f"crash-guarded:{seed}")
    gaps = poisson_gaps(rng, CRASH_COUNT, CRASH_MEAN_GAP)
    period = sum(gaps) // CRASH_CYCLES
    crashes = [k * period + rng.randint(period // 4, period // 2)
               for k in range(CRASH_CYCLES)]
    return {"seed": seed, "gaps": gaps, "crashes": crashes}


def crash_setup(inputs: dict, plane: bool) -> Prepared:
    kernel = Kernel(seed=inputs["seed"])
    net = ring(kernel, 2)
    store = net.node("n1").place(
        GatedKVStore(kernel, name="kv", write_work=20, request_max=1, queue_cap=4)
    )

    def build(req):
        # Unique key per request, so an acked put lost by a crash shows.
        return store.put(f"k{req.index}", req.index, timeout=150)

    engine = TrafficEngine(
        kernel, Gaps(inputs["gaps"]), CRASH_COUNT, build,
        engines=4, clients=64, seed=inputs["seed"], name="e15",
        deadline=300,
        retry_policy=FixedBackoff(delay=20, max_attempts=6),
        retry_budget=RetryBudget(capacity=10.0, fill_ratio=0.1),
        breaker=CircuitBreaker(kernel, window=200, min_calls=10,
                               failure_threshold=0.5, cooldown=100,
                               name="kv-breaker"),
    )
    if plane:
        watch_traffic(kernel.obs.live, engine, objective=0.9, fast=400, slow=2000)
    plan = FaultPlan(detection_delay=CRASH_DETECTION)
    for at in inputs["crashes"]:
        plan.crash_node("n1", at=at, restart_at=at + CRASH_OUTAGE)
        # Node restarts do not restart placed objects; heal the store
        # (its data mapping, the stable storage, survives).
        kernel.post(at + CRASH_OUTAGE + 1, store.restart)
    install(kernel, net, plan)
    engine.start()

    def summary() -> Summary:
        problems = []
        lost = sum(1 for o in engine.result.outcomes
                   if o.status == "ok" and f"k{o.request.index}" not in store.data)
        if lost:
            problems.append(f"lost_acked = {lost}")
        return traffic_summary(engine, kernel, problems)

    return Prepared(kernel, summary)


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable[[int], dict]
    setup: Callable[[dict, bool], Prepared]
    #: Whether the workload runs with the live plane attached.
    plane: bool
    #: Size of the busiest hidden procedure array (for slot visits).
    array_size: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("kv-overload", kv_inputs, kv_setup, True, KV_REQUEST_MAX),
        Workload("chan-smp", chan_inputs, chan_setup, False, 0),
        Workload("crash-guarded", crash_inputs, crash_setup, True, 1),
    )
}
