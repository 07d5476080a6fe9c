"""Oracle for EntryRuntime's slot indexes.

The free, ATTACHED and BODY_DONE indexes and ``#P`` are kept
incrementally.  A kernel that checks them against a from-scratch scan of
``slots`` and ``waiting`` after every process step runs overloaded,
deadlined, crashing and unmanaged workloads here; any transition that
bypasses the indexes' owner shows up as a mismatch at the next step.
"""

import random

import pytest

from repro.core import AlpsObject, CallState, entry
from repro.core.runtime import _indices
from repro.errors import AdmissionError, DeadlineExceeded, RemoteCallError
from repro.faults import FaultPlan, install
from repro.kernel import Delay, Kernel
from repro.net import ring
from repro.stdlib import GatedKVStore, Supervisor


def scan(runtime):
    """The indexes and guard views, recomputed from ``slots``/``waiting``."""
    slots = runtime.slots
    attached = [i for i, c in enumerate(slots) if c is not None and c.state is CallState.ATTACHED]
    body_done = [i for i, c in enumerate(slots) if c is not None and c.state is CallState.BODY_DONE]
    return {
        "free": [i for i, c in enumerate(slots) if c is None],
        "attached": attached,
        "body_done": body_done,
        "pending": len(attached) + len(runtime.waiting),
        "acceptable": [slots[i] for i in attached],
        "awaitable": [slots[i] for i in body_done],
    }


def indexed(runtime):
    """The same, read from the incremental indexes."""
    return {
        "free": _indices(runtime._free),
        "attached": _indices(runtime._attached),
        "body_done": _indices(runtime._body_done),
        "pending": runtime.pending_count(),
        "acceptable": runtime.acceptable(None, None, all_matches=True),
        "awaitable": runtime.awaitable(None, None, all_matches=True),
    }


class ScanCheckedRandom(random.Random):
    """Asserts that a slot draw sees the free list a scan would build."""

    expected = None
    slot_draws = 0

    def choice(self, seq):
        if self.expected is not None:
            assert list(seq) == self.expected
            self.expected = None
            self.slot_draws += 1
        return super().choice(seq)


class CheckedKernel(Kernel):
    """Checks every watched runtime's indexes after each process step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        rng = ScanCheckedRandom()
        rng.setstate(self.rng.getstate())
        self.rng = rng
        self.watched = []
        self.steps_checked = 0

    def watch(self, obj):
        for runtime in obj._runtimes.values():
            self.watched.append(runtime)
            attach = runtime.try_attach

            def try_attach(call, runtime=runtime, attach=attach):
                self.rng.expected = scan(runtime)["free"]
                try:
                    return attach(call)
                finally:
                    self.rng.expected = None

            runtime.try_attach = try_attach
        return obj

    def _step_process(self, proc):
        super()._step_process(proc)
        for runtime in self.watched:
            assert indexed(runtime) == scan(runtime), (
                f"t={self.clock.now}: {runtime.describe()}"
            )
        self.steps_checked += 1


def issue(spawn, calls, outcomes):
    """Spawn one caller per ``(at, make_call)``; collect their outcomes."""

    def client(at, make_call):
        def body():
            yield Delay(at)
            try:
                yield make_call()
            except (AdmissionError, DeadlineExceeded, RemoteCallError) as exc:
                outcomes.append(type(exc).__name__)
            else:
                outcomes.append("ok")

        return body

    for i, (at, make_call) in enumerate(calls):
        spawn(client(at, make_call), name=f"c{i}")


def kv_calls(kv, count, seed, deadline=None, gap=3):
    """Seeded gets and puts on a few keys, one put in three."""
    rng = random.Random(seed)
    calls, at = [], 0
    for i in range(count):
        at += rng.randint(0, gap)
        key = f"k{i % 5}"
        budget = None if deadline is None else rng.randint(*deadline)
        if i % 3 == 0:
            calls.append((at, lambda key=key, i=i, b=budget: kv.put(key, i, deadline=b)))
        else:
            calls.append((at, lambda key=key, b=budget: kv.get(key, deadline=b)))
    return calls


@pytest.mark.parametrize("arbitration", ["ordered", "random"])
def test_overloaded_kv_with_deadlines(arbitration):
    kernel = CheckedKernel(seed=3, arbitration=arbitration)
    kv = kernel.watch(GatedKVStore(kernel, name="kv", read_work=4, write_work=9,
                                   request_max=6, queue_cap=4))
    outcomes = []
    issue(kernel.spawn, kv_calls(kv, 200, seed=11, deadline=(15, 60)), outcomes)
    kernel.run()
    assert len(outcomes) == 200
    # Served, shed and expired calls all crossed the indexes.
    assert {"ok", "AdmissionError", "DeadlineExceeded"} <= set(outcomes)
    assert kernel.steps_checked > 1000
    if arbitration == "random":
        assert kernel.rng.slot_draws > 0


def test_crash_restart_requeue():
    kernel = CheckedKernel(seed=5)
    net = ring(kernel, 3)
    faults = install(kernel, net, FaultPlan(detection_delay=10)
                     .crash_node("n1", at=40, restart_at=120)
                     .crash_node("n1", at=300, restart_at=330))
    kv = kernel.watch(net.node("n1").place(
        GatedKVStore(kernel, name="kv", read_work=5, write_work=8, request_max=4)))
    sup = net.node("n2").place(Supervisor(kernel, name="sup", faults=faults))
    sup.watch(kv)
    outcomes = []
    issue(net.node("n0").spawn, kv_calls(kv, 120, seed=2), outcomes)
    kernel.run()
    assert len(outcomes) == 120
    assert kernel.metrics.value("faults.requeued_calls") > 0
    assert [name for _, name, _ in sup.restarts] == ["kv", "kv"]


class Bounded(AlpsObject):
    """An entry with an array and no manager: calls start from ATTACHED."""

    def setup(self, width: int = 2) -> None:
        self.width = width

    @entry(returns=1, array="width")
    def op(self, x):
        yield Delay(3)
        return x


@pytest.mark.parametrize("arbitration", ["ordered", "random"])
def test_unmanaged_bounded_entry(arbitration):
    kernel = CheckedKernel(seed=1, arbitration=arbitration)
    obj = kernel.watch(Bounded(kernel, width=3))
    outcomes = []
    issue(kernel.spawn, [(i // 4, lambda i=i: obj.op(i)) for i in range(24)], outcomes)
    kernel.run()
    assert outcomes == ["ok"] * 24
    assert kernel.steps_checked > 24
