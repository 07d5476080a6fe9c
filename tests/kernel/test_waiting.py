"""Unit tests for Waitable/Guard plumbing."""

import pytest

from repro.channels import Channel, ReceiveGuard, Send
from repro.kernel import Delay, Kernel, Select
from repro.kernel.costs import FREE
from repro.kernel.waiting import EventLog, Guard, Ready, Waitable


class TestWaitable:
    def test_add_remove_waiters(self):
        w = Waitable()

        class FakeProc:
            pass

        p = FakeProc()
        w.add_waiter(p)
        w.add_waiter(p)  # idempotent
        assert w.waiter_count == 1
        w.remove_waiter(p)
        assert w.waiter_count == 0
        w.remove_waiter(p)  # tolerant

    def test_blocked_selector_registered_and_cleared(self):
        kernel = Kernel(costs=FREE)
        ch = Channel()

        def selector():
            yield Select(ReceiveGuard(ch))

        proc = kernel.spawn(selector)
        kernel.run(until=0)
        assert ch.waiter_count == 1  # registered while blocked

        def sender():
            yield Send(ch, 1)

        kernel.spawn(sender)
        kernel.run()
        assert ch.waiter_count == 0  # unregistered after commit

    def test_selector_with_two_channels_registered_on_both(self):
        kernel = Kernel(costs=FREE)
        a, b = Channel(), Channel()

        def selector():
            yield Select(ReceiveGuard(a), ReceiveGuard(b))

        kernel.spawn(selector)
        kernel.run(until=0)
        assert a.waiter_count == 1
        assert b.waiter_count == 1

        def sender():
            yield Send(a, 1)

        kernel.spawn(sender)
        kernel.run()
        # Commit on a must deregister from b too.
        assert b.waiter_count == 0


class TestGuardDefaults:
    def test_base_guard_defaults(self):
        guard = Guard()
        assert guard.feasible()
        assert list(guard.waitables()) == []
        assert guard.describe() == "Guard"

    def test_effective_pri_ordering(self):
        unprioritized = Guard()
        prioritized = Guard()
        prioritized.pri = 5
        ready = Ready("x")
        assert prioritized.effective_pri(ready) < unprioritized.effective_pri(ready)

    def test_callable_pri_uses_value(self):
        guard = Guard()
        guard.pri = lambda value: value * 2
        assert guard.effective_pri(Ready(10)) == (0, 20)


class TestEventLog:
    def test_after_not_ready_at_seen_length(self):
        kernel = Kernel(costs=FREE)
        log = EventLog(kernel, "events")
        log.append("a")
        assert log.after(1).poll(kernel) is None

    def test_one_append_makes_it_ready_with_the_length(self):
        kernel = Kernel(costs=FREE)
        log = EventLog(kernel, "events")
        log.append("a")
        guard = log.after(1)
        log.append("b")
        ready = guard.poll(kernel)
        assert ready is not None
        assert guard.commit(kernel, None, ready) == 2

    def test_blocked_select_wakes_at_the_append_tick(self):
        kernel = Kernel(costs=FREE)
        log = EventLog(kernel, "events")
        woke = []

        def sleeper():
            _, count = yield Select(log.after(0))
            woke.append((kernel.clock.now, count))

        def writer():
            yield Delay(7)
            log.append((kernel.clock.now, "crash", "n1"))

        kernel.spawn(sleeper)
        kernel.spawn(writer)
        kernel.run()
        assert woke == [(7, 1)]

    def test_describe_names_log_and_seen(self):
        log = EventLog(Kernel(costs=FREE), "fault-events")
        assert log.after(3).describe() == "fault-events(>3)"

    def test_compares_equal_to_a_plain_list(self):
        log = EventLog(Kernel(costs=FREE), "events")
        assert log == []
        log.append((1, "x"))
        assert log == [(1, "x")]
        assert [(1, "x")] == log
