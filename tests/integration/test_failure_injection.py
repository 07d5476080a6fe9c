"""Failure injection: crashing bodies, guard exhaustion, misuse."""

import pytest

from repro.core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    Finish,
    Start,
    entry,
    manager_process,
)
from repro.errors import DeadlockError, GuardExhaustedError
from repro.kernel import Delay, Kernel, Par, Select
from repro.kernel.costs import FREE


class TestBodyFailures:
    def _crashy(self, kernel):
        class Crashy(AlpsObject):
            @entry(returns=1, array=2)
            def op(self, n):
                if n < 0:
                    raise ValueError(f"bad input {n}")
                return n

            @manager_process(intercepts=["op"])
            def mgr(self):
                while True:
                    result = yield Select(
                        AcceptGuard(self, "op"),
                        AwaitGuard(self, "op"),
                    )
                    if isinstance(result.guard, AcceptGuard):
                        yield Start(result.value)
                    else:
                        yield Finish(result.value)

        return Crashy(kernel)

    def test_body_exception_reaches_caller(self, kernel):
        obj = self._crashy(kernel)

        def main():
            return (yield obj.op(-1))

        with pytest.raises(ValueError, match="bad input"):
            kernel.run_process(main)

    def test_object_survives_body_failure(self, kernel):
        obj = self._crashy(kernel)

        def main():
            try:
                yield obj.op(-1)
            except ValueError:
                pass
            return (yield obj.op(5))  # slot was freed; object still works

        assert kernel.run_process(main) == 5

    def test_unmanaged_body_failure_reaches_caller(self, kernel):
        class Bare(AlpsObject):
            @entry(returns=1)
            def op(self):
                raise RuntimeError("bare failure")

        obj = Bare(kernel)

        def main():
            return (yield obj.op())

        with pytest.raises(RuntimeError, match="bare failure"):
            kernel.run_process(main)

    def test_unmanaged_body_failure_starts_next_queued_call(self, kernel):
        # A bounded entry with no manager: the second call queues behind
        # the first.  When the first body fails, its slot release must
        # start the queued call — nobody else ever will.
        class Bare(AlpsObject):
            @entry(returns=1, array=1)
            def op(self, n):
                if n == 0:
                    raise RuntimeError("first fails")
                return n

        obj = Bare(kernel)
        outcomes = {}

        def first():
            try:
                yield obj.op(0)
            except RuntimeError as exc:
                outcomes["first"] = str(exc)

        def second():
            outcomes["second"] = yield obj.op(7)

        def main():
            yield Par(first, second)

        kernel.run_process(main)
        assert outcomes == {"first": "first fails", "second": 7}

    def test_sibling_calls_unaffected_by_failure(self):
        kernel = Kernel(costs=FREE)
        obj = self._crashy(kernel)
        outcomes = []

        def good(n):
            outcomes.append((yield obj.op(n)))

        def bad():
            try:
                yield obj.op(-1)
            except ValueError:
                outcomes.append("failed")

        def main():
            yield Par(lambda: good(1), lambda: bad(), lambda: good(2))

        kernel.run_process(main)
        assert sorted(str(o) for o in outcomes) == ["1", "2", "failed"]


class TestManagerFailures:
    def test_manager_guard_exhaustion_is_loud(self):
        kernel = Kernel()

        class BadManager(AlpsObject):
            @entry
            def op(self):
                pass

            @manager_process(intercepts=["op"])
            def mgr(self):
                from repro.core import WhenGuard

                yield Select(WhenGuard(False))  # can never fire

        BadManager(kernel)
        with pytest.raises(GuardExhaustedError):
            kernel.run()

    def test_dead_manager_leaves_callers_deadlocked(self):
        kernel = Kernel()

        class QuitterManager(AlpsObject):
            @entry
            def op(self):
                pass

            @manager_process(intercepts=["op"])
            def mgr(self):
                yield Delay(1)  # returns without ever accepting

        obj = QuitterManager(kernel)

        def main():
            yield obj.op()

        with pytest.raises(DeadlockError):
            kernel.run_process(main)


class TestInvariantUnderChaos:
    def test_buffer_conserves_messages_with_failing_consumers(self):
        from repro.stdlib import BoundedBuffer

        kernel = Kernel(costs=FREE)
        buf = BoundedBuffer(kernel, size=3)
        received = []

        def producer():
            for i in range(10):
                yield buf.deposit(i)

        def flaky_consumer(crash_after):
            for n in range(crash_after):
                received.append((yield buf.remove()))
            raise RuntimeError("consumer died")

        def reliable_consumer(count):
            for _ in range(count):
                received.append((yield buf.remove()))

        def main():
            yield Par(lambda: producer(), lambda: reliable_consumer(7))

        def crasher():
            try:
                yield from flaky_consumer(3)
            except RuntimeError:
                pass

        kernel.spawn(crasher)
        kernel.run_process(main)
        assert sorted(received) == list(range(10))
