"""Per-object, per-entry runtime state: the hidden procedure array.

An :class:`EntryRuntime` owns the array slots of one entry procedure, the
overflow queue of calls waiting to be attached ("if there are more
requests than can be accommodated in the procedure array P, the remaining
requests continue to wait", §2.5), and the two waitables managers block
on: *arrival* (a call became attached, so ``accept`` may fire) and
*completion* (a body became ready to terminate, so ``await`` may fire).

The guard views read three slot-number bitmasks instead of scanning the
array: the free slots, the ATTACHED slots and the BODY_DONE slots.
``try_attach``, ``detach`` and ``reset`` write the free one, ``move`` and
``reset`` the other two, so ``#P`` is a popcount plus the queue length
and ``accept``/``await`` visit only the slots in the state they wait
for, in ascending slot order.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ProtocolError
from ..kernel.waiting import Waitable
from ..obs.live.stream import Ewma
from .calls import Call, CallState

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from .entry import EntrySpec
    from .pool import ServerPool


#: Smoothing factor of the per-entry service-time EWMA read by
#: :class:`~repro.core.admission.PredictedWaitGuard`.  Fixed (not
#: configurable per call) so two same-seed runs predict identically.
EWMA_ALPHA = 0.2


class EntryRuntime:
    """Runtime state for one entry procedure of one object instance."""

    def __init__(self, obj: Any, spec: "EntrySpec", kernel: "Kernel", pool: "ServerPool") -> None:
        self.obj = obj
        self.spec = spec
        self.kernel = kernel
        self.pool = pool
        self.array_size = spec.resolve_array(obj)
        #: Calls waiting for a free array element.
        self.waiting: deque[Call] = deque()
        #: ``slots[i]`` is the call currently attached to ``P[i]`` (through
        #: its whole accept→finish life), or None when the element is free;
        #: ``_free``, ``_attached`` and ``_body_done`` index them as
        #: bitmasks (bit ``i`` is ``P[i]``).  Set by :meth:`reset`.
        self.slots: list[Call | None]
        self.reset()
        #: Notified when a call becomes ATTACHED (wakes ``accept`` guards).
        self.arrival = Waitable()
        #: Notified when a body reaches BODY_DONE (wakes ``await`` guards).
        self.completion = Waitable()
        #: Completed calls, retained when the object records statistics.
        self.completed: list[Call] = []
        self.record_calls = False
        #: EWMA of observed body service times (dispatch → body done), in
        #: ticks; ``.value`` is None until the first body completes.
        #: Deterministic: updated only from virtual timestamps, in
        #: completion order.  One estimator serves two readers —
        #: :class:`~repro.core.admission.PredictedWaitGuard` and the live
        #: telemetry plane's query API
        #: (:meth:`repro.obs.live.LivePlane.service_ewma`) — and it is
        #: always on, so schedules are identical with the plane on or off.
        self.service_estimator = Ewma(EWMA_ALPHA)

    @property
    def service_ewma(self) -> float | None:
        """The current service-time estimate in ticks (None if unmeasured)."""
        return self.service_estimator.value

    # ------------------------------------------------------------------
    # Attachment (§2.5)
    # ------------------------------------------------------------------

    def pending_count(self) -> int:
        """The paper's ``#P``: attached-but-not-accepted plus waiting."""
        return self._attached.bit_count() + len(self.waiting)

    def submit(self, call: Call) -> None:
        """A new invocation arrived: attach it or queue it.

        A non-intercepted entry has no manager rendezvous (§2.3): "each
        time an entry procedure is called a process is created implicitly
        and made to execute the procedure".  Its body starts at once,
        unless a declared array bounds its concurrency and every slot is
        taken — then it queues like any other call.
        """
        if call.issued_at is None:
            call.issued_at = self.kernel.clock.now
        self.kernel.stats.calls_issued += 1
        spec = self.spec
        if (spec.intercepted or spec.array is not None) and not self.try_attach(call):
            self.waiting.append(call)
            self._queue_event("slot.queue.enter", call)
        elif not spec.intercepted:
            self.start_body(call)

    def try_attach(self, call: Call) -> bool:
        """Attach ``call`` to a free element, if any.

        The element is "selected arbitrarily by the implementation"
        (§2.5); under ``ordered`` arbitration the lowest free index is
        used, under ``random`` a seeded-random free index, drawn from the
        ascending list of free indexes.
        """
        free = self._free
        if not free:
            return False
        if self.kernel.arbitration == "random" and free & (free - 1):
            index = self.kernel.rng.choice(_indices(free))
        else:
            index = (free & -free).bit_length() - 1
        self._free ^= 1 << index
        self.slots[index] = call
        call.slot = index
        self.move(call, CallState.ATTACHED)
        call.attached_at = self.kernel.clock.now
        self.kernel.notify(self.arrival)
        return True

    def move(self, call: Call, state: CallState) -> None:
        """Set ``call.state``, keeping the ATTACHED/BODY_DONE indexes in step.

        Every state change that enters or leaves ATTACHED or BODY_DONE
        goes through here.  A call no longer held by its slot (detached,
        or forgotten by ``reset``) keeps its ``slot`` number but is not
        indexed, so its later moves leave the indexes alone.
        """
        slot = call.slot
        if slot is not None and self.slots[slot] is call:
            bit = 1 << slot
            old = call.state
            if old is CallState.ATTACHED:
                self._attached ^= bit
            elif old is CallState.BODY_DONE:
                self._body_done ^= bit
            if state is CallState.ATTACHED:
                self._attached |= bit
            elif state is CallState.BODY_DONE:
                self._body_done |= bit
        call.state = state

    def _queue_event(self, kind: str, call: Call) -> None:
        """Sink-only instant marking a slot-queue boundary (§2.5 overflow).

        Pure observation: delivered straight to the attached sinks, never
        the event queue, so the schedule is untouched (the neutrality
        test in ``tests/obs/`` runs this path with sinks on and off).
        """
        obs = self.kernel.obs
        if not obs.enabled:
            return
        obs.instant(
            kind,
            process=call.caller.name,
            obj=self.obj.alps_name,
            entry=self.spec.name,
            call_id=call.call_id,
            slot=call.slot,
            waiting=len(self.waiting),
        )

    def detach(self, call: Call) -> None:
        """Free the call's slot and attach the next waiting call.

        With no manager to accept it, the newly attached call of a
        non-intercepted entry is started here — on every release path
        (completion, body failure), so a bounded unmanaged entry never
        strands a queued caller.
        """
        assert call.slot is not None
        if self.slots[call.slot] is not call:
            raise ProtocolError(
                f"{self.spec.name}[{call.slot}]: detach of a call that is "
                f"not attached there"
            )
        # Only ACCEPTED and later calls leave their slot, so of the indexes
        # only the free one changes.
        self.slots[call.slot] = None
        self._free |= 1 << call.slot
        if not self.waiting:
            return
        nxt = self.waiting.popleft()
        self.try_attach(nxt)  # cannot fail: a slot was just freed
        self._queue_event("slot.queue.leave", nxt)
        if not self.spec.intercepted:
            self.start_body(nxt)

    # ------------------------------------------------------------------
    # Guard views
    # ------------------------------------------------------------------

    def holds(self, call: Call, state: CallState) -> bool:
        """True when ``call`` is attached to its slot and in ``state``."""
        slot = call.slot
        return slot is not None and self.slots[slot] is call and call.state is state

    def _matching(
        self,
        mask: int,
        slot: int | None,
        when: Callable[..., bool] | None,
        values: Callable[[Call], tuple],
    ) -> list[Call]:
        """Calls on the slots of ``mask`` that satisfy ``when``.

        Visits the slots in ascending order, as a scan of the array would.
        """
        if slot is not None:
            mask &= 1 << slot if 0 <= slot < self.array_size else 0
        calls = [self.slots[i] for i in _indices(mask)]
        if when is None:
            return calls
        return [call for call in calls if when(*values(call))]

    def acceptable(
        self, slot: int | None, when: Callable[..., bool] | None, all_matches: bool = False
    ) -> Any:
        """ATTACHED call(s) matching ``slot`` and the acceptance condition.

        ``when`` is evaluated on the intercepted-parameter subsequence —
        the SR-style "receive into temporaries, then test" of §2.4.  A
        quantified guard with a ``pri`` clause needs every candidate
        (``all_matches=True``) to pick the minimum among them.
        """
        matches = self._matching(
            self._attached, slot, when, lambda c: c.intercepted_args
        )
        if all_matches:
            return matches
        return matches[0] if matches else None

    def awaitable(
        self, slot: int | None, when: Callable[..., bool] | None, all_matches: bool = False
    ) -> Any:
        """BODY_DONE call(s) matching ``slot`` and the result condition."""
        matches = self._matching(
            self._body_done, slot, when, lambda c: c.intercepted_results
        )
        if all_matches:
            return matches
        return matches[0] if matches else None

    # ------------------------------------------------------------------
    # Body execution
    # ------------------------------------------------------------------

    def start_body(self, call: Call) -> None:
        """Dispatch the body of ``call`` onto a server process.

        Bodies of intercepted entries report BODY_DONE and wait for the
        manager's ``finish``; non-intercepted bodies complete directly.
        """
        runtime = self
        managed = self.spec.intercepted

        def job():
            try:
                if runtime.spec.work:
                    from ..kernel.syscalls import Charge

                    yield Charge(runtime.spec.work, label=runtime.spec.name)
                raw = runtime.spec.fn(runtime.obj, *call.args, *call.hidden_args)
                if hasattr(raw, "send") and hasattr(raw, "throw"):
                    raw = yield from raw
                results = runtime.spec.normalize_results(raw)
            except GeneratorExit:
                # The server process was killed (node crash): whoever
                # killed it owns cleanup and caller notification; the
                # caller must not receive a GeneratorExit.
                raise
            except BaseException as exc:
                # A failing body must not wedge the object: free the slot
                # and worker, and re-raise the error in the caller.
                runtime.pool.release(call)
                if call.slot is not None:
                    runtime.detach(call)
                runtime.fail_caller(call, exc)
                return
            call.body_results = results
            call.body_done_at = runtime.kernel.clock.now
            runtime.observe_service(call)
            if managed:
                runtime.move(call, CallState.BODY_DONE)
                runtime.kernel.notify(runtime.completion)
                # The server process conceptually lives until the manager
                # executes finish (§2.3: "both the finish P(...) and P
                # terminate together").  The finish primitive resumes the
                # caller and releases the worker; this generator ends here
                # but the pool slot stays occupied until release().
            else:
                runtime.complete(call, results[: runtime.spec.returns], started=True)

        # An unmanaged bounded entry starts its call straight from ATTACHED.
        self.move(call, CallState.STARTED)
        call.started_at = self.kernel.clock.now
        self.kernel.stats.starts += 1
        self.pool.dispatch(job, call)

    def complete(self, call: Call, results: tuple, started: bool) -> None:
        """End a served call: free its worker and slot, deliver ``results``.

        ``results`` are the definition results only.  ``started`` is
        False for a combined call (§2.7), which never held a worker.  A
        caller is resumed at most once: if the call already expired (a
        timed call) or was failed by crash detection, the response is
        discarded.  A placed object's response travels back over the
        network, which may lose or jitter it under a fault plan.
        """
        kernel = self.kernel
        call.state = CallState.DONE
        call.finished_at = kernel.clock.now
        kernel.stats.calls_completed += 1
        if started:
            self.pool.release(call)
        if call.slot is not None:
            self.detach(call)
        self.record(call)
        if call.caller_resumed:
            return
        node = self.obj.node
        if node is not None and node.network.send_response(call):
            # Response lost in the network; the caller recovers through a
            # timeout (plus retry), never through a silent double-resume.
            return
        delay = call.response_delay
        # The caller-perceived completion includes the response leg.
        call.settle(kernel, "ok", at=call.finished_at + delay)
        value: Any
        if self.spec.returns == 0:
            value = None
        elif self.spec.returns == 1:
            value = results[0]
        else:
            value = tuple(results)
        if delay:
            kernel.post(
                kernel.clock.now + delay,
                lambda: kernel.schedule_resume(call.caller, value),
                priority=call.caller.priority,
            )
        else:
            kernel.schedule_resume(call.caller, value)

    def fail_caller(
        self, call: Call, exc: BaseException, status: str = "error"
    ) -> None:
        """Propagate a body failure to the caller (at most once).

        ``status`` labels the call's root span on completion — ``"error"``
        for body failures, ``"shed"`` when admission control rejected it.
        """
        call.state = CallState.FAILED
        if call.settle(self.kernel, status):
            self.kernel.schedule_throw(call.caller, exc)

    def observe_service(self, call: Call) -> None:
        """Fold one completed body's service time into the EWMA."""
        start = call.dispatched_at if call.dispatched_at is not None else call.started_at
        if start is None or call.body_done_at is None:
            return
        sample = call.body_done_at - start
        self.service_estimator.update(sample)

    def record(self, call: Call) -> None:
        if self.record_calls:
            self.completed.append(call)

    def reset(self) -> None:
        """Forget all in-flight calls (crash recovery; see ``AlpsObject.restart``).

        Every slot becomes free, so the indexes restart empty.
        """
        self.slots = [None] * self.array_size
        self._free = (1 << self.array_size) - 1
        self._attached = 0
        self._body_done = 0
        self.waiting.clear()

    def describe(self) -> str:
        return (
            f"{self.spec.name}[1..{self.array_size}] "
            f"attached={self.array_size - self._free.bit_count()} "
            f"waiting={len(self.waiting)}"
        )


def _indices(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out
