"""Pluggable trace sinks: where spans and events go.

Three consumers share one producer-side surface:

* the existing in-memory :class:`~repro.kernel.tracing.Trace` stays the
  kernel's event log (tests assert on it, unchanged);
* :class:`JsonlSink` streams every span/event as one JSON object per
  line — greppable, diffable, loadable with ``pandas.read_json``;
* :class:`ChromeTraceSink` writes the Chrome ``trace_event`` format, so
  a benchmark run opens directly in ``chrome://tracing`` or
  https://ui.perfetto.dev with per-process tracks and nested spans.

Sinks receive *finished* spans (the observability layer emits at span
end, when the duration is known) plus instant events forwarded from the
kernel trace.  A sink must implement ``on_span``/``on_instant``/
``close``; :class:`MemorySink` is the trivial in-memory implementation
used by tests and the bench harness.

Virtual ticks map 1:1 onto trace-viewer microseconds: one tick renders
as 1µs, keeping the timeline axis equal to the paper's tick counts.
"""

from __future__ import annotations

import io
import json
from typing import TYPE_CHECKING, Any, Iterable

if TYPE_CHECKING:  # pragma: no cover
    from .spans import Span


class TraceSink:
    """Base sink: override any of the three hooks."""

    def on_span(self, span: "Span") -> None:
        """A span finished (``span.end`` is set)."""

    def on_instant(
        self, time: int, kind: str, process: str, detail: dict[str, Any]
    ) -> None:
        """A point event occurred (kernel trace events, annotations)."""

    def close(self) -> None:
        """Flush and release resources; further emissions are undefined."""


class MemorySink(TraceSink):
    """Keeps every record as a dict, for tests and in-process queries."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def on_span(self, span: "Span") -> None:
        self.records.append(span.to_record())

    def on_instant(
        self, time: int, kind: str, process: str, detail: dict[str, Any]
    ) -> None:
        self.records.append(
            {"type": "event", "time": time, "kind": kind, "process": process,
             "detail": dict(detail)}
        )

    def spans(self) -> list[dict[str, Any]]:
        return [r for r in self.records if r["type"] == "span"]

    def close(self) -> None:
        pass


class JsonlSink(TraceSink):
    """One JSON object per line, appended as the run progresses.

    ``target`` is a path or an open text file object (the latter lets
    tests pass ``io.StringIO()``).
    """

    def __init__(self, target: str | io.TextIOBase) -> None:
        if isinstance(target, (str, bytes)):
            self.path: str | None = str(target)
            self._fh: Any = open(target, "w", encoding="utf-8")
            self._owns = True
        else:
            self.path = None
            self._fh = target
            self._owns = False
        self.lines = 0

    def _write(self, record: dict[str, Any]) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self.lines += 1

    def on_span(self, span: "Span") -> None:
        self._write(span.to_record())

    def on_instant(
        self, time: int, kind: str, process: str, detail: dict[str, Any]
    ) -> None:
        self._write(
            {"type": "event", "time": time, "kind": kind, "process": process,
             "detail": dict(detail)}
        )

    def close(self) -> None:
        if self._fh is not None and self._owns:
            self._fh.close()
        self._fh = None


class ChromeTraceSink(TraceSink):
    """Chrome ``trace_event`` JSON: open the output in Perfetto.

    Spans become async begin/end pairs (``"ph": "b"``/``"e"``) keyed by
    span id, so parent/child call phases nest on the timeline; instants
    become ``"ph": "i"`` marks.  Processes map to ``tid`` tracks under
    one ``pid`` so each ALPS process gets its own row.
    """

    def __init__(self, path: str, pid: int = 1) -> None:
        self.path = path
        self.pid = pid
        self.events: list[dict[str, Any]] = []
        self._tids: dict[str, int] = {}
        self._closed = False

    def _tid(self, process: str) -> int:
        tid = self._tids.get(process)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[process] = tid
        return tid

    def on_span(self, span: "Span") -> None:
        tid = self._tid(span.process or "?")
        args: dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        if span.call_id is not None:
            args["call_id"] = span.call_id
        args.update(span.attrs)
        common = {
            "cat": span.kind,
            "name": span.name,
            "id": span.span_id,
            "pid": self.pid,
            "tid": tid,
        }
        self.events.append({**common, "ph": "b", "ts": span.start, "args": args})
        self.events.append({**common, "ph": "e", "ts": span.end})

    def on_instant(
        self, time: int, kind: str, process: str, detail: dict[str, Any]
    ) -> None:
        self.events.append(
            {
                "cat": kind,
                "name": kind,
                "ph": "i",
                "ts": time,
                "pid": self.pid,
                "tid": self._tid(process or "?"),
                "s": "t",
                "args": {str(k): repr(v) for k, v in detail.items()},
            }
        )

    def payload(self) -> dict[str, Any]:
        # Thread name metadata gives Perfetto readable track labels.
        meta = [
            {
                "ph": "M", "name": "thread_name", "pid": self.pid, "tid": tid,
                "args": {"name": process},
            }
            for process, tid in sorted(self._tids.items(), key=lambda kv: kv[1])
        ]
        return {"traceEvents": meta + self.events, "displayTimeUnit": "ms"}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh)


def validate_chrome_trace(payload: Any) -> list[str]:
    """Check a Chrome-trace payload; returns a list of problems.

    Used by the CI trace-validation step and the sink tests: the payload
    must be well-formed, non-empty, and every async span begin (``"b"``)
    must pair with exactly one end (``"e"``) of the same id/category at
    a tick no earlier than its begin.  Live-plane instants (``cat``
    starting with ``live.``) must pass :func:`_check_live_instants`.
    """
    problems: list[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not a dict with a 'traceEvents' key"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    spans = [e for e in events if isinstance(e, dict) and e.get("ph") in ("b", "e")]
    if not any(e.get("ph") != "M" for e in events if isinstance(e, dict)):
        problems.append("trace contains no events")
    begins: dict[tuple, dict] = {}
    for event in spans:
        for field in ("name", "id", "ts", "cat"):
            if field not in event:
                problems.append(f"span event missing {field!r}: {event!r}")
        key = (event.get("cat"), event.get("id"))
        if event.get("ph") == "b":
            if key in begins:
                problems.append(f"duplicate begin for span {key}")
            begins[key] = event
        else:
            start = begins.pop(key, None)
            if start is None:
                problems.append(f"end without begin for span {key}")
            elif not isinstance(event.get("ts"), (int, float)) or event["ts"] < start["ts"]:
                problems.append(f"span {key} ends before it begins")
    for key in begins:
        problems.append(f"begin without end for span {key}")

    live = (
        (event.get("ts"), str(event["cat"]), _unquoted(event.get("args") or {}))
        for event in events
        if isinstance(event, dict)
        and event.get("ph") == "i"
        and str(event.get("cat", "")).startswith("live.")
    )
    _check_live_instants(live, problems)
    return problems


def _unquoted(args: Any) -> Any:
    """ChromeTraceSink reprs instant arg values; strip string quotes."""
    if not isinstance(args, dict):
        return args
    out = {}
    for key, value in args.items():
        text = str(value)
        if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
            text = text[1:-1]
        out[key] = text
    return out


def validate_live_jsonl(lines: Any) -> list[str]:
    """Check live-plane instants in a JSONL sink dump; returns problems.

    Same contract as the Chrome-trace checks, applied to the JSONL side:
    every line must be a JSON object, and the ``live.*`` events must
    pass the shared live-instant checks (see :func:`_check_live_instants`).
    """
    problems: list[str] = []

    def live():
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                problems.append(f"line {lineno}: not valid JSON")
                continue
            if not isinstance(record, dict):
                problems.append(f"line {lineno}: not a JSON object")
                continue
            kind = str(record.get("kind", ""))
            if record.get("type") == "event" and kind.startswith("live."):
                yield record.get("time"), kind, record.get("detail")

    _check_live_instants(live(), problems)
    return problems


def _check_live_instants(instants: Iterable[tuple], problems: list[str]) -> None:
    """The live-plane instant contract, shared by both validators.

    ``instants`` yields ``(time, kind, detail)`` for each ``live.*``
    instant in file order; problems are appended to ``problems``.  Times
    must be numeric and non-decreasing (the plane emits at step
    boundaries, in boundary order — any inversion means a sink reordered
    them), ``live.alert`` instants must carry the alert fields and
    alternate firing/resolved per monitor, and ``live.snapshot``
    instants must carry their evaluation time.
    """
    last: int | float | None = None
    alert_states: dict[str, str] = {}
    for time, kind, detail in instants:
        if not isinstance(time, (int, float)):
            problems.append(f"{kind} instant missing numeric time")
            continue
        if last is not None and time < last:
            problems.append(
                f"live instants out of order: {kind} at {time} after {last}"
            )
        last = time
        if not isinstance(detail, dict):
            problems.append(f"{kind} at {time} missing detail dict")
            continue
        if kind == "live.alert":
            for field in ("monitor", "state", "fast_burn", "slow_burn"):
                if field not in detail:
                    problems.append(f"live.alert at {time} missing {field!r}")
            monitor = str(detail.get("monitor", "?"))
            state = detail.get("state")
            if state not in ("firing", "resolved"):
                problems.append(
                    f"live.alert at {time} for {monitor} has bad state {state!r}"
                )
            else:
                prev = alert_states.get(monitor)
                expected = "firing" if prev in (None, "resolved") else "resolved"
                if state != expected:
                    problems.append(
                        f"monitor {monitor}: {state!r} at {time} does not "
                        f"alternate (previous state {prev!r})"
                    )
                alert_states[monitor] = state
        elif kind == "live.snapshot" and "time" not in detail:
            problems.append(f"live.snapshot at {time} missing 'time'")
