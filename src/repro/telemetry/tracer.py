"""Span/event tracer with Chrome ``trace_event`` export.

Spans are measured on the simulated instruction clock (retired
instructions so far), which makes traces deterministic: two identical
seeded runs emit byte-identical event streams.  Events are stored in the
Chrome trace-event dialect directly — ``ph`` "X" for complete spans,
"i" for instants, "M" for metadata — so the export is a plain
``json.dump`` loadable by ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: The clock of :class:`SpanTracer` timestamps.
SIM_CLOCK = "retired simulated instructions"


def chrome_trace_document(events: List[Dict[str, object]], clock: str,
                          **other: object) -> Dict[str, object]:
    """A ``chrome://tracing``-loadable document of ``events``, whose
    timestamps count ``clock``; ``other`` goes to ``otherData`` too."""
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"clock": clock, **other}}


class SpanTracer:
    """Nested spans + instant events on a deterministic clock.

    ``pid`` identifies the current run (one simulated process per VM);
    the attach path bumps it so traces from several runs merge into one
    timeline with separate process lanes.  ``max_events`` bounds memory:
    past the cap new events are counted in ``dropped`` instead of stored
    (open-span bookkeeping keeps working so nesting stays consistent).
    """

    def __init__(self, max_events: int = 200_000):
        self.max_events = max_events
        self.events: List[Dict[str, object]] = []
        self.dropped = 0
        self.pid = 1
        self.last_ts = 0
        #: Max timestamp seen per process lane: open spans of a crashed
        #: run must close at *that run's* end, not at the global max a
        #: later, longer run advanced (which inflated crash durations).
        self._pid_last_ts: Dict[int, int] = {}
        self._stacks: Dict[Tuple[int, int], List[Tuple[str, int, str]]] = {}

    # ------------------------------------------------------------------
    def _emit(self, event: Dict[str, object]) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(event)

    def _note_ts(self, ts: int) -> None:
        if ts > self.last_ts:
            self.last_ts = ts
        if ts > self._pid_last_ts.get(self.pid, 0):
            self._pid_last_ts[self.pid] = ts

    # ------------------------------------------------------------------
    def begin(self, tid: int, name: str, ts: int,
              cat: str = "function") -> None:
        """Open a span; closed by the matching :meth:`end`."""
        self._note_ts(ts)
        self._stacks.setdefault((self.pid, tid), []).append((name, ts, cat))

    def end(self, tid: int, name: str, ts: int) -> None:
        """Close the innermost open span named ``name``.

        Mismatched names (e.g. after a request rollback discarded frames)
        close the intervening orphans at the same timestamp, keeping the
        trace well-nested.
        """
        self._note_ts(ts)
        stack = self._stacks.get((self.pid, tid))
        if not stack:
            return
        names = [entry[0] for entry in stack]
        if name not in names:
            return
        while stack:
            open_name, ts0, cat = stack.pop()
            self._emit({"name": open_name, "cat": cat, "ph": "X",
                        "ts": ts0, "dur": max(0, ts - ts0),
                        "pid": self.pid, "tid": tid})
            if open_name == name:
                return

    def unwind(self, tid: int, depth: int, ts: int) -> None:
        """Close open spans until at most ``depth`` remain (rollback)."""
        self._note_ts(ts)
        stack = self._stacks.get((self.pid, tid))
        if not stack:
            return
        while len(stack) > depth:
            open_name, ts0, cat = stack.pop()
            self._emit({"name": open_name, "cat": cat, "ph": "X",
                        "ts": ts0, "dur": max(0, ts - ts0),
                        "pid": self.pid, "tid": tid})

    def complete(self, tid: int, name: str, ts0: int, ts1: int,
                 cat: str = "native",
                 args: Optional[Dict[str, object]] = None) -> None:
        """Record a closed span directly (native calls, requests)."""
        self._note_ts(ts1)
        event: Dict[str, object] = {
            "name": name, "cat": cat, "ph": "X", "ts": ts0,
            "dur": max(0, ts1 - ts0), "pid": self.pid, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event)

    def instant(self, name: str, ts: int, tid: int = 0,
                cat: str = "event",
                args: Optional[Dict[str, object]] = None) -> None:
        self._note_ts(ts)
        event: Dict[str, object] = {
            "name": name, "cat": cat, "ph": "i", "ts": ts, "s": "t",
            "pid": self.pid, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event)

    def label_process(self, name: str) -> None:
        """Name the current run's lane in the trace viewer."""
        self._emit({"name": "process_name", "ph": "M", "ts": 0,
                    "pid": self.pid, "tid": 0,
                    "args": {"name": name}})

    # ------------------------------------------------------------------
    def close_open_spans(self) -> None:
        """Flush still-open spans (crashed runs), each at its own
        process lane's last timestamp — deterministic, and a short
        crashed run is not stretched to the end of a longer one."""
        for (pid, tid), stack in self._stacks.items():
            while stack:
                open_name, ts0, cat = stack.pop()
                end_ts = self._pid_last_ts.get(pid, ts0)
                self._emit({"name": open_name, "cat": cat, "ph": "X",
                            "ts": ts0,
                            "dur": max(0, end_ts - ts0),
                            "pid": pid, "tid": tid})

    def chrome_trace(self) -> Dict[str, object]:
        """The ``chrome://tracing``-loadable document."""
        self.close_open_spans()
        return chrome_trace_document(list(self.events), SIM_CLOCK,
                                     dropped_events=self.dropped)
