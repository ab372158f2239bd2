"""The ``Telemetry`` object: registry + tracer + profiler in one handle.

Telemetry is strictly opt-in and observation-only: a VM created without
one (the default) contains no telemetry code on its hot paths beyond a
single ``is None`` test per dispatch segment, and an attached Telemetry
never charges simulated counters — so enabling it cannot change any
benchmark number, only record where the numbers come from.

A single Telemetry may observe several runs back to back (the
``--trace-out`` flag path): each attached VM gets its own ``pid`` lane
in the exported Chrome trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.errors import BoundsViolation
from repro.telemetry.metrics import MetricsRegistry, exponential_bounds
from repro.telemetry.profiler import FunctionProfile
from repro.telemetry.tracer import SpanTracer

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.vm.machine import VM

#: Cycle-ish bucket edges for request/span durations (instructions).
SPAN_BOUNDS = exponential_bounds(start=16, factor=2, count=22)


class Telemetry:
    """One observability context: metrics, spans, per-function profile.

    Off means no handle: a VM given None keeps its telemetry-free fast
    paths.
    """

    def __init__(self):
        self.registry = MetricsRegistry()
        self.tracer = SpanTracer()
        self.functions = FunctionProfile()
        self._runs = 0
        self._open_requests: Dict[tuple, tuple] = {}

    # -- lifecycle -------------------------------------------------------
    def attach_vm(self, vm: "VM") -> None:
        """Give a VM its own pid lane; its enclave publishes the final
        cache/EPC gauges here."""
        self._runs += 1
        self.tracer.pid = self._runs
        vm.enclave.telemetry = self

    def label_run(self, name: str) -> None:
        """Name the current run's process lane in the trace."""
        self.tracer.label_process(name)

    # -- VM hooks --------------------------------------------------------
    def function_enter(self, name: str, tid: int, ts: int) -> None:
        self.functions.enter(name)
        self.tracer.begin(tid, name, ts, cat="function")

    def function_exit(self, name: str, tid: int, ts: int) -> None:
        self.tracer.end(tid, name, ts)

    def native_call(self, name: str, tid: int, ts0: int, ts1: int) -> None:
        self.registry.counter(f"vm.native.{name}").inc()
        self.tracer.complete(tid, name, ts0, ts1, cat="native")

    def request_boundary(self, tid: int, ts: int, conn: int,
                         nbytes: int) -> None:
        """A request landed on ``net_recv``: close the previous request
        span on this thread and open the next one."""
        key = (self.tracer.pid, tid)
        open_span = self._open_requests.get(key)
        if open_span is not None:
            ts0, conn0, bytes0 = open_span
            self._finish_request(tid, ts0, ts, conn0, bytes0)
        self._open_requests[key] = (ts, conn, nbytes)
        self.registry.counter("net.requests_received").inc()
        self.registry.histogram("net.request_bytes").observe(max(1, nbytes))

    def _finish_request(self, tid: int, ts0: int, ts1: int, conn: int,
                        nbytes: int) -> None:
        self.tracer.complete(tid, "request", ts0, ts1, cat="request",
                             args={"conn": conn, "bytes": nbytes})
        self.registry.histogram("request.instructions",
                                SPAN_BOUNDS).observe(max(1, ts1 - ts0))

    # -- scheme hook -----------------------------------------------------
    def violation(self, scheme: str, err: BoundsViolation, ts: int,
                  tid: int = 0) -> None:
        self.registry.counter(f"violations.{scheme}").inc()
        self.tracer.instant("bounds_violation", ts, tid, cat="violation",
                            args={"scheme": scheme,
                                  "address": err.address,
                                  "access": getattr(err, "access", None)})

    # -- run-end collection ----------------------------------------------
    def collect_counters(self, snapshot: Dict[str, int]) -> None:
        """Publish a final PerfCounters snapshot as ``sgx.*`` gauges."""
        for name, value in snapshot.items():
            self.registry.gauge(f"sgx.{name}").set(value)

    def fastpath_hits(self, stats: Dict[str, int]) -> None:
        """Publish the VM's compiled-block entry count as the
        ``vm.fastpath.block`` counter.  A zero count is not published, so
        a run that entered no compiled block leaves the registry without
        fastpath entries."""
        for kind, hits in stats.items():
            if hits:
                self.registry.counter(f"vm.fastpath.{kind}").inc(hits)

    # -- export ----------------------------------------------------------
    def chrome_trace(self) -> Dict[str, object]:
        """Chrome trace_event export; always a valid document, even for
        an empty or overflowed span buffer.  Publishes the overflow as a
        ``trace.dropped_events`` counter so a truncated trace is visible
        in the metrics snapshot, not just inside the trace file."""
        dropped = self.tracer.dropped
        if dropped:
            counter = self.registry.counter("trace.dropped_events")
            if dropped > counter.value:
                counter.inc(dropped - counter.value)
        return self.tracer.chrome_trace()

    def metrics_snapshot(self) -> Dict[str, Dict[str, object]]:
        return self.registry.snapshot()
