"""``repro.forensics`` — flight recorder, postmortems, anomaly detection.

Three cooperating pieces (see DESIGN.md, "Forensics & flight recorder"):

* :class:`~repro.forensics.flightlog.FlightRecorder` — a bounded,
  deterministic ring buffer of typed event records (request lifecycle,
  scheme violations, EPC faults/evictions, fleet transitions) with
  request-id correlation threaded from Balancer dispatch through
  NetworkSim into the worker VM;
* :mod:`~repro.forensics.postmortem` — self-contained crash reports: the
  MiniC call stack with source locations, the faulting pointer decoded
  per scheme, the last-N flight-recorder events, EPC residency stats and
  the triggering request payload, byte-identical per seed;
* :mod:`~repro.forensics.anomaly` — streaming detectors (EPC thrash,
  latency-percentile regression, crash-loop precursor) emitting alert
  records into the event log.

Like telemetry, forensics is off by default and zero-cost when off:
records shared with other sinks come through :mod:`repro.obs.events`,
whose hub is not built without an attached handle, other hooks cost one
``is None`` test, and every capture path reads memory with the cache/EPC
tracer detached and charges nothing.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import BoundsViolation
from repro.forensics.anomaly import (
    AnomalyMonitor,
    CrashLoopPrecursorDetector,
    EPCThrashDetector,
    LatencyRegressionDetector,
    QueueDepthDetector,
)
from repro.forensics.flightlog import EventRecord, FlightRecorder
from repro.forensics.postmortem import (
    POSTMORTEM_SCHEMA,
    capture_postmortem,
    capture_stack,
    decode_pointer,
    render_postmortem,
)
from repro.vm import policy as violation_policy

#: Postmortem reports retained per Forensics handle (deterministic: the
#: *first* N triggers are kept, later ones only counted).
MAX_POSTMORTEMS = 16


class Forensics:
    """One forensics context: flight recorder + postmortems + anomalies.

    Off means no handle: a VM given None keeps its forensics-free fast
    paths — the contract :class:`repro.telemetry.Telemetry` honours.
    """

    def __init__(self, capacity: int = 4096,
                 max_postmortems: int = MAX_POSTMORTEMS,
                 crash_loop_window: int = 60):
        self.recorder = FlightRecorder(capacity)
        self.monitor = AnomalyMonitor(
            self.recorder, crash_loop_window=crash_loop_window)
        self.max_postmortems = max_postmortems
        self.postmortems: List[Dict[str, object]] = []
        self.postmortems_dropped = 0

    # -- scheme hook -----------------------------------------------------
    def on_violation(self, vm, scheme, err: BoundsViolation,
                     tid: int) -> None:
        """Called from ``SchemeRuntime.handle_violation`` once the policy
        outcome is stamped.  Terminal policies (abort, drop-request) get
        a full postmortem — the stack is still intact here; continuing
        policies only leave an event record (chaos runs tolerate
        thousands of violations)."""
        rid = getattr(vm, "request_id", None)
        self.recorder.record(
            "violation", ts=vm.counters.instructions, cat="scheme",
            rid=rid, wid=getattr(vm, "worker_id", None), tid=tid,
            scheme=scheme.name, address=err.address, lower=err.lower,
            upper=err.upper, access=err.access, function=err.function,
            outcome=err.outcome)
        if scheme.policy in (violation_policy.ABORT,
                             violation_policy.DROP_REQUEST):
            self.capture(vm, err)

    # -- postmortems -----------------------------------------------------
    def capture(self, vm, err, reason: Optional[str] = None,
                rid: Optional[int] = None,
                payload: Optional[bytes] = None,
                wid: Optional[int] = None,
                thread=None) -> Optional[Dict[str, object]]:
        """Snapshot a postmortem for ``err`` (bounded, deduplicated)."""
        if getattr(err, "_postmortem_captured", False):
            return None
        try:
            err._postmortem_captured = True
        except AttributeError:   # exceptions without __dict__ (none today)
            pass
        if len(self.postmortems) >= self.max_postmortems:
            self.postmortems_dropped += 1
            return None
        if rid is None:
            rid = getattr(vm, "request_id", None)
        if payload is None:
            payload = getattr(vm, "request_payload", None)
        if wid is None:
            wid = getattr(vm, "worker_id", None)
        report = capture_postmortem(
            vm, err, reason=reason, rid=rid, payload=payload, wid=wid,
            recorder=self.recorder, thread=thread)
        self.postmortems.append(report)
        self.recorder.record("postmortem", ts=vm.counters.instructions,
                             cat="forensics", rid=rid, wid=wid,
                             trigger=report["trigger"],
                             index=len(self.postmortems) - 1)
        return report

    # -- export ----------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        return {
            "events_recorded": self.recorder.total,
            "events_retained": len(self.recorder),
            "events_dropped": self.recorder.dropped,
            "postmortems": len(self.postmortems),
            "postmortems_dropped": self.postmortems_dropped,
            "alerts": self.monitor.summary(),
        }

    def write_log(self, path: str) -> None:
        """Dump the flight recorder: JSONL for ``*.jsonl``, text else."""
        if path.endswith(".jsonl"):
            text = self.recorder.to_jsonl()
        else:
            text = self.recorder.render_text()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


#: Process-wide default forensics, set by CLI flags (``--log-out``); the
#: harness falls back to it when no explicit Forensics is passed.
_default: Optional[Forensics] = None


def set_default(forensics: Optional[Forensics]) -> None:
    global _default
    _default = forensics


def get_default() -> Optional[Forensics]:
    return _default


__all__ = [
    "AnomalyMonitor",
    "CrashLoopPrecursorDetector",
    "EPCThrashDetector",
    "EventRecord",
    "FlightRecorder",
    "Forensics",
    "LatencyRegressionDetector",
    "MAX_POSTMORTEMS",
    "POSTMORTEM_SCHEMA",
    "QueueDepthDetector",
    "capture_postmortem",
    "capture_stack",
    "decode_pointer",
    "get_default",
    "render_postmortem",
    "set_default",
]
