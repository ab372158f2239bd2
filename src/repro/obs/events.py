"""One event model for the three observability sinks.

Telemetry (metrics + span tracer), the forensics flight recorder (plus
its anomaly monitor) and the observatory's causal tracer observe many of
the same occurrences.  An emitter reports each one once, through
:meth:`EventHub.emit`; the hub hands it to every attached sink that
files it.  :data:`KINDS` lists every event kind exactly once, and
DESIGN.md's "Event model" section mirrors it.

Zero cost when off: :func:`hub` returns None unless an *enabled* handle
is attached, so on the default path an emitter does one ``is None``
test and nothing else.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, NamedTuple, Optional, Tuple


class Kind(NamedTuple):
    """How one event kind is clocked, emitted and filed by each sink."""

    #: ``tick`` (campaign ticks), ``instr`` (retired simulated
    #: instructions) or ``none`` (``ts`` is always 0).
    clock: str
    #: Module that emits it.
    emitter: str
    #: Metrics counter; ``fleet.*``/``overload.*`` also leave a trace
    #: instant of the same name with ``.`` replaced by ``_``.
    telemetry: Optional[str] = None
    #: Flight-recorder category; the record's kind is the event kind.
    recorder: Optional[str] = None
    #: Causal-tracer hop; ``reply`` closes the trace (first terminal
    #: wins), ``note:<kind>`` is a campaign-level note.
    hop: Optional[str] = None
    #: Anomaly-monitor hook fed after the record.
    monitor: Optional[str] = None
    #: Field a fleet instant shows as its ``detail`` ("" without one).
    telemetry_detail: Optional[str] = None
    #: Fields the recorder leaves out.
    unrecorded: Tuple[str, ...] = ()


_BAL, _SUP, _NET = "fleet.balancer", "fleet.supervisor", "workloads.netsim"

KINDS: Dict[str, Kind] = {
    "request_admitted": Kind("tick", _BAL, hop="admission"),
    "request_rejected": Kind("tick", _BAL, recorder="fleet", hop="rejected"),
    "request_assigned": Kind("tick", _BAL, hop="assign"),
    "request_dispatched": Kind("tick", _BAL, hop="dispatch"),
    "request_requeued": Kind("tick", _BAL, recorder="fleet", hop="requeue",
                             unrecorded=("reason",)),
    "request_hedged": Kind("tick", _BAL, hop="requeue"),
    "request_expired": Kind("tick", _BAL, recorder="fleet", hop="expired",
                            unrecorded=("waited",)),
    "zombie_completed": Kind("tick", _BAL, hop="reply"),
    "breaker_open": Kind("tick", _BAL, "fleet.breaker_open", "fleet"),
    "admission_reject": Kind("tick", "overload.admission",
                             "overload.reject_{reason}", "overload"),
    "worker_crash": Kind("tick", _SUP, recorder="fleet", monitor="on_crash"),
    "worker_dead": Kind("tick", _SUP, "fleet.dead", "fleet",
                        telemetry_detail="reason"),
    "restart_scheduled": Kind("tick", _SUP, "fleet.crash",
                              telemetry_detail="reason"),
    "worker_restart": Kind("tick", _SUP, "fleet.restart", "fleet"),
    "replica_promoted": Kind("tick", _SUP, "fleet.promote", "fleet",
                             hop="note:failover_promoted"),
    "hang_injected": Kind("tick", "fleet.campaign", recorder="fleet"),
    # Every recovery kind is filed the same way.
    **{f"recovery_{name}": Kind("tick", "recovery.manager",
                                f"fleet.recovery_{name}", "fleet")
       for name in ("state_loss", "restored", "replay_failed",
                    "unseal_rejected", "restore_failed", "checkpoint",
                    "snapshot_failed", "promoted")},
    "epc_fault": Kind("instr", "sgx.enclave", "epc.faults", "epc"),
    "epc_flush": Kind("none", "sgx.epc", "epc.flushes", "epc"),
    "request_dropped": Kind("instr", "vm.machine", "vm.requests_dropped",
                            "request", unrecorded=("depth",)),
    "net_retry": Kind("instr", _NET, "net.retries", "net"),
    "net_error": Kind("instr", _NET, "net.request_errors", "net"),
    "net_rejected": Kind("instr", _NET, "net.rejected", "net"),
}


def _telemetry(telemetry, kind, row, ts, wid, rid, fields) -> None:
    registry, tracer = telemetry.registry, telemetry.tracer
    name = row.telemetry.format(**fields)
    registry.counter(name).inc()
    if name.startswith("fleet."):
        detail = fields[row.telemetry_detail] if row.telemetry_detail else ""
        tracer.instant(name.replace(".", "_"), tracer.last_ts, wid,
                       cat="fleet",
                       args={"worker": wid, "tick": ts, "detail": detail})
    elif name.startswith("overload."):
        tracer.instant(name.replace(".", "_"), tracer.last_ts, 0,
                       cat="overload",
                       args={"tick": ts, "priority": fields["priority"]})
    elif name == "epc.faults":
        registry.histogram("epc.resident_pages").observe(
            max(1, fields["resident"]))
        tracer.instant("epc_fault", ts, 0, cat="epc",
                       args={"page": fields["page"]})
    elif name == "epc.flushes":
        registry.counter("epc.flush_evictions").inc(fields["evicted"])
        tracer.instant("epc_flush", tracer.last_ts, 0, cat="epc",
                       args={"evicted": fields["evicted"]})
    elif name == "vm.requests_dropped":
        tracer.unwind(fields["tid"], fields["depth"], ts)
        tracer.instant("request_dropped", ts, fields["tid"], cat="recovery")


def _recorder(forensics, kind, row, ts, wid, rid, fields) -> None:
    if row.unrecorded:
        fields = {k: v for k, v in fields.items() if k not in row.unrecorded}
    forensics.recorder.record(kind, ts=ts, cat=row.recorder, rid=rid,
                              wid=wid, **fields)
    if row.monitor is not None:
        getattr(forensics.monitor, row.monitor)(ts, wid)


def _tracer(obs, kind, row, ts, wid, rid, fields) -> None:
    if row.hop.startswith("note:"):
        obs.tracer.note(row.hop[len("note:"):], ts, wid)
    elif row.hop == "reply":
        obs.tracer.terminal(rid, ts, fields["status"], wid)
    else:
        obs.tracer.hop(rid, row.hop, ts, wid, **fields)


class EventHub:
    """Routes each emitted event to the sinks :data:`KINDS` files it
    under.  Build it through :func:`hub`, which passes only enabled
    handles."""

    def __init__(self, telemetry=None, forensics=None, obs=None):
        self.routes = {
            kind: tuple(partial(handler, sink, kind, row)
                        for handler, sink, name in (
                            (_telemetry, telemetry, row.telemetry),
                            (_recorder, forensics, row.recorder),
                            (_tracer, obs, row.hop))
                        if sink is not None and name is not None)
            for kind, row in KINDS.items()}

    def emit(self, kind: str, ts: int, wid: Optional[int] = None,
             rid: Optional[int] = None, **fields) -> None:
        """Report one occurrence; a kind missing from :data:`KINDS`
        raises KeyError."""
        for handler in self.routes[kind]:
            handler(ts, wid, rid, fields)


def hub(telemetry=None, forensics=None, obs=None) -> Optional[EventHub]:
    """The hub over every attached *enabled* handle; None when there is
    none, so the off path builds nothing."""
    live = [h if (h is not None and h.enabled) else None
            for h in (telemetry, forensics, obs)]
    return EventHub(*live) if any(h is not None for h in live) else None
