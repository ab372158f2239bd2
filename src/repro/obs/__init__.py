"""``repro.obs`` — the end-to-end request observatory.

Four cooperating pieces (see DESIGN.md, "Request observatory"):

* :mod:`~repro.obs.trace` — causal request tracing: one deterministic
  trace context per request id, minted at client submit and kept by the
  tracer per rid, so Balancer dispatch/retry/hedge, worker execution,
  client retries and recovery failover land as hops of that one trace;
  exports Chrome ``trace_event`` JSON and text waterfalls;
* :mod:`~repro.obs.attribution` — critical-path attribution: exact
  per-request tick decomposition (queue wait / enclave compute / retry
  amplification / network) plus model-priced bounds-check-tax and
  EPC-stall cycle attribution from scheme-vs-native counter deltas;
* :mod:`~repro.obs.burnrate` — SRE-style multi-window burn-rate rules
  over the SLO tracker's good/bad totals on the campaign tick clock,
  with deterministic fire/clear events landed in the flight recorder;
* :mod:`~repro.obs.exposition` — a Prometheus-style text exposition
  snapshot merging telemetry counters, SLO summaries, alert states and
  every drop counter.

Balancer hops and the failover note arrive through the
:mod:`~repro.obs.events` hub, which all three sinks share.  The
observatory is off by default and zero-cost when off: no hub is built
without an attached handle, attaching one never charges simulated
counters, and default campaign output is byte-identical with the
subsystem absent.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.attribution import (
    COMPONENTS,
    AttributionLedger,
    decompose_trace,
    scheme_tax,
)
from repro.obs.burnrate import DEFAULT_RULES, BurnRateEngine, BurnRateRule
from repro.obs.exposition import Exposition, render_exposition
from repro.obs.trace import HOP_KINDS, FleetTracer, RequestTrace, TraceContext


class Observability:
    """One campaign's observability context: tracer + ledger + alerts.

    Off means no handle: every component given None keeps its obs-free
    fast path, the contract :class:`repro.telemetry.Telemetry` and
    :class:`repro.forensics.Forensics` honour.
    """

    def __init__(self, seed: int = 0):
        self.tracer = FleetTracer(seed=seed)
        self.attribution = AttributionLedger()
        self.burn = BurnRateEngine()

    # -- campaign lifecycle ---------------------------------------------
    def begin_campaign(self, config, forensics=None) -> None:
        """Bind to one campaign: seed the trace-id space, route alert
        fire/clear events into the campaign's flight recorder."""
        self.tracer.seed = config.seed
        self.burn.recorder = None if forensics is None \
            else forensics.recorder

    # -- request lifecycle hooks (campaign/balancer/worker call these) --
    def on_submit(self, request, now: int) -> None:
        """Client submit: mint the trace context for a new rid, or open
        a ``client_retry`` branch of the known one on a resubmission."""
        self.tracer.submit(request.rid, now, priority=request.priority)

    def enclave_sample(self, rid: int, fields: Dict[str, int],
                       cycles: int) -> None:
        """A worker finished one service attempt for ``rid``: counter
        deltas between submit and reply, exact because workers are
        depth-1."""
        self.attribution.add_sample(rid, fields, cycles)

    def on_settled(self, request) -> None:
        """The request reached the terminal the SLO tracker will account
        (first terminal wins; later duplicates become zombie hops)."""
        tick = request.completed_at if request.completed_at is not None \
            else request.arrival
        trace = self.tracer.get(request.rid)
        already_terminal = trace is not None and trace.status is not None
        self.tracer.terminal(request.rid, tick, request.status,
                             wid=request.worker)
        if trace is not None and not already_terminal:
            sample = self.attribution.sample_for(request.rid)
            if sample is not None:
                self.tracer.hop(
                    request.rid, "enclave", tick, wid=request.worker,
                    cycles=self.attribution.cycles_for(request.rid),
                    bounds_checks=sample["bounds_checks"],
                    epc_faults=sample["epc_faults"])
            self.attribution.settle(trace)

    def observe_tick(self, now: int, slo) -> None:
        """Per-tick burn-rate feed from the SLO tracker's cumulative
        counters.  With goodput accounting on (overload campaigns) good
        is *timely* serves and a late serve burns budget like a failure
        — a congestion collapse where everything is eventually served
        late must page.  Without a deadline, good = serves and bad =
        failures.  Error replies (correctly refused poison) and
        admission rejections (the fleet protecting itself) burn no
        budget either way — which is why protected overload stays
        silent while the naive collapse fires."""
        if slo.deadline_ticks is not None:
            good = slo.timely
            bad = (slo.served - slo.timely) + slo.failed
        else:
            good = slo.served
            bad = slo.failed
        self.burn.observe(now, good, bad)

    # -- export ----------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        return {
            "trace": self.tracer.summary(),
            "attribution": self.attribution.rollup(),
            "burn": self.burn.summary(),
        }

    def chrome_trace(self, tick_cycles: int = 1) -> Dict[str, object]:
        return self.tracer.chrome_trace(tick_cycles=tick_cycles)


__all__ = [
    "AttributionLedger",
    "BurnRateEngine",
    "BurnRateRule",
    "COMPONENTS",
    "DEFAULT_RULES",
    "Exposition",
    "FleetTracer",
    "HOP_KINDS",
    "Observability",
    "RequestTrace",
    "TraceContext",
    "decompose_trace",
    "render_exposition",
    "scheme_tax",
]
