"""SLO accounting: availability and latency percentiles for a campaign.

Latency is priced on the simulated clock — a request that arrived on
tick ``a`` and completed on tick ``c`` spent ``(c - a + 1) * tick_cycles``
cycles in the system, queueing and restarts included.  Percentiles come
from the deterministic fixed-bucket histograms of
:mod:`repro.telemetry.metrics` (a percentile is a bucket upper edge, so
two identical campaigns report identical numbers on any host).
"""

from __future__ import annotations

from typing import Dict

from repro.fleet.balancer import Request
from repro.telemetry.metrics import Histogram, exponential_bounds

#: Latency bucket edges in cycles: 1k .. ~1G, factor 2 — wide enough for
#: one-tick hits and for requests stuck behind a cold restart.
LATENCY_BOUNDS = exponential_bounds(start=1_000, factor=2, count=21)


def _class_counters() -> Dict[str, int]:
    return {"submitted": 0, "served": 0, "timely": 0, "error_replies": 0,
            "failed": 0, "rejected": 0}


class SLOTracker:
    """Prices terminal requests into availability + latency quantiles.

    The overload parameters are all opt-in: ``deadline_ticks`` switches
    on goodput accounting (*timely* = served within the deadline of its
    arrival), ``classes`` adds a per-priority-class breakdown, and
    ``timeline_window`` rolls timely counts into fixed windows so a
    metastable collapse is visible as a timeline, not just a total.
    None of them change a byte of the default summary when left unset.
    """

    def __init__(self, tick_cycles: int, registry=None, anomalies=None,
                 deadline_ticks=None, classes=(), timeline_window: int = 0):
        self.tick_cycles = tick_cycles
        #: Optional ``repro.forensics.anomaly.AnomalyMonitor``; when
        #: attached its alert tallies surface in :meth:`summary`.
        self.anomalies = anomalies
        #: This campaign's latencies; the percentiles come from here.
        self.latency = Histogram("fleet.latency_cycles", LATENCY_BOUNDS)
        #: The registry's histogram of the same name, fed alongside.  A
        #: sink shared by several campaigns accumulates all of them.
        self._registry_latency = None if registry is None else \
            registry.histogram("fleet.latency_cycles", LATENCY_BOUNDS)
        self.submitted = 0
        self.served = 0
        self.error_replies = 0
        self.failed = 0
        self.rejected = 0
        self.timely = 0
        self.deadline_ticks = deadline_ticks
        self.by_class: Dict[str, Dict[str, int]] = {
            cls: _class_counters() for cls in classes}
        self.timeline_window = timeline_window
        self.goodput_timeline: list = []
        self._window_timely = 0
        #: Request ids that already went terminal.  A rid reaches a
        #: terminal state at most once in SLO terms: hedged duplicates,
        #: client retries of the same rid, and zombie late-completions
        #: must never double-count a latency sample or an availability
        #: denominator.
        self._finalized: set = set()
        #: Recovery-time-objective samples (ticks from crash to serving
        #: again), populated only when stateful recovery is enabled.
        self.rto_ticks: list = []

    # ------------------------------------------------------------------
    def on_submitted(self, count: int = 1, priority=None) -> None:
        self.submitted += count
        if priority is not None and priority in self.by_class:
            self.by_class[priority]["submitted"] += count

    def on_terminal(self, request: Request) -> None:
        if request.rid in self._finalized:
            return
        self._finalized.add(request.rid)
        cls = self.by_class.get(request.priority) if self.by_class else None
        if request.status == "served":
            self.served += 1
            latency = (request.completed_at - request.arrival + 1) \
                * self.tick_cycles
            self.latency.observe(latency)
            if self._registry_latency is not None:
                self._registry_latency.observe(latency)
            if cls is not None:
                cls["served"] += 1
            # Timeliness is end-to-end: from the first client attempt,
            # not the latest retry's arrival — a request the client had
            # to resubmit three times did not meet its deadline just
            # because the last attempt was quick.
            if self.deadline_ticks is not None and \
                    request.completed_at - request.first_arrival \
                    <= self.deadline_ticks:
                self.timely += 1
                self._window_timely += 1
                if cls is not None:
                    cls["timely"] += 1
        elif request.status == "error":
            self.error_replies += 1
            if cls is not None:
                cls["error_replies"] += 1
        elif request.status == "rejected":
            self.rejected += 1
            if cls is not None:
                cls["rejected"] += 1
        else:
            self.failed += 1
            if cls is not None:
                cls["failed"] += 1

    def on_tick(self, now: int) -> None:
        """Roll the goodput timeline (overload campaigns only)."""
        if not self.timeline_window:
            return
        if (now + 1) % self.timeline_window == 0:
            self.goodput_timeline.append(self._window_timely)
            self._window_timely = 0

    def on_recovery(self, rto_ticks: int) -> None:
        """One crash-to-serving recovery completed (restore or failover)."""
        self.rto_ticks.append(rto_ticks)

    # ------------------------------------------------------------------
    def availability(self) -> float:
        if not self.submitted:
            return 1.0
        return self.served / self.submitted

    def summary(self) -> Dict[str, object]:
        served = self.served
        out = {
            "submitted": self.submitted,
            "served": served,
            "error_replies": self.error_replies,
            "failed": self.failed,
            "availability": self.availability(),
            "latency_p50_cycles": self.latency.percentile_bucket(0.50)
            if served else None,
            "latency_p95_cycles": self.latency.percentile_bucket(0.95)
            if served else None,
            "latency_p99_cycles": self.latency.percentile_bucket(0.99)
            if served else None,
            "latency_mean_cycles": (self.latency.total / served)
            if served else None,
        }
        if self.deadline_ticks is not None:
            # Only for overload campaigns, so default summaries stay
            # byte-identical with the overload layer absent.
            out["overload"] = {
                "deadline_ticks": self.deadline_ticks,
                "timely": self.timely,
                "rejected": self.rejected,
                "by_class": {cls: dict(counters) for cls, counters
                             in sorted(self.by_class.items())},
                "goodput_timeline": list(self.goodput_timeline)
                + ([self._window_timely] if self._window_timely else []),
            }
        if self.rto_ticks:
            # Only when recovery populated it, so default summaries stay
            # byte-identical with recovery off.
            out["rto"] = {
                "count": len(self.rto_ticks),
                "mean_ticks": sum(self.rto_ticks) / len(self.rto_ticks),
                "max_ticks": max(self.rto_ticks),
            }
        if self.anomalies is not None:
            # Only when forensics is attached, so default summaries stay
            # byte-identical with the detector absent.
            out["alerts"] = self.anomalies.summary()
        return out
