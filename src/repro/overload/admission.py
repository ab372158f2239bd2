"""Deadline-aware admission control for fleet ingress queues.

The gate answers one question at enqueue time: *can this request still be
served inside its deadline if it joins the line?*  The estimate is the
classic ``queue depth x expected service time`` — service time is a
per-scheme EWMA of observed ticks-per-request, so a heavily-instrumented
scheme (longer service time) saturates at a lower arrival rate and the
gate starts rejecting earlier, exactly tracking the paper's overhead
ordering.  Rejected requests cost the enclave nothing: they terminate
with a distinct ``rejected`` status at the balancer's front door instead
of timing out after queueing (and then wasting service cycles on a
client that already gave up).

Two gates share the estimator:

* the **offer gate** (system-wide): at arrival, estimated wait =
  ``in_system / alive_workers * ewma`` against the full deadline;
* the **assign gate** (per-worker): when a request is bound to one
  worker's queue, estimated wait = ``outstanding(worker) * ewma``
  against the deadline *minus the ticks already spent waiting*.

A :class:`repro.overload.brownout.BrownoutController` (protected mode
only) adds class-based shedding on top: under sustained pressure the
sheddable class is rejected first, then normal; critical traffic is
never browned out and only ever rejected by the deadline math.
"""

from __future__ import annotations

from typing import Dict, Optional

REJECT_DEADLINE = "deadline"
REJECT_SHED = "shed"

#: Per-class fraction of the deadline a request may spend waiting before
#: the gate turns it away.  Lower classes get less headroom, so under
#: pressure the deadline math rejects sheddable traffic first and the
#: queue space it would have occupied is left for critical requests —
#: capacity reservation by deadline scaling, without explicit quotas.
CLASS_HEADROOM = {"critical": 1.0, "normal": 0.75, "sheddable": 0.5}


class ServiceEstimator:
    """EWMA of per-request service time in ticks, per scheme.

    Starts from a prior so the gate works before the first completion;
    ``alpha`` weights fresh samples.  Pure float arithmetic on
    deterministic inputs — two identical campaigns see identical
    estimates at every tick.
    """

    __slots__ = ("prior_ticks", "alpha", "value", "samples")

    def __init__(self, prior_ticks: float = 2.0, alpha: float = 0.25):
        self.prior_ticks = prior_ticks
        self.alpha = alpha
        self.value = float(prior_ticks)
        self.samples = 0

    def observe(self, service_ticks: int) -> None:
        sample = float(max(1, service_ticks))
        self.value += self.alpha * (sample - self.value)
        self.samples += 1

    def estimate(self) -> float:
        return self.value


class AdmissionController:
    """The admission gate threaded into :class:`repro.fleet.Balancer`.

    ``enabled=False`` builds the accounting-only variant used by the
    ``naive`` campaign mode: priorities and the estimator are tracked
    (so reports can show what the gate *would* have known) but both
    gates admit everything.
    """

    def __init__(self, scheme: str, deadline_ticks: int,
                 enabled: bool = True, brownout=None,
                 estimator: Optional[ServiceEstimator] = None,
                 events=None):
        self.scheme = scheme
        self.deadline_ticks = deadline_ticks
        self.enabled = enabled
        self.brownout = brownout
        self.estimator = estimator or ServiceEstimator()
        #: Optional ``repro.obs.events.EventHub`` for rejections.
        self.events = events
        self.admitted = 0
        self.rejected_by_reason: Dict[str, int] = {
            REJECT_DEADLINE: 0, REJECT_SHED: 0}
        self.rejected_by_class: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def admit_offer(self, request, in_system: int, alive_workers: int,
                    now: int) -> Optional[str]:
        """Front-door gate at arrival; None admits, else a reject reason."""
        if not self.enabled:
            return None
        if self.brownout is not None \
                and self.brownout.sheds(request.priority):
            return REJECT_SHED
        workers = max(1, alive_workers)
        est_wait = (in_system / workers) * self.estimator.estimate()
        budget = self.deadline_ticks \
            * CLASS_HEADROOM.get(request.priority, 1.0)
        if est_wait > budget:
            return REJECT_DEADLINE
        self.admitted += 1
        return None

    def admit_assign(self, request, outstanding: int,
                     now: int) -> Optional[str]:
        """Per-worker gate when the balancer binds a request to a queue."""
        if not self.enabled:
            return None
        budget = self.deadline_ticks \
            * CLASS_HEADROOM.get(request.priority, 1.0)
        remaining = budget - (now - request.arrival)
        est_wait = outstanding * self.estimator.estimate()
        if est_wait > remaining:
            return REJECT_DEADLINE
        return None

    # ------------------------------------------------------------------
    def on_served(self, service_ticks: int) -> None:
        self.estimator.observe(service_ticks)

    def on_reject(self, request, reason: str, now: int) -> None:
        self.rejected_by_reason[reason] = \
            self.rejected_by_reason.get(reason, 0) + 1
        cls = request.priority
        self.rejected_by_class[cls] = self.rejected_by_class.get(cls, 0) + 1
        if self.events is not None:
            self.events.emit("admission_reject", now, rid=request.rid,
                             priority=cls, reason=reason)

    def observe_tick(self, now: int, queue_depth: int,
                     epc_faults_total: int) -> None:
        """Per-tick pressure feed (drives the brownout detectors)."""
        if self.brownout is not None:
            self.brownout.observe(now, queue_depth, epc_faults_total)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "scheme": self.scheme,
            "enabled": self.enabled,
            "deadline_ticks": self.deadline_ticks,
            "ewma_service_ticks": round(self.estimator.estimate(), 3),
            "service_samples": self.estimator.samples,
            "admitted": self.admitted,
            "rejected": {k: self.rejected_by_reason[k]
                         for k in sorted(self.rejected_by_reason)},
            "rejected_by_class": {k: self.rejected_by_class[k]
                                  for k in sorted(self.rejected_by_class)},
        }
        if self.brownout is not None:
            out["brownout"] = self.brownout.summary()
        return out
