"""``repro.overload`` — admission control, retry budgets, brownout.

The fleet's saturation behaviour is where SGXBounds' pitch actually
cashes out: a scheme's instrumentation overhead sets its per-request
service time, which sets the arrival rate past which queues grow without
bound.  Naive fleets fail *metastably* there — clients retry timeouts,
retries amplify offered load, and the overload outlives whatever
triggered it.  This package is the protection layer:

* :mod:`repro.overload.admission` — deadline-aware admission at the
  ingress queue: a request whose estimated queue wait (depth x the
  scheme's EWMA service ticks) exceeds its remaining deadline is
  rejected at enqueue with a distinct ``REJECTED`` outcome instead of
  timing out after consuming enclave cycles;
* :mod:`repro.overload.brownout` — a pressure signal built from the
  EPC-fault-rate and queue-depth anomaly detectors
  (:mod:`repro.forensics.anomaly`) that sheds low priority classes
  first (sheddable, then normal; critical is never browned out);
* :mod:`repro.overload.budget` — client-side adaptive retry budgets (a
  token bucket per traffic class, refilled by successes) replacing the
  unbounded retry-on-timeout loop, plus the client swarm that decides
  retry-vs-give-up for every terminal outcome.

Campaigns opt in through :attr:`repro.fleet.campaign.CampaignConfig.
overload`: ``"off"`` (default) constructs none of this and is
byte-identical to the subsystem being absent; ``"naive"`` threads
priority classes and goodput accounting through the fleet but keeps the
unprotected behaviour (no gate, no budget, abandoned requests rot in the
queues and still consume enclave cycles — the congestion-collapse
baseline); ``"protected"`` enables the full gate + brownout + budgeted
retries.  Everything is priced on the simulated clock and derives from
the campaign seed, so overload sweeps are byte-identical per seed.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.overload.admission import (
    REJECT_DEADLINE,
    REJECT_SHED,
    AdmissionController,
    ServiceEstimator,
)
from repro.overload.brownout import BrownoutController
from repro.overload.budget import ClientSwarm, RetryBudget

#: Campaign overload modes (CampaignConfig.overload).
OFF = "off"
NAIVE = "naive"
PROTECTED = "protected"
MODES = (OFF, NAIVE, PROTECTED)

#: Priority classes, highest first — brownout sheds from the right.
PRIORITIES = ("critical", "normal", "sheddable")

#: Default traffic mix when a campaign enables overload accounting but
#: does not specify one: 20% critical, 60% normal, 20% sheddable.
DEFAULT_MIX: Tuple[Tuple[str, int], ...] = (
    ("critical", 2), ("normal", 6), ("sheddable", 2))


def priority_pattern(
        mix: Tuple[Tuple[str, int], ...] = ()) -> Tuple[str, ...]:
    """Expand a ``((class, weight), ...)`` mix into the deterministic
    assignment cycle: request ``rid`` gets ``pattern[rid % len]``."""
    mix = mix or DEFAULT_MIX
    pattern = []
    for cls, weight in mix:
        if cls not in PRIORITIES:
            raise ValueError(f"unknown priority class {cls!r}; "
                             f"expected one of {PRIORITIES}")
        if weight < 0:
            raise ValueError(f"negative weight for class {cls!r}")
        pattern.extend([cls] * weight)
    if not pattern:
        raise ValueError("priority mix expands to an empty pattern")
    return tuple(pattern)


class OverloadControls:
    """The per-campaign bundle: admission gate + client swarm + pattern."""

    __slots__ = ("mode", "admission", "swarm", "pattern")

    def __init__(self, mode: str, admission: AdmissionController,
                 swarm: ClientSwarm, pattern: Tuple[str, ...]):
        self.mode = mode
        self.admission = admission
        self.swarm = swarm
        self.pattern = pattern

    def priority(self, rid: int) -> str:
        return self.pattern[rid % len(self.pattern)]

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "admission": self.admission.summary(),
            "client": self.swarm.summary(),
        }


def build_controls(mode: str, scheme: str, deadline_ticks: int,
                   priority_mix: Tuple[Tuple[str, int], ...] = (),
                   client_retries: int = 3,
                   events=None) -> Optional[OverloadControls]:
    """Construct the overload layer for one campaign (None for ``off``)."""
    if mode == OFF:
        return None
    if mode not in MODES:
        raise ValueError(f"unknown overload mode {mode!r}; "
                         f"expected one of {MODES}")
    protected = mode == PROTECTED
    brownout = BrownoutController() if protected else None
    admission = AdmissionController(
        scheme, deadline_ticks, enabled=protected, brownout=brownout,
        events=events)
    swarm = ClientSwarm(budgeted=protected, max_retries=client_retries)
    return OverloadControls(mode, admission, swarm,
                            priority_pattern(priority_mix))


__all__ = [
    "AdmissionController",
    "BrownoutController",
    "ClientSwarm",
    "DEFAULT_MIX",
    "MODES",
    "NAIVE",
    "OFF",
    "OverloadControls",
    "PRIORITIES",
    "PROTECTED",
    "REJECT_DEADLINE",
    "REJECT_SHED",
    "RetryBudget",
    "ServiceEstimator",
    "build_controls",
    "priority_pattern",
]
