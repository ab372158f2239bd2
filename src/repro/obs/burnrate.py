"""Multi-window burn-rate alerting on the simulated campaign clock.

The SRE playbook's alerting shape: an *error budget* is the bad-event
fraction an SLO target tolerates (target 0.95 → budget 0.05), and the
*burn rate* over a window is how many times faster than budget the
fleet is consuming it (``bad/total / budget``).  A rule pairs a long
window (is the damage sustained?) with a short window (is it still
happening?) and fires only when **both** exceed the threshold, which is
what keeps a single unlucky tick from paging; it clears with hysteresis
once both windows drop below half the threshold, so an alert cannot
flap on the boundary.

Everything is evaluated once per campaign tick from the SLO tracker's
cumulative counters — no wall clocks, no sampling — so fire/clear
events are byte-identical across identical seeded runs.  *Bad* events
are infrastructure failures (deadline expiry, crash retries exhausted,
no capacity): error replies to poisoned payloads are the server
correctly refusing bad input, and admission rejections are the fleet
protecting itself — neither burns the availability budget, which is
exactly why the protected overload mode stays silent while the naive
collapse pages.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: A firing rule clears once both windows burn at no more than this
#: fraction of its threshold (the hysteresis that stops flapping).
CLEAR_RATIO = 0.5


class BurnRateRule:
    """One fast- or slow-burn alerting rule."""

    __slots__ = ("name", "slo_target", "long_window", "short_window",
                 "threshold")

    def __init__(self, name: str, slo_target: float = 0.95,
                 long_window: int = 40, short_window: int = 10,
                 threshold: float = 6.0):
        if not 0.0 < slo_target < 1.0:
            raise ValueError("slo_target must be in (0, 1)")
        if short_window > long_window:
            raise ValueError("short window cannot exceed long window")
        self.name = name
        self.slo_target = slo_target
        self.long_window = long_window
        self.short_window = short_window
        self.threshold = threshold

    @property
    def budget(self) -> float:
        return 1.0 - self.slo_target

    def as_dict(self) -> Dict[str, object]:
        return {"name": self.name, "slo_target": self.slo_target,
                "long_window": self.long_window,
                "short_window": self.short_window,
                "threshold": self.threshold,
                "clear_ratio": CLEAR_RATIO}


#: Default rule pair, scaled to campaign ticks: the fast rule catches a
#: collapse within ~a deadline's worth of ticks, the slow rule catches a
#: sustained budget bleed a fast spike would not show.
DEFAULT_RULES = (
    BurnRateRule("fast-burn", slo_target=0.95, long_window=40,
                 short_window=10, threshold=6.0),
    BurnRateRule("slow-burn", slo_target=0.95, long_window=160,
                 short_window=40, threshold=2.0),
)


class BurnRateEngine:
    """Evaluates burn-rate rules over per-tick good/bad totals.

    Fire/clear events land in :attr:`alerts` and, once
    :meth:`repro.obs.Observability.begin_campaign` binds a campaign's
    flight recorder to :attr:`recorder`, there too (kind ``burn_alert``).
    """

    def __init__(self, rules=DEFAULT_RULES):
        self.rules = tuple(rules)
        self.recorder = None
        #: Cumulative (good, bad) totals per observed tick.
        self._history: List[Tuple[int, int]] = []
        self._ticks: List[int] = []
        self.active: Dict[str, int] = {}       # rule name -> fire tick
        self.alerts: List[Dict[str, object]] = []
        self.fired = 0
        self.cleared = 0

    # ------------------------------------------------------------------
    def _burn(self, rule: BurnRateRule, window: int) -> float:
        """Burn rate over the last ``window`` observations."""
        if not self._history:
            return 0.0
        last_good, last_bad = self._history[-1]
        if len(self._history) > window:
            base_good, base_bad = self._history[-window - 1]
        else:
            base_good, base_bad = 0, 0
        good = last_good - base_good
        bad = last_bad - base_bad
        total = good + bad
        if total <= 0:
            return 0.0
        return (bad / total) / rule.budget

    def observe(self, now: int, good_total: int, bad_total: int) -> None:
        """Feed one tick's cumulative totals and evaluate every rule."""
        self._history.append((good_total, bad_total))
        self._ticks.append(now)
        for rule in self.rules:
            burn_long = self._burn(rule, rule.long_window)
            burn_short = self._burn(rule, rule.short_window)
            is_active = rule.name in self.active
            if (not is_active and burn_long >= rule.threshold
                    and burn_short >= rule.threshold):
                self.active[rule.name] = now
                self.fired += 1
                self._record("fire", rule, now, burn_long, burn_short)
            elif (is_active
                  and burn_long <= rule.threshold * CLEAR_RATIO
                  and burn_short <= rule.threshold * CLEAR_RATIO):
                del self.active[rule.name]
                self.cleared += 1
                self._record("clear", rule, now, burn_long, burn_short)

    def _record(self, event: str, rule: BurnRateRule, now: int,
                burn_long: float, burn_short: float) -> None:
        entry = {"tick": now, "rule": rule.name, "event": event,
                 "burn_long": round(burn_long, 3),
                 "burn_short": round(burn_short, 3)}
        self.alerts.append(entry)
        if self.recorder is not None:
            self.recorder.record(
                "burn_alert", ts=now, cat="obs", rule=rule.name,
                event=event, burn_long=entry["burn_long"],
                burn_short=entry["burn_short"])

    # ------------------------------------------------------------------
    def active_rules(self) -> List[str]:
        return sorted(self.active)

    def summary(self) -> Dict[str, object]:
        return {
            "rules": [rule.as_dict() for rule in self.rules],
            "fired": self.fired,
            "cleared": self.cleared,
            "active": self.active_rules(),
            "alerts": list(self.alerts),
        }

    def render_log(self) -> str:
        """Deterministic text alert log for the dashboard."""
        if not self.alerts:
            return "  (no burn-rate alerts)"
        lines = []
        for alert in self.alerts:
            lines.append(
                f"  tick {alert['tick']:>5}  {alert['event']:<5} "
                f"{alert['rule']:<10} burn_long={alert['burn_long']:<8} "
                f"burn_short={alert['burn_short']}")
        return "\n".join(lines)
