"""Streaming anomaly detectors over campaign metrics.

Four production-shaped rules, each deterministic and edge-triggered
(one alert per episode, re-armed by hysteresis, never by wall time):

* :class:`EPCThrashDetector` — the fleet-wide EPC fault rate over a
  rolling tick window exceeds a threshold: some worker (or a noisy
  neighbour) is refaulting its working set every tick, the paper's
  2x-2000x paging cliff (§2.1) showing up as a sustained rate instead
  of a one-off spike.
* :class:`LatencyRegressionDetector` — the served-latency p95 regresses
  by more than ``factor`` against a rolling baseline (the minimum p95
  over the window); catches queueing collapse behind restarts before
  availability visibly drops.
* :class:`CrashLoopPrecursorDetector` — a worker crashed twice inside
  the supervisor's crash-loop window: one more and the supervisor marks
  it dead, so the precursor fires while there is still time to shed
  load away from it.
* :class:`QueueDepthDetector` — the mean in-system request depth over a
  rolling window exceeds a threshold: arrivals are outpacing the fleet's
  service rate and every further admission is a future deadline miss.
  Only fed by overload-enabled campaigns (:mod:`repro.overload`), where
  it doubles as the brownout pressure signal.

Detectors never charge simulated counters; alerts are appended to the
monitor's list and recorded into the flight recorder as ``kind="alert"``
records, which is how they surface in ``SLOTracker.summary()`` and
campaign reports.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.forensics.flightlog import FlightRecorder


class EPCThrashDetector:
    """Rolling-window EPC fault-rate rule (faults per tick)."""

    name = "epc_thrash"

    def __init__(self, window: int = 16, faults_per_tick: int = 200):
        self.window = max(1, window)
        self.faults_per_tick = faults_per_tick
        self._deltas: Deque[int] = deque(maxlen=self.window)
        self._prev_total: Optional[int] = None
        self.alerting = False

    def observe(self, now: int, epc_faults_total: int) -> Optional[Dict]:
        if self._prev_total is None:
            self._prev_total = epc_faults_total
            return None
        delta = max(0, epc_faults_total - self._prev_total)
        self._prev_total = epc_faults_total
        self._deltas.append(delta)
        if len(self._deltas) < self.window:
            return None
        rate = sum(self._deltas) // self.window
        if not self.alerting and rate >= self.faults_per_tick:
            self.alerting = True
            return {"rate_per_tick": rate,
                    "threshold": self.faults_per_tick,
                    "window_ticks": self.window}
        if self.alerting and rate < self.faults_per_tick // 2:
            self.alerting = False   # hysteresis: re-arm at half threshold
        return None


class LatencyRegressionDetector:
    """p95 latency versus a rolling-minimum baseline."""

    name = "latency_regression"

    def __init__(self, window: int = 24, factor: float = 4.0,
                 min_served: int = 16):
        self.window = max(2, window)
        self.factor = factor
        self.min_served = min_served
        self._samples: Deque[int] = deque(maxlen=self.window)
        self.alerting = False

    def observe(self, now: int, p95: Optional[int],
                served: int) -> Optional[Dict]:
        if p95 is None or served < self.min_served:
            return None
        self._samples.append(p95)
        if len(self._samples) < self.window:
            return None
        baseline = min(self._samples)
        if baseline <= 0:
            return None
        ratio = p95 / baseline
        if not self.alerting and ratio >= self.factor:
            self.alerting = True
            return {"p95_cycles": p95, "baseline_cycles": baseline,
                    "ratio_x100": int(ratio * 100),
                    "factor_x100": int(self.factor * 100)}
        if self.alerting and ratio < self.factor / 2:
            self.alerting = False
        return None


class QueueDepthDetector:
    """Rolling-window mean of in-system request depth.

    Queueing pressure is the other face of the EPC cliff: once a scheme's
    service time exceeds the inter-arrival time, depth grows without
    bound and every request admitted is a request that will miss its
    deadline.  The rule alerts when the mean depth over the window
    crosses the threshold, with the same half-threshold hysteresis as
    the other detectors.  Brownout reads only ``alerting``: the shed
    level counts alerting detectors, not how far past its threshold
    each one is."""

    name = "queue_depth"

    def __init__(self, window: int = 8, depth_threshold: int = 24):
        self.window = max(1, window)
        self.depth_threshold = depth_threshold
        self._depths: Deque[int] = deque(maxlen=self.window)
        self.alerting = False

    def observe(self, now: int, depth: int) -> Optional[Dict]:
        self._depths.append(max(0, depth))
        if len(self._depths) < self.window:
            return None
        mean = sum(self._depths) // self.window
        if not self.alerting and mean >= self.depth_threshold:
            self.alerting = True
            return {"mean_depth": mean,
                    "threshold": self.depth_threshold,
                    "window_ticks": self.window}
        if self.alerting and mean < self.depth_threshold // 2:
            self.alerting = False
        return None


class CrashLoopPrecursorDetector:
    """K-1 crashes of one worker inside the crash-loop window."""

    name = "crash_loop_precursor"

    def __init__(self, window: int = 60, precursor_k: int = 2):
        self.window = window
        self.precursor_k = max(1, precursor_k)
        self._crashes: Dict[int, List[int]] = {}
        self._alerted_at: Dict[int, int] = {}

    def on_crash(self, now: int, wid: int) -> Optional[Dict]:
        ticks = self._crashes.setdefault(wid, [])
        ticks.append(now)
        recent = [t for t in ticks if now - t <= self.window]
        self._crashes[wid] = recent
        if len(recent) < self.precursor_k:
            return None
        # One alert per episode: re-arm once the window has fully slid
        # past the tick that triggered the previous alert.
        last = self._alerted_at.get(wid)
        if last is not None and now - last <= self.window:
            return None
        self._alerted_at[wid] = now
        return {"crashes_in_window": len(recent),
                "window_ticks": self.window,
                "first_crash_tick": recent[0]}


class AnomalyMonitor:
    """Runs every detector; turns hits into alert records."""

    def __init__(self, recorder: Optional[FlightRecorder] = None,
                 crash_loop_window: int = 60):
        self.recorder = recorder
        self.epc = EPCThrashDetector()
        self.latency = LatencyRegressionDetector()
        self.crash_loop = CrashLoopPrecursorDetector(
            window=crash_loop_window)
        self.queue = QueueDepthDetector()
        self.alerts: List[Dict[str, object]] = []

    # -- feeds ----------------------------------------------------------
    def observe_tick(self, now: int, epc_faults_total: int,
                     p95: Optional[int], served: int,
                     queue_depth: Optional[int] = None) -> None:
        """Per-tick metrics sample (campaign loop, after outcomes).

        ``queue_depth`` is only fed by overload-enabled campaigns; the
        detector stays silent (and cost-free) when it is never given a
        sample."""
        hit = self.epc.observe(now, epc_faults_total)
        if hit is not None:
            self._alert(self.epc.name, now, None, hit)
        hit = self.latency.observe(now, p95, served)
        if hit is not None:
            self._alert(self.latency.name, now, None, hit)
        if queue_depth is not None:
            hit = self.queue.observe(now, queue_depth)
            if hit is not None:
                self._alert(self.queue.name, now, None, hit)

    def on_crash(self, now: int, wid: int) -> None:
        """A worker crashed (supervisor feed)."""
        hit = self.crash_loop.on_crash(now, wid)
        if hit is not None:
            self._alert(self.crash_loop.name, now, wid, hit)

    # -- sink -----------------------------------------------------------
    def _alert(self, detector: str, now: int, wid: Optional[int],
               detail: Dict[str, object]) -> None:
        alert = {"detector": detector, "tick": now, "wid": wid,
                 "detail": detail}
        self.alerts.append(alert)
        if self.recorder is not None:
            self.recorder.record("alert", ts=now, cat="anomaly", wid=wid,
                                 detector=detector, **detail)

    def summary(self) -> Dict[str, object]:
        by_detector: Dict[str, int] = {}
        for alert in self.alerts:
            name = alert["detector"]
            by_detector[name] = by_detector.get(name, 0) + 1
        return {"total": len(self.alerts),
                "by_detector": {k: by_detector[k]
                                for k in sorted(by_detector)}}
