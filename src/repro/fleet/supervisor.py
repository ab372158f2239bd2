"""Fleet supervisor: the worker failure lifecycle on the tick clock.

States::

    starting ──► healthy ◄──► degraded
                    │             │
                    ▼             ▼
                 crashed ──► restarting ──► starting   (cold start priced)
                    │
                    ▼ (K crashes within a window)
                  dead

A crash is priced with :class:`repro.sgx.ColdStartModel` against the
*crashed* incarnation's working set — the supervisor asks the dead
enclave how many EPC pages it had warm, so a worker that crashed deep
into a large working set pays a longer restart than one that died on its
first request.  The cost lands on the simulated clock as ticks of
unavailability.  K crashes inside a sliding window mark the worker dead
(crash loop): the supervisor stops paying for restarts that never stick.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sgx import ColdStartModel

STARTING = "starting"
HEALTHY = "healthy"
DEGRADED = "degraded"
CRASHED = "crashed"
RESTARTING = "restarting"
DEAD = "dead"

#: States in which the balancer may hand a worker requests.
DISPATCHABLE = (HEALTHY, DEGRADED)
#: States in which the worker's VM executes during a tick.
RUNNING = (STARTING, HEALTHY, DEGRADED)


class WorkerRecord:
    """Supervisor-side view of one worker."""

    __slots__ = ("status", "ready_at", "crash_ticks", "crashes", "restarts",
                 "restart_cycles", "crash_reasons")

    def __init__(self) -> None:
        self.status = STARTING
        self.ready_at = 0          # tick at which the next promotion fires
        #: Crash timestamps still inside the crash-loop window; pruned on
        #: every crash and tick so a long campaign's history stays O(K).
        self.crash_ticks: List[int] = []
        self.crashes = 0           # lifetime total (crash_ticks is pruned)
        self.restarts = 0
        self.restart_cycles = 0
        self.crash_reasons: List[str] = []

    def prune(self, now: int, window: int) -> None:
        """Forget crash timestamps older than the crash-loop window."""
        if self.crash_ticks and now - self.crash_ticks[0] > window:
            self.crash_ticks = [t for t in self.crash_ticks
                                if now - t <= window]


class Supervisor:
    """Owns worker state; prices restarts; detects crash loops."""

    def __init__(self, worker_ids, cold_start: Optional[ColdStartModel] = None,
                 rewarm_scale: float = 1.0, tick_cycles: int = 5_000,
                 startup_ticks: int = 1, crash_loop_k: int = 3,
                 crash_loop_window: int = 60, events=None):
        model = cold_start or ColdStartModel()
        self.model = model.scaled(rewarm_scale) \
            if rewarm_scale != model.rewarm_scale else model
        self.tick_cycles = tick_cycles
        self.startup_ticks = startup_ticks
        self.crash_loop_k = crash_loop_k
        self.crash_loop_window = crash_loop_window
        #: Optional ``repro.obs.events.EventHub`` for lifecycle events.
        self.events = events
        self.records: Dict[int, WorkerRecord] = {
            wid: WorkerRecord() for wid in worker_ids}
        for record in self.records.values():
            record.ready_at = startup_ticks
        self.total_restart_cycles = 0
        self.deaths = 0

    # ------------------------------------------------------------------
    def status(self, wid: int) -> str:
        return self.records[wid].status

    def dispatchable(self, wid: int) -> bool:
        return self.records[wid].status in DISPATCHABLE

    def running(self, wid: int) -> bool:
        return self.records[wid].status in RUNNING

    def alive_count(self) -> int:
        return sum(1 for r in self.records.values() if r.status != DEAD)

    # ------------------------------------------------------------------
    def on_outcome(self, wid: int, status: str) -> None:
        """Health tracking from request outcomes: errors degrade, a
        served request restores full health."""
        record = self.records[wid]
        if record.status not in DISPATCHABLE:
            return
        record.status = HEALTHY if status == "served" else DEGRADED

    def on_crash(self, worker, now: int, reason: str) -> Optional[int]:
        """Price the crash; returns restart cost in cycles, or None when
        the worker crossed the crash-loop threshold and is dead."""
        record = self.records[worker.wid]
        record.status = CRASHED
        record.prune(now, self.crash_loop_window)
        record.crash_ticks.append(now)
        record.crashes += 1
        record.crash_reasons.append(reason)
        events = self.events
        if events is not None:
            events.emit("worker_crash", now, wid=worker.wid, reason=reason)
        if len(record.crash_ticks) >= self.crash_loop_k:
            record.status = DEAD
            self.deaths += 1
            if events is not None:
                events.emit("worker_dead", now, wid=worker.wid,
                            reason=reason)
            return None
        cost = worker.vm.enclave.cold_start_cycles(self.model)
        record.restarts += 1
        record.restart_cycles += cost
        self.total_restart_cycles += cost
        record.status = RESTARTING
        # The replacement is serving again once the cold start has been
        # paid down, one tick of simulated cycles at a time.
        record.ready_at = now + max(1, -(-cost // self.tick_cycles))
        if events is not None:
            events.emit("restart_scheduled", now, wid=worker.wid,
                        reason=reason)
        return cost

    def tick(self, now: int) -> List[int]:
        """Advance lifecycle timers; returns worker ids to (re)boot now."""
        boots: List[int] = []
        for wid in sorted(self.records):
            record = self.records[wid]
            record.prune(now, self.crash_loop_window)
            if record.status == RESTARTING and now >= record.ready_at:
                record.status = STARTING
                record.ready_at = now + self.startup_ticks
                boots.append(wid)
                if self.events is not None:
                    self.events.emit("worker_restart", now, wid=wid)
            elif record.status == STARTING and now >= record.ready_at:
                record.status = HEALTHY
        return boots

    def next_timer(self, now: int) -> Optional[int]:
        """The first tick from ``now`` on at which :meth:`tick` promotes
        or reboots a worker, or None when no timer is armed.  Skipping
        the ticks before it skips only prunes, and pruning is monotone:
        the next crash's own prune forgets the same timestamps."""
        armed = [r.ready_at for r in self.records.values()
                 if r.status in (RESTARTING, STARTING)]
        return max(now, min(armed)) if armed else None

    # ------------------------------------------------------------------
    def extend_start(self, wid: int, extra_ticks: int) -> None:
        """Recovery hook: restoring sealed state stretches the startup
        window of a booting worker by ``extra_ticks``."""
        if extra_ticks > 0:
            self.records[wid].ready_at += extra_ticks

    def revive(self, wid: int, now: int, extra_ticks: int = 0) -> None:
        """Failover hook: a replica was promoted into a DEAD slot.  The
        slot re-enters the lifecycle at STARTING; ``extra_ticks`` prices
        the promotion drain."""
        record = self.records[wid]
        record.status = STARTING
        record.ready_at = now + self.startup_ticks + max(0, extra_ticks)
        if self.events is not None:
            self.events.emit("replica_promoted", now, wid=wid)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        return {
            "restarts": sum(r.restarts for r in self.records.values()),
            "deaths": self.deaths,
            "restart_cycles": self.total_restart_cycles,
            "per_worker": {
                wid: {"status": r.status, "restarts": r.restarts,
                      "crashes": r.crashes,
                      "restart_cycles": r.restart_cycles,
                      "crash_reasons": list(r.crash_reasons)}
                for wid, r in sorted(self.records.items())},
        }
