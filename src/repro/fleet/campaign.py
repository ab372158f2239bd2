"""Scripted, seeded fault campaigns against an enclave fleet.

One campaign = one app, one scheme, one violation policy, N workers, and
a deterministic scenario: client traffic (optionally poisoned through the
chaos fuzzer), optional EPC-thrash noisy neighbours, optional scripted
watchdog hangs.  Everything random derives from ``derive(seed, salt)``
sub-seeds, and the tick loop visits workers in id order, so two campaigns
with identical configs are byte-identical — reports, traces and all.

The tick loop::

    arrivals → scenario events → supervisor timers → dispatch
             → workers run (wid order) → outcomes → SLO

Each tick is ``tick_cycles`` simulated cycles of every running worker;
restart costs from the cold-start model translate into ticks a worker
spends in ``restarting``, which is where fail-stop's availability gap
comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.faults import RequestFuzzer, derive
from repro.fleet.balancer import Balancer, Request
from repro.fleet.slo import SLOTracker
from repro.fleet.supervisor import Supervisor
from repro.fleet.worker import EnclaveWorker
from repro.minic import compile_source


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign, and nothing else."""

    app: str = "memcached"
    scheme: str = "sgxbounds"
    policy: str = "drop-request"
    workers: int = 4
    fault_rate: float = 0.2
    seed: int = 1234
    size: str = "XS"
    arrivals_per_tick: int = 2
    tick_cycles: int = 5_000
    watchdog_budget: int = 200_000
    rewarm_scale: float = 1.0
    balance: str = "round-robin"
    queue_cap: int = 2
    max_attempts: int = 2
    breaker_threshold: int = 3
    breaker_cooldown: int = 25
    crash_loop_k: int = 3
    crash_loop_window: int = 60
    #: Client patience: a request still waiting (queued, not in flight)
    #: this many ticks after arrival times out as failed.
    deadline_ticks: int = 60
    #: Noisy-neighbour EPC thrash probability per request (0 = off).
    epc_spike_rate: float = 0.0
    #: Poison storm: ``(start_tick, end_tick, rate)`` — within the window
    #: arrivals are fuzzed at ``rate`` instead of ``fault_rate``.
    storm: Tuple[int, int, float] = ()
    #: Seeded attack payloads for the storm window: when non-empty the
    #: storm fuzzer draws exclusively from these (oob-probe strategy over
    #: the given bytes) instead of the app's chaos profile — this is how
    #: the redteam harness interleaves its attack catalog with legitimate
    #: traffic.  Empty keeps the storm exactly as before.
    storm_attacks: Tuple[bytes, ...] = ()
    #: Scripted livelock: ``(tick, worker, duration_ticks)`` — the worker
    #: hangs mid-request until the watchdog kills it.
    hang: Tuple[int, int, int] = ()
    #: Fail-safe bound on campaign length.
    max_ticks: int = 5_000
    #: Stateful recovery mode: "none" (default — exactly the pre-recovery
    #: fleet, fresh heap every restart), or one of
    #: :data:`repro.recovery.MODES` ("restart-fresh" for accounting-only
    #: baseline, "snapshot", "snapshot+wal", "replica").  Any mode other
    #: than "none" runs the app's RECOVERY_SOURCE build.
    recovery: str = "none"
    #: Ticks between sealed checkpoints (snapshot-taking modes).
    checkpoint_interval: int = 25
    #: Extra ``workload()`` kwargs as a tuple of pairs, e.g.
    #: ``(("set_every", 2),)`` for write-heavy memcached traffic.
    workload_kwargs: Tuple[Tuple[str, object], ...] = ()
    #: Overload protection mode: "off" (default — none of the overload
    #: machinery is even constructed), "naive" (priority classes and
    #: goodput accounting threaded through, but no admission gate, no
    #: retry budget, and expired queued requests rot in place as zombie
    #: work — the congestion-collapse baseline), or "protected"
    #: (deadline-aware admission + brownout shedding + budgeted client
    #: retries).  See :mod:`repro.overload`.
    overload: str = "off"
    #: Flash crowd: ``(start_tick, end_tick, extra)`` adds ``extra``
    #: arrivals per tick inside the window — the trigger for metastable
    #: collapse (overload campaigns).
    burst: Tuple[int, int, int] = ()
    #: Traffic priority mix ``((class, weight), ...)``; empty uses
    #: :data:`repro.overload.DEFAULT_MIX`.  Ignored when overload="off".
    priority_mix: Tuple[Tuple[str, int], ...] = ()
    #: Client-side retry ceiling per request (overload modes).
    client_retries: int = 3


@dataclass
class CampaignResult:
    """Outcome of one campaign run."""

    config: CampaignConfig
    ticks: int = 0
    slo: Dict[str, object] = field(default_factory=dict)
    supervisor: Dict[str, object] = field(default_factory=dict)
    breaker_opens: int = 0
    crashes: int = 0
    watchdog_kills: int = 0
    worker_cycles: int = 0
    fuzzed_requests: int = 0
    events: List[Tuple[int, str, int, str]] = field(default_factory=list)
    #: Forensics summary; None (and absent from :meth:`as_dict`) unless a
    #: flight recorder was attached, so default output stays byte-stable.
    forensics: Optional[Dict[str, object]] = None
    #: Recovery summary (RPO/RTO/sealing/audit); None (and absent from
    #: :meth:`as_dict`) unless the campaign ran with recovery enabled.
    recovery: Optional[Dict[str, object]] = None
    #: Overload summary (admission/brownout/client budgets); None (and
    #: absent from :meth:`as_dict`) unless the campaign ran with an
    #: overload mode other than "off".
    overload: Optional[Dict[str, object]] = None
    #: Observability summary (trace volume, critical-path attribution,
    #: burn-rate alerts); None (and absent from :meth:`as_dict`) unless
    #: an ``repro.obs.Observability`` handle was attached.
    obs: Optional[Dict[str, object]] = None

    def as_dict(self) -> Dict[str, object]:
        cfg = self.config
        out = {
            "config": {
                "app": cfg.app, "scheme": cfg.scheme, "policy": cfg.policy,
                "workers": cfg.workers, "fault_rate": cfg.fault_rate,
                "seed": cfg.seed, "size": cfg.size,
                "tick_cycles": cfg.tick_cycles,
                "watchdog_budget": cfg.watchdog_budget,
                "rewarm_scale": cfg.rewarm_scale, "balance": cfg.balance,
                # Stranded queues are always hedged; the key stays so
                # result files keep their shape.
                "hedge_stranded": True,
            },
            "ticks": self.ticks,
            "slo": self.slo,
            "supervisor": self.supervisor,
            "breaker_opens": self.breaker_opens,
            "crashes": self.crashes,
            "watchdog_kills": self.watchdog_kills,
            "worker_cycles": self.worker_cycles,
            "fuzzed_requests": self.fuzzed_requests,
            "events": [list(e) for e in self.events],
        }
        if self.forensics is not None:
            out["forensics"] = self.forensics
        if self.recovery is not None:
            out["config"]["recovery"] = cfg.recovery
            out["config"]["checkpoint_interval"] = cfg.checkpoint_interval
            out["recovery"] = self.recovery
        if self.overload is not None:
            out["config"]["overload"] = cfg.overload
            out["config"]["deadline_ticks"] = cfg.deadline_ticks
            out["config"]["arrivals_per_tick"] = cfg.arrivals_per_tick
            if cfg.burst:
                out["config"]["burst"] = list(cfg.burst)
            out["overload"] = self.overload
        if self.obs is not None:
            out["obs"] = self.obs
        return out


def _profile(app: str):
    # Reuses the chaos harness protocol profiles (satellite of PR 1): the
    # fleet fuzzes traffic exactly the way the single-server chaos runs do.
    from repro.harness.chaos import PROFILES
    if app not in PROFILES:
        raise ValueError(f"unknown fleet app {app!r}; "
                         f"expected one of {sorted(PROFILES)}")
    return PROFILES[app]


def run_campaign(config: CampaignConfig, telemetry=None,
                 forensics=None, obs=None) -> CampaignResult:
    """Run one seeded campaign to completion; deterministic end to end."""
    from repro.harness.experiments import APP_CONFIG
    from repro.harness.runner import default_sinks
    from repro.obs.events import hub

    telemetry, forensics = default_sinks(telemetry, forensics)
    if obs is not None:
        obs.begin_campaign(config, forensics=forensics)
    events = hub(telemetry, forensics, obs)
    profile = _profile(config.app)
    mod = profile.module
    recovery_on = config.recovery != "none"
    requests = mod.workload(mod.SIZES[config.size],
                            **dict(config.workload_kwargs))
    # apply() reseeds per call, so fuzz the whole trace up front (one draw
    # sequence per request, exactly like the single-server chaos runs) and
    # keep a parallel storm-rate copy for arrivals inside the storm window.
    fuzzer = RequestFuzzer(derive(config.seed, f"fleet-fuzz:{config.app}"),
                           config.fault_rate, profile.length_field,
                           profile.attacks, profile.weights)
    fuzzed_trace = fuzzer.apply(requests)
    storm_trace = None
    if config.storm:
        if config.storm_attacks:
            attacks = tuple((lambda p=p: p) for p in config.storm_attacks)
            storm_fuzzer = RequestFuzzer(
                derive(config.seed, f"fleet-storm:{config.app}"),
                config.storm[2], profile.length_field, attacks,
                {"oob-probe": 1.0})
        else:
            storm_fuzzer = RequestFuzzer(
                derive(config.seed, f"fleet-storm:{config.app}"),
                config.storm[2], profile.length_field, profile.attacks,
                profile.weights)
        storm_trace = storm_fuzzer.apply(requests)

    source = mod.SOURCE
    if recovery_on:
        # Recovery modes run the app's snapshot/restore-capable build;
        # the default build (and its cycle behaviour) is untouched.
        source = getattr(mod, "RECOVERY_SOURCE", None)
        if source is None:
            raise ValueError(
                f"app {config.app!r} has no recovery-enabled build")
    module = compile_source(source, config.app)
    enclave_config = replace(
        APP_CONFIG,
        cold_start=APP_CONFIG.cold_start.scaled(config.rewarm_scale))
    workers = [
        EnclaveWorker(wid, module, config.scheme, policy=config.policy,
                      config=enclave_config,
                      watchdog_budget=config.watchdog_budget,
                      epc_spike_rate=config.epc_spike_rate,
                      faults_seed=derive(config.seed, "fleet-epc"),
                      telemetry=telemetry, forensics=forensics, obs=obs)
        for wid in range(config.workers)]
    supervisor = Supervisor(
        [w.wid for w in workers],
        cold_start=enclave_config.cold_start,
        rewarm_scale=config.rewarm_scale,
        tick_cycles=config.tick_cycles,
        crash_loop_k=config.crash_loop_k,
        crash_loop_window=config.crash_loop_window, events=events)
    controls = None
    if config.overload != "off":
        from repro.overload import PRIORITIES, build_controls
        controls = build_controls(
            config.overload, config.scheme, config.deadline_ticks,
            priority_mix=config.priority_mix,
            client_retries=config.client_retries, events=events)
    balancer = Balancer(workers, supervisor, policy=config.balance,
                        queue_cap=config.queue_cap,
                        max_attempts=config.max_attempts,
                        breaker_threshold=config.breaker_threshold,
                        breaker_cooldown=config.breaker_cooldown,
                        admission=controls.admission
                        if controls is not None else None,
                        tick_cycles=config.tick_cycles
                        if controls is not None else None,
                        events=events)
    registry = telemetry.registry if telemetry is not None else None
    slo = SLOTracker(config.tick_cycles, registry=registry,
                     anomalies=forensics.monitor
                     if forensics is not None else None,
                     deadline_ticks=config.deadline_ticks
                     if controls is not None else None,
                     classes=PRIORITIES if controls is not None else (),
                     timeline_window=20 if controls is not None else 0)
    manager = None
    if recovery_on:
        from repro.recovery import RecoveryManager

        def _spare_worker(wid: int) -> EnclaveWorker:
            # Replicas and audit oracles: same build/scheme/policy as the
            # serving workers, but no telemetry/forensics/noise hookup —
            # they are standbys and measurement shadows, not chaos targets.
            return EnclaveWorker(wid, module, config.scheme,
                                 policy=config.policy, config=enclave_config,
                                 watchdog_budget=config.watchdog_budget)

        manager = RecoveryManager(
            config.recovery, mod, config.app,
            tick_cycles=config.tick_cycles,
            checkpoint_interval=config.checkpoint_interval,
            worker_factory=_spare_worker, events=events)
        for worker in workers:
            manager.attach(worker)
    result = CampaignResult(config)

    arrivals = iter(enumerate(requests))
    exhausted = False
    now = 0

    def settle(req) -> None:
        """Route one terminal request: through the client swarm (which
        may turn it into a retry) when overload is on, then to SLO
        accounting."""
        while req is not None:
            retry = None if controls is None \
                else controls.swarm.on_terminal(req, now)
            if retry is None:
                if obs is not None:
                    obs.on_settled(req)
                slo.on_terminal(req)
                return
            # Same rid, same trace root: the resubmission is a new branch
            # of one causal request.  offer() returns the retry itself if
            # the gate rejects it.
            if obs is not None:
                obs.on_submit(retry, now)
            req = balancer.offer(retry, now)

    def observe(now: int) -> None:
        """Feed the per-tick observers: anomaly monitor, admission,
        goodput timeline and burn rate."""
        if forensics is not None or controls is not None:
            epc_total = sum(w.total_epc_faults + w.vm.counters.epc_faults
                            for w in workers)
            depth = balancer.in_system()
        if forensics is not None:
            forensics.monitor.observe_tick(
                now, epc_faults_total=epc_total,
                p95=slo.latency.percentile_bucket(0.95)
                if slo.served else None,
                served=slo.served,
                queue_depth=depth if controls is not None else None)
        if controls is not None:
            controls.admission.observe_tick(now, depth, epc_total)
            slo.on_tick(now)
        # Burn-rate rules see every tick's cumulative good/bad totals.
        if obs is not None:
            obs.observe_tick(now, slo)

    while now < config.max_ticks:
        # 1. Arrivals (fuzzed at the door, storm rate inside the window,
        #    flash-crowd extras inside the burst window).
        rate = config.arrivals_per_tick
        if config.burst and config.burst[0] <= now < config.burst[1]:
            rate += config.burst[2]
        for _ in range(rate):
            nxt = next(arrivals, None)
            if nxt is None:
                exhausted = True
                break
            rid, payload = nxt
            fuzzed = fuzzed_trace[rid]
            if (storm_trace is not None
                    and config.storm[0] <= now < config.storm[1]):
                fuzzed = storm_trace[rid]
            if fuzzed != payload:
                result.fuzzed_requests += 1
            request = Request(rid, fuzzed, arrival=now,
                              priority="normal" if controls is None
                              else controls.priority(rid))
            if obs is not None:
                obs.on_submit(request, now)
            slo.on_submitted(priority=request.priority)
            # Without an admission gate offer() never rejects.
            rejected = balancer.offer(request, now)
            if rejected is not None:
                settle(rejected)
        # 2. Scenario events.
        if config.hang and now == config.hang[0]:
            wid = config.hang[1]
            if supervisor.running(wid):
                workers[wid].inject_hang(config.hang[2])
                result.events.append((now, "hang_injected", wid, ""))
                if events is not None:
                    events.emit("hang_injected", now, wid=wid,
                                ticks=config.hang[2])
        # 3. Supervisor timers (promotions + reboots).
        for wid in supervisor.tick(now):
            workers[wid].boot()
            result.events.append((now, "restarted", wid, ""))
            if manager is not None:
                extra, rto = manager.on_restart(workers[wid], now,
                                                supervisor.startup_ticks)
                if extra:
                    supervisor.extend_start(wid, extra)
                if rto:
                    slo.on_recovery(rto)
        # 4. Dispatch.
        for req in balancer.dispatch(now):
            settle(req)
        # 5. Workers run, in wid order.
        for worker in workers:
            if not supervisor.running(worker.wid):
                continue
            report = worker.run_tick(config.tick_cycles)
            for rid, status in report.outcomes:
                req = balancer.on_outcome(worker.wid, rid, status, now)
                if req is None:
                    continue       # zombie completion: already settled
                if manager is not None and status == "served":
                    manager.on_served(worker.wid, req, now)
                settle(req)
            if report.crash is not None:
                result.crashes += 1
                if report.crash == "WatchdogTimeout":
                    result.watchdog_kills += 1
                result.events.append(
                    (now, "crash", worker.wid, report.crash))
                cost = supervisor.on_crash(worker, now, report.crash)
                if manager is not None:
                    manager.on_crash(worker.wid, now, dead=cost is None)
                for req in balancer.on_worker_crash(
                        worker.wid, report.stranded, now):
                    settle(req)
                if manager is not None and cost is None:
                    promoted = manager.promote(worker.wid, now, balancer,
                                               supervisor.startup_ticks)
                    if promoted is not None:
                        standby, extra, rto = promoted
                        workers[worker.wid] = standby
                        supervisor.revive(worker.wid, now, extra)
                        slo.on_recovery(rto)
                        result.events.append(
                            (now, "promoted", worker.wid, ""))
        # 5b. Recovery upkeep: replica apply + sealed checkpoints of
        # idle workers whose interval elapsed.
        if manager is not None:
            manager.tick(now, {w.wid: w for w in workers}, supervisor)
        # 6. Client deadlines: queued requests past their patience fail.
        #    The naive overload client walks away but its queued requests
        #    stay put (zombie work); everywhere else expiry removes them.
        for req in balancer.expire(now, config.deadline_ticks,
                                   abandon_in_place=controls is not None
                                   and controls.mode == "naive"):
            settle(req)
        # 6b. Per-tick observers.
        observe(now)
        # 7. Termination: all traffic is in, nothing left in the system.
        if exhausted and balancer.in_system() == 0:
            now += 1
            break
        now += 1
    else:
        # Fail-safe: time out everything still in the system as failed.
        for req in balancer.abandon(now):
            if obs is not None:
                obs.on_settled(req)
            slo.on_terminal(req)

    result.ticks = now
    result.slo = slo.summary()
    result.supervisor = supervisor.summary()
    result.breaker_opens = balancer.breaker_opens()
    result.worker_cycles = sum(w.total_cycles + w.cycles() for w in workers)
    if manager is not None:
        result.recovery = manager.finalize(
            {w.wid: w for w in workers}, supervisor, now)
    if controls is not None:
        result.overload = controls.summary()
    if obs is not None:
        result.obs = obs.summary()
    if forensics is not None:
        result.forensics = forensics.summary()
    if registry is not None:
        registry.gauge("fleet.availability").set(
            result.slo["availability"])
        registry.counter("fleet.ticks").inc(result.ticks)
    return result
