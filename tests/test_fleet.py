"""Fleet lifecycle tests: breakers, crash loops, watchdog, restart cost,
and campaign determinism."""

import collections
import json
from dataclasses import replace

import pytest

from repro.fleet import (
    CampaignConfig,
    CircuitBreaker,
    EnclaveWorker,
    Request,
    Balancer,
    SLOTracker,
    Supervisor,
    run_campaign,
)
from repro.fleet import balancer as bal_mod
from repro.fleet import supervisor as sup_mod
from repro.sgx import ColdStartModel


class _StubEnclave:
    def __init__(self, pages):
        self.pages = pages

    def cold_start_cycles(self, model):
        return model.restart_cycles(self.pages)


class _StubVM:
    def __init__(self, pages):
        self.enclave = _StubEnclave(pages)


class _StubWorker:
    """Just enough worker for supervisor/balancer unit tests."""

    def __init__(self, wid, pages=4):
        self.wid = wid
        self.vm = _StubVM(pages)
        self.submitted = []
        self.waited = []

    def submit(self, rid, payload, waited_cycles=None):
        self.submitted.append((rid, payload))
        self.waited.append(waited_cycles)


class TestCircuitBreaker:
    def test_closed_to_open_after_threshold(self):
        b = CircuitBreaker(threshold=2, cooldown=10)
        assert b.allow(0)
        b.record_failure(0)
        assert b.state == bal_mod.CLOSED
        b.record_failure(1)
        assert b.state == bal_mod.OPEN
        assert b.opens == 1
        assert not b.allow(5)                   # cooling down

    def test_half_open_admits_single_probe(self):
        b = CircuitBreaker(threshold=1, cooldown=10)
        b.record_failure(0)                     # open until 10
        assert b.allow(10)                      # cooldown over -> half-open
        assert b.state == bal_mod.HALF_OPEN
        b.on_dispatch()                         # the one probe in flight
        assert not b.allow(11)                  # no second probe

    def test_probe_success_closes(self):
        b = CircuitBreaker(threshold=1, cooldown=10)
        b.record_failure(0)
        b.allow(10)
        b.on_dispatch()
        b.record_success()
        assert b.state == bal_mod.CLOSED
        assert b.allow(11)

    def test_probe_failure_reopens(self):
        b = CircuitBreaker(threshold=3, cooldown=10)
        b.record_failure(0)
        b.record_failure(0)
        b.record_failure(0)                     # open (threshold)
        b.allow(10)
        b.on_dispatch()
        b.record_failure(12)                    # probe failed: reopen now
        assert b.state == bal_mod.OPEN
        assert b.opens == 2
        assert not b.allow(15)
        assert b.allow(22)                      # 12 + cooldown

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(threshold=3, cooldown=10)
        b.record_failure(0)
        b.record_failure(1)
        b.record_success()
        b.record_failure(2)
        b.record_failure(3)
        assert b.state == bal_mod.CLOSED        # streak broken, never 3

    def test_repeated_probe_failures_accumulate_opens(self):
        """A flapping worker cycles open -> half-open -> open; every
        failed probe is one more open with a fresh full cooldown."""
        b = CircuitBreaker(threshold=1, cooldown=10)
        b.record_failure(0)                     # open #1 until 10
        for cycle in range(1, 4):
            probe_at = cycle * 10 + cycle       # past the latest cooldown
            assert b.allow(probe_at)
            assert b.state == bal_mod.HALF_OPEN
            b.on_dispatch()
            b.record_failure(probe_at)          # probe dies: reopen
            assert b.state == bal_mod.OPEN
            assert b.opens == cycle + 1
            assert not b.allow(probe_at + 9)    # full cooldown again
        assert b.opens == 4

    def test_close_after_probe_requires_full_streak_to_reopen(self):
        """A successful probe fully resets the breaker: the old failure
        streak never leaks into the next open decision."""
        b = CircuitBreaker(threshold=2, cooldown=10)
        b.record_failure(0)
        b.record_failure(1)                     # open
        b.allow(11)
        b.on_dispatch()
        b.record_success()                      # probe served: closed
        assert b.state == bal_mod.CLOSED
        b.record_failure(12)                    # one failure: still closed
        assert b.state == bal_mod.CLOSED
        b.record_failure(13)                    # full streak needed again
        assert b.state == bal_mod.OPEN


class TestSupervisorLifecycle:
    def _sup(self, **kw):
        kw.setdefault("cold_start", ColdStartModel())
        kw.setdefault("tick_cycles", 5_000)
        return Supervisor([0, 1], **kw)

    def test_starting_promotes_to_healthy(self):
        sup = self._sup(startup_ticks=1)
        assert sup.status(0) == sup_mod.STARTING
        assert not sup.dispatchable(0)
        assert sup.running(0)                   # VM executes while booting
        sup.tick(0)
        assert sup.status(0) == sup_mod.STARTING
        sup.tick(1)
        assert sup.status(0) == sup_mod.HEALTHY
        assert sup.dispatchable(0)

    def test_outcomes_degrade_and_restore(self):
        sup = self._sup(startup_ticks=0)
        sup.tick(0)
        sup.on_outcome(0, "error")
        assert sup.status(0) == sup_mod.DEGRADED
        assert sup.dispatchable(0)              # degraded still serves
        sup.on_outcome(0, "served")
        assert sup.status(0) == sup_mod.HEALTHY

    def test_restart_cost_lands_on_the_tick_clock(self):
        """ready_at reflects cold_start_cycles / tick_cycles: the crash's
        working set is paid down in simulated time, not instantly."""
        sup = self._sup(startup_ticks=0)
        sup.tick(0)
        worker = _StubWorker(0, pages=4)
        cost = sup.on_crash(worker, now=10, reason="BoundsViolation")
        # build 120k + attestation 60k + 4 pages * 30k = 300k cycles.
        assert cost == 300_000
        record = sup.records[0]
        assert record.status == sup_mod.RESTARTING
        assert record.ready_at == 10 + 60       # 300k / 5k ticks
        assert sup.summary()["restart_cycles"] == 300_000
        # Not dispatchable until the replacement has cold-started.
        assert sup.tick(50) == []
        assert not sup.dispatchable(0)
        assert sup.tick(70) == [0]              # reboot fires
        assert sup.status(0) == sup_mod.STARTING
        sup.tick(70)
        assert sup.status(0) == sup_mod.HEALTHY

    def test_scaled_rewarm_stretches_downtime(self):
        cheap = self._sup(startup_ticks=0)
        dear = self._sup(startup_ticks=0, rewarm_scale=8.0)
        cheap.on_crash(_StubWorker(0, pages=8), now=0, reason="X")
        dear.on_crash(_StubWorker(0, pages=8), now=0, reason="X")
        assert dear.records[0].ready_at > cheap.records[0].ready_at
        assert dear.total_restart_cycles > cheap.total_restart_cycles

    def test_bigger_working_set_costs_more(self):
        sup = self._sup(startup_ticks=0)
        small = sup.on_crash(_StubWorker(0, pages=2), now=0, reason="X")
        large = sup.on_crash(_StubWorker(1, pages=64), now=0, reason="X")
        assert large > small

    def test_crash_loop_marks_dead(self):
        sup = self._sup(startup_ticks=0, crash_loop_k=3,
                        crash_loop_window=60)
        worker = _StubWorker(0)
        assert sup.on_crash(worker, now=0, reason="X") is not None
        assert sup.on_crash(worker, now=5, reason="X") is not None
        assert sup.on_crash(worker, now=9, reason="X") is None
        assert sup.status(0) == sup_mod.DEAD
        assert sup.deaths == 1
        assert sup.alive_count() == 1
        # Dead workers never reboot.
        assert sup.tick(1_000) == []
        assert sup.status(0) == sup_mod.DEAD

    def test_spread_out_crashes_stay_alive(self):
        sup = self._sup(startup_ticks=0, crash_loop_k=3,
                        crash_loop_window=5)
        worker = _StubWorker(0)
        for now in (0, 10, 20, 30):
            assert sup.on_crash(worker, now=now, reason="X") is not None
        assert sup.deaths == 0

    def test_long_campaign_prunes_history_but_not_lifetime_totals(self):
        """Crash bookkeeping over many crash-loop windows: the pruned
        timestamp list stays O(k) forever while the lifetime counters
        keep the full story — a worker that crashes steadily but below
        the loop rate is never misdiagnosed as crash-looping."""
        sup = self._sup(startup_ticks=0, crash_loop_k=3,
                        crash_loop_window=50)
        worker = _StubWorker(0)
        crashes = 10                            # spans ~6 windows
        for i in range(crashes):
            assert sup.on_crash(worker, now=i * 30, reason="X") is not None
            sup.tick(i * 30 + 29)               # ticks prune too
        record = sup.records[0]
        assert sup.deaths == 0
        assert record.crashes == crashes        # lifetime total survives
        assert record.restarts == crashes
        assert len(record.crash_ticks) <= 2     # pruned to < k forever
        assert len(record.crash_reasons) == crashes

    def test_tick_pruning_forgets_stale_crashes(self):
        sup = self._sup(startup_ticks=0, crash_loop_k=3,
                        crash_loop_window=50)
        worker = _StubWorker(0)
        sup.on_crash(worker, now=0, reason="X")
        sup.on_crash(worker, now=5, reason="X")
        sup.tick(200)                           # both far outside the window
        record = sup.records[0]
        assert record.crash_ticks == []
        assert record.crashes == 2

    def test_burst_after_quiet_history_still_dies(self):
        """Pruning must not mask a real crash loop: a k-burst inside one
        window kills the worker no matter how long the quiet spread-out
        history before it."""
        sup = self._sup(startup_ticks=0, crash_loop_k=3,
                        crash_loop_window=50)
        worker = _StubWorker(0)
        for i in range(5):                      # quiet era: 1 per window
            assert sup.on_crash(worker, now=i * 100, reason="X") is not None
        assert sup.on_crash(worker, now=600, reason="X") is not None
        assert sup.on_crash(worker, now=610, reason="X") is not None
        assert sup.on_crash(worker, now=620, reason="X") is None
        assert sup.status(0) == sup_mod.DEAD
        assert sup.deaths == 1
        assert sup.records[0].crashes == 8


class TestBalancer:
    def _fleet(self, n=2, **kw):
        sup = Supervisor(range(n), cold_start=ColdStartModel(),
                         startup_ticks=0)
        sup.tick(0)                             # everyone healthy
        workers = [_StubWorker(wid) for wid in range(n)]
        return workers, sup, Balancer(workers, sup, **kw)

    def test_round_robin_alternates(self):
        workers, _, bal = self._fleet(queue_cap=1)
        for rid in range(4):
            bal.offer(Request(rid, b"x", arrival=0))
        bal.dispatch(0)
        assert [r for r, _ in workers[0].submitted] == [0]
        assert [r for r, _ in workers[1].submitted] == [1]

    def test_least_outstanding_prefers_idle(self):
        workers, _, bal = self._fleet(policy="least-outstanding",
                                      queue_cap=2)
        bal.offer(Request(0, b"x", arrival=0))
        bal.dispatch(0)
        assert workers[0].submitted             # lowest wid on a tie
        bal.offer(Request(1, b"x", arrival=0))
        bal.dispatch(0)
        assert workers[1].submitted             # 0 is busy, 1 idle

    def test_no_backdating_without_tick_cycles(self):
        workers, _, bal = self._fleet(n=1, queue_cap=2)
        bal.offer(Request(0, b"x", arrival=0))
        bal.offer(Request(1, b"x", arrival=0))
        bal.dispatch(0)                         # rid 0 in flight, 1 queued
        bal.on_outcome(0, 0, "served", 4)
        bal.dispatch(4)                         # rid 1 waited 4 ticks
        assert [r for r, _ in workers[0].submitted] == [0, 1]
        assert workers[0].waited == [0, 0]

    def test_crash_retries_then_fails(self):
        workers, sup, bal = self._fleet(max_attempts=2)
        bal.offer(Request(7, b"x", arrival=0))
        bal.dispatch(0)
        sup.on_crash(workers[0], 1, "X")
        assert bal.on_worker_crash(0, 7, 1) == []   # retried, not failed
        assert bal.pending[0].attempts == 1
        bal.dispatch(2)                         # worker 0 down -> worker 1
        assert workers[1].submitted == [(7, b"x")]
        sup.on_crash(workers[1], 3, "X")
        terminal = bal.on_worker_crash(1, 7, 3)
        assert [r.status for r in terminal] == ["failed"]
        assert terminal[0].detail == "crash; retries exhausted"

    def test_hedged_requeue_preserves_order(self):
        workers, sup, bal = self._fleet(n=1, queue_cap=3)
        for rid in range(3):
            bal.offer(Request(rid, b"x", arrival=0))
        bal.dispatch(0)                         # rid 0 in flight, 1-2 queued
        sup.on_crash(workers[0], 1, "X")
        bal.on_worker_crash(0, 0, 1)
        # Queued requests keep their relative order at the front; the
        # retried in-flight request (which consumed an attempt) follows.
        assert [r.rid for r in bal.pending] == [1, 2, 0]

    def test_deadline_expires_only_waiting_requests(self):
        workers, _, bal = self._fleet(n=1, queue_cap=2)
        old = Request(0, b"x", arrival=0)
        young = Request(1, b"x", arrival=50)
        bal.offer(old)
        bal.offer(young)
        bal.dispatch(55)                        # old in flight, young queued
        assert bal.expire(60, deadline_ticks=60) == []
        expired = bal.expire(110, deadline_ticks=60)
        assert expired == [young]
        assert young.detail == "deadline"
        # old is in flight: the worker is serving it, so it never expires.
        assert old.status is None
        assert bal.inflight[0] is old

    def test_open_breaker_blocks_dispatch(self):
        workers, _, bal = self._fleet(n=2, breaker_threshold=1,
                                      breaker_cooldown=100)
        bal.breakers[0].record_failure(0)       # worker 0 tripped
        for rid in range(2):
            bal.offer(Request(rid, b"x", arrival=0))
        bal.dispatch(1)
        assert not workers[0].submitted
        assert [r for r, _ in workers[1].submitted] == [0]


class TestSLOTracker:
    def _done(self, rid, status, arrival, completed):
        req = Request(rid, b"", arrival)
        req.status = status
        req.completed_at = completed
        return req

    def test_summary_accounting(self):
        slo = SLOTracker(tick_cycles=5_000)
        slo.on_submitted(4)
        slo.on_terminal(self._done(0, "served", 0, 0))
        slo.on_terminal(self._done(1, "served", 0, 9))
        slo.on_terminal(self._done(2, "error", 0, 1))
        slo.on_terminal(self._done(3, "failed", 0, 2))
        summary = slo.summary()
        assert summary["submitted"] == 4
        assert summary["served"] == 2
        assert summary["error_replies"] == 1
        assert summary["failed"] == 1
        assert summary["availability"] == 0.5
        # 1 tick -> 5k cycles, 10 ticks -> 50k; p99 covers the slow one.
        assert summary["latency_p50_cycles"] >= 5_000
        assert summary["latency_p99_cycles"] >= 50_000

    def test_no_served_requests_has_no_percentiles(self):
        slo = SLOTracker(tick_cycles=5_000)
        slo.on_submitted(1)
        slo.on_terminal(self._done(0, "failed", 0, 5))
        summary = slo.summary()
        assert summary["availability"] == 0.0
        assert summary["latency_p99_cycles"] is None


class TestWorkerServes:
    def test_blocking_worker_serves_one_request(self):
        from repro.harness.chaos import PROFILES
        from repro.harness.experiments import APP_CONFIG
        from repro.minic import compile_source

        profile = PROFILES["memcached"]
        mod = profile.module
        module = compile_source(mod.SOURCE, "memcached")
        worker = EnclaveWorker(0, module, "sgxbounds",
                               policy="drop-request", config=APP_CONFIG)
        payload = mod.workload(mod.SIZES["XS"])[0]
        worker.submit(42, payload)
        outcomes = []
        for _ in range(200):
            outcomes.extend(worker.run_tick(5_000).outcomes)
            if outcomes:
                break
        assert outcomes == [(42, "served")]
        assert worker.outstanding == 0
        assert worker.run_tick(5_000).outcomes == []   # served once


def _settle(worker, ticks=200):
    """Tick a worker until it is idle and parked; returns its outcomes."""
    outcomes = []
    for _ in range(ticks):
        outcomes += worker.run_tick(5_000).outcomes
        if worker.inflight is None and worker._parked():
            return outcomes
    raise AssertionError("worker never went idle")


def _app_worker(app):
    import importlib

    from repro.harness.experiments import APP_CONFIG
    from repro.minic import compile_source
    mod = importlib.import_module(f"repro.workloads.apps.{app}")
    return EnclaveWorker(0, compile_source(mod.SOURCE, app), "sgxbounds",
                         policy="drop-request", config=APP_CONFIG)


#: A frame whose opcode byte (0x12) no server app knows.
_UNKNOWN_FRAME = b"\x12\t\x00\x00key000002"


class TestWorkerTick:
    """What one ``run_tick`` does to a worker in each state."""

    def _worker(self):
        return _app_worker("memcached")

    def _state(self, worker):
        vm = worker.vm
        return (worker.inflight, worker._sent_seen, vm.enclave.cycles(),
                vm.counters.instructions, [t.state for t in vm.threads],
                list(vm.net.sent(worker.conn)))

    def test_fresh_boot_runs_main_to_its_park(self):
        worker = self._worker()
        assert not worker._parked()             # main is runnable
        before = self._state(worker)
        assert worker.run_tick(5_000).outcomes == []
        assert self._state(worker) != before

    def test_idle_parked_worker_tick_changes_nothing(self):
        worker = self._worker()
        assert _settle(worker) == []
        before = self._state(worker)
        for _ in range(3):
            assert worker.run_tick(5_000).outcomes == []
        assert self._state(worker) == before

    def test_unread_reply_is_drained_on_the_next_tick(self):
        from repro.vm import machine as vm_mod
        from repro.workloads.apps import memcached

        worker = self._worker()
        _settle(worker)
        worker.submit(7, memcached.workload(1)[0])
        vm = worker.vm
        # Run the server to its next park without draining the reply.
        while True:
            thread = next((t for t in vm.threads
                           if t.state == vm_mod.RUNNABLE), None)
            if thread is None:
                break
            vm.step(thread, vm.quantum)
        assert worker.inflight is not None
        assert worker.run_tick(5_000).outcomes == [(7, "served")]
        assert worker.inflight is None

    def test_pause_hang_and_dedup_ack_each_take_a_tick(self):
        from repro.workloads.apps import memcached

        worker = self._worker()
        _settle(worker)
        idle = self._state(worker)
        worker.pause(1)
        assert worker.run_tick(5_000).outcomes == []
        assert worker._pause_ticks == 0
        assert self._state(worker) == idle
        worker.inject_hang(1)
        cycles = worker.vm.enclave.cycles()
        assert worker.run_tick(5_000).outcomes == []
        assert worker._hang_ticks == 0
        assert worker.vm.enclave.cycles() > cycles   # the spin is charged
        worker.mutates = lambda payload: True
        worker.applied_rids.add(3)
        worker.submit(3, memcached.workload(1)[0])
        assert worker.inflight is not None
        assert worker.run_tick(5_000).outcomes == [(3, "served")]
        assert worker.inflight is None
        assert worker._parked()

    def test_swallowed_frame_settles_as_error(self):
        """An unknown opcode is consumed without a reply; once the server
        parks again with nothing left to read, no reply can come, so the
        request settles as an error in that same tick."""
        worker = self._worker()
        _settle(worker)
        worker.submit(5, _UNKNOWN_FRAME)
        assert _settle(worker) == [(5, "error")]
        assert worker.vm.net.sent(worker.conn) == []    # nothing replied
        before = self._state(worker)
        assert worker.run_tick(5_000).outcomes == []
        assert self._state(worker) == before


@pytest.mark.parametrize("app", ["memcached", "apache", "nginx",
                                 "sqlite_server"])
def test_unknown_frame_ends_in_a_reply_or_error(app):
    """Every server app, handed a frame it does not understand, ends the
    request as served or error and goes idle again: none leaves it in
    flight for the campaign's fail-safe."""
    worker = _app_worker(app)
    _settle(worker)
    worker.submit(9, _UNKNOWN_FRAME)
    outcomes = _settle(worker)
    assert outcomes in ([(9, "served")], [(9, "error")])
    assert worker.inflight is None


def _memcached_module():
    from repro.minic import compile_source
    from repro.workloads.apps import memcached
    return compile_source(memcached.SOURCE, "memcached")


def _image_shape(image):
    return (image.stats(), dict(image.meta),
            {name: len(fn.code) for name, fn in image.functions.items()})


def _serve(worker, rid, payload, ticks=200):
    """Submit one request and tick until it completes or the worker
    crashes; returns the worker's TickReport outcomes and crash."""
    worker.submit(rid, payload)
    outcomes = []
    for _ in range(ticks):
        report = worker.run_tick(5_000)
        outcomes += report.outcomes
        if report.crash is not None or worker.inflight is None:
            return outcomes, report.crash
    raise AssertionError(f"request {rid} neither completed nor crashed")


def _plain(value):
    """Objects and deques as plain data, for structural equality."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, collections.deque)):
        return [_plain(v) for v in value]
    if hasattr(value, "__dict__"):
        return {"type": type(value).__name__, **_plain(vars(value))}
    return value


def _structure(vm):
    """Everything a reset restores, as comparable data."""
    from repro.vm.machine import _KEPT_ON_RESET

    fields = {name: value for name, value in vars(vm).items()
              if name not in _KEPT_ON_RESET
              and name not in ("threads", "net")}
    threads = [(t.tid, t.state, t.sp, t.stack_base, t.stack_top,
                [(f.fn.name, f.pc, list(f.regs), f.base, f.token)
                 for f in t.frames]) for t in vm.threads]
    return {
        "enclave": vm.enclave.snapshot(),
        "scheme": _plain(vm.scheme.snapshot()),
        "fields": fields,
        "threads": threads,
        "net": vm.net.stats(),
        "fastpath_hits": {k: v for k, v in vm.fastpath_stats.items() if v},
    }


class TestWorkerReset:
    """A worker builds, loads and predecodes its VM once; every restart
    resets that VM in place to its post-load snapshot."""

    def _crash(self, worker):
        from repro.workloads.apps import memcached
        _, crash = _serve(worker, 0, memcached.cve_2011_4971_request())
        assert crash is not None, "the CVE request did not crash the worker"
        return crash

    def test_restarts_instrument_and_predecode_once(self, monkeypatch):
        from repro.core import SGXBoundsScheme
        from repro.harness.experiments import APP_CONFIG
        from repro.vm import fastpath

        instrumented, compiled = [], []
        instrument = SGXBoundsScheme.instrument
        compile_function = fastpath.compile_function

        def counting_instrument(scheme, module):
            instrumented.append(scheme)
            return instrument(scheme, module)

        def counting_compile(vm, fn, consts):
            compiled.append(fn.name)
            return compile_function(vm, fn, consts)

        monkeypatch.setattr(SGXBoundsScheme, "instrument",
                            counting_instrument)
        monkeypatch.setattr(fastpath, "compile_function", counting_compile)
        worker = EnclaveWorker(0, _memcached_module(), "sgxbounds",
                               policy="abort", config=APP_CONFIG)
        vm, scheme, program = worker.vm, worker.scheme, worker.vm.program
        for _ in range(3):
            assert self._crash(worker) == "BoundsViolation"
            assert scheme.violations == 1
            worker.boot()
            assert (worker.vm, worker.scheme) == (vm, scheme)
            assert vm.program is program
            assert scheme.violations == 0
        assert worker.incarnations == 4
        assert len(instrumented) == 1
        assert compiled, "nothing was predecoded"
        assert collections.Counter(compiled).most_common(1)[0][1] == 1

    @pytest.mark.parametrize("scheme",
                             ("native", "sgxbounds", "asan", "mpx", "baggy"))
    def test_reset_vm_equals_a_fresh_build(self, scheme):
        from repro.harness.experiments import APP_CONFIG
        from repro.workloads.apps import memcached

        module = _memcached_module()
        worker = EnclaveWorker(0, module, scheme, policy="abort",
                               config=APP_CONFIG, watchdog_budget=20_000)
        requests = memcached.workload(12, set_every=3)
        for rid, payload in enumerate(requests):
            outcomes, crash = _serve(worker, rid, payload)
            assert crash is None and outcomes == [(rid, "served")]
        worker.inject_hang(50)
        _, crash = _serve(worker, 99, requests[0])
        assert crash == "WatchdogTimeout"
        worker.boot()
        fresh = EnclaveWorker(0, module, scheme, policy="abort",
                              config=APP_CONFIG, watchdog_budget=20_000)
        assert _structure(worker.vm) == _structure(fresh.vm)
        # ... and the two go on to serve a request identically.
        for w in (worker, fresh):
            assert _serve(w, 0, requests[0]) == ([(0, "served")], None)
        assert worker.vm.net.sent(worker.conn) == \
            fresh.vm.net.sent(fresh.conn)
        assert _structure(worker.vm) == _structure(fresh.vm)


class TestImageReuse:
    """A campaign instruments its module once, and every worker keeps and
    shares that image."""

    def test_campaign_with_restarts_leaves_images_unchanged(self,
                                                            monkeypatch):
        from repro.fleet import campaign as campaign_mod

        workers = []

        class Recording(EnclaveWorker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                image = self.vm.program.module
                workers.append((self, self.vm, image, _image_shape(image)))

        monkeypatch.setattr(campaign_mod, "EnclaveWorker", Recording)
        result = run_campaign(CampaignConfig(
            policy="abort", workers=2, fault_rate=0.2, seed=77, size="XS"))
        assert result.supervisor["restarts"] > 0
        assert any(worker.incarnations > 1 for worker, _, _, _ in workers)
        for worker, vm, image, before in workers:
            assert worker.vm is vm and vm.program.module is image
            assert _image_shape(image) == before

    def test_image_follows_the_policy(self):
        from repro.core import SGXBoundsScheme
        from repro.harness.experiments import APP_CONFIG
        from repro.vm.machine import build_vm

        module = _memcached_module()
        abort = EnclaveWorker(0, module, "sgxbounds", policy="abort",
                              config=APP_CONFIG).vm.program.module
        assert abort.meta["hoisted_accesses"] == 1
        assert abort.stats()["instructions"] == 310
        # Continuing policies turn loop hoisting off, so the image is not
        # a function of the scheme name alone.
        boundless = EnclaveWorker(0, module, "sgxbounds", policy="boundless",
                                  config=APP_CONFIG).vm.program.module
        assert boundless.meta.get("hoisted_accesses", 0) == 0
        assert boundless.stats()["instructions"] == 311
        _, fresh = build_vm(module, SGXBoundsScheme(policy="boundless"))
        assert boundless.stats() == fresh.stats()

    def test_campaign_workers_share_one_image(self, monkeypatch):
        """Serving workers, replicas and audit oracles of one campaign
        load one image; after the campaign it still digests like a fresh
        build, and it dies with its module."""
        import gc
        import weakref

        from repro.fleet import campaign as campaign_mod
        from repro.harness.runner import make_scheme
        from repro.vm.machine import build_image
        from tests.test_image_goldens import built_digest

        workers = []

        class Recording(EnclaveWorker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                workers.append(self)

        monkeypatch.setattr(campaign_mod, "EnclaveWorker", Recording)
        config = CampaignConfig(
            policy="abort", workers=2, fault_rate=0.2, seed=17, size="S",
            workload_kwargs=(("set_every", 2),), crash_loop_k=2,
            crash_loop_window=200, recovery="replica",
            checkpoint_interval=10)
        result = run_campaign(config)
        assert result.supervisor["restarts"] > 0
        assert len(workers) > 2 * config.workers  # replicas and oracles
        image = workers[0].vm.program.module
        assert all(w.vm.program.module is image for w in workers)
        module = workers[0].module
        assert built_digest(image) == built_digest(
            build_image(module, make_scheme("sgxbounds", None, "abort")))
        module = weakref.ref(module)
        del workers[:], image
        gc.collect()
        assert module() is None

    def test_warm_block_cache_changes_nothing(self, monkeypatch):
        """A ``fleet_restart`` campaign reports the same whether it
        compiles every block itself or finds every one compiled."""
        from repro.vm import fastpath
        from tests.test_fastpath import _spy_compile

        # Strong, so what the first run compiles stays for the second.
        monkeypatch.setattr(fastpath, "_MAKES", {})
        compiled = _spy_compile(monkeypatch)
        config = _restart_config(1234, 0)
        cold = _campaign_artifacts(config, True)
        assert any(name.startswith("<block ") for name in compiled)
        del compiled[:]
        warm = _campaign_artifacts(config, True)
        assert compiled == []
        assert [key for key in cold if cold[key] != warm[key]] == []


#: One request per probe: ``o`` writes past a 16-byte heap object, ``s``
#: stores through a wild pointer, ``m`` maps 16 MiB blocks until memory
#: runs out.
_PROBE_SERVER = r"""
char g_req[64];
int main(int n, int threads) {
    for (int r = 0; r < n; r++) {
        int got = net_recv(0, g_req, 64);
        if (got <= 0) break;
        int op = g_req[0];
        if (op == 'o') {
            char *p = (char*)malloc(16);
            p[40] = 1;
        } else if (op == 's') {
            char *q = (char*)16;
            q[0] = 1;
        } else if (op == 'm') {
            while (1) { char *big = (char*)malloc(1 << 24); big[0] = 1; }
        }
        net_send(0, "K", 1);
    }
    return 0;
}
"""


class TestContainment:
    """``run_server`` and a fleet worker contain a fault the same way:
    both go through ``VM.step`` and ``report_crash``."""

    @staticmethod
    def _server(request, policy):
        from repro.harness.runner import run_server
        from repro.workloads.netsim import ERROR_MARKER

        result = run_server(_PROBE_SERVER, [[request]], "sgxbounds", 1,
                            policy=policy)
        if result.crashed:
            return result.crashed
        assert result.resilience["recovered_requests"] == 1
        assert result.net.sent(0) == [ERROR_MARKER]
        return "error"

    @staticmethod
    def _worker(request, policy):
        from repro.minic import compile_source

        worker = EnclaveWorker(0, compile_source(_PROBE_SERVER, "probe"),
                               "sgxbounds", policy=policy)
        outcomes, crash = _serve(worker, 1, request)
        if crash is not None:
            return crash
        assert outcomes == [(1, "error")]
        return "error"

    @pytest.mark.parametrize("request_, policy, outcome", [
        (b"o", "abort", "BoundsViolation"),
        (b"o", "drop-request", "error"),
        (b"s", "abort", "SegmentationFault"),
        (b"s", "drop-request", "error"),
        (b"m", "abort", "OOM"),
        (b"m", "drop-request", "OOM"),
    ])
    def test_server_and_worker_agree(self, request_, policy, outcome):
        assert self._server(request_, policy) == outcome
        assert self._worker(request_, policy) == outcome


class TestCampaigns:
    def test_seeded_campaigns_are_byte_identical(self):
        config = CampaignConfig(policy="abort", workers=2, fault_rate=0.2,
                                seed=77, size="XS")
        a = json.dumps(run_campaign(config).as_dict(), sort_keys=True)
        b = json.dumps(run_campaign(config).as_dict(), sort_keys=True)
        assert a == b

    def test_different_seeds_differ(self):
        base = CampaignConfig(policy="abort", workers=2, fault_rate=0.2,
                              seed=77, size="XS")
        other = CampaignConfig(policy="abort", workers=2, fault_rate=0.2,
                               seed=78, size="XS")
        a = json.dumps(run_campaign(base).as_dict(), sort_keys=True)
        b = json.dumps(run_campaign(other).as_dict(), sort_keys=True)
        assert a != b

    def test_watchdog_kills_hung_worker(self):
        config = CampaignConfig(policy="drop-request", workers=2,
                                fault_rate=0.0, seed=5, size="XS",
                                watchdog_budget=20_000,
                                hang=(3, 0, 1_000_000))
        result = run_campaign(config)
        assert result.watchdog_kills >= 1
        reasons = result.supervisor["per_worker"][0]["crash_reasons"]
        assert "WatchdogTimeout" in reasons
        # The fleet route[s] around the hang: traffic still gets served.
        assert result.slo["served"] > 0

    def test_abort_pays_restarts_drop_request_does_not(self):
        kw = dict(workers=2, fault_rate=0.2, seed=1234, size="XS")
        abort = run_campaign(CampaignConfig(policy="abort", **kw))
        drop = run_campaign(CampaignConfig(policy="drop-request", **kw))
        assert abort.crashes > 0
        assert abort.supervisor["restart_cycles"] > 0
        assert drop.crashes == 0
        assert drop.supervisor["restart_cycles"] == 0
        assert drop.slo["availability"] > abort.slo["availability"]

    def test_restart_cost_scales_with_rewarm(self):
        kw = dict(policy="abort", workers=2, fault_rate=0.2, seed=1234,
                  size="XS")
        cheap = run_campaign(CampaignConfig(rewarm_scale=1.0, **kw))
        dear = run_campaign(CampaignConfig(rewarm_scale=8.0, **kw))
        assert dear.supervisor["restart_cycles"] \
            > cheap.supervisor["restart_cycles"]
        assert dear.slo["availability"] < cheap.slo["availability"]

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet app"):
            run_campaign(CampaignConfig(app="postgres"))


def _restart_config(seed, k):
    """One ``fleet_restart`` benchmark campaign."""
    from repro.faults import derive
    return CampaignConfig(app="memcached", scheme="sgxbounds",
                          policy="abort", workers=4, fault_rate=0.2,
                          seed=derive(seed, f"bench:{k}"), size="L")


def _campaign_artifacts(config, observed):
    """Everything a campaign reports, each as canonical JSON: its
    ``as_dict()`` and, ``observed``, the forensics and obs summaries, the
    flight-recorder JSONL, both traces and the metrics."""
    from repro.forensics import Forensics
    from repro.obs import Observability
    from repro.telemetry import Telemetry

    handles = {}
    if observed:
        handles = {"telemetry": Telemetry(), "forensics": Forensics(),
                   "obs": Observability(seed=config.seed)}
    result = run_campaign(config, **handles)
    out = {"result": result.as_dict()}
    if observed:
        out["forensics"] = handles["forensics"].summary()
        out["log"] = handles["forensics"].recorder.to_jsonl()
        out["obs"] = handles["obs"].summary()
        out["obs_trace"] = handles["obs"].chrome_trace(
            tick_cycles=config.tick_cycles)
        out["telemetry"] = handles["telemetry"].chrome_trace()
        out["metrics"] = handles["telemetry"].metrics_snapshot()
    return {key: json.dumps(value, sort_keys=True, default=repr)
            for key, value in out.items()}


#: ``(id, config, observed)``: every scenario feature that can hold a
#: request in the system (scripted hangs, naive and protected bursts, a
#: poison storm, snapshot recovery, a hang after the arrivals end, and
#: seeds whose traffic carries frames the server swallows), with and
#: without the per-tick observers attached.
_FUZZED = dict(workers=2, fault_rate=0.2, seed=1, size="XS")
_DRAIN_CASES = [
    ("abort", CampaignConfig(policy="abort", workers=2, fault_rate=0.2,
                             seed=77, size="XS"), False),
    ("drop_request", CampaignConfig(policy="drop-request", **_FUZZED), True),
    ("hang", CampaignConfig(policy="drop-request", watchdog_budget=20_000,
                            hang=(3, 0, 1_000_000), **_FUZZED), True),
    ("naive_burst", CampaignConfig(
        policy="drop-request", arrivals_per_tick=3, deadline_ticks=20,
        overload="naive", burst=(10, 30, 6), max_ticks=2_000, **_FUZZED),
     True),
    ("protected_burst", CampaignConfig(
        policy="drop-request", arrivals_per_tick=3, deadline_ticks=20,
        overload="protected", burst=(10, 30, 6), max_ticks=2_000,
        **_FUZZED), True),
    ("storm", CampaignConfig(policy="drop-request", storm=(5, 40, 0.8),
                             **_FUZZED), True),
    ("snapshot", CampaignConfig(
        policy="abort", workers=2, fault_rate=0.2, seed=17, size="S",
        workload_kwargs=(("set_every", 2),), crash_loop_k=2,
        crash_loop_window=200, recovery="snapshot",
        checkpoint_interval=10), True),
    ("drains", CampaignConfig(policy="abort", workers=2, fault_rate=0.0,
                              seed=3, size="XS"), True),
    ("restart_1234", _restart_config(1234, 2), False),
    ("restart_4321", _restart_config(4321, 1), True),
    # A hang scripted after the arrivals end (tick 750), while requests
    # are still in flight: the watchdog kills it at tick 800.
    ("hang_in_tail", replace(_restart_config(1234, 3),
                             hang=(760, 1, 40)), True),
]


class TestDrain:
    """Every campaign drains by itself: it ends before the ``max_ticks``
    fail-safe, and every submitted request reached exactly one terminal
    state."""

    @pytest.mark.parametrize("config,observed",
                             [c[1:] for c in _DRAIN_CASES],
                             ids=[c[0] for c in _DRAIN_CASES])
    def test_campaign_drains(self, config, observed):
        result = json.loads(_campaign_artifacts(config, observed)["result"])
        slo = result["slo"]
        assert result["ticks"] < config.max_ticks
        assert slo["submitted"] == (
            slo["served"] + slo["error_replies"] + slo["failed"]
            + slo.get("overload", {}).get("rejected", 0))
