"""Overload protection tests: admission gates, brownout shedding, retry
budgets, priority threading, rejection accounting, and the
zero-cost-when-off guarantee."""

import pytest

from repro.fleet import Balancer, CampaignConfig, Request, Supervisor, \
    run_campaign
from repro.fleet.slo import SLOTracker
from repro.forensics import Forensics
from repro.obs.events import hub
from repro.overload import (
    DEFAULT_MIX,
    PRIORITIES,
    AdmissionController,
    BrownoutController,
    ClientSwarm,
    RetryBudget,
    ServiceEstimator,
    build_controls,
    priority_pattern,
)
from repro.overload.admission import REJECT_DEADLINE, REJECT_SHED
from repro.sgx import ColdStartModel
from repro.workloads.netsim import ERROR_MARKER, REJECTED_MARKER, NetworkSim


class TestServiceEstimator:
    def test_prior_answers_before_first_sample(self):
        est = ServiceEstimator(prior_ticks=3.0)
        assert est.estimate() == 3.0
        assert est.samples == 0

    def test_ewma_moves_toward_samples(self):
        est = ServiceEstimator(prior_ticks=2.0, alpha=0.25)
        est.observe(10)
        assert est.estimate() == 2.0 + 0.25 * (10 - 2.0)
        for _ in range(50):
            est.observe(10)
        assert est.estimate() == pytest.approx(10.0, abs=0.01)

    def test_samples_clamped_to_one_tick(self):
        est = ServiceEstimator(prior_ticks=1.0, alpha=1.0)
        est.observe(0)                          # sub-tick serve still costs 1
        assert est.estimate() == 1.0


class TestAdmissionController:
    def _gate(self, deadline=20, **kw):
        return AdmissionController("sgxbounds", deadline, **kw)

    def _req(self, rid=0, priority="normal", arrival=0):
        return Request(rid, b"x", arrival, priority=priority)

    def test_disabled_gate_admits_everything(self):
        gate = self._gate(enabled=False)
        # A queue this deep would reject at any deadline when enabled.
        assert gate.admit_offer(self._req(), 10_000, 1, now=0) is None
        assert gate.admit_assign(self._req(), 10_000, now=0) is None

    def test_offer_gate_rejects_hopeless_waits(self):
        gate = self._gate(deadline=10)          # EWMA prior = 2 ticks
        # 4 in system / 2 workers * 2 ticks = 4 <= 10: admitted.
        assert gate.admit_offer(self._req(), 4, 2, now=0) is None
        assert gate.admitted == 1
        # 12 in system / 2 workers * 2 = 12 > 10: rejected.
        assert gate.admit_offer(self._req(), 12, 2, now=0) \
            == REJECT_DEADLINE

    def test_class_headroom_rejects_sheddable_first(self):
        gate = self._gate(deadline=10)
        # est wait = 8/2 * 2 = 8: inside critical's full deadline (10),
        # outside sheddable's half deadline (5) and normal's 7.5.
        assert gate.admit_offer(self._req(priority="critical"),
                                8, 2, now=0) is None
        assert gate.admit_offer(self._req(priority="normal"),
                                8, 2, now=0) == REJECT_DEADLINE
        assert gate.admit_offer(self._req(priority="sheddable"),
                                8, 2, now=0) == REJECT_DEADLINE

    def test_assign_gate_charges_time_already_waited(self):
        gate = self._gate(deadline=10)
        fresh = self._req(priority="critical", arrival=8)
        stale = self._req(priority="critical", arrival=0)
        # 3 outstanding * 2 ticks = 6; fresh has 10 left, stale only 2.
        assert gate.admit_assign(fresh, 3, now=8) is None
        assert gate.admit_assign(stale, 3, now=8) == REJECT_DEADLINE

    def test_brownout_shed_precedes_deadline_math(self):
        brown = BrownoutController(queue_window=1, queue_depth=4)
        gate = self._gate(brownout=brown)
        gate.observe_tick(0, queue_depth=100, epc_faults_total=0)
        assert brown.level == 1
        # An empty queue would admit anything — but sheddable is out.
        assert gate.admit_offer(self._req(priority="sheddable"),
                                0, 2, now=0) == REJECT_SHED
        assert gate.admit_offer(self._req(priority="critical"),
                                0, 2, now=0) is None

    def test_reject_accounting_by_reason_and_class(self):
        gate = self._gate()
        gate.on_reject(self._req(priority="sheddable"), REJECT_SHED, 5)
        gate.on_reject(self._req(priority="normal"), REJECT_DEADLINE, 6)
        gate.on_reject(self._req(priority="normal"), REJECT_DEADLINE, 7)
        summary = gate.summary()
        assert summary["rejected"] == {REJECT_DEADLINE: 2, REJECT_SHED: 1}
        assert summary["rejected_by_class"] == {"normal": 2, "sheddable": 1}

    def test_served_samples_feed_the_estimator(self):
        gate = self._gate()
        before = gate.estimator.estimate()
        gate.on_served(40)
        assert gate.estimator.estimate() > before
        assert gate.summary()["service_samples"] == 1


class TestBrownoutController:
    def _pressure(self, brown, ticks, depth=100, faults_per_tick=0):
        total = 0
        for now in range(ticks):
            total += faults_per_tick
            brown.observe(now, depth, total)

    def test_queue_pressure_sheds_only_sheddable(self):
        brown = BrownoutController(queue_window=2, queue_depth=10)
        self._pressure(brown, 4, depth=50)
        assert brown.level == 1
        assert brown.sheds("sheddable")
        assert not brown.sheds("normal")
        assert not brown.sheds("critical")

    def test_combined_pressure_escalates_to_normal(self):
        brown = BrownoutController(queue_window=2, queue_depth=10,
                                   epc_window=2, epc_faults_per_tick=10)
        self._pressure(brown, 6, depth=50, faults_per_tick=1000)
        assert brown.level == 2
        assert brown.sheds("normal")
        assert not brown.sheds("critical")      # never, at any level

    def test_hysteresis_recovers_the_level(self):
        brown = BrownoutController(queue_window=2, queue_depth=10)
        self._pressure(brown, 4, depth=50)
        assert brown.level == 1
        # Depth falls below half the threshold: detector re-arms.
        for now in range(10, 20):
            brown.observe(now, 0, 0)
        assert brown.level == 0
        assert not brown.sheds("sheddable")
        assert brown.max_level == 1
        assert brown.transitions >= 2           # up and back down


class TestRetryBudget:
    def test_burst_then_denial(self):
        budget = RetryBudget(refill_per_success=0.1, burst=2.0)
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()           # bucket empty
        assert budget.spent == 2
        assert budget.denied == 1

    def test_successes_refill_fractionally(self):
        budget = RetryBudget(refill_per_success=0.5, burst=2.0)
        budget.try_spend()
        budget.try_spend()
        budget.on_success()                     # 0.5 tokens: still short
        assert not budget.try_spend()
        budget.on_success()                     # 1.0 token
        assert budget.try_spend()

    def test_refill_caps_at_burst(self):
        budget = RetryBudget(refill_per_success=5.0, burst=2.0)
        for _ in range(10):
            budget.on_success()
        assert budget.tokens == 2.0


class TestClientSwarm:
    def _done(self, status, rid=1, priority="normal", retries=0,
              arrival=0):
        req = Request(rid, b"p", arrival, priority=priority,
                      client_retries=retries)
        req.status = status
        return req

    def test_served_refills_and_never_retries(self):
        swarm = ClientSwarm(budgeted=True)
        assert swarm.on_terminal(self._done("served"), now=5) is None
        assert swarm.successes == 1

    @pytest.mark.parametrize("status", ["error", "rejected"])
    def test_only_failed_is_retryable(self, status):
        swarm = ClientSwarm(budgeted=False)
        assert swarm.on_terminal(self._done(status), now=5) is None
        assert swarm.retries == 0

    def test_failed_retry_keeps_rid_and_first_arrival(self):
        swarm = ClientSwarm(budgeted=False)
        first = self._done("failed", rid=9, arrival=3)
        retry = swarm.on_terminal(first, now=30)
        assert retry is not None
        assert retry.rid == 9
        assert retry.arrival == 30              # fresh patience window
        assert retry.first_arrival == 3         # end-to-end deadline clock
        assert retry.client_retries == 1
        assert retry.priority == first.priority

    def test_retry_ceiling_gives_up(self):
        swarm = ClientSwarm(budgeted=False, max_retries=2)
        assert swarm.on_terminal(self._done("failed", retries=2),
                                 now=5) is None
        assert swarm.gave_up == 1

    def test_budget_denial_gives_up(self):
        swarm = ClientSwarm(budgeted=True, burst=1.0, max_retries=10)
        assert swarm.on_terminal(self._done("failed"), now=1) is not None
        assert swarm.on_terminal(self._done("failed"), now=2) is None
        assert swarm.gave_up == 1
        assert swarm.summary()["budgets"]["normal"]["denied"] == 1

    def test_unbudgeted_swarm_has_no_bucket(self):
        swarm = ClientSwarm(budgeted=False, max_retries=10)
        for now in range(8):                    # far past any burst
            assert swarm.on_terminal(self._done("failed"),
                                     now=now) is not None
        assert "budgets" not in swarm.summary()


class TestPriorityPattern:
    def test_default_mix_proportions(self):
        pattern = priority_pattern()
        assert len(pattern) == sum(w for _, w in DEFAULT_MIX)
        assert pattern.count("critical") == 2
        assert pattern.count("normal") == 6
        assert pattern.count("sheddable") == 2

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown priority class"):
            priority_pattern((("platinum", 1),))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty pattern"):
            priority_pattern((("critical", 0),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative weight"):
            priority_pattern((("critical", -1),))


class TestBuildControls:
    def test_off_constructs_nothing(self):
        assert build_controls("off", "sgxbounds", 20) is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown overload mode"):
            build_controls("grayout", "sgxbounds", 20)

    def test_naive_is_accounting_only(self):
        controls = build_controls("naive", "sgxbounds", 20)
        assert not controls.admission.enabled
        assert controls.admission.brownout is None
        assert not controls.swarm.budgeted

    def test_protected_enables_the_full_stack(self):
        controls = build_controls("protected", "sgxbounds", 20)
        assert controls.admission.enabled
        assert controls.admission.brownout is not None
        assert controls.swarm.budgeted

    def test_disabled_recorder_keeps_no_admission_rejects(self):
        enabled = Forensics()
        for forensics in (None, enabled):
            controls = build_controls("protected", "sgxbounds", 20,
                                      events=hub(forensics=forensics))
            controls.admission.on_reject(Request(0, b"x", 0),
                                         REJECT_DEADLINE, now=3)
        assert hub(forensics=None) is None
        assert [r.kind for r in enabled.recorder.events()] \
            == ["admission_reject"]

    def test_priority_assignment_cycles_the_pattern(self):
        controls = build_controls("protected", "sgxbounds", 20,
                                  priority_mix=(("critical", 1),
                                                ("sheddable", 2)))
        assert [controls.priority(rid) for rid in range(4)] \
            == ["critical", "sheddable", "sheddable", "critical"]


class TestNetsimRejection:
    def test_rejected_counter_is_not_an_error(self):
        net = NetworkSim()
        conn = net.connect()
        net.push(conn, b"GET a")
        net.reject_request(conn)
        stats = net.stats(per_conn=True)
        assert stats["rejected"] == 1
        assert stats["errors"] == 0
        assert stats["error_replies"] == 0
        assert stats["per_conn"][conn]["rejected"] == 1
        assert net.sent(conn) == [REJECTED_MARKER]
        assert REJECTED_MARKER != ERROR_MARKER


class _RejectingGate:
    """Admission stub: rejects every Nth offer, admits everything else."""

    def __init__(self, every=2):
        self.enabled = True
        self.every = every
        self.offers = 0
        self.rejects = []

    def admit_offer(self, request, in_system, alive, now):
        self.offers += 1
        return REJECT_DEADLINE if self.offers % self.every == 0 else None

    def admit_assign(self, request, outstanding, now):
        return None

    def on_reject(self, request, reason, now):
        self.rejects.append((request.rid, reason))

    def on_served(self, service_ticks):
        pass


class _Net:
    def __init__(self):
        self.rejections = 0

    def reject_request(self, conn):
        self.rejections += 1


class _VM:
    def __init__(self):
        self.net = _Net()


class _Worker:
    def __init__(self, wid):
        self.wid = wid
        self.vm = _VM()
        self.conn = 0
        self.submitted = []

    def submit(self, rid, payload, waited_cycles=0):
        self.submitted.append((rid, waited_cycles))


class TestBalancerRejection:
    def _fleet(self, gate, n=2):
        sup = Supervisor(range(n), cold_start=ColdStartModel(),
                         startup_ticks=0)
        sup.tick(0)
        workers = [_Worker(wid) for wid in range(n)]
        return workers, Balancer(workers, sup, admission=gate,
                                 tick_cycles=1_000)

    def test_rejected_offer_goes_terminal_at_the_front_door(self):
        gate = _RejectingGate(every=2)
        workers, bal = self._fleet(gate)
        first = bal.offer(Request(0, b"x", 0, priority="normal"), now=0)
        second = bal.offer(Request(1, b"x", 0, priority="normal"), now=0)
        assert first is None                    # queued
        assert second is not None               # turned away
        assert second.status == "rejected"
        assert second.detail == REJECT_DEADLINE
        assert second.rid == 1
        assert gate.rejects == [(1, REJECT_DEADLINE)]
        # The RJCT frame surfaced on a live worker's client connection,
        # and the rejected request never reached a worker queue.
        assert workers[0].vm.net.rejections == 1
        assert bal.in_system() == 1

    def test_priority_bands_drain_critical_first(self):
        gate = _RejectingGate(every=10**9)      # admit everything
        workers, bal = self._fleet(gate, n=1)
        bal.offer(Request(0, b"x", 0, priority="sheddable"), now=0)
        bal.offer(Request(1, b"x", 0, priority="critical"), now=0)
        bal.offer(Request(2, b"x", 0, priority="normal"), now=0)
        bal.dispatch(0)
        # One worker, queue_cap 2: the critical request claims the
        # in-flight slot even though it arrived second.
        assert workers[0].submitted[0][0] == 1

    def test_waited_cycles_reported_at_dispatch(self):
        gate = _RejectingGate(every=10**9)
        workers, bal = self._fleet(gate, n=1)
        bal.offer(Request(0, b"x", 0, priority="normal"), now=0)
        bal.offer(Request(1, b"x", 0, priority="normal"), now=0)
        bal.dispatch(0)                         # rid 0 in flight, 1 queued
        assert workers[0].submitted == [(0, 0)]
        bal.on_outcome(0, 0, "served", 3)
        bal.dispatch(3)                         # rid 1 waited 3 ticks
        assert workers[0].submitted[1] == (1, 3_000)


class TestSLOOverloadAccounting:
    def _done(self, rid, status, arrival, completed, priority="normal",
              first_arrival=None):
        req = Request(rid, b"", arrival, priority=priority,
                      first_arrival=first_arrival)
        req.status = status
        req.completed_at = completed
        return req

    def _slo(self):
        return SLOTracker(tick_cycles=5_000, deadline_ticks=10,
                          classes=PRIORITIES, timeline_window=5)

    def test_timeliness_is_end_to_end_from_first_attempt(self):
        slo = self._slo()
        slo.on_submitted(2, priority="normal")
        slo.on_terminal(self._done(0, "served", arrival=0, completed=8))
        # The retry's own attempt was quick, but the rid spent 30 ticks
        # end to end: served, yet not timely.
        slo.on_terminal(self._done(1, "served", arrival=28, completed=32,
                                   first_arrival=2))
        overload = slo.summary()["overload"]
        assert slo.served == 2
        assert overload["timely"] == 1

    def test_first_terminal_wins_per_rid(self):
        slo = self._slo()
        slo.on_submitted(1, priority="critical")
        slo.on_terminal(self._done(7, "served", 0, 4, priority="critical"))
        # A zombie duplicate of the same rid completes later: ignored.
        slo.on_terminal(self._done(7, "failed", 0, 40,
                                   priority="critical"))
        assert slo.served == 1
        assert slo.failed == 0
        assert slo.by_class["critical"]["failed"] == 0

    def test_rejected_is_its_own_bucket(self):
        slo = self._slo()
        slo.on_submitted(1, priority="sheddable")
        slo.on_terminal(self._done(3, "rejected", 0, 0,
                                   priority="sheddable"))
        summary = slo.summary()
        assert summary["overload"]["rejected"] == 1
        assert summary["error_replies"] == 0
        assert summary["failed"] == 0
        assert summary["overload"]["by_class"]["sheddable"]["rejected"] == 1

    def test_timeline_rolls_fixed_windows(self):
        slo = self._slo()
        serve_ticks = (0, 1, 6, 7, 8)
        rid = 0
        for tick in range(9):
            while rid < len(serve_ticks) and serve_ticks[rid] == tick:
                slo.on_submitted(1, priority="normal")
                slo.on_terminal(self._done(rid, "served", tick, tick))
                rid += 1
            slo.on_tick(tick)
        assert slo.goodput_timeline == [2]      # window [0, 5) closed
        # The partial second window is surfaced in the summary.
        assert slo.summary()["overload"]["goodput_timeline"] == [2, 3]

    def test_plain_summary_has_no_overload_block(self):
        slo = SLOTracker(tick_cycles=5_000)
        slo.on_submitted(1)
        assert "overload" not in slo.summary()


class TestOverloadCampaigns:
    def _config(self, **kw):
        kw.setdefault("app", "memcached")
        kw.setdefault("scheme", "sgxbounds")
        kw.setdefault("policy", "drop-request")
        kw.setdefault("workers", 3)
        kw.setdefault("fault_rate", 0.1)
        kw.setdefault("seed", 1234)
        kw.setdefault("size", "XS")
        kw.setdefault("deadline_ticks", 20)
        return CampaignConfig(**kw)

    def test_off_is_zero_cost(self):
        r = run_campaign(self._config(overload="off"))
        out = r.as_dict()
        assert "overload" not in out
        assert "overload" not in out["slo"]
        assert "overload" not in out["config"]

    def test_overload_campaigns_are_deterministic(self):
        cfg = self._config(overload="protected", arrivals_per_tick=8)
        assert run_campaign(cfg).as_dict() == run_campaign(cfg).as_dict()

    def test_terminal_accounting_balances(self):
        # Every submitted rid reaches exactly one terminal state, in
        # both modes — zombies and retry chains never double-count.
        for mode in ("naive", "protected"):
            r = run_campaign(self._config(overload=mode,
                                          arrivals_per_tick=8))
            slo = r.slo
            assert slo["submitted"] == (
                slo["served"] + slo["error_replies"] + slo["failed"]
                + slo["overload"]["rejected"]), (mode, slo)

    def test_priority_mix_threads_through_to_classes(self):
        r = run_campaign(self._config(overload="naive",
                                      arrivals_per_tick=2))
        by_class = r.slo["overload"]["by_class"]
        # XS = 50 requests under the default 2/6/2 mix.
        assert by_class["critical"]["submitted"] == 10
        assert by_class["normal"]["submitted"] == 30
        assert by_class["sheddable"]["submitted"] == 10

    def test_protected_gate_rejects_under_pressure(self):
        r = run_campaign(self._config(overload="protected",
                                      arrivals_per_tick=8))
        assert r.slo["overload"]["rejected"] > 0
        assert r.overload["admission"]["enabled"]
        naive = run_campaign(self._config(overload="naive",
                                          arrivals_per_tick=8))
        assert naive.slo["overload"]["rejected"] == 0
