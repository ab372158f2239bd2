"""Request-observatory tests: causal trace propagation, exact tick
decomposition, burn-rate fire/clear semantics, exposition rendering,
empty-histogram guards, and the zero-cost-when-off guarantee."""

import json

import pytest

from repro.fleet.campaign import CampaignConfig, run_campaign
from repro.fleet.slo import SLOTracker
from repro.obs import (
    DEFAULT_RULES,
    AttributionLedger,
    BurnRateEngine,
    BurnRateRule,
    COMPONENTS,
    Observability,
    decompose_trace,
    render_exposition,
    scheme_tax,
)
from repro.obs.trace import FleetTracer, mint_trace_id
from repro.telemetry.tracer import SpanTracer
from repro.workloads.netsim import NetworkSim

from tests.util import eager_blocks, unfused  # noqa: F401  (fixtures)


def _campaign(obs=None, **overrides):
    defaults = dict(app="memcached", scheme="sgxbounds", workers=2,
                    fault_rate=0.0, seed=7, size="XS")
    defaults.update(overrides)
    return run_campaign(CampaignConfig(**defaults), obs=obs)


class TestTraceIdentity:
    def test_trace_ids_deterministic_and_distinct(self):
        assert mint_trace_id(1234, 0) == mint_trace_id(1234, 0)
        assert mint_trace_id(1234, 0) != mint_trace_id(1234, 1)
        assert mint_trace_id(1234, 0) != mint_trace_id(99, 0)
        assert len(mint_trace_id(0, 0)) == 16

    def test_one_root_per_rid_client_retry_branches(self):
        tracer = FleetTracer(seed=1)
        tid = tracer.submit(5, 0)
        assert tracer.submit(5, 3) == tid       # same root, new branch
        trace = tracer.get(5)
        kinds = [h.kind for h in trace.hops]
        assert kinds.count("client_submit") == 1
        assert kinds.count("client_retry") == 1

    def test_first_terminal_wins_later_become_zombies(self):
        tracer = FleetTracer(seed=1)
        tracer.submit(9, 0)
        tracer.terminal(9, 4, "served", wid=0)
        tracer.terminal(9, 9, "served", wid=1)  # hedged duplicate
        trace = tracer.get(9)
        assert trace.status == "served"
        assert trace.terminal_tick == 4
        assert [h.kind for h in trace.hops].count("reply") == 1
        assert [h.kind for h in trace.hops].count("zombie_done") == 1

    def test_max_traces_bound_counts_drops(self):
        tracer = FleetTracer(seed=1, max_traces=2)
        assert tracer.submit(0, 0) is not None
        assert tracer.submit(1, 0) is not None
        assert tracer.submit(2, 0) is None
        tracer.hop(2, "dispatch", 1, wid=0)
        assert tracer.dropped_traces == 1
        assert tracer.dropped_hops == 1


class TestNetsimPropagation:
    def test_trace_rides_the_frame(self):
        net = NetworkSim()
        conn = net.connect()
        net.push(conn, b"GET a\n", trace="feedface00000001")
        assert net.recv(conn, 64) is not None
        assert net.last_recv_trace == "feedface00000001"

    def test_trace_survives_maxlen_splits(self):
        net = NetworkSim()
        conn = net.connect()
        net.push(conn, b"A" * 10, trace="cafe")
        for _ in range(5):
            assert net.recv(conn, 2) is not None
            assert net.last_recv_trace == "cafe"

    def test_trace_survives_per_mid_retry(self):
        net = NetworkSim(retry_limit=3)
        conn = net.connect()
        net.push(conn, b"GET a\n", trace="beef")
        assert net.recv(conn, 64) is not None
        assert net.fail_request(conn, b"GET a\n")   # re-queue same mid
        assert net.recv(conn, 64) is not None
        assert net.last_recv_trace == "beef"

    def test_trace_dropped_when_attempts_exhausted(self):
        net = NetworkSim(retry_limit=0)
        conn = net.connect()
        net.push(conn, b"GET a\n", trace="dead")
        assert net.recv(conn, 64) is not None
        assert not net.fail_request(conn, b"GET a\n")  # exhausted
        assert not net._traces


class TestFleetPropagation:
    def test_campaign_traces_cover_every_request(self):
        obs = Observability(seed=7)
        result = _campaign(obs)
        slo = result.slo
        summary = obs.tracer.summary()
        assert summary["traces"] == slo["submitted"]
        assert summary["terminal"] == summary["traces"]
        assert summary["dropped_traces"] == 0

    def test_crash_requeue_keeps_one_root(self):
        obs = Observability(seed=1234)
        result = _campaign(obs, policy="abort", fault_rate=0.2, seed=1234)
        assert result.crashes > 0
        requeued = [t for t in obs.tracer.traces.values()
                    if any(h.kind == "requeue" for h in t.hops)]
        assert requeued, "abort campaign should hedge crashed requests"
        for trace in requeued:
            kinds = [h.kind for h in trace.hops]
            assert kinds.count("client_submit") == 1
            assert kinds.count("reply") <= 1

    def test_failover_promotion_noted(self):
        # The recovery experiment's loose-interval replica cell: crash
        # loops run a worker to death, so a standby is promoted.
        obs = Observability(seed=77)
        result = _campaign(obs, policy="abort", fault_rate=0.25, seed=77,
                           workers=2, workload_kwargs=(("set_every", 2),),
                           crash_loop_k=2, crash_loop_window=200,
                           recovery="replica", checkpoint_interval=40)
        assert result.recovery["replica"]["promotions"] > 0
        assert any(kind == "failover_promoted"
                   for _, kind, _ in obs.tracer.notes)


class TestDecomposition:
    def test_components_sum_exactly_to_end_to_end(self):
        obs = Observability(seed=1234)
        _campaign(obs, policy="abort", fault_rate=0.2, seed=1234, size="S")
        assert obs.attribution.rows, "campaign should settle requests"
        for row in obs.attribution.rows:
            assert sum(row[c] for c in COMPONENTS) == row["total_ticks"]

    def test_open_trace_decomposes_to_none(self):
        tracer = FleetTracer(seed=1)
        tracer.submit(0, 0)
        assert decompose_trace(tracer.get(0)) is None

    def test_same_tick_service_is_one_enclave_tick(self):
        tracer = FleetTracer(seed=1)
        tracer.submit(0, 3)
        tracer.hop(0, "dispatch", 3, wid=0)
        tracer.terminal(0, 3, "served", wid=0)
        row = decompose_trace(tracer.get(0))
        assert row["total_ticks"] == 1
        assert row["enclave_compute"] == 1
        assert row["queue_wait"] == 0

    def test_retry_amplification_charged_to_wasted_service(self):
        tracer = FleetTracer(seed=1)
        tracer.submit(0, 0)
        tracer.hop(0, "dispatch", 2, wid=0)       # 2 ticks queue wait
        tracer.hop(0, "requeue", 5, wid=0)        # 3 ticks wasted service
        tracer.hop(0, "dispatch", 6, wid=1)       # 1 tick re-queue wait
        tracer.terminal(0, 8, "served", wid=1)    # 2+1 ticks real service
        row = decompose_trace(tracer.get(0))
        assert row["queue_wait"] == 2
        assert row["retry_amplification"] == 4
        assert row["enclave_compute"] == 3
        assert row["total_ticks"] == 9
        assert row["attempts"] == 2


class TestEmptyGuards:
    def test_empty_slo_summary_is_json_safe(self):
        summary = SLOTracker(tick_cycles=5_000).summary()
        assert summary["latency_p50_cycles"] is None
        assert summary["latency_mean_cycles"] is None
        json.dumps(summary, allow_nan=False)

    def test_empty_rollup_is_none_not_nan(self):
        rollup = AttributionLedger().rollup()
        assert rollup["served"] == 0
        assert rollup["mean_total_ticks"] is None
        assert rollup["mean_components"] is None
        assert rollup["mean_counters"] is None
        json.dumps(rollup, allow_nan=False)

    def test_scheme_tax_none_when_either_side_empty(self):
        empty = AttributionLedger().rollup()
        assert scheme_tax(empty, empty) is None

    def test_exposition_skips_none_slo_fields(self):
        text = render_exposition(slo=SLOTracker(tick_cycles=5_000).summary())
        assert "latency_p50" not in text
        assert "repro_slo_served 0" in text


class TestBurnRate:
    def _engine(self):
        return BurnRateEngine(rules=(
            BurnRateRule("fast", slo_target=0.9, long_window=4,
                         short_window=2, threshold=2.0),))

    def test_fires_only_when_both_windows_burn(self):
        engine = self._engine()
        good, bad = 0, 0
        for tick in range(4):                    # healthy warmup
            good += 10
            engine.observe(tick, good, bad)
        assert engine.fired == 0
        for tick in range(4, 8):                 # sustained failures
            bad += 10
            engine.observe(tick, good, bad)
        assert engine.fired == 1
        assert engine.active_rules() == ["fast"]

    def test_clears_with_hysteresis(self):
        engine = self._engine()
        good, bad = 0, 0
        for tick in range(6):
            bad += 10
            engine.observe(tick, good, bad)
        assert engine.active_rules() == ["fast"]
        for tick in range(6, 16):                # full recovery
            good += 10
            engine.observe(tick, good, bad)
        assert engine.cleared == 1
        assert engine.active_rules() == []
        events = [a["event"] for a in engine.alerts]
        assert events == ["fire", "clear"]

    def test_short_spike_without_sustained_burn_does_not_page(self):
        # One unlucky tick blows the short window way past threshold,
        # but the long window stays under it — no page.
        engine = BurnRateEngine(rules=(
            BurnRateRule("fast", slo_target=0.9, long_window=8,
                         short_window=1, threshold=2.0),))
        good, bad = 0, 0
        for tick in range(12):
            good += 10
            engine.observe(tick, good, bad)
        bad += 10
        engine.observe(12, good, bad)
        assert engine.fired == 0

    def test_windows_validated(self):
        with pytest.raises(ValueError):
            BurnRateRule("bad", short_window=10, long_window=5)
        with pytest.raises(ValueError):
            BurnRateRule("bad", slo_target=1.5)

    def test_naive_overload_fires_protected_silent(self):
        fired = {}
        for mode in ("naive", "protected"):
            obs = Observability(seed=1234)
            _campaign(obs, workers=3, fault_rate=0.1, seed=1234,
                      size="S", arrivals_per_tick=8, deadline_ticks=20,
                      overload=mode, max_ticks=2_000)
            fired[mode] = obs.burn.fired
        assert fired["naive"] > 0
        assert fired["protected"] == 0


class TestExposition:
    def test_render_is_sorted_and_typed(self):
        obs = Observability(seed=7)
        _campaign(obs)
        text = render_exposition(burn=obs.burn, tracer=obs.tracer)
        lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert lines == sorted(lines)
        assert "# TYPE repro_trace_requests counter" in text
        assert 'repro_burn_alert_active{rule="fast-burn"} 0' in text

    def test_drop_counters_published(self):
        tracer = FleetTracer(seed=1, max_traces=1)
        tracer.submit(0, 0)
        tracer.submit(1, 0)                     # dropped
        text = render_exposition(tracer=tracer, span_dropped=3)
        assert "repro_trace_dropped_traces 1" in text
        assert "repro_trace_dropped_events 3" in text

    def test_histograms_are_cumulative(self):
        from repro.telemetry.metrics import MetricsRegistry
        registry = MetricsRegistry()
        hist = registry.histogram("lat.cycles", bounds=(1, 2, 4))
        for v in (1, 1, 3, 100):
            hist.observe(v)
        text = render_exposition(registry=registry)
        assert 'repro_lat_cycles_bucket{le="1"} 2' in text
        assert 'repro_lat_cycles_bucket{le="4"} 3' in text
        assert 'repro_lat_cycles_bucket{le="+Inf"} 4' in text
        assert "repro_lat_cycles_count 4" in text


class TestSpanTracerClose:
    def test_open_spans_close_at_their_own_pid_end(self):
        tracer = SpanTracer()
        tracer.pid = 1
        tracer.begin(0, "crashed_run", ts=100)   # never ends (crash)
        tracer.pid = 2
        tracer.complete(0, "long_run", 0, 50_000)
        tracer.close_open_spans()
        crashed = [e for e in tracer.events if e["name"] == "crashed_run"]
        assert crashed and crashed[0]["dur"] == 0
        assert crashed[0]["ts"] == 100


class TestZeroCostWhenOff:
    def test_result_identical_with_and_without_obs(self):
        plain = _campaign().as_dict()
        obs = Observability(seed=7)
        observed = _campaign(obs).as_dict()
        assert "obs" not in plain
        assert "obs" in observed
        observed.pop("obs")
        assert observed == plain

    def test_disabled_handle_is_inert(self):
        result = _campaign(None).as_dict()
        assert "obs" not in result
        assert result == _campaign().as_dict()

    def test_summary_attached_when_enabled(self):
        obs = Observability(seed=7)
        result = _campaign(obs)
        doc = result.as_dict()["obs"]
        assert doc["trace"]["traces"] > 0
        assert doc["attribution"]["served"] > 0
        assert doc["burn"]["fired"] == 0         # healthy fleet is silent

    def test_exact_decomposition_round_trips_json(self):
        obs = Observability(seed=7)
        result = _campaign(obs)
        json.dumps(result.as_dict(), allow_nan=False)


class TestFastpathInvariance:
    def test_scheme_tax_fastpath_invariant(self, unfused, eager_blocks):
        """The attribution pipeline must be blind to compiled blocks:
        scheme_tax diffs PerfCounters means, and compiled blocks
        guarantee counter identity with plain dispatch, so the whole tax
        document — deltas, priced components, shares — must match bit
        for bit between plain handlers and every block compiled."""
        taxes = {}
        for blocks in (False, True):
            rollups = {}
            with eager_blocks() if blocks else unfused():
                for scheme in ("native", "sgxbounds"):
                    obs = Observability(seed=7)
                    _campaign(obs, scheme=scheme, policy="drop-request")
                    rollups[scheme] = obs.attribution.rollup()
            taxes[blocks] = scheme_tax(rollups["sgxbounds"],
                                       rollups["native"])
        assert taxes[True] is not None
        assert taxes[True] == taxes[False]
