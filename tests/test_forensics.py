"""Forensics subsystem tests: flight recorder, postmortems, anomalies.

The invariants the subsystem promises:

* bounded — the flight recorder is a fixed-capacity ring that evicts the
  oldest records and counts what it dropped, never grows without bound;
* deterministic — two same-seed runs produce byte-identical postmortem
  reports and event logs (the clock is simulated instructions/ticks,
  never wall time or object ids);
* zero-cost-when-off — a VM with no forensics (or a disabled handle)
  produces the exact same PerfCounters as before the subsystem existed,
  and even an *enabled* handle never charges simulated counters;
* decodable — the faulting pointer of a postmortem is decoded through
  the scheme's own metadata (tagged LBA/UB for SGXBounds, the shadow
  neighborhood for ASan, the BD/BT entry for MPX).
"""

import dataclasses
import json

import pytest

from repro.asan import ASanScheme
from repro.core import SGXBoundsScheme
from repro.errors import BoundsViolation
from repro.fleet.campaign import CampaignConfig, run_campaign
from repro.forensics import (
    AnomalyMonitor,
    CrashLoopPrecursorDetector,
    EPCThrashDetector,
    FlightRecorder,
    Forensics,
    LatencyRegressionDetector,
    render_postmortem,
)
from repro.harness.runner import run_workload
from repro.mpx import MPXScheme
from repro.obs.events import hub
from repro.sgx.counters import COUNTER_FIELDS
from repro.telemetry import Telemetry, flame_rows
from repro.telemetry.tracer import SpanTracer
from repro.workloads import get
from repro.workloads.netsim import NetworkSim
from tests.util import run_c

OVERFLOW_SRC = """
int main() {
    int *a = (int*)malloc(8 * sizeof(int));
    a[0] = 7;
    return a[9];
}
"""


def _crash(scheme, **scheme_kwargs):
    """Run the overflow program under ``scheme`` with forensics attached;
    returns the Forensics handle holding the captured postmortem."""
    forensics = Forensics()
    with pytest.raises(BoundsViolation):
        run_c(OVERFLOW_SRC, scheme=scheme(**scheme_kwargs),
              forensics=forensics)
    assert len(forensics.postmortems) == 1
    return forensics


# ---------------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_bounded_and_dropped_counted(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.record("tick", ts=i, cat="test", n=i)
        assert len(rec) == 8
        assert rec.total == 20
        assert rec.dropped == 12
        # Oldest evicted: the retained window is the last 8 records.
        seqs = [e.seq for e in rec.last(100)]
        assert seqs == list(range(12, 20))

    def test_filters(self):
        rec = FlightRecorder(capacity=64)
        rec.record("dispatch", ts=1, cat="fleet", rid=1, wid=0)
        rec.record("dispatch", ts=2, cat="fleet", rid=2, wid=1)
        rec.record("violation", ts=3, cat="scheme", rid=1, wid=0)
        assert len(rec.events(kind="dispatch")) == 2
        assert len(rec.events(cat="scheme")) == 1
        assert [e.kind for e in rec.events(rid=1)] == \
            ["dispatch", "violation"]
        assert len(rec.events(wid=1)) == 1
        assert len(rec.events(kind="dispatch", last=1)) == 1

    def test_jsonl_and_text_render(self):
        rec = FlightRecorder(capacity=4)
        for i in range(6):
            rec.record("e", ts=i, cat="c", payload=i)
        lines = rec.to_jsonl().splitlines()
        assert len(lines) == 4
        for line in lines:
            row = json.loads(line)
            assert row["kind"] == "e"
            assert list(row) == sorted(row)   # sorted keys
        text = rec.render_text()
        assert "4 of 6 records retained" in text
        assert "dropped 2" in text

    def test_empty_recorder_valid_artifacts(self):
        rec = FlightRecorder(capacity=4)
        assert rec.to_jsonl() == ""
        assert "0 of 0 records retained" in rec.render_text()


# ---------------------------------------------------------------------------
class TestPointerDecode:
    def test_sgxbounds_tagged_decode(self):
        forensics = _crash(SGXBoundsScheme)
        pointer = forensics.postmortems[0]["pointer"]
        assert pointer["scheme"] == "sgxbounds"
        lower, upper = pointer["bounds"]
        assert upper > lower
        assert pointer["object_bytes"] == upper - lower
        # The LB word lives *at* the UB address (paper §3.1) and must
        # round-trip back to the lower bound.
        assert pointer["lower_bound_address"] == upper
        assert pointer["lower_bound_word"] == lower
        assert pointer["overflow_bytes"] > 0

    def test_asan_shadow_window(self):
        forensics = _crash(ASanScheme)
        pointer = forensics.postmortems[0]["pointer"]
        assert pointer["scheme"] == "asan"
        window = pointer["shadow_window"]
        faulting = [g for g in window if g["faulting"]]
        assert len(faulting) == 1
        # The faulting granule is poisoned (a redzone or partial), and
        # the window shows addressable granules inside the object.
        assert faulting[0]["meaning"] != "addressable"
        meanings = {g["meaning"] for g in window}
        assert any(m == "addressable" or m.startswith("partial")
                   for m in meanings)

    def test_mpx_bounds_table_entry(self):
        # Spilling a pointer to memory forces a bndstx, which allocates
        # a bounds table covering the heap region of the fault.
        src = """
        int main() {
            int **box = (int**)malloc(4 * sizeof(int*));
            int *a = (int*)malloc(8 * sizeof(int));
            box[0] = a;
            int *b = box[0];
            return b[9];
        }
        """
        forensics = Forensics()
        with pytest.raises(BoundsViolation):
            run_c(src, scheme=MPXScheme(), forensics=forensics)
        pointer = forensics.postmortems[0]["pointer"]
        assert pointer["scheme"] == "mpx"
        lower, upper = pointer["register_bounds"]
        assert upper > lower
        assert pointer["bounds_tables_allocated"] >= 1
        entry = pointer["bounds_table"]
        # The BD entry covering the faulting heap region points at a live
        # bounds table; the faulting address's own slot never had a
        # pointer spilled to it, so bndldx's view of it is INIT.
        assert entry is not None and entry["table"]
        assert entry["bd_entry"] > 0
        assert entry["init"] is True
        assert entry["lower"] == 0 and entry["upper"] == 0

    def test_stack_has_source_locations(self):
        forensics = _crash(SGXBoundsScheme)
        report = forensics.postmortems[0]
        stack = report["stack"]
        assert stack and stack[-1]["function"] == "main"
        assert any(frame["line"] > 0 for frame in stack)
        text = render_postmortem(report)
        assert "stack (innermost first):" in text
        assert "#0 main (line" in text


# ---------------------------------------------------------------------------
class TestAnomalyDetectors:
    def test_epc_thrash_trigger_and_hysteresis(self):
        det = EPCThrashDetector(window=4, faults_per_tick=100)
        total, hits = 0, []
        for tick in range(12):
            total += 500   # way past 100/tick
            hit = det.observe(tick, total)
            if hit:
                hits.append((tick, hit))
        assert len(hits) == 1   # edge-triggered, not per tick
        assert hits[0][1]["rate_per_tick"] >= 100
        # Quiet period drops the windowed rate below half the threshold,
        # re-arming the detector; renewed thrash fires a second alert.
        for tick in range(12, 24):
            det.observe(tick, total)   # zero delta
        refired = []
        for tick in range(24, 40):
            total += 500
            hit = det.observe(tick, total)
            if hit:
                refired.append(hit)
        assert len(refired) == 1

    def test_epc_thrash_no_trigger_below_threshold(self):
        det = EPCThrashDetector(window=4, faults_per_tick=100)
        total = 0
        for tick in range(20):
            total += 10
            assert det.observe(tick, total) is None

    def test_latency_regression_trigger(self):
        det = LatencyRegressionDetector(window=4, factor=4.0, min_served=1)
        for tick in range(4):
            assert det.observe(tick, 1000, served=10) is None
        hit = det.observe(4, 8000, served=10)
        assert hit is not None
        assert hit["ratio_x100"] == 800
        # Alerting: no duplicate alert while still regressed.
        assert det.observe(5, 8000, served=10) is None

    def test_latency_regression_no_trigger_flat(self):
        det = LatencyRegressionDetector(window=4, factor=4.0, min_served=1)
        for tick in range(20):
            assert det.observe(tick, 1000 + (tick % 2), served=10) is None

    def test_crash_loop_precursor(self):
        det = CrashLoopPrecursorDetector(window=10, precursor_k=2)
        assert det.on_crash(0, wid=1) is None
        hit = det.on_crash(5, wid=1)
        assert hit is not None and hit["crashes_in_window"] == 2
        # One alert per episode inside the window.
        assert det.on_crash(7, wid=1) is None
        # Crashes far apart never fire.
        det2 = CrashLoopPrecursorDetector(window=10, precursor_k=2)
        assert det2.on_crash(0, wid=1) is None
        assert det2.on_crash(50, wid=1) is None

    def test_monitor_records_alerts(self):
        rec = FlightRecorder(capacity=32)
        monitor = AnomalyMonitor(rec)
        monitor.on_crash(0, wid=3)
        monitor.on_crash(1, wid=3)
        assert monitor.summary() == {
            "total": 1, "by_detector": {"crash_loop_precursor": 1}}
        alerts = rec.events(kind="alert")
        assert len(alerts) == 1 and alerts[0].cat == "anomaly"


# ---------------------------------------------------------------------------
class TestZeroOverhead:
    def test_counters_identical_absent_disabled_enabled(self):
        absent = run_workload(get("histogram"), "sgxbounds", size="XS",
                              threads=1)
        disabled = run_workload(get("histogram"), "sgxbounds", size="XS",
                                threads=1, forensics=Forensics(enabled=False))
        enabled = run_workload(get("histogram"), "sgxbounds", size="XS",
                               threads=1, forensics=Forensics())
        for field in COUNTER_FIELDS:
            assert absent.counters[field] == disabled.counters[field]
            assert absent.counters[field] == enabled.counters[field]
        assert absent.result == enabled.result

    def test_campaign_results_identical_with_forensics(self):
        cfg = CampaignConfig(app="memcached", policy="drop-request",
                             workers=2, fault_rate=0.3, seed=77, size="XS")
        off = run_campaign(cfg).as_dict()
        on = run_campaign(cfg, forensics=Forensics()).as_dict()
        # Forensics adds exactly two summary keys; everything the
        # simulation computed is unchanged.
        forensics_summary = on.pop("forensics")
        assert forensics_summary["events_recorded"] > 0
        on["slo"].pop("alerts")
        assert json.dumps(off, sort_keys=True) == \
            json.dumps(on, sort_keys=True)


# ---------------------------------------------------------------------------
class TestDeterminism:
    def _campaign(self):
        forensics = Forensics()
        cfg = CampaignConfig(app="memcached", policy="abort", workers=2,
                             fault_rate=0.3, seed=1234, size="XS")
        run_campaign(cfg, forensics=forensics)
        return forensics

    def test_two_runs_byte_identical(self):
        a, b = self._campaign(), self._campaign()
        assert a.postmortems, "abort campaign must capture a postmortem"
        assert json.dumps(a.postmortems, sort_keys=True) == \
            json.dumps(b.postmortems, sort_keys=True)
        assert a.recorder.to_jsonl() == b.recorder.to_jsonl()
        assert json.dumps(a.summary(), sort_keys=True) == \
            json.dumps(b.summary(), sort_keys=True)
        assert render_postmortem(a.postmortems[0]) == \
            render_postmortem(b.postmortems[0])

    def test_postmortem_correlates_request_events(self):
        forensics = self._campaign()
        report = forensics.postmortems[0]
        rid = report["request"]["rid"]
        assert rid is not None
        kinds = {e["kind"] for e in report["events"]
                 if e.get("rid") == rid}
        # The balancer's dispatch and the in-VM recv both carry the
        # fleet-wide rid — end-to-end correlation.
        assert "dispatch" in kinds
        assert "request_recv" in kinds
        assert report["request"]["preview_hex"]

    def test_postmortems_bounded(self):
        forensics = Forensics(max_postmortems=1)
        cfg = CampaignConfig(app="memcached", policy="abort", workers=2,
                             fault_rate=0.3, seed=1234, size="XS")
        result = run_campaign(cfg, forensics=forensics)
        assert result.crashes > 1
        assert len(forensics.postmortems) == 1
        assert forensics.postmortems_dropped == result.crashes - 1


# ---------------------------------------------------------------------------
class TestNetSimCorrelation:
    def test_push_returns_mid_and_retry_records_carry_it(self):
        forensics = Forensics()
        net = NetworkSim(retry_limit=1)
        net.events = hub(forensics=forensics)
        conn = net.connect()
        mid = net.push(conn, b"req")
        assert isinstance(mid, int)
        assert net.recv(conn, 64) == b"req"
        assert net.last_recv_mid == mid
        # First failure retries, second exhausts the budget.
        assert net.fail_request(conn, b"req") is True
        assert net.recv(conn, 64) == b"req"
        assert net.fail_request(conn, b"req") is False
        retries = forensics.recorder.events(kind="net_retry")
        errors = forensics.recorder.events(kind="net_error")
        assert len(retries) == 1 and retries[0].detail["mid"] == mid
        assert retries[0].detail["attempt"] == 1
        assert len(errors) == 1 and errors[0].detail["mid"] == mid

    def test_netsim_clock_stamps_timestamps(self):
        forensics = Forensics()
        net = NetworkSim(retry_limit=1)
        net.events = hub(forensics=forensics)
        net.clock = lambda: 4242
        conn = net.connect(b"x")
        net.recv(conn, 64)
        net.fail_request(conn, b"x")
        assert forensics.recorder.events(kind="net_retry")[0].ts == 4242


# ---------------------------------------------------------------------------
class TestTelemetryHardening:
    def test_flame_table_limit_zero_and_negative(self):
        telemetry = Telemetry()
        run_workload(get("histogram"), "sgxbounds", size="XS", threads=1,
                     telemetry=telemetry)
        empty = telemetry.flame_table(limit=0)
        assert isinstance(empty, str) and "function" in empty
        assert flame_rows(telemetry.functions.snapshot(), limit=0) == []
        assert flame_rows(telemetry.functions.snapshot(), limit=-5) == []
        full = flame_rows(telemetry.functions.snapshot(), limit=None)
        assert full

    def test_overflowed_tracer_exports_and_counts_drops(self):
        telemetry = Telemetry()
        telemetry.tracer = SpanTracer(max_events=4)
        for i in range(10):
            telemetry.tracer.begin(0, f"f{i}", ts=i)
            telemetry.tracer.end(0, f"f{i}", ts=i + 1)
        doc = telemetry.chrome_trace()
        assert isinstance(doc["traceEvents"], list)
        assert doc["otherData"]["dropped_events"] == \
            telemetry.tracer.dropped > 0
        json.dumps(doc)   # valid strict JSON
        counter = telemetry.registry.counter("trace.dropped_events")
        assert counter.value == telemetry.tracer.dropped
        # Idempotent: re-export does not double-count.
        telemetry.chrome_trace()
        assert counter.value == telemetry.tracer.dropped

    def test_empty_tracer_exports_valid_trace(self):
        telemetry = Telemetry()
        doc = telemetry.chrome_trace()
        assert doc["traceEvents"] == []
        json.dumps(doc)
        assert telemetry.registry.counter("trace.dropped_events").value == 0
