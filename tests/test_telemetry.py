"""Telemetry subsystem tests: metrics, tracer, profiler, zero-overhead.

The invariants the subsystem promises:

* deterministic — two identical seeded runs emit byte-identical traces
  and metrics snapshots (the clock is retired simulated instructions,
  never wall time);
* zero-cost-when-off — a VM with no telemetry (or a disabled handle)
  produces the exact same PerfCounters as before the subsystem existed,
  and even an *enabled* handle never charges simulated counters;
* exportable — the trace is a valid Chrome ``trace_event`` document and
  the metrics/attribution payloads are strict JSON.

``tests/test_cli_goldens.py`` runs the same schema checks on the files
``python -m repro profile`` writes.
"""

import dataclasses
import json
import math
import warnings

import pytest

from repro.harness.chaos import run_chaos_server
from repro.harness.profile import normalize_target, profile_experiment
from repro.harness.runner import (RunResult, geomean, overhead,
                                  run_server, run_workload)
from repro.sgx.counters import COUNTER_FIELDS, PerfCounters
from repro.telemetry import (Telemetry, attribute_overhead,
                             exponential_bounds, flame_rows, get_default,
                             set_default, to_jsonable)
from repro.telemetry.metrics import (DEFAULT_BOUNDS, Histogram,
                                     MetricsRegistry)
from repro.telemetry.tracer import SpanTracer
from repro.workloads import get
from repro.workloads.apps import memcached


def _run(telemetry=None, workload="histogram", scheme="sgxbounds"):
    return run_workload(get(workload), scheme, size="XS", threads=1,
                        telemetry=telemetry)


# ---------------------------------------------------------------------------
class TestMetrics:
    def test_exponential_bounds(self):
        assert exponential_bounds(1, 2, 5) == (1, 2, 4, 8, 16)
        assert DEFAULT_BOUNDS[0] == 1 and DEFAULT_BOUNDS[-1] == 2 ** 23
        with pytest.raises(ValueError):
            exponential_bounds(0, 2, 4)
        with pytest.raises(ValueError):
            exponential_bounds(1, 1, 4)

    def test_histogram_bucket_math(self):
        h = Histogram("h", bounds=(1, 2, 4, 8))
        for v in (1, 2, 2, 3, 4, 8, 9, 100):
            h.observe(v)
        # Buckets are upper-inclusive: (..1], (1..2], (2..4], (4..8], (8..
        assert h.counts == [1, 2, 2, 1, 2]
        assert h.count == 8
        assert h.total == sum((1, 2, 2, 3, 4, 8, 9, 100))
        snap = h.snapshot()
        assert snap["bounds"] == [1, 2, 4, 8]
        assert sum(snap["counts"]) == snap["count"]

    def test_histogram_percentile_bucket(self):
        h = Histogram("h", bounds=(1, 2, 4, 8))
        assert math.isnan(h.percentile_bucket(0.5))
        for v in (1, 2, 3, 100):
            h.observe(v)
        assert h.percentile_bucket(0.25) == 1
        assert h.percentile_bucket(0.5) == 2
        assert h.percentile_bucket(1.0) == float("inf")
        with pytest.raises(ValueError):
            h.percentile_bucket(0.0)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(4, 2, 1))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1, 1, 2))

    def test_registry_get_or_create_and_conflicts(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        c.inc(3)
        assert reg.counter("a") is c and c.value == 3
        reg.gauge("g").set(7)
        reg.histogram("h").observe(5)
        assert len(reg) == 3
        with pytest.raises(ValueError):
            reg.gauge("a")
        with pytest.raises(ValueError):
            reg.counter("h")
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a"] == {"kind": "counter", "value": 3}
        assert snap["g"] == {"kind": "gauge", "value": 7}


# ---------------------------------------------------------------------------
class TestTracer:
    def test_nesting_and_orphan_close(self):
        t = SpanTracer()
        t.begin(0, "outer", 0)
        t.begin(0, "inner", 10)
        t.end(0, "inner", 20)
        t.end(0, "outer", 30)
        # Rollback-style mismatch: "lost" never closed explicitly.
        t.begin(0, "outer2", 40)
        t.begin(0, "lost", 50)
        t.end(0, "outer2", 60)
        spans = [(e["name"], e["ts"], e["dur"]) for e in t.events]
        assert spans == [("inner", 10, 10), ("outer", 0, 30),
                         ("lost", 50, 10), ("outer2", 40, 20)]

    def test_unwind_to_depth(self):
        t = SpanTracer()
        for i, name in enumerate(("a", "b", "c")):
            t.begin(1, name, i * 10)
        t.unwind(1, 1, 100)
        assert [e["name"] for e in t.events] == ["c", "b"]
        t.end(1, "a", 110)
        assert t.events[-1]["name"] == "a"

    def test_event_cap_counts_dropped(self):
        t = SpanTracer(max_events=2)
        for i in range(5):
            t.instant(f"e{i}", i)
        assert len(t.events) == 2 and t.dropped == 3
        assert t.chrome_trace()["otherData"]["dropped_events"] == 3

    def test_close_open_spans_on_crash(self):
        t = SpanTracer()
        t.begin(0, "dies", 5)
        t.instant("violation", 50)
        doc = t.chrome_trace()
        span = [e for e in doc["traceEvents"] if e["name"] == "dies"][0]
        assert span["dur"] == 45


# ---------------------------------------------------------------------------
def _assert_chrome_schema(doc):
    """Chrome trace_event JSON-object-format invariants."""
    assert isinstance(doc["traceEvents"], list)
    assert doc["displayTimeUnit"] in ("ms", "ns")
    for event in doc["traceEvents"]:
        assert event["ph"] in ("X", "i", "M"), event
        assert isinstance(event["name"], str) and event["name"]
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert isinstance(event["ts"], int) and event["ts"] >= 0
        if event["ph"] == "X":
            assert isinstance(event["dur"], int) and event["dur"] >= 0
        if event["ph"] == "i":
            assert event["s"] in ("t", "p", "g")
    # Must round-trip as strict JSON.
    json.loads(json.dumps(doc, allow_nan=False))


class TestRunIntegration:
    def test_span_determinism_two_identical_runs(self):
        docs, snaps = [], []
        for _ in range(2):
            telemetry = Telemetry()
            _run(telemetry)
            docs.append(telemetry.chrome_trace())
            snaps.append(telemetry.metrics_snapshot())
        assert json.dumps(docs[0], sort_keys=True) \
            == json.dumps(docs[1], sort_keys=True)
        assert snaps[0] == snaps[1]

    def test_chrome_trace_schema_from_run(self):
        telemetry = Telemetry()
        _run(telemetry)
        doc = telemetry.chrome_trace()
        _assert_chrome_schema(doc)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "main" in names          # function spans
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "function" in cats and "native" in cats

    def test_zero_overhead_when_off(self):
        # Counters must be identical whether telemetry is absent,
        # disabled, or even enabled (it only observes, never charges).
        absent = _run()
        disabled = _run(Telemetry(enabled=False))
        enabled = _run(Telemetry())
        assert absent.counters == disabled.counters == enabled.counters
        assert absent.cycles == disabled.cycles == enabled.cycles
        assert absent.peak_reserved == enabled.peak_reserved

    def test_disabled_telemetry_records_nothing(self):
        telemetry = Telemetry(enabled=False)
        _run(telemetry)
        assert len(telemetry.registry) == 0
        assert telemetry.chrome_trace()["traceEvents"] == []

    def test_function_profile_covers_run(self):
        telemetry = Telemetry()
        result = _run(telemetry, workload="kmeans")
        profile = telemetry.functions.snapshot()
        assert "main" in profile
        total = sum(row["instructions"] for row in profile.values())
        assert total == result.counters["instructions"]
        for row in profile.values():
            assert row["calls_entered"] >= 0
            assert row["instructions"] >= 0

    def test_scheme_metrics_published(self):
        telemetry = Telemetry()
        _run(telemetry, scheme="sgxbounds")
        snap = telemetry.metrics_snapshot()
        assert snap["sgxbounds.metadata_bytes"]["value"] > 0
        assert snap["sgx.instructions"]["value"] > 0
        assert "epc.peak_resident" in snap

    def test_request_spans_from_server_run(self):
        telemetry = Telemetry()
        requests = memcached.workload(memcached.SIZES["XS"])
        result = run_server(memcached.SOURCE, [requests], "sgxbounds",
                            memcached.SIZES["XS"], name="memcached",
                            telemetry=telemetry)
        assert result.ok
        doc = telemetry.chrome_trace()
        _assert_chrome_schema(doc)
        req_spans = [e for e in doc["traceEvents"]
                     if e.get("cat") == "request"]
        assert len(req_spans) >= memcached.SIZES["XS"] - 1
        snap = telemetry.metrics_snapshot()
        assert snap["net.requests_received"]["value"] \
            == memcached.SIZES["XS"]
        assert snap["net.responses"]["value"] == memcached.SIZES["XS"]

    def test_chaos_run_records_drops_and_violations(self):
        telemetry = Telemetry()
        result = run_chaos_server("memcached", policy="drop-request",
                                  fault_rate=0.3, size="XS",
                                  telemetry=telemetry)
        assert result.ok
        snap = telemetry.metrics_snapshot()
        assert snap["violations.sgxbounds"]["value"] > 0
        assert snap["vm.requests_dropped"]["value"] > 0
        doc = telemetry.chrome_trace()
        cats = {e.get("cat") for e in doc["traceEvents"]}
        assert "violation" in cats and "recovery" in cats

    def test_default_telemetry_hook(self):
        telemetry = Telemetry()
        set_default(telemetry)
        try:
            assert get_default() is telemetry
            _run()   # no explicit handle: the default applies
        finally:
            set_default(None)
        assert get_default() is None
        assert len(telemetry.registry) > 0


# ---------------------------------------------------------------------------
class TestAttribution:
    def test_attribute_overhead_shares(self):
        telemetry_native, telemetry_sgxb = Telemetry(), Telemetry()
        _run(telemetry_native, workload="kmeans", scheme="native")
        _run(telemetry_sgxb, workload="kmeans", scheme="sgxbounds")
        attribution = attribute_overhead(telemetry_sgxb.functions.snapshot(),
                                         telemetry_native.functions.snapshot())
        totals, shares = attribution["totals"], attribution["shares"]
        assert totals["total_cycles"] > 0
        assert totals["total_cycles"] == (totals["check_cycles"]
                                          + totals["cache_cycles"]
                                          + totals["epc_fault_cycles"])
        assert math.isclose(sum(shares.values()), 1.0)
        # The instrumented run really did execute extra instructions
        # (the inlined checks) somewhere.
        assert any(row["delta"]["instructions"] > 0
                   for row in attribution["functions"].values())

    def test_mpx_bounds_checks_attributed(self):
        # bounds_checks counts the explicit BNDCL/BNDCU ops, an
        # MPX-only artifact — SGXBounds checks are plain instructions.
        telemetry = Telemetry()
        _run(telemetry, workload="kmeans", scheme="mpx")
        profile = telemetry.functions.snapshot()
        assert sum(row["bounds_checks"] for row in profile.values()) > 0

    def test_flame_rows_sorted_hottest_first(self):
        telemetry = Telemetry()
        _run(telemetry, workload="kmeans")
        rows = flame_rows(telemetry.functions.snapshot(), limit=5)
        instr = [row[2] for row in rows]
        assert instr == sorted(instr, reverse=True)
        assert len(rows) <= 5

    def test_profile_experiment_single_workload(self):
        data, text = profile_experiment("histogram", size="XS",
                                        schemes=("native", "sgxbounds"))
        assert "Overhead attribution" in text and "Flame table" in text
        runs = data["metrics"]["histogram"]["schemes"]
        attribution = runs["sgxbounds"]["attribution"]
        assert attribution["totals"]["total_cycles"] > 0
        _assert_chrome_schema(data["trace"])
        # Each run got its own process lane.
        assert {e["pid"] for e in data["trace"]["traceEvents"]} == {1, 2}
        # The whole payload must survive a strict JSON dump.
        json.dumps(to_jsonable(data), allow_nan=False)

    def test_normalize_target(self):
        assert normalize_target("fig07") == "fig7"
        assert normalize_target("FIG1") == "fig1"
        assert normalize_target("kmeans") == "kmeans"

    def test_profile_unknown_target(self):
        with pytest.raises(KeyError):
            profile_experiment("no-such-thing")


# ---------------------------------------------------------------------------
class TestResultsEmission:
    def test_to_jsonable_flattens_harness_objects(self):
        r = RunResult("w", "native", "XS", 1)
        r.cycles = 7
        flat = to_jsonable({("a", 1): r, "nan": float("nan"),
                            "set": {3, 1, 2}, "bytes": b"\xff"})
        assert flat["a/1"]["cycles"] == 7
        assert flat["nan"] is None
        assert flat["set"] == [1, 2, 3]
        assert flat["bytes"] == "\xff"
        json.dumps(flat, allow_nan=False)

    def test_emit_result_roundtrip(self, tmp_path):
        from repro.telemetry.results import emit_result
        path = emit_result("unit", {"x": 1}, meta={"size": "XS"},
                           directory=tmp_path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["name"] == "unit"
        assert doc["data"] == {"x": 1}
        assert doc["meta"] == {"size": "XS"}


# ---------------------------------------------------------------------------
class TestSatellites:
    def test_counter_fields_match_dataclass(self):
        # The precomputed tuple must stay in lockstep with the dataclass.
        assert COUNTER_FIELDS == tuple(
            f.name for f in dataclasses.fields(PerfCounters))

    def test_counters_fast_paths(self):
        a, b = PerfCounters(), PerfCounters()
        a.instructions, a.llc_misses = 10, 3
        b.instructions, b.epc_faults = 5, 2
        a.add(b)
        assert a.instructions == 15 and a.epc_faults == 2
        snap = a.snapshot()
        assert snap == {name: getattr(a, name) for name in
                        (f.name for f in dataclasses.fields(PerfCounters))}
        a.reset()
        assert all(v == 0 for v in a.snapshot().values())

    def test_overhead_empty_results_warns(self):
        with pytest.warns(UserWarning, match="empty result"):
            assert overhead([]) == {}

    def test_overhead_zero_baseline_is_nan(self):
        base = RunResult("w", "native", "XS", 1)
        base.result = 0
        instrumented = RunResult("w", "sgxbounds", "XS", 1)
        instrumented.result = 0
        instrumented.cycles = 50
        with pytest.warns(UserWarning, match="zero-cycles baseline"):
            table = overhead([base, instrumented])
        assert math.isnan(table["w"]["sgxbounds"])

    def test_geomean_edge_cases(self):
        with pytest.warns(UserWarning, match="no positive finite"):
            assert math.isnan(geomean([]))
        with pytest.warns(UserWarning):
            assert math.isnan(geomean([float("nan"), None, -1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isclose(geomean([2.0, float("nan"), 8.0]), 4.0)
