"""Golden pins for every observability artifact a fleet emits.

A handful of small seeded runs are executed in-process with all three
observability sinks attached — ``Telemetry``, a ``Forensics`` recorder
large enough to keep every record, and ``Observability`` — and each
sink's output is compared with ``tests/goldens/events.json``:

* per-sink, per-kind event counts (a renamed, dropped or duplicated
  event shows up as a readable diff of these tables);
* sha256 digests of the flight-recorder JSONL, the telemetry Chrome
  trace and metrics snapshot, the observatory Chrome trace, summary,
  notes and Prometheus exposition, and the campaign result.

The runs are chosen so that every fleet event kind fires at least once:
abort with a scripted hang and a hair-trigger breaker, a replica
recovery campaign whose crash loop ends in a promotion, naive and
protected overload, an EPC-spike campaign, and one single-server chaos
run whose hardened client retries dropped requests.

To regenerate after an intentional artifact change::

    PYTHONPATH=src python tests/test_event_goldens.py
"""

from __future__ import annotations

import collections
import hashlib
import json
from pathlib import Path

import pytest

from repro import forensics as forensics_mod
from repro.fleet.campaign import CampaignConfig, run_campaign
from repro.forensics import Forensics
from repro.harness.chaos import run_chaos_server
from repro.obs import Observability, render_exposition
from repro.telemetry import Telemetry

GOLDEN = Path(__file__).resolve().parent / "goldens" / "events.json"

#: Enough ring capacity that no run evicts a record.
CAPACITY = 1 << 20

_BASE = dict(app="memcached", scheme="sgxbounds", workers=2, size="XS")

CAMPAIGNS = {
    "abort_hang": dict(_BASE, policy="abort", fault_rate=0.3, seed=1234,
                       hang=(1, 1, 60), breaker_threshold=1),
    "replica": dict(_BASE, policy="abort", fault_rate=0.25, seed=77,
                    workload_kwargs=(("set_every", 2),), crash_loop_k=2,
                    crash_loop_window=200, recovery="replica",
                    checkpoint_interval=10),
    "naive": dict(_BASE, policy="drop-request", fault_rate=0.1, seed=1234,
                  deadline_ticks=5, overload="naive", arrivals_per_tick=8),
    "protected": dict(_BASE, policy="drop-request", workers=3,
                      fault_rate=0.1, seed=1234, deadline_ticks=20,
                      overload="protected", arrivals_per_tick=8),
    "epc_spike": dict(_BASE, policy="drop-request", fault_rate=0.3,
                      seed=1234, epc_spike_rate=0.2),
}


def _digest(obj) -> str:
    if not isinstance(obj, str):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(obj.encode()).hexdigest()


def _counts(names) -> dict:
    return dict(sorted(collections.Counter(names).items()))


def _telemetry_pins(telemetry: Telemetry) -> dict:
    trace = telemetry.chrome_trace()
    metrics = telemetry.metrics_snapshot()
    return {
        "instants": _counts(e["name"] for e in trace["traceEvents"]
                            if e.get("ph") == "i"),
        "counters": {name: m["value"] for name, m in metrics.items()
                     if m["kind"] == "counter"},
        "trace_sha256": _digest(trace),
        "metrics_sha256": _digest(metrics),
    }


def _recorder_pins(forensics: Forensics) -> dict:
    recorder = forensics.recorder
    assert recorder.dropped == 0, "raise CAPACITY: the ring evicted records"
    return {
        "kinds": _counts(r.kind for r in recorder.events()),
        "jsonl_sha256": _digest(recorder.to_jsonl()),
        "postmortems_sha256": _digest(forensics.postmortems),
    }


def _obs_pins(obs: Observability, tick_cycles: int) -> dict:
    return {
        "hops": dict(obs.tracer.summary()["hops"]),
        "notes": _counts(kind for _, kind, _ in obs.tracer.notes),
        "trace_sha256": _digest(obs.chrome_trace(tick_cycles=tick_cycles)),
        "summary_sha256": _digest(obs.summary()),
        "notes_sha256": _digest([list(n) for n in obs.tracer.notes]),
    }


def campaign_pins(name: str) -> dict:
    config = CampaignConfig(**CAMPAIGNS[name])
    telemetry = Telemetry()
    forensics = Forensics(capacity=CAPACITY)
    obs = Observability(seed=config.seed)
    result = run_campaign(config, telemetry=telemetry, forensics=forensics,
                          obs=obs)
    exposition = render_exposition(
        registry=telemetry.registry, slo=result.slo, burn=obs.burn,
        tracer=obs.tracer, span_dropped=telemetry.tracer.dropped,
        forensics=forensics)
    return {
        "telemetry": _telemetry_pins(telemetry),
        "recorder": _recorder_pins(forensics),
        "obs": _obs_pins(obs, config.tick_cycles),
        "exposition_sha256": _digest(exposition),
        "result_sha256": _digest(result.as_dict()),
    }


def chaos_pins() -> dict:
    """Single-server chaos run: telemetry and the recorder both observe
    the hardened client's retry/error paths and EPC spikes."""
    telemetry = Telemetry()
    forensics = Forensics(capacity=CAPACITY)
    previous = forensics_mod.get_default()
    forensics_mod.set_default(forensics)
    try:
        result = run_chaos_server("memcached", fault_rate=0.3,
                                  retry_limit=1, seed=1234,
                                  telemetry=telemetry)
    finally:
        forensics_mod.set_default(previous)
    return {
        "telemetry": _telemetry_pins(telemetry),
        "recorder": _recorder_pins(forensics),
        "resilience_sha256": _digest(result.resilience),
    }


def all_pins() -> dict:
    pins = {name: campaign_pins(name) for name in CAMPAIGNS}
    pins["chaos_server"] = chaos_pins()
    return pins


@pytest.fixture(scope="module")
def pins():
    return all_pins()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", sorted(CAMPAIGNS) + ["chaos_server"])
def test_event_counts_match_golden(run, pins, golden):
    for sink in ("telemetry", "recorder", "obs"):
        if sink not in golden[run]:
            continue
        got = {k: v for k, v in pins[run][sink].items()
               if not k.endswith("_sha256")}
        want = {k: v for k, v in golden[run][sink].items()
                if not k.endswith("_sha256")}
        assert got == want, f"{run}: {sink} event counts drifted"


@pytest.mark.parametrize("run", sorted(CAMPAIGNS) + ["chaos_server"])
def test_artifacts_byte_identical(run, pins, golden):
    def digests(node, prefix=""):
        out = {}
        for key, value in node.items():
            if isinstance(value, dict):
                out.update(digests(value, f"{prefix}{key}."))
            elif key.endswith("_sha256"):
                out[prefix + key] = value
        return out

    assert digests(pins[run]) == digests(golden[run]), \
        f"{run}: an artifact changed bytes"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_pins(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
