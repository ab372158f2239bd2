"""Overhead-attribution profiling driver (``python -m repro profile``).

Re-runs an experiment's workloads under each scheme with telemetry
attached, then diffs every instrumented run against its native baseline
into the paper's Table-3 decomposition: how much of the slowdown is the
checks themselves (extra instructions), how much is metadata cache
pollution (extra LLC misses paying MEE decryption), and how much is EPC
thrashing (page faults).  Emits three artifacts:

* a Chrome ``trace_event`` JSON merging every run as its own process
  lane (``--trace-out``),
* a metrics JSON with per-workload, per-scheme, per-function attribution
  plus each run's metrics-registry snapshot (``--metrics-out``),
* the usual paper-style text tables on stdout.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness import report
from repro.harness.runner import DEFAULT_SCHEMES, run_workload
from repro.sgx import EnclaveConfig
from repro.telemetry import Telemetry, attribute_overhead, flame_rows
from repro.telemetry.tracer import SIM_CLOCK, chrome_trace_document
from repro.workloads import get
from repro.workloads.registry import Workload

#: Every instrumented run is attributed against this scheme's run, and
#: the flame table shows its hottest functions.
BASELINE = "native"
FLAME_LIMIT = 12


def normalize_target(target: str) -> str:
    """Accept both CLI habits ("fig7") and the zero-padded benchmark
    file names ("fig07")."""
    name = target.lower()
    if name.startswith("fig") and name[3:].isdigit():
        return f"fig{int(name[3:])}"
    return name


def resolve_target(target: str) -> Tuple[List[Workload],
                                   Optional[EnclaveConfig]]:
    from repro.harness.experiments import profile_targets
    targets = profile_targets()
    key = normalize_target(target)
    if key in targets:
        return targets[key]
    try:
        return [get(target)], None     # single registered workload
    except KeyError:
        known = ", ".join(sorted(targets))
        raise KeyError(f"unknown profile target {target!r}; "
                       f"expected one of [{known}] or a workload name")


def profile_experiment(target: str, size: str = "XS",
                       schemes: Sequence[str] = DEFAULT_SCHEMES
                       ) -> Tuple[Dict, str]:
    """Profile ``target`` under ``schemes``; returns ``(data, text)``.

    ``data`` carries the full machine-readable payload: ``data["trace"]``
    is the merged Chrome trace document, ``data["metrics"]`` the
    attribution + registry snapshots, keyed by workload then scheme.
    """
    workloads, config = resolve_target(target)
    if BASELINE not in schemes:
        schemes = (BASELINE,) + tuple(schemes)
    cost = (config or EnclaveConfig()).cost
    enclave = (config or EnclaveConfig()).enclave
    trace_events: List[Dict] = []
    dropped = 0
    metrics: Dict[str, Dict] = {}
    chunks: List[str] = []
    pid = 0
    for workload in workloads:
        profiles: Dict[str, Dict] = {}
        runs: Dict[str, Dict] = {}
        for scheme in schemes:
            telemetry = Telemetry()
            result = run_workload(workload, scheme, size=size, config=config,
                                  telemetry=telemetry)
            profiles[scheme] = telemetry.functions.snapshot()
            runs[scheme] = {
                "status": result.crashed or "ok",
                "cycles": result.cycles,
                "counters": result.counters,
                "peak_reserved_bytes": result.peak_reserved,
                "registry": telemetry.metrics_snapshot(),
                "functions": profiles[scheme],
            }
            pid += 1
            doc = telemetry.chrome_trace()
            dropped += doc["otherData"]["dropped_events"]
            for event in doc["traceEvents"]:
                event["pid"] = pid
                trace_events.append(event)
        base_cycles = runs[BASELINE]["cycles"]
        rows = []
        for scheme in schemes:
            if scheme == BASELINE:
                continue
            attribution = attribute_overhead(profiles[scheme],
                                             profiles[BASELINE],
                                             cost, enclave)
            runs[scheme]["attribution"] = attribution
            shares = attribution["shares"]
            totals = attribution["totals"]
            rows.append([
                scheme,
                runs[scheme]["status"],
                (runs[scheme]["cycles"] / base_cycles)
                if base_cycles else None,
                totals["total_cycles"],
                100.0 * shares["check"],
                100.0 * shares["cache"],
                100.0 * shares["epc_fault"],
            ])
        metrics[workload.name] = {"schemes": runs, "baseline": BASELINE}
        chunks.append(report.series_table(
            f"Overhead attribution: {workload.name} (size {size}, "
            f"vs {BASELINE}) — extra-cycle shares",
            ["scheme", "status", "overhead", "extra_cycles",
             "check%", "cache%", "epc%"], rows))
        # Failure-oblivious leakage accounting, when any run went
        # boundless (zero-cost and absent on the default abort paths).
        leak_rows = []
        for scheme in schemes:
            registry = runs[scheme]["registry"]
            reads = registry.get("boundless.oblivious_reads",
                                 {}).get("value", 0)
            if reads:
                leak_rows.append([
                    scheme, reads,
                    registry.get("boundless.leaked_bytes",
                                 {}).get("value", 0)])
        if leak_rows:
            chunks.append(report.series_table(
                f"Boundless leakage: {workload.name} (size {size}) — "
                f"oblivious reads past object bounds",
                ["scheme", "oblivious_reads", "leaked_bytes"], leak_rows))
        # Compiled-block entries per scheme.  A zero count is not
        # published as vm.fastpath.block, so a scheme whose run entered
        # no compiled block gets no row rather than a row of zeros.
        block_rows = []
        for scheme in schemes:
            entries = runs[scheme]["registry"].get(
                "vm.fastpath.block", {}).get("value", 0)
            if entries:
                block_rows.append([scheme, entries])
        if block_rows:
            chunks.append(report.series_table(
                f"Compiled blocks: {workload.name} (size {size}) — "
                f"block entries", ["scheme", "block"], block_rows))
    # One exemplar flame table: the baseline profile of the last workload.
    flame = flame_rows(profiles[BASELINE], cost, enclave, limit=FLAME_LIMIT)
    chunks.append(report.series_table(
        f"Flame table: {workloads[-1].name}/{BASELINE} "
        f"(flat profile, hottest first)",
        ["function", "calls", "self_instr", "%instr", "cycles",
         "checks", "llc_miss", "epc_faults"], flame))
    data = {
        "experiment": normalize_target(target),
        "size": size,
        "schemes": list(schemes),
        "baseline": BASELINE,
        "metrics": metrics,
        "trace": chrome_trace_document(trace_events, SIM_CLOCK,
                                       dropped_events=dropped),
    }
    return data, "\n\n".join(chunks)
