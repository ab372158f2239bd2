"""Experiment drivers — one per table/figure of the paper's evaluation.

Each function runs the sweep, returns the structured data, and renders the
paper-style table via ``repro.harness.report``.  Scale note: workloads and
the machine model run at roughly 1/1000 of the paper's testbed; enclave
parameters per experiment are chosen so the *ratios* (working set vs EPC,
metadata vs payload) land in the same regime as the paper's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness import report
from repro.harness.runner import (
    DEFAULT_SCHEMES,
    RunResult,
    SCHEMES,
    geomean,
    overhead,
    run_server,
    run_workload,
    sweep,
)
from repro.sgx import EnclaveConfig
from repro.workloads import by_suite, get
from repro.workloads.apps import apache, memcached, nginx, sqlite_kv
from repro.minic import compile_source
from repro.workloads.registry import Workload

#: Enclave configs per experiment regime.
FIG1_CONFIG = EnclaveConfig(epc_bytes=512 * 1024,
                            commit_limit_bytes=2 * 1024 * 1024)
FIG7_CONFIG = EnclaveConfig(epc_bytes=2 * 1024 * 1024)
FIG8_CONFIG = EnclaveConfig(epc_bytes=64 * 1024, llc_bytes=32 * 1024)
SPEC_CONFIG = EnclaveConfig(epc_bytes=1024 * 1024)
APP_CONFIG = EnclaveConfig(epc_bytes=2 * 1024 * 1024)


def _sqlite_workload() -> Workload:
    return Workload("sqlite", "apps", sqlite_kv.SOURCE,
                    sizes=sqlite_kv.SIZES, threads=1)


# ---------------------------------------------------------------------------
def fig1_sqlite(sizes: Sequence[str] = ("XS", "S", "M", "L", "XL"),
                schemes: Sequence[str] = DEFAULT_SCHEMES
                ) -> Tuple[Dict, str]:
    """Figure 1: SQLite speedtest — perf and memory vs working set."""
    workload = _sqlite_workload()
    rows: List[List[object]] = []
    data: Dict[str, Dict[str, RunResult]] = {}
    for size in sizes:
        per: Dict[str, RunResult] = {}
        for scheme in schemes:
            per[scheme] = run_workload(workload, scheme, size=size,
                                       config=FIG1_CONFIG)
        data[size] = per
        base = per["native"]
        row: List[object] = [size]
        for scheme in schemes:
            r = per[scheme]
            row.append(None if not r.ok else r.cycles / base.cycles)
        for scheme in schemes:
            r = per[scheme]
            row.append(None if not r.ok
                       else r.peak_reserved / base.peak_reserved)
        rows.append(row)
    columns = (["size"] + [f"{s} perf" for s in schemes]
               + [f"{s} mem" for s in schemes])
    text = report.series_table(
        "Figure 1: SQLite speedtest, overheads vs native SGX "
        "(perf = cycles ratio, mem = reserved VM ratio)", columns, rows)
    return data, text


# ---------------------------------------------------------------------------
def fig7_phoenix_parsec(size: str = "XS", threads: int = 4,
                        schemes: Sequence[str] = DEFAULT_SCHEMES
                        ) -> Tuple[Dict, str]:
    """Figure 7: Phoenix + PARSEC performance and memory overheads."""
    workloads = by_suite("phoenix") + by_suite("parsec")
    results = sweep(workloads, schemes=schemes, size=size, threads=threads,
                    config=FIG7_CONFIG)
    perf = overhead(results, metric="cycles")
    mem = overhead(results, metric="peak_reserved")
    text = (report.overhead_table(
        f"Figure 7 (top): performance overhead vs native SGX "
        f"(size {size}, {threads} threads)", perf, schemes)
        + "\n\n" + report.overhead_table(
        "Figure 7 (bottom): memory overhead vs native SGX", mem, schemes))
    return {"results": results, "perf": perf, "mem": mem}, text


# ---------------------------------------------------------------------------
def fig8_working_set(names: Sequence[str] = ("kmeans", "matrix_multiply"),
                     sizes: Sequence[str] = ("XS", "S", "M", "L"),
                     schemes: Sequence[str] = DEFAULT_SCHEMES
                     ) -> Tuple[Dict, str]:
    """Figure 8 + Table 3: increasing working sets, normalized to
    SGXBounds; page faults / LLC misses / #BTs per cell."""
    chunks: List[str] = []
    data: Dict[str, Dict[str, Dict[str, RunResult]]] = {}
    for name in names:
        workload = get(name)
        rows = []
        trows = []
        data[name] = {}
        for size in sizes:
            per: Dict[str, RunResult] = {}
            for scheme in schemes:
                per[scheme] = run_workload(workload, scheme, size=size,
                                           threads=1, config=FIG8_CONFIG)
            data[name][size] = per
            sgxb = per["sgxbounds"]
            row: List[object] = [size]
            for scheme in schemes:
                r = per[scheme]
                row.append(None if not (r.ok and sgxb.ok)
                           else r.cycles / sgxb.cycles)
            rows.append(row)
            faults_sgxb = max(1, sgxb.counters.get("epc_faults", 0))
            llc_sgxb = max(1, sgxb.counters.get("llc_misses", 0))
            trows.append([
                size,
                None if not per["asan"].ok else
                per["asan"].counters["llc_misses"] / llc_sgxb,
                None if not per["mpx"].ok else
                per["mpx"].counters["llc_misses"] / llc_sgxb,
                None if not per["asan"].ok else
                per["asan"].counters["epc_faults"] / faults_sgxb,
                None if not per["mpx"].ok else
                per["mpx"].counters["epc_faults"] / faults_sgxb,
                None if not per["mpx"].ok else
                per["mpx"].scheme_report.get("bounds_tables", 0),
            ])
        chunks.append(report.series_table(
            f"Figure 8: {name} — cycles normalized to SGXBounds",
            ["size"] + list(schemes), rows))
        chunks.append(report.series_table(
            f"Table 3: {name} — metadata diagnostics (ratios vs SGXBounds)",
            ["size", "ASan LLCx", "MPX LLCx", "ASan PFx", "MPX PFx",
             "# of BTs"], trows))
    return data, "\n\n".join(chunks)


# ---------------------------------------------------------------------------
def fig9_multithreading(size: str = "XS",
                        thread_counts: Sequence[int] = (1, 4),
                        schemes: Sequence[str] = ("asan", "sgxbounds")
                        ) -> Tuple[Dict, str]:
    """Figure 9: ASan vs SGXBounds overheads at 1 and 4 threads."""
    workloads = [w for w in by_suite("phoenix") + by_suite("parsec")
                 if w.threads > 1]
    chunks = []
    data = {}
    for threads in thread_counts:
        results = sweep(workloads, schemes=("native",) + tuple(schemes),
                        size=size, threads=threads, config=FIG7_CONFIG)
        perf = overhead(results, metric="cycles")
        data[threads] = perf
        chunks.append(report.overhead_table(
            f"Figure 9: performance overhead vs native SGX "
            f"({threads} thread(s))", perf, schemes))
    return data, "\n\n".join(chunks)


# ---------------------------------------------------------------------------
OPT_VARIANTS = {
    "no-opt": {"optimize_safe": False, "optimize_hoist": False},
    "safe": {"optimize_safe": True, "optimize_hoist": False},
    "hoist": {"optimize_safe": False, "optimize_hoist": True},
    "all-opt": {"optimize_safe": True, "optimize_hoist": True},
}


def fig10_optimizations(size: str = "XS", threads: int = 1,
                        names: Optional[Sequence[str]] = None
                        ) -> Tuple[Dict, str]:
    """Figure 10: SGXBounds overhead under each optimization setting."""
    workloads = ([get(n) for n in names] if names
                 else by_suite("phoenix") + by_suite("parsec"))
    table: Dict[str, Dict[str, Optional[float]]] = {}
    for workload in workloads:
        base = run_workload(workload, "native", size=size, threads=threads,
                            config=FIG7_CONFIG)
        row: Dict[str, Optional[float]] = {}
        for label, kwargs in OPT_VARIANTS.items():
            r = run_workload(workload, "sgxbounds", size=size,
                             threads=threads, config=FIG7_CONFIG,
                             scheme_kwargs=kwargs)
            if r.result != base.result:
                raise AssertionError(f"{workload.name}/{label}: result "
                                     f"mismatch vs native")
            row[label] = r.cycles / base.cycles if r.ok and base.ok else None
        table[workload.name] = row
    text = report.overhead_table(
        f"Figure 10: SGXBounds overhead vs native SGX per optimization "
        f"(size {size})", table, list(OPT_VARIANTS))
    return table, text


# ---------------------------------------------------------------------------
def tab4_ripe() -> Tuple[Dict, str]:
    """Table 4: RIPE — attacks prevented per scheme."""
    from repro.workloads import ripe
    factories = {name: (lambda f=factory: f()) for name, factory in
                 [("native", lambda: None)] +
                 [(n, SCHEMES[n]) for n in ("mpx", "asan", "sgxbounds")]}
    table = ripe.ripe_table(factories)
    rows = []
    for scheme in ("mpx", "asan", "sgxbounds"):
        prevented = ripe.prevented_count(table[scheme])
        missing = sorted(a for a, o in table[scheme].items()
                         if o != ripe.PREVENTED and
                         table["native"][a] == ripe.SUCCEEDED)
        note = ("except in-struct overflows"
                if all(m.startswith("instruct") or "laundered" not in m
                       for m in missing) and prevented == 8
                else "misses laundered + in-struct attacks")
        rows.append([scheme, f"{prevented}/16", note])
    text = report.series_table("Table 4: RIPE security benchmark",
                               ["approach", "prevented", "notes"], rows)
    return table, text


# ---------------------------------------------------------------------------
def fig11_spec_sgx(size: str = "XS",
                   schemes: Sequence[str] = DEFAULT_SCHEMES
                   ) -> Tuple[Dict, str]:
    """Figure 11: SPEC inside the enclave — perf and memory."""
    results = sweep(by_suite("spec"), schemes=schemes, size=size,
                    threads=1, config=SPEC_CONFIG)
    perf = overhead(results, metric="cycles")
    mem = overhead(results, metric="peak_reserved")
    text = (report.overhead_table(
        f"Figure 11 (top): SPEC in-enclave performance overhead "
        f"(size {size})", perf, schemes)
        + "\n\n" + report.overhead_table(
        "Figure 11 (bottom): SPEC in-enclave memory overhead", mem, schemes))
    return {"perf": perf, "mem": mem}, text


def fig12_spec_native(size: str = "XS",
                      schemes: Sequence[str] = DEFAULT_SCHEMES
                      ) -> Tuple[Dict, str]:
    """Figure 12: SPEC outside the enclave (unconstrained memory)."""
    results = sweep(by_suite("spec"), schemes=schemes, size=size,
                    threads=1, config=SPEC_CONFIG.outside_sgx())
    perf = overhead(results, metric="cycles")
    text = report.overhead_table(
        f"Figure 12: SPEC outside the enclave, performance overhead "
        f"(size {size})", perf, schemes)
    return {"perf": perf}, text


# ---------------------------------------------------------------------------
_APP_TABLE = {
    "memcached": (memcached, False),
    "apache": (apache, True),     # multi-threaded: one conn per worker
    "nginx": (nginx, False),
}


def fig13_case_studies(n: str = "S", clients: Sequence[int] = (1, 2, 4),
                       schemes: Sequence[str] = DEFAULT_SCHEMES
                       ) -> Tuple[Dict, str]:
    """Figure 13: server case studies — throughput/latency + peak memory."""
    chunks = []
    data: Dict[str, Dict] = {}
    mem_rows = []
    for app_name, (mod, threaded) in _APP_TABLE.items():
        rows = []
        data[app_name] = {}
        for scheme in schemes:
            best_tput = 0.0
            best_mem = 0
            for nclients in (clients if threaded else clients[:1]):
                count = mod.SIZES[n]
                requests = mod.workload(count)
                if threaded:
                    per = count // nclients
                    by_conn = [requests[i * per:(i + 1) * per]
                               for i in range(nclients)]
                    threads = nclients
                else:
                    by_conn = [requests]
                    threads = 1
                r = run_server(mod.SOURCE, by_conn, scheme, count,
                               threads=threads, config=APP_CONFIG,
                               name=app_name)
                served = r.result if r.ok else 0
                tput = served / r.cycles * 1e6 if r.ok and r.cycles else 0.0
                latency = r.cycles / served / 1000 if served else None
                rows.append([scheme, nclients, None if not r.ok else tput,
                             latency, r.crashed or "ok"])
                if tput > best_tput:
                    best_tput = tput
                    best_mem = r.peak_reserved
            mem_rows.append([app_name, scheme, best_mem / 1024.0])
            data[app_name][scheme] = (best_tput, best_mem)
        chunks.append(report.series_table(
            f"Figure 13 ({app_name}): throughput (req/Mcycle) and latency "
            f"(kcycles/req)", ["scheme", "clients", "tput", "latency",
                               "status"], rows))
    chunks.append(report.series_table(
        "Figure 13 (right): memory usage (KiB) at peak throughput",
        ["app", "scheme", "KiB"], mem_rows))
    return data, "\n\n".join(chunks)


# ---------------------------------------------------------------------------
def fleet_availability(app: str = "memcached", workers: int = 4,
                       fault_rate: float = 0.2, seed: int = 1234,
                       size: str = "XS", scheme: str = "sgxbounds",
                       policies: Sequence[str] = ("abort", "drop-request",
                                                  "boundless"),
                       rewarm_scales: Sequence[float] = (1.0, 8.0),
                       balance: str = "round-robin") -> Tuple[Dict, str]:
    """Fleet availability: policies x restart cost over a worker fleet.

    The §6.4 argument at fleet scale: fail-stop pays an enclave cold
    start (rebuild + re-attestation + EPC re-warm) per detected
    violation, and the rewarm sweep shows the availability gap growing
    with the state a crash throws away.  One seeded campaign per cell;
    rows are keyed ``(policy, rewarm_scale)``.
    """
    from repro.fleet import CampaignConfig, run_campaign
    data: Dict[Tuple[str, float], Dict] = {}
    rows = []
    for scale in rewarm_scales:
        for policy in policies:
            cfg = CampaignConfig(app=app, scheme=scheme, policy=policy,
                                 workers=workers, fault_rate=fault_rate,
                                 seed=seed, size=size, rewarm_scale=scale,
                                 balance=balance)
            r = run_campaign(cfg)
            slo = r.slo
            sup = r.supervisor
            data[(policy, scale)] = r.as_dict()
            rows.append([
                policy, scale, slo["availability"], slo["served"],
                slo["error_replies"], slo["failed"], r.crashes,
                sup["restarts"], sup["deaths"],
                sup["restart_cycles"] / 1000.0, r.breaker_opens,
                (slo["latency_p50_cycles"] or 0) / 1000.0,
                (slo["latency_p99_cycles"] or 0) / 1000.0,
            ])
    text = report.fleet_table(
        f"Fleet availability ({app}): {workers} workers, "
        f"fault rate {fault_rate}, policy x EPC re-warm scale", rows)
    return data, text


def fleet_postmortem(app: str = "memcached", policy: str = "abort",
                     workers: int = 4, fault_rate: float = 0.2,
                     seed: int = 1234, size: str = "XS",
                     balance: str = "round-robin") -> Tuple[Dict, str]:
    """Seeded crash forensics: one fleet chaos campaign (abort policy by
    default, so faults crash workers) with a flight recorder attached.

    The report is the campaign summary, the alert tally and the first
    postmortem; ``data`` keeps the campaign result and the recorder.
    """
    from repro import forensics as forensics_mod
    from repro.fleet import CampaignConfig, run_campaign
    forensics = forensics_mod.Forensics()
    config = CampaignConfig(app=app, scheme="sgxbounds", policy=policy,
                            workers=workers, fault_rate=fault_rate,
                            seed=seed, size=size, balance=balance)
    result = run_campaign(config, forensics=forensics)
    summary = forensics.summary()
    slo = result.slo
    alerts = summary["alerts"]
    by_detector = "".join(
        f" {name}={count}"
        for name, count in sorted(alerts["by_detector"].items()))
    lines = [
        f"== postmortem {app} (scheme={config.scheme} "
        f"policy={config.policy} seed={config.seed} "
        f"fault_rate={config.fault_rate}) ==",
        f"campaign: ticks={result.ticks} crashes={result.crashes} "
        f"watchdog_kills={result.watchdog_kills} "
        f"submitted={slo['submitted']} served={slo['served']} "
        f"failed={slo['failed']}",
        f"flight recorder: {summary['events_recorded']} events "
        f"({summary['events_retained']} retained, "
        f"{summary['events_dropped']} dropped)",
        f"alerts: total={alerts['total']}{by_detector}",
        f"postmortems: {summary['postmortems']} captured, "
        f"{summary['postmortems_dropped']} dropped",
    ]
    if forensics.postmortems:
        lines += ["", forensics_mod.render_postmortem(
            forensics.postmortems[0])]
    return {"app": app, "result": result,
            "forensics": forensics}, "\n".join(lines)


# ---------------------------------------------------------------------------
def recovery_rpo(app: str = "memcached", workers: int = 2,
                 fault_rate: float = 0.25, seed: int = 77,
                 size: str = "XS", scheme: str = "sgxbounds",
                 policies: Sequence[str] = ("abort", "drop-request",
                                            "boundless"),
                 modes: Sequence[str] = ("restart-fresh", "snapshot",
                                         "snapshot+wal", "replica"),
                 intervals: Sequence[int] = (5, 40)) -> Tuple[Dict, str]:
    """Stateful recovery: RPO/RTO across policies x modes x intervals.

    Write-heavy campaigns (every other memcached request is a SET) where
    each crash destroys enclave state.  The sweep quantifies the recovery
    ladder: ``restart-fresh`` loses every acknowledged write, ``snapshot``
    loses up to one checkpoint interval (so RPO grows with the interval),
    ``snapshot+wal`` replays the committed tail for RPO = 0, and
    ``replica`` additionally survives crash-loop deaths by promoting the
    warm standby.  RTO is honest: unseal + restore + replay cycles
    stretch the restart window.  ``crash_loop_k=2`` so deaths (and thus
    failover) actually occur within XS campaigns; rows are keyed
    ``(policy, mode, interval)`` and the interval sweep only applies to
    checkpointing modes.  The default intervals bracket the tradeoff:
    the tight one seals a checkpoint before the first fault lands (so
    restarts exercise unseal + restore), the loose one leaves a long
    lossable tail and lets crash loops run to death (exercising
    failover).
    """
    from repro.fleet import CampaignConfig, run_campaign
    data: Dict[Tuple[str, str, int], Dict] = {}
    rows = []
    for policy in policies:
        for mode in modes:
            snapshotting = mode in ("snapshot", "snapshot+wal", "replica")
            for interval in (intervals if snapshotting else intervals[:1]):
                cfg = CampaignConfig(
                    app=app, scheme=scheme, policy=policy, workers=workers,
                    fault_rate=fault_rate, seed=seed, size=size,
                    workload_kwargs=(("set_every", 2),),
                    crash_loop_k=2, crash_loop_window=200,
                    recovery=mode, checkpoint_interval=interval)
                r = run_campaign(cfg)
                rec = r.recovery
                slo = r.slo
                sup = r.supervisor
                data[(policy, mode, interval)] = r.as_dict()
                rows.append([
                    policy, mode, interval, slo["availability"],
                    slo["served"], r.crashes, sup["deaths"],
                    rec["rpo"]["lost_acked_total"],
                    rec["rpo"]["lost_acked_max"],
                    rec["rto"]["mean_ticks"],
                    rec["checkpoints"]["count"],
                    rec["checkpoints"]["replayed"],
                    rec.get("replica", {}).get("promotions", 0),
                    (rec["sealing"]["seal_cycles"]
                     + rec["sealing"]["unseal_cycles"]) / 1000.0,
                    "clean" if rec["audit"]["clean"] else "DIRTY",
                ])
    text = report.series_table(
        f"Stateful recovery ({app}): {workers} workers, fault rate "
        f"{fault_rate}, policy x recovery mode x checkpoint interval",
        ["policy", "mode", "interval", "avail", "served", "crashes",
         "deaths", "rpo_tot", "rpo_max", "rto_mean", "ckpts", "replayed",
         "promoted", "seal_kcyc", "audit"], rows)
    return data, text


# ---------------------------------------------------------------------------
def overload_goodput(app: str = "memcached", workers: int = 3,
                     fault_rate: float = 0.1, seed: int = 1234,
                     size: str = "S",
                     schemes: Sequence[str] = ("sgxbounds", "asan"),
                     rates: Sequence[int] = (1, 2, 4, 8),
                     modes: Sequence[str] = ("naive", "protected"),
                     deadline_ticks: int = 20,
                     policy: str = "drop-request",
                     burst: Sequence[int] = (20, 50, 8),
                     burst_size: str = "M",
                     burst_rate: int = 2) -> Tuple[Dict, str]:
    """Overload protection: goodput across arrival rate x scheme x policy.

    Two sweeps over the same fleet.  The **saturation sweep** ramps the
    arrival rate past capacity under two client/ingress policies:
    ``naive`` (unbounded retry of every timeout, no admission control —
    expired requests are abandoned in place and still consume enclave
    cycles) and ``protected`` (deadline-aware admission at the ingress
    queues, brownout shedding of low priority classes, budgeted client
    retries).  Goodput is *timely serves per tick*, end-to-end from the
    first client attempt.  Past saturation the naive fleet collapses —
    every serve is a late serve — while the protected fleet rejects the
    excess up front and sustains near-peak goodput, with the critical
    class shielded by class-scaled deadline headroom.

    The **metastable sweep** runs a flash-crowd burst (``burst`` =
    (start_tick, end_tick, extra_rate)) at a sustainable base rate:
    naive goodput stays collapsed long after the trigger ends (retry
    storm + zombie requests keep the overload alive — a metastable
    failure), protected sheds through the burst and recovers.  Rows are
    keyed ``(scheme, mode, rate)`` and ``("metastable", scheme, mode)``.
    """
    from repro.fleet import CampaignConfig, run_campaign
    data: Dict[Tuple, Dict] = {}
    rows = []
    for scheme in schemes:
        for mode in modes:
            for rate in rates:
                cfg = CampaignConfig(
                    app=app, scheme=scheme, policy=policy, workers=workers,
                    fault_rate=fault_rate, seed=seed, size=size,
                    arrivals_per_tick=rate, deadline_ticks=deadline_ticks,
                    overload=mode, max_ticks=2_000)
                r = run_campaign(cfg)
                data[(scheme, mode, rate)] = r.as_dict()
                rows.append(_overload_row(scheme, mode, rate, r))
    chunks = [report.overload_table(
        f"Overload goodput ({app}): {workers} workers, fault rate "
        f"{fault_rate}, deadline {deadline_ticks} ticks, "
        f"scheme x client/ingress policy x arrival rate", rows)]

    meta_rows = []
    for scheme in schemes:
        for mode in modes:
            cfg = CampaignConfig(
                app=app, scheme=scheme, policy=policy, workers=workers,
                fault_rate=fault_rate, seed=seed, size=burst_size,
                arrivals_per_tick=burst_rate, deadline_ticks=deadline_ticks,
                overload=mode, burst=tuple(burst), max_ticks=2_000)
            r = run_campaign(cfg)
            data[("metastable", scheme, mode)] = r.as_dict()
            ov = r.slo["overload"]
            crit = ov["by_class"]["critical"]
            timeline = ",".join(str(n) for n in ov["goodput_timeline"])
            meta_rows.append([
                scheme, mode, r.ticks, ov["timely"] / r.ticks,
                ov["timely"], ov["rejected"],
                f"{crit['timely']}/{crit['submitted']}", timeline])
    chunks.append(report.series_table(
        f"Metastable flash crowd ({app}, size {burst_size}): base rate "
        f"{burst_rate} + {burst[2]}/tick during ticks "
        f"[{burst[0]}, {burst[1]}), timely serves per 20-tick window",
        ["scheme", "mode", "ticks", "goodput", "timely", "rejected",
         "crit_timely", "timeline"], meta_rows))
    return data, "\n\n".join(chunks)


def _overload_row(scheme: str, mode: str, rate: int, r) -> list:
    """One saturation-sweep row (shared with the goodput benchmark)."""
    slo = r.slo
    ov = slo["overload"]
    crit = ov["by_class"]["critical"]
    client = (r.overload or {}).get("client", {})
    return [
        scheme, mode, rate, r.ticks, ov["timely"] / r.ticks,
        ov["timely"], slo["served"], ov["rejected"], slo["failed"],
        client.get("retries", 0),
        f"{crit['timely']}/{crit['submitted']}",
        (slo["latency_p99_cycles"] or 0) / 1000.0,
    ]


# ---------------------------------------------------------------------------
def tab1_defenses() -> Tuple[Dict, str]:
    """Table 1: the defense-classification table (static)."""
    return {}, report.DEFENSE_TABLE


# ---------------------------------------------------------------------------
def profile_targets() -> Dict[str, Tuple[List[Workload], EnclaveConfig]]:
    """Workload set + enclave config per profilable experiment id.

    The telemetry profiler (``python -m repro profile <id>``) re-runs the
    experiment's workloads under each scheme with per-function attribution
    enabled; this mapping keeps its machine regimes identical to the
    figures they explain.
    """
    return {
        "fig1": ([_sqlite_workload()], FIG1_CONFIG),
        "fig7": (by_suite("phoenix") + by_suite("parsec"), FIG7_CONFIG),
        "fig8": ([get("kmeans"), get("matrix_multiply")], FIG8_CONFIG),
        "fig11": (by_suite("spec"), SPEC_CONFIG),
        "fig12": (by_suite("spec"), SPEC_CONFIG.outside_sgx()),
    }
