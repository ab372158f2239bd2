"""Workload runner: compile → instrument → execute → collect metrics.

One :class:`RunResult` per (workload, scheme, size, threads) cell, holding
the paper's two metrics (cycles, peak reserved virtual memory) plus the
diagnostic counters of Table 3 (LLC misses, EPC page faults, #BTs).
A run that dies with ``OutOfMemory`` is recorded as crashed — that is the
"missing MPX bar" in Figures 1 and 7, not an error in the harness.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import forensics as forensics_mod
from repro import telemetry as telemetry_mod
from repro.asan import ASanScheme
from repro.baggy import BaggyScheme
from repro.core import SGXBoundsScheme
from repro.errors import BoundsViolation, ReproError
from repro.minic import compile_source
from repro.mpx import MPXScheme
from repro.sgx import EnclaveConfig
from repro.vm import VM
from repro.vm.machine import build_vm, report_crash
from repro.vm.scheme import SchemeRuntime
from repro.workloads import NetworkSim, Workload
from repro.workloads.registry import DEFAULT_SIZE

#: Scheme factories by registry name; kwargs forwarded to the constructor.
SCHEMES: Dict[str, Callable[..., Optional[SchemeRuntime]]] = {
    "native": lambda **kw: None,
    "sgxbounds": SGXBoundsScheme,
    "asan": ASanScheme,
    "mpx": MPXScheme,
    "baggy": BaggyScheme,      # §2.2 extension baseline (heap protection)
}

DEFAULT_SCHEMES = ("native", "sgxbounds", "asan", "mpx")

#: The scheme every overhead ratio divides by.
BASELINE = "native"

#: Instruction budget of one suite workload run.
WORKLOAD_MAX_INSTRUCTIONS = 500_000_000


class RunResult:
    """Metrics from one execution."""

    def __init__(self, workload: str, scheme: str, size: str, threads: int):
        self.workload = workload
        self.scheme = scheme
        self.size = size
        self.threads = threads
        self.result: Optional[int] = None
        self.crashed: Optional[str] = None     # "OOM" or exception name
        self.cycles = 0
        self.counters: Dict[str, int] = {}
        self.peak_reserved = 0
        self.scheme_report: Dict[str, int] = {}
        self.output = ""
        #: Structured context of the violation that killed the run (if any).
        self.violation: Optional[Dict] = None
        #: Resilience accounting for chaos runs (recoveries, net stats,
        #: injected faults); empty for plain runs.
        self.resilience: Dict[str, object] = {}

    @property
    def ok(self) -> bool:
        return self.crashed is None

    def __repr__(self) -> str:
        state = self.crashed or f"cycles={self.cycles}"
        return (f"RunResult({self.workload}/{self.scheme}/{self.size} "
                f"{state})")


def _finish(result: RunResult, vm: VM,
            scheme: Optional[SchemeRuntime]) -> RunResult:
    counters = vm.enclave.finalize()
    if vm.telemetry is not None and vm.fastpath_stats:
        vm.telemetry.fastpath_hits(vm.fastpath_stats)
    result.cycles = counters.cycles
    result.counters = counters.snapshot()
    result.peak_reserved = vm.enclave.memory_report()["peak_reserved_bytes"]
    if scheme is not None:
        result.scheme_report = scheme.memory_overhead_report(vm)
    result.output = vm.output()
    return result


def default_sinks(telemetry=None, forensics=None) -> Tuple:
    """``(telemetry, forensics)``, each falling back to the process-wide
    default that the CLI's artifact flags set (normally None)."""
    return (telemetry if telemetry is not None
            else telemetry_mod.get_default(),
            forensics if forensics is not None
            else forensics_mod.get_default())


def make_scheme(scheme_name: str, scheme_kwargs: Optional[Dict] = None,
                policy: Optional[str] = None) -> Optional[SchemeRuntime]:
    """A fresh runtime for a registered scheme (None for native);
    ``policy``, when given, is the default violation policy."""
    kwargs = dict(scheme_kwargs or {})
    if policy is not None:
        kwargs.setdefault("policy", policy)
    return SCHEMES[scheme_name](**kwargs)


def run_workload(workload: Workload, scheme_name: str,
                 size: Optional[str] = None, threads: Optional[int] = None,
                 config: Optional[EnclaveConfig] = None,
                 scheme_kwargs: Optional[Dict] = None,
                 telemetry=None, forensics=None) -> RunResult:
    """Run one registered suite workload under one scheme.

    ``telemetry`` attaches a :class:`repro.telemetry.Telemetry` and
    ``forensics`` a :class:`repro.forensics.Forensics`; when omitted, the
    process-wide defaults (set by CLI ``--trace-out`` / ``--metrics-out``
    / ``--log-out`` flags) apply, which are normally None.
    """
    size = size or DEFAULT_SIZE
    args = workload.args_for(size, threads)
    result = RunResult(workload.name, scheme_name, size, args[1])
    scheme = make_scheme(scheme_name, scheme_kwargs)
    telemetry, forensics = default_sinks(telemetry, forensics)
    vm, image = build_vm(
        compile_source(workload.source, workload.name), scheme, config,
        telemetry, forensics, max_instructions=WORKLOAD_MAX_INSTRUCTIONS)
    if vm.telemetry is not None:
        vm.telemetry.label_run(f"{workload.name}/{scheme_name}/{size}")
    try:
        vm.load(image)
        result.result = vm.run("main", args)
    except ReproError as err:
        result.crashed = report_crash(vm, err, vm.forensics)
    return _finish(result, vm, scheme)


def run_server(source: str, requests_by_conn: Sequence[Sequence[bytes]],
               scheme_name: str, n: int, threads: int = 1,
               config: Optional[EnclaveConfig] = None,
               scheme_kwargs: Optional[Dict] = None,
               name: str = "server", policy: Optional[str] = None,
               net: Optional[NetworkSim] = None, faults=None,
               seed: Optional[int] = None, telemetry=None,
               forensics=None) -> RunResult:
    """Run a network server app: requests pre-queued per connection.

    ``policy`` selects the violation policy for protected schemes;
    ``net`` substitutes a pre-configured :class:`NetworkSim` (retries,
    backoff, seed); ``faults`` attaches a
    :class:`repro.faults.FaultInjector`; ``seed`` perturbs the VM's
    thread scheduler.  All default to the exact original behaviour.
    Sinks default to the process-wide ones, as in :func:`run_workload`.
    """
    result = RunResult(name, scheme_name, "-", threads)
    scheme = make_scheme(scheme_name, scheme_kwargs, policy)
    telemetry, forensics = default_sinks(telemetry, forensics)
    vm, image = build_vm(compile_source(source, name), scheme, config,
                         telemetry, forensics, seed=seed)
    vm.load(image)
    vm.net = net if net is not None else NetworkSim()
    vm.faults = faults
    if vm.telemetry is not None:
        vm.telemetry.label_run(f"{name}/{scheme_name}")
        vm.net.telemetry = vm.telemetry
    vm.net.events = vm.events
    if vm.forensics is not None:
        vm.net.clock = (lambda v=vm: v.counters.instructions)
    for conn_requests in requests_by_conn:
        vm.net.connect(*conn_requests)
    try:
        result.result = vm.run("main", (n, threads))
    except ReproError as err:
        result.crashed = report_crash(vm, err, vm.forensics)
        if isinstance(err, BoundsViolation):
            result.violation = err.context()
    out = _finish(result, vm, scheme)
    out.net = vm.net
    if scheme is not None and scheme.violation_log and out.violation is None:
        out.violation = scheme.violation_log[0]
    out.resilience = {
        "dropped_requests": vm.dropped_requests,
        "recovered_requests": vm.recovered_requests,
        "violations": scheme.violations if scheme is not None else 0,
        "net": vm.net.stats(),
    }
    if faults is not None:
        out.resilience["faults"] = faults.stats()
    return out


def sweep(workloads: Sequence[Workload],
          schemes: Sequence[str] = DEFAULT_SCHEMES,
          size: Optional[str] = None, threads: Optional[int] = None,
          config: Optional[EnclaveConfig] = None) -> List[RunResult]:
    """Cartesian sweep of workloads x schemes (one size)."""
    return [run_workload(workload, scheme_name, size=size, threads=threads,
                         config=config)
            for workload in workloads for scheme_name in schemes]


def overhead(results: Sequence[RunResult], metric: str = "cycles"
             ) -> Dict[str, Dict[str, Optional[float]]]:
    """overhead[workload][scheme] = metric ratio vs :data:`BASELINE`.

    Crashed runs map to None (the paper's missing bars); verifies that
    instrumented runs computed the same result as the baseline.  Edge
    cases degrade with a warning instead of raising: an empty result
    sequence yields an empty table, and a zero-valued baseline metric
    yields ``float('nan')`` cells (a ratio against nothing is undefined,
    not a crash).
    """
    if not results:
        warnings.warn("overhead(): empty result sequence, returning an "
                      "empty table", stacklevel=2)
        return {}
    by_cell: Dict[str, Dict[str, RunResult]] = {}
    for r in results:
        by_cell.setdefault(f"{r.workload}:{r.size}:{r.threads}", {})[r.scheme] = r
    table: Dict[str, Dict[str, Optional[float]]] = {}
    for cell, per_scheme in by_cell.items():
        base = per_scheme.get(BASELINE)
        if base is None or not base.ok:
            continue
        row: Dict[str, Optional[float]] = {}
        for scheme_name, r in per_scheme.items():
            if not r.ok:
                row[scheme_name] = None
                continue
            if r.result != base.result and scheme_name != BASELINE:
                raise AssertionError(
                    f"{cell}: {scheme_name} computed {r.result}, "
                    f"native computed {base.result}")
            base_value = getattr(base, metric)
            value = getattr(r, metric)
            if not base_value:
                warnings.warn(
                    f"overhead(): {cell} has a zero-{metric} baseline; "
                    f"ratio is undefined (nan)", stacklevel=2)
                row[scheme_name] = float("nan")
            else:
                row[scheme_name] = value / base_value
        table[cell.split(":")[0]] = row
    return table


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, the paper's cross-benchmark aggregate.

    None, NaN and non-positive entries are skipped (crashed bars and
    undefined ratios); with nothing left the mean itself is ``nan``,
    reported with a warning instead of a ZeroDivision/Statistics error.
    """
    clean = [v for v in values if v is not None and v > 0 and v == v]
    if not clean:
        warnings.warn("geomean(): no positive finite values to aggregate; "
                      "returning nan", stacklevel=2)
        return float("nan")
    product = 1.0
    for v in clean:
        product *= v
    return product ** (1.0 / len(clean))
