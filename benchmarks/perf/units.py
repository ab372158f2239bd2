"""The benchmark's five workloads, each a fixed list of units.

A unit is one cell (a program under one scheme), one fleet campaign, or
one corpus program built under every scheme.  Each unit has three steps:

* ``setup(rec)`` — compile, instrument, finalize, ``VM()``, load and
  eager predecode (timed as set-up);
* ``run(state, rec)`` — ``VM.run`` or ``run_campaign`` (timed as the
  run; corpus units run nothing);
* ``finish(state, raw)`` — untimed: the unit's oracles, its simulated
  digest and its exact counts, as an :class:`Outcome`.

``rec.call(name, fn, *args, **kwargs)`` wraps every call into the
program and ``rec.unit(name)`` each unit, so that the traced run can
record spans; the timed run passes :data:`UNTRACED`, which records
nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.errors import IRVerifyError  # noqa: E402
from repro.faults import derive  # noqa: E402
from repro.fleet import (  # noqa: E402
    CampaignConfig,
    EnclaveWorker,
    run_campaign,
)
from repro.forensics import Forensics  # noqa: E402
from repro.harness.experiments import (  # noqa: E402
    APP_CONFIG,
    FIG1_CONFIG,
    FIG7_CONFIG,
)
from repro.harness.runner import SCHEMES  # noqa: E402
from repro.ir import verify_module  # noqa: E402
from repro.minic import compile_source  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.sgx import Enclave  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402
from repro.telemetry.results import to_jsonable  # noqa: E402
from repro.vm import VM  # noqa: E402
from repro.workloads import Workload, all_workloads, by_suite  # noqa: E402
from repro.workloads.apps import (  # noqa: E402
    apache,
    memcached,
    nginx,
    sqlite_kv,
    sqlite_server,
)
from tests.genprog import corpus  # noqa: E402

DEFAULT_SEED = 1234

#: Every scheme a corpus program is built under.
CORPUS_SCHEMES = ("native", "sgxbounds", "asan", "mpx", "baggy")

#: PerfCounters reported as ``sim.<name>`` by cells.
SIM_COUNTERS = ("instructions", "cycles", "l1_accesses", "llc_misses",
                "epc_faults", "bounds_checks")


class Outcome(NamedTuple):
    """What a unit produced, checked outside the timed region."""

    digest: str
    counts: Dict[str, int]
    failures: List[str]
    #: Compared across the schemes of one program (None: not compared).
    value: object = None


class _Untraced:
    """Recorder of the timed run: no spans, no profiling."""

    @staticmethod
    def unit(name: str):
        return contextlib.nullcontext()

    @staticmethod
    def call(name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)


UNTRACED = _Untraced()


def digest_of(payload) -> str:
    """SHA-256 of ``payload`` as canonical JSON."""
    text = json.dumps(to_jsonable(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _ir_size(module) -> int:
    return module.stats()["instructions"]


def _new_vm(config, scheme) -> VM:
    return VM(enclave=Enclave(config), scheme=scheme)


def _predecode(program, vm) -> None:
    """Predecode every function now, so none is left for the run."""
    for fn in program.functions.values():
        program.fast_for(fn, vm)


def _build(rec, module, scheme_name: str, config):
    """Instrument, finalize, construct, load and predecode one build,
    exactly as ``repro.harness.runner.run_workload`` builds a cell."""
    scheme = SCHEMES[scheme_name]()
    if scheme is not None:
        built = rec.call("instrument", scheme.instrument, module)
    else:
        built = rec.call("instrument", module.clone)
    rec.call("finalize", built.finalize)
    vm = rec.call("vm", _new_vm, config, scheme)
    program = rec.call("load", vm.load, built)
    rec.call("predecode", _predecode, program, vm)
    return built, vm


def _build_counts(module, built, vm) -> Dict[str, int]:
    return {
        "passes.ir_instrs_added": _ir_size(built) - _ir_size(module),
        "passes.checks_elided": built.meta.get("checks_elided", 0),
        "passes.checks_hoisted": built.meta.get("hoisted_accesses", 0),
        "vm.predecode.functions": len(vm.program.functions),
    }


def _add(total: Dict[str, int], counts: Dict[str, int]) -> None:
    for name, value in counts.items():
        total[name] = total.get(name, 0) + value


# ---------------------------------------------------------------------------
class Cell:
    """One registered program under one scheme, run to completion."""

    def __init__(self, workload: Workload, scheme: str, size: str,
                 threads: Optional[int], config):
        self.program = workload.name
        self.scheme = scheme
        self.name = f"{workload.name}/{scheme}"
        self.source = workload.source
        self.args = workload.args_for(size, threads)
        self.expected = workload.expected
        self.config = config

    def setup(self, rec):
        module = rec.call("compile", compile_source, self.source,
                          self.program)
        built, vm = _build(rec, module, self.scheme, self.config)
        return module, built, vm

    def run(self, state, rec):
        return rec.call("run", state[2].run, "main", self.args)

    def finish(self, state, result) -> Outcome:
        module, built, vm = state
        counters = vm.enclave.finalize().snapshot()
        output = vm.output()
        failures = []
        if self.expected is not None:
            want = self.expected(*self.args)
            if result != want:
                failures.append(f"result {result} != expected {want}")
        counts = _build_counts(module, built, vm)
        counts["minic.ir_instrs"] = _ir_size(module)
        counts.update({f"sim.{name}": counters[name]
                       for name in SIM_COUNTERS})
        return Outcome(digest_of([result, output, counters]), counts,
                       failures, value=(result, output))


class Campaign:
    """One seeded memcached fleet campaign.

    Set-up is one cold worker boot (compile + ``EnclaveWorker``, which
    instruments, finalizes, builds the VM and loads) plus predecode: the
    work each restart inside the campaign repeats.  The probe worker
    shares nothing with the campaign, which builds its own fleet.
    """

    def __init__(self, index: int, config: CampaignConfig, observed: bool):
        self.name = f"campaign{index}"
        self.config = config
        self.observed = observed

    def setup(self, rec):
        cfg = self.config
        module = rec.call("compile", compile_source, memcached.SOURCE,
                          cfg.app)
        worker = rec.call("worker_boot", EnclaveWorker, 0, module,
                          cfg.scheme, policy=cfg.policy, config=APP_CONFIG)
        rec.call("predecode", _predecode, worker.vm.program, worker.vm)
        handles = {}
        if self.observed:
            handles = {"telemetry": Telemetry(), "forensics": Forensics(),
                       "obs": Observability(seed=cfg.seed)}
        return module, worker, handles

    def run(self, state, rec):
        return rec.call("campaign", run_campaign, self.config, **state[2])

    def finish(self, state, result) -> Outcome:
        module, worker, _ = state
        slo = result.slo
        rejected = slo.get("overload", {}).get("rejected", 0)
        settled = (slo["served"] + slo["error_replies"] + slo["failed"]
                   + rejected)
        failures = []
        if slo["submitted"] != settled:
            failures.append(f"submitted {slo['submitted']} != served + "
                            f"errors + failed + rejected = {settled}")
        counts = {
            "minic.ir_instrs": _ir_size(module),
            "fleet.ticks": result.ticks,
            "fleet.restarts": result.supervisor["restarts"],
            "fleet.requests": slo["submitted"],
            # The tick loop only stops at max_ticks when the fleet never
            # drained: the fail-safe times out what is left as failed.
            "fleet.failsafe_campaigns": int(
                result.ticks >= self.config.max_ticks),
        }
        _add(counts, _build_counts(module, worker.vm.program.module,
                                   worker.vm))
        return Outcome(digest_of(result.as_dict()), counts, failures)


class CorpusProgram:
    """One source compiled once and built under every scheme."""

    def __init__(self, name: str, source: str):
        self.name = name
        self.source = source

    def setup(self, rec):
        module = rec.call("compile", compile_source, self.source, self.name)
        return module, [_build(rec, module, scheme, None)
                        for scheme in CORPUS_SCHEMES]

    def run(self, state, rec):
        return None

    def finish(self, state, _) -> Outcome:
        module, builds = state
        failures = []
        counts = {"minic.ir_instrs": _ir_size(module)}
        shape = []
        for scheme, (built, vm) in zip(CORPUS_SCHEMES, builds):
            try:
                verify_module(built)
            except IRVerifyError as err:
                failures.append(f"{scheme}: verify: {err}")
            _add(counts, _build_counts(module, built, vm))
            program = vm.program
            handlers = {name: len(program.fast_for(fn, vm).handlers)
                        for name, fn in program.functions.items()}
            shape.append([scheme, built.stats(), sorted(built.meta.items()),
                          handlers])
        return Outcome(digest_of(shape), counts, failures)


# ---------------------------------------------------------------------------
def _kernels(seed: int) -> List:
    # Fig. 7's inputs are fixed: the seed does not change them.
    return [Cell(w, scheme, "XS", 4, FIG7_CONFIG)
            for w in by_suite("phoenix") + by_suite("parsec")
            for scheme in ("native", "sgxbounds")]


def _sqlite_epc(seed: int) -> List:
    workload = Workload("sqlite", "apps", sqlite_kv.SOURCE,
                        sizes=sqlite_kv.SIZES, threads=1)
    return [Cell(workload, scheme, "L", None, FIG1_CONFIG)
            for scheme in ("native", "sgxbounds", "asan", "mpx")]


def _fleet_restart(seed: int) -> List:
    return [Campaign(k, CampaignConfig(
        app="memcached", scheme="sgxbounds", policy="abort", workers=4,
        fault_rate=0.2, seed=derive(seed, f"bench:{k}"), size="L"), False)
        for k in range(8)]


def _fleet_observed(seed: int) -> List:
    return [Campaign(k, CampaignConfig(
        app="memcached", scheme="sgxbounds", policy="drop-request",
        workers=3, fault_rate=0.1, seed=derive(seed, f"bench:{k}"),
        size="L", overload="protected", arrivals_per_tick=8,
        deadline_ticks=20, max_ticks=2_000), True)
        for k in range(8)]


def _compile_corpus(seed: int) -> List:
    sources = [(f"genprog{i}", source)
               for i, source in enumerate(corpus(seed, 60))]
    sources += [(w.name, w.source) for w in all_workloads()]
    sources += [(app.__name__.rsplit(".", 1)[1], app.SOURCE)
                for app in (apache, memcached, nginx, sqlite_kv,
                            sqlite_server)]
    return [CorpusProgram(name, source) for name, source in sources]


#: name -> unit-list factory taking the seed.
WORKLOADS: Dict[str, Callable[[int], List]] = {
    "kernels": _kernels,
    "sqlite_epc": _sqlite_epc,
    "fleet_restart": _fleet_restart,
    "fleet_observed": _fleet_observed,
    "compile_corpus": _compile_corpus,
}


def cross_check(units: List, outcomes: Dict[str, Outcome]
                ) -> List[Tuple[str, str]]:
    """Instrumented cells must compute what the native cell computed:
    ``(unit name, reason)`` for each that does not."""
    native = {u.program: outcomes[u.name].value for u in units
              if isinstance(u, Cell) and u.scheme == "native"
              and u.name in outcomes}
    failures = []
    for unit in units:
        if (isinstance(unit, Cell) and unit.scheme != "native"
                and unit.name in outcomes and unit.program in native
                and outcomes[unit.name].value != native[unit.program]):
            failures.append((unit.name, "result or stdout differs from "
                                        "the native cell"))
    return failures
