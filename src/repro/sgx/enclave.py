"""The simulated SGX enclave: address space + cache hierarchy + EPC + costs.

An :class:`Enclave` is the "machine" a shielded program runs on.  It owns
the 32-bit address space (starting at 0x0, as SGXBounds requires — paper
§5.1), installs a tracer that charges every data access through the cache
and EPC models, and reports the paper's two headline metrics: cycles
(performance) and peak reserved virtual memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.memory.address_space import AddressSpace, PERM_GUARD
from repro.memory.allocator import FreeListAllocator
from repro.memory.layout import GUARD_PAGE_BASE, PAGE_SHIFT, PAGE_SIZE
from repro.sgx.cache import CacheHierarchy
from repro.sgx.counters import CostModel, PerfCounters
from repro.sgx.epc import EPC


@dataclass(frozen=True)
class ColdStartModel:
    """Cycle cost of bringing a crashed enclave back to service.

    Fail-stop is not one lost request: the replacement enclave must be
    rebuilt (ECREATE/EADD/EEXTEND/EINIT measurement over every page),
    re-attested to the clients, and — the dominant, workload-dependent
    term — its working set re-faulted into a cold EPC page by page.  The
    per-page term reuses the EPC-fault scale of :class:`CostModel`
    (eviction + re-encryption + reload), so restart cost grows with the
    working set the crash threw away.
    """

    build_cycles: int = 120_000        # ECREATE/EADD/EEXTEND/EINIT
    attestation_cycles: int = 60_000   # quote + verification round-trip
    epc_rewarm_cycles_per_page: int = 30_000   # re-fault one working-set page
    #: Multiplier on the EPC re-warm term — the knob the fleet experiment
    #: sweeps to show fail-stop's availability gap growing with state.
    rewarm_scale: float = 1.0

    def restart_cycles(self, working_set_pages: int) -> int:
        """Simulated cycles to rebuild, re-attest, and re-warm."""
        rewarm = int(max(0, working_set_pages)
                     * self.epc_rewarm_cycles_per_page * self.rewarm_scale)
        return self.build_cycles + self.attestation_cycles + rewarm

    def scaled(self, rewarm_scale: float) -> "ColdStartModel":
        """The same model with the EPC re-warm term scaled."""
        return replace(self, rewarm_scale=rewarm_scale)


@dataclass(frozen=True)
class EnclaveConfig:
    """Machine parameters.

    The simulation runs at roughly 1/1000 the scale of the paper's testbed
    (working sets of tens of KiB to a few MiB instead of tens of MiB to
    GiB), so cache and EPC sizes are scaled the same way; the *ratios*
    between working set, caches and EPC are what reproduce the paper's
    crossover behaviour.
    """

    l1_bytes: int = 16 * 1024
    llc_bytes: int = 256 * 1024
    epc_bytes: int = 4 * 1024 * 1024
    enclave: bool = True          # False = unconstrained (Fig. 12 mode)
    #: Committed-memory budget (0 = unlimited); metadata blow-ups past this
    #: raise OutOfMemory, reproducing MPX's in-enclave crashes.
    commit_limit_bytes: int = 0
    cost: CostModel = field(default_factory=CostModel)
    #: Crash-restart pricing (used by the fleet supervisor; never charged
    #: on single-run paths).
    cold_start: ColdStartModel = field(default_factory=ColdStartModel)

    def outside_sgx(self) -> "EnclaveConfig":
        """The same machine without EPC/MEE constraints (Fig. 12)."""
        return replace(self, enclave=False)

    def with_epc(self, epc_bytes: int) -> "EnclaveConfig":
        return replace(self, epc_bytes=epc_bytes)


class Enclave:
    """One shielded execution environment."""

    def __init__(self, config: Optional[EnclaveConfig] = None):
        self.config = config or EnclaveConfig()
        self.space = AddressSpace(
            commit_limit=self.config.commit_limit_bytes
            if self.config.enclave else 0)
        self.heap = FreeListAllocator(self.space)
        self.caches = CacheHierarchy(self.config.l1_bytes, self.config.llc_bytes)
        self.epc = EPC(self.config.epc_bytes) if self.config.enclave else None
        self.counters = PerfCounters()
        #: Telemetry publishing the final cache/EPC gauges (set by
        #: ``Telemetry.attach_vm``); None by default.
        self.telemetry = None
        #: Event hub for EPC faults and flushes; installed via
        #: :meth:`attach_events` so the default trace path stays free of
        #: observer code entirely.
        self.events = None
        # The unaddressable last page (paper §4.4) protects hoisted checks.
        self.space.map(GUARD_PAGE_BASE, PAGE_SIZE, PERM_GUARD, "guard")
        self.space.tracer = self._trace

    def attach_events(self, events) -> None:
        """Swap in the observed trace hook (EPC fault and flush events;
        counters unchanged)."""
        self.events = events
        self.space.tracer = self._trace_observed
        if self.epc is not None:
            self.epc.events = events

    # ------------------------------------------------------------------
    def _trace(self, address: int, size: int, is_write: bool) -> None:
        counters = self.counters
        if is_write:
            counters.stores += 1
        else:
            counters.loads += 1
        depth = self.caches.access(address, size, counters)
        if depth == 2 and self.epc is not None:
            counters.mee_decrypts += 1
            if self.epc.touch(address >> PAGE_SHIFT):
                counters.epc_faults += 1

    def _trace_observed(self, address: int, size: int,
                        is_write: bool) -> None:
        """The same accounting as :meth:`_trace`, plus an ``epc_fault``
        event per fault.  Charges identical counters."""
        counters = self.counters
        if is_write:
            counters.stores += 1
        else:
            counters.loads += 1
        depth = self.caches.access(address, size, counters)
        if depth == 2 and self.epc is not None:
            counters.mee_decrypts += 1
            if self.epc.touch(address >> PAGE_SHIFT):
                counters.epc_faults += 1
                self.events.emit("epc_fault", counters.instructions,
                                 page=address >> PAGE_SHIFT,
                                 resident=self.epc.resident_pages)

    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """Memory, allocators, caches, EPC and counters, by value."""
        return (self.space.snapshot(), self.heap.snapshot(),
                self.caches.snapshot(),
                self.epc.snapshot() if self.epc is not None else None,
                self.counters.snapshot())

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot`.  Every object keeps its
        identity, so the trace hook and the VM's predecoded handlers stay
        bound to live state."""
        space, heap, caches, epc, counters = state
        self.space.restore(space)
        self.heap.restore(heap)
        self.caches.restore(caches)
        if self.epc is not None:
            self.epc.restore(epc)
        self.counters.restore(counters)

    def cycles(self) -> int:
        """Total cycles implied by the counters under this cost model."""
        return self.config.cost.cycles_for(self.counters, self.config.enclave)

    def finalize(self) -> PerfCounters:
        """Freeze the cycle total into the counters and return them."""
        self.counters.cycles = self.cycles()
        if self.telemetry is not None:
            self.telemetry.collect_counters(self.counters.snapshot())
            registry = self.telemetry.registry
            for name, value in self.caches.stats().items():
                registry.gauge(f"cache.{name}").set(value)
            if self.epc is not None:
                registry.gauge("epc.peak_resident").set(
                    self.epc.peak_resident)
                registry.gauge("epc.pages_touched").set(
                    len(self.epc.pages_touched))
        return self.counters

    def working_set_pages(self) -> int:
        """Pages a restarted replacement would have to re-warm.

        The EPC peak-resident count is the working set the cost model
        actually priced; outside SGX (no EPC) fall back to materialized
        pages of the address space.
        """
        if self.epc is not None:
            return max(1, self.epc.peak_resident)
        return max(1, self.space.stats()["materialized_pages"])

    def cold_start_cycles(self, model: Optional[ColdStartModel] = None) -> int:
        """Restart cost for *this* enclave's working set (fleet restarts)."""
        model = model or self.config.cold_start
        return model.restart_cycles(self.working_set_pages())

    def memory_report(self) -> Dict[str, int]:
        """Virtual-memory metrics, the paper's memory-overhead measure."""
        stats = self.space.stats()
        report = {
            "peak_reserved_bytes": stats["peak_reserved"],
            "reserved_bytes": stats["reserved_bytes"],
            "materialized_bytes": stats["materialized_pages"] * PAGE_SIZE,
            "heap_bytes": self.heap.heap_bytes(),
        }
        if self.epc is not None:
            report["epc_capacity_pages"] = self.epc.capacity_pages
            report["epc_peak_resident"] = self.epc.peak_resident
            report["epc_pages_touched"] = len(self.epc.pages_touched)
        return report
