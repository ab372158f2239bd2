"""Performance counters for the simulated machine.

These are the events the paper's analysis is phrased in: retired
instructions, branches, cache accesses/misses, EPC page faults (Table 3,
§6.2, §6.3).  The cycle total is a weighted sum computed by the enclave's
cost model, so "runtime" comparisons between schemes are reproducible and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass
class PerfCounters:
    """Mutable event counters; one instance per program execution."""

    instructions: int = 0
    branches: int = 0
    calls: int = 0
    loads: int = 0
    stores: int = 0
    l1_accesses: int = 0
    l1_misses: int = 0
    llc_misses: int = 0
    epc_faults: int = 0
    mee_decrypts: int = 0
    bounds_checks: int = 0
    checks_elided: int = 0
    checks_hoisted: int = 0
    boundless_hits: int = 0
    boundless_allocs: int = 0
    cycles: int = 0

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy, e.g. for reports."""
        return {name: getattr(self, name) for name in COUNTER_FIELDS}

    def add(self, other: "PerfCounters") -> None:
        """Accumulate another counter set into this one."""
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def reset(self) -> None:
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)

    def restore(self, values: Dict[str, int]) -> None:
        """Set every counter from a :meth:`snapshot`."""
        for name, value in values.items():
            setattr(self, name, value)


#: Field names precomputed once: ``dataclasses.fields()`` rebuilds a tuple
#: of Field objects per call, which showed up in profiles of snapshot-heavy
#: paths (per-segment telemetry attribution, harness sweeps).
COUNTER_FIELDS = tuple(f.name for f in fields(PerfCounters))


@dataclass
class CostModel:
    """Cycle weights for each event class.

    Defaults approximate the relative costs the paper reports (Fig. 2):
    on-die hits are cheap, DRAM is ~100 cycles, an enclave LLC miss pays an
    extra MEE decrypt, and an EPC page fault (evict + re-encrypt + reload)
    costs tens of thousands of cycles — which is what makes metadata-heavy
    schemes collapse once their working set outgrows the EPC.
    """

    instruction: int = 1
    #: Extra cost per branch. Instrumentation branches are almost always
    #: perfectly predicted (checks pass), so the default models them as
    #: folded into the pipeline; raise it to study misprediction effects.
    branch: int = 0
    l1_hit: int = 1
    llc_hit: int = 12
    dram: int = 120
    mee_decrypt: int = 100    # extra per enclave LLC miss
    epc_fault: int = 30_000   # page eviction + re-encryption + reload

    def cycles_for(self, counters: PerfCounters, enclave: bool) -> int:
        """Total cycles implied by ``counters`` under this cost model."""
        memory_ops = counters.loads + counters.stores
        l1_hits = counters.l1_accesses - counters.l1_misses
        llc_hits = counters.l1_misses - counters.llc_misses
        cycles = (
            counters.instructions * self.instruction
            + counters.branches * self.branch
            + l1_hits * self.l1_hit
            + llc_hits * self.llc_hit
            + counters.llc_misses * self.dram
            + counters.epc_faults * self.epc_fault
        )
        if enclave:
            cycles += counters.llc_misses * self.mee_decrypt
        # Accesses not going through the cache model (bulk libc ops) still
        # pay the L1 hit cost per op.
        cycles += max(0, memory_ops - counters.l1_accesses) * self.l1_hit
        return cycles
