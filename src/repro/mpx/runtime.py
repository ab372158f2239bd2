"""Intel MPX runtime model, adapted for enclaves as in paper §5.2.

The mechanics that matter for the reproduction:

* bounds live with the *register* holding the pointer (the VM propagates
  them through MOV/GEP/calls, modelling bounds registers + compiler
  tracking);
* whenever a pointer travels through memory, its bounds travel through the
  Bounds Directory → Bounds Table structure *in simulated enclave memory*
  (``bndldx``/``bndstx``), costing real loads/stores — this is the traffic
  and footprint that melts MPX inside enclaves;
* Bounds Tables are allocated on demand.  In the paper the BT-allocation
  logic moves from the kernel into the enclave (§5.2); here it lives in
  this runtime, the same effect.  Each BT reserves 4x the address range it
  covers (32-byte entry per 8-byte pointer slot — the 64-bit-mode ratio),
  so pointer-dense workloads blow up exactly like SQLite/dedup in the
  paper, up to ``OutOfMemory`` against the enclave commit limit.

Scaling: the paper's 32-bit layout uses 4 MiB tables covering 1 MiB of
address space.  Our workloads run at roughly 1/4 scale of that, so the
default ``bt_cover_shift`` of 18 gives 1 MiB tables covering 256 KiB —
the same 4:1 ratio at simulation scale (configurable).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import BoundsViolation
from repro.memory.layout import ADDRESS_MASK
from repro.vm import policy as violation_policy
from repro.vm.scheme import SchemeRuntime

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.ir.module import Module
    from repro.vm.machine import VM

#: Bytes per bounds-table entry (lower, upper, reserved) — 64-bit layout.
BT_ENTRY_SIZE = 32
#: Bytes of pointer-slot granularity (one entry per 8-byte slot).
SLOT_SIZE = 8


class MPXScheme(SchemeRuntime):
    """Intel MPX-style protection."""

    name = "mpx"
    uses_register_bounds = True
    run_state = SchemeRuntime.run_state + (
        "bd_base", "bounds_tables", "_bt_cache")

    def __init__(self, optimize_safe: bool = True, bt_cover_shift: int = 18,
                 policy: str = violation_policy.ABORT):
        super().__init__(policy=policy)
        self.optimize_safe = optimize_safe
        self.bt_cover_shift = bt_cover_shift
        self.bt_size = ((1 << bt_cover_shift) // SLOT_SIZE) * BT_ENTRY_SIZE
        self.bd_entries = (1 << 32) >> bt_cover_shift
        self.bd_base = 0
        self.bounds_tables = 0
        self._bt_cache: Dict[int, int] = {}

    # -- compile-time ----------------------------------------------------
    def instrument(self, module: "Module") -> "Module":
        from repro.passes.instrument_mpx import run_mpx_instrumentation
        from repro.passes.safe_access import run_safe_access
        module = module.clone()
        if self.optimize_safe:
            run_safe_access(module)
        return run_mpx_instrumentation(module)

    # -- lifecycle ----------------------------------------------------------
    def attach(self, vm: "VM") -> None:
        super().attach(vm)
        # Bounds Directory, allocated once at startup (32 KiB at the
        # paper's scale; ours scales with bt_cover_shift).
        self.bd_base = vm.enclave.heap.mmap.alloc(self.bd_entries * 8,
                                                  "mpx-bd")

    # -- BD/BT translation ------------------------------------------------------
    def _bt_for(self, vm: "VM", slot: int, create: bool) -> Optional[int]:
        region = slot >> self.bt_cover_shift
        cached = self._bt_cache.get(region)
        bd_entry = self.bd_base + region * 8
        if cached is not None:
            vm.counters.loads += 1    # BD lookup still touches memory
            return cached
        table = vm.space.read_u64(bd_entry)
        if table == 0:
            if not create:
                return None
            # On-demand BT allocation — inside the enclave (§5.2).
            table = vm.enclave.heap.mmap.alloc(self.bt_size, "mpx-bt")
            vm.space.write_u64(bd_entry, table)
            self.bounds_tables += 1
            vm.charge(200)    # exception + in-enclave allocation path
            if vm.telemetry is not None:
                registry = vm.telemetry.registry
                registry.counter("mpx.bounds_tables_allocated").inc()
                registry.gauge("mpx.bt_reserved_bytes").set(
                    self.bounds_tables * self.bt_size)
        self._bt_cache[region] = table
        return table

    def _entry_address(self, table: int, slot: int) -> int:
        index = (slot & ((1 << self.bt_cover_shift) - 1)) // SLOT_SIZE
        return table + index * BT_ENTRY_SIZE

    def bt_load(self, vm: "VM", slot: int) -> Optional[Tuple[int, int]]:
        table = self._bt_for(vm, slot, create=False)
        if table is None:
            return None
        entry = self._entry_address(table, slot)
        lower = vm.space.read_u64(entry)
        upper = vm.space.read_u64(entry + 8)
        if lower == 0 and upper == 0:
            return None    # INIT bounds: allow everything
        return (lower, upper)

    def bt_store(self, vm: "VM", slot: int,
                 bounds: Optional[Tuple[int, int]]) -> None:
        table = self._bt_for(vm, slot, create=True)
        entry = self._entry_address(table, slot)
        if bounds is None:
            vm.space.write_u64(entry, 0)
            vm.space.write_u64(entry + 8, 0)
        else:
            vm.space.write_u64(entry, bounds[0])
            vm.space.write_u64(entry + 8, bounds[1])

    # -- allocation --------------------------------------------------------------
    def alloc_bounds(self, ptr: int, size: int) -> Optional[Tuple[int, int]]:
        base = ptr & ADDRESS_MASK
        return (base, base + max(int(size), 1))

    # -- libc wrappers ---------------------------------------------------------------
    def libc_range(self, vm: "VM", ptr: int, size: int, is_write: bool,
                   arg_bounds=None) -> Tuple[int, int]:
        address = ptr & ADDRESS_MASK
        if arg_bounds is not None:
            lower, upper = arg_bounds
            vm.charge(2)    # bndcl + bndcu in the wrapper
            vm.counters.bounds_checks += 2
            if address < lower or address + size > upper:
                self.handle_violation(vm, BoundsViolation(
                    self.name, address, lower, upper, size,
                    access="write" if is_write else "read",
                    what="libc wrapper"))
                if self.policy != violation_policy.LOG_AND_CONTINUE:
                    # No overlay to redirect into: clamp to the register
                    # bounds so the wrapper stays inside the object.
                    return (address, max(0, min(address + size, upper)
                                         - max(address, lower)))
        return (address, size)

    # -- reporting -----------------------------------------------------------------------
    def memory_overhead_report(self, vm: "VM") -> Dict[str, int]:
        return {
            "bounds_tables": self.bounds_tables,
            "bt_reserved_bytes": self.bounds_tables * self.bt_size,
            "bd_reserved_bytes": self.bd_entries * 8,
            "violations": self.violations,
        }
