"""Baggy Bounds runtime: buddy-allocated heap + size table.

Mechanics (after Akritidis et al., USENIX Security'09, as summarized in
the paper's §2.2):

* ``malloc`` rounds every object up to a power-of-two *allocation bound*
  via the buddy allocator, so base and limit are derivable from the
  pointer and the block's log2 size alone;
* a **size table** with one byte per 16-byte slot holds that log2 size
  (0 = unprotected memory, e.g. stack/globals — like the Low Fat Pointers
  prototype, this variant protects the heap);
* the check is ``base = p & ~(2^k - 1); p + size <= base + 2^k`` — no
  per-pointer metadata, but *allocation-bounds* protection only:
  overflows into the power-of-two padding are not detected (the paper's
  reported trade-off: 70% perf / 12% memory on SPECINT 2000).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import BoundsViolation
from repro.memory.address_space import PERM_RW
from repro.memory.allocator import BuddyAllocator
from repro.memory.layout import ADDRESS_MASK
from repro.vm import policy as violation_policy
from repro.vm.scheme import SchemeRuntime

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.ir.module import Module
    from repro.vm.machine import VM

#: One size-table byte describes this many bytes of memory.
SLOT_SHIFT = 4
SLOT_SIZE = 1 << SLOT_SHIFT

#: The table covers the whole 4 GiB space: 256 MiB reserved (lazily
#: materialized), mirroring ASan's shadow placement trick.
TABLE_BASE = 0x3000_0000

#: Bytes of the buddy arena every protected heap object comes from.
ARENA_BYTES = 8 * 1024 * 1024


def table_address(address: int) -> int:
    return TABLE_BASE + ((address & ADDRESS_MASK) >> SLOT_SHIFT)


class BaggyScheme(SchemeRuntime):
    """Baggy-Bounds-style protection (heap objects)."""

    name = "baggy"
    run_state = SchemeRuntime.run_state + ("_sizes", "padding_bytes")

    def __init__(self, optimize_safe: bool = True,
                 policy: str = violation_policy.ABORT):
        super().__init__(policy=policy)
        self.optimize_safe = optimize_safe
        self.buddy: Optional[BuddyAllocator] = None
        self._sizes: Dict[int, int] = {}    # base -> requested size
        self.padding_bytes = 0

    # -- compile-time ----------------------------------------------------
    def instrument(self, module: "Module") -> "Module":
        from repro.passes.instrument_baggy import run_baggy_instrumentation
        return run_baggy_instrumentation(self.clone_for_passes(module))

    # -- lifecycle ----------------------------------------------------------
    def attach(self, vm: "VM") -> None:
        super().attach(vm)
        table_span = (1 << 32) >> SLOT_SHIFT
        vm.enclave.space.map(TABLE_BASE, table_span, PERM_RW, "baggy-table")
        # The arena must sit below bit 31 so OOB-marked pointers (bit 31
        # set) point at unmapped space and fault on dereference.
        self.buddy = BuddyAllocator(vm.enclave.space, ARENA_BYTES,
                                    top=0x6000_0000)

    def snapshot(self) -> object:
        return super().snapshot(), self.buddy.snapshot()

    def restore(self, state) -> None:
        super().restore(state[0])
        self.buddy.restore(state[1])

    # -- size-table maintenance ------------------------------------------------
    def _mark(self, vm: "VM", base: int, order: int) -> None:
        slots = (1 << order) >> SLOT_SHIFT
        vm.bulk_write(table_address(base), bytes((order,)) * max(slots, 1))

    def _clear(self, vm: "VM", base: int, order: int) -> None:
        slots = (1 << order) >> SLOT_SHIFT
        vm.bulk_write(table_address(base), b"\x00" * max(slots, 1))

    # -- allocation ---------------------------------------------------------------
    def malloc(self, vm: "VM", size: int) -> int:
        size = max(int(size), 1)
        base = self.buddy.alloc(size)
        order = self.buddy._live[base]
        self._mark(vm, base, order)
        self._sizes[base] = size
        self.padding_bytes += (1 << order) - size
        vm.charge(10 + ((1 << order) >> SLOT_SHIFT) // 8)
        if vm.telemetry is not None:
            registry = vm.telemetry.registry
            registry.gauge("baggy.padding_bytes").set(self.padding_bytes)
            registry.histogram("baggy.alloc_order").observe(1 << order)
        return base

    def realloc(self, vm: "VM", ptr: int, size: int) -> int:
        base = ptr & ADDRESS_MASK
        if base == 0:
            return self.malloc(vm, size)
        old_size = self._sizes.get(base, 0)
        new = self.malloc(vm, size)
        data = vm.bulk_read(base, min(old_size, size))
        vm.bulk_write(new, data)
        self.free(vm, base)
        return new

    def free(self, vm: "VM", ptr: int) -> None:
        base = ptr & ADDRESS_MASK
        if base == 0:
            return
        order = self.buddy._live.get(base)
        self._sizes.pop(base, None)
        self.buddy.free(base)
        if order is not None:
            self._clear(vm, base, order)

    # -- libc wrappers -----------------------------------------------------------------
    def libc_range(self, vm: "VM", ptr: int, size: int, is_write: bool,
                   arg_bounds=None) -> Tuple[int, int]:
        address = ptr & ADDRESS_MASK
        order = vm.space.read_u8(table_address(address))
        vm.charge(4)
        if order:
            block = 1 << order
            base = address & ~(block - 1)
            if address + size > base + block:
                self.handle_violation(vm, BoundsViolation(
                    self.name, address, base, base + block, size,
                    access="write" if is_write else "read",
                    what="libc wrapper"))
                if self.policy != violation_policy.LOG_AND_CONTINUE:
                    return (address, max(0, base + block - address))
        return (address, size)

    # -- pass-inserted slow path ----------------------------------------------------------
    #: Bit 31 marks an out-of-bounds pointer (points outside the heap, so
    #: dereferencing it faults — Baggy's hardware-trap detection).
    OOB_MARK = 0x8000_0000

    def _arith(self, vm: "VM", thread, args) -> int:
        """Pointer arithmetic left its block: tolerate near misses (up to
        half a slot, like the original) by OOB-marking, else raise."""
        source = args[0] & ADDRESS_MASK
        dest = args[1] & ADDRESS_MASK
        vm.charge(8)
        order = vm.space.read_u8(table_address(source))
        if order == 0:
            return dest          # unprotected source: pass through
        block = 1 << order
        base = source & ~(block - 1)
        limit = base + block
        if base <= dest < limit:
            return dest          # spurious slow-path entry
        if limit <= dest <= limit + SLOT_SIZE // 2 \
                or base - SLOT_SIZE // 2 <= dest < base:
            return dest | self.OOB_MARK     # legal one-past-end-ish pointer
        self.handle_violation(vm, BoundsViolation(
            self.name, dest, base, limit,
            what="allocation bounds (pointer arithmetic)"))
        return dest          # tolerated: raw out-of-block pointer

    def natives(self) -> Dict[str, object]:
        return {"__baggy_arith": self._arith}

    # -- reporting ---------------------------------------------------------------------------
    def memory_overhead_report(self, vm: "VM") -> Dict[str, int]:
        return {
            "padding_bytes": self.padding_bytes,
            "arena_bytes": ARENA_BYTES,
            "violations": self.violations,
        }
