"""AddressSanitizer runtime, adapted for enclaves as in paper §5.2.

Key properties this model reproduces:

* 512 MiB of shadow space reserved up front (32-bit ASan mode) — a constant
  virtual-memory overhead, materialized lazily but charged against the
  paper's reserved-VM metric;
* redzones around every heap/global/stack object (poisoned shadow);
* a quarantine delaying reuse of freed memory — detecting use-after-free
  but inflating footprints (the ``swaptions`` pathology, §6.2);
* every instrumented access performs a *real* shadow load in simulated
  memory, so shadow traffic degrades cache locality and causes EPC
  thrashing exactly as described for kmeans/matrixmul/mcf.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Tuple

from repro.asan.shadow import (
    FREED,
    GLOBAL_RZ,
    GRANULE,
    HEAP_LEFT_RZ,
    HEAP_RIGHT_RZ,
    REDZONE,
    STACK_RZ,
    granule_ok,
    object_shadow,
    shadow_address,
)
from repro.errors import BoundsViolation, DoubleFree
from repro.vm import policy as violation_policy
from repro.memory.address_space import PERM_RW
from repro.memory.layout import (
    ADDRESS_MASK,
    ASAN_SHADOW_BASE,
    ASAN_SHADOW_SIZE,
    align_up,
)
from repro.vm.scheme import SchemeRuntime

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.ir.module import GlobalVar, Module
    from repro.vm.machine import VM

#: Quarantine capacity (scaled from ASan's 256 MiB default).
QUARANTINE_CAP = 256 * 1024


class ASanScheme(SchemeRuntime):
    """AddressSanitizer-style protection."""

    name = "asan"
    global_min_align = GRANULE
    run_state = SchemeRuntime.run_state + (
        "_live", "_quarantine", "_quarantine_bytes", "redzone_bytes")

    def __init__(self, optimize_safe: bool = True,
                 quarantine_bytes: int = QUARANTINE_CAP,
                 policy: str = violation_policy.ABORT):
        super().__init__(policy=policy)
        self.optimize_safe = optimize_safe
        self.quarantine_cap = quarantine_bytes
        self._live: Dict[int, Tuple[int, int]] = {}   # user -> (raw, size)
        self._quarantine: Deque[Tuple[int, int]] = deque()
        self._quarantine_bytes = 0
        self.redzone_bytes = 0

    # -- compile-time ------------------------------------------------------
    def instrument(self, module: "Module") -> "Module":
        from repro.passes.instrument_asan import run_asan_instrumentation
        return run_asan_instrumentation(self.clone_for_passes(module))

    # -- lifecycle -----------------------------------------------------------
    def attach(self, vm: "VM") -> None:
        super().attach(vm)
        # The constant 512 MiB shadow reservation (§5.2).
        vm.enclave.space.map(ASAN_SHADOW_BASE, ASAN_SHADOW_SIZE, PERM_RW,
                             "asan-shadow")

    # -- shadow primitives ------------------------------------------------------
    def _set_shadow(self, vm: "VM", address: int, data: bytes) -> None:
        vm.bulk_write(shadow_address(address), data)

    def poison(self, vm: "VM", address: int, size: int, value: int) -> None:
        """Poison [address, address+size) (granule-aligned region)."""
        count = align_up(size, GRANULE) // GRANULE
        self._set_shadow(vm, address, bytes((value,)) * count)

    def unpoison_object(self, vm: "VM", address: int, size: int) -> None:
        """Mark an object's granules addressable, with a partial tail."""
        self._set_shadow(vm, address, object_shadow(align_up(size, GRANULE))
                         if size % GRANULE == 0 else object_shadow(size))

    # -- allocation (redzones + quarantine, §2.2) ---------------------------------
    def malloc(self, vm: "VM", size: int) -> int:
        size = max(int(size), 1)
        rounded = align_up(size, GRANULE)
        raw = vm.enclave.heap.malloc(rounded + 2 * REDZONE)
        user = raw + REDZONE
        self.poison(vm, raw, REDZONE, HEAP_LEFT_RZ)
        self.unpoison_object(vm, user, size)
        self.poison(vm, user + rounded, REDZONE, HEAP_RIGHT_RZ)
        self._live[user] = (raw, size)
        self.redzone_bytes += 2 * REDZONE
        return user

    def realloc(self, vm: "VM", ptr: int, size: int) -> int:
        ptr &= ADDRESS_MASK
        if ptr == 0:
            return self.malloc(vm, size)
        entry = self._live.get(ptr)
        if entry is None:
            raise DoubleFree(ptr)
        _, old_size = entry
        new = self.malloc(vm, size)
        data = vm.bulk_read(ptr, min(old_size, size))
        vm.bulk_write(new, data)
        self.free(vm, ptr)
        return new

    def free(self, vm: "VM", ptr: int) -> None:
        ptr &= ADDRESS_MASK
        if ptr == 0:
            return
        entry = self._live.pop(ptr, None)
        if entry is None:
            raise DoubleFree(ptr)
        raw, size = entry
        rounded = align_up(size, GRANULE)
        self.poison(vm, ptr, rounded, FREED)
        # Quarantine: delay reuse so use-after-free hits poisoned shadow.
        self._quarantine.append((raw, rounded + 2 * REDZONE))
        self._quarantine_bytes += rounded + 2 * REDZONE
        while self._quarantine_bytes > self.quarantine_cap and self._quarantine:
            old_raw, old_total = self._quarantine.popleft()
            self._quarantine_bytes -= old_total
            vm.enclave.heap.free(old_raw)
        if vm.telemetry is not None:
            registry = vm.telemetry.registry
            registry.gauge("asan.quarantine_bytes").set(
                self._quarantine_bytes)
            registry.gauge("asan.redzone_bytes").set(self.redzone_bytes)

    # -- globals -------------------------------------------------------------------
    def global_padding(self, var: "GlobalVar") -> Tuple[int, int]:
        return (REDZONE, REDZONE)

    def on_global_loaded(self, vm: "VM", address: int, var: "GlobalVar") -> None:
        self.poison(vm, address - REDZONE, REDZONE, GLOBAL_RZ)
        self.unpoison_object(vm, address, var.size)
        tail = align_up(var.size, GRANULE)
        self.poison(vm, address + tail, REDZONE, GLOBAL_RZ)
        self.redzone_bytes += 2 * REDZONE

    # -- access validation ------------------------------------------------------------
    def check_access(self, vm: "VM", address: int, size: int,
                     is_write: bool) -> None:
        """Slow path: re-validate an access whose first shadow byte was
        non-zero (partial granule or genuine poison)."""
        cursor = address
        end = address + size
        while cursor < end:
            shadow_value = vm.space.read_u8(shadow_address(cursor))
            granule_end = (cursor | (GRANULE - 1)) + 1
            chunk = min(end, granule_end) - cursor
            if shadow_value != 0 and not granule_ok(shadow_value, cursor, chunk):
                self.handle_violation(vm, BoundsViolation(
                    self.name, address, 0, 0, size,
                    access="write" if is_write else "read",
                    what=f"shadow byte 0x{shadow_value:02x} at 0x{cursor:08x}"))
                # Tolerated (no overlay to redirect into): the access
                # proceeds unprotected, like the uninstrumented program.
                return
            cursor = granule_end

    def libc_range(self, vm: "VM", ptr: int, size: int, is_write: bool,
                   arg_bounds=None) -> Tuple[int, int]:
        address = ptr & ADDRESS_MASK
        if size > 0:
            # Wrappers validate the full range through shadow memory.
            vm.touch_range(shadow_address(address),
                           max(1, size // GRANULE), False)
            vm.charge(2 + size // GRANULE)
            self.check_access(vm, address, size, is_write)
        return (address, size)

    # -- pass-inserted natives ------------------------------------------------------------
    def _native_check(self, vm: "VM", thread, args) -> int:
        self.check_access(vm, args[0] & ADDRESS_MASK, args[1], bool(args[2]))
        return 0

    def _native_poison_stack(self, vm: "VM", thread, args) -> int:
        raw, size = args[0] & ADDRESS_MASK, args[1]
        rounded = align_up(size, GRANULE)
        self.poison(vm, raw, REDZONE, STACK_RZ)
        self.unpoison_object(vm, raw + REDZONE, size)
        self.poison(vm, raw + REDZONE + rounded, REDZONE, STACK_RZ)
        vm.charge(6)
        return 0

    def _native_unpoison_stack(self, vm: "VM", thread, args) -> int:
        raw, size = args[0] & ADDRESS_MASK, args[1]
        total = align_up(size, GRANULE) + 2 * REDZONE
        self._set_shadow(vm, raw, b"\x00" * (total // GRANULE))
        vm.charge(4)
        return 0

    def natives(self) -> Dict[str, object]:
        return {
            "__asan_check": self._native_check,
            "__asan_poison_stack": self._native_poison_stack,
            "__asan_unpoison_stack": self._native_unpoison_stack,
        }

    # -- reporting ------------------------------------------------------------------------
    def memory_overhead_report(self, vm: "VM") -> Dict[str, int]:
        return {
            "shadow_reserved": ASAN_SHADOW_SIZE,
            "redzone_bytes": self.redzone_bytes,
            "quarantine_bytes": self._quarantine_bytes,
            "violations": self.violations,
        }
