"""The SGXBounds runtime (paper §3.2, §5.1).

The compile-time half lives in ``repro.passes.instrument_sgxbounds``; this
module is the run-time half: tagged malloc/free wrappers, tagged global
layout, the libc-wrapper range checks, the slow-path violation handler
(fail-stop or boundless), and the metadata-management hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.boundless import BoundlessCache
from repro.core.metadata import (
    ACCESS_READ,
    ACCESS_WRITE,
    MetadataManager,
    OBJ_GLOBAL,
    OBJ_HEAP,
    OBJ_STACK,
)
from repro.core.tagged_pointer import (
    M32,
    METADATA_SIZE,
    extract_p,
    extract_ub,
    specify_bounds,
)
from repro.errors import BoundsViolation
from repro.vm import policy as violation_policy
from repro.vm.scheme import SchemeRuntime

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.ir.module import GlobalVar, Module
    from repro.vm.machine import VM


class SGXBoundsScheme(SchemeRuntime):
    """Runtime for SGXBounds-instrumented programs.

    Parameters mirror the paper's configurations:

    * ``boundless`` — tolerate out-of-bounds accesses via the overlay LRU
      instead of crashing (§4.2);
    * ``optimize_safe`` / ``optimize_hoist`` — the two optimizations of
      §4.4 (both on by default, can be disabled for the Fig. 10 ablation);
    * ``stack_hooks`` — fire metadata ``on_create`` for stack objects too.
    """

    name = "sgxbounds"
    # The metadata manager's hooks are configuration, not run state.
    run_state = SchemeRuntime.run_state + ("metadata_bytes", "overlay")

    def __init__(self, boundless: bool = False, optimize_safe: bool = True,
                 optimize_hoist: bool = True, stack_hooks: bool = False,
                 metadata: Optional[MetadataManager] = None,
                 policy: Optional[str] = None):
        if policy is None:
            policy = (violation_policy.BOUNDLESS if boundless
                      else violation_policy.ABORT)
        super().__init__(policy=policy)
        self.boundless = (self.policy == violation_policy.BOUNDLESS)
        self.optimize_safe = optimize_safe
        # Hoisted checks fire before the access they guard, which breaks
        # in-place continuation (boundless/audit); drop-request unwinds the
        # whole request anyway, so hoisting stays sound there.
        self.optimize_hoist = (optimize_hoist and
                               self.policy not in violation_policy.CONTINUING)
        self.stack_hooks = stack_hooks
        self.metadata = metadata or MetadataManager()
        self.overlay = BoundlessCache()
        self.metadata_bytes = 0

    # -- compile-time --------------------------------------------------------
    def instrument(self, module: "Module") -> "Module":
        from repro.passes.instrument_sgxbounds import run_sgxbounds_instrumentation
        from repro.passes.loop_hoist import run_loop_hoist
        module = self.clone_for_passes(module)
        if self.optimize_hoist:
            run_loop_hoist(module)
        return run_sgxbounds_instrumentation(
            module, extra_metadata=self.metadata.extra_bytes,
            stack_hooks=self.stack_hooks or bool(
                self.metadata.on_create_hooks))

    # -- helpers ---------------------------------------------------------------
    def _metadata_footprint(self) -> int:
        return METADATA_SIZE + self.metadata.extra_bytes

    def _tag_new_object(self, vm: "VM", base: int, size: int,
                        objtype: str) -> int:
        upper = base + size
        vm.space.write_u32(upper, base)          # *UB = LB (traced store)
        tagged = specify_bounds(base, upper)
        self.metadata_bytes += self._metadata_footprint()
        telemetry = vm.telemetry
        if telemetry is not None:
            telemetry.registry.gauge("sgxbounds.metadata_bytes").set(
                self.metadata_bytes)
            telemetry.registry.histogram("sgxbounds.object_bytes").observe(
                max(1, size))
        self.metadata.fire_create(vm, base, size, objtype, tagged)
        return tagged

    # -- allocation wrappers (paper §3.2 "Pointer creation") --------------------
    def malloc(self, vm: "VM", size: int) -> int:
        size = max(int(size), 1)
        base = vm.enclave.heap.malloc(size + self._metadata_footprint())
        return self._tag_new_object(vm, base, size, OBJ_HEAP)

    def calloc(self, vm: "VM", count: int, size: int) -> int:
        total = max(int(count * size), 1)
        base = vm.enclave.heap.malloc(total + self._metadata_footprint())
        with vm.space.untraced() as space:
            space.fill(base, 0, total)
        vm.touch_range(base, total, True)
        return self._tag_new_object(vm, base, total, OBJ_HEAP)

    def realloc(self, vm: "VM", ptr: int, size: int) -> int:
        if extract_p(ptr) == 0:
            return self.malloc(vm, size)
        base = extract_p(ptr)
        size = max(int(size), 1)
        new_base = vm.enclave.heap.realloc(
            base, size + self._metadata_footprint())
        return self._tag_new_object(vm, new_base, size, OBJ_HEAP)

    def free(self, vm: "VM", ptr: int) -> None:
        base = extract_p(ptr)
        if base == 0:
            return
        if self.metadata.on_delete_hooks:
            self.metadata.fire_delete(vm, ptr)
        vm.enclave.heap.free(base)

    # -- globals (loader hooks) ---------------------------------------------------
    def global_padding(self, var: "GlobalVar") -> Tuple[int, int]:
        return (0, self._metadata_footprint())

    def resolve_global_address(self, address: int, var: "GlobalVar") -> int:
        return specify_bounds(address, address + var.size)

    def on_global_loaded(self, vm: "VM", address: int, var: "GlobalVar") -> None:
        upper = address + var.size
        vm.space.write_u32(upper, address)
        self.metadata_bytes += self._metadata_footprint()
        self.metadata.fire_create(vm, address, var.size, OBJ_GLOBAL,
                                  specify_bounds(address, upper))

    # -- pointer handling for libc wrappers ------------------------------------------
    def strip(self, ptr: int) -> int:
        return ptr & M32

    def object_extent(self, vm: "VM", ptr: int) -> Optional[int]:
        upper = extract_ub(ptr)
        if upper == 0:
            return None
        return max(0, upper - extract_p(ptr))

    def libc_range(self, vm: "VM", ptr: int, size: int, is_write: bool,
                   arg_bounds=None) -> Tuple[int, int]:
        address = ptr & M32
        upper = extract_ub(ptr)
        if upper == 0:
            return (address, size)
        lower = vm.space.read_u32(upper)     # traced LB load, as a wrapper would
        vm.charge(4)
        access = "write" if is_write else "read"
        if address < lower:
            self.handle_violation(vm, BoundsViolation(
                self.name, address, lower, upper, size, access=access,
                what="libc wrapper: below lower bound"))
            if self.policy == violation_policy.LOG_AND_CONTINUE:
                return (address, size)   # audit only: raw access proceeds
            if self.boundless and not is_write:
                # The wrapper will manufacture the whole range (zero fill):
                # all of it is boundary-crossing read volume to account.
                self.overlay.note_oblivious_read(vm, size)
            return (address, 0)
        if address + size > upper:
            self.handle_violation(vm, BoundsViolation(
                self.name, address, lower, upper, size, access=access,
                what="libc wrapper: beyond upper bound"))
            if self.policy == violation_policy.LOG_AND_CONTINUE:
                return (address, size)   # audit only: raw overflow proceeds
            valid = max(0, upper - address)
            if self.boundless and not is_write:
                # Clamped tail (e.g. Heartbleed's over-long memcpy source):
                # the caller still receives size bytes, the out-of-bounds
                # tail manufactured as zeros — bounded, *measured* leakage.
                self.overlay.note_oblivious_read(vm, size - valid)
            return (address, valid)
        return (address, size)

    # -- slow path ----------------------------------------------------------------------
    def _violation(self, vm: "VM", thread, args) -> int:
        """The pass-inserted slow path: crash or redirect (§4.2)."""
        tagged, size, is_write = args[0], args[1], bool(args[2])
        address = tagged & M32
        upper = extract_ub(tagged)
        if upper == 0:
            # Untagged pointer (runtime-internal); allow the plain access.
            return address
        lower = vm.space.read_u32(upper)
        if lower <= address and address + size <= upper:
            return address   # spurious slow-path entry; access is fine
        self.metadata.fire_access(vm, address, size, tagged,
                                  ACCESS_WRITE if is_write else ACCESS_READ)
        self.handle_violation(vm, BoundsViolation(
            self.name, address, lower, upper, size,
            access="write" if is_write else "read"))
        if self.boundless:
            vm.charge(60)    # LRU lookup under the global lock (§5.1)
            if vm.telemetry is not None:
                vm.telemetry.registry.counter(
                    "sgxbounds.boundless_redirects").inc()
            return self.overlay.translate(vm, address, size, is_write)
        return address       # log-and-continue: the raw access proceeds

    def _stack_create(self, vm: "VM", thread, args) -> int:
        tagged, size = args[0], args[1]
        self.metadata.fire_create(vm, extract_p(tagged), size, OBJ_STACK,
                                  tagged)
        return 0

    def natives(self) -> Dict[str, object]:
        return {
            "__sgxbounds_violation": self._violation,
            "__sgxbounds_stack_create": self._stack_create,
        }

    # -- reporting -----------------------------------------------------------------------
    def memory_overhead_report(self, vm: "VM") -> Dict[str, int]:
        report = {
            "metadata_bytes": self.metadata_bytes,
            "violations": self.violations,
        }
        if self.boundless:
            report.update({f"overlay_{k}": v
                           for k, v in self.overlay.stats().items()})
        return report
