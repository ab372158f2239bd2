"""Scheme runtime interface.

A *scheme* is one memory-safety approach: native (no protection),
SGXBounds, AddressSanitizer or Intel MPX.  Each scheme contributes

* a compile-time instrumentation pass (in ``repro.passes``), and
* a runtime — this interface — hooked into the loader (global layout),
  the allocator (malloc/free wrappers) and the libc natives (argument
  checking), mirroring the paper's split between the LLVM pass and the
  auxiliary C run-time (§5.1).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import BoundsViolation, RequestAborted
from repro.memory.layout import ADDRESS_MASK
from repro.vm import policy as violation_policy

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.ir.module import GlobalVar, Module
    from repro.vm.machine import VM

#: Structured violation records kept per run (bounded; chaos runs can
#: produce thousands of tolerated violations).
VIOLATION_LOG_CAP = 128


class SchemeRuntime:
    """Base runtime: no protection (the "native SGX" baseline)."""

    #: Registry name; also stamped into instrumented modules' ``meta``.
    name = "native"
    #: Whether the VM should maintain per-register bounds (MPX only).
    uses_register_bounds = False
    #: Failure-oblivious mode (SGXBounds boundless memory, §4.2).
    boundless = False
    #: Minimum alignment the loader must give globals (ASan needs its
    #: 8-byte shadow granule).
    global_min_align = 1
    #: Attributes a run mutates; :meth:`snapshot` copies them by value.
    #: Each scheme extends it with its own allocation and metadata state.
    run_state: Tuple[str, ...] = ("violations", "violation_log")

    def __init__(self, policy: str = violation_policy.ABORT) -> None:
        self.vm: Optional["VM"] = None
        self.policy = violation_policy.validate(policy)
        self.violations = 0
        self.violation_log: List[dict] = []

    # -- violation policy --------------------------------------------------
    def handle_violation(self, vm: Optional["VM"],
                         err: BoundsViolation) -> None:
        """Apply this run's :mod:`violation policy <repro.vm.policy>`.

        Under ``abort`` the violation itself is raised (fail-stop, the
        seed behaviour); under ``drop-request`` a
        :class:`~repro.errors.RequestAborted` is raised so the VM can roll
        the in-flight request back to its checkpoint.  Under the
        continuing policies (``boundless``, ``log-and-continue``) the
        method records the violation and *returns* — the caller then
        redirects, clamps, or passes the access through.
        """
        self.violations += 1
        err.policy = self.policy
        tid = 0
        if vm is not None:
            thread = getattr(vm, "current", None)
            if thread is not None:
                tid = thread.tid
                if not err.function and thread.frames:
                    err.function = thread.frames[-1].fn.name
            telemetry = getattr(vm, "telemetry", None)
            if telemetry is not None:
                telemetry.violation(self.name, err,
                                    vm.counters.instructions, tid)
        if self.policy == violation_policy.ABORT:
            err.outcome = "aborted"
        elif self.policy == violation_policy.DROP_REQUEST:
            err.outcome = "request-dropped"
        elif self.policy == violation_policy.BOUNDLESS:
            err.outcome = "redirected"
        else:
            err.outcome = "logged"
        self._record_violation(err)
        if vm is not None:
            # Forensics observes after the outcome is stamped: terminal
            # policies get a full postmortem while the faulting thread's
            # stack is still intact (the VM unwinds it right after).
            forensics = getattr(vm, "forensics", None)
            if forensics is not None:
                forensics.on_violation(vm, self, err, tid)
        if self.policy == violation_policy.ABORT:
            raise err
        if self.policy == violation_policy.DROP_REQUEST:
            raise RequestAborted(err)

    def _record_violation(self, err: BoundsViolation) -> None:
        if len(self.violation_log) < VIOLATION_LOG_CAP:
            self.violation_log.append(err.context())

    # -- lifecycle -------------------------------------------------------
    def attach(self, vm: "VM") -> None:
        """Called once when the VM is created, before loading."""
        self.vm = vm

    def instrument(self, module: "Module") -> "Module":
        """Apply this scheme's compile-time pass (identity for native)."""
        return module

    def snapshot(self) -> object:
        """The :attr:`run_state` attributes, by value (a fleet worker's
        VM reset returns the runtime to this)."""
        return copy.deepcopy({name: getattr(self, name)
                              for name in self.run_state})

    def restore(self, state) -> None:
        for name, value in copy.deepcopy(state).items():
            setattr(self, name, value)

    # -- loader hooks ------------------------------------------------------
    def global_padding(self, var: "GlobalVar") -> Tuple[int, int]:
        """(pre, post) padding bytes around a global variable."""
        return (0, 0)

    def resolve_global_address(self, address: int, var: "GlobalVar") -> int:
        """Constant value the program sees for ``&var`` (tagged for
        SGXBounds)."""
        return address

    def on_global_loaded(self, vm: "VM", address: int, var: "GlobalVar") -> None:
        """Initialize per-object metadata for a loaded global."""

    # -- allocation --------------------------------------------------------
    def malloc(self, vm: "VM", size: int) -> int:
        return vm.enclave.heap.malloc(size)

    def calloc(self, vm: "VM", count: int, size: int) -> int:
        return vm.enclave.heap.calloc(count, size)

    def realloc(self, vm: "VM", ptr: int, size: int) -> int:
        return vm.enclave.heap.realloc(ptr & ADDRESS_MASK, size)

    def free(self, vm: "VM", ptr: int) -> None:
        vm.enclave.heap.free(ptr & ADDRESS_MASK)

    def alloc_bounds(self, ptr: int, size: int) -> Optional[Tuple[int, int]]:
        """Register bounds to attach to a fresh allocation (MPX only)."""
        return None

    def stack_object(self, vm: "VM", address: int, size: int) -> None:
        """Notify the runtime of a stack object coming to life (ASan
        poison bookkeeping happens through pass-inserted natives instead)."""

    # -- pointer handling for libc wrappers --------------------------------
    def strip(self, ptr: int) -> int:
        """Plain 32-bit address of ``ptr`` (drops any tag)."""
        return ptr & ADDRESS_MASK

    def check_range(self, vm: "VM", ptr: int, size: int,
                    is_write: bool) -> int:
        """Validate a [ptr, ptr+size) access from a libc wrapper; returns
        the plain address to use.  Raises or redirects on violation."""
        return ptr & ADDRESS_MASK

    def libc_range(self, vm: "VM", ptr: int, size: int, is_write: bool,
                   arg_bounds: Optional[Tuple[int, int]] = None
                   ) -> Tuple[int, int]:
        """Validate [ptr, ptr+size) on behalf of a libc wrapper.

        Returns ``(plain_address, valid_bytes)``.  ``valid_bytes < size``
        only in failure-oblivious modes (the wrapper then clamps the
        operation, e.g. Heartbleed's over-long memcpy copies zeros for the
        out-of-bounds tail); strict modes raise instead.  ``arg_bounds``
        carries MPX register bounds when available.
        """
        return (ptr & ADDRESS_MASK, size)

    def object_extent(self, vm: "VM", ptr: int) -> Optional[int]:
        """Bytes from ``ptr`` to the end of its referent object, when the
        scheme can tell (SGXBounds can from the tag); None otherwise.
        libc wrappers use it to clamp implicit-length operations."""
        return None

    # -- MPX bounds-table hooks (overridden by the MPX scheme) -------------
    def bt_load(self, vm: "VM", slot: int) -> Optional[Tuple[int, int]]:
        raise NotImplementedError(f"{self.name}: bndldx executed without MPX runtime")

    def bt_store(self, vm: "VM", slot: int,
                 bounds: Optional[Tuple[int, int]]) -> None:
        raise NotImplementedError(f"{self.name}: bndstx executed without MPX runtime")

    # -- extra native functions the pass's inserted calls resolve to -------
    def natives(self) -> Dict[str, Callable]:
        return {}

    # -- reporting ----------------------------------------------------------
    def memory_overhead_report(self, vm: "VM") -> Dict[str, int]:
        """Scheme-specific memory statistics for the harness."""
        return {}


class NativeScheme(SchemeRuntime):
    """Explicit alias for the unprotected baseline."""
