"""Loader: turns a finalized IR module into an executable program image.

Responsibilities:

* assign every function a code address (functions occupy fake 16-byte
  slots in a never-mapped code region, so data accesses to "code" fault
  while function pointers and return addresses remain first-class values);
* lay out globals — with scheme-directed padding (SGXBounds appends its
  4-byte lower-bound word, ASan wraps objects in redzones);
* resolve each function's constant pool (GlobalRef/FuncRef placeholders
  become addresses; under SGXBounds, global addresses become *tagged*).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.errors import IRVerifyError, OutOfMemory
from repro.ir.instructions import FuncRef, GlobalRef
from repro.ir.module import Function, Module
from repro.memory.address_space import PERM_RW
from repro.memory.layout import (
    CODE_BASE,
    CODE_LIMIT,
    CODE_SLOT,
    GLOBALS_BASE,
    GLOBALS_LIMIT,
    align_up,
    page_align_up,
)

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.vm.machine import VM
    from repro.vm.scheme import SchemeRuntime


class Program:
    """A loaded module: code addresses, global addresses, resolved pools."""

    def __init__(self, module: Module):
        if not all(fn.finalized for fn in module.functions.values()):
            raise IRVerifyError("module must be finalized before loading")
        self.module = module
        self.functions: Dict[str, Function] = module.functions
        self.func_addr: Dict[str, int] = {}
        self.func_by_addr: Dict[int, Function] = {}
        self.global_addr: Dict[str, int] = {}
        self.global_end: int = GLOBALS_BASE
        self.resolved_consts: Dict[str, List[object]] = {}
        # Per-function predecoded code (repro.vm.fastpath.FastCode),
        # keyed by function name.  Bound to the runtime of the VM that
        # loaded this Program; ``VM.reset`` keeps both, so the cache
        # outlives a fleet worker's restarts.
        self._fastcache: Dict[str, object] = {}

    def function_at(self, address: int) -> Optional[Function]:
        return self.func_by_addr.get(address)

    def fast_for(self, fn: Function, vm: "VM"):
        """Predecoded form of ``fn``, compiled on first use and
        invalidated whenever the function's code list identity changes
        (a pass re-finalizing the module swaps ``fn.code`` out)."""
        fc = self._fastcache.get(fn.name)
        if fc is None or fc.code is not fn.code:
            from repro.vm.fastpath import compile_function
            fc = compile_function(vm, fn, self.resolved_consts[fn.name])
            self._fastcache[fn.name] = fc
        return fc


def load_program(vm: "VM", module: Module) -> Program:
    """Load ``module`` into ``vm``'s enclave under ``vm.scheme``."""
    scheme: "SchemeRuntime" = vm.scheme
    space = vm.enclave.space
    program = Program(module)

    # 1. Code addresses.
    for index, name in enumerate(module.functions):
        address = CODE_BASE + index * CODE_SLOT
        if address >= CODE_LIMIT:
            raise OutOfMemory(CODE_SLOT, "code region exhausted")
        program.func_addr[name] = address
        program.func_by_addr[address] = module.functions[name]

    # 2. Global layout (single pass; map the pages, then initialize).
    cursor = GLOBALS_BASE
    placements = []
    for var in module.globals.values():
        pre, post = scheme.global_padding(var)
        cursor = align_up(cursor + pre,
                          max(var.align, scheme.global_min_align))
        placements.append((var, cursor))
        program.global_addr[var.name] = cursor
        cursor = cursor + var.size + post
    cursor = align_up(cursor, 8)
    program.global_end = cursor
    if cursor > GLOBALS_LIMIT:
        raise OutOfMemory(cursor - GLOBALS_BASE, "globals region exhausted")
    if cursor > GLOBALS_BASE:
        space.map(GLOBALS_BASE, page_align_up(cursor - GLOBALS_BASE),
                  PERM_RW, "globals")

    # Initializers, and the scheme's metadata for them, are written with
    # tracing suspended: program load is not part of measured execution.
    with space.untraced():
        for var, address in placements:
            if var.init:
                space.write(address, var.init)
        for var, address in placements:
            scheme.on_global_loaded(vm, address, var)
        for var, address in placements:
            for offset, ref in var.relocs:
                if isinstance(ref, GlobalRef):
                    target = scheme.resolve_global_address(
                        program.global_addr[ref.name],
                        module.globals[ref.name])
                elif isinstance(ref, FuncRef):
                    target = program.func_addr[ref.name]
                else:
                    raise IRVerifyError(
                        f"global {var.name}: bad reloc target {ref!r}")
                space.write_u64(address + offset, target)

    # 3. Constant-pool resolution.
    for name, fn in module.functions.items():
        resolved: List[object] = []
        for value in fn.consts:
            if isinstance(value, GlobalRef):
                if value.name not in program.global_addr:
                    raise IRVerifyError(f"{name}: unknown global @{value.name}")
                address = program.global_addr[value.name]
                resolved.append(scheme.resolve_global_address(
                    address, module.globals[value.name]))
            elif isinstance(value, FuncRef):
                if value.name not in program.func_addr:
                    raise IRVerifyError(f"{name}: unknown function &{value.name}")
                resolved.append(program.func_addr[value.name])
            else:
                resolved.append(value)
        program.resolved_consts[name] = resolved
    return program
