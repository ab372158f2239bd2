"""Safe-access analysis (paper §4.4, "Safe memory accesses").

Marks loads/stores and pointer arithmetic that are provably in-bounds so
instrumentation passes skip them: constant offsets into known-size objects
(struct fields, fixed array indices) and the pointer arithmetic producing
them.  This mirrors the paper's use of LLVM's built-in object-size
analysis; gains of up to ~20% on some applications (§6.5).

The analysis is flow-insensitive for single-assignment registers (facts
hold function-wide) and block-local otherwise — conservative, never
unsound: a register fact is (object size, constant offset), and an access
is safe iff ``0 <= offset`` and ``offset + access_size <= object size``.

Every instrumenting scheme starts from a clone of the same compiled
module, so :func:`safe_clone` analyses a module object once and re-applies
the result — the positions of the safe instructions — to each later
clone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.ir import ops
from repro.ir.instructions import GlobalRef, is_reg, slot_of
from repro.ir.module import Function, Module

#: A fact: (object_size, offset_from_base).
Fact = Tuple[int, int]


def _assignment_counts(fn: Function) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for blk in fn.blocks:
        for ins in blk.instrs:
            if ins.dest is not None:
                counts[ins.dest] = counts.get(ins.dest, 0) + 1
    # Parameters are implicitly assigned at entry.
    for index in range(len(fn.params)):
        counts[index] = counts.get(index, 0) + 1
    return counts


def _const_value(fn: Function, operand: Optional[int]) -> Optional[int]:
    if operand is None or is_reg(operand):
        return None
    value = fn.consts[slot_of(operand)]
    return value if isinstance(value, int) else None


def _global_size(fn: Function, module: Module,
                 operand: Optional[int]) -> Optional[int]:
    if operand is None or is_reg(operand):
        return None
    value = fn.consts[slot_of(operand)]
    if isinstance(value, GlobalRef):
        return module.globals[value.name].size
    return None


def _compute_fact(fn: Function, module: Module, ins, facts: Dict[int, Fact]
                  ) -> Optional[Fact]:
    """Fact for ``ins.dest``, given current ``facts``; None if unknown."""
    if ins.op == ops.ALLOCA:
        return (ins.size, 0)
    if ins.op == ops.MOV:
        size = _global_size(fn, module, ins.a)
        if size is not None:
            return (size, 0)
        if is_reg(ins.a):
            return facts.get(ins.a)
        return None
    if ins.op == ops.GEP:
        if is_reg(ins.a):
            base = facts.get(ins.a)
        else:
            size = _global_size(fn, module, ins.a)
            base = (size, 0) if size is not None else None
        if base is None:
            return None
        index = 0
        if ins.b is not None:
            const_index = _const_value(fn, ins.b)
            if const_index is None:
                return None
            index = const_index
        offset = base[1] + index * ins.size + ins.c
        return (base[0], offset)
    return None


def run_safe_access(module: Module) -> int:
    """Mark provably-safe accesses/GEPs; returns the number marked."""
    marked = 0
    for fn in module.functions.values():
        counts = _assignment_counts(fn)
        # Pass 1: facts for single-assignment registers (function-wide).
        global_facts: Dict[int, Fact] = {}
        changed = True
        while changed:
            changed = False
            for blk in fn.blocks:
                for ins in blk.instrs:
                    dest = ins.dest
                    if dest is None or counts.get(dest, 0) != 1:
                        continue
                    if dest in global_facts:
                        continue
                    fact = _compute_fact(fn, module, ins, global_facts)
                    if fact is not None:
                        global_facts[dest] = fact
                        changed = True
        # Pass 2: per-block facts for the rest, seeded with the global ones.
        for blk in fn.blocks:
            facts = dict(global_facts)
            for ins in blk.instrs:
                if ins.op in (ops.LOAD, ops.STORE, ops.ATOMICRMW, ops.CMPXCHG):
                    ptr = ins.a
                    fact = facts.get(ptr) if is_reg(ptr) else None
                    if fact is None and not is_reg(ptr):
                        size = _global_size(fn, module, ptr)
                        if size is not None:
                            fact = (size, 0)
                    if fact is not None and not ins.safe:
                        objsize, offset = fact
                        if 0 <= offset and offset + ins.size <= objsize:
                            ins.safe = True
                            marked += 1
                if ins.op == ops.GEP and not ins.safe:
                    fact = _compute_fact(fn, module, ins, facts)
                    if fact is not None:
                        objsize, offset = fact
                        # In-bounds or one-past-the-end pointers can't
                        # corrupt the tag: arithmetic stays within 32 bits.
                        if 0 <= offset <= objsize:
                            ins.safe = True
                            marked += 1
                dest = ins.dest
                if dest is not None and counts.get(dest, 0) != 1:
                    fact = _compute_fact(fn, module, ins, facts)
                    if fact is not None:
                        facts[dest] = fact
                    else:
                        facts.pop(dest, None)
    return marked


def _shape(module: Module) -> tuple:
    """What an analysis result is valid for: every function by name and
    identity, with the identity of each instruction of each block."""
    return tuple((name, fn, tuple(tuple(blk.instrs) for blk in fn.blocks))
                 for name, fn in module.functions.items())


def safe_clone(module: Module) -> Module:
    """``module.clone()`` with its provably safe accesses marked.

    The first call on a module object runs :func:`run_safe_access` on the
    clone and keeps the safe sites on ``module``; later calls mark the
    same sites on their clone.  ``build_vm`` never mutates a module, but
    should its functions or any block's instruction list change, the
    sites no longer match and the analysis runs again."""
    clone = module.clone()
    shape = _shape(module)
    cached = module.safe_sites
    if cached is not None and cached[0] == shape:
        functions = clone.functions
        for name, b, i in cached[1]:
            functions[name].blocks[b].instrs[i].safe = True
        return clone
    run_safe_access(clone)
    sites: List[Tuple[str, int, int]] = [
        (name, b, i) for name, fn in clone.functions.items()
        for b, blk in enumerate(fn.blocks)
        for i, ins in enumerate(blk.instrs) if ins.safe]
    module.safe_sites = (shape, sites)
    return clone
