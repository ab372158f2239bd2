"""Structural IR verifier.

Run after building or transforming a module: catches dangling registers,
malformed blocks, bad branch targets and ill-formed instructions before the
interpreter turns them into confusing runtime faults.
"""

from __future__ import annotations

from typing import List

from repro.errors import IRVerifyError
from repro.ir import instructions as ops
from repro.ir.instructions import Instr
from repro.ir.module import Function, Module

_NEEDS_DEST = (
    ops.INT_BINOPS | ops.FLOAT_BINOPS | ops.INT_CMPS | ops.FLOAT_CMPS
    | {ops.MOV, ops.LOAD, ops.GEP, ops.ALLOCA, ops.SELECT, ops.TRUNC,
       ops.SEXT, ops.SITOFP, ops.FPTOSI, ops.ATOMICRMW, ops.CMPXCHG,
       ops.FNEG}
)


def _check_operands(fn: Function, module: Module, ins: Instr,
                    errors: List[str], refs: List[str]) -> None:
    """Range-check each operand; a constant naming a global or function
    the module lacks is reported in ``refs``."""
    nregs = fn.nregs
    consts = fn.consts
    for operand in ins.operands():
        if operand >= 0:
            if operand >= nregs:
                errors.append(
                    f"{fn.name}: register r{operand} out of range in "
                    f"{ops.OP_NAMES.get(ins.op)}")
            continue
        slot = -operand - 1
        if slot >= len(consts):
            errors.append(f"{fn.name}: constant slot {slot} out of range")
            continue
        value = consts[slot]
        if isinstance(value, ops.GlobalRef):
            if value.name not in module.globals:
                refs.append(f"{fn.name}: reference to unknown global "
                            f"@{value.name}")
        elif isinstance(value, ops.FuncRef) \
                and value.name not in module.functions:
            refs.append(f"{fn.name}: reference to unknown function "
                        f"&{value.name}")


def verify_function(fn: Function, module: Module, errors: List[str],
                    refs: List[str]) -> None:
    """Append ``fn``'s structural problems to ``errors`` and its dangling
    global/function references to ``refs``, in one walk."""
    if not fn.blocks:
        errors.append(f"{fn.name}: function has no blocks")
        return
    block_names = {blk.name for blk in fn.blocks}
    if len(block_names) != len(fn.blocks):
        errors.append(f"{fn.name}: duplicate block names")
    for blk in fn.blocks:
        if not blk.instrs:
            errors.append(f"{fn.name}/{blk.name}: empty block")
            continue
        for pos, ins in enumerate(blk.instrs):
            terminal = ins.is_terminator()
            if terminal and pos != len(blk.instrs) - 1:
                errors.append(
                    f"{fn.name}/{blk.name}: terminator mid-block at {pos}")
            if ins.op in _NEEDS_DEST and ins.dest is None:
                errors.append(
                    f"{fn.name}/{blk.name}: {ops.OP_NAMES.get(ins.op)} "
                    f"lacks a destination")
            if ins.dest is not None and ins.dest >= fn.nregs:
                errors.append(
                    f"{fn.name}/{blk.name}: dest r{ins.dest} out of range")
            _check_operands(fn, module, ins, errors, refs)
            if ins.op == ops.BR:
                for target in (ins.t1, ins.t2):
                    if isinstance(target, str) and target not in block_names:
                        errors.append(
                            f"{fn.name}/{blk.name}: branch to unknown "
                            f"block {target!r}")
            elif ins.op == ops.JMP:
                if isinstance(ins.t1, str) and ins.t1 not in block_names:
                    errors.append(
                        f"{fn.name}/{blk.name}: jump to unknown "
                        f"block {ins.t1!r}")
            elif ins.op == ops.CALL:
                if ins.name is None and ins.a is None:
                    errors.append(
                        f"{fn.name}/{blk.name}: call with neither name "
                        f"nor callee operand")
            elif ins.op == ops.ALLOCA:
                if ins.size <= 0:
                    errors.append(
                        f"{fn.name}/{blk.name}: alloca of {ins.size} bytes")
            elif ins.op in (ops.LOAD, ops.STORE, ops.ATOMICRMW, ops.CMPXCHG):
                if ins.size not in (1, 2, 4, 8):
                    errors.append(
                        f"{fn.name}/{blk.name}: bad access size {ins.size}")
        if blk.terminator() is None:
            errors.append(f"{fn.name}/{blk.name}: block lacks a terminator")


def verify_module(module: Module) -> None:
    """Raise :class:`IRVerifyError` listing every problem found: the
    structural ones first, then the dangling references."""
    errors: List[str] = []
    refs: List[str] = []
    for fn in module.functions.values():
        verify_function(fn, module, errors, refs)
    errors += refs
    if errors:
        raise IRVerifyError("; ".join(errors[:20]) +
                            (f" (+{len(errors) - 20} more)" if len(errors) > 20 else ""))
