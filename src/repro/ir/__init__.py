"""The reproduction's compiler IR (the analogue of LLVM IR in the paper)."""

from repro.ir import instructions as ops
from repro.ir.builder import IRBuilder
from repro.ir.instructions import FuncRef, GlobalRef, Instr, is_reg, slot_of
from repro.ir.module import Block, Function, GlobalVar, Module
from repro.ir.printer import format_instr, print_function, print_module
from repro.ir.verifier import verify_module

__all__ = [
    "ops",
    "Instr",
    "GlobalRef",
    "FuncRef",
    "slot_of",
    "is_reg",
    "Block",
    "Function",
    "GlobalVar",
    "Module",
    "IRBuilder",
    "verify_module",
    "format_instr",
    "print_function",
    "print_module",
]
