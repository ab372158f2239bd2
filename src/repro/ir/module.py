"""IR containers: globals, basic blocks, functions, modules.

A :class:`Function` is built as named basic blocks and *finalized* into a
flat instruction array with branch targets resolved to indices — the form
the interpreter executes.  Passes run on the block form and re-finalize.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.errors import IRVerifyError
from repro.ir.instructions import (
    ALLOCA,
    Instr,
    BR,
    JMP,
)
from repro.memory.layout import align_up


class GlobalVar:
    """A module-level variable (or string literal).

    ``array_elem`` records the element size when the global is an array —
    the safe-access analysis uses it to prove constant indices in bounds.
    """

    __slots__ = ("name", "size", "init", "align", "is_const", "array_elem",
                 "relocs")

    def __init__(self, name: str, size: int, init: bytes = b"",
                 align: int = 8, is_const: bool = False,
                 array_elem: int = 0, relocs=()):
        if len(init) > size:
            raise IRVerifyError(f"global {name}: initializer larger than size")
        self.name = name
        self.size = size
        self.init = init
        self.align = align
        self.is_const = is_const
        self.array_elem = array_elem
        #: Pointer fixups: (byte offset, GlobalRef-or-FuncRef) pairs the
        #: loader resolves after layout (u64 slots; tagged under SGXBounds).
        self.relocs = list(relocs)

    def __repr__(self) -> str:
        return f"GlobalVar({self.name!r}, size={self.size})"


class Block:
    """A named basic block: straight-line instructions + one terminator."""

    __slots__ = ("name", "instrs")

    def __init__(self, name: str):
        self.name = name
        self.instrs: List[Instr] = []

    def terminator(self) -> Optional[Instr]:
        if self.instrs and self.instrs[-1].is_terminator():
            return self.instrs[-1]
        return None


class Function:
    """One IR function.

    After :meth:`finalize`:

    * ``code`` is the flat instruction list (branch targets = indices);
    * ``frame_size`` is the stack frame in bytes, every ``ALLOCA``'s frame
      offset stored in its ``c`` field;
    * ``block_index`` maps block names to their first instruction index.
    """

    RET_SLOT = 8   # bytes reserved at the frame top for the return address

    def __init__(self, name: str, params: Sequence[str] = (),
                 varargs: bool = False):
        self.name = name
        self.params = list(params)       # parameter register names
        self.varargs = varargs
        self.blocks: List[Block] = []
        self.consts: List[object] = []
        self._const_index: Dict[object, int] = {}
        self.nregs = len(params)
        self.reg_names: List[str] = list(params)
        # Populated by finalize():
        self.code: List[Instr] = []
        self.frame_size = 0
        self.block_index: Dict[str, int] = {}
        # Predecode metadata: indices that start a basic block, i.e. the
        # only code positions a branch may land on.  The predecoder ends
        # every compiled block's region before the next of these.
        self.block_starts: frozenset = frozenset()
        self.finalized = False

    # -- construction helpers -------------------------------------------
    def new_reg(self, hint: str = "t") -> int:
        index = self.nregs
        self.nregs += 1
        self.reg_names.append(f"{hint}{index}")
        return index

    def intern_const(self, value: object) -> int:
        """Operand encoding for constant ``value`` (pooled).

        The pool key includes the Python type: ``1`` and ``1.0`` compare
        equal but are distinct constants (int vs float semantics).  A
        float's key also carries its sign, since ``-0.0 == 0.0`` too.
        """
        try:
            key = (type(value).__name__, value)
            if type(value) is float:
                key += (math.copysign(1.0, value),)
            slot = self._const_index.get(key)
        except TypeError:                     # unhashable — don't pool
            key = None
            slot = None
        if slot is None:
            slot = len(self.consts)
            self.consts.append(value)
            if key is not None:
                self._const_index[key] = slot
        return -slot - 1

    def block(self, name: str) -> Block:
        blk = Block(name)
        self.blocks.append(blk)
        return blk

    def get_block(self, name: str) -> Block:
        for blk in self.blocks:
            if blk.name == name:
                return blk
        raise KeyError(f"{self.name}: no block {name!r}")

    # -- finalization -----------------------------------------------------
    def finalize(self) -> "Function":
        """Flatten blocks, resolve branch targets, lay out the frame."""
        code: List[Instr] = []
        index: Dict[str, int] = {}
        for blk in self.blocks:
            if blk.name in index:
                raise IRVerifyError(f"{self.name}: duplicate block {blk.name!r}")
            index[blk.name] = len(code)
            code.extend(blk.instrs)
        offset = 0
        for ins in code:
            if ins.op == ALLOCA:
                align = max(ins.b or 8, 1)
                offset = align_up(offset, align)
                ins.c = offset
                offset += ins.size
        # Locals sit below the return-address slot; overflowing a local
        # buffer upward therefore reaches the return address, like x86.
        self.frame_size = align_up(offset, 16) + self.RET_SLOT
        for ins in code:
            if ins.op in (BR, JMP):
                for attr in ("t1", "t2"):
                    target = getattr(ins, attr)
                    if isinstance(target, str):
                        if target not in index:
                            raise IRVerifyError(
                                f"{self.name}: branch to unknown block {target!r}")
                        setattr(ins, attr, index[target])
        self.code = code
        self.block_index = index
        self.block_starts = frozenset(index.values())
        self.finalized = True
        return self

    def clone(self) -> "Function":
        """Deep-enough copy for passes: new blocks/instrs, shared consts
        values (the pool list itself is copied)."""
        other = Function(self.name, self.params, self.varargs)
        other.nregs = self.nregs
        other.reg_names = list(self.reg_names)
        other.consts = list(self.consts)
        other._const_index = dict(self._const_index)
        for blk in self.blocks:
            new = other.block(blk.name)
            new.instrs = [ins.copy() for ins in blk.instrs]
        return other

    def __repr__(self) -> str:
        return f"Function({self.name!r}, blocks={len(self.blocks)})"


class Module:
    """A linked program-to-be: functions + globals.

    ``meta`` carries pass-to-loader facts — e.g. the SGXBounds pass sets
    ``meta['scheme'] = 'sgxbounds'`` so the loader emits tagged global
    addresses and writes lower-bound metadata words.
    """

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVar] = {}
        self.meta: Dict[str, object] = {}

    def add_function(self, fn: Function) -> Function:
        if fn.name in self.functions:
            raise IRVerifyError(f"duplicate function {fn.name!r}")
        self.functions[fn.name] = fn
        return fn

    def add_global(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals:
            raise IRVerifyError(f"duplicate global {var.name!r}")
        self.globals[var.name] = var
        return var

    def add_string(self, text: bytes, name: Optional[str] = None) -> GlobalVar:
        """Intern a NUL-terminated string literal as a constant global."""
        if name is None:
            name = f".str{len(self.globals)}"
        data = text + b"\x00"
        return self.add_global(GlobalVar(name, len(data), data, align=1,
                                         is_const=True, array_elem=1))

    def finalize(self) -> "Module":
        for fn in self.functions.values():
            fn.finalize()
        return self

    def clone(self) -> "Module":
        other = Module(self.name)
        other.meta = dict(self.meta)
        other.globals = dict(self.globals)   # GlobalVars are immutable enough
        for name, fn in self.functions.items():
            other.functions[name] = fn.clone()
        return other

    def stats(self) -> Dict[str, int]:
        return {
            "functions": len(self.functions),
            "globals": len(self.globals),
            "instructions": sum(
                len(b.instrs) for f in self.functions.values() for b in f.blocks),
        }

    def __repr__(self) -> str:
        return (f"Module({self.name!r}, {len(self.functions)} fns, "
                f"{len(self.globals)} globals)")
