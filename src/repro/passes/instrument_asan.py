"""AddressSanitizer instrumentation pass (paper §2.2, Figure 4b).

Before every (unsafe) memory access the pass inserts the classic ASan fast
path — compute the shadow address, load the shadow byte, branch to a slow
path when non-zero — and wraps stack objects in poisoned redzones.  The
shadow load is a real load in simulated memory, which is where ASan's
cache/EPC pressure comes from.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.asan.shadow import GRANULE, REDZONE
from repro.ir import ops
from repro.ir.instructions import Instr
from repro.ir.module import Block, Function, Module
from repro.memory.layout import ASAN_SHADOW_BASE, ASAN_SHADOW_SCALE, align_up

CHECK_HANDLER = "__asan_check"
POISON_STACK = "__asan_poison_stack"
UNPOISON_STACK = "__asan_unpoison_stack"

_ACCESS_OPS = (ops.LOAD, ops.STORE, ops.ATOMICRMW, ops.CMPXCHG)


class _FunctionInstrumenter:
    def __init__(self, fn: Function):
        self.fn = fn
        self.counter = 0
        self.checks = 0
        self.stack_objects: List[Tuple[int, int]] = []   # (raw reg, size)

    def fresh(self, hint: str) -> str:
        self.counter += 1
        return f"__as_{hint}{self.counter}"

    def wrap_alloca(self, out: List[Instr], ins: Instr) -> None:
        fn = self.fn
        size = ins.size
        rounded = align_up(size, GRANULE)
        raw = fn.new_reg("as_raw")
        out.append(Instr(ops.ALLOCA, dest=raw,
                         size=rounded + 2 * REDZONE,
                         b=max(ins.b or 8, GRANULE), safe=True,
                         comment="asan: +redzones"))
        out.append(Instr(ops.GEP, dest=ins.dest, a=raw, c=REDZONE,
                         size=1, safe=True, comment="skip left redzone"))
        out.append(Instr(ops.CALL, name=POISON_STACK,
                         args=(raw, fn.intern_const(size)), safe=True))
        self.stack_objects.append((raw, size))

    def check_access(self, blocks: List[Block], cur: Block,
                     ins: Instr) -> Block:
        fn = self.fn
        pointer = ins.a
        t_sh = fn.new_reg("as_sh")
        t_sa = fn.new_reg("as_sa")
        t_sv = fn.new_reg("as_sv")
        t_c = fn.new_reg("as_c")
        slow_name = self.fresh("slow")
        ok_name = self.fresh("ok")
        is_write = 0 if ins.op == ops.LOAD else 1

        cur.instrs.append(Instr(ops.LSHR, dest=t_sh, a=pointer,
                                b=fn.intern_const(ASAN_SHADOW_SCALE),
                                comment="shadow offset"))
        cur.instrs.append(Instr(ops.ADD, dest=t_sa, a=t_sh,
                                b=fn.intern_const(ASAN_SHADOW_BASE)))
        cur.instrs.append(Instr(ops.LOAD, dest=t_sv, a=t_sa, size=1,
                                safe=True, comment="shadow byte"))
        cur.instrs.append(Instr(ops.NE, dest=t_c, a=t_sv,
                                b=fn.intern_const(0)))
        cur.instrs.append(Instr(ops.BR, a=t_c, t1=slow_name, t2=ok_name))

        slow_blk = Block(slow_name)
        slow_blk.instrs.append(Instr(
            ops.CALL, name=CHECK_HANDLER,
            args=(pointer, fn.intern_const(ins.size),
                  fn.intern_const(is_write)), safe=True,
            comment="partial granule or poison"))
        slow_blk.instrs.append(Instr(ops.JMP, t1=ok_name))

        ok_blk = Block(ok_name)
        access = ins.copy()
        access.safe = True
        ok_blk.instrs.append(access)
        blocks.extend((slow_blk, ok_blk))
        self.checks += 1
        return ok_blk

    def run(self) -> None:
        fn = self.fn
        new_blocks: List[Block] = []
        for blk in fn.blocks:
            cur = Block(blk.name)
            new_blocks.append(cur)
            for ins in blk.instrs:
                if ins.op == ops.ALLOCA and not ins.safe:
                    self.wrap_alloca(cur.instrs, ins)
                    continue
                if ins.op in _ACCESS_OPS and not ins.safe:
                    cur = self.check_access(new_blocks, cur, ins)
                    continue
                if ins.op == ops.RET and self.stack_objects:
                    for raw, size in self.stack_objects:
                        cur.instrs.append(Instr(
                            ops.CALL, name=UNPOISON_STACK,
                            args=(raw, fn.intern_const(size)), safe=True))
                cur.instrs.append(ins)
        fn.blocks = new_blocks


def run_asan_instrumentation(module: Module) -> Module:
    total = 0
    for fn in module.functions.values():
        worker = _FunctionInstrumenter(fn)
        worker.run()
        total += worker.checks
    module.meta["scheme"] = "asan"
    module.meta["checks_inserted"] = total
    return module
