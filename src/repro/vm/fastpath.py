"""Predecoded handler dispatch — the interpreter.

:func:`compile_function` turns one finalized IR function into a flat list
of *bound handler closures*: operands are resolved once per instruction
(register index vs constant-pool value), per-op behaviour comes from a
registry of closure makers, and the hottest instruction pairs observed in
profiles are fused into superinstructions — GEP+LOAD, GEP+STORE, CMP+BR
and MPX's BNDCL+BNDCU+access triple.

The plain handlers are the single definition of each opcode's semantics
and cost.  What they must produce is pinned by the committed expectations
in ``tests/goldens/reference_runs.json`` (``tests/test_vm_differential.py``):
stdout, :class:`~repro.sgx.counters.PerfCounters`, violations and
forensics records for every workload x scheme cell, a server scheme x
policy matrix and a generated-program corpus.  Fused dispatch must be
indistinguishable from plain dispatch — identical counters at every
observable point (native calls, traced memory accesses, violations) and
identical thread interleavings.  The rules that make this hold:

* every handler advances ``counters.instructions`` by its full cost
  *before* any observable side effect — a traced memory access, a native
  call, a raised violation — so timestamps and EPC/cache accounting line
  up to the instruction;
* the dispatch loop charges a fused handler its full quantum cost and
  never starts a superinstruction that does not fit in the remaining
  quantum, so cooperative thread switches land on the same instruction
  boundaries as one-instruction dispatch;
* every code index keeps a valid standalone handler — branches, request
  checkpoints and ``BLOCK_RETRY`` resumes may land *inside* a fused
  region, in which case the tail instructions simply execute unfused.

Handler calling convention: ``handler(frame, regs, thread) -> next_pc``,
where a negative result means "yield to the outer loop" (call, return,
block, thread exit) with ``frame.pc`` already stored.  Fused handlers
occupy the *first* index of their region in ``FastCode.handlers`` with
their length recorded in ``FastCode.costs``; ``FastCode.plain`` holds the
unfused handler for every index.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional

from repro.errors import BoundsViolation, SegmentationFault, TrapError, VMError
from repro.ir import instructions as ops
from repro.ir.instructions import CMP_OPS
from repro.memory.layout import ADDRESS_MASK, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.vm.machine import (
    _BIN,
    _s64,
    BLOCK_RETRY,
    HI32,
    M32,
    M64,
    NativeResult,
    RequestCheckpoint,
    RUNNABLE,
)

_UINT = {1: struct.Struct("<B"), 2: struct.Struct("<H"),
         4: struct.Struct("<I"), 8: struct.Struct("<Q")}
_F64 = struct.Struct("<d")

#: Longest superinstruction, in IR instructions (quantum units).  The
#: dispatch loop falls back to unfused execution once the remaining
#: quantum drops below this, so fused handlers never overdraw a slice.
FUSE_MAX = 3

Handler = Callable[[object, list, object], int]


class FastCode:
    """Predecoded form of one function, bound to one VM's runtime."""

    __slots__ = ("handlers", "costs", "plain", "code", "fusion_sites")

    def __init__(self, handlers: List[Handler], costs: List[int],
                 plain: List[Handler], code: list,
                 fusion_sites: Dict[str, int]):
        self.handlers = handlers
        self.costs = costs
        self.plain = plain
        #: The exact ``fn.code`` list this was compiled from; the loader's
        #: cache re-predecodes whenever a pass swaps the code list out.
        self.code = code
        #: Static superinstruction sites by kind (fused at predecode).
        self.fusion_sites = fusion_sites


# ---------------------------------------------------------------------------
# Inlined memory accessors.  The common access — within one page, page
# already materialized, ordinary permissions — skips the read_uint →
# read_uN → read → _page_for call chain and the intermediate bytes copy.
# AddressSpace's page-run list is authoritative for what is mapped;
# ``space._perms`` holds the permissions of materialized pages only, with
# exactly the keys of ``space._pages``, so a hit in ``_perms`` means the
# page is mapped, materialized and carries those permissions.  A miss —
# unmapped, or mapped but never touched — and anything else unusual (page
# crossing, guard or protected page) falls back to the AddressSpace slow
# path, which raises the same faults with the same messages and
# materializes on first touch.  The tracer fires exactly once per access
# either way: the fast branch only runs after every fallback condition
# has been ruled out, and it reads ``space.tracer`` per access because
# bulk natives swap it out.
# PERM_READ=1 / PERM_RW=3 are frozen constants of the memory layout.
# ---------------------------------------------------------------------------

def _fast_reader(space, size: int) -> Callable[[int], int]:
    pages = space._pages
    perms = space._perms
    read_uint = space.read_uint
    limit = PAGE_SIZE - size
    unpack_from = _UINT[size].unpack_from
    def rd(addr):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            pv = perms.get(idx)
            if pv == 3 or pv == 1:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is not None:
                        tr(addr, size, False)
                    return unpack_from(page, addr & PAGE_MASK)[0]
        return read_uint(addr, size)
    return rd


def _fast_reader_f64(space) -> Callable[[int], float]:
    pages = space._pages
    perms = space._perms
    read_f64 = space.read_f64
    limit = PAGE_SIZE - 8
    unpack_from = _F64.unpack_from
    def rd(addr):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            pv = perms.get(idx)
            if pv == 3 or pv == 1:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is not None:
                        tr(addr, 8, False)
                    return unpack_from(page, addr & PAGE_MASK)[0]
        return read_f64(addr)
    return rd


def _fast_writer(space, size: int) -> Callable[[int, int], None]:
    pages = space._pages
    perms = space._perms
    write_uint = space.write_uint
    limit = PAGE_SIZE - size
    pack_into = _UINT[size].pack_into
    mask = (1 << (size * 8)) - 1
    def wr(addr, value):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            if perms.get(idx) == 3:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is not None:
                        tr(addr, size, True)
                    pack_into(page, addr & PAGE_MASK, value & mask)
                    return
        write_uint(addr, value, size)
    return wr


def _fast_writer_f64(space) -> Callable[[int, float], None]:
    pages = space._pages
    perms = space._perms
    write_f64 = space.write_f64
    limit = PAGE_SIZE - 8
    pack_into = _F64.pack_into
    def wr(addr, value):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            if perms.get(idx) == 3:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is not None:
                        tr(addr, 8, True)
                    pack_into(page, addr & PAGE_MASK, value)
                    return
        write_f64(addr, value)
    return wr


class _MemCache:
    """Per-compile cache of the inlined accessors (one closure per
    (space, size, direction), shared by every handler that needs it)."""

    __slots__ = ("space", "_readers", "_writers", "_rf64", "_wf64")

    def __init__(self, space):
        self.space = space
        self._readers: Dict[int, Callable] = {}
        self._writers: Dict[int, Callable] = {}
        self._rf64 = None
        self._wf64 = None

    def reader(self, size: int) -> Callable[[int], int]:
        rd = self._readers.get(size)
        if rd is None:
            rd = self._readers[size] = _fast_reader(self.space, size)
        return rd

    def writer(self, size: int) -> Callable[[int, int], None]:
        wr = self._writers.get(size)
        if wr is None:
            wr = self._writers[size] = _fast_writer(self.space, size)
        return wr

    def reader_f64(self) -> Callable[[int], float]:
        if self._rf64 is None:
            self._rf64 = _fast_reader_f64(self.space)
        return self._rf64

    def writer_f64(self) -> Callable[[int, float], None]:
        if self._wf64 is None:
            self._wf64 = _fast_writer_f64(self.space)
        return self._wf64


# ---------------------------------------------------------------------------
# Plain (one-instruction) handler makers.  Each maker resolves operands
# once and returns a closure; ``npc`` is the baked fall-through index.
# ---------------------------------------------------------------------------

def _make_binop(ins, consts, npc, counters):
    op = ins.op
    dest, a, b = ins.dest, ins.a, ins.b
    # The hottest integer ops are inlined (no per-execution fn2 call);
    # everything else goes through the _BIN lambdas, which CMP+BR fusion
    # shares, keeping trap/NaN semantics in one place.
    if a >= 0 and b >= 0:
        if op == ops.ADD:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = (regs[a] + regs[b]) & M64
                return npc
            return h
        if op == ops.SUB:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = (regs[a] - regs[b]) & M64
                return npc
            return h
        if op == ops.MUL:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = (regs[a] * regs[b]) & M64
                return npc
            return h
        fn2 = _BIN[op]
        def h(frame, regs, thread):
            counters.instructions += 1
            regs[dest] = fn2(regs[a], regs[b])
            return npc
        return h
    if a >= 0:
        bv = consts[-b - 1]
        if op == ops.ADD:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = (regs[a] + bv) & M64
                return npc
            return h
        if op == ops.SUB:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = (regs[a] - bv) & M64
                return npc
            return h
        if op == ops.MUL:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = (regs[a] * bv) & M64
                return npc
            return h
        fn2 = _BIN[op]
        def h(frame, regs, thread):
            counters.instructions += 1
            regs[dest] = fn2(regs[a], bv)
            return npc
        return h
    av = consts[-a - 1]
    fn2 = _BIN[op]
    if b >= 0:
        def h(frame, regs, thread):
            counters.instructions += 1
            regs[dest] = fn2(av, regs[b])
            return npc
        return h
    bv = consts[-b - 1]
    def h(frame, regs, thread):
        # Not folded at predecode: division by a zero constant must trap
        # at execution time, when the instruction runs.
        counters.instructions += 1
        regs[dest] = fn2(av, bv)
        return npc
    return h


def _make_load(ins, consts, npc, counters, mem):
    a, dest, size = ins.a, ins.dest, ins.size
    read_uint = mem.reader(size)
    if ins.is_float:
        read_f64 = mem.reader_f64()
        if a >= 0:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = read_f64(regs[a] & M32)
                return npc
            return h
        addr = consts[-a - 1] & M32
        def h(frame, regs, thread):
            counters.instructions += 1
            regs[dest] = read_f64(addr)
            return npc
        return h
    if ins.signed and size < 8:
        sign = 1 << (size * 8 - 1)
        wrap = sign << 1
        if a >= 0:
            def h(frame, regs, thread):
                counters.instructions += 1
                value = read_uint(regs[a] & M32)
                regs[dest] = (value - wrap) & M64 if value & sign else value
                return npc
            return h
        addr = consts[-a - 1] & M32
        def h(frame, regs, thread):
            counters.instructions += 1
            value = read_uint(addr)
            regs[dest] = (value - wrap) & M64 if value & sign else value
            return npc
        return h
    if a >= 0:
        def h(frame, regs, thread):
            counters.instructions += 1
            regs[dest] = read_uint(regs[a] & M32)
            return npc
        return h
    addr = consts[-a - 1] & M32
    def h(frame, regs, thread):
        counters.instructions += 1
        regs[dest] = read_uint(addr)
        return npc
    return h


def _make_store(ins, consts, npc, counters, mem):
    a, b, size = ins.a, ins.b, ins.size
    if ins.is_float:
        write_f64 = mem.writer_f64()
        if a >= 0 and b >= 0:
            def h(frame, regs, thread):
                counters.instructions += 1
                write_f64(regs[a] & M32, regs[b])
                return npc
            return h
        def h(frame, regs, thread):
            counters.instructions += 1
            av = regs[a] if a >= 0 else consts[-a - 1]
            bv = regs[b] if b >= 0 else consts[-b - 1]
            write_f64(av & M32, bv)
            return npc
        return h
    write_uint = mem.writer(size)
    if a >= 0 and b >= 0:
        def h(frame, regs, thread):
            counters.instructions += 1
            write_uint(regs[a] & M32, regs[b])
            return npc
        return h
    if a >= 0:
        bv = consts[-b - 1]
        def h(frame, regs, thread):
            counters.instructions += 1
            write_uint(regs[a] & M32, bv)
            return npc
        return h
    addr = consts[-a - 1] & M32
    if b >= 0:
        def h(frame, regs, thread):
            counters.instructions += 1
            write_uint(addr, regs[b])
            return npc
        return h
    bv = consts[-b - 1]
    def h(frame, regs, thread):
        counters.instructions += 1
        write_uint(addr, bv)
        return npc
    return h


def _make_gep(ins, consts, npc, counters, track_bounds):
    a, b, c, size, clamp, dest = ins.a, ins.b, ins.c, ins.size, \
        ins.clamp, ins.dest
    # §3.2's clamped arithmetic: on x86 this lowers to a 32-bit lea plus
    # one merge op, so a clamped GEP costs two instructions.
    inc = 2 if clamp else 1
    if b is None:
        if a >= 0 and not clamp and not track_bounds:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = (regs[a] + c) & M64
                return npc
            return h
        def h(frame, regs, thread):
            counters.instructions += inc
            base = regs[a] if a >= 0 else consts[-a - 1]
            value = base + c
            if clamp:
                value = (base & HI32) | (value & M32)
            else:
                value &= M64
            regs[dest] = value
            if track_bounds:
                bnd = frame.bounds
                if bnd is not None and a >= 0 and a in bnd:
                    bnd[dest] = bnd[a]
            return npc
        return h
    if a >= 0 and b >= 0 and not clamp and not track_bounds:
        def h(frame, regs, thread):
            counters.instructions += 1
            regs[dest] = (regs[a] + regs[b] * size + c) & M64
            return npc
        return h
    def h(frame, regs, thread):
        counters.instructions += inc
        base = regs[a] if a >= 0 else consts[-a - 1]
        idx = regs[b] if b >= 0 else consts[-b - 1]
        value = base + idx * size + c
        if clamp:
            value = (base & HI32) | (value & M32)
        else:
            value &= M64
        regs[dest] = value
        if track_bounds:
            bnd = frame.bounds
            if bnd is not None and a >= 0 and a in bnd:
                bnd[dest] = bnd[a]
        return npc
    return h


def _make_br(ins, consts, counters):
    a, t1, t2 = ins.a, ins.t1, ins.t2
    if a >= 0:
        def h(frame, regs, thread):
            counters.instructions += 1
            counters.branches += 1
            return t1 if regs[a] else t2
        return h
    av = consts[-a - 1]
    target = t1 if av else t2
    def h(frame, regs, thread):
        counters.instructions += 1
        counters.branches += 1
        return target
    return h


def _make_jmp(ins, counters):
    t1 = ins.t1
    def h(frame, regs, thread):
        counters.instructions += 1
        counters.branches += 1
        return t1
    return h


def _make_mov(ins, consts, npc, counters, track_bounds):
    a, dest = ins.a, ins.dest
    if a >= 0:
        if not track_bounds:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = regs[a]
                return npc
            return h
        def h(frame, regs, thread):
            counters.instructions += 1
            regs[dest] = regs[a]
            bnd = frame.bounds
            if bnd is not None and a in bnd:
                bnd[dest] = bnd[a]
            return npc
        return h
    av = consts[-a - 1]
    def h(frame, regs, thread):
        counters.instructions += 1
        regs[dest] = av
        return npc
    return h


def _make_select(ins, consts, npc, counters):
    a, b, c, dest = ins.a, ins.b, ins.c, ins.dest
    def h(frame, regs, thread):
        counters.instructions += 1
        av = regs[a] if a >= 0 else consts[-a - 1]
        chosen = b if av else c
        regs[dest] = regs[chosen] if chosen >= 0 else consts[-chosen - 1]
        return npc
    return h


def _make_alloca(ins, npc, counters):
    dest, c = ins.dest, ins.c
    def h(frame, regs, thread):
        counters.instructions += 1
        regs[dest] = frame.base + c
        return npc
    return h


def _make_unary(ins, consts, npc, counters):
    op, a, dest = ins.op, ins.a, ins.dest
    if op == ops.TRUNC:
        mask = (1 << (ins.size * 8)) - 1
        if a >= 0:
            def h(frame, regs, thread):
                counters.instructions += 1
                regs[dest] = regs[a] & mask
                return npc
            return h
        av = consts[-a - 1]
        def h(frame, regs, thread):
            counters.instructions += 1
            regs[dest] = av & mask
            return npc
        return h
    if op == ops.SEXT:
        bits = ins.size * 8
        sign = 1 << (bits - 1)
        mask = (1 << bits) - 1
        wrap = 1 << bits
        def h(frame, regs, thread):
            counters.instructions += 1
            av = (regs[a] if a >= 0 else consts[-a - 1]) & mask
            regs[dest] = (av - wrap) & M64 if av & sign else av
            return npc
        return h
    if op == ops.SITOFP:
        def h(frame, regs, thread):
            counters.instructions += 1
            av = regs[a] if a >= 0 else consts[-a - 1]
            regs[dest] = float(_s64(av))
            return npc
        return h
    if op == ops.FPTOSI:
        def h(frame, regs, thread):
            counters.instructions += 1
            av = regs[a] if a >= 0 else consts[-a - 1]
            regs[dest] = int(av) & M64
            return npc
        return h
    # FNEG
    def h(frame, regs, thread):
        counters.instructions += 1
        av = regs[a] if a >= 0 else consts[-a - 1]
        regs[dest] = -av
        return npc
    return h


def _make_atomicrmw(ins, consts, npc, counters, mem):
    a, b, dest, size, kind = ins.a, ins.b, ins.dest, ins.size, ins.name
    read_uint = mem.reader(size)
    write_uint = mem.writer(size)
    def h(frame, regs, thread):
        counters.instructions += 1
        addr = (regs[a] if a >= 0 else consts[-a - 1]) & M32
        val = regs[b] if b >= 0 else consts[-b - 1]
        old = read_uint(addr)
        if kind == "add":
            write_uint(addr, (old + val) & M64)
        elif kind == "xchg":
            write_uint(addr, val)
        elif kind == "sub":
            write_uint(addr, (old - val) & M64)
        else:
            # The (traced) read of the old value happens before the
            # unknown-kind diagnostic.
            raise VMError(f"unknown atomicrmw kind {kind!r}")
        regs[dest] = old
        return npc
    return h


def _make_cmpxchg(ins, consts, npc, counters, mem):
    a, b, c, dest, size = ins.a, ins.b, ins.c, ins.dest, ins.size
    read_uint = mem.reader(size)
    write_uint = mem.writer(size)
    def h(frame, regs, thread):
        counters.instructions += 1
        addr = (regs[a] if a >= 0 else consts[-a - 1]) & M32
        expected = regs[b] if b >= 0 else consts[-b - 1]
        desired = regs[c] if c >= 0 else consts[-c - 1]
        old = read_uint(addr)
        if old == expected:
            write_uint(addr, desired)
        regs[dest] = old
        return npc
    return h


def _make_bndmk(ins, consts, npc, counters):
    a, b, dest = ins.a, ins.b, ins.dest
    def h(frame, regs, thread):
        counters.instructions += 1
        base = (regs[a] if a >= 0 else consts[-a - 1]) & M32
        size = regs[b] if b >= 0 else consts[-b - 1]
        if frame.bounds is not None:
            frame.bounds[dest] = (base, base + size)
        return npc
    return h


def _make_bndcl(ins, consts, npc, counters, vm):
    a, breg = ins.a, ins.dest
    inc = 2 + (ins.c or 0)   # loop-top 1 + micro-coded 1 + spill cost
    scheme = vm.scheme
    def h(frame, regs, thread):
        counters.instructions += inc
        counters.bounds_checks += 1
        fb = frame.bounds
        if fb is not None:
            bnd = fb.get(breg)
            if bnd is not None:
                val = (regs[a] if a >= 0 else consts[-a - 1]) & M32
                if val < bnd[0]:
                    scheme.handle_violation(vm, BoundsViolation(
                        "mpx", val, bnd[0], bnd[1], access="read",
                        what="bndcl"))
        return npc
    return h


def _make_bndcu(ins, consts, npc, counters, vm):
    a, breg, size = ins.a, ins.dest, ins.size
    inc = 2 + (ins.c or 0)
    scheme = vm.scheme
    def h(frame, regs, thread):
        counters.instructions += inc
        counters.bounds_checks += 1
        fb = frame.bounds
        if fb is not None:
            bnd = fb.get(breg)
            if bnd is not None:
                val = (regs[a] if a >= 0 else consts[-a - 1]) & M32
                if val + size > bnd[1]:
                    scheme.handle_violation(vm, BoundsViolation(
                        "mpx", val, bnd[0], bnd[1], size=size,
                        access="read", what="bndcu"))
        return npc
    return h


def _make_bndldx(ins, consts, npc, counters, vm):
    a, dest = ins.a, ins.dest
    scheme = vm.scheme
    def h(frame, regs, thread):
        counters.instructions += 5   # loop-top 1 + BD/BT walk 4
        slot = (regs[a] if a >= 0 else consts[-a - 1]) & M32
        fb = frame.bounds
        if fb is not None:
            loaded = scheme.bt_load(vm, slot)
            if loaded is not None:
                fb[dest] = loaded
            else:
                fb.pop(dest, None)
        return npc
    return h


def _make_bndstx(ins, consts, npc, counters, vm):
    a, dest = ins.a, ins.dest
    scheme = vm.scheme
    def h(frame, regs, thread):
        counters.instructions += 5
        slot = (regs[a] if a >= 0 else consts[-a - 1]) & M32
        fb = frame.bounds
        if fb is not None:
            scheme.bt_store(vm, slot, fb.get(dest))
        return npc
    return h


def _make_trap(ins, counters):
    message = ins.name or "trap"
    def h(frame, regs, thread):
        counters.instructions += 1
        raise TrapError(message)
    return h


def _make_nop(npc, counters):
    def h(frame, regs, thread):
        counters.instructions += 1
        return npc
    return h


def _make_raise(message, counters):
    def h(frame, regs, thread):
        counters.instructions += 1
        raise VMError(message)
    return h


# ---------------------------------------------------------------------------
# Calls and returns (the yield points of the dispatch loop).
# ---------------------------------------------------------------------------

def _arg_plan(args, consts):
    """Bake each argument operand to (is_register, index_or_value)."""
    return tuple((True, x) if x >= 0 else (False, consts[-x - 1])
                 for x in args)


def _make_call(ins, consts, i, counters, vm, track_bounds):
    npc = i + 1
    dest = ins.dest
    args = ins.args
    plan = _arg_plan(args, consts)
    name = ins.name
    telem = vm.telemetry
    program = vm.program

    if name is not None:
        callee = program.functions.get(name)
        if callee is None:
            # Natives are looked up per call, so a handler table swapped
            # in after predecode — or a genuinely unknown name — is seen
            # when the call runs.
            natives = vm.natives
            def h(frame, regs, thread):
                counters.instructions += 1
                counters.calls += 1
                values = [regs[x] if isreg else x
                          for isreg, x in plan]
                native = natives.get(name)
                if native is None:
                    raise VMError(f"unknown function {name!r}")
                if track_bounds and frame.bounds is not None:
                    vm.native_arg_bounds = [
                        frame.bounds.get(x) if x >= 0 else None
                        for x in args]
                if telem is None:
                    result = native(vm, thread, values)
                else:
                    t0 = counters.instructions
                    result = native(vm, thread, values)
                    telem.native_call(name, thread.tid, t0,
                                      counters.instructions)
                if result is BLOCK_RETRY:
                    frame.pc = i   # re-execute the call on wake
                    return -1
                if vm._ckpt_pending is not None:
                    # net_recv asked for a request checkpoint.  Snapshot
                    # at the CALL itself (before the result lands in a
                    # register): restoring re-executes net_recv, which
                    # then serves the *next* request.
                    ck_conn, ck_raw = vm._ckpt_pending
                    vm._ckpt_pending = None
                    frame.pc = i
                    thread.checkpoint = RequestCheckpoint(
                        thread, ck_conn, ck_raw)
                if type(result) is NativeResult:
                    if dest is not None:
                        regs[dest] = result.value
                        if frame.bounds is not None and result.bounds:
                            frame.bounds[dest] = result.bounds
                elif dest is not None:
                    regs[dest] = result if result is not None else 0
                if thread.state != RUNNABLE \
                        or thread.frames[-1] is not frame:
                    frame.pc = npc
                    return -1
                return npc
            return h

        def h(frame, regs, thread):
            counters.instructions += 1
            counters.calls += 1
            values = [regs[x] if isreg else x for isreg, x in plan]
            arg_bounds = None
            if track_bounds and frame.bounds is not None:
                arg_bounds = {}
                fb = frame.bounds
                for j, x in enumerate(args):
                    if x >= 0 and x in fb:
                        arg_bounds[j] = fb[x]
            frame.pc = npc
            vm._push_frame(thread, callee, values, dest, arg_bounds)
            return -1
        return h

    # Indirect call through a register/constant function pointer.
    a = ins.a
    def h(frame, regs, thread):
        counters.instructions += 1
        counters.calls += 1
        values = [regs[x] if isreg else x for isreg, x in plan]
        target = (regs[a] if a >= 0 else consts[-a - 1]) & ADDRESS_MASK
        callee = program.function_at(target)
        if callee is None:
            raise SegmentationFault(target, 1, "indirect call to non-code")
        arg_bounds = None
        if track_bounds and frame.bounds is not None:
            arg_bounds = {}
            fb = frame.bounds
            for j, x in enumerate(args):
                if x >= 0 and x in fb:
                    arg_bounds[j] = fb[x]
        frame.pc = npc
        vm._push_frame(thread, callee, values, dest, arg_bounds)
        return -1
    return h


def _make_ret(ins, consts, counters, vm, track_bounds, mem):
    a = ins.a
    telem = vm.telemetry
    read_u64 = mem.reader(8)
    aval = None if a is None or a >= 0 else consts[-a - 1]
    def h(frame, regs, thread):
        counters.instructions += 1
        if a is None:
            value = 0
        elif a >= 0:
            value = regs[a]
        else:
            value = aval
        actual = read_u64(frame.ret_slot)
        if actual != frame.token:
            vm._corrupted_return(actual)
        ret_bounds = None
        if track_bounds and frame.bounds is not None \
                and a is not None and a >= 0:
            ret_bounds = frame.bounds.get(a)
        thread.frames.pop()
        if telem is not None:
            telem.function_exit(frame.fn.name, thread.tid,
                                counters.instructions)
        thread.sp = frame.base + frame.fn.frame_size
        if not thread.frames:
            vm._finish_thread(thread, value)
            return -1
        parent = thread.frames[-1]
        if frame.dest is not None:
            parent.regs[frame.dest] = value
            if parent.bounds is not None and ret_bounds:
                parent.bounds[frame.dest] = ret_bounds
        return -1
    return h


# ---------------------------------------------------------------------------
# Superinstructions.
# ---------------------------------------------------------------------------

def _fuse_gep_load(gep, load, consts, i, counters, mem, track_bounds,
                   stats):
    npc = i + 2
    ga, gb, gc, gsize, clamp = gep.a, gep.b, gep.c, gep.size, gep.clamp
    gdest = gep.dest
    ldest, lsize = load.dest, load.size
    # GEP's loop-top 1 (+1 clamped merge) plus LOAD's loop-top 1, all
    # charged before the traced read — identical totals at the only
    # observable point of the pair.
    inc = 3 if clamp else 2
    is_float = load.is_float
    signed = load.signed and lsize < 8
    sign = 1 << (lsize * 8 - 1)
    wrap = sign << 1
    read_f64 = mem.reader_f64() if is_float else None
    read_uint = mem.reader(lsize) if not is_float else None
    def h(frame, regs, thread):
        counters.instructions += inc
        base = regs[ga] if ga >= 0 else consts[-ga - 1]
        if gb is None:
            value = base + gc
        else:
            value = base + (regs[gb] if gb >= 0 else consts[-gb - 1]) \
                * gsize + gc
        if clamp:
            value = (base & HI32) | (value & M32)
        else:
            value &= M64
        regs[gdest] = value
        if track_bounds:
            bnd = frame.bounds
            if bnd is not None and ga >= 0 and ga in bnd:
                bnd[gdest] = bnd[ga]
        if is_float:
            regs[ldest] = read_f64(value & M32)
        else:
            loaded = read_uint(value & M32)
            if signed and loaded & sign:
                loaded = (loaded - wrap) & M64
            regs[ldest] = loaded
        if stats is not None:
            stats["gep_load"] += 1
        return npc
    return h


def _fuse_gep_store(gep, store, consts, i, counters, mem, track_bounds,
                    stats):
    npc = i + 2
    ga, gb, gc, gsize, clamp = gep.a, gep.b, gep.c, gep.size, gep.clamp
    gdest = gep.dest
    sb, ssize = store.b, store.size
    inc = 3 if clamp else 2
    is_float = store.is_float
    write_f64 = mem.writer_f64() if is_float else None
    write_uint = mem.writer(ssize) if not is_float else None
    def h(frame, regs, thread):
        counters.instructions += inc
        base = regs[ga] if ga >= 0 else consts[-ga - 1]
        if gb is None:
            value = base + gc
        else:
            value = base + (regs[gb] if gb >= 0 else consts[-gb - 1]) \
                * gsize + gc
        if clamp:
            value = (base & HI32) | (value & M32)
        else:
            value &= M64
        regs[gdest] = value
        if track_bounds:
            bnd = frame.bounds
            if bnd is not None and ga >= 0 and ga in bnd:
                bnd[gdest] = bnd[ga]
        stored = regs[sb] if sb >= 0 else consts[-sb - 1]
        if is_float:
            write_f64(value & M32, stored)
        else:
            write_uint(value & M32, stored)
        if stats is not None:
            stats["gep_store"] += 1
        return npc
    return h


def _chain2(h1, h2, stats):
    """Batch two adjacent handlers into one dispatch.  Valid whenever h1
    is straight-line (fixed fall-through, never yields): every sub-handler
    still charges its own counters before its own observable effects, so
    an exception from h2 leaves exactly the state plain dispatch would."""
    if stats is None:
        def h(frame, regs, thread):
            h1(frame, regs, thread)
            return h2(frame, regs, thread)
        return h
    def h(frame, regs, thread):
        h1(frame, regs, thread)
        stats["chain"] += 1
        return h2(frame, regs, thread)
    return h


def _chain3(h1, h2, h3, stats):
    if stats is None:
        def h(frame, regs, thread):
            h1(frame, regs, thread)
            h2(frame, regs, thread)
            return h3(frame, regs, thread)
        return h
    def h(frame, regs, thread):
        h1(frame, regs, thread)
        h2(frame, regs, thread)
        stats["chain"] += 1
        return h3(frame, regs, thread)
    return h


def _fuse_cmp_br(cmp_ins, br, consts, counters, stats):
    fn2 = _BIN[cmp_ins.op]
    a, b, dest = cmp_ins.a, cmp_ins.b, cmp_ins.dest
    t1, t2 = br.t1, br.t2
    def h(frame, regs, thread):
        counters.instructions += 2
        counters.branches += 1
        av = regs[a] if a >= 0 else consts[-a - 1]
        bv = regs[b] if b >= 0 else consts[-b - 1]
        cond = fn2(av, bv)
        regs[dest] = cond
        if stats is not None:
            stats["cmp_br"] += 1
        return t1 if cond else t2
    return h


def _fuse_bnd_access(cl, cu, access, consts, i, counters, mem, vm,
                     stats):
    """MPX's BNDCL + BNDCU + load/store triple (the paper's per-access
    check sequence), with counter updates interleaved step by step so a
    violation raised from either check carries the same timestamp as
    under plain dispatch."""
    npc = i + 3
    pa, breg = cl.a, cl.dest
    inc_cl = 2 + (cl.c or 0)
    inc_cu = 2 + (cu.c or 0)
    cu_size = cu.size
    scheme = vm.scheme
    is_store = access.op == ops.STORE
    asize = access.size
    is_float = access.is_float
    signed = access.signed and asize < 8
    sign = 1 << (asize * 8 - 1)
    wrap = sign << 1
    sb = access.b
    adest = access.dest
    read_f64 = mem.reader_f64() if is_float else None
    write_f64 = mem.writer_f64() if is_float else None
    read_uint = mem.reader(asize) if not is_float else None
    write_uint = mem.writer(asize) if not is_float else None
    def h(frame, regs, thread):
        counters.instructions += inc_cl
        counters.bounds_checks += 1
        fb = frame.bounds
        bnd = fb.get(breg) if fb is not None else None
        if bnd is not None:
            val = (regs[pa] if pa >= 0 else consts[-pa - 1]) & M32
            if val < bnd[0]:
                scheme.handle_violation(vm, BoundsViolation(
                    "mpx", val, bnd[0], bnd[1], access="read",
                    what="bndcl"))
        counters.instructions += inc_cu
        counters.bounds_checks += 1
        if bnd is not None:
            val = (regs[pa] if pa >= 0 else consts[-pa - 1]) & M32
            if val + cu_size > bnd[1]:
                scheme.handle_violation(vm, BoundsViolation(
                    "mpx", val, bnd[0], bnd[1], size=cu_size,
                    access="read", what="bndcu"))
        counters.instructions += 1
        addr = (regs[pa] if pa >= 0 else consts[-pa - 1]) & M32
        if is_store:
            stored = regs[sb] if sb >= 0 else consts[-sb - 1]
            if is_float:
                write_f64(addr, stored)
            else:
                write_uint(addr, stored)
        elif is_float:
            regs[adest] = read_f64(addr)
        else:
            loaded = read_uint(addr)
            if signed and loaded & sign:
                loaded = (loaded - wrap) & M64
            regs[adest] = loaded
        if stats is not None:
            stats["bnd_access"] += 1
        return npc
    return h


# ---------------------------------------------------------------------------
# The predecoder.
# ---------------------------------------------------------------------------

def _make_plain(ins, consts, i, counters, vm, track_bounds, mem):
    """Standalone handler for one instruction: the single definition of
    its opcode's semantics and cost."""
    npc = i + 1
    op = ins.op
    if op in _BIN:
        return _make_binop(ins, consts, npc, counters)
    if op == ops.LOAD:
        return _make_load(ins, consts, npc, counters, mem)
    if op == ops.STORE:
        return _make_store(ins, consts, npc, counters, mem)
    if op == ops.GEP:
        return _make_gep(ins, consts, npc, counters, track_bounds)
    if op == ops.BR:
        return _make_br(ins, consts, counters)
    if op == ops.JMP:
        return _make_jmp(ins, counters)
    if op == ops.MOV:
        return _make_mov(ins, consts, npc, counters, track_bounds)
    if op == ops.SELECT:
        return _make_select(ins, consts, npc, counters)
    if op == ops.CALL:
        return _make_call(ins, consts, i, counters, vm, track_bounds)
    if op == ops.RET:
        return _make_ret(ins, consts, counters, vm, track_bounds, mem)
    if op == ops.ALLOCA:
        return _make_alloca(ins, npc, counters)
    if op in (ops.TRUNC, ops.SEXT, ops.SITOFP, ops.FPTOSI, ops.FNEG):
        return _make_unary(ins, consts, npc, counters)
    if op == ops.ATOMICRMW:
        return _make_atomicrmw(ins, consts, npc, counters, mem)
    if op == ops.CMPXCHG:
        return _make_cmpxchg(ins, consts, npc, counters, mem)
    if op == ops.BNDMK:
        return _make_bndmk(ins, consts, npc, counters)
    if op == ops.BNDCL:
        return _make_bndcl(ins, consts, npc, counters, vm)
    if op == ops.BNDCU:
        return _make_bndcu(ins, consts, npc, counters, vm)
    if op == ops.BNDLDX:
        return _make_bndldx(ins, consts, npc, counters, vm)
    if op == ops.BNDSTX:
        return _make_bndstx(ins, consts, npc, counters, vm)
    if op == ops.TRAP:
        return _make_trap(ins, counters)
    if op == ops.NOP:
        return _make_nop(npc, counters)
    return _make_raise(
        f"unhandled opcode {op} ({ops.OP_NAMES.get(op)})", counters)


#: Ops whose handlers are straight-line: fixed fall-through, never yield
#: to the dispatch loop.  (They may still raise — traps, faults and
#: violations propagate from inside a chain with plain-dispatch state.)
_STRAIGHT_OPS = frozenset(_BIN) | frozenset((
    ops.LOAD, ops.STORE, ops.GEP, ops.MOV, ops.SELECT, ops.ALLOCA,
    ops.TRUNC, ops.SEXT, ops.SITOFP, ops.FPTOSI, ops.FNEG,
    ops.ATOMICRMW, ops.CMPXCHG, ops.BNDMK, ops.BNDCL, ops.BNDCU,
    ops.BNDLDX, ops.BNDSTX, ops.NOP))

#: Ops that may end (but not start or continue) a chain: they transfer
#: control, so the chain simply returns their computed target.
_TERM_OPS = frozenset((ops.BR, ops.JMP))

_STRAIGHT_FUSED = frozenset(("gep_load", "gep_store", "bnd_access"))


def compile_function(vm, fn, consts) -> FastCode:
    """Predecode ``fn`` against ``vm``'s bound runtime (space, counters,
    scheme, telemetry) and ``consts`` (the loader-resolved pool)."""
    counters = vm.counters
    mem = _MemCache(vm.space)
    track_bounds = vm.scheme.uses_register_bounds
    code = fn.code
    n = len(code)
    plain: List[Handler] = [
        _make_plain(code[i], consts, i, counters, vm, track_bounds, mem)
        for i in range(n)]
    handlers = list(plain)
    costs = [1] * n
    sites: Dict[str, int] = {}

    # Superinstruction fusion.  A fused region must be straight-line
    # (no instruction after the head may be a jump target).  Only MPX
    # emits BNDCL/BNDCU and tracks register bounds, so only MPX code
    # gets ``bnd_access``.
    starts = getattr(fn, "block_starts", None)
    if starts is None:
        starts = frozenset(fn.block_index.values())
    # Fusion hits are only tallied when telemetry observes the run: the
    # default path keeps the zero-cost-when-off contract.
    stats = None
    if vm.telemetry is not None:
        stats = vm.fastpath_stats
        for kind in ("gep_load", "gep_store", "cmp_br", "bnd_access",
                     "chain"):
            stats.setdefault(kind, 0)
    fkind: Dict[int, str] = {}
    i = 0
    while i < n - 1:
        ins = code[i]
        nxt = code[i + 1]
        fused = None
        kind = None
        length = 2
        if i + 1 not in starts:
            if ins.op == ops.GEP and ins.dest is not None:
                if nxt.op == ops.LOAD and nxt.a == ins.dest:
                    fused = _fuse_gep_load(ins, nxt, consts, i, counters,
                                           mem, track_bounds, stats)
                    kind = "gep_load"
                elif nxt.op == ops.STORE and nxt.a == ins.dest:
                    fused = _fuse_gep_store(ins, nxt, consts, i, counters,
                                            mem, track_bounds, stats)
                    kind = "gep_store"
            elif ins.op in CMP_OPS and nxt.op == ops.BR \
                    and nxt.a == ins.dest and ins.dest is not None:
                fused = _fuse_cmp_br(ins, nxt, consts, counters, stats)
                kind = "cmp_br"
            elif ins.op == ops.BNDCL and nxt.op == ops.BNDCU \
                    and track_bounds \
                    and i + 2 < n and i + 2 not in starts \
                    and nxt.dest == ins.dest and nxt.a == ins.a:
                access = code[i + 2]
                if access.op in (ops.LOAD, ops.STORE) \
                        and access.a == ins.a:
                    fused = _fuse_bnd_access(ins, nxt, access, consts, i,
                                             counters, mem, vm, stats)
                    kind = "bnd_access"
                    length = 3
        if fused is not None:
            handlers[i] = fused
            costs[i] = length
            fkind[i] = kind
            sites[kind] = sites.get(kind, 0) + 1
            i += length
        else:
            i += 1

    # Second pass: batch the remaining adjacent straight-line handlers
    # (including the specialized superinstructions above) into chains of
    # up to FUSE_MAX quantum units, ending early on a control transfer.
    # Pure dispatch elision — each sub-handler runs unchanged, so the
    # plain-dispatch identity is untouched; only loop bookkeeping is saved.
    def _straight(idx):
        k = fkind.get(idx)
        if k is not None:
            return k in _STRAIGHT_FUSED
        return code[idx].op in _STRAIGHT_OPS

    def _chainable_tail(idx):
        k = fkind.get(idx)
        if k is not None:
            return k in _STRAIGHT_FUSED or k == "cmp_br"
        return code[idx].op in _STRAIGHT_OPS or code[idx].op in _TERM_OPS

    i = 0
    while i < n:
        total = costs[i]
        if total >= FUSE_MAX or not _straight(i):
            i += total
            continue
        j = i + total
        if j >= n or j in starts or costs[j] + total > FUSE_MAX \
                or not _chainable_tail(j):
            i += total
            continue
        members = [handlers[i], handlers[j]]
        total += costs[j]
        if _straight(j) and total < FUSE_MAX:
            k = j + costs[j]
            if k < n and k not in starts \
                    and costs[k] + total <= FUSE_MAX \
                    and _chainable_tail(k):
                members.append(handlers[k])
                total += costs[k]
        if len(members) == 2:
            handlers[i] = _chain2(members[0], members[1], stats)
        else:
            handlers[i] = _chain3(members[0], members[1], members[2],
                                  stats)
        costs[i] = total
        sites["chain"] = sites.get("chain", 0) + 1
        i += total
    return FastCode(handlers, costs, plain, code, sites)
