"""Predecoded handler dispatch — the interpreter.

:func:`compile_function` turns one finalized IR function into a flat list
of *bound handler closures*, in two tiers:

1. *plain* handlers, one per instruction, with operands resolved once
   (register index vs constant-pool value);
2. *compiled blocks*: once a basic block has been entered
   ``BLOCK_THRESHOLD`` times, its straight-line region becomes one
   generated Python function (see "Compiled blocks" below).

The block writer's per-op emission (:class:`_BlockWriter`) is the single
definition of the semantics and cost of every op it emits as source: the
binops, LOAD, STORE, GEP, MOV, SELECT, ALLOCA, the conversions, FNEG,
BR, JMP and NOP.  Their plain handlers are one-instruction renderings of
that emission, compiled once per instruction shape and cached for the
process; the remaining ops (calls, returns, traps, atomics, MPX ops) and
the five function-backed binops have one hand-written maker each.  What
the interpreter must produce is pinned by the committed expectations in
``tests/goldens/reference_runs.json`` (``tests/test_vm_differential.py``):
stdout, :class:`~repro.sgx.counters.PerfCounters`, violations and
forensics records for every workload x scheme cell, a server scheme x
policy matrix and a generated-program corpus.  Compiled blocks must be
indistinguishable from plain dispatch — identical counters at every
observable point (native calls, traced memory accesses, violations,
exceptions) and identical thread interleavings.  The rules that make this
hold:

* ``counters.instructions`` covers every instruction before any
  observable side effect — a traced memory access, a native call, a
  raised violation — so timestamps and EPC/cache accounting line up to
  the instruction;
* the dispatch loop runs ``handlers[pc]`` only when ``costs[pc]`` — the
  number of instructions it executes — fits in the remaining quantum,
  and finishes the slice on plain handlers otherwise, so cooperative
  thread switches land on the same instruction boundaries as
  one-instruction dispatch;
* every code index keeps a valid standalone handler — branches, request
  checkpoints and ``BLOCK_RETRY`` resumes may land *inside* a block, in
  which case the tail instructions simply execute on their own handlers.

Handler calling convention: ``handler(frame, regs, thread) -> next_pc``,
where a negative result means "yield to the outer loop" (call, return,
block, thread exit) with ``frame.pc`` already stored.  A compiled block
occupies the *first* index of its region in ``FastCode.handlers`` with
its length recorded in ``FastCode.costs``; ``FastCode.plain`` holds the
plain handler for every index.
"""

from __future__ import annotations

import math
import struct
import weakref
from typing import Callable, Dict, List, Optional

from repro.errors import BoundsViolation, SegmentationFault, TrapError, VMError
from repro.ir import instructions as ops
from repro.memory.layout import ADDRESS_MASK, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.sgx.cache import LINE_SHIFT, LINE_SIZE
from repro.vm.machine import (
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
_LINE_MASK = LINE_SIZE - 1

Handler = Callable[[object, list, object], int]


class FastCode:
    """Predecoded form of one function, bound to one VM's runtime."""

    __slots__ = ("handlers", "costs", "plain", "code")

    def __init__(self, handlers: List[Handler], costs: List[int],
                 plain: List[Handler], code: list):
        self.handlers = handlers
        self.costs = costs
        self.plain = plain
        #: The exact ``fn.code`` list this was compiled from; the loader's
        #: cache re-predecodes whenever a pass swaps the code list out.
        self.code = code


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
# materializes on first touch.  The access is charged exactly once either
# way: the fast branch only runs after every fallback condition has been
# ruled out, and it reads ``space.tracer`` per access because bulk
# natives swap it out.  While the tracer is one of the enclave's own
# hooks, an access within one cache line that hits L1 is charged right
# here (``Enclave.l1_hit_path``): the same counters and the same LRU
# move as ``Cache.access``, one frame instead of four.
# PERM_READ=1 / PERM_RW=3 are frozen constants of the memory layout.
# ---------------------------------------------------------------------------

#: ``l1`` of an accessor over a bare AddressSpace: no hook is the
#: enclave's, so every access goes through ``space.tracer``.
_NO_L1 = ((object(), object()), {}, 1, None)

def _fast_reader(space, size: int, l1=None) -> Callable[[int], int]:
    pages = space._pages
    perms = space._perms
    read_uint = space.read_uint
    limit = PAGE_SIZE - size
    unpack_from = _UINT[size].unpack_from
    (own, observed), l1sets, nsets, counters = l1 or _NO_L1
    in_line = LINE_SIZE - size
    def rd(addr):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            pv = perms.get(idx)
            if pv == 3 or pv == 1:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is own or tr is observed:
                        if addr & _LINE_MASK <= in_line:
                            line = addr >> LINE_SHIFT
                            ways = l1sets.get(line % nsets)
                            if ways is not None and line in ways:
                                del ways[line]
                                ways[line] = None
                                counters.loads += 1
                                counters.l1_accesses += 1
                                return unpack_from(page, addr & PAGE_MASK)[0]
                        tr(addr, size, False)
                    elif tr is not None:
                        tr(addr, size, False)
                    return unpack_from(page, addr & PAGE_MASK)[0]
        return read_uint(addr, size)
    return rd


def _fast_reader_f64(space, l1=None) -> Callable[[int], float]:
    pages = space._pages
    perms = space._perms
    read_f64 = space.read_f64
    limit = PAGE_SIZE - 8
    unpack_from = _F64.unpack_from
    (own, observed), l1sets, nsets, counters = l1 or _NO_L1
    in_line = LINE_SIZE - 8
    def rd(addr):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            pv = perms.get(idx)
            if pv == 3 or pv == 1:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is own or tr is observed:
                        if addr & _LINE_MASK <= in_line:
                            line = addr >> LINE_SHIFT
                            ways = l1sets.get(line % nsets)
                            if ways is not None and line in ways:
                                del ways[line]
                                ways[line] = None
                                counters.loads += 1
                                counters.l1_accesses += 1
                                return unpack_from(page, addr & PAGE_MASK)[0]
                        tr(addr, 8, False)
                    elif tr is not None:
                        tr(addr, 8, False)
                    return unpack_from(page, addr & PAGE_MASK)[0]
        return read_f64(addr)
    return rd


def _fast_writer(space, size: int, l1=None) -> Callable[[int, int], None]:
    pages = space._pages
    perms = space._perms
    write_uint = space.write_uint
    limit = PAGE_SIZE - size
    pack_into = _UINT[size].pack_into
    mask = (1 << (size * 8)) - 1
    (own, observed), l1sets, nsets, counters = l1 or _NO_L1
    in_line = LINE_SIZE - size
    def wr(addr, value):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            if perms.get(idx) == 3:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is own or tr is observed:
                        if addr & _LINE_MASK <= in_line:
                            line = addr >> LINE_SHIFT
                            ways = l1sets.get(line % nsets)
                            if ways is not None and line in ways:
                                del ways[line]
                                ways[line] = None
                                counters.stores += 1
                                counters.l1_accesses += 1
                                pack_into(page, addr & PAGE_MASK,
                                          value & mask)
                                return
                        tr(addr, size, True)
                    elif tr is not None:
                        tr(addr, size, True)
                    pack_into(page, addr & PAGE_MASK, value & mask)
                    return
        write_uint(addr, value, size)
    return wr


def _fast_writer_f64(space, l1=None) -> Callable[[int, float], None]:
    pages = space._pages
    perms = space._perms
    write_f64 = space.write_f64
    limit = PAGE_SIZE - 8
    pack_into = _F64.pack_into
    (own, observed), l1sets, nsets, counters = l1 or _NO_L1
    in_line = LINE_SIZE - 8
    def wr(addr, value):
        if addr & PAGE_MASK <= limit:
            idx = addr >> PAGE_SHIFT
            if perms.get(idx) == 3:
                page = pages.get(idx)
                if page is not None:
                    tr = space.tracer
                    if tr is own or tr is observed:
                        if addr & _LINE_MASK <= in_line:
                            line = addr >> LINE_SHIFT
                            ways = l1sets.get(line % nsets)
                            if ways is not None and line in ways:
                                del ways[line]
                                ways[line] = None
                                counters.stores += 1
                                counters.l1_accesses += 1
                                pack_into(page, addr & PAGE_MASK, value)
                                return
                        tr(addr, 8, True)
                    elif tr is not None:
                        tr(addr, 8, True)
                    pack_into(page, addr & PAGE_MASK, value)
                    return
        write_f64(addr, value)
    return wr


class _MemCache:
    """Per-VM cache of the inlined accessors (one closure per (size,
    direction), shared by every handler of every function that needs
    it); the enclave's space and L1 are fixed for the VM's life."""

    __slots__ = ("space", "l1", "_readers", "_writers", "_rf64", "_wf64")

    def __init__(self, enclave):
        self.space = enclave.space
        self.l1 = enclave.l1_hit_path()
        self._readers: Dict[int, Callable] = {}
        self._writers: Dict[int, Callable] = {}
        self._rf64 = None
        self._wf64 = None

    def reader(self, size: int) -> Callable[[int], int]:
        rd = self._readers.get(size)
        if rd is None:
            rd = self._readers[size] = _fast_reader(self.space, size, self.l1)
        return rd

    def writer(self, size: int) -> Callable[[int, int], None]:
        wr = self._writers.get(size)
        if wr is None:
            wr = self._writers[size] = _fast_writer(self.space, size, self.l1)
        return wr

    def reader_f64(self) -> Callable[[int], float]:
        if self._rf64 is None:
            self._rf64 = _fast_reader_f64(self.space, self.l1)
        return self._rf64

    def writer_f64(self) -> Callable[[int, float], None]:
        if self._wf64 is None:
            self._wf64 = _fast_writer_f64(self.space, self.l1)
        return self._wf64


# ---------------------------------------------------------------------------
# Function-backed binops.  Their semantics are one Python function each,
# which compiled blocks bind and :func:`_make_binop`'s plain handlers call.
# ---------------------------------------------------------------------------

def _s64(x: int) -> int:
    return x - (1 << 64) if x & (1 << 63) else x


def _sdiv(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer division by zero")
    sa, sb = _s64(a), _s64(b)
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & M64


def _srem(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer remainder by zero")
    sa, sb = _s64(a), _s64(b)
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & M64


def _udiv(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer division by zero")
    return a // b


def _urem(a: int, b: int) -> int:
    if b == 0:
        raise TrapError("integer remainder by zero")
    return a % b


def _fdiv(a: float, b: float) -> float:
    """IEEE division.  Over a zero divisor, a NaN or zero dividend gives
    NaN and any other an infinity signed by both operands."""
    if b != 0.0:
        return a / b
    if a != a or a == 0.0:
        return math.nan
    return math.copysign(math.inf, a) * math.copysign(1.0, b)


_BIN_FN = {ops.SDIV: _sdiv, ops.UDIV: _udiv, ops.SREM: _srem,
           ops.UREM: _urem, ops.FDIV: _fdiv}


def _make_binop(ins, consts, npc, counters):
    fn2 = _BIN_FN[ins.op]
    dest, a, b = ins.dest, ins.a, ins.b
    if a >= 0 and b >= 0:
        def h(frame, regs, thread, counters=counters, fn2=fn2, dest=dest,
              a=a, b=b, npc=npc):
            counters.instructions += 1
            regs[dest] = fn2(regs[a], regs[b])
            return npc
        return h
    def h(frame, regs, thread, counters=counters, fn2=fn2, dest=dest, a=a,
          b=b, consts=consts, npc=npc):
        # Not folded at predecode: division by a zero constant must trap
        # at execution time, when the instruction runs.
        counters.instructions += 1
        regs[dest] = fn2(regs[a] if a >= 0 else consts[-a - 1],
                         regs[b] if b >= 0 else consts[-b - 1])
        return npc
    return h


# ---------------------------------------------------------------------------
# Plain handlers of the ops compiled blocks do not emit as source: each
# maker resolves operands once and returns a handler with everything it
# reads bound as default arguments, as generated handlers do (locals are
# faster to read than closure cells, and a handler without cells is
# fewer objects for the collector); ``npc`` is the baked fall-through
# index.
# ---------------------------------------------------------------------------

def _make_atomicrmw(ins, consts, npc, counters, mem):
    a, b, dest, size, kind = ins.a, ins.b, ins.dest, ins.size, ins.name
    read_uint = mem.reader(size)
    write_uint = mem.writer(size)
    def h(frame, regs, thread, counters=counters, a=a, b=b, dest=dest,
          kind=kind, read_uint=read_uint, write_uint=write_uint,
          consts=consts, npc=npc):
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
    def h(frame, regs, thread, counters=counters, a=a, b=b, c=c, dest=dest,
          read_uint=read_uint, write_uint=write_uint, consts=consts,
          npc=npc):
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
    def h(frame, regs, thread, counters=counters, a=a, b=b, dest=dest,
          consts=consts, npc=npc):
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
    def h(frame, regs, thread, counters=counters, a=a, breg=breg, inc=inc,
          scheme=scheme, vm=vm, consts=consts, npc=npc):
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
    def h(frame, regs, thread, counters=counters, a=a, breg=breg, size=size,
          inc=inc, scheme=scheme, vm=vm, consts=consts, npc=npc):
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
    def h(frame, regs, thread, counters=counters, a=a, dest=dest,
          scheme=scheme, vm=vm, consts=consts, npc=npc):
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
    def h(frame, regs, thread, counters=counters, a=a, dest=dest,
          scheme=scheme, vm=vm, consts=consts, npc=npc):
        counters.instructions += 5
        slot = (regs[a] if a >= 0 else consts[-a - 1]) & M32
        fb = frame.bounds
        if fb is not None:
            scheme.bt_store(vm, slot, fb.get(dest))
        return npc
    return h


def _make_trap(ins, counters):
    message = ins.name or "trap"
    def h(frame, regs, thread, counters=counters, message=message):
        counters.instructions += 1
        raise TrapError(message)
    return h


def _make_raise(message, counters):
    def h(frame, regs, thread, counters=counters, message=message):
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
            def h(frame, regs, thread, counters=counters, plan=plan,
                  natives=natives, name=name, track_bounds=track_bounds,
                  args=args, vm=vm, telem=telem, i=i, dest=dest, npc=npc):
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

        def h(frame, regs, thread, counters=counters, plan=plan,
              track_bounds=track_bounds, args=args, npc=npc, vm=vm,
              callee=callee, dest=dest):
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
    def h(frame, regs, thread, counters=counters, plan=plan, a=a,
          consts=consts, program=program, track_bounds=track_bounds,
          args=args, npc=npc, vm=vm, dest=dest):
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
    def h(frame, regs, thread, counters=counters, a=a, aval=aval,
          read_u64=read_u64, vm=vm, track_bounds=track_bounds,
          telem=telem):
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
# The predecoder.
# ---------------------------------------------------------------------------

def _make_plain(ins, consts, i, counters, vm, track_bounds, mem):
    """Standalone handler for one instruction.  An op the block writer
    emits as source gets a one-instruction rendering of that emission, so
    the writer is the single definition of its semantics and cost; the
    rest (calls, returns, traps, atomics, MPX ops and the function-backed
    binops) have a maker of their own."""
    op = ins.op
    npc = i + 1
    if op in _RENDERED_OPS:
        make = _PLAIN_MAKES.get(_shape(ins, track_bounds)) \
            or _plain_make(ins, track_bounds)
        return make(counters, mem, consts, ins, npc)
    if op in _BIN_FN:
        return _make_binop(ins, consts, npc, counters)
    if op == ops.CALL:
        return _make_call(ins, consts, i, counters, vm, track_bounds)
    if op == ops.RET:
        return _make_ret(ins, consts, counters, vm, track_bounds, mem)
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
    return _make_raise(
        f"unhandled opcode {op} ({ops.OP_NAMES.get(op)})", counters)


#: Shape key -> ``make(counters, mem, consts, ins, npc)`` of that shape's
#: plain handler; shared by every VM in the process.  The index is strong:
#: it skips rendering, and the set of shapes is finite, so a shape that
#: one unit used is still compiled when the next unit predecodes.
_PLAIN_MAKES: Dict[tuple, Callable] = {}


def _shape(ins, track_bounds: bool) -> tuple:
    """Everything a plain handler's rendering branches on: the opcode,
    whether each operand field is absent (None), a register (True) or a
    constant (False), the size and flags, and the scheme's bounds
    tracking.  Operand values never reach the source."""
    a, b, c = ins.a, ins.b, ins.c
    return (ins.op, a if a is None else a >= 0, b if b is None else b >= 0,
            c if c is None else c >= 0, ins.size, ins.signed, ins.is_float,
            ins.clamp, track_bounds)


def _plain_make(ins, track_bounds: bool) -> Callable:
    key = _shape(ins, track_bounds)
    make = _PLAIN_MAKES.get(key)
    if make is None:
        src = _BlockWriter(track_bounds).source([ins], 0, 1)
        # Shapes of different ops may render the same text (EQ and FEQ
        # do), and then share one code object: the name names no op.
        make = _PLAIN_MAKES[key] = _compile_make(
            src, f"<plain #{len(_PLAIN_MAKES)}>")
    return make


#: Source text -> the ``make`` compiled from it, shared by every VM whose
#: blocks or plain handlers render that text (a fleet's workers run one
#: image, so their hot blocks render alike).  An entry lives exactly as
#: long as some handler built from it: every handler's ``__globals__`` is
#: the scope its ``make`` was executed in, and that scope holds ``make``.
#: So the code of dropped VMs goes with them, and nothing is kept for a
#: later VM that may never render the same text.
_MAKES: "weakref.WeakValueDictionary[str, Callable]" = \
    weakref.WeakValueDictionary()


def _compile_make(src: str, filename: str) -> Callable:
    """The ``make`` defined by ``src``: compiled under ``filename`` the
    first time, then shared while any handler built from it lives."""
    make = _MAKES.get(src)
    if make is None:
        scope: Dict[str, object] = {}
        exec(compile(src, filename, "exec"), scope)
        make = _MAKES[src] = scope["make"]
    return make


def compile_function(vm, fn, consts) -> FastCode:
    """Predecode ``fn`` against ``vm``'s bound runtime (space, counters,
    scheme, telemetry) and ``consts`` (the loader-resolved pool)."""
    counters = vm.counters
    mem = vm.mem_cache
    if mem is None:
        mem = vm.mem_cache = _MemCache(vm.enclave)
    track_bounds = vm.scheme.uses_register_bounds
    code = fn.code
    n = len(code)
    plain: List[Handler] = [
        _make_plain(ins, consts, i, counters, vm, track_bounds, mem)
        for i, ins in enumerate(code)]
    starts = fn.block_starts
    # Block hits are only tallied when telemetry observes the run: the
    # default path keeps the zero-cost-when-off contract.
    stats = None
    if vm.telemetry is not None:
        stats = vm.fastpath_stats
        stats.setdefault("block", 0)

    # Block heads: every basic-block start, and every instruction after
    # a CALL (returns resume there).  A head whose region spans at least
    # two instructions gets an entry-counting handler; the region is
    # compiled only once it turns hot.
    fc = FastCode(list(plain), [1] * n, plain, code)
    ctx = _BlockContext(consts, starts, counters, mem, track_bounds, stats,
                        n)
    heads = set(starts)
    heads.update([k + 1 for k, ins in enumerate(code) if ins.op == ops.CALL])
    for head in heads:
        if head + 1 < n and head + 1 not in starts \
                and code[head].op in _STRAIGHT_OPS \
                and code[head + 1].op in _REGION_OPS:
            fc.handlers[head] = _block_entry(fc, head, ctx)
    return fc


# ---------------------------------------------------------------------------
# Compiled blocks.  A region runs from its head through straight-line
# code up to and including the BR/JMP that ends its basic block, and
# stops before anything else (a CALL, RET or TRAP, or the next block
# start).  Once a head has been entered BLOCK_THRESHOLD times, the region
# becomes one generated Python function that replaces the head's handler,
# with ``costs[head]`` set to the region's length; the dispatch loop
# enters it only when that fits in the remaining quantum.  Registers are
# cached in locals and written to ``regs`` as each value is computed.
# ``counters.instructions`` is batched: each instruction's cost is added
# to the pending sum, which is flushed before every memory access, call
# of a plain handler and div/rem, and at block exit — so every
# observable point, and every exception, sees exactly the counters and
# registers plain dispatch would leave.  Ops in ``_INLINE_OPS`` are
# emitted as source, by the same code that renders their plain handlers;
# any other straight-line op is a call to its plain handler.
# ---------------------------------------------------------------------------

#: Entries into a region head before its block is compiled.  Generating
#: and compiling a block costs about as much host time as a hundred runs
#: of it save, so code that stays lukewarm keeps its predecoded handlers.
BLOCK_THRESHOLD = 64

_M64 = repr(M64)
_M32 = repr(M32)
_HI32 = repr(HI32)
_SIGN64 = repr(1 << 63)
_WRAP64 = repr(1 << 64)

#: Source templates of the binops that are not function-backed, over
#: operand atoms ``{a}``/``{b}`` and their signed views ``{sa}``/``{sb}``.
_BIN_SRC = {
    ops.ADD: "({a} + {b}) & " + _M64,
    ops.SUB: "({a} - {b}) & " + _M64,
    ops.MUL: "({a} * {b}) & " + _M64,
    ops.AND: "{a} & {b}",
    ops.OR: "{a} | {b}",
    ops.XOR: "{a} ^ {b}",
    ops.SHL: "({a} << ({b} & 63)) & " + _M64,
    ops.LSHR: "{a} >> ({b} & 63)",
    ops.ASHR: "({sa} >> ({b} & 63)) & " + _M64,
    ops.FADD: "{a} + {b}",
    ops.FSUB: "{a} - {b}",
    ops.FMUL: "{a} * {b}",
    ops.EQ: "1 if {a} == {b} else 0",
    ops.NE: "1 if {a} != {b} else 0",
    ops.SLT: "1 if {sa} < {sb} else 0",
    ops.SLE: "1 if {sa} <= {sb} else 0",
    ops.SGT: "1 if {sa} > {sb} else 0",
    ops.SGE: "1 if {sa} >= {sb} else 0",
    ops.ULT: "1 if {a} < {b} else 0",
    ops.ULE: "1 if {a} <= {b} else 0",
    ops.UGT: "1 if {a} > {b} else 0",
    ops.UGE: "1 if {a} >= {b} else 0",
    ops.FEQ: "1 if {a} == {b} else 0",
    ops.FNE: "1 if {a} != {b} else 0",
    ops.FLT: "1 if {a} < {b} else 0",
    ops.FLE: "1 if {a} <= {b} else 0",
    ops.FGT: "1 if {a} > {b} else 0",
    ops.FGE: "1 if {a} >= {b} else 0",
}

#: Straight-line ops the writer emits as source; every one but STORE
#: writes a destination register.
_INLINE_OPS = frozenset(_BIN_SRC) | frozenset(_BIN_FN) | frozenset((
    ops.LOAD, ops.STORE, ops.GEP, ops.MOV, ops.SELECT, ops.ALLOCA,
    ops.TRUNC, ops.SEXT, ops.SITOFP, ops.FPTOSI, ops.FNEG))

#: Ops whose plain handler is a one-instruction rendering of the writer's
#: emission (the function-backed binops keep :func:`_make_binop`).
_RENDERED_OPS = (_INLINE_OPS - frozenset(_BIN_FN)) \
    | frozenset((ops.BR, ops.JMP, ops.NOP))

#: Ops a compiled block may contain: straight-line, with a fixed
#: fall-through, never yielding to the dispatch loop.  (They may still
#: raise — traps, faults and violations leave a block with plain-dispatch
#: state.)
_STRAIGHT_OPS = _INLINE_OPS | frozenset((
    ops.ATOMICRMW, ops.CMPXCHG, ops.BNDMK, ops.BNDCL, ops.BNDCU,
    ops.BNDLDX, ops.BNDSTX, ops.NOP))

#: Ops that end a block: they transfer control, so the block returns
#: their target.
_TERM_OPS = frozenset((ops.BR, ops.JMP))

_REGION_OPS = _STRAIGHT_OPS | _TERM_OPS


class _BlockContext:
    """What compiling one function's blocks needs, bound at predecode.
    ``left`` counts down each region head's entries to BLOCK_THRESHOLD
    (one table per function, indexed by code position)."""

    __slots__ = ("consts", "starts", "counters", "mem", "track_bounds",
                 "stats", "left")

    def __init__(self, consts, starts, counters, mem, track_bounds, stats,
                 size):
        self.consts = consts
        self.starts = starts
        self.counters = counters
        self.mem = mem
        self.track_bounds = track_bounds
        self.stats = stats
        self.left = [BLOCK_THRESHOLD] * size


def _block_entry(fc: FastCode, head: int, ctx: _BlockContext) -> Handler:
    """Run the head's predecoded handler, counting entries; the
    BLOCK_THRESHOLD-th entry compiles the region, which replaces this
    handler from the next entry on."""
    def h(frame, regs, thread, inner=fc.plain[head], left=ctx.left,
          fc=fc, head=head, ctx=ctx):
        left[head] -= 1
        if not left[head]:
            _install_block(fc, head, ctx)
        return inner(frame, regs, thread)
    return h


def _region_end(code: list, head: int, starts) -> int:
    """One past the last instruction of the region headed at ``head``."""
    n = len(code)
    j = head
    while j < n and (j == head or j not in starts):
        op = code[j].op
        if op in _TERM_OPS:
            return j + 1
        if op not in _STRAIGHT_OPS:
            break
        j += 1
    return j


def _install_block(fc: FastCode, head: int, ctx: _BlockContext) -> None:
    end = _region_end(fc.code, head, ctx.starts)
    writer = _BlockWriter(ctx.track_bounds, ctx.consts, fc.plain)
    writer.bind("counters", ctx.counters)
    writer.bind("mem", ctx.mem)
    if ctx.stats is not None:
        writer.bind("stats", ctx.stats)
    src = writer.source(fc.code, head, end)
    # Named by its text, not by the function that first ran it: the code
    # is shared, so a traceback through it names no other function, and
    # the same text always gets the same name.
    make = _compile_make(src, f"<block #{hash(src) & 0xFFFFFFFF:08x}>")
    fc.handlers[head] = make(*writer.binds.values())
    fc.costs[head] = end - head


#: Parameters of a plain handler's ``make``.
_PLAIN_PARAMS = ("counters", "mem", "consts", "ins", "npc")
#: Names only ``make`` itself reads, to bind what the handler reads.
_MAKE_ONLY = frozenset(("mem", "consts", "ins"))


class _BlockWriter:
    """Python source of ``make``, which returns a handler with every
    runtime object it uses bound as a default argument.  Two renderings
    share each op's emission:

    * a compiled block (``plain`` given): a region whose register indices
      and int constants are inlined as literals, with registers cached in
      locals and charges batched; ``make(<binds>)`` builds it;
    * a plain handler (``plain`` None): one instruction whose register
      indices, constants, branch targets, GEP scale and offset and
      fall-through index are values that
      ``make(counters, mem, consts, ins, npc)`` reads from the
      instruction and binds, so the source depends only on
      :func:`_shape`.
    """

    def __init__(self, track_bounds: bool, consts: Optional[list] = None,
                 plain: Optional[List[Handler]] = None):
        self.track_bounds = track_bounds
        self.consts = consts
        self.plain = plain
        self.one = plain is None
        self.binds: Dict[str, object] = {}
        self.setup: Dict[str, str] = {}   # make-time locals
        self.lines: List[str] = []
        self.cached: set = set()    # registers held in locals
        self.pending = 0            # instructions not yet charged
        self.uses_bounds = False
        self.ins = None

    # -- operands ---------------------------------------------------------
    def bind(self, name: str, value) -> str:
        self.binds[name] = value
        return name

    def let(self, name: str, expr: str) -> str:
        """``name``, set to ``expr`` once when ``make`` runs."""
        self.setup[name] = expr
        return name

    def field(self, name: str) -> str:
        """An integer field of the instruction (register index, branch
        target, GEP scale or offset): a literal in a block, a bound
        value in a plain handler."""
        if self.one:
            return self.let(name, f"ins.{name}")
        return f"({getattr(self.ins, name)!r})"

    def reg(self, name: str) -> str:
        local = f"r{name}" if self.one else f"r{getattr(self.ins, name)}"
        if local not in self.cached:
            self.lines.append(f"{local} = regs[{self.field(name)}]")
            self.cached.add(local)
        return local

    def val(self, name: str) -> str:
        x = getattr(self.ins, name)
        if x >= 0:
            return self.reg(name)
        if self.one:
            return self.let(f"k{name}", f"consts[-ins.{name} - 1]")
        value = self.consts[-x - 1]
        if type(value) is int:
            return f"({value!r})"
        return self.bind(f"k{len(self.binds)}", value)

    def _int_const(self, name: str):
        """The int constant operand ``name`` of a block, else None."""
        x = getattr(self.ins, name)
        if x < 0 and not self.one:
            value = self.consts[-x - 1]
            if type(value) is int:
                return value
        return None

    def sval(self, name: str) -> str:
        """Signed view of operand ``name`` (``_s64``)."""
        value = self._int_const(name)
        if value is not None:
            return f"({_s64(value)!r})"
        v = self.val(name)
        return f"({v} - {_WRAP64} if {v} & {_SIGN64} else {v})"

    def addr(self, name: str) -> str:
        value = self._int_const(name)
        if value is not None:
            return repr(value & M32)
        if self.one and getattr(self.ins, name) < 0:
            return self.let(f"m{name}",
                            f"consts[-ins.{name} - 1] & {_M32}")
        return f"{self.val(name)} & {_M32}"

    def set(self, expr: str) -> None:
        if self.one:
            self.lines.append(f"regs[{self.field('dest')}] = {expr}")
            return
        dest = self.ins.dest
        self.lines.append(f"r{dest} = regs[{dest}] = {expr}")
        self.cached.add(f"r{dest}")

    def charge(self) -> None:
        if self.pending:
            self.lines.append(
                f"counters.instructions += {self.pending}")
            self.pending = 0

    def bounds_copy(self) -> None:
        """Copy register ``a``'s bounds to ``dest``."""
        if self.track_bounds and self.ins.a >= 0:
            self.uses_bounds = True
            a, dest = self.field("a"), self.field("dest")
            self.lines.append(
                f"if bnd is not None and {a} in bnd: bnd[{dest}] = bnd[{a}]")

    # -- instructions -----------------------------------------------------
    def emit(self, ins, i: int) -> Optional[str]:
        """Emit instruction ``i``; returns the exit statement if it ends
        the block."""
        self.ins = ins
        op = ins.op
        if op in _TERM_OPS:
            self.pending += 1
            self.charge()
            self.lines.append("counters.branches += 1")
            if op == ops.JMP:
                return f"return {self.field('t1')}"
            if ins.a < 0 and not self.one:
                taken = self.consts[-ins.a - 1]
                return f"return {ins.t1 if taken else ins.t2}"
            return (f"return {self.field('t1')} if {self.val('a')} "
                    f"else {self.field('t2')}")
        if op == ops.NOP:
            self.pending += 1
            return None
        if op not in _INLINE_OPS:
            self.charge()
            self.lines.append(
                f"{self.bind(f'p{i}', self.plain[i])}(frame, regs, thread)")
            self.cached.clear()
            return None
        if op in _BIN_FN or op in _BIN_SRC:
            self.pending += 1
            template = _BIN_SRC.get(op)
            if template is None:         # div/rem/fdiv: trap semantics
                self.charge()
                fn2 = self.bind(f"f{op}", _BIN_FN[op])
                self.set(f"{fn2}({self.val('a')}, {self.val('b')})")
                return None
            fields = {"a": self.val("a"), "b": self.val("b")}
            if "{s" in template:
                fields["sa"] = self.sval("a")
                fields["sb"] = self.sval("b")
            self.set(template.format(**fields))
        elif op == ops.LOAD:
            self.pending += 1
            self.charge()
            address = self.addr("a")
            size = ins.size
            if ins.is_float:
                rd = self.let("rdf", "mem.reader_f64()")
                self.set(f"{rd}({address})")
            elif ins.signed and size < 8:
                rd = self.let(f"rd{size}", f"mem.reader({size})")
                sign = 1 << (size * 8 - 1)
                self.lines.append(f"t = {rd}({address})")
                self.set(f"(t - {sign << 1}) & {_M64} if t & {sign} else t")
            else:
                rd = self.let(f"rd{size}", f"mem.reader({size})")
                self.set(f"{rd}({address})")
        elif op == ops.STORE:
            self.pending += 1
            self.charge()
            address = self.addr("a")
            if ins.is_float:
                wr = self.let("wrf", "mem.writer_f64()")
            else:
                wr = self.let(f"wr{ins.size}", f"mem.writer({ins.size})")
            self.lines.append(f"{wr}({address}, {self.val('b')})")
        elif op == ops.GEP:
            # §3.2's clamped arithmetic: on x86 this lowers to a 32-bit
            # lea plus one merge op, so a clamped GEP costs two
            # instructions.
            self.pending += 2 if ins.clamp else 1
            base = self.val("a")
            value = base if ins.b is None else \
                f"{base} + {self.val('b')} * {self.field('size')}"
            if ins.c or self.one:
                value += f" + {self.field('c')}"
            if ins.clamp:
                self.set(f"({base} & {_HI32}) | (({value}) & {_M32})")
            else:
                self.set(f"({value}) & {_M64}")
            self.bounds_copy()
        elif op == ops.MOV:
            self.pending += 1
            self.set(self.val("a"))
            self.bounds_copy()
        elif op == ops.SELECT:
            self.pending += 1
            self.set(f"{self.val('b')} if {self.val('a')} "
                     f"else {self.val('c')}")
        elif op == ops.ALLOCA:
            self.pending += 1
            self.set(f"frame.base + {self.field('c')}")
        elif op == ops.TRUNC:
            self.pending += 1
            self.set(f"{self.val('a')} & {(1 << (ins.size * 8)) - 1}")
        elif op == ops.SEXT:
            self.pending += 1
            bits = ins.size * 8
            self.lines.append(f"t = {self.val('a')} & {(1 << bits) - 1}")
            self.set(f"(t - {1 << bits}) & {_M64} "
                     f"if t & {1 << (bits - 1)} else t")
        elif op == ops.SITOFP:
            self.pending += 1
            self.set(f"float({self.sval('a')})")
        elif op == ops.FPTOSI:
            # Like x86's cvttsd2si, NaN and ±inf (the values v with
            # v - v != 0) convert to the "integer indefinite" 2**63.
            self.pending += 1
            v = self.val("a")
            self.set(f"int({v}) & {_M64} if {v} - {v} == 0 "
                     f"else {_SIGN64}")
        else:   # FNEG
            self.pending += 1
            self.set(f"-{self.val('a')}")
        return None

    def source(self, code: list, head: int, end: int) -> str:
        exit_line = None
        for i in range(head, end):
            exit_line = self.emit(code[i], i)
        if exit_line is None:           # stopped before a non-block op
            self.charge()
            exit_line = "return npc" if self.one else f"return {end}"
        body = self.lines + [exit_line]
        if self.uses_bounds:
            body.insert(0, "bnd = frame.bounds")
        if "stats" in self.binds:
            body.insert(0, 'stats["block"] += 1')
        params = _PLAIN_PARAMS if self.one else tuple(self.binds)
        # What the handler reads is bound as default arguments: locals
        # are faster to read than closure cells, and smaller to keep.
        defaults = "".join(f", {name}={name}" for name in params + tuple(
            self.setup) if name not in _MAKE_ONLY)
        inner = "h" if self.one else "block"
        return "".join((
            f"def make({', '.join(params)}):\n",
            *(f"    {name} = {expr}\n" for name, expr in self.setup.items()),
            f"    def {inner}(frame, regs, thread{defaults}):\n",
            *(f"        {line}\n" for line in body),
            f"    return {inner}\n"))
