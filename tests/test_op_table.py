"""Per-op edge-value table for every straight-line opcode.

Each row runs one instruction on edge inputs, with every operand shape
(each operand a register or a constant-pool value), under both dispatch
tiers: plain one-handler-per-instruction dispatch (the ``unfused``
fixture) and compiled blocks (the ``eager_blocks`` fixture, with the
block compiled on the first run and executed on the second).  The
expected results are written out as literals, so a change to any op's
semantics or cost in either tier fails here instead of hiding behind
agreement between the two.

The instruction under test sits at the head of a two-instruction region
(``op; jmp out``, or ``nop; br`` for BR), so the second run executes it
inside a compiled block.
"""

from __future__ import annotations

import itertools

import pytest

from repro.errors import TrapError
from repro.ir import Function, IRBuilder, Module, ops
from repro.ir.instructions import Instr
from repro.ir.module import GlobalVar
from repro.mpx import MPXScheme
from repro.vm import VM

from tests.util import eager_blocks, unfused  # noqa: F401  (fixtures)

M64 = 0xFFFF_FFFF_FFFF_FFFF
MAX63 = 0x7FFF_FFFF_FFFF_FFFF
B63 = 0x8000_0000_0000_0000
B31 = 0x8000_0000
INF = float("inf")
NAN = float("nan")

DIV0 = ("trap", "integer division by zero")
REM0 = ("trap", "integer remainder by zero")

TIERS = ("unfused", "eager_blocks")


# ---------------------------------------------------------------------------
# The table.  Each row: operand values, then the expected result.
# ---------------------------------------------------------------------------

BINOPS = {
    ops.ADD: [
        (M64, 1, 0), (MAX63, 1, B63), (B63, B63, 0), (0, 0, 0),
        (B31, B31, 0x1_0000_0000)],
    ops.SUB: [
        (0, 1, M64), (B63, 1, MAX63), (1, M64, 2), (B31, 0, B31)],
    ops.MUL: [
        (M64, M64, 1), (B63, 2, 0), (B31, B31, 0x4000_0000_0000_0000),
        (MAX63, 2, 0xFFFF_FFFF_FFFF_FFFE)],
    ops.SDIV: [
        (M64, 1, M64), (B63, M64, B63), (7, 0xFFFF_FFFF_FFFF_FFFE,
                                         0xFFFF_FFFF_FFFF_FFFD),
        (0xFFFF_FFFF_FFFF_FFF9, 2, 0xFFFF_FFFF_FFFF_FFFD), (1, 0, DIV0),
        (0, 0, DIV0)],
    ops.UDIV: [
        (M64, 2, MAX63), (B63, B31, 0x1_0000_0000), (1, 0, DIV0)],
    ops.SREM: [
        (0xFFFF_FFFF_FFFF_FFF9, 2, M64), (7, 0xFFFF_FFFF_FFFF_FFFE, 1),
        (B63, M64, 0), (1, 0, REM0)],
    ops.UREM: [
        (M64, 10, 5), (B63, 3, 2), (1, 0, REM0)],
    ops.AND: [(M64, B63, B63), (B31, MAX63, B31), (0, M64, 0)],
    ops.OR: [(B63, 1, 0x8000_0000_0000_0001), (0, 0, 0)],
    ops.XOR: [(M64, B63, MAX63), (1, 1, 0)],
    ops.SHL: [
        (1, 63, B63), (1, 64, 1), (1, 65, 2), (1, M64, B63),
        (M64, 1, 0xFFFF_FFFF_FFFF_FFFE), (B31, 32, B63)],
    ops.LSHR: [
        (B63, 63, 1), (B63, 64, B63), (M64, 65, MAX63), (B31, 31, 1),
        (M64, 127, 1)],
    ops.ASHR: [
        (B63, 63, M64), (B63, 64, B63), (B63, 1, 0xC000_0000_0000_0000),
        (MAX63, 62, 1), (M64, 70, M64), (B63, 129, 0xC000_0000_0000_0000)],
    ops.FADD: [
        (1.5, 2.25, 3.75), (INF, -INF, NAN), (INF, 1.0, INF),
        (NAN, 1.0, NAN), (-0.0, -0.0, -0.0), (-INF, -1.0, -INF),
        (-0.0, 0.0, 0.0), (0.0, -0.0, 0.0)],
    ops.FSUB: [
        (INF, INF, NAN), (1.0, INF, -INF), (NAN, NAN, NAN),
        (0.0, 0.0, 0.0), (-0.0, -0.0, 0.0), (-0.0, 1.0, -1.0)],
    ops.FMUL: [
        (INF, 0.0, NAN), (-INF, 2.0, -INF), (NAN, 0.0, NAN),
        (-1.0, 0.0, -0.0), (1e308, 10.0, INF)],
    # IEEE for a zero divisor: 0/0 and NaN/0 are NaN, and x/0 is an
    # infinity signed by both operands.
    ops.FDIV: [
        (6.0, 3.0, 2.0), (1.0, 0.0, INF), (-1.0, 0.0, -INF),
        (0.0, 0.0, NAN), (-0.0, -0.0, NAN), (NAN, 0.0, NAN),
        (INF, 0.0, INF), (-INF, 0.0, -INF), (1.0, -0.0, -INF),
        (-1.0, -0.0, INF), (INF, -0.0, -INF), (1.0, INF, 0.0),
        (INF, INF, NAN), (1.0, NAN, NAN)],
}

#: Comparison rows: operands, then one digit per op in this order.
INT_CMP_ORDER = (ops.EQ, ops.NE, ops.SLT, ops.SLE, ops.SGT, ops.SGE,
                 ops.ULT, ops.ULE, ops.UGT, ops.UGE)
INT_CMPS = [
    (0, M64, "0100111100"),
    (B63, MAX63, "0111000011"),
    (B31, B31, "1001010101"),
    (M64, B63, "0100110011"),
    (1, 0, "0100110011"),
]
FLOAT_CMP_ORDER = (ops.FEQ, ops.FNE, ops.FLT, ops.FLE, ops.FGT, ops.FGE)
FLOAT_CMPS = [
    (1.0, 2.0, "011100"),
    (NAN, 1.0, "010000"),
    (NAN, NAN, "010000"),
    (INF, INF, "100101"),
    (-INF, INF, "011100"),
    (-0.0, -0.0, "100101"),
    (INF, 1e308, "010011"),
]

for _rows, _order in ((INT_CMPS, INT_CMP_ORDER),
                      (FLOAT_CMPS, FLOAT_CMP_ORDER)):
    for _k, _op in enumerate(_order):
        BINOPS[_op] = [(a, b, int(bits[_k])) for a, b, bits in _rows]

#: (op, size) -> rows of (operand, expected).
UNARY = {
    (ops.TRUNC, 1): [(0x1FF, 0xFF), (M64, 0xFF), (B63, 0)],
    (ops.TRUNC, 2): [(M64, 0xFFFF), (0x12345, 0x2345)],
    (ops.TRUNC, 4): [(M64, 0xFFFF_FFFF), (0x1_0000_0005, 5), (B31, B31)],
    (ops.SEXT, 1): [
        (0x80, 0xFFFF_FFFF_FFFF_FF80), (0x7F, 0x7F), (0x40, 0x40),
        (0x1C0, 0xFFFF_FFFF_FFFF_FFC0), (0xFF, M64), (0, 0)],
    (ops.SEXT, 2): [
        (0x8000, 0xFFFF_FFFF_FFFF_8000), (0x4000, 0x4000),
        (0x7FFF, 0x7FFF), (0x1_FFFF, M64)],
    (ops.SEXT, 4): [
        (B31, 0xFFFF_FFFF_8000_0000), (0x4000_0000, 0x4000_0000),
        (M64, M64), (0x1_0000_0000, 0)],
    (ops.SITOFP, 8): [
        (0, 0.0), (1, 1.0), (M64, -1.0), (B63, -9.223372036854776e18),
        (MAX63, 9.223372036854776e18), (B31, 2147483648.0)],
    (ops.FPTOSI, 8): [
        (1.9, 1), (-1.9, M64), (-0.0, 0), (1e19, 10000000000000000000),
        (9.223372036854776e18, B63), (1e20, 7766279631452241920),
        # x86 cvttsd2si's "integer indefinite".
        (NAN, B63), (INF, B63), (-INF, B63)],
    (ops.FNEG, 8): [
        (1.0, -1.0), (0.0, -0.0), (INF, -INF), (-INF, INF), (NAN, NAN)],
}

#: (operand, expected)
MOVS = [(M64, M64), (0, 0), (NAN, NAN), (-0.0, -0.0), (-INF, -INF)]

#: (cond, if_true, if_false, expected)
SELECTS = [
    (1, 10, 20, 10), (0, 10, 20, 20), (B63, M64, 0, M64),
    (0x1_0000_0000, 0, 1, 0), (2, 0.5, INF, 0.5), (0, NAN, -INF, -INF),
    (1, NAN, 1.0, NAN)]

#: (base, index or None, scale, offset, clamp, expected)
GEPS = [
    (0x1000, 3, 8, 4, False, 0x101C),
    (M64, 1, 1, 0, False, 0),
    (0x10, M64, 8, 0, False, 0x8),
    (B63, B63, 2, 0, False, B63),
    (0x100, 0, 1, -16, False, 0xF0),
    (0x1000, None, 1, 8, False, 0x1008),
    (M64, None, 1, 0, False, M64),
    (0, None, 1, -8, False, 0xFFFF_FFFF_FFFF_FFF8),
    # Clamped: the carry out of the low 32 bits is dropped.
    (0x5_FFFF_FFF0, 4, 8, 0, True, 0x5_0000_0010),
    (0x7_FFFF_FFFF, None, 1, 1, True, 0x7_0000_0000),
    (0xABCD_0000_0000_0010, 1, 8, -32, True, 0xABCD_0000_FFFF_FFF8),
    (B31, B31, 2, 0, True, B31),
]

#: (size, signed, stored 8-byte value, expected load)
INT_LOADS = [
    (1, False, 0xFFFF_FFFF_FFFF_FF80, 0x80),
    (1, True, 0xFFFF_FFFF_FFFF_FF80, 0xFFFF_FFFF_FFFF_FF80),
    (1, True, 0x7F, 0x7F),
    (1, True, 0x40, 0x40),
    (2, False, 0x8000, 0x8000),
    (2, True, 0x8000, 0xFFFF_FFFF_FFFF_8000),
    (2, True, 0x1234_7FFF, 0x7FFF),
    (4, False, B31, B31),
    (4, True, B31, 0xFFFF_FFFF_8000_0000),
    (4, True, M64, M64),
    (4, True, 0x4000_0000, 0x4000_0000),
    (8, False, M64, M64),
    (8, True, B63, B63),
]
FLOAT_VALUES = [INF, -INF, NAN, -0.0, 1.5]

#: (size, stored value, 8 bytes read back from a zeroed slot)
INT_STORES = [
    (1, 0x1FF, 0xFF), (1, M64, 0xFF), (2, 0x12345, 0x2345),
    (4, 0x1_0000_0007, 7), (4, M64, 0xFFFF_FFFF), (8, M64, M64),
    (8, B63, B63)]

#: BR condition -> the arm taken (1: t1, 2: t2).
BRANCHES = [(0, 2), (1, 1), (B63, 1), (M64, 1), (0x1_0000_0000, 1)]


# ---------------------------------------------------------------------------
# Running one row
# ---------------------------------------------------------------------------

def _norm(value):
    """Floats compare by repr, so NaN equals NaN and -0.0 is not 0.0."""
    return ("float", repr(value)) if type(value) is float else value


def _function(values, shape, body):
    """``f(p0, p1, ...)`` whose instruction under test reads operand k
    from register k (shape[k] true) or from the constant pool; ``body``
    emits it and returns the register ``f`` returns.  Every value is
    passed as an argument either way."""
    fn = Function("f", [f"p{k}" for k in range(len(values))])
    b = IRBuilder(fn, fn.block("entry"))
    operands = [k if reg else b.k(v)
                for k, (v, reg) in enumerate(zip(values, shape))]
    result = body(b, *operands)
    b.jmp("out")
    b.set_block(fn.block("out"))
    b.ret(result)
    return fn


def _module(fn):
    module = Module("table")
    module.add_global(GlobalVar("g", 16))
    module.add_function(fn)
    return module.finalize()


def _outcomes(module, args, scheme_cls=None):
    """Run ``f`` twice on one VM (reset in between); return each run's
    (result, instructions, branches) and whether the second run found
    the head's block compiled."""
    vm = VM(scheme=scheme_cls() if scheme_cls else None)
    vm.load(module)
    vm.snapshot()
    fn = module.functions["f"]
    out = []
    for _ in range(2):
        vm.reset()
        counters = vm.counters
        before = (counters.instructions, counters.branches)
        try:
            value = vm.run("f", args)
        except TrapError as err:
            value = ("trap", str(err))
        out.append((_norm(value), counters.instructions - before[0],
                    counters.branches - before[1]))
    compiled = vm.program.fast_for(fn, vm).costs[0] > 1
    return out, compiled


def _check(request, tier, module, args, expect, cost, scheme_cls=None,
           branches=1):
    """The runs that did not give ``expect`` while charging ``cost``
    instructions and ``branches`` branches; under eager_blocks the
    second run must have been a compiled block."""
    with request.getfixturevalue(tier)():
        runs, compiled = _outcomes(module, args, scheme_cls)
    assert compiled == (tier == "eager_blocks")
    return [run for run in runs if run != (_norm(expect), cost, branches)]


def _shapes(n):
    return itertools.product((True, False), repeat=n)


@pytest.fixture(params=TIERS)
def tier(request):
    return request.param


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("op", sorted(BINOPS),
                         ids=lambda op: ops.OP_NAMES[op])
def test_binop_table(op, tier, request):
    bad = []
    for a, b, expect in BINOPS[op]:
        for shape in _shapes(2):
            fn = _function((a, b), shape,
                           lambda bld, x, y: bld.binop(op, x, y))
            # A trap leaves before the jmp/ret: only the op is charged.
            trapped = type(expect) is tuple
            runs = _check(request, tier, _module(fn), [a, b], expect,
                          1 if trapped else 3, branches=0 if trapped else 1)
            if runs:
                bad.append((a, b, shape, runs))
    assert not bad


@pytest.mark.parametrize("op, size", sorted(UNARY), ids=[
    f"{ops.OP_NAMES[op]}{size}" for op, size in sorted(UNARY)])
def test_unary_table(op, size, tier, request):
    bad = []
    for a, expect in UNARY[(op, size)]:
        for shape in _shapes(1):
            fn = _function((a,), shape, lambda bld, x: _unary(bld, op, x,
                                                              size))
            runs = _check(request, tier, _module(fn), [a], expect, 3)
            if runs:
                bad.append((a, shape, runs))
    assert not bad


def _unary(bld, op, x, size):
    dest = bld.reg()
    bld.emit(Instr(op, dest=dest, a=x, size=size))
    return dest


@pytest.mark.parametrize("scheme_cls", [None, MPXScheme],
                         ids=["native", "mpx"])
def test_mov_table(scheme_cls, tier, request):
    """MOV, also under a scheme that keeps bounds in registers."""
    bad = []
    for a, expect in MOVS:
        for shape in _shapes(1):
            fn = _function((a,), shape, lambda bld, x: bld.mov(x))
            runs = _check(request, tier, _module(fn), [a], expect, 3,
                          scheme_cls)
            if runs:
                bad.append((a, shape, runs))
    assert not bad


def test_select_table(tier, request):
    bad = []
    for cond, t, f, expect in SELECTS:
        for shape in _shapes(3):
            fn = _function((cond, t, f), shape,
                           lambda bld, c, x, y: bld.select(c, x, y))
            runs = _check(request, tier, _module(fn), [cond, t, f],
                          expect, 3)
            if runs:
                bad.append((cond, t, f, shape, runs))
    assert not bad


@pytest.mark.parametrize("scheme_cls", [None, MPXScheme],
                         ids=["native", "mpx"])
def test_gep_table(scheme_cls, tier, request):
    bad = []
    for base, index, scale, offset, clamp, expect in GEPS:
        values = (base,) if index is None else (base, index)

        def body(bld, x, y=None):
            dest = bld.reg()
            bld.emit(Instr(ops.GEP, dest=dest, a=x, b=y, c=offset,
                           size=scale, clamp=clamp))
            return dest
        for shape in _shapes(len(values)):
            fn = _function(values, shape, body)
            runs = _check(request, tier, _module(fn), list(values), expect,
                          4 if clamp else 3, scheme_cls)
            if runs:
                bad.append((base, index, shape, runs))
    assert not bad


def _address(bld, reg):
    """The global's address as a register (mov) or a pool constant."""
    ref = bld.gref("g")
    return bld.mov(ref) if reg else ref


@pytest.mark.parametrize("is_float", [False, True], ids=["int", "f64"])
def test_load_table(is_float, tier, request):
    """An 8-byte STORE of the argument, then the LOAD under test."""
    rows = [(8, False, v, v) for v in FLOAT_VALUES] if is_float \
        else INT_LOADS
    bad = []
    for size, signed, stored, expect in rows:
        for reg in (True, False):
            def body(bld, value):
                ptr = _address(bld, reg)
                bld.store(value, ptr, size=8, is_float=is_float)
                return bld.load(ptr, size=size, signed=signed,
                                is_float=is_float)
            fn = _function((stored,), (True,), body)
            runs = _check(request, tier, _module(fn), [stored], expect,
                          5 if reg else 4)
            if runs:
                bad.append((size, signed, stored, reg, runs))
    assert not bad


@pytest.mark.parametrize("is_float", [False, True], ids=["int", "f64"])
def test_store_table(is_float, tier, request):
    """The STORE under test into a zeroed slot, then an 8-byte LOAD."""
    rows = [(8, v, v) for v in FLOAT_VALUES] if is_float else INT_STORES
    bad = []
    for size, stored, expect in rows:
        for reg_ptr, reg_value in _shapes(2):
            def body(bld, value):
                ptr = _address(bld, reg_ptr)
                bld.store(value, ptr, size=size, is_float=is_float)
                return bld.load(ptr, size=8, is_float=is_float)
            fn = _function((stored,), (reg_value,), body)
            runs = _check(request, tier, _module(fn), [stored], expect,
                          5 if reg_ptr else 4)
            if runs:
                bad.append((size, stored, reg_ptr, reg_value, runs))
    assert not bad


def test_alloca(tier, request):
    """Two slots of one frame: the second sits 16 bytes above the
    first, at a fixed address for the first thread's first frame."""
    def body(bld):
        bld.alloca(16)
        return bld.alloca(8)
    fn = _function((), (), body)
    runs = _check(request, tier, _module(fn), [], 0xFFFF_EFE8, 4)
    assert not runs


def _branch(cond, reg):
    fn = Function("f", ["p0"])
    b = IRBuilder(fn, fn.block("entry"))
    b.emit(Instr(ops.NOP))
    b.br(0 if reg else b.k(cond), "t", "e")
    b.set_block(fn.block("t"))
    b.ret(b.k(1))
    b.set_block(fn.block("e"))
    b.ret(b.k(2))
    return fn


def test_br_table(tier, request):
    bad = []
    for cond, expect in BRANCHES:
        for reg in (True, False):
            runs = _check(request, tier, _module(_branch(cond, reg)),
                          [cond], expect, 3)
            if runs:
                bad.append((cond, reg, runs))
    assert not bad


def test_nop_jmp(tier, request):
    def body(bld):
        bld.emit(Instr(ops.NOP))
        return bld.k(7)
    fn = _function((), (), body)
    assert not _check(request, tier, _module(fn), [], 7, 3)
