"""Instruction set of the reproduction's IR.

The IR is a register machine with function-local mutable registers (no SSA
phis — instrumentation passes and the interpreter both get simpler, and
nothing in the paper depends on SSA form).  Design points that matter for
the reproduction:

* ``GEP`` is pointer arithmetic, kept distinct from ``ADD`` so the
  SGXBounds pass can *clamp* it to the low 32 bits (paper §3.2 "Pointer
  arithmetic") and the optimizer can reason about strides.
* ``BND*`` instructions model Intel MPX: bounds are associated with a
  *register* (the compiler-chosen bounds register), and ``BNDLDX``/
  ``BNDSTX`` translate through an in-memory Bounds Directory/Bounds Table —
  the traffic that melts MPX inside enclaves.
* Loads and stores carry an ``is_pointer`` flag so the MPX pass knows where
  bounds must travel through memory (§2.2, Fig. 4c lines 11/15).

Operand encoding: a non-negative ``int`` is a register index; a negative
``int`` ``-k-1`` indexes slot ``k`` of the function's constant pool.  The
pool may contain plain numbers, :class:`GlobalRef` or :class:`FuncRef`
placeholders that the loader resolves to addresses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

# --- opcodes ----------------------------------------------------------------
(
    NOP, MOV, ADD, SUB, MUL, SDIV, UDIV, SREM, UREM,
    AND, OR, XOR, SHL, LSHR, ASHR,
    FADD, FSUB, FMUL, FDIV, FNEG,
    EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE,
    FEQ, FNE, FLT, FLE, FGT, FGE,
    LOAD, STORE, GEP, ALLOCA, SELECT,
    TRUNC, SEXT, SITOFP, FPTOSI,
    CALL, RET, BR, JMP, TRAP,
    ATOMICRMW, CMPXCHG,
    BNDMK, BNDCL, BNDCU, BNDLDX, BNDSTX,
) = range(57)

OP_NAMES = {
    NOP: "nop", MOV: "mov", ADD: "add", SUB: "sub", MUL: "mul",
    SDIV: "sdiv", UDIV: "udiv", SREM: "srem", UREM: "urem",
    AND: "and", OR: "or", XOR: "xor", SHL: "shl", LSHR: "lshr", ASHR: "ashr",
    FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv", FNEG: "fneg",
    EQ: "eq", NE: "ne", SLT: "slt", SLE: "sle", SGT: "sgt", SGE: "sge",
    ULT: "ult", ULE: "ule", UGT: "ugt", UGE: "uge",
    FEQ: "feq", FNE: "fne", FLT: "flt", FLE: "fle", FGT: "fgt", FGE: "fge",
    LOAD: "load", STORE: "store", GEP: "gep", ALLOCA: "alloca",
    SELECT: "select", TRUNC: "trunc", SEXT: "sext",
    SITOFP: "sitofp", FPTOSI: "fptosi",
    CALL: "call", RET: "ret", BR: "br", JMP: "jmp", TRAP: "trap",
    ATOMICRMW: "atomicrmw", CMPXCHG: "cmpxchg",
    BNDMK: "bndmk", BNDCL: "bndcl", BNDCU: "bndcu",
    BNDLDX: "bndldx", BNDSTX: "bndstx",
}

#: Binary integer ops (dest = a op b).
INT_BINOPS = frozenset({ADD, SUB, MUL, SDIV, UDIV, SREM, UREM,
                        AND, OR, XOR, SHL, LSHR, ASHR})
FLOAT_BINOPS = frozenset({FADD, FSUB, FMUL, FDIV})
INT_CMPS = frozenset({EQ, NE, SLT, SLE, SGT, SGE, ULT, ULE, UGT, UGE})
FLOAT_CMPS = frozenset({FEQ, FNE, FLT, FLE, FGT, FGE})
TERMINATORS = frozenset({RET, BR, JMP, TRAP})


class GlobalRef:
    """Constant-pool placeholder for the address of a global variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"@{self.name}"

    def __eq__(self, other) -> bool:
        return isinstance(other, GlobalRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("global", self.name))


class FuncRef:
    """Constant-pool placeholder for a function's code address."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return f"&{self.name}"

    def __eq__(self, other) -> bool:
        return isinstance(other, FuncRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("func", self.name))


_new_instr = object.__new__


class Instr:
    """One IR instruction.

    Field meanings vary by opcode (documented per-opcode in the VM); all
    operand fields (``a``, ``b``, ``c``, elements of ``args``) use the
    register/constant-pool encoding described in the module docstring.

    ``is_pointer`` marks loads/stores that move pointer values, and marks
    GEPs whose result is a pointer the MPX pass must track.  ``clamp``
    on a GEP requests 32-bit-only arithmetic (SGXBounds).  ``safe`` is set
    by the safe-access analysis to suppress instrumentation.  ``line`` is
    the MiniC source line the instruction was generated from (0 when
    unknown — e.g. pass-inserted instrumentation); the forensics stack
    capture maps a frame's pc to the nearest preceding stamped line.
    """

    __slots__ = ("op", "dest", "a", "b", "c", "size", "signed", "is_float",
                 "is_pointer", "clamp", "safe", "name", "args", "t1", "t2",
                 "comment", "line")

    def __init__(self, op: int, dest: Optional[int] = None,
                 a: Optional[int] = None, b: Optional[int] = None,
                 c: Optional[int] = None, size: int = 8,
                 signed: bool = False, is_float: bool = False,
                 is_pointer: bool = False, clamp: bool = False,
                 safe: bool = False, name: Optional[str] = None,
                 args: Sequence[int] = (), t1: Optional[object] = None,
                 t2: Optional[object] = None, comment: str = "",
                 line: int = 0):
        self.op = op
        self.dest = dest
        self.a = a
        self.b = b
        self.c = c
        self.size = size
        self.signed = signed
        self.is_float = is_float
        self.is_pointer = is_pointer
        self.clamp = clamp
        self.safe = safe
        self.name = name
        self.args = tuple(args)
        self.t1 = t1   # branch target: block name pre-finalize, index after
        self.t2 = t2
        self.comment = comment
        self.line = line

    def copy(self) -> "Instr":
        """Shallow copy (used by passes cloning functions): the slots are
        assigned directly, skipping ``__init__`` and its ``args`` re-wrap
        (``args`` is already a tuple)."""
        other = _new_instr(Instr)
        other.op = self.op
        other.dest = self.dest
        other.a = self.a
        other.b = self.b
        other.c = self.c
        other.size = self.size
        other.signed = self.signed
        other.is_float = self.is_float
        other.is_pointer = self.is_pointer
        other.clamp = self.clamp
        other.safe = self.safe
        other.name = self.name
        other.args = self.args
        other.t1 = self.t1
        other.t2 = self.t2
        other.comment = self.comment
        other.line = self.line
        return other

    def operands(self) -> List[int]:
        """All operand encodings this instruction reads.

        GEP's ``c`` is a literal byte offset and ALLOCA's ``b``/``c`` are a
        literal alignment/frame offset — not operands.
        """
        if self.op == ALLOCA:
            return []
        if self.op == GEP:
            out = [self.a] if self.a is not None else []
            if self.b is not None:
                out.append(self.b)
        elif self.op in (BNDCL, BNDCU):
            # ``c`` carries the spill-cost annotation, not an operand.
            out = [self.a] if self.a is not None else []
        else:
            out = [x for x in (self.a, self.b, self.c) if x is not None]
        out.extend(self.args)
        return out

    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    def __repr__(self) -> str:
        return f"<{OP_NAMES.get(self.op, self.op)} dest={self.dest}>"


def slot_of(operand: int) -> int:
    """Decode a (negative) constant operand back to its pool index."""
    return -operand - 1


def is_reg(operand: int) -> bool:
    """Whether an operand encoding denotes a register."""
    return operand >= 0


Targets = Tuple[Optional[object], Optional[object]]
