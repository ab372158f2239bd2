"""MiniC to IR code generation.

Scalar locals whose address is never taken live in IR registers (a built-in
mem2reg); address-taken locals, arrays and structs get stack slots via
``ALLOCA`` — exactly the objects the instrumentation passes must protect.
Array indexing compiles to a single scaled ``GEP`` so the scalar-evolution
analysis can recognize induction-variable accesses (paper §4.4).
"""

from __future__ import annotations

import struct as _struct
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import CompileError
from repro.ir import IRBuilder, Function, GlobalVar, Module, ops
from repro.ir.instructions import FuncRef, GlobalRef
from repro.minic import ast_nodes as ast
from repro.minic import ctypes as ct

#: Built-in (native) functions visible to every MiniC program.
BUILTINS: Dict[str, ct.CType] = {
    "malloc": ct.Pointer(ct.VOID), "calloc": ct.Pointer(ct.VOID),
    "realloc": ct.Pointer(ct.VOID), "free": ct.VOID,
    "memcpy": ct.Pointer(ct.VOID), "memmove": ct.Pointer(ct.VOID),
    "memset": ct.Pointer(ct.VOID), "memcmp": ct.INT,
    "strlen": ct.INT, "strcpy": ct.Pointer(ct.CHAR),
    "strncpy": ct.Pointer(ct.CHAR), "strcmp": ct.INT, "strncmp": ct.INT,
    "strcat": ct.Pointer(ct.CHAR), "strchr": ct.Pointer(ct.CHAR),
    "printf": ct.INT, "puts": ct.INT, "putchar": ct.INT,
    "print_str": ct.VOID, "print_int": ct.VOID, "print_float": ct.VOID,
    "clock": ct.INT, "rand": ct.INT, "srand": ct.VOID,
    "abort": ct.VOID, "exit": ct.VOID,
    "spawn": ct.INT, "join": ct.INT, "thread_yield": ct.VOID,
    "mutex_lock": ct.INT, "mutex_unlock": ct.INT,
    "net_recv": ct.INT, "net_send": ct.INT,
}

_CMP_SIGNED = {"<": ops.SLT, "<=": ops.SLE, ">": ops.SGT, ">=": ops.SGE}
_CMP_UNSIGNED = {"<": ops.ULT, "<=": ops.ULE, ">": ops.UGT, ">=": ops.UGE}
_CMP_FLOAT = {"<": ops.FLT, "<=": ops.FLE, ">": ops.FGT, ">=": ops.FGE,
              "==": ops.FEQ, "!=": ops.FNE}
_INT_BIN = {"+": ops.ADD, "-": ops.SUB, "*": ops.MUL, "&": ops.AND,
            "|": ops.OR, "^": ops.XOR, "<<": ops.SHL}
_FLOAT_BIN = {"+": ops.FADD, "-": ops.FSUB, "*": ops.FMUL, "/": ops.FDIV}

# Lvalue kinds.
_MEM = "mem"
_REG = "reg"


class UnitCodegen:
    """Compiles one translation unit into an IR module."""

    def __init__(self, unit: ast.TranslationUnit,
                 structs: Dict[str, ct.Struct], name: str = "minic"):
        self.unit = unit
        self.structs = structs
        self.module = Module(name)
        self.func_types: Dict[str, Tuple[ct.CType, List[ct.CType]]] = {}
        self.global_types: Dict[str, ct.CType] = {}
        self._strings: Dict[bytes, str] = {}

    # ------------------------------------------------------------------
    def run(self) -> Module:
        for decl in self.unit.decls:
            if isinstance(decl, ast.FuncDef):
                self.func_types[decl.name] = (
                    decl.ret, [ptype for _, ptype in decl.params])
        for decl in self.unit.decls:
            if isinstance(decl, ast.GlobalDecl):
                self._emit_global(decl)
        for decl in self.unit.decls:
            if isinstance(decl, ast.FuncDef):
                FunctionCodegen(self, decl).run()
        return self.module

    def intern_string(self, text: bytes) -> str:
        name = self._strings.get(text)
        if name is None:
            var = self.module.add_string(text)
            name = var.name
            self._strings[text] = name
        return name

    # -- global initializers ----------------------------------------------
    def _const_value(self, expr: ast.Expr) -> Union[int, float, tuple]:
        """Evaluate a constant expression; ('ref', name) for addresses."""
        if isinstance(expr, ast.Num):
            return expr.value
        if isinstance(expr, ast.Flt):
            return expr.value
        if isinstance(expr, ast.Str):
            return ("gref", self.intern_string(expr.value))
        if isinstance(expr, ast.SizeofType):
            return expr.ctype.size
        if isinstance(expr, ast.Unary):
            if expr.op == "&" and isinstance(expr.expr, ast.Ident):
                name = expr.expr.name
                if name in self.func_types:
                    return ("fref", name)
                return ("gref", name)
            inner = self._const_value(expr.expr)
            if expr.op == "-" and isinstance(inner, (int, float)):
                return -inner
        if isinstance(expr, ast.Ident):
            if expr.name in self.func_types:
                return ("fref", expr.name)
            raise CompileError(
                f"global initializer: {expr.name!r} is not constant", expr.line)
        if isinstance(expr, ast.Bin):
            left = self._const_value(expr.left)
            right = self._const_value(expr.right)
            if isinstance(left, (int, float)) and isinstance(right, (int, float)):
                table = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
                         "*": lambda a, b: a * b, "/": lambda a, b: a // b
                         if isinstance(a, int) else a / b,
                         "<<": lambda a, b: a << b, ">>": lambda a, b: a >> b,
                         "|": lambda a, b: a | b, "&": lambda a, b: a & b}
                if expr.op in table:
                    return table[expr.op](left, right)
        if isinstance(expr, ast.Cast):
            return self._const_value(expr.expr)
        raise CompileError("unsupported constant initializer", expr.line)

    def _pack_scalar(self, ctype: ct.CType, value, offset: int,
                     out: bytearray, relocs: list) -> None:
        if isinstance(value, tuple):
            kind, name = value
            ref = GlobalRef(name) if kind == "gref" else FuncRef(name)
            relocs.append((offset, ref))
            return
        if ctype.is_float():
            out[offset:offset + 8] = _struct.pack("<d", float(value))
            return
        size = ctype.size
        out[offset:offset + size] = int(value).to_bytes(
            size, "little", signed=False) if value >= 0 else \
            (int(value) & ((1 << (size * 8)) - 1)).to_bytes(size, "little")

    def _fill_init(self, ctype: ct.CType, init: ast.Expr, offset: int,
                   out: bytearray, relocs: list) -> None:
        if isinstance(ctype, ct.Array):
            if isinstance(init, ast.Str) and ctype.elem == ct.CHAR:
                data = init.value + b"\x00"
                if len(data) > ctype.size:
                    raise CompileError("string too long for array", init.line)
                out[offset:offset + len(data)] = data
                return
            if not isinstance(init, ast.InitList):
                raise CompileError("array initializer must be a list", init.line)
            if len(init.items) > ctype.count:
                raise CompileError("too many array initializers", init.line)
            for i, item in enumerate(init.items):
                self._fill_init(ctype.elem, item, offset + i * ctype.elem.size,
                                out, relocs)
            return
        if isinstance(ctype, ct.Struct):
            if not isinstance(init, ast.InitList):
                raise CompileError("struct initializer must be a list", init.line)
            if len(init.items) > len(ctype.fields):
                raise CompileError("too many struct initializers", init.line)
            for item, (fname, ftype) in zip(init.items, ctype.fields):
                self._fill_init(ftype, item, offset + ctype.offsets[fname],
                                out, relocs)
            return
        value = self._const_value(init)
        if ctype.is_float() and isinstance(value, int):
            value = float(value)
        self._pack_scalar(ctype, value, offset, out, relocs)

    def _emit_global(self, decl: ast.GlobalDecl) -> None:
        ctype = decl.ctype
        if ctype.size == 0:
            raise CompileError(f"global {decl.name} has incomplete type",
                               decl.line)
        out = bytearray(ctype.size)
        relocs: list = []
        if decl.init is not None:
            self._fill_init(ctype, decl.init, 0, out, relocs)
        elem = 0
        if isinstance(ctype, ct.Array):
            elem = ctype.elem.size
        init_bytes = bytes(out).rstrip(b"\x00")
        self.module.add_global(GlobalVar(
            decl.name, ctype.size, init_bytes, align=max(ctype.align, 1),
            is_const=decl.is_const, array_elem=elem, relocs=relocs))
        self.global_types[decl.name] = ctype


class FunctionCodegen:
    """Compiles one function body."""

    def __init__(self, unit: UnitCodegen, decl: ast.FuncDef):
        self.unit = unit
        self.decl = decl
        self.module = unit.module
        self.fn = Function(decl.name, [name for name, _ in decl.params])
        self.b = IRBuilder(self.fn, self.fn.block("entry"))
        self.env: List[Dict[str, Tuple[str, int, ct.CType]]] = [{}]
        self.break_stack: List[str] = []
        self.continue_stack: List[str] = []
        self.label_counter = 0
        self.terminated = False
        self.address_taken = decl.address_taken

    # -- infrastructure -----------------------------------------------------
    def label(self, hint: str) -> str:
        self.label_counter += 1
        return f"{hint}{self.label_counter}"

    def start_block(self, name: str) -> None:
        self.b.set_block(self.b.new_block(name))
        self.terminated = False

    def ensure_live_block(self) -> None:
        if self.terminated:
            self.start_block(self.label("dead"))

    def lookup(self, name: str) -> Optional[Tuple[str, int, ct.CType]]:
        for scope in reversed(self.env):
            if name in scope:
                return scope[name]
        return None

    # -- entry ----------------------------------------------------------------
    def run(self) -> None:
        decl = self.decl
        for index, (pname, ptype) in enumerate(decl.params):
            ptype = ct.decay(ptype)
            if pname in self.address_taken or isinstance(ptype, ct.Struct):
                slot = self.b.alloca(max(ptype.size, 8), ptype.align)
                self.b.store(index, slot, size=ptype.size if ptype.size in
                             (1, 2, 4, 8) else 8,
                             is_float=ptype.is_float(),
                             is_pointer=ptype.is_pointer())
                self.env[0][pname] = (_MEM, slot, ptype)
            else:
                self.env[0][pname] = (_REG, index, ptype)
        self.gen_block(decl.body, new_scope=False)
        if not self.terminated:
            self.b.ret(None if decl.ret.is_void() else self.b.k(0))
        self.module.add_function(self.fn)

    # -- statements -------------------------------------------------------------
    def gen_block(self, block: ast.Block, new_scope: bool = True) -> None:
        if new_scope:
            self.env.append({})
        for stmt in block.stmts:
            self.gen_stmt(stmt)
        if new_scope:
            self.env.pop()

    def gen_stmt(self, stmt: ast.Stmt) -> None:
        self.ensure_live_block()
        if stmt.line:
            self.b.line = stmt.line   # source location for emitted IR
        if isinstance(stmt, ast.Block):
            self.gen_block(stmt)
        elif isinstance(stmt, ast.Decl):
            self.gen_decl(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self.gen_expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.If):
            self.gen_if(stmt)
        elif isinstance(stmt, ast.While):
            self.gen_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self.gen_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self.gen_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.b.ret(None)
            else:
                value, vtype = self.gen_expr(stmt.value)
                value = self.convert(value, vtype, self.decl.ret, stmt.line)
                self.b.ret(value)
            self.terminated = True
        elif isinstance(stmt, ast.Break):
            if not self.break_stack:
                raise CompileError("break outside loop", stmt.line)
            self.b.jmp(self.break_stack[-1])
            self.terminated = True
        elif isinstance(stmt, ast.Continue):
            if not self.continue_stack:
                raise CompileError("continue outside loop", stmt.line)
            self.b.jmp(self.continue_stack[-1])
            self.terminated = True
        else:
            raise CompileError(f"unsupported statement {type(stmt).__name__}",
                               stmt.line)

    def gen_decl(self, decl: ast.Decl) -> None:
        ctype = decl.ctype
        name = decl.name
        needs_memory = (name in self.address_taken
                        or isinstance(ctype, (ct.Array, ct.Struct)))
        if needs_memory:
            slot = self.b.alloca(max(ctype.size, 1), max(ctype.align, 1))
            self.env[-1][name] = (_MEM, slot, ctype)
            if decl.init is not None:
                self.init_memory(slot, ctype, decl.init)
        else:
            reg = self.fn.new_reg(name)
            self.env[-1][name] = (_REG, reg, ctype)
            if decl.init is not None:
                value, vtype = self.gen_expr(decl.init)
                value = self.convert(value, vtype, ctype, decl.line)
                self.b.mov(value, dest=reg)
            else:
                self.b.mov(self.b.k(0), dest=reg)

    def init_memory(self, addr: int, ctype: ct.CType, init: ast.Expr) -> None:
        """Initialize an in-memory local from an initializer expression."""
        if isinstance(init, ast.InitList):
            if isinstance(ctype, ct.Array):
                for i, item in enumerate(init.items):
                    slot = self.b.gep(addr, offset=i * ctype.elem.size)
                    self.init_memory(slot, ctype.elem, item)
                return
            if isinstance(ctype, ct.Struct):
                for item, (fname, ftype) in zip(init.items, ctype.fields):
                    slot = self.b.gep(addr, offset=ctype.offsets[fname])
                    self.init_memory(slot, ftype, item)
                return
            raise CompileError("initializer list for scalar", init.line)
        if isinstance(init, ast.Str) and isinstance(ctype, ct.Array) \
                and ctype.elem == ct.CHAR:
            src = self.b.gref(self.unit.intern_string(init.value))
            self.b.call("memcpy", [addr, src, self.b.k(len(init.value) + 1)],
                        want_result=False)
            return
        value, vtype = self.gen_expr(init)
        value = self.convert(value, vtype, ctype, init.line)
        self.store_to(addr, value, ctype)

    def gen_if(self, stmt: ast.If) -> None:
        then_label = self.label("then")
        else_label = self.label("else") if stmt.other else None
        end_label = self.label("endif")
        cond = self.gen_condition(stmt.cond)
        self.b.br(cond, then_label, else_label or end_label)
        self.start_block(then_label)
        self.gen_stmt(stmt.then)
        if not self.terminated:
            self.b.jmp(end_label)
        if stmt.other is not None:
            self.start_block(else_label)
            self.gen_stmt(stmt.other)
            if not self.terminated:
                self.b.jmp(end_label)
        self.start_block(end_label)

    def gen_while(self, stmt: ast.While) -> None:
        head = self.label("while")
        body = self.label("body")
        end = self.label("endwhile")
        self.b.jmp(head)
        self.start_block(head)
        cond = self.gen_condition(stmt.cond)
        self.b.br(cond, body, end)
        self.start_block(body)
        self.break_stack.append(end)
        self.continue_stack.append(head)
        self.gen_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        if not self.terminated:
            self.b.jmp(head)
        self.start_block(end)

    def gen_do_while(self, stmt: ast.DoWhile) -> None:
        body = self.label("dobody")
        head = self.label("docond")
        end = self.label("enddo")
        self.b.jmp(body)
        self.start_block(body)
        self.break_stack.append(end)
        self.continue_stack.append(head)
        self.gen_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        if not self.terminated:
            self.b.jmp(head)
        self.start_block(head)
        cond = self.gen_condition(stmt.cond)
        self.b.br(cond, body, end)
        self.start_block(end)

    def gen_for(self, stmt: ast.For) -> None:
        self.env.append({})
        if stmt.init is not None:
            self.gen_stmt(stmt.init)
        head = self.label("for")
        body = self.label("forbody")
        step = self.label("forstep")
        end = self.label("endfor")
        self.b.jmp(head)
        self.start_block(head)
        if stmt.cond is not None:
            cond = self.gen_condition(stmt.cond)
            self.b.br(cond, body, end)
        else:
            self.b.jmp(body)
        self.start_block(body)
        self.break_stack.append(end)
        self.continue_stack.append(step)
        self.gen_stmt(stmt.body)
        self.break_stack.pop()
        self.continue_stack.pop()
        if not self.terminated:
            self.b.jmp(step)
        self.start_block(step)
        if stmt.step is not None:
            self.gen_expr(stmt.step, want_value=False)
        self.b.jmp(head)
        self.start_block(end)
        self.env.pop()

    # -- conversions -------------------------------------------------------------
    def convert(self, value: int, src: ct.CType, dst: ct.CType,
                line: int) -> int:
        src = ct.decay(src)
        dst = ct.decay(dst)
        if dst.is_void() or src == dst:
            return value
        if not ct.assignable(dst, src):
            raise CompileError(f"cannot convert {src!r} to {dst!r}", line)
        if dst.is_float() and not src.is_float():
            return self.b.sitofp(value)
        if not dst.is_float() and src.is_float():
            return self.b.fptosi(value)
        if isinstance(dst, ct.Basic) and dst.kind == "char" \
                and not src.is_float():
            truncated = self.b.trunc(value, 1)
            return self.b.sext(truncated, 1)
        return value

    def gen_condition(self, expr: ast.Expr) -> int:
        value, vtype = self.gen_expr(expr)
        if vtype.is_float():
            return self.b.cmp(ops.FNE, value, self.b.k(0.0))
        return self.b.cmp(ops.NE, value, self.b.k(0))

    # -- lvalues -------------------------------------------------------------------
    def gen_lvalue(self, expr: ast.Expr) -> Tuple[str, int, ct.CType]:
        if isinstance(expr, ast.Ident):
            binding = self.lookup(expr.name)
            if binding is not None:
                return binding
            gtype = self.unit.global_types.get(expr.name)
            if gtype is not None:
                addr = self.b.mov(self.b.gref(expr.name))
                return (_MEM, addr, gtype)
            raise CompileError(f"undeclared identifier {expr.name!r}", expr.line)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            value, vtype = self.gen_expr(expr.expr)
            vtype = ct.decay(vtype)
            if not vtype.is_pointer():
                raise CompileError("dereference of non-pointer", expr.line)
            return (_MEM, self._as_reg(value), vtype.pointee)
        if isinstance(expr, ast.Index):
            base, btype = self.gen_expr(expr.base)
            btype = ct.decay(btype)
            if not btype.is_pointer():
                raise CompileError("indexing non-pointer", expr.line)
            elem = btype.pointee
            index, itype = self.gen_expr(expr.index)
            if not ct.decay(itype).is_integer():
                raise CompileError("array index must be integer", expr.line)
            addr = self.b.gep(base, index, max(elem.size, 1))
            return (_MEM, addr, elem)
        if isinstance(expr, ast.Member):
            if expr.arrow:
                base, btype = self.gen_expr(expr.base)
                btype = ct.decay(btype)
                if not (btype.is_pointer()
                        and isinstance(btype.pointee, ct.Struct)):
                    raise CompileError("-> on non-struct-pointer", expr.line)
                struct = btype.pointee
                base_reg = self._as_reg(base)
            else:
                kind, where, vtype = self.gen_lvalue(expr.base)
                if not isinstance(vtype, ct.Struct):
                    raise CompileError(". on non-struct", expr.line)
                if kind != _MEM:
                    raise CompileError("struct in register?", expr.line)
                struct = vtype
                base_reg = where
            if not struct.complete:
                raise CompileError(f"struct {struct.name} is incomplete",
                                   expr.line)
            offset = struct.offsets.get(expr.field)
            if offset is None:
                raise CompileError(
                    f"struct {struct.name} has no field {expr.field!r}",
                    expr.line)
            ftype = struct.field_type(expr.field)
            # A zero-offset field still gets a GEP so instrumentation sees a
            # distinct pointer value; 'safe' is set later by the analysis.
            addr = self.b.gep(base_reg, offset=offset)
            return (_MEM, addr, ftype)
        if isinstance(expr, ast.Cast):
            kind, where, _ = self.gen_lvalue(expr.expr)
            return (kind, where, expr.ctype)
        raise CompileError(
            f"expression is not an lvalue: {type(expr).__name__}", expr.line)

    def _as_reg(self, operand: int) -> int:
        """Force an operand into a register (GEP bases must be registers for
        bounds propagation; cheap mov otherwise)."""
        if operand >= 0:
            return operand
        return self.b.mov(operand)

    def _access_size(self, ctype: ct.CType) -> int:
        size = ctype.size
        return size if size in (1, 2, 4, 8) else 8

    def load_lvalue(self, lv: Tuple[str, int, ct.CType], line: int) -> Tuple[int, ct.CType]:
        kind, where, ctype = lv
        if isinstance(ctype, ct.Array):
            # Arrays decay to a pointer to their first element.
            return where, ct.Pointer(ctype.elem)
        if isinstance(ctype, ct.Struct):
            return where, ctype   # struct "value" = its address (restricted)
        if kind == _REG:
            return where, ctype
        value = self.b.load(where, size=self._access_size(ctype),
                            signed=ctype.is_signed() and ctype.size < 8,
                            is_float=ctype.is_float(),
                            is_pointer=ctype.is_pointer())
        return value, ctype

    def store_lvalue(self, lv: Tuple[str, int, ct.CType], value: int,
                     line: int) -> None:
        kind, where, ctype = lv
        if kind == _REG:
            self.b.mov(value, dest=where)
            return
        self.store_to(where, value, ctype)

    def store_to(self, addr: int, value: int, ctype: ct.CType) -> None:
        self.b.store(value, addr, size=self._access_size(ctype),
                     is_float=ctype.is_float(),
                     is_pointer=ctype.is_pointer())

    # -- expressions --------------------------------------------------------------
    def gen_expr(self, expr: ast.Expr,
                 want_value: bool = True) -> Tuple[int, ct.CType]:
        if isinstance(expr, ast.Num):
            return self.b.k(expr.value & ((1 << 64) - 1)), ct.INT
        if isinstance(expr, ast.Flt):
            return self.b.k(float(expr.value)), ct.DOUBLE
        if isinstance(expr, ast.Str):
            name = self.unit.intern_string(expr.value)
            return self.b.gref(name), ct.Pointer(ct.CHAR)
        if isinstance(expr, ast.Ident):
            if self.lookup(expr.name) is None \
                    and expr.name not in self.unit.global_types:
                if expr.name in self.unit.func_types:
                    return self.b.fref(expr.name), ct.FNPTR
                raise CompileError(f"undeclared identifier {expr.name!r}",
                                   expr.line)
            return self.load_lvalue(self.gen_lvalue(expr), expr.line)
        if isinstance(expr, (ast.Index, ast.Member)):
            return self.load_lvalue(self.gen_lvalue(expr), expr.line)
        if isinstance(expr, ast.SizeofType):
            return self.b.k(expr.ctype.size), ct.UINT
        if isinstance(expr, ast.SizeofExpr):
            ctype = self.type_of(expr.expr)
            return self.b.k(ctype.size), ct.UINT
        if isinstance(expr, ast.Cast):
            value, vtype = self.gen_expr(expr.expr)
            target = expr.ctype
            if target.is_float() and not vtype.is_float():
                return self.b.sitofp(value), target
            if not target.is_float() and vtype.is_float():
                return self.b.fptosi(value), target
            if isinstance(target, ct.Basic) and target.kind == "char":
                truncated = self.b.trunc(value, 1)
                return self.b.sext(truncated, 1), target
            return value, target
        if isinstance(expr, ast.Unary):
            return self.gen_unary(expr)
        if isinstance(expr, ast.Postfix):
            return self.gen_incdec(expr.expr, expr.op, postfix=True)
        if isinstance(expr, ast.Bin):
            return self.gen_binary(expr)
        if isinstance(expr, ast.Assign):
            return self.gen_assign(expr)
        if isinstance(expr, ast.Cond):
            return self.gen_ternary(expr)
        if isinstance(expr, ast.Call):
            return self.gen_call(expr, want_value)
        raise CompileError(f"unsupported expression {type(expr).__name__}",
                           expr.line)

    def type_of(self, expr: ast.Expr) -> ct.CType:
        """Static type of an expression (for sizeof; no code emitted)."""
        if isinstance(expr, ast.Ident):
            binding = self.lookup(expr.name)
            if binding is not None:
                return binding[2]
            gtype = self.unit.global_types.get(expr.name)
            if gtype is not None:
                return gtype
            raise CompileError(f"undeclared identifier {expr.name!r}", expr.line)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            inner = ct.decay(self.type_of(expr.expr))
            if isinstance(inner, ct.Pointer):
                return inner.pointee
        if isinstance(expr, ast.Num):
            return ct.INT
        if isinstance(expr, ast.Flt):
            return ct.DOUBLE
        raise CompileError("sizeof of unsupported expression", expr.line)

    def gen_unary(self, expr: ast.Unary) -> Tuple[int, ct.CType]:
        op = expr.op
        if op == "&":
            if isinstance(expr.expr, ast.Ident) \
                    and expr.expr.name in self.unit.func_types \
                    and self.lookup(expr.expr.name) is None:
                return self.b.fref(expr.expr.name), ct.FNPTR
            kind, where, ctype = self.gen_lvalue(expr.expr)
            if kind != _MEM:
                raise CompileError("cannot take address of register variable",
                                   expr.line)
            return where, ct.Pointer(ctype)
        if op == "*":
            return self.load_lvalue(self.gen_lvalue(expr), expr.line)
        if op in ("++", "--"):
            return self.gen_incdec(expr.expr, op, postfix=False)
        value, vtype = self.gen_expr(expr.expr)
        if op == "-":
            if vtype.is_float():
                dest = self.fn.new_reg()
                from repro.ir.instructions import Instr
                self.b.emit(Instr(ops.FNEG, dest=dest, a=value))
                return dest, vtype
            return self.b.sub(self.b.k(0), value), ct.common_arith(vtype, ct.INT)
        if op == "!":
            if vtype.is_float():
                return self.b.cmp(ops.FEQ, value, self.b.k(0.0)), ct.INT
            return self.b.cmp(ops.EQ, value, self.b.k(0)), ct.INT
        if op == "~":
            return self.b.binop(ops.XOR, value, self.b.k((1 << 64) - 1)), vtype
        raise CompileError(f"unsupported unary {op!r}", expr.line)

    def gen_incdec(self, target: ast.Expr, op: str,
                   postfix: bool) -> Tuple[int, ct.CType]:
        lv = self.gen_lvalue(target)
        old, ctype = self.load_lvalue(lv, target.line)
        ctype_d = ct.decay(ctype)
        delta = 1
        if ctype_d.is_pointer():
            delta = max(ctype_d.pointee.size, 1)
        if ctype_d.is_pointer():
            new = self.b.gep(self._as_reg(old),
                             offset=delta if op == "++" else -delta)
        elif ctype_d.is_float():
            binop = ops.FADD if op == "++" else ops.FSUB
            new = self.b.binop(binop, old, self.b.k(1.0))
        else:
            binop = ops.ADD if op == "++" else ops.SUB
            new = self.b.binop(binop, old, self.b.k(1))
        self.store_lvalue(lv, new, target.line)
        return (old if postfix else new), ctype

    def gen_binary(self, expr: ast.Bin) -> Tuple[int, ct.CType]:
        op = expr.op
        if op in ("&&", "||"):
            return self.gen_logical(expr)
        left, ltype = self.gen_expr(expr.left)
        right, rtype = self.gen_expr(expr.right)
        ltype = ct.decay(ltype)
        rtype = ct.decay(rtype)
        # Pointer arithmetic.
        if op in ("+", "-") and ltype.is_pointer() and rtype.is_integer():
            scale = max(ltype.pointee.size, 1)
            if op == "-":
                right = self.b.sub(self.b.k(0), right)
            return self.b.gep(self._as_reg(left), right, scale), ltype
        if op == "+" and ltype.is_integer() and rtype.is_pointer():
            scale = max(rtype.pointee.size, 1)
            return self.b.gep(self._as_reg(right), left, scale), rtype
        if op == "-" and ltype.is_pointer() and rtype.is_pointer():
            diff = self.b.sub(left, right)
            scale = max(ltype.pointee.size, 1)
            if scale > 1:
                diff = self.b.binop(ops.SDIV, diff, self.b.k(scale))
            return diff, ct.INT
        # Comparisons.
        if op in ("==", "!=", "<", "<=", ">", ">="):
            if ltype.is_float() or rtype.is_float():
                left = self.convert(left, ltype, ct.DOUBLE, expr.line)
                right = self.convert(right, rtype, ct.DOUBLE, expr.line)
                return self.b.cmp(_CMP_FLOAT[op], left, right), ct.INT
            if op == "==":
                return self.b.cmp(ops.EQ, left, right), ct.INT
            if op == "!=":
                return self.b.cmp(ops.NE, left, right), ct.INT
            unsigned = (ltype == ct.UINT or rtype == ct.UINT
                        or ltype.is_pointer() or rtype.is_pointer())
            table = _CMP_UNSIGNED if unsigned else _CMP_SIGNED
            return self.b.cmp(table[op], left, right), ct.INT
        # Arithmetic / bitwise.
        common = ct.common_arith(ltype if ltype.is_arith() else ct.INT,
                                 rtype if rtype.is_arith() else ct.INT)
        if common.is_float():
            left = self.convert(left, ltype, ct.DOUBLE, expr.line)
            right = self.convert(right, rtype, ct.DOUBLE, expr.line)
            if op not in _FLOAT_BIN:
                raise CompileError(f"bad float operator {op!r}", expr.line)
            return self.b.binop(_FLOAT_BIN[op], left, right), ct.DOUBLE
        unsigned = common == ct.UINT
        if op == "/":
            return self.b.binop(ops.UDIV if unsigned else ops.SDIV,
                                left, right), common
        if op == "%":
            return self.b.binop(ops.UREM if unsigned else ops.SREM,
                                left, right), common
        if op == ">>":
            return self.b.binop(ops.LSHR if unsigned else ops.ASHR,
                                left, right), common
        if op in _INT_BIN:
            return self.b.binop(_INT_BIN[op], left, right), common
        raise CompileError(f"unsupported operator {op!r}", expr.line)

    def gen_logical(self, expr: ast.Bin) -> Tuple[int, ct.CType]:
        result = self.fn.new_reg("logic")
        right_label = self.label("logic_rhs")
        end_label = self.label("logic_end")
        left = self.gen_condition(expr.left)
        self.b.mov(left, dest=result)
        if expr.op == "&&":
            self.b.br(left, right_label, end_label)
        else:
            self.b.br(left, end_label, right_label)
        self.start_block(right_label)
        right = self.gen_condition(expr.right)
        self.b.mov(right, dest=result)
        self.b.jmp(end_label)
        self.start_block(end_label)
        return result, ct.INT

    def gen_ternary(self, expr: ast.Cond) -> Tuple[int, ct.CType]:
        result = self.fn.new_reg("cond")
        then_label = self.label("condt")
        else_label = self.label("condf")
        end_label = self.label("condend")
        cond = self.gen_condition(expr.cond)
        self.b.br(cond, then_label, else_label)
        self.start_block(then_label)
        tval, ttype = self.gen_expr(expr.then)
        self.b.mov(tval, dest=result)
        self.b.jmp(end_label)
        self.start_block(else_label)
        fval, ftype = self.gen_expr(expr.other)
        self.b.mov(fval, dest=result)
        self.b.jmp(end_label)
        self.start_block(end_label)
        ttype = ct.decay(ttype)
        return result, ttype if not ttype.is_void() else ct.decay(ftype)

    def gen_assign(self, expr: ast.Assign) -> Tuple[int, ct.CType]:
        lv = self.gen_lvalue(expr.target)
        ctype = lv[2]
        if expr.op == "=":
            value, vtype = self.gen_expr(expr.value)
            value = self.convert(value, vtype, ctype, expr.line)
            self.store_lvalue(lv, value, expr.line)
            return value, ctype
        # Compound assignment: rewrite as target = target op value.
        binop = ast.Bin(expr.op[:-1], expr.target, expr.value, expr.line)
        value, vtype = self.gen_binary(binop)
        value = self.convert(value, vtype, ctype, expr.line)
        self.store_lvalue(lv, value, expr.line)
        return value, ctype

    def gen_call(self, expr: ast.Call, want_value: bool) -> Tuple[int, ct.CType]:
        args: List[int] = []
        # Direct call by name?
        if isinstance(expr.callee, ast.Ident) \
                and self.lookup(expr.callee.name) is None:
            name = expr.callee.name
            if name in self.unit.func_types:
                ret, param_types = self.unit.func_types[name]
                if len(expr.args) != len(param_types):
                    raise CompileError(
                        f"{name} expects {len(param_types)} args, "
                        f"got {len(expr.args)}", expr.line)
                for arg, ptype in zip(expr.args, param_types):
                    value, vtype = self.gen_expr(arg)
                    args.append(self.convert(value, vtype, ptype, expr.line))
                dest = self.b.call(name, args,
                                   want_result=not ret.is_void())
                return (dest if dest is not None else self.b.k(0)), ret
            if name in BUILTINS:
                for arg in expr.args:
                    value, _ = self.gen_expr(arg)
                    args.append(value)
                ret = BUILTINS[name]
                dest = self.b.call(name, args, want_result=not ret.is_void())
                return (dest if dest is not None else self.b.k(0)), ret
            raise CompileError(f"call to unknown function {name!r}", expr.line)
        # Indirect call through a function-pointer value.
        callee, ctype = self.gen_expr(expr.callee)
        for arg in expr.args:
            value, _ = self.gen_expr(arg)
            args.append(value)
        dest = self.b.call(callee, args, want_result=True)
        return dest, ct.INT


def compile_unit(unit: ast.TranslationUnit, structs: Dict[str, ct.Struct],
                 name: str = "minic") -> Module:
    return UnitCodegen(unit, structs, name).run()
