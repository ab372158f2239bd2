"""MiniC abstract syntax tree nodes.

Plain data holders: the parser builds them, the code generator walks them.
Every node carries the source line for error messages.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Sequence, Tuple

from repro.minic.ctypes import CType


class Node:
    __slots__ = ("line",)

    def __init__(self, line: int = 0):
        self.line = line


# -- expressions ---------------------------------------------------------------
class Expr(Node):
    __slots__ = ()


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int, line: int = 0):
        super().__init__(line)
        self.value = value


class Flt(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float, line: int = 0):
        super().__init__(line)
        self.value = value


class Str(Expr):
    __slots__ = ("value",)

    def __init__(self, value: bytes, line: int = 0):
        super().__init__(line)
        self.value = value


class Ident(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str, line: int = 0):
        super().__init__(line)
        self.name = name


class Unary(Expr):
    """op in: - ! ~ * & ++ -- (prefix)."""

    __slots__ = ("op", "expr")

    def __init__(self, op: str, expr: Expr, line: int = 0):
        super().__init__(line)
        self.op = op
        self.expr = expr


class Postfix(Expr):
    """op in: ++ -- (postfix)."""

    __slots__ = ("op", "expr")

    def __init__(self, op: str, expr: Expr, line: int = 0):
        super().__init__(line)
        self.op = op
        self.expr = expr


class Bin(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr, line: int = 0):
        super().__init__(line)
        self.op = op
        self.left = left
        self.right = right


class Assign(Expr):
    """op in: = += -= *= /= %= &= |= ^= <<= >>="""

    __slots__ = ("op", "target", "value")

    def __init__(self, op: str, target: Expr, value: Expr, line: int = 0):
        super().__init__(line)
        self.op = op
        self.target = target
        self.value = value


class Cond(Expr):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Expr, other: Expr, line: int = 0):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.other = other


class Call(Expr):
    __slots__ = ("callee", "args")

    def __init__(self, callee: Expr, args: Sequence[Expr], line: int = 0):
        super().__init__(line)
        self.callee = callee
        self.args = list(args)


class Index(Expr):
    __slots__ = ("base", "index")

    def __init__(self, base: Expr, index: Expr, line: int = 0):
        super().__init__(line)
        self.base = base
        self.index = index


class Member(Expr):
    __slots__ = ("base", "field", "arrow")

    def __init__(self, base: Expr, field: str, arrow: bool, line: int = 0):
        super().__init__(line)
        self.base = base
        self.field = field
        self.arrow = arrow


class SizeofType(Expr):
    __slots__ = ("ctype",)

    def __init__(self, ctype: CType, line: int = 0):
        super().__init__(line)
        self.ctype = ctype


class SizeofExpr(Expr):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, line: int = 0):
        super().__init__(line)
        self.expr = expr


class Cast(Expr):
    __slots__ = ("ctype", "expr")

    def __init__(self, ctype: CType, expr: Expr, line: int = 0):
        super().__init__(line)
        self.ctype = ctype
        self.expr = expr


class InitList(Expr):
    __slots__ = ("items",)

    def __init__(self, items: Sequence[Expr], line: int = 0):
        super().__init__(line)
        self.items = list(items)


# -- statements -----------------------------------------------------------------
class Stmt(Node):
    __slots__ = ()


class Decl(Stmt):
    __slots__ = ("name", "ctype", "init")

    def __init__(self, name: str, ctype: CType, init: Optional[Expr],
                 line: int = 0):
        super().__init__(line)
        self.name = name
        self.ctype = ctype
        self.init = init


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, expr: Expr, line: int = 0):
        super().__init__(line)
        self.expr = expr


class Block(Stmt):
    __slots__ = ("stmts",)

    def __init__(self, stmts: Sequence[Stmt], line: int = 0):
        super().__init__(line)
        self.stmts = list(stmts)


class If(Stmt):
    __slots__ = ("cond", "then", "other")

    def __init__(self, cond: Expr, then: Stmt, other: Optional[Stmt],
                 line: int = 0):
        super().__init__(line)
        self.cond = cond
        self.then = then
        self.other = other


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, cond: Expr, body: Stmt, line: int = 0):
        super().__init__(line)
        self.cond = cond
        self.body = body


class DoWhile(Stmt):
    __slots__ = ("body", "cond")

    def __init__(self, body: Stmt, cond: Expr, line: int = 0):
        super().__init__(line)
        self.body = body
        self.cond = cond


class For(Stmt):
    __slots__ = ("init", "cond", "step", "body")

    def __init__(self, init: Optional[Stmt], cond: Optional[Expr],
                 step: Optional[Expr], body: Stmt, line: int = 0):
        super().__init__(line)
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, value: Optional[Expr], line: int = 0):
        super().__init__(line)
        self.value = value


class Break(Stmt):
    __slots__ = ()


class Continue(Stmt):
    __slots__ = ()


# -- top level --------------------------------------------------------------------
class FuncDef(Node):
    """``address_taken``: the names the body applies ``&`` to, recorded
    by the parser as it builds the body."""

    __slots__ = ("name", "ret", "params", "body", "address_taken")

    def __init__(self, name: str, ret: CType,
                 params: List[Tuple[str, CType]], body: Block, line: int = 0,
                 address_taken: AbstractSet[str] = frozenset()):
        super().__init__(line)
        self.name = name
        self.ret = ret
        self.params = params
        self.body = body
        self.address_taken = address_taken


class GlobalDecl(Node):
    __slots__ = ("name", "ctype", "init", "is_const")

    def __init__(self, name: str, ctype: CType, init: Optional[Expr],
                 is_const: bool = False, line: int = 0):
        super().__init__(line)
        self.name = name
        self.ctype = ctype
        self.init = init
        self.is_const = is_const


class TranslationUnit(Node):
    __slots__ = ("decls",)

    def __init__(self, decls: Sequence[Node]):
        super().__init__(0)
        self.decls = list(decls)
