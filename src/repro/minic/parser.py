"""MiniC recursive-descent parser.

Grammar (C subset): struct definitions, global variables with constant
initializers, function definitions; statements: blocks, if/else, while,
do-while, for (with declaration), break/continue/return, expression
statements, local declarations; expressions: full C operator set minus
comma, with precedence climbing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import CompileError
from repro.minic import ast_nodes as ast
from repro.minic import ctypes as ct
from repro.minic.lexer import Token, tokenize

#: Binary operator precedence (higher binds tighter).
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

_TYPE_KEYWORDS = {"void", "char", "int", "uint", "double", "struct", "fnptr",
                  "const", "static"}


#: How far past the current token ``peek`` looks.  The token list is
#: padded with this many extra copies of its ``eof`` token, so peeking
#: from ``eof`` reads ``eof`` with a single index.  No parse moves past
#: ``eof`` except ``parse_primary``, which then raises at once.
_LOOKAHEAD = 2


class Parser:
    def __init__(self, source: str, name: str = "<minic>"):
        self.tokens = tokenize(source)
        self.tokens += self.tokens[-1:] * _LOOKAHEAD
        self.pos = 0
        self.name = name
        self.structs: Dict[str, ct.Struct] = {}

    # -- token helpers ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at(self, kind: str, value: object = None) -> bool:
        token = self.tokens[self.pos]
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value: object = None) -> Optional[Token]:
        token = self.tokens[self.pos]
        if token.kind == kind and (value is None or token.value == value):
            self.pos += 1
            return token
        return None

    def expect(self, kind: str, value: object = None) -> Token:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            want = value if value is not None else kind
            raise CompileError(
                f"expected {want!r}, got {token.value!r}", token.line, token.column)
        return self.next()

    def error(self, message: str) -> CompileError:
        token = self.peek()
        return CompileError(message, token.line, token.column)

    # -- types --------------------------------------------------------------
    def at_type(self) -> bool:
        token = self.peek()
        return token.kind == "kw" and token.value in _TYPE_KEYWORDS

    def parse_type_spec(self) -> ct.CType:
        """Base type (no pointer stars): keyword or struct reference."""
        while self.accept("kw", "const") or self.accept("kw", "static"):
            pass
        token = self.expect("kw")
        if token.value == "struct":
            name_token = self.expect("ident")
            struct = self.structs.get(name_token.value)
            if struct is None:
                struct = ct.Struct(name_token.value)
                self.structs[name_token.value] = struct
            return struct
        basics = {"void": ct.VOID, "char": ct.CHAR, "int": ct.INT,
                  "uint": ct.UINT, "double": ct.DOUBLE, "fnptr": ct.FNPTR}
        if token.value not in basics:
            raise CompileError(f"not a type: {token.value!r}",
                               token.line, token.column)
        return basics[token.value]

    def parse_pointers(self, base: ct.CType) -> ct.CType:
        while self.accept("op", "*"):
            base = ct.Pointer(base)
        return base

    def parse_full_type(self) -> ct.CType:
        """Type spec + pointers (used by casts and sizeof)."""
        return self.parse_pointers(self.parse_type_spec())

    def parse_array_suffix(self, base: ct.CType) -> ct.CType:
        """Trailing [N][M]... after a declarator name."""
        dims: List[int] = []
        while self.accept("op", "["):
            size_token = self.expect("int")
            dims.append(size_token.value)
            self.expect("op", "]")
        for dim in reversed(dims):
            base = ct.Array(base, dim)
        return base

    # -- top level -------------------------------------------------------------
    def parse_unit(self) -> ast.TranslationUnit:
        decls: List[ast.Node] = []
        while not self.at("eof"):
            if self.at("kw", "struct") and self.peek(2).value == "{":
                self.parse_struct_def()
                continue
            decls.extend(self.parse_top_decl())
        return ast.TranslationUnit(decls)

    def parse_struct_def(self) -> None:
        self.expect("kw", "struct")
        name = self.expect("ident").value
        struct = self.structs.get(name)
        if struct is None:
            struct = ct.Struct(name)
            self.structs[name] = struct
        self.expect("op", "{")
        fields: List[Tuple[str, ct.CType]] = []
        while not self.accept("op", "}"):
            base = self.parse_type_spec()
            while True:
                ftype = self.parse_pointers(base)
                fname = self.expect("ident").value
                ftype = self.parse_array_suffix(ftype)
                fields.append((fname, ftype))
                if not self.accept("op", ","):
                    break
            self.expect("op", ";")
        self.expect("op", ";")
        struct.define(fields)

    def parse_top_decl(self) -> List[ast.Node]:
        line = self.peek().line
        is_const = self.at("kw", "const")
        base = self.parse_type_spec()
        results: List[ast.Node] = []
        while True:
            ctype = self.parse_pointers(base)
            name = self.expect("ident").value
            if self.at("op", "("):
                results.append(self.parse_function(name, ctype, line))
                return results
            ctype = self.parse_array_suffix(ctype)
            init: Optional[ast.Expr] = None
            if self.accept("op", "="):
                init = self.parse_initializer()
            results.append(ast.GlobalDecl(name, ctype, init, is_const, line))
            if self.accept("op", ";"):
                return results
            self.expect("op", ",")

    def parse_initializer(self) -> ast.Expr:
        if self.at("op", "{"):
            line = self.next().line
            items: List[ast.Expr] = []
            while not self.accept("op", "}"):
                items.append(self.parse_initializer())
                if not self.at("op", "}"):
                    self.expect("op", ",")
            return ast.InitList(items, line)
        return self.parse_assignment()

    def parse_function(self, name: str, ret: ct.CType, line: int) -> ast.FuncDef:
        self.expect("op", "(")
        params: List[Tuple[str, ct.CType]] = []
        if not self.at("op", ")"):
            if self.at("kw", "void") and self.peek(1).value == ")":
                self.next()
            else:
                while True:
                    ptype = self.parse_full_type()
                    pname = self.expect("ident").value
                    ptype = ct.decay(self.parse_array_suffix(ptype))
                    params.append((pname, ptype))
                    if not self.accept("op", ","):
                        break
        self.expect("op", ")")
        body = self.parse_block()
        return ast.FuncDef(name, ret, params, body, line)

    # -- statements ----------------------------------------------------------
    def parse_block(self) -> ast.Block:
        line = self.expect("op", "{").line
        stmts: List[ast.Stmt] = []
        while not self.accept("op", "}"):
            stmts.append(self.parse_statement())
        return ast.Block(stmts, line)

    def parse_statement(self) -> ast.Stmt:
        token = self.peek()
        if token.kind == "op" and token.value == "{":
            return self.parse_block()
        if token.kind == "kw":
            keyword = token.value
            if keyword == "if":
                return self.parse_if()
            if keyword == "while":
                return self.parse_while()
            if keyword == "do":
                return self.parse_do_while()
            if keyword == "for":
                return self.parse_for()
            if keyword == "return":
                self.next()
                value = None if self.at("op", ";") else self.parse_expression()
                self.expect("op", ";")
                return ast.Return(value, token.line)
            if keyword == "break":
                self.next()
                self.expect("op", ";")
                return ast.Break(token.line)
            if keyword == "continue":
                self.next()
                self.expect("op", ";")
                return ast.Continue(token.line)
            if keyword in _TYPE_KEYWORDS:
                return self.parse_local_decl()
        expr = self.parse_expression()
        self.expect("op", ";")
        return ast.ExprStmt(expr, token.line)

    def parse_local_decl(self) -> ast.Stmt:
        line = self.peek().line
        base = self.parse_type_spec()
        decls: List[ast.Stmt] = []
        while True:
            ctype = self.parse_pointers(base)
            name = self.expect("ident").value
            ctype = self.parse_array_suffix(ctype)
            init: Optional[ast.Expr] = None
            if self.accept("op", "="):
                init = self.parse_initializer()
            decls.append(ast.Decl(name, ctype, init, line))
            if self.accept("op", ";"):
                break
            self.expect("op", ",")
        if len(decls) == 1:
            return decls[0]
        return ast.Block(decls, line)

    def parse_if(self) -> ast.If:
        line = self.expect("kw", "if").line
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        then = self.parse_statement()
        other = None
        if self.accept("kw", "else"):
            other = self.parse_statement()
        return ast.If(cond, then, other, line)

    def parse_while(self) -> ast.While:
        line = self.expect("kw", "while").line
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement()
        return ast.While(cond, body, line)

    def parse_do_while(self) -> ast.DoWhile:
        line = self.expect("kw", "do").line
        body = self.parse_statement()
        self.expect("kw", "while")
        self.expect("op", "(")
        cond = self.parse_expression()
        self.expect("op", ")")
        self.expect("op", ";")
        return ast.DoWhile(body, cond, line)

    def parse_for(self) -> ast.For:
        line = self.expect("kw", "for").line
        self.expect("op", "(")
        init: Optional[ast.Stmt] = None
        if not self.accept("op", ";"):
            if self.at_type():
                init = self.parse_local_decl()
            else:
                init = ast.ExprStmt(self.parse_expression(), line)
                self.expect("op", ";")
        cond: Optional[ast.Expr] = None
        if not self.at("op", ";"):
            cond = self.parse_expression()
        self.expect("op", ";")
        step: Optional[ast.Expr] = None
        if not self.at("op", ")"):
            step = self.parse_expression()
        self.expect("op", ")")
        body = self.parse_statement()
        return ast.For(init, cond, step, body, line)

    # -- expressions ------------------------------------------------------------
    def parse_expression(self) -> ast.Expr:
        return self.parse_assignment()

    def parse_assignment(self) -> ast.Expr:
        left = self.parse_ternary()
        token = self.peek()
        if token.kind == "op" and token.value in _ASSIGN_OPS:
            self.next()
            value = self.parse_assignment()
            return ast.Assign(token.value, left, value, token.line)
        return left

    def parse_ternary(self) -> ast.Expr:
        cond = self.parse_binary(1)
        if self.at("op", "?"):
            line = self.next().line
            then = self.parse_assignment()
            self.expect("op", ":")
            other = self.parse_assignment()
            return ast.Cond(cond, then, other, line)
        return cond

    def parse_binary(self, min_prec: int) -> ast.Expr:
        left = self.parse_unary()
        while True:
            token = self.peek()
            if token.kind != "op":
                return left
            prec = _PRECEDENCE.get(token.value, 0)
            if prec < min_prec or prec == 0:
                return left
            self.next()
            right = self.parse_binary(prec + 1)
            left = ast.Bin(token.value, left, right, token.line)

    def _at_cast(self) -> bool:
        if not self.at("op", "("):
            return False
        nxt = self.peek(1)
        return nxt.kind == "kw" and nxt.value in _TYPE_KEYWORDS

    def parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "op":
            if token.value in ("-", "!", "~", "*", "&", "+"):
                self.next()
                expr = self.parse_unary()
                if token.value == "+":
                    return expr
                return ast.Unary(token.value, expr, token.line)
            if token.value in ("++", "--"):
                self.next()
                expr = self.parse_unary()
                return ast.Unary(token.value, expr, token.line)
            if self._at_cast():
                self.next()                    # '('
                ctype = self.parse_full_type()
                self.expect("op", ")")
                expr = self.parse_unary()
                return ast.Cast(ctype, expr, token.line)
        if token.kind == "kw" and token.value == "sizeof":
            self.next()
            self.expect("op", "(")
            if self.at_type():
                ctype = self.parse_full_type()
                ctype = self.parse_array_suffix(ctype)
                self.expect("op", ")")
                return ast.SizeofType(ctype, token.line)
            expr = self.parse_expression()
            self.expect("op", ")")
            return ast.SizeofExpr(expr, token.line)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while True:
            token = self.peek()
            if token.kind != "op":
                return expr
            if token.value == "(":
                self.next()
                args: List[ast.Expr] = []
                if not self.at("op", ")"):
                    while True:
                        args.append(self.parse_assignment())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                expr = ast.Call(expr, args, token.line)
            elif token.value == "[":
                self.next()
                index = self.parse_expression()
                self.expect("op", "]")
                expr = ast.Index(expr, index, token.line)
            elif token.value == ".":
                self.next()
                field = self.expect("ident").value
                expr = ast.Member(expr, field, False, token.line)
            elif token.value == "->":
                self.next()
                field = self.expect("ident").value
                expr = ast.Member(expr, field, True, token.line)
            elif token.value in ("++", "--"):
                self.next()
                expr = ast.Postfix(token.value, expr, token.line)
            else:
                return expr

    def parse_primary(self) -> ast.Expr:
        token = self.next()
        if token.kind == "int":
            return ast.Num(token.value, token.line)
        if token.kind == "char":
            return ast.Num(token.value, token.line)
        if token.kind == "float":
            return ast.Flt(token.value, token.line)
        if token.kind == "str":
            return ast.Str(token.value, token.line)
        if token.kind == "ident":
            return ast.Ident(token.value, token.line)
        if token.kind == "op" and token.value == "(":
            expr = self.parse_expression()
            self.expect("op", ")")
            return expr
        raise CompileError(f"unexpected token {token.value!r}",
                           token.line, token.column)


def parse(source: str, name: str = "<minic>") -> Tuple[ast.TranslationUnit, Dict[str, ct.Struct]]:
    parser = Parser(source, name)
    unit = parser.parse_unit()
    return unit, parser.structs
