"""Unit tests for the MiniC lexer and parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompileError
from repro.minic.lexer import tokenize
from repro.minic.parser import parse
from repro.minic import ast_nodes as ast
from repro.minic import ctypes as ct


class TestLexer:
    def test_numbers(self):
        kinds = [(t.kind, t.value) for t in tokenize("42 0x1F 3.5 1e3")[:-1]]
        assert kinds == [("int", 42), ("int", 31), ("float", 3.5),
                         ("float", 1000.0)]

    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo while _bar2")
        assert tokens[0].kind == "kw"
        assert tokens[1] == tokens[1]._replace(kind="ident", value="foo")
        assert tokens[2].kind == "kw"
        assert tokens[3].value == "_bar2"

    def test_string_escapes(self):
        token = tokenize(r'"a\n\t\x41\0"')[0]
        assert token.value == b"a\n\tA\x00"

    def test_char_literals(self):
        assert tokenize("'a'")[0].value == ord("a")
        assert tokenize(r"'\n'")[0].value == 10

    def test_comments_skipped(self):
        tokens = tokenize("1 // line\n/* block\nmore */ 2")
        values = [t.value for t in tokens[:-1]]
        assert values == [1, 2]

    def test_operators_maximal_munch(self):
        values = [t.value for t in tokenize("a<<=b>>c->d++")[:-1]]
        assert "<<=" in values and ">>" in values and "->" in values \
            and "++" in values

    def test_line_tracking(self):
        tokens = tokenize("a\nb\n  c")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[2].line == 3
        assert tokens[2].column == 3

    def test_unterminated_string(self):
        with pytest.raises(CompileError, match="unterminated"):
            tokenize('"oops')

    def test_bad_char(self):
        with pytest.raises(CompileError):
            tokenize("a $ b")

    @pytest.mark.parametrize("literal", [
        "0x;", "0x_1", "1.2.3", ".5.5", "1e;", "1.5e+", "²", "1²",
        r"'\x4'", r"'\q'", "'\\", "'", "'ab'",
        r'"\xZZ"', r'"\x4"', r'"\x-1"', '"中"', '"a\nb"', '"open',
    ])
    def test_malformed_literal_is_compile_error_at_it(self, literal):
        with pytest.raises(CompileError) as caught:
            tokenize("int x;\n  x = " + literal)
        assert (caught.value.line, caught.value.column) == (2, 7)


#: Characters the lexer treats specially, so that generated text often
#: reaches its number, literal and comment paths.
_LEXER_ALPHABET = "0123456789xXeE._+-*/<>=!&|'\"\\ \t\r\nabz;²٣é中$"


@given(st.one_of(st.text(), st.text(alphabet=_LEXER_ALPHABET)))
@settings(max_examples=400, deadline=None)
def test_tokenize_returns_tokens_or_raises_compile_error(source):
    try:
        tokens = tokenize(source)
    except CompileError:
        return
    assert tokens[-1].kind == "eof"


class TestParser:
    def test_function_and_params(self):
        unit, _ = parse("int add(int a, int b) { return a + b; }")
        fn = unit.decls[0]
        assert isinstance(fn, ast.FuncDef)
        assert fn.name == "add"
        assert [p[0] for p in fn.params] == ["a", "b"]

    def test_struct_definition(self):
        _, structs = parse("struct P { int x; double d; char tag[4]; };")
        struct = structs["P"]
        assert struct.offsets["x"] == 0
        assert struct.offsets["d"] == 8
        assert struct.offsets["tag"] == 16
        assert struct.size == 24

    def test_struct_alignment_padding(self):
        _, structs = parse("struct Q { char c; int x; };")
        assert structs["Q"].offsets["x"] == 8
        assert structs["Q"].size == 16

    def test_pointer_and_array_types(self):
        unit, _ = parse("int **pp; double mat[3][4];")
        pp, mat = unit.decls
        assert isinstance(pp.ctype, ct.Pointer)
        assert isinstance(pp.ctype.pointee, ct.Pointer)
        assert isinstance(mat.ctype, ct.Array)
        assert mat.ctype.count == 3
        assert mat.ctype.elem.count == 4

    def test_global_initializers(self):
        unit, _ = parse('int a = 5; int arr[3] = {1,2}; char *s = "hi";')
        assert isinstance(unit.decls[0].init, ast.Num)
        assert isinstance(unit.decls[1].init, ast.InitList)
        assert isinstance(unit.decls[2].init, ast.Str)

    def test_precedence(self):
        unit, _ = parse("int f() { return 1 + 2 * 3; }")
        ret = unit.decls[0].body.stmts[0]
        assert ret.value.op == "+"
        assert ret.value.right.op == "*"

    def test_ternary_and_logical(self):
        unit, _ = parse("int f(int x) { return x > 0 && x < 9 ? 1 : 2; }")
        ret = unit.decls[0].body.stmts[0]
        assert isinstance(ret.value, ast.Cond)
        assert ret.value.cond.op == "&&"

    def test_for_with_decl(self):
        unit, _ = parse("int f() { for (int i = 0; i < 4; i++) {} return 0; }")
        loop = unit.decls[0].body.stmts[0]
        assert isinstance(loop, ast.For)
        assert isinstance(loop.init, ast.Decl)

    def test_cast_vs_paren(self):
        unit, _ = parse("int f(int x) { return (int)x + (x); }")
        ret = unit.decls[0].body.stmts[0]
        assert isinstance(ret.value.left, ast.Cast)
        assert isinstance(ret.value.right, ast.Ident)

    def test_member_chains(self):
        unit, _ = parse(
            "struct P { int x; };"
            "int f(struct P *p) { return p->x; }")
        ret = unit.decls[0].body.stmts[0]
        assert isinstance(ret.value, ast.Member)
        assert ret.value.arrow

    def test_sizeof_forms(self):
        unit, _ = parse("int f(int x) { return sizeof(int) + sizeof(x); }")
        ret = unit.decls[0].body.stmts[0]
        assert isinstance(ret.value.left, ast.SizeofType)
        assert isinstance(ret.value.right, ast.SizeofExpr)

    def test_missing_semicolon(self):
        with pytest.raises(CompileError, match="expected"):
            parse("int f() { return 1 }")

    def test_break_outside_loop_caught_in_codegen(self):
        from repro.minic import compile_source
        with pytest.raises(CompileError, match="break"):
            compile_source("int f() { break; return 0; }")

    def test_do_while(self):
        unit, _ = parse("int f() { int i = 0; do { i++; } while (i < 3); return i; }")
        assert isinstance(unit.decls[0].body.stmts[1], ast.DoWhile)

    def test_struct_redefinition_rejected(self):
        with pytest.raises(CompileError, match="redefined"):
            parse("struct A { int x; }; struct A { int y; };")
