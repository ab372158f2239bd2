"""Unit tests for the IR layer: builder, verifier, finalize, printer."""

import pytest

from repro.errors import IRVerifyError
from repro.ir import (
    Function,
    GlobalVar,
    IRBuilder,
    Module,
    ops,
    print_function,
    print_module,
    verify_module,
)


def _simple_fn(name="f"):
    fn = Function(name, ["x"])
    b = IRBuilder(fn, fn.block("entry"))
    return fn, b


class TestBuilder:
    def test_register_allocation(self):
        fn, b = _simple_fn()
        r1 = b.add(0, b.k(1))
        r2 = b.mul(r1, r1)
        assert r2 > r1 > 0
        assert fn.nregs == r2 + 1

    def test_constants_pooled(self):
        fn, b = _simple_fn()
        assert b.k(42) == b.k(42)
        assert b.k(42) != b.k(43)

    def test_signed_zeros_pooled_apart(self):
        fn, b = _simple_fn()
        neg, pos = b.k(-0.0), b.k(0.0)
        assert neg != pos
        assert [repr(fn.consts[-op - 1]) for op in (neg, pos)] == \
            ["-0.0", "0.0"]
        assert b.k(0.0) == pos and b.k(-0.0) == neg

    def test_const_encoding_negative(self):
        fn, b = _simple_fn()
        op = b.k(7)
        assert op < 0
        assert fn.consts[-op - 1] == 7


class TestFinalize:
    def test_branch_targets_resolved(self):
        fn, b = _simple_fn()
        b.jmp("next")
        b.set_block(b.new_block("next"))
        b.ret(b.k(0))
        fn.finalize()
        assert fn.code[0].t1 == fn.block_index["next"]

    def test_frame_layout(self):
        fn, b = _simple_fn()
        a1 = b.alloca(24)
        a2 = b.alloca(10, align=8)
        b.ret(None)
        fn.finalize()
        offsets = [ins.c for ins in fn.code if ins.op == ops.ALLOCA]
        assert offsets[0] == 0
        assert offsets[1] == 24
        assert fn.frame_size >= 24 + 10 + Function.RET_SLOT
        assert fn.frame_size % 8 == 0

    def test_unknown_branch_target_rejected(self):
        fn, b = _simple_fn()
        b.jmp("nowhere")
        with pytest.raises(IRVerifyError):
            fn.finalize()

    def test_clone_is_independent(self):
        fn, b = _simple_fn()
        b.ret(b.k(1))
        clone = fn.clone()
        clone.blocks[0].instrs[0].a = clone.intern_const(2)
        assert fn.consts == clone.consts[:len(fn.consts)] or True
        assert fn.blocks[0].instrs[0] is not clone.blocks[0].instrs[0]


class TestVerifier:
    def _module_with(self, fn):
        m = Module()
        m.add_function(fn)
        return m

    def test_valid_module_passes(self):
        fn, b = _simple_fn()
        b.ret(0)
        verify_module(self._module_with(fn))

    def test_missing_terminator(self):
        fn, b = _simple_fn()
        b.add(0, b.k(1))
        with pytest.raises(IRVerifyError, match="terminator"):
            verify_module(self._module_with(fn))

    def test_out_of_range_register(self):
        fn, b = _simple_fn()
        b.add(999, b.k(1))
        b.ret(0)
        with pytest.raises(IRVerifyError, match="out of range"):
            verify_module(self._module_with(fn))

    def test_terminator_mid_block(self):
        fn, b = _simple_fn()
        b.ret(0)
        b.add(0, b.k(1))
        b.ret(0)
        with pytest.raises(IRVerifyError, match="mid-block"):
            verify_module(self._module_with(fn))

    def test_unknown_global_reference(self):
        fn, b = _simple_fn()
        b.mov(b.gref("nope"))
        b.ret(0)
        with pytest.raises(IRVerifyError, match="unknown global"):
            verify_module(self._module_with(fn))

    def test_unknown_function_reference(self):
        fn, b = _simple_fn()
        b.mov(b.fref("nope"))
        b.ret(0)
        with pytest.raises(IRVerifyError, match="unknown function"):
            verify_module(self._module_with(fn))

    def test_bad_access_size(self):
        fn, b = _simple_fn()
        b.load(0, size=3)
        b.ret(0)
        with pytest.raises(IRVerifyError, match="size"):
            verify_module(self._module_with(fn))

    def test_gep_offset_not_an_operand(self):
        """GEP's byte offset is a literal, not a register reference."""
        fn, b = _simple_fn()
        b.gep(0, offset=10_000)    # way beyond any register index
        b.ret(0)
        verify_module(self._module_with(fn))


class TestModule:
    def test_duplicate_function_rejected(self):
        m = Module()
        fn, b = _simple_fn()
        b.ret(0)
        m.add_function(fn)
        fn2, b2 = _simple_fn()
        b2.ret(0)
        with pytest.raises(IRVerifyError):
            m.add_function(fn2)

    def test_string_interning(self):
        m = Module()
        var = m.add_string(b"hello")
        assert m.globals[var.name].init == b"hello\x00"
        assert var.size == 6

    def test_global_init_too_large(self):
        with pytest.raises(IRVerifyError):
            GlobalVar("g", 2, b"toolong")

    def test_stats(self):
        m = Module()
        fn, b = _simple_fn()
        b.ret(0)
        m.add_function(fn)
        stats = m.stats()
        assert stats["functions"] == 1
        assert stats["instructions"] == 1


class TestPrinter:
    def test_function_dump_mentions_blocks(self):
        fn, b = _simple_fn("pretty")
        v = b.add(0, b.k(5))
        b.store(v, 0, size=4)
        b.ret(v)
        text = print_function(fn)
        assert "define pretty" in text
        assert "entry:" in text
        assert "add" in text
        assert "u32" in text

    def test_module_dump(self):
        m = Module("demo")
        m.add_string(b"s")
        fn, b = _simple_fn()
        b.ret(0)
        m.add_function(fn)
        text = print_module(m)
        assert "; module demo" in text
        assert "global" in text
