"""VM security-relevant mechanics: return-address discipline, indirect
calls, the loader, and tagged values flowing through real machinery."""

import pytest

from repro.core import SGXBoundsScheme, extract_p, extract_ub
from repro.errors import ControlFlowHijack, SegmentationFault, VMError
from repro.memory.layout import CODE_BASE, in_code_region
from repro.minic import compile_source
from repro.vm import VM
from tests.util import build, run_c


class TestReturnAddressDiscipline:
    def test_clean_returns_work(self):
        value, _ = run_c("""
        int f(int x) { return x + 1; }
        int main() { return f(f(f(0))); }
        """)
        assert value == 3

    def test_smashed_return_hijacks_to_function(self):
        """Overwriting the return slot with a real code address transfers
        control there — the attack the schemes must prevent."""
        src = """
        int g_flag;
        int evil() { g_flag = 1; return 0; }
        int victim() {
            char buf[8];
            uint target = (uint)evil;
            // Native frame: buf at 0, return slot at 16.
            for (int i = 0; i < 24; i++)
                buf[i] = (char)(target >> ((i - 16) * 8));
            return 0;
        }
        int main() { victim(); return g_flag; }
        """
        with pytest.raises(ControlFlowHijack):
            run_c(src)

    def test_smashed_return_with_garbage_crashes(self):
        src = """
        int victim() {
            char buf[8];
            for (int i = 0; i < 24; i++) buf[i] = (char)0x41;
            return 0;
        }
        int main() { victim(); return 0; }
        """
        with pytest.raises(SegmentationFault, match="non-code"):
            run_c(src)

    def test_sgxbounds_stops_the_smash_before_return(self):
        from repro.errors import BoundsViolation
        src = """
        int victim() {
            char buf[8];
            for (int i = 0; i < 24; i++) buf[i] = (char)0x41;
            return 0;
        }
        int main() { victim(); return 0; }
        """
        with pytest.raises(BoundsViolation):
            run_c(src, scheme=SGXBoundsScheme())


class TestIndirectCalls:
    def test_call_through_data_pointer_faults(self):
        src = """
        int main() {
            int x = 5;
            fnptr f = (fnptr)(uint)&x;   // points at data, not code
            return f();
        }
        """
        with pytest.raises(SegmentationFault, match="non-code"):
            run_c(src)

    def test_function_addresses_live_in_code_region(self):
        module = build("int f() { return 1; } int main() { return f(); }")
        vm = VM()
        program = vm.load(module)
        for name in ("f", "main"):
            assert in_code_region(program.func_addr[name])

    def test_code_region_is_not_readable_data(self):
        """Fake code slots are never memory-backed: reading a function's
        'bytes' faults, so code cannot be disclosed as data."""
        module = build("int main() { return 0; }")
        vm = VM()
        program = vm.load(module)
        with pytest.raises(SegmentationFault):
            vm.space.read_u8(program.func_addr["main"])


class TestLoader:
    def test_globals_initialized(self):
        module = build("""
        int magic = 1234;
        double pi = 3.25;
        char text[8] = "abc";
        int main() { return magic; }
        """)
        vm = VM()
        program = vm.load(module)
        assert vm.space.read_u64(program.global_addr["magic"]) == 1234
        assert vm.space.read_f64(program.global_addr["pi"]) == 3.25
        assert vm.space.read_cstring(
            program.global_addr["text"]) == b"abc"

    def test_pointer_relocations(self):
        module = build("""
        int target = 7;
        int *ptr = &target;
        int main() { return *ptr; }
        """)
        vm = VM()
        program = vm.load(module)
        slot = vm.space.read_u64(program.global_addr["ptr"])
        assert slot == program.global_addr["target"]
        assert vm.run("main") == 7

    def test_relocations_are_tagged_under_sgxbounds(self):
        scheme = SGXBoundsScheme()
        module = build("""
        int target = 7;
        int *ptr = &target;
        int main() { return *ptr; }
        """, scheme=scheme)
        vm = VM(scheme=scheme)
        program = vm.load(module)
        tagged = vm.space.read_u64(program.global_addr["ptr"])
        assert extract_ub(tagged) == extract_p(tagged) + 8  # sizeof(int)
        assert vm.run("main") == 7

    def test_function_pointer_relocation(self):
        value, _ = run_c("""
        int hello() { return 42; }
        fnptr table[2] = { hello, hello };
        int main() { fnptr f = table[1]; return f(); }
        """)
        assert value == 42

    def test_missing_entry_function(self):
        module = build("int helper() { return 0; }")
        vm = VM()
        vm.load(module)
        with pytest.raises(VMError, match="entry"):
            vm.run("main")


class TestTaggedValueFlow:
    def test_tag_survives_struct_storage(self):
        scheme = SGXBoundsScheme()
        src = """
        struct Holder { uint as_int; };
        int main() {
            int *a = (int*)malloc(4 * sizeof(int));
            a[0] = 11;
            struct Holder h;
            h.as_int = (uint)a;          // pointer stored as an integer
            int *back = (int*)h.as_int;  // reloaded and cast back
            return back[0];
        }
        """
        value, _ = run_c(src, scheme=scheme)
        assert value == 11

    def test_tag_survives_and_still_detects_after_laundering(self):
        from repro.errors import BoundsViolation
        src = """
        uint g_slot;
        int main() {
            int *a = (int*)malloc(4 * sizeof(int));
            g_slot = (uint)a;
            int *back = (int*)g_slot;
            return back[4];              // still out of bounds
        }
        """
        with pytest.raises(BoundsViolation):
            run_c(src, scheme=SGXBoundsScheme())
