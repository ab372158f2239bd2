"""SGXBounds scheme tests: detection, casts, arithmetic clamping, libc."""

import pytest

from repro.core import SGXBoundsScheme, extract_p, extract_ub
from repro.errors import BoundsViolation, DoubleFree
from tests.util import run_c


def run_sb(src, **opts):
    kwargs = {}
    for key in ("quantum", "max_instructions"):
        if key in opts:
            kwargs[key] = opts.pop(key)
    scheme = SGXBoundsScheme(**opts)
    value, vm = run_c(src, scheme=scheme, **kwargs)
    return value, vm, scheme


class TestDetection:
    def test_heap_overflow_write(self):
        src = """
        int main() {
            int *a = (int*)malloc(10 * sizeof(int));
            for (int i = 0; i <= 10; i++) a[i] = i;   // off-by-one
            return 0;
        }
        """
        with pytest.raises(BoundsViolation) as err:
            run_sb(src, optimize_hoist=False)
        assert err.value.scheme == "sgxbounds"

    def test_heap_overflow_read(self):
        src = """
        int main() {
            int *a = (int*)malloc(8 * sizeof(int));
            return a[9];
        }
        """
        with pytest.raises(BoundsViolation):
            run_sb(src)

    def test_heap_underflow(self):
        src = """
        int main() {
            int *a = (int*)malloc(8 * sizeof(int));
            int *p = a - 1;
            return *p;
        }
        """
        with pytest.raises(BoundsViolation):
            run_sb(src)

    def test_stack_overflow_detected(self):
        src = """
        int main() {
            int buf[4];
            for (int i = 0; i <= 4; i++) buf[i] = i;
            return 0;
        }
        """
        with pytest.raises(BoundsViolation):
            run_sb(src, optimize_hoist=False)

    def test_global_overflow_detected(self):
        src = """
        int g[4];
        int main() {
            int idx = 6;
            g[idx] = 1;
            return 0;
        }
        """
        with pytest.raises(BoundsViolation):
            run_sb(src)

    def test_adjacent_object_not_corrupted_check_order(self):
        """In-bounds accesses right at the edges pass."""
        src = """
        int main() {
            char *p = (char*)malloc(16);
            p[0] = 1; p[15] = 2;
            int r = p[0] + p[15];
            free(p);
            return r;
        }
        """
        value, _, _ = run_sb(src)
        assert value == 3

    def test_one_past_end_pointer_ok_if_not_dereferenced(self):
        src = """
        int main() {
            int *a = (int*)malloc(4 * sizeof(int));
            int *end = a + 4;    // legal C: one-past-the-end
            int s = 0;
            for (int *p = a; p < end; p++) { *p = 1; s += *p; }
            free(a);
            return s;
        }
        """
        value, _, _ = run_sb(src)
        assert value == 4


class TestCastsAndArithmetic:
    def test_pointer_int_roundtrip_keeps_bounds(self):
        """Paper §3.2: SGXBounds is immune to arbitrary type casts."""
        src = """
        int main() {
            int *a = (int*)malloc(4 * sizeof(int));
            uint as_int = (uint)a;
            int *back = (int*)as_int;
            back[0] = 42;
            return back[0];
        }
        """
        value, _, _ = run_sb(src)
        assert value == 42

    def test_cast_then_overflow_still_detected(self):
        src = """
        int main() {
            int *a = (int*)malloc(4 * sizeof(int));
            uint as_int = (uint)a;
            int *back = (int*)as_int;
            return back[7];
        }
        """
        with pytest.raises(BoundsViolation):
            run_sb(src)

    def test_malicious_arithmetic_cannot_corrupt_tag(self):
        """Adding a value that overflows 32 bits must not change the UB."""
        src = """
        int main() {
            char *p = (char*)malloc(16);
            uint evil = 4294967296;   // 2^32
            char *q = p + evil;       // clamped arithmetic: tag intact
            *q = 1;                   // plain p again (wraps to offset 0)
            return *q;
        }
        """
        value, _, _ = run_sb(src)
        assert value == 1

    def test_negative_index_detected(self):
        src = """
        int take(int *p, int i) { return p[i]; }
        int main() {
            int *a = (int*)malloc(4 * sizeof(int));
            return take(a, -2);
        }
        """
        with pytest.raises(BoundsViolation):
            run_sb(src)


class TestLibcWrappers:
    def test_memcpy_overflow_detected(self):
        src = """
        int main() {
            char *dst = (char*)malloc(8);
            char *src = (char*)malloc(64);
            memcpy(dst, src, 64);
            return 0;
        }
        """
        with pytest.raises(BoundsViolation, match="libc"):
            run_sb(src)

    def test_memcpy_overread_detected(self):
        src = """
        int main() {
            char *dst = (char*)malloc(64);
            char *src = (char*)malloc(8);
            memcpy(dst, src, 64);   // Heartbleed shape: over-read
            return 0;
        }
        """
        with pytest.raises(BoundsViolation, match="libc"):
            run_sb(src)

    def test_strcpy_overflow_detected(self):
        src = """
        int main() {
            char *small = (char*)malloc(4);
            strcpy(small, "much too long for four bytes");
            return 0;
        }
        """
        with pytest.raises(BoundsViolation):
            run_sb(src)

    def test_memset_within_bounds_ok(self):
        src = """
        int main() {
            char *p = (char*)malloc(32);
            memset(p, 7, 32);
            return p[31];
        }
        """
        value, _, _ = run_sb(src)
        assert value == 7


class TestRuntimeMechanics:
    def test_malloc_returns_tagged_pointer(self):
        from repro.sgx import Enclave
        from repro.vm import VM
        scheme = SGXBoundsScheme()
        vm = VM(scheme=scheme)
        tagged = scheme.malloc(vm, 100)
        assert extract_ub(tagged) == extract_p(tagged) + 100
        # LB word sits at UB and holds the base.
        assert vm.space.read_u32(extract_ub(tagged)) == extract_p(tagged)

    def test_free_strips_tag(self):
        from repro.vm import VM
        scheme = SGXBoundsScheme()
        vm = VM(scheme=scheme)
        tagged = scheme.malloc(vm, 50)
        scheme.free(vm, tagged)
        with pytest.raises(DoubleFree):
            vm.enclave.heap.free(extract_p(tagged))

    def test_memory_overhead_is_4_bytes_per_object(self):
        """Paper: 'requires only 4 additional bytes per object'."""
        from repro.vm import VM
        scheme = SGXBoundsScheme()
        vm = VM(scheme=scheme)
        before = scheme.metadata_bytes
        scheme.malloc(vm, 100)
        assert scheme.metadata_bytes - before == 4

    def test_realloc_retags(self):
        src = """
        int main() {
            int *a = (int*)malloc(4 * sizeof(int));
            a[3] = 33;
            a = (int*)realloc(a, 16 * sizeof(int));
            a[15] = 1;           // fine now
            return a[3];
        }
        """
        value, _, _ = run_sb(src)
        assert value == 33

    def test_violation_counter(self):
        src = """
        int main() {
            int *a = (int*)malloc(4 * sizeof(int));
            return a[5];
        }
        """
        scheme = SGXBoundsScheme(boundless=True)
        _, vm = run_c(src, scheme=scheme)
        assert scheme.violations == 1

    def test_checks_elided_metadata(self):
        """Safe-access optimization records elisions in module meta."""
        from tests.util import build
        src = """
        struct P { int a; int b; };
        int main() { struct P p; p.a = 1; p.b = 2; return p.a + p.b; }
        """
        module = build(src, SGXBoundsScheme())
        assert module.meta["checks_elided"] > 0
