"""Execution tests: MiniC programs compiled and run on the VM (no scheme)."""

import pytest

from repro.errors import SegmentationFault, TrapError, VMError
from tests.util import run_c


def result_of(source, **kw):
    value, _ = run_c(source, **kw)
    if value & (1 << 63):
        value -= 1 << 64
    return value


class TestArithmetic:
    def test_integer_ops(self):
        src = "int main() { return (7 * 6 - 2) / 4 % 8; }"
        assert result_of(src) == ((7 * 6 - 2) // 4) % 8

    def test_negative_division_truncates_toward_zero(self):
        assert result_of("int main() { return -7 / 2; }") == -3
        assert result_of("int main() { return -7 % 2; }") == -1

    def test_unsigned_vs_signed_compare(self):
        assert result_of("int main() { int a = -1; return a < 0; }") == 1
        assert result_of(
            "int main() { uint a = (uint)-1; return a > 100; }") == 1

    def test_shifts(self):
        assert result_of("int main() { return (1 << 10) >> 3; }") == 128
        assert result_of("int main() { int a = -8; return a >> 1; }") == -4

    def test_bitwise(self):
        assert result_of("int main() { return (0xF0 | 0x0C) & ~0x03; }") == 0xFC

    def test_division_by_zero_traps(self):
        with pytest.raises(TrapError):
            run_c("int main() { int z = 0; return 5 / z; }")

    def test_doubles(self):
        src = """
        int main() {
            double a = 1.5; double b = 2.25;
            double c = a * b + 0.75;
            return (int)(c * 100.0);
        }
        """
        assert result_of(src) == int((1.5 * 2.25 + 0.75) * 100)

    def test_nan_and_inf_to_int_give_integer_indefinite(self):
        """Like x86's cvttsd2si, (int) of NaN or +-inf is 2**63 (as a
        signed 64-bit int, its minimum), not a Python exception."""
        src = """
        int main() {
            double z = 0.0;
            double i = 1.0 / z;
            int x = (int)(i - i);
            if (x != (int)i || x != (int)(-i)) return 1;
            return x;
        }
        """
        assert result_of(src) == -(1 << 63)

    def test_int_double_mixing(self):
        assert result_of("int main() { return (int)(3 / 2.0 * 100.0); }") == 150

    def test_char_sign_extension(self):
        src = "int main() { char c = (char)200; return c < 0; }"
        assert result_of(src) == 1


class TestControlFlow:
    def test_nested_loops(self):
        src = """
        int main() {
            int s = 0;
            for (int i = 0; i < 10; i++)
                for (int j = 0; j < i; j++)
                    s += j;
            return s;
        }
        """
        assert result_of(src) == sum(j for i in range(10) for j in range(i))

    def test_break_continue(self):
        src = """
        int main() {
            int s = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2 == 0) continue;
                if (i > 10) break;
                s += i;
            }
            return s;
        }
        """
        assert result_of(src) == 1 + 3 + 5 + 7 + 9

    def test_do_while(self):
        src = "int main() { int i = 0; do { i++; } while (i < 5); return i; }"
        assert result_of(src) == 5

    def test_short_circuit_no_side_effect(self):
        src = """
        int g = 0;
        int bump() { g = g + 1; return 1; }
        int main() { int x = 0; if (x && bump()) {} if (x || bump()) {} return g; }
        """
        assert result_of(src) == 1

    def test_recursion(self):
        src = """
        int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
        int main() { return fib(15); }
        """
        assert result_of(src) == 610

    def test_mutual_recursion(self):
        src = """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
        int main() { return is_even(10) * 10 + is_odd(7); }
        """
        # Forward declarations are not supported; use a single direction.
        src = """
        int is_even(int n) { if (n == 0) return 1; if (n == 1) return 0; return is_even(n - 2); }
        int main() { return is_even(10) * 10 + is_even(7); }
        """
        assert result_of(src) == 10


class TestPointersAndMemory:
    def test_pointer_swap(self):
        src = """
        void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
        int main() { int x = 3; int y = 9; swap(&x, &y); return x * 10 + y; }
        """
        assert result_of(src) == 93

    def test_pointer_arithmetic_scaling(self):
        src = """
        int main() {
            int arr[4] = {10, 20, 30, 40};
            int *p = arr;
            p = p + 2;
            return *p + *(p - 1);
        }
        """
        assert result_of(src) == 50

    def test_pointer_difference(self):
        src = """
        int main() { int arr[10]; int *a = &arr[1]; int *b = &arr[7]; return b - a; }
        """
        assert result_of(src) == 6

    def test_struct_access_and_nesting(self):
        src = """
        struct Inner { int v; };
        struct Outer { struct Inner in; int pad; };
        int main() {
            struct Outer o;
            o.in.v = 17;
            struct Outer *p = &o;
            return p->in.v;
        }
        """
        assert result_of(src) == 17

    def test_linked_list(self):
        src = """
        struct Node { int v; struct Node *next; };
        int main() {
            struct Node *head = (struct Node*)0;
            for (int i = 1; i <= 5; i++) {
                struct Node *n = (struct Node*)malloc(sizeof(struct Node));
                n->v = i; n->next = head; head = n;
            }
            int s = 0;
            while (head) { s = s * 10 + head->v; head = head->next; }
            return s;
        }
        """
        assert result_of(src) == 54321

    def test_2d_array(self):
        src = """
        int main() {
            int m[3][4];
            for (int i = 0; i < 3; i++)
                for (int j = 0; j < 4; j++)
                    m[i][j] = i * 4 + j;
            return m[2][3];
        }
        """
        assert result_of(src) == 11

    def test_global_initializers_and_relocs(self):
        src = """
        int table[4] = {5, 6, 7};
        char *name = "abc";
        int main() { return table[1] + strlen(name) + table[3]; }
        """
        assert result_of(src) == 6 + 3 + 0

    def test_null_deref_faults(self):
        with pytest.raises(SegmentationFault):
            run_c("int main() { int *p = (int*)0; return *p; }")

    def test_function_pointers(self):
        src = """
        int twice(int x) { return 2 * x; }
        int thrice(int x) { return 3 * x; }
        int main() {
            fnptr f = twice;
            int a = f(10);
            f = thrice;
            return a + f(10);
        }
        """
        assert result_of(src) == 50

    def test_string_builtins(self):
        src = """
        int main() {
            char buf[32];
            strcpy(buf, "abc");
            strcat(buf, "def");
            if (strcmp(buf, "abcdef") != 0) return 1;
            if (strncmp(buf, "abcxxx", 3) != 0) return 2;
            if (strlen(buf) != 6) return 3;
            char *p = strchr(buf, 'd');
            if (*p != 'd') return 4;
            return 0;
        }
        """
        assert result_of(src) == 0

    def test_memcpy_memset_memcmp(self):
        src = """
        int main() {
            char a[16]; char b[16];
            memset(a, 7, 16);
            memcpy(b, a, 16);
            return memcmp(a, b, 16);
        }
        """
        assert result_of(src) == 0

    def test_printf_output(self):
        _, vm = run_c('int main() { printf("x=%d s=%s %c %x\\n", 42, "hi", 65, 255); return 0; }')
        assert vm.output() == "x=42 s=hi A ff\n"


class TestRuntimeLimits:
    def test_infinite_loop_hits_budget(self):
        with pytest.raises(VMError, match="budget"):
            run_c("int main() { while (1) {} return 0; }",
                  max_instructions=10_000)

    def test_stack_overflow_detected(self):
        src = """
        int deep(int n) { int pad[64]; pad[0] = n; return deep(n + pad[0]); }
        int main() { return deep(1); }
        """
        with pytest.raises(SegmentationFault, match="stack overflow"):
            run_c(src)

    def test_exit_builtin(self):
        value, _ = run_c("int main() { exit(7); return 1; }")
        assert value == 7

    def test_abort_builtin(self):
        with pytest.raises(TrapError):
            run_c("int main() { abort(); return 0; }")
