"""Property-based tests: MiniC + VM semantics against Python oracles, and
the core end-to-end invariant — instrumentation never changes results."""

from hypothesis import given, settings, strategies as st

from repro.core import SGXBoundsScheme
from repro.minic import compile_source
from tests.util import run_c

M64 = (1 << 64) - 1


def _to_signed(value):
    return value - (1 << 64) if value & (1 << 63) else value


# -- arithmetic expressions ----------------------------------------------------
_INT_OPS = ["+", "-", "*", "&", "|", "^"]


@st.composite
def int_exprs(draw, depth=0):
    """A MiniC integer expression plus its Python value."""
    if depth >= 3 or draw(st.booleans()):
        value = draw(st.integers(min_value=-1000, max_value=1000))
        return (f"({value})", value)
    op = draw(st.sampled_from(_INT_OPS))
    left_src, left_val = draw(int_exprs(depth=depth + 1))
    right_src, right_val = draw(int_exprs(depth=depth + 1))
    table = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "&": lambda a, b: a & b,
        "|": lambda a, b: a | b,
        "^": lambda a, b: a ^ b,
    }
    return (f"({left_src} {op} {right_src})", table[op](left_val, right_val))


class TestExpressionSemantics:
    @given(int_exprs())
    @settings(max_examples=40, deadline=None)
    def test_int_expressions_match_python(self, expr):
        source, expected = expr
        value, _ = run_c(f"int main() {{ return {source}; }}")
        assert _to_signed(value) == ((_to_signed(expected & M64)))

    @given(st.integers(min_value=-999, max_value=999),
           st.integers(min_value=1, max_value=99))
    @settings(max_examples=30, deadline=None)
    def test_division_truncates_toward_zero(self, a, b):
        value, _ = run_c(f"int main() {{ return ({a}) / ({b}); }}")
        assert _to_signed(value) == int(a / b)
        value, _ = run_c(f"int main() {{ return ({a}) % ({b}); }}")
        assert _to_signed(value) == a - int(a / b) * b

    @given(st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=30, deadline=None)
    def test_shifts_match(self, shift, value):
        got, _ = run_c(f"int main() {{ return ((uint){value} << {shift}) "
                       f">> {shift}; }}")
        assert got == ((value << shift) & M64) >> shift


# -- array programs under instrumentation ------------------------------------------
class TestInstrumentationInvariance:
    """For any in-bounds access pattern, SGXBounds must be invisible."""

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                              st.integers(min_value=-100, max_value=100)),
                    min_size=1, max_size=20))
    @settings(max_examples=20, deadline=None)
    def test_store_load_sequences(self, writes):
        body = "\n".join(f"    a[{idx}] = {val};" for idx, val in writes)
        src = f"""
        int main() {{
            int *a = (int*)malloc(16 * sizeof(int));
            for (int i = 0; i < 16; i++) a[i] = 0;
        {body}
            int s = 0;
            for (int i = 0; i < 16; i++) s += a[i] * (i + 1);
            free(a);
            return s;
        }}
        """
        native, _ = run_c(src)
        protected, _ = run_c(src, scheme=SGXBoundsScheme())
        assert native == protected
        # Python oracle.
        cells = [0] * 16
        for idx, val in writes:
            cells[idx] = val
        expected = sum(v * (i + 1) for i, v in enumerate(cells))
        assert _to_signed(native) == expected

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=15, deadline=None)
    def test_malloc_sizes_and_strides(self, count, stride):
        src = f"""
        int main() {{
            char *p = (char*)malloc({count * stride});
            for (int i = 0; i < {count}; i++) p[i * {stride}] = (char)(i + 1);
            int s = 0;
            for (int i = 0; i < {count}; i++) s += p[i * {stride}];
            free(p);
            return s;
        }}
        """
        native, _ = run_c(src)
        for scheme in (SGXBoundsScheme(), SGXBoundsScheme(boundless=True)):
            protected, _ = run_c(src, scheme=scheme)
            assert protected == native
        assert native == sum(range(1, count + 1))

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_boundary_is_exact(self, extra):
        """Access at size-1 always fine; at size+extra always caught."""
        from repro.errors import BoundsViolation
        import pytest
        size = 16
        ok_src = f"""
        int main() {{
            char *p = (char*)malloc({size});
            p[{size - 1}] = 1;
            return p[{size - 1}];
        }}
        """
        value, _ = run_c(ok_src, scheme=SGXBoundsScheme())
        assert value == 1
        bad_src = f"""
        int main() {{
            char *p = (char*)malloc({size});
            p[{size + extra}] = 1;
            return 0;
        }}
        """
        with pytest.raises(BoundsViolation):
            run_c(bad_src, scheme=SGXBoundsScheme())
