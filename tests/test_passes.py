"""Unit tests for the optimization + instrumentation passes."""

import pytest

from repro.core import SGXBoundsScheme
from repro.errors import BoundsViolation
from repro.ir import ops, verify_module
from repro.minic import compile_source
from repro.passes.loop_hoist import run_loop_hoist
from repro.passes.safe_access import run_safe_access
from tests.util import build, run_c


def _count(module, predicate):
    return sum(1 for fn in module.functions.values()
               for blk in fn.blocks for ins in blk.instrs if predicate(ins))


class TestSafeAccess:
    def test_struct_fields_marked_safe(self):
        src = """
        struct P { int a; int b; };
        int main() { struct P p; p.a = 1; p.b = 2; return p.a + p.b; }
        """
        module = compile_source(src)
        marked = run_safe_access(module)
        assert marked > 0
        accesses = [ins for fn in module.functions.values()
                    for blk in fn.blocks for ins in blk.instrs
                    if ins.op in (ops.LOAD, ops.STORE)]
        assert all(ins.safe for ins in accesses)

    def test_constant_array_index_safe(self):
        src = "int main() { int a[4]; a[3] = 7; return a[3]; }"
        module = compile_source(src)
        run_safe_access(module)
        stores = [ins for fn in module.functions.values()
                  for blk in fn.blocks for ins in blk.instrs
                  if ins.op == ops.STORE]
        assert all(ins.safe for ins in stores)

    def test_out_of_bounds_constant_not_safe(self):
        src = "int main() { int a[4]; int *p = a; p[6] = 7; return 0; }"
        module = compile_source(src)
        run_safe_access(module)
        stores = [ins for fn in module.functions.values()
                  for blk in fn.blocks for ins in blk.instrs
                  if ins.op == ops.STORE and ins.size == 8]
        assert not any(ins.safe for ins in stores)

    def test_dynamic_index_not_safe(self):
        src = "int main() { int a[4]; int i = 2; a[i] = 1; return a[i]; }"
        module = compile_source(src)
        marked = run_safe_access(module)
        dynamic = [ins for fn in module.functions.values()
                   for blk in fn.blocks for ins in blk.instrs
                   if ins.op in (ops.LOAD, ops.STORE) and ins.size == 8
                   and ins.b is not None]
        # The a[i] accesses (register index) must stay unsafe.
        stores = [ins for fn in module.functions.values()
                  for blk in fn.blocks for ins in blk.instrs
                  if ins.op == ops.STORE and ins.size == 8]
        assert not all(ins.safe for ins in stores)

    def test_global_constant_offset_safe(self):
        src = "int g[8]; int main() { g[5] = 3; return g[5]; }"
        module = compile_source(src)
        marked = run_safe_access(module)
        assert marked > 0

    def test_soundness_under_instrumentation(self):
        """Safe-marked programs still catch real overflows elsewhere."""
        src = """
        struct P { int a; int b; };
        int main() {
            struct P p; p.a = 1;          // safe, elided
            int *h = (int*)malloc(16);
            int i = 4;
            h[i] = 2;                     // unsafe, must be caught
            return 0;
        }
        """
        scheme = SGXBoundsScheme()
        with pytest.raises(BoundsViolation):
            run_c(src, scheme=scheme)


class TestLoopHoist:
    SIMPLE = """
    int sum(int *a, int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += a[i];
        return s;
    }
    int main() {
        int *a = (int*)malloc(8 * sizeof(int));
        for (int i = 0; i < 8; i++) a[i] = i;
        return sum(a, 8);
    }
    """

    def test_hoists_canonical_loop(self):
        module = compile_source(self.SIMPLE)
        hoisted = run_loop_hoist(module)
        assert hoisted >= 2
        assert module.meta["hoisted_accesses"] >= 2

    def test_hoisted_module_still_correct(self):
        value, _ = run_c(self.SIMPLE, scheme=SGXBoundsScheme())
        assert value == sum(range(8))

    def test_hoisted_check_catches_bad_bound(self):
        bad = self.SIMPLE.replace("return sum(a, 8);", "return sum(a, 9);")
        with pytest.raises(BoundsViolation):
            run_c(bad, scheme=SGXBoundsScheme())

    def test_global_array_base_hoisted(self):
        src = """
        int g[16];
        int main() {
            int s = 0;
            for (int i = 0; i < 16; i++) g[i] = i;
            for (int i = 0; i < 16; i++) s += g[i];
            return s;
        }
        """
        module = compile_source(src)
        assert run_loop_hoist(module) >= 2

    def test_downward_loop_not_hoisted(self):
        src = """
        int main() {
            int a[8];
            for (int i = 7; i >= 0; i--) a[i] = i;  // decrement: skip
            return a[0];
        }
        """
        module = compile_source(src)
        assert run_loop_hoist(module) == 0

    def test_non_invariant_bound_not_hoisted(self):
        src = """
        int main() {
            int a[8];
            int n = 1;
            for (int i = 0; i < n; i++) { a[i] = i; n = n + 0; }
            return a[0];
        }
        """
        module = compile_source(src)
        assert run_loop_hoist(module) == 0

    def test_large_stride_not_hoisted(self):
        src = """
        struct Big { char pad[2048]; };
        int main() {
            struct Big *a = (struct Big*)malloc(4 * sizeof(struct Big));
            for (int i = 0; i < 4; i++) a[i].pad[0] = 1;
            return 0;
        }
        """
        module = compile_source(src)
        assert run_loop_hoist(module) == 0

    def test_disabled_under_boundless(self):
        scheme = SGXBoundsScheme(boundless=True)
        assert not scheme.optimize_hoist


_SHARED_SRC = """
struct P { int a; int b; };
int g[8];
int main() {
    struct P p; p.a = 1; p.b = 2;
    g[3] = p.a;
    int *h = (int*)malloc(16);
    h[1] = g[3] + p.b;
    return h[1];
}
"""


def _instrumenting_schemes(**kwargs):
    from repro.asan import ASanScheme
    from repro.baggy import BaggyScheme
    from repro.mpx import MPXScheme
    return (SGXBoundsScheme(**kwargs), ASanScheme(**kwargs),
            MPXScheme(**kwargs), BaggyScheme(**kwargs))


@pytest.fixture
def analyses(monkeypatch):
    """The modules the safe-access analysis runs on, in order."""
    from repro.passes import safe_access
    seen = []
    real = safe_access.run_safe_access

    def counted(module):
        seen.append(module)
        return real(module)

    monkeypatch.setattr(safe_access, "run_safe_access", counted)
    return seen


class TestSharedSafeAccess:
    def test_one_analysis_for_every_scheme(self, analyses):
        from repro.ir import print_module
        module = compile_source(_SHARED_SRC)
        images = [scheme.instrument(module)
                  for scheme in _instrumenting_schemes()]
        assert len(analyses) == 1
        # Each reused result marks what a fresh analysis would.
        for scheme, image in zip(_instrumenting_schemes(), images):
            fresh = scheme.instrument(compile_source(_SHARED_SRC))
            assert print_module(image) == print_module(fresh), scheme.name
        assert _count(images[0], lambda ins: ins.safe) > 0

    def test_added_function_reanalyses(self, analyses):
        module = compile_source(_SHARED_SRC)
        SGXBoundsScheme().instrument(module)
        extra = compile_source("int f() { int a[2]; a[1] = 3; return a[1]; }")
        module.add_function(extra.functions["f"])
        image = SGXBoundsScheme().instrument(module)
        assert len(analyses) == 2
        assert _count(image, lambda ins: ins.safe and ins.op == ops.STORE) \
            > 0

    def test_edited_instruction_list_reanalyses(self, analyses):
        from repro.ir.instructions import Instr
        module = compile_source(_SHARED_SRC)
        blk = module.functions["main"].blocks[0]
        SGXBoundsScheme().instrument(module)
        blk.instrs.insert(0, Instr(ops.NOP))
        SGXBoundsScheme().instrument(module)
        assert len(analyses) == 2
        blk.instrs[1] = blk.instrs[1].copy()
        SGXBoundsScheme().instrument(module)
        assert len(analyses) == 3
        SGXBoundsScheme().instrument(module)
        assert len(analyses) == 3

    def test_unoptimized_builds_carry_no_safe_marks(self, analyses):
        module = compile_source(_SHARED_SRC)
        SGXBoundsScheme().instrument(module)    # leaves a shared result
        for scheme in _instrumenting_schemes(optimize_safe=False):
            clone = scheme.clone_for_passes(module)
            assert _count(clone, lambda ins: ins.safe) == 0, scheme.name
        image = SGXBoundsScheme(optimize_safe=False,
                                optimize_hoist=False).instrument(module)
        assert image.meta["checks_elided"] == 0
        assert len(analyses) == 1


class TestInstrumentationStructure:
    def test_sgxbounds_inserts_checks(self):
        src = "int main() { int *p = (int*)malloc(8); p[0] = 1; return p[0]; }"
        module = build(src, SGXBoundsScheme(optimize_safe=False,
                                            optimize_hoist=False))
        assert module.meta["scheme"] == "sgxbounds"
        assert module.meta["checks_inserted"] >= 2

    def test_instrumented_modules_verify(self):
        from repro.asan import ASanScheme
        from repro.mpx import MPXScheme
        src = """
        struct N { int v; struct N *n; };
        int main() {
            struct N *h = (struct N*)malloc(sizeof(struct N));
            h->v = 1; h->n = h;
            int a[4];
            for (int i = 0; i < 4; i++) a[i] = h->v;
            return a[3];
        }
        """
        for scheme in (SGXBoundsScheme(), ASanScheme(), MPXScheme()):
            module = compile_source(src)
            instrumented = scheme.instrument(module)
            verify_module(instrumented)   # must stay well-formed

    def test_instrumentation_does_not_mutate_original(self):
        src = "int main() { int a[4]; a[0] = 1; return a[0]; }"
        module = compile_source(src)
        before = module.stats()["instructions"]
        SGXBoundsScheme().instrument(module)
        assert module.stats()["instructions"] == before

    def test_idempotent_results_across_schemes(self):
        from repro.asan import ASanScheme
        from repro.mpx import MPXScheme
        src = """
        int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
        int main() {
            int *memo = (int*)malloc(16 * sizeof(int));
            for (int i = 0; i < 16; i++) memo[i] = fib(i % 12);
            int s = 0;
            for (int i = 0; i < 16; i++) s += memo[i];
            free(memo);
            return s;
        }
        """
        expected, _ = run_c(src)
        for scheme in (SGXBoundsScheme(), ASanScheme(), MPXScheme(),
                       SGXBoundsScheme(boundless=True)):
            value, _ = run_c(src, scheme=scheme)
            assert value == expected, scheme.name
