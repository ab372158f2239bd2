"""Edge-path coverage for superinstruction fusion.

The committed expectations (test_vm_differential.py) pin behaviour in
bulk; this file diffs fused dispatch against plain, one-handler-per-
instruction dispatch (the ``unfused`` fixture) at the places where
fusion could plausibly diverge:

* atomics (ATOMICRMW/CMPXCHG) on scheme-tagged pointers — the handler
  must strip tags with ``& M32``;
* traps raised *inside* fused handlers (division by zero mid-chain,
  bounds violations inside gep+load fusion) — counters at the moment of
  the exception must match plain dispatch instruction for instruction;
* blocking natives (mutex_lock/join returning BLOCK_RETRY) resuming at
  a call that sits mid-basic-block, across tiny scheduler quanta that
  force the unfused tail loop;
* hoisted preheader checks (passes/loop_hoist.py) interacting with
  bnd/gep fusion;
* the per-function code cache: reuse while identity holds, re-predecode
  when ``fn.code`` is replaced, and fusion-site accounting.
"""

from __future__ import annotations

import contextlib

import pytest

from repro.core import SGXBoundsScheme
from repro.errors import BoundsViolation, TrapError
from repro.ir import Function, IRBuilder, Module
from repro.mpx import MPXScheme
from repro.vm import VM
from repro.vm.fastpath import FUSE_MAX, compile_function

from tests.util import build, run_c, unfused  # noqa: F401  (fixture)


def _counters(vm):
    return vm.enclave.finalize().snapshot()


def _run_pair(unfused, source, make_scheme=lambda: None, **vm_kwargs):
    """Run one MiniC program unfused and fused; return the two VMs
    (``make_scheme`` builds a fresh scheme per run — scheme runtimes
    accumulate violation state)."""
    with unfused():
        plain_result, plain_vm = run_c(source, make_scheme(), **vm_kwargs)
    fused_result, fused_vm = run_c(source, make_scheme(), **vm_kwargs)
    assert fused_result == plain_result
    assert fused_vm.output() == plain_vm.output()
    assert _counters(fused_vm) == _counters(plain_vm)
    return plain_vm, fused_vm


def _both(unfused):
    """``(fused, scope)`` pairs: plain dispatch first, then fused."""
    return ((False, unfused()), (True, contextlib.nullcontext()))


# ---------------------------------------------------------------------------
# Atomics on tagged pointers
# ---------------------------------------------------------------------------

def _atomics_module() -> Module:
    """Hand-built IR: MiniC has no atomic surface, so emit it directly."""
    module = Module("atomics")
    fn = Function("main", [])
    b = IRBuilder(fn, fn.block("entry"))
    p = b.call("malloc", [b.k(32)])
    b.store(b.k(100), p, size=8)
    old1 = b.atomicrmw("add", p, b.k(7), size=8)
    old2 = b.atomicrmw("sub", p, b.k(3), size=8)
    old3 = b.atomicrmw("xchg", p, b.k(41), size=8)
    hit = b.cmpxchg(p, b.k(41), b.k(1000), size=8)   # matches -> swaps
    miss = b.cmpxchg(p, b.k(5), b.k(2), size=8)      # stale -> no swap
    q = b.gep(p, b.k(1), scale=4, offset=8)          # 4-byte lane
    narrow = b.atomicrmw("add", q, b.k(9), size=4)
    final = b.load(p, size=8)
    acc = b.add(old1, old2)
    for term in (old3, hit, miss, narrow, final):
        acc = b.add(acc, term)
    b.call("free", [p], want_result=False)
    b.ret(acc)
    module.add_function(fn)
    return module


@pytest.mark.parametrize("scheme_cls", [None, SGXBoundsScheme, MPXScheme])
def test_atomics_identity(scheme_cls, unfused):
    results = {}
    for fused, scope in _both(unfused):
        scheme = scheme_cls() if scheme_cls else None
        module = _atomics_module()
        module = scheme.instrument(module) if scheme else module.clone()
        module.finalize()
        with scope:
            vm = VM(scheme=scheme)
            vm.load(module)
            results[fused] = (vm.run("main", ()), _counters(vm))
    assert results[True] == results[False]
    # 100+107+104+41+1000+0+1000 sanity-checks the atomic semantics
    # themselves, not just interpreter agreement.
    assert results[True][0] == 2352


# ---------------------------------------------------------------------------
# Traps inside fused handlers
# ---------------------------------------------------------------------------

def test_divide_by_zero_mid_chain(unfused):
    """The LOAD feeding the DIV and the DIV itself sit in one fused
    chain; the trap must surface with the counters of plain dispatch."""
    src = """
    int z;
    int main() {
        int a = 3;
        int b = a + 4;
        return b / z;      // z == 0 at runtime, never constant-folded
    }
    """
    refs = {}
    for fused, scope in _both(unfused):
        module = build(src)
        with scope:
            vm = VM()
            vm.load(module)
            with pytest.raises(TrapError):
                vm.run("main", ())
        refs[fused] = _counters(vm)
    assert refs[True] == refs[False]


def test_violation_inside_gep_load_fusion(unfused):
    src = """
    int main() {
        int *p = (int*)malloc(16);
        int i = 2;
        i = i * 4;                 // i == 8: one past the last element
        return p[i];
    }
    """
    contexts = {}
    for fused, scope in _both(unfused):
        scheme = SGXBoundsScheme()
        module = build(src, scheme)
        with scope:
            vm = VM(scheme=scheme)
            vm.load(module)
            with pytest.raises(BoundsViolation) as err:
                vm.run("main", ())
        contexts[fused] = (err.value.context(), _counters(vm))
    assert contexts[True] == contexts[False]


# ---------------------------------------------------------------------------
# Blocking natives and slice boundaries
# ---------------------------------------------------------------------------

_CONTENTION_SRC = """
int lock[1];
int counter;
int worker(int n) {
    for (int i = 0; i < n; i++) {
        mutex_lock(lock);
        counter = counter + 1;
        mutex_unlock(lock);
    }
    return counter;
}
int main() {
    int a = spawn(worker, 25);
    int b = spawn(worker, 25);
    int c = spawn(worker, 25);
    int r = join(a) + join(b) + join(c);
    return counter * 1000 + (r & 511);
}
"""


@pytest.mark.parametrize("quantum", [1, 2, 3, 7, 64])
def test_block_retry_resume_identity(quantum, unfused):
    """mutex_lock/join return BLOCK_RETRY and the thread later resumes
    at a CALL that sits mid-basic-block.  Tiny quanta additionally force
    fused dispatch into its unfused tail loop (quantum < FUSE_MAX) on
    almost every slice; scheduling order must still match exactly."""
    _run_pair(unfused, _CONTENTION_SRC, quantum=quantum)


def test_tail_loop_matches_reference_under_scheme(unfused):
    _run_pair(unfused, _CONTENTION_SRC, make_scheme=SGXBoundsScheme,
              quantum=2)


# ---------------------------------------------------------------------------
# Hoisted preheader checks under fusion
# ---------------------------------------------------------------------------

_HOIST_SRC = """
int main() {
    int *a = (int*)malloc(64 * sizeof(int));
    int sum = 0;
    for (int i = 0; i < 64; i++) a[i] = i;
    for (int i = 0; i < 64; i++) sum += a[i];
    free(a);
    return sum & 4095;
}
"""


def test_hoisted_checks_identity(unfused):
    """loop_hoist replaces per-iteration checks with one preheader check
    whose bnd/gep sequence is itself fusion bait; both configurations
    must match plain dispatch, and hoisting must demonstrably have
    fired (fewer bounds checks) so the test exercises what it claims."""
    executed = {}
    for hoist in (False, True):
        make = lambda h=hoist: SGXBoundsScheme(optimize_hoist=h)
        plain_vm, fused_vm = _run_pair(unfused, _HOIST_SRC,
                                       make_scheme=make)
        executed[hoist] = _counters(fused_vm)["instructions"]
    # Hoisting must demonstrably have fired: dropping 2 x 64 in-loop
    # clamp sequences shows up directly in the instruction count.
    assert executed[True] < executed[False]


# ---------------------------------------------------------------------------
# Predecode cache and fusion accounting
# ---------------------------------------------------------------------------

def test_fastcode_cached_and_invalidated():
    module = build("int main() { return 40 + 2; }")
    vm = VM()
    program = vm.load(module)
    fn = module.functions["main"]
    fc1 = program.fast_for(fn, vm)
    assert program.fast_for(fn, vm) is fc1          # cache hit
    fn.code = list(fn.code)                          # identity change
    fc2 = program.fast_for(fn, vm)
    assert fc2 is not fc1                            # re-predecoded
    assert program.fast_for(fn, vm) is fc2


def test_fusion_sites_recorded():
    scheme = SGXBoundsScheme()
    module = build(_HOIST_SRC, scheme)
    vm = VM(scheme=scheme)
    vm.load(module)
    fn = module.functions["main"]
    fc = compile_function(vm, fn, fn.consts)
    assert sum(fc.fusion_sites.values()) > 0
    assert fc.fusion_sites.get("cmp_br", 0) > 0      # loop back-edges
    # Fused sites really carry their advertised cost, and no site ever
    # exceeds the dispatch loop's quantum guard.
    assert any(c > 1 for c in fc.costs)
    assert max(fc.costs) <= FUSE_MAX


def test_calls_never_fused():
    """BLOCK_RETRY re-executes the CALL by index: every CALL must keep a
    cost-1 unfused handler even when surrounded by straight-line code."""
    from repro.ir import ops
    module = build("""
    int f(int x) { return x + 1; }
    int main() {
        int a = 1;
        int b = a + 2;
        int c = f(b);
        int d = c + 3;
        return d;
    }
    """)
    vm = VM()
    vm.load(module)
    fn = module.functions["main"]
    fc = compile_function(vm, fn, fn.consts)
    for i, ins in enumerate(fn.code):
        if ins.op == ops.CALL:
            assert fc.costs[i] == 1
            assert fc.handlers[i] is fc.plain[i]
