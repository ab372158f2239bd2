"""Edge-path coverage for compiled blocks.

The committed expectations (test_vm_differential.py) pin behaviour in
bulk; this file diffs compiled blocks against plain,
one-handler-per-instruction dispatch (the ``unfused`` fixture) at the
places where they could plausibly diverge, mostly under the
``eager_blocks`` fixture so that nearly every block a test enters twice
runs compiled:

* atomics (ATOMICRMW/CMPXCHG) on scheme-tagged pointers — the handler
  must strip tags with ``& M32``;
* traps raised *inside* a compiled block (division by zero, a faulting
  load, bounds violations) — counters and registers at the moment of
  the exception must match plain dispatch instruction for instruction;
* blocking natives (mutex_lock/join returning BLOCK_RETRY) resuming at
  a call that sits mid-basic-block, across tiny scheduler quanta that
  force the plain tail loop;
* slice boundaries: a block is entered only when it fits in the
  remaining quantum, so racy thread interleavings match plain dispatch;
* MPX bounds propagating through GEP/MOV inside a compiled block;
* hoisted preheader checks (passes/loop_hoist.py) inside compiled
  blocks;
* the per-function code cache: reuse while identity holds, re-predecode
  when ``fn.code`` is replaced, the shape predecode leaves, lazy block
  compilation, and compiled blocks surviving a fleet worker's restarts;
* block code shared by source text among live VMs, and freed with the
  last of them.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import weakref

import pytest

from repro.core import SGXBoundsScheme
from repro.errors import BoundsViolation, SegmentationFault, TrapError
from repro.forensics import Forensics
from repro.ir import Function, IRBuilder, Module
from repro.mpx import MPXScheme
from repro.vm import VM, fastpath
from repro.vm.fastpath import compile_function

from tests.util import (build, eager_blocks, run_c,  # noqa: F401  (fixtures)
                        unfused)


def _counters(vm):
    return vm.enclave.finalize().snapshot()


def _run_pair(unfused, scope, source, make_scheme=lambda: None,
              **vm_kwargs):
    """Run one MiniC program on plain handlers and then inside
    ``scope``; return the two VMs (``make_scheme`` builds a fresh scheme
    per run — scheme runtimes accumulate violation state)."""
    with unfused():
        plain_result, plain_vm = run_c(source, make_scheme(), **vm_kwargs)
    with scope:
        block_result, block_vm = run_c(source, make_scheme(), **vm_kwargs)
    assert block_result == plain_result
    assert block_vm.output() == plain_vm.output()
    assert _counters(block_vm) == _counters(plain_vm)
    return plain_vm, block_vm


def _both(unfused, eager_blocks):
    """``(blocks, scope)`` pairs: plain dispatch first, then every block
    compiled on its first entry."""
    return ((False, unfused()), (True, eager_blocks()))


# ---------------------------------------------------------------------------
# Atomics on tagged pointers
# ---------------------------------------------------------------------------

def _atomics_module() -> Module:
    """Hand-built IR: MiniC has no atomic surface, so emit it directly.
    ``main`` runs the atomics twice, so the second run goes through the
    block compiled on the first."""
    module = Module("atomics")
    fn = Function("atomics", [])
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
    main = Function("main", [])
    b = IRBuilder(main, main.block("entry"))
    b.ret(b.add(b.call("atomics", []), b.call("atomics", [])))
    module.add_function(main)
    return module


@pytest.mark.parametrize("scheme_cls", [None, SGXBoundsScheme, MPXScheme])
def test_atomics_identity(scheme_cls, unfused, eager_blocks):
    results = {}
    for blocks, scope in _both(unfused, eager_blocks):
        scheme = scheme_cls() if scheme_cls else None
        module = _atomics_module()
        module = scheme.instrument(module) if scheme else module.clone()
        module.finalize()
        with scope:
            vm = VM(scheme=scheme)
            vm.load(module)
            results[blocks] = (vm.run("main", ()), _counters(vm))
    assert results[True] == results[False]
    # 100+107+104+41+1000+0+1000 per run sanity-checks the atomic
    # semantics themselves, not just interpreter agreement.  The second
    # run's malloc reuses the chunk the first one freed, so its 4-byte
    # lane starts at 9 instead of 0.
    assert results[True][0] == 2352 + 2361


# ---------------------------------------------------------------------------
# Traps inside compiled blocks
# ---------------------------------------------------------------------------

def _crash_state(src, exc, scope, make_scheme=lambda: None):
    """Run ``src`` until it raises ``exc``; return the exception context,
    the counters and the registers of every frame at that moment."""
    scheme = make_scheme()
    module = build(src, scheme)
    with scope:
        vm = VM(scheme=scheme)
        vm.load(module)
        with pytest.raises(exc) as err:
            vm.run("main", ())
    frames = [(f.fn.name, f.pc, list(f.regs),
               dict(f.bounds) if f.bounds is not None else None)
              for t in vm.threads for f in t.frames]
    context = err.value.context() if hasattr(err.value, "context") \
        else str(err.value)
    return context, _counters(vm), frames


def _crash_matches_plain(src, exc, unfused, eager_blocks,
                         make_scheme=lambda: None):
    plain = _crash_state(src, exc, unfused(), make_scheme)
    assert _crash_state(src, exc, eager_blocks(), make_scheme) == plain
    assert _crash_state(src, exc, contextlib.nullcontext(),
                        make_scheme) == plain


def test_divide_by_zero_mid_block(unfused, eager_blocks):
    """The third loop iteration divides by zero inside the loop body's
    compiled block (compiled on the first entry, run from the second);
    the trap must surface with the counters and registers of plain
    dispatch."""
    _crash_matches_plain("""
    int z[4];
    int main() {
        int s = 0;
        z[0] = 1; z[1] = 2; z[2] = 0; z[3] = 4;
        for (int i = 0; i < 4; i++) {
            int a = i + 3;
            int b = a * 7;
            s = s + b / z[i];
        }
        return s;
    }
    """, TrapError, unfused, eager_blocks)


def test_faulting_load_mid_block(unfused, eager_blocks):
    """A load that faults inside a compiled block, after arithmetic whose
    instruction counts are still pending in the block."""
    _crash_matches_plain("""
    int idx[4];
    int main() {
        int *p = (int*)malloc(64);
        int s = 0;
        idx[0] = 0; idx[1] = 1; idx[2] = 2; idx[3] = 100000000;
        for (int i = 0; i < 4; i++) {
            int a = i * 5;
            int b = a + 9;
            s = s + b + p[idx[i]];
        }
        return s;
    }
    """, SegmentationFault, unfused, eager_blocks)


def test_mpx_bounds_propagate_inside_block(unfused, eager_blocks):
    """``q = p + i; r = q`` copies p's bounds through a GEP and a MOV in
    the loop body's compiled block; the BNDCU on ``r`` must then catch
    the overflow at i == 8, exactly as plain dispatch does."""
    _crash_matches_plain("""
    int main() {
        int *p = (int*)malloc(8 * sizeof(int));
        int s = 0;
        for (int i = 0; i < 12; i++) {
            int *q = p + i;
            int *r = q;
            s = s + *r;
        }
        return s;
    }
    """, BoundsViolation, unfused, eager_blocks, make_scheme=MPXScheme)


def test_violation_inside_gep_load_block(unfused, eager_blocks):
    """Each pass reads, through the GEP+LOAD of the loop body's compiled
    block, a heap page nothing has touched yet, and the fifth pass reads
    one past the end.  The flight recorder stamps every EPC fault with
    the instruction count at the access, so it sees a block that has not
    charged its pending instructions before a load."""
    src = """
    int main() {
        int *p = (int*)malloc(4 * 4096);
        int s = 0;
        for (int i = 0; i < 5; i++)
            s = s + p[i * 1024];   // i == 4: one past the last element
        return s;
    }
    """
    contexts = {}
    for blocks, scope in _both(unfused, eager_blocks):
        scheme = SGXBoundsScheme()
        module = build(src, scheme)
        forensics = Forensics()
        with scope:
            vm = VM(scheme=scheme, forensics=forensics)
            vm.load(module)
            with pytest.raises(BoundsViolation) as err:
                vm.run("main", ())
        contexts[blocks] = (err.value.context(), _counters(vm),
                            forensics.recorder.to_jsonl())
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
def test_block_retry_resume_identity(quantum, unfused, eager_blocks):
    """mutex_lock/join return BLOCK_RETRY and the thread later resumes
    at a CALL that sits mid-basic-block.  Tiny quanta additionally force
    the dispatch loop past compiled blocks into its plain tail loop on
    almost every slice; scheduling order must still match exactly."""
    _run_pair(unfused, eager_blocks(), _CONTENTION_SRC, quantum=quantum)


def test_tail_loop_matches_reference_under_scheme(unfused, eager_blocks):
    _run_pair(unfused, eager_blocks(), _CONTENTION_SRC,
              make_scheme=SGXBoundsScheme, quantum=2)


#: Three threads race on ``pos`` without a lock, so the log they leave
#: (and the exit value hashing it) records exactly where every slice
#: ended.  The loop body is one long basic block.
_RACE_SRC = """
int log[512];
int pos;
int worker(int tid) {
    for (int i = 0; i < 40; i++) {
        int k = pos;
        int a = k * 3 + tid;
        int b = a ^ (k << 2);
        log[k & 511] = tid * 1000 + (b & 255);
        pos = k + 1;
    }
    return 0;
}
int main() {
    int a = spawn(worker, 1);
    int b = spawn(worker, 2);
    worker(3);
    join(a);
    join(b);
    int h = 0;
    for (int i = 0; i < 512; i++) h = (h * 31 + log[i]) & 16777215;
    return h;
}
"""


@pytest.mark.parametrize("quantum", [3, 7, 64])
def test_block_interleavings_match_plain(quantum, unfused, eager_blocks):
    _run_pair(unfused, eager_blocks(), _RACE_SRC, quantum=quantum)
    _run_pair(unfused, contextlib.nullcontext(), _RACE_SRC, quantum=quantum)


def test_block_longer_than_quantum_not_entered(eager_blocks, monkeypatch):
    """With quantum 3, only blocks of at most 3 instructions may run;
    every longer one is compiled but the slice finishes on plain
    handlers instead."""
    entered, compiled = [], []
    install = fastpath._install_block

    def spying_install(fc, head, ctx):
        install(fc, head, ctx)
        block, cost = fc.handlers[head], fc.costs[head]
        compiled.append(cost)

        def counted(frame, regs, thread):
            entered.append(cost)
            return block(frame, regs, thread)
        fc.handlers[head] = counted

    monkeypatch.setattr(fastpath, "_install_block", spying_install)
    with eager_blocks():
        run_c(_RACE_SRC, quantum=3)
    assert max(compiled) > 3, "no block longer than the quantum"
    assert entered and max(entered) <= 3


# ---------------------------------------------------------------------------
# Lazy compilation
# ---------------------------------------------------------------------------

def _spy_compile(monkeypatch):
    """Record the filename of every code object ``fastpath`` compiles."""
    names = []

    def spy(source, filename, mode):
        names.append(filename)
        return compile(source, filename, mode)
    monkeypatch.setattr(fastpath, "compile", spy, raising=False)
    return names


@pytest.fixture
def fresh_makes(monkeypatch):
    """An empty block-code cache for one test: blocks that earlier tests
    compiled stay cached until the cyclic collector frees their VMs."""
    makes = type(fastpath._MAKES)()
    monkeypatch.setattr(fastpath, "_MAKES", makes)
    return makes


def test_predecode_compiles_nothing(eager_blocks, fresh_makes, monkeypatch):
    """Predecode compiles no block: its only code is the plain-handler
    shapes this process has not rendered yet, so predecoding the same
    program for a second VM compiles nothing.  Blocks are compiled once
    they run."""
    names = _spy_compile(monkeypatch)
    with eager_blocks():
        module = build(_RACE_SRC)
        for _ in range(2):
            vm = VM()
            program = vm.load(module)
            predecoded = len(names)
            for fn in module.functions.values():
                program.fast_for(fn, vm)
        assert len(names) == predecoded
        assert all(name.startswith("<plain ") for name in names)
        vm.run("main", ())
    ran = names[predecoded:]
    assert ran and all(name.startswith("<block ") for name in ran)


def _shared_block_makes(vms):
    """Weak references to the ``make`` of each block the VMs compiled,
    checking that every VM built its own handler from that one ``make``,
    which the cache holds."""
    tables = [{(name, head): fc.handlers[head]
               for name, fc in vm.program._fastcache.items()
               for head, cost in enumerate(fc.costs) if cost > 1}
              for vm in vms]
    assert tables[0] and all(t.keys() == tables[0].keys() for t in tables)
    cached = list(fastpath._MAKES.values())
    refs = []
    for key, handler in tables[0].items():
        make = handler.__globals__["make"]
        assert any(m is make for m in cached)
        for other in tables[1:]:
            assert other[key] is not handler
            assert other[key].__globals__["make"] is make
        refs.append(weakref.ref(make))
    return refs


def test_live_vms_share_block_code(eager_blocks, fresh_makes):
    """Two live VMs of one image share each block's ``make``.  A
    handler's ``__globals__`` is the scope its ``make`` ran in, and that
    scope holds ``make``, so the cache entry lives while either VM does
    and is gone once both are collected."""
    module = build(_RACE_SRC)
    with eager_blocks():
        vms = [VM(), VM()]
        for vm in vms:
            vm.load(module)
            vm.run("main", ())
    blocks = _shared_block_makes(vms)
    del vm, vms[0]
    gc.collect()
    assert all(ref() is not None for ref in blocks)
    del vms[0]
    gc.collect()
    assert all(ref() is None for ref in blocks)
    plain = list(fastpath._PLAIN_MAKES.values())
    assert all(any(m is make for m in plain)
               for make in fresh_makes.values())


def test_worker_compiles_each_block_once(eager_blocks, monkeypatch):
    """Compiled blocks live in the worker's predecoded code, so three
    crash/boot cycles compile no block twice."""
    from repro.harness.experiments import APP_CONFIG
    from repro.fleet.worker import EnclaveWorker
    from repro.workloads.apps import memcached
    from tests.test_fleet import _memcached_module, _serve

    names = _spy_compile(monkeypatch)
    with eager_blocks():
        worker = EnclaveWorker(0, _memcached_module(), "sgxbounds",
                               policy="abort", config=APP_CONFIG)
        for _ in range(3):
            _, crash = _serve(worker, 0, memcached.cve_2011_4971_request())
            assert crash == "BoundsViolation"
            worker.boot()
    assert names, "no block was compiled"
    assert collections.Counter(names).most_common(1)[0][1] == 1


# ---------------------------------------------------------------------------
# Hoisted preheader checks inside compiled blocks
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


def test_hoisted_checks_identity(unfused, eager_blocks):
    """loop_hoist replaces per-iteration checks with one preheader check
    whose bnd/gep sequence then runs inside the loop's compiled blocks;
    both configurations must match plain dispatch, and hoisting must
    demonstrably have fired (fewer bounds checks) so the test exercises
    what it claims."""
    executed = {}
    for hoist in (False, True):
        make = lambda h=hoist: SGXBoundsScheme(optimize_hoist=h)
        plain_vm, block_vm = _run_pair(unfused, eager_blocks(), _HOIST_SRC,
                                       make_scheme=make)
        executed[hoist] = _counters(block_vm)["instructions"]
    # Hoisting must demonstrably have fired: dropping 2 x 64 in-loop
    # clamp sequences shows up directly in the instruction count.
    assert executed[True] < executed[False]


# ---------------------------------------------------------------------------
# Predecode cache and shape
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


def test_predecode_shape():
    """Right after predecode every index costs one instruction and runs
    its plain handler, except region heads, which run an entry counter
    until their block is compiled."""
    from repro.ir import ops
    scheme = SGXBoundsScheme()
    module = build(_HOIST_SRC, scheme)
    vm = VM(scheme=scheme)
    vm.load(module)
    fn = module.functions["main"]
    fc = compile_function(vm, fn, fn.consts)
    assert fc.costs == [1] * len(fn.code)
    heads = set(fn.block_starts)
    heads.update(i + 1 for i, ins in enumerate(fn.code)
                 if ins.op == ops.CALL)
    entries = [i for i, handler in enumerate(fc.handlers)
               if handler is not fc.plain[i]]
    assert entries and set(entries) <= heads
    for i in entries:
        assert fc.handlers[i].__qualname__ == "_block_entry.<locals>.h"


def test_handlers_hold_no_closure_cells():
    """Every handler predecode returns binds what it reads as default
    arguments: none holds closure cells, under any scheme."""
    from repro.harness.runner import SCHEMES
    from repro.minic import compile_source
    from tests.genprog import corpus

    for source in corpus(1234, 10):
        module = compile_source(source)
        for make_scheme in SCHEMES.values():
            scheme = make_scheme()
            built = scheme.instrument(module) if scheme else module.clone()
            vm = VM(scheme=scheme)
            vm.load(built.finalize())
            for fn in built.functions.values():
                fc = compile_function(vm, fn, vm.program.resolved_consts[
                    fn.name])
                for handler in fc.handlers + fc.plain:
                    assert handler.__closure__ is None, \
                        handler.__qualname__


def test_one_accessor_cache_per_vm(monkeypatch):
    """Every function predecoded for one VM shares its accessor cache,
    and a reset keeps it."""
    from repro.harness.runner import make_scheme
    from repro.minic import compile_source
    from repro.vm.machine import build_vm
    from repro.workloads.apps import memcached

    made = []
    init = fastpath._MemCache.__init__

    def counting_init(cache, enclave):
        made.append(cache)
        init(cache, enclave)

    monkeypatch.setattr(fastpath._MemCache, "__init__", counting_init)
    module = compile_source(memcached.SOURCE, "memcached")
    vm, image = build_vm(module, make_scheme("sgxbounds", None, "abort"),
                         None)
    vm.load(image)
    vm.snapshot()
    for fn in image.functions.values():
        vm.program.fast_for(fn, vm)
    assert len(image.functions) > 1
    assert made == [vm.mem_cache]
    vm.reset()
    assert vm.mem_cache is made[0]


def test_calls_never_fused():
    """BLOCK_RETRY re-executes the CALL by index: every CALL must keep a
    cost-1 plain handler even when surrounded by straight-line code."""
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


# ---------------------------------------------------------------------------
# Plain handlers rendered by shape
# ---------------------------------------------------------------------------

def test_shape_key_is_sound():
    """Plain handlers are compiled once per shape key, so two
    instructions with the same key must render the same source.  Checked
    over every instruction of the 60-program genprog corpus, every
    registered workload and every server app, under all five schemes."""
    from repro.harness.runner import SCHEMES
    from repro.minic import compile_source
    from repro.vm.scheme import SchemeRuntime
    from repro.workloads import all_workloads
    from repro.workloads.apps import (apache, memcached, nginx, sqlite_kv,
                                      sqlite_server)
    from tests.genprog import corpus

    sources = corpus(1234, 60) + [w.source for w in all_workloads()]
    sources += [app.SOURCE for app in (apache, memcached, nginx, sqlite_kv,
                                       sqlite_server)]
    rendered = {}
    for source in sources:
        module = compile_source(source)
        for make_scheme in SCHEMES.values():
            scheme = make_scheme()
            built = scheme.instrument(module) if scheme else module.clone()
            built.finalize()
            track = (scheme or SchemeRuntime()).uses_register_bounds
            for fn in built.functions.values():
                for ins in fn.code:
                    if ins.op not in fastpath._RENDERED_OPS:
                        continue
                    src = fastpath._BlockWriter(track).source([ins], 0, 1)
                    key = fastpath._shape(ins, track)
                    assert rendered.setdefault(key, src) == src, ins
    assert len(rendered) > 100
