"""Shared test helpers: compile-and-run MiniC under any scheme."""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence, Tuple

import pytest

from repro.ir import Module, verify_module
from repro.memory.address_space import PERM_READ
from repro.memory.layout import PAGE_SHIFT
from repro.minic import compile_source
from repro.sgx import Enclave, EnclaveConfig
from repro.vm import VM, fastpath
from repro.vm.scheme import SchemeRuntime


def build(source: str, scheme: Optional[SchemeRuntime] = None,
          verify: bool = True) -> Module:
    """Compile MiniC and apply ``scheme``'s instrumentation."""
    module = compile_source(source)
    if scheme is not None:
        module = scheme.instrument(module)
    else:
        module = module.clone()
    if verify:
        verify_module(module)
    return module.finalize()


def is_mapped(space, address: int) -> bool:
    """Whether the page containing ``address`` is mapped (guards count)."""
    return space._run_perms(address >> PAGE_SHIFT) is not None


def is_accessible(space, address: int) -> bool:
    """Whether a 1-byte read at ``address`` would succeed."""
    perms = space._run_perms(address >> PAGE_SHIFT)
    return perms is not None and bool(perms & PERM_READ)


def run_c(source: str, scheme: Optional[SchemeRuntime] = None,
          config: Optional[EnclaveConfig] = None, entry: str = "main",
          args: Sequence[object] = (), **vm_kwargs) -> Tuple[int, VM]:
    """Compile, instrument, load and run; returns (exit value, vm)."""
    module = build(source, scheme)
    enclave = Enclave(config) if config is not None else None
    vm = VM(enclave=enclave, scheme=scheme, **vm_kwargs)
    vm.load(module)
    result = vm.run(entry, args)
    vm.enclave.finalize()
    return result, vm


@pytest.fixture
def unfused(monkeypatch):
    """``with unfused(): ...`` runs every VM on plain handlers only: one
    dispatch per instruction and no compiled blocks, so a test can diff
    what differs between the tiers (charge batching, register caching,
    quantum splits, exceptions mid-block).  Most plain handlers are
    one-instruction renderings of the same emission blocks use."""
    compile_function = fastpath.compile_function

    def plain_only(vm, fn, consts):
        fc = compile_function(vm, fn, consts)
        return fastpath.FastCode(fc.plain, [1] * len(fc.plain), fc.plain,
                                 fc.code)

    @contextlib.contextmanager
    def scope():
        with monkeypatch.context() as patch:
            patch.setattr(fastpath, "compile_function", plain_only)
            yield
    return scope


@pytest.fixture
def eager_blocks(monkeypatch):
    """``with eager_blocks(): ...`` compiles every block on the first
    entry into its head instead of once it turns hot, so nearly all
    straight-line code a test runs goes through compiled blocks."""
    @contextlib.contextmanager
    def scope():
        with monkeypatch.context() as patch:
            patch.setattr(fastpath, "BLOCK_THRESHOLD", 1)
            yield
    return scope
