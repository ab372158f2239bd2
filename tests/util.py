"""Shared test helpers: compile-and-run MiniC under any scheme."""

from __future__ import annotations

import contextlib
from typing import Optional, Sequence, Tuple

import pytest

from repro.ir import Module, verify_module
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
    dispatch per instruction, no superinstructions and no chains, so a
    test can diff fused dispatch against the single definition of each
    opcode it is built from."""
    compile_function = fastpath.compile_function

    def plain_only(vm, fn, consts):
        fc = compile_function(vm, fn, consts)
        return fastpath.FastCode(fc.plain, [1] * len(fc.plain), fc.plain,
                                 fc.code, {})

    @contextlib.contextmanager
    def scope():
        with monkeypatch.context() as patch:
            patch.setattr(fastpath, "compile_function", plain_only)
            yield
    return scope
