"""MiniC: the C dialect the reproduction's workloads are written in."""

from repro.ir import Module, verify_module
from repro.minic.codegen import BUILTINS, compile_unit
from repro.minic.parser import parse


def compile_source(source: str, name: str = "minic") -> Module:
    """Compile MiniC ``source`` into an (unfinalized) IR module.

    The module is left in basic-block form so instrumentation passes can
    transform it; call ``module.finalize()`` (the harness does) before
    handing it to the VM.
    """
    unit, structs = parse(source, name)
    module = compile_unit(unit, structs, name)
    verify_module(module)
    return module


__all__ = ["compile_source", "parse", "compile_unit", "BUILTINS"]
