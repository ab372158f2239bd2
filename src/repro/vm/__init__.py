"""The virtual machine: interpreter, loader, schemes, natives, libc."""

from repro.vm.loader import Program, load_program
from repro.vm.machine import BLOCK_RETRY, NativeResult, VM
# Every run predecodes, so the interpreter loads with the package rather
# than inside the first predecode, where its import would stack on a
# live VM.
from repro.vm import fastpath  # noqa: F401  (after machine: it imports it)
from repro.vm.scheme import SchemeRuntime

__all__ = [
    "VM",
    "Program",
    "load_program",
    "SchemeRuntime",
    "NativeResult",
    "BLOCK_RETRY",
]
