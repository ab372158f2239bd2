"""Core native functions: I/O, time, randomness, threads, locks.

These model the SCONE system-call layer (paper §2.1): the program reaches
the outside world only through these narrow, wrapped entry points.  Each
native charges a nominal instruction cost so instrumented and native runs
stay comparable.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ProgramExit, TrapError, VMError
from repro.memory.layout import ADDRESS_MASK
from repro.vm import machine as vm_mod

_SYSCALL_COST = 20


def _strip(vm, ptr: int) -> int:
    return vm.scheme.strip(ptr)


def _read_str(vm, ptr: int) -> bytes:
    address = _strip(vm, ptr)
    with vm.space.untraced() as space:
        return space.read_cstring(address)


# ---------------------------------------------------------------------------
def _print_str(vm, thread, args):
    vm.charge(_SYSCALL_COST)
    vm.stdout.append(_read_str(vm, args[0]).decode("latin-1"))
    return 0


def _print_int(vm, thread, args):
    vm.charge(_SYSCALL_COST)
    value = args[0]
    if value & (1 << 63):
        value -= 1 << 64
    vm.stdout.append(str(value))
    return 0


def _print_float(vm, thread, args):
    vm.charge(_SYSCALL_COST)
    vm.stdout.append(f"{args[0]:g}")
    return 0


def _putchar(vm, thread, args):
    vm.charge(_SYSCALL_COST)
    vm.stdout.append(chr(args[0] & 0xFF))
    return args[0]


def _puts(vm, thread, args):
    vm.charge(_SYSCALL_COST)
    vm.stdout.append(_read_str(vm, args[0]).decode("latin-1") + "\n")
    return 0


def _printf(vm, thread, args):
    """Minimal printf: %d %u %x %c %s %f %g %%, widths ignored."""
    fmt = _read_str(vm, args[0]).decode("latin-1")
    out: List[str] = []
    argi = 1
    i = 0
    n = len(fmt)
    while i < n:
        ch = fmt[i]
        if ch != "%":
            out.append(ch)
            i += 1
            continue
        i += 1
        while i < n and (fmt[i].isdigit() or fmt[i] in ".-+ l"):
            i += 1
        if i >= n:
            break
        conv = fmt[i]
        i += 1
        if conv == "%":
            out.append("%")
            continue
        value = args[argi] if argi < len(args) else 0
        argi += 1
        if conv in "di":
            iv = value
            if isinstance(iv, int) and iv & (1 << 63):
                iv -= 1 << 64
            out.append(str(iv))
        elif conv == "u":
            out.append(str(value))
        elif conv == "x":
            out.append(f"{value:x}")
        elif conv == "c":
            out.append(chr(value & 0xFF))
        elif conv == "s":
            out.append(_read_str(vm, value).decode("latin-1"))
        elif conv in "fge":
            out.append(f"{float(value):g}")
        else:
            out.append(f"%{conv}")
    text = "".join(out)
    vm.charge(_SYSCALL_COST + len(text))
    vm.stdout.append(text)
    return len(text)


def _clock(vm, thread, args):
    """Deterministic 'time': retired instructions so far."""
    vm.charge(_SYSCALL_COST)
    return vm.counters.instructions


def _abort(vm, thread, args):
    raise TrapError("abort() called")


def _exit(vm, thread, args):
    raise ProgramExit(args[0] if args else 0)


# -- deterministic PRNG (per-VM state) --------------------------------------
def _srand(vm, thread, args):
    vm.charge(5)
    vm._rng_state = args[0] & 0xFFFFFFFF or 1
    return 0


def _rand(vm, thread, args):
    vm.charge(5)
    state = getattr(vm, "_rng_state", 1)
    state = (state * 1103515245 + 12345) & 0x7FFFFFFF
    vm._rng_state = state
    return state >> 8 & 0x3FFF_FFFF


# -- threads ------------------------------------------------------------------
def _spawn(vm, thread, args):
    """spawn(fn_ptr, arg) -> tid; models pthread_create."""
    vm.charge(_SYSCALL_COST * 5)
    target = args[0] & ADDRESS_MASK
    fn = vm.program.function_at(target)
    if fn is None:
        raise VMError(f"spawn of non-function address 0x{target:08x}")
    child = vm.new_thread(fn, list(args[1:]))
    return child.tid


def _join(vm, thread, args):
    """join(tid) -> thread result; blocks until the thread finishes."""
    tid = args[0]
    if tid >= len(vm.threads) or tid < 0:
        raise VMError(f"join of unknown thread {tid}")
    target = vm.threads[tid]
    if target.state == vm_mod.DONE:
        vm.charge(_SYSCALL_COST)
        return target.result
    thread.state = vm_mod.BLOCKED
    thread.wait = ("join", tid)
    return vm_mod.BLOCK_RETRY


def _yield(vm, thread, args):
    vm.charge(2)
    return 0


def _mutex_lock(vm, thread, args):
    """Spin-free lock over a memory word (0 = free, else owner tid + 1)."""
    address = _strip(vm, args[0])
    value = vm.space.read_u64(address)
    if value == 0:
        vm.space.write_u64(address, thread.tid + 1)
        vm.charge(_SYSCALL_COST)
        return 0
    thread.state = vm_mod.BLOCKED
    thread.wait = ("lock", address)
    return vm_mod.BLOCK_RETRY


def _mutex_unlock(vm, thread, args):
    address = _strip(vm, args[0])
    vm.space.write_u64(address, 0)
    vm.unblock_lock_waiters(address)
    vm.charge(_SYSCALL_COST)
    return 0


def core_natives() -> Dict[str, Callable]:
    return {
        "print_str": _print_str,
        "print_int": _print_int,
        "print_float": _print_float,
        "putchar": _putchar,
        "puts": _puts,
        "printf": _printf,
        "clock": _clock,
        "abort": _abort,
        "exit": _exit,
        "srand": _srand,
        "rand": _rand,
        "spawn": _spawn,
        "join": _join,
        "thread_yield": _yield,
        "mutex_lock": _mutex_lock,
        "mutex_unlock": _mutex_unlock,
    }
