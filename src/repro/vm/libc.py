"""libc natives with per-scheme wrappers.

The paper leaves libc uninstrumented and wraps every entry point (§3.2
"Function calls": 4289 LOC of wrappers).  Our natives follow the same
pattern: extract plain pointers from (possibly tagged) arguments, validate
the accessed ranges through the scheme's ``libc_range`` hook, then perform
the bulk operation with per-cache-line cost accounting.

Failure-oblivious behaviour matches §4.2/§5.1: when the scheme runs in
boundless mode, over-long reads are satisfied with zeros for the
out-of-bounds tail (Heartbleed), over-long writes are clamped, and
"errno-style" wrappers (``net_recv``) return an error code so servers can
drop the offending request instead of crashing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import VMError
from repro.vm import machine as vm_mod
from repro.vm import policy as violation_policy

_CALL_COST = 6


def _arg_bounds(vm, index: int) -> Optional[Tuple[int, int]]:
    bounds = vm.native_arg_bounds
    if bounds is not None and index < len(bounds):
        return bounds[index]
    return None


def _range(vm, ptr: int, size: int, is_write: bool, arg_index: int):
    return vm.scheme.libc_range(vm, ptr, size, is_write,
                                arg_bounds=_arg_bounds(vm, arg_index))


# -- allocation ---------------------------------------------------------------
def _malloc(vm, thread, args):
    vm.charge(40)
    from repro.vm.machine import NativeResult
    ptr = vm.scheme.malloc(vm, args[0])
    if vm.faults is not None:
        ptr = vm.faults.corrupt_pointer(vm, ptr)
    bounds = vm.scheme.alloc_bounds(ptr, args[0])
    return NativeResult(ptr, bounds)


def _calloc(vm, thread, args):
    vm.charge(40 + (args[0] * args[1]) // 64)
    from repro.vm.machine import NativeResult
    ptr = vm.scheme.calloc(vm, args[0], args[1])
    bounds = vm.scheme.alloc_bounds(ptr, args[0] * args[1])
    return NativeResult(ptr, bounds)


def _realloc(vm, thread, args):
    vm.charge(60)
    from repro.vm.machine import NativeResult
    ptr = vm.scheme.realloc(vm, args[0], args[1])
    bounds = vm.scheme.alloc_bounds(ptr, args[1])
    return NativeResult(ptr, bounds)


def _free(vm, thread, args):
    vm.charge(30)
    vm.scheme.free(vm, args[0])
    return 0


# -- memory block operations ---------------------------------------------------
def _memcpy(vm, thread, args):
    dst, src, n = args[0], args[1], args[2]
    vm.charge(_CALL_COST + n // 8)
    s_addr, s_ok = _range(vm, src, n, False, 1)
    d_addr, d_ok = _range(vm, dst, n, True, 0)
    ok = min(s_ok, d_ok, n)
    if ok > 0:
        data = vm.bulk_read(s_addr, min(s_ok, ok))
        vm.bulk_write(d_addr, data)
    if ok < n and d_ok > ok:
        # Failure-oblivious: the unreadable tail arrives as zeros (§4.2,
        # exactly the paper's Heartbleed mitigation).
        vm.bulk_write(d_addr + ok, b"\x00" * (min(d_ok, n) - ok))
    return dst


def _memmove(vm, thread, args):
    return _memcpy(vm, thread, args)


def _memset(vm, thread, args):
    dst, value, n = args[0], args[1], args[2]
    vm.charge(_CALL_COST + n // 8)
    d_addr, d_ok = _range(vm, dst, n, True, 0)
    vm.bulk_write(d_addr, bytes((value & 0xFF,)) * min(d_ok, n))
    return dst


def _memcmp(vm, thread, args):
    a, b, n = args[0], args[1], args[2]
    vm.charge(_CALL_COST + n // 8)
    a_addr, a_ok = _range(vm, a, n, False, 0)
    b_addr, b_ok = _range(vm, b, n, False, 1)
    n = min(n, a_ok, b_ok)
    da = vm.bulk_read(a_addr, n)
    db = vm.bulk_read(b_addr, n)
    if da == db:
        return 0
    return 1 if da > db else (1 << 64) - 1


# -- strings -------------------------------------------------------------------
def _cstring(vm, ptr: int, arg_index: int) -> Tuple[int, bytes]:
    """Read a NUL-terminated string, bounds-checking the bytes read."""
    address = vm.scheme.strip(ptr)
    with vm.space.untraced() as space:
        data = space.read_cstring(address)
    # Validate the range we actually consumed (including the NUL).
    _range(vm, ptr, len(data) + 1, False, arg_index)
    vm.touch_range(address, len(data) + 1, False)
    return address, data


def _strlen(vm, thread, args):
    _, data = _cstring(vm, args[0], 0)
    vm.charge(_CALL_COST + len(data) // 8)
    return len(data)


def _strcpy(vm, thread, args):
    dst, src = args[0], args[1]
    _, data = _cstring(vm, src, 1)
    n = len(data) + 1
    vm.charge(_CALL_COST + n // 8)
    d_addr, d_ok = _range(vm, dst, n, True, 0)
    vm.bulk_write(d_addr, (data + b"\x00")[:d_ok])
    return dst


def _strncpy(vm, thread, args):
    dst, src, n = args[0], args[1], args[2]
    _, data = _cstring(vm, src, 1)
    payload = (data[:n]).ljust(n, b"\x00")
    vm.charge(_CALL_COST + n // 8)
    d_addr, d_ok = _range(vm, dst, n, True, 0)
    vm.bulk_write(d_addr, payload[:d_ok])
    return dst


def _strcmp(vm, thread, args):
    _, a = _cstring(vm, args[0], 0)
    _, b = _cstring(vm, args[1], 1)
    vm.charge(_CALL_COST + (min(len(a), len(b))) // 4)
    if a == b:
        return 0
    return 1 if a > b else (1 << 64) - 1


def _strncmp(vm, thread, args):
    n = args[2]
    _, a = _cstring(vm, args[0], 0)
    _, b = _cstring(vm, args[1], 1)
    a, b = a[:n], b[:n]
    vm.charge(_CALL_COST + n // 4)
    if a == b:
        return 0
    return 1 if a > b else (1 << 64) - 1


def _strcat(vm, thread, args):
    dst, src = args[0], args[1]
    d_plain, ddata = _cstring(vm, dst, 0)
    _, sdata = _cstring(vm, src, 1)
    n = len(sdata) + 1
    vm.charge(_CALL_COST + n // 8)
    tail_ptr = dst + len(ddata)   # keeps any tag: arithmetic in low bits only
    d_addr, d_ok = _range(vm, tail_ptr, n, True, 0)
    vm.bulk_write(d_addr, (sdata + b"\x00")[:d_ok])
    return dst


def _strchr(vm, thread, args):
    ptr, want = args[0], args[1] & 0xFF
    _, data = _cstring(vm, ptr, 0)
    vm.charge(_CALL_COST + len(data) // 8)
    index = data.find(bytes((want,)))
    if index < 0:
        return 0
    return ptr + index   # preserves the tag for SGXBounds


# -- network simulation (used by the server case studies) ----------------------
def _net_recv(vm, thread, args):
    """net_recv(conn, buf, len) -> bytes received, 0 on EOF, -1 on EINVAL.

    Mirrors the paper's recv wrapper: when the scheme can see that the
    buffer is smaller than ``len`` it returns an error code (EINVAL) so the
    server can drop the request (§5.1) — under fail-stop it raises.
    """
    if not hasattr(vm, "net"):
        raise VMError("net_recv: no network attached to this VM")
    conn, buf, length = args[0], args[1], args[2]
    if vm.net_blocking and not vm.net.pending(conn):
        # Fleet workers park between requests instead of seeing EOF; the
        # balancer wakes them via unblock_net_waiters when it dispatches.
        # Parked before any charge so re-execution on wake is cost-neutral.
        thread.state = vm_mod.BLOCKED
        thread.wait = ("net", conn)
        return vm_mod.BLOCK_RETRY
    vm.charge(80)
    if vm.faults is not None:
        vm.faults.on_request(vm)
    extent = vm.scheme.object_extent(vm, buf)
    if extent is not None and extent < length:
        if vm.scheme.policy != violation_policy.ABORT:
            # EINVAL: any tolerant policy drops the malformed request
            # here rather than raising (raising under drop-request would
            # roll back to this very recv and loop forever).
            return (1 << 64) - 1
        vm.scheme.libc_range(vm, buf, length, True,
                             arg_bounds=_arg_bounds(vm, 1))
    data = vm.net.recv(conn, length)
    if data is None:
        return 0
    d_addr, d_ok = _range(vm, buf, len(data), True, 1)
    vm.bulk_write(d_addr, data[:d_ok])
    vm.charge(len(data) // 8)
    if vm.telemetry is not None:
        vm.telemetry.request_boundary(thread.tid, vm.counters.instructions,
                                      conn, len(data))
    if vm.forensics is not None:
        mid = getattr(vm.net, "last_recv_mid", None)
        if not vm.external_rids:
            # Single-server runs: the NetworkSim message id is the
            # request id.  Fleet workers set external_rids and stamp the
            # balancer's rid at submit time instead.
            vm.request_id = mid
            vm.request_payload = data
        vm.forensics.recorder.record(
            "request_recv", ts=vm.counters.instructions, cat="request",
            rid=vm.request_id, wid=vm.worker_id, tid=thread.tid,
            conn=conn, mid=mid, nbytes=len(data))
    if vm.scheme.policy == violation_policy.DROP_REQUEST:
        # Ask the VM to checkpoint this thread at the CALL boundary; a
        # violation while handling this request then rolls back here.
        vm._ckpt_pending = (conn, data)
        vm.charge(30)    # checkpoint cost (setjmp + state save)
    return len(data)


def _net_send(vm, thread, args):
    if not hasattr(vm, "net"):
        raise VMError("net_send: no network attached to this VM")
    conn, buf, length = args[0], args[1], args[2]
    vm.charge(80 + length // 8)
    s_addr, s_ok = _range(vm, buf, length, False, 1)
    data = vm.bulk_read(s_addr, min(s_ok, length))
    if s_ok < length:
        data += b"\x00" * (length - s_ok)   # failure-oblivious zero fill
    vm.net.send(conn, data)
    return length


def libc_natives() -> Dict[str, Callable]:
    return {
        "malloc": _malloc,
        "calloc": _calloc,
        "realloc": _realloc,
        "free": _free,
        "memcpy": _memcpy,
        "memmove": _memmove,
        "memset": _memset,
        "memcmp": _memcmp,
        "strlen": _strlen,
        "strcpy": _strcpy,
        "strncpy": _strncpy,
        "strcmp": _strcmp,
        "strncmp": _strncmp,
        "strcat": _strcat,
        "strchr": _strchr,
        "net_recv": _net_recv,
        "net_send": _net_send,
    }
