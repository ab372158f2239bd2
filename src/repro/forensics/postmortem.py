"""Postmortem capture: a self-contained crash report from simulated state.

Triggered on a ``BoundsViolation`` under a terminal policy, a watchdog
timeout, or any worker/server crash, :func:`capture_postmortem` snapshots
everything a debugger would want from inside the opaque enclave:

* the MiniC call stack with source locations (the codegen stamps AST
  line numbers into IR instructions; the nearest preceding stamped
  instruction to each frame's pc is its source line);
* the faulting pointer decoded *per scheme* — SGXBounds' tagged LBA/UB
  (including the lower-bound word re-read from memory at the UB address,
  paper §3.2), ASan's shadow-byte neighborhood around the fault, MPX's
  bounds-directory/bounds-table entry covering the address;
* the last-N flight-recorder events, correlated by request id;
* EPC residency statistics and the enclave's performance counters;
* the request payload that triggered the fault (hex preview).

Everything derives from simulated state — no wall clocks, no Python
object ids — so a report is byte-identical across same-seed runs.  All
memory inspection goes through :func:`_peek`, which reads the address
space with the cache/EPC tracer detached: capturing a postmortem never
charges a simulated counter.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import BoundsViolation, ReproError, WatchdogTimeout
from repro.memory.layout import ADDRESS_MASK

#: Report format version (bump on breaking schema changes).
POSTMORTEM_SCHEMA = 1

#: Bytes of payload preserved verbatim (hex) in a report.
PAYLOAD_PREVIEW = 64

#: Flight-recorder events snapshotted into each report.
POSTMORTEM_LAST_N = 32

#: ASan decode: granules shown on each side of the faulting granule.
SHADOW_WINDOW = 8


# ---------------------------------------------------------------------------
# Untraced memory inspection
# ---------------------------------------------------------------------------
def _peek(vm, address: int, size: int) -> Optional[bytes]:
    """Read simulated memory without charging the cache/EPC model;
    None when the range is unmapped (forensics must never crash)."""
    try:
        with vm.space.untraced() as space:
            return space.read(address, size)
    except ReproError:
        return None


def _peek_u32(vm, address: int) -> Optional[int]:
    raw = _peek(vm, address, 4)
    return None if raw is None else int.from_bytes(raw, "little")


def _peek_u64(vm, address: int) -> Optional[int]:
    raw = _peek(vm, address, 8)
    return None if raw is None else int.from_bytes(raw, "little")


# ---------------------------------------------------------------------------
# Stack capture with source locations
# ---------------------------------------------------------------------------
def capture_stack(vm, thread=None) -> List[Dict[str, object]]:
    """The MiniC call stack, outermost frame first.

    Falls back from the faulting thread to the current one to the first
    thread with live frames, so a crash caught after the VM cleared
    ``current`` still yields a stack.
    """
    if thread is None:
        thread = getattr(vm, "current", None)
    if thread is None or not getattr(thread, "frames", None):
        for candidate in getattr(vm, "threads", ()):
            if candidate.frames:
                thread = candidate
                break
    frames: List[Dict[str, object]] = []
    if thread is None:
        return frames
    for frame in thread.frames:
        code = frame.code
        pc = min(frame.pc, len(code) - 1) if code else 0
        line = 0
        # Instrumentation-inserted instructions carry line 0; the nearest
        # preceding stamped instruction names the source statement.
        for index in range(pc, -1, -1):
            stamped = code[index].line
            if stamped:
                line = stamped
                break
        frames.append({"function": frame.fn.name, "pc": frame.pc,
                       "line": line})
    return frames


def render_stack(frames: List[Dict[str, object]]) -> List[str]:
    """gdb-style text lines, innermost frame first."""
    lines = []
    for depth, frame in enumerate(reversed(frames)):
        where = f"line {frame['line']}" if frame["line"] else "line ?"
        lines.append(f"  #{depth} {frame['function']} "
                     f"({where}, pc={frame['pc']})")
    return lines or ["  <no frames>"]


# ---------------------------------------------------------------------------
# Per-scheme pointer decode
# ---------------------------------------------------------------------------
def decode_pointer(vm, scheme, err) -> Dict[str, object]:
    """Scheme-specific forensics for the faulting access."""
    address = getattr(err, "address", None)
    decoded: Dict[str, object] = {
        "scheme": getattr(scheme, "name", "unknown"),
        "address": address,
    }
    if address is None:
        return decoded
    name = getattr(scheme, "name", "")
    if name == "sgxbounds":
        _decode_sgxbounds(vm, err, decoded)
    elif name == "asan":
        _decode_asan(vm, err, decoded)
    elif name == "mpx":
        _decode_mpx(vm, scheme, err, decoded)
    elif isinstance(err, BoundsViolation):
        decoded["bounds"] = [err.lower, err.upper]
        decoded["object_bytes"] = max(0, err.upper - err.lower)
    return decoded


def _decode_sgxbounds(vm, err, decoded: Dict[str, object]) -> None:
    """Tagged-pointer decode: UB from the tag's high half, LB from the
    lower-bound word stored at the UB address (paper §3.1-3.2)."""
    lower = getattr(err, "lower", 0)
    upper = getattr(err, "upper", 0)
    address = err.address
    decoded["tag"] = {"pointer": address, "upper_bound": upper}
    decoded["lower_bound_address"] = upper
    decoded["lower_bound_word"] = _peek_u32(vm, upper) \
        if upper else None
    decoded["bounds"] = [lower, upper]
    decoded["object_bytes"] = max(0, upper - lower)
    size = getattr(err, "size", 1)
    if address < lower:
        decoded["underflow_bytes"] = lower - address
    elif address + size > upper:
        decoded["overflow_bytes"] = address + size - upper


def _decode_asan(vm, err, decoded: Dict[str, object]) -> None:
    """Shadow-memory neighborhood around the faulting granule."""
    from repro.asan.shadow import (
        FREED,
        GLOBAL_RZ,
        GRANULE,
        HEAP_LEFT_RZ,
        HEAP_RIGHT_RZ,
        STACK_RZ,
        shadow_address,
    )
    poison_names = {HEAP_LEFT_RZ: "heap-left-redzone",
                    HEAP_RIGHT_RZ: "heap-right-redzone",
                    FREED: "freed", STACK_RZ: "stack-redzone",
                    GLOBAL_RZ: "global-redzone"}
    address = err.address
    granule = address & ~(GRANULE - 1)
    window = []
    for offset in range(-SHADOW_WINDOW, SHADOW_WINDOW + 1):
        app = granule + offset * GRANULE
        if app < 0:
            continue
        value = _peek(vm, shadow_address(app), 1)
        value = value[0] if value is not None else None
        if value is None:
            meaning = "unmapped"
        elif value == 0:
            meaning = "addressable"
        elif value < GRANULE:
            meaning = f"partial:{value}"
        else:
            meaning = poison_names.get(value, f"poison:0x{value:02x}")
        window.append({"granule": app, "shadow": value,
                       "meaning": meaning,
                       "faulting": offset == 0})
    decoded["granule_bytes"] = GRANULE
    decoded["shadow_window"] = window
    decoded["bounds"] = [getattr(err, "lower", 0),
                         getattr(err, "upper", 0)]


def _decode_mpx(vm, scheme, err, decoded: Dict[str, object]) -> None:
    """Register bounds from the check plus the BD/BT entry covering the
    faulting address (bndldx's view of that slot)."""
    decoded["register_bounds"] = [getattr(err, "lower", 0),
                                  getattr(err, "upper", 0)]
    address = err.address & ADDRESS_MASK
    entry: Optional[Dict[str, object]] = None
    bd_base = getattr(scheme, "bd_base", 0)
    cover_shift = getattr(scheme, "bt_cover_shift", None)
    if bd_base and cover_shift is not None:
        region = address >> cover_shift
        bd_entry = bd_base + region * 8
        table = _peek_u64(vm, bd_entry)
        entry = {"bd_entry": bd_entry, "table": table}
        if table:
            entry_address = scheme._entry_address(table, address)
            entry["entry_address"] = entry_address
            entry["lower"] = _peek_u64(vm, entry_address)
            entry["upper"] = _peek_u64(vm, entry_address + 8)
            # (0, 0) is MPX INIT: no bounds ever spilled to this slot,
            # bndldx would answer allow-everything.
            entry["init"] = not entry["lower"] and not entry["upper"]
    decoded["bounds_table"] = entry
    decoded["bounds_tables_allocated"] = getattr(scheme, "bounds_tables", 0)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------
def _epc_stats(vm) -> Dict[str, object]:
    enclave = vm.enclave
    stats: Dict[str, object] = {
        "faults": vm.counters.epc_faults,
    }
    epc = enclave.epc
    if epc is not None:
        stats.update({
            "capacity_pages": epc.capacity_pages,
            "resident_pages": epc.resident_pages,
            "peak_resident": epc.peak_resident,
            "pages_touched": len(epc.pages_touched),
            "evictions": epc.evictions,
        })
    return stats


def _describe_error(err) -> Dict[str, object]:
    info: Dict[str, object] = {
        "type": type(err).__name__,
        "message": str(err),
    }
    if isinstance(err, BoundsViolation):
        info["violation"] = err.context()
    if isinstance(err, WatchdogTimeout):
        info["budget"] = err.budget
        info["spent"] = err.spent
        info["request_id"] = err.request_id
    return info


def capture_postmortem(vm, err, reason: Optional[str] = None,
                       rid: Optional[int] = None,
                       payload: Optional[bytes] = None,
                       wid: Optional[int] = None,
                       recorder=None,
                       thread=None) -> Dict[str, object]:
    """Build the self-contained report dict (see module docstring)."""
    scheme = vm.scheme
    report: Dict[str, object] = {
        "schema": POSTMORTEM_SCHEMA,
        "trigger": reason or type(err).__name__,
        "error": _describe_error(err),
        "scheme": getattr(scheme, "name", "unknown"),
        "policy": getattr(scheme, "policy", ""),
        "worker": wid,
        "instructions": vm.counters.instructions,
        "stack": capture_stack(vm, thread=thread),
        "pointer": decode_pointer(vm, scheme, err),
        "epc": _epc_stats(vm),
        "request": None,
        "events": [],
    }
    if rid is not None or payload is not None:
        request: Dict[str, object] = {"rid": rid}
        if payload is not None:
            request["bytes"] = len(payload)
            request["preview_hex"] = payload[:PAYLOAD_PREVIEW].hex()
        report["request"] = request
    if recorder is not None:
        report["events"] = [r.as_dict() for r in recorder.last(POSTMORTEM_LAST_N)]
    return report


def render_postmortem(report: Dict[str, object]) -> str:
    """Deterministic text rendering of one report."""
    lines = [
        f"== postmortem: {report['trigger']} "
        f"[{report['scheme']}/{report['policy'] or '-'}] ==",
        f"error: {report['error']['message']}",
    ]
    if report.get("worker") is not None:
        lines.append(f"worker: {report['worker']}")
    request = report.get("request")
    if request:
        preview = request.get("preview_hex", "")
        lines.append(f"request: rid={request.get('rid')} "
                     f"bytes={request.get('bytes')} "
                     f"payload[:{PAYLOAD_PREVIEW}]={preview}")
    pointer = report.get("pointer") or {}
    address = pointer.get("address")
    if address is not None:
        bounds = pointer.get("bounds") or pointer.get("register_bounds")
        where = f"pointer: 0x{address:08x}"
        if bounds:
            where += f" bounds=[0x{bounds[0]:08x}, 0x{bounds[1]:08x})"
        if "lower_bound_word" in pointer:
            lb = pointer["lower_bound_word"]
            where += (f" LB@UB=0x{lb:08x}" if lb is not None
                      else " LB@UB=<unmapped>")
        lines.append(where)
    lines.append("stack (innermost first):")
    lines.extend(render_stack(report.get("stack") or []))
    epc = report.get("epc") or {}
    lines.append("epc: " + " ".join(f"{key}={epc[key]}"
                                    for key in sorted(epc)))
    events = report.get("events") or []
    lines.append(f"last {len(events)} flight-recorder events:")
    for event in events:
        rid = event.get("rid")
        lines.append(f"  #{event['seq']:06d} ts={event['ts']} "
                     f"rid={'-' if rid is None else rid} "
                     f"[{event['cat']}] {event['kind']}")
    return "\n".join(lines)
