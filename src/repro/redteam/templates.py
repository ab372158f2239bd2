"""Attack template compiler: parameterized MiniC exploits + benign twins.

Every attack is generated from a parameterized template (location, target,
overflow distance N, laundering...) instead of being a fixed source blob,
in the spirit of TeeRex's systematic interface exploration: the same
template expanded at a different point in parameter space probes a
different blind spot.  Each attack class also compiles a *benign boundary
twin* — a program (or request) that walks right up to the same boundary
without crossing it — so the triage engine can price false positives, not
just detections.

Attack program protocol: ``main`` returns

* ``0`` — the attack had no observable effect (prevented, contained, or
  layout did not cooperate);
* ``1`` — the attack payload observably landed (corrupted target state,
  read secret bytes, ran the hijacked handler).

What "landing" *means* per attack is declared in
:attr:`AttackSpec.success_label` (control-flow-hijack, silent-corruption,
info-leak); the triage engine combines the return value with runtime
evidence (exceptions, violation counts, overlay leak tallies, response
bytes) into the final label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.workloads.apps import apache, memcached, nginx
from repro.workloads.ripe import (
    PRELUDE,
    direct_stack_funcptr,
    in_struct,
    laundered,
)

#: Triage outcome labels an attack can claim on success.
HIJACK = "control-flow-hijack"
CORRUPTION = "silent-corruption"
INFO_LEAK = "info-leak"

#: Attack classes, in matrix row order.
ATTACK_CLASSES = (
    "in-struct",
    "adjacent-direct",
    "adjacent-laundered",
    "off-by-n",
    "underflow",
    "temporal",
    "interface",
)


@dataclass(frozen=True)
class AttackSpec:
    """One compiled attack (or its benign twin)."""

    name: str
    attack_class: str            # one of ATTACK_CLASSES
    kind: str                    # "program" | "interface"
    success_label: str           # HIJACK | CORRUPTION | INFO_LEAK
    source: str = ""             # program kind: MiniC source
    app: str = ""                # interface kind: chaos profile app name
    requests: Tuple[bytes, ...] = ()   # interface kind: request sequence
    leak_marker: bytes = b""     # scan responses for this byte-run
    params: Tuple[Tuple[str, object], ...] = ()   # expansion point


# -- program templates ------------------------------------------------------
# The in-struct, direct-stack and laundered attacks are RIPE's own
# generators (:mod:`repro.workloads.ripe`); what follows are the classes
# RIPE lacks and every benign twin.

def in_struct_twin() -> str:
    """Benign twin: same struct, the loop stops at the boundary."""
    return (PRELUDE
            + "struct Victim { char buf[16]; fnptr handler; int auth; };\n"
            + r"""
int main() {
    struct Victim vs; struct Victim *v = &vs;
    v->handler = benign;
    v->auth = 0;
    for (int i = 0; i < 16; i++) v->buf[i] = (char)0xAA;
    v->handler();
    return g_flag;
}
""")


def adjacent_direct_heap() -> str:
    """Contiguous heap overflow from one allocation into the next."""
    return PRELUDE + r"""
int main() {
    char *a = (char*)malloc(24);
    char *b = (char*)malloc(24);
    b[0] = (char)0x00;
    int delta = (int)(((uint)b & 0xFFFFFFFF) - ((uint)a & 0xFFFFFFFF));
    if (delta < 0 || delta > 512) return 0;
    for (int i = 0; i <= delta; i++) a[i] = (char)0x41;
    if ((b[0] & 255) == 0x41) return 1;
    return 0;
}
"""


def adjacent_twin() -> str:
    """Benign twin: fill both heap objects fully, in bounds."""
    return PRELUDE + r"""
int main() {
    char *a = (char*)malloc(24);
    char *b = (char*)malloc(24);
    for (int i = 0; i < 24; i++) a[i] = (char)0x41;
    for (int i = 0; i < 24; i++) b[i] = (char)0x42;
    if ((a[23] & 255) == 0x41 && (b[23] & 255) == 0x42) return 0;
    return 1;
}
"""


def laundered_twin() -> str:
    """Benign twin: the same int-laundering round trip, all accesses in
    bounds — a scheme that loses track of a laundered pointer must *allow*
    this, not flag it (the false-positive direction of the MPX bug)."""
    return PRELUDE + "uint g_slot;\n" + r"""
int main() {
    char *buf = (char*)malloc(24);
    g_slot = (uint)buf;
    char *lp = (char*)g_slot;
    for (int i = 0; i < 24; i++) lp[i] = (char)0xAA;
    if ((buf[23] & 255) == 0xAA) return 0;
    return 1;
}
"""


def off_by_n(n: int, probe_readback: bool = True) -> str:
    """Write exactly ``n`` bytes past a 24-byte heap object.

    For small ``n`` the spill lands inside allocator padding: nothing an
    *object-unaware* scheme can see (Baggy's power-of-two blocks make it
    blind by construction), while object-granularity bounds flag the very
    first byte.  Success is the spilled bytes reading back intact."""
    body = f"""
    char *a = (char*)malloc(24);
    a[23] = (char)0x11;
    for (int i = 24; i < 24 + {n}; i++) a[i] = (char)0x41;
"""
    if probe_readback:
        body += f"    if ((a[24 + {n} - 1] & 255) == 0x41) return 1;\n"
    return PRELUDE + "int main() {" + body + "    return 0;\n}\n"


def off_by_n_twin() -> str:
    """Benign twin: write exactly the last in-bounds byte."""
    return PRELUDE + r"""
int main() {
    char *a = (char*)malloc(24);
    for (int i = 0; i < 24; i++) a[i] = (char)0x41;
    if ((a[23] & 255) == 0x41) return 0;
    return 1;
}
"""


def underflow_read_jump() -> str:
    """Pointer-underflow read jumping backwards into an earlier, valid
    allocation (a secret).  Shadow-memory schemes pass it — the target
    bytes are addressable — while bounds-carrying schemes see the access
    leave the derived object."""
    return PRELUDE + r"""
int main() {
    char *secret = (char*)malloc(16);
    for (int i = 0; i < 16; i++) secret[i] = (char)0x53;
    char *buf = (char*)malloc(16);
    int delta = (int)(((uint)buf & 0xFFFFFFFF) - ((uint)secret & 0xFFFFFFFF));
    if (delta < 8 || delta > 4096) return 0;
    int back = 0 - delta;
    if ((buf[back] & 255) == 0x53) return 1;
    return 0;
}
"""


def underflow_write() -> str:
    """Pointer-underflow write clobbering the tail of the previous
    allocation."""
    return PRELUDE + r"""
int main() {
    char *victim = (char*)malloc(16);
    victim[15] = (char)0x11;
    char *buf = (char*)malloc(16);
    int delta = (int)(((uint)buf & 0xFFFFFFFF) - ((uint)victim & 0xFFFFFFFF));
    if (delta < 8 || delta > 4096) return 0;
    int back = 15 - delta;
    buf[back] = (char)0x41;
    if ((victim[15] & 255) == 0x41) return 1;
    return 0;
}
"""


def underflow_twin() -> str:
    """Benign twin: read exactly the first in-bounds byte."""
    return PRELUDE + r"""
int main() {
    char *buf = (char*)malloc(16);
    buf[0] = (char)0x53;
    if ((buf[0] & 255) == 0x53) return 0;
    return 1;
}
"""


def uaf_read() -> str:
    """Use-after-free read: the freed block is recycled into a fresh
    allocation holding a secret; the stale pointer reads it.  Quarantine +
    shadow poisoning (ASan) catch this; pure bounds schemes do not —
    SGXBounds explicitly leaves temporal safety out of scope (§3.2)."""
    return PRELUDE + r"""
int main() {
    char *p = (char*)malloc(24);
    p[0] = (char)0x11;
    free(p);
    char *q = (char*)malloc(24);
    for (int i = 0; i < 24; i++) q[i] = (char)0x53;
    if ((p[0] & 255) == 0x53) return 1;
    return 0;
}
"""


def double_free() -> str:
    """Double free: allocator hardening turns this into a deterministic
    abort everywhere; ASan's quarantine reports it as such too."""
    return PRELUDE + r"""
int main() {
    char *p = (char*)malloc(24);
    p[0] = (char)0x11;
    free(p);
    free(p);
    return 1;
}
"""


def temporal_twin() -> str:
    """Benign twin: free then use the *new* allocation only."""
    return PRELUDE + r"""
int main() {
    char *p = (char*)malloc(24);
    p[0] = (char)0x11;
    free(p);
    char *q = (char*)malloc(24);
    q[0] = (char)0x22;
    if ((q[0] & 255) == 0x22) return 0;
    return 1;
}
"""


# -- catalog ----------------------------------------------------------------

def _program(name: str, attack_class: str, label: str, source: str,
             **params) -> AttackSpec:
    return AttackSpec(name=name, attack_class=attack_class, kind="program",
                      success_label=label, source=source,
                      params=tuple(sorted(params.items())))


def _interface(name: str, label: str, app: str,
               requests: Tuple[bytes, ...], leak_marker: bytes = b"",
               **params) -> AttackSpec:
    return AttackSpec(name=name, attack_class="interface", kind="interface",
                      success_label=label, app=app, requests=requests,
                      leak_marker=leak_marker,
                      params=tuple(sorted(params.items())))


def compile_catalog() -> Tuple[AttackSpec, ...]:
    """Expand every attack template across its parameter grid."""
    specs: List[AttackSpec] = [
        # in-struct: object-granularity blind spot (Table 4's 8 misses).
        _program("instruct_stack_funcptr", "in-struct", HIJACK,
                 in_struct("stack", "funcptr"),
                 location="stack", target="funcptr"),
        _program("instruct_heap_auth", "in-struct", CORRUPTION,
                 in_struct("heap", "auth"), location="heap", target="auth"),
        # adjacent-direct: register bounds intact — everything should fire.
        _program("direct_stack_funcptr", "adjacent-direct", HIJACK,
                 direct_stack_funcptr(), location="stack"),
        _program("direct_heap_neighbour", "adjacent-direct", CORRUPTION,
                 adjacent_direct_heap(), location="heap"),
        # laundered: the int<->pointer cast that blinds MPX, not SGXBounds.
        _program("laundered_heap_funcptr", "adjacent-laundered", HIJACK,
                 laundered("heap", "funcptr"), location="heap"),
        _program("laundered_stack_funcptr", "adjacent-laundered", HIJACK,
                 laundered("stack", "funcptr"), location="stack"),
        # off-by-N: boundary precision, incl. Baggy's padding blind spot.
        _program("offby1_heap_pad", "off-by-n", CORRUPTION, off_by_n(1), n=1),
        _program("offby8_heap_pad", "off-by-n", CORRUPTION, off_by_n(8), n=8),
        # underflow: backwards out of bounds.
        _program("underflow_read_jump", "underflow", INFO_LEAK,
                 underflow_read_jump(), direction="read"),
        _program("underflow_write", "underflow", CORRUPTION,
                 underflow_write(), direction="write"),
        # temporal: out of scope for pure bounds checking.
        _program("uaf_read_recycled", "temporal", INFO_LEAK, uaf_read()),
        _program("double_free", "temporal", CORRUPTION, double_free()),
        # interface: TeeRex-style hostile requests at the enclave boundary.
        _interface("iface_memcached_auth", CORRUPTION, "memcached",
                   (memcached.cve_2011_4971_request(claimed=300),),
                   claimed=300),
        _interface("iface_memcached_auth_dos", CORRUPTION, "memcached",
                   (memcached.cve_2011_4971_request(claimed=2000),),
                   claimed=2000),
        _interface("iface_apache_heartbleed", INFO_LEAK, "apache",
                   (apache.heartbleed_request(claimed=2048),),
                   leak_marker=b"S" * 8, claimed=2048),
        _interface("iface_nginx_chunk", HIJACK, "nginx",
                   (nginx.cve_2013_2028_request(claimed=80),), claimed=80),
    ]
    return tuple(specs)


def compile_twins() -> Tuple[AttackSpec, ...]:
    """Benign boundary twins, one (or more) per attack class."""
    twins: List[AttackSpec] = [
        _program("twin_in_struct", "in-struct", CORRUPTION, in_struct_twin()),
        _program("twin_adjacent", "adjacent-direct", CORRUPTION,
                 adjacent_twin()),
        _program("twin_laundered", "adjacent-laundered", CORRUPTION,
                 laundered_twin()),
        _program("twin_off_by_n", "off-by-n", CORRUPTION, off_by_n_twin()),
        _program("twin_underflow", "underflow", INFO_LEAK, underflow_twin()),
        _program("twin_temporal", "temporal", CORRUPTION, temporal_twin()),
        _interface("twin_memcached_auth", CORRUPTION, "memcached",
                   (memcached.make_request(3, b"user", b"B" * 16),)),
        _interface("twin_apache_heartbeat", INFO_LEAK, "apache",
                   (apache.heartbeat(b"ping-000"),)),
        _interface("twin_nginx_chunk", HIJACK, "nginx",
                   (nginx.chunk_request(b"d" * 32),)),
    ]
    return tuple(twins)


def by_class(specs: Tuple[AttackSpec, ...]) -> Dict[str, List[AttackSpec]]:
    out: Dict[str, List[AttackSpec]] = {}
    for spec in specs:
        out.setdefault(spec.attack_class, []).append(spec)
    return out
