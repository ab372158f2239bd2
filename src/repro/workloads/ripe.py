"""RIPE-style runtime intrusion prevention evaluator (paper §6.6, Table 4).

Sixteen buffer-overflow attacks in two families, mirroring the categories
behind the paper's numbers:

* **In-struct overflows (8)** — the vulnerable buffer and the attack target
  (function pointer or authorization flag) live in the *same* struct, at
  stack/heap/data/bss locations.  Object-granularity schemes cannot see
  these: AddressSanitizer and SGXBounds both miss all 8 (paper: "the
  in-struct overflows could not be detected because both operate at the
  granularity of whole objects"), and MPX misses them too because bounds
  narrowing is disabled (§6.1).

* **Adjacent-object overflows (8)** — a contiguous overflow from a buffer
  into a neighbouring object or the return address.  Two are *direct*
  stack smashes (the only ones the paper's MPX caught); the other six
  launder the attack pointer through an integer-typed memory slot, which
  strips MPX's bounds (no bndldx for a non-pointer load — the gcc-MPX
  blind spot) while AddressSanitizer's shadow bytes and SGXBounds' tag
  (which survives arbitrary int<->pointer casts, §3.2) still catch them.

Expected Table 4: MPX 2/16, AddressSanitizer 8/16, SGXBounds 8/16.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import (
    BoundsViolation,
    ControlFlowHijack,
    DoubleFree,
    OutOfMemory,
    ReproError,
    SegmentationFault,
)
from repro.minic import compile_source
from repro.vm.machine import build_vm
from repro.vm.scheme import SchemeRuntime

PREVENTED = "prevented"
SUCCEEDED = "succeeded"
FAILED = "failed"

_PRELUDE = r"""
int g_flag;
int evil() { g_flag = 1; return 1; }
int benign() { return 0; }
"""


def _in_struct(location: str, target: str) -> str:
    """In-struct overflow: buffer and target inside one struct."""
    struct_def = """
    struct Victim { char buf[16]; fnptr handler; int auth; };
    """
    if location == "data":
        decl = "struct Victim g_victim = { \"x\", 0, 0 };\n"
        obtain = "struct Victim *v = &g_victim;"
    elif location == "bss":
        decl = "struct Victim g_victim;\n"
        obtain = "struct Victim *v = &g_victim;"
    elif location == "heap":
        decl = ""
        obtain = "struct Victim *v = (struct Victim*)malloc(sizeof(struct Victim));"
    else:   # stack
        decl = ""
        obtain = "struct Victim vs; struct Victim *v = &vs;"
    if target == "funcptr":
        payload = """
        uint evil_addr = (uint)evil;
        for (int i = 0; i < 24; i++) {
            char byte = (char)0xAA;
            if (i >= 16) byte = (char)(evil_addr >> ((i - 16) * 8));
            v->buf[i] = byte;           // runs past buf into handler
        }
        v->handler();
        """
    else:
        payload = """
        for (int i = 0; i < 28; i++) v->buf[i] = (char)0x01;  // hits auth
        if (v->auth) g_flag = 1;
        """
    return (_PRELUDE + struct_def + decl + f"""
int main() {{
    {obtain}
    v->handler = benign;
    v->auth = 0;
    {payload}
    return g_flag;
}}
""")


def _direct_stack_funcptr() -> str:
    """Direct loop smash of an adjacent stack function pointer — one of
    the two attacks MPX detects (register bounds are intact)."""
    return _PRELUDE + r"""
int main() {
    char buf[24];
    fnptr handler[1];
    handler[0] = benign;
    int delta = (int)(((uint)handler & 0xFFFFFFFF) - ((uint)buf & 0xFFFFFFFF));
    uint evil_addr = (uint)evil;
    for (int i = 0; i < delta + 8; i++) {
        char byte = (char)0xAA;
        if (i >= delta) byte = (char)(evil_addr >> ((i - delta) * 8));
        buf[i] = byte;
    }
    handler[0]();
    return g_flag;
}
"""


def _direct_stack_retaddr() -> str:
    """Classic return-address smash (fixed native frame layout)."""
    return _PRELUDE + r"""
int vulnerable() {
    char buf[24];
    uint evil_addr = (uint)evil;
    // Native frame: buf at offset 0, return slot at offset 32.
    for (int i = 0; i < 40; i++) {
        char byte = (char)0xAA;
        if (i >= 32) byte = (char)(evil_addr >> ((i - 32) * 8));
        buf[i] = byte;
    }
    return 0;
}
int main() { vulnerable(); return g_flag; }
"""


def _laundered(location: str, target: str, via_memcpy: bool = False) -> str:
    """Adjacent-object overflow through an integer-laundered pointer."""
    if location == "heap":
        setup = """
        char *buf = (char*)malloc(24);
        char *tgt_obj = (char*)malloc(24);
        fnptr *handler = (fnptr*)tgt_obj;
        """
    elif location == "data":
        setup = """
        char *buf = g_buf;
        fnptr *handler = g_handler;
        """
    else:   # stack
        setup = """
        char sbuf[24];
        fnptr shandler[1];
        char *buf = sbuf;
        fnptr *handler = shandler;
        """
    globals_decl = ""
    if location == "data":
        globals_decl = "char g_buf[24];\nfnptr g_handler[1];\n"
    if target == "funcptr":
        finish = "handler[0]();"
        evil_value = "(uint)evil"
    else:
        finish = "if ((int)handler[0]) g_flag = 1;"
        evil_value = "(uint)1"
    overflow = r"""
    for (int i = 0; i < delta + 8; i++) {
        char byte = (char)0xAA;
        if (i >= delta) byte = (char)(evil_addr >> ((i - delta) * 8));
        lp[i] = byte;
    }
    """
    if via_memcpy:
        overflow = r"""
    char payload[96];
    for (int i = 0; i < delta + 8 && i < 96; i++) {
        char byte = (char)0xAA;
        if (i >= delta) byte = (char)(evil_addr >> ((i - delta) * 8));
        payload[i] = byte;
    }
    memcpy(lp, payload, delta + 8);
    """
    return (_PRELUDE + globals_decl + f"""
uint g_slot;
int main() {{
    {setup}
    handler[0] = benign;
    int delta = (int)(((uint)handler & 0xFFFFFFFF) - ((uint)buf & 0xFFFFFFFF));
    if (delta < 0 || delta > 512) return 0;  // layout surprise: abort attack
    uint evil_addr = {evil_value};
    g_slot = (uint)buf;            // launder: pointer through integer slot
    char *lp = (char*)g_slot;      // MPX bounds lost; SGXBounds tag intact
    {overflow}
    {finish}
    return g_flag;
}}
""")


#: All sixteen attacks: name -> (family, MiniC source).
ATTACKS: Dict[str, Tuple[str, str]] = {
    # -- in-struct (8): undetectable at object granularity ------------------
    "instruct_stack_funcptr": ("in-struct", _in_struct("stack", "funcptr")),
    "instruct_stack_auth": ("in-struct", _in_struct("stack", "auth")),
    "instruct_heap_funcptr": ("in-struct", _in_struct("heap", "funcptr")),
    "instruct_heap_auth": ("in-struct", _in_struct("heap", "auth")),
    "instruct_data_funcptr": ("in-struct", _in_struct("data", "funcptr")),
    "instruct_data_auth": ("in-struct", _in_struct("data", "auth")),
    "instruct_bss_funcptr": ("in-struct", _in_struct("bss", "funcptr")),
    "instruct_bss_auth": ("in-struct", _in_struct("bss", "auth")),
    # -- adjacent-object, direct (2): the ones MPX catches -------------------
    "direct_stack_funcptr": ("adjacent-direct", _direct_stack_funcptr()),
    "direct_stack_retaddr": ("adjacent-direct", _direct_stack_retaddr()),
    # -- adjacent-object, laundered pointer (6): MPX-blind --------------------
    "laundered_heap_funcptr": ("adjacent-laundered",
                               _laundered("heap", "funcptr")),
    "laundered_heap_auth": ("adjacent-laundered", _laundered("heap", "auth")),
    "laundered_data_funcptr": ("adjacent-laundered",
                               _laundered("data", "funcptr")),
    "laundered_data_auth": ("adjacent-laundered", _laundered("data", "auth")),
    "laundered_stack_funcptr": ("adjacent-laundered",
                                _laundered("stack", "funcptr")),
    "laundered_heap_memcpy": ("adjacent-laundered",
                              _laundered("heap", "funcptr", via_memcpy=True)),
}


def run_attack(name: str,
               scheme: Optional[SchemeRuntime] = None) -> str:
    """Run one attack under ``scheme``; returns prevented/succeeded/failed."""
    _, source = ATTACKS[name]
    vm, image = build_vm(compile_source(source, name), scheme)
    vm.load(image)
    try:
        result = vm.run("main")
    except BoundsViolation:
        return PREVENTED
    except ControlFlowHijack:
        return SUCCEEDED
    except (SegmentationFault, DoubleFree, OutOfMemory, ReproError):
        return FAILED
    return SUCCEEDED if result == 1 else FAILED


def ripe_table(factories: Dict[str, Callable[[], Optional[SchemeRuntime]]]
               ) -> Dict[str, Dict[str, str]]:
    """outcome[scheme][attack] for every attack under every scheme."""
    table: Dict[str, Dict[str, str]] = {}
    for label, factory in factories.items():
        table[label] = {
            name: run_attack(name, factory()) for name in ATTACKS
        }
    return table


def prevented_count(outcomes: Dict[str, str]) -> int:
    return sum(1 for o in outcomes.values() if o == PREVENTED)
