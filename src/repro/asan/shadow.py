"""AddressSanitizer shadow-memory codec (paper §2.2, Figure 3a).

One shadow byte describes one 8-byte granule of application memory:

* ``0`` — fully addressable;
* ``1..7`` — only the first k bytes are addressable (object tail);
* ``>= 8`` — poisoned (redzone / freed / global redzone), using the
  conventional ASan magic values.

Shadow address = (address >> 3) + offset, with the 32-bit layout the paper
forces inside enclaves (512 MiB shadow for a 4 GiB space, §5.2).
"""

from __future__ import annotations

from repro.memory.layout import ASAN_SHADOW_BASE, ASAN_SHADOW_SCALE

GRANULE = 1 << ASAN_SHADOW_SCALE          # 8 bytes per shadow byte

#: Redzone size on each side of an object (scaled from ASan's defaults);
#: the pass pads stack objects by it, the runtime heap and globals.
REDZONE = 32

HEAP_LEFT_RZ = 0xFA
HEAP_RIGHT_RZ = 0xFB
FREED = 0xFD
STACK_RZ = 0xF1
GLOBAL_RZ = 0xF9


def shadow_address(address: int) -> int:
    """Shadow byte describing the granule containing ``address``."""
    return (address >> ASAN_SHADOW_SCALE) + ASAN_SHADOW_BASE


def granule_ok(shadow_value: int, address: int, size: int) -> bool:
    """Whether an access of ``size`` bytes at ``address`` is allowed by the
    (non-zero) shadow value of its granule — the ASan slow-path rule."""
    if shadow_value >= GRANULE:
        return False
    offset = address & (GRANULE - 1)
    return offset + size <= shadow_value


def object_shadow(size: int) -> bytes:
    """Shadow bytes describing an ``size``-byte object starting granule-
    aligned: full granules of 0 plus an optional partial tail byte."""
    full, tail = divmod(size, GRANULE)
    out = b"\x00" * full
    if tail:
        out += bytes((tail,))
    return out
