"""Address-space layout constants for the simulated 32-bit enclave.

SGXBounds relies on the enclave's virtual address space starting at 0x0 and
fitting in 32 bits (paper §3.1, §5.1): the low 32 bits of a 64-bit register
hold the pointer, the high 32 bits the upper bound.  This module pins down
where each region of the simulated enclave lives.

The last 4 KiB page of the address space is a guard page, marked
unaddressable so that hoisted loop bounds checks remain sound under integer
over/underflow of the loop counter (paper §4.4).
"""

from __future__ import annotations

PAGE_SIZE = 4096
PAGE_SHIFT = 12
PAGE_MASK = PAGE_SIZE - 1

ADDRESS_BITS = 32
ADDRESS_SPACE_SIZE = 1 << ADDRESS_BITS
ADDRESS_MASK = ADDRESS_SPACE_SIZE - 1

WORD_SIZE = 8          # registers are 64-bit
POINTER_SIZE = 8       # pointers occupy 8 bytes in memory (tagged or not)
BOUND_TAG_SHIFT = 32   # upper bound lives in bits [32, 64)

#: Page 0 is never mapped: null-pointer dereferences fault.
NULL_REGION_END = PAGE_SIZE

#: Functions are assigned fake "code addresses" in this region; it is never
#: memory-backed.  Indirect calls and return addresses are validated against
#: the code-address table, so a corrupted code pointer is detectable.
CODE_BASE = 0x0000_1000
CODE_LIMIT = 0x0010_0000
CODE_SLOT = 16         # each function occupies one 16-byte slot

#: Global variables.
GLOBALS_BASE = 0x0010_0000
GLOBALS_LIMIT = 0x0040_0000

#: brk-managed heap (grows upward).
HEAP_BASE = 0x0040_0000
HEAP_LIMIT = 0x2000_0000

#: AddressSanitizer's shadow region (1/8 of the 4 GiB space = 512 MiB),
#: matching the 32-bit ASan layout the paper forces (§5.2).
ASAN_SHADOW_BASE = 0x2000_0000
ASAN_SHADOW_SIZE = ADDRESS_SPACE_SIZE // 8          # 512 MiB
ASAN_SHADOW_LIMIT = ASAN_SHADOW_BASE + ASAN_SHADOW_SIZE
ASAN_SHADOW_SCALE = 3                               # 1 shadow byte per 8 bytes

#: mmap region for large allocations, bounds tables, pools, overlay chunks.
MMAP_BASE = 0x4000_0000
MMAP_LIMIT = 0xF000_0000

#: Per-thread stacks grow downward from just below the guard page.
STACK_REGION_BASE = 0xF000_0000
STACK_TOP = 0xFFFF_F000
DEFAULT_STACK_SIZE = 256 * 1024

#: The unaddressable guard page (paper §4.4).
GUARD_PAGE_BASE = 0xFFFF_F000


def page_align_up(value: int) -> int:
    """Round ``value`` up to the next page boundary."""
    return (value + PAGE_MASK) & ~PAGE_MASK


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to a multiple of ``alignment`` (a power of two)."""
    return (value + alignment - 1) & ~(alignment - 1)


def in_code_region(address: int) -> bool:
    """Whether ``address`` denotes a function code slot."""
    return CODE_BASE <= address < CODE_LIMIT
