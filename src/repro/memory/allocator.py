"""Heap allocators for the simulated enclave.

Three allocators cover the allocation patterns the paper's workloads exercise:

* :class:`FreeListAllocator` — the default ``malloc``: segregated free lists
  over a brk-grown heap, with an mmap path for large blocks.  Per-scheme
  runtimes wrap it (SGXBounds appends 4 bytes of metadata, ASan adds
  redzones and a quarantine, …).
* :class:`MmapAllocator` — page-granular allocations in the mmap region;
  also used directly by MPX bounds tables, the boundless-memory overlay and
  the Apache-like pool allocator (whose page-aligned requests are what make
  SGXBounds' extra 4 bytes cost a whole page — paper §7).
* :class:`BuddyAllocator` — power-of-two allocation bounds, the mechanism
  behind the Baggy Bounds baseline we implement as an extension (§2.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import DoubleFree, OutOfMemory
from repro.memory.address_space import AddressSpace, PERM_RW
from repro.memory.layout import (
    HEAP_BASE,
    HEAP_LIMIT,
    MMAP_BASE,
    MMAP_LIMIT,
    PAGE_SIZE,
    align_up,
    page_align_up,
)

#: Allocations at or above this go straight to the mmap region.
MMAP_THRESHOLD = 128 * 1024

#: Heap pages are mapped in chunks of this size to bound mapping churn.
_BRK_CHUNK = 64 * 1024

_MIN_BLOCK = 16


def _size_class(size: int) -> int:
    """Smallest power-of-two block size that fits ``size`` bytes."""
    block = _MIN_BLOCK
    while block < size:
        block <<= 1
    return block


class MmapAllocator:
    """Page-granular allocator over the mmap region.

    Freed ranges are unmapped and recycled first-fit, so address space is
    reused but ``reserved_bytes`` genuinely shrinks on free — matching how
    the paper measures virtual-memory footprints.
    """

    def __init__(self, space: AddressSpace, base: int = MMAP_BASE,
                 limit: int = MMAP_LIMIT):
        self._space = space
        self._base = base
        self._limit = limit
        self._cursor = base
        self._holes: List[Tuple[int, int]] = []   # (addr, size), sorted by addr
        self._live: Dict[int, int] = {}

    def alloc(self, size: int, name: str = "mmap") -> int:
        """Map and return ``size`` (page-rounded) bytes of zeroed memory."""
        size = page_align_up(max(size, 1))
        for i, (addr, hole) in enumerate(self._holes):
            if hole >= size:
                if hole == size:
                    self._holes.pop(i)
                else:
                    self._holes[i] = (addr + size, hole - size)
                self._space.map(addr, size, PERM_RW, name)
                self._live[addr] = size
                return addr
        if self._cursor + size > self._limit:
            raise OutOfMemory(size, "mmap region exhausted")
        addr = self._cursor
        self._cursor += size
        self._space.map(addr, size, PERM_RW, name)
        self._live[addr] = size
        return addr

    def free(self, addr: int) -> None:
        """Unmap a previous :meth:`alloc`."""
        size = self._live.pop(addr, None)
        if size is None:
            raise DoubleFree(addr)
        self._space.unmap(addr, size)
        self._holes.append((addr, size))
        self._holes.sort()

    def size_of(self, addr: int) -> Optional[int]:
        return self._live.get(addr)

    def snapshot(self) -> tuple:
        """Allocation state by value (a fleet worker's VM reset)."""
        return self._cursor, list(self._holes), dict(self._live)

    def restore(self, state: tuple) -> None:
        cursor, holes, live = state
        self._cursor, self._holes, self._live = cursor, list(holes), dict(live)


class FreeListAllocator:
    """Segregated-free-list ``malloc`` over a brk-grown heap.

    Allocation metadata lives in Python dictionaries, not in simulated
    memory: heap overflows in the simulated program therefore corrupt
    *neighbouring objects* (the attack the paper defends against), never the
    allocator itself.
    """

    def __init__(self, space: AddressSpace, base: int = HEAP_BASE,
                 limit: int = HEAP_LIMIT):
        self._space = space
        self._base = base
        self._limit = limit
        self._brk = base              # next unallocated heap byte
        self._mapped_end = base       # heap is mapped up to here
        self._free: Dict[int, List[int]] = {}
        self._live: Dict[int, int] = {}       # addr -> requested size
        self._block: Dict[int, int] = {}      # addr -> block (class) size
        self.mmap = MmapAllocator(space)
        self.total_allocs = 0
        self.total_frees = 0

    # -- internal -------------------------------------------------------
    def _grow_heap_to(self, end: int) -> None:
        if end <= self._mapped_end:
            return
        if end > self._limit:
            raise OutOfMemory(end - self._brk, "heap limit reached")
        new_end = min(self._limit, align_up(end, _BRK_CHUNK))
        self._space.map(self._mapped_end, new_end - self._mapped_end,
                        PERM_RW, "heap")
        self._mapped_end = new_end

    # -- public ---------------------------------------------------------
    def malloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the address (never 0)."""
        if size <= 0:
            size = 1
        self.total_allocs += 1
        if size >= MMAP_THRESHOLD:
            addr = self.mmap.alloc(size, "malloc-large")
            self._live[addr] = size
            self._block[addr] = page_align_up(size)
            return addr
        block = _size_class(size)
        bucket = self._free.get(block)
        if bucket:
            addr = bucket.pop()
        else:
            addr = align_up(self._brk, _MIN_BLOCK)
            self._grow_heap_to(addr + block)
            self._brk = addr + block
        self._live[addr] = size
        self._block[addr] = block
        return addr

    def calloc(self, count: int, size: int) -> int:
        total = count * size
        addr = self.malloc(total)
        self._space.fill(addr, 0, total)
        return addr

    def realloc(self, addr: int, size: int) -> int:
        if addr == 0:
            return self.malloc(size)
        old_size = self._live.get(addr)
        if old_size is None:
            raise DoubleFree(addr)
        if size <= self._block[addr] and self._block[addr] < MMAP_THRESHOLD:
            self._live[addr] = size
            return addr
        new = self.malloc(size)
        self._space.write(new, self._space.read(addr, min(old_size, size)))
        self.free(addr)
        return new

    def free(self, addr: int) -> None:
        if addr == 0:
            return
        size = self._live.pop(addr, None)
        if size is None:
            raise DoubleFree(addr)
        self.total_frees += 1
        block = self._block.pop(addr)
        if size >= MMAP_THRESHOLD:
            self.mmap.free(addr)
            return
        self._free.setdefault(block, []).append(addr)

    def usable_size(self, addr: int) -> Optional[int]:
        """Requested size of a live allocation, or None."""
        return self._live.get(addr)

    def is_live(self, addr: int) -> bool:
        return addr in self._live

    def live_bytes(self) -> int:
        return sum(self._live.values())

    def heap_bytes(self) -> int:
        """Bytes of heap address space consumed so far (brk high-water)."""
        return self._mapped_end - self._base

    def snapshot(self) -> tuple:
        """Heap and mmap allocation state by value (a fleet worker's VM
        reset)."""
        return (self._brk, self._mapped_end,
                {block: list(free) for block, free in self._free.items()},
                dict(self._live), dict(self._block), self.total_allocs,
                self.total_frees, self.mmap.snapshot())

    def restore(self, state: tuple) -> None:
        self._brk, self._mapped_end, free, live, block, self.total_allocs, \
            self.total_frees, mmap = state
        self._free = {size: list(addrs) for size, addrs in free.items()}
        self._live, self._block = dict(live), dict(block)
        self.mmap.restore(mmap)


class BuddyAllocator:
    """Power-of-two buddy allocator over a dedicated arena.

    Used by the Baggy-Bounds-style extension scheme: every object's
    *allocation* bounds become its power-of-two block, so base and size are
    derivable from the pointer alone (paper §2.2).
    """

    MIN_ORDER = 4    # 16-byte minimum block

    #: Buddy arenas live at the very top of the mmap region, above the
    #: addresses the first-fit :class:`MmapAllocator` hands out in practice.
    ARENA_TOP = MMAP_LIMIT

    def __init__(self, space: AddressSpace, arena_size: int = 8 * 1024 * 1024,
                 top: int = 0):
        arena_size = 1 << (arena_size - 1).bit_length()
        self._space = space
        self._size = arena_size
        self._base = (top or self.ARENA_TOP) - arena_size
        space.map(self._base, arena_size, PERM_RW, "buddy-arena")
        self._max_order = arena_size.bit_length() - 1
        self._free: Dict[int, List[int]] = {self._max_order: [self._base]}
        self._live: Dict[int, int] = {}   # addr -> order

    @property
    def base(self) -> int:
        return self._base

    def _order_for(self, size: int) -> int:
        order = max(self.MIN_ORDER, (max(size, 1) - 1).bit_length())
        if (1 << order) < size:
            order += 1
        return order

    def alloc(self, size: int) -> int:
        """Allocate a power-of-two block of at least ``size`` bytes."""
        order = self._order_for(size)
        current = order
        while current <= self._max_order and not self._free.get(current):
            current += 1
        if current > self._max_order:
            raise OutOfMemory(size, "buddy arena exhausted")
        addr = self._free[current].pop()
        while current > order:
            current -= 1
            buddy = addr + (1 << current)
            self._free.setdefault(current, []).append(buddy)
        self._live[addr] = order
        return addr

    def free(self, addr: int) -> None:
        order = self._live.pop(addr, None)
        if order is None:
            raise DoubleFree(addr)
        while order < self._max_order:
            buddy = self._base + ((addr - self._base) ^ (1 << order))
            bucket = self._free.get(order, [])
            if buddy in bucket:
                bucket.remove(buddy)
                addr = min(addr, buddy)
                order += 1
            else:
                break
        self._free.setdefault(order, []).append(addr)

    def snapshot(self) -> tuple:
        """Free lists and live blocks by value (a fleet worker's VM
        reset); the arena itself is fixed."""
        return ({order: list(free) for order, free in self._free.items()},
                dict(self._live))

    def restore(self, state: tuple) -> None:
        free, live = state
        self._free = {order: list(addrs) for order, addrs in free.items()}
        self._live = dict(live)

    def block_bounds(self, addr: int) -> Tuple[int, int]:
        """(base, size) of the power-of-two block containing ``addr``."""
        for base, order in self._live.items():
            size = 1 << order
            if base <= addr < base + size:
                return base, size
        raise KeyError(f"0x{addr:08x} not in any live buddy block")


class PoolAllocator:
    """Apache-apr-style pool: page-aligned chunks, bump allocation, bulk free.

    The paper attributes Apache's 50% SGXBounds memory increase to this
    pattern: the pool requests page-aligned amounts, so 4 extra metadata
    bytes force an entire extra page.
    """

    def __init__(self, mmap: MmapAllocator, chunk_size: int = PAGE_SIZE,
                 overhead: int = 0):
        self._mmap = mmap
        self._chunk_size = chunk_size
        self._overhead = overhead    # per-chunk metadata a scheme appends
        self._chunks: List[int] = []
        self._cursor = 0
        self._chunk_end = 0

    def alloc(self, size: int) -> int:
        """Bump-allocate ``size`` bytes from the current chunk."""
        size = align_up(size, 8)
        if self._cursor + size > self._chunk_end:
            want = max(self._chunk_size, size) + self._overhead
            chunk = self._mmap.alloc(want, "pool-chunk")
            self._chunks.append(chunk)
            self._cursor = chunk
            self._chunk_end = chunk + max(self._chunk_size, size)
        addr = self._cursor
        self._cursor += size
        return addr

    def clear(self) -> None:
        """Release every chunk (apr_pool_destroy)."""
        for chunk in self._chunks:
            self._mmap.free(chunk)
        self._chunks.clear()
        self._cursor = 0
        self._chunk_end = 0

    @property
    def chunk_count(self) -> int:
        return len(self._chunks)
