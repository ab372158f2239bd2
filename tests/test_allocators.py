"""Unit tests for the heap allocators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DoubleFree, OutOfMemory, SegmentationFault
from repro.memory import (
    AddressSpace,
    BuddyAllocator,
    FreeListAllocator,
    MmapAllocator,
    PoolAllocator,
)
from repro.memory.layout import MMAP_BASE, MMAP_LIMIT, PAGE_SIZE


@pytest.fixture
def space():
    return AddressSpace()


@pytest.fixture
def heap(space):
    return FreeListAllocator(space)


class TestFreeList:
    def test_malloc_returns_usable_memory(self, space, heap):
        p = heap.malloc(100)
        space.write(p, b"x" * 100)
        assert space.read(p, 100) == b"x" * 100

    def test_allocations_disjoint(self, space, heap):
        blocks = [heap.malloc(40) for _ in range(50)]
        for i, p in enumerate(blocks):
            space.write_u32(p, i)
        for i, p in enumerate(blocks):
            assert space.read_u32(p) == i

    def test_free_and_reuse(self, heap):
        p = heap.malloc(64)
        heap.free(p)
        q = heap.malloc(64)
        assert q == p    # size-class free list reuses the block

    def test_double_free_detected(self, heap):
        p = heap.malloc(8)
        heap.free(p)
        with pytest.raises(DoubleFree):
            heap.free(p)

    def test_free_of_garbage_detected(self, heap):
        with pytest.raises(DoubleFree):
            heap.free(0x123456)

    def test_calloc_zeroes(self, space, heap):
        p = heap.malloc(64)
        space.fill(p, 0xFF, 64)
        heap.free(p)
        q = heap.calloc(8, 8)
        assert space.read(q, 64) == b"\x00" * 64

    def test_realloc_preserves_prefix(self, space, heap):
        p = heap.malloc(16)
        space.write(p, b"abcdefgh" * 2)
        q = heap.realloc(p, 400)
        assert space.read(q, 16) == b"abcdefgh" * 2

    def test_realloc_within_block_is_in_place(self, heap):
        p = heap.malloc(10)
        assert heap.realloc(p, 14) == p

    def test_large_allocations_use_mmap(self, space, heap):
        p = heap.malloc(512 * 1024)
        assert MMAP_BASE <= p < MMAP_LIMIT
        assert heap.heap_bytes() == 0
        heap.free(p)
        with pytest.raises(SegmentationFault):
            space.read_u8(p)

    def test_usable_size(self, space, heap):
        """A block keeps its requested size: realloc moves exactly that
        many bytes, and once freed it is no longer live."""
        p = heap.malloc(100)
        space.write(p, b"a" * 128)       # fills the 128-byte size class
        q = heap.realloc(p, 4096)
        assert space.read(q, 128) == b"a" * 100 + b"\x00" * 28
        with pytest.raises(DoubleFree):
            heap.free(p)
        heap.free(q)
        with pytest.raises(DoubleFree):
            heap.free(q)

    def test_malloc_zero_allowed(self, heap):
        assert heap.malloc(0) != 0

    @given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1,
                    max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_property_no_overlaps(self, sizes):
        space = AddressSpace()
        heap = FreeListAllocator(space)
        live = {}
        for i, size in enumerate(sizes):
            p = heap.malloc(size)
            for q, qsize in live.items():
                assert p + size <= q or q + qsize <= p, "overlap"
            live[p] = size


class TestMmapAllocator:
    def test_page_granular(self, space):
        mm = MmapAllocator(space)
        p = mm.alloc(100)
        assert p % PAGE_SIZE == 0
        assert space.reserved_bytes == PAGE_SIZE
        assert mm.alloc(1) == p + PAGE_SIZE

    def test_free_unmaps(self, space):
        mm = MmapAllocator(space)
        p = mm.alloc(PAGE_SIZE)
        space.write_u8(p, 1)
        mm.free(p)
        assert space.reserved_bytes == 0
        with pytest.raises(SegmentationFault):
            space.read_u8(p)

    def test_hole_reuse(self, space):
        mm = MmapAllocator(space)
        p = mm.alloc(PAGE_SIZE)
        q = mm.alloc(PAGE_SIZE)
        mm.free(p)
        r = mm.alloc(PAGE_SIZE)
        assert r == p
        assert q != p

    def test_double_free(self, space):
        mm = MmapAllocator(space)
        p = mm.alloc(PAGE_SIZE)
        mm.free(p)
        with pytest.raises(DoubleFree):
            mm.free(p)


class TestBuddy:
    def test_power_of_two_blocks(self, space):
        buddy = BuddyAllocator(space, 1 << 20)
        p = buddy.alloc(100)
        assert (p - buddy.base) % 128 == 0
        assert buddy.alloc(100) == p + 128     # its buddy, split off

    def test_coalescing(self, space):
        buddy = BuddyAllocator(space, 1 << 16)
        a = buddy.alloc(1 << 15)
        b = buddy.alloc(1 << 15)
        buddy.free(a)
        buddy.free(b)
        c = buddy.alloc(1 << 16)   # only possible if buddies coalesced
        assert c is not None

    def test_exhaustion(self, space):
        buddy = BuddyAllocator(space, 1 << 14)
        buddy.alloc(1 << 14)
        with pytest.raises(OutOfMemory):
            buddy.alloc(16)

    def test_double_free(self, space):
        buddy = BuddyAllocator(space, 1 << 14)
        p = buddy.alloc(64)
        buddy.free(p)
        with pytest.raises(DoubleFree):
            buddy.free(p)


class TestPool:
    def test_bump_allocation(self, space):
        pool = PoolAllocator(MmapAllocator(space))
        a = pool.alloc(100)
        b = pool.alloc(100)
        assert b > a
        assert space.reserved_bytes == PAGE_SIZE     # one chunk

    def test_new_chunk_when_full(self, space):
        pool = PoolAllocator(MmapAllocator(space), chunk_size=PAGE_SIZE)
        pool.alloc(PAGE_SIZE - 8)
        pool.alloc(PAGE_SIZE - 8)
        assert space.reserved_bytes == 2 * PAGE_SIZE

    def test_clear_releases_chunks(self, space):
        mm = MmapAllocator(space)
        pool = PoolAllocator(mm)
        pool.alloc(100)
        before = space.reserved_bytes
        pool.clear()
        assert space.reserved_bytes < before
        assert space.reserved_bytes == 0

    def test_per_chunk_overhead_costs_a_page(self, space):
        """The Apache effect: +4 bytes per page-aligned chunk = +1 page."""
        mm = MmapAllocator(space)
        plain = PoolAllocator(mm, chunk_size=PAGE_SIZE)
        padded = PoolAllocator(mm, chunk_size=PAGE_SIZE, overhead=4)
        base = space.reserved_bytes
        plain.alloc(64)
        plain_cost = space.reserved_bytes - base
        base = space.reserved_bytes
        padded.alloc(64)
        padded_cost = space.reserved_bytes - base
        assert padded_cost == plain_cost + PAGE_SIZE
