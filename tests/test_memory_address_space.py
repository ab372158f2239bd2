"""Unit tests for the paged 32-bit address space."""

import random

import pytest

from repro.asan import ASanScheme
from repro.baggy.runtime import BaggyScheme
from repro.errors import GuardPageFault, OutOfMemory, SegmentationFault
from repro.memory import (
    AddressSpace,
    PERM_GUARD,
    PERM_NONE,
    PERM_READ,
    PERM_RW,
    PERM_WRITE,
    layout,
)
from repro.vm import VM
from repro.vm.fastpath import _fast_reader, _fast_writer
from tests.util import is_accessible, is_mapped


@pytest.fixture
def space():
    return AddressSpace()


class TestMapping:
    def test_map_and_rw(self, space):
        space.map(0x10000, 0x2000)
        space.write(0x10010, b"hello")
        assert space.read(0x10010, 5) == b"hello"

    def test_unmapped_read_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.read(0x50000, 1)

    def test_unmapped_write_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.write(0x50000, b"x")

    def test_map_rounds_to_pages(self, space):
        region = space.map(0x10000, 100)
        assert region.size == layout.PAGE_SIZE

    def test_unaligned_map_rejected(self, space):
        with pytest.raises(ValueError):
            space.map(0x10001, 0x1000)

    def test_double_map_rejected(self, space):
        space.map(0x10000, 0x1000)
        with pytest.raises(OutOfMemory):
            space.map(0x10000, 0x1000)

    def test_unmap_releases(self, space):
        space.map(0x10000, 0x1000)
        space.unmap(0x10000, 0x1000)
        with pytest.raises(SegmentationFault):
            space.read(0x10000, 1)

    def test_unmap_unmapped_faults(self, space):
        with pytest.raises(SegmentationFault):
            space.unmap(0x10000, 0x1000)

    def test_reserved_accounting(self, space):
        space.map(0x10000, 0x3000)
        assert space.reserved_bytes == 0x3000
        space.unmap(0x10000, 0x3000)
        assert space.reserved_bytes == 0
        assert space.peak_reserved == 0x3000

    def test_beyond_32bit_rejected(self, space):
        with pytest.raises(OutOfMemory):
            space.map(0xFFFFF000, 0x2000)


class TestPermissions:
    def test_readonly_write_faults(self, space):
        space.map(0x10000, 0x1000, PERM_READ)
        assert space.read(0x10000, 4) == b"\x00" * 4
        with pytest.raises(SegmentationFault):
            space.write(0x10000, b"x")

    def test_guard_page_faults_both_ways(self, space):
        space.map(0x10000, 0x1000, PERM_GUARD)
        with pytest.raises(GuardPageFault):
            space.read(0x10000, 1)
        with pytest.raises(GuardPageFault):
            space.write(0x10000, b"x")

    def test_guard_counts_as_mapped(self, space):
        space.map(0x10000, 0x1000, PERM_GUARD)
        assert is_mapped(space, 0x10000)
        assert not is_accessible(space, 0x10000)

    def test_protect_changes_perms(self, space):
        space.map(0x10000, 0x1000, PERM_RW)
        space.protect(0x10000, 0x1000, PERM_READ)
        with pytest.raises(SegmentationFault):
            space.write(0x10000, b"x")


class TestTypedAccess:
    def test_u8_u16_u32_u64_roundtrip(self, space):
        space.map(0x10000, 0x1000)
        space.write_u8(0x10000, 0xAB)
        space.write_u16(0x10010, 0xBEEF)
        space.write_u32(0x10020, 0xDEADBEEF)
        space.write_u64(0x10030, 0x0123456789ABCDEF)
        assert space.read_u8(0x10000) == 0xAB
        assert space.read_u16(0x10010) == 0xBEEF
        assert space.read_u32(0x10020) == 0xDEADBEEF
        assert space.read_u64(0x10030) == 0x0123456789ABCDEF

    def test_f64_roundtrip(self, space):
        space.map(0x10000, 0x1000)
        space.write_f64(0x10008, -2.5e10)
        assert space.read_f64(0x10008) == -2.5e10

    def test_little_endian(self, space):
        space.map(0x10000, 0x1000)
        space.write_u32(0x10000, 0x11223344)
        assert space.read(0x10000, 4) == b"\x44\x33\x22\x11"

    def test_values_masked_to_width(self, space):
        space.map(0x10000, 0x1000)
        space.write_u8(0x10000, 0x1FF)
        assert space.read_u8(0x10000) == 0xFF

    def test_cross_page_access(self, space):
        space.map(0x10000, 0x2000)
        space.write_u64(0x10FFC, 0x1122334455667788)
        assert space.read_u64(0x10FFC) == 0x1122334455667788

    def test_cross_page_into_unmapped_faults(self, space):
        space.map(0x10000, 0x1000)
        with pytest.raises(SegmentationFault):
            space.write_u64(0x10FFC, 1)

    def test_cstring(self, space):
        space.map(0x10000, 0x1000)
        space.write(0x10000, b"hello\x00world")
        assert space.read_cstring(0x10000) == b"hello"

    def test_fill(self, space):
        space.map(0x10000, 0x1000)
        space.fill(0x10000, 0x5A, 64)
        assert space.read(0x10000, 64) == b"\x5A" * 64


class TestTracerAndCommit:
    def test_tracer_sees_accesses(self, space):
        events = []
        space.map(0x10000, 0x1000)
        space.tracer = lambda a, s, w: events.append((a, s, w))
        space.write_u32(0x10000, 1)
        space.read_u32(0x10000)
        assert events == [(0x10000, 4, True), (0x10000, 4, False)]

    def test_commit_limit_enforced(self):
        space = AddressSpace(commit_limit=2 * layout.PAGE_SIZE)
        space.map(0x10000, 0x4000)
        space.write_u8(0x10000, 1)
        space.write_u8(0x11000, 1)
        with pytest.raises(OutOfMemory):
            space.write_u8(0x12000, 1)

    def test_commit_limit_counts_materialized_not_reserved(self):
        space = AddressSpace(commit_limit=2 * layout.PAGE_SIZE)
        space.map(0x10000, 0x100000)   # large reservation is fine
        space.write_u8(0x10000, 1)     # only materialization counts


class TestRegions:
    def test_partial_unmap_splits_region(self, space):
        space.map(0x10000, 0x4000, name="blk")
        space.unmap(0x11000, 0x2000)
        assert [(r.start, r.size) for r in space.regions] == \
            [(0x10000, 0x1000), (0x13000, 0x1000)]
        assert space.stats()["regions"] == 2
        space.map(0x11000, 0x2000, name="hole")
        assert space.stats()["regions"] == 3
        space.unmap(0x10000, 0x4000)
        assert space.regions == []

    def test_unmap_trims_region_edges(self, space):
        space.map(0x10000, 0x3000)
        space.unmap(0x10000, 0x1000)
        space.unmap(0x12000, 0x1000)
        assert [(r.start, r.size) for r in space.regions] == [(0x11000, 0x1000)]


class TestRunMapScaling:
    """Reserving metadata costs one run, not one entry per page."""

    def _assert_lazy(self, space, min_mapped):
        stats = space.stats()
        assert stats["mapped_pages"] >= min_mapped
        assert stats["materialized_pages"] < 16
        assert len(space._perms) == stats["materialized_pages"]
        assert len(space._runs) <= 4

    def test_asan_shadow(self):
        self._assert_lazy(VM(scheme=ASanScheme()).space, 131_072)

    def test_baggy_table_and_arena(self):
        self._assert_lazy(VM(scheme=BaggyScheme()).space, 67_584)

    def test_adjacent_equal_runs_coalesce(self, space):
        for i in range(8):
            space.map(0x10000 + i * 0x1000, 0x1000)
        assert len(space._runs) == 1
        space.protect(0x12000, 0x1000, PERM_READ)
        assert len(space._runs) == 3
        space.protect(0x12000, 0x1000, PERM_RW)
        assert len(space._runs) == 1


# ---------------------------------------------------------------------------
# Differential check of the run map against a per-page reference model
# ---------------------------------------------------------------------------

class PageDictModel:
    """One dict entry per mapped page: the straightforward reference."""

    def __init__(self, commit_limit=0):
        self.commit_limit = commit_limit
        self.perms = {}       # page -> perms
        self.owner = {}       # page -> serial of the map() that mapped it
        self.pages = {}       # page -> bytearray, materialized only
        self.maps = 0
        self.reserved = self.peak = 0

    def map(self, start, size, perms):
        if start & layout.PAGE_MASK:
            raise ValueError(f"unaligned mapping at 0x{start:08x}")
        size = layout.page_align_up(size)
        if size <= 0:
            raise ValueError("mapping size must be positive")
        if start + size > layout.ADDRESS_SPACE_SIZE:
            raise OutOfMemory(size, "mapping beyond 32-bit address space")
        first = start >> layout.PAGE_SHIFT
        span = range(first, first + (size >> layout.PAGE_SHIFT))
        for idx in span:
            if idx in self.perms:
                raise OutOfMemory(size, f"page 0x{idx << layout.PAGE_SHIFT:08x} already mapped")
        self.maps += 1
        for idx in span:
            self.perms[idx] = perms
            self.owner[idx] = self.maps
        self.reserved += size
        self.peak = max(self.peak, self.reserved)

    def unmap(self, start, size):
        if start & layout.PAGE_MASK:
            raise ValueError(f"unaligned unmap at 0x{start:08x}")
        size = layout.page_align_up(size)
        first = start >> layout.PAGE_SHIFT
        span = range(first, first + (size >> layout.PAGE_SHIFT))
        for idx in span:
            if idx not in self.perms:
                raise SegmentationFault(idx << layout.PAGE_SHIFT, layout.PAGE_SIZE,
                                        "unmap of unmapped page")
        for idx in span:
            del self.perms[idx], self.owner[idx]
            self.pages.pop(idx, None)
        self.reserved -= size

    def protect(self, start, size, perms):
        first = start >> layout.PAGE_SHIFT
        for idx in range(first, first + (layout.page_align_up(size) >> layout.PAGE_SHIFT)):
            if idx not in self.perms:
                raise SegmentationFault(idx << layout.PAGE_SHIFT, layout.PAGE_SIZE,
                                        "protect of unmapped page")
            self.perms[idx] = perms

    def _page(self, idx, write, address, size):
        kind = "write" if write else "read"
        perms = self.perms.get(idx)
        if perms is None:
            raise SegmentationFault(address, size, kind)
        if perms & PERM_GUARD:
            raise GuardPageFault(address, size)
        if not perms & (PERM_WRITE if write else PERM_READ):
            raise SegmentationFault(address, size, kind)
        if idx not in self.pages:
            if self.commit_limit and \
                    (len(self.pages) + 1) * layout.PAGE_SIZE > self.commit_limit:
                raise OutOfMemory(layout.PAGE_SIZE, "enclave commit limit reached")
            self.pages[idx] = bytearray(layout.PAGE_SIZE)
        return self.pages[idx]

    def _chunks(self, address, size, write):
        cursor, end = address, address + size
        while cursor < end:
            offset = cursor & layout.PAGE_MASK
            chunk = min(layout.PAGE_SIZE - offset, end - cursor)
            yield self._page(cursor >> layout.PAGE_SHIFT, write, cursor, chunk), \
                offset, chunk
            cursor += chunk

    def read(self, address, size):
        return b"".join(bytes(page[off:off + n])
                        for page, off, n in self._chunks(address, size, False))

    def write(self, address, data):
        taken = 0
        for page, off, n in self._chunks(address, len(data), True):
            page[off:off + n] = data[taken:taken + n]
            taken += n

    def is_mapped(self, address):
        return (address >> layout.PAGE_SHIFT) in self.perms

    def is_accessible(self, address):
        return bool(self.perms.get(address >> layout.PAGE_SHIFT, PERM_NONE) & PERM_READ)

    def stats(self):
        # A region is a maximal stretch of contiguous pages from one map().
        regions, prev = 0, None
        for idx in sorted(self.perms):
            if prev is None or idx != prev + 1 or self.owner[idx] != self.owner[prev]:
                regions += 1
            prev = idx
        return {"reserved_bytes": self.reserved, "peak_reserved": self.peak,
                "materialized_pages": len(self.pages),
                "mapped_pages": len(self.perms), "regions": regions}


_BASE_PAGE = 0x10
_WINDOW = 24       # pages the random operations roam over
_PERM_CHOICES = (PERM_RW, PERM_RW, PERM_READ, PERM_GUARD, PERM_NONE, PERM_WRITE)


def _outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except (SegmentationFault, OutOfMemory, ValueError) as exc:
        return (type(exc), str(exc))


def _random_op(rng, space):
    page = layout.PAGE_SIZE
    roll = rng.random()
    if roll < 0.2:
        start = (_BASE_PAGE + rng.randrange(_WINDOW)) * page
        if rng.random() < 0.05:
            start += 1
        return "map", (start, rng.randrange(1, 6) * page - rng.randrange(page),
                       rng.choice(_PERM_CHOICES))
    if roll < 0.32:
        if space.regions and rng.random() < 0.7:
            region = rng.choice(space.regions)
            first = rng.randrange(region.size // page)
            if rng.random() < 0.5:
                return "unmap", (region.start, region.size)
            count = rng.randrange(1, region.size // page - first + 1)
            return "unmap", (region.start + first * page, count * page)
        return "unmap", ((_BASE_PAGE + rng.randrange(_WINDOW)) * page,
                         rng.randrange(1, 5) * page)
    if roll < 0.45:
        start = (_BASE_PAGE + rng.randrange(_WINDOW)) * page
        return "protect", (start + rng.choice((0, 0, 0, 7)),
                           rng.randrange(0, 7) * page - rng.randrange(page),
                           rng.choice(_PERM_CHOICES))
    address = (_BASE_PAGE + rng.randrange(_WINDOW)) * page
    address += rng.choice((0, page - 1, page - 4, page - 8, rng.randrange(page)))
    size = rng.choice((1, 2, 4, 8, 13, page + 5))
    if roll < 0.7:
        return "read", (address, size)
    return "write", (address, bytes(rng.randrange(256) for _ in range(size)))


def _check_invariants(space):
    assert space._perms.keys() == space._pages.keys()
    runs = space._runs
    for (f1, e1, p1), (f2, e2, p2) in zip(runs, runs[1:]):
        assert f1 < e1 <= f2 < e2
        assert e1 < f2 or p1 != p2, "adjacent equal runs must coalesce"
    for idx, perms in space._perms.items():
        assert space._run_perms(idx) == perms


@pytest.mark.parametrize("commit_limit", [0, 5 * layout.PAGE_SIZE])
@pytest.mark.parametrize("seed", range(12))
def test_run_map_matches_page_dict_model(seed, commit_limit):
    rng = random.Random(seed)
    space = AddressSpace(commit_limit=commit_limit)
    model = PageDictModel(commit_limit=commit_limit)
    fast_read = _fast_reader(space, 4)
    fast_write = _fast_writer(space, 4)
    for step in range(400):
        op, args = _random_op(rng, space)
        got = _outcome(getattr(space, op), *args)
        want = _outcome(getattr(model, op), *args)
        if op == "map" and got[0] == "ok":
            got = ("ok", None)
        assert got == want, (seed, step, op, args)
        assert space.stats() == model.stats(), (seed, step, op, args)
        _check_invariants(space)
        probe = (_BASE_PAGE + rng.randrange(_WINDOW)) * layout.PAGE_SIZE \
            + rng.randrange(layout.PAGE_SIZE)
        assert is_mapped(space, probe) == model.is_mapped(probe)
        assert is_accessible(space, probe) == model.is_accessible(probe)
        word = probe & ~3
        assert _outcome(fast_read, word) == \
            _outcome(lambda a: int.from_bytes(model.read(a, 4), "little"), word)
        value = rng.randrange(1 << 32)
        assert _outcome(fast_write, word, value) == \
            _outcome(model.write, word, value.to_bytes(4, "little"))
        _check_invariants(space)
