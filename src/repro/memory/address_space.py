"""Sparse, paged, byte-addressable 32-bit address space.

This is the memory substrate underneath the whole reproduction: the VM's
loads and stores, the allocators, ASan's shadow memory and MPX's bounds
tables all live here.  Pages are materialized lazily (a 4 GiB space costs
nothing until touched), and an optional ``tracer`` lets the SGX model observe
every access to charge cache/EPC costs.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GuardPageFault, OutOfMemory, SegmentationFault
from repro.memory.layout import (
    ADDRESS_MASK,
    ADDRESS_SPACE_SIZE,
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    page_align_up,
)

PERM_NONE = 0
PERM_READ = 1
PERM_WRITE = 2
PERM_RW = PERM_READ | PERM_WRITE
#: A guard page is mapped (reserves address space) but faults on any access.
PERM_GUARD = 4

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")

#: Sorts after every run ``(first, end, perms)`` with ``first <= idx``
#: when bisecting with ``(idx, _PAST_LAST_PAGE)``.
_PAST_LAST_PAGE = (ADDRESS_SPACE_SIZE >> PAGE_SHIFT) + 1


class Region:
    """A named, contiguous mapping — bookkeeping for diagnostics and stats."""

    __slots__ = ("name", "start", "size", "perms")

    def __init__(self, name: str, start: int, size: int, perms: int):
        self.name = name
        self.start = start
        self.size = size
        self.perms = perms

    @property
    def end(self) -> int:
        return self.start + self.size

    def __repr__(self) -> str:
        return f"Region({self.name!r}, 0x{self.start:08x}..0x{self.end:08x})"


class AddressSpace:
    """Byte-addressable sparse memory with page permissions.

    Which pages are mapped, and with what permissions, is held by one
    sorted list of page runs ``(first_page, end_page, perms)``: disjoint,
    with adjacent equal-permission runs coalesced, and searched with
    :mod:`bisect`.  Mapping, unmapping and protecting cost
    O(log runs + runs touched), however many pages they cover, so a
    512 MiB shadow reservation costs one run until a page is touched.
    The run list is authoritative.  ``_pages`` holds the materialized
    (touched) pages and ``_perms`` the permissions of exactly those pages,
    kept equal to the run list by :meth:`protect`; the two dicts always
    have the same keys.  The VM's inlined accessors read both dicts
    directly (``repro.vm.fastpath``).

    ``reserved_bytes`` tracks mapped virtual memory — the metric the paper
    reports ("maximum amount of reserved virtual memory", §6.1) — and
    ``peak_reserved`` its high-water mark.
    """

    def __init__(self, commit_limit: int = 0) -> None:
        self._pages: Dict[int, bytearray] = {}
        self._perms: Dict[int, int] = {}
        self._runs: List[Tuple[int, int, int]] = []
        self._mapped_pages = 0
        self.regions: List[Region] = []
        self.reserved_bytes = 0
        self.peak_reserved = 0
        #: Maximum *materialized* (committed) bytes; 0 = unlimited.  This is
        #: how a metadata-hungry scheme (MPX bounds tables) "crashes due to
        #: insufficient memory" inside an enclave (paper Fig. 1, Fig. 7).
        self.commit_limit = commit_limit
        #: Optional hook called as ``tracer(address, size, is_write)`` on
        #: every data access; installed by the SGX cost model.
        self.tracer: Optional[Callable[[int, int, bool], None]] = None

    # ------------------------------------------------------------------
    # The page-run map
    # ------------------------------------------------------------------
    def _run_perms(self, idx: int) -> Optional[int]:
        """Permissions of page ``idx`` from the run list; None if unmapped."""
        runs = self._runs
        i = bisect_right(runs, (idx, _PAST_LAST_PAGE)) - 1
        if i >= 0:
            _, end, perms = runs[i]
            if idx < end:
                return perms
        return None

    def _overlapping(self, first: int, end: int) -> Tuple[int, int]:
        """Index range ``[lo, hi)`` of the runs intersecting pages
        ``[first, end)``."""
        runs = self._runs
        lo = bisect_right(runs, (first, _PAST_LAST_PAGE))
        if lo and runs[lo - 1][1] > first:
            lo -= 1
        return lo, bisect_left(runs, (end,), lo)

    def _first_unmapped(self, first: int, end: int) -> Optional[int]:
        """Lowest unmapped page in ``[first, end)``, or None."""
        lo, hi = self._overlapping(first, end)
        runs = self._runs
        cursor = first
        for i in range(lo, hi):
            run_first, run_end, _ = runs[i]
            if run_first > cursor:
                return cursor
            cursor = run_end
        return cursor if cursor < end else None

    def _assign(self, first: int, end: int, perms: Optional[int]) -> None:
        """Set pages ``[first, end)`` to ``perms`` (None unmaps them)."""
        runs = self._runs
        lo, hi = self._overlapping(first, end)
        pieces = []
        if lo < hi and runs[lo][0] < first:
            pieces.append((runs[lo][0], first, runs[lo][2]))
        if perms is not None:
            pieces.append((first, end, perms))
        if lo < hi and runs[hi - 1][1] > end:
            pieces.append((end, runs[hi - 1][1], runs[hi - 1][2]))
        # Take in both neighbours so equal-permission runs that now touch
        # coalesce, which keeps the list at one run per distinct stretch.
        if lo:
            lo -= 1
            pieces.insert(0, runs[lo])
        if hi < len(runs):
            pieces.append(runs[hi])
            hi += 1
        merged: List[Tuple[int, int, int]] = []
        for run in pieces:
            if merged and merged[-1][1] == run[0] and merged[-1][2] == run[2]:
                merged[-1] = (merged[-1][0], run[1], run[2])
            else:
                merged.append(run)
        runs[lo:hi] = merged

    def _materialized_in(self, first: int, end: int) -> List[int]:
        """Materialized pages in ``[first, end)``, found by walking
        whichever is smaller: the range or the materialized pages."""
        pages = self._pages
        if end - first <= len(pages):
            return [idx for idx in range(first, end) if idx in pages]
        return [idx for idx in pages if first <= idx < end]

    # ------------------------------------------------------------------
    # Mapping management
    # ------------------------------------------------------------------
    def map(self, start: int, size: int, perms: int = PERM_RW,
            name: str = "anon") -> Region:
        """Map ``size`` bytes (page-rounded) at page-aligned ``start``."""
        if start & PAGE_MASK:
            raise ValueError(f"unaligned mapping at 0x{start:08x}")
        size = page_align_up(size)
        if size <= 0:
            raise ValueError("mapping size must be positive")
        if start + size > ADDRESS_SPACE_SIZE:
            raise OutOfMemory(size, "mapping beyond 32-bit address space")
        first = start >> PAGE_SHIFT
        end = first + (size >> PAGE_SHIFT)
        lo, hi = self._overlapping(first, end)
        if lo < hi:
            idx = max(first, self._runs[lo][0])
            raise OutOfMemory(size, f"page 0x{idx << PAGE_SHIFT:08x} already mapped")
        self._assign(first, end, perms)
        self._mapped_pages += end - first
        region = Region(name, start, size, perms)
        self.regions.append(region)
        self.reserved_bytes += size
        if self.reserved_bytes > self.peak_reserved:
            self.peak_reserved = self.reserved_bytes
        return region

    def unmap(self, start: int, size: int) -> None:
        """Unmap a previously mapped page range, releasing its backing."""
        if start & PAGE_MASK:
            raise ValueError(f"unaligned unmap at 0x{start:08x}")
        size = page_align_up(size)
        first = start >> PAGE_SHIFT
        end = first + (size >> PAGE_SHIFT)
        hole = self._first_unmapped(first, end)
        if hole is not None:
            raise SegmentationFault(hole << PAGE_SHIFT, PAGE_SIZE, "unmap of unmapped page")
        if end <= first:
            return
        self._assign(first, end, None)
        self._mapped_pages -= end - first
        for idx in self._materialized_in(first, end):
            del self._pages[idx]
            del self._perms[idx]
        self.reserved_bytes -= size
        self._cut_regions(start, start + size)

    def _cut_regions(self, start: int, end: int) -> None:
        """Trim or split the regions overlapping ``[start, end)``."""
        kept = []
        for r in self.regions:
            if r.end <= start or r.start >= end:
                kept.append(r)
                continue
            tail = r.end - end
            if r.start < start:
                r.size = start - r.start
                kept.append(r)
            if tail > 0:
                kept.append(Region(r.name, end, tail, r.perms))
        self.regions = kept

    def is_mapped(self, address: int) -> bool:
        """Whether the page containing ``address`` is mapped (guards count)."""
        return self._run_perms(address >> PAGE_SHIFT) is not None

    def is_accessible(self, address: int) -> bool:
        """Whether a 1-byte read at ``address`` would succeed."""
        perms = self._run_perms(address >> PAGE_SHIFT)
        return perms is not None and bool(perms & PERM_READ)

    def protect(self, start: int, size: int, perms: int) -> None:
        """Change permissions of an already-mapped page range.

        Pages below the first unmapped page in the range are changed
        before the fault is raised.
        """
        first = start >> PAGE_SHIFT
        end = first + (page_align_up(size) >> PAGE_SHIFT)
        hole = self._first_unmapped(first, end)
        stop = end if hole is None else hole
        if stop > first:
            self._assign(first, stop, perms)
            for idx in self._materialized_in(first, stop):
                self._perms[idx] = perms
        if hole is not None:
            raise SegmentationFault(hole << PAGE_SHIFT, PAGE_SIZE, "protect of unmapped page")

    # ------------------------------------------------------------------
    # Raw byte access
    # ------------------------------------------------------------------
    def _page_for(self, idx: int, write: bool, address: int, size: int) -> bytearray:
        perms = self._perms.get(idx)
        if perms is None:
            perms = self._run_perms(idx)
            if perms is None:
                raise SegmentationFault(address, size, "write" if write else "read")
        if perms & PERM_GUARD:
            raise GuardPageFault(address, size)
        needed = PERM_WRITE if write else PERM_READ
        if not perms & needed:
            raise SegmentationFault(address, size, "write" if write else "read")
        page = self._pages.get(idx)
        if page is None:
            if self.commit_limit and \
                    (len(self._pages) + 1) * PAGE_SIZE > self.commit_limit:
                raise OutOfMemory(PAGE_SIZE, "enclave commit limit reached")
            page = bytearray(PAGE_SIZE)
            self._pages[idx] = page
            self._perms[idx] = perms
        return page

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` raw bytes, handling page-boundary crossings."""
        address &= ADDRESS_MASK
        if self.tracer is not None:
            self.tracer(address, size, False)
        offset = address & PAGE_MASK
        idx = address >> PAGE_SHIFT
        if offset + size <= PAGE_SIZE:
            page = self._page_for(idx, False, address, size)
            return bytes(page[offset:offset + size])
        out = bytearray()
        remaining = size
        cursor = address
        while remaining:
            offset = cursor & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, remaining)
            page = self._page_for(cursor >> PAGE_SHIFT, False, cursor, chunk)
            out += page[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        """Write raw bytes, handling page-boundary crossings."""
        address &= ADDRESS_MASK
        size = len(data)
        if self.tracer is not None:
            self.tracer(address, size, True)
        offset = address & PAGE_MASK
        idx = address >> PAGE_SHIFT
        if offset + size <= PAGE_SIZE:
            page = self._page_for(idx, True, address, size)
            page[offset:offset + size] = data
            return
        cursor = address
        taken = 0
        while taken < size:
            offset = cursor & PAGE_MASK
            chunk = min(PAGE_SIZE - offset, size - taken)
            page = self._page_for(cursor >> PAGE_SHIFT, True, cursor, chunk)
            page[offset:offset + chunk] = data[taken:taken + chunk]
            cursor += chunk
            taken += chunk

    # ------------------------------------------------------------------
    # Typed accessors (little-endian, like x86)
    # ------------------------------------------------------------------
    def read_u8(self, address: int) -> int:
        return self.read(address, 1)[0]

    def read_u16(self, address: int) -> int:
        return _U16.unpack(self.read(address, 2))[0]

    def read_u32(self, address: int) -> int:
        return _U32.unpack(self.read(address, 4))[0]

    def read_u64(self, address: int) -> int:
        return _U64.unpack(self.read(address, 8))[0]

    def read_f64(self, address: int) -> float:
        return _F64.unpack(self.read(address, 8))[0]

    def write_u8(self, address: int, value: int) -> None:
        self.write(address, bytes((value & 0xFF,)))

    def write_u16(self, address: int, value: int) -> None:
        self.write(address, _U16.pack(value & 0xFFFF))

    def write_u32(self, address: int, value: int) -> None:
        self.write(address, _U32.pack(value & 0xFFFFFFFF))

    def write_u64(self, address: int, value: int) -> None:
        self.write(address, _U64.pack(value & 0xFFFFFFFFFFFFFFFF))

    def write_f64(self, address: int, value: float) -> None:
        self.write(address, _F64.pack(value))

    def read_uint(self, address: int, size: int) -> int:
        """Read an unsigned little-endian integer of 1, 2, 4 or 8 bytes."""
        if size == 8:
            return self.read_u64(address)
        if size == 4:
            return self.read_u32(address)
        if size == 1:
            return self.read_u8(address)
        if size == 2:
            return self.read_u16(address)
        raise ValueError(f"unsupported access size {size}")

    def write_uint(self, address: int, value: int, size: int) -> None:
        """Write an unsigned little-endian integer of 1, 2, 4 or 8 bytes."""
        if size == 8:
            self.write_u64(address, value)
        elif size == 4:
            self.write_u32(address, value)
        elif size == 1:
            self.write_u8(address, value)
        elif size == 2:
            self.write_u16(address, value)
        else:
            raise ValueError(f"unsupported access size {size}")

    # ------------------------------------------------------------------
    # Bulk helpers (used by libc builtins; traced as single accesses)
    # ------------------------------------------------------------------
    def read_cstring(self, address: int, limit: int = 1 << 20) -> bytes:
        """Read a NUL-terminated string (without the terminator)."""
        out = bytearray()
        cursor = address
        while len(out) < limit:
            byte = self.read_u8(cursor)
            if byte == 0:
                return bytes(out)
            out.append(byte)
            cursor += 1
        raise SegmentationFault(address, limit, "unterminated string")

    def fill(self, address: int, value: int, size: int) -> None:
        """memset-style fill."""
        self.write(address, bytes((value & 0xFF,)) * size)

    # ------------------------------------------------------------------
    # Whole-space state (a fleet worker's VM reset)
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple:
        """The mapping, page contents and accounting, by value."""
        return ({idx: bytes(page) for idx, page in self._pages.items()},
                dict(self._perms), list(self._runs), self._mapped_pages,
                [(r.name, r.start, r.size, r.perms) for r in self.regions],
                self.reserved_bytes, self.peak_reserved)

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot`.  ``_pages``, ``_perms`` and
        ``_runs`` are refilled, not replaced: the VM's predecoded
        accessors hold the two dicts."""
        pages, perms, runs, self._mapped_pages, regions, \
            self.reserved_bytes, self.peak_reserved = state
        self._pages.clear()
        self._pages.update((idx, bytearray(page))
                           for idx, page in pages.items())
        self._perms.clear()
        self._perms.update(perms)
        self._runs[:] = runs
        self.regions = [Region(*r) for r in regions]

    def stats(self) -> Dict[str, int]:
        """Snapshot of mapping statistics."""
        return {
            "reserved_bytes": self.reserved_bytes,
            "peak_reserved": self.peak_reserved,
            "materialized_pages": len(self._pages),
            "mapped_pages": self._mapped_pages,
            "regions": len(self.regions),
        }
