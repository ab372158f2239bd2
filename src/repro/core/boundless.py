"""Boundless memory blocks: failure-oblivious overlay (paper §4.2, Fig. 6).

When an out-of-bounds access is detected and the scheme runs in boundless
mode, the access is redirected to an *overlay* area so neighbouring objects
are never corrupted:

* the overlay is a bounded LRU cache mapping out-of-bounds addresses to
  1 KiB spare chunks, capped at 1 MiB total (so an attack spanning
  gigabytes — e.g. a negative length — cannot exhaust memory);
* out-of-bounds **writes** allocate a chunk on demand (evicting the least
  recently used when full);
* out-of-bounds **reads** hit a previously written chunk if one exists,
  otherwise they're served from a shared always-zero page — the
  failure-oblivious "return zero" policy of Rinard et al.

All cache operations go through one lock in the paper; our VM's natives
execute atomically with respect to simulated threads, which models the
same global-lock slow path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.memory.address_space import PERM_READ
from repro.memory.layout import PAGE_SIZE

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.vm.machine import VM

CHUNK_SIZE = 1024
DEFAULT_CAPACITY = 1024 * 1024   # 1 MiB of overlay, as in the paper

#: Per-request leak tallies kept at most this many entries; totals keep
#: counting past the cap (long campaigns must stay bounded).
LEAK_TALLY_CAP = 512


class BoundlessCache:
    """LRU map from out-of-bounds chunk keys to overlay chunks."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY,
                 chunk_size: int = CHUNK_SIZE):
        self.chunk_size = chunk_size
        self.capacity_chunks = max(1, capacity_bytes // chunk_size)
        self._chunks: Dict[int, int] = {}     # key -> overlay address (LRU order)
        self._free: List[int] = []
        #: key each simulated thread was most recently handed a chunk for.
        #: Eviction must skip these: the thread performs its redirected
        #: access *after* translate() returns, and recycling the chunk
        #: under it would corrupt an unrelated overlay key's data.
        self._pinned: Dict[int, int] = {}     # tid -> chunk key
        self._zero_page: Optional[int] = None
        self.hits = 0
        self.misses = 0
        self.allocations = 0
        self.evictions = 0
        #: Leaked-bytes accounting: every failure-oblivious *read* that
        #: crossed an object boundary is an information-disclosure
        #: opportunity the redteam triage must price, whether it was
        #: served from a written chunk or from manufactured zeros.
        self.oblivious_reads = 0
        self.leaked_bytes = 0
        self.leaked_by_request: Dict[int, int] = {}
        self.leak_tally_dropped = 0

    # -- backing storage -------------------------------------------------
    def _alloc_chunk(self, vm: "VM") -> int:
        if self._free:
            return self._free.pop()
        base = vm.enclave.heap.mmap.alloc(PAGE_SIZE, "boundless-overlay")
        for offset in range(self.chunk_size, PAGE_SIZE, self.chunk_size):
            self._free.append(base + offset)
        self.allocations += 1
        return base

    def zero_page(self, vm: "VM") -> int:
        """Shared read-only page of zeros for unmatched OOB reads."""
        if self._zero_page is None:
            page = vm.enclave.heap.mmap.alloc(PAGE_SIZE, "boundless-zero")
            vm.space.protect(page, PAGE_SIZE, PERM_READ)
            self._zero_page = page
        return self._zero_page

    # -- leaked-bytes accounting ----------------------------------------
    def note_oblivious_read(self, vm: "VM", nbytes: int) -> None:
        """Tally ``nbytes`` of failure-oblivious read past an object
        boundary (redirected plain loads and clamped libc tails alike).

        Totals are unconditional; the per-request breakdown is bounded
        by :data:`LEAK_TALLY_CAP` and telemetry counters fire only when a
        registry is attached, so default runs stay counter-identical.
        """
        self.oblivious_reads += 1
        self.leaked_bytes += nbytes
        rid = getattr(vm, "request_id", None)
        if rid is not None:
            tally = self.leaked_by_request
            if rid in tally or len(tally) < LEAK_TALLY_CAP:
                tally[rid] = tally.get(rid, 0) + nbytes
            else:
                self.leak_tally_dropped += 1
        telemetry = getattr(vm, "telemetry", None)
        if telemetry is not None:
            registry = telemetry.registry
            registry.counter("boundless.oblivious_reads").inc()
            registry.counter("boundless.leaked_bytes").inc(nbytes)

    # -- translation ---------------------------------------------------------
    def translate(self, vm: "VM", address: int, size: int,
                  is_write: bool) -> int:
        """Overlay address for an out-of-bounds access at ``address``."""
        key = address // self.chunk_size
        offset = address % self.chunk_size
        current = getattr(vm, "current", None)
        tid = current.tid if current is not None else -1
        if not is_write:
            self.note_oblivious_read(vm, size)
        chunk = self._chunks.get(key)
        if chunk is not None:
            # Refresh LRU position.
            del self._chunks[key]
            self._chunks[key] = chunk
            self.hits += 1
            vm.counters.boundless_hits += 1
            self._pinned[tid] = key
            return chunk + offset
        self.misses += 1
        if not is_write:
            # Failure-oblivious read: manufactured zeros.  (Evicted chunks
            # land here too — boundless data is best-effort, §4.2.)
            self._pinned.pop(tid, None)
            return self.zero_page(vm) + (offset % (PAGE_SIZE - 8))
        if len(self._chunks) >= self.capacity_chunks:
            self._evict_one()
        chunk = self._alloc_chunk(vm)
        vm.counters.boundless_allocs += 1
        # Fresh chunks must read as zeros even after reuse.
        with vm.space.untraced() as space:
            space.fill(chunk, 0, self.chunk_size)
        self._chunks[key] = chunk
        self._pinned[tid] = key
        return chunk + offset

    def _evict_one(self) -> None:
        """Drop the least-recently-used chunk no thread is mid-access on.
        Falls back to plain LRU if every chunk is pinned (more threads
        than chunks — the access that loses its chunk reads zeros)."""
        pinned = set(self._pinned.values())
        victim = None
        for key in self._chunks:
            if key not in pinned:
                victim = key
                break
        if victim is None:
            victim = next(iter(self._chunks))
        self._free.append(self._chunks.pop(victim))
        self.evictions += 1

    def stats(self) -> Dict[str, int]:
        return {
            "chunks_live": len(self._chunks),
            "hits": self.hits,
            "misses": self.misses,
            "allocations": self.allocations,
            "evictions": self.evictions,
            "oblivious_reads": self.oblivious_reads,
            "leaked_bytes": self.leaked_bytes,
            "requests_with_leaks": len(self.leaked_by_request),
        }
