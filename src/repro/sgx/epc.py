"""Enclave Page Cache (EPC) residency model.

The EPC is the scarce resource that shapes every result in the paper: it is
~94 MiB usable on real hardware, shared by all enclaves, and paging a page
out requires re-encryption (§2.1, "from 2x for sequential memory accesses
and up to 2000x for random ones").  We model it as an LRU-resident set of
pages with a fixed per-fault cost; fault *counts* then reproduce the
sequential-vs-random asymmetry (a streaming workload faults once per page, a
thrashing one refaults endlessly — exactly Table 3's page-fault columns).
"""

from __future__ import annotations

from typing import Dict

from repro.memory.layout import PAGE_SHIFT


class EPC:
    """LRU set of resident enclave pages with bounded capacity."""

    def __init__(self, capacity_bytes: int):
        self.capacity_pages = max(1, capacity_bytes >> PAGE_SHIFT)
        self._resident: Dict[int, None] = {}
        self.faults = 0
        self.evictions = 0
        self.pages_touched: set = set()
        self.peak_resident = 0
        #: Optional ``repro.obs.events.EventHub`` observing flush events
        #: (fault events are emitted by the enclave's trace hook, which
        #: owns the instruction clock).
        self.events = None

    def touch(self, page: int) -> bool:
        """Mark ``page`` accessed from memory; returns True if it faulted."""
        resident = self._resident
        if page in resident:
            del resident[page]
            resident[page] = None
            return False
        self.faults += 1
        self.pages_touched.add(page)
        resident[page] = None
        if len(resident) > self.capacity_pages:
            evicted = next(iter(resident))
            del resident[evicted]
            self.evictions += 1
        if len(resident) > self.peak_resident:
            self.peak_resident = len(resident)
        return True

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    def flush(self) -> int:
        """Evict every resident page (an EPC pressure spike: another enclave
        or the kernel claimed the cache).  Subsequent touches re-fault.
        Returns the number of pages evicted."""
        evicted = len(self._resident)
        self._resident.clear()
        self.evictions += evicted
        if self.events is not None:
            self.events.emit("epc_flush", 0, evicted=evicted)
        return evicted

    def snapshot(self) -> tuple:
        """Residency (in LRU order) and fault accounting, by value."""
        return (dict(self._resident), self.faults, self.evictions,
                set(self.pages_touched), self.peak_resident)

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot`, refilling the resident set and
        the touched-page set in place."""
        resident, self.faults, self.evictions, touched, \
            self.peak_resident = state
        self._resident.clear()
        self._resident.update(resident)
        self.pages_touched.clear()
        self.pages_touched.update(touched)
