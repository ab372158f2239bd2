"""Set-associative cache simulator (L1 + shared LLC).

The paper repeatedly explains scheme behaviour through cache effects:
AddressSanitizer's shadow loads break locality (matrixmul, §6.3–6.4), MPX's
bounds-table walks multiply L1 traffic (pca, §6.2), and SGXBounds' in-place
metadata preserves the original layout.  A small, deterministic cache model
lets those effects show up in the counters.
"""

from __future__ import annotations

from typing import Dict

from repro.sgx.counters import PerfCounters

LINE_SHIFT = 6
LINE_SIZE = 1 << LINE_SHIFT


class Cache:
    """One cache level: set-associative, LRU within a set.

    Each set is a dict in recency order, least-recently-used first
    (insertion-ordered dicts make hit/evict O(1) without the exception
    a list ``remove`` would raise on every miss — this is the hottest
    function of the whole simulator).
    """

    def __init__(self, size_bytes: int, associativity: int = 4):
        lines = max(associativity, size_bytes // LINE_SIZE)
        self.sets = max(1, lines // associativity)
        self.associativity = associativity
        self.flushes = 0
        self._data: Dict[int, Dict[int, None]] = {}

    def occupied_lines(self) -> int:
        """Lines currently resident (for end-of-run telemetry)."""
        return sum(len(ways) for ways in self._data.values())

    def access(self, line: int) -> bool:
        """Touch ``line``; returns True on hit."""
        index = line % self.sets
        ways = self._data.get(index)
        if ways is None:
            self._data[index] = {line: None}
            return False
        if line in ways:
            del ways[line]
            ways[line] = None          # re-append as most recent
            return True
        ways[line] = None
        if len(ways) > self.associativity:
            del ways[next(iter(ways))]   # evict the LRU line
        return False

    def flush(self) -> None:
        self.flushes += 1
        self._data.clear()

    def snapshot(self) -> tuple:
        """Every set's lines in recency order, by value."""
        return ({index: dict(ways) for index, ways in self._data.items()},
                self.flushes)

    def restore(self, state: tuple) -> None:
        """Return to a :meth:`snapshot`, refilling the set map in place."""
        data, self.flushes = state
        self._data.clear()
        self._data.update((index, dict(ways)) for index, ways in data.items())


class CacheHierarchy:
    """L1 + LLC; returns the miss depth of each access.

    ``access`` returns 0 (L1 hit), 1 (LLC hit) or 2 (memory access) and
    updates the counters; the enclave model turns depth-2 accesses into
    MEE/EPC events.
    """

    def __init__(self, l1_bytes: int, llc_bytes: int,
                 l1_assoc: int = 4, llc_assoc: int = 8):
        self.l1 = Cache(l1_bytes, l1_assoc)
        self.llc = Cache(llc_bytes, llc_assoc)

    def access(self, address: int, size: int, counters: PerfCounters) -> int:
        """Simulate one data access; returns miss depth (0, 1, or 2)."""
        line = address >> LINE_SHIFT
        counters.l1_accesses += 1
        if self.l1.access(line):
            depth = 0
        elif self.llc.access(line):
            counters.l1_misses += 1
            depth = 1
        else:
            counters.l1_misses += 1
            counters.llc_misses += 1
            depth = 2
        # An access straddling a line boundary touches the next line too.
        if (address & (LINE_SIZE - 1)) + size > LINE_SIZE:
            next_line = line + 1
            counters.l1_accesses += 1
            if not self.l1.access(next_line):
                counters.l1_misses += 1
                if not self.llc.access(next_line):
                    counters.llc_misses += 1
                    depth = 2
        return depth

    def flush(self) -> None:
        self.l1.flush()
        self.llc.flush()

    def snapshot(self) -> tuple:
        return self.l1.snapshot(), self.llc.snapshot()

    def restore(self, state: tuple) -> None:
        self.l1.restore(state[0])
        self.llc.restore(state[1])

    def stats(self) -> Dict[str, int]:
        """End-of-run occupancy/flush figures the telemetry registry
        publishes as gauges (miss counts live in PerfCounters)."""
        return {
            "l1_occupied_lines": self.l1.occupied_lines(),
            "llc_occupied_lines": self.llc.occupied_lines(),
            "l1_flushes": self.l1.flushes,
            "llc_flushes": self.llc.flushes,
        }
