"""Deterministic write-ahead log of mutating requests.

One log per logical shard (worker id).  The protocol follows the classic
two-point discipline:

* **append at dispatch** — before the worker's VM sees a mutating
  request, its (request id, payload) is appended uncommitted.  If the
  worker crashes mid-request the entry stays uncommitted and is *not*
  replayed; the balancer's retry path re-delivers it instead, so the
  mutation is applied exactly once.
* **commit at ack** — when the balancer sees the served outcome the
  entry is marked committed.  Committed entries are exactly the
  acknowledged writes, i.e. the set a recovery must reproduce for
  RPO = 0.

Recovery replays ``committed_after(checkpoint_seq)`` on top of the
unsealed snapshot.  Checkpoints call :meth:`WriteAheadLog.truncate_through`
to drop entries the snapshot has made durable.  Entries encode/decode to
a canonical byte form for replica shipping and for inclusion in sealed
blobs, so two seeded runs produce byte-identical logs.
"""

from __future__ import annotations

import struct
from typing import List, Optional


class WALRecord:
    """One logged mutation."""

    __slots__ = ("seq", "rid", "payload", "committed")

    def __init__(self, seq: int, rid: int, payload: bytes,
                 committed: bool = False):
        self.seq = seq
        self.rid = rid
        self.payload = payload
        self.committed = committed

    def encode(self) -> bytes:
        return struct.pack("<QQI", self.seq, self.rid,
                           len(self.payload)) + self.payload

    @staticmethod
    def decode(data: bytes) -> "WALRecord":
        if len(data) < 20:
            raise ValueError(f"short WAL record: {len(data)} bytes")
        seq, rid, plen = struct.unpack_from("<QQI", data, 0)
        payload = data[20:20 + plen]
        if len(payload) != plen:
            raise ValueError("truncated WAL record payload")
        return WALRecord(seq, rid, payload, committed=True)

    def __repr__(self) -> str:
        flag = "C" if self.committed else "U"
        return f"<WAL #{self.seq} rid={self.rid} {flag} {len(self.payload)}B>"


class WriteAheadLog:
    """Append-only mutation log with commit marks and truncation."""

    def __init__(self):
        self.records: List[WALRecord] = []
        self.next_seq = 1
        self.appended = 0
        self.commits = 0
        self.truncated = 0

    def append(self, rid: int, payload: bytes) -> int:
        """Log a mutating request at dispatch time; returns its seq."""
        record = WALRecord(self.next_seq, rid, payload)
        self.next_seq += 1
        self.records.append(record)
        self.appended += 1
        return record.seq

    def commit(self, rid: int) -> Optional[WALRecord]:
        """Mark the latest uncommitted entry for ``rid`` committed (the
        ack arrived).  Returns the record, or None when the entry was
        never logged here (e.g. a deduped duplicate)."""
        for record in reversed(self.records):
            if record.rid == rid and not record.committed:
                record.committed = True
                self.commits += 1
                return record
        return None

    def committed_after(self, seq: int) -> List[WALRecord]:
        """Committed entries newer than ``seq`` — the replay tail."""
        return [r for r in self.records if r.committed and r.seq > seq]

    def last_committed_seq(self) -> int:
        seqs = [r.seq for r in self.records if r.committed]
        return max(seqs) if seqs else 0

    def truncate_through(self, seq: int) -> int:
        """Drop entries with ``seq`` at or below the checkpoint horizon
        (the sealed snapshot now carries them)."""
        keep = [r for r in self.records if r.seq > seq]
        dropped = len(self.records) - len(keep)
        self.records = keep
        self.truncated += dropped
        return dropped

    def drop_uncommitted(self) -> int:
        """Discard uncommitted entries (crash before ack: the balancer
        retry path owns those requests now)."""
        keep = [r for r in self.records if r.committed]
        dropped = len(self.records) - len(keep)
        self.records = keep
        return dropped

    def clear(self) -> None:
        self.records = []

    def size_bytes(self) -> int:
        return sum(20 + len(r.payload) for r in self.records)
