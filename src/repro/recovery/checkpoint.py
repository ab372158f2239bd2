"""Checkpoint encoding + the per-fleet sealed checkpoint store.

A checkpoint is the app's snapshot records (as dumped by its magic-guarded
SNAPSHOT opcode) plus the WAL horizon they cover, in a canonical byte
encoding that the :class:`repro.sgx.SealingService` seals.  The store
keeps only the latest blob per identity — exactly what a supervisor
would persist outside the EPC — and remembers the tick it was taken at
so checkpoint cadence is observable.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

from repro.sgx import SealedBlob

MAGIC = b"SGXCKPT1"


def encode_checkpoint(app: str, wal_seq: int,
                      records: List[bytes]) -> bytes:
    """Canonical checkpoint payload: app tag, WAL horizon, records."""
    tag = app.encode("utf-8")
    head = MAGIC + struct.pack("<H", len(tag)) + tag
    head += struct.pack("<QI", wal_seq, len(records))
    body = b"".join(struct.pack("<I", len(r)) + r for r in records)
    return head + body


def decode_checkpoint(payload: bytes) -> Tuple[str, int, List[bytes]]:
    """Inverse of :func:`encode_checkpoint`."""
    if payload[:8] != MAGIC:
        raise ValueError("not a checkpoint payload")
    (taglen,) = struct.unpack_from("<H", payload, 8)
    offset = 10
    app = payload[offset:offset + taglen].decode("utf-8")
    offset += taglen
    wal_seq, count = struct.unpack_from("<QI", payload, offset)
    offset += 12
    records = []
    for _ in range(count):
        (rlen,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        record = payload[offset:offset + rlen]
        if len(record) != rlen:
            raise ValueError("truncated checkpoint record")
        offset += rlen
        records.append(record)
    return app, wal_seq, records


class CheckpointStore:
    """Latest sealed checkpoint per enclave identity (untrusted storage)."""

    def __init__(self):
        self._blobs: Dict[str, SealedBlob] = {}
        self._wal_seq: Dict[str, int] = {}
        self._tick: Dict[str, int] = {}

    def save(self, identity: str, blob: SealedBlob, wal_seq: int,
             tick: int) -> None:
        self._blobs[identity] = blob
        self._wal_seq[identity] = wal_seq
        self._tick[identity] = tick

    def latest(self, identity: str) -> Optional[SealedBlob]:
        return self._blobs.get(identity)

    def wal_seq(self, identity: str) -> int:
        return self._wal_seq.get(identity, 0)

    def tick(self, identity: str) -> Optional[int]:
        return self._tick.get(identity)
