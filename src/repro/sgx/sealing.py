"""Simulated SGX sealing: priced seal/unseal with rollback protection.

Real enclaves persist state across crashes by *sealing* it: the enclave
derives a sealing key bound to its identity (``EGETKEY``), AES-GCM
encrypts the blob, and stores it outside the EPC.  Restart recovers the
state by unsealing and authenticating the blob.  Two properties matter
for a recovery subsystem and both are modelled here:

* **Cost** — sealing is not free.  The SGX benchmarking literature
  (Kumar et al., arXiv:2205.06415) shows seal/unseal dominated by a
  fixed ``EGETKEY`` + GCM-setup term plus a per-byte encryption term.
  :class:`SealingModel` prices both directions in simulated cycles so
  checkpoint cadence shows up as ticks, exactly like the EPC re-warm
  term of :class:`repro.sgx.enclave.ColdStartModel`.

* **Rollback protection** — sealed blobs are confidential and authentic
  but *not fresh*: the OS can replay an old blob.  Real systems bind
  each seal to a hardware monotonic counter and reject any blob whose
  counter does not match.  :class:`MonotonicCounter` plus the counter
  check in :meth:`SealingService.unseal` reproduce that: a stale blob
  raises :class:`SealRollbackError` instead of silently restoring old
  state.

Everything is deterministic: the "MAC" is a SHA-256 over the canonical
blob encoding, so two seeded runs produce byte-identical blobs and any
bit flip is detected as :class:`SealIntegrityError`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.errors import ReproError


class SealError(ReproError):
    """Base class for seal/unseal failures."""


class SealIntegrityError(SealError):
    """The blob's MAC does not authenticate (corrupted or forged)."""

    def __init__(self, detail: str = ""):
        super().__init__(f"sealed blob failed authentication"
                         f"{': ' + detail if detail else ''}")


class SealRollbackError(SealError):
    """The blob authenticates but its monotonic counter is stale.

    An attacker (or a buggy supervisor) presented an *old* sealed
    checkpoint; accepting it would silently roll the enclave's state
    back — the exact attack hardware monotonic counters exist to stop.
    """

    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(
            f"sealed blob rollback detected: counter {got}, "
            f"hardware counter at {expected}")


@dataclass(frozen=True)
class SealingModel:
    """Cycle cost of sealing/unsealing a blob of a given size.

    The fixed terms cover ``EGETKEY`` + AES-GCM key schedule (seal) and
    key re-derivation + tag verification (unseal); the per-byte terms
    cover the GCM pass over the payload.  Unsealing is slightly cheaper
    per byte (decrypt + verify pipelines better than encrypt + tag
    generation at this scale).  ``counter_cycles`` prices the monotonic
    counter access, which on real hardware is the slow, contended part.
    """

    seal_base_cycles: int = 18_000       # EGETKEY + GCM setup
    seal_cycles_per_byte: int = 14       # AES-GCM encrypt + MAC
    unseal_base_cycles: int = 15_000     # key re-derivation + tag check
    unseal_cycles_per_byte: int = 12     # AES-GCM decrypt + verify
    counter_cycles: int = 9_000          # monotonic counter read/increment
    #: Multiplier on both per-byte terms — the knob recovery sweeps turn
    #: to model faster/slower sealing hardware.
    byte_scale: float = 1.0

    def seal_cycles(self, nbytes: int) -> int:
        return self.seal_base_cycles + self.counter_cycles + int(
            max(0, nbytes) * self.seal_cycles_per_byte * self.byte_scale)

    def unseal_cycles(self, nbytes: int) -> int:
        return self.unseal_base_cycles + self.counter_cycles + int(
            max(0, nbytes) * self.unseal_cycles_per_byte * self.byte_scale)

    def scaled(self, byte_scale: float) -> "SealingModel":
        return replace(self, byte_scale=byte_scale)


@dataclass(frozen=True)
class SealedBlob:
    """One sealed checkpoint: payload + identity + freshness + MAC."""

    identity: str          # enclave identity the seal is bound to
    counter: int           # monotonic counter value at seal time
    payload: bytes         # the (conceptually encrypted) state bytes
    mac: bytes             # SHA-256 over the canonical encoding

    def size(self) -> int:
        return len(self.payload)


def _mac(identity: str, counter: int, payload: bytes) -> bytes:
    ident = identity.encode("utf-8")
    return hashlib.sha256(
        struct.pack("<II", len(ident), counter) + ident + payload).digest()


class MonotonicCounter:
    """A hardware monotonic counter: increments, never decrements."""

    __slots__ = ("value",)

    def __init__(self, value: int = 0):
        self.value = value

    def increment(self) -> int:
        self.value += 1
        return self.value


class SealingService:
    """Seals and unseals blobs for a set of enclave identities.

    One service per fleet; each identity (logical shard) gets its own
    monotonic counter.  All methods return ``(result, cycles)`` so the
    caller can land the cost on the simulated clock.
    """

    def __init__(self):
        self.model = SealingModel()
        self.counters: Dict[str, MonotonicCounter] = {}
        self.seals = 0
        self.unseals = 0
        self.rollbacks_rejected = 0
        self.integrity_failures = 0
        self.sealed_bytes = 0
        self.seal_cycles_total = 0
        self.unseal_cycles_total = 0

    def _counter(self, identity: str) -> MonotonicCounter:
        counter = self.counters.get(identity)
        if counter is None:
            counter = self.counters[identity] = MonotonicCounter()
        return counter

    def seal(self, identity: str, payload: bytes) -> Tuple[SealedBlob, int]:
        """Seal ``payload`` for ``identity``; returns (blob, cycles)."""
        counter = self._counter(identity).increment()
        blob = SealedBlob(identity=identity, counter=counter,
                          payload=payload,
                          mac=_mac(identity, counter, payload))
        cycles = self.model.seal_cycles(len(payload))
        self.seals += 1
        self.sealed_bytes += len(payload)
        self.seal_cycles_total += cycles
        return blob, cycles

    def unseal(self, identity: str, blob: SealedBlob) -> Tuple[bytes, int]:
        """Authenticate + freshness-check ``blob``; returns
        (payload, cycles).  The cycle cost is charged even on rejection —
        the enclave does the GCM work before it can tell the blob is bad.
        """
        cycles = self.model.unseal_cycles(blob.size())
        self.unseals += 1
        self.unseal_cycles_total += cycles
        if blob.identity != identity:
            self.integrity_failures += 1
            raise SealIntegrityError(
                f"blob sealed for {blob.identity!r}, not {identity!r}")
        if blob.mac != _mac(blob.identity, blob.counter, blob.payload):
            self.integrity_failures += 1
            raise SealIntegrityError("MAC mismatch")
        expected = self._counter(identity).value
        if blob.counter != expected:
            self.rollbacks_rejected += 1
            raise SealRollbackError(expected, blob.counter)
        return blob.payload, cycles

    def stats(self) -> Dict[str, int]:
        return {
            "seals": self.seals,
            "unseals": self.unseals,
            "sealed_bytes": self.sealed_bytes,
            "seal_cycles": self.seal_cycles_total,
            "unseal_cycles": self.unseal_cycles_total,
            "rollbacks_rejected": self.rollbacks_rejected,
            "integrity_failures": self.integrity_failures,
        }
