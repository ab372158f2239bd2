"""Recovery manager: sealed checkpoints, WAL replay, replica failover.

One manager per campaign, owning the durability state of every logical
shard (worker id): its write-ahead log, its latest sealed checkpoint,
its replication link, and the acknowledged-mutation history the shadow
oracle audits against.  The campaign drives it at four points:

* ``on_dispatch`` — a mutating request reaches a worker: write-ahead
  append (called from :meth:`repro.fleet.worker.EnclaveWorker.submit`).
* ``on_served`` — the ack: the WAL entry commits, joins the audit
  history, and ships to the replica.
* ``on_crash`` / ``on_restart`` — loss accounting at the crash, then
  unseal + restore + replay when the supervisor reboots the slot.
* ``tick`` — periodic sealed checkpoints (only of idle workers) and
  budgeted replica apply.

Recovery modes, in increasing durability::

    restart-fresh   accounting only: every crash loses all acked writes
    snapshot        sealed checkpoints; crashes lose the WAL tail
    snapshot+wal    checkpoints + committed-WAL replay; RPO = 0
    replica         snapshot+wal locally, plus a warm standby promoted
                    when the supervisor declares the primary dead

All costs are honest: unseal/seal cycles are priced by the
:class:`repro.sgx.SealingModel` and charged to the worker's enclave
clock; restore and replay run through the worker's real VM; the ticks
they take stretch the supervisor's startup window, which is what the RTO
numbers report.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.sgx import SealError, SealingService
from repro.recovery import audit as audit_mod
from repro.recovery.checkpoint import (
    CheckpointStore,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.recovery.replica import ReplicaLink
from repro.recovery.wal import WriteAheadLog

RESTART_FRESH = "restart-fresh"
SNAPSHOT = "snapshot"
SNAPSHOT_WAL = "snapshot+wal"
REPLICA = "replica"
MODES = (RESTART_FRESH, SNAPSHOT, SNAPSHOT_WAL, REPLICA)


class ShardState:
    """Durability bookkeeping for one logical shard."""

    __slots__ = ("wal", "history", "ckpt_seq", "last_ckpt_tick", "crash_at",
                 "lost_events", "rtos", "checkpoints", "restores", "replays",
                 "recovery_failures", "audit_result")

    def __init__(self) -> None:
        self.wal = WriteAheadLog()
        #: Acknowledged mutations in ack order — the oracle's script.
        self.history: List[Tuple[int, bytes]] = []
        self.ckpt_seq = 0            # WAL horizon of the sealed checkpoint
        self.last_ckpt_tick = 0
        self.crash_at: Optional[int] = None
        self.lost_events: List[Tuple[int, int]] = []   # (tick, acked lost)
        self.rtos: List[int] = []
        self.checkpoints = 0
        self.restores = 0            # snapshot records restored
        self.replays = 0             # WAL entries replayed
        self.recovery_failures = 0
        self.audit_result: Optional[Dict] = None

    @property
    def lost_total(self) -> int:
        return sum(lost for _, lost in self.lost_events)

    @property
    def lost_max(self) -> int:
        return max((lost for _, lost in self.lost_events), default=0)


class RecoveryManager:
    """Owns shard durability; glues sealing, WAL, and replicas to the fleet."""

    def __init__(self, mode: str, app, app_name: str, tick_cycles: int,
                 checkpoint_interval: int, worker_factory,
                 sealing: Optional[SealingService] = None,
                 audit: bool = True, events=None):
        if mode not in MODES:
            raise ValueError(f"unknown recovery mode {mode!r}; "
                             f"expected one of {MODES}")
        self.mode = mode
        self.app = app                    # workloads.apps module
        self.app_name = app_name
        self.tick_cycles = tick_cycles
        self.checkpoint_interval = checkpoint_interval
        self.worker_factory = worker_factory
        self.sealing = sealing or SealingService()
        self.audit_enabled = audit
        #: Optional ``repro.obs.events.EventHub`` for ``recovery_*`` events.
        self.events = events
        self.snapshots = mode in (SNAPSHOT, SNAPSHOT_WAL, REPLICA)
        self.wal_replay = mode in (SNAPSHOT_WAL, REPLICA)
        self.replicated = mode == REPLICA
        self.store = CheckpointStore()
        self.shards: Dict[int, ShardState] = {}
        self.links: Dict[int, ReplicaLink] = {}
        self.promotions = 0

    # ------------------------------------------------------------------
    def _identity(self, wid: int) -> str:
        return f"{self.app_name}:shard{wid}"

    def _shard(self, wid: int) -> ShardState:
        shard = self.shards.get(wid)
        if shard is None:
            shard = self.shards[wid] = ShardState()
        return shard

    def _ticks(self, cycles: int) -> int:
        return -(-max(0, cycles) // self.tick_cycles)

    def _failed(self, shard: ShardState, kind: str, wid: int, now: int,
                **detail) -> None:
        """Count one recovery failure and report it."""
        shard.recovery_failures += 1
        if self.events is not None:
            self.events.emit(kind, now, wid=wid, **detail)

    # ------------------------------------------------------------------
    def attach(self, worker) -> None:
        """Wire a serving worker into the manager (WAL + dedup hooks)."""
        worker.mutates = self.app.is_mutating
        worker.recovery = self
        self._shard(worker.wid)
        if self.replicated and worker.wid not in self.links:
            standby = self.worker_factory(worker.wid)
            standby.mutates = self.app.is_mutating
            self.links[worker.wid] = ReplicaLink(worker.wid, standby)

    # -- WAL protocol ---------------------------------------------------
    def on_dispatch(self, wid: int, rid: int, payload: bytes) -> None:
        self._shard(wid).wal.append(rid, payload)

    def on_served(self, wid: int, request, now: int) -> None:
        """A request went terminal as served; commit if it was a logged
        mutation (deduped duplicates were already committed)."""
        if not self.app.is_mutating(request.payload):
            return
        shard = self._shard(wid)
        record = shard.wal.commit(request.rid)
        if record is None:
            return
        shard.history.append((request.rid, request.payload))
        link = self.links.get(wid)
        if link is not None and not link.promoted:
            link.ship(record)

    # -- crash / restart ------------------------------------------------
    def on_crash(self, wid: int, now: int, dead: bool) -> int:
        """Account the acked writes this crash destroyed; returns the
        count (the per-crash RPO in requests)."""
        shard = self._shard(wid)
        if self.wal_replay:
            lost = 0
            shard.wal.drop_uncommitted()
        else:
            lost = sum(1 for r in shard.wal.records if r.committed)
            shard.wal.clear()
        shard.lost_events.append((now, lost))
        if shard.crash_at is None:
            shard.crash_at = now
        if self.events is not None:
            self.events.emit("recovery_state_loss", now, wid=wid,
                             lost_acked=lost, dead=dead)
        return lost

    def on_restart(self, worker, now: int,
                   startup_ticks: int) -> Tuple[int, int]:
        """Recover a freshly booted incarnation from sealed checkpoint +
        WAL tail; returns ``(extra_start_ticks, rto_ticks)``."""
        wid = worker.wid
        shard = self._shard(wid)
        vm = worker.vm
        start_cycles = vm.enclave.cycles()
        restored_through = 0
        if self.snapshots:
            restored_through = self._restore_checkpoint(worker, shard, now)
        if self.wal_replay:
            for record in shard.wal.committed_after(restored_through):
                try:
                    worker.drive_control(record.payload)
                except (ReproError, RuntimeError):
                    self._failed(shard, "recovery_replay_failed", wid, now,
                                 seq=record.seq)
                    continue
                worker.applied_rids.add(record.rid)
                shard.replays += 1
        extra_ticks = self._ticks(vm.enclave.cycles() - start_cycles)
        rto = 0
        if shard.crash_at is not None:
            rto = (now + startup_ticks + extra_ticks) - shard.crash_at
            shard.rtos.append(rto)
            shard.crash_at = None
        if self.events is not None:
            self.events.emit("recovery_restored", now, wid=wid,
                             extra_ticks=extra_ticks, rto_ticks=rto,
                             replayed=shard.replays)
        return extra_ticks, rto

    def _restore_checkpoint(self, worker, shard: ShardState,
                            now: int) -> int:
        """Unseal + restore the latest checkpoint; returns the WAL
        horizon it covers (0 when there is none or it is rejected)."""
        wid = worker.wid
        identity = self._identity(wid)
        blob = self.store.latest(identity)
        if blob is None:
            return 0
        try:
            payload, cycles = self.sealing.unseal(identity, blob)
        except SealError as err:
            # Stale or corrupt blob: refuse it and fall back to the WAL
            # tail alone — losing freshness silently is the one thing a
            # rollback-protected store must never do.
            self._failed(shard, "recovery_unseal_rejected", wid, now,
                         reason=type(err).__name__)
            return 0
        worker.vm.charge(cycles)
        try:
            _, wal_seq, records = decode_checkpoint(payload)
            for record in records:
                worker.drive_control(self.app.restore_request(record))
            shard.restores += len(records)
        except (ReproError, ValueError, RuntimeError) as err:
            self._failed(shard, "recovery_restore_failed", wid, now,
                         reason=type(err).__name__)
            return 0
        return wal_seq

    # -- failover -------------------------------------------------------
    def promote(self, wid: int, now: int, balancer,
                startup_ticks: int) -> Optional[Tuple[object, int, int]]:
        """The supervisor declared ``wid`` dead; hand its slot to the
        warm standby.  Returns ``(worker, extra_ticks, rto_ticks)``, or
        None when no (unpromoted) replica exists for the shard."""
        link = self.links.get(wid)
        if link is None or link.promoted:
            return None
        shard = self._shard(wid)
        standby, drain_cycles = link.promote()
        standby.recovery = self
        balancer.replace_worker(wid, standby)
        extra_ticks = self._ticks(drain_cycles)
        rto = 0
        if shard.crash_at is not None:
            rto = (now + startup_ticks + extra_ticks) - shard.crash_at
            shard.rtos.append(rto)
            shard.crash_at = None
        self.promotions += 1
        if self.events is not None:
            self.events.emit("recovery_promoted", now, wid=wid,
                             extra_ticks=extra_ticks, rto_ticks=rto,
                             drained=link.applied)
        return standby, extra_ticks, rto

    # -- periodic work --------------------------------------------------
    def tick(self, now: int, workers: Dict[int, object],
             supervisor) -> None:
        """Budgeted replica apply, then checkpoint any idle worker whose
        interval elapsed."""
        for wid in sorted(self.links):
            link = self.links[wid]
            if not link.promoted:
                link.apply_pending(cycle_budget=self.tick_cycles)
        if not self.snapshots:
            return
        for wid in sorted(self.shards):
            shard = self.shards[wid]
            if now - shard.last_ckpt_tick < self.checkpoint_interval:
                continue
            worker = workers.get(wid)
            if worker is None or not supervisor.dispatchable(wid):
                continue
            if (worker.inflight is not None or worker._pause_ticks > 0
                    or worker._hang_ticks > 0):
                continue
            self._checkpoint(worker, shard, now)

    def _checkpoint(self, worker, shard: ShardState, now: int) -> None:
        wid = worker.wid
        try:
            messages, drive_cycles = worker.drive_control(
                self.app.snapshot_request())
            records = self.app.parse_snapshot(messages)
        except (ReproError, ValueError, RuntimeError) as err:
            self._failed(shard, "recovery_snapshot_failed", wid, now,
                         reason=type(err).__name__)
            shard.last_ckpt_tick = now
            return
        horizon = max(shard.ckpt_seq, shard.wal.last_committed_seq())
        payload = encode_checkpoint(self.app_name, horizon, records)
        blob, seal_cycles = self.sealing.seal(self._identity(wid), payload)
        self.store.save(self._identity(wid), blob, horizon, now)
        worker.vm.charge(seal_cycles)
        worker.pause(self._ticks(drive_cycles + seal_cycles))
        shard.wal.truncate_through(horizon)
        shard.ckpt_seq = horizon
        shard.last_ckpt_tick = now
        shard.checkpoints += 1
        if self.events is not None:
            self.events.emit("recovery_checkpoint", now, wid=wid,
                             records=len(records), sealed_bytes=len(payload),
                             counter=blob.counter)

    # -- audit + summary ------------------------------------------------
    def _materialize(self, wid: int):
        """Rebuild a shard's recoverable state into a spare enclave —
        what the next restart *would* recover from checkpoint + WAL.
        Returns None when nothing durable survives."""
        shard = self._shard(wid)
        spare = self.worker_factory(wid)
        horizon = 0
        any_state = False
        if self.snapshots:
            blob = self.store.latest(self._identity(wid))
            if blob is not None:
                # The audit reads the store directly; freshness and
                # integrity checks are recovery-path concerns, exercised
                # by on_restart.
                try:
                    _, horizon, records = decode_checkpoint(blob.payload)
                    for record in records:
                        spare.drive_control(self.app.restore_request(record))
                    any_state = True
                except (ReproError, ValueError, RuntimeError):
                    return None
        if self.wal_replay:
            for record in shard.wal.committed_after(horizon):
                try:
                    spare.drive_control(record.payload)
                    any_state = True
                except (ReproError, RuntimeError):
                    return None
        return spare if any_state else None

    def finalize(self, workers: Dict[int, object],
                 supervisor, now: int) -> Dict[str, object]:
        """Run the end-of-campaign consistency audit and summarise."""
        if self.audit_enabled:
            for wid in sorted(self.shards):
                shard = self.shards[wid]
                worker = workers.get(wid)
                # A shard that ended the campaign crashed, mid-restart, or
                # dead has no live state; audit what its durable artifacts
                # would recover to instead — durability, not uptime, is
                # what RPO promises.
                live = (worker is not None and worker.last_error is None
                        and supervisor.status(wid) != "dead")
                materialized = False
                if not live:
                    worker = self._materialize(wid)
                    materialized = worker is not None
                shard.audit_result = audit_mod.audit_shard(
                    wid, worker, self.app, shard.history,
                    self.worker_factory)
                if materialized:
                    shard.audit_result["materialized"] = True
        return self.summary()

    def summary(self) -> Dict[str, object]:
        shards = self.shards
        rtos = [t for s in shards.values() for t in s.rtos]
        out: Dict[str, object] = {
            "mode": self.mode,
            "rpo": {
                "lost_acked_total": sum(s.lost_total for s in shards.values()),
                "lost_acked_max": max((s.lost_max for s in shards.values()),
                                      default=0),
                "crashes_accounted": sum(len(s.lost_events)
                                         for s in shards.values()),
            },
            "rto": {
                "count": len(rtos),
                "mean_ticks": (sum(rtos) / len(rtos)) if rtos else 0.0,
                "max_ticks": max(rtos, default=0),
            },
            "checkpoints": {
                "count": sum(s.checkpoints for s in shards.values()),
                "restores": sum(s.restores for s in shards.values()),
                "replayed": sum(s.replays for s in shards.values()),
                "failures": sum(s.recovery_failures for s in shards.values()),
            },
            "sealing": self.sealing.stats(),
            "wal": {
                "appended": sum(s.wal.appended for s in shards.values()),
                "committed": sum(s.wal.commits for s in shards.values()),
                "truncated": sum(s.wal.truncated for s in shards.values()),
            },
        }
        if self.replicated:
            out["replica"] = {
                "promotions": self.promotions,
                "links": {wid: link.stats()
                          for wid, link in sorted(self.links.items())},
            }
        if self.audit_enabled:
            per_shard = {wid: shards[wid].audit_result
                         for wid in sorted(shards)}
            out["audit"] = {
                "clean": all(r is not None and r.get("clean")
                             for r in per_shard.values()),
                "shards": per_shard,
            }
        return out
