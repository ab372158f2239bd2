"""Stateful recovery: sealing, WAL, checkpoints, replay, dedup, failover.

Unit tests for the durability ladder of :mod:`repro.recovery` plus the
fleet hooks it rides on (worker-side idempotency, supervisor crash-window
pruning).  The replay tests drive real enclave workers — compiled
recovery-enabled apps — and assert *byte identity* between recovered
state and a shadow oracle, which is the property the campaign audit
enforces at scale.
"""

import json

import pytest

from repro import forensics as forensics_mod
from repro.fleet import CampaignConfig, EnclaveWorker, Supervisor, run_campaign
from repro.minic import compile_source
from repro.recovery import (
    CheckpointStore,
    WALRecord,
    WriteAheadLog,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.sgx import (
    EnclaveConfig,
    SealIntegrityError,
    SealRollbackError,
    SealedBlob,
    SealingModel,
    SealingService,
)
from repro.workloads.apps import memcached, sqlite_server

APP_CONFIG = EnclaveConfig(epc_bytes=2 * 1024 * 1024)

_MODULES = {}


def _worker(app, wid=0, policy="abort"):
    """A recovery-enabled enclave worker (module compiled once per app)."""
    name = app.__name__.rsplit(".", 1)[-1]
    module = _MODULES.get(name)
    if module is None:
        module = _MODULES[name] = compile_source(app.RECOVERY_SOURCE, name)
    return EnclaveWorker(wid, module, "sgxbounds", policy=policy,
                         config=APP_CONFIG)


def _snapshot(worker, app):
    messages, _ = worker.drive_control(app.snapshot_request())
    return app.parse_snapshot(messages)


# ---------------------------------------------------------------------------
class TestSealing:
    def test_round_trip_and_determinism(self):
        payload = b"enclave state" * 7
        a, b = SealingService(), SealingService()
        blob_a, cycles_a = a.seal("app:shard0", payload)
        blob_b, cycles_b = b.seal("app:shard0", payload)
        # Sealing is deterministic across services: same identity,
        # counter, payload => byte-identical blob and identical price.
        assert blob_a.mac == blob_b.mac
        assert blob_a.counter == blob_b.counter == 1
        assert cycles_a == cycles_b > 0
        out, uncycles = a.unseal("app:shard0", blob_a)
        assert out == payload
        assert uncycles > 0

    def test_cost_scales_with_payload(self):
        model = SealingModel()
        assert model.seal_cycles(4096) > model.seal_cycles(64)
        assert model.unseal_cycles(4096) > model.unseal_cycles(64)
        double = model.scaled(2.0)
        assert double.seal_cycles(1000) > model.seal_cycles(1000)

    def test_rollback_protection_rejects_stale_blob(self):
        service = SealingService()
        stale, _ = service.seal("id", b"old")
        fresh, _ = service.seal("id", b"new")
        # The monotonic counter only accepts the freshest seal.
        with pytest.raises(SealRollbackError) as exc:
            service.unseal("id", stale)
        assert exc.value.expected == fresh.counter
        assert exc.value.got == stale.counter
        assert service.unseal("id", fresh)[0] == b"new"
        assert service.stats()["rollbacks_rejected"] == 1

    def test_tampered_blob_rejected(self):
        service = SealingService()
        blob, _ = service.seal("id", b"payload")
        forged = SealedBlob(blob.identity, blob.counter,
                            blob.payload + b"x", blob.mac)
        with pytest.raises(SealIntegrityError):
            service.unseal("id", forged)
        with pytest.raises(SealIntegrityError):
            service.unseal("other-id", blob)
        assert service.stats()["integrity_failures"] == 2

    def test_rejection_still_charges_cycles(self):
        service = SealingService()
        stale, _ = service.seal("id", b"old")
        service.seal("id", b"new")
        before = service.stats()["unseal_cycles"]
        with pytest.raises(SealRollbackError):
            service.unseal("id", stale)
        assert service.stats()["unseal_cycles"] > before


# ---------------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_commit_discipline(self):
        wal = WriteAheadLog()
        s1 = wal.append(10, b"a")
        s2 = wal.append(11, b"b")
        assert (s1, s2) == (1, 2)
        assert wal.commit(10).seq == 1
        # Committing an unknown rid (deduped duplicate) is a no-op.
        assert wal.commit(99) is None
        assert wal.last_committed_seq() == 1
        assert [r.seq for r in wal.committed_after(0)] == [1]
        assert wal.drop_uncommitted() == 1
        assert [r.seq for r in wal.records] == [1]

    def test_truncate_through_checkpoint_horizon(self):
        wal = WriteAheadLog()
        for i in range(5):
            wal.append(i, bytes([i]))
            wal.commit(i)
        assert wal.truncate_through(3) == 3
        assert [r.seq for r in wal.records] == [4, 5]
        assert wal.truncated == 3

    def test_record_codec_round_trip(self):
        record = WALRecord(7, 1234, b"\x00payload\xff", committed=True)
        decoded = WALRecord.decode(record.encode())
        assert (decoded.seq, decoded.rid, decoded.payload) == \
            (7, 1234, b"\x00payload\xff")
        with pytest.raises(ValueError):
            WALRecord.decode(record.encode()[:10])

    def test_encode_committed_stream(self):
        wal = WriteAheadLog()
        for i in range(3):
            wal.append(i, bytes([i]) * 3)
            wal.commit(i)
        wal.append(9, b"uncommitted")
        records, _ = WriteAheadLog.decode_records(wal.encode_committed(1))
        assert [r.seq for r in records] == [2, 3]


# ---------------------------------------------------------------------------
class TestCheckpointCodec:
    def test_round_trip(self):
        records = [b"", b"r1", b"\x00" * 20]
        payload = encode_checkpoint("memcached", 42, records)
        tag, wal_seq, out = decode_checkpoint(payload)
        assert (tag, wal_seq, out) == ("memcached", 42, records)

    def test_corrupt_magic_rejected(self):
        payload = encode_checkpoint("app", 1, [b"x"])
        with pytest.raises(ValueError):
            decode_checkpoint(b"??" + payload[2:])

    def test_store_keeps_latest(self):
        store = CheckpointStore()
        service = SealingService()
        first, _ = service.seal("id", b"one")
        second, _ = service.seal("id", b"two")
        store.save("id", first, wal_seq=3, tick=10)
        store.save("id", second, wal_seq=9, tick=20)
        assert store.latest("id") is second
        assert store.wal_seq("id") == 9
        assert store.tick("id") == 20


# ---------------------------------------------------------------------------
class TestSnapshotReplay:
    """Crash at every k-th request; recovered state must be byte-identical."""

    def _run_with_crashes(self, app, requests, k, checkpoint_every=4):
        """Feed mutating requests, checkpointing every few writes and
        crashing (fresh worker + unseal/restore/replay) at every k-th;
        returns the surviving worker's canonical snapshot."""
        service = SealingService()
        store = CheckpointStore()
        wal = WriteAheadLog()
        identity = "shard"
        worker = _worker(app)
        horizon = 0
        writes = 0
        for i, payload in enumerate(requests):
            if not app.is_mutating(payload):
                continue
            seq = wal.append(i, payload)
            worker.drive_control(payload)
            wal.commit(i)
            writes += 1
            if writes % checkpoint_every == 0:
                records = _snapshot(worker, app)
                horizon = wal.last_committed_seq()
                blob, _ = service.seal(
                    identity, encode_checkpoint("app", horizon, records))
                store.save(identity, blob, horizon, i)
                wal.truncate_through(horizon)
            if writes % k == 0:
                worker = _worker(app)       # crash: all enclave state gone
                blob = store.latest(identity)
                restored = 0
                if blob is not None:
                    payload_bytes, _ = service.unseal(identity, blob)
                    _, restored, records = decode_checkpoint(payload_bytes)
                    for record in records:
                        worker.drive_control(app.restore_request(record))
                for record in wal.committed_after(restored):
                    worker.drive_control(record.payload)
        return sorted(_snapshot(worker, app))

    @pytest.mark.parametrize("app,kwargs", [
        (memcached, dict(value_size=24, set_every=2)),
        (sqlite_server, {}),
    ])
    def test_replay_matches_oracle_at_every_crash_cadence(self, app, kwargs):
        requests = app.workload(40, **kwargs) if kwargs \
            else app.workload(40)
        oracle = _worker(app)
        for payload in requests:
            if app.is_mutating(payload):
                oracle.drive_control(payload)
        expected = sorted(_snapshot(oracle, app))
        assert expected, "oracle produced no state"
        for k in (3, 5, 7):
            got = self._run_with_crashes(app, requests, k)
            assert got == expected, f"crash cadence {k} diverged"

    def test_two_seeded_runs_byte_identical(self):
        requests = memcached.workload(30, set_every=2)
        snaps = []
        for _ in range(2):
            snaps.append(self._run_with_crashes(memcached, requests, k=4))
        assert snaps[0] == snaps[1]

    def test_snapshot_restore_round_trip(self):
        worker = _worker(sqlite_server)
        for payload in sqlite_server.workload(24):
            if sqlite_server.is_mutating(payload):
                worker.drive_control(payload)
        records = _snapshot(worker, sqlite_server)
        clone = _worker(sqlite_server)
        for record in records:
            clone.drive_control(sqlite_server.restore_request(record))
        assert sorted(_snapshot(clone, sqlite_server)) == sorted(records)

    def test_control_ops_require_magic(self):
        worker = _worker(memcached)
        bogus = memcached.snapshot_request()
        bogus = bogus[:4] + b"\x00\x00\x00\x00" + bogus[8:]
        messages, _ = worker.drive_control(bogus)
        # Without the magic cookie the opcode is ignored, exactly like an
        # unknown op — a fuzzed bit-flip cannot dump enclave state.
        assert messages == []


# ---------------------------------------------------------------------------
class TestWorkerDedup:
    def test_duplicate_mutation_acked_without_reexecution(self):
        worker = _worker(memcached, policy="drop-request")
        worker.mutates = memcached.is_mutating
        payload = memcached.make_request(1, b"key-1", b"v" * 8)
        worker.submit(5, payload)
        outcomes = []
        for _ in range(200):
            outcomes.extend(worker.run_tick(5_000).outcomes)
            if outcomes:
                break
        assert outcomes == [(5, "served")]
        assert 5 in worker.applied_rids
        cycles_after_first = worker.vm.enclave.cycles()
        # Hedged re-dispatch of the same rid: acked from the dedup table,
        # no VM work, no double-apply.
        worker.submit(5, payload)
        report = worker.run_tick(5_000)
        assert report.outcomes == [(5, "served")]
        assert worker.deduped == 1
        assert worker.vm.enclave.cycles() == cycles_after_first


# ---------------------------------------------------------------------------
class _CrashStub:
    def __init__(self, wid, pages=4):
        self.wid = wid

        class _Enclave:
            def cold_start_cycles(self, model, *a, **kw):
                return model.base_cycles if hasattr(model, "base_cycles") \
                    else 0

        class _VM:
            enclave = _Enclave()

        self.vm = _VM()


class TestSupervisorPrune:
    def test_crash_window_pruned_but_lifetime_count_kept(self):
        sup = Supervisor([0], crash_loop_k=3, crash_loop_window=50)
        stub = _CrashStub(0)
        for tick in (0, 30, 100, 160, 400):
            sup.on_crash(stub, tick, "BoundsViolation")
            sup.records[0].status = "healthy"   # revive between crashes
        record = sup.records[0]
        # Stale entries outside the window are dropped as time advances…
        assert all(400 - t <= 50 for t in record.crash_ticks)
        assert len(record.crash_ticks) == 1
        # …but the lifetime total survives for reporting.
        assert record.crashes == 5
        assert sup.summary()["per_worker"][0]["crashes"] == 5

    def test_pruning_does_not_weaken_crash_loop_detection(self):
        sup = Supervisor([0], crash_loop_k=3, crash_loop_window=50)
        stub = _CrashStub(0)
        for tick in (100, 110, 120):
            sup.on_crash(stub, tick, "x")
        assert sup.records[0].status == "dead"


# ---------------------------------------------------------------------------
class TestRecoveryCampaigns:
    BASE = dict(app="memcached", policy="abort", workers=2, fault_rate=0.25,
                seed=77, size="XS", workload_kwargs=(("set_every", 2),))

    def _run(self, **kw):
        cfg = CampaignConfig(**{**self.BASE, **kw})
        return run_campaign(cfg, telemetry=None, forensics=None)

    def test_rpo_ladder(self):
        fresh = self._run(recovery="restart-fresh").recovery
        snap = self._run(recovery="snapshot", checkpoint_interval=10).recovery
        wal = self._run(recovery="snapshot+wal",
                        checkpoint_interval=10).recovery
        assert fresh["rpo"]["lost_acked_total"] > 0
        assert 0 < snap["rpo"]["lost_acked_total"] \
            <= fresh["rpo"]["lost_acked_total"]
        assert wal["rpo"]["lost_acked_total"] == 0
        assert wal["audit"]["clean"]

    def test_replica_promotion_on_death(self):
        result = self._run(recovery="replica", checkpoint_interval=10,
                           crash_loop_k=2, crash_loop_window=200)
        rec = result.recovery
        assert result.supervisor["deaths"] >= 1
        assert rec["replica"]["promotions"] >= 1
        assert rec["rpo"]["lost_acked_total"] == 0
        assert rec["audit"]["clean"]
        assert any(kind == "promoted" for _, kind, _, _ in result.events)

    def test_recovery_campaigns_are_deterministic(self):
        a = self._run(recovery="snapshot+wal", checkpoint_interval=10)
        b = self._run(recovery="snapshot+wal", checkpoint_interval=10)
        assert json.dumps(a.as_dict(), sort_keys=True) == \
            json.dumps(b.as_dict(), sort_keys=True)

    def test_standbys_do_not_observe_the_default_sink(self):
        """Replicas and audit oracles observe no sink: the campaign's
        flight log is the same whether its Forensics is passed in or
        installed as the process-wide default (``--log-out``)."""
        cfg = CampaignConfig(app="memcached", policy="abort", workers=2,
                             fault_rate=0.2, seed=77, size="XS",
                             recovery="replica")
        explicit = forensics_mod.Forensics()
        run_campaign(cfg, forensics=explicit)
        default = forensics_mod.Forensics()
        previous = forensics_mod.get_default()
        forensics_mod.set_default(default)
        try:
            run_campaign(cfg)
        finally:
            forensics_mod.set_default(previous)
        assert default.recorder.to_jsonl() == explicit.recorder.to_jsonl()

    def test_default_path_has_no_recovery_surface(self):
        result = self._run()
        assert result.recovery is None
        assert "recovery" not in result.as_dict()
        assert "rto" not in result.slo
