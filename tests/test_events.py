"""The observability event hub: routing, the off path, and coverage.

``repro.obs.events.KINDS`` names every event kind once with the name
each sink files it under.  These tests check that the hub delivers each
kind to exactly those sinks, that nothing is built when every handle is
absent or disabled, that the event goldens exercise every kind, and —
directly, because no seeded campaign reaches them — that the recovery
manager's error paths emit what the table says.
"""

import json

import pytest

from repro.fleet.campaign import CampaignConfig, run_campaign
from repro.forensics import Forensics
from repro.obs import Observability
from repro.obs import events as events_mod
from repro.obs.events import KINDS, hub
from repro.recovery.manager import RecoveryManager
from repro.telemetry import Telemetry
from tests.test_event_goldens import GOLDEN

#: One value for every field any sink reads.
FIELDS = dict(reason="deadline", priority="normal", status="served",
              page=3, resident=2, evicted=1, tid=0, depth=0)

#: Recovery failures no seeded campaign reaches; tested directly below.
ERROR_PATH_KINDS = {"recovery_replay_failed", "recovery_unseal_rejected",
                    "recovery_restore_failed", "recovery_snapshot_failed"}


def _emit_all(events) -> None:
    for kind in KINDS:
        events.emit(kind, 7, wid=1, rid=0, **FIELDS)


def _counters(telemetry):
    return {name for name, metric in telemetry.metrics_snapshot().items()
            if metric["kind"] == "counter"}


def _recorded(forensics):
    return {r.kind for r in forensics.recorder.events()}


def _hops(obs):
    hops = set(obs.tracer.hop_counts) - {"client_submit"}
    return hops | {f"note:{kind}" for _, kind, _ in obs.tracer.notes}


class TestOffPath:
    def test_no_enabled_handle_builds_no_hub(self):
        assert hub() is None
        assert hub(None, None, None) is None

    def test_campaign_with_every_handle_off_builds_no_hub(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an EventHub was built on the off path")

        monkeypatch.setattr(events_mod.EventHub, "__init__", refuse)
        cfg = CampaignConfig(app="memcached", policy="abort", workers=2,
                             fault_rate=0.3, seed=1234, size="XS",
                             overload="protected", arrivals_per_tick=8)
        absent = run_campaign(cfg)
        disabled = run_campaign(cfg, telemetry=None, forensics=None,
                                obs=None)
        assert absent.crashes > 0
        assert absent.as_dict() == disabled.as_dict()

    def test_disabled_handles_subscribe_nothing(self):
        forensics = Forensics()
        events = hub(None, forensics, None)
        assert all(handler.args[0] is forensics
                   for route in events.routes.values() for handler in route)
        _emit_all(events)
        assert _recorded(forensics)

    def test_unknown_kind_raises(self):
        events = hub(forensics=Forensics())
        with pytest.raises(KeyError):
            events.emit("no_such_kind", 0)


class TestRouting:
    def test_telemetry_sees_exactly_its_kinds(self):
        telemetry = Telemetry()
        _emit_all(hub(telemetry=telemetry))
        want = {row.telemetry.format(**FIELDS) for row in KINDS.values()
                if row.telemetry is not None}
        # A flush also counts the pages it evicted.
        assert _counters(telemetry) == want | {"epc.flush_evictions"}

    def test_recorder_sees_exactly_its_kinds(self):
        forensics = Forensics()
        _emit_all(hub(forensics=forensics))
        want = {kind for kind, row in KINDS.items()
                if row.recorder is not None}
        assert _recorded(forensics) == want
        for kind, row in KINDS.items():
            for record in forensics.recorder.events(kind=kind):
                assert record.cat == row.recorder, kind
                assert not set(row.unrecorded) & set(record.detail), kind

    def test_tracer_sees_exactly_its_kinds(self):
        obs = Observability()
        obs.tracer.submit(0, 0)
        _emit_all(hub(obs=obs))
        want = {row.hop for row in KINDS.values() if row.hop is not None}
        assert _hops(obs) == want

    def test_worker_crash_feeds_the_anomaly_monitor(self):
        forensics = Forensics(crash_loop_window=60)
        events = hub(forensics=forensics)
        events.emit("worker_crash", 1, wid=0, reason="OOM")
        events.emit("worker_crash", 2, wid=0, reason="OOM")
        assert [r.kind for r in forensics.recorder.events()] \
            == ["worker_crash", "worker_crash", "alert"]


def test_event_goldens_cover_the_table():
    golden = json.loads(GOLDEN.read_text())
    counters, recorded, hops = set(), set(), set()
    for pins in golden.values():
        counters |= set(pins["telemetry"]["counters"])
        recorded |= set(pins["recorder"]["kinds"])
        if "obs" in pins:
            hops |= set(pins["obs"]["hops"])
            hops |= {f"note:{kind}" for kind in pins["obs"]["notes"]}
    unseen = [
        kind for kind, row in KINDS.items()
        if kind not in ERROR_PATH_KINDS
        and not (row.telemetry is not None
                 and any(name.startswith(row.telemetry.split("{")[0])
                         for name in counters))
        and not (row.recorder is not None and kind in recorded)
        and not (row.hop is not None and row.hop in hops)]
    assert unseen == []


# ---------------------------------------------------------------------------
class _App:
    @staticmethod
    def is_mutating(payload):
        return True

    @staticmethod
    def snapshot_request():
        return b"SNAP"

    @staticmethod
    def parse_snapshot(messages):
        return [b"row"]

    @staticmethod
    def restore_request(record):
        return b"LOAD" + record


class _Enclave:
    def __init__(self):
        self.spent = 0

    def cycles(self):
        return self.spent


class _VM:
    def __init__(self):
        self.enclave = _Enclave()

    def charge(self, cycles):
        self.enclave.spent += cycles


class _Worker:
    """Idle worker stand-in whose control requests can be made to fail."""

    def __init__(self, wid=0):
        self.wid = wid
        self.vm = _VM()
        self.applied_rids = set()
        self.inflight = None
        self._pause_ticks = 0
        self._hang_ticks = 0
        self.broken = False

    def drive_control(self, payload):
        if self.broken:
            raise RuntimeError("control request faulted")
        return [], 0

    def pause(self, ticks):
        pass


class _Supervisor:
    @staticmethod
    def dispatchable(wid):
        return True


class _Request:
    def __init__(self, rid, payload):
        self.rid = rid
        self.payload = payload


class TestRecoveryErrorPaths:
    def _manager(self, mode):
        self.telemetry, self.forensics = Telemetry(), Forensics()
        manager = RecoveryManager(
            mode, _App, "kv", tick_cycles=1_000, checkpoint_interval=1,
            worker_factory=_Worker, events=hub(self.telemetry,
                                               self.forensics))
        worker = _Worker()
        manager.attach(worker)
        return manager, worker

    def _assert_emitted(self, kind, **detail):
        records = self.forensics.recorder.events(kind=kind)
        assert len(records) == 1
        assert records[0].cat == "fleet" and records[0].wid == 0
        assert records[0].detail == detail
        assert self.telemetry.metrics_snapshot()[f"fleet.{kind}"]["value"] \
            == 1
        instant = [e for e in self.telemetry.chrome_trace()["traceEvents"]
                   if e["name"] == f"fleet_{kind}"]
        # Telemetry shows no detail for recovery events, reason or not.
        assert [e["args"]["detail"] for e in instant] == [""]

    def test_snapshot_failed(self):
        manager, worker = self._manager("snapshot")
        worker.broken = True
        manager.tick(5, {0: worker}, _Supervisor)
        self._assert_emitted("recovery_snapshot_failed",
                             reason="RuntimeError")

    def test_unseal_rejected(self):
        manager, worker = self._manager("snapshot")
        manager.tick(5, {0: worker}, _Supervisor)
        stale = manager.store.latest("kv:shard0")
        manager.tick(10, {0: worker}, _Supervisor)
        manager.store.save("kv:shard0", stale, 0, 10)
        manager.on_restart(worker, 11, 1)
        self._assert_emitted("recovery_unseal_rejected",
                             reason="SealRollbackError")

    def test_restore_failed(self):
        manager, worker = self._manager("snapshot")
        manager.tick(5, {0: worker}, _Supervisor)
        worker.broken = True
        manager.on_restart(worker, 6, 1)
        self._assert_emitted("recovery_restore_failed",
                             reason="RuntimeError")

    def test_replay_failed(self):
        manager, worker = self._manager("snapshot+wal")
        manager.on_dispatch(0, 1, b"SET")
        manager.on_served(0, _Request(1, b"SET"), 2)
        worker.broken = True
        manager.on_restart(worker, 3, 1)
        self._assert_emitted("recovery_replay_failed", seq=1)
