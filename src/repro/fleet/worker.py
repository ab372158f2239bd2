"""One fleet worker: an enclave incarnation serving requests depth-1.

A worker wraps the exact single-server substrate of
:func:`repro.harness.runner.run_server` — same scheme instrumentation,
same enclave, same VM — but drives it cooperatively: the app's ``main``
loop parks in a blocking ``net_recv`` between requests, the balancer
pushes one request at a time, and :meth:`EnclaveWorker.run_tick` advances
the VM by a bounded number of simulated cycles so many workers interleave
on one global tick clock.

Failure semantics match the single-server harness: a violation under
``drop-request`` rolls back to the request checkpoint and surfaces an
error reply; under ``abort`` (or any unrecoverable fault — OOM, hijack,
watchdog) the incarnation crashes and the supervisor prices a cold start.
A request the server reads and drops without a reply settles as an error
once the server parks again with nothing left to read.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, WatchdogTimeout
from repro.faults import FaultInjector, derive
from repro.harness.runner import make_scheme
from repro.obs import events as events_mod
from repro.vm import machine as vm_mod
from repro.workloads import NetworkSim
from repro.workloads.netsim import ERROR_MARKER, REJECTED_MARKER

#: Iteration bound handed to the app's ``main(n, threads)``: effectively
#: infinite — the blocking recv paces the loop, not the bound.
SERVER_ITERATIONS = 1 << 30

#: Outcome status values reported per request.
SERVED = "served"
ERROR = "error"

#: Base module -> ``(scheme_name, scheme_kwargs, policy)`` -> the image
#: built from it.  The key is exactly :func:`make_scheme`'s inputs and
#: instrumentation is deterministic, so every worker of a campaign
#: (serving workers and recovery spares alike) loads one image, which
#: nothing at run time mutates.  The images die with their module.
_IMAGES: "weakref.WeakKeyDictionary[object, Dict[tuple, object]]" = \
    weakref.WeakKeyDictionary()


class TickReport:
    """What one :meth:`EnclaveWorker.run_tick` produced."""

    __slots__ = ("outcomes", "crash", "stranded")

    def __init__(self, outcomes: List[Tuple[int, str]],
                 crash: Optional[str] = None,
                 stranded: Optional[int] = None):
        self.outcomes = outcomes    # [(rid, SERVED | ERROR), ...]
        self.crash = crash          # crash reason, None while alive
        self.stranded = stranded    # rid in flight at the crash, if any


class EnclaveWorker:
    """One supervised enclave; reincarnated by ``boot()`` after a crash."""

    def __init__(self, wid: int, module, scheme_name: str,
                 policy: Optional[str] = None, config=None,
                 scheme_kwargs=None, watchdog_budget: int = 200_000,
                 epc_spike_rate: float = 0.0,
                 faults_seed: Optional[int] = None, telemetry=None,
                 forensics=None, mutates=None, obs=None):
        self.wid = wid
        self.module = module              # compiled, uninstrumented base
        self.scheme_name = scheme_name
        self.policy = policy
        self.config = config
        self.scheme_kwargs = scheme_kwargs
        self.watchdog_budget = watchdog_budget
        self.epc_spike_rate = epc_spike_rate
        self.faults_seed = faults_seed
        self.telemetry = telemetry
        self.forensics = forensics
        #: Recorder-only hub for each incarnation's NetworkSim (fleet
        #: telemetry never counted net events); stateless, so shared.
        self._net_events = events_mod.hub(forensics=self.forensics)
        #: Optional ``repro.obs.Observability``; when attached, each
        #: completed service attempt reports its counter delta (exact
        #: because workers are depth-1) for critical-path attribution.
        self.obs = obs
        #: Predicate classifying request payloads as state-mutating; only
        #: set when the campaign runs with stateful recovery enabled.
        self.mutates = mutates
        #: Recovery manager back-reference (set by ``RecoveryManager.attach``)
        #: so ``submit`` can write-ahead-log mutating requests.
        self.recovery = None
        self.incarnations = 0
        self.total_cycles = 0             # summed over dead incarnations
        self.total_epc_faults = 0         # likewise (anomaly detection)
        #: The worker's one VM: built, loaded and snapshotted by the first
        #: boot, reset in place by every later one.
        self.vm = None
        self.boot()

    # ------------------------------------------------------------------
    def boot(self) -> None:
        """Start a new incarnation.  The first boot builds the VM, loads
        the instrumented image (built once per module and scheme, see
        ``_IMAGES``) and snapshots it; every later boot resets that VM to
        the snapshot, keeping its predecoded handlers.  The incarnation
        then gets a fresh NetworkSim, fault injector and main thread.  The
        simulated cold-start price is the supervisor's and does not
        change."""
        self.incarnations += 1
        if self.vm is None:
            self.scheme = make_scheme(self.scheme_name, self.scheme_kwargs,
                                      self.policy)
            images = _IMAGES.setdefault(self.module, {})
            key = (self.scheme_name,
                   tuple(sorted((self.scheme_kwargs or {}).items())),
                   self.policy)
            self.vm, image = vm_mod.build_vm(
                self.module, self.scheme, self.config, self.telemetry,
                self.forensics, image=images.get(key))
            images[key] = image
            self.vm.load(image)
            self.vm.snapshot()
        else:
            self.vm.reset()
        vm = self.vm
        vm.net_blocking = True
        vm.net = NetworkSim()
        vm.worker_id = self.wid
        if self.forensics is not None:
            # The balancer's rid is the request identity fleet-wide; the
            # worker stamps it at submit, so recv must not overwrite it
            # with the NetworkSim message id.
            vm.external_rids = True
            vm.net.events = self._net_events
            vm.net.clock = (lambda v=vm: v.counters.instructions)
        if self.epc_spike_rate > 0.0 and self.faults_seed is not None:
            # Noisy-neighbour analog: a co-tenant occasionally thrashes
            # the shared EPC; seeded per incarnation so restarts do not
            # replay the same spike schedule.
            vm.faults = FaultInjector(
                derive(self.faults_seed,
                       f"epc:w{self.wid}:i{self.incarnations}"),
                epc_spike_rate=self.epc_spike_rate)
        self.conn = vm.net.connect()
        main_fn = vm.program.functions["main"]
        vm.new_thread(main_fn, (SERVER_ITERATIONS, 1))
        self.inflight: Optional[Tuple[int, bytes]] = None
        self.last_error: Optional[Exception] = None
        self._dispatch_instr = 0
        self._sent_seen = 0
        self._hang_ticks = 0
        self._pause_ticks = 0
        self._dedup_ack = False
        self._obs_snap = None
        #: Mutating request ids whose effects are in this incarnation's
        #: state (repopulated by recovery replay after a restart); the
        #: dedup check in ``submit`` consults it so a hedged or retried
        #: duplicate is acked without re-applying.
        self.applied_rids = set()

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return 0 if self.inflight is None else 1

    def cycles(self) -> int:
        """Simulated cycles of the live incarnation."""
        return self.vm.enclave.cycles()

    def submit(self, rid: int, payload: bytes,
               waited_cycles: int = 0) -> None:
        """Hand one request to the worker (depth-1: caller checks idle).

        ``waited_cycles`` backdates the watchdog clock by the simulated
        cycles the request already spent in the worker's ingress queue,
        so the per-request instruction budget is measured from *dispatch*
        (balancer assignment) rather than dequeue — a request cannot hide
        unbounded queueing time from the watchdog.  The default of 0
        keeps the pre-overload behaviour exactly."""
        vm = self.vm
        mutating = self.mutates is not None and self.mutates(payload)
        if mutating and rid in self.applied_rids:
            # Idempotence under hedged/retried dispatch: this mutation is
            # already in the live state, so ack it without touching the VM
            # (re-applying a SET after an interleaved write to the same
            # key would resurrect the older value).
            self.inflight = (rid, payload)
            self._dedup_ack = True
            if self.forensics is not None:
                self.forensics.record(
                    "dedup", ts=vm.counters.instructions, cat="fleet",
                    rid=rid, wid=self.wid)
            return
        if mutating and self.recovery is not None:
            self.recovery.on_dispatch(self.wid, rid, payload)
        self.inflight = (rid, payload)
        self._sent_seen = len(vm.net.sent(self.conn))
        self._dispatch_instr = vm.counters.instructions - max(0, waited_cycles)
        if self.obs is not None:
            from repro.telemetry.profiler import ATTRIB_FIELDS
            self._obs_snap = (
                tuple(getattr(vm.counters, f) for f in ATTRIB_FIELDS),
                vm.enclave.cycles())
        mid = vm.net.push(self.conn, payload)
        if self.forensics is not None:
            vm.request_id = rid
            vm.request_payload = payload
            self.forensics.record(
                "dispatch", ts=vm.counters.instructions, cat="fleet",
                rid=rid, wid=self.wid, conn=self.conn, mid=mid)
        vm.unblock_net_waiters(self.conn)

    def inject_hang(self, ticks: int) -> None:
        """Scenario hook: the worker livelocks for ``ticks`` ticks,
        burning instructions without progress (watchdog fodder)."""
        self._hang_ticks = max(self._hang_ticks, ticks)

    def pause(self, ticks: int) -> None:
        """Recovery hook: the worker stalls for ``ticks`` ticks while a
        checkpoint seals.  Only taken when idle, so unlike a hang it can
        never trip the watchdog."""
        self._pause_ticks += ticks

    # ------------------------------------------------------------------
    def run_tick(self, cycle_budget: int) -> TickReport:
        """Advance the incarnation by about ``cycle_budget`` cycles."""
        vm = self.vm
        outcomes: List[Tuple[int, str]] = []
        if self._dedup_ack:
            self._dedup_ack = False
            rid, _ = self.inflight
            self.inflight = None
            return TickReport([(rid, SERVED)])
        if self._pause_ticks > 0:
            # Sealing a checkpoint: the enclave is busy with EGETKEY/GCM
            # work already charged to its clock; no requests progress.
            self._pause_ticks -= 1
            return TickReport(outcomes)
        if self._hang_ticks > 0:
            self._hang_ticks -= 1
            # A stuck enclave spins: the cycles pass, nothing completes.
            vm.charge(cycle_budget)
            if self._watchdog_fired():
                return self._crash_report(outcomes)
            return TickReport(outcomes)
        if self._parked():
            return TickReport(self._drain_replies())   # parked in recv
        start = vm.enclave.cycles()
        while vm.enclave.cycles() - start < cycle_budget:
            thread = next((t for t in vm.threads
                           if t.state == vm_mod.RUNNABLE), None)
            if thread is None:
                break                      # parked in blocking recv
            try:
                vm.step(thread, vm.quantum)
            except ReproError as err:
                self.last_error = err
                return self._crash_report(outcomes, thread)
            outcomes.extend(self._drain_replies())
            if self._watchdog_fired():
                return self._crash_report(outcomes, thread)
        outcomes.extend(self._drain_replies())
        return TickReport(outcomes)

    def _parked(self) -> bool:
        """No thread can run until a message unblocks one."""
        return not any(t.state == vm_mod.RUNNABLE for t in self.vm.threads)

    # ------------------------------------------------------------------
    def drive_control(self, payload: bytes,
                      max_cycles: int = 50_000_000) -> Tuple[List[bytes], int]:
        """Synchronously run one control request (snapshot dump, restore
        row, WAL replay) through the live VM and return
        ``(reply_messages, cycles_spent)``.

        Only the recovery machinery calls this, and only while the worker
        is idle — control traffic never races client requests and never
        arms the watchdog.  Cycles land on the enclave clock like any
        other work; the caller converts them into stall ticks.  A fault
        is contained as a client request's is (:meth:`VM.step`); one that
        is not propagates as :class:`repro.errors.ReproError` for the
        caller to translate into a failed recovery.
        """
        if self.inflight is not None:
            raise RuntimeError("drive_control on a busy worker")
        vm = self.vm
        seen = len(vm.net.sent(self.conn))
        start = vm.enclave.cycles()
        vm.net.push(self.conn, payload)
        vm.unblock_net_waiters(self.conn)
        while True:
            thread = next((t for t in vm.threads
                           if t.state == vm_mod.RUNNABLE), None)
            if thread is None:
                break                      # parked back in blocking recv
            vm.step(thread, vm.quantum)
            if vm.enclave.cycles() - start > max_cycles:
                raise RuntimeError(
                    f"control request runaway on worker {self.wid}")
        messages = list(vm.net.sent(self.conn)[seen:])
        self._sent_seen = len(vm.net.sent(self.conn))
        return messages, vm.enclave.cycles() - start

    # ------------------------------------------------------------------
    def _watchdog_fired(self) -> bool:
        if self.inflight is None:
            return False
        spent = self.vm.counters.instructions - self._dispatch_instr
        if spent <= self.watchdog_budget:
            return False
        self.last_error = WatchdogTimeout(self.watchdog_budget, spent,
                                          request_id=self.inflight[0])
        return True

    def _drain_replies(self) -> List[Tuple[int, str]]:
        if self.inflight is None:
            return []
        sent = self.vm.net.sent(self.conn)
        # Rejection notices share the client connection but are addressed
        # to the client, not replies to the in-flight request.
        while (self._sent_seen < len(sent)
               and sent[self._sent_seen] == REJECTED_MARKER):
            self._sent_seen += 1
        if len(sent) > self._sent_seen:
            reply = sent[self._sent_seen]
            self._sent_seen = len(sent)   # swallow multi-part replies
        elif self._parked() and self.vm.net.pending(self.conn) == 0:
            # The server read the whole request and parked again without
            # a reply (an unknown opcode is swallowed): none will come.
            reply = ERROR_MARKER
        else:
            return []
        rid, payload = self.inflight
        self.inflight = None
        if self.obs is not None and self._obs_snap is not None:
            from repro.telemetry.profiler import ATTRIB_FIELDS
            snap, cycles0 = self._obs_snap
            self._obs_snap = None
            now = tuple(getattr(self.vm.counters, f)
                        for f in ATTRIB_FIELDS)
            delta = {f: now[i] - snap[i]
                     for i, f in enumerate(ATTRIB_FIELDS)}
            self.obs.enclave_sample(rid, delta,
                                    self.vm.enclave.cycles() - cycles0)
        if reply == ERROR_MARKER:
            return [(rid, ERROR)]
        if self.mutates is not None and self.mutates(payload):
            self.applied_rids.add(rid)
        return [(rid, SERVED)]

    def _crash_report(self, outcomes: List[Tuple[int, str]],
                      thread=None) -> TickReport:
        """End the incarnation on :attr:`last_error`, raised while
        ``thread`` ran (None for a hang)."""
        self.total_cycles += self.vm.enclave.cycles()
        self.total_epc_faults += self.vm.counters.epc_faults
        rid, payload = self.inflight or (None, None)
        reason = vm_mod.report_crash(
            self.vm, self.last_error, self.forensics, rid=rid,
            payload=payload, wid=self.wid, thread=thread)
        self.inflight = None
        self._obs_snap = None     # cycles died with the incarnation
        return TickReport(outcomes, crash=reason, stranded=rid)
