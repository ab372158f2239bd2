"""Deterministic load balancer: dispatch, circuit breakers, retries.

Everything here runs on the campaign's tick clock with no randomness at
all — worker iteration order is worker-id order, round-robin keeps an
explicit cursor — so two campaigns with the same seed produce identical
dispatch sequences regardless of host hashing or timing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.fleet.supervisor import Supervisor

ROUND_ROBIN = "round-robin"
LEAST_OUTSTANDING = "least-outstanding"
POLICIES = (ROUND_ROBIN, LEAST_OUTSTANDING)

# Circuit breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Dispatch order for classed pending queues, most important first.
#: (Kept local so the balancer never imports :mod:`repro.overload`; the
#: admission gate is duck-typed in.)
PRIORITY_ORDER = ("critical", "normal", "sheddable")


class Request:
    """One client request moving through the fleet."""

    __slots__ = ("rid", "payload", "arrival", "attempts", "status",
                 "completed_at", "worker", "detail", "priority",
                 "client_retries", "assigned_at", "started_at", "abandoned",
                 "first_arrival")

    def __init__(self, rid: int, payload: bytes, arrival: int,
                 priority: str = "normal", client_retries: int = 0,
                 first_arrival: Optional[int] = None):
        self.rid = rid
        self.payload = payload
        self.arrival = arrival
        #: Tick the *first* client attempt for this rid arrived; client
        #: retries restart ``arrival`` (each attempt gets fresh patience)
        #: but goodput timeliness is end-to-end from here.
        self.first_arrival = arrival if first_arrival is None \
            else first_arrival
        self.attempts = 0
        self.status: Optional[str] = None    # served|error|failed|rejected
        self.completed_at: Optional[int] = None
        self.worker: Optional[int] = None
        self.detail = ""
        self.priority = priority             # overload traffic class
        self.client_retries = client_retries  # client-side resubmissions
        self.assigned_at: Optional[int] = None   # bound to a worker queue
        self.started_at: Optional[int] = None    # entered service
        #: Client walked away (deadline) but the request stays queued at
        #: its worker, which will serve it anyway — zombie work, the
        #: wasted-capacity half of congestion collapse (naive mode only).
        self.abandoned = False

    @property
    def terminal(self) -> bool:
        return self.status is not None


class CircuitBreaker:
    """closed → open after N consecutive failures; cooldown in ticks;
    half-open admits a single probe that decides reopen vs close."""

    __slots__ = ("threshold", "cooldown", "state", "failures", "open_until",
                 "probing", "opens")

    def __init__(self, threshold: int = 3, cooldown: int = 25):
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = CLOSED
        self.failures = 0
        self.open_until = 0
        self.probing = False
        self.opens = 0

    def allow(self, now: int) -> bool:
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now < self.open_until:
                return False
            self.state = HALF_OPEN
            self.probing = False
        # HALF_OPEN: admit exactly one in-flight probe.
        return not self.probing

    def on_dispatch(self) -> None:
        if self.state == HALF_OPEN:
            self.probing = True

    def record_success(self) -> None:
        self.failures = 0
        self.state = CLOSED
        self.probing = False

    def record_failure(self, now: int) -> None:
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.threshold:
            self.state = OPEN
            self.open_until = now + self.cooldown
            self.failures = 0
            self.probing = False
            self.opens += 1


class Balancer:
    """Routes requests to workers; owns retry budgets and breakers."""

    def __init__(self, workers, supervisor: Supervisor,
                 policy: str = ROUND_ROBIN, queue_cap: int = 2,
                 max_attempts: int = 2,
                 breaker_threshold: int = 3, breaker_cooldown: int = 25,
                 admission=None, tick_cycles: Optional[int] = None,
                 events=None):
        if policy not in POLICIES:
            raise ValueError(f"unknown balance policy {policy!r}; "
                             f"expected one of {POLICIES}")
        self.workers = {w.wid: w for w in workers}
        self.order = sorted(self.workers)
        self.supervisor = supervisor
        self.policy = policy
        self.queue_cap = queue_cap
        self.max_attempts = max_attempts
        #: Optional ``repro.obs.events.EventHub``; when attached every
        #: queue/dispatch/retry/hedge transition is emitted as an event.
        #: None keeps every path below free of observability work.
        self.events = events
        self.pending: Deque[Request] = deque()
        self.queues: Dict[int, Deque[Request]] = {
            wid: deque() for wid in self.order}
        self.inflight: Dict[int, Request] = {}
        self.breakers: Dict[int, CircuitBreaker] = {
            wid: CircuitBreaker(breaker_threshold, breaker_cooldown)
            for wid in self.order}
        self._rr = 0
        #: Optional ``repro.overload.AdmissionController``; None keeps
        #: every path below byte-identical to the pre-overload balancer.
        self.admission = admission
        self._protected = admission is not None and admission.enabled
        #: Ticks→cycles conversion for watchdog backdating; None (the
        #: default) disables backdating entirely.
        self.tick_cycles = tick_cycles

    # ------------------------------------------------------------------
    def offer(self, request: Request, now: int = 0) -> Optional[Request]:
        """Admit ``request`` into the pending queue.  With an admission
        gate attached a request can be turned away right here; the
        rejected (terminal) request is returned for the caller to
        account, None means it was queued."""
        if self.admission is not None:
            reason = self.admission.admit_offer(
                request, self.in_system(), self.supervisor.alive_count(),
                now)
            if reason is not None:
                return self._reject(request, reason, now)
        self.pending.append(request)
        if self.events is not None:
            self.events.emit(
                "request_admitted", now, rid=request.rid,
                gate="open" if self.admission is not None else "none")
        return None

    def _reject(self, request: Request, reason: str, now: int) -> Request:
        request.status = "rejected"
        request.detail = reason
        request.completed_at = now
        self.admission.on_reject(request, reason, now)
        # Surface the distinct RJCT frame on a live worker's client
        # connection so NetworkSim's rejected counter (satellite of this
        # PR) sees fleet rejections; costs zero enclave cycles.
        for wid in self.order:
            if self.supervisor.dispatchable(wid):
                worker = self.workers[wid]
                worker.vm.net.reject_request(worker.conn)
                break
        if self.events is not None:
            self.events.emit("request_rejected", now, rid=request.rid,
                             reason=reason)
        return request

    def _next_pending(self) -> Request:
        """Head of the pending queue; under protection the classes form
        strict bands (critical drains before normal before sheddable)."""
        if self._protected and len(self.pending) > 1:
            for cls in PRIORITY_ORDER:
                for i, request in enumerate(self.pending):
                    if request.priority == cls:
                        del self.pending[i]
                        return request
        return self.pending.popleft()

    def outstanding(self, wid: int) -> int:
        return len(self.queues[wid]) + (1 if wid in self.inflight else 0)

    def in_system(self) -> int:
        return (len(self.pending) + len(self.inflight)
                + sum(len(q) for q in self.queues.values()))

    # ------------------------------------------------------------------
    def _eligible(self, now: int) -> List[int]:
        return [wid for wid in self.order
                if self.supervisor.dispatchable(wid)
                and self.breakers[wid].allow(now)
                and self.outstanding(wid) < self.queue_cap]

    def _pick(self, eligible: List[int]) -> int:
        if self.policy == LEAST_OUTSTANDING:
            return min(eligible, key=lambda w: (self.outstanding(w), w))
        # Round-robin over worker ids, skipping ineligible ones.
        n = max(self.order) + 1
        for offset in range(n):
            wid = (self._rr + offset) % n
            if wid in self.workers and wid in eligible:
                self._rr = (wid + 1) % n
                return wid
        return eligible[0]

    def dispatch(self, now: int) -> List[Request]:
        """Assign pending requests to worker queues, then start idle
        workers on the head of their queue.  Returns requests that went
        terminal here (backlog failed for lack of capacity, or rejected
        by the per-worker admission gate)."""
        terminal: List[Request] = []
        while self.pending:
            eligible = self._eligible(now)
            if not eligible:
                break
            request = self._next_pending()
            choices = eligible
            if self._protected and (request.attempts > 0
                                    or request.client_retries > 0):
                # Hedge suppression: a retried request never lands on a
                # worker mid-probe — a half-open breaker's single probe
                # slot is for establishing health, and stacking retries
                # onto a recovering worker is how hedges re-kill it.
                settled = [w for w in choices
                           if self.breakers[w].state != HALF_OPEN]
                if settled:
                    choices = settled
            wid = self._pick(choices)
            if self.admission is not None:
                reason = self.admission.admit_assign(
                    request, self.outstanding(wid), now)
                if reason is not None:
                    terminal.append(self._reject(request, reason, now))
                    continue
            request.assigned_at = now
            self.queues[wid].append(request)
            if self.events is not None:
                self.events.emit("request_assigned", now, wid=wid,
                                 rid=request.rid)
        for wid in self.order:
            if wid in self.inflight or not self.queues[wid]:
                continue
            if not self.supervisor.dispatchable(wid):
                continue
            request = self.queues[wid].popleft()
            request.attempts += 1
            request.worker = wid
            request.started_at = now
            self.inflight[wid] = request
            self.breakers[wid].on_dispatch()
            if self.events is not None:
                self.events.emit("request_dispatched", now, wid=wid,
                                 rid=request.rid, attempt=request.attempts)
            waited = 0
            if self.tick_cycles is not None:
                assigned = request.assigned_at \
                    if request.assigned_at is not None else now
                waited = max(0, now - assigned) * self.tick_cycles
            self.workers[wid].submit(request.rid, request.payload,
                                     waited_cycles=waited)
        # Nobody left to serve the backlog: fail it fast.
        if self.supervisor.alive_count() == 0:
            terminal.extend(self._fail_backlog(now))
        return terminal

    # ------------------------------------------------------------------
    def on_outcome(self, wid: int, rid: int, status: str,
                   now: int) -> Optional[Request]:
        """A worker resolved a request (served or error reply)."""
        request = self.inflight.pop(wid, None)
        if request is None or request.rid != rid:
            raise RuntimeError(
                f"balancer: worker {wid} resolved rid {rid} but "
                f"{request.rid if request else None} was in flight")
        if status == "served":
            self.breakers[wid].record_success()
        else:
            self._record_failure(wid, now)
        self.supervisor.on_outcome(wid, status)
        if (self.admission is not None and status == "served"
                and request.started_at is not None):
            self.admission.on_served(max(1, now - request.started_at + 1))
        if request.abandoned:
            # Zombie completion: the client recorded this request as
            # failed when it expired; the cycles just spent serving it
            # were pure waste and must not resurface as a success.
            if self.events is not None:
                # The trace already closed at expiry, so this lands as a
                # zombie_done hop — wasted work made visible.
                self.events.emit("zombie_completed", now, wid=wid,
                                 rid=request.rid, status=status)
            return None
        request.status = status
        request.completed_at = now
        return request

    def _record_failure(self, wid: int, now: int) -> None:
        breaker = self.breakers[wid]
        was_open = breaker.state == OPEN
        breaker.record_failure(now)
        if (breaker.state == OPEN and not was_open
                and self.events is not None):
            self.events.emit("breaker_open", now, wid=wid)

    def on_worker_crash(self, wid: int, stranded_rid: Optional[int],
                        now: int) -> List[Request]:
        """Crash fallout: the in-flight request consumes an attempt (and
        retries if budget remains); queued requests hedge back to the
        global pending queue.  Returns requests that reached a terminal
        state here."""
        terminal: List[Request] = []
        self._record_failure(wid, now)
        request = self.inflight.pop(wid, None)
        if request is not None:
            if stranded_rid is not None and request.rid != stranded_rid:
                raise RuntimeError(
                    f"balancer: worker {wid} stranded rid {stranded_rid} "
                    f"but rid {request.rid} was in flight")
            if request.attempts < self.max_attempts:
                self.pending.appendleft(request)
                if self.events is not None:
                    self.events.emit("request_requeued", now, wid=wid,
                                     rid=request.rid, reason="crash")
            else:
                request.status = "failed"
                request.detail = "crash; retries exhausted"
                request.completed_at = now
                terminal.append(request)
        # Hedged re-dispatch: queue assignment never consumed an attempt,
        # so hand the whole queue straight back (in order).  Zombies die
        # with the worker — their client is long gone.
        queued = self.queues[wid]
        while queued:
            waiting = queued.pop()
            if waiting.terminal:
                continue
            self.pending.appendleft(waiting)
            if self.events is not None:
                self.events.emit("request_hedged", now, wid=wid,
                                 rid=waiting.rid, reason="hedge")
        return terminal

    def _fail_backlog(self, now: int) -> List[Request]:
        failed: List[Request] = []
        while self.pending:
            request = self.pending.popleft()
            request.status = "failed"
            request.detail = "no capacity"
            request.completed_at = now
            failed.append(request)
        return failed

    def expire(self, now: int, deadline_ticks: int,
               abandon_in_place: bool = False) -> List[Request]:
        """Client timeouts: fail queued/pending requests older than the
        deadline.  In-flight requests are left to finish — the worker is
        actively serving them — so expiry models a client abandoning its
        place in line, not cancelling server work.

        ``abandon_in_place`` (naive overload mode) models the nastier
        real-world version for requests already bound to a worker queue:
        the client gives up, but the request is still sitting in the
        worker's accept buffer and will be served anyway — too late to
        matter, at full service cost.  Those zombies are reported as
        failed here but stay queued, so their eventual completion burns
        capacity without producing goodput."""
        expired: List[Request] = []
        cutoff = now - deadline_ticks

        def sweep(queue: Deque[Request],
                  in_place: bool = False) -> Deque[Request]:
            for request in queue:
                if request.arrival <= cutoff and not request.terminal:
                    break
            else:
                return queue                 # nothing expires this tick
            kept: Deque[Request] = deque()
            while queue:
                request = queue.popleft()
                if request.terminal:
                    kept.append(request)     # zombie: already reported
                elif now - request.arrival >= deadline_ticks:
                    request.status = "failed"
                    request.detail = "deadline"
                    request.completed_at = now
                    expired.append(request)
                    if in_place:
                        request.abandoned = True
                        kept.append(request)
                    if self.events is not None:
                        self.events.emit("request_expired", now,
                                         rid=request.rid,
                                         waited=now - request.arrival)
                else:
                    kept.append(request)
            return kept

        self.pending = sweep(self.pending)
        for wid in self.order:
            self.queues[wid] = sweep(self.queues[wid],
                                     in_place=abandon_in_place)
        return expired

    def abandon(self, now: int) -> List[Request]:
        """Campaign timeout: fail everything still in the system."""
        failed = self._fail_backlog(now)
        for wid in self.order:
            queue = self.queues[wid]
            while queue:
                request = queue.popleft()
                if request.terminal:
                    continue             # zombie: already reported
                request.status = "failed"
                request.detail = "campaign timeout"
                request.completed_at = now
                failed.append(request)
            request = self.inflight.pop(wid, None)
            if request is not None:
                request.status = "failed"
                request.detail = "campaign timeout"
                request.completed_at = now
                failed.append(request)
        return failed

    # ------------------------------------------------------------------
    def replace_worker(self, wid: int, worker) -> None:
        """Failover: a promoted replica takes over ``wid``'s slot.  The
        queue, breaker, and retry bookkeeping carry over — clients see
        the same shard, served by a different enclave."""
        if wid not in self.workers:
            raise KeyError(f"balancer has no worker {wid}")
        if wid in self.inflight:
            raise RuntimeError(
                f"cannot replace worker {wid} with a request in flight")
        self.workers[wid] = worker

    # ------------------------------------------------------------------
    def breaker_opens(self) -> int:
        return sum(b.opens for b in self.breakers.values())
