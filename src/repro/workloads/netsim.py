"""Network simulation for the server case studies.

The paper drives Memcached/Apache/Nginx from client machines over a 10 Gb
link; here clients are request generators feeding per-connection message
queues, and the servers reach them through the ``net_recv``/``net_send``
natives (the SCONE syscall interface).  Throughput is measured server-side
in simulated cycles per served request.

For the chaos experiments the clients are hardened the way real load
generators are: every connection keeps delivery/response accounting, a
request the server drops (``drop-request`` policy) can be retried a
bounded number of times with exponential backoff before the client gives
up and records an error, and all jitter comes from a seeded RNG so a
chaos run is reproducible byte-for-byte.

Every queued request is a :class:`_Message` with a process-unique id, so

* retry budgets are charged per message, not per ``(conn, payload)`` —
  two identical requests on one connection no longer share (and
  undercount) a budget, and an entry is cleaned up once its message is
  delivered and the connection has moved on;
* a partial read (``maxlen`` split) keeps the message's identity: the
  re-queued tail is the *same* message, so delivery accounting counts
  messages, never fragments.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Synthetic response the "client library" surfaces when the server drops
#: a request for good (retries exhausted).  Lives in the outgoing stream
#: so tests can assert the client saw the failure, but is NOT counted as a
#: served response.
ERROR_MARKER = b"ERR!"

#: Synthetic reply for a request the fleet's admission gate turned away
#: at enqueue.  Distinct from :data:`ERROR_MARKER` on purpose: an error
#: is the server failing a request it accepted; a rejection is the fleet
#: refusing to accept it at all (the client should back off, not retry),
#: and the two must never share a counter.
REJECTED_MARKER = b"RJCT"


class _Message:
    """One queued request with identity across splits and retries."""

    __slots__ = ("mid", "payload", "offset")

    def __init__(self, mid: int, payload: bytes):
        self.mid = mid
        self.payload = payload
        self.offset = 0           # bytes already read by the server


class ConnStats:
    """Per-connection delivery accounting."""

    __slots__ = ("pushed", "delivered", "responses", "errors", "retries",
                 "failed", "backoff_cycles", "error_replies", "rejected")

    def __init__(self) -> None:
        self.pushed = 0          # requests queued by the client
        self.delivered = 0       # requests fully read by the server
        self.responses = 0       # server responses (net_send calls)
        self.errors = 0          # error markers surfaced to the client
        self.retries = 0         # dropped requests re-queued for retry
        self.failed = 0          # requests abandoned after max retries
        self.backoff_cycles = 0  # client-side cycles spent backing off
        self.error_replies = 0   # ERROR_MARKER frames in the reply stream
        self.rejected = 0        # admission-gate rejections (RJCT frames)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class NetworkSim:
    """Message-oriented connection queues with failure accounting.

    ``retry_limit`` is how many times a client re-submits a request the
    server dropped; ``backoff_cycles`` is the base of the exponential
    backoff between attempts (doubled per retry, plus seeded jitter).
    The defaults (no retries, no seed) behave exactly like the original
    fire-and-forget queues.
    """

    def __init__(self, retry_limit: int = 0, backoff_cycles: int = 200,
                 seed: Optional[int] = None) -> None:
        self._incoming: Dict[int, Deque[_Message]] = {}
        self._outgoing: Dict[int, List[bytes]] = {}
        self._next_conn = 0
        self._next_mid = 0
        self.retry_limit = retry_limit
        self.backoff_cycles = backoff_cycles
        self._rng = random.Random(seed) if seed is not None else None
        self.conn_stats: Dict[int, ConnStats] = {}
        #: Retry attempts so far, keyed by message id.
        self._attempts: Dict[int, int] = {}
        #: Last fully delivered message per connection ``(mid, payload)``;
        #: the message whose failure a ``fail_request`` would report.
        self._await_outcome: Dict[int, Tuple[int, bytes]] = {}
        #: Optional ``repro.telemetry.Telemetry``; when attached, delivery
        #: events are published into its metrics registry.
        self.telemetry = None
        #: Optional ``repro.obs.events.EventHub``; when attached, the
        #: retry, error-reply and rejection paths emit events carrying the
        #: originating message id (``stats()`` aggregates lose it).
        self.events = None
        #: Clock for those events (callable returning the simulated
        #: timestamp); the VM wires its instruction counter in here.
        self.clock = None
        #: Message id of the most recent :meth:`recv` delivery (full or
        #: partial) — lets callers correlate a receive with its message.
        self.last_recv_mid: Optional[int] = None

    def _now(self) -> int:
        """Simulated timestamp for events (0 without a clock)."""
        return self.clock() if self.clock is not None else 0

    def _stats(self, conn: int) -> ConnStats:
        stats = self.conn_stats.get(conn)
        if stats is None:
            stats = self.conn_stats[conn] = ConnStats()
        return stats

    def _message(self, payload: bytes, mid: Optional[int] = None) -> _Message:
        if mid is None:
            mid = self._next_mid
            self._next_mid += 1
        return _Message(mid, payload)

    def connect(self, *requests: bytes) -> int:
        """Open a connection with ``requests`` queued for the server."""
        conn = self._next_conn
        self._next_conn += 1
        self._incoming[conn] = deque(self._message(r) for r in requests)
        self._outgoing[conn] = []
        self._stats(conn).pushed += len(requests)
        return conn

    def push(self, conn: int, data: bytes) -> int:
        """Queue one more request on an existing connection; returns the
        message id so dispatchers can correlate retries and errors."""
        message = self._message(data)
        self._incoming[conn].append(message)
        self._stats(conn).pushed += 1
        return message.mid

    def recv(self, conn: int, maxlen: int) -> Optional[bytes]:
        """Server-side receive: up to ``maxlen`` bytes of the front
        message; None at end-of-stream."""
        queue = self._incoming.get(conn)
        if not queue:
            return None
        message = queue[0]
        self.last_recv_mid = message.mid
        remaining = len(message.payload) - message.offset
        if remaining > maxlen:
            # Partial read: the tail stays at the front of the queue as
            # the same message, so accounting never sees a phantom
            # extra request.
            start = message.offset
            message.offset += maxlen
            return message.payload[start:start + maxlen]
        queue.popleft()
        data = message.payload[message.offset:]
        self._stats(conn).delivered += 1
        # The previously delivered message on this connection can only be
        # failed while it is the awaiting one; once a different message
        # takes that slot its retry budget is unreachable garbage — unless
        # it was requeued for retry and will come around again.
        prev = self._await_outcome.get(conn)
        if (prev is not None and prev[0] != message.mid
                and not any(m.mid == prev[0] for m in queue)):
            self._attempts.pop(prev[0], None)
        self._await_outcome[conn] = (message.mid, message.payload)
        if self.telemetry is not None:
            self.telemetry.registry.counter("net.delivered").inc()
        return data

    def send(self, conn: int, data: bytes) -> None:
        if data == ERROR_MARKER:
            # An error frame is a failure notification, never a served
            # response — keep it out of the availability numerator.
            self._stats(conn).error_replies += 1
            self._outgoing.setdefault(conn, []).append(data)
            return
        self._outgoing.setdefault(conn, []).append(data)
        self._stats(conn).responses += 1
        if self.telemetry is not None:
            registry = self.telemetry.registry
            registry.counter("net.responses").inc()
            registry.histogram("net.response_bytes").observe(
                max(1, len(data)))

    def fail_request(self, conn: int, raw: bytes) -> bool:
        """The server dropped ``raw`` mid-flight (drop-request recovery).

        Returns True when the client re-queues it for another attempt,
        False when retries are exhausted and the client records an error.
        Attempts are charged against the *message* last delivered on
        ``conn`` (identical payloads never share a budget); a direct call
        for a payload the connection never delivered gets a fresh id.
        """
        stats = self._stats(conn)
        awaiting = self._await_outcome.get(conn)
        if awaiting is not None and awaiting[1] == raw:
            mid = awaiting[0]
        else:
            mid = self._next_mid
            self._next_mid += 1
            self._await_outcome[conn] = (mid, raw)
        attempt = self._attempts.get(mid, 0)
        if attempt < self.retry_limit:
            self._attempts[mid] = attempt + 1
            stats.retries += 1
            backoff = self.backoff_cycles << attempt
            if self._rng is not None:
                backoff += self._rng.randrange(0, self.backoff_cycles // 4 + 1)
            stats.backoff_cycles += backoff
            # The re-queued attempt is the same message (same mid), so
            # its retry budget carries over.
            self._incoming.setdefault(conn, deque()).append(
                self._message(raw, mid=mid))
            if self.events is not None:
                self.events.emit("net_retry", self._now(), conn=conn,
                                 mid=mid, attempt=attempt + 1,
                                 backoff_cycles=backoff)
            return True
        self._attempts.pop(mid, None)
        stats.failed += 1
        stats.errors += 1
        stats.error_replies += 1
        if self.events is not None:
            self.events.emit("net_error", self._now(), conn=conn, mid=mid,
                             attempts=attempt)
        # Surface the failure to the client without counting it as a
        # served response.
        self._outgoing.setdefault(conn, []).append(ERROR_MARKER)
        return False

    def reject_request(self, conn: int) -> None:
        """The fleet's admission gate turned a request away at enqueue.

        The client sees a :data:`REJECTED_MARKER` frame in the reply
        stream; the ``rejected`` counter is kept strictly apart from
        ``errors``/``error_replies`` so availability math never conflates
        "the server failed it" with "the fleet declined it"."""
        stats = self._stats(conn)
        stats.rejected += 1
        self._outgoing.setdefault(conn, []).append(REJECTED_MARKER)
        if self.events is not None:
            self.events.emit("net_rejected", self._now(), conn=conn)

    def sent(self, conn: int) -> List[bytes]:
        """Everything the server wrote to ``conn``."""
        return self._outgoing.get(conn, [])

    def pending(self, conn: int) -> int:
        """Messages still queued on ``conn`` (a split tail counts as its
        one message, not an extra request)."""
        return len(self._incoming.get(conn, ()))

    def unserved(self) -> int:
        """Requests the server never *started* reading (e.g. it crashed).

        A message the server began but did not finish (a ``maxlen``
        split mid-read) is in flight, not unserved — see
        :meth:`partially_delivered`."""
        return sum(1 for q in self._incoming.values()
                   for m in q if m.offset == 0)

    def partially_delivered(self) -> int:
        """Messages the server started reading but has not finished."""
        return sum(1 for q in self._incoming.values()
                   for m in q if m.offset > 0)

    def stats(self, per_conn: bool = False) -> Dict[str, object]:
        """Aggregate delivery statistics across all connections.

        ``per_conn=True`` adds a ``"per_conn"`` breakdown (one entry per
        connection) so a load balancer can attribute failures to the
        worker behind each connection.
        """
        total = ConnStats()
        for stats in self.conn_stats.values():
            for name in ConnStats.__slots__:
                setattr(total, name, getattr(total, name) + getattr(stats, name))
        out = total.as_dict()
        out["availability"] = (total.responses / total.pushed
                               if total.pushed else 1.0)
        out["unserved"] = self.unserved()
        out["partially_delivered"] = self.partially_delivered()
        if per_conn:
            out["per_conn"] = {conn: self.conn_stats[conn].as_dict()
                               for conn in sorted(self.conn_stats)}
        return out
