"""Causal request tracing across the fleet: trace contexts and hop trees.

A :class:`TraceContext` is minted once per request id at client submit —
``trace_id`` derives deterministically from the campaign seed and the
request id, so two identical seeded campaigns mint identical contexts —
and travels with the request through every layer it touches: the
balancer's pending queue, the admission gate, dispatch onto a worker,
the NetworkSim frame that carries the payload into the enclave (the
wire format is the bare ``trace_id`` string on the message, surviving
``maxlen`` splits and per-message-id retries because both reuse the same
message object/id), execution in the enclave VM, and back out as a
reply, a retry, a hedge re-dispatch, or a failover to a promoted
replica.

The :class:`FleetTracer` collects the resulting *hop events* keyed by
request id: flat, append-only, on the campaign tick clock.  At export
time the events of one request fold into a deterministic hop tree
(``client→admission→queue→dispatch→enclave→reply``, with retry/hedge
branches as sibling subtrees), renderable as a text waterfall or as
Chrome ``trace_event`` JSON.  Nothing here reads wall clocks or charges
simulated counters: tracing is observation-only, exactly like
:mod:`repro.telemetry` and :mod:`repro.forensics`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry.tracer import chrome_trace_document

#: Hop kinds in the order they occur on the happy path.
HOP_KINDS = (
    "client_submit",   # request minted at the client (first arrival)
    "client_retry",    # client resubmitted after a failed terminal
    "admission",       # passed the admission gate (or no gate present)
    "rejected",        # turned away at the gate (terminal)
    "assign",          # bound to one worker's ingress queue
    "dispatch",        # entered service on a worker (one per attempt)
    "enclave",         # enclave execution sample (cycles/checks/faults)
    "requeue",         # crash fallout: hedged back to the pending queue
    "expired",         # client patience ran out while queued
    "zombie_done",     # late completion of an abandoned request
    "failover",        # served by a replica promoted into a dead slot
    "reply",           # terminal outcome reached the client
)


class TraceContext:
    """Identity of one causal request trace (W3C-traceparent-shaped).

    ``trace_id`` is the request's fleet-wide identity; ``span_id``
    numbers hops within the trace (root = 1); ``parent_id`` links a hop
    to the hop that caused it.  All ids derive from ``(seed, rid)`` so
    contexts are byte-identical across identical seeded runs.
    """

    __slots__ = ("trace_id", "rid", "next_span")

    def __init__(self, trace_id: str, rid: int):
        self.trace_id = trace_id
        self.rid = rid
        self.next_span = 1

    def child(self) -> int:
        """Allocate the next span id within this trace."""
        span = self.next_span
        self.next_span += 1
        return span


def mint_trace_id(seed: int, rid: int) -> str:
    """Deterministic 16-hex-digit trace id from the campaign seed."""
    # splitmix64-style mix: cheap, stable across platforms, and seeded,
    # so distinct campaigns produce distinct id spaces.
    x = ((seed & 0xFFFFFFFF) << 32) ^ (rid + 0x9E3779B97F4A7C15)
    x &= (1 << 64) - 1
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & ((1 << 64) - 1)
    x ^= x >> 31
    return f"{x:016x}"


class Hop:
    """One hop event inside a request's trace."""

    __slots__ = ("span_id", "parent_id", "kind", "tick", "wid", "detail")

    def __init__(self, span_id: int, parent_id: int, kind: str, tick: int,
                 wid: Optional[int], detail: Dict[str, object]):
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.tick = tick
        self.wid = wid
        self.detail = detail

    def as_dict(self) -> Dict[str, object]:
        return {"span_id": self.span_id, "parent_id": self.parent_id,
                "kind": self.kind, "tick": self.tick, "wid": self.wid,
                "detail": self.detail}


class RequestTrace:
    """All hops of one request id, in emission order."""

    __slots__ = ("context", "hops", "first_tick", "terminal_tick",
                 "status", "priority")

    def __init__(self, context: TraceContext, tick: int,
                 priority: Optional[str] = None):
        self.context = context
        self.hops: List[Hop] = []
        self.first_tick = tick
        self.terminal_tick: Optional[int] = None
        self.status: Optional[str] = None
        self.priority = priority

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def rid(self) -> int:
        return self.context.rid

    def add(self, kind: str, tick: int, wid: Optional[int] = None,
            parent_id: int = 1, **detail) -> Hop:
        hop = Hop(self.context.child(), parent_id, kind, tick, wid, detail)
        self.hops.append(hop)
        return hop

    def dispatches(self) -> List[Hop]:
        return [h for h in self.hops if h.kind == "dispatch"]

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "rid": self.rid,
            "priority": self.priority,
            "first_tick": self.first_tick,
            "terminal_tick": self.terminal_tick,
            "status": self.status,
            "hops": [h.as_dict() for h in self.hops],
        }


class FleetTracer:
    """Per-campaign collection of request traces, bounded and exportable.

    ``max_traces`` bounds memory the way the flight recorder does: the
    first N request ids get full hop trees, later ones are counted in
    :attr:`dropped_traces` (their hops are not stored).  Campaign-level
    events that are not tied to one request (promotions, boots) land in
    :attr:`notes`.
    """

    def __init__(self, seed: int = 0, max_traces: int = 100_000):
        self.seed = seed
        self.max_traces = max_traces
        self.traces: Dict[int, RequestTrace] = {}
        self.dropped_traces = 0
        self.dropped_hops = 0
        self.notes: List[Tuple[int, str, Optional[int]]] = []
        self.hop_counts: Dict[str, int] = {}

    # -- recording ------------------------------------------------------
    def submit(self, rid: int, tick: int,
               priority: Optional[str] = None) -> Optional[str]:
        """Mint (or extend) the trace for ``rid`` at client submit time.

        Returns the trace id, or None when the trace table is full (the
        request travels untraced)."""
        trace = self.traces.get(rid)
        if trace is None:
            if len(self.traces) >= self.max_traces:
                self.dropped_traces += 1
                return None
            context = TraceContext(mint_trace_id(self.seed, rid), rid)
            trace = self.traces[rid] = RequestTrace(context, tick, priority)
            self._count("client_submit")
            trace.add("client_submit", tick, parent_id=0,
                      priority=priority)
        else:
            # Same rid resubmitted by the client: same root, new branch.
            self._count("client_retry")
            trace.add("client_retry", tick)
        return trace.trace_id

    def hop(self, rid: int, kind: str, tick: int,
            wid: Optional[int] = None, **detail) -> None:
        trace = self.traces.get(rid)
        if trace is None:
            self.dropped_hops += 1
            return
        self._count(kind)
        parent = 1
        if kind == "enclave" and trace.hops:
            # The enclave sample hangs off its dispatch hop.
            for hop in reversed(trace.hops):
                if hop.kind == "dispatch":
                    parent = hop.span_id
                    break
        trace.add(kind, tick, wid=wid, parent_id=parent, **detail)

    def terminal(self, rid: int, tick: int, status: str,
                 wid: Optional[int] = None) -> None:
        """The request reached its terminal state (first terminal wins:
        hedged duplicates and zombie completions never re-close a root)."""
        trace = self.traces.get(rid)
        if trace is None:
            self.dropped_hops += 1
            return
        if trace.status is not None:
            self._count("zombie_done")
            trace.add("zombie_done", tick, wid=wid, status=status)
            return
        trace.status = status
        trace.terminal_tick = tick
        self._count("reply")
        trace.add("reply", tick, wid=wid, status=status)

    def note(self, kind: str, tick: int, wid: Optional[int] = None) -> None:
        """Campaign-level event not tied to one request."""
        self.notes.append((tick, kind, wid))

    def _count(self, kind: str) -> None:
        self.hop_counts[kind] = self.hop_counts.get(kind, 0) + 1

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.traces)

    def get(self, rid: int) -> Optional[RequestTrace]:
        return self.traces.get(rid)

    def completed(self, status: Optional[str] = None) -> List[RequestTrace]:
        """Traces that reached a terminal state, rid order."""
        return [self.traces[rid] for rid in sorted(self.traces)
                if self.traces[rid].status is not None
                and (status is None or self.traces[rid].status == status)]

    # -- export ---------------------------------------------------------
    def chrome_trace(self, tick_cycles: int = 1) -> Dict[str, object]:
        """Chrome ``trace_event`` document of every hop tree.

        One process lane per worker (pid = wid + 1; pid 0 is the client/
        balancer lane), spans in tick units scaled by ``tick_cycles``.
        """
        events: List[Dict[str, object]] = []
        for rid in sorted(self.traces):
            trace = self.traces[rid]
            end = trace.terminal_tick if trace.terminal_tick is not None \
                else max((h.tick for h in trace.hops),
                         default=trace.first_tick)
            events.append({
                "name": f"request {trace.trace_id}", "cat": "request",
                "ph": "X", "ts": trace.first_tick * tick_cycles,
                "dur": max(0, (end - trace.first_tick + 1) * tick_cycles),
                "pid": 0, "tid": rid,
                "args": {"trace_id": trace.trace_id, "rid": rid,
                         "status": trace.status,
                         "priority": trace.priority}})
            for hop in trace.hops:
                lane = 0 if hop.wid is None else hop.wid + 1
                events.append({
                    "name": hop.kind, "cat": "hop", "ph": "i",
                    "ts": hop.tick * tick_cycles, "s": "t",
                    "pid": lane, "tid": rid,
                    "args": {"trace_id": trace.trace_id,
                             "span_id": hop.span_id,
                             "parent_id": hop.parent_id,
                             **{k: v for k, v in sorted(hop.detail.items())
                                if isinstance(v, (int, float, str, bool,
                                                  type(None)))}}})
        return chrome_trace_document(
            events, "campaign ticks x tick_cycles", traces=len(self.traces),
            dropped_traces=self.dropped_traces,
            dropped_hops=self.dropped_hops)

    def waterfall(self, rid: int) -> str:
        """Deterministic text waterfall of one request's hop tree."""
        trace = self.traces.get(rid)
        if trace is None:
            return f"rid {rid}: no trace recorded"
        t0 = trace.first_tick
        end = trace.terminal_tick if trace.terminal_tick is not None else t0
        lines = [f"trace {trace.trace_id} rid={rid} "
                 f"priority={trace.priority or '-'} "
                 f"status={trace.status or 'open'} "
                 f"ticks=[{t0}, {end}] end_to_end={end - t0 + 1}"]
        children: Dict[int, List[Hop]] = {}
        for hop in trace.hops:
            children.setdefault(hop.parent_id, []).append(hop)

        def render(hop: Hop, depth: int) -> None:
            detail = " ".join(
                f"{k}={hop.detail[k]}" for k in sorted(hop.detail)
                if hop.detail[k] is not None)
            wid = "" if hop.wid is None else f" wid={hop.wid}"
            pad = "  " * depth
            lines.append(f"  +{hop.tick - t0:>4} {pad}{hop.kind}"
                         f"{wid}{' ' + detail if detail else ''}")
            for child in children.get(hop.span_id, ()):
                render(child, depth + 1)

        roots = children.get(0)
        if roots:
            for root in roots:
                render(root, 0)
        else:       # defensive: a trace with no root renders flat
            for hop in trace.hops:
                render(hop, 0)
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        terminal = [t for t in self.traces.values() if t.status is not None]
        return {
            "traces": len(self.traces),
            "terminal": len(terminal),
            "dropped_traces": self.dropped_traces,
            "dropped_hops": self.dropped_hops,
            "hops": {k: self.hop_counts[k]
                     for k in sorted(self.hop_counts)},
        }
