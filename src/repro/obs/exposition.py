"""Prometheus-style text exposition: one snapshot, every subsystem.

Merges whatever observability surfaces a run produced — the telemetry
metrics registry, the SLO summary, burn-rate alert states, fleet trace
and span-buffer drop counts, flight-recorder drop counts — into one
deterministic text document in the Prometheus exposition format
(``# TYPE`` headers, ``name{label="v"} value`` samples, histograms as
cumulative ``_bucket``/``_sum``/``_count`` series).  Metric families are
emitted name-sorted and floats are formatted with a fixed ``%.10g``, so
two identical seeded runs produce byte-identical snapshots — the
``--metrics-text-out`` artifact diffs clean in CI.

Dropped-data counters are first-class here on purpose (satellite of this
PR): a truncated trace or an overflowed ring buffer must be visible in
the scrape, not silently absent, or every downstream consumer
over-trusts the data.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
#: Prefix of every metric family name.
NAMESPACE = "repro"


def _metric_name(name: str) -> str:
    """Prometheus-legal metric name: dots and dashes to underscores."""
    cleaned = _NAME_OK.sub("_", name.replace(".", "_").replace("-", "_"))
    return f"{NAMESPACE}_{cleaned}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:                    # NaN never escapes (S1)
            return "NaN"
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        return format(value, ".10g")
    raise TypeError(f"non-numeric exposition value {value!r}")


class _Family:
    __slots__ = ("name", "kind", "samples")

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind
        #: [(sample_suffix, labels, value)] in insertion order.
        self.samples: List[Tuple[str, Tuple[Tuple[str, str], ...],
                                 object]] = []


class Exposition:
    """Builder for one exposition document."""

    def __init__(self):
        self._families: Dict[str, _Family] = {}

    def add(self, name: str, value, kind: str = "gauge",
            labels: Optional[Dict[str, str]] = None,
            suffix: str = "") -> None:
        metric = _metric_name(name)
        family = self._families.get(metric)
        if family is None:
            family = self._families[metric] = _Family(metric, kind)
        label_items = tuple(sorted((labels or {}).items()))
        family.samples.append((suffix, label_items, value))

    # -- subsystem feeders ----------------------------------------------
    def add_registry(self, registry) -> None:
        """Every metric of a :class:`repro.telemetry.MetricsRegistry`."""
        for name, snap in registry.snapshot().items():
            kind = snap["kind"]
            if kind in ("counter", "gauge"):
                self.add(name, snap["value"], kind=kind)
                continue
            # Histogram: cumulative buckets + sum + count.
            cumulative = 0
            for edge, count in zip(snap["bounds"], snap["counts"]):
                cumulative += count
                self.add(name, cumulative, kind="histogram",
                         labels={"le": str(edge)}, suffix="_bucket")
            cumulative += snap["counts"][-1]
            self.add(name, cumulative, kind="histogram",
                     labels={"le": "+Inf"}, suffix="_bucket")
            self.add(name, snap["sum"], kind="histogram", suffix="_sum")
            self.add(name, snap["count"], kind="histogram", suffix="_count")

    def add_slo(self, slo_summary: Dict[str, object]) -> None:
        """Scalar SLO summary fields (None percentiles are skipped, not
        emitted as NaN — the S1 guard carries through to the scrape)."""
        for key, value in sorted(slo_summary.items()):
            if isinstance(value, bool) or not isinstance(value,
                                                         (int, float)):
                continue
            self.add(f"slo.{key}", value,
                     kind="counter" if key in ("submitted", "served",
                                               "error_replies", "failed")
                     else "gauge")

    def add_burn(self, engine) -> None:
        """Alert states of a :class:`repro.obs.burnrate.BurnRateEngine`."""
        for rule in engine.rules:
            labels = {"rule": rule.name}
            self.add("burn.alert_active",
                     1 if rule.name in engine.active else 0,
                     labels=labels)
        self.add("burn.alerts_fired_total", engine.fired, kind="counter")
        self.add("burn.alerts_cleared_total", engine.cleared,
                 kind="counter")

    def add_fleet_tracer(self, tracer) -> None:
        """Trace volume + drop counts of a fleet tracer."""
        self.add("trace.requests", len(tracer), kind="counter")
        self.add("trace.dropped_traces", tracer.dropped_traces,
                 kind="counter")
        self.add("trace.dropped_hops", tracer.dropped_hops,
                 kind="counter")

    def add_span_dropped(self, dropped: int) -> None:
        """The telemetry span buffer's overflow count (S2: published even
        when the Chrome trace itself is never exported)."""
        self.add("trace.dropped_events", dropped, kind="counter")

    def add_flightlog(self, forensics) -> None:
        """Ring-buffer drop accounting of a forensics flight recorder."""
        log = getattr(forensics, "recorder", forensics)
        self.add("flightlog.events_recorded", log.total, kind="counter")
        self.add("flightlog.events_dropped", log.dropped, kind="counter")

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        lines: List[str] = []
        for metric in sorted(self._families):
            family = self._families[metric]
            lines.append(f"# TYPE {metric} {family.kind}")
            for suffix, labels, value in family.samples:
                label_text = ""
                if labels:
                    inner = ",".join(f'{k}="{v}"' for k, v in labels)
                    label_text = "{" + inner + "}"
                lines.append(f"{metric}{suffix}{label_text} {_fmt(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def render_exposition(registry=None, slo=None, burn=None, tracer=None,
                      span_dropped: Optional[int] = None,
                      forensics=None) -> str:
    """One-call merge of every attached surface into exposition text."""
    exposition = Exposition()
    if registry is not None:
        exposition.add_registry(registry)
    if slo is not None:
        exposition.add_slo(slo)
    if burn is not None:
        exposition.add_burn(burn)
    if tracer is not None:
        exposition.add_fleet_tracer(tracer)
    if span_dropped is not None:
        exposition.add_span_dropped(span_dropped)
    if forensics is not None:
        exposition.add_flightlog(forensics)
    return exposition.render()
