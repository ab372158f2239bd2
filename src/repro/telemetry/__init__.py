"""``repro.telemetry`` — tracing, metrics, and overhead attribution.

Three cooperating pieces (see DESIGN.md, "Telemetry & attribution"):

* :class:`~repro.telemetry.metrics.MetricsRegistry` — named counters,
  gauges and deterministic-bucket histograms published by the VM, the
  scheme runtimes, the EPC/cache model, NetworkSim and the chaos harness;
* :class:`~repro.telemetry.tracer.SpanTracer` — per-function, per-native
  and per-request spans on the simulated instruction clock, exportable as
  Chrome ``trace_event`` JSON or a text flame table;
* :mod:`~repro.telemetry.profiler` — per-function counter attribution
  and the scheme-vs-native overhead decomposition (Table 3's
  check / cache / EPC-fault cycle split).

Telemetry is off by default and zero-cost when off: events shared with
other sinks come through :mod:`repro.obs.events`, whose hub is not
built without an attached handle, other hooks cost one ``is None`` test,
and attaching a handle never changes simulated counters.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.core import Telemetry
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_bounds,
)
from repro.telemetry.profiler import (
    ATTRIB_FIELDS,
    FunctionProfile,
    attribute_overhead,
    flame_rows,
)
from repro.telemetry.results import emit_result, to_jsonable, write_json
from repro.telemetry.tracer import SpanTracer

#: Process-wide default telemetry, set by CLI flags (``--trace-out``);
#: the harness falls back to it when no explicit Telemetry is passed.
_default: Optional[Telemetry] = None


def set_default(telemetry: Optional[Telemetry]) -> None:
    global _default
    _default = telemetry


def get_default() -> Optional[Telemetry]:
    return _default


__all__ = [
    "ATTRIB_FIELDS",
    "Counter",
    "FunctionProfile",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanTracer",
    "Telemetry",
    "attribute_overhead",
    "emit_result",
    "exponential_bounds",
    "flame_rows",
    "get_default",
    "set_default",
    "to_jsonable",
    "write_json",
]
