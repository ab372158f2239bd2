"""Measure one workload in this process (``run.py`` starts one per
workload in a fresh interpreter).

    python benchmarks/perf/measure.py WORKLOAD [--seed N] [--seconds S]
        [--trace 0|1] [--out DIR]

Prints two JSON lines: a detail line (passes, digest, failures, rates)
and, last, the result line ``{"correct", "attempted", "failed",
"metrics"}``.

Timed run (``--trace 0``): whole passes over the workload's units, at
least :data:`MIN_PASSES` and until ``--seconds`` have elapsed.  Each
unit is timed separately every pass; ``pass_s`` sums each unit's best
set-up + run, ``setup_s`` sums each unit's median set-up.

Traced run (``--trace 1``): one untimed warm-up pass, then one pass with
a span around every call into the program and cProfile enabled inside
those spans only.  Self time is charged to layers (:mod:`layers`); the
spans, layer totals and counts are written to ``--out``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import pstats
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from typing import Dict, List

import layers
import units
from repro.telemetry.results import write_json

MIN_PASSES = 3

#: End-to-end metrics of the timed run: name -> unit.
END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Exact counts summed over the traced pass's units.
COUNTS = ("minic.ir_instrs", "passes.ir_instrs_added",
          "passes.checks_elided", "passes.checks_hoisted",
          "vm.predecode.functions") + tuple(
    f"sim.{name}" for name in units.SIM_COUNTERS) + (
    "fleet.ticks", "fleet.restarts", "fleet.requests",
    "fleet.failsafe_campaigns")

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {f"{layer}.self_s": "s" for layer in layers.LAYERS}
PER_LAYER.update({name: "count" for name in COUNTS})
PER_LAYER.update({
    "vm.dispatch.ns_per_instr": "ns",
    "sgx.ns_per_access": "ns",
    "fleet.us_per_tick": "us",
    "obs.us_per_request": "us",
    "trace.profiled_s": "s",
    "trace.overhead_x": "x",
})

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent / "out"


class Tracer:
    """Recorder of the traced run: spans plus cProfile inside them."""

    def __init__(self, name: str):
        self.profiler = cProfile.Profile()
        self.spans: List[Dict] = []
        self._origin = time.perf_counter()
        self._parent = self._open(name, None)

    def _open(self, name: str, parent) -> Dict:
        span = {"id": len(self.spans), "name": name,
                "parent": None if parent is None else parent["id"],
                "start": time.perf_counter() - self._origin, "end": None}
        self.spans.append(span)
        return span

    def _close(self, span: Dict) -> None:
        span["end"] = time.perf_counter() - self._origin

    @contextmanager
    def unit(self, name: str):
        span, outer = self._open(name, self._parent), self._parent
        self._parent = span
        try:
            yield
        finally:
            self._parent = outer
            self._close(span)

    def call(self, name: str, fn, *args, **kwargs):
        span = self._open(name, self._parent)
        self.profiler.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            self.profiler.disable()
            self._close(span)

    def finish(self) -> None:
        self._close(self.spans[0])


def run_pass(unit_list, rec, failures: Dict[str, List[str]]) -> Dict:
    """One pass over every unit: ``{name: (setup_s, run_s, outcome)}``
    for the units that did not raise; failures are appended, never
    raised."""
    done = {}
    for unit in unit_list:
        # Every unit starts from a collected heap, so none pays for the
        # garbage of the one before it.
        gc.collect()
        try:
            with rec.unit(unit.name):
                start = time.perf_counter()
                state = unit.setup(rec)
                ready = time.perf_counter()
                raw = unit.run(state, rec)
                end = time.perf_counter()
            outcome = unit.finish(state, raw)
        except Exception as err:    # a failing unit must not stop the rest
            traceback.print_exc(file=sys.stderr)
            failures[unit.name].append(f"raised {type(err).__name__}: {err}")
            continue
        # Free this unit's VMs before the next one is built, so peak RSS
        # is that of the largest unit, not of two.
        del state, raw
        failures[unit.name].extend(outcome.failures)
        done[unit.name] = (ready - start, end - ready, outcome)
    for name, reason in units.cross_check(
            unit_list, {name: got[2] for name, got in done.items()}):
        failures[name].append(reason)
    return done


def _sum_counts(outcomes) -> Dict[str, int]:
    total = {name: 0 for name in COUNTS}
    for outcome in outcomes:
        for name, value in outcome.counts.items():
            total[name] += value
    return total


def _workload_digest(unit_list, done: Dict) -> str:
    return units.digest_of([done[u.name][2].digest if u.name in done
                            else None for u in unit_list])


def _result(unit_list, failures, metrics: Dict[str, float],
            unit_of: Dict[str, str]) -> Dict:
    failed = sum(1 for u in unit_list if failures[u.name])
    return {"correct": failed == 0, "attempted": len(unit_list),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit_of[name]}
                        for name in unit_of}}


def timed(unit_list, seconds: float):
    """The timed run: ``(detail, result)``."""
    failures = {u.name: [] for u in unit_list}
    samples = {u.name: [] for u in unit_list}
    digests = {u.name: set() for u in unit_list}
    first = None
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        done = run_pass(unit_list, units.UNTRACED, failures)
        first = first or done
        for name, (setup_s, run_s, outcome) in done.items():
            samples[name].append((setup_s, run_s))
            digests[name].add(outcome.digest)
        passes += 1
    for name, seen in digests.items():
        if len(seen) > 1:
            failures[name].append(f"simulated digest differs across "
                                  f"repetitions ({len(seen)} variants)")
    timed_units = [s for s in samples.values() if s]
    metrics = {
        "pass_s": sum(min(a + b for a, b in s) for s in timed_units),
        "setup_s": sum(statistics.median(a for a, _ in s)
                       for s in timed_units),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    run_s = sum(min(b for _, b in s) for s in timed_units)
    counts = _sum_counts(got[2] for got in first.values())
    rates = {}
    if counts["sim.instructions"] and run_s:
        rates["sim_mips"] = counts["sim.instructions"] / run_s / 1e6
    if counts["fleet.requests"] and run_s:
        rates["req_per_s"] = counts["fleet.requests"] / run_s
    detail = {"passes": passes, "digest": _workload_digest(unit_list, first),
              "run_s": run_s, "rates": rates,
              "failures": {k: v for k, v in failures.items() if v}}
    return detail, _result(unit_list, failures, metrics, END_TO_END)


def _ratio(numerator: float, denominator: float, scale: float) -> float:
    """``numerator / denominator`` in the metric's unit; 0 without a
    base (e.g. instructions on a workload that executes nothing)."""
    return numerator * scale / denominator if denominator else 0.0


def traced(unit_list, out_path: pathlib.Path, meta: Dict):
    """The traced run: ``(detail, result)``; writes the spans, layer
    totals and counts, tagged with ``meta``, to ``out_path``."""
    failures = {u.name: [] for u in unit_list}
    base = run_pass(unit_list, units.UNTRACED, failures)
    tracer = Tracer("pass")
    done = run_pass(unit_list, tracer, failures)
    tracer.finish()
    for name in set(base) & set(done):
        if base[name][2].digest != done[name][2].digest:
            failures[name].append("simulated digest differs between the "
                                  "untraced and the traced pass")
    stats = pstats.Stats(tracer.profiler).stats
    self_s = layers.attribute(stats)
    profiled = sum(record[2] for record in stats.values())
    counts = _sum_counts(got[2] for got in done.values())
    metrics = {f"{layer}.self_s": self_s[layer] for layer in layers.LAYERS}
    metrics.update(counts)
    metrics.update({
        "vm.dispatch.ns_per_instr": _ratio(
            self_s["vm.dispatch"], counts["sim.instructions"], 1e9),
        "sgx.ns_per_access": _ratio(
            self_s["sgx"], counts["sim.l1_accesses"], 1e9),
        "fleet.us_per_tick": _ratio(
            self_s["fleet"], counts["fleet.ticks"], 1e6),
        "obs.us_per_request": _ratio(
            self_s["obs"], counts["fleet.requests"], 1e6),
        "trace.profiled_s": profiled,
        "trace.overhead_x": _ratio(
            sum(a + b for a, b, _ in done.values()),
            sum(a + b for a, b, _ in base.values()), 1.0),
    })
    digest = _workload_digest(unit_list, done)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(out_path, dict(meta, digest=digest, spans=tracer.spans,
                              layers_self_s=self_s, counts=counts,
                              metrics=metrics))
    detail = {"digest": digest, "trace_out": str(out_path),
              "failures": {k: v for k, v in failures.items() if v}}
    return detail, _result(unit_list, failures, metrics, PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(units.WORKLOADS))
    parser.add_argument("--seed", type=int, default=units.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    unit_list = units.WORKLOADS[args.workload](args.seed)
    meta = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        detail, result = traced(
            unit_list, args.out / f"{args.workload}.trace.json", meta)
    else:
        detail, result = timed(unit_list, args.seconds)
    print(json.dumps(dict(meta, **detail), sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
