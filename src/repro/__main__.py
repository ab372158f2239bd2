"""Command-line entry point: regenerate any of the paper's experiments.

Usage::

    python -m repro list
    python -m repro fig1 fig7 tab4 --size S
    python -m repro profile fig07 --trace-out trace.json

Every command is one row of :data:`EXPERIMENTS`: a driver returning
``(data, text)`` and writers for the artifacts it owns, its
``--results-out`` document among them.  One loop prints each report to
stdout and every status line (``[fig7: 1.2s]``, ``[results -> r.json]``)
to stderr.  ``--trace-out``/``--metrics-out``/``--log-out`` go to a
shared telemetry or forensics sink when a selected row records into it,
merging those rows into one file; any other path flag must be written by
exactly one selected run, else the command ends in a usage error.  So
does a value flag (``--workers``, ``--fault-rate``, ``--rewarm-scales``)
that no selected row reads.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro import forensics as forensics_mod
from repro import telemetry as telemetry_mod
from repro.fleet.balancer import POLICIES as BALANCE_POLICIES
from repro.harness import experiments as exp
from repro.harness.chaos import PROFILES, chaos_availability
from repro.harness.profile import profile_experiment, resolve_target
from repro.obs.dashboard import observe_fleet
from repro.redteam import matrix_document, run_matrix
from repro.telemetry.results import result_document, to_jsonable, write_json
from repro.vm.policy import ALL_POLICIES
from repro.workloads import SIZES

#: Path flags a shared telemetry/forensics sink can serve.
SINKS = ("trace_out", "metrics_out", "log_out")
#: Every path flag, in the order a run writes its artifacts.
ARTIFACTS = SINKS + ("metrics_text_out", "results_out")
#: Value flags only some rows read, with their defaults.
VALUES = {"workers": 4, "fault_rate": 0.2, "rewarm_scales": (1.0, 8.0)}

Writer = Callable[[object, str], None]


@dataclass(frozen=True)
class Experiment:
    """One CLI command; ``run(args, target)`` returns ``(data, text)``."""

    run: Callable[[argparse.Namespace, Optional[str]], Tuple[object, str]]
    #: flag -> ``write(data, path)`` for each artifact the run owns.
    artifacts: Mapping[str, Writer] = field(default_factory=dict)
    #: sink flags whose shared sink records this run.
    sinks: Tuple[str, ...] = SINKS
    #: the :data:`VALUES` flags this run reads.
    reads: Tuple[str, ...] = ()
    #: positional targets (``profile fig07``): metavar for ``list``, a
    #: validator raising ``KeyError``, and the target when none is given.
    targets: Optional[str] = None
    check: Optional[Callable[[str], object]] = None
    default: Optional[str] = None


def _sized(driver):
    return lambda args, _: driver(size=args.size)


def _policies(args):
    return ([args.policy] if args.policy
            else ["abort", "drop-request", "boundless"])


def _json(key):
    return lambda data, path: write_json(path, data[key])


def _results(build):
    """The ``--results-out`` writer: ``build(data)`` is the document."""
    return {"results_out": lambda data, path: write_json(path, build(data))}


def _pick(data, keys):
    return {key: data[key] for key in keys}


def _fleet_app(app):
    if app not in PROFILES:
        raise KeyError(f"unknown fleet app {app!r}; "
                       f"expected one of {sorted(PROFILES)}")


_OBSERVE_KEYS = ("app", "size", "seed", "workers", "schemes", "exemplars",
                 "alerts")
_PROFILE_KEYS = ("experiment", "size", "schemes", "baseline", "metrics")

EXPERIMENTS: Dict[str, Experiment] = {
    "tab1": Experiment(lambda args, _: exp.tab1_defenses()),
    "fig1": Experiment(lambda args, _: exp.fig1_sqlite()),
    "fig7": Experiment(_sized(exp.fig7_phoenix_parsec)),
    "fig8": Experiment(lambda args, _: exp.fig8_working_set()),
    "fig9": Experiment(_sized(exp.fig9_multithreading)),
    "fig10": Experiment(_sized(exp.fig10_optimizations)),
    "tab4": Experiment(lambda args, _: exp.tab4_ripe()),
    "fig11": Experiment(_sized(exp.fig11_spec_sgx)),
    "fig12": Experiment(_sized(exp.fig12_spec_native)),
    "fig13": Experiment(lambda args, _: exp.fig13_case_studies()),
    "chaos": Experiment(lambda args, _: chaos_availability(
        policies=_policies(args), fault_rates=(0.0, args.fault_rate),
        size=args.size, seed=args.seed), reads=("fault_rate",)),
    "fleet": Experiment(lambda args, _: exp.fleet_availability(
        app=args.app, workers=args.workers, fault_rate=args.fault_rate,
        seed=args.seed, size=args.size, policies=_policies(args),
        rewarm_scales=args.rewarm_scales, balance=args.balance),
        reads=tuple(VALUES)),
    # recover and overload fix their campaign shapes (workers, fault
    # rate, rates) so failover and saturation deterministically occur.
    "recover": Experiment(
        lambda args, _: exp.recovery_rpo(policies=_policies(args),
                                         size=args.size),
        artifacts=_results(lambda data: result_document(
            "recovery_rpo", {"cells": data}))),
    "redteam": Experiment(lambda args, _: run_matrix(seed=args.seed),
                          artifacts=_results(matrix_document)),
    "overload": Experiment(
        lambda args, _: exp.overload_goodput(size=args.size,
                                             seed=args.seed),
        artifacts=_results(lambda data: result_document(
            "overload_goodput", {"cells": data}))),
    # Alone, --trace-out is the fleet tracer's causal hop trees; beside
    # other experiments the shared telemetry sink owns it.  The alert
    # campaigns need a telemetry registry only for the exposition.
    "observe": Experiment(
        lambda args, _: observe_fleet(
            app=args.app, workers=args.workers, seed=args.seed,
            size=args.size, telemetry=telemetry_mod.Telemetry()
            if args.metrics_text_out else None),
        artifacts={"metrics_text_out": lambda data, path: Path(
                       path).write_text(data["exposition"]),
                   "trace_out": _json("chrome_trace"),
                   **_results(lambda data: result_document(
                       "observe_dashboard", _pick(data, _OBSERVE_KEYS)))},
        sinks=("log_out",), reads=("workers",)),
    "profile": Experiment(
        lambda args, target: profile_experiment(target, size=args.size),
        artifacts={"trace_out": _json("trace"),
                   "metrics_out": lambda data, path: write_json(
                       path, to_jsonable(_pick(data, _PROFILE_KEYS))),
                   **_results(lambda data: result_document(
                       f"profile_{data['experiment']}_{data['size']}",
                       _pick(data, _PROFILE_KEYS)))},
        sinks=(), targets="<experiment|workload>", check=resolve_target),
    "postmortem": Experiment(
        lambda args, target: exp.fleet_postmortem(
            app=target, policy=args.policy or "abort",
            workers=args.workers, fault_rate=args.fault_rate,
            seed=args.seed, size=args.size, balance=args.balance),
        artifacts={"log_out":
                   lambda data, path: data["forensics"].write_log(path),
                   **_results(lambda data: result_document(
                       f"postmortem_{data['app']}",
                       {"campaign": data["result"].as_dict(),
                        "postmortems": data["forensics"].postmortems}))},
        sinks=(), reads=("workers", "fault_rate"), targets="<app>",
        check=_fleet_app, default="memcached"),
}

#: Writers for the shared sinks, given ``(telemetry, forensics)``.
_SINK_WRITERS: Dict[str, Writer] = {
    "trace_out": lambda s, path: write_json(path, s[0].chrome_trace()),
    "metrics_out": lambda s, path: write_json(path, s[0].metrics_snapshot()),
    "log_out": lambda s, path: s[1].write_log(path),
}


def _status(line: str) -> None:
    """The one sink for status lines: stdout carries only reports."""
    print(line, file=sys.stderr)


def _write(writers: Mapping[str, Writer], data, paths: Mapping[str, str]):
    for flag, path in paths.items():
        writers[flag](data, path)
        _status(f"[{flag[:-4].replace('_', '-')} -> {path}]")


def _runs(parser, args):
    """Resolve the positional arguments into ``(label, row, target)``."""
    head, rest = args.experiments[0], args.experiments[1:]
    row = EXPERIMENTS.get(head)
    if row is not None and row.targets:
        targets = rest or ([row.default] if row.default else [])
        if not targets:
            parser.error(f"{head}: expected at least one {row.targets} "
                         f"(e.g. 'python -m repro profile fig07')")
        for target in targets:
            try:
                row.check(target)
            except KeyError as err:
                parser.error(f"{head}: {err.args[0]}")
        return [(f"{head} {target}", row, target) for target in targets]
    names = ([name for name, row in EXPERIMENTS.items() if not row.targets]
             if args.experiments == ["all"] else args.experiments)
    for name in names:
        if name not in EXPERIMENTS or EXPERIMENTS[name].targets:
            parser.error(f"unknown experiment {name!r}; try 'list'")
    return [(name, EXPERIMENTS[name], None) for name in names]


def _route(parser, args, runs):
    """Apply the artifact rule: (shared sink paths, per-run paths)."""
    shared: Dict[str, str] = {}
    owned = [{} for _ in runs]
    for flag in ARTIFACTS:
        path = getattr(args, flag)
        if path is None:
            continue
        if flag in SINKS and any(flag in row.sinks for _, row, _ in runs):
            shared[flag] = path
            continue
        owners = [i for i, (_, row, _) in enumerate(runs)
                  if flag in row.artifacts]
        option = "--" + flag.replace("_", "-")
        if not owners:
            parser.error(f"{option}: {' '.join(args.experiments)} "
                         f"writes no such artifact")
        if len(owners) > 1:
            labels = ", ".join(runs[i][0] for i in owners)
            parser.error(f"{option}: {labels} would all write {path}; "
                         f"run them separately")
        owned[owners[0]][flag] = path
    return shared, owned


def _values(parser, args, runs) -> None:
    """Apply the value rule: a :data:`VALUES` flag given on the command
    line must be read by a selected run; an absent one takes its
    default."""
    for flag, default in VALUES.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif not any(flag in row.reads for _, row, _ in runs):
            parser.error(f"--{flag.replace('_', '-')}: "
                         f"{' '.join(args.experiments)} does not read it")


def _bounded(convert, ok, what):
    """argparse type: ``convert`` the text, then refuse values ``ok``
    rejects, so an out-of-range number is a usage error, not a run."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = convert.__name__     # "invalid int value: 'x'"
    return parse


_AT_LEAST_ONE = _bounded(int, lambda n: n >= 1, "an integer >= 1")
# NaN fails both comparisons, so it is refused like any other value.
_PROBABILITY = _bounded(float, lambda p: 0.0 <= p <= 1.0,
                        "a probability in [0, 1]")
_SCALE = _bounded(float, lambda x: math.isfinite(x) and x > 0,
                  "a finite number > 0")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the SGXBounds paper's tables and figures "
                    "on the simulated SGX substrate.")
    parser.add_argument("experiments", nargs="+",
                        help="experiment ids (see 'list') or 'all'")
    parser.add_argument("--size", default="XS", choices=SIZES,
                        help="workload size for sweeps")
    parser.add_argument("--policy", default=None, choices=ALL_POLICIES,
                        help="violation policy (default: compare abort, "
                             "drop-request and boundless)")
    parser.add_argument("--fault-rate", type=_PROBABILITY,
                        help="chaos/fleet/postmortem: request corruption "
                             "probability (default 0.2)")
    parser.add_argument("--seed", type=int, default=1234,
                        help="chaos run seed (fuzzer/scheduler/clients)")
    parser.add_argument("--app", default="memcached", choices=tuple(PROFILES),
                        help="fleet/observe: server app")
    parser.add_argument("--workers", type=_AT_LEAST_ONE,
                        help="fleet/observe/postmortem: number of enclave "
                             "workers (default 4)")
    parser.add_argument("--balance", default="round-robin",
                        choices=BALANCE_POLICIES,
                        help="fleet: dispatch policy")
    parser.add_argument("--rewarm-scales", type=_SCALE, nargs="+",
                        metavar="SCALE",
                        help="fleet: EPC re-warm multipliers to sweep "
                             "(default 1 8)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="export a Chrome trace_event JSON of the run")
    parser.add_argument("--metrics-text-out", metavar="PATH",
                        help="observe: write the Prometheus-style exposition")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="export the metrics snapshot as JSON")
    owners = "/".join(name for name, row in EXPERIMENTS.items()
                      if "results_out" in row.artifacts)
    parser.add_argument("--results-out", metavar="PATH",
                        help=f"{owners}: write the versioned result "
                             f"document (benchmarks/results/*.json)")
    parser.add_argument("--log-out", metavar="PATH",
                        help="export the flight-recorder event log (.jsonl "
                             "= JSONL, else text)")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.experiments == ["list"]:
        for name, row in EXPERIMENTS.items():
            print(f"  {name} {row.targets}" if row.targets else f"  {name}")
        return 0

    runs = _runs(parser, args)
    _values(parser, args, runs)
    shared, owned = _route(parser, args, runs)
    sinks = (telemetry_mod.Telemetry()
             if {"trace_out", "metrics_out"} & set(shared) else None,
             forensics_mod.Forensics() if "log_out" in shared else None)
    telemetry_mod.set_default(sinks[0])
    forensics_mod.set_default(sinks[1])
    try:
        for (label, row, target), paths in zip(runs, owned):
            started = time.time()
            data, text = row.run(args, target)
            print(text)
            _write(row.artifacts, data, paths)
            _status(f"[{label}: {time.time() - started:.1f}s]")
    finally:
        telemetry_mod.set_default(None)
        forensics_mod.set_default(None)
    _write(_SINK_WRITERS, sinks, shared)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
