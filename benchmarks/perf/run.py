"""Layered host-clock benchmark of the SGXBounds reproduction.

    python benchmarks/perf/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR]

Runs each workload (default: all five) in a fresh single-threaded
interpreter, one after another, and relays its output: a JSON detail
line, then the JSON result line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace`` (or ``--trace 1``) swaps the timed run for
the layer-attributed traced run.  See README.md for the workloads,
metrics and layers.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("kernels", "sqlite_epc", "fleet_restart", "fleet_observed",
             "compile_corpus")
#: Seconds one workload may take before it is killed.
CHILD_TIMEOUT = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measuring time per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="directory for traced-run exports")
    args = parser.parse_args(argv)
    for workload in args.workload or WORKLOADS:
        cmd = [sys.executable, str(HERE / "measure.py"), workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", args.out]
        try:
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"{workload}: timed out after {CHILD_TIMEOUT}s",
                  file=sys.stderr)
            return 1
        if child.returncode != 0:
            print(f"{workload}: measurement failed with exit code "
                  f"{child.returncode}", file=sys.stderr)
            return 1
        sys.stdout.write(child.stdout)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
