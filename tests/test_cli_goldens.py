"""Golden-output regression tests for the CLI experiments.

``tests/goldens/*.txt`` pins the exact stdout of
``python -m repro <experiment> --seed 7 --size XS`` for the seven
simulation experiments.  Two properties are enforced:

* **fastpath ON matches the goldens** — the predecoded interpreter
  reproduces the pre-fastpath output byte for byte (the goldens were
  captured with identity against the reference loop already proven);
* **fastpath OFF matches the goldens too** (spot-check) — so the
  reference loop, now off the default path, cannot silently rot.

Timing lines are excluded: five experiments print theirs to stderr
(``_STDERR_TIMING`` in :mod:`repro.__main__`) and postmortem prints its
own there, which we do not capture; chaos prints ``[chaos: N.Ns]`` to
stdout and it is stripped on both sides of the diff.

To regenerate after an intentional output change::

    for c in fleet chaos recover redteam overload observe postmortem; do
      PYTHONPATH=src python -m repro $c --seed 7 --size XS \
        > tests/goldens/$c.txt 2>/dev/null
    done
    sed -i '/^\\[chaos: [0-9.]*s\\]$/d' tests/goldens/chaos.txt
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"

EXPERIMENTS = ("fleet", "chaos", "recover", "redteam", "overload", "observe",
               "postmortem")

_TIMING = re.compile(r"^\[chaos: [0-9.]+s\]$", re.MULTILINE)


def _run_cli(experiment: str, fastpath: bool) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_VM_FASTPATH"] = "1" if fastpath else "0"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", experiment,
         "--seed", "7", "--size", "XS"],
        capture_output=True, text=True, env=env, cwd=str(REPO),
        timeout=300)
    assert proc.returncode == 0, \
        f"{experiment} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
    return _TIMING.sub("", proc.stdout).rstrip("\n")


def _golden(experiment: str) -> str:
    return (GOLDENS / f"{experiment}.txt").read_text().rstrip("\n")


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_golden_fastpath_on(experiment):
    assert _run_cli(experiment, fastpath=True) == _golden(experiment), (
        f"'python -m repro {experiment} --seed 7 --size XS' drifted from "
        f"tests/goldens/{experiment}.txt with the fast path on")


@pytest.mark.parametrize("experiment", ("fleet", "chaos", "redteam"))
def test_golden_fastpath_off(experiment):
    """Reference-loop spot-check: the non-default interpreter must keep
    producing the same pinned output (full six-way OFF coverage lives in
    the differential oracle; three subprocesses keep this cheap)."""
    assert _run_cli(experiment, fastpath=False) == _golden(experiment), (
        f"'python -m repro {experiment}' drifted from the golden with "
        f"REPRO_VM_FASTPATH=0 — the reference interpreter has rotted")
