"""Golden stdout and artifact checks for the CLI, one table row each.

Each row of ``ROWS`` runs ``python -m repro <command> --seed 7 --size XS``
once with its artifact flags pointing into ``tmp_path``.  Stdout is the
report alone (status lines go to stderr), so it must equal
``tests/goldens/<row>.txt``; then every file the run wrote passes one
shared result-envelope check (``--results-out``) and the row's
validator.

To regenerate after an intentional output change::

    for c in fleet chaos recover redteam overload observe postmortem; do
      PYTHONPATH=src python -m repro $c --seed 7 --size XS \\
        > tests/goldens/$c.txt 2>/dev/null
    done
    PYTHONPATH=src python -m repro profile histogram --seed 7 --size XS \\
      > tests/goldens/profile.txt 2>/dev/null
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.attribution import COMPONENTS
from repro.obs.trace import HOP_KINDS
from tests.test_telemetry import _assert_chrome_schema

REPO = Path(__file__).resolve().parent.parent
GOLDENS = Path(__file__).resolve().parent / "goldens"


# -- artifact validators (the data payload of a result document) -----------
def _check_recover(data):
    cells = data["cells"]
    assert cells, "sweep produced no cells"
    for key, cell in cells.items():
        policy, mode, interval = key.split("/")
        rec = cell["recovery"]
        assert rec["mode"] == mode
        assert {"rpo", "rto", "checkpoints", "sealing", "wal",
                "audit"} <= set(rec), key
        assert rec["rpo"]["lost_acked_total"] >= 0
        assert len(rec["audit"]["shards"]) == cell["config"]["workers"]
    wal = cells["abort/snapshot+wal/5"]["recovery"]
    assert wal["rpo"]["lost_acked_total"] == 0
    assert wal["audit"]["clean"]
    fresh = cells["abort/restart-fresh/5"]["recovery"]
    assert fresh["rpo"]["lost_acked_total"] > 0


def _check_redteam(data):
    grid = data["grid"]
    assert set(grid) == set(data["attack_classes"])
    for row in grid.values():
        assert set(row) == set(data["schemes"])
        for cell in row.values():
            assert 0 <= cell["detected"] <= cell["total"]
            assert cell["detected"] + cell["exploited"] <= cell["total"]
    labels = {"detected", "crash", "no-effect", "silent-corruption",
              "control-flow-hijack", "info-leak"}
    for key, counts in data["triage_breakdown"].items():
        assert set(counts) == labels, key
    for scheme, fp in data["false_positives"].items():
        assert fp["false_positives"] == 0, (scheme, fp["flagged"])
    leaks = data["boundless_leaks"]
    assert leaks["sgxbounds/boundless"]["leaked_bytes"] > 0
    assert "sgxbounds/abort" not in leaks
    assert {r["scheme"] for r in data["under_load"]} == set(data["schemes"])
    assert data["records"]


def _check_overload(data):
    cells = data["cells"]
    assert cells, "sweep produced no cells"
    for key, cell in cells.items():
        slo = cell["slo"]
        ov = slo["overload"]
        assert cell["config"]["overload"] in ("naive", "protected")
        assert cell["config"]["deadline_ticks"] > 0
        # Terminal accounting balances: every submitted rid reaches
        # exactly one of served/error/failed/rejected.
        assert slo["submitted"] == (slo["served"] + slo["error_replies"]
                                    + slo["failed"] + ov["rejected"]), key
        assert ov["timely"] <= slo["served"], key
        assert set(ov["by_class"]) == {"critical", "normal", "sheddable"}
        assert sum(ov["goodput_timeline"]) == ov["timely"], key
        if cell["config"]["overload"] == "naive":
            assert ov["rejected"] == 0, key
        assert cell["overload"]["mode"] == cell["config"]["overload"]
    meta = cells["metastable/sgxbounds/naive"]["slo"]["overload"]
    prot = cells["metastable/sgxbounds/protected"]["slo"]["overload"]
    assert prot["timely"] > meta["timely"], "no metastable gap"


def _check_hop_trace(doc):
    """Every hop names a known kind; every event carries its trace id."""
    assert doc["traceEvents"], "trace exported no events"
    assert doc["otherData"]["dropped_traces"] == 0
    for ev in doc["traceEvents"]:
        assert ev["ph"] in ("X", "i")
        if ev["cat"] == "hop":
            assert ev["name"] in HOP_KINDS, ev["name"]
        assert re.fullmatch(r"[0-9a-f]{16}", ev["args"]["trace_id"])


def _check_exposition(text):
    """Well-formed families, every sample declared, drop counters on."""
    typed = set()
    for line in text.splitlines():
        if line.startswith("# TYPE"):
            _, _, name, kind = line.split()
            assert kind in ("counter", "gauge", "histogram")
            typed.add(name)
            continue
        name = re.match(r"([a-zA-Z0-9_:]+)", line).group(1)
        assert any(name == t or name.startswith(t + "_") for t in typed), \
            f"undeclared family: {line}"
    assert {"repro_trace_dropped_traces", "repro_trace_dropped_events",
            "repro_flightlog_events_dropped",
            "repro_burn_alerts_fired_total"} <= typed


def _check_observe(data):
    """Exact-sum decomposition + the alert contrast."""
    for scheme, cell in data["schemes"].items():
        roll = cell["rollup"]
        assert roll["served"] > 0, scheme
        mean = sum(roll["mean_components"][c] for c in COMPONENTS)
        assert abs(mean - roll["mean_total_ticks"]) < 1e-9, scheme
    for label in ("slowest", "p50"):
        row = data["exemplars"][label]
        assert sum(row[c] for c in COMPONENTS) == row["total_ticks"]
    assert data["alerts"]["naive"]["burn"]["fired"] > 0
    assert data["alerts"]["protected"]["burn"]["fired"] == 0


def _check_postmortem(data):
    assert data["campaign"]["forensics"]["postmortems"] >= 1
    postmortems = data["postmortems"]
    assert postmortems, "campaign captured no postmortem"
    for pm in postmortems:
        assert {"schema", "trigger", "error", "scheme", "policy", "stack",
                "pointer", "epc", "events"} <= set(pm)
    first = postmortems[0]
    assert first["stack"], "postmortem has no call stack"
    assert any(f["line"] > 0 for f in first["stack"])
    assert first["pointer"]["bounds"], "pointer not decoded"
    assert first["events"], "no correlated flight-recorder events"


def _check_flight_log(rows):
    assert rows, "flight recorder exported no events"
    for row in rows:
        assert {"seq", "ts", "kind", "cat"} <= set(row)


def _check_chrome_trace(doc):
    _assert_chrome_schema(doc)
    assert doc["traceEvents"], "emitted trace is empty"


def _check_attribution(doc):
    """Profile metrics: per-function Table-3 attribution per scheme."""
    assert doc["baseline"] in doc["schemes"]
    for workload, per in doc["metrics"].items():
        for scheme, run in per["schemes"].items():
            if scheme == per["baseline"]:
                continue
            attribution = run["attribution"]
            assert set(attribution["shares"]) \
                == {"check", "cache", "epc_fault"}
            assert attribution["totals"]["total_cycles"] >= 0
            assert attribution["functions"], \
                f"{workload}/{scheme}: no per-function attribution"


# -- the table: argv, --results-out name, option -> (file, validator) ----
ROWS = {
    "fleet": ("fleet", None, {}),
    "chaos": ("chaos", None, {}),
    "recover": ("recover", "recovery_rpo", {
        "--results-out": ("recover.json", _check_recover)}),
    "redteam": ("redteam", "redteam_matrix", {
        "--results-out": ("redteam.json", _check_redteam)}),
    "overload": ("overload", "overload_goodput", {
        "--results-out": ("overload.json", _check_overload)}),
    "observe": ("observe", "observe_dashboard", {
        "--metrics-text-out": ("exposition.txt", _check_exposition),
        "--trace-out": ("obs-trace.json", _check_hop_trace),
        "--results-out": ("observe.json", _check_observe)}),
    "postmortem": ("postmortem", "postmortem_memcached", {
        "--log-out": ("flight.jsonl", _check_flight_log),
        "--results-out": ("postmortem.json", _check_postmortem)}),
    "profile": ("profile histogram", "profile_histogram_XS", {
        "--trace-out": ("trace.json", _check_chrome_trace),
        "--metrics-out": ("metrics.json", _check_attribution),
        "--results-out": ("profile.json", _check_attribution)}),
}


def _cli(argv, cwd: Path = REPO):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=str(cwd), timeout=300)


def _load(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in path.read_text().splitlines()]
    return path.read_text()


def _check_row(name: str, tmp_path: Path) -> None:
    command, result, artifacts = ROWS[name]
    argv = [*command.split(), "--seed", "7", "--size", "XS"]
    for option, (filename, _) in artifacts.items():
        argv += [option, str(tmp_path / filename)]
    proc = _cli(argv)
    assert proc.returncode == 0, \
        f"{name} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
    golden = (GOLDENS / f"{name}.txt").read_text().rstrip("\n")
    assert proc.stdout.rstrip("\n") == golden, (
        f"'python -m repro {command} --seed 7 --size XS' drifted from "
        f"tests/goldens/{name}.txt")
    for option, (filename, check) in artifacts.items():
        path = tmp_path / filename
        assert f"[{option[2:-4]} -> {path}]" in proc.stderr.splitlines()
        content = _load(path)
        if option == "--results-out":
            assert content["schema_version"] == 1
            assert content["name"] == result
            content = content["data"]
        check(content)


@pytest.mark.parametrize("experiment", ROWS)
def test_golden_fastpath_on(experiment, tmp_path):
    _check_row(experiment, tmp_path)


def test_shared_sinks_merge_runs(tmp_path):
    """Shared sinks merge several experiments into one file each."""
    trace, log = tmp_path / "trace.json", tmp_path / "flight.jsonl"
    proc = _cli(["tab1", "fleet", "--seed", "7", "--size", "XS",
                 "--trace-out", str(trace), "--log-out", str(log)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("Table 1")
    assert "\nFleet availability (memcached)" in proc.stdout
    assert not re.search(r"^\[.*\]$", proc.stdout, re.MULTILINE)
    _check_chrome_trace(_load(trace))
    _check_flight_log(_load(log))


def test_fleet_report_ignores_shared_sink(tmp_path):
    """Each campaign's latency percentiles are its own, so recording
    into a shared telemetry sink leaves the fleet report unchanged."""
    trace = tmp_path / "trace.json"
    proc = _cli(["fleet", "--seed", "7", "--size", "XS",
                 "--trace-out", str(trace)])
    assert proc.returncode == 0, proc.stderr[-2000:]
    golden = (GOLDENS / "fleet.txt").read_text().rstrip("\n")
    assert proc.stdout.rstrip("\n") == golden
    _check_chrome_trace(_load(trace))


@pytest.mark.parametrize("command", [
    # A flag the selected command cannot honour.
    "observe --metrics-out m.json",
    "fleet --results-out f.json",
    "chaos --results-out f.json",
    "tab1 --results-out f.json",
    "fig7 --results-out f.json",
    "fleet --metrics-text-out x.txt",
    "postmortem --trace-out t.json",
    "profile histogram --log-out l.txt",
    # A per-run path several runs would clobber.
    "recover redteam --results-out x.json",
    "all --results-out x.json",
    "profile histogram kmeans --results-out x.json",
    "postmortem memcached nginx --results-out x.json",
    # Bad values.
    "chaos --policy garbage",
    "fleet --balance bogus",
    "fleet --app bogus",
    "fig7 --size XXL",
    "nosuch",
    "profile",
    "profile nosuch",
    "postmortem nosuch",
    # Out-of-range numbers.
    "fleet --workers 0",
    "fleet --workers -1",
    "fleet --fault-rate 1.5",
    "fleet --fault-rate -0.1",
    "chaos --fault-rate nan",
    "fleet --rewarm-scales 0",
])
def test_usage_errors(command, tmp_path):
    """Bad flags and values end in an argparse usage error (exit 2)
    before anything runs: no traceback, no report, no file."""
    proc = _cli(command.split(), cwd=tmp_path)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr and proc.stdout == ""
    assert not list(tmp_path.iterdir())
