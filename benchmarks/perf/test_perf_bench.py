"""Checks of the layered benchmark itself (``pytest benchmarks/perf -q``).

Not part of the tier-1 suite: the smoke runs execute one unit of every
workload, which takes about twenty seconds.
"""

from __future__ import annotations

import json
import math

import pytest

import layers
import measure
import run
import units

SEED = units.DEFAULT_SEED


def test_every_module_maps_to_exactly_one_layer():
    modules = sorted(p.relative_to(layers.PACKAGE).as_posix()
                     for p in layers.PACKAGE.rglob("*.py"))
    assert modules
    for rel in modules:
        assert len(layers.module_layers(rel)) == 1, rel


def _line_of(rel: str, qualname: str) -> int:
    """First line of the first def named ``qualname`` in ``rel``."""
    return next(first for first, _, name, _ in layers._scopes(rel)
                if name == qualname)


@pytest.mark.parametrize("rel, qualname, layer", [
    ("vm/fastpath.py", "compile_function", "vm.predecode"),
    ("vm/fastpath.py", "_make_binop", "vm.predecode"),
    ("vm/fastpath.py", "_MemCache.reader", "vm.predecode"),
    ("vm/fastpath.py", "_make_binop.h", "vm.dispatch"),
    ("vm/fastpath.py", "_fast_reader.rd", "sgx"),
    ("vm/fastpath.py", "_fast_writer_f64.wr", "sgx"),
    ("vm/machine.py", "VM.__init__", "vm.loader"),
    ("vm/machine.py", "VM.load", "vm.loader"),
    ("vm/machine.py", "VM.run", "vm.dispatch"),
])
def test_split_files_attribute_by_function(rel, qualname, layer):
    path = str(layers.PACKAGE / rel)
    assert layers.layer_of(path, _line_of(rel, qualname)) == layer


def test_foreign_code_is_charged_to_callers_in_proportion():
    dispatch = (str(layers.PACKAGE / "vm/machine.py"),
                _line_of("vm/machine.py", "VM.run"), "run")
    compiler = (str(layers.PACKAGE / "minic/parser.py"), 1, "parse")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stdlib = ("/usr/lib/python3/copy.py", 1, "copy")
    stats = {
        dispatch: (1, 1, 1.0, 5.0, {}),
        compiler: (1, 1, 2.0, 3.0, {}),
        stdlib: (2, 2, 0.5, 1.0, {dispatch: (1, 1, 0.5, 1.0)}),
        builtin: (4, 4, 4.0, 4.0, {dispatch: (1, 1, 1.0, 1.0),
                                   compiler: (2, 2, 2.0, 2.0),
                                   stdlib: (1, 1, 1.0, 1.0)}),
    }
    totals = layers.attribute(stats)
    assert totals["vm.dispatch"] == pytest.approx(1.0 + 0.5 + 1.0 + 1.0)
    assert totals["minic"] == pytest.approx(2.0 + 2.0)
    assert sum(totals.values()) == pytest.approx(
        sum(record[2] for record in stats.values()))


def test_declared_workloads_and_metrics_match_the_harness():
    spec = json.loads((units.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(units.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == measure.PER_LAYER


def _one_unit(workload: str):
    return units.WORKLOADS[workload](SEED)[:1]


@pytest.mark.parametrize("workload", list(units.WORKLOADS))
def test_smoke_timed_run(workload):
    detail, result = measure.timed(_one_unit(workload), seconds=0)
    assert detail["passes"] == measure.MIN_PASSES
    assert (result["attempted"], result["failed"]) == (1, 0), detail
    assert result["correct"] is True
    assert set(result["metrics"]) == set(measure.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and math.isfinite(metric["value"])


@pytest.mark.parametrize("workload", list(units.WORKLOADS))
def test_smoke_traced_run(workload, tmp_path):
    out = tmp_path / "trace.json"
    detail, result = measure.traced(_one_unit(workload), out,
                                    {"workload": workload})
    assert (result["attempted"], result["failed"]) == (1, 0), detail
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(measure.PER_LAYER)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert layer_sum == pytest.approx(metrics["trace.profiled_s"],
                                      rel=1e-9)
    export = json.loads(out.read_text())
    assert export["digest"] == detail["digest"]
    names = {span["name"] for span in export["spans"]}
    assert {"compile", "predecode"} <= names
    assert all(span["end"] >= span["start"] for span in export["spans"])


@pytest.mark.parametrize("workload", list(units.WORKLOADS))
def test_simulated_digest_is_identical_across_repetitions(workload):
    unit_list = _one_unit(workload)
    failures = {u.name: [] for u in unit_list}
    first = measure.run_pass(unit_list, units.UNTRACED, failures)
    second = measure.run_pass(unit_list, units.UNTRACED, failures)
    assert not any(failures.values()), failures
    (name,) = first
    assert first[name][2].digest == second[name][2].digest
    assert first[name][2].counts == second[name][2].counts
