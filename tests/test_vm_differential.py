"""Committed expectations for the interpreter: ``goldens/reference_runs.json``.

The paper's results are counts the VM produces, so the VM's behaviour on
a fixed set of inputs is pinned in a committed file and every run here
must reproduce it exactly: exit value, crash type, the full PerfCounters
snapshot, the violation, the scheme report and a sha256 of stdout.  The
file's values were recorded by an independent if/elif interpreter, since
retired, and the predecoded dispatcher reproduced them byte for byte; they
specify each opcode's semantics and costs independently of the handlers
that now run.  Three granularities:

1. every registered suite workload (XS) under every scheme;
2. the scheme x policy matrix on a real server app with an exploit
   request, down to flight-recorder JSONL and postmortems, and two
   Heartbleed cells on a second app;
3. a seeded fuzz corpus (``tests/genprog.py``): 200 programs per seed
   natively, and a sample under SGXBounds.

The matrix and the SGXBounds sample also run unfused (the ``unfused``
fixture), which checks superinstructions and chains against the plain
handlers they are built from.

Regenerate only for an intentional change to simulated behaviour::

    PYTHONPATH=src python -m tests.test_vm_differential
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.forensics import Forensics
from repro.harness.runner import run_server, run_workload
from repro.vm import policy
from repro.workloads import all_workloads, get
from repro.workloads.apps import apache, memcached

from tests.genprog import corpus
from tests.util import run_c, unfused  # noqa: F401  (fixture)

GOLDEN = Path(__file__).parent / "goldens" / "reference_runs.json"

SCHEMES = ("native", "sgxbounds", "asan", "mpx", "baggy")
PROTECTED_SCHEMES = SCHEMES[1:]
HEARTBLEED_POLICIES = (policy.ABORT, policy.BOUNDLESS)

#: Fuzz corpus sizing: at least 200 programs per native seed.
FUZZ_SEEDS = (2017, 40917)
FUZZ_COUNT = 200
SGXBOUNDS_FUZZ = (7, 25)


def _sha(data) -> str:
    if not isinstance(data, str):
        data = json.dumps(data, sort_keys=True)
    return hashlib.sha256(data.encode()).hexdigest()


def _plain(record):
    """``record`` as it reads back from the JSON file."""
    return json.loads(json.dumps(record, sort_keys=True))


def _record(result) -> dict:
    return _plain({
        "result": result.result, "crashed": result.crashed,
        "counters": result.counters, "violation": result.violation,
        "scheme_report": result.scheme_report,
        "stdout_sha256": _sha(result.output)})


def _workload_cell(workload, scheme) -> dict:
    return _record(run_workload(workload, scheme, size="XS"))


def _server_cell(app, requests, scheme, pol) -> dict:
    forensics = Forensics()
    result = run_server(app.SOURCE, [requests], scheme, 4,
                        name=app.__name__.rsplit(".", 1)[-1], policy=pol,
                        forensics=forensics)
    record = _record(result)
    record.update(_plain({
        "resilience": result.resilience,
        "flight_sha256": _sha(forensics.recorder.to_jsonl()),
        "postmortems_sha256": _sha(forensics.postmortems)}))
    return record


def _memcached_cell(scheme, pol) -> dict:
    return _server_cell(
        memcached, [memcached.make_request(1, b"k", b"v" * 8),
                    memcached.cve_2011_4971_request(),
                    memcached.make_request(2, b"k")], scheme, pol)


def _heartbleed_cell(pol) -> dict:
    return _server_cell(
        apache, [apache.heartbleed_request(), apache.static_get()],
        "sgxbounds", pol)


def _program_digest(source, scheme=None) -> str:
    result, vm = run_c(source, scheme)
    return _sha([result, vm.output(), vm.enclave.finalize().snapshot()])


def _sgxbounds_digests():
    from repro.core import SGXBoundsScheme
    return [_program_digest(source, SGXBoundsScheme())
            for source in corpus(*SGXBOUNDS_FUZZ)]


@functools.lru_cache(maxsize=None)
def _expected() -> dict:
    return json.loads(GOLDEN.read_text())


def _check(section, label, record) -> None:
    assert record == _expected()[section][label], \
        f"{label} drifted from {GOLDEN.name}"


def _check_digests(label, digests) -> None:
    expected = _expected()["fuzz"][label]
    assert len(digests) == len(expected)
    mismatches = [k for k, (got, want) in enumerate(zip(digests, expected))
                  if got != want]
    assert not mismatches, (
        f"fuzz {label}: programs {mismatches} drifted from {GOLDEN.name}; "
        f"reproduce with tests.genprog.corpus(seed, count)[k]")


# ---------------------------------------------------------------------------
# 1. Every registered workload
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name",
                         [w.name for w in all_workloads()])
def test_workload_identity_native(name):
    _check("workloads", f"{name}/native", _workload_cell(get(name), "native"))


def test_workload_identity_all_schemes():
    """Full workload x protected-scheme sweep in one pass (XS).

    One test rather than 116 parametrized cells: each cell is cheap and
    a drift report names the exact cell anyway.
    """
    for workload in all_workloads():
        for scheme in PROTECTED_SCHEMES:
            _check("workloads", f"{workload.name}/{scheme}",
                   _workload_cell(workload, scheme))


# ---------------------------------------------------------------------------
# 2. Scheme x policy matrix with violation/forensics records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", PROTECTED_SCHEMES)
@pytest.mark.parametrize("pol", policy.ALL_POLICIES)
def test_scheme_policy_matrix(scheme, pol, unfused):
    # The flight recorder's JSONL covers event order, timestamps
    # (instruction counts) and every detail field; postmortems cover
    # stack capture at the violation site.
    label = f"memcached/{scheme}/{pol}"
    _check("servers", label, _memcached_cell(scheme, pol))
    with unfused():
        _check("servers", label, _memcached_cell(scheme, pol))


def test_apache_heartbleed_identity():
    """Second server app, different overflow shape (Heartbleed-style
    over-read followed by a legitimate request)."""
    for pol in HEARTBLEED_POLICIES:
        _check("servers", f"apache/sgxbounds/{pol}", _heartbleed_cell(pol))


# ---------------------------------------------------------------------------
# 3. Generated-program fuzz corpus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzz_identity(seed):
    """>= 200 seeded random programs per seed, one digest each."""
    _check_digests(str(seed), [_program_digest(source)
                               for source in corpus(seed, FUZZ_COUNT)])


def test_fuzz_identity_under_sgxbounds(unfused):
    """Sample of the corpus under instrumentation: exercises fusion on
    tagged-pointer GEPs and the clamped-access paths the native runs
    never reach, fused and unfused."""
    label = "sgxbounds/{}x{}".format(*SGXBOUNDS_FUZZ)
    _check_digests(label, _sgxbounds_digests())
    with unfused():
        _check_digests(label, _sgxbounds_digests())


def test_corpus_is_deterministic():
    assert corpus(99, 10) == corpus(99, 10)
    assert corpus(99, 10) != corpus(100, 10)


def generate() -> dict:
    """Every cell above, run once, in the file's layout."""
    workloads = {f"{w.name}/{scheme}": _workload_cell(w, scheme)
                 for w in all_workloads() for scheme in SCHEMES}
    servers = {f"memcached/{scheme}/{pol}": _memcached_cell(scheme, pol)
               for scheme in PROTECTED_SCHEMES
               for pol in policy.ALL_POLICIES}
    servers.update({f"apache/sgxbounds/{pol}": _heartbleed_cell(pol)
                    for pol in HEARTBLEED_POLICIES})
    fuzz = {str(seed): [_program_digest(source)
                        for source in corpus(seed, FUZZ_COUNT)]
            for seed in FUZZ_SEEDS}
    fuzz["sgxbounds/{}x{}".format(*SGXBOUNDS_FUZZ)] = _sgxbounds_digests()
    return {"workloads": workloads, "servers": servers, "fuzz": fuzz}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True)
                      + "\n")
    print(f"wrote {GOLDEN}")
