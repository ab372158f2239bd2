"""Layer table and cProfile attribution for the traced run.

Every module of ``src/repro`` belongs to exactly one layer (the test
suite checks the table covers the package without overlap).  Two files
are split below module granularity:

* ``vm/machine.py``: ``VM.__init__`` and ``VM.load`` are loader work,
  the rest is the dispatch loop;
* ``vm/fastpath.py``: top-level defs (the handler makers and
  ``compile_function``) are predecode work, closures nested in the
  ``_fast_reader*``/``_fast_writer*`` accessor makers are memory-model
  work, and every other closure is a handler, i.e. dispatch.

Code outside the repository (builtins, the standard library) has no
layer of its own: its self time is charged to its callers' layers in
proportion to the per-caller times cProfile records.  Code inside the
repository but outside ``src/repro`` (this harness, ``tests/genprog``)
is ``other``.
"""

from __future__ import annotations

import ast
import functools
import pathlib
from typing import Dict, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"

#: layer -> modules, relative to ``src/repro``; a trailing ``/`` names a
#: whole package.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "minic": ("minic/", "ir/builder.py", "ir/verifier.py", "ir/printer.py"),
    "passes": ("passes/", "ir/module.py", "ir/instructions.py"),
    "vm.loader": ("vm/loader.py",),
    "vm.predecode": ("vm/fastpath.py",),
    "vm.dispatch": ("vm/machine.py",),
    "sgx": ("sgx/", "memory/"),
    "scheme": ("core/", "asan/", "mpx/", "baggy/", "vm/scheme.py",
               "vm/policy.py"),
    "natives": ("vm/natives.py", "vm/libc.py", "workloads/netsim.py",
                "workloads/apps/"),
    "fleet": ("fleet/", "overload/", "recovery/", "faults/"),
    "obs": ("telemetry/", "forensics/", "obs/"),
    "other": ("__init__.py", "__main__.py", "errors.py", "harness/",
              "redteam/", "ir/__init__.py", "vm/__init__.py",
              "workloads/__init__.py", "workloads/registry.py",
              "workloads/phoenix.py", "workloads/parsec.py",
              "workloads/spec.py", "workloads/ripe.py"),
}

LAYERS = tuple(LAYER_MODULES)

#: Functions of ``vm/machine.py`` that build and load a VM.
_LOADER_FUNCTIONS = ("VM.__init__", "VM.load")
#: Accessor makers of ``vm/fastpath.py`` whose closures read and write
#: simulated memory.
_ACCESSOR_MAKERS = ("_fast_reader", "_fast_reader_f64", "_fast_writer",
                    "_fast_writer_f64")


def _matches(rel: str, entry: str) -> bool:
    return rel.startswith(entry) if entry.endswith("/") else rel == entry


def module_layers(rel: str) -> Tuple[str, ...]:
    """Every layer whose table entry matches module ``rel``."""
    return tuple(layer for layer, entries in LAYER_MODULES.items()
                 if any(_matches(rel, entry) for entry in entries))


@functools.lru_cache(maxsize=None)
def _scopes(rel: str) -> Tuple[Tuple[int, int, str, int], ...]:
    """``(first_line, last_line, qualname, depth)`` of every def and
    lambda in a module; depth counts enclosing functions."""
    tree = ast.parse((PACKAGE / rel).read_text())
    out = []

    def walk(node, prefix: str, depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                name = getattr(child, "name", "<lambda>")
                # A decorated def's code object starts at its first
                # decorator.
                decorators = getattr(child, "decorator_list", ())
                first = min([child.lineno] + [d.lineno for d in decorators])
                out.append((first, child.end_lineno, prefix + name, depth))
                walk(child, f"{prefix}{name}.", depth + 1)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", depth)
            else:
                walk(child, prefix, depth)

    walk(tree, "", 0)
    return tuple(out)


def _scope_at(rel: str, line: int) -> Optional[Tuple[int, int, str, int]]:
    """Innermost def/lambda whose source span holds ``line``."""
    best = None
    for scope in _scopes(rel):
        if scope[0] <= line <= scope[1] and (best is None
                                              or scope[0] >= best[0]):
            best = scope
    return best


@functools.lru_cache(maxsize=None)
def layer_of(filename: str, line: int) -> Optional[str]:
    """Layer of a profiled code location; None for code outside the
    repository, whose time belongs to its callers."""
    if filename == "~" or filename.startswith("<"):
        return None         # builtins and frozen/generated code
    path = pathlib.Path(filename).resolve()
    if PACKAGE not in path.parents:
        return "other" if ROOT in path.parents else None
    rel = path.relative_to(PACKAGE).as_posix()
    # A module missing from the table (the tests flag it) must not stop
    # a traced run: it counts as other until it is classified.
    found = module_layers(rel)
    layer = found[0] if len(found) == 1 else "other"
    if rel == "vm/machine.py":
        scope = _scope_at(rel, line)
        if scope is not None and any(
                scope[2] == fn or scope[2].startswith(fn + ".")
                for fn in _LOADER_FUNCTIONS):
            return "vm.loader"
    elif rel == "vm/fastpath.py":
        scope = _scope_at(rel, line)
        if scope is not None and scope[3] > 0:
            outer = scope[2].split(".", 1)[0]
            return "sgx" if outer in _ACCESSOR_MAKERS else "vm.dispatch"
    return layer


def attribute(stats: Dict) -> Dict[str, float]:
    """Charge every entry's self time to layers.

    ``stats`` is ``pstats.Stats(...).stats``: ``{func: (cc, nc, tt, ct,
    callers)}`` with ``func = (filename, line, name)`` and ``callers``
    mapping each caller to its own ``(cc, nc, tt, ct)``.  The result sums
    to the total self time of ``stats`` (up to float rounding).
    """
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func, visiting) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        layer = layer_of(func[0], func[1])
        if layer is not None:
            return {layer: 1.0}
        callers = {caller: record for caller, record
                   in (stats[func][4] if func in stats else {}).items()
                   if caller != func and caller not in visiting}
        # Weight callers by the self time spent on their behalf; calls
        # too short for the timer to see fall back to call counts.
        weights = {caller: record[2] for caller, record in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {caller: record[1] for caller, record
                       in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            out = {"other": 1.0}
        else:
            out = {}
            visiting = visiting | {func}
            for caller, weight in weights.items():
                for name, share in shares(caller, visiting).items():
                    out[name] = out.get(name, 0.0) + share * weight / total
        memo[func] = out
        return out

    totals = {layer: 0.0 for layer in LAYERS}
    for func, record in stats.items():
        for layer, share in shares(func, frozenset()).items():
            totals[layer] += record[2] * share
    return totals
