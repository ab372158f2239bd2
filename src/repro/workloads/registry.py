"""Workload registry.

Every benchmark kernel registers here with its MiniC source, its size
ladder (XS–XL working sets, used by the Fig. 8 sweep) and an optional
expected-result oracle so the harness can verify that instrumented runs
compute the same answers as native runs.

Suite kernels share the entry convention ``int main(int n, int threads)``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

SIZES = ("XS", "S", "M", "L", "XL")
#: The size a run gets when it names none.
DEFAULT_SIZE = "S"


class Workload:
    """One registered benchmark kernel."""

    def __init__(self, name: str, suite: str, source: str,
                 sizes: Dict[str, int], threads: int = 1,
                 expected: Optional[Callable[[int, int], int]] = None,
                 pointer_intensity: str = "low",
                 description: str = ""):
        self.name = name
        self.suite = suite
        self.source = source
        self.sizes = dict(sizes)
        self.threads = threads
        self.expected = expected
        self.pointer_intensity = pointer_intensity
        self.description = description

    def args_for(self, size: Optional[str] = None,
                 threads: Optional[int] = None) -> Tuple[int, int]:
        label = size or DEFAULT_SIZE
        return (self.sizes[label], threads or self.threads)

    def __repr__(self) -> str:
        return f"Workload({self.suite}/{self.name})"


_REGISTRY: Dict[str, Workload] = {}


def register(workload: Workload) -> Workload:
    if workload.name in _REGISTRY:
        raise ValueError(f"workload {workload.name!r} already registered")
    _REGISTRY[workload.name] = workload
    return workload


def get(name: str) -> Workload:
    _ensure_loaded()
    return _REGISTRY[name]


def by_suite(suite: str) -> List[Workload]:
    _ensure_loaded()
    return [w for w in _REGISTRY.values() if w.suite == suite]


def all_workloads() -> List[Workload]:
    _ensure_loaded()
    return list(_REGISTRY.values())


_loaded = False


def _ensure_loaded() -> None:
    """Import the suite modules once so their registrations run."""
    global _loaded
    if _loaded:
        return
    _loaded = True
    from repro.workloads import parsec, phoenix, spec   # noqa: F401
