"""Guard: every function, method and class in ``src/repro`` has a caller.

A definition counts as used when its name appears in ``src/``,
``examples/`` or ``benchmarks/`` as a ``Name`` or an ``Attribute``, or as
a word in a string constant that is not a docstring (generated block
source, ``getattr`` dispatch).  Tests are not callers, and neither are
``__all__`` lists or ``import`` lines: a definition only tests reach is
dead weight the suite keeps alive.  Dunder methods are called by the
language and are skipped.

A definition kept without a caller goes in :data:`ALLOWED` with the
reason it stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "benchmarks")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Qualified name -> why it stays although nothing outside the tests
#: references it.
ALLOWED: Dict[str, str] = {
    "repro.core.metadata.MetadataManager.on_access":
        "the paper's Table-2 metadata hook API; "
        "examples/metadata_extension.py documents it",
    "repro.core.tagged_pointer.is_tagged":
        "the paper's §3 tagged-pointer operations in executable form, "
        "pinned by tests/test_tagged_pointer.py",
    "repro.core.tagged_pointer.bounds_violated":
        "the paper's §3 bounds check in executable form, pinned by "
        "tests/test_tagged_pointer.py",
    "repro.core.tagged_pointer.pointer_arith":
        "the paper's §3.2 pointer arithmetic in executable form, pinned "
        "by tests/test_tagged_pointer.py",
    "repro.ir.printer.print_module":
        "renders the whole-module IR text whose digest "
        "tests/goldens/images.json pins",
    "repro.memory.allocator.PoolAllocator":
        "the paper's Apache pool-allocation memory model; only "
        "tests/test_allocators.py drives it, left for a later sweep",
}


def _files(*dirs: str) -> Iterator[Path]:
    for name in dirs:
        yield from sorted((ROOT / name).rglob("*.py"))


def _unreferencing_strings(tree: ast.AST) -> Set[int]:
    """ids of the string constants that are docstrings or sit inside an
    ``__all__`` assignment."""
    skip: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skip.add(id(body[0].value))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            if node.value is not None and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in targets):
                skip.update(id(sub) for sub in ast.walk(node.value))
    return skip


def referenced_names() -> Set[str]:
    names: Set[str] = set()
    for path in _files(*CALLER_DIRS):
        tree = ast.parse(path.read_text(), str(path))
        skip = _unreferencing_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in skip):
                names.update(_WORD.findall(node.value))
    return names


def definitions() -> List[Tuple[str, str, str]]:
    """``(qualified name, bare name, path:line)`` of every function,
    method and class under ``src/repro``, dunders excluded."""
    found: List[Tuple[str, str, str]] = []

    def visit(node: ast.AST, prefix: str, where: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = f"{prefix}.{child.name}"
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    found.append((qualname, child.name,
                                  f"{where.relative_to(ROOT)}:"
                                  f"{child.lineno}"))
                visit(child, qualname, where)
            else:
                visit(child, prefix, where)

    for path in _files("src/repro"):
        parts = path.relative_to(SCANNED.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        visit(ast.parse(path.read_text(), str(path)), ".".join(parts), path)
    return found


def unreferenced() -> List[Tuple[str, str]]:
    names = referenced_names()
    return [(qualname, where) for qualname, bare, where in definitions()
            if bare not in names]


def test_every_definition_has_a_caller():
    missing = [f"{where} {qualname}" for qualname, where in unreferenced()
               if qualname not in ALLOWED]
    assert not missing, (
        "defined in src/repro but referenced by nothing outside tests "
        "(delete it, or add it to ALLOWED with a reason):\n  "
        + "\n  ".join(missing))


def test_allowlist_holds_only_unreferenced_definitions():
    """An entry whose definition is gone or has gained a caller is
    stale."""
    stale = sorted(set(ALLOWED) - {q for q, _ in unreferenced()})
    assert not stale, f"stale ALLOWED entries: {stale}"
