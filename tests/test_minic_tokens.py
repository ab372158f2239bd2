"""Golden pins for the MiniC token stream.

Every source the reproduction compiles — the seeded genprog corpus, the
registered workloads and the server apps — is lexed, and a sha256 of its
``(kind, value, line, column)`` list is compared with
``tests/goldens/tokens.json``.  A lexer rewrite that changes any token's
kind, value or position on any of them fails here by name.  Edge inputs
the corpus does not cover (glued operators, number forms, comments,
line endings, escapes, Unicode letters and digits) are pinned below as
literal token lists.

To regenerate after an intentional change to the token stream::

    PYTHONPATH=src python -m tests.test_minic_tokens
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List

import pytest

from repro.minic.lexer import tokenize
from repro.workloads import all_workloads
from repro.workloads.apps import (
    apache,
    memcached,
    nginx,
    sqlite_kv,
    sqlite_server,
)
from tests.genprog import corpus

GOLDEN = Path(__file__).resolve().parent / "goldens" / "tokens.json"


def sources() -> Dict[str, str]:
    """Name -> source for every pinned program."""
    named = {f"genprog{i}": source
             for i, source in enumerate(corpus(1234, 60))}
    named.update((w.name, w.source) for w in all_workloads())
    named.update((app.__name__.rsplit(".", 1)[1], app.SOURCE)
                 for app in (apache, memcached, nginx, sqlite_kv,
                             sqlite_server))
    return named


def stream(source: str) -> List[tuple]:
    return [tuple(token) for token in tokenize(source)]


def digest(source: str) -> str:
    return hashlib.sha256(repr(stream(source)).encode()).hexdigest()


SOURCES = sources()


def test_every_source_is_pinned():
    assert len(SOURCES) == 94
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_token_stream_matches_golden(name):
    assert digest(SOURCES[name]) == json.loads(GOLDEN.read_text())[name]


#: source -> its full token stream, eof included.
EDGE_PINS = {
    "a<<=b>>c->d++": [
        ("ident", "a", 1, 1), ("op", "<<=", 1, 2), ("ident", "b", 1, 5),
        ("op", ">>", 1, 6), ("ident", "c", 1, 8), ("op", "->", 1, 9),
        ("ident", "d", 1, 11), ("op", "++", 1, 12), ("eof", None, 1, 1)],
    "f(...)": [
        ("ident", "f", 1, 1), ("op", "(", 1, 2), ("op", "...", 1, 3),
        ("op", ")", 1, 6), ("eof", None, 1, 1)],
    "x.y...z": [
        ("ident", "x", 1, 1), ("op", ".", 1, 2), ("ident", "y", 1, 3),
        ("op", "...", 1, 4), ("ident", "z", 1, 7), ("eof", None, 1, 1)],
    "0x1F 0XaB 08 .5 1. 1.e5 3.5E-2 1e+3": [
        ("int", 31, 1, 1), ("int", 171, 1, 6), ("int", 8, 1, 11),
        ("float", 0.5, 1, 14), ("float", 1.0, 1, 17),
        ("float", 100000.0, 1, 20), ("float", 0.035, 1, 25),
        ("float", 1000.0, 1, 32), ("eof", None, 1, 1)],
    "0x1g 1e5e5 1.x": [
        ("int", 1, 1, 1), ("ident", "g", 1, 4), ("float", 100000.0, 1, 6),
        ("ident", "e5", 1, 9), ("float", 1.0, 1, 12), ("ident", "x", 1, 14),
        ("eof", None, 1, 1)],
    "a /* one\ntwo\n  three */ b": [
        ("ident", "a", 1, 1), ("ident", "b", 3, 12), ("eof", None, 3, 1)],
    "a // no newline": [
        ("ident", "a", 1, 1), ("eof", None, 1, 1)],
    "a\r\n\tb\r\n c": [
        ("ident", "a", 1, 1), ("ident", "b", 2, 2), ("ident", "c", 3, 2),
        ("eof", None, 3, 1)],
    r'"a\n\t\x41\0\\\"" ' + r"'\x41' '\\' '\'' '\"' 'z'": [
        ("str", b'a\n\tA\x00\\"', 1, 1), ("char", 65, 1, 19),
        ("char", 92, 1, 26), ("char", 39, 1, 31), ("char", 34, 1, 36),
        ("char", 122, 1, 41), ("eof", None, 1, 1)],
    "é ٣ ١.٥ _é9 x٣ ٣x": [
        ("ident", "é", 1, 1), ("int", 3, 1, 3), ("float", 1.5, 1, 5),
        ("ident", "_é9", 1, 9), ("ident", "x٣", 1, 13), ("int", 3, 1, 16),
        ("ident", "x", 1, 17), ("eof", None, 1, 1)],
    "int while sizeof whiles": [
        ("kw", "int", 1, 1), ("kw", "while", 1, 5), ("kw", "sizeof", 1, 11),
        ("ident", "whiles", 1, 18), ("eof", None, 1, 1)],
    "": [("eof", None, 1, 1)],
}


@pytest.mark.parametrize("source", sorted(EDGE_PINS))
def test_edge_pin(source):
    tokens = stream(source)
    assert tokens == EDGE_PINS[source]
    assert [type(t[1]) for t in tokens] == \
        [type(t[1]) for t in EDGE_PINS[source]]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: digest(source)
                                  for name, source in SOURCES.items()},
                                 indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
