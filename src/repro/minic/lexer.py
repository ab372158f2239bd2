"""MiniC lexer.

MiniC is the C-like language the reproduction's workloads are written in
(the paper's "unmodified legacy applications").  The lexer produces a flat
token stream with line/column positions for error reporting.

One compiled pattern is matched at each position and the match is
dispatched on its group name; only string and char literals, whose
escapes need decoding, are scanned by hand.  Every malformed source
raises CompileError at the offending token's line and column.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple

from repro.errors import CompileError

KEYWORDS = {
    "void", "char", "int", "uint", "double", "struct", "fnptr",
    "if", "else", "while", "for", "do", "break", "continue", "return",
    "sizeof", "const", "static",
}

#: Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--", "->",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]

_ESCAPES = {
    "n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34,
    "a": 7, "b": 8, "f": 12, "v": 11,
}

#: ``skip`` eats whitespace and comments; every other token also eats the
#: blanks after it, so most gaps between tokens cost no match of their own.
#: Alternatives are tried in order: a number before the ``.`` operator,
#: an unterminated ``/*`` before ``/``.  ``\d`` and ``\w`` are Unicode
#: aware: ``\d`` is exactly the digits ``int`` and ``float`` accept, and
#: ``\w`` is ``str.isalnum`` plus ``_``, so a ``uword`` (a word opening
#: with a non-ASCII character) must still be checked to open with a letter.
#: ``other`` matches any one character, so every position matches.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n]|//[^\n]*|/\*[\s\S]*?\*/)+)|(?:" + "|".join([
        r"(?P<word>[A-Za-z_]\w*)",
        r"(?P<hex>0[xX][0-9a-fA-F]*)",
        r"(?P<number>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d*)?)",
        r"(?P<open_comment>/\*)",
        "(?P<op>" + "|".join(map(re.escape, _OPERATORS)) + ")",
        r"(?P<quote>[\"'])",
        r"(?P<uword>\w+)",
        r"(?P<other>[\s\S])",
    ]) + r")[ \t\r]*")


_HEX2 = re.compile(r"[0-9a-fA-F]{2}")


class Token(NamedTuple):
    kind: str      # 'kw', 'ident', 'int', 'float', 'str', 'char', 'op', 'eof'
    value: object
    line: int
    column: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.value!r}@{self.line}:{self.column})"


def tokenize(source: str) -> List[Token]:
    """Lex ``source`` into tokens, raising CompileError on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    new = tuple.__new__                 # Token(...) without its Python frame
    line = 1
    line_start = 0
    pos = 0
    n = len(source)
    while pos < n:
        m = match(source, pos)
        kind = m.lastgroup
        col = pos - line_start + 1
        if kind == "op":
            append(new(Token, ("op", m[kind], line, col)))
        elif kind == "word":
            word = m[kind]
            append(new(Token, ("kw" if word in KEYWORDS else "ident",
                               word, line, col)))
        elif kind == "skip":
            end = m.end()
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, end) + 1
        elif kind == "number":
            text = m[kind]
            end = pos + len(text)
            if end < n and source[end].isdigit():   # one int() rejects: '²'
                text += source[end]
            try:
                token = (new(Token, ("int", int(text), line, col))
                         if text.isdecimal()
                         else new(Token, ("float", float(text), line, col)))
            except ValueError:
                raise CompileError(f"malformed number {text!r}", line, col) \
                    from None
            append(token)
        elif kind == "hex":
            text = m[kind]
            if len(text) == 2:
                raise CompileError("hex literal has no digits", line, col)
            append(new(Token, ("int", int(text, 16), line, col)))
        elif kind == "quote":
            kind, value, pos = _quoted(source, pos, line, col)
            append(new(Token, (kind, value, line, col)))
            continue
        elif kind == "uword" and source[pos].isalpha():
            append(new(Token, ("ident", m[kind], line, col)))
        elif kind == "open_comment":
            raise CompileError("unterminated block comment", line, col)
        else:
            raise CompileError(f"unexpected character {source[pos]!r}",
                               line, col)
        pos = m.end()
    append(Token("eof", None, line, 1))
    return tokens


def _quoted(source: str, i: int, line: int, col: int
            ) -> Tuple[str, object, int]:
    """Decode the string or char literal opening at ``i``.

    Returns its token kind, its value and the index just past it.
    """
    what = "char" if source[i] == "'" else "string"
    j = i + 1
    try:
        if what == "char":
            value, j = _element(source, j, what, line, col)
            if value > 0xFF:
                raise ValueError(value)
            if source[j] == "'":
                return "char", value, j + 1
        else:
            chars = bytearray()
            while source[j] != '"':
                code, j = _element(source, j, what, line, col)
                chars.append(code)
            return "str", bytes(chars), j + 1
    except ValueError:     # a bad \x escape, or a character past 0xff
        raise CompileError(f"malformed {what} literal", line, col) from None
    except IndexError:     # the source ended first
        pass
    raise CompileError(f"unterminated {what} literal", line, col)


def _element(source: str, j: int, what: str, line: int,
             col: int) -> Tuple[int, int]:
    """The character or escape at ``j`` of a ``what`` literal: its code
    and end.  ``\\x`` takes exactly two ASCII hex digits."""
    c = source[j]
    if c == "\n":
        raise CompileError(f"newline in {what} literal", line, col)
    if c != "\\":
        return ord(c), j + 1
    esc = source[j + 1]
    if esc == "x":
        digits = source[j + 2:j + 4]
        if not _HEX2.fullmatch(digits):
            raise ValueError(digits)
        return int(digits, 16), j + 4
    if esc in _ESCAPES:
        return _ESCAPES[esc], j + 2
    raise CompileError(f"bad escape \\{esc}", line, col)
