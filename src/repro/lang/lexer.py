"""Tokenizer for Mini-C."""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Iterator, List

from repro.lang.errors import CompileError

KEYWORDS = frozenset(
    ["int", "void", "if", "else", "while", "for", "return", "break",
     "continue"])

# Multi-character operators first so maximal munch works.
OPERATORS = (
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",",
)

#: identifiers are ``[A-Za-z_][A-Za-z0-9_]*``
IDENT_START = frozenset(string.ascii_letters + "_")
IDENT_CHARS = IDENT_START | frozenset(string.digits)


@dataclass(frozen=True)
class Token:
    """One lexical token.

    ``kind`` is ``"num"``, ``"ident"``, a keyword, or the operator text
    itself; ``value`` carries the integer for numbers and the name for
    identifiers.
    """

    kind: str
    value: object
    line: int


def tokenize(source: str) -> List[Token]:
    """Tokenize *source*; raises :class:`CompileError` on bad input."""
    return list(_tokens(source))


def _tokens(source: str) -> Iterator[Token]:
    position = 0
    line = 1
    length = len(source)
    while position < length:
        char = source[position]
        if char == "\n":
            line += 1
            position += 1
            continue
        if char in " \t\r":
            position += 1
            continue
        if source.startswith("//", position):
            end = source.find("\n", position)
            position = length if end < 0 else end
            continue
        if source.startswith("/*", position):
            end = source.find("*/", position + 2)
            if end < 0:
                raise CompileError("unterminated comment", line)
            line += source.count("\n", position, end)
            position = end + 2
            continue
        if "0" <= char <= "9":  # ASCII only: isdigit() admits Unicode
            start = position
            if source.startswith("0x", position) or \
                    source.startswith("0X", position):
                position += 2
                while position < length and \
                        source[position] in "0123456789abcdefABCDEF":
                    position += 1
                if position == start + 2:
                    raise CompileError("malformed hex literal", line)
                yield Token("num", int(source[start:position], 16), line)
                continue
            while position < length and "0" <= source[position] <= "9":
                position += 1
            yield Token("num", int(source[start:position]), line)
            continue
        if char in IDENT_START:  # ASCII only: isalpha() admits Unicode
            start = position
            while position < length and source[position] in IDENT_CHARS:
                position += 1
            name = source[start:position]
            if name in KEYWORDS:
                yield Token(name, name, line)
            else:
                yield Token("ident", name, line)
            continue
        for operator in OPERATORS:
            if source.startswith(operator, position):
                yield Token(operator, operator, line)
                position += len(operator)
                break
        else:
            raise CompileError("unexpected character %r" % char, line)
    yield Token("eof", None, line)
