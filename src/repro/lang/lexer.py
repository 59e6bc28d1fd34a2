"""Tokenizer for Mini-C.

One compiled pattern finds each token.  Blanks before a token are part
of its match; newlines, comments and the end of the input are matches
of their own, so the line count advances only where a newline was
consumed.  Every character class is ASCII: ``str.isdigit`` and ``\\w``
would admit Unicode digits and letters, which the assembler rejects.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

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

#: one token, optionally preceded by blanks.  Alternatives are tried in
#: order: comments before the ``/`` operator, the line comment before
#: the block comment (``//*``) and ``hex`` before ``num`` (``0x1F``).
#: ``open`` is a ``/*`` with no ``*/`` after it; ``end`` matches the
#: empty input left after trailing blanks; ``bad`` is any other
#: character.
_TOKEN = re.compile(r"""[ \t\r]*(?:
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<open>/\*)
  | (?P<op>%s)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<hex>0[xX][0-9a-fA-F]*)
  | (?P<num>[0-9]+)
  | (?P<newline>\n[ \t\r\n]*)
  | (?P<end>\Z)
  | (?P<bad>.)
)""" % "|".join(re.escape(operator) for operator in OPERATORS),
    re.VERBOSE | re.DOTALL)


class Token(NamedTuple):
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
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the Python-level __new__
    line = 1
    for match in _TOKEN.finditer(source):
        group = match.lastgroup
        text = match[group]
        if group == "op":
            append(new(Token, (text, text, line)))
        elif group == "word":
            append(new(Token, (text if text in KEYWORDS else "ident",
                               text, line)))
        elif group == "num":
            append(new(Token, ("num", int(text), line)))
        elif group == "newline" or group == "comment":
            line += text.count("\n")
        elif group == "hex":
            if len(text) == 2:
                raise CompileError("malformed hex literal", line)
            append(new(Token, ("num", int(text, 16), line)))
        elif group == "open":
            raise CompileError("unterminated comment", line)
        elif group == "bad":
            raise CompileError("unexpected character %r" % text, line)
    append(new(Token, ("eof", None, line)))
    return tokens
