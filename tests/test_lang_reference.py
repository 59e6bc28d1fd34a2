"""The regex lexer and the precedence-climbing parser equal the code
they replaced.

:func:`reference_tokens` keeps the character loop the lexer was, which
tried each operator string in turn, and :class:`ReferenceExpressions`
keeps the expression parser that descended one method call per
precedence level.  Hypothesis draws source text from an alphabet rich
in operator, comment, digit and non-ASCII characters, and expressions
from the grammar with and without parentheses; tokens (kind, value,
line), ASTs and every ``CompileError`` message and line must match.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast_nodes as ast
from repro.lang.errors import CompileError
from repro.lang.lexer import KEYWORDS, OPERATORS, tokenize
from repro.lang.parser import _Parser

# ---------------------------------------------------------------------
# Reference: the character-loop tokenizer
# ---------------------------------------------------------------------

IDENT_START = frozenset(string.ascii_letters + "_")
IDENT_CHARS = IDENT_START | frozenset(string.digits)


def reference_tokens(source):
    """``(kind, value, line)`` of every token, eof included."""
    tokens = []
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
        if "0" <= char <= "9":
            start = position
            if source.startswith("0x", position) or \
                    source.startswith("0X", position):
                position += 2
                while position < length and \
                        source[position] in "0123456789abcdefABCDEF":
                    position += 1
                if position == start + 2:
                    raise CompileError("malformed hex literal", line)
                tokens.append(("num", int(source[start:position], 16), line))
                continue
            while position < length and "0" <= source[position] <= "9":
                position += 1
            tokens.append(("num", int(source[start:position]), line))
            continue
        if char in IDENT_START:
            start = position
            while position < length and source[position] in IDENT_CHARS:
                position += 1
            name = source[start:position]
            if name in KEYWORDS:
                tokens.append((name, name, line))
            else:
                tokens.append(("ident", name, line))
            continue
        for operator in OPERATORS:
            if source.startswith(operator, position):
                tokens.append((operator, operator, line))
                position += len(operator)
                break
        else:
            raise CompileError("unexpected character %r" % char, line)
    tokens.append(("eof", None, line))
    return tokens


# ---------------------------------------------------------------------
# Reference: one recursion per precedence level
# ---------------------------------------------------------------------

_BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)


class ReferenceExpressions:
    """The expression methods of the recursive-descent parser, with the
    token helpers they use."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.position = 0

    @property
    def current(self):
        return self.tokens[self.position]

    def advance(self):
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def accept(self, kind):
        if self.current.kind == kind:
            return self.advance()
        return None

    def expect(self, kind):
        token = self.current
        if token.kind != kind:
            raise CompileError(
                "expected %r, got %r" % (kind, token.kind), token.line)
        return self.advance()

    def _expr(self):
        return self._binary(0)

    def _binary(self, level):
        if level == len(_BINARY_LEVELS):
            return self._unary()
        operators = _BINARY_LEVELS[level]
        left = self._binary(level + 1)
        while self.current.kind in operators:
            operator = self.advance()
            right = self._binary(level + 1)
            left = ast.BinOp(line=operator.line, op=operator.kind,
                             left=left, right=right)
        return left

    def _unary(self):
        token = self.current
        if token.kind in ("-", "!", "~"):
            self.advance()
            return ast.UnOp(line=token.line, op=token.kind,
                            operand=self._unary())
        return self._primary()

    def _primary(self):
        token = self.current
        if token.kind == "num":
            self.advance()
            return ast.Num(line=token.line, value=token.value)
        if token.kind == "(":
            self.advance()
            expr = self._expr()
            self.expect(")")
            return expr
        if token.kind == "ident":
            name = self.advance().value
            if self.accept("("):
                args = []
                if not self.accept(")"):
                    args.append(self._expr())
                    while self.accept(","):
                        args.append(self._expr())
                    self.expect(")")
                return ast.Call(line=token.line, name=name, args=args)
            if self.accept("["):
                index = self._expr()
                self.expect("]")
                return ast.ArrayRef(line=token.line, name=name, index=index)
            return ast.Var(line=token.line, name=name)
        raise CompileError("unexpected token %r" % token.kind, token.line)


# ---------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------


def _outcome(function, *args):
    """The result, or the ``CompileError`` message and line."""
    try:
        return function(*args)
    except CompileError as error:
        return ("error", str(error), error.line)


def _new_tokens(source):
    return [tuple(token) for token in tokenize(source)]


_SOURCE_CHARS = st.sampled_from(list(
    "az_ZX09fF7 \t\r\n/*+-<>=!&|^~%(){}[];,#$\x0b\x0cé²٣"))


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=_SOURCE_CHARS, max_size=40))
def test_tokens_match_reference(source):
    assert _outcome(_new_tokens, source) == \
        _outcome(reference_tokens, source)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_tokens_match_reference_on_any_text(source):
    assert _outcome(_new_tokens, source) == \
        _outcome(reference_tokens, source)


_OPERATOR_NAMES = [operator for level in _BINARY_LEVELS for operator in level]


def _expressions():
    leaves = st.one_of(
        st.integers(0, 0xFFFF).map(str),
        st.sampled_from(["x", "y", "a[0]", "f()"]))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(_OPERATOR_NAMES), inner).map(
                " ".join),
            inner.map("({})".format),
            st.tuples(st.sampled_from(["-", "!", "~"]), inner).map("".join),
            inner.map("a[{}]".format),
            st.lists(inner, min_size=1, max_size=3).map(
                lambda args: "f(%s)" % ", ".join(args)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def _parse_both(text):
    tokens = tokenize(text)
    reference = ReferenceExpressions(tokens)
    new = _Parser(tokens)
    return (_outcome(lambda: (reference._expr(), reference.position)),
            _outcome(lambda: (new._expr(), new.position)))


@pytest.mark.parametrize("first", _OPERATOR_NAMES)
def test_every_operator_pair_matches_reference(first):
    # Precedence and associativity between any two binary operators,
    # both ways round, with and without a unary operand.
    for second in _OPERATOR_NAMES:
        for text in ("a %s b %s c" % (first, second),
                     "-a %s b %s !c" % (first, second)):
            reference, new = _parse_both(text)
            assert new == reference, text


@settings(max_examples=300, deadline=None)
@given(_expressions())
def test_expression_asts_match_reference(text):
    reference, new = _parse_both(text)
    assert new == reference
    assert isinstance(new[0], ast.Expr)


_EXPRESSION_TOKENS = st.sampled_from(
    _OPERATOR_NAMES + ["-", "!", "~", "(", ")", "[", "]", ",", "x", "f",
                       "a", "7", "0x1f", "\n", ";"])


@settings(max_examples=300, deadline=None)
@given(st.lists(_EXPRESSION_TOKENS, max_size=16).map(" ".join))
def test_malformed_expressions_fail_like_reference(text):
    reference, new = _parse_both(text)
    assert new == reference
