"""Mini-C tokenizer."""

import pytest

from repro.lang import compile_source
from repro.lang.errors import CompileError
from repro.lang.lexer import Token, tokenize


def kinds(source):
    return [token.kind for token in tokenize(source)]


def test_keywords_and_identifiers():
    tokens = tokenize("int x while whilex")
    assert tokens[0].kind == "int"
    assert tokens[1].kind == "ident" and tokens[1].value == "x"
    assert tokens[2].kind == "while"
    assert tokens[3].kind == "ident" and tokens[3].value == "whilex"


def test_numbers():
    tokens = tokenize("0 42 0x1F 0XAB")
    assert [t.value for t in tokens[:-1]] == [0, 42, 31, 171]


def test_maximal_munch_operators():
    assert kinds("<< <= < == = && & || |")[:-1] == [
        "<<", "<=", "<", "==", "=", "&&", "&", "||", "|"]


def test_all_single_operators():
    source = "+ - * / % ^ ~ ! > >> >= ( ) { } [ ] ; ,"
    expected = source.split()
    assert kinds(source)[:-1] == expected


def test_line_numbers():
    tokens = tokenize("a\nb\n  c")
    assert [t.line for t in tokens[:-1]] == [1, 2, 3]


def test_line_comment():
    assert kinds("a // comment ;;;\nb")[:-1] == ["ident", "ident"]


def test_block_comment():
    tokens = tokenize("a /* many\nlines */ b")
    assert [t.kind for t in tokens[:-1]] == ["ident", "ident"]
    assert tokens[1].line == 2  # line counting continues inside


def test_unterminated_block_comment():
    with pytest.raises(CompileError):
        tokenize("a /* never closed")


def test_overlong_literal_is_compile_error():
    """A decimal literal longer than Python converts from text is a
    CompileError on its line, not a ValueError."""
    source = "void main() {\n  print(%s);\n}" % ("9" * 5000)
    with pytest.raises(CompileError) as excinfo:
        tokenize(source)
    assert excinfo.value.line == 2
    assert "too long" in str(excinfo.value)


def test_unexpected_character():
    with pytest.raises(CompileError):
        tokenize("a $ b")


@pytest.mark.parametrize("source, line", [
    # Unicode letters used to lex as identifiers and only failed later,
    # in the assembler.
    ("int é = 1; void main() { print(é); }", 1),
    ("int x;\nvoid main() {\n  x² = 1;\n}", 3),
])
def test_non_ascii_identifier_rejected(source, line):
    with pytest.raises(CompileError) as info:
        compile_source(source)
    assert info.value.line == line


def test_ascii_identifier_characters():
    tokens = tokenize("_a1 Z_9z")
    assert [t.value for t in tokens[:-1]] == ["_a1", "Z_9z"]


def test_eof_token():
    assert tokenize("")[-1].kind == "eof"
    assert tokenize("x")[-1].kind == "eof"
