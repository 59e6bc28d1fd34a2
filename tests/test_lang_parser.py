"""Mini-C parser: structure, precedence, desugaring, errors."""

import pytest

from repro.lang import ast_nodes as ast
from repro.lang import compile_source
from repro.lang.errors import CompileError
from repro.lang.parser import MAX_NESTING, parse


def parse_expr(text):
    program = parse("void main() { x = %s; } int x;" % text)
    statement = program.functions[0].body.statements[0]
    assert isinstance(statement, ast.Assign)
    return statement.value


def test_globals():
    program = parse("int a; int b[4]; int c = 5; int d[3] = {1, 2};")
    a, b, c, d = program.globals
    assert (a.name, a.size, a.init) == ("a", None, [])
    assert (b.name, b.size) == ("b", 4)
    assert c.init == [5]
    assert d.init == [1, 2]


def test_negative_initializer():
    program = parse("int a = -3; int b[2] = {-1, -2};")
    assert program.globals[0].init == [-3]
    assert program.globals[1].init == [-1, -2]


def test_function_signature():
    program = parse("int f(int a, int b) { return a; } void main() {}")
    function = program.functions[0]
    assert function.params == ["a", "b"]
    assert function.returns_value


def test_precedence():
    expr = parse_expr("1 + 2 * 3")
    assert isinstance(expr, ast.BinOp) and expr.op == "+"
    assert isinstance(expr.right, ast.BinOp) and expr.right.op == "*"


def test_comparison_binds_looser_than_shift():
    expr = parse_expr("1 << 2 < 3")
    assert expr.op == "<"


def test_logical_operators_loosest():
    expr = parse_expr("a == 1 && b == 2 || c == 3")
    assert expr.op == "||"
    assert expr.left.op == "&&"


def test_unary_operators():
    expr = parse_expr("-!~x")
    assert expr.op == "-"
    assert expr.operand.op == "!"
    assert expr.operand.operand.op == "~"


def test_parentheses():
    expr = parse_expr("(1 + 2) * 3")
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_calls_and_array_refs():
    expr = parse_expr("f(1, g(2), h[3])")
    assert isinstance(expr, ast.Call)
    assert len(expr.args) == 3
    assert isinstance(expr.args[1], ast.Call)
    assert isinstance(expr.args[2], ast.ArrayRef)


def test_if_else_chains():
    program = parse("""
void main() {
  if (1) { x = 1; } else if (2) { x = 2; } else { x = 3; }
}
int x;
""")
    statement = program.functions[0].body.statements[0]
    assert isinstance(statement, ast.If)
    assert isinstance(statement.else_body, ast.If)


def test_for_desugars_to_while():
    program = parse("""
void main() {
  int i;
  for (i = 0; i < 4; i = i + 1) { print(i); }
}
""")
    block = program.functions[0].body.statements[1]
    assert isinstance(block, ast.Block)
    init, loop = block.statements
    assert isinstance(init, ast.Assign)
    assert isinstance(loop, ast.While)
    # Step was appended to the body.
    assert isinstance(loop.body.statements[-1], ast.Assign)


def test_for_with_empty_clauses():
    program = parse("void main() { for (;;) { break; } }")
    statement = program.functions[0].body.statements[0]
    loop = statement.statements[0]
    assert isinstance(loop, ast.While)
    assert isinstance(loop.condition, ast.Num)


def test_continue_in_for_rejected():
    with pytest.raises(CompileError):
        parse("void main() { for (;;) { continue; } }")


def test_continue_in_while_allowed():
    parse("void main() { while (1) { continue; } }")


def test_array_assignment_vs_expression():
    program = parse("""
void main() {
  a[0] = 1;
  f(a[0]);
}
int a[2];
void f(int x) {}
""")
    first, second = program.functions[0].body.statements
    assert isinstance(first, ast.ArrayAssign)
    assert isinstance(second, ast.ExprStmt)


def test_local_declarations():
    program = parse("void main() { int x = 3; int buffer[10]; }")
    decls = program.functions[0].body.statements
    assert decls[0].init is not None
    assert decls[1].size == 10


def test_missing_semicolon_rejected():
    with pytest.raises(CompileError):
        parse("void main() { x = 1 }")


def test_unterminated_block_rejected():
    with pytest.raises(CompileError):
        parse("void main() { x = 1;")


def test_void_global_rejected():
    with pytest.raises(CompileError):
        parse("void x;")


def test_too_many_initializers_rejected():
    with pytest.raises(CompileError):
        parse("int a[1] = {1, 2};")


def test_error_has_line_number():
    with pytest.raises(CompileError) as excinfo:
        parse("void main() {\n  x = ;\n}")
    assert "line 2" in str(excinfo.value)


# ----- nesting limit -----

def _parens(depth):
    return "void main() {\n  print(%s1%s);\n}" % ("(" * depth, ")" * depth)


def _ifs(depth):
    return "void main() {\n%s  print(1);\n%s}" % (
        "  if (1) {\n" * depth, "  }\n" * depth)


def test_deep_parentheses_compile():
    # Well inside the limit: parsing and lowering recurse only a few
    # interpreter frames per level.
    assert compile_source(_parens(70))


@pytest.mark.parametrize("source, line", [
    (_parens(10000), 2),
    # Each `if (1) {` is two levels, the if and its block: the one on
    # line 102 is the 201st.
    (_ifs(300), 102),
    ("int x;\nvoid main() {\n  x = %s;\n}" % " + ".join(["x"] * 300), 3),
    ("int x;\nvoid main() {\n  x = %sx;\n}" % ("-" * 300), 3),
], ids=["parentheses", "ifs", "binary-chain", "unary-chain"])
def test_nesting_beyond_the_limit_is_a_compile_error(source, line):
    with pytest.raises(CompileError) as info:
        compile_source(source)
    assert info.value.line == line
    assert "nested more than %d levels" % MAX_NESTING in str(info.value)


@pytest.mark.parametrize("source", [
    _parens(MAX_NESTING - 3),
    _ifs(MAX_NESTING // 2 - 1),
    "int x; void main() { x = %s; }" % " + ".join(["x"] * (MAX_NESTING - 1)),
    "int x; void main() { if (%s) { x = 1; } }" % " && ".join(
        ["x"] * (MAX_NESTING - 1)),
    "int x; void main() { x = %sx; }" % ("-" * (MAX_NESTING - 3)),
], ids=["parentheses", "ifs", "binary-chain", "condition-chain",
        "unary-chain"])
def test_nesting_at_the_limit_compiles(source):
    # The limit keeps the parser and lowering far enough from the
    # interpreter's recursion limit to run under a test framework.
    assert compile_source(source)
