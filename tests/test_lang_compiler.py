"""End-to-end compiler tests: Mini-C source -> assembly -> execution,
including a differential property against a Python evaluator that
mirrors the machine's 32-bit semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator import run_program
from repro.lang import CompileError, CompilerOptions, compile_to_program

_M32 = 0xFFFFFFFF


def run_source(source, opt_level=2):
    program = compile_to_program(source,
                                 CompilerOptions(opt_level=opt_level))
    machine, trace = run_program(program)
    return machine.output


@pytest.mark.parametrize("opt_level", [0, 2])
class TestLanguageFeatures:
    def test_arithmetic(self, opt_level):
        out = run_source("""
void main() {
  int a = 10;
  int b = 3;
  print(a + b); print(a - b); print(a * b);
  print(a / b); print(a % b);
  print(-a / b); print(-a % b);
}
""", opt_level)
        assert out == [13, 7, 30, 3, 1, -3, -1]

    def test_bitwise_and_shifts(self, opt_level):
        out = run_source("""
void main() {
  int a = 12;
  print(a & 10); print(a | 3); print(a ^ 5);
  print(a << 2); print(a >> 1);
  print(-8 >> 1);
  print(~0);
}
""", opt_level)
        assert out == [8, 15, 9, 48, 6, -4, -1]

    def test_comparisons(self, opt_level):
        out = run_source("""
void main() {
  print(1 < 2); print(2 < 1); print(2 <= 2);
  print(3 > 2); print(2 >= 3); print(4 == 4); print(4 != 4);
  print(-1 < 1);
}
""", opt_level)
        assert out == [1, 0, 1, 1, 0, 1, 0, 1]

    def test_logical_operators(self, opt_level):
        out = run_source("""
int calls;
int truthy(int v) { calls = calls + 1; return v; }
void main() {
  print(truthy(1) && truthy(2));
  print(truthy(0) && truthy(3));
  print(calls);           // short circuit: 3 calls, not 4
  print(truthy(0) || truthy(1));
  print(!5); print(!0);
}
""", opt_level)
        assert out == [1, 0, 3, 1, 0, 1]

    def test_while_break_continue(self, opt_level):
        out = run_source("""
void main() {
  int i = 0;
  int acc = 0;
  while (1) {
    i = i + 1;
    if (i > 10) { break; }
    if (i % 2 == 0) { continue; }
    acc = acc + i;
  }
  print(acc);
}
""", opt_level)
        assert out == [25]  # 1+3+5+7+9

    def test_recursion(self, opt_level):
        out = run_source("""
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
void main() { print(fib(12)); }
""", opt_level)
        assert out == [144]

    def test_mutual_recursion(self, opt_level):
        # Signatures are collected before lowering, so mutual recursion
        # needs no forward declarations.
        out = run_source("""
int is_even(int n) {
  if (n == 0) { return 1; }
  return is_odd(n - 1);
}
int is_odd(int n) {
  if (n == 0) { return 0; }
  return is_even(n - 1);
}
void main() { print(is_even(10)); print(is_odd(7)); }
""", opt_level)
        assert out == [1, 1]

    def test_global_arrays(self, opt_level):
        out = run_source("""
int table[5] = {10, 20, 30};
void main() {
  table[3] = table[0] + table[1];
  print(table[3]);
  print(table[4]);   // zero-filled tail
}
""", opt_level)
        assert out == [30, 0]

    def test_local_arrays(self, opt_level):
        out = run_source("""
void main() {
  int buffer[8];
  int i;
  for (i = 0; i < 8; i = i + 1) { buffer[i] = i * i; }
  int acc = 0;
  for (i = 0; i < 8; i = i + 1) { acc = acc + buffer[i]; }
  print(acc);
}
""", opt_level)
        assert out == [140]

    def test_four_arguments(self, opt_level):
        out = run_source("""
int combine(int a, int b, int c, int d) {
  return a * 1000 + b * 100 + c * 10 + d;
}
void main() { print(combine(1, 2, 3, 4)); }
""", opt_level)
        assert out == [1234]

    def test_hex_literals(self, opt_level):
        assert run_source("void main() { print(0xFF + 1); }",
                          opt_level) == [256]

    def test_nested_calls_preserve_saved_registers(self, opt_level):
        out = run_source("""
int leaf(int x) { return x + 1; }
int middle(int x) {
  int a = x * 2;
  int b = leaf(a);
  int c = leaf(b);
  return a + b + c;
}
void main() { print(middle(5)); }
""", opt_level)
        assert out == [33]


def test_o0_and_o2_agree_on_fixture(mini_c_source):
    assert run_source(mini_c_source, 0) == run_source(mini_c_source, 2)


#: (left, operator, right) whose constant operands leave the signed
#: 32-bit range: folding must still compute what the machine does
_WIDE_FOLDS = [
    ("65536*65536", ">>", "16"),
    ("3", "<", "0xDEADBEEF"),
    ("0xDEADBEEF", "<=", "3"),
    ("0xFFFFFFFF", ">", "0"),
    ("0x80000000", ">=", "0"),
    ("65536*65536", "==", "0"),
    ("65536*65536", "!=", "0"),
    ("0xFFFFFFFF", "/", "2"),
    ("7", "/", "0xFFFFFFFF"),
    ("0xFFFFFFF9", "%", "4"),
    # Folded operands that overflow 32 bits through +, unary -, ~ and
    # << before the outer operation reads them.
    ("2147483647 + 1", "<", "0"),
    ("-(-2147483647 - 1)", "<", "0"),
    ("~0x7fffffff", "<", "0"),
    ("1 << 31", "/", "2"),
    ("0x10000*0x10000 + 5", "%", "3"),
]


@pytest.mark.parametrize("left, op, right", _WIDE_FOLDS)
def test_folded_binop_matches_machine(left, op, right):
    """Each folded operation prints what the same operation on
    variables prints (the machine's signed 32-bit ``slt``, ``srai``,
    ``div`` and ``rem``)."""
    folded = run_source("void main() { print((%s) %s (%s)); }"
                        % (left, op, right))
    unfolded = run_source("int a; int b; void main() { a = %s; b = %s; "
                          "print(a %s b); }" % (left, right, op))
    assert folded == unfolded


def test_folded_not_and_truth_test_match_machine():
    folded = run_source("""
void main() {
  print(!(65536*65536));
  if (65536*65536) { print(1); } else { print(0); }
  while (65536*65536) { print(2); }
}
""")
    unfolded = run_source("""
int a;
void main() {
  a = 65536*65536;
  print(!a);
  if (a) { print(1); } else { print(0); }
  while (a) { print(2); }
}
""")
    assert folded == unfolded == [1, 0]


def test_constant_division_by_wrapped_zero_rejected():
    with pytest.raises(CompileError, match="division by zero"):
        compile_to_program("void main() { print(1 / (65536*65536)); }")


def test_more_than_four_params_rejected():
    with pytest.raises(CompileError):
        compile_to_program(
            "int f(int a, int b, int c, int d, int e) { return 0; }"
            "void main() {}")


def test_undefined_function_rejected():
    with pytest.raises(CompileError):
        compile_to_program("void main() { nosuch(); }")


def test_print_arity_checked():
    with pytest.raises(CompileError):
        compile_to_program("void main() { print(1, 2); }")


def test_redefining_print_rejected():
    with pytest.raises(CompileError):
        compile_to_program("void print(int x) {} void main() {}")


# ---------------------------------------------------------------------
# Differential property: random expressions
# ---------------------------------------------------------------------

_LEAVES = st.sampled_from(["a", "b", "c"]) | \
    st.integers(-100, 100).map(str)


def _expr(depth):
    if depth == 0:
        return _LEAVES
    sub = _expr(depth - 1)
    binary = st.tuples(sub, st.sampled_from(
        ["+", "-", "*", "&", "|", "^", "<", ">", "==", "!="]), sub).map(
        lambda t: "(%s %s %s)" % (t[0], t[1], t[2]))
    shift = st.tuples(sub, st.sampled_from(["<<", ">>"]),
                      st.integers(0, 8).map(str)).map(
        lambda t: "(%s %s %s)" % (t[0], t[1], t[2]))
    unary = sub.map(lambda e: "(-%s)" % e)
    return binary | shift | unary | sub


def _signed(value):
    value &= _M32
    return value - 0x100000000 if value & 0x80000000 else value


def _evaluate(text, env):
    """Evaluate a generated expression with machine semantics."""
    import ast as python_ast

    def walk(node):
        if isinstance(node, python_ast.Expression):
            return walk(node.body)
        if isinstance(node, python_ast.Constant):
            return node.value & _M32
        if isinstance(node, python_ast.Name):
            return env[node.id] & _M32
        if isinstance(node, python_ast.UnaryOp):
            operand = walk(node.operand)
            if isinstance(node.op, python_ast.USub):
                return (-operand) & _M32
            raise AssertionError(node)
        if isinstance(node, python_ast.Compare):
            left = walk(node.left)
            right = walk(node.comparators[0])
            op = node.ops[0]
            if isinstance(op, python_ast.Lt):
                return int(_signed(left) < _signed(right))
            if isinstance(op, python_ast.Gt):
                return int(_signed(left) > _signed(right))
            if isinstance(op, python_ast.Eq):
                return int(left == right)
            return int(left != right)
        assert isinstance(node, python_ast.BinOp)
        left, right = walk(node.left), walk(node.right)
        op = node.op
        if isinstance(op, python_ast.Add):
            return (left + right) & _M32
        if isinstance(op, python_ast.Sub):
            return (left - right) & _M32
        if isinstance(op, python_ast.Mult):
            return (left * right) & _M32
        if isinstance(op, python_ast.BitAnd):
            return left & right
        if isinstance(op, python_ast.BitOr):
            return left | right
        if isinstance(op, python_ast.BitXor):
            return left ^ right
        if isinstance(op, python_ast.LShift):
            return (left << (right & 31)) & _M32
        assert isinstance(op, python_ast.RShift)
        return (_signed(left) >> (right & 31)) & _M32

    return walk(python_ast.parse(text, mode="eval"))


@settings(max_examples=50, deadline=None)
@given(_expr(3), st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50))
def test_random_expression_matches_model(expression, a, b, c):
    source = """
int a = %d;
int b = %d;
int c = %d;
void main() { print(%s); }
""" % (a, b, c, expression)
    expected = _signed(_evaluate(expression, {"a": a, "b": b, "c": c}))
    for opt_level in (0, 2):
        assert run_source(source, opt_level) == [expected]
