"""AST -> IR lowering.

Straightforward syntax-directed translation with two niceties:

* **Constant folding for free**: expression lowering returns operands,
  and an operation whose inputs are both immediates folds to an
  immediate instead of emitting an instruction.  Folding follows the
  machine's 32-bit arithmetic: comparisons, ``>>``, ``!``, ``/``,
  ``%`` and truth tests read their constant operands as signed 32-bit
  values, as ``slt``, ``srai`` and ``div`` do.  The other operators
  fold in unbounded integers, whose low 32 bits are what the machine
  computes; codegen keeps exactly those bits.
* **Condition lowering**: ``if``/``while`` conditions lower directly to
  conditional branches (including short-circuit ``&&``/``||`` and ``!``)
  rather than materializing 0/1 values.

Scope handling is lexical with shadowing; locals are scalar virtual
registers except declared arrays, which get frame slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.lang import ir
from repro.lang.errors import CompileError

def _s32(value: int) -> int:
    """*value* read as a signed 32-bit machine word."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value & 0x80000000 else value


_FOLDABLE = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << (b & 31),
    ">>": lambda a, b: _s32(a) >> (b & 31),
    "==": lambda a, b: int(_s32(a) == _s32(b)),
    "!=": lambda a, b: int(_s32(a) != _s32(b)),
    "<": lambda a, b: int(_s32(a) < _s32(b)),
    "<=": lambda a, b: int(_s32(a) <= _s32(b)),
    ">": lambda a, b: int(_s32(a) > _s32(b)),
    ">=": lambda a, b: int(_s32(a) >= _s32(b)),
}

_NEGATED = {"==": "!=", "!=": "==", "<": ">=", "<=": ">", ">": "<=",
            ">=": "<"}

_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


class _Scope:
    """Lexical scope chain mapping names to storage."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.entries: Dict[str, Tuple[str, object]] = {}

    def define(self, name: str, kind: str, value: object, line: int) -> None:
        if name in self.entries:
            raise CompileError("redefinition of %r" % name, line)
        self.entries[name] = (kind, value)

    def lookup(self, name: str) -> Optional[Tuple[str, object]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.entries:
                return scope.entries[name]
            scope = scope.parent
        return None


class _FunctionLowering:
    def __init__(self, node: ast.FunctionDef, module: ir.IRModule,
                 signatures: Dict[str, Tuple[int, bool]]):
        self.node = node
        self.module = module
        self.signatures = signatures
        self.function = ir.IRFunction(name=node.name,
                                      returns_value=node.returns_value)
        self.block = ir.Block(label=node.name)
        self.function.blocks.append(self.block)
        self.label_counter = 0
        self.next_slot = 0
        self.loop_stack: List[Tuple[str, str]] = []  # (break, continue)
        self.scope = _Scope()

    # ----- plumbing -----

    def new_label(self) -> str:
        self.label_counter += 1
        return "%s__L%d" % (self.node.name, self.label_counter)

    def start_block(self, label: str) -> None:
        self.block = ir.Block(label=label)
        self.function.blocks.append(self.block)

    def emit(self, instr: ir.IRInstr) -> None:
        if self.block.terminator is None:
            self.block.instrs.append(instr)
        # Instructions after a terminator are unreachable; drop them.

    def terminate(self, terminator: ir.Terminator) -> None:
        if self.block.terminator is None:
            self.block.terminator = terminator

    def to_vreg(self, operand: ir.Operand) -> ir.VReg:
        """Materialize *operand* into a virtual register."""
        if isinstance(operand, ir.VReg):
            return operand
        vreg = self.function.new_vreg()
        self.emit(ir.Const(dst=vreg, value=operand))
        return vreg

    # ----- entry -----

    def run(self, globals_kinds: Dict[str, str]) -> ir.IRFunction:
        function_scope = _Scope()
        for name, kind in globals_kinds.items():
            function_scope.define(name, kind, name, self.node.line)
        self.scope = _Scope(function_scope)
        if len(self.node.params) > 4:
            raise CompileError("more than 4 parameters", self.node.line)
        for index, param in enumerate(self.node.params):
            vreg = self.function.new_vreg()
            self.emit(ir.Param(dst=vreg, index=index))
            self.scope.define(param, "vreg", vreg, self.node.line)
            self.function.params.append(vreg)
        self.lower_block(self.node.body)
        # Fall off the end: implicit return.
        self.terminate(ir.Ret(value=0 if self.node.returns_value else None))
        return self.function

    # ----- statements -----

    def lower_block(self, block: ast.Block) -> None:
        saved = self.scope
        self.scope = _Scope(saved)
        for statement in block.statements:
            self.lower_stmt(statement)
        self.scope = saved

    def lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self.lower_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ArrayAssign):
            self._lower_array_assign(stmt)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self.loop_stack:
                raise CompileError("break outside loop", stmt.line)
            self.terminate(ir.Jump(target=self.loop_stack[-1][0]))
        elif isinstance(stmt, ast.Continue):
            if not self.loop_stack:
                raise CompileError("continue outside loop", stmt.line)
            self.terminate(ir.Jump(target=self.loop_stack[-1][1]))
        elif isinstance(stmt, ast.ExprStmt):
            self.lower_expr(stmt.expr)
        else:  # pragma: no cover - parser emits no other nodes
            raise CompileError("unhandled statement %r" % stmt, stmt.line)

    def _lower_decl(self, stmt: ast.VarDecl) -> None:
        if stmt.size is not None:
            if stmt.size <= 0:
                raise CompileError("bad array size", stmt.line)
            slot = self.next_slot
            self.next_slot += 1
            self.function.frame_slots[slot] = 4 * stmt.size
            self.scope.define(stmt.name, "larray", slot, stmt.line)
            return
        vreg = self.function.new_vreg()
        value = self.lower_expr(stmt.init) if stmt.init is not None else 0
        self.emit(ir.Move(dst=vreg, src=value))
        self.scope.define(stmt.name, "vreg", vreg, stmt.line)

    def _lower_assign(self, stmt: ast.Assign) -> None:
        entry = self.scope.lookup(stmt.name)
        if entry is None:
            raise CompileError("undefined variable %r" % stmt.name,
                               stmt.line)
        kind, storage = entry
        value = self.lower_expr(stmt.value)
        if kind == "vreg":
            self.emit(ir.Move(dst=storage, src=value))
        elif kind == "gscalar":
            self.emit(ir.StoreGlobal(src=value, name=storage))
        else:
            raise CompileError("cannot assign to array %r" % stmt.name,
                               stmt.line)

    def _address_of(self, name: str, index: ast.Expr,
                    line: int) -> Tuple[ir.VReg, int]:
        """Lower array element address; return (base vreg, byte offset)."""
        entry = self.scope.lookup(name)
        if entry is None:
            raise CompileError("undefined array %r" % name, line)
        kind, storage = entry
        if kind == "garray":
            base = self.function.new_vreg()
            self.emit(ir.GlobalAddr(dst=base, name=storage))
        elif kind == "larray":
            base = self.function.new_vreg()
            self.emit(ir.FrameAddr(dst=base, slot=storage))
        else:
            raise CompileError("%r is not an array" % name, line)
        index_op = self.lower_expr(index)
        if isinstance(index_op, int):
            return base, 4 * index_op
        scaled = self.function.new_vreg()
        self.emit(ir.BinOp(dst=scaled, op="<<", a=index_op, b=2))
        address = self.function.new_vreg()
        self.emit(ir.BinOp(dst=address, op="+", a=base, b=scaled))
        return address, 0

    def _lower_array_assign(self, stmt: ast.ArrayAssign) -> None:
        value = self.lower_expr(stmt.value)
        base, offset = self._address_of(stmt.name, stmt.index, stmt.line)
        self.emit(ir.Store(src=value, base=base, offset=offset))

    def _lower_if(self, stmt: ast.If) -> None:
        then_label = self.new_label()
        else_label = self.new_label() if stmt.else_body else None
        join_label = self.new_label()
        self.lower_condition(stmt.condition, then_label,
                             else_label or join_label)
        self.start_block(then_label)
        self.lower_stmt(stmt.then_body)
        self.terminate(ir.Jump(target=join_label))
        if stmt.else_body is not None:
            self.start_block(else_label)
            self.lower_stmt(stmt.else_body)
            self.terminate(ir.Jump(target=join_label))
        self.start_block(join_label)

    def _lower_while(self, stmt: ast.While) -> None:
        cond_label = self.new_label()
        body_label = self.new_label()
        exit_label = self.new_label()
        self.terminate(ir.Jump(target=cond_label))
        self.start_block(cond_label)
        self.lower_condition(stmt.condition, body_label, exit_label)
        self.start_block(body_label)
        self.loop_stack.append((exit_label, cond_label))
        self.lower_stmt(stmt.body)
        self.loop_stack.pop()
        self.terminate(ir.Jump(target=cond_label))
        self.start_block(exit_label)

    def _lower_return(self, stmt: ast.Return) -> None:
        if stmt.value is not None and not self.node.returns_value:
            raise CompileError("void function returns a value", stmt.line)
        value: Optional[ir.Operand] = None
        if self.node.returns_value:
            value = (self.lower_expr(stmt.value)
                     if stmt.value is not None else 0)
        self.terminate(ir.Ret(value=value))

    # ----- conditions (branch context) -----

    def lower_condition(self, expr: ast.Expr, if_true: str,
                        if_false: str) -> None:
        """Lower *expr* as control flow into the two labels."""
        if isinstance(expr, ast.BinOp) and expr.op == "&&":
            middle = self.new_label()
            self.lower_condition(expr.left, middle, if_false)
            self.start_block(middle)
            self.lower_condition(expr.right, if_true, if_false)
            return
        if isinstance(expr, ast.BinOp) and expr.op == "||":
            middle = self.new_label()
            self.lower_condition(expr.left, if_true, middle)
            self.start_block(middle)
            self.lower_condition(expr.right, if_true, if_false)
            return
        if isinstance(expr, ast.UnOp) and expr.op == "!":
            self.lower_condition(expr.operand, if_false, if_true)
            return
        if isinstance(expr, ast.BinOp) and expr.op in _COMPARISONS:
            a = self.lower_expr(expr.left)
            b = self.lower_expr(expr.right)
            if isinstance(a, int) and isinstance(b, int):
                taken = _FOLDABLE[expr.op](a, b)
                self.terminate(ir.Jump(target=if_true if taken
                                       else if_false))
                return
            self.terminate(ir.CondBr(op=expr.op, a=a, b=b, if_true=if_true,
                                     if_false=if_false))
            return
        value = self.lower_expr(expr)
        if isinstance(value, int):
            self.terminate(ir.Jump(target=if_true if _s32(value)
                                   else if_false))
            return
        self.terminate(ir.CondBr(op="!=", a=value, b=0, if_true=if_true,
                                 if_false=if_false))

    # ----- expressions (value context) -----

    def lower_expr(self, expr: ast.Expr) -> ir.Operand:
        if isinstance(expr, ast.Num):
            return expr.value
        if isinstance(expr, ast.Var):
            entry = self.scope.lookup(expr.name)
            if entry is None:
                raise CompileError("undefined variable %r" % expr.name,
                                   expr.line)
            kind, storage = entry
            if kind == "vreg":
                return storage
            if kind == "gscalar":
                dst = self.function.new_vreg()
                self.emit(ir.LoadGlobal(dst=dst, name=storage))
                return dst
            raise CompileError("array %r used as value" % expr.name,
                               expr.line)
        if isinstance(expr, ast.ArrayRef):
            base, offset = self._address_of(expr.name, expr.index, expr.line)
            dst = self.function.new_vreg()
            self.emit(ir.Load(dst=dst, base=base, offset=offset))
            return dst
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, ast.UnOp):
            return self._lower_unop(expr)
        if isinstance(expr, ast.BinOp):
            return self._lower_binop(expr)
        raise CompileError("unhandled expression %r" % expr, expr.line)

    def _lower_call(self, expr: ast.Call) -> ir.Operand:
        if expr.name == "print":
            if len(expr.args) != 1:
                raise CompileError("print takes one argument", expr.line)
            self.emit(ir.Print(value=self.lower_expr(expr.args[0])))
            return 0
        signature = self.signatures.get(expr.name)
        if signature is None:
            raise CompileError("undefined function %r" % expr.name,
                               expr.line)
        arity, returns_value = signature
        if len(expr.args) != arity:
            raise CompileError(
                "%r expects %d arguments, got %d" % (
                    expr.name, arity, len(expr.args)), expr.line)
        args = [self.lower_expr(argument) for argument in expr.args]
        dst = self.function.new_vreg() if returns_value else None
        self.emit(ir.Call(dst=dst, name=expr.name, args=args))
        return dst if dst is not None else 0

    def _lower_unop(self, expr: ast.UnOp) -> ir.Operand:
        operand = self.lower_expr(expr.operand)
        if isinstance(operand, int):
            if expr.op == "-":
                return -operand
            if expr.op == "!":
                return int(_s32(operand) == 0)
            return ~operand
        dst = self.function.new_vreg()
        self.emit(ir.UnOp(dst=dst, op=expr.op, a=operand))
        return dst

    def _lower_binop(self, expr: ast.BinOp) -> ir.Operand:
        if expr.op in ("&&", "||"):
            return self._lower_logical_value(expr)
        a = self.lower_expr(expr.left)
        b = self.lower_expr(expr.right)
        if isinstance(a, int) and isinstance(b, int):
            if expr.op in ("/", "%"):
                a, b = _s32(a), _s32(b)
                if b == 0:
                    raise CompileError("constant division by zero",
                                       expr.line)
                # Match machine semantics (truncate toward zero).
                quotient = abs(a) // abs(b)
                if (a < 0) != (b < 0):
                    quotient = -quotient
                if expr.op == "/":
                    return quotient
                return a - b * quotient
            return _FOLDABLE[expr.op](a, b)
        dst = self.function.new_vreg()
        self.emit(ir.BinOp(dst=dst, op=expr.op, a=a, b=b))
        return dst

    def _lower_logical_value(self, expr: ast.BinOp) -> ir.Operand:
        """Materialize a short-circuit &&/|| as a 0/1 value."""
        result = self.function.new_vreg()
        true_label = self.new_label()
        false_label = self.new_label()
        join_label = self.new_label()
        self.lower_condition(expr, true_label, false_label)
        self.start_block(true_label)
        self.emit(ir.Move(dst=result, src=1))
        self.terminate(ir.Jump(target=join_label))
        self.start_block(false_label)
        self.emit(ir.Move(dst=result, src=0))
        self.terminate(ir.Jump(target=join_label))
        self.start_block(join_label)
        return result


def lower_program(program: ast.ProgramAST) -> ir.IRModule:
    """Lower a parsed program to an IR module."""
    module = ir.IRModule()
    globals_kinds: Dict[str, str] = {}
    for declaration in program.globals:
        if declaration.name in module.globals:
            raise CompileError("redefinition of global %r" %
                               declaration.name, declaration.line)
        size = declaration.size if declaration.size is not None else 1
        module.globals[declaration.name] = (size, list(declaration.init))
        globals_kinds[declaration.name] = (
            "garray" if declaration.size is not None else "gscalar")

    signatures: Dict[str, Tuple[int, bool]] = {}
    for function in program.functions:
        if function.name in signatures:
            raise CompileError("redefinition of function %r" % function.name,
                               function.line)
        signatures[function.name] = (len(function.params),
                                     function.returns_value)
    if "main" not in signatures:
        raise CompileError("no 'main' function")
    for node in program.functions:
        if node.name in ("print",):
            raise CompileError("cannot redefine builtin %r" % node.name,
                               node.line)
        lowering = _FunctionLowering(node, module, signatures)
        module.functions.append(lowering.run(globals_kinds))
    return module
