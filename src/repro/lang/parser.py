"""Recursive-descent parser for Mini-C.

Grammar (precedence from loosest to tightest)::

    program   := (global | function)*
    global    := 'int' IDENT ('[' NUM ']')? init? ';'
    init      := '=' (NUM | '-' NUM | '{' NUM (',' NUM)* '}')
    function  := ('int' | 'void') IDENT '(' params? ')' block
    params    := 'int' IDENT (',' 'int' IDENT)*
    block     := '{' statement* '}'
    statement := block | if | while | for | return ';'-forms | decl
               | simple ';' | ';'
    simple    := IDENT '=' expr | IDENT '[' expr ']' '=' expr | expr

    expr      := or
    or        := and ('||' and)*
    and       := bitor ('&&' bitor)*
    bitor     := bitxor ('|' bitxor)*
    bitxor    := bitand ('^' bitand)*
    bitand    := equality ('&' equality)*
    equality  := relational (('=='|'!=') relational)*
    relational:= shift (('<'|'<='|'>'|'>=') shift)*
    shift     := additive (('<<'|'>>') additive)*
    additive  := term (('+'|'-') term)*
    term      := unary (('*'|'/'|'%') unary)*
    unary     := ('-'|'!'|'~') unary | primary
    primary   := NUM | IDENT | IDENT '(' args ')' | IDENT '[' expr ']'
               | '(' expr ')'

Expressions are parsed by precedence climbing over
:data:`BINARY_LEVELS`, which gives the tree the ten-level grammar above
describes with one recursion per operand instead of one per level.

``for (init; cond; step) body`` desugars to ``init; while (cond)
{ body; step; }`` — with the caveat that ``continue`` inside a desugared
``for`` re-runs the step (handled during desugaring by appending the
step into a wrapper the lowering understands; this parser simply
disallows ``continue`` inside ``for`` to keep semantics honest).

Nesting is bounded by :data:`MAX_NESTING`, counted along any path of the
tree below a function body: each statement, bracket pair (grouping
parentheses, a call's argument list, an index), unary operator and
binary operator is one level, and a ``for`` loop three (the block and
``while`` loop it desugars to, then its body).  The parser and the
lowering recurse at most a few frames per level, so a deeper program
raises :class:`CompileError` at the line where it crossed the limit
instead of exhausting the interpreter's recursion limit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.lang import ast_nodes as ast
from repro.lang.errors import CompileError
from repro.lang.lexer import Token, tokenize

#: binary operator -> precedence level, loosest (0) to tightest; every
#: binary operator is left-associative
BINARY_LEVELS = {
    "||": 0,
    "&&": 1,
    "|": 2,
    "^": 3,
    "&": 4,
    "==": 5, "!=": 5,
    "<": 6, "<=": 6, ">": 6, ">=": 6,
    "<<": 7, ">>": 7,
    "+": 8, "-": 8,
    "*": 9, "/": 9, "%": 9,
}

_UNARY = frozenset(("-", "!", "~"))

#: deepest nesting the parser accepts (see the module docstring)
MAX_NESTING = 200


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.position = 0
        self.in_for = 0
        #: levels above the construct being parsed, as far as known when
        #: it starts: a left operand learns of the operators after it
        #: only when they are parsed (see :meth:`_binary`)
        self.depth = 0

    # ----- token helpers -----

    @property
    def current(self) -> Token:
        return self.tokens[self.position]

    def advance(self) -> Token:
        token = self.tokens[self.position]
        if token.kind != "eof":
            self.position += 1
        return token

    def accept(self, kind: str) -> Optional[Token]:
        if self.current.kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str) -> Token:
        token = self.current
        if token.kind != kind:
            raise CompileError(
                "expected %r, got %r" % (kind, token.kind), token.line)
        return self.advance()

    def _enter(self, token: Token) -> None:
        """Descend one level below *token*; leave with ``depth -= 1``."""
        self.depth += 1
        self._check_depth(0, token)

    def _check_depth(self, height: int, token: Token) -> None:
        """Reject a tree of *height* levels at the current depth."""
        if self.depth + height > MAX_NESTING:
            raise CompileError(
                "nested more than %d levels deep" % MAX_NESTING, token.line)

    # ----- top level -----

    def parse_program(self) -> ast.ProgramAST:
        program = ast.ProgramAST()
        while self.current.kind != "eof":
            token = self.current
            if token.kind not in ("int", "void"):
                raise CompileError(
                    "expected declaration, got %r" % token.kind, token.line)
            returns_value = token.kind == "int"
            self.advance()
            name_token = self.expect("ident")
            if self.current.kind == "(":
                program.functions.append(
                    self._function(name_token.value, returns_value,
                                   name_token.line))
            else:
                if not returns_value:
                    raise CompileError("void variable", name_token.line)
                program.globals.append(
                    self._global(name_token.value, name_token.line))
        return program

    def _global(self, name: str, line: int) -> ast.GlobalVar:
        size = None
        if self.accept("["):
            size = self.expect("num").value
            self.expect("]")
        init: List[int] = []
        if self.accept("="):
            if self.accept("{"):
                init.append(self._literal())
                while self.accept(","):
                    init.append(self._literal())
                self.expect("}")
            else:
                init.append(self._literal())
        self.expect(";")
        if size is not None and len(init) > size:
            raise CompileError("too many initializers for %r" % name, line)
        if size is None and len(init) > 1:
            raise CompileError("scalar with list initializer", line)
        return ast.GlobalVar(name=name, size=size, init=init, line=line)

    def _literal(self) -> int:
        negative = bool(self.accept("-"))
        value = self.expect("num").value
        return -value if negative else value

    def _function(self, name: str, returns_value: bool,
                  line: int) -> ast.FunctionDef:
        self.expect("(")
        params: List[str] = []
        if not self.accept(")"):
            while True:
                self.expect("int")
                params.append(self.expect("ident").value)
                if not self.accept(","):
                    break
            self.expect(")")
        body = self._block()
        return ast.FunctionDef(name=name, params=params,
                               returns_value=returns_value, body=body,
                               line=line)

    # ----- statements -----

    def _block(self) -> ast.Block:
        open_token = self.expect("{")
        statements: List[ast.Stmt] = []
        while not self.accept("}"):
            if self.current.kind == "eof":
                raise CompileError("unterminated block", open_token.line)
            statements.append(self._statement())
        return ast.Block(line=open_token.line, statements=statements)

    def _statement(self) -> ast.Stmt:
        token = self.current
        self._enter(token)
        statement = self._statement_at(token)
        self.depth -= 1
        return statement

    def _statement_at(self, token: Token) -> ast.Stmt:
        kind = token.kind
        if kind == "{":
            return self._block()
        if kind == ";":
            self.advance()
            return ast.Block(line=token.line)
        if kind == "if":
            self.advance()
            self.expect("(")
            condition = self._expr()
            self.expect(")")
            then_body = self._statement()
            else_body = self._statement() if self.accept("else") else None
            return ast.If(line=token.line, condition=condition,
                          then_body=then_body, else_body=else_body)
        if kind == "while":
            self.advance()
            self.expect("(")
            condition = self._expr()
            self.expect(")")
            body = self._statement()
            return ast.While(line=token.line, condition=condition, body=body)
        if kind == "for":
            return self._for(token)
        if kind == "return":
            self.advance()
            value = None if self.current.kind == ";" else self._expr()
            self.expect(";")
            return ast.Return(line=token.line, value=value)
        if kind == "break":
            self.advance()
            self.expect(";")
            return ast.Break(line=token.line)
        if kind == "continue":
            if self.in_for:
                raise CompileError(
                    "continue inside 'for' is not supported "
                    "(use 'while')", token.line)
            self.advance()
            self.expect(";")
            return ast.Continue(line=token.line)
        if kind == "int":
            self.advance()
            name = self.expect("ident").value
            size = None
            if self.accept("["):
                size = self.expect("num").value
                self.expect("]")
            init = self._expr() if self.accept("=") else None
            if size is not None and init is not None:
                raise CompileError(
                    "local array initializers unsupported", token.line)
            self.expect(";")
            return ast.VarDecl(line=token.line, name=name, size=size,
                               init=init)
        statement = self._simple()
        self.expect(";")
        return statement

    def _for(self, token: Token) -> ast.Stmt:
        self.advance()
        self.expect("(")
        self.depth += 2  # the desugared block and while loop
        init = None if self.current.kind == ";" else self._simple()
        self.expect(";")
        condition = (ast.Num(line=token.line, value=1)
                     if self.current.kind == ";" else self._expr())
        self.expect(";")
        step = None if self.current.kind == ")" else self._simple()
        self.expect(")")
        self.in_for += 1
        body = self._statement()
        self.in_for -= 1
        self.depth -= 2
        loop_body = ast.Block(line=token.line, statements=[body])
        if step is not None:
            loop_body.statements.append(step)
        loop = ast.While(line=token.line, condition=condition,
                         body=loop_body)
        statements: List[ast.Stmt] = []
        if init is not None:
            statements.append(init)
        statements.append(loop)
        return ast.Block(line=token.line, statements=statements)

    def _simple(self) -> ast.Stmt:
        token = self.current
        if token.kind == "ident":
            next_kind = self.tokens[self.position + 1].kind
            if next_kind == "=":
                name = self.advance().value
                self.advance()
                return ast.Assign(line=token.line, name=name,
                                  value=self._expr())
            if next_kind == "[":
                # Could be a[i] = v or the expression a[i]; look ahead
                # past the balanced bracket for '='.
                save = self.position
                name = self.advance().value
                self.advance()
                index = self._expr()
                self.expect("]")
                if self.accept("="):
                    return ast.ArrayAssign(line=token.line, name=name,
                                           index=index, value=self._expr())
                self.position = save
        return ast.ExprStmt(line=token.line, expr=self._expr())

    # ----- expressions -----
    #
    # Each method below returns the tree it parsed and the tree's height
    # in nesting levels.  Depth is checked top-down on every descent
    # (:meth:`_enter`), which bounds the parser's own recursion, and
    # bottom-up wherever a height grows, because an operand sinks one
    # level for every operator that follows it in its chain.

    def _expr(self) -> ast.Expr:
        return self._binary(0)[0]

    def _binary(self, min_level: int) -> Tuple[ast.Expr, int]:
        """Precedence climbing: an operand, then every binary operator
        of at least *min_level* with its right operand, which takes
        only operators that bind tighter."""
        left, height = self._unary()
        tokens = self.tokens
        while True:
            operator = tokens[self.position]
            level = BINARY_LEVELS.get(operator.kind, -1)
            if level < min_level:
                return left, height
            self.position += 1
            self._enter(operator)
            right, right_height = self._binary(level + 1)
            self.depth -= 1
            if right_height > height:
                height = right_height
            height += 1
            self._check_depth(height, operator)
            left = ast.BinOp(line=operator.line, op=operator.kind,
                             left=left, right=right)

    def _unary(self) -> Tuple[ast.Expr, int]:
        token = self.tokens[self.position]
        if token.kind in _UNARY:
            self.position += 1
            self._enter(token)
            operand, height = self._unary()
            self.depth -= 1
            return (ast.UnOp(line=token.line, op=token.kind,
                             operand=operand), height + 1)
        return self._primary()

    def _primary(self) -> Tuple[ast.Expr, int]:
        token = self.tokens[self.position]
        kind = token.kind
        if kind == "num":
            self.position += 1
            return ast.Num(line=token.line, value=token.value), 1
        if kind == "ident":
            self.position += 1
            bracket = self.tokens[self.position]
            if bracket.kind == "(":
                return self._call(token, bracket)
            if bracket.kind == "[":
                self.position += 1
                self._enter(bracket)
                index, height = self._binary(0)
                self.depth -= 1
                self.expect("]")
                return (ast.ArrayRef(line=token.line, name=token.value,
                                     index=index), height + 1)
            return ast.Var(line=token.line, name=token.value), 1
        if kind == "(":
            self.position += 1
            self._enter(token)
            expr, height = self._binary(0)
            self.depth -= 1
            self.expect(")")
            return expr, height + 1
        raise CompileError("unexpected token %r" % kind, token.line)

    def _call(self, name: Token, bracket: Token) -> Tuple[ast.Expr, int]:
        self.position += 1
        self._enter(bracket)
        args: List[ast.Expr] = []
        height = 0
        if not self.accept(")"):
            while True:
                arg, arg_height = self._binary(0)
                args.append(arg)
                if arg_height > height:
                    height = arg_height
                if not self.accept(","):
                    break
            self.expect(")")
        self.depth -= 1
        return (ast.Call(line=name.line, name=name.value, args=args),
                height + 1)


def parse(source: str) -> ast.ProgramAST:
    """Parse Mini-C *source* into an AST."""
    return _Parser(tokenize(source)).parse_program()
