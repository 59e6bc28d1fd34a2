"""IR -> repro assembly.

Calling convention:

* arguments in ``a0``-``a3``, result in ``v0``, return address in
  ``ra`` (saved in the prologue of non-leaf functions);
* ``t0``-``t9`` caller-saved, ``s0``-``s7`` callee-saved (each used
  ``sN`` is saved/restored in prologue/epilogue, tagged
  ``@callee-save``);
* ``k0``/``k1`` are spill scratch, ``at`` is the immediate/address
  scratch — none are allocatable;
* the frame is ``sp``-relative and fixed-size::

      sp + 0 ..                 spill slots
      sp + spills ..            local arrays
      sp + arrays ..            saved s-registers
      sp + saves ..             saved ra (non-leaf)

Every assembly line inherits the provenance tag of the IR instruction
that produced it, so a hoisted IR instruction that expands to two
machine instructions tags both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lang import ir
from repro.lang.errors import CompileError
from repro.lang.regalloc import Allocation, allocate_registers

_IMM_MIN, _IMM_MAX = -32768, 32767
#: values ``li`` and ``.word`` take: 32 bits, signed or unsigned
_WORD_MIN, _WORD_MAX = -(1 << 31), (1 << 32) - 1


def _word(value: int) -> int:
    """*value* as a 32-bit ``li``/``.word`` operand.

    Folded constants and literals can exceed 32 bits; the machine keeps
    the low 32 bits of a wrapping result, and so does this.  Values in
    range are returned unchanged, so their text stays what it was.
    """
    if _WORD_MIN <= value <= _WORD_MAX:
        return value
    return value & 0xFFFFFFFF

#: branch op -> (mnemonic, swap operands?)
_BRANCH_OPS = {
    "==": ("beq", False),
    "!=": ("bne", False),
    "<": ("blt", False),
    ">=": ("bge", False),
    ">": ("blt", True),
    "<=": ("bge", True),
}

#: BinOps with a direct I-format form when the right operand is an
#: immediate in range: op -> mnemonic
_IMMEDIATE_FORMS = {
    "+": "addi",
    "&": "andi",
    "|": "ori",
    "^": "xori",
    "<": "slti",
    "<<": "slli",
    ">>": "srai",
}

_REGISTER_FORMS = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "rem",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "sllv",
    ">>": "srav",
    "<": "slt",
}


class _GlobalLayout:
    """Byte offsets of globals within the data segment."""

    def __init__(self, module: ir.IRModule):
        self.offsets: Dict[str, int] = {}
        offset = 0
        for name, (size, _) in module.globals.items():
            self.offsets[name] = offset
            offset += 4 * size
        self.total = offset


class _FunctionCodegen:
    def __init__(self, function: ir.IRFunction, layout: _GlobalLayout):
        self.function = function
        self.layout = layout
        self.allocation: Allocation = allocate_registers(function)
        self.lines: List[str] = []
        self.provenance: Optional[str] = None
        self._frame()

    # ----- frame layout -----

    def _frame(self) -> None:
        allocation = self.allocation
        offset = 0
        self.spill_base = offset
        offset += 4 * allocation.n_spill_slots
        self.array_offsets: Dict[int, int] = {}
        for slot, size in sorted(self.function.frame_slots.items()):
            self.array_offsets[slot] = offset
            offset += (size + 3) & ~3
        self.save_offsets: Dict[str, int] = {}
        for register in allocation.used_callee_saved:
            self.save_offsets[register] = offset
            offset += 4
        self.ra_offset = -1
        if allocation.has_calls:
            self.ra_offset = offset
            offset += 4
        self.frame_size = (offset + 7) & ~7
        if self.frame_size > _IMM_MAX:
            raise CompileError("stack frame of %r exceeds sp addressing "
                               "range (32 KB)" % self.function.name)

    # ----- emission helpers -----

    def emit(self, text: str) -> None:
        if self.provenance:
            text = "%s  @%s" % (text, self.provenance)
        self.lines.append("    " + text)

    def emit_label(self, label: str) -> None:
        self.lines.append("%s:" % label)

    def emit_li(self, register: str, value: int) -> None:
        self.emit("li %s, %d" % (register, _word(value)))

    def spill_offset(self, slot: int) -> int:
        return self.spill_base + 4 * slot

    def gp_offset(self, name: str) -> int:
        offset = self.layout.offsets[name]
        if offset > _IMM_MAX:
            raise CompileError("data segment exceeds gp addressing "
                               "range (32 KB)")
        return offset

    def memory_operand(self, offset: int, base: str) -> str:
        """The operand ``offset(base)``; an offset beyond 16 bits is
        added to *base* in ``at`` first."""
        if _IMM_MIN <= offset <= _IMM_MAX:
            return "%d(%s)" % (offset, base)
        self.emit_li("at", offset)
        self.emit("add at, %s, at" % base)
        return "0(at)"

    def read(self, operand: ir.Operand, scratch: str) -> str:
        """Return a register holding *operand*, loading into *scratch*
        when the operand is an immediate or a spilled vreg."""
        if isinstance(operand, int):
            if operand == 0:
                return "zero"
            self.emit_li(scratch, operand)
            return scratch
        location = self.allocation.locations[operand]
        if location.is_spilled:
            self.emit("lw %s, %d(sp)" % (scratch,
                                         self.spill_offset(
                                             location.spill_slot)))
            return scratch
        return location.register

    def dest(self, vreg: ir.VReg) -> Tuple[str, Optional[int]]:
        """Register to compute a def into, plus a spill offset to store
        it to afterwards (None when the vreg lives in a register)."""
        location = self.allocation.locations[vreg]
        if location.is_spilled:
            return "k0", self.spill_offset(location.spill_slot)
        return location.register, None

    def write_back(self, spill: Optional[int]) -> None:
        if spill is not None:
            self.emit("sw k0, %d(sp)" % spill)

    # ----- prologue / body / epilogue -----

    def run(self) -> List[str]:
        function = self.function
        self.emit_label(function.name)
        self.provenance = None
        if self.frame_size:
            self.emit("addi sp, sp, %d" % -self.frame_size)
        if self.ra_offset >= 0:
            self.emit("sw ra, %d(sp)" % self.ra_offset)
        self.provenance = "callee-save"
        for register, offset in self.save_offsets.items():
            self.emit("sw %s, %d(sp)" % (register, offset))
        self.provenance = None

        epilogue = "%s__epilogue" % function.name
        for index, block in enumerate(function.blocks):
            if index:
                self.emit_label(block.label)
            for instr in block.instrs:
                self.provenance = instr.provenance
                self.instr(instr)
            self.provenance = (block.terminator.provenance
                               if block.terminator else None)
            next_label = (function.blocks[index + 1].label
                          if index + 1 < len(function.blocks) else epilogue)
            self.terminator(block.terminator, next_label, epilogue)
        self.provenance = None

        self.emit_label(epilogue)
        self.provenance = "callee-save"
        for register, offset in self.save_offsets.items():
            self.emit("lw %s, %d(sp)" % (register, offset))
        self.provenance = None
        if self.ra_offset >= 0:
            self.emit("lw ra, %d(sp)" % self.ra_offset)
        if self.frame_size:
            self.emit("addi sp, sp, %d" % self.frame_size)
        self.emit("ret")
        return self.lines

    # ----- instructions -----

    def instr(self, instr: ir.IRInstr) -> None:
        handler = _INSTR_HANDLERS.get(type(instr))
        if handler is None:  # pragma: no cover
            raise CompileError("unhandled IR instruction %r" % instr)
        handler(self, instr)

    def _const(self, instr: ir.Const) -> None:
        register, spill = self.dest(instr.dst)
        self.emit_li(register, instr.value)
        self.write_back(spill)

    def _move(self, instr: ir.Move) -> None:
        register, spill = self.dest(instr.dst)
        if isinstance(instr.src, int):
            self.emit_li(register, instr.src)
        else:
            source = self.read(instr.src, "k1")
            if source != register:
                self.emit("move %s, %s" % (register, source))
        self.write_back(spill)

    def _global_addr(self, instr: ir.GlobalAddr) -> None:
        register, spill = self.dest(instr.dst)
        self.emit("addi %s, gp, %d" % (register, self.gp_offset(instr.name)))
        self.write_back(spill)

    def _frame_addr(self, instr: ir.FrameAddr) -> None:
        register, spill = self.dest(instr.dst)
        self.emit("addi %s, sp, %d" %
                  (register, self.array_offsets[instr.slot]))
        self.write_back(spill)

    def _load(self, instr: ir.Load) -> None:
        base = self.read(instr.base, "k1")
        register, spill = self.dest(instr.dst)
        address = self.memory_operand(instr.offset, base)
        self.emit("lw %s, %s" % (register, address))
        self.write_back(spill)

    def _store(self, instr: ir.Store) -> None:
        value = self.read(instr.src, "k0")
        base = self.read(instr.base, "k1")
        address = self.memory_operand(instr.offset, base)
        self.emit("sw %s, %s" % (value, address))

    def _load_global(self, instr: ir.LoadGlobal) -> None:
        register, spill = self.dest(instr.dst)
        self.emit("lw %s, %d(gp)" % (register, self.gp_offset(instr.name)))
        self.write_back(spill)

    def _store_global(self, instr: ir.StoreGlobal) -> None:
        value = self.read(instr.src, "k0")
        self.emit("sw %s, %d(gp)" % (value, self.gp_offset(instr.name)))

    def _param(self, instr: ir.Param) -> None:
        register, spill = self.dest(instr.dst)
        self.emit("move %s, a%d" % (register, instr.index))
        self.write_back(spill)

    def _print(self, instr: ir.Print) -> None:
        value = self.read(instr.value, "k0")
        self.emit("move a0, %s" % value)
        self.emit("li v0, 1")
        self.emit("syscall")

    def _binop(self, instr: ir.BinOp) -> None:
        op = instr.op
        if op in ("==", "!=", "<=", ">", ">="):
            self._comparison(instr)
            return
        register, spill = self.dest(instr.dst)
        b = instr.b
        immediate_form = _IMMEDIATE_FORMS.get(op)
        if isinstance(b, int) and immediate_form is not None and \
                self._immediate_ok(op, b):
            a = self.read(instr.a, "k1")
            self.emit("%s %s, %s, %d" % (immediate_form, register, a, b))
            self.write_back(spill)
            return
        if op == "-" and isinstance(b, int) and -b >= _IMM_MIN and \
                -b <= _IMM_MAX:
            a = self.read(instr.a, "k1")
            self.emit("addi %s, %s, %d" % (register, a, -b))
            self.write_back(spill)
            return
        a = self.read(instr.a, "k1")
        b_register = self.read(b, "at")
        self.emit("%s %s, %s, %s" % (_REGISTER_FORMS[op], register, a,
                                     b_register))
        self.write_back(spill)

    @staticmethod
    def _immediate_ok(op: str, value: int) -> bool:
        if op in ("&", "|", "^"):
            return 0 <= value <= 0xFFFF
        if op in ("<<", ">>"):
            return 0 <= value <= 31
        return _IMM_MIN <= value <= _IMM_MAX

    def _comparison(self, instr: ir.BinOp) -> None:
        register, spill = self.dest(instr.dst)
        a = self.read(instr.a, "k1")
        b = self.read(instr.b, "at")
        if instr.op == "==":
            self.emit("xor %s, %s, %s" % (register, a, b))
            self.emit("sltiu %s, %s, 1" % (register, register))
        elif instr.op == "!=":
            self.emit("xor %s, %s, %s" % (register, a, b))
            self.emit("sltu %s, zero, %s" % (register, register))
        elif instr.op == ">":
            self.emit("slt %s, %s, %s" % (register, b, a))
        elif instr.op == "<=":
            self.emit("slt %s, %s, %s" % (register, b, a))
            self.emit("xori %s, %s, 1" % (register, register))
        else:  # ">="
            self.emit("slt %s, %s, %s" % (register, a, b))
            self.emit("xori %s, %s, 1" % (register, register))
        self.write_back(spill)

    def _unop(self, instr: ir.UnOp) -> None:
        register, spill = self.dest(instr.dst)
        a = self.read(instr.a, "k1")
        if instr.op == "-":
            self.emit("sub %s, zero, %s" % (register, a))
        elif instr.op == "!":
            self.emit("sltiu %s, %s, 1" % (register, a))
        else:  # '~'
            self.emit("nor %s, %s, zero" % (register, a))
        self.write_back(spill)

    def _call(self, instr: ir.Call) -> None:
        if len(instr.args) > 4:
            raise CompileError("more than 4 call arguments")
        for index, argument in enumerate(instr.args):
            value = self.read(argument, "k0")
            self.emit("move a%d, %s" % (index, value))
        self.emit("jal %s" % instr.name)
        if instr.dst is not None:
            register, spill = self.dest(instr.dst)
            self.emit("move %s, v0" % register)
            self.write_back(spill)

    # ----- terminators -----

    def terminator(self, terminator: Optional[ir.Terminator],
                   next_label: Optional[str], epilogue: str) -> None:
        if terminator is None:  # pragma: no cover - lowering always sets
            raise CompileError("block without terminator in %s" %
                               self.function.name)
        if isinstance(terminator, ir.Jump):
            if terminator.target != next_label:
                self.emit("j %s" % terminator.target)
            return
        if isinstance(terminator, ir.Ret):
            if terminator.value is not None:
                if isinstance(terminator.value, int):
                    self.emit_li("v0", terminator.value)
                else:
                    value = self.read(terminator.value, "k0")
                    self.emit("move v0, %s" % value)
            if next_label != epilogue:
                self.emit("j %s" % epilogue)
            return
        assert isinstance(terminator, ir.CondBr)
        mnemonic, swap = _BRANCH_OPS[terminator.op]
        a = self.read(terminator.a, "k1")
        b = self.read(terminator.b, "at")
        if swap:
            a, b = b, a
        if terminator.if_true == next_label:
            # Branch on the inverse condition to the false target; the
            # operand order (including any swap) is already final, so
            # inverting the mnemonic alone negates the condition.
            self.emit("%s %s, %s, %s" % (_INVERTED[mnemonic], a, b,
                                         terminator.if_false))
        elif terminator.if_false == next_label:
            self.emit("%s %s, %s, %s" % (mnemonic, a, b,
                                         terminator.if_true))
        else:
            self.emit("%s %s, %s, %s" % (mnemonic, a, b,
                                         terminator.if_true))
            self.emit("j %s" % terminator.if_false)


#: branch mnemonic -> mnemonic for the negated condition
_INVERTED = {
    "beq": "bne",
    "bne": "beq",
    "blt": "bge",
    "bge": "blt",
}

#: IR instruction class -> the method generating its code
_INSTR_HANDLERS = {
    ir.Const: _FunctionCodegen._const,
    ir.Move: _FunctionCodegen._move,
    ir.BinOp: _FunctionCodegen._binop,
    ir.UnOp: _FunctionCodegen._unop,
    ir.GlobalAddr: _FunctionCodegen._global_addr,
    ir.FrameAddr: _FunctionCodegen._frame_addr,
    ir.Load: _FunctionCodegen._load,
    ir.Store: _FunctionCodegen._store,
    ir.LoadGlobal: _FunctionCodegen._load_global,
    ir.StoreGlobal: _FunctionCodegen._store_global,
    ir.Param: _FunctionCodegen._param,
    ir.Call: _FunctionCodegen._call,
    ir.Print: _FunctionCodegen._print,
}


def generate_module(module: ir.IRModule) -> str:
    """Generate complete assembly text for *module*.

    Layout: a ``_start`` stub (call ``main``, halt), every function,
    then the data segment with all globals.
    """
    layout = _GlobalLayout(module)
    lines: List[str] = [
        "# generated by repro.lang",
        "_start:",
        "    jal main",
        "    halt",
        "",
    ]
    for function in module.functions:
        lines.extend(_FunctionCodegen(function, layout).run())
        lines.append("")

    lines.append(".data")
    for name, (size, init) in module.globals.items():
        if init:
            values = list(init) + [0] * (size - len(init))
            lines.append("%s: .word %s" %
                         (name, ", ".join(str(_word(v)) for v in values)))
        else:
            lines.append("%s: .space %d" % (name, 4 * size))
    lines.append("")
    return "\n".join(lines)
