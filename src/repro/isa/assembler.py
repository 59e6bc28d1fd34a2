"""Two-pass assembler for the repro ISA.

Syntax, one statement per line::

    # full-line comment
    label:                      # labels may share a line with code
        addi  sp, sp, -16
        lw    t0, 4(sp)
        beq   t0, zero, done
        add   t1, t0, t2  @sched   # '@tag' records compiler provenance
    table:
        .word 1, 2, 3, next     # labels allowed in .word
        .space 64               # n zero bytes

Directives: ``.text``, ``.data``, ``.word``, ``.space``, ``.globl``
(ignored).  Pseudo-instructions (expanded during assembly):

=================  =================================================
``nop``            no-operation
``move rd, rs``    ``add rd, rs, zero`` (alias ``mv``)
``li rd, imm``     ``addi`` when imm fits 16 bits, else ``lui + ori``
``la rd, label``   always ``lui + ori`` (fixed two-instruction size)
``not rd, rs``     ``nor rd, rs, zero``
``neg rd, rs``     ``sub rd, zero, rs``
``beqz/bnez``      compare against ``zero``
``bgt/ble``        operand-swapped ``blt``/``bge``
``sll/srl/sra``    resolve to register or immediate shift by operand
``call label``     ``jal label``
``ret``            ``jalr zero, ra``
=================  =================================================

A provenance tag on a pseudo-instruction is applied to every
instruction of its expansion.

Every value must fit the field that holds it (:mod:`repro.isa.encoding`):
a sign-extended immediate or memory offset 16 bits signed, a
zero-extended one (``andi``/``ori``/``xori``/``lui``) 16 bits unsigned,
a branch offset 16 bits signed, a jump target a word-aligned address
below 2**28, and a ``li``/``la``/``.word`` value 32 bits, signed or
unsigned.
Anything else is an :class:`AssemblyError`, never a silent truncation.

Pass 1 splits each line once into a statement and sizes it; pass 2
looks up each mnemonic's handler in one table (:data:`_HANDLERS`) and
emits its instructions.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.encoding import IMM16_MAX, IMM16_MIN, IMM26_MAX
from repro.isa.instructions import (
    Format,
    Instruction,
    JAL_LINK_REGISTER,
    Opcode,
    OPCODE_INFO,
)
from repro.isa.program import DATA_BASE, Program, TEXT_BASE
from repro.isa.registers import REG_NUMBERS

_MEM_OPERAND = re.compile(r"^(-?\w+)\((\w+)\)$")
_LABEL_DEF = re.compile(r"^([A-Za-z_.$][\w.$]*):")
#: values ``li``, ``la`` and ``.word`` take: 32 bits, signed or unsigned
_WORD_MIN, _WORD_MAX = -(1 << 31), (1 << 32) - 1


class AssemblyError(ValueError):
    """Raised for any malformed assembly input."""

    def __init__(self, message: str, line: int = -1):
        if line >= 0:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


#: one source instruction: (mnemonic, operands, provenance, line)
_Statement = Tuple[str, List[str], Optional[str], int]


def _parse_int(token: str) -> Optional[int]:
    try:
        return int(token, 0)
    except ValueError:
        return None


def _check_word(value: int, what: str, line: int) -> None:
    if not _WORD_MIN <= value <= _WORD_MAX:
        raise AssemblyError(
            "%s out of 32-bit range: %d" % (what, value), line)


def _pseudo_size(mnemonic: str, operands: List[str], line: int) -> int:
    """Instruction count a pseudo (or real) mnemonic expands to."""
    if mnemonic == "la":
        return 2
    if mnemonic == "li":
        if len(operands) != 2:
            raise AssemblyError("li needs 2 operands", line)
        value = _parse_int(operands[1])
        if value is None:
            raise AssemblyError("li needs a literal immediate", line)
        _check_word(value, "li value", line)
        return 1 if IMM16_MIN <= value <= IMM16_MAX else 2
    return 1


class _Assembler:
    def __init__(self, source: str, name: str):
        self.source = source
        self.name = name
        self.symbols: Dict[str, int] = {}
        self.text: List[_Statement] = []
        #: (address, values, line) of each .word, resolved in pass 2
        self.words: List[Tuple[int, List[str], int]] = []
        self.data_words: Dict[int, int] = {}
        self.instructions: List[Instruction] = []
        # Pass 2: the next instruction's address, and the provenance and
        # line of the statement being expanded.
        self.pc = TEXT_BASE
        self.provenance: Optional[str] = None
        self.line = -1

    # ----- pass 1: collect statements, size them, define symbols -----

    def pass1(self) -> None:
        section = "text"
        text_addr = TEXT_BASE
        data_addr = DATA_BASE
        for line_number, raw in enumerate(self.source.splitlines(), 1):
            hash_pos = raw.find("#")  # a comment runs to the line's end
            line = (raw[:hash_pos] if hash_pos >= 0 else raw).strip()
            while ":" in line:
                match = _LABEL_DEF.match(line)
                if not match:
                    break
                label = match.group(1)
                if label in self.symbols:
                    raise AssemblyError(
                        "duplicate label %r" % label, line_number)
                self.symbols[label] = (
                    text_addr if section == "text" else data_addr)
                line = line[match.end():].strip()
            if not line:
                continue

            provenance = None
            at_pos = line.rfind("@")
            if at_pos >= 0:
                provenance = line[at_pos + 1:].strip()
                line = line[:at_pos].strip()
                if not provenance or " " in provenance:
                    raise AssemblyError("malformed @provenance", line_number)
                if not line:
                    raise AssemblyError(
                        "@provenance without an instruction", line_number)

            # The line is stripped, so the text after the mnemonic is
            # too: split(None, 1) drops the whitespace between them.
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            operands = (list(map(str.strip, parts[1].split(",")))
                        if len(parts) > 1 else [])

            if not mnemonic.startswith("."):
                if section != "text":
                    raise AssemblyError(
                        "instruction outside .text", line_number)
                self.text.append((mnemonic, operands, provenance,
                                  line_number))
                text_addr += 4 * _pseudo_size(mnemonic, operands,
                                              line_number)
            elif mnemonic == ".text":
                section = "text"
            elif mnemonic == ".data":
                section = "data"
            elif mnemonic == ".globl":
                pass
            elif mnemonic == ".word":
                if section != "data":
                    raise AssemblyError(".word outside .data", line_number)
                self.words.append((data_addr, operands, line_number))
                data_addr += 4 * max(len(operands), 1)
            elif mnemonic == ".space":
                if section != "data":
                    raise AssemblyError(".space outside .data", line_number)
                if len(operands) != 1:
                    raise AssemblyError(".space needs a size", line_number)
                size = _parse_int(operands[0])
                if size is None or size < 0:
                    raise AssemblyError("bad .space size", line_number)
                data_addr += (size + 3) & ~3
            else:
                raise AssemblyError(
                    "unknown directive %r" % mnemonic, line_number)

    # ----- pass 2: resolve symbols and emit instructions/data -----

    def pass2(self) -> None:
        self.pc = TEXT_BASE
        for mnemonic, operands, provenance, line in self.text:
            form = _HANDLERS.get(mnemonic)
            if form is None:
                raise AssemblyError("unknown mnemonic %r" % mnemonic, line)
            handler, opcode = form
            self.provenance = provenance
            self.line = line
            handler(self, opcode, operands, line)
        for address, values, line in self.words:
            for offset, token in enumerate(values):
                value = self._value(token, line)
                _check_word(value, ".word value", line)
                self.data_words[address + 4 * offset] = value & 0xFFFFFFFF

    def _emit(self, opcode: Opcode, rd: int = 0, rs1: int = 0,
              rs2: int = 0, imm: int = 0) -> None:
        self.instructions.append(Instruction(
            opcode, rd, rs1, rs2, imm, self.pc, self.provenance, self.line))
        self.pc += 4

    def _reg(self, token: str, line: int) -> int:
        number = REG_NUMBERS.get(token)
        if number is None:
            number = REG_NUMBERS.get(token.lower())
            if number is None:
                raise AssemblyError("unknown register %r" % token, line)
        return number

    def _value(self, token: str, line: int) -> int:
        literal = _parse_int(token)
        if literal is not None:
            return literal
        if token in self.symbols:
            return self.symbols[token]
        raise AssemblyError("undefined symbol %r" % token, line)

    def _imm(self, token: str, zero_extended: bool, line: int) -> int:
        """An immediate operand, checked against its 16-bit field."""
        value = self._value(token, line)
        if zero_extended:
            if not 0 <= value <= 0xFFFF:
                raise AssemblyError(
                    "immediate out of unsigned 16-bit range: %d" % value,
                    line)
        elif not IMM16_MIN <= value <= IMM16_MAX:
            raise AssemblyError(
                "immediate out of 16-bit range: %d" % value, line)
        return value

    def _branch_offset(self, token: str, line: int) -> int:
        target = self._value(token, line)
        offset = target - (self.pc + 4)
        if not IMM16_MIN <= offset <= IMM16_MAX:
            raise AssemblyError("branch target out of range", line)
        return offset

    def _jump(self, opcode: Opcode, token: str, line: int) -> None:
        target = self._value(token, line)
        if target & 3:
            raise AssemblyError("jump target not word aligned", line)
        if not 0 <= target >> 2 <= IMM26_MAX:
            raise AssemblyError(
                "jump target out of 26-bit range: %d" % target, line)
        rd = JAL_LINK_REGISTER if opcode == Opcode.JAL else 0
        self._emit(opcode, rd=rd, imm=target >> 2)

    @staticmethod
    def _arity(operands: List[str], expected: int, line: int) -> None:
        if len(operands) != expected:
            raise AssemblyError(
                "expected %d operands, got %d" % (expected, len(operands)),
                line)

    # ----- real instructions, by operand form -----

    def _form_none(self, opcode: Opcode, ops: List[str], line: int) -> None:
        self._arity(ops, 0, line)
        self._emit(opcode)

    def _form_r(self, opcode: Opcode, ops: List[str], line: int) -> None:
        self._arity(ops, 3, line)
        self._emit(opcode, rd=self._reg(ops[0], line),
                   rs1=self._reg(ops[1], line), rs2=self._reg(ops[2], line))

    def _form_i(self, opcode: Opcode, ops: List[str], line: int) -> None:
        self._arity(ops, 3, line)
        self._emit(opcode, rd=self._reg(ops[0], line),
                   rs1=self._reg(ops[1], line),
                   imm=self._imm(ops[2], OPCODE_INFO[opcode].zero_ext_imm,
                                 line))

    def _form_lui(self, opcode: Opcode, ops: List[str], line: int) -> None:
        self._arity(ops, 2, line)
        self._emit(opcode, rd=self._reg(ops[0], line),
                   imm=self._imm(ops[1], True, line))

    def _memory(self, ops: List[str], line: int) -> Tuple[int, int]:
        """``(offset, base)`` of a memory instruction's operands."""
        self._arity(ops, 2, line)
        match = _MEM_OPERAND.match(ops[1].replace(" ", ""))
        if not match:
            raise AssemblyError(
                "expected imm(reg) operand, got %r" % ops[1], line)
        return (self._imm(match.group(1), False, line),
                self._reg(match.group(2), line))

    def _form_load(self, opcode: Opcode, ops: List[str], line: int) -> None:
        offset, base = self._memory(ops, line)
        self._emit(opcode, rd=self._reg(ops[0], line), rs1=base, imm=offset)

    def _form_store(self, opcode: Opcode, ops: List[str], line: int) -> None:
        offset, base = self._memory(ops, line)
        self._emit(opcode, rs2=self._reg(ops[0], line), rs1=base,
                   imm=offset)

    def _form_branch(self, opcode: Opcode, ops: List[str],
                     line: int) -> None:
        self._arity(ops, 3, line)
        self._emit(opcode, rs1=self._reg(ops[0], line),
                   rs2=self._reg(ops[1], line),
                   imm=self._branch_offset(ops[2], line))

    def _form_jump(self, opcode: Opcode, ops: List[str], line: int) -> None:
        self._arity(ops, 1, line)
        self._jump(opcode, ops[0], line)

    def _form_jalr(self, opcode: Opcode, ops: List[str], line: int) -> None:
        if len(ops) not in (1, 2):
            raise AssemblyError("jalr needs 1 or 2 operands", line)
        if len(ops) == 1:
            self._emit(opcode, rd=0, rs1=self._reg(ops[0], line))
        else:
            self._emit(opcode, rd=self._reg(ops[0], line),
                       rs1=self._reg(ops[1], line))

    # ----- pseudo-instructions (the opcode is the one they expand to) --

    def _pseudo_move(self, opcode: Opcode, ops: List[str],
                     line: int) -> None:
        # move rd, rs -> add rd, rs, zero; not rd, rs -> nor rd, rs, zero
        self._arity(ops, 2, line)
        self._emit(opcode, rd=self._reg(ops[0], line),
                   rs1=self._reg(ops[1], line), rs2=0)

    def _pseudo_neg(self, opcode: Opcode, ops: List[str], line: int) -> None:
        self._arity(ops, 2, line)
        self._emit(opcode, rd=self._reg(ops[0], line), rs1=0,
                   rs2=self._reg(ops[1], line))

    def _pseudo_li(self, opcode: Opcode, ops: List[str], line: int) -> None:
        rd = self._reg(ops[0], line)
        value = int(ops[1], 0)  # a literal in range: checked in pass 1
        if IMM16_MIN <= value <= IMM16_MAX:
            self._emit(Opcode.ADDI, rd=rd, rs1=0, imm=value)
            return
        # Always two instructions, the size pass 1 promised.
        unsigned = value & 0xFFFFFFFF
        self._emit(Opcode.LUI, rd=rd, imm=(unsigned >> 16) & 0xFFFF)
        self._emit(Opcode.ORI, rd=rd, rs1=rd, imm=unsigned & 0xFFFF)

    def _pseudo_la(self, opcode: Opcode, ops: List[str], line: int) -> None:
        self._arity(ops, 2, line)
        rd = self._reg(ops[0], line)
        address = self._value(ops[1], line)
        _check_word(address, "la address", line)
        self._emit(Opcode.LUI, rd=rd, imm=(address >> 16) & 0xFFFF)
        self._emit(Opcode.ORI, rd=rd, rs1=rd, imm=address & 0xFFFF)

    def _pseudo_branch_zero(self, opcode: Opcode, ops: List[str],
                            line: int) -> None:
        self._arity(ops, 2, line)
        self._emit(opcode, rs1=self._reg(ops[0], line), rs2=0,
                   imm=self._branch_offset(ops[1], line))

    def _pseudo_branch_swapped(self, opcode: Opcode, ops: List[str],
                               line: int) -> None:
        self._arity(ops, 3, line)
        self._emit(opcode, rs1=self._reg(ops[1], line),
                   rs2=self._reg(ops[0], line),
                   imm=self._branch_offset(ops[2], line))

    def _pseudo_shift(self, opcode: Opcode, ops: List[str],
                      line: int) -> None:
        # opcode is the register form; the immediate form follows the
        # same order (sll/srl/sra -> sllv/srlv/srav or slli/srli/srai).
        self._arity(ops, 3, line)
        rd = self._reg(ops[0], line)
        rs1 = self._reg(ops[1], line)
        if _parse_int(ops[2]) is not None:
            immediate_form = _SHIFT_IMMEDIATE[opcode]
            self._emit(immediate_form, rd=rd, rs1=rs1,
                       imm=self._imm(ops[2], False, line))
            return
        self._emit(opcode, rd=rd, rs1=rs1, rs2=self._reg(ops[2], line))

    def _pseudo_ret(self, opcode: Opcode, ops: List[str], line: int) -> None:
        self._arity(ops, 0, line)
        self._emit(opcode, rd=0, rs1=1)


_SHIFT_IMMEDIATE = {Opcode.SLLV: Opcode.SLLI, Opcode.SRLV: Opcode.SRLI,
                    Opcode.SRAV: Opcode.SRAI}

_Handler = Callable[[_Assembler, Opcode, List[str], int], None]


def _real_form(opcode: Opcode) -> _Handler:
    info = OPCODE_INFO[opcode]
    if opcode in (Opcode.NOP, Opcode.HALT, Opcode.SYSCALL):
        return _Assembler._form_none
    if opcode in (Opcode.J, Opcode.JAL):
        return _Assembler._form_jump
    if opcode == Opcode.JALR:
        return _Assembler._form_jalr
    if opcode == Opcode.LUI:
        return _Assembler._form_lui
    if info.is_load:
        return _Assembler._form_load
    if info.is_store:
        return _Assembler._form_store
    if info.is_branch:
        return _Assembler._form_branch
    if info.format == Format.R:
        return _Assembler._form_r
    return _Assembler._form_i


#: mnemonic -> (handler, opcode): every real instruction, then the
#: pseudo-instructions with the opcode each expands to
_HANDLERS: Dict[str, Tuple[_Handler, Opcode]] = {
    OPCODE_INFO[opcode].mnemonic: (_real_form(opcode), opcode)
    for opcode in Opcode
}
_HANDLERS.update({
    "move": (_Assembler._pseudo_move, Opcode.ADD),
    "mv": (_Assembler._pseudo_move, Opcode.ADD),
    "not": (_Assembler._pseudo_move, Opcode.NOR),
    "neg": (_Assembler._pseudo_neg, Opcode.SUB),
    "li": (_Assembler._pseudo_li, Opcode.ADDI),
    "la": (_Assembler._pseudo_la, Opcode.LUI),
    "beqz": (_Assembler._pseudo_branch_zero, Opcode.BEQ),
    "bnez": (_Assembler._pseudo_branch_zero, Opcode.BNE),
    "bgt": (_Assembler._pseudo_branch_swapped, Opcode.BLT),
    "ble": (_Assembler._pseudo_branch_swapped, Opcode.BGE),
    "sll": (_Assembler._pseudo_shift, Opcode.SLLV),
    "srl": (_Assembler._pseudo_shift, Opcode.SRLV),
    "sra": (_Assembler._pseudo_shift, Opcode.SRAV),
    "call": (_Assembler._form_jump, Opcode.JAL),
    "ret": (_Assembler._pseudo_ret, Opcode.JALR),
})


def assemble(source: str, name: str = "") -> Program:
    """Assemble *source* text into a :class:`~repro.isa.program.Program`.

    Raises :class:`AssemblyError` with a line number on malformed input.
    """
    assembler = _Assembler(source, name)
    assembler.pass1()
    assembler.pass2()
    entry = assembler.symbols.get("_start", TEXT_BASE)
    return Program(
        instructions=assembler.instructions,
        data=assembler.data_words,
        symbols=dict(assembler.symbols),
        entry=entry,
        name=name,
    )
