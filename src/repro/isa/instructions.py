"""Opcode and instruction definitions.

Every architectural property the rest of the system needs — which
operands an opcode reads and writes, whether it is a branch, a load, a
store, whether it has side effects beyond its register result — lives in
the :data:`OPCODE_INFO` table here.  The emulator, the dead-instruction
analysis, the predictors, and the timing simulator all consult this
table rather than hard-coding opcode lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional, Tuple


class Format(IntEnum):
    """Binary encoding format (see :mod:`repro.isa.encoding`)."""

    R = 0  # op | ra | rb | rc | unused
    I = 1  # op | ra | rb | imm16
    J = 2  # op | imm26


class Opcode(IntEnum):
    """All opcodes of the repro ISA."""

    # R-format ALU, rd <- rs1 OP rs2.
    ADD = 0
    SUB = 1
    AND = 2
    OR = 3
    XOR = 4
    NOR = 5
    SLLV = 6
    SRLV = 7
    SRAV = 8
    SLT = 9
    SLTU = 10
    MUL = 11
    MULH = 12
    DIV = 13
    REM = 14

    # I-format ALU, rd <- rs1 OP imm.
    ADDI = 15
    ANDI = 16
    ORI = 17
    XORI = 18
    SLTI = 19
    SLTIU = 20
    SLLI = 21
    SRLI = 22
    SRAI = 23
    LUI = 24  # rd <- imm << 16

    # Memory.  Loads: rd <- mem[rs1 + imm].  Stores: mem[rs1 + imm] <- rs2.
    LW = 25
    LB = 26
    LBU = 27
    SW = 28
    SB = 29

    # Control.  Branches compare rs1 and rs2; the byte offset imm is
    # relative to the *next* instruction (pc + 4).
    BEQ = 30
    BNE = 31
    BLT = 32
    BGE = 33
    BLTU = 34
    BGEU = 35

    # Jumps.  J/JAL take an absolute word address (imm26 * 4).  JALR
    # jumps to rs1 and writes the return address to rd.
    J = 36
    JAL = 37  # writes ra
    JALR = 38

    # Miscellaneous.
    NOP = 39
    HALT = 40
    SYSCALL = 41  # selector in v0, argument in a0


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata for one opcode."""

    mnemonic: str
    format: Format
    writes_rd: bool = False
    reads_rs1: bool = False
    reads_rs2: bool = False
    is_branch: bool = False
    is_jump: bool = False
    is_load: bool = False
    is_store: bool = False
    is_system: bool = False
    # True when the instruction has an effect beyond writing rd: it can
    # never be dynamically dead (branches, stores, jumps, syscalls, halt).
    has_side_effect: bool = False
    # Logical immediates (andi/ori/xori) and lui are zero-extended,
    # everything else sign-extends its 16-bit immediate.
    zero_ext_imm: bool = False

    @property
    def is_control(self) -> bool:
        """True for any instruction that can redirect fetch."""
        return self.is_branch or self.is_jump


def _alu_r(mnemonic: str) -> OpcodeInfo:
    return OpcodeInfo(mnemonic, Format.R, writes_rd=True, reads_rs1=True,
                      reads_rs2=True)


def _alu_i(mnemonic: str) -> OpcodeInfo:
    return OpcodeInfo(mnemonic, Format.I, writes_rd=True, reads_rs1=True)


def _branch(mnemonic: str) -> OpcodeInfo:
    return OpcodeInfo(mnemonic, Format.I, reads_rs1=True, reads_rs2=True,
                      is_branch=True, has_side_effect=True)


OPCODE_INFO: Tuple[OpcodeInfo, ...] = (
    _alu_r("add"), _alu_r("sub"), _alu_r("and"), _alu_r("or"),
    _alu_r("xor"), _alu_r("nor"), _alu_r("sllv"), _alu_r("srlv"),
    _alu_r("srav"), _alu_r("slt"), _alu_r("sltu"), _alu_r("mul"),
    _alu_r("mulh"), _alu_r("div"), _alu_r("rem"),
    _alu_i("addi"),
    OpcodeInfo("andi", Format.I, writes_rd=True, reads_rs1=True,
               zero_ext_imm=True),
    OpcodeInfo("ori", Format.I, writes_rd=True, reads_rs1=True,
               zero_ext_imm=True),
    OpcodeInfo("xori", Format.I, writes_rd=True, reads_rs1=True,
               zero_ext_imm=True),
    _alu_i("slti"), _alu_i("sltiu"), _alu_i("slli"), _alu_i("srli"),
    _alu_i("srai"),
    OpcodeInfo("lui", Format.I, writes_rd=True, zero_ext_imm=True),
    OpcodeInfo("lw", Format.I, writes_rd=True, reads_rs1=True, is_load=True),
    OpcodeInfo("lb", Format.I, writes_rd=True, reads_rs1=True, is_load=True),
    OpcodeInfo("lbu", Format.I, writes_rd=True, reads_rs1=True, is_load=True),
    OpcodeInfo("sw", Format.I, reads_rs1=True, reads_rs2=True, is_store=True,
               has_side_effect=True),
    OpcodeInfo("sb", Format.I, reads_rs1=True, reads_rs2=True, is_store=True,
               has_side_effect=True),
    _branch("beq"), _branch("bne"), _branch("blt"), _branch("bge"),
    _branch("bltu"), _branch("bgeu"),
    OpcodeInfo("j", Format.J, is_jump=True, has_side_effect=True),
    OpcodeInfo("jal", Format.J, writes_rd=True, is_jump=True,
               has_side_effect=True),
    OpcodeInfo("jalr", Format.R, writes_rd=True, reads_rs1=True,
               is_jump=True, has_side_effect=True),
    OpcodeInfo("nop", Format.R),
    OpcodeInfo("halt", Format.R, is_system=True, has_side_effect=True),
    OpcodeInfo("syscall", Format.R, is_system=True, has_side_effect=True),
)

assert len(OPCODE_INFO) == len(Opcode)


@dataclass
class Instruction:
    """One decoded (or assembled) instruction.

    ``rd``/``rs1``/``rs2`` are architectural register numbers; fields an
    opcode does not use are left at 0 and ignored.  ``imm`` is the
    sign-interpreted immediate.  ``pc`` is the byte address assigned at
    assembly time.  ``provenance`` is an optional compiler tag (e.g.
    ``"sched"`` for speculatively hoisted instructions, ``"callee-save"``
    for register spill/restore code) used by the characterization
    experiments; it is metadata and does not affect execution.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    pc: int = -1
    provenance: Optional[str] = None
    source_line: int = -1

    @property
    def info(self) -> OpcodeInfo:
        return OPCODE_INFO[self.opcode]

    @property
    def dest(self) -> Optional[int]:
        """Architectural destination register, or None.

        Writes to the hardwired zero register are not destinations: they
        produce no architecturally visible value.
        """
        if self.info.writes_rd and self.rd != 0:
            return self.rd
        return None

    @property
    def sources(self) -> Tuple[int, ...]:
        """Architectural source registers actually read (zero included)."""
        info = self.info
        if info.reads_rs1 and info.reads_rs2:
            return (self.rs1, self.rs2)
        if info.reads_rs1:
            return (self.rs1,)
        if info.reads_rs2:
            return (self.rs2,)
        return ()

    def __str__(self) -> str:  # pragma: no cover - convenience only
        from repro.isa.disassembler import disassemble

        return disassemble(self)


# JAL's destination is fixed: it always writes the return address to ra.
JAL_LINK_REGISTER = 1
