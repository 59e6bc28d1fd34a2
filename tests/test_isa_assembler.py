"""Assembler: syntax, labels, pseudo-instructions, directives, errors."""

import pytest

from repro.isa import AssemblyError, Opcode, assemble, encode
from repro.isa.program import DATA_BASE


def _ops(source):
    return [i.opcode for i in assemble(source).instructions]


def test_basic_instruction():
    program = assemble("add t0, t1, t2")
    (instr,) = program.instructions
    assert instr.opcode == Opcode.ADD
    assert (instr.rd, instr.rs1, instr.rs2) == (11, 12, 13)
    assert instr.pc == 0


def test_labels_and_branches():
    program = assemble("""
top:
    addi t0, t0, 1
    bne  t0, t1, top
""")
    branch = program.instructions[1]
    # offset is relative to pc+4: target 0, branch at 4 -> -8.
    assert branch.imm == -8
    assert program.symbols["top"] == 0


def test_forward_reference():
    program = assemble("""
    beq zero, zero, done
    nop
done:
    halt
""")
    assert program.instructions[0].imm == 4  # skip one instruction


def test_label_sharing_line():
    program = assemble("here: nop")
    assert program.symbols["here"] == 0


def test_pseudo_li_small():
    program = assemble("li t0, 42")
    (instr,) = program.instructions
    assert instr.opcode == Opcode.ADDI
    assert instr.imm == 42


def test_pseudo_li_large_expands_to_two():
    program = assemble("li t0, 0x12345678")
    first, second = program.instructions
    assert first.opcode == Opcode.LUI and first.imm == 0x1234
    assert second.opcode == Opcode.ORI and second.imm == 0x5678


def test_pseudo_li_negative():
    program = assemble("li t0, -5")
    (instr,) = program.instructions
    assert instr.imm == -5


def test_pseudo_la_always_two_instructions():
    program = assemble("""
    la t0, word
.data
word: .word 7
""")
    assert len(program.instructions) == 2
    assert program.instructions[0].opcode == Opcode.LUI


def test_pseudo_move_not_neg():
    assert _ops("move t0, t1") == [Opcode.ADD]
    assert _ops("not t0, t1") == [Opcode.NOR]
    assert _ops("neg t0, t1") == [Opcode.SUB]


def test_pseudo_branches():
    assert _ops("x: beqz t0, x") == [Opcode.BEQ]
    assert _ops("x: bnez t0, x") == [Opcode.BNE]
    program = assemble("x: bgt t0, t1, x")
    (instr,) = program.instructions
    assert instr.opcode == Opcode.BLT
    assert (instr.rs1, instr.rs2) == (12, 11)  # operands swapped


def test_shift_mnemonics_resolve_by_operand():
    assert _ops("sll t0, t1, 3") == [Opcode.SLLI]
    assert _ops("sll t0, t1, t2") == [Opcode.SLLV]
    assert _ops("sra t0, t1, 31") == [Opcode.SRAI]


def test_call_and_ret():
    program = assemble("""
f:  ret
    call f
""")
    assert program.instructions[0].opcode == Opcode.JALR
    assert program.instructions[0].rd == 0
    assert program.instructions[1].opcode == Opcode.JAL
    assert program.instructions[1].rd == 1


def test_memory_operands():
    program = assemble("""
    lw t0, 8(sp)
    sw t0, -4(gp)
""")
    load, store = program.instructions
    assert (load.rd, load.rs1, load.imm) == (11, 2, 8)
    assert (store.rs2, store.rs1, store.imm) == (11, 3, -4)


def test_data_directives():
    program = assemble("""
    nop
.data
a:  .word 1, 2, 3
b:  .space 8
c:  .word a
""")
    assert program.data[DATA_BASE] == 1
    assert program.data[DATA_BASE + 8] == 3
    assert program.symbols["b"] == DATA_BASE + 12
    assert program.symbols["c"] == DATA_BASE + 20
    assert program.data[DATA_BASE + 20] == DATA_BASE  # label value


def test_provenance_annotation():
    program = assemble("add t0, t1, t2  @sched")
    assert program.instructions[0].provenance == "sched"
    assert program.provenance == {0: "sched"}


def test_provenance_on_pseudo_covers_expansion():
    program = assemble("li t0, 0x123456  @sched")
    assert all(i.provenance == "sched" for i in program.instructions)


def test_comments_ignored():
    program = assemble("""
# full line comment
    nop   # trailing comment
""")
    assert len(program.instructions) == 1


def test_entry_defaults_to_start_symbol():
    program = assemble("""
    nop
_start:
    halt
""")
    assert program.entry == 4


def test_duplicate_label_rejected():
    with pytest.raises(AssemblyError):
        assemble("x: nop\nx: nop")


def test_undefined_symbol_rejected():
    with pytest.raises(AssemblyError):
        assemble("j nowhere")


def test_unknown_mnemonic_rejected():
    with pytest.raises(AssemblyError):
        assemble("frob t0, t1")


def test_wrong_arity_rejected():
    with pytest.raises(AssemblyError):
        assemble("add t0, t1")


def test_word_outside_data_rejected():
    with pytest.raises(AssemblyError):
        assemble(".word 1")


def test_instruction_in_data_rejected():
    with pytest.raises(AssemblyError):
        assemble(".data\nnop")


def test_error_carries_line_number():
    with pytest.raises(AssemblyError) as excinfo:
        assemble("nop\nnop\nbogus t0")
    assert "line 3" in str(excinfo.value)


def test_branch_out_of_range_rejected():
    body = "\n".join(["nop"] * 9000)
    with pytest.raises(AssemblyError):
        assemble("x: nop\n%s\nbeq zero, zero, x" % body)


@pytest.mark.parametrize("line", [
    "addi t0, t0, 70000",
    "addi t0, t0, -32769",
    "lw t0, 40000(sp)",
    "sw t0, -40000(sp)",
    "lui t0, 70000",
    "andi t0, t0, -1",
    "ori t0, t0, 0x10000",
    "sll t0, t0, 40000",
    "li t0, 99999999999",
    "li t0, -2147483649",
    "la t0, 0x100000000",
    "j -4",
    "jal 0x10000000",
])
def test_value_the_encoding_cannot_hold_rejected(line):
    # Each value lies outside the field that would encode it (for
    # li/la, outside 32 bits), so no Program may hold it.
    with pytest.raises(AssemblyError) as excinfo:
        assemble("nop\n    %s" % line)
    assert excinfo.value.line == 2


def test_word_the_data_segment_cannot_hold_rejected():
    with pytest.raises(AssemblyError) as excinfo:
        assemble("nop\n.data\nw: .word 1, 0x100000000")
    assert excinfo.value.line == 3


@pytest.mark.parametrize("line", [
    "addi t0, t0, 32767",
    "addi t0, t0, -32768",
    "lw t0, -32768(sp)",
    "andi t0, t0, 0xFFFF",
    "lui t0, 0xFFFF",
    "li t0, 0xFFFFFFFF",
    "li t0, -2147483648",
    "la t0, 0xFFFFFFFF",
    "jal 0xFFFFFFC",
])
def test_extremes_of_each_field_assemble_and_encode(line):
    for instruction in assemble(line).instructions:
        encode(instruction)
