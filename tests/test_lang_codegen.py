"""Code generation: frame discipline, provenance, addressing."""

import pytest

from repro.isa import assemble
from repro.lang import (
    CompileError,
    CompilerOptions,
    compile_source,
    compile_to_program,
)

CALLS = """
int helper(int x) { return x * 3; }
int worker(int a) {
  int keep = a + 1;
  int r1 = helper(keep);
  int r2 = helper(r1);
  return keep + r1 + r2;
}
void main() { print(worker(2)); }
"""


def test_output_assembles():
    text = compile_source(CALLS)
    program = assemble(text)
    assert len(program.instructions) > 20


def test_callee_save_tagged():
    text = compile_source(CALLS)
    lines = text.splitlines()
    saves = [line for line in lines if "@callee-save" in line]
    # Saves in the prologue (sw) and restores in the epilogue (lw).
    assert any("sw s" in line for line in saves)
    assert any("lw s" in line for line in saves)


def test_frame_balanced():
    """Every 'addi sp, sp, -N' has a matching '+N' before ret."""
    text = compile_source(CALLS)
    adjust = 0
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("addi sp, sp, "):
            adjust += int(line.split(",")[-1].split("@")[0])
    assert adjust == 0


def test_ra_saved_in_nonleaf_only():
    text = compile_source(CALLS)
    blocks = text.split("\n\n")
    for block in blocks:
        if block.startswith("helper:"):
            assert "sw ra" not in block  # leaf
        if block.startswith("worker:"):
            assert "sw ra" in block      # calls helper twice


def test_globals_are_gp_relative():
    text = compile_source("""
int counter;
void main() {
  counter = counter + 1;
  print(counter);
}
""")
    assert "lw" in text and "(gp)" in text
    assert "sw" in text


def test_global_array_layout():
    text = compile_source("""
int first[2] = {1, 2};
int second = 7;
void main() { print(first[1] + second); }
""")
    assert "first: .word 1, 2" in text
    assert "second: .word 7" in text or "second: .space 4" in text


def test_uninitialized_global_uses_space():
    text = compile_source("int buffer[16];\nvoid main() {}")
    assert "buffer: .space 64" in text


def test_sched_provenance_survives_to_asm():
    text = compile_source("""
int n = 10;
void main() {
  int i;
  int x = 0;
  for (i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) { x = x + i; } else { x = x - 1; }
  }
  print(x);
}
""", CompilerOptions(opt_level=2))
    assert "@sched" in text
    program = assemble(text)
    assert "sched" in program.provenance.values()


def test_o0_has_no_sched_tags(mini_c_source):
    text = compile_source(mini_c_source, CompilerOptions(opt_level=0))
    assert "@sched" not in text


def test_start_stub():
    text = compile_source("void main() {}")
    assert text.splitlines()[1] == "_start:"
    assert "jal main" in text
    assert "halt" in text


def test_immediate_folding_in_codegen():
    text = compile_source("""
int g;
void main() { g = g + 5; print(g << 2); }
""")
    assert "addi" in text
    assert "slli" in text


def test_comparison_materialization_runs():
    from repro.emulator import run_program

    program = compile_to_program("""
void main() {
  int a = 5;
  int b = 9;
  int c = (a <= b) + (a == 5) * 10 + (b != 9) * 100 + (a >= 6) * 1000;
  print(c);
}
""")
    machine, _ = run_program(program)
    assert machine.output == [11]


def _encoded_output(source):
    """Run *source*, checking that every instruction it compiles to
    fits the binary encoding."""
    from repro.emulator import run_program
    from repro.isa import encode

    program = compile_to_program(source)
    for instruction in program.instructions:
        encode(instruction)
    machine, _ = run_program(program)
    return machine.output


def test_constants_wider_than_32_bits_keep_their_low_bits():
    # The machine's wrapping arithmetic keeps the low 32 bits; so does
    # the code generator, since the assembler rejects wider values.
    assert _encoded_output("""
int g = 4294967297;
void main() { print(g); print(65536 * 65536 + 5); }
""") == [1, 5]


def test_constant_index_beyond_16_bit_offsets():
    assert _encoded_output("""
int big[20000];
void main() { big[10000] = 7; big[3] = 4; print(big[10000] + big[3]); }
""") == [11]


@pytest.mark.parametrize("source", [
    "void main() { int buffer[9000]; buffer[0] = 1; print(buffer[0]); }",
    "int pad[9000]; int late; void main() { late = 1; print(late); }",
], ids=["frame", "data-segment"])
def test_offsets_beyond_addressing_range_are_compile_errors(source):
    with pytest.raises(CompileError):
        compile_source(source)
