"""The CLI toolchain: repro-cc, repro-asm, repro-run, repro-dead."""

import pytest

from repro.tools.asm import main as asm_main
from repro.tools.cc import main as cc_main
from repro.tools.dead import main as dead_main
from repro.tools.run import main as run_main

MINI_C = """
int n = 10;
void main() {
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }
  }
  print(acc);
}
"""

ASM = """
_start:
    li a0, 99
    li v0, 1
    syscall
    halt
"""


@pytest.fixture
def mc_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(MINI_C)
    return str(path)


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(ASM)
    return str(path)


class TestCc:
    def test_stdout_assembly(self, mc_file, capsys):
        assert cc_main([mc_file]) == 0
        out = capsys.readouterr().out
        assert "jal main" in out
        assert "@sched" in out  # default -O2 hoists

    def test_o0_has_no_hoisting(self, mc_file, capsys):
        assert cc_main([mc_file, "-O", "0"]) == 0
        assert "@sched" not in capsys.readouterr().out

    def test_write_assembly_file(self, mc_file, tmp_path, capsys):
        out = tmp_path / "prog.s"
        assert cc_main([mc_file, "-o", str(out)]) == 0
        assert "main" in out.read_text()

    def test_write_image(self, mc_file, tmp_path):
        out = tmp_path / "prog.rpo"
        assert cc_main([mc_file, "-o", str(out)]) == 0
        from repro.isa.binary import read_program

        program = read_program(str(out))
        assert len(program.instructions) > 5

    def test_run_flag(self, mc_file, capsys):
        assert cc_main([mc_file, "--run"]) == 0
        out = capsys.readouterr().out
        assert out.strip() == "15"  # 0+2+4+6+8 - 5


class TestAsm:
    def test_listing(self, asm_file, capsys):
        assert asm_main([asm_file, "--list"]) == 0
        out = capsys.readouterr().out
        assert "syscall" in out

    def test_symbols(self, asm_file, capsys):
        assert asm_main([asm_file, "--symbols"]) == 0
        assert "_start" in capsys.readouterr().out

    def test_assemble_to_image_then_disassemble(self, asm_file,
                                                tmp_path, capsys):
        image = tmp_path / "prog.rpo"
        assert asm_main([asm_file, "-o", str(image)]) == 0
        capsys.readouterr()
        assert asm_main([str(image), "--list"]) == 0
        assert "syscall" in capsys.readouterr().out


class TestRun:
    def test_runs_mini_c(self, mc_file, capsys):
        assert run_main([mc_file]) == 0
        assert capsys.readouterr().out.strip() == "15"

    def test_runs_assembly(self, asm_file, capsys):
        assert run_main([asm_file]) == 0
        assert capsys.readouterr().out.strip() == "99"

    def test_dead_flag(self, mc_file, capsys):
        assert run_main([mc_file, "--dead"]) == 0
        captured = capsys.readouterr()
        assert "dead=" in captured.err

    def test_simulation(self, mc_file, capsys):
        assert run_main([mc_file, "--sim", "contended",
                         "--eliminate"]) == 0
        captured = capsys.readouterr()
        assert "contended machine + elimination" in captured.err
        assert "ipc=" in captured.err

    def test_unknown_extension_rejected(self, tmp_path):
        bad = tmp_path / "prog.xyz"
        bad.write_text("")
        with pytest.raises(SystemExit):
            run_main([str(bad)])


class TestDead:
    def test_summary_and_provenance(self, mc_file, capsys):
        assert dead_main([mc_file]) == 0
        out = capsys.readouterr().out
        assert "dead=" in out
        assert "sched" in out

    def test_classes_locality_top(self, mc_file, capsys):
        assert dead_main([mc_file, "--classes", "--locality",
                          "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "static classes" in out
        assert "locality" in out
        assert "top dead-producing" in out


class TestAnnotate:
    def test_annotated_trace(self, mc_file, capsys):
        assert dead_main([mc_file, "--annotate", "12"]) == 0
        out = capsys.readouterr().out
        assert "annotated dynamic trace" in out
        assert "DEAD" in out
        assert "#0" in out


class TestHarnessJson:
    def test_json_dump(self, tmp_path, capsys):
        import json

        from repro.harness.cli import main as harness_main

        target = tmp_path / "results.json"
        assert harness_main(["T1", "--json", str(target), "--cache-dir",
                             str(tmp_path / "cache")]) == 0
        payload = json.loads(target.read_text())
        assert "T1" in payload["experiments"]
        assert payload["experiments"]["T1"]["tables"][0]["rows"]
