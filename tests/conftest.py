"""Shared fixtures for the test suite, and the hang watchdog."""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from repro.analysis import analyze_deadness
from repro.emulator import run_program
from repro.isa import assemble
from repro.lang import CompilerOptions, compile_to_program


#: A test that runs this long, set-up and teardown included, is taken
#: to hang: every thread's stack is printed and the run exits with
#: status 1 instead of blocking.  The slowest test takes about 13 s on
#: a 2-vCPU host.
HANG_TIMEOUT_S = 300

#: a copy of the original stderr: test output, fd 2 included, is
#: captured while a test runs
_HANG_REPORT_FD = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[_HANG_REPORT_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_HANG_REPORT_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        HANG_TIMEOUT_S, exit=True, file=item.config.stash[_HANG_REPORT_FD])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def _no_leaking_faults():
    """Fault injection is process-global state; never let one test's
    plan bleed into the next."""
    from repro.harness import faults

    faults.reset_faults()
    yield
    faults.reset_faults()


@pytest.fixture
def simple_loop_program():
    """Sum 1..10, print 55, with a data word for good measure."""
    return assemble("""
_start:
    jal main
    halt
main:
    li   t0, 0
    li   t1, 1
    li   t2, 11
loop:
    beq  t1, t2, done
    add  t0, t0, t1
    addi t1, t1, 1
    j    loop
done:
    move a0, t0
    li   v0, 1
    syscall
    ret

.data
value: .word 42
""", name="simple-loop")


@pytest.fixture
def simple_loop_trace(simple_loop_program):
    machine, trace = run_program(simple_loop_program)
    assert machine.output == [55]
    return trace


MINI_C_FIXTURE = """
int data[8] = {3, 1, 4, 1, 5, 9, 2, 6};
int n = 8;

int sum_over(int threshold) {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    if (data[i] > threshold) {
      acc = acc + data[i];
    } else {
      acc = acc - 1;
    }
  }
  return acc;
}

void main() {
  print(sum_over(2));
  print(sum_over(8));
}
"""


@pytest.fixture
def mini_c_source():
    return MINI_C_FIXTURE


@pytest.fixture
def compiled_mini_c():
    return compile_to_program(MINI_C_FIXTURE, CompilerOptions(opt_level=2))


@pytest.fixture
def analyzed_mini_c(compiled_mini_c):
    machine, trace = run_program(compiled_mini_c)
    return machine, trace, analyze_deadness(trace)
