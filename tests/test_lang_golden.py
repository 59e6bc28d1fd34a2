"""The compiler front end's output, pinned byte for byte.

``results/frontend-golden.json`` holds, for every (workload, compiler
options) pair the canonical experiment set compiles and for the nine
generated programs the end-to-end benchmark's ``gen-compile`` workload
runs at seed 1, the SHA-256 of the assembly text and of the assembled
``Program``: every instruction field, the data words, the symbols in
order, the entry point and the name.  A change that only makes the
lexer, parser, code generator or assembler faster must leave every
digest unchanged.

Regenerate the record only with a change that alters compiler output
on purpose, and say so in CHANGES.md::

    PYTHONPATH=src python tests/test_lang_golden.py
"""

import hashlib
import json
import os

import pytest

from repro.isa.assembler import assemble
from repro.lang import CompilerOptions, compile_source
from repro.workloads.suite import get_workload, workload_names

GOLDEN = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "results", "frontend-golden.json")
SCALE = 1.0

#: the option sets a canonical pass compiles every curated workload with
#: (default, F3's -O0, A4's hoist limits 0/2/8, A5's scalar passes)
CANONICAL_OPTIONS = (
    CompilerOptions(),
    CompilerOptions(opt_level=0),
    CompilerOptions(opt_level=0, max_hoist=1),
    CompilerOptions(max_hoist=2),
    CompilerOptions(max_hoist=8),
    CompilerOptions(scalar_opt=True),
)

#: benchmarks/e2e/run.py gen_programs(1)
GEN_PROGRAMS = (
    "gen:s1001:n100:b20:d30:p95", "gen:s1053:n100:b20:d30:p85",
    "gen:s1081:n100:b20:d30:p50", "gen:s1125:n100:b40:d30:p95",
    "gen:s1131:n100:b40:d30:p85", "gen:s1178:n100:b40:d30:p50",
    "gen:s1204:n100:b60:d30:p95", "gen:s1254:n100:b60:d30:p85",
    "gen:s1263:n100:b60:d30:p50",
)


def _pairs():
    for name in workload_names():
        for options in CANONICAL_OPTIONS:
            yield name, options
    for name in GEN_PROGRAMS:
        yield name, CompilerOptions()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def digest(name, options):
    """``{"asm": sha256, "program": sha256}`` of one compiled pair."""
    asm = compile_source(get_workload(name).source(SCALE), options)
    program = assemble(asm, name=name)
    fields = {
        "instructions": [
            [int(i.opcode), i.rd, i.rs1, i.rs2, i.imm, i.pc, i.provenance,
             i.source_line] for i in program.instructions],
        "data": list(program.data.items()),
        "symbols": list(program.symbols.items()),
        "entry": program.entry,
        "name": program.name,
    }
    return {"asm": _sha256(asm),
            "program": _sha256(json.dumps(fields, sort_keys=True))}


def _key(name, options):
    return "%s %s" % (name, options.to_key())


def record():
    return {_key(name, options): digest(name, options)
            for name, options in _pairs()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as stream:
        return json.load(stream)


def test_record_covers_every_pair(golden):
    assert sorted(golden) == sorted(_key(n, o) for n, o in _pairs())


@pytest.mark.parametrize("name", list(workload_names()) + list(GEN_PROGRAMS))
def test_output_matches_golden(golden, name):
    for pair_name, options in _pairs():
        if pair_name == name:
            key = _key(name, options)
            assert digest(name, options) == golden[key], key


if __name__ == "__main__":
    with open(GOLDEN, "w") as stream:
        json.dump(record(), stream, indent=1, sort_keys=True)
        stream.write("\n")
    print("wrote %s" % GOLDEN)
