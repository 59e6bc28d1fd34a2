"""Stage code salts cover the code each stage runs (docs/harness.md).

A stage key hashes the sources of the subpackages that
``cachedir.STAGE_CODE`` lists for the stage: its code salt.  A
subpackage that the stage's code imports but the salt leaves out can
change without changing the key, and a warm cache then serves results
of the old code.  These tests read the modules of every salted
subpackage with ``ast`` and check that each ``repro`` subpackage they
import is salted by the stage itself, by a stage its key chains
through, or named with its reason in :data:`ALLOWED`.
"""

import ast
import os

import pytest

import repro
from repro.harness.cachedir import STAGE_CODE

#: stage -> the stages whose keys its key hashes in (through
#: ``compile_key`` or ``trace_key``), and whose salts therefore
#: cover it too
CHAINED = {
    "compile": (),
    "trace": ("compile",),
    "analysis": ("trace", "compile"),
    "paths": ("trace", "compile"),
    "timing": ("trace", "compile"),
}

#: stage -> {imported subpackage: why leaving it out of the salt is
#: safe}
ALLOWED = {
    "trace": {
        # Trace derives decoded columns lazily through the kernels; the
        # stage stores only pcs/taken/addrs and the program output.
        "kernels": "derived trace columns only",
        # Only workloads/__main__.py, the deadness-summary command,
        # imports it; no stage runs that module.
        "analysis": "command-line summary only",
    },
    # The kernels record pass timings for telemetry; results never
    # depend on it.
    "analysis": {"obs": "pass timing telemetry"},
    # As above, and evaluate_predictor feeds telemetry probes, which
    # the stored PathInfo does not depend on.
    "paths": {"obs": "telemetry only"},
    # Observed simulations carry a timeline; their keys add
    # obs.timing_fingerprint().
    "timing": {"obs": "keyed by obs.timing_fingerprint()"},
}

ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _sources(subpackage):
    """The ``.py`` files a salt of *subpackage* hashes."""
    path = os.path.join(ROOT, *subpackage.split("."))
    if not os.path.isdir(path):
        return [path + ".py"]
    return sorted(os.path.join(dirpath, name)
                  for dirpath, _dirnames, names in os.walk(path)
                  for name in names if name.endswith(".py"))


def _imported_subpackages(path):
    """Top-level ``repro`` subpackage -> first line importing it."""
    with open(path) as stream:
        tree = ast.parse(stream.read(), path)
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module:
            if node.module == "repro":
                modules = ["repro." + alias.name for alias in node.names]
            else:
                modules = [node.module]
        else:
            continue
        for module in modules:
            parts = module.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                found.setdefault(parts[1], node.lineno)
    return found


def _salted(stage):
    names = set(STAGE_CODE[stage])
    for parent in CHAINED[stage]:
        names.update(STAGE_CODE[parent])
    return names


def test_every_stage_is_checked():
    assert set(CHAINED) == set(STAGE_CODE)
    assert set(ALLOWED) <= set(STAGE_CODE)


@pytest.mark.parametrize("stage", sorted(STAGE_CODE))
def test_stage_salt_covers_its_imports(stage):
    salted = _salted(stage)
    allowed = ALLOWED.get(stage, {})
    missing = []
    used_allowances = set()
    for subpackage in STAGE_CODE[stage]:
        for path in _sources(subpackage):
            for name, line in _imported_subpackages(path).items():
                if name in salted:
                    continue
                if name in allowed:
                    used_allowances.add(name)
                    continue
                missing.append("%s:%d imports repro.%s" % (
                    os.path.relpath(path, ROOT), line, name))
    assert not missing, "stage %r salts %s but:\n%s" % (
        stage, sorted(STAGE_CODE[stage]), "\n".join(missing))
    # An allowance nothing needs any more only hides the next gap.
    assert set(allowed) == used_allowances
