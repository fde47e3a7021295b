"""The benchmark's output gate, run in-process on every default-seed command.

perfbench/workloads.py lists the benchmark's commands and perfbench/gate.py
checks each command's exit code and parsed output against its stored
reference entry (perfbench/reference.json.gz).  Running the same commands
through cli.run here makes a change that would fail the benchmark's gate
fail the test suite first.  Nothing under perfbench/ is modified.

The commands whose bytes do not depend on numpy's BLAS (all but tw,
critical and report) are also held to the sha256 of their stdout in
tests/fixtures/stdout_sha256.json, so a refactor of the render or the
evaluators must keep every byte, not only the values the gate compares.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from coulombgas import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gate  # noqa: E402
import workloads  # noqa: E402

COMMANDS = [cmd for name in workloads.NAMES
            for cmd in workloads.commands(name)]
GOLDEN = Path(__file__).with_name("fixtures") / "stdout_sha256.json"
STDOUT_SHA256 = json.loads(GOLDEN.read_text())["commands"]


@pytest.fixture(scope="module")
def reference():
    return gate.load_reference()["commands"]


@pytest.mark.parametrize("cmd", COMMANDS, ids=[cmd.id for cmd in COMMANDS])
def test_default_seed_command_passes_gate(cmd, reference, capsys):
    rc = cli.run(list(cmd.argv))
    stdout = capsys.readouterr().out.encode()
    assert gate.check(cmd, rc, stdout, reference.get(cmd.id)) == []
    if cmd.id in STDOUT_SHA256:
        assert hashlib.sha256(stdout).hexdigest() == STDOUT_SHA256[cmd.id]


def test_every_command_has_a_reference(reference):
    assert len(COMMANDS) == 18
    assert {cmd.id for cmd in COMMANDS} <= set(reference)


def test_every_numpy_free_command_has_a_digest():
    free = {cmd.id for cmd in COMMANDS
            if cmd.argv[0] not in {"tw", "critical", "report"}}
    assert len(free) == 14 and set(STDOUT_SHA256) == free
