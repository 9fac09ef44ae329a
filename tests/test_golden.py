"""Each command of ``tests/golden/regen.py`` writes, byte for byte, what
its golden file holds: exit code, stdout, stderr and the ``--json``
report. Regenerate the files with ``python tests/golden/regen.py`` only
when an output is meant to change."""

import importlib.util
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.COMMANDS))
def test_command_writes_its_golden_output(name):
    assert regen.run(regen.COMMANDS[name]) == (GOLDEN / f"{name}.txt").read_text()


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(regen.COMMANDS)
