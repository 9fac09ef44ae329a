"""The benchmark tracer (``perfbench/tracer.py``) wraps the functions named
in its ``TARGETS`` table and reads ``iterations`` and ``converged`` off each
``wls_estimate_ac`` result. A renamed or deleted target crashes
``perfbench/run.py --trace 1``, so every entry must still resolve. The table
is read from the file's source without importing it."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> list[tuple[str, str]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return list(ast.literal_eval(node.value))
    raise AssertionError(f"no TARGETS table in {TRACER}")


@pytest.mark.parametrize("module, attr", tracer_targets())
def test_tracer_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_estimation_result_keeps_the_traced_fields():
    from gridsec.estimation import EstimationResult

    assert {"iterations", "converged"} <= {f.name for f in dataclasses.fields(EstimationResult)}
