"""The benchmark tracer (``perfbench/tracer.py``) wraps the functions named
in its ``TARGETS`` table and reads ``iterations`` and ``converged`` off each
``wls_estimate_ac`` result. A renamed or deleted target crashes
``perfbench/run.py --trace 1``, so every entry must still resolve. The table
is read from the file's source without importing it. The same holds for the
fields the ``detect`` and ``bdd`` workloads' judges (``perfbench/workloads.py``)
read off each verdict, report and removal result."""

import ast
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def judge_reads(generator: str, var: str) -> tuple[set[str], set[str]]:
    """The attributes read off the name ``var`` and the constant subscripts
    of the judge in ``workloads.<generator>``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    funcs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    generate = next(n for n in funcs if n.name == generator)
    judge = next(n for n in ast.walk(generate) if isinstance(n, ast.FunctionDef) and n.name == "judge")
    nodes = list(ast.walk(judge))
    fields = {n.attr for n in nodes if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == var}
    keys = {n.slice.value for n in nodes if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)}
    return fields, keys


def test_detect_verdict_keeps_the_judged_fields(ieee14):
    from gridsec import fixtures as fx
    from gridsec.detection import DetectionVerdict
    from gridsec.pipeline import run_pipeline

    fields, keys = judge_reads("generate_detect", "v")
    assert fields == {"klass", "bdd_chi2", "bdd_threshold"} and keys == {"class"}
    assert fields <= {f.name for f in dataclasses.fields(DetectionVerdict)}
    report = run_pipeline(fx.post_se_baseline_record(), fx.scenario_2a_record(), ieee14)
    v = report.verdict
    assert report.report["class"] == v.klass.value
    assert (v.klass.value == "BadData") == (v.bdd_chi2 > v.bdd_threshold)


def test_removal_result_keeps_the_judged_fields(ieee14):
    """The ``bdd`` judge reads ``j_value`` and ``measurements`` off each
    ``iterative_bad_data_removal`` result, and counts the kept channels
    with the removed ones; a result without either field fails the run."""
    from gridsec.estimation import EstimationResult, full_telemetry_from_state, iterative_bad_data_removal
    from gridsec.powerflow import solve
    from gridsec.stats import chi_square_threshold

    fields, _ = judge_reads("generate_bdd", "result")
    assert fields == {"j_value", "measurements"}
    assert fields <= {f.name for f in dataclasses.fields(EstimationResult)}
    sol = solve(ieee14)
    ms = full_telemetry_from_state(ieee14, sol.v, sol.theta, noise_rng=np.random.default_rng(5))
    ms = ms.replaced(20, ms.entries[20].value + 0.8)
    threshold = chi_square_threshold(len(ms) - (2 * ieee14.n_bus - 1))
    result, removed = iterative_bad_data_removal(ieee14, ms, threshold)
    assert removed == [20]
    assert result.j_value <= threshold and len(result.measurements) + len(removed) == len(ms)


def test_one_verdict_enters_each_traced_detect_layer_once(ieee14, monkeypatch):
    """perfbench's per-layer detect figures come from the tracer's spans on
    ``detection.rule_battery``, ``detection.analyze_record_islands`` and
    ``GridRecord.snapshot``. The tracer rebinds every ``gridsec`` module
    attribute that holds a target function, and a method on its class, so
    the spies here do the same: one ``run_pipeline`` verdict, stored
    chi-square or re-estimated, enters the first two once each and the
    snapshot once per record. A refactor that reaches that work another
    way would make a traced run read 0 for it."""
    import sys

    from gridsec import fixtures as fx
    from gridsec.attacks import build_scenario_1a
    from gridsec.pipeline import run_pipeline

    targets = [("gridsec.detection", "rule_battery"), ("gridsec.detection", "analyze_record_islands"),
               ("gridsec.records", "GridRecord.snapshot")]
    assert set(targets) <= set(tracer_targets())
    calls = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attr in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            monkeypatch.setattr(cls, meth, spy(meth, cls.__dict__[meth]))
            continue
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is not None and name.split(".")[0] == "gridsec":
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, spy(attr, original))

    baseline_1a, _ = fx.scenario_1a_records()
    for baseline, snapshot in ((fx.post_se_baseline_record(), fx.scenario_2a_record()),
                               (baseline_1a, build_scenario_1a())):
        calls.clear()
        run_pipeline(baseline, snapshot, ieee14)
        assert sorted(calls) == ["analyze_record_islands", "rule_battery", "snapshot", "snapshot"]
