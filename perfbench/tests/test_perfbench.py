"""Tests of the benchmark itself: seeded inputs, output checks, failure
counting and the runner's process use.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
import statistics
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from gridsec import attacks, estimation, fixtures, network  # noqa: E402


@pytest.fixture(scope="module")
def model():
    return network.build_ieee14()


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def test_sweep_inputs_follow_the_seed(model):
    fixture = fixtures.sweep_baseline_measurements(model).z
    assert np.array_equal(workloads.sweep_baseline(0, model).z, fixture)
    one = workloads.sweep_baseline(1, model).z
    assert np.array_equal(one, workloads.sweep_baseline(1, model).z)
    assert not np.array_equal(one, fixture)
    assert not np.array_equal(one, workloads.sweep_baseline(2, model).z)


def _pairs_text(pairs):
    out = []
    for kind, base, attacked in pairs:
        other = attacked.to_json() if isinstance(attacked, attacks.AttackVector) else attacked.to_csv()
        out.append((kind, base.to_csv(), other))
    return out


def test_detect_inputs_follow_the_seed(model):
    first = _pairs_text(workloads.detect_pairs(3, model))
    assert first == _pairs_text(workloads.detect_pairs(3, model))
    assert first != _pairs_text(workloads.detect_pairs(4, model))
    kinds = [k for k, _, _ in first]
    for kind, (count, _, _) in workloads.DETECT_POOL.items():
        assert kinds.count(kind) == count


def _sets_key(sets):
    return [(s["point"], s["injected"], s["bands"], tuple(s["measurements"].z)) for s in sets]


def test_bdd_inputs_follow_the_seed(model):
    first = workloads.bdd_sets(3, model)
    assert _sets_key(first) == _sets_key(workloads.bdd_sets(3, model))
    assert _sets_key(first) != _sets_key(workloads.bdd_sets(4, model))
    counts = [len(s["injected"]) for s in first]
    assert counts.count(0) == counts.count(1) == counts.count(2)
    assert sum(s["point"] in workloads.ISLANDED_POINTS for s in first) == 2 * workloads.BDD_SETS_PER_POINT
    assert {len(s["measurements"]) for s in first} >= {114, 122}


def test_cli_inputs_follow_the_seed(model):
    def key(seed):
        ms, attack_seed = workloads.cli_seeded(seed, model)
        return estimation.measurements_to_csv(ms), attack_seed

    assert key(3) == key(3)
    assert key(3) != key(4)


# ---------------------------------------------------------------------------
# Output checks reject corrupted results
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle(model):
    return workloads.SweepOracle(model, workloads.sweep_baseline(0, model))


def _reference_range(bus):
    ref = workloads.load_sweep_reference()[bus]
    orig = fixtures.TABLE4_ORIGINAL_V[bus - 1]
    if ref["empty"]:
        return attacks.StealthRange(bus, None, None, None, orig, True,
                                    "undetected span lies outside the NERC band")
    return attacks.StealthRange(bus, ref["start"], ref["end"], ref["end"] - ref["start"], orig, False)


def test_sweep_check_accepts_the_recorded_ranges(oracle):
    for bus in (1, 2, 9):
        assert oracle.check(_reference_range(bus))


def test_sweep_check_rejects_a_shifted_endpoint(oracle):
    step = oracle.grid[1] - oracle.grid[0]
    good = _reference_range(2)
    for start, end in ((good.start, good.end + step), (good.start, good.end - step),
                       (good.start - step, good.end), (good.start + step, good.end)):
        assert not oracle.check(replace(good, start=start, end=end, width=end - start))
    # A range clipped at the band edge must not be reported unclipped.
    clipped = _reference_range(9)
    last_in_band = float(oracle.grid[np.flatnonzero(oracle.in_band)[-1]])
    assert not oracle.check(replace(clipped, end=last_in_band, width=last_in_band - clipped.start))
    # An empty range where the reference has one, and the other way round.
    assert not oracle.check(replace(good, start=None, end=None, width=None, empty=True,
                                    note="undetected span lies outside the NERC band"))
    assert not workloads.same_range(
        workloads._range_doc(replace(good, end=good.end + step)),
        workloads.load_sweep_reference()[2],
    )


def _detect_op(model, kind):
    from gridsec import detection, scenarios

    stats = detection.fit_baseline(
        [oc.record.snapshot() for oc in scenarios.generate_all(model) if oc.record is not None]
    )
    inputs = workloads.generate_detect(5, {"model": model, "stats": stats})
    return next(op for op in inputs.ops if op.kind == kind)


def test_detect_check_rejects_a_flipped_verdict(model):
    from gridsec.detection import VerdictClass

    op = _detect_op(model, "breaker-flip/post-se")
    report = op.call()
    assert op.judge(report) == (True, True)
    flipped = replace(report, verdict=replace(report.verdict, klass=VerdictClass.NORMAL))
    correct, matched = op.judge(flipped)
    assert not correct and not matched


def _bdd_op(model, want_errors):
    inputs = workloads.generate_bdd(6, {"model": model})
    return next(op for op in inputs.ops if op.kind == f"errors{want_errors}")


def test_bdd_check_rejects_a_wrong_removed_index(model):
    op = _bdd_op(model, 1)
    threshold, result, removed = op.call()
    correct, matched = op.judge((threshold, result, removed))
    assert correct
    wrong = [(removed[0] + 1) % len(result.measurements)] if removed else [0]
    assert op.judge((threshold, result, wrong))[1] is False
    assert op.judge((threshold, result, removed + removed))[0] is False
    assert op.judge((result.j_value - 1.0, result, removed))[0] is False


def test_cli_text_check():
    ref = "chi2 = 24.9957901 vs threshold 25 -> passed\n"
    assert workloads.same_text(ref, "chi2 = 24.9957901000001 vs threshold 25 -> passed\n")
    assert not workloads.same_text(ref, "chi2 = 24.9957902 vs threshold 25 -> passed\n")
    assert not workloads.same_text(ref, "chi2 = 24.9957901 vs threshold 25 -> BAD DATA\n")


def test_cli_check_rejects_a_changed_output(model, tmp_path):
    inputs = workloads.generate_cli(2, {"work": tmp_path})
    op = next(op for op in inputs.ops if op.kind == "chi2")
    ref = json.loads((workloads.REFS / "cli.json").read_text())["chi2"]
    good = workloads.CliResult(ref["returncode"], ref["stdout"], {})
    assert op.judge(good) == (True, True)
    assert op.judge(replace(good, stdout="25.000000\n")) == (False, False)
    assert op.judge(replace(good, returncode=1)) == (False, False)


# ---------------------------------------------------------------------------
# Failures are counted, never raised
# ---------------------------------------------------------------------------

def test_failures_are_counted_not_raised():
    def boom():
        raise RuntimeError("diverged")

    def bad_judge(out):
        raise KeyError("missing field")

    ops = [
        workloads.Op("raises", boom, lambda out: (True, True)),
        workloads.Op("bad-check", lambda: 1, bad_judge),
        workloads.Op("wrong", lambda: 1, lambda out: (False, False)),
        workloads.Op("fine", lambda: 1, lambda out: (True, True)),
    ]
    walls, outcomes = run.run_for(ops, 0.0)
    summary = run.summarize(outcomes)
    assert summary["attempted"] == 4 * len(walls)
    assert summary["failed"] == 3 * len(walls)
    assert summary["ok"] == len(walls)
    assert summary["matched"] == len(walls)
    assert not summary["correct"]


def test_only_an_expected_exception_keeps_the_run_correct():
    def boom():
        raise RuntimeError("diverged")

    expected = workloads.Op("known", boom, lambda out: (True, True), expected_errors=(RuntimeError,))
    unexpected = workloads.Op("unknown", boom, lambda out: (True, True), expected_errors=(KeyError,))
    _, outcomes = run.run_unit([expected])
    assert not outcomes[0].ok and not outcomes[0].failed
    assert run.summarize(outcomes)["correct"]
    _, outcomes = run.run_unit([expected, unexpected])
    assert [o.failed for o in outcomes] == [False, True]
    assert not any(o.ok for o in outcomes) and not run.summarize(outcomes)["correct"]


def test_islanded_bdd_set_fails_without_raising(model):
    inputs = workloads.generate_bdd(6, {"model": model})
    islanded = [op for op in inputs.ops if op.kind.endswith("/islanded")][:2]
    _, outcomes = run.run_unit(islanded)
    assert all(not o.ok and not o.failed
               and o.error.split(":")[0] in ("EstimationError", "ObservabilityError")
               for o in outcomes)
    assert run.summarize(outcomes)["correct"]


def test_latency_is_cpu_time_at_reference_speed():
    def busy():
        t_end = time.process_time() + 0.05
        while time.process_time() < t_end:
            pass

    ops = [
        workloads.Op("sleep", lambda: time.sleep(0.05), lambda out: (True, True)),
        workloads.Op("busy", busy, lambda out: (True, True)),
    ]
    _, (sleep, spin) = run.run_unit(ops)
    assert sleep.wall_s >= 0.05 and sleep.cpu_s < 0.01 and run.latency(sleep) < 0.01
    assert spin.wall_s >= 0.05 and spin.cpu_s == pytest.approx(0.05, rel=0.2)
    cal = run.calibration()
    kernel = statistics.median(k for t, k in cal.samples if t >= spin.start - run.CALIB_WINDOW_S)
    assert run.latency(spin) == pytest.approx(spin.cpu_s / kernel * run.CALIB_NOMINAL_S)


# ---------------------------------------------------------------------------
# Load from one process, at most nproc workers
# ---------------------------------------------------------------------------

class _CountingPopen(subprocess.Popen):
    live = 0
    peak = 0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        type(self).live += 1
        type(self).peak = max(type(self).peak, type(self).live)

    def __exit__(self, *exc):
        try:
            return super().__exit__(*exc)
        finally:
            type(self).live -= 1


def test_runner_uses_one_process_and_at_most_nproc_workers(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(subprocess, "Popen", _CountingPopen)
    threads_before = threading.active_count()
    assert run.main(["--workload", "detect", "--seed", "1", "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["attempted"] >= 1
    inputs = workloads.generate_cli(1, {"work": tmp_path})
    run.run_unit(inputs.ops[:2])
    assert 1 <= _CountingPopen.peak <= (os.cpu_count() or 1)
    assert _CountingPopen.live == 0
    assert threading.active_count() == threads_before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_tracer_self_time_and_restore():
    spans = [
        tracer.Span("a.f", 0.0, 10.0, -1),
        tracer.Span("b.g", 1.0, 4.0, 0),
        tracer.Span("b.g", 5.0, 6.0, 0),
        tracer.Span("c.h", 2.0, 3.0, 1),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    from gridsec import estimation as est, attacks as att

    original = est.wls_estimate_ac
    with tracer.Tracer() as t:
        assert att.wls_estimate_ac is not original
        est.chi_square_threshold(15)
    assert att.wls_estimate_ac is original and est.wls_estimate_ac is original
    assert [s.name for s in t.spans] == ["stats.chi_square_threshold"]
    with t:  # installed again, the spans accumulate
        assert att.wls_estimate_ac is not original
        est.chi_square_threshold(15)
    assert att.wls_estimate_ac is original
    assert len(t.spans) == 2
