"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see the lines live).
"""

import itertools
import time

import numpy as np
import pytest

from gridsec import fixtures as fx
from gridsec.attacks import (
    build_scenario_1a,
    build_scenario_1b,
    stealth_from_state_delta,
    sweep_stealth_range,
)
from gridsec.detection import Rule, Severity, VerdictClass
from gridsec.estimation import (
    full_telemetry_from_state,
    iterative_bad_data_removal,
    measurements_from_state,
    wls_estimate_ac,
    wls_estimate_dc,
    build_dc_jacobian,
)
from gridsec.pipeline import run_pipeline
from gridsec.powerflow import solve
from gridsec.som import (
    GridArrangement,
    diff_against_reference,
    generate_constraints,
    solve_arrangement,
    verify_arrangement,
)
from gridsec.stats import PAPER_CHI2_THRESHOLD, PAPER_PROFILE, chi_square_threshold

SWEEP_STEP = 0.15 / 299


def criterion(number: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_stealth_blindness(ieee14):
    """100 random state deltas on the DC model: residuals and chi-square
    invariant to 1e-10, estimate shifts by exactly c, under 5 seconds."""
    start = time.time()
    h, labels = build_dc_jacobian(ieee14)
    rng = np.random.default_rng(2025)
    sig = np.full(h.shape[0], 0.02)
    x = rng.normal(0.0, 0.1, h.shape[1])
    z = h @ x + rng.normal(0.0, 0.02, h.shape[0])
    clean = wls_estimate_dc(h, z, sig)
    worst_r = worst_j = worst_shift = 0.0
    for _ in range(100):
        c = rng.normal(0.0, 0.05, h.shape[1])
        vector = stealth_from_state_delta(h, c, labels)
        attacked = wls_estimate_dc(h, z + vector.deltas, sig)
        worst_r = max(worst_r, float(np.max(np.abs(attacked.residuals - clean.residuals))))
        worst_j = max(
            worst_j, abs(attacked.j_value - clean.j_value) / max(clean.j_value, 1e-30)
        )
        worst_shift = max(
            worst_shift, float(np.max(np.abs(attacked.x_hat - (clean.x_hat + c))))
        )
    elapsed = time.time() - start
    ok = worst_r < 1e-10 and worst_j < 1e-10 and worst_shift < 1e-10 and elapsed < 5.0
    criterion(
        1,
        ok,
        f"max residual dev {worst_r:.2e}, max rel chi2 dev {worst_j:.2e}, "
        f"max estimate-shift dev {worst_shift:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_stealth_range_sweep(ieee14):
    """Table-4 fixture sweep: empty/non-empty pattern, 1.05 clipping, bus-2
    width within one sweep step of 0.00982, under 60 seconds for 14 buses."""
    start = time.time()
    baseline = fx.sweep_baseline_measurements(ieee14)
    ranges = {}
    for bus in range(1, 15):
        ranges[bus], _ = sweep_stealth_range(ieee14, baseline, bus, n_points=300)
    elapsed = time.time() - start

    empties = {bus for bus, r in ranges.items() if r.empty}
    ok_empty = empties == {1, 6, 7, 8}
    ok_clip = all(ranges[bus].end == 1.05 for bus in (9, 10, 11, 12, 13))
    width2 = ranges[2].width
    ok_width = abs(width2 - 0.00982) <= SWEEP_STEP
    ok = ok_empty and ok_clip and ok_width and elapsed < 60.0
    criterion(
        2,
        ok,
        f"empty buses {sorted(empties)}, ends@1.05 for 9-13: {ok_clip}, "
        f"bus-2 width {width2:.6f} (target 0.00982 +/- {SWEEP_STEP:.6f}), {elapsed:.1f}s",
    )


def test_criterion_3_scenario_vectors():
    """Regenerated 1A/1B vectors equal the published components; net power
    changes hit 0.25 - 7 x 0.0357 and 0.04 exactly."""
    v1a = build_scenario_1a()
    named = v1a.nonzero()
    expected_1a = {
        "V3": 0.08, "P3": 0.15, "V6": -0.06, "P9": 0.10, "V11": 0.05,
        **{f"P{b}": -0.0357 for b in (2, 4, 5, 10, 12, 13, 14)},
    }
    ok_1a = named == pytest.approx(expected_1a, abs=0.0)
    net_1a = v1a.net_power_change
    ok_net_1a = net_1a == pytest.approx(0.25 - 7 * 0.0357, abs=1e-15)

    v1b = build_scenario_1b()
    expected_1b = {
        "V2": 0.09, "P2": 0.15, "V4": -0.07, "P4": -0.13,
        "V6": 0.08, "P9": 0.12, "V11": -0.06, "P13": -0.10,
    }
    ok_1b = v1b.nonzero() == pytest.approx(expected_1b, abs=0.0)
    net_1b = v1b.net_power_change
    ok_net_1b = net_1b == pytest.approx(0.04, abs=1e-15)

    ok = ok_1a and ok_net_1a and ok_1b and ok_net_1b
    criterion(
        3,
        ok,
        f"1A components {'ok' if ok_1a else 'WRONG'} net {net_1a:.6f}; "
        f"1B components {'ok' if ok_1b else 'WRONG'} net {net_1b:.6f}",
    )


def test_criterion_4_rule_battery_on_stealth_fixtures(ieee14):
    """1A fires SensitivityBound (1.875), CompensationEntropy and
    GradientCoherence (~0.045 > 0.020); 1B fires RampRate (+69.3%) and
    ZipViolation (-76%); both classify StealthAttack under a clean
    chi-square test at the compat threshold 89.5."""
    base_a, att_a = fx.scenario_1a_records()
    rep_a = run_pipeline(base_a, att_a, ieee14, profile=PAPER_PROFILE)
    viol_a = [f for f in rep_a.verdict.findings if f.severity is Severity.VIOLATION]
    sens = [f for f in viol_a if f.rule is Rule.SENSITIVITY_BOUND]
    ok_sens = bool(sens) and abs(sens[0].data["ratio"] - 1.875) < 1e-9
    ok_sens = ok_sens and not (0.77 <= sens[0].data["ratio"] <= 1.07)
    ok_entropy = any(f.rule is Rule.COMPENSATION_ENTROPY for f in viol_a)
    grads = [f for f in viol_a if f.rule is Rule.GRADIENT_COHERENCE
             and f.data["bus_from"] == 2]
    ok_grad = bool(grads) and abs(grads[0].data["gradient"] - 0.045) < 1e-3
    ok_grad = ok_grad and grads[0].data["gradient"] > 0.020
    ok_class_a = (
        rep_a.verdict.klass is VerdictClass.STEALTH_ATTACK
        and rep_a.verdict.bdd_chi2 == 42.8
        and not rep_a.report["bdd"]["flagged"]
        and rep_a.report["bdd"]["threshold"] == PAPER_CHI2_THRESHOLD
    )

    base_b, att_b = fx.scenario_1b_records()
    rep_b = run_pipeline(base_b, att_b, ieee14, profile=PAPER_PROFILE)
    viol_b = [f for f in rep_b.verdict.findings if f.severity is Severity.VIOLATION]
    ramps = [f for f in viol_b if f.rule is Rule.RAMP_RATE and f.data["bus"] == 2]
    ok_ramp = bool(ramps) and abs(ramps[0].data["pct"] - 69.3) < 0.1
    zips = [f for f in viol_b if f.rule is Rule.ZIP_VIOLATION and f.data["bus"] == 13]
    ok_zip = bool(zips) and abs(zips[0].data["dp_pct"] - (-76.0)) < 0.1
    ok_class_b = (
        rep_b.verdict.klass is VerdictClass.STEALTH_ATTACK
        and rep_b.verdict.bdd_chi2 == 67.3
        and not rep_b.report["bdd"]["flagged"]
    )

    ok = ok_sens and ok_entropy and ok_grad and ok_class_a and ok_ramp and ok_zip and ok_class_b
    criterion(
        4,
        ok,
        f"1A: sens {sens[0].data['ratio']:.3f}, entropy {ok_entropy}, "
        f"grad {grads[0].data['gradient']:.4f}, class {rep_a.verdict.klass.value}; "
        f"1B: ramp {ramps[0].data['pct']:.1f}%, zip {zips[0].data['dp_pct']:.1f}%, "
        f"class {rep_b.verdict.klass.value}",
    )


def test_criterion_5_post_se_detection(ieee14):
    """2A: FdiPostSe with sign flips exactly {4, 9, 13} and +/-90.8 MW
    totals; 2D: OpenBreakerFlow citing 56.1 MW on 2-4; 2B: SystemStress at
    loss ratio 1.94; 2C: IslandingValid."""
    base = fx.post_se_baseline_record()

    rep_2a = run_pipeline(base, fx.scenario_2a_record(), ieee14, profile=PAPER_PROFILE)
    flips = sorted(
        f.data["bus"] for f in rep_2a.verdict.findings if f.rule is Rule.SIGN_FLIP
    )
    t = rep_2a.report["totals"]
    dgen = t["generation_after_mw"] - t["generation_before_mw"]
    dload = t["load_after_mw"] - t["load_before_mw"]
    ok_2a = (
        rep_2a.verdict.klass is VerdictClass.FDI_POST_SE
        and flips == [4, 9, 13]
        and abs(dgen - 90.8) <= 0.05
        and abs(dload + 90.8) <= 0.05
    )

    rep_2d = run_pipeline(base, fx.scenario_2d_record(), ieee14, profile=PAPER_PROFILE)
    open_hits = [f for f in rep_2d.verdict.findings if f.rule is Rule.OPEN_BREAKER_FLOW]
    ok_2d = (
        rep_2d.verdict.klass is VerdictClass.FDI_POST_SE
        and len(open_hits) == 1
        and (open_hits[0].data["from"], open_hits[0].data["to"]) == (2, 4)
        and abs(open_hits[0].data["p_mw"] - 56.1) < 1e-9
    )

    rep_2b = run_pipeline(base, fx.scenario_2b_record(), ieee14, profile=PAPER_PROFILE)
    loss_hits = [f for f in rep_2b.verdict.findings if f.rule is Rule.LOSS_SURGE]
    ratio = loss_hits[0].data["ratio"] if loss_hits else float("nan")
    ok_2b = (
        rep_2b.verdict.klass is VerdictClass.SYSTEM_STRESS
        and abs(ratio - 1.94) <= 0.01
    )

    rep_2c = run_pipeline(base, fx.scenario_2c_record(), ieee14, profile=PAPER_PROFILE)
    ok_2c = rep_2c.verdict.klass is VerdictClass.ISLANDING_VALID

    ok = ok_2a and ok_2d and ok_2b and ok_2c
    criterion(
        5,
        ok,
        f"2A {rep_2a.verdict.klass.value} flips {flips} dGen {dgen:+.2f} dLoad {dload:+.2f}; "
        f"2D {rep_2d.verdict.klass.value} {open_hits[0].data['p_mw']} MW on 2-4; "
        f"2B {rep_2b.verdict.klass.value} ratio {ratio:.4f}; 2C {rep_2c.verdict.klass.value}",
    )


def test_criterion_6_chi_square_threshold():
    """Threshold function matches the oracle table at 1e-3 relative for
    df in {1, 2, 10, 71}; the compat constant 89.5 stays a constant, not a
    silently matched quantile."""
    oracle = {1: 3.8415, 2: 5.9915, 10: 18.3070, 71: 91.6702}
    devs = {}
    for df, ref in oracle.items():
        ours = chi_square_threshold(df, 0.05)
        devs[df] = abs(ours - ref) / ref
    ok_table = all(d < 1e-3 for d in devs.values())
    exact_71 = chi_square_threshold(71, 0.05)
    ok_compat = PAPER_CHI2_THRESHOLD == 89.5 and abs(exact_71 - 89.5) > 1.0
    ok = ok_table and ok_compat
    criterion(
        6,
        ok,
        f"df=71 computed {exact_71:.4f} (compat constant 89.5 kept distinct); "
        f"max rel dev {max(devs.values()):.2e}",
    )


def test_criterion_7_som_arrangement():
    """The solver finds exactly the reference 3x3 grid for the 9-segment
    fixture, and matches brute force on 1000 random 2x2 instances within
    10 seconds."""
    start = time.time()
    segs = fx.som_reference_segments()
    cons = generate_constraints(segs)
    solutions = solve_arrangement(segs, cons, 3)
    ref_cells = fx.som_reference_arrangement_cells()
    contains_ref = any(s.cells == ref_cells for s in solutions)
    unique = len(solutions) == 1
    row_structure = (
        solutions[0].cells[0][0] == "seg7"  # the bus-12 segment, top-left
        and solutions[0].cells[2][0] == "seg5"  # the bus-2 segment, bottom-left
        and solutions[0].cells[2][2] == "seg9"  # the bus-3 segment, bottom-right
    )

    from tests.test_som import _random_instance

    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(1000):
        rsegs, rcons = _random_instance(rng, n=2)
        got = {s.flat() for s in solve_arrangement(rsegs, rcons, 2)}
        ids = sorted(s.id for s in rsegs)
        expected = set()
        for perm in itertools.permutations(ids):
            arr = GridArrangement(((perm[0], perm[1]), (perm[2], perm[3])))
            if verify_arrangement(arr, rsegs, rcons)[0]:
                expected.add(perm)
        if got != expected:
            mismatches += 1
    elapsed = time.time() - start
    ok = contains_ref and unique and row_structure and mismatches == 0 and elapsed < 10.0
    criterion(
        7,
        ok,
        f"reference grid found: {contains_ref}, unique: {unique}, "
        f"brute-force mismatches {mismatches}/1000, {elapsed:.1f}s",
    )


def test_criterion_8_som_diff():
    """3B yields exactly one violation naming CB6_13; 3C exactly one
    voltage deviation at bus 2 (1.02 vs 1.04, ~2%); self-diff is empty."""
    ref = fx.som_reference_segments()

    d3b = diff_against_reference(ref, fx.som_scenario_3b_segments())
    v3b = [f for f in d3b if f.severity is Severity.VIOLATION]
    ok_3b = len(v3b) == 1 and v3b[0].data.get("breaker") == "CB6_13"

    d3c = diff_against_reference(ref, fx.som_scenario_3c_segments())
    v3c = [f for f in d3c if f.severity is Severity.VIOLATION]
    ok_3c = (
        len(v3c) == 1
        and v3c[0].rule is Rule.VOLTAGE_DEVIATION
        and v3c[0].data["bus"] == 2
        and v3c[0].data["observed"] == 1.02
        and v3c[0].data["reference"] == 1.04
        and abs(v3c[0].data["pct"] - 2.0) < 0.15
    )

    ok_self = diff_against_reference(ref, ref) == []
    ok = ok_3b and ok_3c and ok_self
    criterion(
        8,
        ok,
        f"3B violations {[f.data.get('breaker') for f in v3b]}; "
        f"3C deviation bus {v3c[0].data['bus']} {v3c[0].data['pct']:.2f}%; "
        f"self-diff empty: {ok_self}",
    )


def test_criterion_9_estimation_properties(ieee14):
    """Noiseless round-trip within 1e-6 p.u.; DC normal-equation
    orthogonality within 1e-10; removal isolates a planted gross error in
    at least 99 of 100 seeded trials."""
    sol = solve(ieee14)
    ms = measurements_from_state(ieee14, sol.v, sol.theta)
    result = wls_estimate_ac(ieee14, ms, delta=1e-9)
    rt_dev = max(
        float(np.max(np.abs(result.x_hat.v - sol.v))),
        float(np.max(np.abs(result.x_hat.theta - sol.theta))),
    )
    ok_roundtrip = rt_dev < 1e-6

    # Unit covariance: at realistic weights (1/0.02^2 = 2500) merely
    # evaluating H' R^-1 r rounds at the 1e-10 level, swamping the check.
    h, _ = build_dc_jacobian(ieee14)
    rng = np.random.default_rng(55)
    sig = np.ones(h.shape[0])
    worst_orth = 0.0
    for _ in range(20):
        z = h @ rng.normal(0, 0.1, h.shape[1]) + rng.normal(0, 0.02, h.shape[0])
        est = wls_estimate_dc(h, z, sig)
        worst_orth = max(worst_orth, float(np.max(np.abs(h.T @ (est.residuals / sig**2)))))
    ok_orth = worst_orth < 1e-10

    m_len = len(full_telemetry_from_state(ieee14, sol.v, sol.theta))
    tau = chi_square_threshold(m_len - 27, 0.05)
    hits = 0
    for k in range(100):
        trial_rng = np.random.default_rng(1000 + k)
        telemetry = full_telemetry_from_state(
            ieee14, sol.v, sol.theta, noise_rng=trial_rng
        )
        idx = int(trial_rng.integers(0, m_len))
        bad = telemetry.replaced(idx, telemetry.entries[idx].value + 0.5)
        _, removed = iterative_bad_data_removal(ieee14, bad, tau)
        if removed == [idx]:
            hits += 1
    ok_removal = hits >= 99

    ok = ok_roundtrip and ok_orth and ok_removal
    criterion(
        9,
        ok,
        f"round-trip dev {rt_dev:.2e}, orthogonality {worst_orth:.2e}, "
        f"gross-error isolation {hits}/100",
    )
