import math

import numpy as np
import pytest

from gridsec import fixtures as fx
from gridsec.detection import (
    FEATURE_DIM,
    FEATURE_NAMES,
    CORRELATION,
    DIRECT,
    GRADIENT,
    FeatureVector,
    Finding,
    Rule,
    RuleConfig,
    Severity,
    VerdictClass,
    analyze_record_islands,
    baseline_from_json,
    baseline_to_json,
    classify,
    extract_features,
    fit_baseline,
    rule_battery,
)
from gridsec.estimation import BddVerdict
from gridsec.network import build_ieee14
from gridsec.records import BusRow, BusSnapshot, GridRecord
from gridsec.scenarios import generate_all


@pytest.fixture(scope="module")
def table5_snapshots():
    model = build_ieee14()
    outcomes = generate_all(model)
    snaps = [oc.record.snapshot() for oc in outcomes if oc.record is not None]
    ids = [oc.spec.id for oc in outcomes if oc.record is not None]
    return snaps, ids


def random_snapshot(rng):
    return BusSnapshot(
        v=rng.uniform(0.95, 1.08, 14),
        p=rng.normal(0, 0.5, 14),
        q=rng.normal(0, 0.2, 14),
    )


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------


def test_feature_dimension_and_names():
    assert FEATURE_DIM == 71
    assert len(FEATURE_NAMES) == 71
    assert 42 + 8 + 3 + 5 + 13 == 71


def test_dimension_lock_on_random_snapshots():
    rng = np.random.default_rng(1)
    for _ in range(50):
        fv = extract_features(random_snapshot(rng))
        assert fv.values.shape == (71,)


def test_flat_snapshot():
    snap = BusSnapshot(v=np.ones(14), p=np.zeros(14), q=np.zeros(14))
    fv = extract_features(snap)
    assert np.all(fv.block(GRADIENT) == 0.0)
    named = fv.named()
    assert named["sigma_V"] == 0.0
    assert named["rho_VP"] == 0.0  # degenerate correlation defined as 0
    assert named["P_total"] == 0.0
    assert named["V_stability"] == pytest.approx(0.05)


def test_gradient_block_recomputable_from_direct():
    rng = np.random.default_rng(2)
    for _ in range(20):
        snap = random_snapshot(rng)
        fv = extract_features(snap)
        v = fv.block(DIRECT)[:14]
        assert np.allclose(fv.block(GRADIENT), np.diff(v), atol=0, rtol=0)


def test_correlations_bounded():
    rng = np.random.default_rng(3)
    for _ in range(25):
        fv = extract_features(random_snapshot(rng))
        assert np.all(np.abs(fv.block(CORRELATION)) <= 1.0 + 1e-12)


def test_scenario_1a_gradient_feature():
    _, attacked = fx.scenario_1a_records()
    fv = extract_features(attacked.snapshot())
    named = fv.named()
    assert named["gradV_2_3"] == pytest.approx(0.0456, abs=5e-4)


def test_wrong_bus_count_rejected():
    with pytest.raises(ValueError):
        extract_features(BusSnapshot(v=np.ones(10), p=np.zeros(10), q=np.zeros(10)))


# ---------------------------------------------------------------------------
# Baseline fitting and scoring
# ---------------------------------------------------------------------------


def test_identical_snapshots_degenerate_baseline():
    snap = BusSnapshot(v=np.full(14, 1.02), p=np.linspace(-1, 1, 14), q=np.zeros(14))
    stats = fit_baseline([snap, snap, snap])
    fv = extract_features(snap)
    assert np.allclose(stats.mu, fv.values)
    assert np.allclose(stats.cov_std, stats.lam * np.eye(71))
    assert stats.mahalanobis(fv) == pytest.approx(0.0, abs=1e-9)


def test_duplicate_snapshot_leaves_mean(table5_snapshots):
    snaps, ids = table5_snapshots
    a = fit_baseline(snaps)
    b = fit_baseline(snaps + [snaps[0], snaps[0]])
    # Adding duplicates of a training point shifts the mean only through
    # reweighting; adding the mean snapshot itself would not. Mean over
    # the same multiset twice is unchanged:
    c = fit_baseline(list(snaps))
    assert np.allclose(a.mu, c.mu)


def test_needs_two_snapshots():
    snap = BusSnapshot(v=np.ones(14), p=np.zeros(14), q=np.zeros(14))
    with pytest.raises(ValueError):
        fit_baseline([snap])


def test_table5_baseline_positive_definite(table5_snapshots):
    """PD check via factorization oracle plus finite training distances."""
    snaps, ids = table5_snapshots
    stats = fit_baseline(snaps, ids)
    np.linalg.cholesky(stats.cov_std)  # raises if not PD
    eig = np.linalg.eigvalsh(stats.cov_std)
    assert eig[0] > 0
    assert eig[-1] / eig[0] <= 1.2e6
    for snap in snaps:
        d = stats.mahalanobis(extract_features(snap))
        assert math.isfinite(d) and d >= 0
        assert d <= stats.train_max_maha + 1e-9
    assert stats.threshold == pytest.approx(stats.train_max_maha * 1.1)


def test_one_sigma_along_principal_axis(table5_snapshots):
    """Eigen-decomposition oracle: mu + sqrt(lambda_k) v_k scores 1."""
    snaps, ids = table5_snapshots
    stats = fit_baseline(snaps, ids)
    lam, vec = np.linalg.eigh(stats.cov_std)
    for k in (0, 35, 70):
        z = math.sqrt(lam[k]) * vec[:, k]
        f = FeatureVector(stats.mu + stats.scale * z)
        assert stats.mahalanobis(f) == pytest.approx(1.0, abs=1e-9)


def test_mahalanobis_invariant_under_unit_conversion(table5_snapshots):
    """Scoring in MW against an MW-fitted baseline must match scoring in
    p.u. against a p.u.-fitted baseline."""
    snaps, ids = table5_snapshots
    stats_pu = fit_baseline(snaps, ids)
    scaled = [BusSnapshot(v=s.v.copy(), p=s.p * 100.0, q=s.q * 100.0) for s in snaps]
    stats_mw = fit_baseline(scaled, ids)
    rng = np.random.default_rng(8)
    for _ in range(10):
        probe = random_snapshot(rng)
        probe_mw = BusSnapshot(v=probe.v.copy(), p=probe.p * 100.0, q=probe.q * 100.0)
        d_pu = stats_pu.mahalanobis(extract_features(probe))
        d_mw = stats_mw.mahalanobis(extract_features(probe_mw))
        assert d_mw == pytest.approx(d_pu, rel=1e-6)


def test_attacked_snapshot_scores_above_training(table5_snapshots):
    snaps, ids = table5_snapshots
    stats = fit_baseline(snaps, ids)
    _, attacked = fx.scenario_1b_records()
    d = stats.mahalanobis(extract_features(attacked.snapshot()))
    assert d > stats.threshold


def test_baseline_json_round_trip(table5_snapshots):
    snaps, ids = table5_snapshots
    stats = fit_baseline(snaps, ids)
    again = baseline_from_json(baseline_to_json(stats))
    probe = extract_features(snaps[4])
    assert again.mahalanobis(probe) == pytest.approx(
        stats.mahalanobis(probe), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Rule battery
# ---------------------------------------------------------------------------


def _record_pair(v_base, p_base, v_att, p_att):
    def rec(v, p, src):
        return GridRecord(
            buses=[BusRow(bus=i + 1, v_pu=v[i], theta_deg=0.0, p_mw=p[i] * 100,
                          q_mvar=0.0) for i in range(14)],
            source=src,
        )
    return rec(v_base, p_base, "base"), rec(v_att, p_att, "att")


def test_sensitivity_boundary_property():
    """Ratio just inside the band stays quiet; just outside fires."""
    v = np.full(14, 1.0)
    p = np.full(14, 0.5)
    for ratio, expect in ((1.06, False), (1.08, True), (0.78, False), (0.76, True)):
        dv = 0.05
        v_att = v.copy()
        p_att = p.copy()
        v_att[4] += dv
        p_att[4] += ratio * dv
        base, att = _record_pair(v, p, v_att, p_att)
        findings = rule_battery(att, base)
        hits = [f for f in findings if f.rule is Rule.SENSITIVITY_BOUND]
        assert bool(hits) == expect, ratio
        if hits:
            assert hits[0].data["ratio"] == pytest.approx(ratio, rel=1e-9)


def test_scenario_1a_rules():
    base, att = fx.scenario_1a_records()
    findings = rule_battery(att, base)
    rules = {f.rule for f in findings if f.severity is Severity.VIOLATION}
    assert Rule.SENSITIVITY_BOUND in rules
    assert Rule.COMPENSATION_ENTROPY in rules
    assert Rule.GRADIENT_COHERENCE in rules
    sens = next(f for f in findings if f.rule is Rule.SENSITIVITY_BOUND)
    assert sens.data["ratio"] == pytest.approx(1.875, abs=1e-9)
    grad = next(
        f for f in findings
        if f.rule is Rule.GRADIENT_COHERENCE and f.data["bus_from"] == 2
    )
    assert grad.data["gradient"] == pytest.approx(0.045, abs=1e-3)
    assert grad.data["gradient"] > 0.020


def test_scenario_1b_rules():
    base, att = fx.scenario_1b_records()
    findings = rule_battery(att, base)
    ramp = [f for f in findings if f.rule is Rule.RAMP_RATE and f.data["bus"] == 2]
    assert ramp and ramp[0].data["pct"] == pytest.approx(69.3, abs=0.1)
    zipv = [f for f in findings if f.rule is Rule.ZIP_VIOLATION and f.data["bus"] == 13]
    assert zipv and zipv[0].data["dp_pct"] == pytest.approx(-76.0, abs=0.1)
    assert not any(f.rule is Rule.COMPENSATION_ENTROPY for f in findings)


def test_scenario_2a_sign_flips_exact():
    base = fx.post_se_baseline_record()
    findings = rule_battery(fx.scenario_2a_record(), base)
    flips = sorted(f.data["bus"] for f in findings if f.rule is Rule.SIGN_FLIP)
    assert flips == [4, 9, 13]


def test_scenario_2b_loss_surge():
    base = fx.post_se_baseline_record()
    findings = rule_battery(fx.scenario_2b_record(), base)
    loss = next(f for f in findings if f.rule is Rule.LOSS_SURGE)
    assert loss.data["ratio"] == pytest.approx(28.78 / 14.84, abs=1e-6)
    assert not any(f.rule is Rule.SIGN_FLIP for f in findings)


def test_scenario_2d_open_breaker_flow():
    base = fx.post_se_baseline_record()
    findings = rule_battery(fx.scenario_2d_record(), base)
    hits = [f for f in findings if f.rule is Rule.OPEN_BREAKER_FLOW]
    assert len(hits) == 1
    assert (hits[0].data["from"], hits[0].data["to"]) == (2, 4)
    assert hits[0].data["p_mw"] == pytest.approx(56.1)


def test_baseline_vs_itself_is_quiet():
    base = fx.post_se_baseline_record()
    assert rule_battery(base, base) == []
    for builder in (fx.scenario_1a_records, fx.scenario_1b_records):
        b, _ = builder()
        assert rule_battery(b, b) == []


def test_violation_requires_numeric_evidence():
    with pytest.raises(ValueError):
        Finding(Rule.SIGN_FLIP, Severity.VIOLATION, "no numbers", {"bus": "four"})


def test_rule_config_from_file(tmp_path):
    cfg_file = tmp_path / "rules.conf"
    cfg_file.write_text(
        "# detector constants\n"
        "gradient_max = 0.03\n"
        "ramp_limit = 0.2\n"
        "generator_buses = 1,2\n"
        "entropy_min_count = 4\n"
    )
    cfg = RuleConfig.from_file(cfg_file)
    assert cfg.gradient_max == 0.03
    assert cfg.ramp_limit == 0.2
    assert cfg.generator_buses == (1, 2)
    assert cfg.entropy_min_count == 4
    bad = tmp_path / "bad.conf"
    bad.write_text("no_such_key = 1\n")
    with pytest.raises(KeyError):
        RuleConfig.from_file(bad)


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------


def _bdd(j, tau=89.5):
    return BddVerdict(flagged=j > tau, threshold=tau, j_value=j)


def test_classify_bad_data_wins():
    f = Finding(Rule.SIGN_FLIP, Severity.VIOLATION, "x", {"bus": 4})
    v = classify(_bdd(120.0), [f])
    assert v.klass is VerdictClass.BAD_DATA


def test_classify_stealth_requires_clean_bdd_and_violation():
    f = Finding(Rule.SENSITIVITY_BOUND, Severity.VIOLATION, "x", {"ratio": 1.9})
    v = classify(_bdd(42.8), [f])
    assert v.klass is VerdictClass.STEALTH_ATTACK
    assert not _bdd(42.8).flagged


def test_classify_record_violations_take_precedence():
    fs = [
        Finding(Rule.SENSITIVITY_BOUND, Severity.VIOLATION, "x", {"ratio": 1.9}),
        Finding(Rule.SIGN_FLIP, Severity.VIOLATION, "x", {"bus": 4}),
    ]
    assert classify(_bdd(10.0), fs).klass is VerdictClass.FDI_POST_SE


def test_classify_stress_and_normal():
    warn = Finding(Rule.VOLTAGE_DEVIATION, Severity.WARNING, "x", {"pct": 1.4})
    assert classify(_bdd(5.0), [warn]).klass is VerdictClass.SYSTEM_STRESS
    assert classify(_bdd(5.0), []).klass is VerdictClass.NORMAL


def test_classify_islanding_valid():
    rec = fx.scenario_2c_record()
    report = analyze_record_islands(rec)
    assert report.islands == [frozenset({b}) for b in range(1, 15)]
    assert report.all_flows_zero and report.all_balanced
    assert report.breaker_pairs_consistent
    ramp = Finding(Rule.RAMP_RATE, Severity.VIOLATION, "x", {"pct": -100.0})
    v = classify(_bdd(0.0), [ramp], island_report=report)
    assert v.klass is VerdictClass.ISLANDING_VALID


def test_islanding_balance_uses_the_configured_tolerance():
    """2 MW added at bus 4 of scenario 2C unbalances its island by 2 MW:
    beyond the default 1 MW it is an IslandBalance violation, within a
    5 MW tolerance it is neither a finding nor a reason to leave
    IslandingValid. The classifier once judged the balance at 1 MW always."""
    from gridsec.pipeline import run_pipeline

    rec = fx.scenario_2c_record()
    shifted = GridRecord(
        buses=[BusRow(r.bus, r.v_pu, r.theta_deg, r.p_mw + 2.0, r.q_mvar) if r.bus == 4 else r
               for r in rec.buses],
        branches=rec.branches, source=rec.source, extras=dict(rec.extras),
    )
    base = fx.post_se_baseline_record()
    for tol, klass in ((1.0, VerdictClass.FDI_POST_SE), (5.0, VerdictClass.ISLANDING_VALID)):
        cfg = RuleConfig(balance_tol_mw=tol)
        assert analyze_record_islands(shifted, cfg).all_balanced is (tol == 5.0)
        verdict = run_pipeline(base, shifted, config=cfg).verdict
        rules = {f.rule for f in verdict.findings}
        assert (Rule.ISLAND_BALANCE in rules) is (tol == 1.0)
        assert verdict.klass is klass


def test_zero_flow_validity_property():
    """Balanced zero-flow records with consistent breaker pairs are never
    an attack class, whatever other findings say."""
    rec = fx.scenario_2c_record()
    report = analyze_record_islands(rec)
    rng = np.random.default_rng(5)
    pool = [
        Finding(Rule.RAMP_RATE, Severity.VIOLATION, "x", {"pct": 50.0}),
        Finding(Rule.ZIP_VIOLATION, Severity.VIOLATION, "x", {"dp_pct": -60.0}),
        Finding(Rule.VOLTAGE_DEVIATION, Severity.WARNING, "x", {"pct": 1.0}),
    ]
    for _ in range(20):
        k = rng.integers(0, len(pool) + 1)
        subset = list(rng.choice(pool, size=k, replace=False)) if k else []
        v = classify(_bdd(0.0), subset, island_report=report)
        assert v.klass not in (
            VerdictClass.BAD_DATA, VerdictClass.STEALTH_ATTACK, VerdictClass.FDI_POST_SE
        )


def test_classifier_monotonicity():
    """Adding violations never moves an attack class back to Normal."""
    base_findings = [Finding(Rule.RAMP_RATE, Severity.VIOLATION, "x", {"pct": 70.0})]
    v0 = classify(_bdd(10.0), base_findings)
    assert v0.klass is VerdictClass.STEALTH_ATTACK
    more = base_findings + [
        Finding(Rule.GRADIENT_COHERENCE, Severity.VIOLATION, "x", {"gradient": 0.05})
    ]
    v1 = classify(_bdd(10.0), more)
    assert v1.klass is not VerdictClass.NORMAL
    even_more = more + [Finding(Rule.OPEN_BREAKER_FLOW, Severity.VIOLATION, "x", {"p_mw": 56.1})]
    v2 = classify(_bdd(10.0), even_more)
    assert v2.klass is not VerdictClass.NORMAL
