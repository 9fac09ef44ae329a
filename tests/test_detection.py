import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from gridsec import fixtures as fx
from gridsec.detection import (
    FEATURE_DIM,
    FEATURE_NAMES,
    RULES,
    FeatureVector,
    Finding,
    Rule,
    RuleConfig,
    Severity,
    VerdictClass,
    baseline_from_json,
    baseline_to_json,
    classify,
    extract_features,
    fit_baseline,
    read_pair,
    rule_battery,
)
from gridsec.estimation import BddVerdict
from gridsec.network import BreakerState, build_ieee14
from gridsec.records import BusRow, BusSnapshot, GridRecord
from gridsec.scenarios import generate_all
from gridsec.stats import DetectorProfile


@pytest.fixture(scope="module")
def table5_snapshots():
    model = build_ieee14()
    outcomes = generate_all(model)
    snaps = [oc.record.snapshot() for oc in outcomes if oc.record is not None]
    ids = [oc.spec.id for oc in outcomes if oc.record is not None]
    return snaps, ids


_V = [f"V{b}" for b in range(1, 15)]
_GRADIENT = [f"gradV_{b}_{b + 1}" for b in range(1, 14)]
_RHO = ["rho_VP", "rho_VQ", "rho_PQ"]


def _block(fv, names):
    """The features ``names`` of ``fv``, in that order."""
    named = fv.named()
    return np.array([named[k] for k in names])


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
    assert np.all(_block(fv, _GRADIENT) == 0.0)
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
        v = _block(fv, _V)
        assert np.allclose(_block(fv, _GRADIENT), np.diff(v), atol=0, rtol=0)


def test_correlations_bounded():
    rng = np.random.default_rng(3)
    for _ in range(25):
        fv = extract_features(random_snapshot(rng))
        assert np.all(np.abs(_block(fv, _RHO)) <= 1.0 + 1e-12)


def test_scenario_1a_gradient_feature():
    _, attacked = fx.scenario_1a_records()
    fv = extract_features(attacked.snapshot())
    named = fv.named()
    assert named["gradV_2_3"] == pytest.approx(0.0456, abs=5e-4)


def _reference_corr(a, b):
    """The correlation as the features were first written: numpy's mean
    and std per pair."""
    sa, sb = np.std(a), np.std(b)
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def _reference_features(snap):
    v, p, q = snap.v, snap.p, snap.q
    statistical = [v.mean(), v.std(), v.min(), v.max(), p.mean(), p.std(), p.min(), p.max()]
    correlation = [_reference_corr(v, p), _reference_corr(v, q), _reference_corr(p, q)]
    p_total, q_total = float(p.sum()), float(q.sum())
    apparent = math.hypot(p_total, q_total)
    pf = p_total / apparent if apparent > 0 else 1.0
    v_stability = float(np.minimum(v - 0.95, 1.05 - v).min())
    physics = [p_total, q_total, pf, v_stability, abs(p_total)]
    return np.concatenate([v, p, q, statistical, correlation, physics, np.diff(v)])


def _reference_probes():
    rng = np.random.default_rng(11)
    probes = [random_snapshot(rng) for _ in range(40)]
    flat = BusSnapshot(v=np.full(14, 1.02), p=rng.normal(0, 0.5, 14), q=np.zeros(14))
    dead = random_snapshot(rng)
    for x in (dead.v, dead.p, dead.q):
        x[13] = math.nan  # the row of a bus cut off in a dead island
    return probes + [flat, dead, BusSnapshot(v=np.ones(14), p=np.zeros(14), q=np.zeros(14))]


def test_features_equal_the_reference_expressions(table5_snapshots):
    """Each channel's moments are computed once per snapshot in the same
    floating-point operations as np.mean/np.std and the pairwise
    correlation, so every feature is bit-for-bit the reference's: a
    last-bit change flips the near-constant correlation features."""
    snaps, _ = table5_snapshots
    assert len(snaps) == 28
    probes = _reference_probes()
    for snap in snaps + probes:
        got = extract_features(snap).values
        assert np.array_equal(got, _reference_features(snap), equal_nan=True)
    assert _block(extract_features(probes[-1]), _RHO).tolist() == [0.0, 0.0, 0.0]


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
        findings = rule_battery(read_pair(att, base))
        hits = [f for f in findings if f.rule is Rule.SENSITIVITY_BOUND]
        assert bool(hits) == expect, ratio
        if hits:
            assert hits[0].data["ratio"] == pytest.approx(ratio, rel=1e-9)


def test_scenario_1a_rules():
    base, att = fx.scenario_1a_records()
    findings = rule_battery(read_pair(att, base))
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
    findings = rule_battery(read_pair(att, base))
    ramp = [f for f in findings if f.rule is Rule.RAMP_RATE and f.data["bus"] == 2]
    assert ramp and ramp[0].data["pct"] == pytest.approx(69.3, abs=0.1)
    zipv = [f for f in findings if f.rule is Rule.ZIP_VIOLATION and f.data["bus"] == 13]
    assert zipv and zipv[0].data["dp_pct"] == pytest.approx(-76.0, abs=0.1)
    assert not any(f.rule is Rule.COMPENSATION_ENTROPY for f in findings)


def test_scenario_2a_sign_flips_exact():
    base = fx.post_se_baseline_record()
    findings = rule_battery(read_pair(fx.scenario_2a_record(), base))
    flips = sorted(f.data["bus"] for f in findings if f.rule is Rule.SIGN_FLIP)
    assert flips == [4, 9, 13]


def test_scenario_2b_loss_surge():
    base = fx.post_se_baseline_record()
    findings = rule_battery(read_pair(fx.scenario_2b_record(), base))
    loss = next(f for f in findings if f.rule is Rule.LOSS_SURGE)
    assert loss.data["ratio"] == pytest.approx(28.78 / 14.84, abs=1e-6)
    assert not any(f.rule is Rule.SIGN_FLIP for f in findings)


def test_scenario_2d_open_breaker_flow():
    base = fx.post_se_baseline_record()
    findings = rule_battery(read_pair(fx.scenario_2d_record(), base))
    hits = [f for f in findings if f.rule is Rule.OPEN_BREAKER_FLOW]
    assert len(hits) == 1
    assert (hits[0].data["from"], hits[0].data["to"]) == (2, 4)
    assert hits[0].data["p_mw"] == pytest.approx(56.1)


def test_baseline_vs_itself_is_quiet():
    """Also with ``entropy_min_count = 0``: a pair with no small power
    adjustments gives no CompensationEntropy finding (it once took the log
    of a zero count)."""
    base = fx.post_se_baseline_record()
    for cfg in (RuleConfig(), RuleConfig(entropy_min_count=0)):
        assert rule_battery(read_pair(base, base, config=cfg)) == []
        for builder in (fx.scenario_1a_records, fx.scenario_1b_records):
            b, _ = builder()
            assert rule_battery(read_pair(b, b, config=cfg)) == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_read_pair_names_a_bus_value_whose_moments_overflow():
    """A finite bus value so large that its channel's moments overflow
    was read, with numpy overflow warnings, into NaN features and a report
    of 300-digit figures. In the record or the baseline, it raises the
    record check's ValueError naming the record, the column and the bus,
    also beside the NaN row of a bus cut off, whose moments stay NaN."""
    base = fx.post_se_baseline_record()
    cut_off = replace(base, source="cut-off", buses=[
        replace(r, v_pu=math.nan, theta_deg=math.nan, p_mw=math.nan, q_mvar=math.nan) if r.bus == 14 else r
        for r in base.buses
    ], branches=[
        replace(br, status_from=BreakerState.OPEN, status_to=BreakerState.OPEN)
        if 14 in (br.from_bus, br.to_bus) else br
        for br in base.branches
    ])
    assert math.isnan(read_pair(cut_off, base).moments.std[1])
    for record in (base, cut_off):
        for field, value, bus, shown in (("p_mw", 1e308, 5, "1e+308"), ("q_mvar", -1e200, 9, "-1e+200"),
                                         ("v_pu", 1e200, 3, "1e+200")):
            huge = replace(record, buses=[replace(r, **{field: value}) if r.bus == bus else r
                                          for r in record.buses])
            message = f"record '{record.source}': {field} {shown} at bus {bus} overflows the detector's moments"
            error = f"^{re.escape(message)}$"
            for pair in ((huge, base), (base, huge)):
                with pytest.raises(ValueError, match=error):
                    read_pair(*pair)


@pytest.mark.parametrize("v_scale, cfg", [
    (1.0, RuleConfig(zip_small_dv_frac=0.0)),  # V unchanged: ratio exactly 1
    (-1.0, RuleConfig()),  # V of the opposite sign: ratio below 0
], ids=["ratio-one", "ratio-negative"])
def test_zip_voltage_ratio_without_a_finite_exponent(v_scale, cfg):
    """A 50 % power step at load bus 13 whose voltage ratio to the baseline
    is exactly 1 or negative has no finite ZIP exponent (the log divided by
    zero or had no real value): it is a violation without ``alpha``, in the
    rules and through the pipeline. A negative voltage on the slack's
    island does not fit the model (it was classed FdiPostSe), so the rules
    meet it on bus 13 cut off by opening 6-13, 12-13 and 13-14."""
    from gridsec.pipeline import run_pipeline

    base = fx.post_se_baseline_record()
    record = replace(base, buses=[
        replace(r, v_pu=r.v_pu * v_scale, p_mw=r.p_mw * 1.5) if r.bus == 13 else r
        for r in base.buses
    ])
    if v_scale < 0:
        v13 = record.bus_row(13).v_pu
        with pytest.raises(ValueError, match=f"non-positive v_pu {v13} at bus 13"):
            rule_battery(read_pair(record, base, config=cfg))
        with pytest.raises(ValueError, match=f"non-positive v_pu {v13} at bus 13"):
            run_pipeline(base, record, profile=DetectorProfile(rules=cfg))
        record = replace(record, branches=[
            replace(br, status_from=BreakerState.OPEN, status_to=BreakerState.OPEN)
            if 13 in (br.from_bus, br.to_bus) else br
            for br in record.branches
        ])
    runs = [rule_battery(read_pair(record, base, config=cfg)),
            run_pipeline(base, record, profile=DetectorProfile(rules=cfg)).verdict.findings]
    for findings in runs:
        hits = [f for f in findings if f.rule is Rule.ZIP_VIOLATION]
        assert [(f.data["bus"], f.severity) for f in hits] == [(13, Severity.VIOLATION)]
        assert "alpha" not in hits[0].data
        assert hits[0].data["dp_pct"] == pytest.approx(50.0)


def test_rules_table_lists_each_detector_rule_once():
    display = {Rule.BREAKER_STATUS_CHANGE, Rule.MARKER_CHANGE}
    rules = [rule for rule, _, _ in RULES]
    assert sorted(rules) == sorted(set(Rule) - display)
    assert {family for _, family, _ in RULES} == {"record", "physics", "stress"}


def test_rule_battery_reports_in_table_order():
    order = [rule for rule, _, _ in RULES]
    findings = rule_battery(read_pair(fx.scenario_2a_record(), fx.post_se_baseline_record()))
    rules = [f.rule for f in findings]
    assert rules == sorted(rules, key=order.index)
    assert list(dict.fromkeys(rules)) == [
        Rule.SENSITIVITY_BOUND, Rule.ZIP_VIOLATION, Rule.SIGN_FLIP,
        Rule.ISLAND_BALANCE, Rule.VOLTAGE_DEVIATION,
    ]


def _reference_zero_divide_rules(record, baseline, cfg):
    """SensitivityBound and RampRate evidence as the rules computed it on
    numpy scalars, where a zero divisor gives inf or nan, and the number
    of zero divisors met."""
    snap, base = record.snapshot(), baseline.snapshot()
    dv, dp = snap.v - base.v, snap.p - base.p
    sens, ramp, zeros = [], [], 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(len(dv)):
            if abs(dv[i]) >= cfg.sensitivity_min_dv and abs(dp[i]) >= cfg.sensitivity_min_dp:
                ratio = dp[i] / dv[i]
                zeros += dv[i] == 0
                if not cfg.sensitivity_low <= ratio <= cfg.sensitivity_high:
                    sens.append({"bus": i + 1, "ratio": float(ratio),
                                 "dp": float(dp[i]), "dv": float(dv[i])})
        for b in (1, 2, 3, 6, 8):  # the 14-bus case's Slack and Generator buses
            if abs(base.p[b - 1]) >= cfg.ramp_min_base:
                frac = dp[b - 1] / abs(base.p[b - 1])
                zeros += base.p[b - 1] == 0
                if abs(frac) > cfg.ramp_limit:
                    ramp.append({"bus": b, "pct": float(frac * 100)})
    return sens, ramp, zeros


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("cfg, counts", [
    (RuleConfig(sensitivity_min_dv=0.0, sensitivity_min_dp=0.0), (14, 25, 17)),
    (RuleConfig(ramp_min_base=0.0), (0, 13, 3)),
])
def test_zero_thresholds_keep_the_float64_division(cfg, counts):
    """With a zero threshold the rules divide by an exact zero on the
    shipped post-SE records (an unchanged bus, a generator bus at 0 MW).
    On Python floats that would raise ZeroDivisionError; the findings stay
    the inf/nan ones of float64 division."""
    base = fx.post_se_baseline_record()
    for record, count in zip((base, fx.scenario_2a_record(), fx.scenario_2b_record()), counts):
        findings = rule_battery(read_pair(record, base, config=cfg))
        assert len(findings) == count
        sens, ramp, zeros = _reference_zero_divide_rules(record, base, cfg)
        assert zeros > 0
        got = {rule: [f.data for f in findings if f.rule is rule]
               for rule in (Rule.SENSITIVITY_BOUND, Rule.RAMP_RATE)}
        assert repr(got[Rule.SENSITIVITY_BOUND]) == repr(sens)
        assert repr(got[Rule.RAMP_RATE]) == repr(ramp)


def test_generator_rules_read_the_model_bus_kinds():
    """RampRate judges the case's Slack and Generator buses and ZipViolation
    the others: with bus 8 a Load bus in the case JSON, a 50 % power step
    at constant voltage there is a ZIP violation, not a ramp."""
    import json

    from gridsec.network import model_from_json, model_to_json

    doc = json.loads(model_to_json(build_ieee14()))
    doc["buses"][7]["kind"] = "Load"
    as_load = model_from_json(json.dumps(doc))
    base = fx.post_se_baseline_record()
    rows = [replace(r, p_mw=10.0) if r.bus == 8 else r for r in base.buses]
    baseline = replace(base, buses=rows)
    record = replace(base, buses=[replace(r, p_mw=15.0) if r.bus == 8 else r for r in rows])
    for model, ramp, zip_ in ((build_ieee14(), True, False), (as_load, False, True)):
        buses = {rule: {f.data["bus"] for f in rule_battery(read_pair(record, baseline, model))
                        if f.rule is rule}
                 for rule in (Rule.RAMP_RATE, Rule.ZIP_VIOLATION)}
        assert (8 in buses[Rule.RAMP_RATE]) is ramp
        assert (8 in buses[Rule.ZIP_VIOLATION]) is zip_


def test_violation_requires_numeric_evidence():
    with pytest.raises(ValueError):
        Finding(Rule.SIGN_FLIP, Severity.VIOLATION, "no numbers", {"bus": "four"})


def test_rule_config_keys_and_defaults():
    """The ``--config`` keys and their defaults, as the detector ships them."""
    assert {f.name: getattr(RuleConfig(), f.name) for f in fields(RuleConfig)} == {
        "sensitivity_low": 0.77, "sensitivity_high": 1.07,
        "sensitivity_min_dv": 0.01, "sensitivity_min_dp": 0.01,
        "ramp_limit": 0.10, "ramp_min_base": 0.01,
        "zip_alpha_low": 0.5, "zip_alpha_high": 2.0,
        "zip_min_dp_frac": 0.05, "zip_small_dv_frac": 0.005,
        "entropy_major_dp": 0.05, "entropy_fraction": 0.95, "entropy_min_count": 3,
        "gradient_max": 0.020, "signflip_min_mw": 1.0, "loss_ratio_max": 1.5,
        "flow_tol_mw": 0.5, "balance_tol_mw": 1.0,
        "volt_dev_warn": 0.005, "volt_dev_violation": 0.05,
        "corr_shift_warn": 0.3, "corr_shift_violation": 0.5,
    }
    assert type(RuleConfig().entropy_min_count) is int


def test_rule_config_from_file(tmp_path):
    cfg_file = tmp_path / "rules.conf"
    cfg_file.write_text(
        "# detector constants\n"
        "gradient_max = 0.03\n"
        "ramp_limit = 0.2\n"
        "entropy_min_count = 4\n"
    )
    cfg = RuleConfig.from_file(cfg_file)
    assert cfg.gradient_max == 0.03
    assert cfg.ramp_limit == 0.2
    assert cfg.entropy_min_count == 4
    bad = tmp_path / "bad.conf"
    # The generator buses come from the model's bus kinds, not the config.
    for text, message in (
        ("no_such_key = 1\n", "unknown config key 'no_such_key' on line 1"),
        ("generator_buses = 1,2\n", "unknown config key 'generator_buses' on line 1"),
        ("entropy_min_count = 3.5\n", "entropy_min_count = 3.5 on line 1: expected an integer"),
    ):
        bad.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


_VIOLATION_CLASS = {Rule.SIGN_FLIP: VerdictClass.FDI_POST_SE,
                    Rule.OPEN_BREAKER_FLOW: VerdictClass.FDI_POST_SE,
                    Rule.ISLAND_BALANCE: VerdictClass.FDI_POST_SE,
                    Rule.LOSS_SURGE: VerdictClass.SYSTEM_STRESS}


@pytest.mark.parametrize("severity", list(Severity))
@pytest.mark.parametrize("rule", list(Rule))
def test_classify_each_rule_alone(rule, severity):
    """One finding under a passing residual test: a violation takes its
    rule's class (display rules included), a warning or info is stress."""
    finding = Finding(rule, severity, "x", {"value": 1.0})
    expect = (_VIOLATION_CLASS.get(rule, VerdictClass.STEALTH_ATTACK)
              if severity is Severity.VIOLATION else VerdictClass.SYSTEM_STRESS)
    assert classify(_bdd(5.0), [finding]).klass is expect


def test_classify_islanding_valid():
    rec = fx.scenario_2c_record()
    report = read_pair(rec, rec).island_report
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
        assert read_pair(shifted, shifted, config=cfg).island_report.all_balanced is (tol == 5.0)
        verdict = run_pipeline(base, shifted, profile=DetectorProfile(rules=cfg)).verdict
        rules = {f.rule for f in verdict.findings}
        assert (Rule.ISLAND_BALANCE in rules) is (tol == 1.0)
        assert verdict.klass is klass


def test_zero_flow_validity_property():
    """Balanced zero-flow records with consistent breaker pairs are never
    an attack class, whatever other findings say."""
    rec = fx.scenario_2c_record()
    report = read_pair(rec, rec).island_report
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
