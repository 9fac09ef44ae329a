import csv
import glob
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gridsec import fixtures as fx
from gridsec.attacks import StateDelta, corrupt_topology_record, manipulate_state_vector
from gridsec.detection import Rule, Severity, VerdictClass, fit_baseline
from gridsec.estimation import wls_estimate_ac
from gridsec.network import BreakerState, BusKind
from gridsec.pipeline import measurements_from_record, run_pipeline
from gridsec.records import GridRecord
from gridsec.scenarios import TABLE5_SCENARIOS, generate_all


@pytest.fixture(scope="module")
def outcomes(ieee14):
    return generate_all(ieee14)


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def test_catalog_has_thirty_entries():
    assert len(TABLE5_SCENARIOS) == 30
    assert [s.id for s in TABLE5_SCENARIOS] == [f"table5-{i:02d}" for i in range(1, 31)]


def test_each_scenario_solved_or_flagged(outcomes):
    for oc in outcomes:
        assert (oc.record is not None) or (oc.error is not None), oc.spec.id


def test_base_case_matches_plain_solve(ieee14, outcomes):
    from gridsec.powerflow import solve

    base = outcomes[0]
    assert base.spec.actions == ()
    plain = solve(ieee14)
    assert np.allclose(base.solution.v, plain.v)
    assert base.solution.losses_mw == pytest.approx(plain.losses_mw)


def test_tap_scenario_changes_model(ieee14, outcomes):
    oc = next(o for o in outcomes if o.spec.id == "table5-08")
    idx = ieee14.branch_index(4, 9)
    assert oc.model.branches[idx].tap == pytest.approx(0.969 * 1.10)
    assert oc.solved


def test_nonexistent_branches_flagged(outcomes):
    for sid in ("table5-17", "table5-24"):
        oc = next(o for o in outcomes if o.spec.id == sid)
        assert oc.record is None
        assert "no branch" in oc.error


def test_double_opening_scenario(outcomes):
    oc = next(o for o in outcomes if o.spec.id == "table5-27")
    assert oc.solved
    statuses = {(
        b.from_bus, b.to_bus): b.in_service for b in oc.record.branches}
    assert statuses[(4, 7)] is False and statuses[(7, 9)] is False
    # Bus 8 survives on its own island behind 7-8.
    assert not math.isnan(oc.record.bus_row(8).v_pu)


def test_swing_shift_scenario(ieee14, outcomes):
    oc = next(o for o in outcomes if o.spec.id == "table5-21")
    assert oc.solved
    assert oc.model.bus(2).kind is BusKind.SLACK
    assert oc.model.bus(1).kind is BusKind.GENERATOR
    assert oc.record.bus_row(2).theta_deg == pytest.approx(0.0, abs=1e-9)
    # The pinned former slack keeps roughly its base-case output.
    assert oc.record.bus_row(1).p_mw == pytest.approx(-232.4, abs=2.0)


def test_load_scenario_scales_only_target(ieee14, outcomes):
    oc = next(o for o in outcomes if o.spec.id == "table5-12")
    assert oc.model.bus(4).p_load == pytest.approx(47.8 * 1.2)
    assert oc.model.bus(9).p_load == pytest.approx(29.5)


def test_q_limit_scenarios_present(outcomes):
    for sid in ("table5-19", "table5-20"):
        oc = next(o for o in outcomes if o.spec.id == sid)
        assert oc.solved


def test_solvable_count(outcomes):
    solved = [oc for oc in outcomes if oc.record is not None]
    assert len(solved) == 28  # all but the two phantom-branch rows


# ---------------------------------------------------------------------------
# Record serialization
# ---------------------------------------------------------------------------


def test_record_csv_round_trip_nine_digits(outcomes):
    rec = outcomes[0].record
    text = rec.to_csv()
    again = GridRecord.from_csv(text)
    assert again.to_csv() == text  # stable fixed point
    for a, b in zip(rec.buses, again.buses):
        assert b.v_pu == pytest.approx(a.v_pu, rel=1e-9, abs=1e-12)
        assert b.theta_deg == pytest.approx(a.theta_deg, rel=1e-9, abs=1e-12)
        assert b.p_mw == pytest.approx(a.p_mw, rel=1e-9, abs=1e-9)
    for a, b in zip(rec.branches, again.branches):
        assert b.p_mw == pytest.approx(a.p_mw, rel=1e-9, abs=1e-9)
        assert b.status_from is a.status_from


def test_record_extras_round_trip():
    rec = fx.scenario_1a_records()[1]
    again = GridRecord.from_csv(rec.to_csv())
    assert again.extras["bdd_chi2"] == 42.8
    assert again.extras["stage"] == "measurement"
    assert again.source == "scenario1a"


@pytest.mark.parametrize(
    "line, row, error",
    [
        (4, "2,1.04", "expected 5 columns, got 2"),
        (6, "4,0.9906,-10.93,abc,-3.9", "could not convert string to float: 'abc'"),
        (7, "x,0.9898,-8.77,7.6,1.6", "invalid literal for int"),
        (19, "1,2,Shut,Closed,156.883,-20.404,4.827", "'Shut' is not a valid BreakerState"),
        (20, "1,5,Closed,Closed,75.51,3.855", "expected 7 columns, got 6"),
        (21, "2,3,Closed,Closed,73.238,n/a,2.6095", "could not convert string to float: 'n/a'"),
    ],
    ids=["bus-short", "bus-number", "bus-id", "branch-state", "branch-short", "branch-number"],
)
def test_bad_record_csv_row_names_its_line(line, row, error):
    # A blank line after the header puts bus k on line k + 3 and the
    # branch rows from line 19: the error names the physical line.
    lines = fx.post_se_baseline_record().to_csv().splitlines()
    lines.insert(1, "")
    lines[line - 1] = row
    with pytest.raises(ValueError, match=f"^record CSV line {line}: {error}"):
        GridRecord.from_csv("\n".join(lines))


def test_fixture_tree_matches_builders(tmp_path):
    """The tree that `write_fixture_tree` materializes loads back to the
    records and segments the fixture functions return."""
    fx.write_fixture_tree(tmp_path)
    for name, builder in (
        ("post_se_baseline", fx.post_se_baseline_record),
        ("scenario2a", fx.scenario_2a_record),
        ("scenario2b", fx.scenario_2b_record),
        ("scenario2c", fx.scenario_2c_record),
        ("scenario2d", fx.scenario_2d_record),
    ):
        disk = GridRecord.load(tmp_path / f"{name}.csv")
        assert disk.to_csv() == builder().to_csv()
    doc = json.loads((tmp_path / "som" / "reference" / "seg7.json").read_text())
    assert doc["id"] == "seg7"
    assert "CB12_6:R" in doc["markers"]


def test_post_se_scenarios_derive_from_baseline(ieee14):
    """The attacked snapshots are the quoted manipulations of their shipped
    baselines: applied to them, they reproduce the shipped files byte for
    byte. 2A and 2D from the post-SE baseline; 1A and 1B (seed 3) from
    theirs, with the quoted ``bdd_chi2`` and our own chi-square of each
    attacked snapshot as ``recomputed_chi2``."""
    for name, builder in (("scenario1a", fx.scenario_1a_records),
                          ("scenario1b", fx.scenario_1b_records)):
        baseline, attacked = builder()
        assert baseline.to_csv().encode() == (fx.DATA_DIR / f"{name}_baseline.csv").read_bytes()
        j = wls_estimate_ac(ieee14, measurements_from_record(attacked), delta=1e-8).j_value
        attacked = replace(attacked, extras=dict(attacked.extras, recomputed_chi2=round(j, 6)))
        assert attacked.to_csv().encode() == (fx.DATA_DIR / f"{name}_attacked.csv").read_bytes()
    base = fx.post_se_baseline_record()
    delta = StateDelta.from_changes(
        14,
        dv={4: 0.0073, 7: 0.0102, 9: 0.0107, 13: 0.0157},
        dtheta_deg={4: 1.89, 7: 1.88, 9: -1.70, 13: 2.19},
        dp_mw={4: -95.6, 9: -59.0, 13: -27.0},
        dq_mvar={4: 7.8, 9: -13.9, 13: -11.6},
    )
    for name, record in (
        ("scenario2a", manipulate_state_vector(base, delta)),
        ("scenario2d", corrupt_topology_record(base, [(2, 4)])),
    ):
        record = replace(record, source=name, extras={"stage": "post-se", "bdd_chi2": 0.0})
        assert record.to_csv().encode() == (fx.DATA_DIR / f"{name}.csv").read_bytes(), name


def test_table4_file_matches_the_sweep_baseline(tmp_path):
    """The Bus No., Bus type and Original voltage columns of the shipped
    Table 4 are those ``gridsec sweep --ranges-out`` writes, byte for byte;
    they do not depend on the number of sweep points."""
    from gridsec.cli import main

    ranges = tmp_path / "ranges.csv"
    argv = ["sweep", "--all-buses", "--points", "2", "--out", str(tmp_path / "log.csv")]
    assert main([*argv, "--ranges-out", str(ranges)]) == 0

    def columns(path):
        return [(r[0], r[1], r[5]) for r in csv.reader(path.read_text().splitlines())]

    assert columns(fx.DATA_DIR / "table4_stealth_ranges.csv") == columns(ranges)


def test_every_shipped_data_file_is_package_data():
    """Each file under ``data/`` matches a ``[tool.setuptools.package-data]``
    glob, so a non-editable install keeps every fixture the code reads."""
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "gridsec"
    config = tomllib.loads((root / "pyproject.toml").read_text())
    patterns = config["tool"]["setuptools"]["package-data"]["gridsec"]
    covered = {Path(p) for pat in patterns for p in glob.glob(str(package / pat), recursive=True)}
    shipped = {p for p in (package / "data").rglob("*") if p.is_file()}
    assert shipped
    assert sorted(shipped - covered) == []


def test_scenario_2b_values():
    """2B keeps the baseline's loads, dispatches exactly 13.9 MW more and
    loses 28.78 MW in the branches."""
    base, rec = fx.post_se_baseline_record(), fx.scenario_2b_record()
    loads = [{b.bus: b.p_mw for b in r.buses if b.p_mw > 0} for r in (base, rec)]
    assert loads[0] == loads[1]
    assert rec.total_generation_mw - base.total_generation_mw == pytest.approx(13.9, abs=1e-9)
    assert rec.total_loss_mw == pytest.approx(28.78, abs=5e-3)


def test_scenario_2c_values():
    """2C keeps the baseline's voltages with every angle and injection
    zero, and every branch open with zero flow and loss."""
    base, rec = fx.post_se_baseline_record(), fx.scenario_2c_record()
    assert [(b.bus, b.v_pu) for b in rec.buses] == [(b.bus, b.v_pu) for b in base.buses]
    assert all(b.theta_deg == b.p_mw == b.q_mvar == 0.0 for b in rec.buses)
    pairs = [[(br.from_bus, br.to_bus) for br in r.branches] for r in (base, rec)]
    assert pairs[0] == pairs[1]
    for br in rec.branches:
        assert br.status_from is br.status_to is BreakerState.OPEN
        assert br.p_mw == br.q_mvar == br.loss_mw == 0.0


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def baseline_stats(outcomes):
    snaps = [oc.record.snapshot() for oc in outcomes if oc.record is not None]
    ids = [oc.spec.id for oc in outcomes if oc.record is not None]
    return fit_baseline(snaps, ids)


def test_pipeline_baseline_vs_itself_normal(ieee14):
    base = fx.post_se_baseline_record()
    report = run_pipeline(base, base, ieee14, paper_compat=True)
    assert report.verdict.klass is VerdictClass.NORMAL
    assert report.verdict.findings == []


def test_pipeline_2a_classification(ieee14):
    report = run_pipeline(
        fx.post_se_baseline_record(), fx.scenario_2a_record(), ieee14, paper_compat=True
    )
    assert report.verdict.klass is VerdictClass.FDI_POST_SE
    flips = sorted(
        f.data["bus"] for f in report.verdict.findings if f.rule is Rule.SIGN_FLIP
    )
    assert flips == [4, 9, 13]
    t = report.report["totals"]
    assert t["generation_after_mw"] - t["generation_before_mw"] == pytest.approx(90.8, abs=0.05)
    assert t["load_after_mw"] - t["load_before_mw"] == pytest.approx(-90.8, abs=0.05)


def test_pipeline_2b_classification(ieee14):
    report = run_pipeline(
        fx.post_se_baseline_record(), fx.scenario_2b_record(), ieee14, paper_compat=True
    )
    assert report.verdict.klass is VerdictClass.SYSTEM_STRESS
    loss = next(f for f in report.verdict.findings if f.rule is Rule.LOSS_SURGE)
    assert loss.data["ratio"] == pytest.approx(1.94, abs=0.01)


def test_pipeline_2c_classification(ieee14):
    report = run_pipeline(
        fx.post_se_baseline_record(), fx.scenario_2c_record(), ieee14, paper_compat=True
    )
    assert report.verdict.klass is VerdictClass.ISLANDING_VALID


def test_pipeline_2d_classification(ieee14):
    report = run_pipeline(
        fx.post_se_baseline_record(), fx.scenario_2d_record(), ieee14, paper_compat=True
    )
    assert report.verdict.klass is VerdictClass.FDI_POST_SE
    hit = next(f for f in report.verdict.findings if f.rule is Rule.OPEN_BREAKER_FLOW)
    assert hit.data["p_mw"] == pytest.approx(56.1)
    assert (hit.data["from"], hit.data["to"]) == (2, 4)


def test_pipeline_1a_1b_classification(ieee14, baseline_stats):
    for builder, chi2 in ((fx.scenario_1a_records, 42.8), (fx.scenario_1b_records, 67.3)):
        base, attacked = builder()
        report = run_pipeline(base, attacked, ieee14, baseline_stats=baseline_stats,
                              paper_compat=True)
        assert report.verdict.klass is VerdictClass.STEALTH_ATTACK
        assert report.verdict.bdd_chi2 == chi2
        assert not report.report["bdd"]["flagged"]
        assert report.verdict.feature_chi2 > baseline_stats.threshold


def test_pipeline_analyzes_islands_once(ieee14, baseline_stats, monkeypatch):
    """The IslandBalance rule and the classifier read one island report,
    and each record's islands and snapshot are built once per verdict."""
    from gridsec import detection, pipeline
    from gridsec.records import GridRecord

    calls = []
    analyze = detection.analyze_record_islands

    def counted(record, config=None, islands=None):
        calls.append(record.source)
        return analyze(record, config, islands=islands)

    built = {"islands": [], "snapshot": []}

    def spy(name):
        original = getattr(GridRecord, name)

        def wrapper(self, *args, **kwargs):
            built[name].append(self.source)
            return original(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(detection, "analyze_record_islands", counted)
    monkeypatch.setattr(pipeline, "analyze_record_islands", counted)
    for name in built:
        monkeypatch.setattr(GridRecord, name, spy(name))
    report = run_pipeline(
        fx.post_se_baseline_record(), fx.scenario_2a_record(), ieee14,
        baseline_stats=baseline_stats, paper_compat=True,
    )
    assert report.verdict.klass is VerdictClass.FDI_POST_SE
    assert calls == ["scenario2a"]
    for name, sources in built.items():
        assert sorted(sources) == ["post-se-baseline", "scenario2a"], name


def test_pipeline_accepts_attack_vector_input(ieee14):
    from gridsec.attacks import build_scenario_1a

    base, _ = fx.scenario_1a_records()
    report = run_pipeline(base, build_scenario_1a(), ieee14, paper_compat=True)
    # Without a fixture chi-square the snapshot is re-estimated; either
    # way the physics rules catch the vector.
    rules = {f.rule for f in report.verdict.findings if f.severity is Severity.VIOLATION}
    assert Rule.SENSITIVITY_BOUND in rules
    assert Rule.COMPENSATION_ENTROPY in rules


@pytest.mark.parametrize(
    "probe, message",
    [
        ("nan-voltage", "record 'nan-v5': non-finite v_pu at bus 5"),
        ("post-se-10-bus", "record 'ten-bus': bus 11 missing"),
        ("measurement-10-bus", "record 'scenario1a-baseline': bus 11 missing"),
        ("bus-only-nan-power", "record 'bus-only': non-finite p_mw at bus 5"),
        ("measurement-nan-voltage", "record 'scenario1a-baseline': non-finite v_pu at bus 5"),
        ("unknown-bus-branch", "record 'row-13-15': branch 13-15 names a bus that is not"),
    ],
)
def test_pipeline_rejects_a_record_that_does_not_fit(ieee14, probe, message):
    """Before, these classified Normal, raised KeyError: 11, ended in a WLS
    divergence, classified Normal (a bus-only record was read as 14
    single-bus islands, so only the slack bus was checked), raised
    EstimationError, and raised KeyError: 15."""
    post_se = fx.post_se_baseline_record()
    nan_v5 = [replace(r, v_pu=math.nan) if r.bus == 5 else r for r in post_se.buses]
    base_1a, _ = fx.scenario_1a_records()
    cut_1a = replace(base_1a, buses=base_1a.buses[:10])
    bus_only = replace(post_se, source="bus-only", branches=[], extras=dict(post_se.extras, bdd_chi2=10.0))
    nan_p5 = [replace(r, p_mw=math.nan) if r.bus == 5 else r for r in bus_only.buses]
    nan_1a = [replace(r, v_pu=math.nan) if r.bus == 5 else r for r in base_1a.buses]
    row_13_15 = [
        replace(br, to_bus=15) if (br.from_bus, br.to_bus) == (13, 14) else br
        for br in post_se.branches
    ]
    baseline, snapshot = {
        "nan-voltage": (post_se, replace(post_se, source="nan-v5", buses=nan_v5)),
        "post-se-10-bus": (post_se, replace(post_se, source="ten-bus", buses=post_se.buses[:10])),
        "measurement-10-bus": (cut_1a, cut_1a),
        "bus-only-nan-power": (bus_only, replace(bus_only, buses=nan_p5)),
        "measurement-nan-voltage": (base_1a, replace(base_1a, buses=nan_1a)),
        "unknown-bus-branch": (post_se, replace(post_se, source="row-13-15", branches=row_13_15)),
    }[probe]
    with pytest.raises(ValueError, match=re.escape(message)):
        run_pipeline(baseline, snapshot, ieee14, paper_compat=True)


def test_pipeline_accepts_nan_rows_of_a_dead_island(ieee14):
    """Bus 14 cut off by its own record's breakers carries the NaN row that
    ``from_solution`` writes for an island with no slack and no generator.
    The rules skip that row, so it is neither a ZIP violation nor an attack."""
    from gridsec.cli import ATTACK_CLASSES
    from gridsec.network import apply_topology_corruption, build_topology
    from gridsec.powerflow import solve

    baseline = GridRecord.from_solution(ieee14, solve(ieee14), source="solved")
    topo = apply_topology_corruption(build_topology(ieee14), [(9, 14), (13, 14)])
    record = GridRecord.from_solution(ieee14, solve(ieee14, topo), topo, source="isolated-14")
    for r in (baseline, record):
        r.extras["stage"] = "post-se"
    assert math.isnan(record.bus_row(14).v_pu)
    report = run_pipeline(baseline, record, ieee14, paper_compat=True)
    assert report.report["snapshot"] == "isolated-14" and not report.report["bdd"]["flagged"]
    assert Rule.ZIP_VIOLATION not in {f.rule for f in report.verdict.findings}
    assert report.verdict.klass.value not in ATTACK_CLASSES
    # The same row with both breakers of 13-14 closed is in the slack's island.
    closed = replace(record, branches=[
        replace(br, status_from=BreakerState.CLOSED, status_to=BreakerState.CLOSED)
        if (br.from_bus, br.to_bus) == (13, 14) else br
        for br in record.branches
    ])
    with pytest.raises(ValueError, match="non-finite v_pu at bus 14"):
        run_pipeline(baseline, closed, ieee14, paper_compat=True)


def test_pipeline_report_deterministic(ieee14):
    a = run_pipeline(fx.post_se_baseline_record(), fx.scenario_2a_record(), ieee14,
                     paper_compat=True)
    b = run_pipeline(fx.post_se_baseline_record(), fx.scenario_2a_record(), ieee14,
                     paper_compat=True)
    assert a.to_json() == b.to_json()
    assert a.text == b.text


def test_pipeline_text_mentions_core_facts(ieee14):
    report = run_pipeline(fx.post_se_baseline_record(), fx.scenario_2d_record(),
                          ieee14, paper_compat=True)
    assert "FdiPostSe" in report.text
    assert "56.1" in report.text
