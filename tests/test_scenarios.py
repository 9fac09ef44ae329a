import csv
import glob
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridsec import fixtures as fx
from gridsec.attacks import StateDelta, corrupt_topology_record, manipulate_state_vector
from gridsec.detection import Rule, Severity, VerdictClass, fit_baseline
from gridsec.estimation import EstimationError, wls_estimate_ac
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


@pytest.mark.parametrize(
    "field, expected",
    [
        ("bdd_chi2=nan", "a finite number >= 0"),
        ("bdd_chi2=-5", "a finite number >= 0"),
        ("bdd_chi2=abc", "a finite number >= 0"),
        ("stage=bogus", "measurement or post-se"),
    ],
)
def test_bad_record_header_field_names_line_and_field(field, expected):
    """The detector reads ``bdd_chi2`` and ``stage``: a NaN or negative
    chi-square classified Normal, and an unknown stage read as measurement."""
    key = field.partition("=")[0]
    header, body = fx.post_se_baseline_record().to_csv().split("\n", 1)
    parts = [field if part.startswith(f"{key}=") else part for part in header.split(",")]
    with pytest.raises(ValueError, match=f"^record CSV line 1: {field}: expected {expected}$"):
        GridRecord.from_csv(",".join(parts) + "\n" + body)


@pytest.mark.parametrize(
    "extras, reader, expected",
    [
        ({"stage": "post-se", "bdd_chi2": math.nan}, "probe", "bdd_chi2=nan: expected a finite number >= 0"),
        ({"stage": "post-se", "bdd_chi2": -5.0}, "probe", "bdd_chi2=-5.0: expected a finite number >= 0"),
        ({"stage": "post-se", "bdd_chi2": math.inf}, "probe", "bdd_chi2=inf: expected a finite number >= 0"),
        ({"stage": "post-se", "bdd_chi2": "abc"}, "probe", "bdd_chi2=abc: expected a finite number >= 0"),
        ({"stage": "bogus"}, "probe", "stage=bogus: expected measurement or post-se"),
        ({"stage": "post-se"}, "base", "bdd_chi2=nan: expected a finite number >= 0"),
    ],
    ids=["nan", "negative", "inf", "text", "stage", "baseline-nan"],
)
def test_pipeline_checks_the_extras_it_reads(ieee14, extras, reader, expected):
    """A record built in memory skips the CSV parser, whose check of
    ``bdd_chi2`` and ``stage`` the residual test shares. Before, a NaN or
    negative chi-square classified Normal, inf BadData, text raised a bare
    float() error, and an unknown stage was re-estimated."""
    post_se = fx.post_se_baseline_record()
    baseline = replace(post_se, source="base", extras={"stage": "post-se", "bdd_chi2": math.nan})
    probe = replace(post_se, source="probe", extras=extras)
    with pytest.raises(ValueError, match=f"^{re.escape(f'record {reader!r}: {expected}')}$"):
        run_pipeline(baseline, probe, ieee14)


def test_pipeline_threshold_follows_the_compiled_model(ieee14):
    """The residual test's df is m - n_state of the compiled standard
    model: 15 on the all-closed case, and 16 on a case whose own open
    breaker makes bus 8 an island (its angle is a reference too), as
    ``gridsec estimate`` takes it; the paper's 89.5 under paper_compat."""
    from gridsec.estimation import standard_channels
    from gridsec.measmodel import compiled
    from gridsec.pipeline import BDD_ALPHA
    from gridsec.powerflow import solve
    from gridsec.stats import PAPER_CHI2_THRESHOLD, chi_square_threshold

    islanded = replace(ieee14, branches=tuple(
        replace(br, breaker_from=BreakerState.OPEN) if br.pair == (7, 8) else br
        for br in ieee14.branches
    ))
    for model, df in ((ieee14, 15), (islanded, 16)):
        layout, _ = standard_channels(model.n_bus)
        assert len(layout) - compiled(model, None, layout).n_state == df
        record = GridRecord.from_solution(model, solve(model), source="solved")
        estimate = wls_estimate_ac(model, measurements_from_record(record, model.base_mva))
        assert len(layout) - estimate.measurement_model.n_state == df
        report = run_pipeline(record, record, model)
        assert report.verdict.bdd_threshold == chi_square_threshold(df, BDD_ALPHA)
        assert report.verdict.bdd_chi2 < 1e-9 and not report.report["bdd"]["flagged"]
        compat = run_pipeline(record, record, model, paper_compat=True)
        assert compat.verdict.bdd_threshold == PAPER_CHI2_THRESHOLD == 89.5


# What the record fuzzer writes into a bus row's values (numbers, the
# non-finite ones and text), into a branch row's cells (breaker states,
# bus ids outside 1..14) and into the header's ``bdd_chi2``, in the CSV
# and in memory.
_VALUES = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1", "abc"]),
    st.floats().map(repr),
)
_BRANCH_CELLS = st.sampled_from(["Open", "Closed", "Shut", "15", "0", "nan", "-inf", "abc"])
_STORED = ["0", "12.5", "1e6"]
_BAD_STORED = ["nan", "-5", "inf", "abc"]
_IN_MEMORY = [None, None, None, None, 0.0, 3.5, math.nan, -5.0, math.inf, "abc"]


@settings(max_examples=150)
@given(
    base=st.sampled_from(["post_se_baseline.csv", "scenario1a_baseline.csv"]),
    values=st.lists(st.tuples(st.integers(0, 13), st.integers(1, 4), _VALUES), max_size=3),
    cells=st.lists(st.tuples(st.integers(0, 19), st.integers(0, 6), _BRANCH_CELLS), max_size=2),
    dropped=st.sets(st.integers(0, 33), max_size=2),
    chi2=st.one_of(st.none(), st.sampled_from(_STORED), st.sampled_from(_BAD_STORED)),
    stage=st.sampled_from([None, "measurement", "post-se", "post-se", "bogus"]),
    in_memory=st.sampled_from(_IN_MEMORY),
    as_baseline=st.booleans(),
)
# A NaN P on branch 1-2 in the snapshot and an infinite loss on it in the
# baseline each classified Normal.
@example(base="post_se_baseline.csv", values=[], cells=[(0, 4, "nan")], dropped=set(),
         chi2=None, stage=None, in_memory=None, as_baseline=False)
@example(base="post_se_baseline.csv", values=[], cells=[(0, 6, "-inf")], dropped=set(),
         chi2=None, stage=None, in_memory=None, as_baseline=True)
# Branch 7-8 opened with no flow and a NaN loss in the snapshot, and with a
# NaN P in the baseline, each classified Normal.
@example(base="post_se_baseline.csv", values=[],
         cells=[(13, 2, "Open"), (13, 3, "Open"), (13, 5, "0"), (13, 6, "nan")],
         dropped=set(), chi2=None, stage=None, in_memory=None, as_baseline=False)
@example(base="post_se_baseline.csv", values=[],
         cells=[(13, 2, "Open"), (13, 4, "nan"), (13, 5, "0")],
         dropped=set(), chi2=None, stage=None, in_memory=None, as_baseline=True)
def test_fuzzed_record_ends_in_a_verdict_or_a_value_error(
    ieee14, base, values, cells, dropped, chi2, stage, in_memory, as_baseline
):
    """A record CSV with fuzzed bus values, branch cells, dropped rows and
    header extras, parsed and sent through the pipeline as snapshot or
    baseline against its clean original, ends in a verdict or a
    ValueError. A non-finite value on the slack's island, in a bus row or
    in the P or Q of an in-service branch row, a non-finite loss on any
    branch row and a non-finite P or Q on an open one never classify
    Normal, and neither does a snapshot whose stored chi-square (set in
    memory, where the parser does not see it) is not a finite number >= 0."""
    clean = GridRecord.load(fx.DATA_DIR / base)
    _, *lines = clean.to_csv().splitlines()
    rows = [line.split(",") for line in lines]
    data = [row for row in rows if row[0].isdigit()]
    buses, branches = data[:14], data[14:]
    for index, column, value in values:
        buses[index][column] = value
    for index, column, cell in cells if branches else []:
        branches[index][column] = cell
    cut = [data[i % len(data)] for i in dropped]
    extras = [f"{key}={val}" for key, val in (("bdd_chi2", chi2), ("stage", stage)) if val is not None]
    header = ",".join(["#gridrecord", "source=fuzz", *extras])
    body = [",".join(row) for row in rows if not any(row is c for c in cut)]
    try:
        record = GridRecord.from_csv("\n".join([header, *body]))
    except ValueError:
        return
    if in_memory is not None:
        record.extras["bdd_chi2"] = in_memory
    try:
        report = run_pipeline(*((record, clean) if as_baseline else (clean, record)), ieee14)
    except ValueError:
        return
    if report.verdict.klass is not VerdictClass.NORMAL:
        return
    energized = next(isl for isl in record.islands() if 1 in isl)
    for r in record.buses:
        if r.bus in energized:
            assert all(map(math.isfinite, (r.v_pu, r.theta_deg, r.p_mw, r.q_mvar))), r
    for br in record.branches:
        cut_off = br.in_service and br.from_bus not in energized
        assert all(map(math.isfinite, (br.loss_mw,) if cut_off else (br.p_mw, br.q_mvar, br.loss_mw))), br
    stored = record.extras.get("bdd_chi2", 0.0)
    assert as_baseline or (isinstance(stored, float) and 0.0 <= stored < math.inf), stored


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
        j = wls_estimate_ac(ieee14, measurements_from_record(attacked, ieee14.base_mva), delta=1e-8).j_value
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
        assert report.report["feature"]["chi2"] > baseline_stats.threshold


def test_pipeline_analyzes_islands_once(ieee14, baseline_stats, monkeypatch):
    """The IslandBalance rule and the classifier read the one island report
    of ``detection.read_pair``, and each record's snapshot is built once
    per verdict. The snapshot's islands are searched once; the baseline's
    only when it holds a non-finite row, which may sit on an island its
    breakers cut off."""
    from gridsec import detection
    from gridsec.network import apply_topology_corruption, build_topology
    from gridsec.powerflow import solve

    calls = []
    analyze = detection.analyze_record_islands

    def counted(record, cfg, table, islands):
        calls.append(record.source)
        return analyze(record, cfg, table, islands)

    built = {"islands": [], "snapshot": []}

    def spy(name):
        original = getattr(GridRecord, name)

        def wrapper(self, *args, **kwargs):
            built[name].append(self.source)
            return original(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(detection, "analyze_record_islands", counted)
    for name in built:
        monkeypatch.setattr(GridRecord, name, spy(name))

    def run(baseline):
        calls.clear()
        for sources in built.values():
            sources.clear()
        return run_pipeline(
            baseline, fx.scenario_2a_record(), ieee14,
            baseline_stats=baseline_stats, paper_compat=True,
        )

    post_se = fx.post_se_baseline_record()
    assert run(post_se).verdict.klass is VerdictClass.FDI_POST_SE
    assert calls == ["scenario2a"]
    assert built["islands"] == ["scenario2a"]
    assert sorted(built["snapshot"]) == ["post-se-baseline", "scenario2a"]

    topo = apply_topology_corruption(build_topology(ieee14), [(9, 14), (13, 14)])
    dead = GridRecord.from_solution(ieee14, solve(ieee14, topo), topo, source="isolated-14")
    dead.extras.update(stage="post-se", bdd_chi2=0.0)
    assert math.isnan(dead.bus_row(14).v_pu)
    run(dead)
    assert sorted(built["islands"]) == ["isolated-14", "scenario2a"]

    row_13_15 = [
        replace(br, to_bus=15) if (br.from_bus, br.to_bus) == (13, 14) else br
        for br in post_se.branches
    ]
    text = "record 'row-13-15': branch 13-15 names a bus that is not in its bus table"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        run(replace(post_se, source="row-13-15", branches=row_13_15))
    assert built["islands"] == []


def test_a_second_reestimate_builds_no_measurement_and_compiles_nothing(ieee14, monkeypatch):
    """A measurement-stage pair is re-estimated from the snapshot arrays on
    the standard layout's shared channels and compiled model: once one
    verdict has run, the next constructs no ``Measurement``, compiles no
    ``MeasurementModel`` and reads each record's bus rows once, in its
    ``snapshot``."""
    from gridsec import estimation, measmodel
    from gridsec.attacks import build_scenario_1a

    baseline, _ = fx.scenario_1a_records()
    first = run_pipeline(baseline, build_scenario_1a(), ieee14)
    built = {"measurements": [], "compiles": [], "snapshots": []}

    def spy(owner, name, what, source):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            built[what].append(source(self))
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(estimation.Measurement, "__post_init__", "measurements", lambda m: m.channel)
    spy(measmodel.MeasurementModel, "__init__", "compiles", lambda mm: None)
    spy(GridRecord, "snapshot", "snapshots", lambda r: r.source)
    report = run_pipeline(baseline, build_scenario_1a(), ieee14)
    assert report.to_json() == first.to_json() and report.text == first.text
    assert built["measurements"] == [] and built["compiles"] == []
    assert sorted(built["snapshots"]) == sorted([baseline.source, report.report["snapshot"]])


def test_a_second_verdict_on_one_model_builds_no_compile_key(monkeypatch):
    """The residual test compiles the standard layout once per model
    object: a second verdict, on a stored chi-square (post-SE and the 1A
    fixture pair) or re-estimated (the 1A baseline and vector), builds no
    ``measmodel`` compile key and gives the same report."""
    from gridsec import measmodel
    from gridsec.attacks import build_scenario_1a
    from gridsec.network import build_ieee14

    model = build_ieee14()
    pairs = [
        (fx.post_se_baseline_record(), fx.scenario_2a_record()),
        fx.scenario_1a_records(),
        (fx.scenario_1a_records()[0], build_scenario_1a()),
    ]
    first = [run_pipeline(base, attacked, model).to_json() for base, attacked in pairs]
    keys = []

    class Key(measmodel._Key):
        def __new__(cls, parts):
            keys.append(parts)
            return super().__new__(cls, parts)

    monkeypatch.setattr(measmodel, "_Key", Key)
    assert [run_pipeline(base, attacked, model).to_json() for base, attacked in pairs] == first
    assert keys == []


def _reference(model, record):
    """The residual test's re-estimate of ``record`` through the
    measurement objects: J, or the pipeline's text of its error."""
    try:
        return wls_estimate_ac(model, measurements_from_record(record, model.base_mva)).j_value
    except EstimationError as exc:
        return f"record {record.source!r}: {exc}"


def _direct(model, baseline, snapshot):
    """The residual test's J in ``run_pipeline``, or the text of its error."""
    try:
        return run_pipeline(baseline, snapshot, model).verdict.bdd_chi2
    except EstimationError as exc:
        return str(exc)


def test_the_residual_test_reestimates_as_wls_of_the_record_measurements(ieee14, outcomes):
    """The re-estimate reads the snapshot's arrays, z = [V, -P, -Q], yet
    gives the J of ``wls_estimate_ac(model, measurements_from_record(...))``
    bit for bit, or the same error text: on seeded noisy solved catalog
    records with one gross error, the shipped 1A/1B baselines and their
    attack vectors, a post-SE pair with no stored chi-square (whose
    baseline is estimated) and a dead island's NaN rows."""
    from gridsec.attacks import build_scenario_1a, build_scenario_1b
    from gridsec.network import apply_topology_corruption, build_topology
    from gridsec.powerflow import solve

    rng = np.random.default_rng(27)
    solved = [oc.record for oc in outcomes if oc.record is not None]
    flagged = 0
    for k in rng.choice(len(solved), size=8, replace=False):
        record = solved[k]
        bus, column = int(rng.integers(1, 15)), ("v_pu", "p_mw", "q_mvar")[int(rng.integers(3))]
        size = rng.uniform(0.03, 0.15) if column == "v_pu" else rng.uniform(15.0, 60.0)
        rows = []
        for r in record.buses:
            r = replace(r, v_pu=r.v_pu + rng.normal(0.0, 0.01),
                        p_mw=r.p_mw + rng.normal(0.0, 2.0), q_mvar=r.q_mvar + rng.normal(0.0, 2.0))
            rows.append(replace(r, **{column: getattr(r, column) + size}) if r.bus == bus else r)
        snapshot = replace(record, buses=rows, source=f"gross-{column}-{bus}", extras={})
        j = _direct(ieee14, record, snapshot)
        assert j == _reference(ieee14, snapshot), snapshot.source
        flagged += isinstance(j, float) and j > 100.0
    assert flagged >= 4

    for builder, vector in ((fx.scenario_1a_records, build_scenario_1a()),
                            (fx.scenario_1b_records, build_scenario_1b(noise=True, seed=3))):
        baseline, _ = builder()
        assert _direct(ieee14, baseline, baseline) == _reference(ieee14, baseline) > 100.0
        attacked = vector.apply_to_record(baseline, base_mva=ieee14.base_mva)
        assert _direct(ieee14, baseline, vector) == _reference(ieee14, attacked) > 200.0

    baseline, snapshot = fx.post_se_baseline_record(), fx.scenario_2a_record()
    for r in (baseline, snapshot):
        del r.extras["bdd_chi2"]
    assert snapshot.extras["stage"] == "post-se"
    assert _direct(ieee14, baseline, snapshot) == _reference(ieee14, baseline) > 100.0

    solved14 = GridRecord.from_solution(ieee14, solve(ieee14), source="solved")
    topo = apply_topology_corruption(build_topology(ieee14), [(9, 14), (13, 14)])
    dead = GridRecord.from_solution(ieee14, solve(ieee14, topo), topo, source="isolated-14")
    text = "record 'isolated-14': non-finite measurement on channel Vm bus 14: value nan, sigma 0.01"
    assert _direct(ieee14, solved14, dead) == _reference(ieee14, dead) == text


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


def test_pipeline_scales_power_by_the_model_base(ieee14):
    """A clean solved record of a 200 MVA case against itself passes the
    residual test: the re-estimate reads MW and Mvar on the model's base,
    where a fixed 100 MVA gave J = 111.988 and BadData."""
    from gridsec.powerflow import solve

    model = replace(ieee14, base_mva=200.0)
    record = GridRecord.from_solution(model, solve(model), source="solved-200")
    report = run_pipeline(record, record, model)
    assert report.verdict.bdd_chi2 < 1e-9 and not report.report["bdd"]["flagged"]
    assert report.verdict.klass is VerdictClass.NORMAL


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
