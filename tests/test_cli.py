import csv
import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsec import attacks, estimation
from gridsec import fixtures as fx
from gridsec.cli import main
from gridsec.records import GridRecord


@pytest.fixture()
def fixture_dir(tmp_path):
    fx.write_fixture_tree(tmp_path / "fx")
    return tmp_path / "fx"


def run(args):
    return main(args)


def test_solve_writes_record(tmp_path):
    out = tmp_path / "sol.csv"
    assert run(["solve", "--out", str(out)]) == 0
    rec = GridRecord.load(out)
    assert rec.n_bus == 14
    assert len(rec.branches) == 20


def test_solve_with_open_breaker(tmp_path):
    out = tmp_path / "sol.csv"
    assert run(["solve", "--open", "9,10", "--out", str(out)]) == 0
    rec = GridRecord.load(out)
    row = rec.branch_row(9, 10)
    assert not row.in_service and row.p_mw == 0.0


def test_case_json(tmp_path):
    out = tmp_path / "case.json"
    assert run(["case", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["buses"]) == 14


def test_infinite_reactive_limits_leave_them_open_as_null_does(tmp_path):
    """q_min -inf and q_max +inf in a case file mean no limit, as null
    does: both cases solve to the same record."""
    assert run(["case", "--out", str(tmp_path / "case.json")]) == 0
    doc = json.loads((tmp_path / "case.json").read_text())
    records = []
    for q_min, q_max in ((None, None), (-math.inf, math.inf)):
        for bus in doc["buses"]:
            bus.update(q_min=q_min, q_max=q_max)
        case, out = tmp_path / f"case_{q_max}.json", tmp_path / f"solved_{q_max}.csv"
        case.write_text(json.dumps(doc))
        assert run(["solve", "--case", str(case), "--out", str(out)]) == 0
        records.append(out.read_text())
    assert records[0] == records[1]


def test_estimate_flags_bad_measurement(tmp_path):
    from gridsec.estimation import measurements_from_state, measurements_to_csv
    from gridsec.network import build_ieee14
    from gridsec.powerflow import solve as pf_solve

    model = build_ieee14()
    sol = pf_solve(model)
    ms = measurements_from_state(model, sol.v, sol.theta)
    clean = tmp_path / "clean.csv"
    clean.write_text(measurements_to_csv(ms))
    assert run(["estimate", "--measurements", str(clean)]) == 0

    bad = ms.replaced(3, ms.entries[3].value + 0.4)
    bad_file = tmp_path / "bad.csv"
    bad_file.write_text(measurements_to_csv(bad))
    out = tmp_path / "report.json"
    assert run(["estimate", "--measurements", str(bad_file), "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["flagged"] is True
    assert doc["suspect"] == 3


def test_estimate_ends_a_50_pu_injection_error_in_a_verdict(tmp_path):
    """Full telemetry with a 50 p.u. error on Pinj 7 ended in an exit-2
    'did not converge' error while every step was Gauss-Newton, and the
    42-channel standard layout with that error did so under the
    non-monotone step control too; under trust-region damping both
    converge, and ``estimate`` exits 1 with a JSON verdict whose suspect
    is the bad channel."""
    from gridsec.estimation import (
        MeasKind,
        full_telemetry_from_state,
        measurements_from_state,
        measurements_to_csv,
    )
    from gridsec.network import build_ieee14
    from gridsec.powerflow import solve as pf_solve

    model = build_ieee14()
    sol = pf_solve(model)
    for layout in (full_telemetry_from_state, measurements_from_state):
        ms = layout(model, sol.v, sol.theta)
        row = ms.index_of(MeasKind.PINJ, 7)
        bad_file, out = tmp_path / "pinj7.csv", tmp_path / "report.json"
        bad_file.write_text(measurements_to_csv(ms.replaced(row, ms.entries[row].value + 50.0)))
        assert run(["estimate", "--measurements", str(bad_file), "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        assert doc["converged"] is True and doc["iterations"] < 50
        assert doc["flagged"] is True and doc["suspect"] == row


def test_attack_vector_commands(tmp_path, capsys):
    assert run(["attack", "1a"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["deltas"]["V3"] == 0.08
    assert run(["attack", "1b", "--noise", "--seed", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["metadata"]["seed"] == 3
    assert run(["attack", "stealth", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["provenance"] == "StealthFromC"


def test_attack_topology_and_post_se(tmp_path):
    out = tmp_path / "corrupt.csv"
    assert run(["attack", "topology", "--flip", "2,4", "--out", str(out)]) == 0
    rec = GridRecord.load(out)
    assert not rec.branch_row(2, 4).in_service
    assert rec.branch_row(2, 4).p_mw == pytest.approx(56.1)

    out2 = tmp_path / "postse.csv"
    assert run(["attack", "post-se", "--dp", "4=-95.6", "--out", str(out2)]) == 0
    rec2 = GridRecord.load(out2)
    assert rec2.bus_row(4).p_mw == pytest.approx(-47.8)


def test_sweep_cli_log_format(tmp_path):
    log = tmp_path / "log.csv"
    ranges = tmp_path / "ranges.csv"
    assert run([
        "sweep", "--bus", "2", "--points", "60",
        "--out", str(log), "--ranges-out", str(ranges),
    ]) == 0
    rows = list(csv.reader(log.read_text().splitlines()))
    assert rows[0] == ["Bus", "Attack_Vm", "Original_Vm", "Detected", "Anomaly Detection"]
    assert len(rows) == 61
    assert {r[3] for r in rows[1:]} <= {"TRUE", "FALSE"}
    srows = list(csv.reader(ranges.read_text().splitlines()))
    assert srows[0][0] == "Bus No."
    assert srows[1][1] == "Generator"


def test_sweep_all_buses_estimates_the_baseline_once(tmp_path, monkeypatch):
    """Every bus of ``--all-buses`` sweeps from one baseline estimate; the
    sweep estimated it again for each of the 14 buses."""
    from gridsec import attacks, estimation

    calls = []

    def spy(*args, wls=estimation.estimate, **kwargs):
        calls.append(args)
        return wls(*args, **kwargs)

    monkeypatch.setattr(estimation, "estimate", spy)
    monkeypatch.setattr(attacks, "estimate", spy)
    monkeypatch.setattr(attacks, "_baseline_memo", None)
    argv = ["sweep", "--all-buses", "--points", "2", "--out", str(tmp_path / "log.csv")]
    assert run([*argv, "--ranges-out", str(tmp_path / "ranges.csv")]) == 0
    assert len(calls) == 1


def test_jobs_is_rejected():
    """``--jobs`` was accepted and ignored by sweep and scenario run; it is
    gone, so passing it is a usage error."""
    for argv in (["sweep", "--all-buses", "--points", "20", "--jobs", "4"],
                 ["scenario", "run", "--all", "--jobs", "2"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


@lru_cache(maxsize=1)
def _measurement_rows() -> tuple[list[str], ...]:
    """The cells of a noisy 42-channel measurement CSV of the solved case."""
    from gridsec.network import build_ieee14
    from gridsec.powerflow import solve

    model = build_ieee14()
    sol = solve(model)
    ms = estimation.measurements_from_state(model, sol.v, sol.theta, noise_rng=np.random.default_rng(5))
    return tuple(line.split(",") for line in estimation.measurements_to_csv(ms).splitlines())


# What the measurement fuzzer writes into a cell: numbers, the non-finite
# and out-of-range ones, text, kinds and locations.
_MEASUREMENT_CELLS = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "0", "-1", "1e-300", "abc", "",
                     "Vm", "Pflow", "Bogus", "15", "1-2", "2-1", "7-9", "1-14"]),
)


@settings(max_examples=80)
@given(
    cells=st.lists(st.tuples(st.integers(0, 41), st.integers(0, 3), _MEASUREMENT_CELLS), max_size=3),
    dropped=st.sets(st.integers(0, 41), max_size=6),
)
def test_fuzzed_measurement_csv_ends_in_a_verdict_or_one_error_line(cells, dropped):
    """A measurement CSV with fuzzed cells and dropped rows, read by
    ``measurements_from_csv`` and estimated by ``gridsec estimate``, ends
    in a verdict (exit 0 or 1, the JSON's ``flagged`` agreeing) or in one
    ``error:`` line and exit 2, never a traceback or a warning (which the
    command line prints on stderr); a set holding a value or sigma that is
    not finite never ends in an estimate."""
    header, *rows = (list(row) for row in _measurement_rows())
    for index, column, cell in cells:
        rows[index][column] = cell
    text = "\n".join(",".join(row) for row in [header, *rows] if not any(row is rows[i] for i in dropped))
    try:
        finite = all(
            math.isfinite(m.value) and math.isfinite(m.sigma)
            for m in estimation.measurements_from_csv(text).entries
        )
    except ValueError:
        finite = False
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "measurements.csv"
        path.write_text(text)
        with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--measurements", str(path)])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
        return
    assert code in (0, 1) and err.getvalue() == ""
    doc = json.loads(out.getvalue())
    assert doc["flagged"] is (code == 1) and math.isfinite(doc["chi2"])
    assert finite, text


def test_detect_exit_codes(tmp_path, fixture_dir):
    base = fixture_dir / "post_se_baseline.csv"
    assert run([
        "detect", "--baseline", str(base), "--snapshot", str(base), "--paper-compat",
    ]) == 0
    attacked = fixture_dir / "scenario2a.csv"
    out = tmp_path / "verdict.json"
    code = run([
        "detect", "--baseline", str(base), "--snapshot", str(attacked),
        "--paper-compat", "--json", str(out),
    ])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["class"] == "FdiPostSe"
    stressed = fixture_dir / "scenario2b.csv"
    assert run([
        "detect", "--baseline", str(base), "--snapshot", str(stressed), "--paper-compat",
    ]) == 0  # stress is not an attack class


def test_detect_reports_a_record_that_does_not_fit_as_a_usage_error(tmp_path, fixture_dir, capsys):
    """A 10-bus snapshot, a record CSV that cannot be parsed or does not
    exist, a branch row naming an unknown bus (was ``KeyError: 15`` in the
    snapshot and a verdict in the baseline), a repeated bus row or a NaN in a
    bus-only record ends in one ``error:`` line naming the file or the record
    and the bus, row or line, and exit 2."""
    from dataclasses import replace

    base = fixture_dir / "post_se_baseline.csv"
    record = GridRecord.load(base)
    short = tmp_path / "ten_buses.csv"
    short.write_text(replace(
        record,
        buses=[r for r in record.buses if r.bus <= 10],
        branches=[br for br in record.branches if max(br.from_bus, br.to_bus) <= 10],
    ).to_csv())
    broken = tmp_path / "broken.csv"
    broken.write_text(base.read_text().replace("\n3,", "\n3,x", 1))
    unknown_bus = tmp_path / "row_13_15.csv"
    unknown_bus.write_text(base.read_text().replace("\n13,14,", "\n13,15,", 1))
    lines = base.read_text().splitlines(keepends=True)
    bus_1 = next(i for i, ln in enumerate(lines) if ln.startswith("1,"))
    repeated = tmp_path / "bus_1_twice.csv"
    repeated.write_text("".join(lines[: bus_1 + 1] + lines[bus_1:]))
    # A measurement-stage record has no branch table, so every bus is in
    # the slack's island: a NaN at bus 5 was an EstimationError traceback.
    base_1a = GridRecord.load(fixture_dir / "scenario1a_baseline.csv")
    nan_1a = tmp_path / "nan_1a.csv"
    nan_1a.write_text(replace(base_1a, buses=[
        replace(r, v_pu=float("nan")) if r.bus == 5 else r for r in base_1a.buses
    ]).to_csv())
    expected = {
        (base, short): f"error: record '{record.source}': bus 11 missing; the model has buses 1..14",
        (base, broken): f"error: {broken}: record CSV line 5: ",
        (base, tmp_path / "nosuch.csv"): f"error: {tmp_path / 'nosuch.csv'}: No such file",
        (base, unknown_bus): f"error: record '{record.source}': branch 13-15 names a bus",
        (unknown_bus, base): f"error: record '{record.source}': branch 13-15 names a bus",
        (base, repeated): f"error: {repeated}: duplicate bus row for bus 1\n",
        (nan_1a, nan_1a): f"error: record '{base_1a.source}': non-finite v_pu at bus 5",
    }
    for (baseline, snapshot), message in expected.items():
        assert run(["detect", "--baseline", str(baseline), "--snapshot", str(snapshot)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1, captured.err


def test_detect_reports_a_non_finite_branch_value_as_a_usage_error(tmp_path, fixture_dir, capsys):
    """A NaN or infinite P, Q or loss on branch 1-2, in service on the
    slack's island, or on the open row 7-8, and a NaN loss on the
    in-service row 10-11 of the island that opening 9-10 and 6-11 cuts
    off, each classified Normal or read as a flow (a loss as ``System
    losses: 14.8401 -> nan MW``); now, in the snapshot or the baseline,
    each ends in one ``error:`` line naming the record, the field and the
    branch, and exit 2."""
    base = fixture_dir / "post_se_baseline.csv"
    record = GridRecord.load(base)
    text = base.read_text()

    def edited(rows: dict[str, dict[int, str]]) -> str:
        out = text
        for prefix, cells in rows.items():
            row = next(ln for ln in text.splitlines() if ln.startswith(prefix))
            new = row.split(",")
            for column, value in cells.items():
                new[column] = value
            out = out.replace(row, ",".join(new))
        return out

    opened = {2: "Open", 3: "Open", 4: "0", 5: "0", 6: "0"}
    cases = [({"9,10,": opened, "6,11,": opened, "10,11,": {6: "nan"}}, "loss_mw", "10-11")]
    for column, field in ((4, "p_mw"), (5, "q_mvar"), (6, "loss_mw")):
        for value in ("nan", "-inf"):
            cases.append(({"1,2,": {column: value}}, field, "1-2"))
            cases.append(({"7,8,": {**opened, column: value}}, field, "7-8"))
    for k, (rows, field, branch) in enumerate(cases):
        bad = tmp_path / f"bad_{k}.csv"
        bad.write_text(edited(rows))
        message = f"error: record '{record.source}': non-finite {field} on branch {branch}\n"
        for pair in ((base, bad), (bad, base)):
            assert run(["detect", "--baseline", str(pair[0]), "--snapshot", str(pair[1])]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", message)


def test_detect_reports_a_bad_config_or_stats_file_as_a_usage_error(tmp_path, fixture_dir, capsys):
    """Each of these printed a traceback (KeyError, ValueError,
    JSONDecodeError, KeyError, FileNotFoundError twice, and for a NaN rule
    constant ZeroDivisionError), or read a NaN constant and changed the
    verdict; now one ``error:`` line names the file."""
    files = {
        "unknown_key.conf": ("--config", "no_such_key = 1\n", "unknown config key 'no_such_key'"),
        "method_key.conf": ("--config", "from_file = 1\n", "unknown config key 'from_file' on line 1"),
        "nan_dv.conf": ("--config", "# 1A pair\nzip_small_dv_frac = nan\n",
                        "zip_small_dv_frac = nan on line 2: expected a finite number"),
        "nan_dp.conf": ("--config", "zip_min_dp_frac = nan\n",
                        "zip_min_dp_frac = nan on line 1: expected a finite number"),
        "not_a_number.conf": ("--config", "gradient_max = steep\n",
                              "gradient_max = steep on line 1: expected a number"),
        "malformed.json": ("--stats", '{"mu": [1', "Expecting"),
        "no_mu.json": ("--stats", '{"scale": [1]}', "baseline statistics lack key 'mu'"),
        "nosuch.conf": ("--config", None, "No such file or directory"),
        "nosuch.json": ("--stats", None, "No such file or directory"),
    }
    pair = ["--baseline", str(fixture_dir / "post_se_baseline.csv"),
            "--snapshot", str(fixture_dir / "scenario2a.csv")]
    for name, (flag, text, message) in files.items():
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        assert run(["detect", *pair, flag, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}"), captured.err
        assert captured.err.count("\n") == 1, captured.err


def test_baseline_fit_and_detect_with_stats(tmp_path, fixture_dir):
    stats = tmp_path / "baseline.json"
    assert run(["baseline-fit", "--out", str(stats)]) == 0
    base = fixture_dir / "scenario1a_baseline.csv"
    snap = fixture_dir / "scenario1a_attacked.csv"
    out = tmp_path / "verdict.json"
    code = run([
        "detect", "--baseline", str(base), "--snapshot", str(snap),
        "--stats", str(stats), "--paper-compat", "--json", str(out),
    ])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["class"] == "StealthAttack"
    assert doc["bdd"]["chi2"] == 42.8
    assert doc["feature"]["chi2"] > doc["feature"]["threshold"]


def test_detect_reestimates_a_measurement_baseline_against_itself(fixture_dir, capsys):
    """The 1A baseline holds no stored chi-square, so its residual test
    is our own WLS of its bus table, not the attacked snapshot's 42.8."""
    from gridsec.estimation import wls_estimate_ac
    from gridsec.network import build_ieee14
    from gridsec.pipeline import measurements_from_record

    base = fixture_dir / "scenario1a_baseline.csv"
    run(["detect", "--baseline", str(base), "--snapshot", str(base)])
    out = capsys.readouterr().out
    record = GridRecord.load(base)
    model = build_ieee14()
    j = wls_estimate_ac(model, measurements_from_record(record, model.base_mva), delta=1e-6).j_value
    assert "chi2 = 42.8 " not in out
    assert f"Residual test: chi2 = {round(j, 6):g} vs threshold 24.9958" in out


def test_scenario_list_and_run(tmp_path, capsys):
    assert run(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert out.count("table5-") == 30
    out_dir = tmp_path / "records"
    assert run(["scenario", "run", "--id", "table5-08", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "table5-08.csv").exists()
    assert run(["scenario", "run", "--id", "table5-17"]) == 0
    assert "FLAGGED" in capsys.readouterr().out


def test_som_arrange_verify_diff(tmp_path, fixture_dir, capsys):
    ref_dir = fixture_dir / "som" / "reference"
    out = tmp_path / "arrangement.json"
    assert run(["som", "arrange", "--dir", str(ref_dir), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["unique"] is True
    assert doc["solutions"][0][0][0] == "seg7"

    assert run([
        "som", "verify", "--dir", str(ref_dir),
        "--arrangement", str(ref_dir / "arrangement.json"),
    ]) == 0

    code = run([
        "som", "diff", "--dir", str(fixture_dir / "som" / "scenario3b"),
        "--reference", str(ref_dir), "--out", str(tmp_path / "diff.json"),
    ])
    assert code == 1
    findings = json.loads((tmp_path / "diff.json").read_text())
    assert len(findings) == 1
    assert findings[0]["data"]["breaker"] == "CB6_13"

    code = run([
        "som", "diff", "--dir", str(ref_dir), "--reference", str(ref_dir),
    ])
    assert code == 0


def test_display_commands_match_the_benchmark_references(capsys):
    """The display commands and ``chi2`` print what the benchmark's cli
    workload recorded, byte for byte, with the same exit code."""
    refs = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "refs"
                       / "cli.json").read_text())
    for name in ("som-arrange", "som-verify", "som-diff-3b", "som-diff-3c", "chi2"):
        ref = refs[name]
        argv = [arg.replace("{data}", str(fx.DATA_DIR)) for arg in ref["argv"]]
        assert run(argv) == ref["returncode"], name
        assert capsys.readouterr().out == ref["stdout"], name


def test_detect_scales_power_by_the_case_base(tmp_path):
    """``detect --case`` with a 200 MVA case passes a clean solved record
    against itself; the re-estimate scaled power by 100 MVA and printed
    chi2 = 111.988 -> BAD DATA."""
    case, record, out = tmp_path / "case200.json", tmp_path / "solved.csv", tmp_path / "v.json"
    assert run(["case", "--out", str(case)]) == 0
    doc = json.loads(case.read_text())
    doc["base_mva"] = 200.0
    case.write_text(json.dumps(doc))
    assert run(["solve", "--case", str(case), "--out", str(record)]) == 0
    assert run(["detect", "--case", str(case), "--baseline", str(record),
                "--snapshot", str(record), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bdd"]["chi2"] < 1e-9 and not doc["bdd"]["flagged"]


def test_readme_config_example_parses(tmp_path):
    """The README's ``--config`` example is a file ``RuleConfig.from_file``
    accepts, so it cannot drift from the config's fields."""
    from gridsec.detection import RuleConfig

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("`--config FILE`", 1)[1].split("```\n", 2)[1]
    conf = tmp_path / "example.conf"
    conf.write_text(example)
    cfg = RuleConfig.from_file(conf)
    for line in example.splitlines():
        key, _, val = line.partition("=")
        assert getattr(cfg, key.strip()) == float(val)


def test_chi2_command(capsys):
    assert run(["chi2", "--df", "71"]) == 0
    assert capsys.readouterr().out.strip().startswith("91.67")
    assert run(["chi2", "--df", "71", "--paper-compat"]) == 0
    assert capsys.readouterr().out.strip() == "89.500000"


def test_config_file_flows_into_detect(tmp_path, fixture_dir):
    cfg = tmp_path / "rules.conf"
    cfg.write_text("loss_ratio_max = 5.0\n")  # surge rule effectively off
    base = fixture_dir / "post_se_baseline.csv"
    snap = fixture_dir / "scenario2b.csv"
    out = tmp_path / "v.json"
    run(["detect", "--baseline", str(base), "--snapshot", str(snap),
         "--paper-compat", "--config", str(cfg), "--json", str(out)])
    doc = json.loads(out.read_text())
    assert all(f["rule"] != "LossSurge" for f in doc["findings"])


def test_usage_error_exit_code(tmp_path, capsys, monkeypatch):
    """Missing arguments, options a command does not take, input files that
    are missing or malformed (measurement, case, record, segment and
    arrangement files, an arrangement that is not n rows of n ids, a case
    number that is not finite, a bus id or branch end that is missing or
    not an integer, a missing bus kind), arguments
    out of range (sweep, attack post-se and its slack row, estimate, chi2,
    som diff),
    a sweep candidate and a measurement file that WLS does not converge
    (within a budget cut to 10 evaluations; both converge within 50), a
    record whose header fields, dead island or negative voltage the detector
    cannot use, and segment files of the wrong shape (each was a traceback, or a silently
    ignored option, and exit 1 or 0) exit 2, with one ``error:`` line naming
    what is wrong. The library checks the values; ``main`` maps the error."""
    for argv in (["estimate"], ["sweep", "--bus", "2", "--open", "2,4"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    capsys.readouterr()
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("kind,location,value,sigma\nVm,1,high,0.004\n")
    not_json = tmp_path / "README.md"
    not_json.write_text("# not a case\n")
    nosuch_case = tmp_path / "nosuch.json"
    list_case = tmp_path / "list.json"
    list_case.write_text("[]")
    int_buses = tmp_path / "int_buses.json"
    int_buses.write_text('{"buses": 3}')
    int_cells = tmp_path / "int_cells.json"
    int_cells.write_text('{"cells": 5}')
    # A 2x2 display given as one row of four ids printed PASS with exit 0.
    two_by_two = tmp_path / "two_by_two"
    two_by_two.mkdir()
    for sid, markers in (("seg1", '["L1_2_E"]'), ("seg2", '["L2_1_W"]'), ("seg3", "[]"),
                         ("seg4", "[]")):
        (two_by_two / f"{sid}.json").write_text(f'{{"id": "{sid}", "markers": {markers}}}')
    one_row = tmp_path / "one_row.json"
    one_row.write_text('{"cells": [["seg1", "seg2", "seg3", "seg4"]]}')
    from dataclasses import replace

    from gridsec.estimation import MeasKind, measurements_from_state, measurements_to_csv
    from gridsec.network import build_ieee14
    from gridsec.powerflow import solve as pf_solve

    model = build_ieee14()
    sol = pf_solve(model)
    ms = measurements_from_state(model, sol.v, sol.theta)
    row = ms.index_of(MeasKind.PINJ, 7)
    slow = tmp_path / "slow.csv"
    slow.write_text(measurements_to_csv(ms.replaced(row, ms.entries[row].value + 50.0)))
    well_formed = tmp_path / "well_formed.csv"
    well_formed.write_text(measurements_to_csv(ms))
    # The open breakers cut bus 14 off and solve leaves it NaN; the record
    # has no stage, so detect re-estimates it (was an EstimationError
    # traceback with exit 1).
    # A negative voltage magnitude in the slack's island was classed
    # FdiPostSe with exit 1.
    post_se = fx.post_se_baseline_record()
    post_se_file, negative_v = tmp_path / "post_se.csv", tmp_path / "negative_v.csv"
    post_se_file.write_text(post_se.to_csv())
    negative_v.write_text(replace(post_se, buses=[
        replace(r, v_pu=-r.v_pu) if r.bus == 13 else r for r in post_se.buses
    ]).to_csv())
    solved, dead_island = tmp_path / "solved.csv", tmp_path / "dead_island.csv"
    assert run(["solve", "--out", str(solved)]) == 0
    assert run(["solve", "--open", "9,14", "--open", "13,14", "--out", str(dead_island)]) == 0
    capsys.readouterr()
    # bdd_chi2=nan and -5 classified Normal with exit 0, abc named neither
    # file nor field, and stage=bogus was read as measurement.
    headers = {}
    body = solved.read_text().split("\n", 1)[1]
    for field in ("bdd_chi2=nan", "bdd_chi2=-5", "bdd_chi2=abc", "stage=bogus"):
        headers[field] = tmp_path / f"header_{len(headers)}.csv"
        headers[field].write_text(f"#gridrecord,source=edited,{field}\n{body}")
    no_segments = tmp_path / "no_segments"
    no_segments.mkdir()
    bad_marker = tmp_path / "bad_marker"
    bad_marker.mkdir()
    (bad_marker / "seg1.json").write_text('{"id": "seg1", "markers": ["XY_1"]}')
    not_json_seg = tmp_path / "not_json_seg"
    not_json_seg.mkdir()
    (not_json_seg / "seg1.json").write_text("seg1: not json")
    list_seg = tmp_path / "list_seg"
    list_seg.mkdir()
    (list_seg / "seg1.json").write_text('["id"]')
    bad_display = {}
    for name, display in (("key", '{"x": 1.0}'), ("value", '{"12": "high"}')):
        bad_display[name] = tmp_path / f"bad_display_{name}"
        bad_display[name].mkdir()
        (bad_display[name] / "seg1.json").write_text(
            f'{{"id": "seg1", "markers": [], "bus_display": {display}}}'
        )
    # Each was an AttributeError or TypeError traceback, or (the NaN
    # voltage) a segment the search accepted.
    bad_shape = {}
    for name, fields in (("bus_display", '"bus_display": [1]'), ("markers", '"markers": 5'),
                         ("marker", '"markers": [5]'), ("voltage", '"bus_display": {"12": "nan"}')):
        bad_shape[name] = tmp_path / f"bad_shape_{name}"
        bad_shape[name].mkdir()
        (bad_shape[name] / "seg1.json").write_text(f'{{"id": "seg1", {fields}}}')
    fx.write_fixture_tree(tmp_path / "fx")
    som_data = tmp_path / "fx" / "som"
    # A NaN slack setpoint was a PowerFlowError traceback with exit 1; a NaN
    # r, and an infinite base_mva, wrote a NaN record with exit 0.
    assert run(["case", "--out", str(tmp_path / "case.json")]) == 0
    bad_case = {}
    for field, value in (("v_setpoint", math.nan), ("r", math.nan), ("base_mva", math.inf)):
        doc = json.loads((tmp_path / "case.json").read_text())
        row = {"v_setpoint": doc["buses"][0], "r": doc["branches"][0]}.get(field, doc)
        row[field] = value
        bad_case[field] = tmp_path / f"bad_case_{field}.json"
        bad_case[field].write_text(json.dumps(doc))
    # A bus id of 4.7 or true, or a branch end of 2.5, was read with int()
    # and solved with exit 0; a missing kind printed only "kind", and an
    # unknown kind or breaker state named neither row nor field.
    bad_ids = {}
    for name, table, row, key, value in (
        ("id 4.7", "buses", 3, "id", 4.7), ("id true", "buses", 3, "id", True),
        ("from 2.5", "branches", 2, "from", 2.5), ("no id", "buses", 3, "id", None),
        ("no kind", "buses", 3, "kind", None), ("no to", "branches", 2, "to", None),
        ("kind Foo", "buses", 3, "kind", "Foo"), ("breaker Shut", "branches", 2, "breaker_to", "Shut"),
    ):
        doc = json.loads((tmp_path / "case.json").read_text())
        if value is None:
            del doc[table][row][key]
        else:
            doc[table][row][key] = value
        bad_ids[name] = tmp_path / f"bad_ids_{len(bad_ids)}.json"
        bad_ids[name].write_text(json.dumps(doc))
    cases = [
        (["estimate", "--measurements", str(tmp_path / "nosuch.csv")],
         f"{tmp_path / 'nosuch.csv'}: No such file or directory"),
        (["estimate", "--measurements", str(malformed)], f"{malformed}: measurement CSV line 2: "),
        (["solve", "--case", str(nosuch_case)], f"{nosuch_case}: No such file or directory"),
        (["solve", "--case", str(not_json)], f"{not_json}: Expecting value"),
        (["sweep", "--case", str(nosuch_case), "--bus", "2"], f"{nosuch_case}: No such file"),
        (["detect", "--case", str(not_json), "--baseline", "b.csv", "--snapshot", "s.csv"],
         f"{not_json}: Expecting value"),
        (["sweep", "--points", "2", "--bus", "0"], "bus 0: the case has buses 1..14"),
        (["sweep", "--points", "2", "--bus", "99"], "bus 99: the case has buses 1..14"),
        (["sweep", "--points", "2", "--bus", "2", "--window", "a,b"], "--window a,b: expected LOW,HIGH"),
        (["sweep", "--points", "2", "--bus", "2", "--nerc", "1"], "--nerc 1: expected LOW,HIGH"),
        (["sweep", "--points", "1", "--bus", "2"], "n_points 1: a sweep needs at least 2 points"),
        (["attack", "1a", "--open", "2,4"], "--open applies to attack stealth only"),
        (["attack", "topology", "--open", "2,4"], "--open applies to attack stealth only"),
        (["solve", "--open", "9,13"], "--open: no branch between buses 9 and 13"),
        (["solve", "--open", "a,b"], "--open a,b: expected F,T"),
        (["solve", "--open", "2"], "--open 2: expected F,T"),
        (["attack", "topology", "--flip", "9,13"], "--flip: no branch 9-13 in record"),
        (["solve", "--case", str(list_case)], f"{list_case}: expected a JSON object"),
        (["solve", "--case", str(int_buses)], f"{int_buses}: buses: expected a list of objects"),
        (["solve", "--case", str(bad_case["v_setpoint"])],
         f"{bad_case['v_setpoint']}: bus 1: v_setpoint nan: expected a finite number above 0"),
        (["solve", "--case", str(bad_case["r"])], f"{bad_case['r']}: branch 1-2: r nan: expected a finite number"),
        (["solve", "--case", str(bad_case["base_mva"])],
         f"{bad_case['base_mva']}: base_mva inf: expected a finite number above 0"),
        (["solve", "--case", str(bad_ids["id 4.7"])],
         f"{bad_ids['id 4.7']}: bus row 4: id 4.7: expected an integer bus id"),
        (["solve", "--case", str(bad_ids["id true"])],
         f"{bad_ids['id true']}: bus row 4: id True: expected an integer bus id"),
        (["solve", "--case", str(bad_ids["from 2.5"])],
         f"{bad_ids['from 2.5']}: branch row 3: from 2.5: expected an integer bus id"),
        (["solve", "--case", str(bad_ids["no id"])], f"{bad_ids['no id']}: bus row 4: id: missing"),
        (["solve", "--case", str(bad_ids["no kind"])], f"{bad_ids['no kind']}: bus row 4: kind: missing"),
        (["solve", "--case", str(bad_ids["no to"])], f"{bad_ids['no to']}: branch row 3: to: missing"),
        (["solve", "--case", str(bad_ids["kind Foo"])],
         f"{bad_ids['kind Foo']}: bus row 4: kind 'Foo': expected one of Slack, Generator, Load"),
        (["solve", "--case", str(bad_ids["breaker Shut"])],
         f"{bad_ids['breaker Shut']}: branch 2-3: breaker_to 'Shut': expected one of Closed, Open"),
        (["sweep", "--bus", "2", "--points", "3", "--window", "50,60"],
         "bus 2: WLS did not converge in 10 iterations for candidate Vm 50.000000000"),
        (["estimate", "--measurements", str(slow)], f"{slow}: WLS did not converge in 10 iterations"),
        (["attack", "post-se", "--dv", "0=0.1"], "dv: bus 0 is outside buses 1..14"),
        (["attack", "post-se", "--dv", "99=0.1"], "dv: bus 99 is outside buses 1..14"),
        (["attack", "post-se", "--dq=-1=5"], "dq_mvar: bus -1 is outside buses 1..14"),
        (["attack", "post-se", "--dv", "4=abc"], "--dv 4=abc: expected BUS=VAL"),
        (["attack", "post-se", "--dv", "4"], "--dv 4: expected BUS=VAL"),
        (["attack", "post-se", "--dtheta", "4=nan"],
         "dtheta_deg: bus 4 delta nan: expected a finite number"),
        (["attack", "post-se", "--record", str(tmp_path / "nosuch.csv"), "--dv", "4=0.1"],
         f"{tmp_path / 'nosuch.csv'}: No such file or directory"),
        (["som", "verify", "--dir", str(no_segments)], "som verify needs --arrangement FILE"),
        (["som", "diff", "--dir", str(no_segments)], "som diff needs --reference DIR"),
        (["som", "arrange", "--dir", str(no_segments)],
         f"--dir {no_segments}: no seg*.json segment files"),
        (["som", "arrange", "--dir", str(bad_marker)],
         f"{bad_marker / 'seg1.json'}: marker 0: unknown marker token 'XY_1'"),
        (["som", "arrange", "--dir", str(not_json_seg)],
         f"{not_json_seg / 'seg1.json'}: not a JSON document"),
        (["som", "arrange", "--dir", str(list_seg)],
         f"{list_seg / 'seg1.json'}: segment document is not an object with an id"),
        (["som", "arrange", "--dir", str(bad_display["key"])],
         f"{bad_display['key'] / 'seg1.json'}: segment seg1: bus_display 'x': 1.0: "
         "expected a bus id and a voltage"),
        (["som", "arrange", "--dir", str(bad_display["value"])],
         f"{bad_display['value'] / 'seg1.json'}: segment seg1: bus_display '12': 'high': "
         "expected a bus id and a voltage"),
        (["chi2", "--df", "0"], "df 0: expected at least 1"),
        (["chi2", "--df", "15", "--alpha", "2"], "alpha 2.0: expected a number in (0, 1)"),
        (["chi2", "--df", "0", "--paper-compat"], "df 0: expected at least 1"),
        (["estimate", "--measurements", str(well_formed), "--delta", "0"],
         "delta 0.0: expected a finite number above 0"),
        (["estimate", "--measurements", str(well_formed), "--alpha", "0", "--paper-compat"],
         "alpha 0.0: expected a number in (0, 1)"),
        (["sweep", "--bus", "2", "--threshold", "nan"], "threshold nan: expected a finite number"),
        (["sweep", "--bus", "2", "--window", "1.1,0.95"], "window (1.1, 0.95): expected low <= high"),
        (["sweep", "--bus", "2", "--nerc", "nan,1.05"], "nerc (nan, 1.05): expected two numbers"),
        (["detect", "--baseline", str(solved), "--snapshot", str(dead_island)],
         "record 'powerflow': non-finite measurement on channel Vm bus 14"),
        (["detect", "--baseline", str(post_se_file), "--snapshot", str(negative_v)],
         f"record '{post_se.source}': non-positive v_pu {-post_se.bus_row(13).v_pu} at bus 13"),
        *(
            (["detect", "--baseline", str(solved), "--snapshot", str(path)],
             f"{path}: record CSV line 1: {field}: expected ")
            for field, path in headers.items()
        ),
        (["som", "arrange", "--dir", str(bad_shape["bus_display"])],
         f"{bad_shape['bus_display'] / 'seg1.json'}: segment seg1: bus_display [1]: expected"),
        (["som", "arrange", "--dir", str(bad_shape["markers"])],
         f"{bad_shape['markers'] / 'seg1.json'}: segment seg1: markers 5: expected"),
        (["som", "arrange", "--dir", str(bad_shape["marker"])],
         f"{bad_shape['marker'] / 'seg1.json'}: segment seg1: markers [5]: expected"),
        (["som", "arrange", "--dir", str(bad_shape["voltage"])],
         f"{bad_shape['voltage'] / 'seg1.json'}: segment seg1: displayed voltage nan at bus 12"),
        (["som", "diff", "--reference", str(som_data / "reference"),
          "--dir", str(som_data / "scenario3c"), "--volt-tol", "nan"],
         "volt_tol nan: expected a finite number >= 0"),
        (["som", "verify", "--dir", str(som_data / "reference"), "--arrangement", str(int_cells)],
         f"{int_cells}: cells 5: expected a list of lists of segment ids"),
        (["som", "verify", "--dir", str(two_by_two), "--arrangement", str(one_row)],
         f"{one_row}: cells: row lengths [4]: expected n rows of n segment ids"),
        # The slack row was rewritten (v_pu 1.11 at bus 1) with exit 0.
        (["attack", "post-se", "--dv", "1=0.05"], "dv: slack bus 1 delta 0.05: must be zero"),
    ]
    monkeypatch.setattr(estimation, "WLS_MAX_ITER", 10)
    monkeypatch.setattr(attacks, "WLS_MAX_ITER", 10)
    for argv, message in cases:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith(f"error: {message}"), captured.err
        assert captured.err.count("\n") == 1, captured.err
