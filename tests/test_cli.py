import csv
import json

import pytest

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


def test_jobs_is_rejected():
    """``--jobs`` was accepted and ignored by sweep and scenario run; it is
    gone, so passing it is a usage error."""
    for argv in (["sweep", "--all-buses", "--points", "20", "--jobs", "4"],
                 ["scenario", "run", "--all", "--jobs", "2"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


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
    snapshot and a verdict in the baseline) or a NaN in a bus-only record
    ends in one ``error:`` line naming the file or the record and the bus,
    row or line, and exit 2."""
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
        (nan_1a, nan_1a): f"error: record '{base_1a.source}': non-finite v_pu at bus 5",
    }
    for (baseline, snapshot), message in expected.items():
        assert run(["detect", "--baseline", str(baseline), "--snapshot", str(snapshot)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1, captured.err


def test_detect_reports_a_bad_config_or_stats_file_as_a_usage_error(tmp_path, fixture_dir, capsys):
    """Each of these printed a traceback (KeyError, ValueError,
    JSONDecodeError, KeyError, FileNotFoundError twice); now one ``error:``
    line names the file."""
    files = {
        "unknown_key.conf": ("--config", "no_such_key = 1\n", "unknown config key 'no_such_key'"),
        "not_a_number.conf": ("--config", "gradient_max = steep\n", "could not convert"),
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
    j = wls_estimate_ac(build_ieee14(), measurements_from_record(record), delta=1e-6).j_value
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


def test_usage_error_exit_code(tmp_path, capsys):
    """Missing arguments, options a command does not take, input files that
    are missing or malformed, sweep arguments out of range, a sweep
    candidate and a measurement file that WLS does not converge (each was a
    traceback, or a silently ignored option, and exit 1 or 0) exit 2, with
    one ``error:`` line naming what is wrong."""
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
    from gridsec.estimation import MeasKind, measurements_from_state, measurements_to_csv
    from gridsec.network import build_ieee14
    from gridsec.powerflow import solve as pf_solve

    model = build_ieee14()
    sol = pf_solve(model)
    ms = measurements_from_state(model, sol.v, sol.theta)
    row = ms.index_of(MeasKind.PINJ, 7)
    diverging = tmp_path / "diverging.csv"
    diverging.write_text(measurements_to_csv(ms.replaced(row, ms.entries[row].value + 50.0)))
    cases = [
        (["estimate", "--measurements", str(tmp_path / "nosuch.csv")],
         f"{tmp_path / 'nosuch.csv'}: No such file or directory"),
        (["estimate", "--measurements", str(malformed)], f"{malformed}: measurement CSV line 2: "),
        (["solve", "--case", str(nosuch_case)], f"{nosuch_case}: No such file or directory"),
        (["solve", "--case", str(not_json)], f"{not_json}: Expecting value"),
        (["sweep", "--case", str(nosuch_case), "--bus", "2"], f"{nosuch_case}: No such file"),
        (["detect", "--case", str(not_json), "--baseline", "b.csv", "--snapshot", "s.csv"],
         f"{not_json}: Expecting value"),
        (["sweep", "--points", "2", "--bus", "0"], "--bus 0: the case has buses 1..14"),
        (["sweep", "--points", "2", "--bus", "99"], "--bus 99: the case has buses 1..14"),
        (["sweep", "--points", "2", "--bus", "2", "--window", "a,b"], "--window a,b: expected LOW,HIGH"),
        (["sweep", "--points", "2", "--bus", "2", "--nerc", "1"], "--nerc 1: expected LOW,HIGH"),
        (["sweep", "--points", "1", "--bus", "2"], "--points 1: a sweep needs at least 2 points"),
        (["attack", "1a", "--open", "2,4"], "--open applies to attack stealth only"),
        (["attack", "topology", "--open", "2,4"], "--open applies to attack stealth only"),
        (["solve", "--open", "9,13"], "--open: no branch between buses 9 and 13"),
        (["solve", "--open", "a,b"], "--open a,b: expected F,T"),
        (["solve", "--open", "2"], "--open 2: expected F,T"),
        (["attack", "topology", "--flip", "9,13"], "--flip: no branch 9-13 in record"),
        (["solve", "--case", str(list_case)], f"{list_case}: expected a JSON object"),
        (["solve", "--case", str(int_buses)], f"{int_buses}: buses: expected a list of objects"),
        (["sweep", "--bus", "2", "--points", "3", "--window", "50,60"],
         "bus 2: WLS did not converge in 50 iterations for candidate Vm 50.000000000"),
        (["estimate", "--measurements", str(diverging)],
         f"{diverging}: WLS did not converge in 50 iterations"),
    ]
    for argv, message in cases:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith(f"error: {message}"), captured.err
        assert captured.err.count("\n") == 1, captured.err
