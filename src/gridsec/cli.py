"""Command-line interface.

Exit codes: 0 success / nothing flagged, 1 an attack class or display
violation was detected, 2 usage error: a missing or unknown option (from
argparse), or an argument or input file the command cannot use (one
``error:`` line). Each value is checked once, in the library function that
uses it, which raises ValueError naming it; ``main`` maps any ValueError,
an EstimationError included, to that line and exit 2.

Each command imports the modules it uses when it runs, so a command
loads no more of the package than it needs; ``som`` and ``chi2`` run
without numpy.

BLAS runs on one thread. Before it dispatches, ``main`` sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1,
unless one of them is already set (the user's choice stands) or numpy is
already imported (the caller's process, whose BLAS pool exists already).
The largest dense product gridsec computes is about 122 x 27, far below
the size where a second BLAS thread pays; an idle OpenBLAS worker still
spins while a command runs and costs CPU, not wall time.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

from .stats import BDD_ALPHA, PAPER_CHI2_THRESHOLD, PAPER_PROFILE, DetectorProfile

ATTACK_CLASSES = {"BadData", "StealthAttack", "FdiPostSe"}


class UsageError(ValueError):
    """An option combination or input only the command line can get wrong,
    such as a missing ``--bus``; ``main`` maps it like any ValueError."""


def _read_input(path: str, parse):
    """``parse(path)``; an OSError, ValueError or KeyError becomes one
    UsageError that names the file."""
    try:
        return parse(path)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from None
    except (ValueError, KeyError) as exc:
        raise UsageError(f"{path}: {exc.args[0] if exc.args else exc}") from None


def _load_model(arg: str):
    from .network import build_ieee14, model_from_json

    if arg == "ieee14":
        return build_ieee14()
    return _read_input(arg, lambda p: model_from_json(Path(p).read_text()))


def _parse_pair(option: str, text: str) -> tuple[int, int]:
    """``F,T`` or ``F-T``: two bus ids."""
    f, _, t = text.replace("-", ",").partition(",")
    try:
        return int(f), int(t)
    except ValueError:
        raise UsageError(f"{option} {text}: expected F,T, two bus ids") from None


def _apply_pairs(option: str, texts: list[str], apply):
    """``apply`` to the bus pairs given to ``option``. A pair that is not
    two bus ids, or that names no branch (``apply`` raises KeyError), is a
    UsageError naming the option and the pair."""
    pairs = [_parse_pair(option, text) for text in texts]
    try:
        return apply(pairs)
    except KeyError as exc:
        raise UsageError(f"{option}: {exc.args[0]}") from None


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--case", default="ieee14", help="network case: 'ieee14' or a JSON case file")


def _add_open(p: argparse.ArgumentParser) -> None:
    p.add_argument("--open", action="append", default=[], metavar="F,T",
                   help="open the breaker pair on branch F-T (repeatable)")


def _topology_for(args, model):
    from .network import apply_topology_corruption, build_topology

    topo = build_topology(model)
    if args.open:
        topo = _apply_pairs("--open", args.open, lambda pairs: apply_topology_corruption(topo, pairs))
    return topo


def cmd_solve(args) -> int:
    from .powerflow import solve
    from .records import GridRecord

    model = _load_model(args.case)
    topo = _topology_for(args, model)
    sol = solve(model, topo)
    record = GridRecord.from_solution(model, sol, topo)
    _write_out(record.to_csv(), args.out)
    if not sol.converged:
        notes = "; ".join(r.note for r in sol.islands if r.note)
        print(f"warning: {notes or 'did not converge'}", file=sys.stderr)
    return 0


def cmd_estimate(args) -> int:
    import numpy as np

    from .estimation import (
        EstimationError,
        bdd_classify,
        measurements_from_csv,
        wls_estimate_ac,
    )

    model = _load_model(args.case)
    topo = _topology_for(args, model)
    ms = _read_input(args.measurements, lambda p: measurements_from_csv(Path(p).read_text()))
    args.profile.threshold(1, args.alpha)  # checks --alpha before estimating
    try:
        result = wls_estimate_ac(model, ms, delta=args.delta, topology=topo)
    except EstimationError as exc:
        raise UsageError(f"{args.measurements}: {exc}") from None
    df = len(ms) - result.measurement_model.n_state
    tau = args.profile.threshold(max(df, 1), args.alpha)
    verdict = bdd_classify(result, tau)
    doc = {
        "converged": result.converged,
        "iterations": result.iterations,
        "chi2": result.j_value,
        "threshold": tau,
        "flagged": verdict.flagged,
        "suspect": verdict.suspect,
        "v_pu": [round(float(x), 9) for x in result.x_hat.v],
        "theta_deg": [round(float(np.degrees(x)), 9) for x in result.x_hat.theta],
        "residuals": [round(float(r), 9) for r in result.residuals],
    }
    _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 1 if verdict.flagged else 0


def cmd_attack(args) -> int:
    import numpy as np

    from .attacks import (
        StateDelta,
        build_scenario_1a,
        build_scenario_1b,
        corrupt_topology_record,
        manipulate_state_vector,
        stealth_from_state_delta,
    )
    from .estimation import build_dc_jacobian
    from .records import GridRecord

    if args.open and args.kind != "stealth":
        raise UsageError(f"--open applies to attack stealth only, not attack {args.kind}")
    model = _load_model(args.case)
    if args.kind == "1a":
        _write_out(build_scenario_1a().to_json() + "\n", args.out)
        return 0
    if args.kind == "1b":
        _write_out(build_scenario_1b(noise=args.noise, seed=args.seed).to_json() + "\n", args.out)
        return 0
    if args.kind == "stealth":
        topo = _topology_for(args, model)
        h, labels = build_dc_jacobian(model, topo)
        rng = np.random.default_rng(args.seed)
        c = rng.normal(0.0, args.magnitude, h.shape[1])
        vector = stealth_from_state_delta(h, c, channels=labels)
        _write_out(vector.to_json() + "\n", args.out)
        return 0
    if args.record:
        record = _read_input(args.record, GridRecord.load)
    else:
        from .fixtures import post_se_baseline_record

        record = post_se_baseline_record()
    if args.kind == "post-se":
        delta = StateDelta.from_changes(
            model.n_bus,
            dv=_parse_kv("--dv", args.dv),
            dtheta_deg=_parse_kv("--dtheta", args.dtheta),
            dp_mw=_parse_kv("--dp", args.dp),
            dq_mvar=_parse_kv("--dq", args.dq),
        )
        corrupted = manipulate_state_vector(record, delta, model)
        _write_out(corrupted.to_csv(), args.out)
        return 0
    if args.kind == "topology":
        corrupted = _apply_pairs(
            "--flip", args.flip, lambda pairs: corrupt_topology_record(record, pairs)
        )
        _write_out(corrupted.to_csv(), args.out)
        return 0
    raise AssertionError(args.kind)


def _parse_kv(option: str, items) -> dict[int, float]:
    """``BUS=VAL`` items, a bus id and a number each; ``StateDelta`` checks the values."""
    out = {}
    for item in items or []:
        key, _, val = item.partition("=")
        try:
            out[int(key)] = float(val)
        except ValueError:
            raise UsageError(f"{option} {item}: expected BUS=VAL, a bus id and a number") from None
    return out


def _parse_range(option: str, text: str) -> tuple[float, float]:
    """``LOW,HIGH``: two numbers; ``sweep_stealth_range`` checks their values."""
    try:
        low, high = (float(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"{option} {text}: expected LOW,HIGH, two numbers") from None
    return low, high


def cmd_sweep(args) -> int:
    from .attacks import sweep_stealth_range
    from .fixtures import sweep_baseline_measurements

    model = _load_model(args.case)
    if args.all_buses:
        buses = list(range(1, model.n_bus + 1))
    elif args.bus is None:
        raise UsageError("provide --bus N or --all-buses")
    else:
        buses = [args.bus]
    window = _parse_range("--window", args.window)
    nerc = _parse_range("--nerc", args.nerc)
    baseline = sweep_baseline_measurements(model)
    results = {
        bus: sweep_stealth_range(
            model, baseline, bus,
            n_points=args.points, window=window, nerc=nerc, threshold=args.threshold,
        )
        for bus in buses
    }

    log_buf = io.StringIO()
    log = csv.writer(log_buf, lineterminator="\n")
    log.writerow(["Bus", "Attack_Vm", "Original_Vm", "Detected", "Anomaly Detection"])
    sum_buf = io.StringIO()
    summary = csv.writer(sum_buf, lineterminator="\n")
    summary.writerow(["Bus No.", "Bus type", "Stealth attack_start point",
                      "Stealth attack_end point", "Stealth attack_width",
                      "Original voltage"])
    for bus in sorted(results):
        rng, points = results[bus]
        for pt in points:
            log.writerow([pt.bus, "%.9f" % pt.attack_vm, "%.9f" % pt.original_vm,
                          "TRUE" if pt.detected else "FALSE", pt.label])
        kind = model.buses[bus - 1].kind.value
        if rng.empty:
            summary.writerow([bus, kind, "N/A", "N/A", "N/A", "%.9f" % rng.original_v])
        else:
            summary.writerow([bus, kind, "%.9f" % rng.start, "%.9f" % rng.end,
                              "%.9f" % rng.width, "%.9f" % rng.original_v])
    _write_out(log_buf.getvalue(), args.out)
    if args.ranges_out:
        Path(args.ranges_out).write_text(sum_buf.getvalue())
    else:
        sys.stdout.write(sum_buf.getvalue())
    return 0


def cmd_baseline_fit(args) -> int:
    from .detection import baseline_to_json, fit_baseline
    from .scenarios import generate_all

    model = _load_model(args.case)
    outcomes = generate_all(model)
    snapshots, sources = [], []
    skipped = []
    for oc in outcomes:
        if oc.record is not None:
            snapshots.append(oc.record.snapshot(model.base_mva))
            sources.append(oc.spec.id)
        else:
            skipped.append(f"{oc.spec.id}: {oc.error}")
    stats = fit_baseline(snapshots, sources)
    Path(args.out).write_text(baseline_to_json(stats))
    print(f"fitted baseline from {len(snapshots)} scenario records -> {args.out}")
    for line in skipped:
        print(f"skipped {line}", file=sys.stderr)
    return 0


def cmd_detect(args) -> int:
    from .detection import RuleConfig, baseline_from_json
    from .pipeline import run_pipeline
    from .records import GridRecord

    model = _load_model(args.case)
    stats, profile = None, args.profile
    if args.stats:
        stats = _read_input(args.stats, lambda p: baseline_from_json(Path(p).read_text()))
    if args.config:
        profile = profile._replace(rules=_read_input(args.config, RuleConfig.from_file))
    baseline, snapshot = (_read_input(p, GridRecord.load) for p in (args.baseline, args.snapshot))
    report = run_pipeline(baseline, snapshot, model, baseline_stats=stats, profile=profile)
    if args.json:
        Path(args.json).write_text(report.to_json() + "\n")
    sys.stdout.write(report.text)
    return 1 if report.verdict.klass.value in ATTACK_CLASSES else 0


def cmd_scenario(args) -> int:
    from .scenarios import TABLE5_SCENARIOS, generate_all, generate_scenario

    model = _load_model(args.case)
    if args.action == "list":
        for spec in TABLE5_SCENARIOS:
            print(f"{spec.id}  {spec.description}")
        return 0
    if args.all:
        outcomes = generate_all(model)
    else:
        spec = next((s for s in TABLE5_SCENARIOS if s.id == args.id), None)
        if spec is None:
            raise UsageError(f"unknown scenario id '{args.id}'")
        outcomes = [generate_scenario(model, spec)]
    out_dir = Path(args.out_dir) if args.out_dir else None
    failures = 0
    for oc in outcomes:
        if oc.record is None:
            failures += 1
            print(f"{oc.spec.id}: FLAGGED ({oc.error})")
            continue
        line = f"{oc.spec.id}: solved, losses {oc.solution.losses_mw:.3f} MW"
        print(line)
        if out_dir:
            out_dir.mkdir(parents=True, exist_ok=True)
            oc.record.save(out_dir / f"{oc.spec.id}.csv")
    return 0


def cmd_som(args) -> int:
    from .som import (
        GridArrangement,
        diff_against_reference,
        generate_constraints,
        parse_segments,
        solve_arrangement,
        verify_arrangement,
    )

    def segments(option: str, directory: str | None):
        if directory is None:
            raise UsageError(f"som {args.action} needs {option} DIR")
        paths = sorted(Path(directory).glob("seg*.json"))
        if not paths:
            raise UsageError(f"{option} {directory}: no seg*.json segment files")
        return parse_segments(paths)

    def read_arrangement(path: str) -> GridArrangement:
        doc = json.loads(Path(path).read_text())
        return GridArrangement(doc["cells"] if isinstance(doc, dict) else doc)

    if args.action == "arrange":
        segs = segments("--dir", args.dir)
        constraints = generate_constraints(segs)
        solutions = solve_arrangement(segs, constraints, args.n,
                                      max_solutions=args.max_solutions)
        doc = {
            "n": args.n,
            "solutions": [[list(row) for row in s.cells] for s in solutions],
            "count": len(solutions),
            "unique": len(solutions) == 1,
        }
        _write_out(json.dumps(doc, indent=2) + "\n", args.out)
        return 0
    if args.action == "verify":
        if args.arrangement is None:
            raise UsageError("som verify needs --arrangement FILE")
        segs = segments("--dir", args.dir)
        constraints = generate_constraints(segs)
        arrangement = _read_input(args.arrangement, read_arrangement)
        ok, violated = verify_arrangement(arrangement, segs, constraints)
        print("PASS" if ok else "FAIL")
        for c in violated:
            print(f"  violated: {c.kind.value} {c.detail}")
        return 0 if ok else 1
    if args.action == "diff":
        reference = segments("--reference", args.reference)
        candidate = segments("--dir", args.dir)
        findings = diff_against_reference(reference, candidate, volt_tol=args.volt_tol)
        doc = [
            {"rule": f.rule.value, "severity": f.severity.value,
             "message": f.message, "data": f.data}
            for f in findings
        ]
        _write_out(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
        violations = [f for f in findings if f.severity.value == "Violation"]
        return 1 if violations else 0
    raise AssertionError(args.action)


def cmd_chi2(args) -> int:
    print(f"{args.profile.threshold(args.df, args.alpha):.6f}")
    return 0


def cmd_fixtures(args) -> int:
    from .fixtures import write_fixture_tree

    created = write_fixture_tree(args.out)
    print(f"wrote {len(created)} fixture files under {args.out}")
    return 0


def cmd_case(args) -> int:
    from .network import build_ieee14, model_to_json

    _write_out(model_to_json(build_ieee14()) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsec",
        description="Power-grid EMS security workbench (14-bus study)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="AC power flow to a record CSV")
    _add_common(p)
    _add_open(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("estimate", help="WLS estimation + residual test on a measurement CSV")
    _add_common(p)
    _add_open(p)
    p.add_argument("--measurements", required=True)
    p.add_argument("--delta", type=float, default=1e-6)
    p.add_argument("--alpha", type=float, default=BDD_ALPHA)
    p.add_argument("--paper-compat", dest="profile", action="store_const",
                   const=PAPER_PROFILE, default=DetectorProfile())
    p.add_argument("--out")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("attack", help="construct attack vectors and corrupted records")
    p.add_argument("kind", choices=["stealth", "1a", "1b", "post-se", "topology"])
    _add_common(p)
    _add_open(p)
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--noise", action="store_true", help="1b: add seeded concealment noise")
    p.add_argument("--magnitude", type=float, default=0.01, help="stealth: std-dev of the state delta")
    p.add_argument("--record", help="post-se/topology: record CSV to corrupt (default: shipped baseline)")
    p.add_argument("--flip", action="append", default=[], metavar="F,T")
    p.add_argument("--dv", action="append", metavar="BUS=VAL")
    p.add_argument("--dtheta", action="append", metavar="BUS=VAL")
    p.add_argument("--dp", action="append", metavar="BUS=VAL")
    p.add_argument("--dq", action="append", metavar="BUS=VAL")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("sweep", help="per-bus stealth-range sweep")
    _add_common(p)
    p.add_argument("--bus", type=int)
    p.add_argument("--all-buses", action="store_true")
    p.add_argument("--points", type=int, default=300)
    p.add_argument("--window", default="0.95,1.10")
    p.add_argument("--nerc", default="0.95,1.05")
    p.add_argument("--threshold", type=float, default=PAPER_CHI2_THRESHOLD)
    p.add_argument("--out", help="per-point log CSV")
    p.add_argument("--ranges-out", help="range summary CSV")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("baseline-fit", help="fit the detector baseline from the scenario catalog")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_baseline_fit)

    p = sub.add_parser("detect", help="run the detection pipeline on a record pair")
    _add_common(p)
    p.add_argument("--baseline", required=True)
    p.add_argument("--snapshot", required=True)
    p.add_argument("--stats", help="baseline statistics artifact (JSON)")
    p.add_argument("--config", help="rule-constant config file (key = value lines)")
    p.add_argument("--paper-compat", dest="profile", action="store_const",
                   const=PAPER_PROFILE, default=DetectorProfile())
    p.add_argument("--json", help="write the JSON report here")
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("scenario", help="contingency catalog")
    p.add_argument("action", choices=["list", "run"])
    _add_common(p)
    p.add_argument("--id")
    p.add_argument("--all", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("som", help="display-segment arrangement tools")
    p.add_argument("action", choices=["arrange", "verify", "diff"])
    p.add_argument("--dir", required=True, help="segment JSON directory")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--max-solutions", type=int, default=100)
    p.add_argument("--arrangement", help="verify: arrangement JSON file")
    p.add_argument("--reference", help="diff: reference segment directory")
    p.add_argument("--volt-tol", type=float, default=0.005)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_som)

    p = sub.add_parser("chi2", help="chi-square detection threshold")
    p.add_argument("--df", type=int, required=True)
    p.add_argument("--alpha", type=float, default=BDD_ALPHA)
    p.add_argument("--paper-compat", dest="profile", action="store_const",
                   const=PAPER_PROFILE, default=DetectorProfile())
    p.set_defaults(fn=cmd_chi2)

    p = sub.add_parser("fixtures", help="materialize the shipped fixtures to a directory")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fixtures)

    p = sub.add_parser("case", help="print the 14-bus case as JSON")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_case)

    return parser


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> None:
    """Run BLAS on one thread unless numpy is loaded or a count was chosen."""
    if "numpy" in sys.modules or any(name in os.environ for name in BLAS_THREAD_VARS):
        return
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


def main(argv=None) -> int:
    _pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
