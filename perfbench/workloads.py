"""The benchmark's four workloads.

Each workload has three parts:

* ``setup()``: the program's one-time public set-up calls, timed as
  ``setup_s`` together with ``import gridsec``.
* ``generate(seed, ctx)``: seeded inputs, never timed. The same seed gives
  the same inputs; the returned ``Inputs`` also says what they are made of.
* a list of ``Op``: one call into the program each, timed as one
  operation, and a check of its output, run untimed right after it.

Why these four (see README.md for the longer account):

* ``sweep``: the analyst's stealth-range map, the one heavy workload.
  Nearly all its time is AC WLS on the 42-channel injection layout.
* ``detect``: the operator's closed loop, one verdict at a time; the
  share of estimation is small and detection, pipeline, stats and records
  carry the rest.
* ``bdd``: bad-data identification on 114-122-channel full telemetry from
  a flat start; the flow rows, the normalized-residual covariance and
  re-estimation after each removal, none of which ``sweep`` touches.
* ``cli``: short commands as users run them, each in a fresh interpreter,
  where start-up and ``import gridsec`` dominate.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"
DATA = ROOT / "src" / "gridsec" / "data"

# Paper settings of the stealth-range study (Table 4).
SWEEP_POINTS = 300
SWEEP_WINDOW = (0.95, 1.10)
SWEEP_NERC = (0.95, 1.05)
SWEEP_THRESHOLD = 89.5
SWEEP_DELTA = 1e-8

# The operator's traffic mix is not given by the paper or the program, so
# this one is an assumption: each of the five pair kinds (clean, single
# gross error, the 1A/1B vectors, state delta, breaker flip) gets one
# sixth of the pairs, clean pairs two sixths. Clean pairs and 1A/1B are
# split evenly between the two residual-test paths. That makes 42 % of
# the pairs re-estimated; the runner reports the latency of each path
# apart, so a change to the mix moves ``p50_ms`` but not those figures.
DETECT_POOL = {
    # kind: (pairs, label is an attack, residual test re-estimates)
    "clean/measurement": (64, False, True),
    "clean/post-se": (64, False, False),
    "gross-error/measurement": (64, True, True),
    "scenario-vector/measurement": (32, True, True),
    "scenario-fixture/stored-chi2": (32, True, False),
    "state-delta/post-se": (64, True, False),
    "breaker-flip/post-se": (64, True, False),
}

BDD_SETS_PER_POINT = 12  # x 28 solved catalog points = 336 sets
BDD_BANDS_SIGMA = ((10, 30), (30, 100), (100, 300), (300, 1000), (1000, 2500))
ISLANDED_POINTS = ("table5-27", "table5-29")


@dataclass
class Op:
    """One call into the program and the check of what it returned."""

    kind: str
    call: Callable[..., Any]
    # judge(output) -> (correct, matched). ``correct`` is False only when
    # the output contradicts its check; ``matched`` is the quality verdict.
    judge: Callable[[Any], tuple[bool, bool]]
    # Exceptions the program is known to raise on this input: a failure,
    # but not a wrong output. Any other exception makes the run incorrect.
    expected_errors: tuple[type[BaseException], ...] = ()
    # Latencies are also reported per group (detect: the residual path).
    group: str | None = None


@dataclass
class Inputs:
    ops: list[Op]
    composition: dict[str, Any]


@dataclass
class Outcome:
    kind: str
    cpu_s: float  # this process's and its children's; see run.run_unit
    start: float  # time.perf_counter() at the call
    wall_s: float
    error: str | None = None
    correct: bool = True
    matched: bool = False

    @property
    def ok(self) -> bool:
        """Returned an output that passed its check."""
        return self.error is None and self.correct

    @property
    def failed(self) -> bool:
        """Contradicted its check: a wrong output, an output the check
        cannot read, or an exception the operation does not expect."""
        return not self.correct


def shares(labels: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for lbl in labels:
        out[lbl] = out.get(lbl, 0.0) + 1.0
    return {k: round(v / len(labels), 4) for k, v in sorted(out.items())}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def setup_sweep() -> dict:
    from gridsec import network

    return {"model": network.build_ieee14()}


def sweep_baseline(seed: int, model):
    """Seed 0: the shipped fixture unchanged. Other seeds: the fixture plus
    Gaussian noise at the fixture's own per-channel sigmas."""
    from gridsec import fixtures
    from gridsec.estimation import MeasurementSet

    base = fixtures.sweep_baseline_measurements(model)
    if seed == 0:
        return base
    rng = np.random.default_rng([seed, 1])
    noise = rng.normal(0.0, base.sigmas)
    return MeasurementSet(
        [replace(m, value=m.value + float(d)) for m, d in zip(base.entries, noise)]
    )


class SweepOracle:
    """Direct re-evaluation of single sweep candidates, the way the sweep
    itself evaluates them (same warm start, tolerance and threshold)."""

    def __init__(self, model, baseline) -> None:
        from gridsec import estimation

        self.model = model
        self.baseline = baseline
        self.est = estimation
        self.grid = np.linspace(SWEEP_WINDOW[0], SWEEP_WINDOW[1], SWEEP_POINTS)
        self.in_band = (self.grid >= SWEEP_NERC[0] - 1e-12) & (self.grid <= SWEEP_NERC[1] + 1e-12)
        self.warm = estimation.wls_estimate_ac(model, baseline, delta=SWEEP_DELTA).x_hat
        self._cache: dict[tuple[int, int], bool] = {}

    def detected(self, bus: int, k: int) -> bool:
        key = (bus, k)
        if key not in self._cache:
            idx = self.baseline.index_of(self.est.MeasKind.VM, bus)
            res = self.est.wls_estimate_ac(
                self.model,
                self.baseline.replaced(idx, float(self.grid[k])),
                delta=SWEEP_DELTA,
                x0=self.est.StateVector(v=self.warm.v.copy(), theta=self.warm.theta.copy()),
            )
            self._cache[key] = res.j_value > SWEEP_THRESHOLD
        return self._cache[key]

    def _grid_index(self, value: float) -> int | None:
        k = int(np.argmin(np.abs(self.grid - value)))
        return k if abs(self.grid[k] - value) <= 1e-12 else None

    def check(self, rng) -> bool:
        """Each reported endpoint and its outside neighbour, re-solved."""
        bus = rng.bus
        if rng.empty:
            k0 = int(np.argmin(np.abs(self.grid - rng.original_v)))
            if rng.note == "nearest candidate already detected":
                return self.detected(bus, k0)
            if rng.note == "undetected span lies outside the NERC band":
                # One undetected run around k0 that never enters the band:
                # the in-band candidate nearest the original is detected.
                band = np.flatnonzero(self.in_band)
                kb = int(band[np.argmin(np.abs(band - k0))])
                return not self.detected(bus, k0) and not self.in_band[k0] and self.detected(bus, kb)
            return rng.note.startswith("undetected set fragments")
        if not (rng.start <= rng.end and math.isclose(rng.width, rng.end - rng.start, abs_tol=1e-12)):
            return False
        for value, edge, step in ((rng.start, SWEEP_NERC[0], -1), (rng.end, SWEEP_NERC[1], +1)):
            k = self._grid_index(value)
            if k is None:
                # Clipped to the band edge: the last in-band candidate and
                # the out-of-band one beyond it are both undetected.
                if value != edge:
                    return False
                band = np.flatnonzero(self.in_band)
                k_in = int(band[0] if step < 0 else band[-1])
                if self.detected(bus, k_in) or self.detected(bus, k_in + step):
                    return False
            else:
                # An unclipped endpoint is undetected and its outside
                # neighbour (if the window has one) is detected.
                if not self.in_band[k] or self.detected(bus, k):
                    return False
                nb = k + step
                if 0 <= nb < SWEEP_POINTS and not self.detected(bus, nb):
                    return False
        return True


def _range_doc(rng) -> dict:
    return {"bus": rng.bus, "start": rng.start, "end": rng.end, "empty": rng.empty}


def load_sweep_reference() -> dict[int, dict]:
    doc = json.loads((REFS / "sweep_seed0.json").read_text())
    return {int(r["bus"]): r for r in doc["ranges"]}


def same_range(a: dict, b: dict) -> bool:
    if a["empty"] or b["empty"]:
        return a["empty"] == b["empty"]
    return abs(a["start"] - b["start"]) <= 1e-12 and abs(a["end"] - b["end"]) <= 1e-12


def generate_sweep(seed: int, ctx: dict) -> Inputs:
    from gridsec import attacks

    model = ctx["model"]
    baseline = sweep_baseline(seed, model)
    oracle = SweepOracle(model, baseline)
    reference = load_sweep_reference() if seed == 0 else None

    def make(bus: int) -> Op:
        def call():
            return attacks.sweep_stealth_range(
                model, baseline, bus, n_points=SWEEP_POINTS, window=SWEEP_WINDOW,
                nerc=SWEEP_NERC, threshold=SWEEP_THRESHOLD,
            )

        def judge(out) -> tuple[bool, bool]:
            rng, points = out
            ok = rng.bus == bus and len(points) == SWEEP_POINTS and oracle.check(rng)
            if reference is not None:
                ok = ok and same_range(_range_doc(rng), reference[bus])
            return ok, ok

        return Op(f"bus{bus}", call, judge)

    ops = [make(bus) for bus in range(1, model.n_bus + 1)]
    return Inputs(ops, {"buses": len(ops), "points_per_bus": SWEEP_POINTS, "noise": seed != 0})


# ---------------------------------------------------------------------------
# detect
# ---------------------------------------------------------------------------

def setup_detect() -> dict:
    from gridsec import detection, network, scenarios

    model = network.build_ieee14()
    outcomes = scenarios.generate_all(model)
    solved = [oc for oc in outcomes if oc.record is not None]
    stats = detection.fit_baseline(
        [oc.record.snapshot(model.base_mva) for oc in solved], [oc.spec.id for oc in solved]
    )
    return {"model": model, "stats": stats}


def _solved_record(model, factors: np.ndarray, source: str):
    """Power-flow record of the case with every load scaled per bus."""
    from gridsec import powerflow
    from gridsec.records import GridRecord

    for b, f in zip(model.buses, factors):
        if b.p_load or b.q_load:
            model = model.with_bus(b.id, replace(b, p_load=b.p_load * f, q_load=b.q_load * f))
    sol = powerflow.solve(model)
    if not sol.converged:
        return None
    return GridRecord.from_solution(model, sol, source=source)


def _clean_pair(model, rng, stage: str):
    """Two NR solutions of the case a few percent of load apart."""
    while True:
        base_f = rng.normal(1.0, 0.05, model.n_bus)
        snap_f = base_f * rng.normal(1.0, 0.02, model.n_bus)
        base = _solved_record(model, base_f, "seeded-baseline")
        snap = _solved_record(model, snap_f, "seeded-snapshot")
        if base is not None and snap is not None:
            break
    if stage == "post-se":
        base.extras = {"stage": "post-se", "bdd_chi2": 0.0}
        snap.extras = {"stage": "post-se", "bdd_chi2": 0.0}
    return base, snap


def _detect_pair(kind: str, model, rng):
    from gridsec import attacks, fixtures

    if kind == "clean/measurement":
        return _clean_pair(model, rng, "measurement")
    if kind == "clean/post-se":
        return _clean_pair(model, rng, "post-se")
    if kind == "gross-error/measurement":
        base, snap = _clean_pair(model, rng, "measurement")
        bus = int(rng.integers(1, model.n_bus + 1))
        sign = float(rng.choice([-1.0, 1.0]))
        column = ("v_pu", "p_mw", "q_mvar")[int(rng.integers(3))]
        size = rng.uniform(0.03, 0.15) if column == "v_pu" else rng.uniform(15.0, 60.0)
        rows = [
            replace(r, **{column: getattr(r, column) + sign * size}) if r.bus == bus else r
            for r in snap.buses
        ]
        return base, replace(snap, buses=rows, source=f"gross-error-{column}-{bus}")
    if kind == "scenario-vector/measurement":
        base, _ = _clean_pair(model, rng, "measurement")
        if rng.random() < 0.5:
            return base, attacks.build_scenario_1a()
        return base, attacks.build_scenario_1b(noise=True, seed=int(rng.integers(1 << 16)))
    if kind == "scenario-fixture/stored-chi2":
        if rng.random() < 0.5:
            return fixtures.scenario_1a_records()
        return fixtures.scenario_1b_records(seed=int(rng.integers(1 << 16)))
    base, _ = _clean_pair(model, rng, "post-se")
    if kind == "state-delta/post-se":
        loads = [r.bus for r in base.buses if r.p_mw > 1.0 and r.bus != 1]
        flipped = rng.choice(loads, size=3, replace=False)
        delta = attacks.StateDelta.from_changes(
            model.n_bus,
            dv={int(b): float(rng.uniform(0.005, 0.02)) for b in flipped},
            dtheta_deg={int(b): float(rng.uniform(-2.0, 2.0)) for b in flipped},
            dp_mw={int(b): -2.0 * base.bus_row(int(b)).p_mw for b in flipped},
        )
        snap = attacks.manipulate_state_vector(base, delta)
        return base, snap
    if kind == "breaker-flip/post-se":
        live = [(br.from_bus, br.to_bus) for br in base.branches if br.in_service]
        flip = live[int(rng.integers(len(live)))]
        return base, attacks.corrupt_topology_record(base, [flip])
    raise ValueError(kind)


def detect_pairs(seed: int, model) -> list[tuple[str, Any, Any]]:
    """(kind, baseline record, snapshot record or attack vector) in the
    order the closed loop sends them. Counts per kind are fixed."""
    rng = np.random.default_rng([seed, 2])
    plan = [kind for kind, (count, _, _) in DETECT_POOL.items() for _ in range(count)]
    plan = [plan[i] for i in rng.permutation(len(plan))]
    return [(kind, *_detect_pair(kind, model, rng)) for kind in plan]


def generate_detect(seed: int, ctx: dict) -> Inputs:
    from gridsec import pipeline
    from gridsec.cli import ATTACK_CLASSES

    model, stats = ctx["model"], ctx["stats"]
    pairs = detect_pairs(seed, model)
    plan = [kind for kind, _, _ in pairs]

    def make(kind: str, baseline, attacked) -> Op:
        is_attack = DETECT_POOL[kind][1]

        def call():
            return pipeline.run_pipeline(baseline, attacked, model, baseline_stats=stats)

        def judge(report) -> tuple[bool, bool]:
            v = report.verdict
            klass = v.klass.value
            correct = report.report["class"] == klass and (klass == "BadData") == (
                v.bdd_chi2 > v.bdd_threshold
            )
            return correct, (klass in ATTACK_CLASSES) == is_attack

        return Op(kind, call, judge, group="reestimated" if DETECT_POOL[kind][2] else "stored-chi2")

    ops = [make(*pair) for pair in pairs]
    recompute = [DETECT_POOL[k][2] for k in plan]
    return Inputs(
        ops,
        {
            "pairs": len(ops),
            "kind_share": shares(plan),
            "reestimated_share": round(sum(recompute) / len(plan), 4),
            "stored_chi2_share": round(1 - sum(recompute) / len(plan), 4),
            "attack_share": round(sum(DETECT_POOL[k][1] for k in plan) / len(plan), 4),
        },
    )


# ---------------------------------------------------------------------------
# bdd
# ---------------------------------------------------------------------------

def setup_bdd() -> dict:
    from gridsec import network

    return {"model": network.build_ieee14()}


def bdd_sets(seed: int, model) -> list[dict]:
    """Full-telemetry sets from every solved catalog point, islanded ones
    included, each with 0-2 gross errors of 10 to 2500 sigma (up to 50 p.u.
    on a power channel). Counts per error number, band and catalog point
    are fixed; which channel, how large within the band and the sign are
    drawn from the seed."""
    from gridsec import estimation, scenarios

    rng = np.random.default_rng([seed, 3])
    points = [oc for oc in scenarios.generate_all(model) if oc.record is not None]
    order = [points[i] for _ in range(BDD_SETS_PER_POINT) for i in rng.permutation(len(points))]
    n_sets = len(order)
    n_errors = [i % 3 for i in range(n_sets)]
    n_errors = [n_errors[i] for i in rng.permutation(n_sets)]
    total = sum(n_errors)
    bands = [i % len(BDD_BANDS_SIGMA) for i in range(total)]
    bands = [bands[i] for i in rng.permutation(total)]
    out = []
    for oc, count in zip(order, n_errors):
        ms = estimation.full_telemetry_from_state(
            oc.model, oc.solution.v, oc.solution.theta, oc.topology, noise_rng=rng
        )
        entries = list(ms.entries)
        chosen = sorted(int(i) for i in rng.choice(len(entries), size=count, replace=False))
        set_bands = []
        for i in chosen:
            band = bands.pop()
            lo, hi = BDD_BANDS_SIGMA[band]
            size = math.exp(rng.uniform(math.log(lo), math.log(hi))) * entries[i].sigma
            entries[i] = replace(entries[i], value=entries[i].value + float(rng.choice([-1.0, 1.0])) * size)
            set_bands.append(band)
        out.append(
            {
                "point": oc.spec.id,
                "model": oc.model,
                "topology": oc.topology,
                "measurements": estimation.MeasurementSet(entries),
                "injected": chosen,
                "bands": set_bands,
            }
        )
    return out


def generate_bdd(seed: int, ctx: dict) -> Inputs:
    from gridsec import estimation, stats

    # Divergence at large magnitudes and the islanded points raise these
    # at the seed commit; they count as failures, not as wrong outputs.
    known = (estimation.EstimationError, estimation.ObservabilityError)

    sets = bdd_sets(seed, ctx["model"])

    def make(s: dict) -> Op:
        ms, model, topo = s["measurements"], s["model"], s["topology"]
        n_state = 2 * model.n_bus - 1

        def call():
            threshold = stats.chi_square_threshold(len(ms) - n_state)
            result, removed = estimation.iterative_bad_data_removal(
                model, ms, threshold, topology=topo
            )
            return threshold, result, removed

        def judge(out) -> tuple[bool, bool]:
            threshold, result, removed = out
            correct = (
                result.j_value <= threshold
                and len(set(removed)) == len(removed)
                and all(0 <= i < len(ms) for i in removed)
                and len(result.measurements) + len(removed) == len(ms)
            )
            return correct, sorted(removed) == s["injected"]

        kind = f"errors{len(s['injected'])}" + ("/islanded" if s["point"] in ISLANDED_POINTS else "")
        return Op(kind, call, judge, expected_errors=known)

    band_labels = [f"{BDD_BANDS_SIGMA[b][0]}-{BDD_BANDS_SIGMA[b][1]}sigma" for s in sets for b in s["bands"]]
    return Inputs(
        [make(s) for s in sets],
        {
            "sets": len(sets),
            "channels": [min(len(s["measurements"]) for s in sets), max(len(s["measurements"]) for s in sets)],
            "error_count_share": shares([str(len(s["injected"])) for s in sets]),
            "magnitude_band_share": shares(band_labels),
            "islanded_share": round(sum(s["point"] in ISLANDED_POINTS for s in sets) / len(sets), 4),
        },
    )


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def setup_cli() -> dict:
    import gridsec.cli  # noqa: F401  (what every command imports)

    return {}


# Fixed-input commands, compared with the outputs recorded at the seed
# commit (refs/cli.json). ``{data}`` is the shipped fixture directory.
CLI_FIXED: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    # (name, argv, output files compared besides stdout)
    ("solve", ("solve",), ()),
    ("solve-open", ("solve", "--open", "2,4"), ()),
    ("scenario-run", ("scenario", "run", "--all"), ()),
    ("baseline-fit", ("baseline-fit", "--out", "baseline.json"), ("baseline.json",)),
    ("detect-1a", ("detect", "--baseline", "{data}/scenario1a_baseline.csv",
                   "--snapshot", "{data}/scenario1a_attacked.csv", "--stats", "baseline.json"), ()),
    ("detect-1b", ("detect", "--baseline", "{data}/scenario1b_baseline.csv",
                   "--snapshot", "{data}/scenario1b_attacked.csv", "--stats", "baseline.json"), ()),
    ("detect-2a", ("detect", "--baseline", "{data}/post_se_baseline.csv",
                   "--snapshot", "{data}/scenario2a.csv", "--stats", "baseline.json"), ()),
    ("detect-2b", ("detect", "--baseline", "{data}/post_se_baseline.csv",
                   "--snapshot", "{data}/scenario2b.csv", "--stats", "baseline.json"), ()),
    ("detect-2c", ("detect", "--baseline", "{data}/post_se_baseline.csv",
                   "--snapshot", "{data}/scenario2c.csv", "--stats", "baseline.json"), ()),
    ("detect-2d", ("detect", "--baseline", "{data}/post_se_baseline.csv",
                   "--snapshot", "{data}/scenario2d.csv", "--stats", "baseline.json"), ()),
    ("som-arrange", ("som", "arrange", "--dir", "{data}/som/reference"), ()),
    ("som-verify", ("som", "verify", "--dir", "{data}/som/reference",
                    "--arrangement", "{data}/som/reference/arrangement.json"), ()),
    ("som-diff-3b", ("som", "diff", "--reference", "{data}/som/reference",
                     "--dir", "{data}/som/scenario3b"), ()),
    ("som-diff-3c", ("som", "diff", "--reference", "{data}/som/reference",
                     "--dir", "{data}/som/scenario3c"), ()),
    ("chi2", ("chi2", "--df", "15"), ()),
)

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def same_text(a: str, b: str, rtol: float = 1e-9) -> bool:
    """Equal text, except that numbers may differ in their last digits."""
    if _NUMBER.split(a) != _NUMBER.split(b):
        return False
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        fx, fy = float(x), float(y)
        if abs(fx - fy) > rtol * max(1.0, abs(fx), abs(fy)):
            return False
    return True


def cli_command(argv: list[str], cwd: Path, spans: Path | None = None) -> subprocess.CompletedProcess:
    """Run one gridsec command in a fresh interpreter, as the console
    script would; with ``spans`` the interpreter records spans there."""
    cmd = [sys.executable, str(HERE / "cli_entry.py")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(cmd + ["--", *argv], cwd=cwd, env=env, capture_output=True, text=True)


@dataclass
class CliResult:
    returncode: int
    stdout: str
    files: dict[str, str]


def cli_seeded(seed: int, model):
    """Seeded inputs of the cli script: a 42-channel measurement set of the
    solved case with default-sigma noise, and the attack-vector seed."""
    from gridsec import estimation, powerflow

    rng = np.random.default_rng([seed, 4])
    sol = powerflow.solve(model)
    ms = estimation.measurements_from_state(model, sol.v, sol.theta, noise_rng=rng)
    return ms, int(rng.integers(1 << 16))


def generate_cli(seed: int, ctx: dict) -> Inputs:
    """The fixed command script plus three seeded commands. ``ctx["work"]``
    is the directory the commands run in and write to."""
    from gridsec import attacks, estimation, network

    work = ctx["work"]
    model = network.build_ieee14()
    ms, attack_seed = cli_seeded(seed, model)
    (work / "measurements.csv").write_text(estimation.measurements_to_csv(ms))
    expected_chi2 = estimation.wls_estimate_ac(model, ms, delta=1e-6).j_value
    expected_1b = attacks.build_scenario_1b(noise=True, seed=attack_seed).to_json() + "\n"
    refs = json.loads((REFS / "cli.json").read_text())

    def make(name: str, argv: tuple[str, ...], files: tuple[str, ...], judge) -> Op:
        args = [a.replace("{data}", str(DATA)) for a in argv]

        def call(spans: Path | None = None) -> CliResult:
            for f in files:
                (work / f).unlink(missing_ok=True)
            proc = cli_command(args, work, spans)
            return CliResult(
                proc.returncode,
                proc.stdout,
                {f: (work / f).read_text() for f in files if (work / f).exists()},
            )

        return Op(name, call, judge)

    def fixed_judge(name: str):
        ref = refs[name]

        def judge(out: CliResult) -> tuple[bool, bool]:
            ok = (
                out.returncode == ref["returncode"]
                and same_text(out.stdout, ref["stdout"])
                and set(out.files) == set(ref["files"])
                and all(same_text(out.files[f], ref["files"][f]) for f in out.files)
            )
            return ok, ok

        return judge

    def estimate_judge(out: CliResult) -> tuple[bool, bool]:
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            return False, False
        ok = (
            out.returncode == (1 if doc["flagged"] else 0)
            and doc["converged"]
            and abs(doc["chi2"] - expected_chi2) <= 1e-9 * max(1.0, expected_chi2)
        )
        return ok, ok

    def stealth_judge(out: CliResult) -> tuple[bool, bool]:
        try:
            doc = json.loads(out.stdout)
        except ValueError:
            return False, False
        ok = out.returncode == 0 and doc["provenance"] == "StealthFromC" and len(doc["deltas"]) > 0
        return ok, ok

    def scenario_1b_judge(out: CliResult) -> tuple[bool, bool]:
        ok = out.returncode == 0 and same_text(out.stdout, expected_1b)
        return ok, ok

    ops = [make(name, argv, files, fixed_judge(name)) for name, argv, files in CLI_FIXED]
    # The seeded commands go where a user would run them: estimate after
    # solve, the attack vectors before the display tools.
    ops.insert(2, make("estimate", ("estimate", "--measurements", "measurements.csv"), (), estimate_judge))
    at = next(i for i, op in enumerate(ops) if op.kind == "som-arrange")
    ops[at:at] = [
        make("attack-stealth", ("attack", "stealth", "--seed", str(attack_seed)), (), stealth_judge),
        make("attack-1b", ("attack", "1b", "--noise", "--seed", str(attack_seed)), (), scenario_1b_judge),
    ]
    return Inputs(ops, {"commands": len(ops), "seeded_commands": 3, "fresh_interpreter": True})


WORKLOADS = {
    "sweep": (setup_sweep, generate_sweep),
    "detect": (setup_detect, generate_detect),
    "bdd": (setup_bdd, generate_bdd),
    "cli": (setup_cli, generate_cli),
}
