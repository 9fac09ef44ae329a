"""Study fixtures: the transcribed tables of the 14-bus security study,
the builders of the seeded snapshots and the sweep baseline, and loaders
for the records and display segments shipped as files under ``data/``.

Values quoted in the study are frozen verbatim; table entries the study
never states are filled from the solved standard case and marked so in
comments. Everything here is deterministic.
"""

from __future__ import annotations

import json
import shutil
from functools import lru_cache
from pathlib import Path

import numpy as np

from .attacks import build_scenario_1a, build_scenario_1b
from .estimation import MeasurementSet, measurements_from_state
from .network import NetworkModel, build_ieee14
from .powerflow import solve
from .records import BusRow, GridRecord
from .som import SegmentDescriptor, parse_segments

__all__ = [
    "TABLE4_ORIGINAL_V",
    "TABLE4_RANGES",
    "TABLE3_BUS2_POINTS",
    "SWEEP_SIGMA_VM",
    "SWEEP_SIGMA_POWER",
    "sweep_baseline_state",
    "sweep_baseline_measurements",
    "scenario_1a_records",
    "scenario_1b_records",
    "post_se_baseline_record",
    "scenario_2a_record",
    "scenario_2b_record",
    "scenario_2c_record",
    "scenario_2d_record",
    "som_reference_segments",
    "som_reference_arrangement_cells",
    "som_scenario_3b_segments",
    "som_scenario_3c_segments",
    "DATA_DIR",
    "write_fixture_tree",
]

# ---------------------------------------------------------------------------
# Stealth-range study (attack point 1)
# ---------------------------------------------------------------------------

# Baseline bus voltages of the stealth-range study ("original voltage"
# column), bus 1 through 14.
TABLE4_ORIGINAL_V: tuple[float, ...] = (
    1.061987,
    1.044446943,
    1.012590754,
    1.023762973,
    1.018577246,
    1.069063452,
    1.067836384,
    1.093069739,
    1.054053823,
    1.053154865,
    1.055052848,
    1.053325644,
    1.051349563,
    1.027876825,
)

# Reported stealth ranges per bus: (start, end, width) or None where the
# study reports no admissible range.
TABLE4_RANGES: dict[int, tuple[float, float, float] | None] = {
    1: None,
    2: (1.034569138, 1.044388778, 0.009819639),
    3: (1.002705411, 1.01252505, 0.009819639),
    4: (1.013927856, 1.023747495, 0.009819639),
    5: (1.008717435, 1.018537074, 0.009819639),
    6: None,
    7: None,
    8: None,
    9: (1.044188377, 1.05, 0.005811623),
    10: (1.043186373, 1.05, 0.006813627),
    11: (1.045190381, 1.05, 0.004809619),
    12: (1.043386774, 1.05, 0.006613226),
    13: (1.041382766, 1.05, 0.008617234),
    14: (1.017935872, 1.027955912, 0.01002004),
}

# Sample of the published bus-2 sweep log: (attack_vm, detected).
TABLE3_BUS2_POINTS: tuple[tuple[float, bool], ...] = (
    (1.033277592, True),
    (1.033779264, True),
    (1.034280936, True),
    (1.034782609, False),
    (1.035284281, False),
    (1.035785953, False),
    (1.036287625, False),
    (1.036789298, False),
    (1.03729097, False),
    (1.037792642, False),
    (1.038294314, False),
    (1.038795987, False),
    (1.039297659, False),
    (1.039799331, False),
    (1.040301003, False),
    (1.040802676, False),
    (1.041304348, False),
    (1.04180602, False),
    (1.042307692, False),
    (1.042809365, False),
    (1.043311037, False),
    (1.043812709, False),
    (1.044314381, False),
    (1.044816054, True),
    (1.045317726, True),
    (1.045819398, True),
)

# Sweep measurement noise, calibrated so the chi-square evasion boundary
# sits near +/-0.0053 p.u. on the fixture state, which reproduces the
# published range structure (interior widths ~0.0098-0.0100 p.u., high
# buses clipped at the 1.05 band edge) on the default 300-point grid.
SWEEP_SIGMA_VM = 5.47e-4
SWEEP_SIGMA_POWER = 1.0e-4


@lru_cache(maxsize=1)
def _canonical_solution():
    model = build_ieee14()
    return model, solve(model)


def sweep_baseline_state(model: NetworkModel | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fixture operating state: the study's baseline voltages with angles
    from the solved case (the standard one unless a variant is passed)."""
    if model is None or model == _canonical_solution()[0]:
        sol = _canonical_solution()[1]
    else:
        if model.n_bus != len(TABLE4_ORIGINAL_V):
            raise ValueError("the sweep fixture is defined for the 14-bus case")
        sol = solve(model)
    return np.array(TABLE4_ORIGINAL_V), sol.theta.copy()


def sweep_baseline_measurements(model: NetworkModel | None = None) -> MeasurementSet:
    """Self-consistent measurement snapshot of the fixture state with the
    calibrated sweep noise model."""
    if model is None:
        model = _canonical_solution()[0]
    v0, th0 = sweep_baseline_state(model)
    return measurements_from_state(
        model, v0, th0, sigma_vm=SWEEP_SIGMA_VM, sigma_power=SWEEP_SIGMA_POWER
    )


# ---------------------------------------------------------------------------
# Coordinated measurement attacks (scenarios 1A / 1B)
# ---------------------------------------------------------------------------

# Baseline P in p.u. (consumption positive). Attacked channels carry the
# study's quoted baselines; the rest follow the standard case loads, with
# bus 1 showing the slack output.
_P1_BASE_COMMON = {
    1: -2.324, 2: 0.2163, 5: 0.076, 6: 0.112, 7: 0.0, 8: 0.0,
    10: 0.090, 11: 0.035, 12: 0.061, 14: 0.149,
}
_Q1_BASE = (-0.169, 0.127, 0.19, -0.039, 0.016, 0.075, 0.0, 0.0,
            0.166, 0.058, 0.018, 0.016, 0.058, 0.05)

_S1A_P_OVERRIDES = {3: 0.9399, 4: 0.478, 9: 0.2937, 13: 0.135}
_S1A_V_OVERRIDES = {3: 1.0100, 6: 1.0711, 11: 1.0552}
_S1B_P_OVERRIDES = {3: 0.942, 4: 0.4809, 9: 0.2960, 13: 0.1316}
_S1B_V_OVERRIDES = {2: 1.0466, 4: 1.0176, 6: 1.0719, 11: 1.0594}

# Chi-square values the study reports for the attacked snapshots; the
# noise realization behind them is unstated, so they ride along as fixture
# constants rather than reproduction targets.
SCENARIO_1A_CHI2 = 42.8
SCENARIO_1B_CHI2 = 67.3


def _measurement_snapshot(
    v_over: dict[int, float], p_over: dict[int, float], source: str
) -> GridRecord:
    v = list(TABLE4_ORIGINAL_V)
    p = [0.0] * 14
    for b, val in _P1_BASE_COMMON.items():
        p[b - 1] = val
    for b, val in p_over.items():
        p[b - 1] = val
    for b, val in v_over.items():
        v[b - 1] = val
    buses = [
        BusRow(bus=b, v_pu=v[b - 1], theta_deg=0.0, p_mw=p[b - 1] * 100.0,
               q_mvar=_Q1_BASE[b - 1] * 100.0)
        for b in range(1, 15)
    ]
    return GridRecord(buses=buses, source=source, extras={"stage": "measurement"})


def scenario_1a_records() -> tuple[GridRecord, GridRecord]:
    """(baseline, attacked) snapshots for the 5-point distributed attack;
    the quoted chi-square rides along as ``bdd_chi2``."""
    baseline = _measurement_snapshot(_S1A_V_OVERRIDES, _S1A_P_OVERRIDES, "scenario1a-baseline")
    attacked = build_scenario_1a().apply_to_record(baseline)
    attacked.source = "scenario1a"
    attacked.extras["bdd_chi2"] = SCENARIO_1A_CHI2
    return baseline, attacked


def scenario_1b_records(seed: int = 3) -> tuple[GridRecord, GridRecord]:
    """(baseline, attacked) snapshots for the 8-point coordinated attack,
    with the seeded concealment noise included."""
    baseline = _measurement_snapshot(_S1B_V_OVERRIDES, _S1B_P_OVERRIDES, "scenario1b-baseline")
    attacked = build_scenario_1b(noise=True, seed=seed).apply_to_record(baseline)
    attacked.source = "scenario1b"
    attacked.extras["bdd_chi2"] = SCENARIO_1B_CHI2
    return baseline, attacked


# ---------------------------------------------------------------------------
# Shipped records and display segments (attack points 2 and 3)
# ---------------------------------------------------------------------------

# The validated post-estimation baseline, its manipulated copies 2A-2D and
# the SoM display segments are plain data: the files below are their only
# copy, and the tests derive 2A and 2D from the baseline to keep the
# quoted scenario definitions checked.
DATA_DIR = Path(__file__).with_name("data")


def post_se_baseline_record() -> GridRecord:
    """Validated post-estimation baseline: quoted rows verbatim, the
    others from the solved standard case, losses summing to 14.84 MW."""
    return GridRecord.load(DATA_DIR / "post_se_baseline.csv")


def scenario_2a_record() -> GridRecord:
    """State-vector manipulation: buses 4, 9 and 13 flipped from load to
    generation with the quoted voltage/angle/reactive adjustments."""
    return GridRecord.load(DATA_DIR / "scenario2a.csv")


def scenario_2b_record() -> GridRecord:
    """Topology corruption aftermath: same loads, 13.9 MW more dispatch,
    losses nearly doubled (28.78 MW), degraded voltage/angle profile."""
    return GridRecord.load(DATA_DIR / "scenario2b.csv")


def scenario_2c_record() -> GridRecord:
    """Complete islanding: every breaker open, all flows zero, every
    single-bus island perfectly balanced."""
    return GridRecord.load(DATA_DIR / "scenario2c.csv")


def scenario_2d_record() -> GridRecord:
    """Breaker-status falsification: the 2-4 row reads Opened while its
    56.1 MW / -15.8 Mvar flow stays in place."""
    return GridRecord.load(DATA_DIR / "scenario2d.csv")


def _segments(group: str) -> list[SegmentDescriptor]:
    return parse_segments(sorted((DATA_DIR / "som" / group).glob("seg*.json")))


def som_reference_segments() -> list[SegmentDescriptor]:
    return _segments("reference")


def som_reference_arrangement_cells() -> tuple[tuple[str, ...], ...]:
    doc = json.loads((DATA_DIR / "som" / "reference" / "arrangement.json").read_text())
    return tuple(tuple(row) for row in doc["cells"])


def som_scenario_3b_segments() -> list[SegmentDescriptor]:
    """Breaker malfunction display: CB6_13 rendered open (green) while its
    far terminal stays closed."""
    return _segments("scenario3b")


def som_scenario_3c_segments() -> list[SegmentDescriptor]:
    """Display value injection: bus 2 shown at 1.02 p.u. instead of 1.04."""
    return _segments("scenario3c")


def write_fixture_tree(root: str | Path) -> list[Path]:
    """Copy every shipped fixture file under ``root`` (the layout the CLI
    consumes); returns the created paths."""
    root = Path(root)
    created: list[Path] = []
    for src in sorted(DATA_DIR.rglob("*")):
        if src.is_file():
            dest = root / src.relative_to(DATA_DIR)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(src, dest)
            created.append(dest)
    return created
