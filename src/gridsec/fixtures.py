"""Study fixtures: the files shipped under ``data/`` (the Table 3/4
sweep tables, the 1A/1B baseline snapshots, the post-estimation records
and the SoM display segments) are their only copy; this module loads
them and builds the sweep baseline and the attacked 1A/1B snapshots from
them. Everything here is deterministic.
"""

from __future__ import annotations

import csv
import json
import shutil
from functools import lru_cache
from pathlib import Path

import numpy as np

from .attacks import build_scenario_1a, build_scenario_1b
from .estimation import MeasurementSet, measurements_from_state
from .network import NetworkModel, build_ieee14
from .powerflow import solve
from .records import GridRecord
from .som import SegmentDescriptor, parse_segments

__all__ = [
    "TABLE4_ORIGINAL_V",
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

DATA_DIR = Path(__file__).with_name("data")

# ---------------------------------------------------------------------------
# Stealth-range study (attack point 1)
# ---------------------------------------------------------------------------


def _table4_original_v() -> tuple[float, ...]:
    with open(DATA_DIR / "table4_stealth_ranges.csv", newline="") as f:
        return tuple(float(row["Original voltage"]) for row in csv.DictReader(f))


# Baseline bus voltages of the stealth-range study (Table 4's "Original
# voltage" column), bus 1 through 14.
TABLE4_ORIGINAL_V: tuple[float, ...] = _table4_original_v()

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

# Chi-square values the study reports for the attacked snapshots; the
# noise realization behind them is unstated, so they ride along as fixture
# constants rather than reproduction targets.
SCENARIO_1A_CHI2 = 42.8
SCENARIO_1B_CHI2 = 67.3


def scenario_1a_records() -> tuple[GridRecord, GridRecord]:
    """(baseline, attacked) snapshots for the 5-point distributed attack:
    the shipped baseline and the vector applied to it, with the quoted
    chi-square riding along as ``bdd_chi2``."""
    baseline = GridRecord.load(DATA_DIR / "scenario1a_baseline.csv")
    attacked = build_scenario_1a().apply_to_record(baseline)
    attacked.source = "scenario1a"
    attacked.extras["bdd_chi2"] = SCENARIO_1A_CHI2
    return baseline, attacked


def scenario_1b_records(seed: int = 3) -> tuple[GridRecord, GridRecord]:
    """(baseline, attacked) snapshots for the 8-point coordinated attack:
    the shipped baseline and the vector, seeded concealment noise
    included, applied to it."""
    baseline = GridRecord.load(DATA_DIR / "scenario1b_baseline.csv")
    attacked = build_scenario_1b(noise=True, seed=seed).apply_to_record(baseline)
    attacked.source = "scenario1b"
    attacked.extras["bdd_chi2"] = SCENARIO_1B_CHI2
    return baseline, attacked


# ---------------------------------------------------------------------------
# Shipped records and display segments (attack points 2 and 3)
# ---------------------------------------------------------------------------


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
