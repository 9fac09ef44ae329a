"""Power-grid EMS security workbench.

State estimation with chi-square bad-data detection, stealth and
false-data-injection attack synthesis, a physics-rule anomaly detector
over a 71-dimensional feature space, and a Set-of-Mark constraint solver
for HMI display segments, all on the IEEE 14-bus system.

The names below are re-exported lazily (PEP 562): ``import gridsec``
loads no submodule, and ``from gridsec import solve`` loads only the
module that defines ``solve`` and what that module imports.
"""

import importlib

_EXPORTS = {
    "network": (
        "Branch", "BreakerState", "Bus", "BusKind", "NetworkModel", "TopologyMatrix",
        "admittance", "apply_topology_corruption", "build_ieee14", "build_topology",
    ),
    "powerflow": ("PowerFlowSolution", "decompose_islands", "solve"),
    "measmodel": ("MeasKind",),
    "estimation": (
        "Measurement", "MeasurementSet", "bdd_classify", "build_dc_jacobian",
        "chi_square_statistic", "iterative_bad_data_removal", "wls_estimate_ac",
        "wls_estimate_dc",
    ),
    "stats": ("PAPER_CHI2_THRESHOLD", "chi_square_threshold"),
    "attacks": (
        "AttackVector", "StateDelta", "StealthRange", "build_scenario_1a", "build_scenario_1b",
        "corrupt_topology_record", "manipulate_state_vector", "stealth_from_state_delta",
        "sweep_stealth_range",
    ),
    "findings": ("Finding", "Rule", "Severity"),
    "detection": (
        "RuleConfig", "VerdictClass", "classify", "extract_features", "fit_baseline",
        "read_pair", "rule_battery",
    ),
    "records": ("BranchRow", "BusRow", "BusSnapshot", "GridRecord"),
    "scenarios": ("TABLE5_SCENARIOS", "generate_all", "generate_scenario"),
    "som": (
        "AdjacencyConstraint", "GridArrangement", "SegmentDescriptor", "diff_against_reference",
        "generate_constraints", "parse_segments", "solve_arrangement", "verify_arrangement",
    ),
    "pipeline": ("run_pipeline",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, "__version__"]
__version__ = "0.1.0"


def __getattr__(name: str):
    # ``gridsec.<submodule>`` keeps working without importing it first.
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
