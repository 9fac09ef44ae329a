"""Findings raised by the detector's rule battery and the display diff.

Stdlib only, so the display tools can report findings without loading
the numerical stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Rule", "Severity", "Finding"]


class Rule(str, Enum):
    SENSITIVITY_BOUND = "SensitivityBound"
    RAMP_RATE = "RampRate"
    ZIP_VIOLATION = "ZipViolation"
    COMPENSATION_ENTROPY = "CompensationEntropy"
    GRADIENT_COHERENCE = "GradientCoherence"
    SIGN_FLIP = "SignFlip"
    LOSS_SURGE = "LossSurge"
    OPEN_BREAKER_FLOW = "OpenBreakerFlow"
    ISLAND_BALANCE = "IslandBalance"
    VOLTAGE_DEVIATION = "VoltageDeviation"
    CORRELATION_SHIFT = "CorrelationShift"
    # Display-integrity rules raised by the segment diff.
    BREAKER_STATUS_CHANGE = "BreakerStatusChange"
    MARKER_CHANGE = "MarkerChange"


class Severity(str, Enum):
    INFO = "Info"
    WARNING = "Warning"
    VIOLATION = "Violation"


@dataclass
class Finding:
    rule: Rule
    severity: Severity
    message: str
    data: dict[str, float | int | str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity is Severity.VIOLATION and not any(
            isinstance(v, (int, float)) for v in self.data.values()
        ):
            raise ValueError("violations must carry numeric evidence")
