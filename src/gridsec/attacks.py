"""Attack construction: stealth vectors in the Jacobian column space,
per-bus voltage sweeps against the bad-data detector, the two coordinated
measurement attacks, and post-estimation record manipulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .estimation import (
    EstimationError,
    MeasKind,
    MeasurementSet,
    chord_steps,
    gauss_newton,
    shared_first_step,
    wls_estimate_ac,
)
from .network import BreakerState, NetworkModel
from .records import BusRow, GridRecord
from .stats import PAPER_CHI2_THRESHOLD

__all__ = [
    "AttackVector",
    "StealthRange",
    "SweepPoint",
    "StateDelta",
    "stealth_from_state_delta",
    "sweep_stealth_range",
    "build_scenario_1a",
    "build_scenario_1b",
    "SCENARIO_1A_DELTAS",
    "SCENARIO_1A_COMPENSATION",
    "SCENARIO_1B_DELTAS",
    "SCENARIO_1B_NOISE_BUSES",
    "manipulate_state_vector",
    "corrupt_topology_record",
]


@dataclass
class AttackVector:
    """Additive per-channel deltas plus provenance.

    ``channels`` labels align with ``deltas``. Scenario vectors live in the
    display convention (consumption-positive p.u.), matching the record
    tables they are applied to; stealth vectors live in the measurement
    space of the Jacobian they were built from.
    """

    deltas: np.ndarray
    channels: tuple[str, ...]
    provenance: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.deltas = np.asarray(self.deltas, dtype=float)
        if len(self.deltas) != len(self.channels):
            raise ValueError("deltas and channels length mismatch")

    def nonzero(self) -> dict[str, float]:
        return {
            lbl: float(d)
            for lbl, d in zip(self.channels, self.deltas)
            if d != 0.0
        }

    @property
    def net_power_change(self) -> float:
        return float(
            sum(d for lbl, d in zip(self.channels, self.deltas) if lbl.startswith("P"))
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "provenance": self.provenance,
                "metadata": self.metadata,
                "deltas": self.nonzero(),
            },
            indent=2,
            sort_keys=True,
        )

    def apply_to_record(self, record: GridRecord, base_mva: float = 100.0) -> GridRecord:
        """Add the vector onto a bus record (V deltas in p.u., P/Q deltas
        converted from p.u. to MW/Mvar); the result's ``extras`` is a copy."""
        by_label = dict(zip(self.channels, self.deltas))
        rows = []
        for r in record.buses:
            dv = by_label.get(f"V{r.bus}", 0.0)
            dp = by_label.get(f"P{r.bus}", 0.0) * base_mva
            dq = by_label.get(f"Q{r.bus}", 0.0) * base_mva
            rows.append(
                replace(r, v_pu=r.v_pu + dv, p_mw=r.p_mw + dp, q_mvar=r.q_mvar + dq)
            )
        return replace(
            record, buses=rows, source=f"{record.source}+{self.provenance}",
            extras=dict(record.extras),
        )


def _vector_from_named(
    named: dict[str, float], provenance: str, n_bus: int = 14, metadata: dict | None = None
) -> AttackVector:
    # V1..Vn, P1..Pn, Q1..Qn: the standard direct-measurement layout.
    channels = tuple(f"{kind}{b}" for kind in "VPQ" for b in range(1, n_bus + 1))
    pos = {lbl: i for i, lbl in enumerate(channels)}
    deltas = np.zeros(len(channels))
    for lbl, val in named.items():
        deltas[pos[lbl]] = val
    return AttackVector(deltas, channels, provenance, metadata or {})


# 5-point distributed attack: voltage/power deltas plus a uniform
# compensating reduction spread over seven untouched buses.
SCENARIO_1A_DELTAS = {
    "V3": +0.08,
    "P3": +0.15,
    "V6": -0.06,
    "P9": +0.10,
    "V11": +0.05,
}
SCENARIO_1A_COMPENSATION = {"buses": (2, 4, 5, 10, 12, 13, 14), "dp": -0.0357}

# 8-point coordinated attack with near-cancelling power changes.
SCENARIO_1B_DELTAS = {
    "V2": +0.09,
    "P2": +0.15,
    "V4": -0.07,
    "P4": -0.13,
    "V6": +0.08,
    "P9": +0.12,
    "V11": -0.06,
    "P13": -0.10,
}
SCENARIO_1B_NOISE_BUSES = (1, 5, 7, 8, 10, 12, 14)


def build_scenario_1a() -> AttackVector:
    named = dict(SCENARIO_1A_DELTAS)
    for b in SCENARIO_1A_COMPENSATION["buses"]:
        named[f"P{b}"] = SCENARIO_1A_COMPENSATION["dp"]
    return _vector_from_named(named, "Scenario1A", metadata={"compensation": True})


def build_scenario_1b(noise: bool = False, seed: int = 3) -> AttackVector:
    """The 8-point vector; optional seeded uniform noise of up to 0.005 p.u.
    on the power channels of the untouched buses (deterministic for a
    fixed seed)."""
    named = dict(SCENARIO_1B_DELTAS)
    if noise:
        rng = np.random.default_rng(seed)
        draws = rng.uniform(-0.005, 0.005, len(SCENARIO_1B_NOISE_BUSES))
        for b, d in zip(SCENARIO_1B_NOISE_BUSES, draws):
            named[f"P{b}"] = float(d)
    return _vector_from_named(
        named,
        "Scenario1B",
        metadata={"noise": noise, "seed": seed if noise else None},
    )


def stealth_from_state_delta(
    h_matrix: np.ndarray,
    c: np.ndarray,
    channels: Sequence[str] | None = None,
) -> AttackVector:
    """a = H c: an attack in the column space of the measurement matrix.
    Attached to any measurement vector it leaves the WLS residuals (and
    hence the chi-square statistic) unchanged while shifting the estimate
    by exactly c."""
    h = np.asarray(h_matrix, dtype=float)
    c = np.asarray(c, dtype=float)
    if h.shape[1] != c.shape[0]:
        raise ValueError(f"state delta has {c.shape[0]} entries, H has {h.shape[1]} columns")
    a = h @ c
    labels = tuple(channels) if channels is not None else tuple(
        f"z{i}" for i in range(h.shape[0])
    )
    return AttackVector(a, labels, "StealthFromC", metadata={"c_norm": float(np.linalg.norm(c))})


@dataclass
class SweepPoint:
    bus: int
    attack_vm: float
    original_vm: float
    detected: bool
    label: str


@dataclass
class StealthRange:
    bus: int
    start: float | None
    end: float | None
    width: float | None
    original_v: float
    empty: bool
    note: str = ""


# Sweep candidates past the shared first step iterate in blocks of this
# many. With constant-gain steps, 64 runs the perfbench sweep faster than
# 32; 100 and 300 gain little more and raise peak memory: the per-block
# arrays grow with the block while the Python overhead they save does not.
SWEEP_BLOCK = 64
# Every this many candidates of a bus, and its last one, is an anchor,
# solved from its first-step state before the rest, which start from a
# cubic through the four nearest anchors' solutions. Spacings of 10 to 30
# run the paper window within a few percent of each other; wider spacings
# slow wide windows down, where the cubic strays further from the curve.
SWEEP_ANCHOR_EVERY = 15
# Constant-gain steps a candidate gets before it falls back to full
# Gauss-Newton from its first-step state. In the paper window every
# anchor converges within 7 of them, and every other candidate within 2;
# chord step norms do not shrink monotonically, so the budget, not a
# contraction test, decides.
SWEEP_CHORD_STEPS = 10
SWEEP_MAX_ITER = 50  # wls_estimate_ac's default


def sweep_stealth_range(
    model: NetworkModel,
    baseline: MeasurementSet,
    bus: int,
    n_points: int = 300,
    window: tuple[float, float] = (0.95, 1.10),
    nerc: tuple[float, float] = (0.95, 1.05),
    threshold: float = PAPER_CHI2_THRESHOLD,
    delta: float = 1e-8,
) -> tuple[StealthRange, list[SweepPoint]]:
    """Replace one bus's voltage measurement with each grid candidate, run
    estimation plus the chi-square test, and report the contiguous span of
    undetected candidates inside the compliance band.

    Every candidate starts from the baseline estimate, so their first
    Gauss-Newton step shares h, H and the gain: it is taken once for all
    candidates, with one solve against all their residuals. The candidates
    not converged by it are solved in two passes. First the anchors,
    every ``SWEEP_ANCHOR_EVERY``-th candidate and the last, start from
    their first-step states. Then every other candidate starts from the
    cubic Lagrange interpolation, in the grid value, of the solutions of
    its four nearest anchors, taken so that it lies between the middle two
    (at the window's ends, the four end anchors), so the curve is never
    extrapolated; with fewer than four anchors these start from their
    first-step states. Both passes go in blocks of ``SWEEP_BLOCK``,
    batched, with constant-gain steps on that first step's gain, which
    converge to a root of the same WLS normal equations. A candidate these
    steps do not converge within ``SWEEP_CHORD_STEPS`` restarts from its
    first-step state on a batched Gauss-Newton with the rest of the
    ``SWEEP_MAX_ITER`` budget. Each candidate's flag is the one a
    warm-started ``wls_estimate_ac`` gives. A candidate that the
    Gauss-Newton does not converge raises EstimationError naming the bus
    and the candidate.

    The span containing the candidate nearest the original value is used;
    when the span is terminated by the band rather than by detection, the
    endpoint is clipped to the band edge exactly.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    idx = baseline.index_of(MeasKind.VM, bus)
    original = baseline.entries[idx].value
    grid = np.linspace(window[0], window[1], n_points)
    if not np.isfinite(grid).all():
        raise EstimationError(
            f"non-finite candidate value on channel {baseline.entries[idx].channel}"
        )

    base = wls_estimate_ac(model, baseline, delta=delta)
    mm = base.measurement_model
    sig = baseline.sigmas
    z = np.tile(baseline.z, (n_points, 1))
    z[:, idx] = grid
    v, theta, done, gain_inv = shared_first_step(
        mm, z, sig, base.x_hat.v, base.x_hat.theta, delta
    )

    def first_step(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return v[rows], theta[rows]

    def solve(rows: np.ndarray, start_of: Callable) -> None:
        # Chord steps on ``rows`` from the states ``start_of`` gives them,
        # then a Gauss-Newton from the first-step states still in v, theta;
        # the solutions go to v, theta.
        for start in range(0, rows.size, SWEEP_BLOCK):
            rb = rows[start:start + SWEEP_BLOCK]
            vb, thb = start_of(rb)
            back = chord_steps(mm, z[rb], sig, vb, thb, gain_inv, delta, SWEEP_CHORD_STEPS) == 0
            if back.any():
                slow = rb[back]
                vs, ths = first_step(slow)
                iterations = gauss_newton(mm, z[slow], sig, vs, ths, delta, SWEEP_MAX_ITER - 1)
                if not iterations.all():
                    cand = grid[slow[int(np.argmin(iterations))]]
                    raise EstimationError(
                        f"bus {bus}: WLS did not converge in {SWEEP_MAX_ITER} iterations "
                        f"for candidate Vm {cand:.9f}"
                    )
                vb[back], thb[back] = vs, ths
            v[rb], theta[rb] = vb, thb

    anchor = np.zeros(n_points, dtype=bool)
    anchor[::SWEEP_ANCHOR_EVERY] = True
    anchor[-1] = True
    anchors = np.flatnonzero(anchor)

    def cubic(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Row k lies between anchors k // SWEEP_ANCHOR_EVERY and the next.
        # The grid is uniform, so Lagrange weights in the grid value are
        # those in the candidate index.
        first = np.clip(rows // SWEEP_ANCHOR_EVERY - 1, 0, anchors.size - 4)
        nodes = anchors[first[:, None] + np.arange(4)]
        # w_a = prod over b != a of (k - node_b) / (node_a - node_b)
        gap = rows[:, None] - nodes
        span = nodes[:, :, None] - nodes[:, None, :] + np.eye(4, dtype=int)
        weights = np.prod(gap, axis=1, keepdims=True) / gap / np.prod(span, axis=2)
        vb = sum(weights[:, a, None] * v[nodes[:, a]] for a in range(4))
        thb = sum(weights[:, a, None] * theta[nodes[:, a]] for a in range(4))
        return vb, thb

    solve(np.flatnonzero(anchor & ~done), first_step)
    solve(np.flatnonzero(~anchor & ~done), cubic if anchors.size >= 4 else first_step)

    detected = np.zeros(n_points, dtype=bool)
    for start in range(0, n_points, SWEEP_BLOCK):
        block = slice(start, start + SWEEP_BLOCK)
        h, _ = mm.evaluate(v[block], theta[block], out=(None, None))
        detected[block] = np.sum(((z[block] - h) / sig) ** 2, axis=1) > threshold

    values = grid.tolist()
    flags = detected.tolist()
    in_band = ((grid >= nerc[0] - 1e-12) & (grid <= nerc[1] + 1e-12)).tolist()
    points = [
        SweepPoint(
            bus=bus,
            attack_vm=value,
            original_vm=original,
            detected=flag,
            label=(
                "Bad data detected"
                if flag
                else ("Stealth attack" if band else "NERC violation")
            ),
        )
        for value, flag, band in zip(values, flags, in_band)
    ]

    note = ""
    runs = _runs((~detected).tolist())
    if len(runs) > 1:
        note = f"undetected set fragments into {len(runs)} runs"

    k0 = int(np.argmin(np.abs(grid - original)))
    run = next((r for r in runs if r[0] <= k0 <= r[1]), None)
    if run is None:
        return (
            StealthRange(bus, None, None, None, original, True,
                         note or "nearest candidate already detected"),
            points,
        )
    lo, hi = run
    stealth_ks = [k for k in range(lo, hi + 1) if in_band[k]]
    if not stealth_ks:
        return (
            StealthRange(bus, None, None, None, original, True,
                         note or "undetected span lies outside the NERC band"),
            points,
        )
    start_k, end_k = stealth_ks[0], stealth_ks[-1]
    start = values[start_k]
    end = values[end_k]
    if start_k - 1 >= lo and not in_band[start_k - 1]:
        start = nerc[0]
    if end_k + 1 <= hi and not in_band[end_k + 1]:
        end = nerc[1]
    return (
        StealthRange(bus, start, end, end - start, original, False, note),
        points,
    )


def _runs(mask: Sequence[bool]) -> list[tuple[int, int]]:
    runs = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(mask) - 1))
    return runs


@dataclass
class StateDelta:
    """Additive corruption of a stored post-estimation record, in record
    units (p.u. voltage, degrees, MW, Mvar). Slack entries stay zero."""

    dv: np.ndarray
    dtheta_deg: np.ndarray
    dp_mw: np.ndarray
    dq_mvar: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.dv)
        for arr in (self.dtheta_deg, self.dp_mw, self.dq_mvar):
            if len(arr) != n:
                raise ValueError("delta arrays must share one length")

    @classmethod
    def zeros(cls, n_bus: int) -> "StateDelta":
        return cls(np.zeros(n_bus), np.zeros(n_bus), np.zeros(n_bus), np.zeros(n_bus))

    @classmethod
    def from_changes(
        cls,
        n_bus: int,
        dv: dict[int, float] | None = None,
        dtheta_deg: dict[int, float] | None = None,
        dp_mw: dict[int, float] | None = None,
        dq_mvar: dict[int, float] | None = None,
    ) -> "StateDelta":
        out = cls.zeros(n_bus)
        for target, src in (
            (out.dv, dv),
            (out.dtheta_deg, dtheta_deg),
            (out.dp_mw, dp_mw),
            (out.dq_mvar, dq_mvar),
        ):
            for bus, val in (src or {}).items():
                target[bus - 1] = val
        return out

    def validate_slack(self, slack_index: int) -> None:
        for name, arr in (
            ("dv", self.dv),
            ("dtheta_deg", self.dtheta_deg),
            ("dp_mw", self.dp_mw),
            ("dq_mvar", self.dq_mvar),
        ):
            if arr[slack_index] != 0.0:
                raise ValueError(f"slack entry of {name} must be zero")


def manipulate_state_vector(
    record: GridRecord,
    delta: StateDelta,
    model: NetworkModel | None = None,
) -> GridRecord:
    """Corrupt a stored record's bus table additively; the input record is
    preserved. The branch table is copied as stored: a post-estimation
    attacker rewrites the bus rows, not the flows. With a model, a nonzero
    slack entry in ``delta`` raises ValueError."""
    if model is not None:
        delta.validate_slack(model.slack_index)
    rows = []
    for r in sorted(record.buses, key=lambda r: r.bus):
        i = r.bus - 1
        rows.append(
            BusRow(
                bus=r.bus,
                v_pu=r.v_pu + delta.dv[i],
                theta_deg=r.theta_deg + delta.dtheta_deg[i],
                p_mw=r.p_mw + delta.dp_mw[i],
                q_mvar=r.q_mvar + delta.dq_mvar[i],
            )
        )
    return GridRecord(
        buses=rows,
        branches=list(record.branches),
        source=f"{record.source}+state-delta",
        extras=dict(record.extras),
    )


def corrupt_topology_record(
    record: GridRecord, flips: Iterable[tuple[int, int]]
) -> GridRecord:
    """Invert the stored breaker statuses of the listed branches without
    touching flows: the record-level inconsistency of a topology attack."""
    targets = []
    for f, t in flips:
        record.branch_row(f, t)  # raises KeyError for unknown branches
        targets.append((f, t))
    rows = []
    for br in record.branches:
        if (br.from_bus, br.to_bus) in targets or (br.to_bus, br.from_bus) in targets:
            rows.append(
                replace(
                    br,
                    status_from=_invert(br.status_from),
                    status_to=_invert(br.status_to),
                )
            )
        else:
            rows.append(br)
    return replace(
        record, branches=rows, source=f"{record.source}+topology-flip", extras=dict(record.extras)
    )


def _invert(state: BreakerState) -> BreakerState:
    return BreakerState.OPEN if state is BreakerState.CLOSED else BreakerState.CLOSED
