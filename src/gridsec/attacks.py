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
    WLS_MAX_ITER,
    EstimationError,
    MeasKind,
    MeasurementSet,
    estimate,
    gauss_newton,
    wls_estimate_ac,  # noqa: F401  perfbench's tracer test checks that it is rebound here
)
from .measmodel import MeasurementModel, compiled
from .network import BreakerState, NetworkModel
from .records import BusRow, GridRecord
from .stats import PAPER_CHI2_THRESHOLD

__all__ = [
    "AttackVector",
    "StealthRange",
    "SweepPoint",
    "SWEEP_DELTA",
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


# Sweep candidates iterate in blocks of this many. With constant-gain
# steps, 64 runs the perfbench sweep faster than 32; 100 and 300 gain
# little more and raise peak memory: the per-block arrays grow with the
# block while the Python overhead they save does not.
SWEEP_BLOCK = 64
# Every this many candidates of a bus, and its last one, is an anchor,
# solved from the baseline estimate before the rest, which start from a
# cubic through the four nearest anchors' solutions. Spacings of 10 to 30
# run the paper window within a few percent of each other; wider spacings
# slow wide windows down, where the cubic strays further from the curve.
SWEEP_ANCHOR_EVERY = 15
# Constant-gain steps a candidate gets before it falls back to full
# Gauss-Newton from the baseline estimate. In the paper window every
# anchor converges within 8 of them, and every other candidate within 2;
# chord step norms do not shrink monotonically, so the budget, not a
# contraction test, decides.
SWEEP_CHORD_STEPS = 10
# Step-norm tolerance of every sweep solve, the baseline estimate's included.
SWEEP_DELTA = 1e-8
# A candidate is flagged from J at its last evaluation, one step shorter
# than SWEEP_DELTA before its end state. That J is the end state's to
# within 1.2e-8 relative on the fixture and seeded noisy baselines; a
# candidate whose J lies within this relative band of the threshold has
# h evaluated again at its end state, and is flagged from that J.
SWEEP_J_BAND = 1e-6

# The last baseline a sweep estimated: its compiled model, the bytes of its
# values and sigmas, and its estimate's v, theta and gain inverse. One slot
# serves a map of every bus over one baseline; the arrays are read-only.
# A sweep reads the slot once and replaces it whole, so concurrent sweeps
# need no lock: a lost update costs one estimate more.
_baseline_memo: tuple | None = None


def _baseline_estimate(
    model: NetworkModel, baseline: MeasurementSet, z: np.ndarray, sig: np.ndarray
) -> tuple[MeasurementModel, np.ndarray, np.ndarray, np.ndarray]:
    """The compiled model of ``baseline``'s layout, and the v, theta and
    gain inverse of its ``estimate`` with ``SWEEP_DELTA`` (``z`` and
    ``sig`` are the baseline's values and sigmas). They come
    from ``_baseline_memo`` when the layout compiles to the memo's model
    object and ``z`` and ``sig`` are its bytes; else the estimate is made,
    and kept only when it succeeds."""
    global _baseline_memo
    mm = compiled(model, None, baseline.entries)
    data = z.tobytes() + sig.tobytes()
    memo = _baseline_memo
    if memo is not None and memo[0] is mm and memo[1] == data:
        return mm, *memo[2:]
    base = estimate(mm, z, sig, SWEEP_DELTA)
    jac = base.jacobian
    gain_inv = np.linalg.inv((jac * (1.0 / sig**2)[:, None]).T @ jac)
    state = (base.x_hat.v, base.x_hat.theta, gain_inv)
    for value in state:
        value.flags.writeable = False
    _baseline_memo = (mm, data, *state)
    return mm, *state


def sweep_stealth_range(
    model: NetworkModel,
    baseline: MeasurementSet,
    bus: int,
    n_points: int = 300,
    window: tuple[float, float] = (0.95, 1.10),
    nerc: tuple[float, float] = (0.95, 1.05),
    threshold: float = PAPER_CHI2_THRESHOLD,
) -> tuple[StealthRange, list[SweepPoint]]:
    """Replace one bus's voltage measurement with each grid candidate, run
    estimation plus the chi-square test, and report the contiguous span of
    undetected candidates inside the compliance band.

    The candidates are solved in two passes, in batched blocks of
    ``SWEEP_BLOCK``, by constant-gain (chord) steps on the baseline
    estimate's gain, which converge to a root of the same WLS normal
    equations. First the anchors, every ``SWEEP_ANCHOR_EVERY``-th
    candidate and the last, start from the baseline estimate, so their
    first chord step is the Gauss-Newton step from it. Then every other
    candidate starts from the cubic Lagrange interpolation, in the grid
    value, of the solutions of its four nearest anchors, taken so that it
    lies between the middle two (at the window's ends, the four end
    anchors), so the curve is never extrapolated; with fewer than four
    anchors these start from the baseline estimate too. A candidate the
    chord steps do not converge within ``SWEEP_CHORD_STEPS`` restarts from
    the baseline estimate on the damped Gauss-Newton of ``gauss_newton``
    with ``WLS_MAX_ITER`` evaluations: a warm-started ``wls_estimate_ac``,
    whose flag each candidate gets. A candidate that it does not converge
    raises EstimationError naming the bus and the candidate.

    Each candidate is flagged from the J that ``gauss_newton`` returns for
    it, computed at its last evaluation, one step shorter than
    ``SWEEP_DELTA`` before its end state, so no h is evaluated again to
    flag it. A candidate whose J lies within ``SWEEP_J_BAND`` of the
    threshold, relative to it, is flagged from J at its end state instead,
    as a serial estimate of it would be.

    The baseline estimate is ``wls_estimate_ac(model, baseline,
    delta=SWEEP_DELTA)``. The last one made is kept, with its gain
    inverse, and serves every later sweep whose baseline compiles to the
    same model with the same values and sigmas, bit for bit, so sweeps of
    several buses of one baseline estimate it once. ValueError names the
    argument when ``n_points`` < 2, ``bus`` is outside 1..n,
    ``threshold`` is not finite, ``window`` has low > high, or ``nerc`` is
    not two numbers with low <= high.

    The span containing the candidate nearest the original value is used;
    when the span is terminated by the band rather than by detection, the
    endpoint is clipped to the band edge exactly.
    """
    if n_points < 2:
        raise ValueError(f"n_points {n_points}: a sweep needs at least 2 points")
    if not 1 <= bus <= model.n_bus:
        raise ValueError(f"bus {bus}: the case has buses 1..{model.n_bus}")
    if not np.isfinite(threshold):
        raise ValueError(f"threshold {threshold}: expected a finite number")
    if window[0] > window[1]:
        raise ValueError(f"window {window}: expected low <= high")
    if not nerc[0] <= nerc[1]:
        raise ValueError(f"nerc {nerc}: expected two numbers with low <= high")
    idx = baseline.index_of(MeasKind.VM, bus)
    original = baseline.entries[idx].value
    grid = np.linspace(window[0], window[1], n_points)
    if not np.isfinite(grid).all():
        raise EstimationError(
            f"non-finite candidate value on channel {baseline.entries[idx].channel}"
        )

    z, sig = baseline.z, baseline.sigmas
    mm, v, theta, gain_inv = _baseline_estimate(model, baseline, z, sig)
    z = np.tile(z, (n_points, 1))
    z[:, idx] = grid
    v = np.tile(v, (n_points, 1))
    theta = np.tile(theta, (n_points, 1))

    def warm(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return v[rows], theta[rows]

    j = np.empty(n_points)

    def solve(rows: np.ndarray, start_of: Callable) -> None:
        # Chord steps on ``rows`` from the states ``start_of`` gives them,
        # then a Gauss-Newton from the baseline estimate still in v, theta;
        # the solutions go to v, theta and their last J to j.
        for start in range(0, rows.size, SWEEP_BLOCK):
            rb = rows[start:start + SWEEP_BLOCK]
            vb, thb = start_of(rb)
            iterations, jb = gauss_newton(mm, z[rb], sig, vb, thb, SWEEP_DELTA, SWEEP_CHORD_STEPS, gain_inv)
            back = iterations == 0
            if back.any():
                slow = rb[back]
                vs, ths = warm(slow)
                iterations, js = gauss_newton(mm, z[slow], sig, vs, ths, SWEEP_DELTA, WLS_MAX_ITER)
                if not iterations.all():
                    cand = grid[slow[int(np.argmin(iterations))]]
                    raise EstimationError(
                        f"bus {bus}: WLS did not converge in {WLS_MAX_ITER} iterations "
                        f"for candidate Vm {cand:.9f}"
                    )
                vb[back], thb[back], jb[back] = vs, ths, js
            v[rb], theta[rb], j[rb] = vb, thb, jb

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

    solve(anchors, warm)
    solve(np.flatnonzero(~anchor), cubic if anchors.size >= 4 else warm)

    detected = j > threshold
    # A NaN J compares false: it is evaluated again too.
    near = np.flatnonzero(~(np.abs(j - threshold) > SWEEP_J_BAND * abs(threshold)))
    if near.size:
        h, _ = mm.evaluate(v[near], theta[near], out=(None, None))
        detected[near] = np.sum(((z[near] - h) / sig) ** 2, axis=1) > threshold

    values = grid.tolist()
    flags = detected.tolist()
    in_band = ((grid >= nerc[0] - 1e-12) & (grid <= nerc[1] + 1e-12)).tolist()
    points = [
        SweepPoint(
            bus, value, original, flag,
            "Bad data detected" if flag else ("Stealth attack" if band else "NERC violation"),
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
        """Deltas keyed by bus id; a bus outside 1..``n_bus`` or a value that
        is not a finite number is a ValueError naming the field and the bus."""
        out = cls.zeros(n_bus)
        for name, target, src in (
            ("dv", out.dv, dv),
            ("dtheta_deg", out.dtheta_deg, dtheta_deg),
            ("dp_mw", out.dp_mw, dp_mw),
            ("dq_mvar", out.dq_mvar, dq_mvar),
        ):
            for bus, val in (src or {}).items():
                if not 1 <= bus <= n_bus:
                    raise ValueError(f"{name}: bus {bus} is outside buses 1..{n_bus}")
                if not np.isfinite(val):
                    raise ValueError(f"{name}: bus {bus} delta {val}: expected a finite number")
                target[bus - 1] = val
        return out


def manipulate_state_vector(
    record: GridRecord,
    delta: StateDelta,
    model: NetworkModel | None = None,
) -> GridRecord:
    """Corrupt a stored record's bus table additively; the input record is
    preserved. The branch table is copied as stored: a post-estimation
    attacker rewrites the bus rows, not the flows. With a model, a nonzero
    slack entry in ``delta`` raises ValueError naming the field, the slack
    bus and the value."""
    if model is not None:
        k = model.slack_index
        for name in ("dv", "dtheta_deg", "dp_mw", "dq_mvar"):
            val = getattr(delta, name)[k]
            if val != 0.0:
                raise ValueError(f"{name}: slack bus {k + 1} delta {val}: must be zero")
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
