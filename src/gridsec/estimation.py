"""WLS state estimation (iterative AC and linear DC), residual analysis,
chi-square bad-data detection and largest-normalized-residual removal.

AC state ordering: [theta at non-slack buses, V at all buses], n = 2k - 1.
Measurement values are p.u.; power channels are net injections.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .measmodel import MeasKind, MeasurementModel
from .network import NetworkModel, TopologyMatrix, build_topology
from .stats import PAPER_CHI2_THRESHOLD, chi_square_threshold

__all__ = [
    "MeasKind",
    "Measurement",
    "MeasurementSet",
    "StateVector",
    "EstimationResult",
    "BddVerdict",
    "EstimationError",
    "ObservabilityError",
    "standard_layout",
    "measurements_from_state",
    "full_telemetry_from_state",
    "gauss_newton",
    "shared_first_step",
    "chord_steps",
    "wls_estimate_ac",
    "build_dc_jacobian",
    "wls_estimate_dc",
    "chi_square_statistic",
    "chi_square_threshold",
    "bdd_classify",
    "iterative_bad_data_removal",
    "measurements_to_csv",
    "measurements_from_csv",
    "PAPER_CHI2_THRESHOLD",
]


class EstimationError(RuntimeError):
    pass


class ObservabilityError(EstimationError):
    pass


@dataclass(frozen=True)
class Measurement:
    kind: MeasKind
    value: float
    sigma: float
    bus: int = 0  # Vm / Pinj / Qinj location
    branch: tuple[int, int] | None = None  # directed (from, to) for flows

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.kind in (MeasKind.PFLOW, MeasKind.QFLOW) and self.branch is None:
            raise ValueError("flow measurement needs a branch")

    @property
    def channel(self) -> str:
        """Kind and location, e.g. ``Vm bus 3`` or ``Pflow 4-7``."""
        where = f"{self.branch[0]}-{self.branch[1]}" if self.branch else f"bus {self.bus}"
        return f"{self.kind.value} {where}"


@dataclass
class MeasurementSet:
    entries: list[Measurement]
    timestamp: str | None = None

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("empty measurement set")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def z(self) -> np.ndarray:
        return np.array([m.value for m in self.entries])

    @property
    def sigmas(self) -> np.ndarray:
        return np.array([m.sigma for m in self.entries])

    def replaced(self, index: int, value: float) -> "MeasurementSet":
        entries = list(self.entries)
        entries[index] = replace(entries[index], value=value)
        return MeasurementSet(entries, self.timestamp)

    def without(self, indices: Iterable[int]) -> "MeasurementSet":
        drop = set(indices)
        return MeasurementSet(
            [m for i, m in enumerate(self.entries) if i not in drop], self.timestamp
        )

    def index_of(self, kind: MeasKind, bus: int) -> int:
        for i, m in enumerate(self.entries):
            if m.kind is kind and m.bus == bus:
                return i
        raise KeyError(f"no {kind.value} measurement at bus {bus}")


@dataclass
class StateVector:
    v: np.ndarray  # p.u. per bus
    theta: np.ndarray  # radians per bus, slack entry 0


@dataclass
class EstimationResult:
    x_hat: StateVector
    residuals: np.ndarray
    j_value: float
    iterations: int
    converged: bool
    jacobian: np.ndarray  # at the solution
    sigmas: np.ndarray
    measurements: MeasurementSet
    measurement_model: MeasurementModel  # compiled for ``measurements``


@dataclass
class BddVerdict:
    flagged: bool
    threshold: float
    j_value: float
    suspect: int | None = None  # measurement index of the largest normalized residual


# Default channel noise (p.u. std-dev); diagonal R throughout.
DEFAULT_SIGMA_VM = 0.01
DEFAULT_SIGMA_POWER = 0.02
_WLS_MAX_ITER = 50


def standard_layout(
    v: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    sigma_vm: float = DEFAULT_SIGMA_VM,
    sigma_power: float = DEFAULT_SIGMA_POWER,
) -> list[Measurement]:
    """Vm, then P and Q injection (p.u.), at buses 1..n in that fixed
    order (42 channels on the 14-bus case), valued from per-bus arrays."""
    out: list[Measurement] = []
    for kind, values, sigma in (
        (MeasKind.VM, v, sigma_vm),
        (MeasKind.PINJ, p, sigma_power),
        (MeasKind.QINJ, q, sigma_power),
    ):
        out += [
            Measurement(kind, x, sigma, bus=b)
            for b, x in enumerate(np.asarray(values, dtype=float).tolist(), 1)
        ]
    return out


def measurements_from_state(
    model: NetworkModel,
    v: np.ndarray,
    theta: np.ndarray,
    topology: TopologyMatrix | None = None,
    sigma_vm: float = DEFAULT_SIGMA_VM,
    sigma_power: float = DEFAULT_SIGMA_POWER,
    noise_rng: np.random.Generator | None = None,
) -> MeasurementSet:
    """Noiseless (or Gaussian-noised) standard-layout measurements
    evaluated at a given bus voltage state."""
    return _synthesize(model, v, theta, topology, sigma_vm, sigma_power, noise_rng, flows=False)


def full_telemetry_from_state(
    model: NetworkModel,
    v: np.ndarray,
    theta: np.ndarray,
    topology: TopologyMatrix | None = None,
    sigma_vm: float = DEFAULT_SIGMA_VM,
    sigma_power: float = DEFAULT_SIGMA_POWER,
    noise_rng: np.random.Generator | None = None,
) -> MeasurementSet:
    """Standard layout plus P/Q flow channels at both ends of every
    in-service branch: the redundancy level at which single gross errors
    are reliably identifiable."""
    return _synthesize(model, v, theta, topology, sigma_vm, sigma_power, noise_rng, flows=True)


def _synthesize(model, v, theta, topology, sigma_vm, sigma_power, noise_rng, flows):
    """h(x) of the standard layout, with the flow channels when ``flows``,
    plus one Gaussian draw over the layout's sigmas when ``noise_rng``."""
    if topology is None:
        topology = build_topology(model)
    zeros = np.zeros(model.n_bus)
    layout = standard_layout(zeros, zeros, zeros, sigma_vm, sigma_power)
    if flows:
        layout += [
            Measurement(kind, 0.0, sigma_power, branch=pair)
            for br, live in zip(model.branches, topology.in_service)
            if live
            for pair in (br.pair, br.pair[::-1])
            for kind in (MeasKind.PFLOW, MeasKind.QFLOW)
        ]
    state = [np.asarray(x, dtype=float)[None] for x in (v, theta)]
    values = MeasurementModel(model, topology, layout).evaluate(*state, out=(None, None))[0][0]
    if noise_rng is not None:
        values = values + noise_rng.normal(0.0, [m.sigma for m in layout])
    return MeasurementSet([replace(m, value=x) for m, x in zip(layout, values.tolist())])


def _gauss_newton_step(jac, r, w, delta, out=(None, None, None)):
    """One Gauss-Newton step per Jacobian of ``jac`` (B, m, n) for each of
    its residual columns ``r`` (B, m, P): the gain H'WH, with the weights
    ``w`` = 1 / sigma^2 (m,) on W's diagonal, solved against the P
    right-hand sides H'Wr in one call. Returns the steps (B, n, P) and
    where their norms are below ``delta`` (B, P). ``out`` holds (B, m, n),
    (B, n, n) and (B, n, P) arrays to write into. Raises
    ObservabilityError when a gain matrix is singular."""
    weighted, gain, rhs = out
    hw_t = np.multiply(jac, w[:, None], out=weighted).transpose(0, 2, 1)
    gain = np.matmul(hw_t, jac, out=gain)
    rhs = np.matmul(hw_t, r, out=rhs)
    try:
        dx = np.linalg.solve(gain, rhs)
    except np.linalg.LinAlgError as exc:
        raise ObservabilityError(f"singular gain matrix: {exc}") from exc
    return dx, np.sqrt(np.sum(dx * dx, axis=1)) < delta


def gauss_newton(
    mm: MeasurementModel,
    z: np.ndarray,
    sigmas: np.ndarray,
    v: np.ndarray,
    theta: np.ndarray,
    delta: float,
    max_iter: int,
) -> np.ndarray:
    """Gauss-Newton WLS for measurement vectors ``z`` (B, m) sharing one
    layout and ``sigmas``, updating the states ``v``, ``theta`` (B, n) in
    place; each stops once its own step norm is below ``delta``. Returns
    the iteration counts, 0 where a state did not converge. Raises
    ObservabilityError when a gain matrix is singular."""
    batch, m = z.shape
    w = 1.0 / sigmas**2
    n = mm.n_bus
    ang = mm.angle_buses
    h = np.empty((batch, m))
    jac = np.empty((batch, m, mm.n_state))
    weighted = np.empty_like(jac)
    gain = np.empty((batch, mm.n_state, mm.n_state))
    rhs = np.empty((batch, mm.n_state, 1))
    iterations = np.zeros(batch, dtype=int)
    active = np.arange(batch)
    for it in range(1, max_iter + 1):
        k = active.size
        r, hk = mm.evaluate(v[active], theta[active], out=(h[:k], jac[:k]))
        np.subtract(z[active], r, out=r)
        dx, done = _gauss_newton_step(
            hk, r[..., None], w, delta, (weighted[:k], gain[:k], rhs[:k])
        )
        dx, done = dx[..., 0], done[:, 0]
        theta[active[:, None], ang] += dx[:, : n - 1]
        v[active] += dx[:, n - 1:]
        iterations[active[done]] = it
        active = active[~done]
        if not active.size:
            break
    return iterations


def shared_first_step(
    mm: MeasurementModel,
    z: np.ndarray,
    sigmas: np.ndarray,
    v: np.ndarray,
    theta: np.ndarray,
    delta: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The first Gauss-Newton step of measurement vectors ``z`` (P, m)
    that all start from one state ``v``, ``theta`` (n,): h, H and the gain
    are formed once and solved against all P residuals in one call.
    Returns the moved states ``v``, ``theta`` (P, n), where a step norm
    was already below ``delta`` (those states converged at iteration 1),
    and the inverse of the gain, the iteration matrix of ``chord_steps``.
    Raises ObservabilityError when the gain matrix is singular."""
    n = mm.n_bus
    h, jac = mm.evaluate(v[None], theta[None])
    gain = np.empty((1, mm.n_state, mm.n_state))
    dx, done = _gauss_newton_step(jac, (z - h).T[None], 1.0 / sigmas**2, delta, (None, gain, None))
    dx, done = dx[0].T, done[0]
    theta = np.tile(theta, (len(z), 1))
    theta[:, mm.angle_buses] += dx[:, : n - 1]
    return v + dx[:, n - 1:], theta, done, np.linalg.inv(gain[0])


def chord_steps(
    mm: MeasurementModel,
    z: np.ndarray,
    sigmas: np.ndarray,
    v: np.ndarray,
    theta: np.ndarray,
    gain_inv: np.ndarray,
    delta: float,
    max_iter: int,
) -> np.ndarray:
    """Constant-gain (chord) WLS for measurement vectors ``z`` (B, m)
    sharing one layout and ``sigmas``: each step is
    dx = ``gain_inv`` H(x)'W(z - h(x)), with one fixed inverse gain (n, n)
    for every state and step, so a state converges to a root of the same
    normal equations as ``gauss_newton``, linearly rather than
    quadratically. Updates ``v``, ``theta`` (B, n) in place; each stops
    once its own step norm is below ``delta``, and a state whose step is
    not finite stops there. Returns the iteration counts, 0 where a state
    did not converge."""
    batch, m = z.shape
    w = 1.0 / sigmas**2
    n = mm.n_bus
    ang = mm.angle_buses
    h = np.empty((batch, m))
    jac = np.empty((batch, m, mm.n_state))
    iterations = np.zeros(batch, dtype=int)
    active = np.arange(batch)
    # A diverging state overflows; it leaves the loop as not converged.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            k = active.size
            r, hk = mm.evaluate(v[active], theta[active], out=(h[:k], jac[:k]))
            np.subtract(z[active], r, out=r)
            r *= w
            dx = np.matmul(hk.transpose(0, 2, 1), r[..., None])[..., 0] @ gain_inv.T
            norm = np.sqrt(np.sum(dx * dx, axis=1))
            done = norm < delta
            theta[active[:, None], ang] += dx[:, : n - 1]
            v[active] += dx[:, n - 1:]
            iterations[active[done]] = it
            active = active[~done & np.isfinite(norm)]
            if not active.size:
                break
    return iterations


def wls_estimate_ac(
    model: NetworkModel,
    measurements: MeasurementSet,
    delta: float = 1e-6,
    topology: TopologyMatrix | None = None,
    max_iter: int = _WLS_MAX_ITER,
    x0: StateVector | None = None,
) -> EstimationResult:
    """Gauss-Newton WLS over the AC measurement model.

    Raises EstimationError naming the channel when a measurement value or
    sigma is not finite, and ObservabilityError when the gain matrix is
    singular (or when m < n up front).
    """
    n_state = 2 * model.n_bus - 1
    if len(measurements) < n_state:
        raise ObservabilityError(
            f"{len(measurements)} measurements cannot observe {n_state} states"
        )
    if delta <= 0:
        raise ValueError("delta must be positive")
    bad = ~(np.isfinite(measurements.z) & np.isfinite(measurements.sigmas))
    if bad.any():
        m = measurements.entries[int(np.argmax(bad))]
        raise EstimationError(
            f"non-finite measurement on channel {m.channel}: value {m.value}, sigma {m.sigma}"
        )
    mm = MeasurementModel(model, topology, measurements.entries)
    return _estimate(mm, measurements, delta, max_iter, x0)


def _estimate(
    mm: MeasurementModel,
    measurements: MeasurementSet,
    delta: float,
    max_iter: int,
    x0: StateVector | None,
) -> EstimationResult:
    """``wls_estimate_ac`` on a compiled model of the measurements' layout."""
    n = mm.n_bus
    z = measurements.z[None]
    sig = measurements.sigmas
    v = np.ones((1, n)) if x0 is None else x0.v.astype(float)[None].copy()
    theta = np.zeros((1, n)) if x0 is None else x0.theta.astype(float)[None].copy()

    iterations = gauss_newton(mm, z, sig, v, theta, delta, max_iter)
    if not iterations[0]:
        raise EstimationError(f"WLS did not converge in {max_iter} iterations")

    h_val, jac = mm.evaluate(v, theta)
    residuals = (z - h_val)[0]
    return EstimationResult(
        x_hat=StateVector(v=v[0], theta=theta[0]),
        residuals=residuals,
        j_value=chi_square_statistic(residuals, sig),
        iterations=int(iterations[0]),
        converged=True,
        jacobian=jac[0],
        sigmas=sig,
        measurements=measurements,
        measurement_model=mm,
    )


def build_dc_jacobian(
    model: NetworkModel, topology: TopologyMatrix | None = None
) -> tuple[np.ndarray, list[str]]:
    """Linear DC measurement matrix over non-slack angles.

    Rows: P injection at every bus, then the from-end flow of every
    in-service branch. Returns (H, row labels).
    """
    if topology is None:
        topology = build_topology(model)
    n = model.n_bus
    live = [br for br, on in zip(model.branches, topology.in_service) if on]
    f = np.array([br.from_bus - 1 for br in live], dtype=int)
    t = np.array([br.to_bus - 1 for br in live], dtype=int)
    b = 1.0 / np.array([br.x * br.tap for br in live])
    # Diagonal terms accumulate in branch order, from end then to end.
    ends = np.stack([f, t], axis=1).ravel()
    b_mat = np.zeros((n, n))
    np.add.at(b_mat, (ends, ends), np.repeat(b, 2))
    np.add.at(b_mat, (f, t), -b)
    np.add.at(b_mat, (t, f), -b)
    flows = np.zeros((len(live), n))
    rows = np.arange(len(live))
    flows[rows, f] = b
    flows[rows, t] = -b
    labels = [f"P{i}" for i in range(1, n + 1)]
    labels += [f"F{br.from_bus}_{br.to_bus}" for br in live]
    # np.delete keeps H in C order; BLAS rounds H @ c differently on a
    # Fortran-ordered copy of the same matrix.
    return np.delete(np.vstack([b_mat, flows]), model.slack_index, axis=1), labels


@dataclass
class DcEstimate:
    x_hat: np.ndarray  # non-slack angles, radians
    residuals: np.ndarray
    j_value: float


def wls_estimate_dc(
    h_matrix: np.ndarray, z: np.ndarray, sigmas: np.ndarray | float = 1.0
) -> DcEstimate:
    """Closed-form linear WLS: x = (H' R^-1 H)^-1 H' R^-1 z."""
    z = np.asarray(z, dtype=float)
    if np.isscalar(sigmas):
        sig = np.full(z.shape, float(sigmas))
    else:
        sig = np.asarray(sigmas, dtype=float)
    w = 1.0 / sig**2
    gain = (h_matrix * w[:, None]).T @ h_matrix
    if np.linalg.matrix_rank(gain) < h_matrix.shape[1]:
        raise ObservabilityError("DC measurement matrix is rank deficient")
    x = np.linalg.solve(gain, (h_matrix * w[:, None]).T @ z)
    # One refinement step drives the normal-equation gradient to rounding
    # level even when the gain matrix is ill-conditioned.
    r = z - h_matrix @ x
    x = x + np.linalg.solve(gain, (h_matrix * w[:, None]).T @ r)
    r = z - h_matrix @ x
    j = float(np.sum((r / sig) ** 2))
    return DcEstimate(x_hat=x, residuals=r, j_value=j)


def chi_square_statistic(residuals: np.ndarray, sigmas: np.ndarray) -> float:
    """J = r' R^-1 r with diagonal R."""
    r = np.asarray(residuals, dtype=float)
    s = np.asarray(sigmas, dtype=float)
    return float(np.sum((r / s) ** 2))


def normalized_residuals(result: EstimationResult) -> np.ndarray:
    """Residuals scaled by the residual-covariance diagonal
    Omega = R - H (H' R^-1 H)^-1 H'."""
    h = result.jacobian
    sig = result.sigmas
    w = 1.0 / sig**2
    gain = (h * w[:, None]).T @ h
    try:
        cov = h @ np.linalg.solve(gain, h.T)
    except np.linalg.LinAlgError:
        cov = np.zeros((len(sig), len(sig)))
    omega = sig**2 - np.diag(cov)
    omega = np.clip(omega, 1e-12, None)
    return result.residuals / np.sqrt(omega)


def bdd_classify(result: EstimationResult, threshold: float) -> BddVerdict:
    """Flag when J exceeds the threshold (strictly); on a flag, point at
    the measurement with the largest normalized residual."""
    flagged = result.j_value > threshold
    suspect = None
    if flagged:
        suspect = int(np.argmax(np.abs(normalized_residuals(result))))
    return BddVerdict(
        flagged=flagged, threshold=threshold, j_value=result.j_value, suspect=suspect
    )


def measurements_to_csv(measurements: MeasurementSet) -> str:
    """CSV with columns (kind, location, value, sigma); flow locations are
    written as from-to."""
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["kind", "location", "value", "sigma"])
    for m in measurements.entries:
        loc = f"{m.branch[0]}-{m.branch[1]}" if m.branch else str(m.bus)
        w.writerow([m.kind.value, loc, "%.12g" % m.value, "%.12g" % m.sigma])
    return buf.getvalue()


def measurements_from_csv(text: str) -> MeasurementSet:
    """Parse the CSV ``measurements_to_csv`` writes. A malformed row raises
    ValueError naming its line: a wrong column count, an unknown kind, a
    location that is not ``bus`` or ``from-to`` as the kind needs, or a
    value or sigma that is not a number."""
    import csv
    import re

    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != ["kind", "location", "value", "sigma"]:
        raise ValueError("expected header kind,location,value,sigma")
    entries = []
    for line, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 columns, got {len(row)}")
            kind = MeasKind(row[0])
            loc = re.fullmatch(r"\s*(\d+)\s*(?:-\s*(\d+)\s*)?", row[1])
            flow = kind in (MeasKind.PFLOW, MeasKind.QFLOW)
            if loc is None or flow != (loc[2] is not None):
                raise ValueError(
                    f"{kind.value} location must be {'from-to' if flow else 'a bus'}, got {row[1]!r}"
                )
            value, sigma = float(row[2]), float(row[3])
            if flow:
                entries.append(Measurement(kind, value, sigma, branch=(int(loc[1]), int(loc[2]))))
            else:
                entries.append(Measurement(kind, value, sigma, bus=int(loc[1])))
        except ValueError as exc:
            raise ValueError(f"measurement CSV line {line}: {exc}") from None
    return MeasurementSet(entries)


def iterative_bad_data_removal(
    model: NetworkModel,
    measurements: MeasurementSet,
    threshold: float,
    delta: float = 1e-6,
    topology: TopologyMatrix | None = None,
    x0: StateVector | None = None,
) -> tuple[EstimationResult, list[int]]:
    """Estimate, drop the worst-normalized-residual channel while J exceeds
    the threshold, re-estimate. Returned indices refer to the original set.
    The layout is compiled once; each re-estimate runs on the compiled
    model without the dropped row, from ``x0`` (a flat start by default).

    Raises ObservabilityError if removal would fall below observability.
    """
    live = list(range(len(measurements)))
    removed: list[int] = []
    n_state = 2 * model.n_bus - 1
    result = wls_estimate_ac(model, measurements, delta=delta, topology=topology, x0=x0)
    while True:
        verdict = bdd_classify(result, threshold)
        if not verdict.flagged:
            return result, removed
        if len(result.measurements) - 1 < n_state:
            raise ObservabilityError(
                "cannot remove further measurements without losing observability"
            )
        worst = verdict.suspect
        assert worst is not None
        removed.append(live.pop(worst))
        result = _estimate(
            result.measurement_model.without(worst),
            result.measurements.without([worst]),
            delta,
            _WLS_MAX_ITER,
            x0,
        )
