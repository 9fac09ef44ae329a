"""WLS state estimation (iterative AC and linear DC), residual analysis,
chi-square bad-data detection and largest-normalized-residual removal.

AC state ordering: [theta at every bus but each island's angle reference,
V at all buses] (see ``measmodel.MeasurementModel``).
Measurement values are p.u.; power channels are net injections.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .measmodel import MeasKind, MeasurementModel, channel_name, compiled
from .network import NetworkModel, TopologyMatrix, build_topology, island_references
from .stats import chi_square_threshold  # noqa: F401  perfbench's tracer test calls it here

__all__ = [
    "MeasKind",
    "Measurement",
    "MeasurementSet",
    "StateVector",
    "EstimationResult",
    "BddVerdict",
    "EstimationError",
    "ObservabilityError",
    "standard_channels",
    "measurements_from_state",
    "full_telemetry_from_state",
    "gauss_newton",
    "estimate",
    "wls_estimate_ac",
    "build_dc_jacobian",
    "wls_estimate_dc",
    "chi_square_statistic",
    "bdd_classify",
    "iterative_bad_data_removal",
    "measurements_to_csv",
    "measurements_from_csv",
]


class EstimationError(ValueError):
    """Measurements WLS cannot estimate: bad input, so a ValueError."""


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
        return channel_name(self.kind, self.bus, self.branch)


@dataclass
class MeasurementSet:
    entries: list[Measurement]

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
        return MeasurementSet(entries)

    def without(self, indices: Iterable[int]) -> "MeasurementSet":
        drop = set(indices)
        return MeasurementSet([m for i, m in enumerate(self.entries) if i not in drop])

    def index_of(self, kind: MeasKind, bus: int) -> int:
        for i, m in enumerate(self.entries):
            if m.kind is kind and m.bus == bus:
                return i
        raise KeyError(f"no {kind.value} measurement at bus {bus}")


@dataclass
class StateVector:
    v: np.ndarray  # p.u. per bus
    theta: np.ndarray  # radians per bus, each island's reference at its start value


@dataclass
class EstimationResult:
    x_hat: StateVector
    residuals: np.ndarray
    j_value: float
    iterations: int
    converged: bool
    jacobian: np.ndarray  # at the solution
    sigmas: np.ndarray
    measurements: MeasurementSet | None  # None from ``estimate`` of bare arrays
    measurement_model: MeasurementModel  # compiled for the measurements' layout


@dataclass
class BddVerdict:
    flagged: bool
    threshold: float
    j_value: float
    suspect: int | None = None  # measurement index of the largest normalized residual


# Default channel noise (p.u. std-dev); diagonal R throughout.
DEFAULT_SIGMA_VM = 0.01
DEFAULT_SIGMA_POWER = 0.02
WLS_MAX_ITER = 50  # h/H evaluations of one WLS estimate
WLS_DELTA = 1e-6  # step-norm tolerance of a WLS estimate by default
# The damping mu of the Gauss-Newton mode, one per state, a Levenberg-
# Marquardt trust-region control (More, Lecture Notes in Mathematics 630,
# 1978; Nocedal and Wright, Numerical Optimization, ch. 4); see ``_damped``.
WLS_RHO_ACCEPT = 1e-4  # least fall in J, as a fraction of the predicted one
WLS_ROUNDOFF = 1e-12  # a fall predicted below this fraction of J is roundoff
WLS_MU_RISE = 4.0  # least factor on mu after a rejected trial
WLS_MU_FLOOR = 1e-4  # mu below this is 0: undamped steps
WLS_RHO_SECOND = 0.25  # |rho - 1| under G that starts second-order steps


@functools.lru_cache(maxsize=8)
def standard_channels(
    n_bus: int, sigma_vm: float = DEFAULT_SIGMA_VM, sigma_power: float = DEFAULT_SIGMA_POWER
) -> tuple[tuple[Measurement, ...], np.ndarray]:
    """The standard layout: Vm, then P and Q injection (p.u.), at buses
    1..n in that fixed order (42 channels on the 14-bus case), valued 0,
    and its sigma vector, read-only. Built once per bus count and sigma
    pair, and shared by every caller of the layout."""
    layout = tuple(
        Measurement(kind, 0.0, sigma, bus=b)
        for kind, sigma in ((MeasKind.VM, sigma_vm), (MeasKind.PINJ, sigma_power), (MeasKind.QINJ, sigma_power))
        for b in range(1, n_bus + 1)
    )
    sig = np.array([m.sigma for m in layout])
    sig.flags.writeable = False
    return layout, sig


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
    noise_rng: np.random.Generator | None = None,
) -> MeasurementSet:
    """Standard layout plus P/Q flow channels at both ends of every
    in-service branch: the redundancy level at which single gross errors
    are reliably identifiable. Every channel has the default sigmas."""
    return _synthesize(
        model, v, theta, topology, DEFAULT_SIGMA_VM, DEFAULT_SIGMA_POWER, noise_rng, flows=True
    )


def _synthesize(model, v, theta, topology, sigma_vm, sigma_power, noise_rng, flows):
    """h(x) of the standard layout, with the flow channels when ``flows``,
    plus one Gaussian draw over the layout's sigmas when ``noise_rng``."""
    if topology is None:
        topology = build_topology(model)
    layout = list(standard_channels(model.n_bus, sigma_vm, sigma_power)[0])
    if flows:
        layout += [
            Measurement(kind, 0.0, sigma_power, branch=pair)
            for br, live in zip(model.branches, topology.in_service)
            if live
            for pair in (br.pair, br.pair[::-1])
            for kind in (MeasKind.PFLOW, MeasKind.QFLOW)
        ]
    state = [np.asarray(x, dtype=float)[None] for x in (v, theta)]
    values = compiled(model, topology, layout).evaluate(*state, out=(None, None))[0][0]
    if noise_rng is not None:
        values = values + noise_rng.normal(0.0, [m.sigma for m in layout])
    return MeasurementSet([replace(m, value=x) for m, x in zip(layout, values.tolist())])


def gauss_newton(
    mm: MeasurementModel,
    z: np.ndarray,
    sigmas: np.ndarray,
    v: np.ndarray,
    theta: np.ndarray,
    delta: float,
    max_iter: int,
    gain_inv: np.ndarray | None = None,
    start_eval: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton WLS for measurement vectors ``z`` (B, m) sharing one
    layout and ``sigmas``, updating the states ``v``, ``theta`` (B, n) in
    place. ``max_iter`` bounds the evaluations of h and H per state,
    accepted or not: an iteration here, and in the error of an estimate
    that does not converge, is one evaluation. Returns the evaluation
    counts, 0 where a state did not converge (a state whose step is not
    finite stops there), and each state's J = sum w (z - h)^2 at its last
    evaluation, the state its last step, shorter than ``delta``, started
    from; NaN where it did not converge.

    Each island of ``mm`` holds the angle of its reference bus at the
    start value (see ``measmodel.MeasurementModel``). An island with fewer
    rows than states (two per bus, less the reference angle) raises
    ObservabilityError naming its buses, before any evaluation.

    Each state runs alone, so its path does not depend on its batch, under
    one damping mu (see ``_damped``): each step solves (A + mu diag G) dx
    = H'Wr, with the gain G = H'WH, and A = G, or G - S once the residual
    is large, S the ``curvature`` of ``mm`` for the multipliers W r, which
    is no evaluation. mu starts at 0, and a state converges once an
    undamped step is shorter than ``delta`` (that step is taken too). A G
    with a zero on its diagonal, or one ``np.linalg.solve`` finds singular
    undamped, raises ObservabilityError naming the states the measurements
    leave unobserved.

    With ``gain_inv``, one fixed inverse gain (``mm.n_state`` square) for
    every state and step, the batch takes the chord steps dx = ``gain_inv``
    H(x)'W(z - h(x)) instead, in full: a state converges to a root of the
    same normal equations, linearly rather than quadratically. A chord
    batch whose every state starts from one state may pass ``start_eval``,
    h (m,) and H (m, n_state) evaluated there, and its first step then
    evaluates nothing."""
    # Bin 0 counts the flow rows of out-of-service branches.
    rows_per_island = np.bincount(mm.row_island + 1, minlength=len(mm.islands) + 1)[1:]
    for (buses, _), count in zip(mm.islands, rows_per_island):
        if count < 2 * len(buses) - 1:
            raise ObservabilityError(
                f"the island of {'buses' if len(buses) > 1 else 'bus'} {', '.join(map(str, sorted(buses)))} "
                f"has fewer measurements ({count}) than states ({2 * len(buses) - 1})"
            )
    batch, m = z.shape
    w = 1.0 / sigmas**2
    ang = mm.angle_buses
    na = ang.size
    # Angle columns that form one run of buses, as with a single reference
    # at the first bus, update theta through a slice, in place.
    run = slice(ang[0], ang[-1] + 1) if na and ang[-1] - ang[0] == na - 1 else ang
    iterations = np.zeros(batch, dtype=int)
    j = np.full(batch, np.nan)
    # A diverging state overflows; it leaves the loop as not converged.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if gain_inv is None:
            for k in range(batch):
                iterations[k], j[k] = _damped(mm, z[k:k + 1], w, v[k:k + 1], theta[k:k + 1], run, delta,
                                              max_iter)
            return iterations, j
        h = np.empty((batch, m))
        jac = np.empty((batch, m, mm.n_state))
        active = np.arange(batch)
        for it in range(1, max_iter + 1):
            k = active.size
            # The rows that step, as a slice while that is every row.
            sel = slice(None) if k == batch else active
            if it == 1 and start_eval is not None:
                r, hk = z - start_eval[0], np.broadcast_to(start_eval[1], jac.shape)
            else:
                r, hk = mm.evaluate(v[sel], theta[sel], out=(h[:k], jac[:k]))
                np.subtract(z[sel], r, out=r)
            dx = np.matmul(hk.transpose(0, 2, 1), (r * w)[..., None])[..., 0] @ gain_inv.T
            norm = np.sqrt(np.add.reduce(dx * dx, axis=1))
            done = norm < delta
            if k == batch:
                theta[:, run] += dx[:, :na]
            else:
                # An index array pairs with ``ang`` as a column.
                theta[active[:, None], ang] += dx[:, :na]
            v[sel] += dx[:, na:]
            if np.count_nonzero(done):
                finished, rd = active[done], r[done]
                iterations[finished] = it
                j[finished] = np.add.reduce(rd * rd * w, axis=1)
            active = active[~done & np.isfinite(norm)]
            if not active.size:
                break
    return iterations, j


def _damped(mm: MeasurementModel, z: np.ndarray, w: np.ndarray, v: np.ndarray, theta: np.ndarray,
            run: slice | np.ndarray, delta: float, max_iter: int) -> tuple[int, float]:
    """The Gauss-Newton mode of ``gauss_newton`` for one state, ``z`` (1,
    m) with weights ``w``, and ``v``, ``theta`` (1, n) updated in place,
    ``run`` the columns of theta that the state's angles fill. Returns the
    evaluation count and J at the last accepted state, or 0 and NaN.

    A trial step from the accepted state, with D = diag G, predicts the
    fall pred = dx'H'Wr + mu dx'D dx in J. It is accepted when J falls by
    more than ``WLS_RHO_ACCEPT`` pred, or when pred is below
    ``WLS_ROUNDOFF`` J and J rises by no more than that. A rejected trial
    sets mu to the larger of ``WLS_MU_RISE`` mu and mu + dx'(A + mu D)dx /
    dx'D dx, which about halves the step along itself however G is
    conditioned. An accepted one with rho = fall / pred scales mu by
    max(1/3, 1 - (2 rho - 1)^3) (Nielsen, IMM-REP-1999-05), and mu below
    ``WLS_MU_FLOOR`` is 0. A is G - S after an accepted step that did not
    halve J, once such a step under G had |rho - 1| above
    ``WLS_RHO_SECOND`` (near a minimum |rho - 1| is about the rate at which
    Gauss-Newton converges). A is G again after a step that halves J, and
    at a state where np.linalg.cholesky rejects G - S + mu D, until a step
    under G passes that test again."""
    na = mm.angle_buses.size
    # W's diagonal repeated across H's columns, so that H W is one contiguous product.
    w_rows = np.repeat(w[:, None], mm.n_state, axis=1)
    r, hk = mm.evaluate(v, theta)
    np.subtract(z, r, out=r)
    j = np.add.reduce(r * r * w, axis=1)[0]
    mu, newton, it = 0.0, False, 1
    while True:
        hw_t = (hk * w_rows).transpose(0, 2, 1)
        g = hw_t @ r[..., None]
        gain = hw_t @ hk
        diag = gain[0].diagonal().copy()
        if not diag.all():
            raise _singular(mm, hk[0])
        curved = gain - mm.curvature(v, theta, r * w) if newton else None
        while True:
            a = gain if curved is None else curved
            if mu:
                a = a + mu * np.diag(diag)
            if curved is not None:
                try:
                    np.linalg.cholesky(a)
                except np.linalg.LinAlgError:
                    curved = None
                    continue
            try:
                dx = np.linalg.solve(a, g)[..., 0]
            except np.linalg.LinAlgError:
                raise _singular(mm, hk[0]) from None
            norm = np.sqrt(np.add.reduce(dx * dx, axis=1))[0]
            if not np.isfinite(norm):
                return 0, np.nan
            vt = v + dx[:, na:]
            tht = theta.copy()
            tht[:, run] += dx[:, :na]
            if not mu and norm < delta:
                v[...], theta[...] = vt, tht
                return it, j
            if it == max_iter:
                return 0, np.nan
            it += 1
            rt, ht = mm.evaluate(vt, tht)
            np.subtract(z, rt, out=rt)
            jt = np.add.reduce(rt * rt * w, axis=1)[0]
            descent, dd = g[0, :, 0] @ dx[0], dx[0] * dx[0] @ diag
            pred, fall = descent + mu * dd, j - jt
            # A NaN J compares false: it is rejected.
            if fall > WLS_RHO_ACCEPT * pred:
                rho = fall / pred
                break
            # A fall predicted within roundoff, and met within it, is as predicted.
            if pred < WLS_ROUNDOFF * j and -fall <= WLS_ROUNDOFF * j:
                rho = 1.0
                break
            mu = max(WLS_MU_RISE * mu, mu + descent / dd)
        newton = jt > 0.5 * j and (curved is not None or abs(rho - 1.0) > WLS_RHO_SECOND)
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        if mu < WLS_MU_FLOOR:
            mu = 0.0
        v[...], theta[...] = vt, tht
        r, hk, j = rt, ht, jt


def _singular(mm: MeasurementModel, jac: np.ndarray) -> ObservabilityError:
    """The error of a singular gain built from ``jac`` (m, n_state). It
    names the states no row depends on, ``no measurement depends on V at
    bus 8``, and otherwise those of H's null space."""
    zero = ~jac.any(axis=0)
    if zero.any():
        cols, says = np.flatnonzero(zero), "no measurement depends on {}"
    else:
        _, s, vt = np.linalg.svd(jac)
        rank = min(np.count_nonzero(s > s[0] * max(jac.shape) * np.finfo(float).eps), s.size - 1)
        cols = np.flatnonzero((np.abs(vt[rank:]) > 1e-6).any(axis=0))
        says = "a combination of {} moves no measurement"
    na = mm.angle_buses.size
    names = []
    for label, buses in (("theta", mm.angle_buses[cols[cols < na]] + 1), ("V", cols[cols >= na] - na + 1)):
        if buses.size:
            where = "buses" if buses.size > 1 else "bus"
            names.append(f"{label} at {where} {', '.join(map(str, buses.tolist()))}")
    return ObservabilityError("singular gain matrix: " + says.format(" or ".join(names)))


def wls_estimate_ac(
    model: NetworkModel,
    measurements: MeasurementSet,
    delta: float = WLS_DELTA,
    topology: TopologyMatrix | None = None,
    x0: StateVector | None = None,
) -> EstimationResult:
    """``estimate`` of ``measurements`` on their layout compiled for
    ``model`` and ``topology``, the result carrying ``measurements``."""
    mm = compiled(model, topology, measurements.entries)
    return replace(estimate(mm, measurements.z, measurements.sigmas, delta, x0), measurements=measurements)


def estimate(
    mm: MeasurementModel,
    z: np.ndarray,
    sig: np.ndarray,
    delta: float = WLS_DELTA,
    x0: StateVector | None = None,
) -> EstimationResult:
    """Gauss-Newton WLS of values ``z`` with sigmas ``sig`` on the rows of
    the compiled model ``mm``, from ``x0`` (a flat start by default), under
    the trust-region damping of ``gauss_newton``: at most ``WLS_MAX_ITER``
    evaluations of h and H, rejected trials included, which ``iterations``
    of the result counts, convergence on the norm of an undamped step, and
    second-order steps on a large residual. Each island of ``mm`` keeps the
    angle of its reference bus (``network.island_references``) at its
    value in ``x0``, 0 from a flat start. Whole turns come off each
    estimated angle outside (-pi, pi] after h and H are evaluated at the
    end state, so an angle in that range is reported as it ends.

    Raises ValueError unless ``delta`` is a finite number above 0, naming
    ``x0`` unless it holds a finite V and theta per bus, or naming ``z`` or
    ``sig`` unless it holds one entry per row of ``mm``;
    EstimationError naming the channel (``mm.channel``) when a value or
    sigma is not finite, or a weight 1/sigma^2 is not; ObservabilityError
    naming its buses when an island has fewer measurements than states
    (up front, see ``gauss_newton``) or naming the unobserved states when
    the gain matrix is singular.
    """
    if not 0.0 < delta < np.inf:
        raise ValueError(f"delta {delta}: expected a finite number above 0")
    for name, x in () if x0 is None else (("v", x0.v), ("theta", x0.theta)):
        if np.shape(x) != (mm.n_bus,):
            raise ValueError(f"x0.{name} has shape {np.shape(x)}: expected ({mm.n_bus},), one entry per bus")
        if not np.isfinite(x).all():
            raise ValueError(f"x0.{name} at bus {int(np.argmin(np.isfinite(x))) + 1} is not finite")
    for name, x in (("z", z), ("sig", sig)):
        if np.shape(x) != (mm.n_rows,):
            raise ValueError(f"{name} has shape {np.shape(x)}: expected ({mm.n_rows},), one entry per row of mm")
    bad = ~(np.isfinite(z) & np.isfinite(sig))
    if bad.any():
        k = int(np.argmax(bad))
        raise EstimationError(
            f"non-finite measurement on channel {mm.channel(k)}: value {float(z[k])}, sigma {float(sig[k])}"
        )
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        bad = ~np.isfinite(1.0 / sig**2)
    if bad.any():
        k = int(np.argmax(bad))
        raise EstimationError(
            f"channel {mm.channel(k)}: sigma {float(sig[k])} gives a non-finite weight 1/sigma^2"
        )
    return _solve(mm, z, sig, delta, x0)


def _solve(mm: MeasurementModel, z: np.ndarray, sig: np.ndarray, delta: float = WLS_DELTA,
           x0: StateVector | None = None) -> EstimationResult:
    """``estimate`` of checked inputs."""
    n = mm.n_bus
    z = z[None]
    v = np.ones((1, n)) if x0 is None else x0.v.astype(float)[None].copy()
    theta = np.zeros((1, n)) if x0 is None else x0.theta.astype(float)[None].copy()

    iterations, _ = gauss_newton(mm, z, sig, v, theta, delta, WLS_MAX_ITER)
    if not iterations[0]:
        raise EstimationError(f"WLS did not converge in {WLS_MAX_ITER} iterations")

    h_val, jac = mm.evaluate(v, theta)
    residuals = (z - h_val)[0]
    theta = theta[0]
    turned = (theta <= -np.pi) | (theta > np.pi)
    if turned.any():
        theta = np.where(turned, np.pi - np.mod(np.pi - theta, 2.0 * np.pi), theta)
    return EstimationResult(
        x_hat=StateVector(v=v[0], theta=theta),
        residuals=residuals,
        j_value=chi_square_statistic(residuals, sig),
        iterations=int(iterations[0]),
        converged=True,
        jacobian=jac[0],
        sigmas=sig,
        measurements=None,
        measurement_model=mm,
    )


def build_dc_jacobian(
    model: NetworkModel, topology: TopologyMatrix | None = None
) -> tuple[np.ndarray, list[str]]:
    """Linear DC measurement matrix over the angles of every bus but each
    island's reference (``network.island_references``), the AC model's
    theta columns.

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
    # H stays in C order (np.delete of two or more columns returns Fortran
    # order); BLAS rounds H @ c differently on a Fortran-ordered copy.
    refs = [ref - 1 for _, ref in island_references(model, topology)]
    return np.ascontiguousarray(np.delete(np.vstack([b_mat, flows]), refs, axis=1)), labels


@dataclass
class DcEstimate:
    x_hat: np.ndarray  # angles of ``build_dc_jacobian``'s columns, radians
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
    Omega = R - H (H' R^-1 H)^-1 H'. Raises ObservabilityError when
    ``np.linalg.solve`` finds the gain H' R^-1 H singular."""
    h = result.jacobian
    sig = result.sigmas
    w = 1.0 / sig**2
    gain = (h * w[:, None]).T @ h
    try:
        cov_diag = np.einsum("ij,ji->i", h, np.linalg.solve(gain, h.T))
    except np.linalg.LinAlgError as exc:
        raise _singular(result.measurement_model, h) from exc
    omega = sig**2 - cov_diag
    omega = np.clip(omega, 1e-12, None)
    return result.residuals / np.sqrt(omega)


def _check_threshold(threshold: float) -> None:
    if not np.isfinite(threshold):
        raise ValueError(f"threshold {threshold}: expected a finite number")


def bdd_classify(result: EstimationResult, threshold: float) -> BddVerdict:
    """Flag when J exceeds the threshold (strictly); on a flag, point at
    the measurement with the largest normalized residual. Raises
    ValueError unless ``threshold`` is a finite number."""
    _check_threshold(threshold)
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
    topology: TopologyMatrix | None = None,
) -> tuple[EstimationResult, list[int]]:
    """Estimate, drop the worst-normalized-residual channel while J exceeds
    the threshold, re-estimate. Returned indices refer to the original set,
    and the result's ``measurements`` to the kept channels, in order.
    The first estimate is ``estimate`` on the layout's model from
    ``measmodel.compiled``, which compiles a layout once per process; each
    re-estimate runs on that model without the dropped rows. Every estimate
    starts flat, with the ``WLS_DELTA`` tolerance and the damped steps of
    ``gauss_newton`` (at most ``WLS_MAX_ITER`` evaluations each).

    Raises ValueError unless ``threshold`` is a finite number, before any
    estimate, the errors of ``estimate``, and ObservabilityError naming its
    buses when an estimate after a removal leaves an island with fewer
    measurements than states, and when a gain is singular.
    """
    _check_threshold(threshold)
    mm = compiled(model, topology, measurements.entries)
    z, sig = measurements.z, measurements.sigmas
    result = estimate(mm, z, sig)
    live = list(range(len(measurements)))
    removed: list[int] = []
    while (worst := bdd_classify(result, threshold).suspect) is not None:
        removed.append(live.pop(worst))
        kept = np.arange(z.size) != worst
        mm, z, sig = mm.without(worst), z[kept], sig[kept]
        result = _solve(mm, z, sig)
    return replace(result, measurements=measurements.without(removed)), removed
