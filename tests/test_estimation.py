import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridsec import estimation
from gridsec import fixtures as fx
from gridsec.estimation import (
    WLS_DELTA,
    WLS_MAX_ITER,
    WLS_MU_RISE,
    EstimationError,
    MeasKind,
    Measurement,
    MeasurementSet,
    ObservabilityError,
    StateVector,
    bdd_classify,
    build_dc_jacobian,
    chi_square_statistic,
    estimate,
    full_telemetry_from_state,
    gauss_newton,
    iterative_bad_data_removal,
    measurements_from_csv,
    measurements_from_state,
    measurements_to_csv,
    normalized_residuals,
    wls_estimate_ac,
    wls_estimate_dc,
)
from gridsec.measmodel import MeasurementModel, compiled
from gridsec.network import apply_topology_corruption, build_topology
from gridsec.powerflow import solve
from gridsec.scenarios import TABLE5_SCENARIOS, generate_scenario
from gridsec.stats import chi_square_threshold


@pytest.fixture(scope="module")
def solution(ieee14):
    return solve(ieee14)


@pytest.fixture(scope="module")
def clean_measurements(ieee14, solution):
    return measurements_from_state(ieee14, solution.v, solution.theta)


def test_noiseless_fixed_point(ieee14, solution, clean_measurements):
    result = wls_estimate_ac(ieee14, clean_measurements, delta=1e-9)
    assert result.converged
    assert np.max(np.abs(result.x_hat.v - solution.v)) < 1e-6
    assert np.max(np.abs(result.x_hat.theta - solution.theta)) < 1e-6
    assert result.j_value < 1e-12


def test_gross_error_inflates_j(ieee14, clean_measurements):
    clean = wls_estimate_ac(ieee14, clean_measurements)
    idx = clean_measurements.index_of(MeasKind.VM, 5)
    bad = clean_measurements.replaced(idx, clean_measurements.entries[idx].value + 0.5)
    dirty = wls_estimate_ac(ieee14, bad)
    assert dirty.converged
    assert dirty.j_value > clean.j_value + 100.0


def test_flow_measurements_supported(ieee14, solution):
    ms = measurements_from_state(ieee14, solution.v, solution.theta)
    flows = {(f.from_bus, f.to_bus): f for f in solution.flows}
    extra = list(ms.entries)
    for pair in ((1, 2), (4, 7), (9, 14)):
        f = flows[pair]
        extra.append(Measurement(MeasKind.PFLOW, f.p_from / 100.0, 0.02, branch=pair))
        extra.append(Measurement(MeasKind.QFLOW, f.q_from / 100.0, 0.02, branch=pair))
    result = wls_estimate_ac(ieee14, MeasurementSet(extra), delta=1e-9)
    assert result.j_value < 1e-10


def test_flow_on_open_branch_is_modelled_as_zero(ieee14):
    """With 2-4 open, its flow channels read exactly 0 with a zero Jacobian
    row, so a true 0 MW reading leaves a consistent set consistent."""
    topo = apply_topology_corruption(build_topology(ieee14), [(2, 4)])
    sol = solve(ieee14, topo)
    ms = measurements_from_state(ieee14, sol.v, sol.theta, topo)
    zero_reads = [Measurement(kind, 0.0, 0.02, branch=(2, 4)) for kind in (MeasKind.PFLOW, MeasKind.QFLOW)]
    mm = MeasurementModel(ieee14, topo, zero_reads)
    h, jac = mm.evaluate(sol.v[None], sol.theta[None])
    assert not h.any() and not jac.any()
    result = wls_estimate_ac(ieee14, MeasurementSet(ms.entries + zero_reads[:1]), delta=1e-9, topology=topo)
    assert result.j_value < 1e-10


def test_estimation_convergence_delta_contract(ieee14, clean_measurements):
    """A NaN tolerance used to run all 50 iterations and raise a
    convergence error."""
    for delta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"delta {delta}: expected a finite number above 0"):
            wls_estimate_ac(ieee14, clean_measurements, delta=delta)


def test_unobservable_raises(ieee14, clean_measurements):
    few = MeasurementSet(clean_measurements.entries[:10])
    with pytest.raises(ObservabilityError):
        wls_estimate_ac(ieee14, few)


def test_wls_optimality(ieee14, clean_measurements):
    """Perturbing the optimum in any direction strictly increases J."""
    rng = np.random.default_rng(5)
    idx = clean_measurements.index_of(MeasKind.VM, 3)
    noisy = clean_measurements.replaced(idx, clean_measurements.entries[idx].value + 0.03)
    result = wls_estimate_ac(ieee14, noisy, delta=1e-10)
    mm = MeasurementModel(ieee14, None, noisy.entries)
    z = noisy.z
    sig = noisy.sigmas

    def j_at(v, theta):
        h, _ = mm.evaluate(v[None], theta[None])
        return float(np.sum(((z - h[0]) / sig) ** 2))

    j_star = j_at(result.x_hat.v, result.x_hat.theta)
    assert j_star == pytest.approx(result.j_value, rel=1e-9)
    slack = ieee14.slack_index
    for _ in range(100):
        dv = rng.normal(0, 2e-4, 14)
        dth = rng.normal(0, 2e-4, 14)
        dth[slack] = 0.0
        j_pert = j_at(result.x_hat.v + dv, result.x_hat.theta + dth)
        assert j_pert > j_star


# ---------------------------------------------------------------------------
# DC estimation
# ---------------------------------------------------------------------------


def dc_setup(model):
    h, labels = build_dc_jacobian(model)
    rng = np.random.default_rng(99)
    x_true = rng.normal(0.0, 0.1, h.shape[1])
    return h, labels, x_true


# Opening 7-8 cuts off bus 8, a generator: the slack and bus 8 hold their angles.
TOPOLOGIES = pytest.mark.parametrize(
    "opened, refs", [([], [1]), ([(2, 4), (7, 8)], [1, 8])], ids=["closed", "open-2-4-7-8"]
)


@TOPOLOGIES
def test_dc_jacobian_matches_branch_equations(ieee14, opened, refs):
    """H theta equals the DC flows (theta_f - theta_t) / (x tap) of the
    in-service branches and their signed sums at every bus, over the angles
    of every bus but each island's reference; H is C-ordered."""
    topo = apply_topology_corruption(build_topology(ieee14), opened)
    h, labels = build_dc_jacobian(ieee14, topo)
    refs = [ref - 1 for ref in refs]
    theta = np.random.default_rng(5).normal(0.0, 0.1, 14)
    theta[refs] = 0.0
    p = np.zeros(14)
    flows = []
    for br, live in zip(ieee14.branches, topo.in_service):
        if live:
            f = (theta[br.from_bus - 1] - theta[br.to_bus - 1]) / (br.x * br.tap)
            p[br.from_bus - 1] += f
            p[br.to_bus - 1] -= f
            flows.append(f)
    assert labels[14:] == [f"F{f}_{t}" for (f, t), live in zip(topo.pairs, topo.in_service) if live]
    assert h.flags.c_contiguous
    np.testing.assert_allclose(
        h @ np.delete(theta, refs), np.concatenate([p, flows]), atol=1e-12
    )


@TOPOLOGIES
def test_dc_jacobian_is_the_lossless_ac_jacobian_at_flat_start(ieee14, opened, refs):
    """The DC H equals the dP/dtheta rows of the AC model's P injections
    and from-end P flows on a copy with r = 0 and no charging or shunts,
    at V = 1, theta = 0: two derivations of one matrix."""
    lossless = replace(
        ieee14,
        buses=tuple(replace(b, b_shunt=0.0) for b in ieee14.buses),
        branches=tuple(replace(br, r=0.0, b_shunt=0.0) for br in ieee14.branches),
    )
    topo = apply_topology_corruption(build_topology(lossless), opened)
    h_dc, _ = build_dc_jacobian(lossless, topo)
    layout = [Measurement(MeasKind.PINJ, 0.0, 1.0, bus=b) for b in range(1, 15)]
    layout += [
        Measurement(MeasKind.PFLOW, 0.0, 1.0, branch=br.pair)
        for br, live in zip(lossless.branches, topo.in_service)
        if live
    ]
    mm = MeasurementModel(lossless, topo, layout)
    assert mm.angle_buses.tolist() == [i for i in range(14) if i + 1 not in refs]
    _, jac = mm.evaluate(np.ones((1, 14)), np.zeros((1, 14)))
    np.testing.assert_allclose(jac[0, :, :14 - len(refs)], h_dc, rtol=0, atol=1e-13)


def test_dc_consistent_system_recovers_state(ieee14):
    h, _, x = dc_setup(ieee14)
    est = wls_estimate_dc(h, h @ x, 1.0)
    assert np.max(np.abs(est.x_hat - x)) < 1e-12
    assert est.j_value < 1e-20


def test_dc_normal_equations_orthogonality(ieee14):
    h, _, x = dc_setup(ieee14)
    rng = np.random.default_rng(3)
    sig = np.full(h.shape[0], 0.02)
    z = h @ x + rng.normal(0, 0.02, h.shape[0])
    est = wls_estimate_dc(h, z, sig)
    gradient = h.T @ (est.residuals / sig**2)
    assert np.max(np.abs(gradient)) < 1e-10


def test_dc_estimate_shift_under_column_space_attack(ieee14):
    h, _, x = dc_setup(ieee14)
    rng = np.random.default_rng(4)
    sig = np.full(h.shape[0], 0.02)
    z = h @ x + rng.normal(0, 0.02, h.shape[0])
    c = rng.normal(0, 0.05, h.shape[1])
    clean = wls_estimate_dc(h, z, sig)
    attacked = wls_estimate_dc(h, z + h @ c, sig)
    assert np.max(np.abs(attacked.x_hat - (clean.x_hat + c))) < 1e-10
    assert np.max(np.abs(attacked.residuals - clean.residuals)) < 1e-10


def test_dc_rank_deficiency(ieee14):
    h, _, _ = dc_setup(ieee14)
    h2 = np.hstack([h, h[:, :1]])  # duplicate column
    with pytest.raises(ObservabilityError):
        wls_estimate_dc(h2, np.zeros(h.shape[0]), 1.0)


# ---------------------------------------------------------------------------
# Chi-square statistic and bad data handling
# ---------------------------------------------------------------------------


def test_chi_square_statistic_identities():
    r = np.array([0.0, 0.0, 0.0])
    assert chi_square_statistic(r, np.ones(3)) == 0.0
    r = np.array([0.5, -1.5, 2.0])
    assert chi_square_statistic(r, np.ones(3)) == pytest.approx(float(r @ r))


def test_bdd_strict_inequality(ieee14, clean_measurements):
    result = wls_estimate_ac(ieee14, clean_measurements)
    verdict = bdd_classify(result, threshold=result.j_value)
    assert not verdict.flagged  # equality does not flag


def test_bdd_compat_fixture_values():
    from gridsec.estimation import BddVerdict

    for j in (42.8, 67.3):
        v = BddVerdict(flagged=j > 89.5, threshold=89.5, j_value=j)
        assert not v.flagged


def test_iterative_removal_clean_data(ieee14, clean_measurements):
    tau = chi_square_threshold(len(clean_measurements) - 27, 0.05)
    result, removed = iterative_bad_data_removal(ieee14, clean_measurements, tau)
    assert removed == []
    assert result.j_value <= tau


def test_iterative_removal_recovers_planted_error(ieee14, solution):
    rng = np.random.default_rng(12)
    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta, noise_rng=rng)
    target = 20  # a P injection channel
    bad = ms.replaced(target, ms.entries[target].value + 0.8)
    tau = chi_square_threshold(len(ms) - 27, 0.05)
    result, removed = iterative_bad_data_removal(ieee14, bad, tau)
    assert removed == [target]
    assert result.j_value <= tau


def test_normalized_residual_points_at_planted_error(ieee14, solution):
    rng = np.random.default_rng(21)
    ms = measurements_from_state(ieee14, solution.v, solution.theta, noise_rng=rng)
    idx = ms.index_of(MeasKind.QINJ, 9)
    bad = ms.replaced(idx, ms.entries[idx].value - 0.6)
    result = wls_estimate_ac(ieee14, bad)
    verdict = bdd_classify(result, chi_square_threshold(len(ms) - 27, 0.05))
    assert verdict.flagged
    assert verdict.suspect == idx
    assert np.argmax(np.abs(normalized_residuals(result))) == idx


def test_ac_stealth_defeats_removal(ieee14, solution, clean_measurements):
    """Nonlinear stealth: z + (h(x+c) - h(x)) reproduces the clean
    residuals at the shifted state, so removal drops nothing and the
    estimate carries c (exactly in the linear model; to first order
    here, since the Jacobian moves with the state)."""
    rng = np.random.default_rng(9)
    noisy = measurements_from_state(
        ieee14, solution.v, solution.theta, noise_rng=np.random.default_rng(41)
    )
    clean = wls_estimate_ac(ieee14, noisy, delta=1e-10)
    dv = rng.normal(0, 0.01, 14)
    dth = rng.normal(0, 0.01, 14)
    dth[ieee14.slack_index] = 0.0
    states_v = np.array([clean.x_hat.v, clean.x_hat.v + dv])
    states_theta = np.array([clean.x_hat.theta, clean.x_hat.theta + dth])
    (h_at, h_shifted), _ = MeasurementModel(ieee14, None, noisy.entries).evaluate(
        states_v, states_theta
    )
    attacked_entries = [
        Measurement(m.kind, m.value + float(d), m.sigma, bus=m.bus, branch=m.branch)
        for m, d in zip(noisy.entries, h_shifted - h_at)
    ]
    tau = chi_square_threshold(len(noisy) - 27, 0.05)
    result, removed = iterative_bad_data_removal(
        ieee14, MeasurementSet(attacked_entries), tau
    )
    assert removed == []
    assert abs(result.j_value - clean.j_value) / clean.j_value < 1e-3
    assert np.max(np.abs(result.x_hat.v - (clean.x_hat.v + dv))) < 5e-3
    assert np.max(np.abs(result.x_hat.theta - (clean.x_hat.theta + dth))) < 5e-3


def test_estimation_converges_on_coordinated_attack_snapshot(ieee14):
    """The 8-point attacked snapshot is extreme but estimable: the solver
    converges within tens of iterations from a flat start."""
    from gridsec.fixtures import scenario_1b_records
    from gridsec.pipeline import measurements_from_record

    _, attacked = scenario_1b_records()
    result = wls_estimate_ac(ieee14, measurements_from_record(attacked, ieee14.base_mva), delta=1e-6)
    assert result.converged
    assert result.iterations <= 30


@pytest.mark.parametrize(
    "field, bad, channel",
    [
        ("value", float("nan"), "Vm bus 5"),
        ("sigma", float("inf"), "Vm bus 5"),
        ("value", float("-inf"), "Qflow 7-4"),
    ],
)
def test_non_finite_input_fails_before_iterating(ieee14, solution, field, bad, channel):
    from dataclasses import replace

    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta)
    idx = next(i for i, m in enumerate(ms.entries) if m.channel == channel)
    entries = list(ms.entries)
    entries[idx] = replace(entries[idx], **{field: bad})
    with pytest.raises(EstimationError, match=f"non-finite measurement on channel {channel}: .*{bad}"):
        wls_estimate_ac(ieee14, MeasurementSet(entries))


def test_non_convergence_raises(ieee14, clean_measurements, monkeypatch):
    monkeypatch.setattr(estimation, "WLS_MAX_ITER", 1)
    with pytest.raises(EstimationError):
        wls_estimate_ac(ieee14, clean_measurements, delta=1e-12)


def _sweep_batch(model, values):
    """The sweep fixture's baseline estimate and its measurement vectors
    with bus 4's Vm replaced by each of ``values``, as ``gauss_newton``
    takes them, plus the baseline's inverse gain."""
    baseline = fx.sweep_baseline_measurements(model)
    base = wls_estimate_ac(model, baseline, delta=1e-8)
    jac, sig = base.jacobian, baseline.sigmas
    gain_inv = np.linalg.inv((jac * (1.0 / sig**2)[:, None]).T @ jac)
    z = np.tile(baseline.z, (len(values), 1))
    z[:, baseline.index_of(MeasKind.VM, 4)] = values
    return base, z, sig, gain_inv


def _start(base, rows):
    return np.tile(base.x_hat.v, (rows, 1)), np.tile(base.x_hat.theta, (rows, 1))


def _recorded(mm):
    """A copy of ``mm`` (so the spy stays out of the per-process compiled
    model) whose ``evaluate`` records the states of each call, and that
    list."""
    calls = []
    recording = copy.copy(mm)

    def evaluate(v, theta, out=None):
        calls.append((v.copy(), theta.copy()))
        return mm.evaluate(v, theta, out)

    recording.evaluate = evaluate
    return recording, calls


def test_gauss_newton_and_chord_modes_reach_the_same_state(ieee14):
    """A chord step is the Gauss-Newton step on a frozen gain: both modes
    converge each candidate to the same root of the normal equations."""
    base, z, sig, gain_inv = _sweep_batch(ieee14, np.linspace(0.97, 1.08, 6))
    ends = []
    for fixed in (None, gain_inv):
        v, theta = _start(base, len(z))
        iterations, _ = gauss_newton(
            base.measurement_model, z, sig, v, theta, 1e-11, WLS_MAX_ITER, fixed
        )
        assert iterations.all()
        ends.append(np.hstack((v, theta)))
    assert np.abs(ends[0] - ends[1]).max() < 1e-9


def test_overflowing_step_stops_unconverged_in_both_modes(ieee14):
    """A row whose step overflows leaves the loop after that step with 0
    iterations, quietly; the other row of the batch still converges. The
    Gauss-Newton mode runs each row alone, so the overflowing one costs one
    evaluation after the other's; the chord mode steps both at once."""
    base, z, sig, gain_inv = _sweep_batch(ieee14, [1.02, 1e300])
    mm, calls = _recorded(base.measurement_model)
    for fixed in (None, gain_inv):
        calls.clear()
        v, theta = _start(base, len(z))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            iterations, _ = gauss_newton(mm, z, sig, v, theta, 1e-8, WLS_MAX_ITER, fixed)
        assert iterations[0] > 0 and iterations[1] == 0
        rows = [len(v) for v, _ in calls]
        if fixed is None:
            assert rows == [1] * (iterations[0] + 1)
        else:
            assert rows[0] == 2 and set(rows[1:]) == {1}


def test_gauss_newton_singular_gain_raises(ieee14, clean_measurements):
    """Voltage magnitudes alone leave every angle unobserved: the gain is
    singular. Each is taken twice, so that the rows outnumber the states."""
    vm_only = [m for m in clean_measurements.entries if m.kind is MeasKind.VM] * 2
    mm = compiled(ieee14, None, vm_only)
    z = np.array([[m.value for m in vm_only]])
    v, theta = np.ones((1, ieee14.n_bus)), np.zeros((1, ieee14.n_bus))
    buses = ", ".join(map(str, range(2, 15)))
    error = f"^singular gain matrix: no measurement depends on theta at buses {buses}$"
    with pytest.raises(ObservabilityError, match=error):
        gauss_newton(mm, z, np.full(len(vm_only), 0.01), v, theta, 1e-6, WLS_MAX_ITER)


def _catalog_point(model, point_id):
    return generate_scenario(model, next(s for s in TABLE5_SCENARIOS if s.id == point_id))


def _counting_evaluate(monkeypatch):
    """A list whose one entry counts ``MeasurementModel.evaluate`` calls."""
    count = [0]
    evaluate = MeasurementModel.evaluate

    def counting(self, v, theta, out=None):
        count[0] += 1
        return evaluate(self, v, theta, out)

    monkeypatch.setattr(MeasurementModel, "evaluate", counting)
    return count


@pytest.mark.parametrize(
    "point_id, channel", [("table5-27", "Pflow 7-8"), ("table5-29", "Qinj bus 7")], ids=["27", "29"]
)
def test_islanded_points_estimate_with_one_angle_reference_per_island(ieee14, point_id, channel):
    """Table 5 points 27 and 29 cut bus 8 (with bus 7 in point 27) off from
    the slack. Each island holds one angle, the slack's and bus 8's (the
    generator the power flow solves as that island's slack), so noiseless
    full telemetry recovers the power-flow state, and bad-data removal
    takes out exactly a 30 sigma error on one noisy set."""
    oc = _catalog_point(ieee14, point_id)
    sol = oc.solution
    ms = full_telemetry_from_state(oc.model, sol.v, sol.theta, oc.topology)
    result = wls_estimate_ac(oc.model, ms, topology=oc.topology)
    assert result.measurement_model.angle_buses.tolist() == [i for i in range(14) if i not in (0, 7)]
    assert np.max(np.abs(result.x_hat.v - sol.v)) < 1e-12
    assert np.max(np.abs(result.x_hat.theta - sol.theta)) < 1e-12
    assert result.j_value < 1e-20

    noisy = full_telemetry_from_state(oc.model, sol.v, sol.theta, oc.topology,
                                      noise_rng=np.random.default_rng(5))
    row = next(i for i, m in enumerate(noisy.entries) if m.channel == channel)
    bad = noisy.replaced(row, noisy.entries[row].value + 30.0 * noisy.entries[row].sigma)
    tau = chi_square_threshold(len(bad) - result.measurement_model.n_state)
    _, removed = iterative_bad_data_removal(oc.model, bad, tau, topology=oc.topology)
    assert removed == [row]


def test_an_island_with_too_few_measurements_raises_naming_its_buses(ieee14, monkeypatch):
    """An island with fewer channels than states (two per bus, less its
    reference angle) raises before any evaluation: point 29's bus 8 with
    none of its three channels, and point 27's buses 7 and 8 with their P
    injections alone. The count is necessary, not sufficient: bus 8 with
    its P injection alone has one channel for one state, but that row is
    0 on a bus with no branch and no shunt, so the gain is singular at the
    first evaluation, in the estimate and in bad-data removal, which names
    the state no row depends on."""
    cases = [
        ("table5-29", ("Vm bus 8", "Pinj bus 8", "Qinj bus 8"),
         r"the island of bus 8 has fewer measurements \(0\) than states \(1\)"),
        ("table5-27", ("Vm bus 7", "Vm bus 8", "Qinj bus 7", "Qinj bus 8", "Pflow 7-8", "Qflow 7-8",
                       "Pflow 8-7", "Qflow 8-7"),
         r"the island of buses 7, 8 has fewer measurements \(2\) than states \(3\)"),
    ]
    cases.append(("table5-29", ("Vm bus 8", "Qinj bus 8"),
                  r"^singular gain matrix: no measurement depends on V at bus 8$"))
    sets = []
    for point_id, dropped, error in cases:
        oc = _catalog_point(ieee14, point_id)
        ms = full_telemetry_from_state(oc.model, oc.solution.v, oc.solution.theta, oc.topology)
        kept = MeasurementSet([m for m in ms.entries if m.channel not in dropped])
        assert len(kept) == len(ms) - len(dropped)
        sets.append((oc, kept, error))
    count = _counting_evaluate(monkeypatch)
    for oc, kept, error in sets:
        with pytest.raises(ObservabilityError, match=error):
            wls_estimate_ac(oc.model, kept, topology=oc.topology)
        with pytest.raises(ObservabilityError, match=error):
            iterative_bad_data_removal(oc.model, kept, 1e9, topology=oc.topology)
    assert count[0] == 2


def _reference_gauss_newton(mm, z, sigmas, v, theta, delta, max_iter, gain_inv=None):
    """``gauss_newton`` without step control: every step is taken in full,
    one evaluation per iteration. While it accepts every trial and forms no
    G - S, so that its damping stays 0, ``gauss_newton`` takes exactly
    these steps, and returns the same counts and J."""
    batch, m = z.shape
    w = 1.0 / sigmas**2
    n = mm.n_bus
    ang = mm.angle_buses
    h = np.empty((batch, m))
    jac = np.empty((batch, m, mm.n_state))
    iterations = np.zeros(batch, dtype=int)
    j = np.full(batch, np.nan)
    active = np.arange(batch)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            k = active.size
            r, hk = mm.evaluate(v[active], theta[active], out=(h[:k], jac[:k]))
            np.subtract(z[active], r, out=r)
            jk = np.sum(r * r * w, axis=1)
            if gain_inv is None:
                hw_t = (hk * w[:, None]).transpose(0, 2, 1)
                dx = np.linalg.solve(hw_t @ hk, hw_t @ r[..., None])[..., 0]
            else:
                r *= w
                dx = np.matmul(hk.transpose(0, 2, 1), r[..., None])[..., 0] @ gain_inv.T
            norm = np.sqrt(np.sum(dx * dx, axis=1))
            done = norm < delta
            theta[active[:, None], ang] += dx[:, : n - 1]
            v[active] += dx[:, n - 1:]
            iterations[active[done]] = it
            j[active[done]] = jk[done]
            active = active[~done & np.isfinite(norm)]
            if not active.size:
                break
    return iterations, j


def _j_path(mm, z, sigmas, calls):
    """J at each recorded state of a one-row run."""
    return [
        chi_square_statistic(z - mm.evaluate(v, theta, out=(None, None))[0][0], sigmas)
        for v, theta in calls
    ]


def _same_runs(loops, mm, z, sigmas, start, delta, max_iter, gain_inv=None):
    """Run each loop from ``start`` (v, theta) and assert that all of them
    end in the same states, counts and last J and, for one row or in chord
    mode, evaluate the same states, bit for bit. Returns the iteration
    counts."""
    runs = []
    for loop in loops:
        recording, calls = _recorded(mm)
        v, theta = (x.copy() for x in start)
        iterations, j = loop(recording, z, sigmas, v, theta, delta, max_iter, gain_inv)
        runs.append((iterations, j, v, theta, calls))
    (it0, j0, v0, theta0, calls0), (it1, j1, v1, theta1, calls1) = runs
    assert np.array_equal(it0, it1) and np.array_equal(j0, j1, equal_nan=True)
    assert np.array_equal(v0, v1) and np.array_equal(theta0, theta1)
    if len(z) > 1 and gain_inv is None:
        # The Gauss-Newton mode runs each row alone.
        return it0
    assert len(calls0) == len(calls1)
    for (va, ta), (vb, tb) in zip(calls0, calls1):
        assert np.array_equal(va, vb) and np.array_equal(ta, tb)
    return it0


def _controls(mm, z, sigmas, start):
    """The one-row estimate of ``z`` from ``start`` (v, theta): the number
    of trials whose J is above the lowest J before them (each is rejected,
    and the next trial damped), and the states (v, theta) at which it
    computed a curvature, that is, formed G - S."""
    recording, calls = _recorded(mm)
    curved = []

    def curvature(v, theta, lam):
        curved.append((v.copy(), theta.copy()))
        return mm.curvature(v, theta, lam)

    recording.curvature = curvature
    v, theta = (x.copy() for x in start)
    gauss_newton(recording, z[None], sigmas, v, theta, WLS_DELTA, WLS_MAX_ITER)
    js = _j_path(mm, z, sigmas, calls)
    return sum(j > min(js[:i]) for i, j in enumerate(js) if i), curved


def test_step_control_takes_the_full_steps_while_each_trial_is_accepted(ieee14, solution):
    """Seeded full-telemetry sets of the base case with 0-2 gross errors of
    10-300 sigma, and one with Vm bus 14 off by -300 sigma. Along the
    first twelve's full-step paths J falls at every step and each step
    predicts its fall closely, so the damping stays 0 and no G - S is
    formed: ``gauss_newton`` evaluates the same states as the reference
    loop, bit for bit, one row at a time and as one batch whose rows
    converge at different counts. The Vm 14 set's full-step J rises at its
    eighth evaluation; the control rejects such trials, damps, and
    converges to the reference's state."""
    rng = np.random.default_rng(7)
    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta)
    sig = ms.sigmas
    zs = ms.z + rng.normal(0.0, sig, (12, len(ms)))
    for k, z in enumerate(zs):
        rows = rng.choice(len(ms), size=k % 3, replace=False)
        z[rows] += rng.choice([-1.0, 1.0], rows.size) * rng.uniform(10, 300, rows.size) * sig[rows]
    vm14 = ms.index_of(MeasKind.VM, 14)
    z = ms.z.copy()
    z[vm14] -= 300 * sig[vm14]
    zs = np.vstack([zs, z])
    mm = compiled(ieee14, None, ms.entries)

    def flat(rows):
        return np.ones((rows, ieee14.n_bus)), np.zeros((rows, ieee14.n_bus))

    rises = []
    for z in zs:
        recording, calls = _recorded(mm)
        assert _reference_gauss_newton(recording, z[None], sig, *flat(1), WLS_DELTA, WLS_MAX_ITER)[0][0]
        js = _j_path(mm, z, sig, calls)
        rises.append(sum(b > a for a, b in zip(js, js[1:])))
    assert rises == [0] * 12 + [1]
    controls = [_controls(mm, z, sig, flat(1)) for z in zs]
    assert controls[:12] == [(0, [])] * 12
    assert controls[12][0] > 0 and controls[12][1]
    steady, damped = zs[:-1], zs[-1:]
    loops = (_reference_gauss_newton, gauss_newton)
    for k in range(len(steady)):
        assert _same_runs(loops, mm, steady[k:k + 1], sig, flat(1), WLS_DELTA, WLS_MAX_ITER).all()
    iterations = _same_runs(loops, mm, steady, sig, flat(len(steady)), WLS_DELTA, WLS_MAX_ITER)
    assert iterations.all() and len(set(iterations)) > 1
    ends = []
    for loop in loops:
        v, theta = flat(1)
        assert loop(mm, damped, sig, v, theta, WLS_DELTA, WLS_MAX_ITER)[0][0]
        ends.append((v, theta))
    (v0, theta0), (v1, theta1) = ends
    # The same state, with angles that may differ by whole turns; each
    # last step is below WLS_DELTA, and the steps before it shrank.
    turns = np.round((theta1 - theta0) / (2 * np.pi))
    assert np.abs(v1 - v0).max() < 2 * WLS_DELTA
    assert np.abs(theta1 - theta0 - 2 * np.pi * turns).max() < 2 * WLS_DELTA


def test_estimated_angles_outside_minus_pi_to_pi_lose_whole_turns(ieee14, solution):
    """An estimate started from the power-flow state with bus 14 two turns
    up and bus 5 one turn down ends at the estimate's state with those
    angles still wound. The estimate reports them whole turns off, in
    (-pi, pi], and every other angle as the iterations left it, to the
    last bit; J, the residuals and H are those evaluated at the end
    state."""
    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta,
                                   noise_rng=np.random.default_rng(2))
    mm = compiled(ieee14, None, ms.entries)
    wound = solution.theta.copy()
    wound[13] += 4 * np.pi
    wound[4] -= 2 * np.pi
    v, theta = solution.v[None].copy(), wound[None].copy()
    assert gauss_newton(mm, ms.z[None], ms.sigmas, v, theta, WLS_DELTA, WLS_MAX_ITER)[0][0]
    result = wls_estimate_ac(ieee14, ms, x0=StateVector(v=solution.v, theta=wound))
    assert np.array_equal(result.x_hat.v, v[0])
    turns = (theta[0] - result.x_hat.theta) / (2 * np.pi)
    assert np.round(turns).tolist() == [0.0] * 4 + [-1.0] + [0.0] * 8 + [2.0]
    assert np.abs(turns - np.round(turns)).max() < 1e-12
    kept = np.round(turns) == 0
    assert np.array_equal(result.x_hat.theta[kept], theta[0, kept])
    assert np.all((-np.pi < result.x_hat.theta) & (result.x_hat.theta <= np.pi))
    h, jac = mm.evaluate(v, theta)
    assert np.array_equal(result.residuals, ms.z - h[0]) and np.array_equal(result.jacobian, jac[0])
    assert result.j_value == chi_square_statistic(ms.z - h[0], ms.sigmas)


def test_chord_mode_takes_the_reference_steps(ieee14):
    """With ``gain_inv`` every chord step is taken in full, as before step
    control, with or without rows left unconverged."""
    base, z, sig, gain_inv = _sweep_batch(ieee14, np.linspace(0.9, 1.2, 8))
    loops = (_reference_gauss_newton, gauss_newton)
    for max_iter in (3, WLS_MAX_ITER):
        iterations = _same_runs(loops, base.measurement_model, z, sig, _start(base, len(z)),
                                1e-8, max_iter, gain_inv)
        assert iterations.all() == (max_iter == WLS_MAX_ITER)


def _flow_error_set(model, magnitude_sigma):
    """Noiseless full telemetry of Table 5 point 25 (9-14 open) with
    ``Pflow 12-6`` moved by ``magnitude_sigma`` sigmas, its model and
    topology, and the channel's row."""
    oc = generate_scenario(model, next(s for s in TABLE5_SCENARIOS if s.id == "table5-25"))
    ms = full_telemetry_from_state(oc.model, oc.solution.v, oc.solution.theta, oc.topology)
    row = next(i for i, m in enumerate(ms.entries) if m.channel == "Pflow 12-6")
    bad = ms.replaced(row, ms.entries[row].value + magnitude_sigma * ms.entries[row].sigma)
    return bad, oc.model, oc.topology, row


def test_a_2000_sigma_flow_error_converges_and_is_removed(ieee14):
    """Full steps swung J around 3.4e6 for all 50 iterations of the first
    estimate, which raised EstimationError; with step control it converges
    and removal takes out exactly the bad channel."""
    bad, model, topology, row = _flow_error_set(ieee14, 2000)
    first = wls_estimate_ac(model, bad, topology=topology)
    assert first.iterations < WLS_MAX_ITER
    tau = chi_square_threshold(len(bad) - (2 * ieee14.n_bus - 1))
    result, removed = iterative_bad_data_removal(model, bad, tau, topology=topology)
    assert removed == [row]
    assert result.j_value <= tau


def _state(mm, v, theta):
    """The state vector (angles of ``mm``, then V) of a one-row state."""
    return np.concatenate([theta[0, mm.angle_buses], v[0]])


def _damped_trials(mm, z, sigmas, x0, a, trials):
    """The trial steps that follow the rejected step ``trials[0]`` from the
    accepted state ``x0`` (v, theta) under A = ``a`` and damping 0, one
    per trial of ``trials`` after it: each solves (A + mu diag G) dx =
    H'Wr with mu the larger of ``WLS_MU_RISE`` mu and mu + dx'(A + mu
    diag G)dx / dx'(diag G)dx of the trial before."""
    h, jac = mm.evaluate(*x0)
    hw = jac[0].T / sigmas**2
    g, d = hw @ (z - h[0]), np.diag(hw @ jac[0])
    mu, steps = 0.0, []
    for dx in trials[:-1]:
        mu = max(WLS_MU_RISE * mu, mu + (g @ dx) / (dx * dx @ d))
        steps.append(np.linalg.solve(a + mu * np.diag(d), g))
    return steps


def test_a_rejected_trial_raises_the_damping(ieee14):
    """The first trials of the 2000 and 2500 sigma sets above whose J rises
    are rejected: the next trial starts from the same accepted state with
    the damping raised by the rule of ``_damped_trials``, under A = G for
    the 2000 sigma set, with one trial rejected, and A = G - S for the 2500
    sigma one, with three in a row."""
    for size, curved, count in ((2000, False, 1), (2500, True, 3)):
        bad, model, topology, _ = _flow_error_set(ieee14, size)
        mm = compiled(model, topology, bad.entries)
        z, sig = bad.z, bad.sigmas
        recording, calls = _recorded(mm)
        formed = []

        def curvature(v, theta, lam):
            formed.append(_state(mm, v, theta))
            return mm.curvature(v, theta, lam)

        recording.curvature = curvature
        v, theta = np.ones((1, ieee14.n_bus)), np.zeros((1, ieee14.n_bus))
        assert gauss_newton(recording, z[None], sig, v, theta, WLS_DELTA, WLS_MAX_ITER)[0][0]
        js = _j_path(mm, z, sig, calls)
        rise = next(i for i, j in enumerate(js) if i and j > js[i - 1])
        rejected = rise
        while js[rejected] > js[rise - 1]:
            rejected += 1
        assert rejected - rise == count
        x0 = _state(mm, *calls[rise - 1])
        assert any(np.array_equal(x, x0) for x in formed) == curved
        h, jac = mm.evaluate(*calls[rise - 1])
        a = (jac[0].T / sig**2) @ jac[0]
        if curved:
            a = a - mm.curvature(*calls[rise - 1], (z - h) / sig**2)[0]
        trials = [_state(mm, *calls[i]) - x0 for i in range(rise, rejected + 1)]
        for step, trial in zip(_damped_trials(mm, z, sig, calls[rise - 1], a, trials), trials[1:]):
            assert np.abs(trial - step).max() < 1e-12


def test_a_state_takes_the_same_path_in_any_batch(ieee14):
    """Noisy sets of the same layout, ten with one to three gross errors of
    300-2500 sigma, several of which take damped steps and form G - S, and
    two without, which do neither: each state ends where it ends alone,
    bit for bit and after the same count, within the full budget and
    within one that leaves some unconverged."""
    bad, model, topology, _ = _flow_error_set(ieee14, 0)
    mm = compiled(model, topology, bad.entries)
    sig = bad.sigmas
    rng = np.random.default_rng(3)
    zs = bad.z + rng.normal(0.0, sig, (12, len(bad)))
    for k, z in enumerate(zs[:10]):
        rows = rng.choice(len(bad), size=1 + k % 3, replace=False)
        z[rows] += rng.choice([-1.0, 1.0], rows.size) * rng.uniform(300, 2500, rows.size) * sig[rows]

    def flat(rows):
        return np.ones((rows, ieee14.n_bus)), np.zeros((rows, ieee14.n_bus))

    controls = [_controls(mm, z, sig, flat(1)) for z in zs]
    assert sum(bool(rejected) for rejected, _ in controls[:10]) > 2
    assert sum(bool(curved) for _, curved in controls[:10]) > 2
    assert [(rejected, len(curved)) for rejected, curved in controls[10:]] == [(0, 0)] * 2
    for max_iter in (WLS_MAX_ITER, 12):
        v, theta = flat(len(zs))
        iterations, _ = gauss_newton(mm, zs, sig, v, theta, WLS_DELTA, max_iter)
        assert iterations.all() == (max_iter == WLS_MAX_ITER)
        for k, z in enumerate(zs):
            vk, thetak = flat(1)
            assert gauss_newton(mm, z[None], sig, vk, thetak, WLS_DELTA, max_iter)[0][0] == iterations[k]
            assert np.array_equal(vk[0], v[k]) and np.array_equal(thetak[0], theta[k])


def test_a_nan_trial_counts_as_a_rise(ieee14, clean_measurements):
    """A trial whose h is NaN is rejected like a rise in J: the next trial
    starts from the same state, damped by the rule of ``_damped_trials``,
    and the estimate then converges."""
    mm = compiled(ieee14, None, clean_measurements.entries)
    poisoned = copy.copy(mm)
    calls = []

    def evaluate(v, theta, out=None):
        h, jac = mm.evaluate(v, theta, out)
        calls.append((v.copy(), theta.copy()))
        if len(calls) == 2:
            h[:] = np.nan
        return h, jac

    poisoned.evaluate = evaluate
    v, theta = np.ones((1, ieee14.n_bus)), np.zeros((1, ieee14.n_bus))
    z, sig = clean_measurements.z, clean_measurements.sigmas
    assert gauss_newton(poisoned, z[None], sig, v, theta, WLS_DELTA, WLS_MAX_ITER)[0][0]
    x0 = _state(mm, *calls[0])
    trials = [_state(mm, *calls[i]) - x0 for i in (1, 2)]
    _, jac = mm.evaluate(*calls[0])
    gain = (jac[0].T / sig**2) @ jac[0]
    (step,) = _damped_trials(mm, z, sig, calls[0], gain, trials)
    assert np.abs(trials[1] - step).max() < 1e-12
    assert np.abs(trials[1]).max() < np.abs(trials[0]).max()


def test_an_estimate_that_still_fails_costs_max_iter_evaluations(ieee14, clean_measurements,
                                                               monkeypatch):
    """A 50 p.u. error on Pinj 7 of the 42-channel standard layout takes
    damped steps and forms G - S, and converges in more than 12
    evaluations; with a budget of 12 it does not. Every trial, accepted or
    not, counts against ``WLS_MAX_ITER`` and a curvature counts as no
    evaluation, so the failure costs exactly that many evaluations. The
    first, at the flat start, gathers from the source compiled with the
    model and still counts."""
    row = clean_measurements.index_of(MeasKind.PINJ, 7)
    bad = clean_measurements.replaced(row, clean_measurements.entries[row].value + 50.0)
    assert 12 < wls_estimate_ac(ieee14, bad).iterations < WLS_MAX_ITER
    monkeypatch.setattr(estimation, "WLS_MAX_ITER", 12)
    count = _counting_evaluate(monkeypatch)
    sources = [0]
    source = MeasurementModel._source

    def computing(self, v, theta):
        sources[0] += 1
        return source(self, v, theta)

    monkeypatch.setattr(MeasurementModel, "_source", computing)
    curvatures = [0]
    curvature = MeasurementModel.curvature

    def counting(self, v, theta, lam):
        curvatures[0] += 1
        return curvature(self, v, theta, lam)

    monkeypatch.setattr(MeasurementModel, "curvature", counting)
    with pytest.raises(EstimationError, match="^WLS did not converge in 12 iterations$"):
        wls_estimate_ac(ieee14, bad)
    assert count[0] == 12
    assert sources[0] == 11
    assert curvatures[0] > 0


def _row_order_and_sigma_scale(model, ms, order, k):
    """Estimate ``ms``, its rows in ``order`` and ``ms`` with every sigma
    times the power of two ``k``. Permuting the rows leaves x-hat within 2
    WLS_DELTA and J within ||G|| (2 WLS_DELTA)^2 (two estimates of one
    minimum each stop within about WLS_DELTA of it, and J is flat there);
    scaling the sigmas leaves the whole path, so x-hat, bit for bit, and
    scales J by exactly 1/k^2, as it scales G, H'Wr, S and the predicted
    fall alike. Returns the three estimates and that J tolerance."""
    permuted = MeasurementSet([ms.entries[i] for i in order])
    scaled = MeasurementSet([replace(m, sigma=k * m.sigma) for m in ms.entries])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        first = wls_estimate_ac(model, ms)
        again = wls_estimate_ac(model, permuted)
        rescaled = wls_estimate_ac(model, scaled)
    jac, w = first.jacobian, 1.0 / ms.sigmas**2
    j_tol = np.linalg.norm((jac * w[:, None]).T @ jac, 2) * (2 * WLS_DELTA) ** 2
    assert np.abs(again.x_hat.v - first.x_hat.v).max() < 2 * WLS_DELTA
    assert np.abs(again.x_hat.theta - first.x_hat.theta).max() < 2 * WLS_DELTA
    assert abs(again.j_value - first.j_value) < j_tol
    assert np.array_equal(rescaled.x_hat.v, first.x_hat.v)
    assert np.array_equal(rescaled.x_hat.theta, first.x_hat.theta)
    assert rescaled.iterations == first.iterations and k * k * rescaled.j_value == first.j_value
    return (first, again, rescaled), j_tol


@given(data=st.data())
@settings(max_examples=12)
def test_switched_estimates_ignore_row_order_and_sigma_scale(ieee14, solution, data):
    """On drawn noisy full-telemetry sets of the base case with one or two
    gross errors of 300-2500 sigma, whose estimates take damped steps and
    form G - S, permuting the rows or scaling every sigma by a power of two
    changes the estimate only as ``_row_order_and_sigma_scale`` allows, and
    removal picks the same channels from the permuted rows."""
    seed = data.draw(st.integers(0, 2**16))
    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta, noise_rng=np.random.default_rng(seed))
    bad = ms
    for row in data.draw(st.lists(st.integers(0, len(ms) - 1), min_size=1, max_size=2, unique=True)):
        size = data.draw(st.floats(300, 2500)) * data.draw(st.sampled_from([-1.0, 1.0]))
        bad = bad.replaced(row, bad.entries[row].value + size * bad.entries[row].sigma)
    flat = np.ones((1, ieee14.n_bus)), np.zeros((1, ieee14.n_bus))
    rejected, curved = _controls(compiled(ieee14, None, bad.entries), bad.z, bad.sigmas, flat)
    assume(rejected and curved)
    order = np.array(data.draw(st.permutations(range(len(bad)))))
    k = data.draw(st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    _row_order_and_sigma_scale(ieee14, bad, order, k)
    permuted = MeasurementSet([bad.entries[i] for i in order])
    tau = chi_square_threshold(len(bad) - (2 * ieee14.n_bus - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, removed = iterative_bad_data_removal(ieee14, bad, tau)
        _, removed_permuted = iterative_bad_data_removal(ieee14, permuted, tau)
    assert removed and [int(order[i]) for i in removed_permuted] == removed


@given(data=st.data())
@settings(max_examples=16)
def test_estimates_near_the_threshold_ignore_row_order_and_sigma_scale(ieee14, solution, data):
    """On drawn noisy full-telemetry sets of the base case with noise only,
    or with one or two errors of 3-10 sigma, J lands near the m = 122
    channels and the threshold tau of its m - 27 degrees of freedom, where
    J crosses m and tau under a scale of the sigmas. Permuting the rows or
    scaling every sigma by a power of two changes the estimate only as
    ``_row_order_and_sigma_scale`` allows; the residual test at tau gives
    the permuted rows' flag wherever J lies further from tau than that J
    tolerance, and the scaled sigmas' flag at tau / k^2 always."""
    seed = data.draw(st.integers(0, 2**16))
    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta, noise_rng=np.random.default_rng(seed))
    for row in data.draw(st.lists(st.integers(0, len(ms) - 1), max_size=2, unique=True)):
        size = data.draw(st.floats(3, 10)) * data.draw(st.sampled_from([-1.0, 1.0]))
        ms = ms.replaced(row, ms.entries[row].value + size * ms.entries[row].sigma)
    order = np.array(data.draw(st.permutations(range(len(ms)))))
    k = data.draw(st.sampled_from([0.25, 0.5, 2.0, 4.0]))
    (first, again, rescaled), j_tol = _row_order_and_sigma_scale(ieee14, ms, order, k)
    tau = chi_square_threshold(len(ms) - (2 * ieee14.n_bus - 1))
    assert first.j_value < 3 * tau
    flagged = bdd_classify(first, tau).flagged
    if abs(first.j_value - tau) > j_tol:
        assert bdd_classify(again, tau).flagged == flagged
    assert bdd_classify(rescaled, tau / (k * k)).flagged == flagged


@pytest.mark.parametrize(
    "point_id, sets",
    [
        ("table5-21", ({"Pinj bus 8": -1000}, {"Pinj bus 8": 1000})),
        ("table5-12", ({"Pinj bus 7": 2000}, {"Pinj bus 7": -2500})),
        ("table5-08", ({"Qflow 5-6": -2340},)),
        ("table5-23", ({"Pflow 4-5": -1636, "Pinj bus 13": -1227},)),
        ("table5-14", ({"Qflow 6-11": 1475, "Pflow 11-6": -1217},)),
    ],
    ids=["21-Pinj8", "12-Pinj7", "8-Qflow5-6", "23-Pflow4-5+Pinj13", "14-Qflow6-11+Pflow11-6"],
)
def test_large_injection_errors_converge_and_are_removed(ieee14, point_id, sets):
    """Full telemetry of Table 5 catalog points with one or two errors of
    1000-2500 sigma, as in perfbench's bdd sets. Each of these estimates
    raised EstimationError after 50 evaluations under an earlier step
    control: the first two under Gauss-Newton steps alone, the other three
    under the non-monotone window with its switch to G - S. Each now
    converges within 20 evaluations and removal takes out exactly the
    injected channels."""
    oc = _catalog_point(ieee14, point_id)
    ms = full_telemetry_from_state(oc.model, oc.solution.v, oc.solution.theta, oc.topology,
                                   noise_rng=np.random.default_rng(1))
    tau = chi_square_threshold(len(ms) - (2 * ieee14.n_bus - 1))
    for errors in sets:
        bad, rows = ms, []
        for channel, size in errors.items():
            row = next(i for i, m in enumerate(ms.entries) if m.channel == channel)
            bad = bad.replaced(row, ms.entries[row].value + size * ms.entries[row].sigma)
            rows.append(row)
        assert wls_estimate_ac(oc.model, bad, topology=oc.topology).iterations <= 20
        _, removed = iterative_bad_data_removal(oc.model, bad, tau, topology=oc.topology)
        assert sorted(removed) == sorted(rows)


def test_normalized_residuals_raise_on_a_singular_gain(ieee14, clean_measurements):
    """A Jacobian with a zero column leaves that state unobserved: the gain
    is singular, which raises rather than reading as residuals over sigma,
    naming the state. Two equal columns make it singular too, with no
    column to name: the error names the states of H's null space."""
    result = wls_estimate_ac(ieee14, clean_measurements)
    jac = result.jacobian.copy()
    jac[:, 0] = 0.0
    jac[:, 13 + 7] = 0.0
    with pytest.raises(ObservabilityError,
                       match="^singular gain matrix: no measurement depends on theta at bus 2 or V at bus 8$"):
        normalized_residuals(replace(result, jacobian=jac))
    jac = result.jacobian.copy()
    jac[:, 1] = jac[:, 0]
    error = "^singular gain matrix: a combination of theta at buses 2, 3 moves no measurement$"
    with pytest.raises(ObservabilityError, match=error):
        normalized_residuals(replace(result, jacobian=jac))


def test_removal_stops_at_observability_floor(ieee14, clean_measurements):
    # An always-flagging threshold forces removals down to the floor.
    with pytest.raises(ObservabilityError):
        iterative_bad_data_removal(ieee14, clean_measurements, threshold=-1.0)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_threshold_is_rejected(ieee14, clean_measurements, monkeypatch, threshold):
    """A NaN threshold flagged nothing and an infinite one passed every set
    as clean. Both raise ValueError naming the threshold, removal before it
    estimates anything; a negative finite threshold stays valid (see
    ``test_removal_stops_at_observability_floor``)."""
    result = wls_estimate_ac(ieee14, clean_measurements)
    with pytest.raises(ValueError, match=f"^threshold {threshold}: expected a finite number$"):
        bdd_classify(result, threshold)
    monkeypatch.setattr(estimation, "gauss_newton", None)
    with pytest.raises(ValueError, match=f"^threshold {threshold}: expected a finite number$"):
        iterative_bad_data_removal(ieee14, clean_measurements, threshold)


@pytest.mark.parametrize(
    "field, bad, error",
    [
        ("v", np.ones(13), r"^x0\.v has shape \(13,\): expected \(14,\), one entry per bus$"),
        ("theta", np.zeros((1, 14)), r"^x0\.theta has shape \(1, 14\): expected \(14,\), one entry per bus$"),
        ("v", np.where(np.arange(14) == 6, np.nan, 1.0), r"^x0\.v at bus 7 is not finite$"),
        ("theta", np.where(np.arange(14) == 13, np.inf, 0.0), r"^x0\.theta at bus 14 is not finite$"),
    ],
)
def test_a_bad_start_is_named_before_iterating(ieee14, clean_measurements, monkeypatch, field, bad, error):
    """A 13-bus start raised numpy's broadcast error, and a non-finite one
    spent every evaluation before it reported no convergence; both raise
    ValueError naming ``x0`` before any evaluation."""
    x0 = replace(StateVector(v=np.ones(14), theta=np.zeros(14)), **{field: bad})
    monkeypatch.setattr(estimation, "gauss_newton", None)
    with pytest.raises(ValueError, match=error):
        wls_estimate_ac(ieee14, clean_measurements, x0=x0)


def test_estimate_equals_wls_estimate_ac_bit_for_bit(ieee14, solution):
    """The array entry on the compiled layout gives the estimate of the
    measurement set, warm-started too, bit for bit; only ``measurements``
    is left None."""
    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta, noise_rng=np.random.default_rng(33))
    mm = compiled(ieee14, None, ms.entries)
    for x0 in (None, StateVector(v=solution.v * 1.01, theta=solution.theta + 0.01)):
        arrays = estimate(mm, ms.z, ms.sigmas, 1e-8, x0)
        whole = wls_estimate_ac(ieee14, ms, delta=1e-8, x0=x0)
        assert arrays.measurements is None and whole.measurements is ms
        assert arrays.measurement_model is whole.measurement_model is mm
        for name in ("residuals", "jacobian", "sigmas"):
            assert getattr(arrays, name).tobytes() == getattr(whole, name).tobytes()
        assert arrays.x_hat.v.tobytes() == whole.x_hat.v.tobytes()
        assert arrays.x_hat.theta.tobytes() == whole.x_hat.theta.tobytes()
        assert (arrays.j_value, arrays.iterations) == (whole.j_value, whole.iterations)


def test_estimate_names_the_channel_of_a_model_without_a_row(ieee14, solution):
    """On ``mm.without(k)``, a non-finite value or sigma at reduced row r
    names the channel of original row r before k and r + 1 from k on."""
    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta)
    mm = compiled(ieee14, None, ms.entries)
    k = 30
    reduced = mm.without(k).without(k)
    kept = [m for i, m in enumerate(ms.entries) if i not in (k, k + 1)]
    for row in (0, k - 1, k, len(kept) - 1):
        z, sig = np.array([m.value for m in kept]), np.array([m.sigma for m in kept])
        z[row] = np.nan
        with pytest.raises(EstimationError, match=f"^non-finite measurement on channel {kept[row].channel}: "):
            estimate(reduced, z, sig)
        z[row], sig[row] = kept[row].value, 1e-200
        with pytest.raises(EstimationError, match=f"^channel {kept[row].channel}: sigma 1e-200 gives"):
            estimate(reduced, z, sig)


def test_removal_result_lists_the_kept_channels(ieee14, solution):
    """The result of a removal holds exactly the channels it kept, in
    their order, and the estimate of that set is its estimate."""
    rng = np.random.default_rng(12)
    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta, noise_rng=rng)
    for target, size in ((20, 0.8), (61, -0.5)):
        ms = ms.replaced(target, ms.entries[target].value + size)
    tau = chi_square_threshold(len(ms) - 27, 0.05)
    result, removed = iterative_bad_data_removal(ieee14, ms, tau)
    assert sorted(removed) == [20, 61]
    assert result.measurements.entries == [m for i, m in enumerate(ms.entries) if i not in removed]
    again = estimate(result.measurement_model, result.measurements.z, result.measurements.sigmas)
    assert again.x_hat.v.tobytes() == result.x_hat.v.tobytes() and again.j_value == result.j_value


def test_measurement_csv_round_trip(ieee14, clean_measurements):
    entries = list(clean_measurements.entries)
    entries.append(Measurement(MeasKind.PFLOW, 0.42, 0.02, branch=(1, 2)))
    ms = MeasurementSet(entries)
    text = measurements_to_csv(ms)
    again = measurements_from_csv(text)
    assert len(again) == len(ms)
    assert again.entries[-1].branch == (1, 2)
    assert np.allclose(again.z, ms.z)
    assert np.allclose(again.sigmas, ms.sigmas)


def test_measurement_validation():
    with pytest.raises(ValueError):
        Measurement(MeasKind.VM, 1.0, sigma=0.0, bus=1)
    with pytest.raises(ValueError):
        Measurement(MeasKind.PFLOW, 1.0, sigma=0.1)
    with pytest.raises(ValueError):
        MeasurementSet([])


@pytest.mark.parametrize(
    "row, error",
    [
        ("Vm,1", "line 44: expected 4 columns, got 2"),
        ("Xx,1,1.0,0.01", "line 44: 'Xx' is not a valid MeasKind"),
        ("Vm,-3,1.0,0.01", "line 44: Vm location must be a bus, got '-3'"),
        ("Vm,4-7,1.0,0.01", "line 44: Vm location must be a bus"),
        ("Pflow,4,0.1,0.01", "line 44: Pflow location must be from-to"),
        ("Vm,1,abc,0.01", "line 44: could not convert string to float"),
        ("Vm,0,1.0,0.01", "channel Vm bus 0: bus outside 1..14"),
        ("Vm,99,1.0,0.01", "channel Vm bus 99: bus outside 1..14"),
        ("Qflow,4-99,0.1,0.01", "channel Qflow 4-99: no branch between buses 4 and 99"),
        ("Pflow,4-8,0.1,0.01", "channel Pflow 4-8: no branch between buses 4 and 8"),
    ],
)
def test_bad_measurement_csv_row_names_line_or_channel(ieee14, clean_measurements, row, error):
    # 42 channels after the header put the appended row on line 44.
    text = measurements_to_csv(clean_measurements) + row + "\n"
    with pytest.raises(ValueError, match=error):
        wls_estimate_ac(ieee14, measurements_from_csv(text))
