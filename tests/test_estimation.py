from dataclasses import replace

import numpy as np
import pytest

from gridsec.estimation import (
    EstimationError,
    MeasKind,
    Measurement,
    MeasurementSet,
    ObservabilityError,
    bdd_classify,
    build_dc_jacobian,
    chi_square_statistic,
    iterative_bad_data_removal,
    measurements_from_csv,
    measurements_from_state,
    measurements_to_csv,
    normalized_residuals,
    wls_estimate_ac,
    wls_estimate_dc,
)
from gridsec.measmodel import MeasurementModel
from gridsec.network import apply_topology_corruption, build_topology
from gridsec.powerflow import solve
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
    with pytest.raises(ValueError):
        wls_estimate_ac(ieee14, clean_measurements, delta=0.0)


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


@pytest.mark.parametrize("opened", [[], [(2, 4), (7, 8)]], ids=["closed", "open-2-4-7-8"])
def test_dc_jacobian_matches_branch_equations(ieee14, opened):
    """H theta equals the DC flows (theta_f - theta_t) / (x tap) of the
    in-service branches and their signed sums at every bus; H is C-ordered."""
    topo = apply_topology_corruption(build_topology(ieee14), opened)
    h, labels = build_dc_jacobian(ieee14, topo)
    theta = np.random.default_rng(5).normal(0.0, 0.1, 14)
    theta[ieee14.slack_index] = 0.0
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
        h @ np.delete(theta, ieee14.slack_index), np.concatenate([p, flows]), atol=1e-12
    )


@pytest.mark.parametrize("opened", [[], [(2, 4), (7, 8)]], ids=["closed", "open-2-4-7-8"])
def test_dc_jacobian_is_the_lossless_ac_jacobian_at_flat_start(ieee14, opened):
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
    _, jac = MeasurementModel(lossless, topo, layout).evaluate(np.ones((1, 14)), np.zeros((1, 14)))
    np.testing.assert_allclose(jac[0, :, :13], h_dc, rtol=0, atol=1e-13)


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
    from gridsec.estimation import full_telemetry_from_state

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
    result = wls_estimate_ac(ieee14, measurements_from_record(attacked), delta=1e-6)
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

    from gridsec.estimation import full_telemetry_from_state

    ms = full_telemetry_from_state(ieee14, solution.v, solution.theta)
    idx = next(i for i, m in enumerate(ms.entries) if m.channel == channel)
    entries = list(ms.entries)
    entries[idx] = replace(entries[idx], **{field: bad})
    with pytest.raises(EstimationError, match=f"non-finite measurement on channel {channel}: .*{bad}"):
        wls_estimate_ac(ieee14, MeasurementSet(entries))


def test_non_convergence_raises(ieee14, clean_measurements):
    with pytest.raises(EstimationError):
        wls_estimate_ac(ieee14, clean_measurements, delta=1e-12, max_iter=1)


def test_removal_stops_at_observability_floor(ieee14, clean_measurements):
    # An always-flagging threshold forces removals down to the floor.
    with pytest.raises(ObservabilityError):
        iterative_bad_data_removal(ieee14, clean_measurements, threshold=-1.0)


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
