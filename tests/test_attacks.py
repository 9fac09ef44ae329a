import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridsec import fixtures as fx
from gridsec import attacks
from gridsec.attacks import (
    SCENARIO_1A_COMPENSATION,
    SCENARIO_1B_DELTAS,
    SCENARIO_1B_NOISE_BUSES,
    StateDelta,
    build_scenario_1a,
    build_scenario_1b,
    corrupt_topology_record,
    manipulate_state_vector,
    stealth_from_state_delta,
    sweep_stealth_range,
)
from gridsec.estimation import (
    EstimationError,
    MeasKind,
    MeasurementSet,
    build_dc_jacobian,
    shared_first_step,
    wls_estimate_ac,
    wls_estimate_dc,
)
from gridsec.network import BreakerState, build_topology
from gridsec.powerflow import solve
from gridsec.stats import PAPER_CHI2_THRESHOLD


# ---------------------------------------------------------------------------
# Stealth construction
# ---------------------------------------------------------------------------


def test_zero_state_delta_gives_zero_attack(ieee14):
    h, labels = build_dc_jacobian(ieee14)
    vector = stealth_from_state_delta(h, np.zeros(h.shape[1]), labels)
    assert np.all(vector.deltas == 0.0)


def test_stealth_residual_invariance_oracle(ieee14):
    """Residual-invariance oracle: run the estimator before and after the
    attack and compare residual vectors element-wise."""
    h, labels = build_dc_jacobian(ieee14)
    rng = np.random.default_rng(17)
    sig = np.full(h.shape[0], 0.02)
    x = rng.normal(0, 0.1, h.shape[1])
    z = h @ x + rng.normal(0, 0.02, h.shape[0])
    clean = wls_estimate_dc(h, z, sig)
    for _ in range(20):
        c = rng.normal(0, 0.05, h.shape[1])
        vector = stealth_from_state_delta(h, c, labels)
        attacked = wls_estimate_dc(h, z + vector.deltas, sig)
        assert np.max(np.abs(attacked.residuals - clean.residuals)) < 1e-10
        assert np.max(np.abs(attacked.x_hat - clean.x_hat - c)) < 1e-10


def test_stealth_column_space_projection(ieee14):
    """Every stealth vector lies in the column space of H: the projection
    residual must vanish."""
    h, _ = build_dc_jacobian(ieee14)
    rng = np.random.default_rng(23)
    proj = h @ np.linalg.solve(h.T @ h, h.T)
    for _ in range(20):
        a = (h @ rng.normal(0, 0.05, h.shape[1]))
        assert np.linalg.norm(a - proj @ a) < 1e-10


def test_stealth_dimension_mismatch(ieee14):
    h, _ = build_dc_jacobian(ieee14)
    with pytest.raises(ValueError):
        stealth_from_state_delta(h, np.zeros(h.shape[1] + 1))


# ---------------------------------------------------------------------------
# Scenario vectors
# ---------------------------------------------------------------------------


def test_scenario_1a_components():
    vector = build_scenario_1a()
    named = vector.nonzero()
    assert named["V3"] == 0.08
    assert named["P3"] == 0.15
    assert named["V6"] == -0.06
    assert named["P9"] == 0.10
    assert named["V11"] == 0.05
    for b in SCENARIO_1A_COMPENSATION["buses"]:
        assert named[f"P{b}"] == -0.0357
    assert len(named) == 12


def test_scenario_1a_net_power_change():
    vector = build_scenario_1a()
    expected = 0.25 - 7 * 0.0357
    assert vector.net_power_change == pytest.approx(expected, abs=1e-12)


def test_scenario_1b_components_and_net():
    vector = build_scenario_1b()
    named = vector.nonzero()
    assert named == dict(SCENARIO_1B_DELTAS)
    assert vector.net_power_change == pytest.approx(0.04, abs=1e-12)


def test_scenario_1b_noise_determinism():
    a = build_scenario_1b(noise=True, seed=3)
    b = build_scenario_1b(noise=True, seed=3)
    assert np.array_equal(a.deltas, b.deltas)
    assert a.to_json() == b.to_json()
    c = build_scenario_1b(noise=True, seed=4)
    assert not np.array_equal(a.deltas, c.deltas)
    noisy_buses = {
        int(lbl[1:]) for lbl, v in a.nonzero().items()
        if lbl.startswith("P") and int(lbl[1:]) in SCENARIO_1B_NOISE_BUSES
    }
    assert noisy_buses == set(SCENARIO_1B_NOISE_BUSES)


def test_scenario_vector_json_round_trip():
    doc = json.loads(build_scenario_1a().to_json())
    assert doc["provenance"] == "Scenario1A"
    assert doc["deltas"]["V3"] == 0.08


def test_scenario_1a_applies_to_fixture_baseline():
    baseline, attacked = fx.scenario_1a_records()
    assert attacked.bus_row(3).v_pu == pytest.approx(1.09, abs=1e-12)
    assert attacked.bus_row(3).p_mw == pytest.approx(108.99, abs=1e-9)
    assert attacked.bus_row(6).v_pu == pytest.approx(1.0111, abs=1e-12)
    assert attacked.bus_row(9).p_mw == pytest.approx(39.37, abs=1e-9)
    assert attacked.bus_row(11).v_pu == pytest.approx(1.1052, abs=1e-12)


def test_scenario_1b_applies_to_fixture_baseline():
    baseline, attacked = fx.scenario_1b_records()
    assert attacked.bus_row(2).v_pu == pytest.approx(1.1366, abs=1e-12)
    assert attacked.bus_row(2).p_mw == pytest.approx(36.63, abs=1e-9)
    assert attacked.bus_row(4).v_pu == pytest.approx(0.9476, abs=1e-12)
    assert attacked.bus_row(13).p_mw == pytest.approx(3.16, abs=1e-9)


def test_attacked_records_do_not_share_the_input_extras():
    """Writing the attacked snapshot's chi-square must not reach its
    baseline: the 1A/1B baselines carry no ``bdd_chi2``."""
    for builder in (fx.scenario_1a_records, fx.scenario_1b_records):
        baseline, attacked = builder()
        assert baseline.extras == {"stage": "measurement"}
        assert "bdd_chi2" in attacked.extras
    base = fx.post_se_baseline_record()
    before = dict(base.extras)
    for attacked in (
        build_scenario_1a().apply_to_record(base),
        corrupt_topology_record(base, [(2, 4)]),
    ):
        attacked.extras["bdd_chi2"] = 99.0
        assert base.extras == before


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def test_sweep_bus2_range(ieee14):
    baseline = fx.sweep_baseline_measurements(ieee14)
    rng, points = sweep_stealth_range(ieee14, baseline, 2)
    assert not rng.empty
    step = 0.15 / 299
    assert rng.width == pytest.approx(0.00982, abs=step)
    assert len(points) == 300
    # Log rows carry the fixture's original voltage and both labels appear.
    assert all(p.original_vm == pytest.approx(fx.TABLE4_ORIGINAL_V[1]) for p in points)
    labels = {p.label for p in points}
    assert "Stealth attack" in labels and "Bad data detected" in labels


def test_sweep_contiguity(ieee14):
    baseline = fx.sweep_baseline_measurements(ieee14)
    _, points = sweep_stealth_range(ieee14, baseline, 3)
    stealth = [i for i, p in enumerate(points) if p.label == "Stealth attack"]
    assert stealth == list(range(stealth[0], stealth[-1] + 1))


def test_sweep_slack_and_high_buses_empty(ieee14):
    baseline = fx.sweep_baseline_measurements(ieee14)
    for bus in (1, 6, 7, 8):
        rng, _ = sweep_stealth_range(ieee14, baseline, bus, n_points=120)
        assert rng.empty
        assert rng.start is None and rng.width is None


def test_sweep_nerc_clipping(ieee14):
    baseline = fx.sweep_baseline_measurements(ieee14)
    rng, _ = sweep_stealth_range(ieee14, baseline, 11)
    assert not rng.empty
    assert rng.end == 1.05


def test_sweep_requires_points(ieee14):
    baseline = fx.sweep_baseline_measurements(ieee14)
    with pytest.raises(ValueError):
        sweep_stealth_range(ieee14, baseline, 2, n_points=1)


@pytest.mark.parametrize("bus", [2, 11])
def test_batched_sweep_flags_equal_serial_solves(ieee14, bus):
    """Each of the 300 flags of the blocked, batched sweep is the one a
    warm-started wls_estimate_ac of that candidate gives."""
    base = fx.sweep_baseline_measurements(ieee14)
    noise = np.random.default_rng(29).normal(0.0, base.sigmas)
    baseline = MeasurementSet(
        [replace(m, value=m.value + float(d)) for m, d in zip(base.entries, noise)]
    )
    _, points = sweep_stealth_range(ieee14, baseline, bus)
    warm = wls_estimate_ac(ieee14, baseline, delta=1e-8).x_hat
    idx = baseline.index_of(MeasKind.VM, bus)
    serial = [
        wls_estimate_ac(
            ieee14, baseline.replaced(idx, p.attack_vm), delta=1e-8, x0=warm
        ).j_value > PAPER_CHI2_THRESHOLD
        for p in points
    ]
    assert [p.detected for p in points] == serial
    assert any(serial) and not all(serial)


def test_sweep_names_bus_and_candidate_that_does_not_converge(ieee14):
    baseline = fx.sweep_baseline_measurements(ieee14)
    with pytest.raises(EstimationError, match=r"bus 2: .*candidate Vm 50\.0+\b"):
        sweep_stealth_range(ieee14, baseline, 2, n_points=3, window=(50.0, 60.0))


@pytest.mark.parametrize("bus", [2, 11])
def test_sweep_j_agrees_with_serial_solve(ieee14, bus):
    """A candidate's J, read through the threshold it is flagged at, is the
    serial warm-started wls_estimate_ac J to 1e-9 relative, on the noisy
    baseline of the flag test above."""
    base = fx.sweep_baseline_measurements(ieee14)
    noise = np.random.default_rng(29).normal(0.0, base.sigmas)
    baseline = MeasurementSet(
        [replace(m, value=m.value + float(d)) for m, d in zip(base.entries, noise)]
    )
    warm = wls_estimate_ac(ieee14, baseline, delta=1e-8).x_hat
    idx = baseline.index_of(MeasKind.VM, bus)
    grid = np.linspace(0.95, 1.10, 300)
    for k in (0, 60, 150, 299):
        j = wls_estimate_ac(
            ieee14, baseline.replaced(idx, float(grid[k])), delta=1e-8, x0=warm
        ).j_value
        for scale, flagged in ((1 - 1e-9, True), (1 + 1e-9, False)):
            _, points = sweep_stealth_range(
                ieee14, baseline, bus, n_points=2, window=(grid[k], 1.10), threshold=j * scale
            )
            assert points[0].attack_vm == grid[k]
            assert points[0].detected is flagged, (k, scale)


def test_sweep_candidate_converged_by_the_shared_step(ieee14):
    """On the noiseless fixture, the candidate equal to the bus's original
    Vm moves the baseline estimate by less than delta, so it converges at
    the shared first step; its flag is the serial solve's."""
    baseline = fx.sweep_baseline_measurements(ieee14)
    bus = 4
    idx = baseline.index_of(MeasKind.VM, bus)
    original = baseline.entries[idx].value
    base = wls_estimate_ac(ieee14, baseline, delta=1e-8)
    z = np.tile(baseline.z, (2, 1))
    z[1, idx] = 1.10
    _, _, done, _ = shared_first_step(
        base.measurement_model, z, baseline.sigmas, base.x_hat.v, base.x_hat.theta, 1e-8
    )
    assert done.tolist() == [True, False]
    for threshold in (PAPER_CHI2_THRESHOLD, 0.0):
        _, points = sweep_stealth_range(
            ieee14, baseline, bus, n_points=2, window=(original, 1.10), threshold=threshold
        )
        serial = wls_estimate_ac(
            ieee14, baseline.replaced(idx, original), delta=1e-8, x0=base.x_hat
        ).j_value > threshold
        assert points[0].detected is serial


def test_sweep_budget_counts_the_shared_step(ieee14, monkeypatch):
    """A non-converging candidate has had SWEEP_MAX_ITER iterations: the
    shared first step plus SWEEP_MAX_ITER - 1 in its block."""
    budgets = []
    gauss_newton = attacks.gauss_newton

    def spy(*args):
        budgets.append(args[-1])
        return gauss_newton(*args)

    monkeypatch.setattr(attacks, "gauss_newton", spy)
    baseline = fx.sweep_baseline_measurements(ieee14)
    with pytest.raises(
        EstimationError,
        match=rf"bus 2: WLS did not converge in {attacks.SWEEP_MAX_ITER} iterations "
        r"for candidate Vm 50\.0+\b",
    ):
        sweep_stealth_range(ieee14, baseline, 2, n_points=3, window=(50.0, 60.0))
    assert budgets == [attacks.SWEEP_MAX_ITER - 1]


def _spy_gauss_newton(monkeypatch):
    """Record the candidate values, starting states and budget of every
    ``gauss_newton`` call the sweep makes."""
    calls = []
    gauss_newton = attacks.gauss_newton

    def spy(mm, z, sigmas, v, theta, delta, max_iter):
        calls.append((z.copy(), v.copy(), theta.copy(), max_iter))
        return gauss_newton(mm, z, sigmas, v, theta, delta, max_iter)

    monkeypatch.setattr(attacks, "gauss_newton", spy)
    return calls


def test_wide_window_sweep_flags_equal_serial_solves(ieee14, monkeypatch):
    """Across a window wide enough that some candidates leave the
    constant-gain steps for the Gauss-Newton fallback, every flag is the
    one a warm-started wls_estimate_ac of that candidate gives."""
    calls = _spy_gauss_newton(monkeypatch)
    baseline = fx.sweep_baseline_measurements(ieee14)
    bus, n_points = 4, 36
    _, points = sweep_stealth_range(ieee14, baseline, bus, n_points=n_points, window=(0.3, 2.0))
    fallback = sum(len(z) for z, *_ in calls)
    assert 0 < fallback < n_points
    warm = wls_estimate_ac(ieee14, baseline, delta=1e-8).x_hat
    idx = baseline.index_of(MeasKind.VM, bus)
    serial = [
        wls_estimate_ac(
            ieee14, baseline.replaced(idx, p.attack_vm), delta=1e-8, x0=warm
        ).j_value > PAPER_CHI2_THRESHOLD
        for p in points
    ]
    assert [p.detected for p in points] == serial
    assert any(serial) and not all(serial)


def test_sweep_fallback_restarts_from_the_first_step_state(ieee14, monkeypatch):
    """A candidate the constant-gain steps do not converge runs
    gauss_newton from its first-step state, not from where the chord
    steps left it, with SWEEP_MAX_ITER - 1 iterations."""
    calls = _spy_gauss_newton(monkeypatch)
    baseline = fx.sweep_baseline_measurements(ieee14)
    bus, window, n_points = 4, (0.3, 2.0), 36
    sweep_stealth_range(ieee14, baseline, bus, n_points=n_points, window=window)
    assert calls
    idx = baseline.index_of(MeasKind.VM, bus)
    grid = np.linspace(*window, n_points)
    base = wls_estimate_ac(ieee14, baseline, delta=1e-8)
    z = np.tile(baseline.z, (n_points, 1))
    z[:, idx] = grid
    v1, theta1, _, _ = shared_first_step(
        base.measurement_model, z, baseline.sigmas, base.x_hat.v, base.x_hat.theta, 1e-8
    )
    for zs, v, theta, budget in calls:
        rows = np.searchsorted(grid, zs[:, idx])
        assert np.array_equal(grid[rows], zs[:, idx])
        assert np.array_equal(v, v1[rows]) and np.array_equal(theta, theta1[rows])
        assert budget == attacks.SWEEP_MAX_ITER - 1


def _noisy_sweep_baseline(model):
    """The sweep fixture plus seeded noise at its own sigmas: the baseline
    of the flag tests above."""
    base = fx.sweep_baseline_measurements(model)
    noise = np.random.default_rng(29).normal(0.0, base.sigmas)
    return MeasurementSet(
        [replace(m, value=m.value + float(d)) for m, d in zip(base.entries, noise)]
    )


def _serial_flags(model, baseline, bus, values):
    """The flag a warm-started wls_estimate_ac gives each candidate value."""
    warm = wls_estimate_ac(model, baseline, delta=1e-8).x_hat
    idx = baseline.index_of(MeasKind.VM, bus)
    return [
        wls_estimate_ac(
            model, baseline.replaced(idx, value), delta=1e-8, x0=warm
        ).j_value > PAPER_CHI2_THRESHOLD
        for value in values
    ]


def test_sweep_starts_the_rest_from_a_cubic_through_the_anchors(ieee14, monkeypatch):
    """The anchors (every SWEEP_ANCHOR_EVERY-th candidate and the last)
    are solved first, from their first-step states. Every other candidate
    starts from the cubic through the solutions of the four anchors around
    it, in the grid value, and its constant-gain steps converge within 2."""
    calls = []
    chord_steps = attacks.chord_steps

    def spy(mm, z, sigmas, v, theta, *args):
        start = (v.copy(), theta.copy())
        iterations = chord_steps(mm, z, sigmas, v, theta, *args)
        calls.append((z[:, idx].copy(), start, (v.copy(), theta.copy()), iterations))
        return iterations

    monkeypatch.setattr(attacks, "chord_steps", spy)
    baseline = _noisy_sweep_baseline(ieee14)
    bus, n_points = 2, 300
    idx = baseline.index_of(MeasKind.VM, bus)
    sweep_stealth_range(ieee14, baseline, bus)

    grid = np.linspace(0.95, 1.10, n_points)
    base = wls_estimate_ac(ieee14, baseline, delta=1e-8)
    z = np.tile(baseline.z, (n_points, 1))
    z[:, idx] = grid
    v1, theta1, done, _ = shared_first_step(
        base.measurement_model, z, baseline.sigmas, base.x_hat.v, base.x_hat.theta, 1e-8
    )
    anchors = [*range(0, n_points, attacks.SWEEP_ANCHOR_EVERY), n_points - 1]
    solved = np.zeros((n_points, 2 * ieee14.n_bus))
    order = []
    for values, start, end, iterations in calls:
        rows = np.searchsorted(grid, values)
        assert np.array_equal(grid[rows], values)
        order += rows.tolist()
        solved[rows] = np.hstack(end)
        if rows[0] in anchors:
            assert np.array_equal(start[0], v1[rows]) and np.array_equal(start[1], theta1[rows])
            continue
        assert iterations.min() >= 1 and iterations.max() <= 2
        for k, v0, theta0 in zip(rows, *start):
            j = np.searchsorted(anchors, k) - 1
            nodes = anchors[min(max(j - 1, 0), len(anchors) - 4):][:4]
            fit = np.polynomial.polynomial.polyfit(grid[nodes], solved[nodes], 3)
            cubic = np.polynomial.polynomial.polyval(grid[k], fit)
            start_k, first_k = np.hstack((v0, theta0)), np.hstack((v1[k], theta1[k]))
            assert np.allclose(start_k, cubic, rtol=0, atol=1e-9)
            assert np.abs(start_k - solved[k]).max() < np.abs(first_k - solved[k]).max() / 100
    assert not done.any()
    assert order[: len(anchors)] == anchors
    assert sorted(order[len(anchors):]) == sorted(set(range(n_points)) - set(anchors))


@pytest.mark.parametrize("n_points", [2, 3, 5])
def test_sweep_with_fewer_than_four_anchors_equals_serial_solves(ieee14, n_points):
    """With fewer than four anchors there is no cubic: the rest start from
    their first-step states, and every flag is the serial solve's."""
    baseline = _noisy_sweep_baseline(ieee14)
    bus, window = 2, (0.97, 1.03)
    _, points = sweep_stealth_range(ieee14, baseline, bus, n_points=n_points, window=window)
    values = np.linspace(*window, n_points).tolist()
    assert [p.attack_vm for p in points] == values
    assert [p.detected for p in points] == _serial_flags(ieee14, baseline, bus, values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(bus=st.integers(1, 14), n_points=st.integers(2, 40), data=st.data())
def test_sweep_flags_equal_serial_solves_in_any_window(ieee14, bus, n_points, data):
    """For any bus, grid size and window inside (0.9, 1.2) around the bus's
    measured Vm, anchors or not, every flag is the one a warm-started
    wls_estimate_ac gives."""
    baseline = _noisy_sweep_baseline(ieee14)
    original = baseline.entries[baseline.index_of(MeasKind.VM, bus)].value
    window = (data.draw(st.floats(0.9, original)), data.draw(st.floats(original, 1.2)))
    _, points = sweep_stealth_range(ieee14, baseline, bus, n_points=n_points, window=window)
    values = [p.attack_vm for p in points]
    assert [p.detected for p in points] == _serial_flags(ieee14, baseline, bus, values)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_non_convergence_raises_without_runtime_warnings(ieee14):
    """Candidates whose constant-gain steps overflow leave them quietly
    and fail in the Gauss-Newton fallback, which names them."""
    baseline = fx.sweep_baseline_measurements(ieee14)
    with pytest.raises(EstimationError, match=r"bus 2: .*candidate Vm 50\.0+\b"):
        sweep_stealth_range(ieee14, baseline, 2, n_points=3, window=(50.0, 60.0))


def test_sweep_rejects_non_finite_candidates(ieee14):
    baseline = fx.sweep_baseline_measurements(ieee14)
    with pytest.raises(EstimationError, match="non-finite candidate value on channel Vm bus 4"):
        sweep_stealth_range(ieee14, baseline, 4, window=(0.95, float("nan")))


# ---------------------------------------------------------------------------
# Post-estimation record manipulation
# ---------------------------------------------------------------------------


def test_zero_delta_identity():
    base = fx.post_se_baseline_record()
    out = manipulate_state_vector(base, StateDelta.zeros(14))
    for a, b in zip(base.buses, out.buses):
        assert a.v_pu == b.v_pu and a.p_mw == b.p_mw
    assert out.branches == base.branches


def test_scenario_2a_fixture_matches_quoted_rows():
    rec = fx.scenario_2a_record()
    assert rec.bus_row(4).v_pu == pytest.approx(0.9979)
    assert rec.bus_row(4).theta_deg == pytest.approx(-9.04)
    assert rec.bus_row(4).p_mw == pytest.approx(-47.8)
    assert rec.bus_row(4).q_mvar == pytest.approx(3.9)
    assert rec.bus_row(7).v_pu == pytest.approx(1.0218)
    assert rec.bus_row(9).p_mw == pytest.approx(-29.5)
    assert rec.bus_row(9).q_mvar == pytest.approx(-16.6)
    assert rec.bus_row(13).p_mw == pytest.approx(-13.5)
    base = fx.post_se_baseline_record()
    assert rec.total_generation_mw - base.total_generation_mw == pytest.approx(90.8, abs=1e-9)
    assert rec.total_load_mw - base.total_load_mw == pytest.approx(-90.8, abs=1e-9)


def test_manipulate_preserves_original():
    base = fx.post_se_baseline_record()
    before = base.to_csv()
    delta = StateDelta.from_changes(14, dp_mw={4: -95.6})
    manipulate_state_vector(base, delta)
    assert base.to_csv() == before


def test_slack_delta_rejected(ieee14):
    delta = StateDelta.from_changes(14, dv={1: 0.01})
    with pytest.raises(ValueError):
        manipulate_state_vector(fx.post_se_baseline_record(), delta, model=ieee14)


def test_topology_corruption_and_contrast(ieee14):
    base = fx.post_se_baseline_record()
    corrupted = corrupt_topology_record(base, [(2, 4)])
    row = corrupted.branch_row(2, 4)
    assert row.status_from is BreakerState.OPEN
    assert row.status_to is BreakerState.OPEN
    assert row.p_mw == pytest.approx(56.1)  # flow untouched: the lie
    assert corrupt_topology_record(base, []).branches == base.branches
    twice = corrupt_topology_record(corrupted, [(2, 4)])
    assert twice.branches == base.branches

    # Contrast case: physically re-solving with the breaker open zeroes
    # the branch flow.
    from gridsec.network import apply_topology_corruption

    topo = apply_topology_corruption(build_topology(ieee14), [(2, 4)])
    resolved = solve(ieee14, topo)
    flow = next(f for f in resolved.flows if (f.from_bus, f.to_bus) == (2, 4))
    assert flow.p_from == 0.0 and flow.q_from == 0.0


def test_topology_corruption_unknown_branch():
    with pytest.raises(KeyError):
        corrupt_topology_record(fx.post_se_baseline_record(), [(9, 13)])
