import json
import warnings
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
    WLS_MAX_ITER,
    EstimationError,
    MeasKind,
    MeasurementSet,
    build_dc_jacobian,
    wls_estimate_ac,
    wls_estimate_dc,
)
from gridsec.measmodel import MeasurementModel
from gridsec.network import BreakerState, build_topology, connected_components
from gridsec.powerflow import solve
from gridsec.stats import PAPER_CHI2_THRESHOLD, PAPER_PROFILE, chi_square_threshold


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


@given(order=st.permutations(range(20)), opened=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_stealth_residual_invariance_on_any_connected_topology(ieee14, order, opened, seed):
    """For any breaker set that keeps the network connected, any channel
    sigmas and any c, z + Hc has the residual of z (and the estimate moves
    by c) under the DC model of that topology. Branches are opened in the
    drawn order, each one only if the network stays connected."""
    topo = build_topology(ieee14)
    assert len(topo.pairs) == 20
    live = set(range(20))
    for i in order:
        if len(live) == 20 - opened:
            break
        if len(connected_components(range(1, 15), [topo.pairs[j] for j in live - {i}])) == 1:
            live.discard(i)
    topology = replace(topo, in_service=tuple(i in live for i in range(20)))
    h, labels = build_dc_jacobian(ieee14, topology)
    assert h.shape == (14 + len(live), 13)
    rng = np.random.default_rng(seed)
    sig = rng.uniform(0.002, 0.05, h.shape[0])
    z = h @ rng.normal(0.0, 0.1, h.shape[1]) + rng.normal(0.0, sig)
    clean = wls_estimate_dc(h, z, sig)
    c = rng.normal(0.0, 0.1, h.shape[1])
    attacked = wls_estimate_dc(h, z + stealth_from_state_delta(h, c, labels).deltas, sig)
    assert np.max(np.abs(attacked.residuals - clean.residuals)) < 1e-9
    assert np.max(np.abs(attacked.x_hat - clean.x_hat - c)) < 1e-9


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
    h, labels = build_dc_jacobian(ieee14)
    with pytest.raises(ValueError):
        stealth_from_state_delta(h, np.zeros(h.shape[1] + 1), labels)


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


def test_apply_to_record_writes_through_manipulate_state_vector():
    """A vector is added to a record by the one bus-table writer: for 1A,
    1B and a seeded vector on every V, P and Q channel, the result equals
    ``manipulate_state_vector`` with the vector's V, P and Q channels as a
    ``StateDelta`` (P and Q in MW and Mvar, theta 0), row for row; other
    channels are ignored, and the baseline's extras are not shared."""
    rng = np.random.default_rng(5)
    seeded = {f"{kind}{b}": float(rng.uniform(-0.05, 0.05)) for kind in "VPQ" for b in range(1, 15)}
    seeded["z0"] = 1.0
    base = fx.post_se_baseline_record()
    assert base.extras
    for vector in (
        build_scenario_1a(),
        build_scenario_1b(noise=True, seed=3),
        attacks.AttackVector(list(seeded.values()), tuple(seeded), "Seeded"),
    ):
        named = vector.nonzero()

        def channel(kind: str, scale: float) -> dict[int, float]:
            return {b: named[f"{kind}{b}"] * scale for b in range(1, 15) if f"{kind}{b}" in named}

        delta = StateDelta.from_changes(14, dv=channel("V", 1.0), dp_mw=channel("P", 100.0),
                                        dq_mvar=channel("Q", 100.0))
        applied = vector.apply_to_record(base)
        written = manipulate_state_vector(base, delta)
        assert applied.buses == written.buses
        assert [r.bus for r in applied.buses] == list(range(1, 15))
        assert applied.branches == written.branches == base.branches
        assert applied.source == f"{base.source}+{vector.provenance}"
        assert applied.extras == base.extras and applied.extras is not base.extras


def test_a_bus_row_outside_the_delta_is_named():
    """The writer names a bus row that the delta has no entry for, rather
    than raising IndexError or reading another bus's entry: a vector
    applied to a record with a bus 0 row, and a 14-bus delta on a record
    with a bus 15 row."""
    base = fx.post_se_baseline_record()
    for bus in (0, 15):
        record = replace(base, buses=[*base.buses, replace(base.buses[0], bus=bus)])
        message = rf"^record '{base.source}': bus {bus} is outside buses 1\.\.14 of the delta$"
        with pytest.raises(ValueError, match=message):
            manipulate_state_vector(record, StateDelta.zeros(14))
        if bus == 0:
            with pytest.raises(ValueError, match=message):
                build_scenario_1a().apply_to_record(record)


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m, b: chi_square_threshold(0, 0.05), "df 0: expected at least 1"),
        (lambda m, b: chi_square_threshold(5, 0.0), r"alpha 0\.0: expected a number in \(0, 1\)"),
        (lambda m, b: chi_square_threshold(5, 1.0), r"alpha 1\.0: expected a number in \(0, 1\)"),
        (lambda m, b: chi_square_threshold(5, float("nan")), r"alpha nan: expected a number in \(0, 1\)"),
        (lambda m, b: PAPER_PROFILE.threshold(0), "df 0: expected at least 1"),
        (lambda m, b: PAPER_PROFILE.threshold(5, 0.0), r"alpha 0\.0: expected a number in \(0, 1\)"),
        (lambda m, b: PAPER_PROFILE.threshold(5, float("nan")), r"alpha nan: expected a number in \(0, 1\)"),
        (lambda m, b: sweep_stealth_range(m, b, 2, threshold=float("nan")),
         "threshold nan: expected a finite number"),
        (lambda m, b: sweep_stealth_range(m, b, 2, nerc=(1.05, 0.95)),
         r"nerc \(1\.05, 0\.95\): expected two numbers with low <= high"),
        (lambda m, b: sweep_stealth_range(m, b, 2, window=(1.10, 0.95)),
         r"window \(1\.1, 0\.95\): expected low <= high"),
        (lambda m, b: sweep_stealth_range(m, b, 2, n_points=1),
         "n_points 1: a sweep needs at least 2 points"),
    ],
    ids=["df-0", "alpha-0", "alpha-1", "alpha-nan", "paper-df-0", "paper-alpha-0", "paper-alpha-nan",
         "threshold-nan", "nerc-reversed", "window-reversed", "n_points-1"],
)
def test_library_rejects_a_bad_argument_naming_it(ieee14, call, message):
    """Each value is checked in the function that uses it, so a library
    caller gets the check the command line gets."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(ieee14, fx.sweep_baseline_measurements(ieee14))


def test_sweep_requires_points(ieee14):
    baseline = fx.sweep_baseline_measurements(ieee14)
    with pytest.raises(ValueError):
        sweep_stealth_range(ieee14, baseline, 2, n_points=1)


@pytest.mark.parametrize("bus", [0, 15, 99])
def test_sweep_rejects_a_bus_outside_the_case(ieee14, bus):
    """Was a bare KeyError from ``MeasurementSet.index_of``."""
    baseline = fx.sweep_baseline_measurements(ieee14)
    with pytest.raises(ValueError, match=rf"^bus {bus}: the case has buses 1\.\.14$"):
        sweep_stealth_range(ieee14, baseline, bus, n_points=2)


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


def test_sweep_names_bus_and_candidate_that_does_not_converge(ieee14, monkeypatch):
    """Candidates of 50-60 p.u. on bus 2 leave the constant-gain steps and
    converge in the Gauss-Newton fallback in 15-20 evaluations; with the
    budget cut to 10 they do not, and the error names the bus and the
    first such candidate."""
    baseline = fx.sweep_baseline_measurements(ieee14)
    _, points = sweep_stealth_range(ieee14, baseline, 2, n_points=3, window=(50.0, 60.0))
    assert [p.detected for p in points] == [True] * 3
    monkeypatch.setattr(attacks, "WLS_MAX_ITER", 10)
    error = r"^bus 2: WLS did not converge in 10 iterations for candidate Vm 50\.0+$"
    with pytest.raises(EstimationError, match=error):
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


def test_sweep_flags_the_original_vm_as_the_serial_solve(ieee14):
    """On the noiseless fixture, the candidate equal to the bus's original
    Vm moves the baseline estimate by less than delta, so its first chord
    step converges it; its flag is the serial solve's."""
    baseline = fx.sweep_baseline_measurements(ieee14)
    bus = 4
    idx = baseline.index_of(MeasKind.VM, bus)
    original = baseline.entries[idx].value
    base = wls_estimate_ac(ieee14, baseline, delta=1e-8)
    for threshold in (PAPER_CHI2_THRESHOLD, 0.0):
        _, points = sweep_stealth_range(
            ieee14, baseline, bus, n_points=2, window=(original, 1.10), threshold=threshold
        )
        serial = wls_estimate_ac(
            ieee14, baseline.replaced(idx, original), delta=1e-8, x0=base.x_hat
        ).j_value > threshold
        assert points[0].detected is serial


def test_sweep_fallback_gets_the_full_budget(ieee14, monkeypatch):
    """A non-converging candidate has had the WLS_MAX_ITER iterations of a
    warm-started wls_estimate_ac, all of them in the Gauss-Newton
    fallback (the budget is cut to 10 so that the 50 p.u. candidates,
    which converge in 15-20, do not)."""
    monkeypatch.setattr(attacks, "WLS_MAX_ITER", 10)
    budgets = []
    gauss_newton = attacks.gauss_newton

    def spy(mm, z, sigmas, v, theta, delta, max_iter, gain_inv=None, start_eval=None):
        if gain_inv is None:
            budgets.append(max_iter)
        return gauss_newton(mm, z, sigmas, v, theta, delta, max_iter, gain_inv, start_eval)

    monkeypatch.setattr(attacks, "gauss_newton", spy)
    baseline = fx.sweep_baseline_measurements(ieee14)
    with pytest.raises(
        EstimationError,
        match=r"bus 2: WLS did not converge in 10 iterations for candidate Vm 50\.0+\b",
    ):
        sweep_stealth_range(ieee14, baseline, 2, n_points=3, window=(50.0, 60.0))
    assert budgets == [10]


def _spy_gauss_newton(monkeypatch):
    """Record the candidate values, starting states and budget of every
    Gauss-Newton-mode ``gauss_newton`` call (no fixed gain) the sweep
    makes: its fallback."""
    calls = []
    gauss_newton = attacks.gauss_newton

    def spy(mm, z, sigmas, v, theta, delta, max_iter, gain_inv=None, start_eval=None):
        if gain_inv is None:
            calls.append((z.copy(), v.copy(), theta.copy(), max_iter))
        return gauss_newton(mm, z, sigmas, v, theta, delta, max_iter, gain_inv, start_eval)

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


def test_sweep_fallback_restarts_from_the_baseline_estimate(ieee14, monkeypatch):
    """A candidate the constant-gain steps do not converge runs
    gauss_newton from the baseline estimate, not from where the chord
    steps left it, with WLS_MAX_ITER iterations: the serial warm-started
    wls_estimate_ac."""
    calls = _spy_gauss_newton(monkeypatch)
    baseline = fx.sweep_baseline_measurements(ieee14)
    bus, window, n_points = 4, (0.3, 2.0), 36
    sweep_stealth_range(ieee14, baseline, bus, n_points=n_points, window=window)
    assert calls
    idx = baseline.index_of(MeasKind.VM, bus)
    grid = np.linspace(*window, n_points)
    warm = wls_estimate_ac(ieee14, baseline, delta=1e-8).x_hat
    for zs, v, theta, budget in calls:
        assert np.array_equal(grid[np.searchsorted(grid, zs[:, idx])], zs[:, idx])
        assert (v == warm.v).all() and (theta == warm.theta).all()
        assert budget == WLS_MAX_ITER


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
    are solved first, from the baseline estimate. Every other candidate
    starts from the cubic through the solutions of the four anchors around
    it, in the grid value, and its constant-gain steps converge within 2."""
    calls = []
    gauss_newton = attacks.gauss_newton

    def spy(mm, z, sigmas, v, theta, delta, max_iter, gain_inv=None, start_eval=None):
        start = (v.copy(), theta.copy())
        iterations, j = gauss_newton(mm, z, sigmas, v, theta, delta, max_iter, gain_inv, start_eval)
        if gain_inv is not None:
            calls.append((z[:, idx].copy(), start, (v.copy(), theta.copy()), iterations))
        return iterations, j

    monkeypatch.setattr(attacks, "gauss_newton", spy)
    baseline = _noisy_sweep_baseline(ieee14)
    bus, n_points = 2, 300
    idx = baseline.index_of(MeasKind.VM, bus)
    sweep_stealth_range(ieee14, baseline, bus)

    grid = np.linspace(0.95, 1.10, n_points)
    warm = wls_estimate_ac(ieee14, baseline, delta=1e-8).x_hat
    warm_state = np.hstack((warm.v, warm.theta))
    anchors = [*range(0, n_points, attacks.SWEEP_ANCHOR_EVERY), n_points - 1]
    solved = np.zeros((n_points, 2 * ieee14.n_bus))
    order = []
    for values, start, end, iterations in calls:
        rows = np.searchsorted(grid, values)
        assert np.array_equal(grid[rows], values)
        order += rows.tolist()
        solved[rows] = np.hstack(end)
        if rows[0] in anchors:
            assert (start[0] == warm.v).all() and (start[1] == warm.theta).all()
            continue
        assert iterations.min() >= 1 and iterations.max() <= 2
        for k, v0, theta0 in zip(rows, *start):
            j = np.searchsorted(anchors, k) - 1
            nodes = anchors[min(max(j - 1, 0), len(anchors) - 4):][:4]
            fit = np.polynomial.polynomial.polyfit(grid[nodes], solved[nodes], 3)
            cubic = np.polynomial.polynomial.polyval(grid[k], fit)
            start_k = np.hstack((v0, theta0))
            assert np.allclose(start_k, cubic, rtol=0, atol=1e-9)
            assert np.abs(start_k - solved[k]).max() < np.abs(warm_state - solved[k]).max() / 100
    assert order[: len(anchors)] == anchors
    assert sorted(order[len(anchors):]) == sorted(set(range(n_points)) - set(anchors))


def _per_block_cubic(anchors, rows, v, theta):
    """The cubic starts of one block of ``rows`` from the anchors' solved
    ``v`` and ``theta`` (indexed by candidate), in the operations the
    sweep ran per block before it built its plan once per grid size."""
    first = np.clip(rows // attacks.SWEEP_ANCHOR_EVERY - 1, 0, anchors.size - 4)
    nodes = anchors[first[:, None] + np.arange(4)]
    gap = rows[:, None] - nodes
    span = nodes[:, :, None] - nodes[:, None, :] + np.eye(4, dtype=int)
    weights = np.prod(gap, axis=1, keepdims=True) / gap / np.prod(span, axis=2)
    vb = sum(weights[:, a, None] * v[nodes[:, a]] for a in range(4))
    thb = sum(weights[:, a, None] * theta[nodes[:, a]] for a in range(4))
    return vb, thb


@pytest.mark.parametrize("bus, n_points, window", [
    (2, 300, (0.95, 1.10)), (11, 300, (0.95, 1.10)), (4, 32, (0.95, 1.10)), (4, 36, (0.3, 2.0)),
])
def test_sweep_cubic_starts_equal_the_per_block_formula_bit_for_bit(ieee14, monkeypatch, bus, n_points, window):
    """Every cubic start is, bit for bit, the one the per-block formula
    gives from the anchors' solutions (the fallback's where the chord
    steps did not converge an anchor), in the smallest grid with four
    anchors and in a window wide enough for the fallback too."""
    calls = []
    gauss_newton = attacks.gauss_newton

    def spy(mm, z, sigmas, v, theta, delta, max_iter, gain_inv=None, start_eval=None):
        start = (v.copy(), theta.copy())
        iterations, j = gauss_newton(mm, z, sigmas, v, theta, delta, max_iter, gain_inv, start_eval)
        calls.append((z[:, idx].copy(), start, (v.copy(), theta.copy()), gain_inv is not None))
        return iterations, j

    monkeypatch.setattr(attacks, "gauss_newton", spy)
    baseline = _noisy_sweep_baseline(ieee14)
    idx = baseline.index_of(MeasKind.VM, bus)
    sweep_stealth_range(ieee14, baseline, bus, n_points=n_points, window=window)

    grid = np.linspace(*window, n_points)
    anchors = np.array([*range(0, n_points, attacks.SWEEP_ANCHOR_EVERY), n_points - 1])
    v, theta = np.zeros((n_points, ieee14.n_bus)), np.zeros((n_points, ieee14.n_bus))
    cubic = 0
    for values, start, end, chord in calls:
        rows = np.searchsorted(grid, values)
        assert np.array_equal(grid[rows], values)
        if chord and not np.isin(rows, anchors).any():
            vb, thb = _per_block_cubic(anchors, rows, v, theta)
            assert start[0].tobytes() == vb.tobytes() and start[1].tobytes() == thb.tobytes()
            cubic += rows.size
        v[rows], theta[rows] = end
    assert cubic == n_points - anchors.size


def test_sweeps_of_one_grid_size_build_its_plan_once(ieee14):
    """The 14 sweeps of a 300-point map build the anchors, the other
    candidates and the cubic's nodes and weights once, and share them
    read-only."""
    attacks._sweep_plan.cache_clear()
    baseline = fx.sweep_baseline_measurements(ieee14)
    for bus in range(1, ieee14.n_bus + 1):
        sweep_stealth_range(ieee14, baseline, bus)
    info = attacks._sweep_plan.cache_info()
    assert (info.misses, info.hits) == (1, ieee14.n_bus - 1)
    plan = attacks._sweep_plan(300)
    assert [a.shape for a in plan] == [(21,), (279,), (279, 4), (279, 4)]
    for a in plan:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_the_anchors_first_chord_step_evaluates_nothing(ieee14, monkeypatch):
    """The anchors start from the baseline estimate, whose h and H the
    memo holds: their first chord step evaluates neither (no
    ``evaluate``, no ``_source``), where the same step without them
    evaluates once, and every chord step of theirs, with them or without,
    is the same bit for bit. Only the anchors' batch starts there."""
    chord = []
    gauss_newton = attacks.gauss_newton

    def spy(mm, z, sigmas, v, theta, delta, max_iter, gain_inv=None, start_eval=None):
        if gain_inv is not None:
            chord.append((mm, z.copy(), sigmas, v.copy(), theta.copy(), gain_inv, start_eval))
        return gauss_newton(mm, z, sigmas, v, theta, delta, max_iter, gain_inv, start_eval)

    monkeypatch.setattr(attacks, "gauss_newton", spy)
    sweep_stealth_range(ieee14, _noisy_sweep_baseline(ieee14), 2)
    assert chord[0][6] is not None and all(call[6] is None for call in chord[1:])
    mm, z, sig, v, theta, gain_inv, start_eval = chord[0]

    counts = {"evaluate": 0, "_source": 0}
    for name in counts:
        def counted(*args, _name=name, _method=getattr(MeasurementModel, name), **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)
        monkeypatch.setattr(MeasurementModel, name, counted)
    runs = []
    for given in (start_eval, None):
        for max_iter in (1, attacks.SWEEP_CHORD_STEPS):
            counts.update(dict.fromkeys(counts, 0))
            vs, ths = v.copy(), theta.copy()
            out = gauss_newton(mm, z, sig, vs, ths, attacks.SWEEP_DELTA, max_iter, gain_inv, start_eval=given)
            runs.append((dict(counts), [a.tobytes() for a in (vs, ths, *out)]))
    (first, step), (_, steps), (first_evaluated, step_evaluated), (_, steps_evaluated) = runs
    assert first == {"evaluate": 0, "_source": 0} and first_evaluated == {"evaluate": 1, "_source": 1}
    assert step == step_evaluated and steps == steps_evaluated


@pytest.mark.parametrize("n_points", [2, 3, 5])
def test_sweep_with_fewer_than_four_anchors_equals_serial_solves(ieee14, n_points):
    """With fewer than four anchors there is no cubic: the rest start from
    the baseline estimate, and every flag is the serial solve's."""
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


def _skipping_h(monkeypatch):
    """The states of every ``MeasurementModel.evaluate`` call that skips
    H (a None in the H slot of ``out``)."""
    calls = []
    evaluate = MeasurementModel.evaluate

    def spy(self, v, theta, out=None):
        if out is not None and out[1] is None:
            calls.append(v.copy())
        return evaluate(self, v, theta, out)

    monkeypatch.setattr(MeasurementModel, "evaluate", spy)
    return calls


def test_sweep_flags_each_candidate_without_evaluating_h_again(ieee14, monkeypatch):
    """At the paper's threshold no candidate of the fixture's 300-point
    sweeps lies near it: each is flagged from the J its last step
    computed, and no h is evaluated without H."""
    baseline = fx.sweep_baseline_measurements(ieee14)
    calls = _skipping_h(monkeypatch)
    for bus in range(1, ieee14.n_bus + 1):
        sweep_stealth_range(ieee14, baseline, bus)
    assert calls == []


def _counting_estimates(monkeypatch):
    """Clear the sweep's baseline memo and record every ``estimate`` call
    the sweep makes."""
    calls = []
    wls = attacks.estimate

    def spy(*args, **kwargs):
        calls.append(args)
        return wls(*args, **kwargs)

    monkeypatch.setattr(attacks, "estimate", spy)
    monkeypatch.setattr(attacks, "_baseline_memo", None)
    return calls


def test_sweeps_of_one_baseline_estimate_it_once(ieee14, monkeypatch):
    """The 14 sweeps of the fixture baseline estimate it once, and 14 more
    sweeps of it not at all; each estimated it again."""
    calls = _counting_estimates(monkeypatch)
    baseline = fx.sweep_baseline_measurements(ieee14)
    for _ in range(2):
        for bus in range(1, ieee14.n_bus + 1):
            sweep_stealth_range(ieee14, baseline, bus, n_points=20)
        assert len(calls) == 1


def _changed_baselines(model, baseline):
    """The fixture's model and baseline with one thing changed each: a
    value, a sigma, a breaker opened (same bytes, another compiled model),
    and the Pinj channels of buses 5 and 6 relabelled each as the other's
    (same bytes, another layout)."""
    i, k = baseline.index_of(MeasKind.PINJ, 5), baseline.index_of(MeasKind.PINJ, 6)
    entries = list(baseline.entries)
    sigma = list(entries)
    sigma[i] = replace(entries[i], sigma=2.0 * entries[i].sigma)
    relabelled = list(entries)
    relabelled[i], relabelled[k] = replace(entries[i], bus=6), replace(entries[k], bus=5)
    f, t = 2, 4
    branch = model.branches[model.branch_index(f, t)]
    opened = model.with_branch(model.branch_index(f, t), replace(branch, breaker_from=BreakerState.OPEN))
    return {
        "value": (model, baseline.replaced(i, entries[i].value + 0.05)),
        "sigma": (model, MeasurementSet(sigma)),
        "open breaker": (opened, baseline),
        "relabelled": (model, MeasurementSet(relabelled)),
    }


@pytest.mark.parametrize("change", ["value", "sigma", "open breaker", "relabelled"])
def test_a_changed_baseline_is_estimated_again(ieee14, monkeypatch, change):
    """After a sweep of the fixture baseline, sweeping a baseline with one
    changed value or sigma, on a model with a breaker opened, or with two
    channels relabelled estimates that baseline, once, and gives the flags
    and ranges of sweeps with the memo cleared."""
    calls = _counting_estimates(monkeypatch)
    baseline = fx.sweep_baseline_measurements(ieee14)
    sweep_stealth_range(ieee14, baseline, 2, n_points=20)
    model, changed = _changed_baselines(ieee14, baseline)[change]

    def sweeps():
        return [
            (rng, [p.detected for p in points])
            for rng, points in (sweep_stealth_range(model, changed, bus, n_points=60) for bus in (2, 4, 11))
        ]

    warm = sweeps()
    assert len(calls) == 2
    monkeypatch.setattr(attacks, "_baseline_memo", None)
    assert sweeps() == warm
    assert len(calls) == 3


def test_a_baseline_that_does_not_estimate_leaves_the_memo(ieee14, monkeypatch):
    """A baseline with a NaN value raises EstimationError on each sweep,
    estimating it each time, and the memo keeps the last estimate made."""
    calls = _counting_estimates(monkeypatch)
    baseline = fx.sweep_baseline_measurements(ieee14)
    sweep_stealth_range(ieee14, baseline, 2, n_points=20)
    memo = attacks._baseline_memo
    broken = baseline.replaced(baseline.index_of(MeasKind.PINJ, 5), float("nan"))
    for _ in range(2):
        with pytest.raises(EstimationError, match="^non-finite measurement on channel Pinj bus 5: value nan"):
            sweep_stealth_range(ieee14, broken, 2, n_points=20)
    assert len(calls) == 3 and attacks._baseline_memo is memo


def test_the_memo_arrays_are_read_only(ieee14, monkeypatch):
    """The estimate, the gain inverse, and h and H at the estimate, which
    later sweeps share, cannot be written through."""
    _counting_estimates(monkeypatch)
    sweep_stealth_range(ieee14, fx.sweep_baseline_measurements(ieee14), 2, n_points=20)
    arrays = [a for a in attacks._baseline_memo if isinstance(a, np.ndarray)]
    assert len(arrays) == 4
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def _sweep_j(monkeypatch, model, baseline, bus):
    """Each candidate of a 300-point sweep of ``bus``, in grid order: the
    J ``gauss_newton`` returned for it, J at its end state, and its end
    V. Every candidate converges in the chord steps."""
    grid = np.linspace(0.95, 1.10, 300)
    idx = baseline.index_of(MeasKind.VM, bus)
    j, j_end, v_end = np.empty(grid.size), np.empty(grid.size), np.empty((grid.size, model.n_bus))
    gauss_newton = attacks.gauss_newton

    def spy(mm, z, sigmas, v, theta, delta, max_iter, gain_inv=None, start_eval=None):
        iterations, jb = gauss_newton(mm, z, sigmas, v, theta, delta, max_iter, gain_inv, start_eval)
        assert gain_inv is not None and iterations.all()
        rows = np.searchsorted(grid, z[:, idx])
        h, _ = mm.evaluate(v, theta, out=(None, None))
        j[rows], j_end[rows], v_end[rows] = jb, np.sum(((z - h) / sigmas) ** 2, axis=1), v
        return iterations, jb

    with monkeypatch.context() as patch:
        patch.setattr(attacks, "gauss_newton", spy)
        sweep_stealth_range(model, baseline, bus)
    return j, j_end, v_end


def test_sweep_j_at_the_last_step_is_the_end_states_well_inside_the_band(ieee14, monkeypatch):
    """On the fixture's 14 buses, the J each chord-converged candidate is
    flagged from, computed one step shorter than SWEEP_DELTA before its
    end state, is the end state's J to 1e-7 relative (1.2e-8 at most,
    measured), well inside the SWEEP_J_BAND around the threshold where a
    candidate is evaluated again."""
    baseline = fx.sweep_baseline_measurements(ieee14)
    worst = 0.0
    for bus in range(1, ieee14.n_bus + 1):
        j, j_end, _ = _sweep_j(monkeypatch, ieee14, baseline, bus)
        worst = max(worst, float(np.max(np.abs(j - j_end) / j_end)))
    assert 0.0 < worst < 1e-7 <= attacks.SWEEP_J_BAND / 10


def test_sweep_evaluates_again_only_the_candidates_in_the_band(ieee14, monkeypatch):
    """With the threshold at one candidate's end-state J, and 1e-9
    relative either side of it, only the candidates whose last J lies
    within SWEEP_J_BAND of the threshold have h evaluated again, at their
    end states, and every flag is the end-state J's."""
    baseline = _noisy_sweep_baseline(ieee14)
    bus = 2
    j, j_end, v_end = _sweep_j(monkeypatch, ieee14, baseline, bus)
    for tau in j_end[150] * np.array([1 - 1e-9, 1.0, 1 + 1e-9]):
        band = np.flatnonzero(np.abs(j - tau) <= attacks.SWEEP_J_BAND * tau)
        assert 150 in band and band.size < 5
        with monkeypatch.context() as patch:
            calls = _skipping_h(patch)
            _, points = sweep_stealth_range(ieee14, baseline, bus, threshold=tau)
        assert len(calls) == 1 and np.array_equal(calls[0], v_end[band])
        assert [p.detected for p in points] == (j_end > tau).tolist()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_non_convergence_raises_without_runtime_warnings(ieee14, monkeypatch):
    """Candidates whose constant-gain steps overflow leave them quietly:
    the Gauss-Newton fallback converges them, or, with the budget cut to
    10, fails and names them, with no RuntimeWarning either way."""
    baseline = fx.sweep_baseline_measurements(ieee14)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sweep_stealth_range(ieee14, baseline, 2, n_points=3, window=(50.0, 60.0))
        monkeypatch.setattr(attacks, "WLS_MAX_ITER", 10)
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
    snap, base_snap = rec.snapshot(), base.snapshot()
    assert snap.generation_mw - base_snap.generation_mw == pytest.approx(90.8, abs=1e-9)
    assert snap.load_mw - base_snap.load_mw == pytest.approx(-90.8, abs=1e-9)


def test_manipulate_preserves_original():
    base = fx.post_se_baseline_record()
    before = base.to_csv()
    delta = StateDelta.from_changes(14, dp_mw={4: -95.6})
    manipulate_state_vector(base, delta)
    assert base.to_csv() == before


def test_slack_delta_rejected(ieee14):
    for field in ("dv", "dtheta_deg", "dp_mw", "dq_mvar"):
        delta = StateDelta.from_changes(14, **{field: {1: 0.01}})
        with pytest.raises(ValueError, match=rf"^{field}: slack bus 1 delta 0\.01: must be zero$"):
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
