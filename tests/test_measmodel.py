import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridsec import measmodel, powerflow
from gridsec.estimation import (
    MeasKind,
    Measurement,
    MeasurementSet,
    bdd_classify,
    full_telemetry_from_state,
    iterative_bad_data_removal,
    measurements_from_state,
    wls_estimate_ac,
)
from gridsec.measmodel import COMPILED_MAX, MeasurementModel, compiled
from gridsec.network import (
    Branch,
    Bus,
    BusKind,
    NetworkModel,
    admittance,
    branch_admittances,
    build_ieee14,
    build_topology,
)
from gridsec.powerflow import bus_power, solve
from gridsec.scenarios import generate_all
from gridsec.stats import chi_square_threshold


def reference_injection_blocks(ybus, v, theta):
    """P, Q and the dense blocks dP/dtheta, dP/dV, dQ/dtheta and dQ/dV over
    all bus pairs at one state: the n x n form that the model's per-bus and
    per-branch terms replaced, kept as the reference they must match."""
    g, b = ybus.real, ybus.imag
    dth = theta[:, None] - theta[None, :]
    cos_t, sin_t = np.cos(dth), np.sin(dth)
    vv = np.outer(v, v)
    p, q = bus_power(ybus, v, theta)
    dp_dth = vv * (g * sin_t - b * cos_t)
    np.fill_diagonal(dp_dth, -q - b.diagonal() * v**2)
    dp_dv = v[:, None] * (g * cos_t + b * sin_t)
    np.fill_diagonal(dp_dv, p / v + g.diagonal() * v)
    dq_dth = -vv * (g * cos_t + b * sin_t)
    np.fill_diagonal(dq_dth, p - g.diagonal() * v**2)
    dq_dv = v[:, None] * (g * sin_t - b * cos_t)
    np.fill_diagonal(dq_dv, q / v - b.diagonal() * v)
    return p, q, dp_dth, dp_dv, dq_dth, dq_dv


def reference_h_jac(model, entries, v, theta, topology=None, refs=None):
    """The per-row loop the vectorized model replaced, kept as the
    reference it must match bit for bit. A flow on a branch out of
    service in ``topology`` is a zero row. ``refs``, the 0-based buses
    whose angles are no state, defaults to the slack."""
    n = model.n_bus
    refs = [model.slack_index] if refs is None else refs
    ybus = admittance(model, topology)
    p, q, dp_dth, dp_dv, dq_dth, dq_dv = reference_injection_blocks(ybus, v, theta)
    ang = [i for i in range(n) if i not in refs]
    na = len(ang)
    h = np.zeros(len(entries))
    jac = np.zeros((len(entries), na + n))
    for row, m in enumerate(entries):
        if m.kind is MeasKind.VM:
            h[row] = v[m.bus - 1]
            jac[row, na + m.bus - 1] = 1.0
            continue
        if m.kind in (MeasKind.PINJ, MeasKind.QINJ):
            i = m.bus - 1
            val, d_th, d_v = (p, dp_dth, dp_dv) if m.kind is MeasKind.PINJ else (q, dq_dth, dq_dv)
            h[row] = val[i]
            jac[row, :na] = d_th[i, ang]
            jac[row, na:] = d_v[i, :]
            continue
        f_bus, t_bus = m.branch
        if topology is not None and not topology.in_service[model.branch_index(f_bus, t_bus)]:
            continue
        br = model.branches[model.branch_index(f_bus, t_bus)]
        yff, yft, ytf, ytt = branch_admittances(br)
        if (br.from_bus, br.to_bus) != (f_bus, t_bus):
            yff, yft = ytt, ytf
        i, j = f_bus - 1, t_bus - 1
        gff, bff, gft, bft = yff.real, yff.imag, yft.real, yft.imag
        c, s = math.cos(theta[i] - theta[j]), math.sin(theta[i] - theta[j])
        vi, vj = v[i], v[j]
        if m.kind is MeasKind.PFLOW:
            h[row] = vi * vi * gff + vi * vj * (gft * c + bft * s)
            d_thi = vi * vj * (-gft * s + bft * c)
            d_vi, d_vj = 2 * vi * gff + vj * (gft * c + bft * s), vi * (gft * c + bft * s)
        else:
            h[row] = -vi * vi * bff + vi * vj * (gft * s - bft * c)
            d_thi = vi * vj * (gft * c + bft * s)
            d_vi, d_vj = -2 * vi * bff + vj * (gft * s - bft * c), vi * (gft * s - bft * c)
        if i in ang:
            jac[row, ang.index(i)] = d_thi
        if j in ang:
            jac[row, ang.index(j)] = -d_thi
        jac[row, na + i] = d_vi
        jac[row, na + j] = d_vj
    return h, jac


@pytest.fixture(scope="module")
def telemetry(ieee14):
    sol = solve(ieee14)
    return full_telemetry_from_state(ieee14, sol.v, sol.theta)


@pytest.fixture(scope="module")
def states(ieee14):
    """Three states around the power-flow solution, slack angle zero."""
    sol = solve(ieee14)
    rng = np.random.default_rng(17)
    v = sol.v + rng.normal(0.0, 0.02, (3, 14))
    theta = sol.theta + rng.normal(0.0, 0.05, (3, 14))
    theta[:, ieee14.slack_index] = 0.0
    return v, theta


def test_telemetry_covers_off_nominal_taps_from_the_to_side(telemetry):
    pairs = {m.branch for m in telemetry.entries if m.kind is MeasKind.QFLOW}
    assert {(7, 4), (9, 4), (6, 5)} <= pairs


def _assert_equals_reference(model, entries):
    """h and H of ``entries`` on ``model`` at batches of 1, 2 and 16 states
    around the power-flow solution, the last of each flat, equal the
    per-row reference to the last bit."""
    mm = MeasurementModel(model, None, entries)
    sol = solve(model)
    for batch in (1, 2, 16):
        rng = np.random.default_rng(batch)
        v = sol.v + rng.normal(0.0, 0.02, (batch, model.n_bus))
        theta = sol.theta + rng.normal(0.0, 0.05, (batch, model.n_bus))
        theta[:, model.slack_index] = 0.0
        v[-1], theta[-1] = 1.0, 0.0
        h, jac = mm.evaluate(v, theta)
        for k in range(batch):
            h_ref, jac_ref = reference_h_jac(model, entries, v[k], theta[k])
            assert np.array_equal(h[k], h_ref), (batch, k)
            assert np.array_equal(jac[k], jac_ref), (batch, k)


def test_batched_model_equals_per_row_reference_bit_for_bit(ieee14, telemetry):
    """Power flow, WLS and the sweep's flags reproduce their earlier results
    exactly only while the vectorized arithmetic matches the loop's: on full
    telemetry, the 42-channel standard layout and the flow rows alone, at
    any batch."""
    flows = [m for m in telemetry.entries if m.kind in (MeasKind.PFLOW, MeasKind.QFLOW)]
    assert len(telemetry.entries) == 42 + len(flows)
    for entries in (telemetry.entries, telemetry.entries[:42], flows):
        _assert_equals_reference(ieee14, entries)


def _parallel_model(model):
    """``model`` with a second line between buses 1 and 2, of twice the
    first one's impedance."""
    line = model.branches[model.branch_index(1, 2)]
    return replace(model, branches=model.branches + (replace(line, r=2 * line.r, x=2 * line.x),))


def test_a_flat_state_gathers_from_the_compiled_source(ieee14, telemetry, states, monkeypatch):
    """At V = 1 and theta = +0 at every bus ``evaluate`` gathers h and H
    from the source computed once at compile time, which a model
    ``without`` rows shares and nobody can write. They equal a fresh
    evaluation (the flat state in a batch with another state) to the last
    bit, on the compiled model and after rows are dropped; a theta of -0.0
    is not the flat state and is computed."""
    mm = compiled(ieee14, None, telemetry.entries)
    assert not mm._flat.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mm._flat[0, 0] = 0.0
    computed = []
    source = MeasurementModel._source

    def counting(self, v, theta):
        computed.append(len(v))
        return source(self, v, theta)

    monkeypatch.setattr(MeasurementModel, "_source", counting)
    v, theta = states
    ones, zeros = np.ones((1, 14)), np.zeros((1, 14))
    for model in (mm, mm.without(0), mm.without(0).without(60)):
        assert model._flat is mm._flat
        computed.clear()
        h, jac = model.evaluate(ones, zeros)
        h3, jac3 = model.evaluate(np.ones((3, 14)), np.zeros((3, 14)))
        assert computed == []
        fresh_h, fresh_jac = model.evaluate(np.vstack([ones, v[:1]]), np.vstack([zeros, theta[:1]]))
        assert computed == [2]
        assert np.array_equal(h[0], fresh_h[0]) and np.array_equal(jac[0], fresh_jac[0])
        assert all(np.array_equal(h3[k], h[0]) and np.array_equal(jac3[k], jac[0]) for k in range(3))
    h_ref, jac_ref = reference_h_jac(ieee14, telemetry.entries, ones[0], zeros[0])
    h, jac = mm.evaluate(ones, zeros)
    assert np.array_equal(h[0], h_ref) and np.array_equal(jac[0], jac_ref)
    computed.clear()
    mm.evaluate(ones, -zeros)
    assert computed == [1]


def test_batched_jacobian_matches_central_differences(ieee14, telemetry, states):
    """H against central differences of h on full telemetry: injections
    and flows at both ends, including the to-side of the off-nominal-tap
    branches 4-7, 4-9 and 5-6."""
    mm = MeasurementModel(ieee14, None, telemetry.entries)
    v, theta = states
    _, jac = mm.evaluate(v, theta)
    assert jac.shape == (3, len(telemetry), 27)
    ang = [i for i in range(14) if i != ieee14.slack_index]
    eps = 1e-6
    for col in range(27):
        dv = np.zeros(14)
        dth = np.zeros(14)
        if col < 13:
            dth[ang[col]] = eps
        else:
            dv[col - 13] = eps
        h_plus, _ = mm.evaluate(v + dv, theta + dth)
        h_minus, _ = mm.evaluate(v - dv, theta - dth)
        fd = (h_plus - h_minus) / (2 * eps)
        assert np.max(np.abs(fd - jac[:, :, col])) < 1e-7, col


def test_single_state_equals_its_row_of_a_batch(ieee14, telemetry, states):
    mm = MeasurementModel(ieee14, None, telemetry.entries)
    v, theta = states
    h_all, jac_all = mm.evaluate(v, theta)
    for k in range(3):
        h_one, jac_one = mm.evaluate(v[k:k + 1], theta[k:k + 1])
        assert np.array_equal(h_one[0], h_all[k])
        assert np.array_equal(jac_one[0], jac_all[k])


def test_evaluate_writes_into_out(ieee14, telemetry, states):
    mm = MeasurementModel(ieee14, None, telemetry.entries)
    v, theta = states
    h_ref, jac_ref = mm.evaluate(v, theta)
    h = np.full(h_ref.shape, np.nan)
    jac = np.full(jac_ref.shape, np.nan)
    h_out, jac_out = mm.evaluate(v, theta, out=(h, jac))
    assert h_out is h and jac_out is jac
    assert np.array_equal(h, h_ref) and np.array_equal(jac, jac_ref)


def test_evaluate_without_the_jacobian(ieee14, telemetry, states, monkeypatch):
    """A None in the H slot of ``out`` skips the H gather and leaves h bit
    for bit; a None in the h slot allocates h."""
    mm = MeasurementModel(ieee14, None, telemetry.entries)
    v, theta = states
    h_ref, _ = mm.evaluate(v, theta)
    take = np.take
    gathers = []

    def counting_take(*args, **kwargs):
        gathers.append(args[1].shape)
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take", counting_take)
    h = np.full(h_ref.shape, np.nan)
    h_out, jac_out = mm.evaluate(v, theta, out=(h, None))
    assert h_out is h and jac_out is None
    h_new, jac_new = mm.evaluate(v, theta, out=(None, None))
    assert jac_new is None
    assert np.array_equal(h, h_ref) and np.array_equal(h_new, h_ref)
    assert gathers == [mm.h_idx.shape, mm.h_idx.shape]


def test_without_equals_compiling_the_reduced_layout(ieee14, telemetry, states):
    """Dropping rows from a compiled model gives the model of the reduced
    layout bit for bit, its curvature included, also once both flow rows
    of a branch end (the to side of the off-nominal-tap branch 4-7) are
    gone."""
    v, theta = states
    lam = np.random.default_rng(8).normal(0.0, 1.0, (len(v), len(telemetry)))
    entries = list(telemetry.entries)
    drops = [
        next(r for r, m in enumerate(entries) if m.kind is kind and m.branch == (7, 4))
        for kind in (MeasKind.PFLOW, MeasKind.QFLOW)
    ]
    drops += [entries.index(next(m for m in entries if m.kind is MeasKind.PINJ)), 0]
    mm = MeasurementModel(ieee14, None, entries)
    for row in sorted(drops, reverse=True):
        mm = mm.without(row)
        del entries[row]
        lam = np.delete(lam, row, axis=1)
        h, jac = mm.evaluate(v, theta)
        reference = MeasurementModel(ieee14, None, entries)
        h_ref, jac_ref = reference.evaluate(v, theta)
        assert mm.n_rows == len(entries)
        assert np.array_equal(h, h_ref)
        assert np.array_equal(jac, jac_ref)
        assert np.array_equal(mm.curvature(v, theta, lam), reference.curvature(v, theta, lam))


def _recompiling_removal(model, measurements, threshold):
    """Largest-normalized-residual removal that compiles a new model for
    every re-estimate: the loop the row-dropping one must reproduce."""
    live = list(range(len(measurements)))
    removed = []
    while True:
        result = wls_estimate_ac(model, measurements)
        verdict = bdd_classify(result, threshold)
        if not verdict.flagged:
            return result, removed
        removed.append(live.pop(verdict.suspect))
        measurements = measurements.without([verdict.suspect])


def test_bad_data_removal_equals_recompiling_every_round(ieee14):
    sol = solve(ieee14)
    rng = np.random.default_rng(5)
    counts = []
    for n_errors in (0, 1, 1, 2, 2, 2):
        ms = full_telemetry_from_state(ieee14, sol.v, sol.theta, noise_rng=rng)
        entries = list(ms.entries)
        for i in rng.choice(len(entries), size=n_errors, replace=False):
            m = entries[i]
            entries[i] = replace(m, value=m.value + rng.choice([-1, 1]) * 30 * m.sigma)
        ms = MeasurementSet(entries)
        threshold = chi_square_threshold(len(ms) - 27)
        result, removed = iterative_bad_data_removal(ieee14, ms, threshold)
        ref, ref_removed = _recompiling_removal(ieee14, ms, threshold)
        assert removed == ref_removed
        assert result.j_value == ref.j_value and result.iterations == ref.iterations
        for a, b in (
            (result.x_hat.v, ref.x_hat.v),
            (result.x_hat.theta, ref.x_hat.theta),
            (result.residuals, ref.residuals),
            (result.jacobian, ref.jacobian),
        ):
            assert np.array_equal(a, b)
        counts.append(len(removed))
    assert counts[0] == 0 and max(counts) >= 2


def test_gathers_write_into_out_unbuffered(ieee14, telemetry, monkeypatch):
    """At B = 16 both gathers write straight into ``out``; np.take's
    default mode='raise' would fill a temporary copy of it first."""
    sol = solve(ieee14)
    v, theta = np.tile(sol.v, (16, 1)), np.tile(sol.theta, (16, 1))
    mm = MeasurementModel(ieee14, None, telemetry.entries)
    out = np.empty((16, len(telemetry))), np.empty((16, len(telemetry), 27))
    take = np.take
    peaks = []

    def traced_take(*args, **kwargs):
        tracemalloc.start()
        try:
            result = take(*args, **kwargs)
            peaks.append((tracemalloc.get_traced_memory()[1], result))
        finally:
            tracemalloc.stop()
        return result

    monkeypatch.setattr(np, "take", traced_take)
    h, jac = mm.evaluate(v, theta, out=out)
    assert h is out[0] and jac is out[1]
    assert [result is arr for (_, result), arr in zip(peaks, out)] == [True, True]
    assert all(peak < arr.nbytes / 8 for (peak, _), arr in zip(peaks, out))


def test_flow_on_parallel_branches_is_rejected(ieee14):
    """A flow channel names a bus pair, so on a pair joined by two branches
    it cannot say which one it measures. (The 28 solved catalog models have
    no parallel pair; ``tests/test_powerflow.py`` compiles flows on all.)"""
    line = ieee14.branches[ieee14.branch_index(1, 2)]
    second = replace(line, r=2 * line.r, x=2 * line.x)
    doubled = replace(ieee14, branches=ieee14.branches + (second,))
    sol = solve(doubled)
    with pytest.raises(ValueError, match="channel Pflow 1-2: 2 parallel branches between buses 1 and 2"):
        full_telemetry_from_state(doubled, sol.v, sol.theta)


def _perturbed(model, sol, rng, batch=3):
    """States around a solution, slack angle zero; a dead island's NaN
    buses start from the flat values."""
    v = np.nan_to_num(sol.v, nan=1.0) + rng.normal(0.0, 0.02, (batch, model.n_bus))
    theta = np.nan_to_num(sol.theta, nan=0.0) + rng.normal(0.0, 0.05, (batch, model.n_bus))
    theta[:, model.slack_index] = 0.0
    return v, theta


@pytest.fixture(scope="module")
def islanded_points(ieee14):
    """The catalog points whose topology splits the network into islands."""
    points = {oc.spec.id: oc for oc in generate_all(ieee14) if oc.record is not None}
    return [points["table5-27"], points["table5-29"]]


def test_islanded_topologies_equal_the_reference_bit_for_bit(islanded_points):
    """Full telemetry plus flow rows on the open branches, on topologies
    with more than one island: the per-branch terms follow the live Ybus,
    and the angles of the slack and of bus 8, the generator that holds the
    other island's angle, are no state."""
    rng = np.random.default_rng(23)
    for oc in islanded_points:
        model, topo = oc.model, oc.topology
        assert len(oc.solution.islands) > 1, oc.spec.id
        v, theta = _perturbed(model, oc.solution, rng)
        entries = full_telemetry_from_state(model, v[0], theta[0], topo).entries + [
            Measurement(kind, 0.0, 1.0, branch=br.pair)
            for br, live in zip(model.branches, topo.in_service)
            if not live
            for kind in (MeasKind.PFLOW, MeasKind.QFLOW)
        ]
        h, jac = MeasurementModel(model, topo, entries).evaluate(v, theta)
        for k in range(len(v)):
            h_ref, jac_ref = reference_h_jac(model, entries, v[k], theta[k], topo, refs=[0, 7])
            assert np.array_equal(h[k], h_ref), oc.spec.id
            assert np.array_equal(jac[k], jac_ref), oc.spec.id


@given(case=st.sampled_from(["closed", "table5-27", "table5-29", "parallel"]), seed=st.integers(0, 2**32 - 1))
def test_jacobian_matches_central_differences_on_any_topology(ieee14, islanded_points, case, seed):
    """At random states, H from ``evaluate`` matches central differences of
    h by each state column, on full telemetry plus flow rows on the open
    branches, connected and split into islands, where a reference angle
    per island is no column (and need not be 0), and on the standard
    layout of a network with two parallel branches between buses 1 and 2."""
    oc = {oc.spec.id: oc for oc in islanded_points}.get(case)
    model = _parallel_model(ieee14) if case == "parallel" else ieee14 if oc is None else oc.model
    topo = build_topology(model) if oc is None else oc.topology
    rng = np.random.default_rng(seed)
    v, theta = rng.uniform(0.9, 1.1, 14), rng.uniform(-0.5, 0.5, 14)
    if case == "parallel":
        entries = measurements_from_state(model, v, theta).entries
    else:
        entries = full_telemetry_from_state(model, v, theta, topo).entries + [
            Measurement(kind, 0.0, 1.0, branch=br.pair)
            for br, live in zip(model.branches, topo.in_service)
            if not live
            for kind in (MeasKind.PFLOW, MeasKind.QFLOW)
        ]
    mm = MeasurementModel(model, topo, entries)
    _, jac = mm.evaluate(v[None], theta[None])
    # One state per column and sign: theta of the angle buses, then V.
    eps, na = 1e-6, mm.angle_buses.size
    step = np.zeros((mm.n_state, 2, 14))
    step[np.arange(na), 1, mm.angle_buses] = eps
    step[na + np.arange(14), 0, np.arange(14)] = eps
    h_plus, _ = mm.evaluate(v + step[:, 0], theta + step[:, 1], out=(None, None))
    h_minus, _ = mm.evaluate(v - step[:, 0], theta - step[:, 1], out=(None, None))
    fd = (h_plus - h_minus).T / (2 * eps)
    np.testing.assert_allclose(jac[0], fd, rtol=1e-6, atol=1e-7)


@given(case=st.sampled_from(["closed", "table5-27", "table5-29"]), seed=st.integers(0, 2**32 - 1))
def test_curvature_matches_central_differences_of_the_weighted_jacobian(ieee14, islanded_points,
                                                                       case, seed):
    """At random states and multipliers lam, ``curvature`` equals the
    central difference of H(x)'lam by each state column, on full telemetry
    plus flow rows on the open branches, connected and split into islands,
    and is symmetric. Three states in one batch give, bit for bit, what
    each gives alone."""
    oc = {oc.spec.id: oc for oc in islanded_points}.get(case)
    model, topo = (ieee14, build_topology(ieee14)) if oc is None else (oc.model, oc.topology)
    rng = np.random.default_rng(seed)
    v, theta = rng.uniform(0.9, 1.1, (3, 14)), rng.uniform(-0.5, 0.5, (3, 14))
    entries = full_telemetry_from_state(model, v[0], theta[0], topo).entries + [
        Measurement(kind, 0.0, 1.0, branch=br.pair)
        for br, live in zip(model.branches, topo.in_service)
        if not live
        for kind in (MeasKind.PFLOW, MeasKind.QFLOW)
    ]
    mm = MeasurementModel(model, topo, entries)
    lam = rng.normal(0.0, 1.0, (3, len(entries)))
    s = mm.curvature(v, theta, lam)
    for k in range(3):
        assert np.array_equal(mm.curvature(v[k:k + 1], theta[k:k + 1], lam[k:k + 1])[0], s[k])
    assert np.array_equal(s, s.transpose(0, 2, 1))
    # One state per column and sign: theta of the angle buses, then V.
    eps, na = 1e-6, mm.angle_buses.size
    step = np.zeros((mm.n_state, 2, 14))
    step[np.arange(na), 1, mm.angle_buses] = eps
    step[na + np.arange(14), 0, np.arange(14)] = eps
    _, jac_plus = mm.evaluate(v[0] + step[:, 0], theta[0] + step[:, 1])
    _, jac_minus = mm.evaluate(v[0] - step[:, 0], theta[0] - step[:, 1])
    fd = (jac_plus - jac_minus).transpose(0, 2, 1) @ lam[0] / (2 * eps)
    np.testing.assert_allclose(s[0], fd, rtol=1e-6, atol=1e-6)


def test_parallel_branches_share_one_summed_edge_term(ieee14, telemetry):
    """Two branches between buses 1 and 2 make one Ybus entry; the
    injection rows' edge terms use that sum, as the dense blocks did, at
    any batch."""
    _assert_equals_reference(_parallel_model(ieee14), telemetry.entries[:42])


def test_newton_raphson_jacobian_equals_the_dense_blocks(ieee14, islanded_points, monkeypatch):
    """One Newton-Raphson step per energized island hands np.linalg.solve
    the mismatch and the Jacobian assembled from the dense reference
    blocks, bit for bit, also on an island whose slack is a promoted
    generator."""
    seen = []
    real_solve = np.linalg.solve

    def capture(a, b):
        seen.append((a.copy(), b.copy()))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", capture)
    rng = np.random.default_rng(29)
    cases = [(ieee14, None, solve(ieee14))] + [(oc.model, oc.topology, oc.solution) for oc in islanded_points]
    promoted = 0
    monkeypatch.setattr(powerflow, "NR_TOL", 0.0)
    monkeypatch.setattr(powerflow, "NR_MAX_ITER", 1)
    for model, topo, sol in cases:
        n = model.n_bus
        injections = [
            Measurement(kind, 0.0, 1.0, bus=b) for kind in (MeasKind.PINJ, MeasKind.QINJ) for b in range(1, n + 1)
        ]
        mm = MeasurementModel(model, topo, injections)
        p_sched, q_sched = rng.normal(0.0, 0.5, (2, n))
        for report in sol.islands:
            if report.slack_bus is None or len(report.island.buses) == 1:
                continue
            promoted += model.buses[report.slack_bus - 1].kind is not BusKind.SLACK
            idx = sorted(b - 1 for b in report.island.buses)
            slack = report.slack_bus - 1
            pv = [i for i in idx if model.buses[i].kind is BusKind.GENERATOR and i != slack]
            (v, theta), = zip(*_perturbed(model, sol, rng, batch=1))
            p, q, dp_dth, dp_dv, dq_dth, dq_dv = reference_injection_blocks(mm.ybus, v, theta)
            ang = [i for i in idx if i != slack]
            pq = [i for i in ang if i not in pv]
            ref_jac = np.block([
                [dp_dth[np.ix_(ang, ang)], dp_dv[np.ix_(ang, pq)]],
                [dq_dth[np.ix_(pq, ang)], dq_dv[np.ix_(pq, pq)]],
            ])
            ref_mismatch = np.concatenate([p_sched[ang] - p[ang], q_sched[pq] - q[pq]])
            seen.clear()
            powerflow._nr_island(mm, idx, slack, pv, p_sched, q_sched, v, theta)
            (jac, mismatch), = seen
            assert np.array_equal(jac, ref_jac)
            assert np.array_equal(mismatch, ref_mismatch)
    assert promoted >= 1


def test_evaluate_memory_per_state_is_linear_in_branches():
    """On a 200-bus chain a state's source vector and temporaries stay
    within 64 floats per bus and per branch; one dense n x n block would
    be 200 floats per bus."""
    n = 200
    chain = NetworkModel(
        buses=(Bus(1, BusKind.SLACK, 1.0),)
        + tuple(Bus(k, p_load=1.0, q_load=0.5) for k in range(2, n + 1)),
        branches=tuple(Branch(k, k + 1, r=0.01, x=0.05, b_shunt=0.02) for k in range(1, n)),
    )
    rng = np.random.default_rng(31)
    v, theta = 1.0 + rng.normal(0.0, 0.02, (2, n)), rng.normal(0.0, 0.05, (2, n))
    entries = full_telemetry_from_state(chain, v[0], theta[0]).entries
    mm = MeasurementModel(chain, None, entries)
    out = np.empty((2, len(entries))), np.empty((2, len(entries), 2 * n - 1))
    mm.evaluate(v, theta, out=out)
    tracemalloc.start()
    try:
        mm.evaluate(v, theta, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * 64 * (n + len(chain.branches))
    assert bound < 8 * n * n
    assert peak / len(v) < bound, peak


def test_estimates_of_one_layout_share_one_compiled_model(ieee14, telemetry):
    """Values and sigmas are not part of the cache key."""
    other = MeasurementSet(
        [replace(m, value=m.value + 0.001, sigma=2 * m.sigma) for m in telemetry.entries]
    )
    first = wls_estimate_ac(ieee14, telemetry)
    assert wls_estimate_ac(ieee14, other).measurement_model is first.measurement_model


def test_a_change_the_compile_reads_gives_a_new_model(ieee14, telemetry):
    """One branch's r, one bus shunt or one in-service flag is a new key."""
    entries = telemetry.entries
    mm = compiled(ieee14, None, entries)
    line, bus9, topo = ieee14.branches[0], ieee14.bus(9), build_topology(ieee14)
    for model, topology in (
        (ieee14.with_branch(0, replace(line, r=2 * line.r)), None),
        (ieee14.with_bus(9, replace(bus9, b_shunt=0.0)), None),
        (ieee14, replace(topo, in_service=(False,) + topo.in_service[1:])),
    ):
        other = compiled(model, topology, entries)
        assert other is not mm
        assert not np.array_equal(other.ybus, mm.ybus)
    assert compiled(ieee14, topo, entries) is mm


def test_each_field_the_compile_reads_keys_its_own_model(ieee14, telemetry, states):
    """A model that differs in one branch's x or one bus's shunt, kind or
    ``p_gen``, a topology that differs in one breaker and a layout that
    differs in one entry's kind, bus or branch each get a compiled model of
    their own, which evaluates as a fresh compile of it does, bit for bit.
    The key's model part is built once per model object and compared by
    value: the same object, or an equal one, gets the cached model."""
    entries = telemetry.entries
    mm = compiled(ieee14, None, entries)
    line, bus2, bus9, topo = ieee14.branches[3], ieee14.bus(2), ieee14.bus(9), build_topology(ieee14)
    vm3 = next(i for i, m in enumerate(entries) if m.kind is MeasKind.VM and m.bus == 3)
    flow = next(i for i, m in enumerate(entries) if m.kind is MeasKind.PFLOW)

    def changed(row, **fields):
        out = list(entries)
        out[row] = replace(out[row], **fields)
        return out

    variants = {
        "branch x": (ieee14.with_branch(3, replace(line, x=1.5 * line.x)), None, entries),
        "bus shunt": (ieee14.with_bus(9, replace(bus9, b_shunt=0.0)), None, entries),
        "bus kind": (ieee14.with_bus(9, replace(bus9, kind=BusKind.GENERATOR)), None, entries),
        "bus p_gen": (ieee14.with_bus(2, replace(bus2, p_gen=bus2.p_gen + 10.0)), None, entries),
        "breaker": (ieee14, replace(topo, in_service=topo.in_service[:5] + (False,) + topo.in_service[6:]), entries),
        "entry kind": (ieee14, None, changed(vm3, kind=MeasKind.PINJ)),
        "entry bus": (ieee14, None, changed(vm3, bus=4)),
        "entry branch": (ieee14, None, changed(flow, branch=entries[flow].branch[::-1])),
    }
    v, theta = states
    models = {}
    for name, args in variants.items():
        models[name] = other = compiled(*args)
        assert other is not mm, name
        assert compiled(*args) is other, name
        h, jac = other.evaluate(v, theta)
        h_ref, jac_ref = MeasurementModel(*args).evaluate(v, theta)
        assert np.array_equal(h, h_ref) and np.array_equal(jac, jac_ref), name
    assert len({id(other) for other in models.values()}) == len(models)
    assert compiled(ieee14, None, entries) is mm
    assert compiled(build_ieee14(), topo, list(entries)) is mm


def test_an_island_reference_is_part_of_the_cache_key(islanded_points):
    """Point 27's island of buses 7 and 8 holds the angle of bus 8, its one
    generator. Made a generator of larger ``p_gen``, bus 7 holds it instead:
    the same layout on the same topology is a new model, whose theta
    columns are the power flow's, which solves that island with bus 7 as
    its slack."""
    oc = islanded_points[0]
    entries = full_telemetry_from_state(oc.model, oc.solution.v, oc.solution.theta, oc.topology).entries
    mm = compiled(oc.model, oc.topology, entries)
    bus7 = replace(oc.model.bus(7), kind=BusKind.GENERATOR, p_gen=oc.model.bus(8).p_gen + 10.0)
    model = oc.model.with_bus(7, bus7)
    other = compiled(model, oc.topology, entries)
    assert other is not mm
    assert 7 not in mm.angle_buses and 6 in mm.angle_buses
    assert 6 not in other.angle_buses and 7 in other.angle_buses
    sol = solve(model, oc.topology)
    assert sol.converged
    assert [rep.slack_bus for rep in sol.islands] == [1, 7]


@pytest.mark.parametrize("synthesize", [measurements_from_state, full_telemetry_from_state])
def test_a_cached_model_equals_a_fresh_compile(ieee14, states, synthesize):
    """On the injection layout and on full telemetry with flows, a cache
    hit gives the h and H of a fresh compile bit for bit."""
    v, theta = states
    entries = synthesize(ieee14, v[0], theta[0]).entries
    cached = compiled(ieee14, None, entries)
    assert compiled(ieee14, None, entries) is cached
    fresh = MeasurementModel(ieee14, None, entries)
    assert np.array_equal(cached.h_idx, fresh.h_idx)
    assert np.array_equal(cached.jac_idx, fresh.jac_idx)
    h, jac = cached.evaluate(v, theta)
    h_ref, jac_ref = fresh.evaluate(v, theta)
    assert np.array_equal(h, h_ref) and np.array_equal(jac, jac_ref)


def test_a_layout_that_does_not_compile_raises_every_time(ieee14, monkeypatch):
    monkeypatch.setattr(measmodel, "_compiled", {})
    entries = [Measurement(MeasKind.VM, 1.0, 0.01, bus=b) for b in (1, 2, 99)]
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^channel Vm bus 99: bus outside 1\.\.14$"):
            compiled(ieee14, None, entries)
    assert measmodel._compiled == {}


def test_a_cached_model_is_read_only(ieee14, telemetry):
    """Callers share a cached model, so none can write its arrays; a
    model ``without`` a row has arrays of its own."""
    mm = compiled(ieee14, None, telemetry.entries)
    arrays = {name: a for name, a in vars(mm).items() if isinstance(a, np.ndarray)}
    assert {"h_idx", "jac_idx", "ybus", "_g", "_b", "_yff", "_flat"} <= set(arrays)
    for a in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    reduced = mm.without(0)
    reduced.jac_idx[0, 0] = reduced.jac_idx[0, 0]


def test_the_cache_never_grows_past_its_bound(ieee14, monkeypatch):
    monkeypatch.setattr(measmodel, "_compiled", {})
    layouts = [
        [Measurement(MeasKind.VM, 1.0, 0.01, bus=1)] * k for k in range(1, COMPILED_MAX + 6)
    ]
    models = []
    for entries in layouts:
        models.append(compiled(ieee14, None, entries))
        assert len(measmodel._compiled) <= COMPILED_MAX
    assert len(measmodel._compiled) == COMPILED_MAX
    assert compiled(ieee14, None, layouts[-1]) is models[-1]
    assert compiled(ieee14, None, layouts[0]) is not models[0]
