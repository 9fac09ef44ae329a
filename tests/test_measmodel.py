import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gridsec import powerflow
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
from gridsec.measmodel import MeasurementModel
from gridsec.network import (
    Branch,
    Bus,
    BusKind,
    NetworkModel,
    admittance,
    branch_admittances,
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


def reference_h_jac(model, entries, v, theta, topology=None):
    """The per-row loop the vectorized model replaced, kept as the
    reference it must match bit for bit. A flow on a branch out of
    service in ``topology`` is a zero row."""
    n = model.n_bus
    slack = model.slack_index
    ybus = admittance(model, topology)
    p, q, dp_dth, dp_dv, dq_dth, dq_dv = reference_injection_blocks(ybus, v, theta)
    ang = [i for i in range(n) if i != slack]
    h = np.zeros(len(entries))
    jac = np.zeros((len(entries), 2 * n - 1))
    for row, m in enumerate(entries):
        if m.kind is MeasKind.VM:
            h[row] = v[m.bus - 1]
            jac[row, n - 1 + m.bus - 1] = 1.0
            continue
        if m.kind in (MeasKind.PINJ, MeasKind.QINJ):
            i = m.bus - 1
            val, d_th, d_v = (p, dp_dth, dp_dv) if m.kind is MeasKind.PINJ else (q, dq_dth, dq_dv)
            h[row] = val[i]
            jac[row, : n - 1] = d_th[i, ang]
            jac[row, n - 1:] = d_v[i, :]
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
        if i != slack:
            jac[row, ang.index(i)] = d_thi
        if j != slack:
            jac[row, ang.index(j)] = -d_thi
        jac[row, n - 1 + i] = d_vi
        jac[row, n - 1 + j] = d_vj
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


def test_batched_model_equals_per_row_reference_bit_for_bit(ieee14, telemetry, states):
    """Power flow, WLS and the sweep's flags reproduce their earlier results
    exactly only while the vectorized arithmetic matches the loop's."""
    mm = MeasurementModel(ieee14, None, telemetry.entries)
    v, theta = states
    h, jac = mm.evaluate(v, theta)
    for k in range(len(v)):
        h_ref, jac_ref = reference_h_jac(ieee14, telemetry.entries, v[k], theta[k])
        assert np.array_equal(h[k], h_ref)
        assert np.array_equal(jac[k], jac_ref)


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
    layout bit for bit, also once both flow rows of a branch end (the to
    side of the off-nominal-tap branch 4-7) are gone."""
    v, theta = states
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
        h, jac = mm.evaluate(v, theta)
        h_ref, jac_ref = MeasurementModel(ieee14, None, entries).evaluate(v, theta)
        assert mm.n_rows == len(entries)
        assert np.array_equal(h, h_ref)
        assert np.array_equal(jac, jac_ref)


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
    with more than one island: the per-branch terms follow the live Ybus."""
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
            h_ref, jac_ref = reference_h_jac(model, entries, v[k], theta[k], topo)
            assert np.array_equal(h[k], h_ref), oc.spec.id
            assert np.array_equal(jac[k], jac_ref), oc.spec.id


def test_parallel_branches_share_one_summed_edge_term(ieee14, states):
    """Two branches between buses 1 and 2 make one Ybus entry; the
    injection rows' edge terms use that sum, as the dense blocks did."""
    line = ieee14.branches[ieee14.branch_index(1, 2)]
    doubled = replace(ieee14, branches=ieee14.branches + (replace(line, r=2 * line.r, x=2 * line.x),))
    v, theta = states
    entries = measurements_from_state(doubled, v[0], theta[0]).entries
    h, jac = MeasurementModel(doubled, None, entries).evaluate(v, theta)
    for k in range(len(v)):
        h_ref, jac_ref = reference_h_jac(doubled, entries, v[k], theta[k])
        assert np.array_equal(h[k], h_ref)
        assert np.array_equal(jac[k], jac_ref)


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
            powerflow._nr_island(mm, idx, slack, pv, p_sched, q_sched, v, theta, 0.0, 1)
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
