import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from gridsec.detection import read_pair
from gridsec.measmodel import branch_flows
from gridsec.network import (
    Branch,
    Bus,
    BusKind,
    NetworkModel,
    admittance,
    apply_topology_corruption,
    branch_admittances,
    build_ieee14,
    build_topology,
    island_references,
)
from gridsec.powerflow import bus_power, solve
from gridsec.records import GridRecord


def two_bus_case(p_load_mw=10.0, r=0.01, x=0.1):
    return NetworkModel(
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_setpoint=1.0),
            Bus(id=2, kind=BusKind.LOAD, p_load=p_load_mw, q_load=0.0),
        ),
        branches=(Branch(from_bus=1, to_bus=2, r=r, x=x),),
    )


def test_two_bus_against_bisection_oracle():
    """Independent oracle: reduce the 2-bus case to a single scalar
    equation in the load-bus voltage (fixed-point over Q as well) and
    solve it by nested bisection on the power balance."""
    model = two_bus_case()
    sol = solve(model)
    assert sol.converged

    y = 1.0 / complex(0.01, 0.1)
    p_target, q_target = -0.10, 0.0

    def injections(vm, th):
        v2 = vm * np.exp(1j * th)
        i2 = y * (v2 - 1.0)
        s2 = v2 * np.conjugate(i2)
        return s2.real, s2.imag

    # 2-d bisection via alternating scans is clumsy; a dense grid search
    # refined twice is a sound independent oracle at this scale.
    best = None
    vm_lo, vm_hi, th_lo, th_hi = 0.8, 1.1, -0.3, 0.1
    for _ in range(6):
        vms = np.linspace(vm_lo, vm_hi, 61)
        ths = np.linspace(th_lo, th_hi, 61)
        err = np.empty((61, 61))
        for a, vm in enumerate(vms):
            for b, th in enumerate(ths):
                p, q = injections(vm, th)
                err[a, b] = abs(p - p_target) + abs(q - q_target)
        a, b = np.unravel_index(np.argmin(err), err.shape)
        best = (vms[a], ths[b])
        dv, dt = (vm_hi - vm_lo) / 10, (th_hi - th_lo) / 10
        vm_lo, vm_hi = best[0] - dv, best[0] + dv
        th_lo, th_hi = best[1] - dt, best[1] + dt
    assert abs(sol.v[1] - best[0]) < 1e-5
    assert abs(sol.theta[1] - best[1]) < 1e-5


def test_zero_load_network_is_flat():
    model = two_bus_case(p_load_mw=0.0)
    sol = solve(model)
    assert sol.converged
    assert np.allclose(sol.v, [1.0, 1.0], atol=1e-12)
    assert np.allclose(sol.theta, 0.0, atol=1e-12)
    assert all(abs(f.p_from) < 1e-9 and abs(f.q_from) < 1e-9 for f in sol.flows)


def test_ieee14_converges_with_positive_losses():
    model = build_ieee14()
    sol = solve(model)
    assert sol.converged
    assert sol.losses_mw > 0
    # Balance oracle: generation minus load minus losses, all from the
    # solution's own independent flow path.
    gen = sum(p for p in sol.p_inj if p > 0)
    load = sum(-p for p in sol.p_inj if p < 0)
    assert abs(gen - load - sol.losses_mw) < 1e-6


def test_conservation_per_island():
    model = build_ieee14()
    sol = solve(model)
    for rep in sol.islands:
        assert rep.solved
        assert abs(rep.balance_mw) < 1e-6 * model.base_mva


def test_slack_angle_zero():
    sol = solve(build_ieee14())
    assert sol.theta[0] == 0.0


def test_line_flow_matches_series_formula():
    """On a plain line (tap 1, no charging) the computed flow must equal
    the R/X series formulation evaluated by hand."""
    model = build_ieee14()
    sol = solve(model)
    flows = {(f.from_bus, f.to_bus): f for f in sol.flows}
    for br in model.branches:
        if br.tap != 1.0 or br.b_shunt != 0.0:
            continue
        i, j = br.from_bus - 1, br.to_bus - 1
        vi, vj = sol.v[i], sol.v[j]
        dth = sol.theta[i] - sol.theta[j]
        denom = br.r**2 + br.x**2
        p_formula = (
            vi * vi * br.r
            - vi * vj * math.cos(dth) * br.r
            + vi * vj * math.sin(dth) * br.x
        ) / denom
        q_formula = (
            vi * vi * br.x
            - vi * vj * math.cos(dth) * br.x
            - vi * vj * math.sin(dth) * br.r
        ) / denom
        f = flows[(br.from_bus, br.to_bus)]
        assert abs(f.p_from - p_formula * 100.0) < 1e-6
        assert abs(f.q_from - q_formula * 100.0) < 1e-6


def test_open_branch_zero_flow_and_loss_gap():
    model = build_ieee14()
    topo = apply_topology_corruption(build_topology(model), [(9, 10)])
    sol = solve(model, topo)
    assert sol.converged
    flows = {(f.from_bus, f.to_bus): f for f in sol.flows}
    opened = flows[(9, 10)]
    assert opened.p_from == 0 and opened.p_to == 0
    assert opened.q_from == 0 and opened.q_to == 0
    # Resistive in-service lines dissipate: p_from + p_to > 0 and the two
    # ends disagree.
    for br in model.branches:
        f = flows[(br.from_bus, br.to_bus)]
        if f.in_service and br.r > 0 and abs(f.p_from) > 1e-6:
            assert f.loss_mw > 0
            assert f.p_from != -f.p_to


def test_flow_antisymmetry_up_to_loss():
    sol = solve(build_ieee14())
    for f in sol.flows:
        if f.in_service:
            assert f.p_from + f.p_to >= -1e-9


def two_port_flows(model, topology, v, theta):
    """From- and to-end P and Q (p.u.) per branch from the complex two-port
    equations S = V conj(Y V), the reference the real-form flows match."""
    vc = v * np.exp(1j * theta)
    out = []
    for br, live in zip(model.branches, topology.in_service):
        yff, yft, ytf, ytt = branch_admittances(br)
        vf, vt = vc[br.from_bus - 1], vc[br.to_bus - 1]
        sf = vf * np.conj(yff * vf + yft * vt) if live else 0j
        st = vt * np.conj(ytf * vf + ytt * vt) if live else 0j
        out.append((sf.real, sf.imag, st.real, st.imag))
    return np.array(out)


def test_solution_flows_are_the_measurement_model_flow_rows():
    """On every solved catalog point the reported flows are the flow rows
    of the measurement model times base MVA, bit for bit, and agree with
    the complex two-port equations; open branches carry exactly 0."""
    from gridsec.estimation import MeasKind, Measurement
    from gridsec.measmodel import MeasurementModel
    from gridsec.records import GridRecord
    from gridsec.scenarios import generate_all

    solved = [oc for oc in generate_all(build_ieee14()) if oc.record is not None]
    assert len(solved) == 28
    for oc in solved:
        model, topo, sol = oc.model, oc.topology, oc.solution
        layout = [
            Measurement(kind, 0.0, 1.0, branch=pair)
            for br in model.branches
            for pair in (br.pair, br.pair[::-1])
            for kind in (MeasKind.PFLOW, MeasKind.QFLOW)
        ]
        h, _ = MeasurementModel(model, topo, layout).evaluate(sol.v[None], sol.theta[None])
        reported = np.array([(f.p_from, f.q_from, f.p_to, f.q_to) for f in sol.flows])
        assert np.array_equal(reported, h[0].reshape(-1, 4) * model.base_mva, equal_nan=True), oc.spec.id
        reference = two_port_flows(model, topo, sol.v, sol.theta)
        np.testing.assert_allclose(reported / model.base_mva, reference, rtol=0, atol=1e-12)
        assert all(f.in_service == live for f, live in zip(sol.flows, topo.in_service))
        assert not reported[~np.array(topo.in_service)].any()

    model = build_ieee14()
    rec = GridRecord.from_csv(GridRecord.from_solution(model, solve(model)).to_csv())
    assert rec.n_bus == 14 and len(rec.branches) == 20


def test_parallel_branches_keep_their_own_flows():
    """A second copy of branch 1-2 gets its own flow entry; the two copies
    together carry what one branch of twice the admittance carries."""
    model = build_ieee14()
    k = model.branch_index(1, 2)
    line = model.branches[k]
    doubled = replace(model, branches=model.branches + (line,))
    merged = model.with_branch(k, replace(line, r=line.r / 2, x=line.x / 2, b_shunt=2 * line.b_shunt))
    sol, ref = solve(doubled), solve(merged)
    assert sol.converged and ref.converged
    copies = [f for f in sol.flows if (f.from_bus, f.to_bus) == (1, 2)]
    assert len(copies) == 2 and len(sol.flows) == 21
    single = ref.flows[k]
    for name in ("p_from", "q_from", "p_to", "q_to"):
        assert abs(sum(getattr(f, name) for f in copies) - getattr(single, name)) < 1e-9, name
    assert all(abs(rep.balance_mw) < 1e-9 for rep in sol.islands)


def test_symmetric_state_zero_flow():
    # Equal voltage magnitude and angle at both ends, no charging: no MW.
    br = Branch(from_bus=1, to_bus=2, r=0.02, x=0.08)
    yff, yft, ytf, ytt = branch_admittances(br)
    v = 1.03 * np.exp(1j * 0.2)
    s = v * np.conjugate(yff * v + yft * v)
    assert abs(s.real) < 1e-14 and abs(s.imag) < 1e-14


def test_island_decomposition_base_case():
    model = build_ieee14()
    islands = [rep.island for rep in solve(model).islands]
    assert len(islands) == 1
    assert islands[0].buses == frozenset(range(1, 15))
    assert islands[0].has_slack


def _bfs_components(n_bus, edges):
    adj = {b: set() for b in range(1, n_bus + 1)}
    for f, t in edges:
        adj[f].add(t)
        adj[t].add(f)
    seen, comps = set(), []
    for b in range(1, n_bus + 1):
        if b in seen:
            continue
        comp, queue = {b}, [b]
        while queue:
            u = queue.pop(0)
            for nb in adj[u]:
                if nb not in comp:
                    comp.add(nb)
                    queue.append(nb)
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


def test_island_decomposition_against_bfs_oracle():
    model = build_ieee14()
    rng = np.random.default_rng(11)
    base = build_topology(model)
    for _ in range(30):
        flips = [int(i) for i in rng.choice(20, size=rng.integers(1, 9), replace=False)]
        topo = apply_topology_corruption(base, flips)
        got = {buses for buses, _ in island_references(model, topo)}
        edges = [p for p, live in zip(topo.pairs, topo.in_service) if live]
        assert got == _bfs_components(14, edges)


def test_island_balances_report():
    from gridsec.network import apply_topology_corruption, build_topology

    model = build_ieee14()
    topo = apply_topology_corruption(build_topology(model), [(7, 8)])
    sol = solve(model, topo)
    assert len(sol.islands) == 2
    for rep in sol.islands:
        assert rep.solved
        assert abs(rep.balance_mw) < 1e-6 * model.base_mva


def test_every_branch_open_gives_singletons():
    model = build_ieee14()
    topo = apply_topology_corruption(build_topology(model), list(range(20)))
    islands = [buses for buses, _ in island_references(model, topo)]
    assert islands == [frozenset({b}) for b in range(1, 15)]


def test_islanded_generator_promoted_to_slack():
    # Opening 7-8 leaves generator bus 8 alone; it should solve flat.
    model = build_ieee14()
    topo = apply_topology_corruption(build_topology(model), [(7, 8)])
    sol = solve(model, topo)
    rep8 = next(r for r in sol.islands if r.island.buses == frozenset({8}))
    assert rep8.solved and rep8.slack_bus == 8
    assert abs(sol.v[7] - 1.09) < 1e-9


def test_island_without_source_is_flagged():
    model = build_ieee14()
    # Cut bus 14 off entirely: branches 9-14 and 13-14.
    topo = apply_topology_corruption(build_topology(model), [(9, 14), (13, 14)])
    sol = solve(model, topo)
    rep = next(r for r in sol.islands if r.island.buses == frozenset({14}))
    assert not rep.solved
    assert "no slack" in rep.note
    assert math.isnan(sol.v[13])


def random_three_bus(rng):
    r1, r2, r3 = rng.uniform(0.01, 0.05, 3)
    x1, x2, x3 = rng.uniform(0.05, 0.25, 3)
    return NetworkModel(
        buses=(
            Bus(id=1, kind=BusKind.SLACK, v_setpoint=rng.uniform(1.0, 1.05)),
            Bus(id=2, kind=BusKind.GENERATOR, v_setpoint=rng.uniform(1.0, 1.05),
                p_gen=rng.uniform(10, 40), p_load=rng.uniform(0, 10)),
            Bus(id=3, kind=BusKind.LOAD, p_load=rng.uniform(10, 60),
                q_load=rng.uniform(0, 20)),
        ),
        branches=(
            Branch(from_bus=1, to_bus=2, r=r1, x=x1),
            Branch(from_bus=2, to_bus=3, r=r2, x=x2),
            Branch(from_bus=1, to_bus=3, r=r3, x=x3),
        ),
    )


def test_random_cases_satisfy_power_balance_residual():
    """The solved state must satisfy the bus power-balance equations
    evaluated independently from the admittance matrix."""
    rng = np.random.default_rng(2024)
    for _ in range(25):
        model = random_three_bus(rng)
        sol = solve(model, enforce_q_limits=False)
        assert sol.converged
        y = admittance(model)
        p, q = bus_power(y, sol.v, sol.theta)
        base = model.base_mva
        # Non-slack buses: P residual; load buses: Q residual too.
        p_sched = np.array([(b.p_gen - b.p_load) / base for b in model.buses])
        q_sched = np.array([-b.q_load / base for b in model.buses])
        assert abs(p[1] - p_sched[1]) < 1e-8
        assert abs(p[2] - p_sched[2]) < 1e-8
        assert abs(q[2] - q_sched[2]) < 1e-8


def test_q_limit_enforcement_converts_pv_bus():
    model = build_ieee14()
    free = solve(model, enforce_q_limits=False)
    q_gen3 = free.q_inj[2] + model.bus(3).q_load
    tight = replace(model.bus(3), q_max=q_gen3 - 10.0)
    clamped_model = model.with_bus(3, tight)
    sol = solve(clamped_model, enforce_q_limits=True)
    assert sol.converged
    q_gen3_clamped = sol.q_inj[2] + model.bus(3).q_load
    assert q_gen3_clamped <= tight.q_max + 1e-6
    assert sol.v[2] < model.bus(3).v_setpoint  # voltage sags off setpoint


def test_dead_island_leaves_other_islands_solved():
    # Island {4, 7, 9, 10, 14} has neither slack nor generator; its NaN
    # state must not reach island {6, 11, 12, 13} or the audits.
    model = build_ieee14()
    opened = [(2, 4), (3, 4), (4, 5), (7, 8), (5, 6), (10, 11), (13, 14)]
    sol = solve(model, apply_topology_corruption(build_topology(model), opened))
    by_buses = {r.island.buses: r for r in sol.islands}
    dead = by_buses[frozenset({4, 7, 9, 10, 14})]
    assert not dead.solved and "no slack" in dead.note
    assert by_buses[frozenset({6, 11, 12, 13})].solved
    for rep in sol.islands:
        if rep.solved:
            assert abs(rep.balance_mw) < 1e-6
    dead_idx = [b - 1 for b in dead.island.buses]
    live = np.ones(model.n_bus, dtype=bool)
    live[dead_idx] = False
    assert np.isnan(sol.v[dead_idx]).all() and np.isnan(sol.p_inj[dead_idx]).all()
    assert np.isfinite(sol.v[live]).all() and np.isfinite(sol.p_inj[live]).all()


@given(
    scales=st.lists(st.floats(0.8, 1.2), min_size=14, max_size=14),
    opened=st.lists(st.integers(0, 19), min_size=1, max_size=2, unique=True),
)
def test_power_is_conserved_at_every_bus_and_in_every_island(ieee14, scales, opened):
    """For loads scaled bus by bus within 20 % and one or two branches
    opened, a converged power flow injects at each solved bus what its
    ``branch_flows`` ends carry away (Q less the bus shunt's), to 1e-9 MW,
    and the record of the solution balances in every solved island, to
    1e-6 MW: its buses' injections less the losses of its in-service rows
    (``read_pair``'s island report). A dead island's rows are all NaN."""
    model = ieee14
    for bus, scale in zip(ieee14.buses, scales):
        model = model.with_bus(bus.id, replace(bus, p_load=bus.p_load * scale, q_load=bus.q_load * scale))
    topo = apply_topology_corruption(build_topology(model), [model.branches[i].pair for i in opened])
    sol = solve(model, topo)
    assume(sol.converged)
    ends = np.array([br.pair for br in model.branches]).T - 1
    p_out, q_out = np.zeros(model.n_bus), np.zeros(model.n_bus)
    pf, qf, pt, qt = branch_flows(model, topo, sol.v, sol.theta)
    for at, p, q in ((ends[0], pf, qf), (ends[1], pt, qt)):
        np.add.at(p_out, at, p)
        np.add.at(q_out, at, q)
    q_out -= np.array([bus.b_shunt for bus in model.buses]) * sol.v**2
    solved = np.isfinite(sol.v)
    base = model.base_mva
    assert np.abs(sol.p_inj - base * p_out)[solved].max() < 1e-9
    assert np.abs(sol.q_inj - base * q_out)[solved].max() < 1e-9

    record = GridRecord.from_solution(model, sol, topo)
    report = read_pair(record, record, model).island_report
    assert [isl for isl, _ in report.balances] == report.islands == record.islands()
    for island, net in report.balances:
        if solved[min(island) - 1]:
            assert abs(net) < 1e-6, (island, net)
        else:
            assert math.isnan(net) and not solved[[b - 1 for b in island]].any()
