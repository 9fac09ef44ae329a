import numpy as np
import pytest

from gridsec.network import (
    Branch,
    BreakerState,
    Bus,
    BusKind,
    NetworkModel,
    admittance,
    apply_topology_corruption,
    branch_admittances,
    build_ieee14,
    build_topology,
    model_from_json,
    model_to_json,
)


@pytest.fixture(scope="module")
def ieee14():
    return build_ieee14()


def test_ieee14_structure(ieee14):
    assert ieee14.n_bus == 14
    assert len(ieee14.branches) == 20
    assert ieee14.buses[0].kind is BusKind.SLACK
    gens = [b.id for b in ieee14.buses if b.kind is BusKind.GENERATOR]
    assert gens == [2, 3, 6, 8]
    assert ieee14.base_mva == 100.0


def test_ieee14_deterministic(ieee14):
    assert build_ieee14() == ieee14


def test_admittance_symmetry(ieee14):
    y = admittance(ieee14)
    assert np.max(np.abs(y - y.T)) < 1e-12


def test_admittance_symmetry_under_random_topologies(ieee14):
    rng = np.random.default_rng(42)
    topo = build_topology(ieee14)
    for _ in range(20):
        flips = rng.choice(len(ieee14.branches), size=rng.integers(1, 6), replace=False)
        corrupted = apply_topology_corruption(topo, [int(i) for i in flips])
        y = admittance(ieee14, corrupted)
        assert np.max(np.abs(y - y.T)) < 1e-12


def test_open_branch_removed_from_admittance(ieee14):
    """Oracle: rebuild the matrix entries by summing the remaining branch
    admittances by hand after opening branch 2-4."""
    topo = build_topology(ieee14)
    idx = ieee14.branch_index(2, 4)
    opened = apply_topology_corruption(topo, [idx])
    y = admittance(ieee14, opened)
    assert y[1, 3] == 0 and y[3, 1] == 0

    # Hand-sum every branch touching buses 2 and 4 except the opened one.
    expected_d2 = 1j * ieee14.buses[1].b_shunt
    expected_d4 = 1j * ieee14.buses[3].b_shunt
    for k, br in enumerate(ieee14.branches):
        if k == idx:
            continue
        yff, _, _, ytt = branch_admittances(br)
        for bus, acc in ((2, "d2"), (4, "d4")):
            if br.from_bus == bus:
                if acc == "d2":
                    expected_d2 += yff
                else:
                    expected_d4 += yff
            elif br.to_bus == bus:
                if acc == "d2":
                    expected_d2 += ytt
                else:
                    expected_d4 += ytt
    assert abs(y[1, 1] - expected_d2) < 1e-12
    assert abs(y[3, 3] - expected_d4) < 1e-12


def test_single_flip_changes_admittance(ieee14):
    topo = build_topology(ieee14)
    y0 = admittance(ieee14, topo)
    y1 = admittance(ieee14, apply_topology_corruption(topo, [(2, 4)]))
    assert np.max(np.abs(y0 - y1)) > 1e-6


def test_topology_xor_involution(ieee14):
    topo = build_topology(ieee14)
    rng = np.random.default_rng(7)
    for _ in range(25):
        flips = [int(i) for i in rng.choice(20, size=rng.integers(0, 7), replace=False)]
        twice = apply_topology_corruption(apply_topology_corruption(topo, flips), flips)
        assert twice == topo


def test_empty_flips_identity(ieee14):
    topo = build_topology(ieee14)
    assert apply_topology_corruption(topo, []) == topo


def test_unknown_flip_rejected(ieee14):
    topo = build_topology(ieee14)
    with pytest.raises(KeyError):
        apply_topology_corruption(topo, [(9, 13)])
    with pytest.raises(KeyError):
        apply_topology_corruption(topo, [99])


def test_breaker_topology_coherence(ieee14):
    """t_ij = 1 exactly when both breakers of the branch are closed."""
    from dataclasses import replace

    model = ieee14
    idx = model.branch_index(6, 13)
    half_open = model.with_branch(
        idx, replace(model.branches[idx], breaker_to=BreakerState.OPEN)
    )
    topo = build_topology(half_open)
    assert topo.t[5, 12] == 0 and topo.t[12, 5] == 0
    assert not topo.status(6, 13)
    for br, live in zip(half_open.branches, topo.in_service):
        assert live == (
            br.breaker_from is BreakerState.CLOSED and br.breaker_to is BreakerState.CLOSED
        )


def test_json_round_trip(ieee14):
    text = model_to_json(ieee14)
    again = model_from_json(text)
    assert again == ieee14


def test_validation_rejects_bad_models():
    buses = (Bus(id=1, kind=BusKind.SLACK), Bus(id=2))
    with pytest.raises(ValueError):
        Branch(from_bus=1, to_bus=1, r=0.0, x=0.1)
    with pytest.raises(ValueError):
        Branch(from_bus=1, to_bus=2, r=0.0, x=0.0)
    with pytest.raises(ValueError):
        Branch(from_bus=1, to_bus=2, r=0.0, x=0.1, tap=0.0)
    with pytest.raises(ValueError):
        NetworkModel(buses=buses, branches=(Branch(from_bus=1, to_bus=3, r=0.0, x=0.1),))
    with pytest.raises(ValueError):
        NetworkModel(buses=(Bus(id=1), Bus(id=2)), branches=())
    with pytest.raises(ValueError):
        Bus(id=3, kind=BusKind.LOAD, p_load=-5.0)
    with pytest.raises(ValueError):
        Bus(id=3, q_min=1.0, q_max=-1.0)
