"""AC power flow: Newton-Raphson solution per island, with the branch
flows of the solved state taken from ``measmodel.branch_flows``.

All angles are radians internally; exported records use degrees. Injection
sign convention: positive = into the network (generation minus load).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .measmodel import MeasKind, MeasurementModel, branch_flows, compiled
from .network import BusKind, NetworkModel, TopologyMatrix, build_topology, island_references

__all__ = [
    "Island",
    "IslandReport",
    "BranchFlow",
    "PowerFlowSolution",
    "PowerFlowError",
    "solve",
    "decompose_islands",
]


class PowerFlowError(RuntimeError):
    pass


NR_TOL = 1e-8  # largest p.u. mismatch of a converged island
NR_MAX_ITER = 30  # Newton-Raphson iterations of one island solve


@dataclass(frozen=True)
class Island:
    buses: frozenset[int]
    has_slack: bool


@dataclass
class IslandReport:
    island: Island
    solved: bool
    slack_bus: int | None
    balance_mw: float  # generation - load - losses within the island
    note: str = ""


@dataclass
class BranchFlow:
    from_bus: int
    to_bus: int
    p_from: float  # MW entering the branch at the from end
    q_from: float
    p_to: float
    q_to: float
    in_service: bool

    @property
    def loss_mw(self) -> float:
        return self.p_from + self.p_to


@dataclass
class PowerFlowSolution:
    v: np.ndarray  # p.u. magnitude per bus
    theta: np.ndarray  # radians per bus, slack at 0
    p_inj: np.ndarray  # MW net injection per bus
    q_inj: np.ndarray  # Mvar net injection per bus
    flows: list[BranchFlow]
    losses_mw: float
    converged: bool
    iterations: int
    islands: list[IslandReport] = field(default_factory=list)

    @property
    def theta_deg(self) -> np.ndarray:
        return np.degrees(self.theta)


def decompose_islands(
    model: NetworkModel, topology: TopologyMatrix | None = None
) -> list[Island]:
    """Connected components over in-service branches, ordered by their
    smallest bus id."""
    if topology is None:
        topology = build_topology(model)
    return [
        Island(buses=comp, has_slack=model.bus(ref).kind is BusKind.SLACK)
        for comp, ref in island_references(model, topology)
    ]


def bus_power(ybus: np.ndarray, v: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Net complex injection split into (P, Q) in p.u. for the full network."""
    vc = v * np.exp(1j * theta)
    s = vc * np.conj(ybus @ vc)
    return s.real, s.imag


def _nr_island(
    mm: MeasurementModel,
    idx: list[int],
    slack: int,
    pv: list[int],
    p_sched: np.ndarray,
    q_sched: np.ndarray,
    v: np.ndarray,
    theta: np.ndarray,
) -> tuple[bool, int]:
    """Newton-Raphson on one island, updating v/theta in place.

    mm: the Pinj rows, then the Qinj rows, of every bus. idx: 0-based bus
    indices of the island; slack/pv are 0-based indices. Scheduled powers
    are p.u. net injections.
    """
    n = mm.n_bus
    pq = [i for i in idx if i != slack and i not in pv]
    ang_vars = [i for i in idx if i != slack]
    n_ang = len(ang_vars)
    # Each angle bus has a theta column: the island's slack is the model's
    # angle reference there (``network.island_references``).
    rows = np.array(ang_vars + [n + i for i in pq], dtype=np.intp)
    ang = mm.angle_buses
    cols = np.concatenate([np.searchsorted(ang, ang_vars), ang.size + np.array(pq, dtype=np.intp)])
    sched = np.concatenate([p_sched, q_sched])[rows]

    for it in range(1, NR_MAX_ITER + 1):
        h, jac = mm.evaluate(v[None], theta[None])
        mismatch = sched - h[0, rows]
        if mismatch.size == 0 or np.max(np.abs(mismatch)) < NR_TOL:
            return True, it - 1
        jac = jac[0][np.ix_(rows, cols)]
        try:
            dx = np.linalg.solve(jac, mismatch)
        except np.linalg.LinAlgError as exc:
            raise PowerFlowError(f"singular power-flow Jacobian: {exc}") from exc
        # Step cap keeps stressed cases (clamped Q limits, weak ties) from
        # overshooting; full Newton steps are far below the cap otherwise.
        biggest = np.max(np.abs(dx))
        if biggest > 0.25:
            dx = dx * (0.25 / biggest)
        theta[ang_vars] += dx[:n_ang]
        v[pq] += dx[n_ang:]
    return False, NR_MAX_ITER


def solve(
    model: NetworkModel,
    topology: TopologyMatrix | None = None,
    enforce_q_limits: bool = True,
) -> PowerFlowSolution:
    """Newton-Raphson AC power flow per island.

    Islands without a slack bus are solved with their largest generator
    promoted to island slack (``network.island_references``); islands
    with neither are flagged unsolved.
    """
    if topology is None:
        topology = build_topology(model)
    n = model.n_bus
    # Entries need only a kind and a bus; a plain power flow loads no ``estimation``.
    injections = [SimpleNamespace(kind=k, bus=b) for k in (MeasKind.PINJ, MeasKind.QINJ) for b in range(1, n + 1)]
    mm = compiled(model, topology, injections)
    ybus = mm.ybus
    base = model.base_mva

    v = np.array(
        [1.0 if b.kind is BusKind.LOAD else b.v_setpoint for b in model.buses], dtype=float
    )
    theta = np.zeros(n)

    p_sched = np.array([(b.p_gen - b.p_load) / base for b in model.buses])
    q_sched = np.array([-b.q_load / base for b in model.buses])

    reports: list[IslandReport] = []
    converged_all = True
    total_iter = 0
    # Dead buses keep finite start values while the other islands solve,
    # since NaN would leak through the 0 x NaN terms of every Ybus @ V.
    dead: list[int] = []

    # Each island's angle reference is its slack: a load bus there means
    # the island has no slack and no generator.
    for buses, slack_bus in mm.islands:
        isl = Island(buses, has_slack=model.bus(slack_bus).kind is BusKind.SLACK)
        members = sorted(buses)
        idx = [b - 1 for b in members]
        if model.bus(slack_bus).kind is BusKind.LOAD:
            converged_all = False
            dead.extend(idx)
            reports.append(
                IslandReport(isl, solved=False, slack_bus=None, balance_mw=math.nan,
                             note="island has no slack and no generator")
            )
            continue

        slack_i = slack_bus - 1
        theta[slack_i] = 0.0
        pv = [
            b - 1
            for b in members
            if model.bus(b).kind is BusKind.GENERATOR and b != slack_bus
        ]
        pq_limited: dict[int, float] = {}
        ok = False
        it = 0
        for _round in range(6):
            eff_q = q_sched.copy()
            eff_pv = [i for i in pv if i not in pq_limited]
            for i, qg in pq_limited.items():
                eff_q[i] = (qg - model.buses[i].q_load) / base
            ok, it = _nr_island(mm, idx, slack_i, eff_pv, p_sched, eff_q, v, theta)
            total_iter += it
            if not ok or not enforce_q_limits:
                break
            p_all, q_all = bus_power(ybus, v, theta)
            moved = False
            for i in eff_pv:
                bus = model.buses[i]
                qg = q_all[i] * base + bus.q_load
                if qg > bus.q_max + 1e-9:
                    pq_limited[i] = bus.q_max
                    moved = True
                elif qg < bus.q_min - 1e-9:
                    pq_limited[i] = bus.q_min
                    moved = True
            if not moved:
                break
        if not ok:
            converged_all = False
        reports.append(
            IslandReport(isl, solved=ok, slack_bus=slack_bus, balance_mw=math.nan,
                         note="" if ok else "did not converge")
        )

    p_pu, q_pu = bus_power(ybus, v, theta)
    v[dead] = math.nan
    theta[dead] = math.nan
    solved_mask = ~np.isnan(v)
    p_inj = np.where(solved_mask, p_pu * base, math.nan)
    q_inj = np.where(solved_mask, q_pu * base, math.nan)
    flows = [
        BranchFlow(br.from_bus, br.to_bus, *values, live)
        for br, live, *values in zip(
            model.branches,
            topology.in_service,
            *(x * base for x in branch_flows(model, topology, v, theta)),
        )
    ]
    losses = sum(f.loss_mw for f in flows if f.in_service and not math.isnan(f.p_from))
    # Conservation audit per island: injection sum (one path) minus branch
    # losses (independent path) should vanish in every solved island.
    for rep in reports:
        if not rep.solved:
            continue
        inj = sum(p_inj[b - 1] for b in rep.island.buses)
        loss = sum(
            f.loss_mw
            for f in flows
            if f.in_service and f.from_bus in rep.island.buses
        )
        rep.balance_mw = inj - loss
    return PowerFlowSolution(
        v=v,
        theta=theta,
        p_inj=p_inj,
        q_inj=q_inj,
        flows=flows,
        losses_mw=losses,
        converged=converged_all,
        iterations=total_iter,
        islands=reports,
    )
