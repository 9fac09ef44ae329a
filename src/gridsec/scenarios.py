"""Contingency scenario catalog and generator.

Thirty normal-operation scenarios (breaker openings, transformer tap
moves, load changes, reactive-limit changes, a swing-bus shift and a few
composites) are applied to the 14-bus case and solved to produce training
records for the detector baseline. Two catalog entries reference branches
that do not exist in the standard case data; they are kept verbatim and
flagged instead of solved.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .network import (
    BreakerState,
    BusKind,
    NetworkModel,
    TopologyMatrix,
    build_topology,
)
from .powerflow import PowerFlowSolution, solve
from .records import GridRecord

__all__ = [
    "OpenBreaker",
    "TapScale",
    "LoadScale",
    "QLimitScale",
    "SwingShift",
    "ScenarioSpec",
    "ScenarioOutcome",
    "TABLE5_SCENARIOS",
    "generate_scenario",
    "generate_all",
]


@dataclass(frozen=True)
class OpenBreaker:
    from_bus: int
    to_bus: int


@dataclass(frozen=True)
class TapScale:
    from_bus: int
    to_bus: int
    factor: float


@dataclass(frozen=True)
class LoadScale:
    bus: int
    factor: float


@dataclass(frozen=True)
class QLimitScale:
    bus: int
    factor: float  # scales q_max (and q_min symmetrically when negative)


@dataclass(frozen=True)
class SwingShift:
    new_slack: int


Action = OpenBreaker | TapScale | LoadScale | QLimitScale | SwingShift


@dataclass(frozen=True)
class ScenarioSpec:
    id: str
    description: str
    actions: tuple[Action, ...] = ()


@dataclass
class ScenarioOutcome:
    spec: ScenarioSpec
    model: NetworkModel | None
    topology: TopologyMatrix | None
    solution: PowerFlowSolution | None
    record: GridRecord | None
    error: str | None = None
    note: str = ""

    @property
    def solved(self) -> bool:
        return self.solution is not None and self.solution.converged


def _s(num: int, description: str, *actions: Action) -> ScenarioSpec:
    return ScenarioSpec(id=f"table5-{num:02d}", description=description, actions=tuple(actions))


TABLE5_SCENARIOS: tuple[ScenarioSpec, ...] = (
    _s(1, "All CBs closed (base case - fully connected system)"),
    _s(2, "Open CB between Bus 1 and Bus 2", OpenBreaker(1, 2)),
    _s(3, "Open CB between Bus 2 and Bus 4", OpenBreaker(2, 4)),
    _s(4, "Open CB between Bus 4 and Bus 5", OpenBreaker(4, 5)),
    _s(5, "Open CB between Bus 4 and Bus 7", OpenBreaker(4, 7)),
    _s(6, "Open CB between Bus 5 and Bus 6", OpenBreaker(5, 6)),
    _s(7, "Open CB between Bus 6 and Bus 13", OpenBreaker(6, 13)),
    _s(8, "Transformer tap at Bus 4-Bus 9 increased by +10%", TapScale(4, 9, 1.10)),
    _s(9, "Transformer tap at Bus 4-Bus 9 decreased by -10%", TapScale(4, 9, 0.90)),
    _s(10, "Transformer tap at Bus 7-Bus 9 increased by +5%", TapScale(7, 9, 1.05)),
    _s(11, "Transformer tap at Bus 7-Bus 9 decreased by -5%", TapScale(7, 9, 0.95)),
    _s(12, "Load at Bus 4 increased by 20%", LoadScale(4, 1.20)),
    _s(13, "Load at Bus 4 decreased by 20%", LoadScale(4, 0.80)),
    _s(14, "Load at Bus 9 increased by 10%", LoadScale(9, 1.10)),
    _s(15, "Load at Bus 10 decreased by 15%", LoadScale(10, 0.85)),
    _s(16, "Load at Bus 11 increased by 25%", LoadScale(11, 1.25)),
    _s(17, "Open CB between Bus 9 and Bus 13", OpenBreaker(9, 13)),
    _s(18, "Open CB between Bus 3 and Bus 2", OpenBreaker(3, 2)),
    _s(19, "Reactive power limit at Bus 3 generator decreased", QLimitScale(3, 0.5)),
    _s(20, "Reactive power limit at Bus 8 generator increased", QLimitScale(8, 1.5)),
    _s(21, "Swing bus shifted from Bus 1 to Bus 2", SwingShift(2)),
    _s(22, "Open CB between Bus 6 and Bus 12", OpenBreaker(6, 12)),
    _s(23, "Open CB between Bus 6 and Bus 11", OpenBreaker(6, 11)),
    _s(24, "Open CB between Bus 10 and Bus 7", OpenBreaker(10, 7)),
    _s(25, "Open CB between Bus 9 and Bus 14", OpenBreaker(9, 14)),
    _s(26, "Open CB between Bus 2-Bus 4 and +10% in tap between Bus 4-Bus 9",
       OpenBreaker(2, 4), TapScale(4, 9, 1.10)),
    _s(27, "Open CBs between Bus 4-Bus 7 and Bus 7-Bus 9",
       OpenBreaker(4, 7), OpenBreaker(7, 9)),
    _s(28, "Open CBs between Bus 13-Bus 14 and Bus 1-Bus 5",
       OpenBreaker(13, 14), OpenBreaker(1, 5)),
    _s(29, "Open CBs between Bus 7-Bus 8 and Bus 11-Bus 10",
       OpenBreaker(7, 8), OpenBreaker(11, 10)),
    _s(30, "Open CBs between Bus 3-Bus 4 and Bus 9-Bus 10",
       OpenBreaker(3, 4), OpenBreaker(9, 10)),
)


def _apply_action(model: NetworkModel, action: Action) -> NetworkModel:
    if isinstance(action, OpenBreaker):
        idx = model.branch_index(action.from_bus, action.to_bus)
        br = model.branches[idx]
        return model.with_branch(
            idx,
            replace(br, breaker_from=BreakerState.OPEN, breaker_to=BreakerState.OPEN),
        )
    if isinstance(action, TapScale):
        idx = model.branch_index(action.from_bus, action.to_bus)
        br = model.branches[idx]
        return model.with_branch(idx, replace(br, tap=br.tap * action.factor))
    if isinstance(action, LoadScale):
        bus = model.bus(action.bus)
        return model.with_bus(
            action.bus,
            replace(bus, p_load=bus.p_load * action.factor, q_load=bus.q_load * action.factor),
        )
    if isinstance(action, QLimitScale):
        bus = model.bus(action.bus)
        if bus.kind is not BusKind.GENERATOR:
            raise ValueError(f"bus {action.bus} carries no generator limits")
        return model.with_bus(action.bus, replace(bus, q_max=bus.q_max * action.factor))
    if isinstance(action, SwingShift):
        old_slack_id = model.buses[model.slack_index].id
        if action.new_slack == old_slack_id:
            return model
        new_slack = model.bus(action.new_slack)
        if new_slack.kind is not BusKind.GENERATOR:
            raise ValueError(f"bus {action.new_slack} cannot take the swing role")
        # Pin the old slack's dispatch at its base-case output so the new
        # swing bus absorbs the mismatch; angles re-reference to the new
        # slack. Both role changes happen in one model rebuild.
        base_solution = solve(model)
        old = model.buses[model.slack_index]
        pinned = base_solution.p_inj[model.slack_index] + old.p_load
        buses = []
        for b in model.buses:
            if b.id == old_slack_id:
                buses.append(replace(b, kind=BusKind.GENERATOR, p_gen=pinned))
            elif b.id == action.new_slack:
                buses.append(replace(b, kind=BusKind.SLACK))
            else:
                buses.append(b)
        return replace(model, buses=tuple(buses))
    raise TypeError(f"unknown action {action!r}")


def generate_scenario(model: NetworkModel, spec: ScenarioSpec) -> ScenarioOutcome:
    """Apply a scenario's actions and solve. Non-existent elements and
    non-convergent cases are reported in ``error``, never raised."""
    scenario_model = model
    try:
        for action in spec.actions:
            scenario_model = _apply_action(scenario_model, action)
    except (KeyError, ValueError) as exc:
        return ScenarioOutcome(spec, None, None, None, None, error=str(exc))
    topology = build_topology(scenario_model)
    note = ""
    try:
        solution = solve(scenario_model, topology)
        if not solution.converged:
            # Contingencies can be reactive-infeasible under the case's
            # generator limits (voltage collapse with every unit pegged);
            # release the limits, solve, and say so.
            solution = solve(scenario_model, topology, enforce_q_limits=False)
            if solution.converged:
                note = "reactive limits released to converge"
    except Exception as exc:  # solver failure is a reportable outcome
        return ScenarioOutcome(spec, scenario_model, topology, None, None, error=str(exc))
    if not solution.converged:
        notes = "; ".join(r.note for r in solution.islands if r.note)
        return ScenarioOutcome(
            spec, scenario_model, topology, solution, None,
            error=f"power flow did not converge: {notes or 'max iterations'}",
        )
    record = GridRecord.from_solution(scenario_model, solution, topology, source=spec.id)
    return ScenarioOutcome(spec, scenario_model, topology, solution, record, note=note)


def generate_all(model: NetworkModel) -> list[ScenarioOutcome]:
    return [generate_scenario(model, spec) for spec in TABLE5_SCENARIOS]
