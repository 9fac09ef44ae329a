"""Network topology, parameters, breaker states and admittance construction.

Buses and branches are plain immutable dataclasses; every mutation helper
returns a new value. Quantities are per-unit on ``base_mva`` except loads
and generation, which are carried in MW/Mvar.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Iterable, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = [
    "BusKind",
    "BreakerState",
    "Bus",
    "Branch",
    "NetworkModel",
    "TopologyMatrix",
    "build_ieee14",
    "build_topology",
    "apply_topology_corruption",
    "connected_components",
    "island_references",
    "admittance",
    "model_to_json",
    "model_from_json",
]


class BusKind(str, Enum):
    SLACK = "Slack"
    GENERATOR = "Generator"
    LOAD = "Load"


class BreakerState(str, Enum):
    CLOSED = "Closed"
    OPEN = "Open"


@dataclass(frozen=True)
class Bus:
    """One network bus. ``p_load``/``q_load`` are consumption in MW/Mvar,
    ``p_gen`` the scheduled active generation (slack output is free)."""

    id: int
    kind: BusKind = BusKind.LOAD
    v_setpoint: float = 1.0
    p_load: float = 0.0
    q_load: float = 0.0
    p_gen: float = 0.0
    q_min: float = -math.inf
    q_max: float = math.inf
    b_shunt: float = 0.0  # fixed shunt susceptance, p.u.

    def __post_init__(self) -> None:
        if self.id < 1:
            raise ValueError(f"bus ids are 1-based, got {self.id}")
        # q_load may be negative (capacitive load, e.g. bus 4 of the 14-bus case)
        if self.kind is BusKind.LOAD and self.p_load < 0:
            raise ValueError(f"bus {self.id}: active load must be non-negative")
        if self.q_min > self.q_max:
            raise ValueError(f"bus {self.id}: q_min > q_max")


@dataclass(frozen=True)
class Branch:
    """Series branch with optional charging susceptance, off-nominal tap on
    the from side, and one breaker per terminal."""

    from_bus: int
    to_bus: int
    r: float
    x: float
    b_shunt: float = 0.0
    tap: float = 1.0
    breaker_from: BreakerState = BreakerState.CLOSED
    breaker_to: BreakerState = BreakerState.CLOSED

    def __post_init__(self) -> None:
        if self.from_bus == self.to_bus:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: self-loop")
        if self.x == 0.0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: x must be nonzero")
        if self.tap <= 0.0:
            raise ValueError(f"branch {self.from_bus}-{self.to_bus}: tap must be > 0")

    @property
    def closed(self) -> bool:
        """A branch is in service only if both terminal breakers are closed."""
        return (
            self.breaker_from is BreakerState.CLOSED
            and self.breaker_to is BreakerState.CLOSED
        )

    @property
    def pair(self) -> tuple[int, int]:
        return (self.from_bus, self.to_bus)


@dataclass(frozen=True)
class NetworkModel:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    base_mva: float = 100.0

    def __post_init__(self) -> None:
        ids = [b.id for b in self.buses]
        if ids != list(range(1, len(ids) + 1)):
            raise ValueError("bus ids must be contiguous and 1-based")
        slacks = [b.id for b in self.buses if b.kind is BusKind.SLACK]
        if len(slacks) != 1:
            raise ValueError(f"expected exactly one slack bus, got {slacks}")
        known = set(ids)
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise ValueError(f"branch {br.pair} references unknown bus")

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def slack_index(self) -> int:
        """0-based index of the slack bus."""
        for i, b in enumerate(self.buses):
            if b.kind is BusKind.SLACK:
                return i
        raise AssertionError("validated model lost its slack")

    def bus(self, bus_id: int) -> Bus:
        return self.buses[bus_id - 1]

    def branch_index(self, from_bus: int, to_bus: int) -> int:
        """Index of the branch between two buses, either orientation."""
        for i, br in enumerate(self.branches):
            if br.pair in ((from_bus, to_bus), (to_bus, from_bus)):
                return i
        raise KeyError(f"no branch between buses {from_bus} and {to_bus}")

    def with_branch(self, index: int, branch: Branch) -> "NetworkModel":
        items = list(self.branches)
        items[index] = branch
        return replace(self, branches=tuple(items))

    def with_bus(self, bus_id: int, bus: Bus) -> "NetworkModel":
        items = list(self.buses)
        items[bus_id - 1] = bus
        return replace(self, buses=tuple(items))


@dataclass(frozen=True)
class TopologyMatrix:
    """In-service record per branch; ``t`` renders the symmetric bus-pair
    0/1 matrix (1 iff the corresponding branch is in service)."""

    n_bus: int
    pairs: tuple[tuple[int, int], ...]
    in_service: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.pairs) != len(self.in_service):
            raise ValueError("pairs and in_service length mismatch")

    @property
    def t(self) -> np.ndarray:
        m = np.zeros((self.n_bus, self.n_bus), dtype=np.uint8)
        for (f, to), live in zip(self.pairs, self.in_service):
            if live:
                m[f - 1, to - 1] = 1
                m[to - 1, f - 1] = 1
        return m

    def status(self, from_bus: int, to_bus: int) -> bool:
        for pair, live in zip(self.pairs, self.in_service):
            if pair in ((from_bus, to_bus), (to_bus, from_bus)):
                return live
        raise KeyError(f"no branch between buses {from_bus} and {to_bus}")


# What callers derive from a model object, per object, least recent first:
# the object and its facts by the function that builds each. A frozen
# NetworkModel hashes its buses and branches field by field in Python, so
# the memo goes by object; holding the object keeps its id from being
# reused while it is listed.
DERIVED_MAX = 64
_derived: dict[int, tuple[NetworkModel, dict]] = {}
_derived_lock = threading.Lock()


def derived(model: NetworkModel, build: Callable[[NetworkModel], T]) -> T:
    """``build(model)``, worked out once per model object for the
    ``DERIVED_MAX`` most recently used objects. ``build`` must read only
    the model, whose fields are frozen, and return a value no caller
    changes."""
    with _derived_lock:
        entry = _derived.pop(id(model), None) or (model, {})
        _derived[id(model)] = entry
        if len(_derived) > DERIVED_MAX:
            del _derived[next(iter(_derived))]
    facts = entry[1]
    if build not in facts:
        facts[build] = build(model)
    return facts[build]


def build_topology(model: NetworkModel) -> TopologyMatrix:
    """Topology implied by the model's breaker pairs."""
    return TopologyMatrix(
        n_bus=model.n_bus,
        pairs=tuple(br.pair for br in model.branches),
        in_service=tuple(br.closed for br in model.branches),
    )


def _normalize_flips(
    topology: TopologyMatrix, flips: Iterable[int | tuple[int, int]]
) -> list[int]:
    out = []
    for f in flips:
        if isinstance(f, tuple):
            hits = [
                i
                for i, p in enumerate(topology.pairs)
                if p in (f, (f[1], f[0]))
            ]
            if not hits:
                raise KeyError(f"no branch between buses {f[0]} and {f[1]}")
            out.extend(hits)
        else:
            if not 0 <= f < len(topology.pairs):
                raise KeyError(f"branch index {f} out of range")
            out.append(f)
    return out


def apply_topology_corruption(
    topology: TopologyMatrix, flips: Iterable[int | tuple[int, int]]
) -> TopologyMatrix:
    """XOR the in-service status of the listed branches (indices or bus
    pairs). Applying the same flip set twice restores the original."""
    status = list(topology.in_service)
    for i in _normalize_flips(topology, flips):
        status[i] = not status[i]
    return replace(topology, in_service=tuple(status))


def connected_components(
    buses: Iterable[int], edges: Iterable[tuple[int, int]]
) -> list[frozenset[int]]:
    """Connected components of the graph on ``buses`` joined by ``edges``
    (bus-id pairs), ordered by their smallest bus id."""
    adj: dict[int, list[int]] = {b: [] for b in buses}
    for f, t in edges:
        adj[f].append(t)
        adj[t].append(f)
    seen: set[int] = set()
    out: list[frozenset[int]] = []
    for bus in sorted(adj):
        if bus in seen:
            continue
        comp = {bus}
        stack = [bus]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in comp:
                    comp.add(nb)
                    stack.append(nb)
        seen |= comp
        out.append(frozenset(comp))
    return out


def island_references(
    model: NetworkModel, topology: TopologyMatrix
) -> list[tuple[frozenset[int], int]]:
    """Every island of ``topology`` (``connected_components`` over its
    in-service branches) with the bus whose angle is held at 0 in it: the
    slack in the slack's island, otherwise the generator with the largest
    ``p_gen`` (lowest id on ties), which ``powerflow.solve`` solves as the
    island's slack, otherwise the island's lowest bus."""
    # The reference is the island's bus of lowest rank.
    rank = {
        b.id: (b.kind is not BusKind.SLACK, b.kind is not BusKind.GENERATOR,
               -b.p_gen if b.kind is BusKind.GENERATOR else 0.0, b.id)
        for b in model.buses
    }
    live = [br.pair for br, on in zip(model.branches, topology.in_service) if on]
    return [(comp, min(comp, key=rank.__getitem__)) for comp in connected_components(rank, live)]


def branch_admittances(branch: Branch) -> tuple[complex, complex, complex, complex]:
    """Two-port (yff, yft, ytf, ytt) including tap and charging."""
    ys = 1.0 / complex(branch.r, branch.x)
    bc = 0.5j * branch.b_shunt
    t = branch.tap
    yff = (ys + bc) / (t * t)
    yft = -ys / t
    ytf = -ys / t
    ytt = ys + bc
    return yff, yft, ytf, ytt


def admittance(model: NetworkModel, topology: TopologyMatrix | None = None) -> np.ndarray:
    """Complex bus-admittance matrix. Branches out of service in
    ``topology`` contribute nothing, so a bus with no live branch keeps a
    shunt-only row; ``powerflow.solve`` reports it as an island of its own."""
    if topology is None:
        topology = build_topology(model)
    n = model.n_bus
    y = np.zeros((n, n), dtype=complex)
    for br, live in zip(model.branches, topology.in_service):
        if not live:
            continue
        i, j = br.from_bus - 1, br.to_bus - 1
        yff, yft, ytf, ytt = branch_admittances(br)
        y[i, i] += yff
        y[i, j] += yft
        y[j, i] += ytf
        y[j, j] += ytt
    for k, bus in enumerate(model.buses):
        y[k, k] += 1j * bus.b_shunt
    return y


# Canonical IEEE 14-bus data (per-unit on 100 MVA): bus loads/limits and
# branch impedances from the standard published case. Generators sit at
# buses 1 (slack), 2, 3, 6 and 8; bus 9 carries a fixed shunt capacitor.
_IEEE14_BUSES = [
    # (id, kind, v_set, p_load, q_load, p_gen, q_min, q_max, b_shunt)
    (1, BusKind.SLACK, 1.060, 0.0, 0.0, 0.0, -math.inf, math.inf, 0.0),
    (2, BusKind.GENERATOR, 1.045, 21.7, 12.7, 40.0, -40.0, 50.0, 0.0),
    (3, BusKind.GENERATOR, 1.010, 94.2, 19.0, 0.0, 0.0, 40.0, 0.0),
    (4, BusKind.LOAD, 1.0, 47.8, -3.9, 0.0, 0.0, 0.0, 0.0),
    (5, BusKind.LOAD, 1.0, 7.6, 1.6, 0.0, 0.0, 0.0, 0.0),
    (6, BusKind.GENERATOR, 1.070, 11.2, 7.5, 0.0, -6.0, 24.0, 0.0),
    (7, BusKind.LOAD, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    (8, BusKind.GENERATOR, 1.090, 0.0, 0.0, 0.0, -6.0, 24.0, 0.0),
    (9, BusKind.LOAD, 1.0, 29.5, 16.6, 0.0, 0.0, 0.0, 0.19),
    (10, BusKind.LOAD, 1.0, 9.0, 5.8, 0.0, 0.0, 0.0, 0.0),
    (11, BusKind.LOAD, 1.0, 3.5, 1.8, 0.0, 0.0, 0.0, 0.0),
    (12, BusKind.LOAD, 1.0, 6.1, 1.6, 0.0, 0.0, 0.0, 0.0),
    (13, BusKind.LOAD, 1.0, 13.5, 5.8, 0.0, 0.0, 0.0, 0.0),
    (14, BusKind.LOAD, 1.0, 14.9, 5.0, 0.0, 0.0, 0.0, 0.0),
]

_IEEE14_BRANCHES = [
    # (from, to, r, x, b, tap)
    (1, 2, 0.01938, 0.05917, 0.0528, 1.0),
    (1, 5, 0.05403, 0.22304, 0.0492, 1.0),
    (2, 3, 0.04699, 0.19797, 0.0438, 1.0),
    (2, 4, 0.05811, 0.17632, 0.0340, 1.0),
    (2, 5, 0.05695, 0.17388, 0.0346, 1.0),
    (3, 4, 0.06701, 0.17103, 0.0128, 1.0),
    (4, 5, 0.01335, 0.04211, 0.0, 1.0),
    (4, 7, 0.0, 0.20912, 0.0, 0.978),
    (4, 9, 0.0, 0.55618, 0.0, 0.969),
    (5, 6, 0.0, 0.25202, 0.0, 0.932),
    (6, 11, 0.09498, 0.19890, 0.0, 1.0),
    (6, 12, 0.12291, 0.25581, 0.0, 1.0),
    (6, 13, 0.06615, 0.13027, 0.0, 1.0),
    (7, 8, 0.0, 0.17615, 0.0, 1.0),
    (7, 9, 0.0, 0.11001, 0.0, 1.0),
    (9, 10, 0.03181, 0.08450, 0.0, 1.0),
    (9, 14, 0.12711, 0.27038, 0.0, 1.0),
    (10, 11, 0.08205, 0.19207, 0.0, 1.0),
    (12, 13, 0.22092, 0.19988, 0.0, 1.0),
    (13, 14, 0.17093, 0.34802, 0.0, 1.0),
]


def build_ieee14() -> NetworkModel:
    """The standard IEEE 14-bus case with every breaker closed."""
    buses = tuple(
        Bus(
            id=i,
            kind=kind,
            v_setpoint=v,
            p_load=pl,
            q_load=ql,
            p_gen=pg,
            q_min=qmin,
            q_max=qmax,
            b_shunt=bs,
        )
        for i, kind, v, pl, ql, pg, qmin, qmax, bs in _IEEE14_BUSES
    )
    branches = tuple(
        Branch(from_bus=f, to_bus=t, r=r, x=x, b_shunt=b, tap=tap)
        for f, t, r, x, b, tap in _IEEE14_BRANCHES
    )
    return NetworkModel(buses=buses, branches=branches)


def model_to_json(model: NetworkModel) -> str:
    """Serialize a model to the documented JSON case schema."""
    doc = {
        "base_mva": model.base_mva,
        "buses": [
            {
                "id": b.id,
                "kind": b.kind.value,
                "v_setpoint": b.v_setpoint,
                "p_load": b.p_load,
                "q_load": b.q_load,
                "p_gen": b.p_gen,
                "q_min": None if b.q_min == -math.inf else b.q_min,
                "q_max": None if b.q_max == math.inf else b.q_max,
                "b_shunt": b.b_shunt,
            }
            for b in model.buses
        ],
        "branches": [
            {
                "from": br.from_bus,
                "to": br.to_bus,
                "r": br.r,
                "x": br.x,
                "b_shunt": br.b_shunt,
                "tap": br.tap,
                "breaker_from": br.breaker_from.value,
                "breaker_to": br.breaker_to.value,
            }
            for br in model.branches
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def model_from_json(text: str) -> NetworkModel:
    """Parse the JSON case schema. Raises ValueError unless the document
    is an object whose ``buses`` and ``branches`` are lists of objects;
    unless each bus ``id`` and branch ``from`` and ``to`` is an integer
    (an integral number, or a string of one; not a bool), and each
    ``kind`` and breaker state a known one, naming the row (``bus row 4``,
    1-based) and the field; and unless every number in them is finite,
    naming the bus or branch and the field: ``q_min`` may be -inf and
    ``q_max`` +inf, which leave the limit open as null does, and
    ``v_setpoint`` and ``base_mva`` must be above 0."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object with buses and branches lists")
    for key in ("buses", "branches"):
        rows = doc.get(key)
        if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
            raise ValueError(f"{key}: expected a list of objects")
    buses = []
    for row, b in enumerate(doc["buses"], 1):
        bus_id = _case_id(b, "id", f"bus row {row}: ")
        where = f"bus {bus_id}: "
        buses.append(Bus(
            id=bus_id,
            kind=_case_enum(b, "kind", f"bus row {row}: ", BusKind),
            v_setpoint=_case_number(b, "v_setpoint", where, 1.0, positive=True),
            p_load=_case_number(b, "p_load", where),
            q_load=_case_number(b, "q_load", where),
            p_gen=_case_number(b, "p_gen", where),
            q_min=_case_number(b, "q_min", where, None, open_at=-math.inf),
            q_max=_case_number(b, "q_max", where, None, open_at=math.inf),
            b_shunt=_case_number(b, "b_shunt", where),
        ))
    branches = []
    for row, br in enumerate(doc["branches"], 1):
        f, t = (_case_id(br, key, f"branch row {row}: ") for key in ("from", "to"))
        where = f"branch {f}-{t}: "
        branches.append(Branch(
            from_bus=f,
            to_bus=t,
            r=_case_number(br, "r", where, None),
            x=_case_number(br, "x", where, None),
            b_shunt=_case_number(br, "b_shunt", where),
            tap=_case_number(br, "tap", where, 1.0),
            breaker_from=_case_enum(br, "breaker_from", where, BreakerState, "Closed"),
            breaker_to=_case_enum(br, "breaker_to", where, BreakerState, "Closed"),
        ))
    base_mva = _case_number(doc, "base_mva", "", 100.0, positive=True)
    return NetworkModel(buses=tuple(buses), branches=tuple(branches), base_mva=base_mva)


def _case_number(row: dict, key: str, where: str, default: float | None = 0.0, positive: bool = False,
                 open_at: float | None = None) -> float:
    """``row[key]`` as a float, ``default`` when the key is absent (None:
    the key is required, or stands for ``open_at``). A value that is not a
    finite number, or not above 0 when ``positive``, raises ValueError
    naming ``where`` and the key, except ``open_at``: an infinity that
    leaves a limit open, as null does."""
    raw = row.get(key, default)
    if raw is None:
        if open_at is None:
            raise ValueError(f"{where}{key}: expected a finite number, got none")
        return open_at
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if value == open_at or (math.isfinite(value) and (value > 0.0 or not positive)):
        return value
    raise ValueError(f"{where}{key} {raw!r}: expected a finite number{' above 0' if positive else ''}")


def _case_id(row: dict, key: str, where: str) -> int:
    """``row[key]`` as a bus id: an int, a float with an integral value,
    or a string of an int. Anything else, a bool, a fraction or a missing
    key, raises ValueError naming ``where`` and the key."""
    if key not in row:
        raise ValueError(f"{where}{key}: missing")
    raw = row[key]
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, str):
        try:
            return int(raw)
        except ValueError:
            pass
    raise ValueError(f"{where}{key} {raw!r}: expected an integer bus id")


def _case_enum(row: dict, key: str, where: str, kind: type[Enum], default: str | None = None) -> Enum:
    """``row[key]`` as a member of ``kind``, ``default`` when the key is
    absent (None: the key is required). A missing required key or an
    unknown value raises ValueError naming ``where`` and the key."""
    if key not in row and default is None:
        raise ValueError(f"{where}{key}: missing")
    raw = row.get(key, default)
    try:
        return kind(raw)
    except ValueError:
        names = ", ".join(member.value for member in kind)
        raise ValueError(f"{where}{key} {raw!r}: expected one of {names}") from None
