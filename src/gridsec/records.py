"""Bus/branch record tables: the workbench stand-in for the EMS database.

A record carries one per-bus table (v p.u., angle deg, P MW, Q Mvar) and
optionally one per-branch table (breaker statuses, MW/Mvar at the from
end, MW loss). Bus power uses the load convention: consumption positive,
generation negative.

CSV layout (single file, two sections):

    #gridrecord,source=...,key=value,...
    bus,v_pu,theta_deg,p_mw,q_mvar
    ...
    from,to,status_from,status_to,p_mw,q_mvar,loss_mw
    ...
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .network import BreakerState, NetworkModel, TopologyMatrix, build_topology, connected_components

__all__ = ["BusRow", "BranchRow", "GridRecord", "BusSnapshot"]

_FMT = "%.12g"

BUS_HEADER = ["bus", "v_pu", "theta_deg", "p_mw", "q_mvar"]
BRANCH_HEADER = ["from", "to", "status_from", "status_to", "p_mw", "q_mvar", "loss_mw"]


@dataclass(frozen=True)
class BusRow:
    bus: int
    v_pu: float
    theta_deg: float
    p_mw: float  # consumption positive, generation negative
    q_mvar: float


@dataclass(frozen=True)
class BranchRow:
    from_bus: int
    to_bus: int
    status_from: BreakerState
    status_to: BreakerState
    p_mw: float  # from-end flow
    q_mvar: float
    loss_mw: float

    @property
    def in_service(self) -> bool:
        return (
            self.status_from is BreakerState.CLOSED
            and self.status_to is BreakerState.CLOSED
        )


@dataclass
class GridRecord:
    buses: list[BusRow]
    branches: list[BranchRow] = field(default_factory=list)
    source: str = ""
    extras: dict[str, str | float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = [r.bus for r in self.buses]
        if len(set(ids)) != len(ids):
            bus = next(b for b in ids if ids.count(b) > 1)
            raise ValueError(f"duplicate bus row for bus {bus}")

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def bus_row(self, bus: int) -> BusRow:
        for r in self.buses:
            if r.bus == bus:
                return r
        raise KeyError(f"no bus {bus} in record")

    def branch_row(self, from_bus: int, to_bus: int) -> BranchRow:
        for r in self.branches:
            if (r.from_bus, r.to_bus) in ((from_bus, to_bus), (to_bus, from_bus)):
                return r
        raise KeyError(f"no branch {from_bus}-{to_bus} in record")

    def islands(self) -> list[frozenset[int]]:
        """The bus table joined by the in-service branch rows, ordered by
        smallest bus id. A record with no branch table carries no breaker
        states, so all its buses are one island. A branch row naming a bus
        the bus table lacks raises ValueError."""
        ids = [r.bus for r in self.buses]
        if not self.branches:
            return [frozenset(ids)]
        self.check_branches()
        live = ((br.from_bus, br.to_bus) for br in self.branches if br.in_service)
        return connected_components(ids, live)

    def check_branches(self) -> None:
        """Raise ValueError naming the first branch row that names a bus
        the bus table lacks."""
        known = {r.bus for r in self.buses}
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise ValueError(f"record {self.source!r}: branch {br.from_bus}-{br.to_bus} "
                                 f"names a bus that is not in its bus table")

    def extra(self, key: str) -> str | float | None:
        """The header extra ``key``, or None when the record has none. One
        the detector cannot read (see ``_check_extra``) raises ValueError
        naming the record and the key."""
        value = self.extras.get(key)
        if key in self.extras:
            _check_extra(key, value, f"record {self.source!r}: {key}={value}")
        return value

    # -- totals (load convention) ------------------------------------
    @property
    def total_generation_mw(self) -> float:
        return sum(-r.p_mw for r in self.buses if r.p_mw < 0)

    @property
    def total_load_mw(self) -> float:
        return sum(r.p_mw for r in self.buses if r.p_mw > 0)

    @property
    def total_loss_mw(self) -> float | None:
        if not self.branches:
            return None
        return sum(r.loss_mw for r in self.branches)

    # -- array views --------------------------------------------------
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        rows = sorted(self.buses, key=lambda r: r.bus)
        v = np.array([r.v_pu for r in rows])
        th = np.array([r.theta_deg for r in rows])
        p = np.array([r.p_mw for r in rows])
        q = np.array([r.q_mvar for r in rows])
        return v, th, p, q

    def snapshot(self, base_mva: float = 100.0) -> "BusSnapshot":
        v, _, p, q = self.arrays()
        return BusSnapshot(v=v, p=p / base_mva, q=q / base_mva)

    # -- serialization -------------------------------------------------
    def to_csv(self) -> str:
        buf = io.StringIO()
        meta = [f"source={self.source}"] + [
            f"{k}={_fmt_extra(v)}" for k, v in sorted(self.extras.items())
        ]
        buf.write("#gridrecord," + ",".join(meta) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(BUS_HEADER)
        for r in sorted(self.buses, key=lambda r: r.bus):
            writer.writerow(
                [r.bus, _FMT % r.v_pu, _FMT % r.theta_deg, _FMT % r.p_mw, _FMT % r.q_mvar]
            )
        if self.branches:
            writer.writerow(BRANCH_HEADER)
            for r in self.branches:
                writer.writerow(
                    [
                        r.from_bus,
                        r.to_bus,
                        r.status_from.value,
                        r.status_to.value,
                        _FMT % r.p_mw,
                        _FMT % r.q_mvar,
                        _FMT % r.loss_mw,
                    ]
                )
        return buf.getvalue()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_csv())

    @classmethod
    def from_csv(cls, text: str) -> "GridRecord":
        """Parse the CSV ``to_csv`` writes. A malformed bus or branch row
        raises ValueError naming its line: a wrong column count, a value
        that is not a number, or a breaker state other than Closed/Open. So
        does a header extra the detector cannot read (see ``_check_extra``)."""
        lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if not lines:
            raise ValueError("empty record file")
        source = ""
        extras: dict[str, str | float] = {}
        if lines[0][1].startswith("#gridrecord"):
            line, header = lines.pop(0)
            for part in header.split(",")[1:]:
                key, _, val = part.partition("=")
                if key == "source":
                    source = val
                    continue
                extras[key] = value = _parse_extra(val)
                _check_extra(key, value, f"record CSV line {line}: {part}")
        rows = list(csv.reader(ln for _, ln in lines))
        if not rows or rows[0] != BUS_HEADER:
            raise ValueError(f"expected bus header {BUS_HEADER}")
        buses: list[BusRow] = []
        branches: list[BranchRow] = []
        header = BUS_HEADER
        for (line, _), row in zip(lines[1:], rows[1:]):
            if row == BRANCH_HEADER:
                header = BRANCH_HEADER
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} columns, got {len(row)}")
                if header is BUS_HEADER:
                    buses.append(BusRow(int(row[0]), *map(float, row[1:])))
                else:
                    states = map(BreakerState, row[2:4])
                    branches.append(BranchRow(int(row[0]), int(row[1]), *states, *map(float, row[4:])))
            except ValueError as exc:
                raise ValueError(f"record CSV line {line}: {exc}") from None
        return cls(buses=buses, branches=branches, source=source, extras=extras)

    @classmethod
    def load(cls, path: str | Path) -> "GridRecord":
        return cls.from_csv(Path(path).read_text())

    @classmethod
    def from_solution(
        cls,
        model: NetworkModel,
        solution,
        topology: TopologyMatrix | None = None,
        source: str = "powerflow",
    ) -> "GridRecord":
        """Record a solved power flow. Injections are flipped into the load
        convention; branch statuses mirror the topology."""
        if topology is None:
            topology = build_topology(model)
        buses = [
            BusRow(
                bus=b.id,
                v_pu=float(solution.v[i]),
                theta_deg=float(np.degrees(solution.theta[i])),
                p_mw=-float(solution.p_inj[i]),
                q_mvar=-float(solution.q_inj[i]),
            )
            for i, b in enumerate(model.buses)
        ]
        branches = []
        for flow, live in zip(solution.flows, topology.in_service):
            status = BreakerState.CLOSED if live else BreakerState.OPEN
            loss = flow.loss_mw if live and not math.isnan(flow.p_from) else 0.0
            branches.append(
                BranchRow(
                    from_bus=flow.from_bus,
                    to_bus=flow.to_bus,
                    status_from=status,
                    status_to=status,
                    p_mw=0.0 if not live else flow.p_from,
                    q_mvar=0.0 if not live else flow.q_from,
                    loss_mw=loss,
                )
            )
        return cls(buses=buses, branches=branches, source=source)


@dataclass
class BusSnapshot:
    """Bus-level V/P/Q arrays in per-unit, the detector's input unit."""

    v: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.v) == len(self.p) == len(self.q)):
            raise ValueError("snapshot arrays must have equal length")


def _fmt_extra(v: str | float) -> str:
    if isinstance(v, str):
        return v
    return _FMT % v


def _check_extra(key: str, value: str | float, where: str) -> None:
    """Raise ValueError at ``where`` unless ``value`` is one the detector
    reads as the header extra ``key``: a ``bdd_chi2`` must be a finite
    number >= 0 and a ``stage`` measurement or post-se."""
    if key == "bdd_chi2" and not (isinstance(value, (int, float)) and 0.0 <= value < math.inf):
        raise ValueError(f"{where}: expected a finite number >= 0")
    if key == "stage" and value not in ("measurement", "post-se"):
        raise ValueError(f"{where}: expected measurement or post-se")


def _parse_extra(v: str) -> str | float:
    try:
        return float(v)
    except ValueError:
        return v
