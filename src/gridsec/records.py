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
from math import isfinite
from operator import attrgetter
from pathlib import Path
from typing import Collection, NamedTuple

import numpy as np

from .network import BreakerState, NetworkModel, TopologyMatrix, build_topology, connected_components

__all__ = ["BusRow", "BranchRow", "BranchTable", "GridRecord", "BusSnapshot", "RecordSnapshot"]

_FMT = "%.12g"

BUS_HEADER = ["bus", "v_pu", "theta_deg", "p_mw", "q_mvar"]
BRANCH_HEADER = ["from", "to", "status_from", "status_to", "p_mw", "q_mvar", "loss_mw"]

_BUS = attrgetter("bus")
_values = attrgetter("v_pu", "theta_deg", "p_mw", "q_mvar")
CLOSED = BreakerState.CLOSED


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

    def islands(self, table: BranchTable | None = None) -> list[frozenset[int]]:
        """The bus table joined by the in-service branch rows of ``table``
        (``branch_table()``, read here when None, which raises ValueError
        for a row naming a bus the bus table lacks), ordered by smallest
        bus id. A record with no branch table carries no breaker states, so
        all its buses are one island."""
        ids = [r.bus for r in self.buses]
        if not self.branches:
            return [frozenset(ids)]
        if table is None:
            table = self.branch_table()
        return connected_components(ids, ((br.from_bus, br.to_bus) for br in table.live))

    def branch_table(self, known: Collection[int] | None = None) -> BranchTable:
        """What the detector reads of the branch rows, from one pass over
        them in record order. A row naming a bus outside ``known`` (the
        bus table's ids when None) raises ValueError naming the first."""
        if known is None:
            known = {r.bus for r in self.buses}
        live, open_, losses = [], [], []
        # The sum of every value read: not finite once one of them is not.
        # A sum that overflows sends the rows to the check value by value.
        screen = 0.0
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise ValueError(f"record {self.source!r}: branch {br.from_bus}-{br.to_bus} "
                                 f"names a bus that is not in its bus table")
            loss = br.loss_mw
            losses.append(loss)
            screen += br.p_mw + br.q_mvar + loss
            if br.status_from is CLOSED and br.status_to is CLOSED:
                live.append(br)
            else:
                open_.append(br)
        finite = isfinite(screen) or all(
            isfinite(br.p_mw) and isfinite(br.q_mvar) and isfinite(br.loss_mw) for br in self.branches
        )
        return BranchTable(live, open_, sum(losses) if losses else None, finite)

    def extra(self, key: str) -> str | float | None:
        """The header extra ``key``, or None when the record has none. One
        the detector cannot read (see ``_check_extra``) raises ValueError
        naming the record and the key."""
        value = self.extras.get(key)
        if key in self.extras:
            _check_extra(key, value, f"record {self.source!r}: {key}={value}")
        return value

    # -- array views --------------------------------------------------
    def snapshot(self, base_mva: float = 100.0) -> "RecordSnapshot":
        """The bus table's V, P and Q in bus order, P and Q in p.u. of
        ``base_mva``, and what the detector reads of the rows besides, all
        from one pass over them in record order (see ``RecordSnapshot``)."""
        ids, v, p, q, gen, load, bad = [], [], [], [], [], [], []
        screen = 0.0  # as in ``branch_table``: finite only if every value is
        for r in self.buses:
            vr, pr, qr = r.v_pu, r.p_mw, r.q_mvar
            ids.append(r.bus)
            v.append(vr)
            p.append(pr)
            q.append(qr)
            screen += vr + r.theta_deg + pr + qr
            if pr < 0:
                gen.append(-pr)
            elif pr > 0:
                load.append(pr)
        if not (isfinite(screen) and min(v, default=1.0) > 0):
            bad = [r for r in self.buses if not (r.v_pu > 0 and all(map(isfinite, _values(r))))]
        vpq = np.array((v, p, q), dtype=float)
        if ids != sorted(ids):
            order = np.argsort(ids, kind="stable")
            vpq, ids = vpq[:, order], [ids[k] for k in order]
            bad.sort(key=_BUS)
        vpq[1:] /= base_mva
        return RecordSnapshot(*vpq, buses=tuple(ids), generation_mw=sum(gen), load_mw=sum(load), bad=bad)

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


@dataclass
class RecordSnapshot(BusSnapshot):
    """A record's ``BusSnapshot`` with what the detector reads of its bus
    rows besides: the bus ids in bus order, the generation and load totals
    (MW, each summed left to right in record order) and, in bus order, the
    rows with a value that is not finite or a V that is not above 0."""

    buses: tuple[int, ...]
    generation_mw: float
    load_mw: float
    bad: list[BusRow]


class BranchTable(NamedTuple):
    """What the detector reads of a record's branch rows
    (``GridRecord.branch_table``), each list in record order."""

    live: list[BranchRow]  # in service: both breakers closed
    open: list[BranchRow]  # the other rows
    loss_mw: float | None  # every row's loss summed left to right; None without rows
    finite: bool  # every row's p_mw, q_mvar and loss_mw finite


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
