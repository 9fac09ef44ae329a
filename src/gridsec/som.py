"""Set-of-Mark display segments: marker grammar, adjacency constraints,
N x N arrangement search, verification, and reference diffing.

Segments arrive as structured JSON (one document per segment):

    {"id": "seg7",
     "markers": ["CB12_6:R", "L12_6_S", "CP6_12_B:south", "Ld_12"],
     "bus_display": {"12": 1.06}}

Marker grammar (anchored regular expressions):

    CB<i>_<j>:<R|G>                      breaker at the bus-i terminal of
                                         line i-j; R = closed, G = open
    L<i>_<j>_<N|S|E|W|NE|NW|SE|SW>       line i->j leaves the segment in
                                         the given direction
    CP<i>_<j>_<A|B|C|D>:<north|south|east|west>
                                         boundary connection point on the
                                         given segment edge; A mates with
                                         B and C mates with D
    Ld_<bus>                             load symbol at a bus
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .findings import Finding, Rule, Severity

__all__ = [
    "Direction",
    "CbMarker",
    "LineDirMarker",
    "CpMarker",
    "LoadMarker",
    "SegmentDescriptor",
    "MarkerSyntaxError",
    "ConstraintConflictError",
    "ConstraintKind",
    "AdjacencyConstraint",
    "GridArrangement",
    "parse_marker",
    "parse_segments",
    "generate_constraints",
    "solve_arrangement",
    "verify_arrangement",
    "diff_against_reference",
]


class MarkerSyntaxError(ValueError):
    pass


class ConstraintConflictError(ValueError):
    pass


class Direction(str, Enum):
    N = "N"
    S = "S"
    E = "E"
    W = "W"
    NE = "NE"
    NW = "NW"
    SE = "SE"
    SW = "SW"

    @property
    def offset(self) -> tuple[int, int]:
        return _OFFSETS[self]

    @property
    def complement(self) -> "Direction":
        dr, dc = self.offset
        return next(d for d in Direction if d.offset == (-dr, -dc))


_OFFSETS = {
    Direction.N: (-1, 0),
    Direction.S: (1, 0),
    Direction.E: (0, 1),
    Direction.W: (0, -1),
    Direction.NE: (-1, 1),
    Direction.NW: (-1, -1),
    Direction.SE: (1, 1),
    Direction.SW: (1, -1),
}
_EDGE_NAMES = {
    "north": Direction.N,
    "south": Direction.S,
    "east": Direction.E,
    "west": Direction.W,
}
_EDGE_OF = {d: name for name, d in _EDGE_NAMES.items()}


@dataclass(frozen=True)
class CbMarker:
    i: int
    j: int
    closed: bool

    @property
    def name(self) -> str:
        return f"CB{self.i}_{self.j}"

    def render(self) -> str:
        return f"{self.name}:{'R' if self.closed else 'G'}"


@dataclass(frozen=True)
class LineDirMarker:
    i: int
    j: int
    direction: Direction

    def render(self) -> str:
        return f"L{self.i}_{self.j}_{self.direction.value}"


@dataclass(frozen=True)
class CpMarker:
    i: int
    j: int
    tag: str  # A/B/C/D
    edge: Direction  # border side: N/S/E/W only

    @property
    def name(self) -> str:
        return f"CP{self.i}_{self.j}_{self.tag}"

    def render(self) -> str:
        return f"{self.name}:{_EDGE_OF[self.edge]}"


@dataclass(frozen=True)
class LoadMarker:
    bus: int

    def render(self) -> str:
        return f"Ld_{self.bus}"


Marker = CbMarker | LineDirMarker | CpMarker | LoadMarker

_CB_RE = re.compile(r"^CB(\d+)_(\d+):(R|G)$")
_LINE_RE = re.compile(r"^L(\d+)_(\d+)_(NE|NW|SE|SW|N|S|E|W)$")
_CP_RE = re.compile(r"^CP(\d+)_(\d+)_([A-D]):(north|south|east|west)$")
_LOAD_RE = re.compile(r"^Ld_(\d+)$")


def parse_marker(text: str) -> Marker:
    token = text.strip()
    if m := _CB_RE.match(token):
        i, j = int(m.group(1)), int(m.group(2))
        _check_line(i, j, token)
        return CbMarker(i, j, closed=m.group(3) == "R")
    if m := _LINE_RE.match(token):
        i, j = int(m.group(1)), int(m.group(2))
        _check_line(i, j, token)
        return LineDirMarker(i, j, Direction(m.group(3)))
    if m := _CP_RE.match(token):
        i, j = int(m.group(1)), int(m.group(2))
        _check_line(i, j, token)
        return CpMarker(i, j, m.group(3), _EDGE_NAMES[m.group(4)])
    if m := _LOAD_RE.match(token):
        return LoadMarker(int(m.group(1)))
    # A malformed CP reports its tag, or with an allowed tag its edge.
    if m := re.match(r"^CP\d+_\d+_([^:]*)", token):
        if m.group(1) not in ("A", "B", "C", "D"):
            raise MarkerSyntaxError(f"connection-point tag must be A/B/C/D: '{token}'")
        raise MarkerSyntaxError(f"connection-point edge must be north/south/east/west: '{token}'")
    raise MarkerSyntaxError(f"unknown marker token '{token}'")


def _check_line(i: int, j: int, token: str) -> None:
    if i == j:
        raise MarkerSyntaxError(f"line endpoints must differ: '{token}'")


@dataclass(frozen=True)
class SegmentDescriptor:
    id: str
    markers: tuple[Marker, ...]
    bus_display: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[tuple[int, int]] = set()
        for m in self.markers:
            if isinstance(m, LineDirMarker):
                if (m.i, m.j) in seen:
                    raise ValueError(
                        f"segment {self.id}: duplicate direction marker for line "
                        f"{m.i}-{m.j}"
                    )
                seen.add((m.i, m.j))
        for bus, v in self.bus_display.items():
            if not 0 < v < math.inf:
                raise ValueError(f"segment {self.id}: displayed voltage {v} at bus {bus}: "
                                 "expected a finite number above 0")


def _segment_from_doc(doc: dict, origin: str) -> SegmentDescriptor:
    if not isinstance(doc, dict) or "id" not in doc:
        raise MarkerSyntaxError(f"{origin}: segment document is not an object with an id")
    where = f"{origin}: segment {doc['id']}"
    tokens, shown = doc.get("markers", []), doc.get("bus_display", {})
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise MarkerSyntaxError(f"{where}: markers {tokens!r}: expected a list of marker strings")
    if not isinstance(shown, dict):
        raise MarkerSyntaxError(f"{where}: bus_display {shown!r}: expected an object of bus voltages")
    markers = []
    for k, token in enumerate(tokens):
        try:
            markers.append(parse_marker(token))
        except MarkerSyntaxError as exc:
            raise MarkerSyntaxError(f"{origin}: marker {k}: {exc}") from exc
    display: dict[int, float] = {}
    for b, v in shown.items():
        try:
            display[int(b)] = float(v)
        except (TypeError, ValueError):
            raise MarkerSyntaxError(
                f"{where}: bus_display {b!r}: {v!r}: expected a bus id and a voltage"
            ) from None
    try:
        return SegmentDescriptor(id=str(doc["id"]), markers=tuple(markers), bus_display=display)
    except ValueError as exc:
        raise MarkerSyntaxError(f"{origin}: {exc}") from None


def parse_segments(sources: Iterable[str | Path | dict]) -> list[SegmentDescriptor]:
    """Parse segment documents (paths or already-loaded dicts). Rejects
    a file that is not JSON, duplicate segment ids and malformed markers
    with their position."""
    segments: list[SegmentDescriptor] = []
    seen: set[str] = set()
    for src in sources:
        if isinstance(src, dict):
            seg = _segment_from_doc(src, origin="<dict>")
        else:
            path = Path(src)
            try:
                doc = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                raise MarkerSyntaxError(f"{path}: not a JSON document: {exc}") from None
            seg = _segment_from_doc(doc, origin=str(path))
        if seg.id in seen:
            raise MarkerSyntaxError(f"duplicate segment id '{seg.id}'")
        seen.add(seg.id)
        segments.append(seg)
    return segments


class ConstraintKind(str, Enum):
    DIR_COMPLEMENT = "DirComplement"
    CP_PAIR = "CpPair"
    CB_TERMINAL_PAIR = "CbTerminalPair"


@dataclass(frozen=True)
class AdjacencyConstraint:
    kind: ConstraintKind
    seg_a: str
    seg_b: str
    offset: tuple[int, int] | None  # position of b relative to a; None = non-spatial
    line: tuple[int, int]
    detail: str = ""


@dataclass(frozen=True)
class GridArrangement:
    cells: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        """``cells`` as tuples; ValueError unless n rows of n segment ids."""
        rows = self.cells
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and all(isinstance(sid, str) for sid in row)
            for row in rows
        ):
            raise ValueError(f"cells {rows!r}: expected a list of lists of segment ids")
        if any(len(row) != len(rows) for row in rows):
            raise ValueError(f"cells: row lengths {[len(row) for row in rows]}: "
                             "expected n rows of n segment ids")
        object.__setattr__(self, "cells", tuple(map(tuple, rows)))

    @property
    def n(self) -> int:
        return len(self.cells)

    def flat(self) -> tuple[str, ...]:
        return tuple(sid for row in self.cells for sid in row)


def generate_constraints(segments: Sequence[SegmentDescriptor]) -> list[AdjacencyConstraint]:
    """Adjacency constraints from CP pairs and matched direction pairs;
    breaker terminal pairs become non-spatial consistency constraints.

    Lines that carry CP markers are routed by those markers alone: their
    direction markers may describe a multi-segment path, so no direct
    adjacency is inferred from them.
    """
    constraints: list[AdjacencyConstraint] = []
    cp_lines: set[frozenset[int]] = set()
    cps: dict[tuple[int, int, str], tuple[str, CpMarker]] = {}
    for seg in segments:
        for m in seg.markers:
            if isinstance(m, CpMarker):
                key = (m.i, m.j, m.tag)
                if key in cps:
                    raise ConstraintConflictError(
                        f"connection point {m.name} appears in segments "
                        f"{cps[key][0]} and {seg.id}"
                    )
                cps[key] = (seg.id, m)
                cp_lines.add(frozenset((m.i, m.j)))

    for (i, j, tag) in sorted(cps):
        if tag not in ("A", "C"):
            continue
        mate = {"A": "B", "C": "D"}[tag]
        key_b = (i, j, mate)
        if key_b not in cps:
            continue
        seg_a, mark_a = cps[(i, j, tag)]
        seg_b, mark_b = cps[key_b]
        if mark_b.edge is not mark_a.edge.complement:
            raise ConstraintConflictError(
                f"connection points {mark_a.name}/{mark_b.name} sit on "
                f"non-opposite edges"
            )
        constraints.append(
            AdjacencyConstraint(
                ConstraintKind.CP_PAIR,
                seg_a,
                seg_b,
                mark_a.edge.offset,
                (i, j),
                detail=f"{mark_a.name}({seg_a}) <-> {mark_b.name}({seg_b})",
            )
        )

    # Direction pairs: L i_j_d in one segment with L j_i_d' in another,
    # d' complementary, for lines not governed by connection points.
    dirs: list[tuple[str, LineDirMarker]] = [
        (seg.id, m)
        for seg in segments
        for m in seg.markers
        if isinstance(m, LineDirMarker)
    ]
    used: set[int] = set()
    for a_idx, (seg_a, ma) in enumerate(dirs):
        if a_idx in used or frozenset((ma.i, ma.j)) in cp_lines:
            continue
        for b_idx in range(a_idx + 1, len(dirs)):
            if b_idx in used:
                continue
            seg_b, mb = dirs[b_idx]
            if seg_b == seg_a:
                continue
            if (mb.i, mb.j) != (ma.j, ma.i):
                continue
            if mb.direction is not ma.direction.complement:
                raise ConstraintConflictError(
                    f"direction pair conflict on line {ma.i}-{ma.j}: "
                    f"{ma.render()}({seg_a}) vs {mb.render()}({seg_b})"
                )
            used.update((a_idx, b_idx))
            constraints.append(
                AdjacencyConstraint(
                    ConstraintKind.DIR_COMPLEMENT,
                    seg_a,
                    seg_b,
                    ma.direction.offset,
                    (ma.i, ma.j),
                    detail=f"{ma.render()}({seg_a}) <-> {mb.render()}({seg_b})",
                )
            )
            break

    # Breaker terminal pairs: status must agree at both ends of a line.
    breakers = _breakers(segments)
    for (i, j), (seg_a, ma) in sorted(breakers.items()):
        if i > j or (j, i) not in breakers:
            continue
        seg_b, mb = breakers[(j, i)]
        constraints.append(
            AdjacencyConstraint(
                ConstraintKind.CB_TERMINAL_PAIR,
                seg_a,
                seg_b,
                None,
                (i, j),
                detail=f"{ma.render()}({seg_a}) <-> {mb.render()}({seg_b})",
            )
        )

    _check_side_conflicts(constraints)
    return constraints


def _check_side_conflicts(constraints: Sequence[AdjacencyConstraint]) -> None:
    claims: dict[tuple[str, tuple[int, int]], str] = {}
    for c in constraints:
        if c.offset is None:
            continue
        for seg, other, off in (
            (c.seg_a, c.seg_b, c.offset),
            (c.seg_b, c.seg_a, (-c.offset[0], -c.offset[1])),
        ):
            key = (seg, off)
            if key in claims and claims[key] != other:
                raise ConstraintConflictError(
                    f"segments {claims[key]} and {other} both claim the same side "
                    f"{off} of {seg}"
                )
            claims[key] = other


def _breakers(segments: Sequence[SegmentDescriptor]) -> dict[tuple[int, int], tuple[str, CbMarker]]:
    """Each breaker terminal (i, j) with the segment that draws it and its
    marker. A terminal drawn twice raises ConstraintConflictError."""
    out: dict[tuple[int, int], tuple[str, CbMarker]] = {}
    for seg in segments:
        for m in seg.markers:
            if isinstance(m, CbMarker):
                if (m.i, m.j) in out:
                    raise ConstraintConflictError(
                        f"breaker {m.name} appears in segments {out[(m.i, m.j)][0]} and {seg.id}"
                    )
                out[(m.i, m.j)] = (seg.id, m)
    return out


def _mismatched_mate(
    breakers: dict[tuple[int, int], tuple[str, CbMarker]], line: tuple[int, int]
) -> CbMarker | None:
    """The breaker at the far terminal of ``line`` when both terminals are
    drawn and show different statuses, else None."""
    here, there = breakers.get(line), breakers.get((line[1], line[0]))
    if here is None or there is None or here[1].closed == there[1].closed:
        return None
    return there[1]


def solve_arrangement(
    segments: Sequence[SegmentDescriptor],
    constraints: Sequence[AdjacencyConstraint],
    n: int,
    max_solutions: int | None = None,
) -> list[GridArrangement]:
    """All N x N placements satisfying every constraint, by depth-first
    search that fills the cells in row-major order and tries segment ids
    in sorted order. The solutions come in lexicographic order of the
    flattened cell assignment, so ``max_solutions=k`` returns the first k;
    an empty list means the constraint set is unsatisfiable."""
    ids = sorted(s.id for s in segments)
    if len(ids) != n * n:
        raise ValueError(f"{len(ids)} segments cannot fill a {n}x{n} grid")

    spatial = [c for c in constraints if c.offset is not None]
    by_seg: dict[str, list[tuple[str, tuple[int, int]]]] = {sid: [] for sid in ids}
    for c in spatial:
        if c.seg_a not in by_seg or c.seg_b not in by_seg:
            raise ValueError(f"constraint references unknown segment: {c}")
        by_seg[c.seg_a].append((c.seg_b, c.offset))
        by_seg[c.seg_b].append((c.seg_a, (-c.offset[0], -c.offset[1])))

    # Segment -> cell, in the order the cells were filled (row-major).
    placed: dict[str, tuple[int, int]] = {}
    solutions: list[tuple[str, ...]] = []

    def candidate_ok(sid: str, cell: tuple[int, int]) -> bool:
        r, c = cell
        for other, (dr, dc) in by_seg[sid]:
            target = (r + dr, c + dc)
            if other in placed:
                if placed[other] != target:
                    return False
            # Every cell before this one in row-major order is filled.
            elif not (0 <= target[0] < n and 0 <= target[1] < n) or target < cell:
                return False
        return True

    def backtrack() -> bool:
        """Returns True when the solution cap has been hit."""
        if len(placed) == len(ids):
            solutions.append(tuple(placed))
            return max_solutions is not None and len(solutions) >= max_solutions
        cell = divmod(len(placed), n)
        for sid in ids:
            if sid in placed or not candidate_ok(sid, cell):
                continue
            placed[sid] = cell
            done = backtrack()
            del placed[sid]
            if done:
                return True
        return False

    backtrack()
    return [
        GridArrangement(tuple(tuple(flat[r * n + c] for c in range(n)) for r in range(n)))
        for flat in solutions
    ]


def verify_arrangement(
    arrangement: GridArrangement,
    segments: Sequence[SegmentDescriptor],
    constraints: Sequence[AdjacencyConstraint],
) -> tuple[bool, list[AdjacencyConstraint]]:
    """Independent re-check of every constraint against a full arrangement."""
    positions = {
        sid: (r, c)
        for r, row in enumerate(arrangement.cells)
        for c, sid in enumerate(row)
    }
    ids = {s.id for s in segments}
    if set(positions) != ids:
        raise ValueError("arrangement does not cover the segment set exactly")
    breakers = _breakers(segments)
    violated: list[AdjacencyConstraint] = []
    for c in constraints:
        if c.offset is None:
            if _mismatched_mate(breakers, c.line) is not None:
                violated.append(c)
            continue
        if c.seg_a not in positions or c.seg_b not in positions:
            raise ValueError(f"constraint references unknown segment: {c}")
        ra, ca = positions[c.seg_a]
        rb, cb = positions[c.seg_b]
        if (rb - ra, cb - ca) != c.offset:
            violated.append(c)
    return (not violated, violated)


def _added_removed(sid: str, what: str, ref: Iterable, cand: Iterable, key: str) -> list[Finding]:
    """A MarkerChange warning for each item of ``ref`` or ``cand`` that the
    other lacks, in sorted order."""
    ref, cand = set(ref), set(cand)
    return [
        Finding(
            Rule.MARKER_CHANGE,
            Severity.WARNING,
            f"segment {sid}: {what} {item} {'added' if item in cand else 'removed'}",
            {"segment": sid, key: item},
        )
        for item in sorted(ref ^ cand)
    ]


def diff_against_reference(
    reference: Sequence[SegmentDescriptor],
    candidate: Sequence[SegmentDescriptor],
    volt_tol: float = 0.005,
) -> list[Finding]:
    """Compare a candidate display against the reference segment set.

    Reports, per segment: added and removed breaker markers, breaker
    status changes (with terminal-pair consistency), added and removed
    other markers (direction, connection point, load), added and removed
    displayed values, and displayed-voltage deviations beyond ``volt_tol``
    (relative). Raises ValueError unless ``volt_tol`` is a finite number
    >= 0 and every candidate segment id is in the reference, and
    ConstraintConflictError when the candidate draws a breaker terminal
    twice.
    """
    if not 0.0 <= volt_tol < math.inf:
        raise ValueError(f"volt_tol {volt_tol}: expected a finite number >= 0")
    ref_by_id = {s.id: s for s in reference}
    cand_by_id = {s.id: s for s in candidate}
    unknown = sorted(set(cand_by_id) - set(ref_by_id))
    if unknown:
        raise ValueError(f"candidate contains unknown segment ids: {unknown}")

    findings: list[Finding] = []
    cand_breakers = _breakers(candidate)

    for sid in sorted(ref_by_id):
        ref = ref_by_id[sid]
        cand = cand_by_id.get(sid)
        if cand is None:
            findings.append(
                Finding(
                    Rule.MARKER_CHANGE,
                    Severity.WARNING,
                    f"segment {sid} missing from candidate display",
                    {"segment": sid},
                )
            )
            continue

        ref_cbs = {m.name: m for m in ref.markers if isinstance(m, CbMarker)}
        cand_cbs = {m.name: m for m in cand.markers if isinstance(m, CbMarker)}
        findings += _added_removed(sid, "breaker marker", ref_cbs, cand_cbs, "marker")
        for name in sorted(ref_cbs.keys() & cand_cbs.keys()):
            rm, cm = ref_cbs[name], cand_cbs[name]
            if rm.closed == cm.closed:
                continue
            mate = _mismatched_mate(cand_breakers, (cm.i, cm.j))
            pair_note = ""
            if mate is not None:
                pair_note = (
                    f"; terminal pair mismatch: {name} is "
                    f"{'closed' if cm.closed else 'open'} while {mate.name} is "
                    f"{'closed' if mate.closed else 'open'} on the same line"
                )
            findings.append(
                Finding(
                    Rule.BREAKER_STATUS_CHANGE,
                    Severity.VIOLATION,
                    f"segment {sid}: {name} changed "
                    f"{'Red (closed)' if rm.closed else 'Green (open)'} -> "
                    f"{'Red (closed)' if cm.closed else 'Green (open)'}{pair_note}",
                    {"segment": sid, "breaker": name, "line_i": cm.i, "line_j": cm.j,
                     "reference": "Closed" if rm.closed else "Open",
                     "observed": "Closed" if cm.closed else "Open"},
                )
            )

        ref_rest = {m.render() for m in ref.markers if not isinstance(m, CbMarker)}
        cand_rest = {m.render() for m in cand.markers if not isinstance(m, CbMarker)}
        findings += _added_removed(sid, "marker", ref_rest, cand_rest, "marker")

        findings += _added_removed(sid, "displayed value for bus", ref.bus_display,
                                   cand.bus_display, "bus")
        for bus in sorted(ref.bus_display.keys() & cand.bus_display.keys()):
            rv, cv = ref.bus_display[bus], cand.bus_display[bus]
            rel = abs(cv - rv) / rv
            if rel > volt_tol:
                findings.append(
                    Finding(
                        Rule.VOLTAGE_DEVIATION,
                        Severity.VIOLATION,
                        f"segment {sid}: bus {bus} displays {cv:.4g} p.u. instead of "
                        f"{rv:.4g} p.u. ({rel * 100:.1f}% deviation)",
                        {"segment": sid, "bus": bus, "reference": rv,
                         "observed": cv, "pct": rel * 100},
                    )
                )
    return findings
