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
        return _COMPLEMENT[self]


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
_COMPLEMENT = {
    Direction.N: Direction.S,
    Direction.S: Direction.N,
    Direction.E: Direction.W,
    Direction.W: Direction.E,
    Direction.NE: Direction.SW,
    Direction.SW: Direction.NE,
    Direction.NW: Direction.SE,
    Direction.SE: Direction.NW,
}
_EDGE_NAMES = {
    "north": Direction.N,
    "south": Direction.S,
    "east": Direction.E,
    "west": Direction.W,
}


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
        return f"{self.name}:{_edge_name(self.edge)}"


@dataclass(frozen=True)
class LoadMarker:
    bus: int

    def render(self) -> str:
        return f"Ld_{self.bus}"


Marker = CbMarker | LineDirMarker | CpMarker | LoadMarker

_CB_RE = re.compile(r"^CB(\d+)_(\d+):(R|G)$")
_LINE_RE = re.compile(r"^L(\d+)_(\d+)_(NE|NW|SE|SW|N|S|E|W)$")
_CP_RE = re.compile(r"^CP(\d+)_(\d+)_([A-Za-z]):(north|south|east|west)$")
_LOAD_RE = re.compile(r"^Ld_(\d+)$")


def _edge_name(d: Direction) -> str:
    return {v: k for k, v in _EDGE_NAMES.items()}[d]


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
        tag = m.group(3)
        if tag not in ("A", "B", "C", "D"):
            raise MarkerSyntaxError(f"connection-point tag must be A/B/C/D: '{token}'")
        return CpMarker(i, j, tag, _EDGE_NAMES[m.group(4)])
    if m := _LOAD_RE.match(token):
        return LoadMarker(int(m.group(1)))
    # A CP without an allowed tag should report the tag, not generic syntax.
    if re.match(r"^CP(\d+)_(\d+)_", token):
        raise MarkerSyntaxError(f"connection-point tag must be A/B/C/D: '{token}'")
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "id": self.id,
                "markers": [m.render() for m in self.markers],
                "bus_display": {str(b): v for b, v in sorted(self.bus_display.items())},
            },
            indent=2,
            sort_keys=True,
        )


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
        """``cells`` as tuples; ValueError unless a list of lists of segment ids."""
        rows = self.cells
        if not isinstance(rows, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and all(isinstance(sid, str) for sid in row)
            for row in rows
        ):
            raise ValueError(f"cells {rows!r}: expected a list of lists of segment ids")
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
    cbs: dict[tuple[int, int], tuple[str, CbMarker]] = {}
    for seg in segments:
        for m in seg.markers:
            if isinstance(m, CbMarker):
                cbs[(m.i, m.j)] = (seg.id, m)
    for (i, j), (seg_a, ma) in sorted(cbs.items()):
        if i > j or (j, i) not in cbs:
            continue
        seg_b, mb = cbs[(j, i)]
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


def _cb_statuses(segments: Sequence[SegmentDescriptor]) -> dict[tuple[int, int], bool]:
    out = {}
    for seg in segments:
        for m in seg.markers:
            if isinstance(m, CbMarker):
                out[(m.i, m.j)] = m.closed
    return out


def solve_arrangement(
    segments: Sequence[SegmentDescriptor],
    constraints: Sequence[AdjacencyConstraint],
    n: int,
    max_solutions: int | None = None,
) -> list[GridArrangement]:
    """All N x N placements satisfying every constraint, by backtracking
    with most-constrained-cell-first ordering. Output is sorted
    lexicographically by the flattened cell assignment; an empty list means
    the constraint set is unsatisfiable."""
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

    cells = [(r, c) for r in range(n) for c in range(n)]
    grid: dict[tuple[int, int], str] = {}
    placed: dict[str, tuple[int, int]] = {}
    solutions: list[tuple[str, ...]] = []

    def candidate_ok(sid: str, cell: tuple[int, int]) -> bool:
        r, c = cell
        for other, (dr, dc) in by_seg[sid]:
            target = (r + dr, c + dc)
            if other in placed:
                if placed[other] != target:
                    return False
            else:
                if not (0 <= target[0] < n and 0 <= target[1] < n):
                    return False
                if target in grid:
                    return False
        return True

    def next_cell() -> tuple[int, int] | None:
        best = None
        best_score = -1
        for cell in cells:
            if cell in grid:
                continue
            score = 0
            r, c = cell
            for sid, pos in placed.items():
                for _other, (dr, dc) in by_seg[sid]:
                    if (pos[0] + dr, pos[1] + dc) == cell:
                        score += 1
            if score > best_score:
                best, best_score = cell, score
        return best

    def backtrack() -> bool:
        """Returns True when the solution cap has been hit."""
        if len(placed) == len(ids):
            flat = tuple(grid[cell] for cell in cells)
            solutions.append(flat)
            return max_solutions is not None and len(solutions) >= max_solutions
        cell = next_cell()
        assert cell is not None
        for sid in ids:
            if sid in placed:
                continue
            if not candidate_ok(sid, cell):
                continue
            grid[cell] = sid
            placed[sid] = cell
            done = backtrack()
            del grid[cell]
            del placed[sid]
            if done:
                return True
        return False

    backtrack()
    solutions.sort()
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
    statuses = _cb_statuses(segments)
    violated: list[AdjacencyConstraint] = []
    for c in constraints:
        if c.offset is None:
            a = statuses.get(c.line)
            b = statuses.get((c.line[1], c.line[0]))
            if a is not None and b is not None and a != b:
                violated.append(c)
            continue
        ra, ca = positions[c.seg_a]
        rb, cb = positions[c.seg_b]
        if (rb - ra, cb - ca) != c.offset:
            violated.append(c)
    return (not violated, violated)


def diff_against_reference(
    reference: Sequence[SegmentDescriptor],
    candidate: Sequence[SegmentDescriptor],
    volt_tol: float = 0.005,
) -> list[Finding]:
    """Compare a candidate display against the reference segment set.

    Reports breaker status changes (with terminal-pair consistency),
    displayed-voltage deviations beyond ``volt_tol`` (relative), and
    added/removed/changed direction or connection-point markers. Raises
    ValueError unless ``volt_tol`` is a finite number >= 0 and every
    candidate segment id is in the reference.
    """
    if not 0.0 <= volt_tol < math.inf:
        raise ValueError(f"volt_tol {volt_tol}: expected a finite number >= 0")
    ref_by_id = {s.id: s for s in reference}
    cand_by_id = {s.id: s for s in candidate}
    unknown = sorted(set(cand_by_id) - set(ref_by_id))
    if unknown:
        raise ValueError(f"candidate contains unknown segment ids: {unknown}")

    findings: list[Finding] = []
    cand_statuses = _cb_statuses(candidate)

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
        for name in sorted(set(ref_cbs) | set(cand_cbs)):
            rm, cm = ref_cbs.get(name), cand_cbs.get(name)
            if rm is None or cm is None:
                findings.append(
                    Finding(
                        Rule.MARKER_CHANGE,
                        Severity.WARNING,
                        f"segment {sid}: breaker marker {name} "
                        f"{'added' if rm is None else 'removed'}",
                        {"segment": sid, "marker": name},
                    )
                )
                continue
            if rm.closed != cm.closed:
                mate = cand_statuses.get((cm.j, cm.i))
                pair_note = ""
                if mate is not None and mate != cm.closed:
                    pair_note = (
                        f"; terminal pair mismatch: {name} is "
                        f"{'closed' if cm.closed else 'open'} while CB{cm.j}_{cm.i} is "
                        f"{'closed' if mate else 'open'} on the same line"
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

        ref_rest = {m.render() for m in ref.markers if isinstance(m, (LineDirMarker, CpMarker))}
        cand_rest = {m.render() for m in cand.markers if isinstance(m, (LineDirMarker, CpMarker))}
        for token in sorted(ref_rest - cand_rest):
            findings.append(
                Finding(
                    Rule.MARKER_CHANGE,
                    Severity.WARNING,
                    f"segment {sid}: marker {token} removed",
                    {"segment": sid, "marker": token},
                )
            )
        for token in sorted(cand_rest - ref_rest):
            findings.append(
                Finding(
                    Rule.MARKER_CHANGE,
                    Severity.WARNING,
                    f"segment {sid}: marker {token} added",
                    {"segment": sid, "marker": token},
                )
            )

        for bus in sorted(set(ref.bus_display) | set(cand.bus_display)):
            rv = ref.bus_display.get(bus)
            cv = cand.bus_display.get(bus)
            if rv is None or cv is None:
                findings.append(
                    Finding(
                        Rule.MARKER_CHANGE,
                        Severity.WARNING,
                        f"segment {sid}: displayed value for bus {bus} "
                        f"{'added' if rv is None else 'removed'}",
                        {"segment": sid, "bus": bus},
                    )
                )
                continue
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
