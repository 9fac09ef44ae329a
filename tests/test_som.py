import itertools

import numpy as np
import pytest

from gridsec import fixtures as fx
from gridsec.detection import Rule, Severity
from gridsec.som import (
    AdjacencyConstraint,
    CbMarker,
    ConstraintConflictError,
    ConstraintKind,
    CpMarker,
    Direction,
    GridArrangement,
    LineDirMarker,
    LoadMarker,
    MarkerSyntaxError,
    diff_against_reference,
    generate_constraints,
    parse_marker,
    parse_segments,
    solve_arrangement,
    verify_arrangement,
)


# ---------------------------------------------------------------------------
# Grammar
# ---------------------------------------------------------------------------


def test_parse_marker_kinds():
    cb = parse_marker("CB12_6:R")
    assert cb == CbMarker(12, 6, closed=True)
    assert parse_marker("CB6_13:G") == CbMarker(6, 13, closed=False)
    line = parse_marker("L12_6_S")
    assert line == LineDirMarker(12, 6, Direction.S)
    assert parse_marker("L1_2_NE").direction is Direction.NE
    cp = parse_marker("CP6_12_B:south")
    assert cp == CpMarker(6, 12, "B", Direction.S)
    assert parse_marker("Ld_12") == LoadMarker(12)


def test_parse_marker_render_round_trip():
    for token in ("CB12_6:R", "CB6_13:G", "L12_6_S", "L1_2_NW", "CP6_12_B:south", "Ld_12"):
        assert parse_marker(token).render() == token


def test_parse_rejects_bad_tokens():
    for token, part in (
        ("CP1_2_E:north", "tag must be A/B/C/D"),
        ("CP1_2_A:up", "edge must be north/south/east/west"),
        ("CP1_2_A", "edge must be north/south/east/west"),  # edge required
    ):
        with pytest.raises(MarkerSyntaxError, match=f"^connection-point {part}: '{token}'$"):
            parse_marker(token)
    with pytest.raises(MarkerSyntaxError):
        parse_marker("CB1_2")  # status required
    with pytest.raises(MarkerSyntaxError):
        parse_marker("L1_2_Q")
    with pytest.raises(MarkerSyntaxError):
        parse_marker("XY1_2")
    with pytest.raises(MarkerSyntaxError):
        parse_marker("L3_3_N")  # endpoints must differ


def test_parse_segments_from_files(tmp_path):
    fx.write_fixture_tree(tmp_path)
    files = sorted((tmp_path / "som" / "reference").glob("seg*.json"))
    segments = parse_segments(files)
    assert [s.id for s in segments] == [f"seg{i}" for i in range(1, 10)]
    seg7 = next(s for s in segments if s.id == "seg7")
    assert seg7.bus_display == {12: 1.06}


def test_parse_segments_rejects_duplicates_and_positions():
    doc = {"id": "a", "markers": ["CB1_2:R"], "bus_display": {}}
    with pytest.raises(MarkerSyntaxError):
        parse_segments([doc, doc])
    bad = {"id": "b", "markers": ["CB1_2:R", "CP1_2_X:north"], "bus_display": {}}
    with pytest.raises(MarkerSyntaxError, match="marker 1"):
        parse_segments([bad])


def test_empty_marker_list_is_valid():
    segs = parse_segments([{"id": "solo", "markers": [], "bus_display": {}}])
    assert generate_constraints(segs) == []


def test_duplicate_direction_marker_rejected():
    with pytest.raises(ValueError, match="duplicate direction"):
        parse_segments([{"id": "a", "markers": ["L1_2_N", "L1_2_S"], "bus_display": {}}])


# ---------------------------------------------------------------------------
# Constraint generation
# ---------------------------------------------------------------------------


def test_direction_pair_constraint():
    segs = parse_segments(
        [
            {"id": "s8", "markers": ["L1_2_S"], "bus_display": {}},
            {"id": "s5", "markers": ["L2_1_N"], "bus_display": {}},
        ]
    )
    cons = generate_constraints(segs)
    assert len(cons) == 1
    c = cons[0]
    assert c.kind is ConstraintKind.DIR_COMPLEMENT
    assert (c.seg_a, c.seg_b, c.offset) == ("s8", "s5", (1, 0))


def test_cp_pair_constraint_and_tag_matching():
    segs = parse_segments(
        [
            {"id": "a", "markers": ["CP1_2_A:east", "CP3_4_C:south"], "bus_display": {}},
            {"id": "b", "markers": ["CP1_2_B:west", "CP3_4_D:north"], "bus_display": {}},
        ]
    )
    cons = generate_constraints(segs)
    kinds = sorted((c.line, c.offset) for c in cons)
    assert kinds == [((1, 2), (0, 1)), ((3, 4), (1, 0))]
    # C never pairs with B: a lone C/B set yields no constraint.
    segs2 = parse_segments(
        [
            {"id": "a", "markers": ["CP1_2_C:east"], "bus_display": {}},
            {"id": "b", "markers": ["CP1_2_B:west"], "bus_display": {}},
        ]
    )
    assert generate_constraints(segs2) == []


def test_cp_edges_must_oppose():
    segs = parse_segments(
        [
            {"id": "a", "markers": ["CP1_2_A:east"], "bus_display": {}},
            {"id": "b", "markers": ["CP1_2_B:north"], "bus_display": {}},
        ]
    )
    with pytest.raises(ConstraintConflictError):
        generate_constraints(segs)


def test_direction_conflict_detected():
    segs = parse_segments(
        [
            {"id": "a", "markers": ["L1_2_S"], "bus_display": {}},
            {"id": "b", "markers": ["L2_1_E"], "bus_display": {}},
        ]
    )
    with pytest.raises(ConstraintConflictError):
        generate_constraints(segs)


def test_same_side_claims_conflict():
    segs = parse_segments(
        [
            {"id": "a", "markers": ["L1_2_S", "L3_4_S"], "bus_display": {}},
            {"id": "b", "markers": ["L2_1_N"], "bus_display": {}},
            {"id": "c", "markers": ["L4_3_N"], "bus_display": {}},
        ]
    )
    with pytest.raises(ConstraintConflictError, match="same side"):
        generate_constraints(segs)


def test_cp_supersedes_direction_for_routed_lines():
    """A line that passes through an intermediate segment is routed by its
    connection points; its endpoint direction markers must not force the
    endpoints adjacent."""
    segs = fx.som_reference_segments()
    cons = generate_constraints(segs)
    spatial23 = [c for c in cons if c.offset is not None and set(c.line) == {2, 3}]
    assert all(c.kind is ConstraintKind.CP_PAIR for c in spatial23)
    assert len(spatial23) == 2  # seg5-seg4 and seg4-seg9, never seg5-seg9


# ---------------------------------------------------------------------------
# Solver and verification
# ---------------------------------------------------------------------------


def test_reference_fixture_unique_solution():
    segs = fx.som_reference_segments()
    cons = generate_constraints(segs)
    solutions = solve_arrangement(segs, cons, 3)
    assert len(solutions) == 1
    assert solutions[0].cells == fx.som_reference_arrangement_cells()
    ok, violated = verify_arrangement(solutions[0], segs, cons)
    assert ok and violated == []


def test_solver_output_always_verifies():
    rng = np.random.default_rng(31)
    for _ in range(30):
        segs, cons = _random_instance(rng, n=2)
        for sol in solve_arrangement(segs, cons, 2):
            ok, violated = verify_arrangement(sol, segs, cons)
            assert ok, violated


def test_swap_breaks_verification():
    segs = fx.som_reference_segments()
    cons = generate_constraints(segs)
    sol = solve_arrangement(segs, cons, 3)[0]
    cells = [list(r) for r in sol.cells]
    cells[0][0], cells[2][2] = cells[2][2], cells[0][0]
    mutated = GridArrangement(tuple(tuple(r) for r in cells))
    ok, violated = verify_arrangement(mutated, segs, cons)
    assert not ok
    assert violated  # the broken constraints are named
    touched = {mutated.cells[0][0], mutated.cells[2][2]}
    assert any({c.seg_a, c.seg_b} & touched for c in violated)


def test_constraint_on_an_unknown_segment_is_a_value_error():
    """The solver and the verifier reject a constraint naming a segment
    outside the set with one message (verify used to raise KeyError)."""
    segs = fx.som_reference_segments()
    stray = AdjacencyConstraint(ConstraintKind.DIR_COMPLEMENT, "seg1", "x", (0, 1), (1, 2))
    arrangement = GridArrangement(fx.som_reference_arrangement_cells())
    message = r"^constraint references unknown segment: AdjacencyConstraint\("
    with pytest.raises(ValueError, match=message):
        solve_arrangement(segs, [stray], 3)
    with pytest.raises(ValueError, match=message):
        verify_arrangement(arrangement, segs, [stray])


def test_unconstrained_solver_caps_output():
    segs = parse_segments(
        [{"id": f"s{i}", "markers": [], "bus_display": {}} for i in range(9)]
    )
    sols = solve_arrangement(segs, [], 3, max_solutions=50)
    assert len(sols) == 50
    assert len({s.flat() for s in sols}) == 50


def test_unguided_arrangement_fails_verification():
    """The unguided 3x3 guess from the study (segments ordered by visual
    intuition) violates the marker constraints."""
    segs = fx.som_reference_segments()
    cons = generate_constraints(segs)
    unguided = GridArrangement(
        (("seg8", "seg1", "seg3"), ("seg9", "seg2", "seg6"), ("seg5", "seg7", "seg4"))
    )
    ok, violated = verify_arrangement(unguided, segs, cons)
    assert not ok
    assert len(violated) >= 3


def test_arrangement_must_be_square():
    """A 2x2 display given as one row of four ids passed verification."""
    for cells in ((("seg1", "seg2", "seg3", "seg4"),), (("a", "b"), ("c",))):
        with pytest.raises(ValueError, match=r"expected n rows of n segment ids"):
            GridArrangement(cells)
    assert GridArrangement([["a", "b"], ["c", "d"]]).n == 2


def test_unsatisfiable_constraints_yield_empty_list():
    # A three-segment eastward chain cannot fit a 2x2 grid.
    segs = parse_segments(
        [
            {"id": "a", "markers": ["L1_2_E"], "bus_display": {}},
            {"id": "b", "markers": ["L2_1_W", "L3_4_E"], "bus_display": {}},
            {"id": "c", "markers": ["L4_3_W"], "bus_display": {}},
            {"id": "d", "markers": [], "bus_display": {}},
        ]
    )
    cons = generate_constraints(segs)
    assert solve_arrangement(segs, cons, 2) == []


def test_wrong_segment_count():
    segs = fx.som_reference_segments()
    with pytest.raises(ValueError):
        solve_arrangement(segs, [], 2)


def _random_instance(rng, n=2):
    """Random marker-driven instance over n*n segments. Sides are drawn
    without reuse, so the constraint set is conflict-free (possibly still
    unsatisfiable on the grid)."""
    ids = [f"s{i}" for i in range(n * n)]
    docs = {sid: {"id": sid, "markers": [], "bus_display": {}} for sid in ids}
    used_sides: set[tuple[str, Direction]] = set()
    line = 1
    dirs = [Direction.N, Direction.S, Direction.E, Direction.W]
    for _ in range(rng.integers(0, 4)):
        for _attempt in range(10):
            a, b = rng.choice(len(ids), size=2, replace=False)
            d = dirs[rng.integers(0, 4)]
            if (ids[a], d) in used_sides or (ids[b], d.complement) in used_sides:
                continue
            used_sides.add((ids[a], d))
            used_sides.add((ids[b], d.complement))
            i, j = line, line + 1
            line += 2
            docs[ids[a]]["markers"].append(f"L{i}_{j}_{d.value}")
            docs[ids[b]]["markers"].append(f"L{j}_{i}_{d.complement.value}")
            break
    segs = parse_segments(list(docs.values()))
    return segs, generate_constraints(segs)


def test_two_by_two_matches_brute_force():
    """Solver completeness oracle: enumerate all 4! placements."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        segs, cons = _random_instance(rng, n=2)
        got = {s.flat() for s in solve_arrangement(segs, cons, 2)}
        expected = set()
        ids = sorted(s.id for s in segs)
        for perm in itertools.permutations(ids):
            arr = GridArrangement(((perm[0], perm[1]), (perm[2], perm[3])))
            ok, _ = verify_arrangement(arr, segs, cons)
            if ok:
                expected.add(perm)
        assert got == expected


def test_solutions_come_in_lexicographic_order():
    """Row-major search over sorted ids yields the solutions sorted by the
    flattened assignment, so a cap of k keeps the first k. The 3x3 list is
    capped at 200: an unconstrained 3x3 instance has 9! solutions."""
    rng = np.random.default_rng(11)
    for n, cap in ((2, None), (3, 200)):
        for _ in range(30):
            segs, cons = _random_instance(rng, n=n)
            sols = [s.flat() for s in solve_arrangement(segs, cons, n, max_solutions=cap)]
            assert sols == sorted(sols)
            for k in (1, 3, 7):
                capped = solve_arrangement(segs, cons, n, max_solutions=k)
                assert [s.flat() for s in capped] == sols[:k]


def test_direction_complement_involution():
    """Stating every line from its other endpoint (swap i and j; each
    segment keeps its exit side) must produce the same constraints up to
    orientation and the same arrangement set: a marker pair that places b
    south of a becomes one that places a north of b."""
    rng = np.random.default_rng(13)
    for _ in range(50):
        segs, cons = _random_instance(rng, n=2)
        mirrored_docs = []
        for seg in segs:
            tokens = []
            for m in seg.markers:
                assert isinstance(m, LineDirMarker)
                tokens.append(LineDirMarker(m.j, m.i, m.direction).render())
            mirrored_docs.append({"id": seg.id, "markers": tokens, "bus_display": {}})
        mirrored = parse_segments(mirrored_docs)
        cons2 = generate_constraints(mirrored)
        relations = {
            (c.seg_a, c.seg_b, c.offset) for c in cons
        } | {(c.seg_b, c.seg_a, (-c.offset[0], -c.offset[1])) for c in cons}
        relations2 = {
            (c.seg_a, c.seg_b, c.offset) for c in cons2
        } | {(c.seg_b, c.seg_a, (-c.offset[0], -c.offset[1])) for c in cons2}
        assert relations == relations2
        a = {s.flat() for s in solve_arrangement(segs, cons, 2)}
        b = {s.flat() for s in solve_arrangement(mirrored, cons2, 2)}
        assert a == b


# ---------------------------------------------------------------------------
# Diff
# ---------------------------------------------------------------------------


def test_diff_identity():
    segs = fx.som_reference_segments()
    assert diff_against_reference(segs, segs) == []


def test_diff_scenario_3b_single_breaker_violation():
    ref = fx.som_reference_segments()
    cand = fx.som_scenario_3b_segments()
    findings = diff_against_reference(ref, cand)
    violations = [f for f in findings if f.severity is Severity.VIOLATION]
    assert len(violations) == 1
    f = violations[0]
    assert f.rule is Rule.BREAKER_STATUS_CHANGE
    assert f.data["breaker"] == "CB6_13"
    assert "terminal pair mismatch" in f.message


def test_diff_scenario_3c_single_voltage_violation():
    ref = fx.som_reference_segments()
    cand = fx.som_scenario_3c_segments()
    findings = diff_against_reference(ref, cand)
    violations = [f for f in findings if f.severity is Severity.VIOLATION]
    assert len(violations) == 1
    f = violations[0]
    assert f.rule is Rule.VOLTAGE_DEVIATION
    assert f.data["bus"] == 2
    assert f.data["observed"] == 1.02 and f.data["reference"] == 1.04
    assert f.data["pct"] == pytest.approx(1.923, abs=0.01)


def test_diff_rounding_not_flagged():
    ref = fx.som_reference_segments()
    docs = []
    for seg in ref:
        display = {str(b): (v * 1.002) for b, v in seg.bus_display.items()}
        docs.append({"id": seg.id, "markers": [m.render() for m in seg.markers],
                     "bus_display": display})
    cand = parse_segments(docs)
    findings = diff_against_reference(ref, cand)
    assert [f for f in findings if f.severity is Severity.VIOLATION] == []


def test_half_open_pair_always_violates():
    """One open terminal with the mate closed violates regardless of
    arrangement context."""
    ref = fx.som_reference_segments()
    for name, seg_id, old, new in (
        ("CB6_13", "seg2", "CB6_13:R", "CB6_13:G"),
        ("CB12_6", "seg7", "CB12_6:R", "CB12_6:G"),
    ):
        docs = []
        for seg in ref:
            tokens = [m.render() for m in seg.markers]
            if seg.id == seg_id:
                tokens = [new if t == old else t for t in tokens]
            docs.append({"id": seg.id, "markers": tokens,
                         "bus_display": {str(b): v for b, v in seg.bus_display.items()}})
        cand = parse_segments(docs)
        findings = diff_against_reference(ref, cand)
        hits = [f for f in findings if f.rule is Rule.BREAKER_STATUS_CHANGE]
        assert len(hits) == 1 and f"terminal pair mismatch" in hits[0].message


def test_diff_marker_changes_reported():
    ref = fx.som_reference_segments()
    docs = []
    for seg in ref:
        tokens = [m.render() for m in seg.markers]
        if seg.id == "seg7":
            tokens = [t for t in tokens if t != "L12_13_E"] + ["L12_13_W"]
        docs.append({"id": seg.id, "markers": tokens,
                     "bus_display": {str(b): v for b, v in seg.bus_display.items()}})
    cand = parse_segments(docs)
    findings = diff_against_reference(ref, cand)
    tokens = {f.data.get("marker") for f in findings if f.rule is Rule.MARKER_CHANGE}
    assert tokens == {"L12_13_E", "L12_13_W"}


def test_diff_unknown_segment_rejected():
    ref = fx.som_reference_segments()
    stray = parse_segments([{"id": "seg99", "markers": [], "bus_display": {}}])
    with pytest.raises(ValueError, match=r"unknown segment ids: \['seg99'\]"):
        diff_against_reference(ref, list(ref) + stray)


def _with_markers(segments, changes):
    """Segment documents of ``segments`` with ``changes[id]`` applied to the
    rendered marker list of each named segment."""
    docs = []
    for seg in segments:
        tokens = [m.render() for m in seg.markers]
        docs.append({"id": seg.id, "markers": changes.get(seg.id, lambda t: t)(tokens),
                     "bus_display": {str(b): v for b, v in seg.bus_display.items()}})
    return parse_segments(docs)


def test_duplicated_breaker_terminal_conflicts():
    """A breaker terminal drawn by two segments is a conflict in either
    segment order (the last segment drawn used to win)."""
    docs = [
        {"id": "a", "markers": ["CB6_13:G"], "bus_display": {}},
        {"id": "b", "markers": ["CB6_13:R"], "bus_display": {}},
        {"id": "c", "markers": ["CB13_6:R"], "bus_display": {}},
        {"id": "d", "markers": [], "bus_display": {}},
    ]
    pair = AdjacencyConstraint(ConstraintKind.CB_TERMINAL_PAIR, "a", "c", None, (6, 13))
    arrangement = GridArrangement((("a", "b"), ("c", "d")))
    for order in (docs, [docs[1], docs[0], *docs[2:]]):
        segs = parse_segments(order)
        with pytest.raises(ConstraintConflictError, match="CB6_13 appears in segments"):
            generate_constraints(segs)
        with pytest.raises(ConstraintConflictError, match="CB6_13 appears in segments"):
            verify_arrangement(arrangement, segs, [pair])

    ref = fx.som_reference_segments()
    cand = _with_markers(ref, {"seg5": lambda tokens: tokens + ["CB6_13:R"]})
    for order in (cand, cand[::-1]):
        with pytest.raises(ConstraintConflictError, match="CB6_13 appears in segments"):
            diff_against_reference(ref, order)


def test_diff_reports_load_markers():
    """An added or removed load symbol is one MarkerChange warning."""
    ref = fx.som_reference_segments()
    seg = next(s for s in ref if LoadMarker(4) in s.markers)
    for change, token, verb in (
        (lambda tokens: [t for t in tokens if t != "Ld_4"], "Ld_4", "removed"),
        (lambda tokens: tokens + ["Ld_99"], "Ld_99", "added"),
    ):
        findings = diff_against_reference(ref, _with_markers(ref, {seg.id: change}))
        assert [(f.rule, f.severity) for f in findings] == [(Rule.MARKER_CHANGE, Severity.WARNING)]
        assert findings[0].message == f"segment {seg.id}: marker {token} {verb}"
