"""End-to-end detection pipeline: estimation, residual test, features,
physics rules, and classification over a (baseline, snapshot) record pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from math import isfinite
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .detection import (
    BaselineStats,
    DetectionVerdict,
    RuleConfig,
    analyze_record_islands,
    classify,
    extract_features,
    rule_battery,
)
from .estimation import (
    BddVerdict,
    EstimationError,
    Measurement,
    MeasurementSet,
    _check_finite,
    _estimate,
    standard_channels,
)
from .measmodel import MeasurementModel, compiled
from .network import NetworkModel, build_ieee14, derived
from .records import BranchTable, BusSnapshot, GridRecord, RecordSnapshot
from .stats import PAPER_CHI2_THRESHOLD, chi_square_threshold

if TYPE_CHECKING:
    from .attacks import AttackVector

__all__ = ["PipelineReport", "run_pipeline", "measurements_from_record"]

BDD_ALPHA = 0.05  # false-alarm rate of the residual test on clean data


@dataclass
class PipelineReport:
    verdict: DetectionVerdict
    report: dict
    text: str

    def to_json(self) -> str:
        return json.dumps(self.report, indent=2, sort_keys=True)


def measurements_from_record(record: GridRecord, base_mva: float) -> MeasurementSet:
    """Treat a record's bus table as the direct measurement channels at the
    default sigmas, power flipped into injections in p.u. of ``base_mva``."""
    layout, _ = standard_channels(record.n_bus)
    values = _injections(record.snapshot(base_mva)).tolist()
    return MeasurementSet([replace(m, value=x) for m, x in zip(layout, values)])


def _injections(snap: BusSnapshot) -> np.ndarray:
    """The values of the standard layout from a snapshot: V, then P and Q
    flipped into injections ((-p)/b is -(p/b) exactly)."""
    return np.concatenate((snap.v, -snap.p, -snap.q))


class _Case(NamedTuple):
    """What a verdict reads of the model, worked out once per model object
    (``network.derived``)."""

    base_mva: float
    buses: tuple[int, ...]  # the ids 1..n a record's bus table lists, in order
    ids: frozenset[int]  # the same, which its branch rows may name
    slack: int
    layout: tuple[Measurement, ...]  # ``standard_channels``
    sig: np.ndarray
    mm: MeasurementModel  # the layout compiled on the model's own breakers
    df: int  # m - n_state of ``mm``


def _case(model: NetworkModel) -> _Case:
    """The model's ``_Case``; read it through ``derived(model, _case)``."""
    layout, sig = standard_channels(model.n_bus)
    mm = compiled(model, None, layout)
    buses = tuple(b.id for b in model.buses)
    return _Case(
        model.base_mva, buses, frozenset(buses), model.buses[model.slack_index].id,
        layout, sig, mm, len(layout) - mm.n_state,
    )


_BUS_FIELDS = ("v_pu", "theta_deg", "p_mw", "q_mvar")
_BRANCH_FIELDS = ("p_mw", "q_mvar", "loss_mw")


def _check_record(
    record: GridRecord, case: _Case, search: bool
) -> tuple[RecordSnapshot, BranchTable, list[frozenset[int]] | None]:
    """The record's snapshot and branch table, one pass over each kind of
    row, once ``record`` fits the model: its bus table lists exactly buses
    1..n and its branch rows name only those buses; V, theta, P and Q are
    finite, and V is above 0, at every bus of the slack's island by
    ``GridRecord.islands``, and so are P, Q and the loss of every
    in-service branch row there. Else raises ValueError naming the record
    and the first bus, then the first branch row, at fault. Buses and rows
    the record's own breakers cut off may hold the NaNs
    ``GridRecord.from_solution`` writes for an island with no slack and no
    generator; a record with no branch table is one island, so every bus
    must be finite. The islands are searched, and returned for the
    detector to reuse, when ``search`` and the record has branch rows, or
    when a value is not finite or V not above 0; else None."""
    snap = record.snapshot(case.base_mva)
    if snap.buses != case.buses:
        bus = min(set(snap.buses) ^ case.ids)
        what = "missing" if bus in case.ids else "unexpected"
        raise ValueError(
            f"record {record.source!r}: bus {bus} {what}; the model has buses 1..{len(case.buses)}"
        )
    table = record.branch_table(case.ids)
    bad = snap.bad or not table.live_finite
    islands = record.islands(table) if bad or (search and record.branches) else None
    if bad:
        energized = next(isl for isl in islands if case.slack in isl)
        for r in snap.bad:
            if r.bus in energized:
                name = next((f for f in _BUS_FIELDS if not isfinite(getattr(r, f))), None)
                if name is None:
                    raise ValueError(
                        f"record {record.source!r}: non-positive v_pu {r.v_pu} at bus {r.bus}"
                    )
                raise ValueError(f"record {record.source!r}: non-finite {name} at bus {r.bus}")
        for br in table.live:
            name = next((f for f in _BRANCH_FIELDS if not isfinite(getattr(br, f))), None)
            if name is not None and br.from_bus in energized:
                raise ValueError(f"record {record.source!r}: non-finite {name} "
                                 f"on branch {br.from_bus}-{br.to_bus}")
    return snap, table, islands


def _bdd_for(
    record: GridRecord,
    baseline: GridRecord,
    snapshots: tuple[BusSnapshot, BusSnapshot],
    case: _Case,
    paper_compat: bool,
) -> BddVerdict:
    """Residual-test verdict for a snapshot, given the (record, baseline)
    ``snapshots``. The threshold is the ``BDD_ALPHA`` chi-square quantile
    at df = m - n_state of the compiled standard model, or the paper's
    under ``paper_compat``.

    Post-estimation records were validated before corruption, so their
    stored chi-square (or their baseline's) applies; measurement-stage
    snapshots are re-estimated from their bus table, on the standard
    layout at the default sigmas: the ``measurements_from_record`` channels
    of the record, taken from its snapshot as arrays. A stored chi-square
    or stage that ``GridRecord.extra`` rejects raises ValueError.
    """
    post_se = record.extra("stage") == "post-se"
    j = record.extra("bdd_chi2")
    if j is None and post_se:
        j = baseline.extra("bdd_chi2")
    if j is None:
        target, snap = (baseline, snapshots[1]) if post_se else (record, snapshots[0])
        z = _injections(snap)
        try:
            _check_finite(case.layout, z, case.sig)
            j = _estimate(case.mm, z, case.sig).j_value
        except EstimationError as exc:
            raise type(exc)(f"record {target.source!r}: {exc}") from None
    threshold = PAPER_CHI2_THRESHOLD if paper_compat else chi_square_threshold(case.df, BDD_ALPHA)
    return BddVerdict(flagged=j > threshold, threshold=threshold, j_value=float(j))


def run_pipeline(
    baseline: GridRecord,
    attacked: GridRecord | AttackVector,
    model: NetworkModel | None = None,
    baseline_stats: BaselineStats | None = None,
    config: RuleConfig | None = None,
    paper_compat: bool = False,
) -> PipelineReport:
    """Estimation -> residual test -> features -> rules -> classification,
    with a deterministic JSON report and a readable text rendering. The
    residual test is ``_bdd_for``'s. A record that does not fit the model
    raises ValueError (see ``_check_record``), and one WLS cannot estimate
    an EstimationError naming the record."""
    if model is None:
        model = build_ieee14()
    cfg = config or RuleConfig()
    case = derived(model, _case)
    base_snap, base_table, _ = _check_record(baseline, case, search=False)
    if not isinstance(attacked, GridRecord):
        attacked = attacked.apply_to_record(baseline, base_mva=model.base_mva)
    snap, table, islands = _check_record(attacked, case, search=True)

    # One snapshot and one branch table per record and at most one island
    # search: the residual test, the features, the rules and the totals
    # share them, and the rules read the attacked record's correlations
    # from its features.
    snapshots = (snap, base_snap)
    bdd = _bdd_for(attacked, baseline, snapshots, case, paper_compat)

    features, feature = None, {"chi2": None, "threshold": None}
    if baseline_stats is not None:
        features = extract_features(snapshots[0])
        feature = {
            "chi2": round(baseline_stats.mahalanobis(features), 6),
            "threshold": round(PAPER_CHI2_THRESHOLD if paper_compat else baseline_stats.threshold, 6),
        }

    island_report = analyze_record_islands(attacked, cfg, islands=islands, table=table)
    findings = rule_battery(
        attacked, baseline, cfg, model=model, island_report=island_report,
        snapshots=snapshots, features=features, tables=(table, base_table),
    )
    verdict = classify(bdd, findings, island_report=island_report)

    totals = {
        "generation_before_mw": round(base_snap.generation_mw, 4),
        "generation_after_mw": round(snap.generation_mw, 4),
        "load_before_mw": round(base_snap.load_mw, 4),
        "load_after_mw": round(snap.load_mw, 4),
    }
    loss_before = base_table.loss_mw
    loss_after = table.loss_mw
    if loss_before is not None and loss_after is not None:
        totals["loss_before_mw"] = round(loss_before, 4)
        totals["loss_after_mw"] = round(loss_after, 4)

    report = {
        "baseline": baseline.source,
        "snapshot": attacked.source,
        "class": verdict.klass.value,
        "bdd": {
            "chi2": round(bdd.j_value, 6),
            "threshold": round(bdd.threshold, 6),
            "flagged": bdd.flagged,
        },
        "feature": feature,
        "totals": totals,
        "findings": [
            {
                "rule": f.rule.value,
                "severity": f.severity.value,
                "message": f.message,
                "data": {
                    k: (round(v, 6) if isinstance(v, float) else v)
                    for k, v in sorted(f.data.items())
                },
            }
            for f in findings
        ],
    }
    return PipelineReport(verdict=verdict, report=report, text=_render_text(report))


def _render_text(report: dict) -> str:
    lines = [
        f"=== Detection report: {report['snapshot']} vs {report['baseline']} ===",
        "Residual test: chi2 = {chi2:g} vs threshold {thr:g} -> {out}".format(
            chi2=report["bdd"]["chi2"],
            thr=report["bdd"]["threshold"],
            out="BAD DATA" if report["bdd"]["flagged"] else "passed",
        ),
    ]
    if report["feature"]["chi2"] is not None:
        lines.append(
            "Feature-space chi2: {c:g} (threshold {t:g})".format(
                c=report["feature"]["chi2"], t=report["feature"]["threshold"]
            )
        )
    t = report["totals"]
    lines.append(
        "Totals: generation {gb:g} -> {ga:g} MW, load {lb:g} -> {la:g} MW".format(
            gb=t["generation_before_mw"], ga=t["generation_after_mw"],
            lb=t["load_before_mw"], la=t["load_after_mw"],
        )
    )
    if "loss_before_mw" in t:
        lines.append(
            "System losses: {b:g} -> {a:g} MW".format(
                b=t["loss_before_mw"], a=t["loss_after_mw"]
            )
        )
    lines.append(f"Classification: {report['class']}")
    if report["findings"]:
        lines.append("Findings:")
        for f in report["findings"]:
            lines.append(f"  [{f['severity']}] {f['rule']}: {f['message']}")
    else:
        lines.append("Findings: none")
    return "\n".join(lines) + "\n"
