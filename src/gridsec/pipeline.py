"""End-to-end detection pipeline: estimation, residual test, features,
physics rules, and classification over a (baseline, snapshot) record pair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

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
    MeasurementSet,
    _checked,
    _estimate,
    standard_channels,
)
from .measmodel import compiled
from .network import NetworkModel, build_ieee14
from .records import BusSnapshot, GridRecord
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


def _check_record(record: GridRecord, model: NetworkModel) -> list[frozenset[int]] | None:
    """Raise ValueError unless ``record`` fits ``model``: its bus table
    lists exactly buses 1..n, its branch rows name only those buses, and
    V, theta, P and Q are finite, and V is above 0, at every bus of the
    slack's island by ``GridRecord.islands``. Buses the record's own
    breakers cut off may hold the NaN rows ``GridRecord.from_solution``
    writes for an island with no slack and no generator; a record with no
    branch table is one island, so every bus must be finite. Only a record
    with a non-finite or non-positive row has its islands searched; it
    returns them, for the detector to reuse, and any other returns None."""
    ids = {r.bus for r in record.buses}
    expected = set(range(1, model.n_bus + 1))
    if ids != expected:
        bus = min(ids ^ expected)
        what = "missing" if bus in expected else "unexpected"
        raise ValueError(
            f"record {record.source!r}: bus {bus} {what}; the model has buses 1..{model.n_bus}"
        )
    bad = [
        r for r in record.buses
        if not (all(map(math.isfinite, (r.v_pu, r.theta_deg, r.p_mw, r.q_mvar))) and r.v_pu > 0)
    ]
    if not bad:
        record.check_branches()
        return None
    islands = record.islands()
    slack = model.buses[model.slack_index].id
    energized = next(isl for isl in islands if slack in isl)
    for r in sorted(bad, key=lambda r: r.bus):
        if r.bus in energized:
            fields = ("v_pu", "theta_deg", "p_mw", "q_mvar")
            name = next((f for f in fields if not math.isfinite(getattr(r, f))), None)
            if name is None:
                raise ValueError(
                    f"record {record.source!r}: non-positive v_pu {r.v_pu} at bus {r.bus}"
                )
            raise ValueError(f"record {record.source!r}: non-finite {name} at bus {r.bus}")
    return islands


def _bdd_for(
    record: GridRecord,
    baseline: GridRecord,
    snapshots: tuple[BusSnapshot, BusSnapshot],
    model: NetworkModel,
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
    layout, sig = standard_channels(model.n_bus)
    j = record.extra("bdd_chi2")
    if j is None and post_se:
        j = baseline.extra("bdd_chi2")
    if j is None:
        target, snap = (baseline, snapshots[1]) if post_se else (record, snapshots[0])
        z = _injections(snap)
        try:
            mm = _checked(model, None, layout, z, sig)
            j = _estimate(mm, z, sig).j_value
        except EstimationError as exc:
            raise type(exc)(f"record {target.source!r}: {exc}") from None
    else:
        mm = compiled(model, None, layout)
    df = len(layout) - mm.n_state
    threshold = PAPER_CHI2_THRESHOLD if paper_compat else chi_square_threshold(df, BDD_ALPHA)
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
    _check_record(baseline, model)
    if not isinstance(attacked, GridRecord):
        attacked = attacked.apply_to_record(baseline, base_mva=model.base_mva)
    islands = _check_record(attacked, model)

    # One snapshot per record and at most one island search: the residual
    # test, the features and the rules share them, and the rules read the
    # attacked record's correlations from its features.
    snapshots = (attacked.snapshot(model.base_mva), baseline.snapshot(model.base_mva))
    bdd = _bdd_for(attacked, baseline, snapshots, model, paper_compat)

    features, feature = None, {"chi2": None, "threshold": None}
    if baseline_stats is not None:
        features = extract_features(snapshots[0])
        feature = {
            "chi2": round(baseline_stats.mahalanobis(features), 6),
            "threshold": round(PAPER_CHI2_THRESHOLD if paper_compat else baseline_stats.threshold, 6),
        }

    island_report = analyze_record_islands(attacked, cfg, islands=islands)
    findings = rule_battery(
        attacked, baseline, cfg, model=model, island_report=island_report,
        snapshots=snapshots, features=features,
    )
    verdict = classify(bdd, findings, island_report=island_report)

    totals = {
        "generation_before_mw": round(baseline.total_generation_mw, 4),
        "generation_after_mw": round(attacked.total_generation_mw, 4),
        "load_before_mw": round(baseline.total_load_mw, 4),
        "load_after_mw": round(attacked.total_load_mw, 4),
    }
    loss_before = baseline.total_loss_mw
    loss_after = attacked.total_loss_mw
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
