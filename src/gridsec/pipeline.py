"""End-to-end detection pipeline: estimation, residual test, features,
physics rules, and classification over a (baseline, snapshot) record pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .detection import (
    BaselineStats,
    DetectionVerdict,
    PairReading,
    RuleConfig,
    classify,
    features,
    read_pair,
    rule_battery,
)
from .estimation import (
    BddVerdict,
    EstimationError,
    MeasurementSet,
    estimate,
    standard_channels,
)
from .measmodel import MeasurementModel, compiled
from .network import NetworkModel, build_ieee14, derived
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


def _standard_model(model: NetworkModel) -> MeasurementModel:
    """The standard layout compiled on the model's own breakers; read it
    once per model object through ``derived(model, _standard_model)``."""
    return compiled(model, None, standard_channels(model.n_bus)[0])


def _bdd_for(reading: PairReading, mm: MeasurementModel, paper_compat: bool) -> BddVerdict:
    """Residual-test verdict for the snapshot of ``reading``. The threshold
    is the ``BDD_ALPHA`` chi-square quantile at df = m - n_state of the
    compiled standard model ``mm``, or the paper's under ``paper_compat``.

    Post-estimation records were validated before corruption, so their
    stored chi-square (or their baseline's) applies; measurement-stage
    snapshots are re-estimated from their bus table, on the standard
    layout at the default sigmas: the ``measurements_from_record`` channels
    of the record, taken from its snapshot as arrays. A stored chi-square
    or stage that ``GridRecord.extra`` rejects raises ValueError.
    """
    record, baseline = reading.record, reading.baseline
    post_se = record.extra("stage") == "post-se"
    j = record.extra("bdd_chi2")
    if j is None and post_se:
        j = baseline.extra("bdd_chi2")
    if j is None:
        target, snap = (baseline, reading.base) if post_se else (record, reading.snap)
        try:
            j = estimate(mm, _injections(snap), standard_channels(mm.n_bus)[1]).j_value
        except EstimationError as exc:
            raise type(exc)(f"record {target.source!r}: {exc}") from None
    threshold = PAPER_CHI2_THRESHOLD if paper_compat else chi_square_threshold(mm.n_rows - mm.n_state, BDD_ALPHA)
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
    with a deterministic JSON report and a readable text rendering, all
    from one ``read_pair`` reading. The residual test is ``_bdd_for``'s. A
    record that does not fit the model raises ValueError (see
    ``read_pair``), and one WLS cannot estimate an EstimationError naming
    the record."""
    if model is None:
        model = build_ieee14()
    if not isinstance(attacked, GridRecord):
        attacked = attacked.apply_to_record(baseline, base_mva=model.base_mva)
    reading = read_pair(attacked, baseline, model, config)
    bdd = _bdd_for(reading, derived(model, _standard_model), paper_compat)

    feature = {"chi2": None, "threshold": None}
    if baseline_stats is not None:
        feature = {
            "chi2": round(baseline_stats.mahalanobis(features(reading.snap, reading.moments)), 6),
            "threshold": round(PAPER_CHI2_THRESHOLD if paper_compat else baseline_stats.threshold, 6),
        }

    findings = rule_battery(reading)
    verdict = classify(bdd, findings, island_report=reading.island_report)

    snap, base_snap = reading.snap, reading.base
    totals = {
        "generation_before_mw": round(base_snap.generation_mw, 4),
        "generation_after_mw": round(snap.generation_mw, 4),
        "load_before_mw": round(base_snap.load_mw, 4),
        "load_after_mw": round(snap.load_mw, 4),
    }
    loss_before = reading.base_table.loss_mw
    loss_after = reading.table.loss_mw
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
