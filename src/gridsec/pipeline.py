"""End-to-end detection pipeline: estimation, residual test, features,
physics rules, and classification over a (baseline, snapshot) record pair.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
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
    Measurement,
    MeasurementSet,
    _checked,
    _estimate,
    standard_layout,
)
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
    v, _, p, q = record.arrays()
    return MeasurementSet(standard_layout(v, -p / base_mva, -q / base_mva))


def _check_record(record: GridRecord, model: NetworkModel) -> list[frozenset[int]]:
    """The record's ``GridRecord.islands``, for the detector to reuse.
    Raise ValueError unless ``record`` fits ``model``: its bus table
    lists exactly buses 1..n, its branch rows name only those buses, and
    V, theta, P and Q are finite, and V is above 0, at every bus of the
    slack's island by ``GridRecord.islands``. Buses the record's own
    breakers cut off may hold the NaN rows ``GridRecord.from_solution``
    writes for an island with no slack and no generator; a record with no
    branch table is one island, so every bus must be finite."""
    ids = {r.bus for r in record.buses}
    expected = set(range(1, model.n_bus + 1))
    if ids != expected:
        bus = min(ids ^ expected)
        what = "missing" if bus in expected else "unexpected"
        raise ValueError(
            f"record {record.source!r}: bus {bus} {what}; the model has buses 1..{model.n_bus}"
        )
    islands = record.islands()
    bad = [
        r for r in record.buses
        if not (all(map(math.isfinite, (r.v_pu, r.theta_deg, r.p_mw, r.q_mvar))) and r.v_pu > 0)
    ]
    if not bad:
        return islands
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
    threshold: float,
) -> BddVerdict:
    """Residual-test verdict for a snapshot, given the (record, baseline)
    ``snapshots``.

    Post-estimation records were validated before corruption, so their
    stored chi-square (or their baseline's) applies; measurement-stage
    snapshots are re-estimated from their bus table, on the standard
    layout at the default sigmas: the ``measurements_from_record`` channels
    of the record, taken from its snapshot as arrays.
    """
    stage = str(record.extras.get("stage", "measurement"))
    sources = [record, baseline] if stage == "post-se" else [record]
    for source in sources:
        if "bdd_chi2" in source.extras:
            j = float(source.extras["bdd_chi2"])
            return BddVerdict(flagged=j > threshold, threshold=threshold, j_value=j)
    target, snap = (baseline, snapshots[1]) if stage == "post-se" else (record, snapshots[0])
    layout, sig = _standard_channels(model.n_bus)
    # (-p)/b is -(p/b) exactly, so these are the values of measurements_from_record.
    z = np.concatenate((snap.v, -snap.p, -snap.q))
    try:
        result = _estimate(_checked(model, None, layout, z, sig), z, sig)
    except EstimationError as exc:
        raise type(exc)(f"record {target.source!r}: {exc}") from None
    return BddVerdict(
        flagged=result.j_value > threshold, threshold=threshold, j_value=result.j_value
    )


@functools.lru_cache(maxsize=4)
def _standard_channels(n_bus: int) -> tuple[tuple[Measurement, ...], np.ndarray]:
    """The standard layout of ``n_bus`` buses at the default sigmas (its
    values are 0 and nothing reads them) and its sigma vector, read-only:
    built once, since every measurement-stage record of a model shares it."""
    zeros = np.zeros(n_bus)
    layout = tuple(standard_layout(zeros, zeros, zeros))
    sig = np.array([m.sigma for m in layout])
    sig.flags.writeable = False
    return layout, sig


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
    residual test's threshold is the ``BDD_ALPHA`` chi-square quantile, or
    the paper's under ``paper_compat``. A record
    that does not fit the model raises ValueError (see ``_check_record``),
    and one WLS cannot estimate an EstimationError naming the record."""
    if model is None:
        model = build_ieee14()
    cfg = config or RuleConfig()
    _check_record(baseline, model)
    if not isinstance(attacked, GridRecord):
        attacked = attacked.apply_to_record(baseline, base_mva=model.base_mva)
    islands = _check_record(attacked, model)

    m = 3 * model.n_bus
    df = m - (2 * model.n_bus - 1)
    threshold = PAPER_CHI2_THRESHOLD if paper_compat else chi_square_threshold(df, BDD_ALPHA)
    # One snapshot and one island search per record: the residual test,
    # the features and the rules share them, and the rules read the
    # attacked record's correlations from its features.
    snapshots = (attacked.snapshot(model.base_mva), baseline.snapshot(model.base_mva))
    bdd = _bdd_for(attacked, baseline, snapshots, model, threshold)

    features = feature_chi2 = feature_threshold = None
    if baseline_stats is not None:
        features = extract_features(snapshots[0])
        feature_chi2 = baseline_stats.mahalanobis(features)
        feature_threshold = (
            PAPER_CHI2_THRESHOLD if paper_compat else baseline_stats.threshold
        )

    island_report = analyze_record_islands(attacked, cfg, islands=islands)
    findings = rule_battery(
        attacked, baseline, cfg, model=model, island_report=island_report,
        snapshots=snapshots, features=features,
    )
    verdict = classify(
        bdd,
        findings,
        island_report=island_report,
        feature_chi2=feature_chi2,
        feature_threshold=feature_threshold,
    )

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
        "feature": {
            "chi2": None if feature_chi2 is None else round(feature_chi2, 6),
            "threshold": None if feature_threshold is None else round(feature_threshold, 6),
        },
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
