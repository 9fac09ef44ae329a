"""Deterministic anomaly detector: 71-dimensional feature extraction,
covariance-based scoring against a fitted normal baseline, a battery of
physics rules, and the final verdict classifier.

Feature layout (71 = 42 + 8 + 3 + 5 + 13):
  direct      V1..V14, P1..P14, Q1..Q14
  statistical mean/std/min/max of V, mean/std/min/max of P
  correlation corr(V,P), corr(V,Q), corr(P,Q) across buses
  physics     P_total, Q_total, power factor, NERC-band margin, |net P|
  gradient    V2-V1, ..., V14-V13

Per-record work is done once per verdict. ``pipeline.run_pipeline``
builds each record's ``GridRecord.snapshot`` and ``GridRecord.islands``
once (the islands while it checks the record) and hands them on.
``_moments`` computes a snapshot's channel sums, means, stds and
correlations once: for the attacked snapshot inside ``extract_features``,
whose correlation block the CorrelationShift rule then reads; for the
baseline inside ``rule_battery``. ``analyze_record_islands`` reuses the
islands it is given. The rules loop over buses on Python floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

import numpy as np

from .findings import Finding, Rule, Severity
from .records import BusSnapshot, GridRecord

if TYPE_CHECKING:
    from .estimation import BddVerdict

__all__ = [
    "FEATURE_DIM",
    "FEATURE_NAMES",
    "FeatureVector",
    "BaselineStats",
    "extract_features",
    "fit_baseline",
    "Rule",
    "Severity",
    "Finding",
    "RuleConfig",
    "rule_battery",
    "IslandRecordReport",
    "analyze_record_islands",
    "VerdictClass",
    "DetectionVerdict",
    "classify",
]

N_BUS = 14
FEATURE_DIM = 71

DIRECT = slice(0, 42)
STATISTICAL = slice(42, 50)
CORRELATION = slice(50, 53)
PHYSICS = slice(53, 58)
GRADIENT = slice(58, 71)

FEATURE_NAMES: tuple[str, ...] = tuple(
    [f"V{b}" for b in range(1, 15)]
    + [f"P{b}" for b in range(1, 15)]
    + [f"Q{b}" for b in range(1, 15)]
    + ["mu_V", "sigma_V", "min_V", "max_V", "mu_P", "sigma_P", "min_P", "max_P"]
    + ["rho_VP", "rho_VQ", "rho_PQ"]
    + ["P_total", "Q_total", "power_factor", "V_stability", "P_imbalance"]
    + [f"gradV_{b}_{b + 1}" for b in range(1, 14)]
)

NERC_BAND = (0.95, 1.05)


@dataclass
class FeatureVector:
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (FEATURE_DIM,):
            raise ValueError(f"feature vector must have {FEATURE_DIM} entries")

    def block(self, sl: slice) -> np.ndarray:
        return self.values[sl]

    def named(self) -> dict[str, float]:
        return dict(zip(FEATURE_NAMES, map(float, self.values)))


class _Moments(NamedTuple):
    """One snapshot's channel sums, means and population stds, in V, P, Q
    order, and its cross-bus correlations corr(V,P), corr(V,Q), corr(P,Q)."""

    total: tuple[float, float, float]
    mean: tuple[float, float, float]
    std: tuple[float, float, float]
    rho: tuple[float, float, float]


def _moments(snapshot: BusSnapshot) -> _Moments:
    """Each channel's sum, mean, std and centred deviations once, in the
    floating-point operations of ``np.mean`` and ``np.std`` (a pairwise sum
    over n; the root of the summed squared deviations over n), so the
    features stay bit-identical to those expressions. A correlation is the
    mean product of two channels' deviations over the product of their
    stds, and 0.0 when either channel is constant."""
    n = len(snapshot.v)
    total, mean, std, dev = [], [], [], []
    for x in (snapshot.v, snapshot.p, snapshot.q):
        s = x.sum()
        d = x - s / n
        total.append(float(s))
        mean.append(float(s / n))
        std.append(math.sqrt((d * d).sum() / n))
        dev.append(d)
    rho = tuple(
        0.0 if std[a] == 0.0 or std[b] == 0.0
        else float((dev[a] * dev[b]).sum() / n / (std[a] * std[b]))
        for a, b in ((0, 1), (0, 2), (1, 2))
    )
    return _Moments(tuple(total), tuple(mean), tuple(std), rho)


def extract_features(snapshot: BusSnapshot) -> FeatureVector:
    """Deterministic 71-vector from one bus-level V/P/Q snapshot."""
    v, p, q = snapshot.v, snapshot.p, snapshot.q
    if len(v) != N_BUS:
        raise ValueError(f"snapshot must cover {N_BUS} buses, got {len(v)}")
    m = _moments(snapshot)
    (mu_v, mu_p, _), (sigma_v, sigma_p, _) = m.mean, m.std
    _, p_total, q_total = m.total
    apparent = math.hypot(p_total, q_total)
    pf = p_total / apparent if apparent > 0 else 1.0
    v_stability = float(np.minimum(v - NERC_BAND[0], NERC_BAND[1] - v).min())
    scalars = [
        mu_v, sigma_v, v.min(), v.max(), mu_p, sigma_p, p.min(), p.max(),  # statistical
        *m.rho,  # correlation
        p_total, q_total, pf, v_stability, abs(p_total),  # physics
    ]
    return FeatureVector(np.concatenate([v, p, q, scalars, v[1:] - v[:-1]]))


@dataclass
class BaselineStats:
    """Normal-operation feature statistics.

    Covariance is regularized by diagonal loading in a per-feature
    standardized space, which keeps the distance invariant under any
    consistent per-channel rescaling (e.g. MW vs p.u.).
    """

    mu: np.ndarray
    scale: np.ndarray
    cov_std: np.ndarray  # regularized covariance of standardized features
    lam: float
    source: tuple[str, ...] = ()
    train_max_maha: float = 0.0
    _eig: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def sigma(self) -> np.ndarray:
        s = np.diag(self.scale)
        return s @ self.cov_std @ s

    @property
    def threshold(self) -> float:
        """Score above which a snapshot no longer looks like training data."""
        return self.train_max_maha * 1.1

    def mahalanobis(self, features: FeatureVector) -> float:
        if self._eig is None:
            w, vec = np.linalg.eigh(self.cov_std)
            object.__setattr__(self, "_eig", (w, vec))
        w, vec = self._eig
        z = (features.values - self.mu) / self.scale
        proj = vec.T @ z
        return float(np.sum(proj * proj / w))


_COND_TARGET = 1e6
_LAM_FLOOR = 1e-9


def fit_baseline(
    snapshots: Sequence[BusSnapshot], source: Iterable[str] = ()
) -> BaselineStats:
    """Sample mean plus shrinkage-regularized covariance over >= 2 normal
    snapshots; diagonal loading is chosen so the condition number of the
    standardized covariance stays at or below 1e6."""
    if len(snapshots) < 2:
        raise ValueError("baseline fitting needs at least 2 snapshots")
    feats = np.array([extract_features(s).values for s in snapshots])
    mu = feats.mean(axis=0)
    std = feats.std(axis=0)
    # Features that move by less than 0.1% of their magnitude across the
    # training set are effectively constants; their raw std is solver and
    # rounding noise, unusable as a deviation scale.
    floor = 1e-3 * np.abs(mu)
    scale = np.maximum(std, floor)
    scale = np.where(scale > 0, scale, 1.0)
    z = (feats - mu) / scale
    cov = np.cov(z, rowvar=False, ddof=1)
    eig = np.linalg.eigvalsh(cov)
    lam_max, lam_min = float(eig[-1]), float(max(eig[0], 0.0))
    lam = _LAM_FLOOR
    if lam_max > 0 and (lam_min <= 0 or lam_max / lam_min > _COND_TARGET):
        lam = max((lam_max - _COND_TARGET * lam_min) / (_COND_TARGET - 1.0), _LAM_FLOOR)
    cov_reg = cov + lam * np.eye(FEATURE_DIM)
    stats = BaselineStats(
        mu=mu, scale=scale, cov_std=cov_reg, lam=lam, source=tuple(source)
    )
    stats.train_max_maha = max(
        stats.mahalanobis(FeatureVector(f)) for f in feats
    )
    return stats


def baseline_to_json(stats: BaselineStats) -> str:
    import json

    return json.dumps(
        {
            "mu": stats.mu.tolist(),
            "scale": stats.scale.tolist(),
            "cov_std": stats.cov_std.tolist(),
            "lam": stats.lam,
            "source": list(stats.source),
            "train_max_maha": stats.train_max_maha,
        },
        sort_keys=True,
    )


def baseline_from_json(text: str) -> BaselineStats:
    """Parse ``baseline_to_json`` output. Malformed JSON or a missing
    required key raises ValueError."""
    import json

    doc = json.loads(text)
    try:
        return BaselineStats(
            mu=np.asarray(doc["mu"], dtype=float),
            scale=np.asarray(doc["scale"], dtype=float),
            cov_std=np.asarray(doc["cov_std"], dtype=float),
            lam=float(doc["lam"]),
            source=tuple(doc.get("source", ())),
            train_max_maha=float(doc.get("train_max_maha", 0.0)),
        )
    except KeyError as exc:
        raise ValueError(f"baseline statistics lack key {exc}") from None


@dataclass
class RuleConfig:
    """Physics-rule constants. Values seed from the observed behaviour of
    the 14-bus study and are overridable from a key=value config file."""

    sensitivity_low: float = 0.77
    sensitivity_high: float = 1.07
    sensitivity_min_dv: float = 0.01  # p.u.
    sensitivity_min_dp: float = 0.01  # p.u.
    ramp_limit: float = 0.10  # fraction of |P| per snapshot interval
    ramp_min_base: float = 0.01  # p.u., skip near-zero dispatch
    zip_alpha_low: float = 0.5
    zip_alpha_high: float = 2.0
    zip_min_dp_frac: float = 0.05
    zip_small_dv_frac: float = 0.005
    entropy_major_dp: float = 0.05  # p.u., split major vs compensating
    entropy_fraction: float = 0.95  # flag when H > fraction * ln(count)
    entropy_min_count: int = 3
    gradient_max: float = 0.020  # p.u. between adjacent bus numbers
    signflip_min_mw: float = 1.0
    loss_ratio_max: float = 1.5
    flow_tol_mw: float = 0.5
    balance_tol_mw: float = 1.0
    volt_dev_warn: float = 0.005  # relative
    volt_dev_violation: float = 0.05
    corr_shift_warn: float = 0.3
    corr_shift_violation: float = 0.5
    generator_buses: tuple[int, ...] = (1, 2, 3, 6, 8)

    @classmethod
    def from_file(cls, path) -> "RuleConfig":
        """Parse a flat key = value file (comments with '#')."""
        import pathlib

        cfg = cls()
        for line in pathlib.Path(path).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if not hasattr(cfg, key):
                raise KeyError(f"unknown config key '{key}'")
            current = getattr(cfg, key)
            if isinstance(current, tuple):
                setattr(cfg, key, tuple(int(x) for x in val.split(",") if x))
            elif isinstance(current, int) and not isinstance(current, bool):
                setattr(cfg, key, int(val))
            else:
                setattr(cfg, key, float(val))
        return cfg


def _div(a: float, b: float) -> float:
    """``a / b`` as float64 divides it: a zero divisor gives +-inf, or nan
    for a zero or nan numerator, with numpy's RuntimeWarning, where Python
    floats raise ZeroDivisionError."""
    if b:
        return a / b
    return float(np.float64(a) / b)


def rule_battery(
    record: GridRecord,
    baseline: GridRecord,
    config: RuleConfig | None = None,
    base_mva: float = 100.0,
    island_report: IslandRecordReport | None = None,
    snapshots: tuple[BusSnapshot, BusSnapshot] | None = None,
    features: FeatureVector | None = None,
) -> list[Finding]:
    """Evaluate every physics rule of a snapshot against its baseline, in a
    fixed deterministic order. The IslandBalance rule reads
    ``island_report``, found with ``analyze_record_islands`` when None.
    ``snapshots`` are ``(record.snapshot(base_mva), baseline.snapshot(base_mva))``,
    built here when None. ``features`` are ``extract_features`` of the
    first; the CorrelationShift rule reads their correlations, or computes
    them when None."""
    cfg = config or RuleConfig()
    findings: list[Finding] = []
    if snapshots is None:
        snapshots = (record.snapshot(base_mva), baseline.snapshot(base_mva))
    snap, base = snapshots
    # The rules loop over buses on Python floats; the elementwise
    # differences are the same IEEE operations as on the arrays.
    sv, sp = snap.v.tolist(), snap.p.tolist()
    bv, bp = base.v.tolist(), base.p.tolist()
    dv = (snap.v - base.v).tolist()
    dp = (snap.p - base.p).tolist()

    # SensitivityBound: implied dP/dV where both moved appreciably.
    for i, (d_v, d_p) in enumerate(zip(dv, dp)):
        if abs(d_v) >= cfg.sensitivity_min_dv and abs(d_p) >= cfg.sensitivity_min_dp:
            ratio = _div(d_p, d_v)
            if not cfg.sensitivity_low <= ratio <= cfg.sensitivity_high:
                findings.append(
                    Finding(
                        Rule.SENSITIVITY_BOUND,
                        Severity.VIOLATION,
                        f"bus {i + 1}: dP/dV = {ratio:.3f} outside "
                        f"[{cfg.sensitivity_low}, {cfg.sensitivity_high}]",
                        {"bus": i + 1, "ratio": ratio, "dp": d_p, "dv": d_v},
                    )
                )

    # RampRate: instantaneous output change at generator buses.
    for b in cfg.generator_buses:
        i = b - 1
        if i >= len(dp):
            continue
        if abs(bp[i]) < cfg.ramp_min_base:
            continue
        frac = _div(dp[i], abs(bp[i]))
        if abs(frac) > cfg.ramp_limit:
            findings.append(
                Finding(
                    Rule.RAMP_RATE,
                    Severity.VIOLATION,
                    f"bus {b}: {frac * 100:+.1f}% instantaneous power change "
                    f"exceeds the {cfg.ramp_limit * 100:.0f}% ramp capability",
                    {"bus": b, "pct": frac * 100},
                )
            )

    # ZipViolation: load response must stay within P ~ V^alpha. A bus whose
    # V or P is not finite in either record (a dead island) has none to judge.
    for i, (d_v, d_p) in enumerate(zip(dv, dp)):
        b = i + 1
        if b in cfg.generator_buses or not (math.isfinite(d_v) and math.isfinite(d_p)):
            continue
        if abs(bp[i]) < 1e-9:
            continue
        dp_frac = d_p / abs(bp[i])
        if abs(dp_frac) < cfg.zip_min_dp_frac:
            continue
        dv_frac = abs(d_v) / max(bv[i], 1e-9)
        alpha: float | None = None
        if dv_frac < cfg.zip_small_dv_frac:
            violated = True  # large power move at essentially constant voltage
        else:
            if sp[i] * bp[i] <= 0:
                violated = True
            else:
                alpha = math.log(sp[i] / bp[i]) / math.log(_div(sv[i], bv[i]))
                violated = not cfg.zip_alpha_low <= alpha <= cfg.zip_alpha_high
        if violated:
            data: dict[str, float | int | str] = {
                "bus": b,
                "dp_pct": dp_frac * 100,
                "dv_pct": dv_frac * 100,
            }
            if alpha is not None:
                data["alpha"] = alpha
            findings.append(
                Finding(
                    Rule.ZIP_VIOLATION,
                    Severity.VIOLATION,
                    f"bus {b}: {dp_frac * 100:+.1f}% power change at "
                    f"{dv_frac * 100:.2f}% voltage change breaks the ZIP load response",
                    data,
                )
            )

    # CompensationEntropy: near-uniform small adjustments smell coordinated.
    minor = [abs(x) for x in dp if 1e-9 < abs(x) < cfg.entropy_major_dp]
    if len(minor) >= cfg.entropy_min_count:
        total = 0.0
        for x in minor:  # left to right; sum() of floats compensates from Python 3.12
            total += x
        weights = np.array(minor) / total
        entropy = float(-(weights * np.log(weights)).sum())
        limit = cfg.entropy_fraction * math.log(len(minor))
        if entropy > limit:
            findings.append(
                Finding(
                    Rule.COMPENSATION_ENTROPY,
                    Severity.VIOLATION,
                    f"{len(minor)} small power adjustments are near-uniform "
                    f"(entropy {entropy:.3f} > {limit:.3f}): artificial coordination",
                    {"count": len(minor), "entropy": entropy, "limit": limit},
                )
            )

    # GradientCoherence: adjacent-bus voltage gradients that jumped.
    g_att = np.diff(snap.v).tolist()
    g_base = np.diff(base.v).tolist()
    for k, (ga, gb) in enumerate(zip(g_att, g_base)):
        if abs(ga - gb) > cfg.gradient_max and abs(ga) > cfg.gradient_max:
            findings.append(
                Finding(
                    Rule.GRADIENT_COHERENCE,
                    Severity.VIOLATION,
                    f"voltage gradient between buses {k + 1}-{k + 2} is "
                    f"{ga:.3f} p.u.; historical ceiling is {cfg.gradient_max:.3f}",
                    {"bus_from": k + 1, "bus_to": k + 2,
                     "gradient": ga, "baseline_gradient": gb},
                )
            )

    # SignFlip: consumption turning into generation (or back) in the record.
    floor = cfg.signflip_min_mw
    for rb, ra in zip(
        sorted(baseline.buses, key=lambda r: r.bus), sorted(record.buses, key=lambda r: r.bus)
    ):
        if abs(rb.p_mw) >= floor and abs(ra.p_mw) >= floor and rb.p_mw * ra.p_mw < 0:
            role = "load to generator" if rb.p_mw > 0 else "generator to load"
            findings.append(
                Finding(
                    Rule.SIGN_FLIP,
                    Severity.VIOLATION,
                    f"bus {rb.bus} switched {role}: {rb.p_mw:.1f} -> {ra.p_mw:.1f} MW",
                    {"bus": rb.bus, "p_before_mw": rb.p_mw, "p_after_mw": ra.p_mw},
                )
            )

    # LossSurge: total branch losses jumping against the baseline.
    loss_b = baseline.total_loss_mw
    loss_a = record.total_loss_mw
    if loss_b is not None and loss_a is not None and loss_b > 1e-6:
        ratio = loss_a / loss_b
        if ratio > cfg.loss_ratio_max:
            findings.append(
                Finding(
                    Rule.LOSS_SURGE,
                    Severity.VIOLATION,
                    f"system losses {loss_b:.2f} -> {loss_a:.2f} MW "
                    f"(x{ratio:.2f}): stressed transmission",
                    {"loss_before_mw": loss_b, "loss_after_mw": loss_a,
                     "ratio": float(ratio)},
                )
            )

    # OpenBreakerFlow: flow through a breaker recorded as open.
    for br in record.branches:
        is_open = not br.in_service
        if is_open and (abs(br.p_mw) > cfg.flow_tol_mw or abs(br.q_mvar) > cfg.flow_tol_mw):
            findings.append(
                Finding(
                    Rule.OPEN_BREAKER_FLOW,
                    Severity.VIOLATION,
                    f"branch {br.from_bus}-{br.to_bus} is recorded open yet carries "
                    f"{br.p_mw:.1f} MW / {br.q_mvar:.1f} Mvar: an open breaker "
                    f"cannot conduct",
                    {"from": br.from_bus, "to": br.to_bus,
                     "p_mw": br.p_mw, "q_mvar": br.q_mvar, "loss_mw": br.loss_mw},
                )
            )

    # IslandBalance: per-island conservation from the record itself.
    if island_report is None:
        island_report = analyze_record_islands(record, cfg)
    if island_report is not None:
        for island, net in island_report.balances:
            if abs(net) > cfg.balance_tol_mw:
                findings.append(
                    Finding(
                        Rule.ISLAND_BALANCE,
                        Severity.VIOLATION,
                        f"island {sorted(island)} violates conservation by {net:+.1f} MW",
                        {"imbalance_mw": float(net),
                         "buses": ",".join(map(str, sorted(island)))},
                    )
                )

    # VoltageDeviation: displayed voltage drifting from the baseline.
    for i, d_v in enumerate(dv):
        rel = abs(d_v) / max(bv[i], 1e-9)
        if rel > cfg.volt_dev_warn:
            sev = Severity.VIOLATION if rel > cfg.volt_dev_violation else Severity.WARNING
            findings.append(
                Finding(
                    Rule.VOLTAGE_DEVIATION,
                    sev,
                    f"bus {i + 1} voltage {bv[i]:.4f} -> {sv[i]:.4f} p.u. "
                    f"({rel * 100:.2f}% deviation)",
                    {"bus": i + 1, "v_before": bv[i], "v_after": sv[i], "pct": rel * 100},
                )
            )

    # CorrelationShift: cross-channel correlation pattern moved.
    if features is None:
        rho_atts = _moments(snap).rho
    else:
        rho_atts = features.values[CORRELATION].tolist()
    for (a, b), rho_att, rho_base in zip(
        (("V", "P"), ("V", "Q"), ("P", "Q")), rho_atts, _moments(base).rho
    ):
        shift = abs(rho_att - rho_base)
        if shift > cfg.corr_shift_warn:
            sev = Severity.VIOLATION if shift > cfg.corr_shift_violation else Severity.WARNING
            findings.append(
                Finding(
                    Rule.CORRELATION_SHIFT,
                    sev,
                    f"{a}-{b} correlation moved {rho_base:.2f} -> {rho_att:.2f}",
                    {"pair": f"{a}{b}", "rho_before": rho_base, "rho_after": rho_att,
                     "shift": shift},
                )
            )
    return findings


@dataclass
class IslandRecordReport:
    islands: list[frozenset[int]]
    balances: list[tuple[frozenset[int], float]]
    all_balanced: bool  # every |balance| within ``RuleConfig.balance_tol_mw``
    all_flows_zero: bool
    breaker_pairs_consistent: bool


def analyze_record_islands(
    record: GridRecord,
    config: RuleConfig | None = None,
    islands: list[frozenset[int]] | None = None,
) -> IslandRecordReport | None:
    """Island structure implied by the record's breaker statuses:
    ``islands`` is ``record.islands()``, searched here when None. None for
    bus-only records."""
    if not record.branches:
        return None
    cfg = config or RuleConfig()
    if islands is None:
        islands = record.islands()
    balances = []
    for isl in islands:
        inj = sum(-r.p_mw for r in record.buses if r.bus in isl)
        loss = sum(
            br.loss_mw
            for br in record.branches
            if br.in_service and br.from_bus in isl
        )
        balances.append((isl, inj - loss))
    zero = all(
        abs(br.p_mw) <= cfg.flow_tol_mw and abs(br.q_mvar) <= cfg.flow_tol_mw
        for br in record.branches
    )
    consistent = all(br.status_from is br.status_to for br in record.branches)
    return IslandRecordReport(
        islands=islands,
        balances=balances,
        all_balanced=all(abs(net) <= cfg.balance_tol_mw for _, net in balances),
        all_flows_zero=zero,
        breaker_pairs_consistent=consistent,
    )


class VerdictClass(str, Enum):
    NORMAL = "Normal"
    BAD_DATA = "BadData"
    STEALTH_ATTACK = "StealthAttack"
    FDI_POST_SE = "FdiPostSe"
    SYSTEM_STRESS = "SystemStress"
    ISLANDING_VALID = "IslandingValid"


@dataclass
class DetectionVerdict:
    klass: VerdictClass
    findings: list[Finding]
    feature_chi2: float | None
    bdd_chi2: float | None
    bdd_threshold: float | None = None
    feature_threshold: float | None = None


_RECORD_RULES = frozenset({Rule.SIGN_FLIP, Rule.OPEN_BREAKER_FLOW, Rule.ISLAND_BALANCE})
_PHYSICS_RULES = frozenset(
    {
        Rule.SENSITIVITY_BOUND,
        Rule.RAMP_RATE,
        Rule.ZIP_VIOLATION,
        Rule.COMPENSATION_ENTROPY,
        Rule.GRADIENT_COHERENCE,
        Rule.VOLTAGE_DEVIATION,
        Rule.CORRELATION_SHIFT,
        Rule.BREAKER_STATUS_CHANGE,
        Rule.MARKER_CHANGE,
    }
)


def classify(
    bdd: BddVerdict | None,
    findings: Sequence[Finding],
    island_report: IslandRecordReport | None = None,
    feature_chi2: float | None = None,
    feature_threshold: float | None = None,
) -> DetectionVerdict:
    """Decision tree over the detector outputs.

    Flagged bad data wins; an all-zero-flow record whose islands balance
    and whose breaker pairs agree is a valid (if extreme) operating state,
    never an attack; record-level violations mean the stored data was
    corrupted after validation; measurement-physics violations on clean
    residuals mean a stealth attack; stress indicators alone mean a
    stressed but plausible system.
    """
    findings = list(findings)

    def verdict(klass: VerdictClass) -> DetectionVerdict:
        return DetectionVerdict(
            klass=klass,
            findings=findings,
            feature_chi2=feature_chi2,
            bdd_chi2=None if bdd is None else bdd.j_value,
            bdd_threshold=None if bdd is None else bdd.threshold,
            feature_threshold=feature_threshold,
        )

    if bdd is not None and bdd.flagged:
        return verdict(VerdictClass.BAD_DATA)

    violations = [f for f in findings if f.severity is Severity.VIOLATION]
    record_violations = [f for f in violations if f.rule in _RECORD_RULES]

    if (
        island_report is not None
        and island_report.all_flows_zero
        and island_report.all_balanced
        and island_report.breaker_pairs_consistent
        and not record_violations
    ):
        return verdict(VerdictClass.ISLANDING_VALID)

    if record_violations:
        return verdict(VerdictClass.FDI_POST_SE)

    if any(f.rule in _PHYSICS_RULES for f in violations):
        return verdict(VerdictClass.STEALTH_ATTACK)

    stress = [
        f
        for f in findings
        if f.rule is Rule.LOSS_SURGE
        or f.severity in (Severity.WARNING, Severity.INFO)
    ]
    if stress:
        return verdict(VerdictClass.SYSTEM_STRESS)
    return verdict(VerdictClass.NORMAL)
