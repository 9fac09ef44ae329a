"""Deterministic anomaly detector: 71-dimensional feature extraction,
covariance-based scoring against a fitted normal baseline, a battery of
physics rules, and the final verdict classifier.

Feature layout (71 = 42 + 8 + 3 + 5 + 13):
  direct      V1..V14, P1..P14, Q1..Q14
  statistical mean/std/min/max of V, mean/std/min/max of P
  correlation corr(V,P), corr(V,Q), corr(P,Q) across buses
  physics     P_total, Q_total, power factor, NERC-band margin, |net P|
  gradient    V2-V1, ..., V14-V13

``read_pair`` is the one place a verdict reads a (snapshot, baseline)
record pair: it checks that both fit the model and reads each record's
rows once into a ``PairReading``, which everything after it reads. The
rule battery is one ordered table, ``RULES``: each row is a rule, its
family (record, physics or stress) and the function that checks it.
``rule_battery`` runs the table in order on a reading and turns what each
function yields into findings; ``classify`` reads each finding's family
from the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .findings import Finding, Rule, Severity
from .network import BusKind, NetworkModel, build_ieee14, derived
from .records import BranchTable, BusSnapshot, GridRecord, RecordSnapshot

if TYPE_CHECKING:
    from .estimation import BddVerdict

__all__ = [
    "FEATURE_DIM",
    "FEATURE_NAMES",
    "FeatureVector",
    "BaselineStats",
    "extract_features",
    "features",
    "fit_baseline",
    "Rule",
    "Severity",
    "Finding",
    "RuleConfig",
    "PairReading",
    "read_pair",
    "rule_battery",
    "RULES",
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
    return features(snapshot, _moments(snapshot))


def features(snapshot: BusSnapshot, m: _Moments) -> FeatureVector:
    """``extract_features`` given the snapshot's moments, as
    ``PairReading.moments`` holds them."""
    v, p, q = snapshot.v, snapshot.p, snapshot.q
    if len(v) != N_BUS:
        raise ValueError(f"snapshot must cover {N_BUS} buses, got {len(v)}")
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

    @classmethod
    def from_file(cls, path) -> "RuleConfig":
        """Parse a flat key = value file (comments with '#'). An unknown key,
        or a value that is not a finite number (an integer for an int field),
        raises ValueError naming the line."""
        import pathlib

        cfg = cls()
        for no, line in enumerate(pathlib.Path(path).read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = key.strip()
            val = val.strip()
            if key not in {f.name for f in fields(cls)}:
                raise ValueError(f"unknown config key '{key}' on line {no}")
            cast = type(getattr(cfg, key))
            try:
                value = cast(val)
            except ValueError:
                expected = "an integer" if cast is int else "a number"
                raise ValueError(f"{key} = {val} on line {no}: expected {expected}") from None
            if not math.isfinite(value):
                raise ValueError(f"{key} = {val} on line {no}: expected a finite number")
            setattr(cfg, key, value)
        return cfg


def _div(a: float, b: float) -> float:
    """``a / b`` as float64 divides it: a zero divisor gives +-inf, or nan
    for a zero or nan numerator, with numpy's RuntimeWarning, where Python
    floats raise ZeroDivisionError."""
    if b:
        return a / b
    return float(np.float64(a) / b)


# Each rule is a function of one verdict's ``PairReading`` that yields one
# (severity, message, data) per finding; the rules loop over buses on
# Python floats.
_Raised = tuple[Severity, str, dict[str, float | int | str]]


class PairReading(NamedTuple):
    """What a verdict reads of a record pair, read once by ``read_pair``:
    each record's snapshot and branch table, the snapshot's island report
    and moments, and the model's Slack and Generator buses. The per-bus V
    and P lists and their differences are the same IEEE operations as on
    the snapshot arrays."""

    record: GridRecord
    baseline: GridRecord
    snap: RecordSnapshot
    base: RecordSnapshot
    sv: list[float]
    sp: list[float]
    bv: list[float]
    bp: list[float]
    dv: list[float]
    dp: list[float]
    generators: tuple[int, ...]
    cfg: RuleConfig
    island_report: IslandRecordReport | None
    moments: _Moments
    table: BranchTable
    base_table: BranchTable


def _sensitivity_bound(x: PairReading) -> Iterator[_Raised]:
    """Implied dP/dV where both moved appreciably."""
    cfg = x.cfg
    for i, (d_v, d_p) in enumerate(zip(x.dv, x.dp)):
        if abs(d_v) >= cfg.sensitivity_min_dv and abs(d_p) >= cfg.sensitivity_min_dp:
            ratio = _div(d_p, d_v)
            if not cfg.sensitivity_low <= ratio <= cfg.sensitivity_high:
                yield (Severity.VIOLATION,
                       f"bus {i + 1}: dP/dV = {ratio:.3f} outside "
                       f"[{cfg.sensitivity_low}, {cfg.sensitivity_high}]",
                       {"bus": i + 1, "ratio": ratio, "dp": d_p, "dv": d_v})


def _ramp_rate(x: PairReading) -> Iterator[_Raised]:
    """Instantaneous output change at generator buses."""
    cfg, dp, bp = x.cfg, x.dp, x.bp
    for b in x.generators:
        i = b - 1
        if i >= len(dp) or abs(bp[i]) < cfg.ramp_min_base:
            continue
        frac = _div(dp[i], abs(bp[i]))
        if abs(frac) > cfg.ramp_limit:
            yield (Severity.VIOLATION,
                   f"bus {b}: {frac * 100:+.1f}% instantaneous power change "
                   f"exceeds the {cfg.ramp_limit * 100:.0f}% ramp capability",
                   {"bus": b, "pct": frac * 100})


def _zip_violation(x: PairReading) -> Iterator[_Raised]:
    """Load response must stay within P ~ V^alpha. A bus whose V or P is
    not finite in either record (a dead island) has none to judge. A large
    power move at essentially constant voltage, a power sign change, or a
    voltage ratio that is <= 0 or exactly 1 has no finite exponent: each is
    a violation reported without ``alpha``."""
    cfg, sv, sp, bv, bp = x.cfg, x.sv, x.sp, x.bv, x.bp
    for i, (d_v, d_p) in enumerate(zip(x.dv, x.dp)):
        b = i + 1
        if b in x.generators or not (math.isfinite(d_v) and math.isfinite(d_p)):
            continue
        if abs(bp[i]) < 1e-9:
            continue
        dp_frac = d_p / abs(bp[i])
        if abs(dp_frac) < cfg.zip_min_dp_frac:
            continue
        dv_frac = abs(d_v) / max(bv[i], 1e-9)
        data: dict[str, float | int | str] = {
            "bus": b, "dp_pct": dp_frac * 100, "dv_pct": dv_frac * 100,
        }
        if not (dv_frac < cfg.zip_small_dv_frac or sp[i] * bp[i] <= 0):
            v_ratio = _div(sv[i], bv[i])
            if not (v_ratio <= 0 or v_ratio == 1):
                alpha = math.log(sp[i] / bp[i]) / math.log(v_ratio)
                if cfg.zip_alpha_low <= alpha <= cfg.zip_alpha_high:
                    continue
                data["alpha"] = alpha
        yield (Severity.VIOLATION,
               f"bus {b}: {dp_frac * 100:+.1f}% power change at "
               f"{dv_frac * 100:.2f}% voltage change breaks the ZIP load response",
               data)


def _compensation_entropy(x: PairReading) -> Iterator[_Raised]:
    """Near-uniform small adjustments smell coordinated. No small
    adjustment is no finding, whatever the minimum count."""
    cfg = x.cfg
    minor = [abs(d) for d in x.dp if 1e-9 < abs(d) < cfg.entropy_major_dp]
    if minor and len(minor) >= cfg.entropy_min_count:
        total = 0.0
        for d in minor:  # left to right; sum() of floats compensates from Python 3.12
            total += d
        weights = np.array(minor) / total
        entropy = float(-(weights * np.log(weights)).sum())
        limit = cfg.entropy_fraction * math.log(len(minor))
        if entropy > limit:
            yield (Severity.VIOLATION,
                   f"{len(minor)} small power adjustments are near-uniform "
                   f"(entropy {entropy:.3f} > {limit:.3f}): artificial coordination",
                   {"count": len(minor), "entropy": entropy, "limit": limit})


def _gradient_coherence(x: PairReading) -> Iterator[_Raised]:
    """Adjacent-bus voltage gradients that jumped."""
    g_max = x.cfg.gradient_max
    for k, (ga, gb) in enumerate(zip(np.diff(x.snap.v).tolist(), np.diff(x.base.v).tolist())):
        if abs(ga - gb) > g_max and abs(ga) > g_max:
            yield (Severity.VIOLATION,
                   f"voltage gradient between buses {k + 1}-{k + 2} is "
                   f"{ga:.3f} p.u.; historical ceiling is {g_max:.3f}",
                   {"bus_from": k + 1, "bus_to": k + 2, "gradient": ga, "baseline_gradient": gb})


def _sign_flip(x: PairReading) -> Iterator[_Raised]:
    """Consumption turning into generation (or back) in the record."""
    floor = x.cfg.signflip_min_mw
    for rb, ra in zip(sorted(x.baseline.buses, key=lambda r: r.bus),
                      sorted(x.record.buses, key=lambda r: r.bus)):
        if abs(rb.p_mw) >= floor and abs(ra.p_mw) >= floor and rb.p_mw * ra.p_mw < 0:
            role = "load to generator" if rb.p_mw > 0 else "generator to load"
            yield (Severity.VIOLATION,
                   f"bus {rb.bus} switched {role}: {rb.p_mw:.1f} -> {ra.p_mw:.1f} MW",
                   {"bus": rb.bus, "p_before_mw": rb.p_mw, "p_after_mw": ra.p_mw})


def _loss_surge(x: PairReading) -> Iterator[_Raised]:
    """Total branch losses jumping against the baseline."""
    loss_b, loss_a = x.base_table.loss_mw, x.table.loss_mw
    if loss_b is not None and loss_a is not None and loss_b > 1e-6:
        ratio = loss_a / loss_b
        if ratio > x.cfg.loss_ratio_max:
            yield (Severity.VIOLATION,
                   f"system losses {loss_b:.2f} -> {loss_a:.2f} MW "
                   f"(x{ratio:.2f}): stressed transmission",
                   {"loss_before_mw": loss_b, "loss_after_mw": loss_a, "ratio": float(ratio)})


def _open_breaker_flow(x: PairReading) -> Iterator[_Raised]:
    """Flow through a breaker recorded as open."""
    tol = x.cfg.flow_tol_mw
    for br in x.table.open:
        if abs(br.p_mw) > tol or abs(br.q_mvar) > tol:
            yield (Severity.VIOLATION,
                   f"branch {br.from_bus}-{br.to_bus} is recorded open yet carries "
                   f"{br.p_mw:.1f} MW / {br.q_mvar:.1f} Mvar: an open breaker "
                   f"cannot conduct",
                   {"from": br.from_bus, "to": br.to_bus,
                    "p_mw": br.p_mw, "q_mvar": br.q_mvar, "loss_mw": br.loss_mw})


def _island_balance(x: PairReading) -> Iterator[_Raised]:
    """Per-island conservation from the record itself."""
    if x.island_report is None:
        return
    for island, net in x.island_report.balances:
        if abs(net) > x.cfg.balance_tol_mw:
            yield (Severity.VIOLATION,
                   f"island {sorted(island)} violates conservation by {net:+.1f} MW",
                   {"imbalance_mw": float(net), "buses": ",".join(map(str, sorted(island)))})


def _voltage_deviation(x: PairReading) -> Iterator[_Raised]:
    """Displayed voltage drifting from the baseline."""
    cfg, sv, bv = x.cfg, x.sv, x.bv
    for i, d_v in enumerate(x.dv):
        rel = abs(d_v) / max(bv[i], 1e-9)
        if rel > cfg.volt_dev_warn:
            yield (Severity.VIOLATION if rel > cfg.volt_dev_violation else Severity.WARNING,
                   f"bus {i + 1} voltage {bv[i]:.4f} -> {sv[i]:.4f} p.u. "
                   f"({rel * 100:.2f}% deviation)",
                   {"bus": i + 1, "v_before": bv[i], "v_after": sv[i], "pct": rel * 100})


def _correlation_shift(x: PairReading) -> Iterator[_Raised]:
    """Cross-channel correlation pattern moved."""
    cfg = x.cfg
    for (a, b), rho_att, rho_base in zip(
        (("V", "P"), ("V", "Q"), ("P", "Q")), x.moments.rho, _moments(x.base).rho
    ):
        shift = abs(rho_att - rho_base)
        if shift > cfg.corr_shift_warn:
            yield (Severity.VIOLATION if shift > cfg.corr_shift_violation else Severity.WARNING,
                   f"{a}-{b} correlation moved {rho_base:.2f} -> {rho_att:.2f}",
                   {"pair": f"{a}{b}", "rho_before": rho_base, "rho_after": rho_att,
                    "shift": shift})


# The detector's rules in finding order, each with its family: record,
# physics or stress. ``classify`` reads a violation's class from its family.
RULES: tuple[tuple[Rule, str, Callable[[PairReading], Iterator[_Raised]]], ...] = (
    (Rule.SENSITIVITY_BOUND, "physics", _sensitivity_bound),
    (Rule.RAMP_RATE, "physics", _ramp_rate),
    (Rule.ZIP_VIOLATION, "physics", _zip_violation),
    (Rule.COMPENSATION_ENTROPY, "physics", _compensation_entropy),
    (Rule.GRADIENT_COHERENCE, "physics", _gradient_coherence),
    (Rule.SIGN_FLIP, "record", _sign_flip),
    (Rule.LOSS_SURGE, "stress", _loss_surge),
    (Rule.OPEN_BREAKER_FLOW, "record", _open_breaker_flow),
    (Rule.ISLAND_BALANCE, "record", _island_balance),
    (Rule.VOLTAGE_DEVIATION, "physics", _voltage_deviation),
    (Rule.CORRELATION_SHIFT, "physics", _correlation_shift),
)
# The display rules that ``som.diff_against_reference`` raises are physics.
_FAMILY = {rule: family for rule, family, _ in RULES} | dict.fromkeys(
    (Rule.BREAKER_STATUS_CHANGE, Rule.MARKER_CHANGE), "physics"
)


class _Buses(NamedTuple):
    """What reading a record pair needs of the model, worked out once per
    model object (``network.derived``)."""

    base_mva: float
    ids: tuple[int, ...]  # the ids 1..n a record's bus table lists, in order
    known: frozenset[int]  # the same, which its branch rows may name
    slack: int
    generators: tuple[int, ...]  # the Slack and Generator buses, in bus order


def _buses(model: NetworkModel) -> _Buses:
    """The model's ``_Buses``; read it through ``derived(model, _buses)``."""
    ids = tuple(b.id for b in model.buses)
    generators = tuple(b.id for b in model.buses if b.kind is not BusKind.LOAD)
    return _Buses(model.base_mva, ids, frozenset(ids), model.buses[model.slack_index].id, generators)


def _rows(record: GridRecord, m: _Buses) -> tuple[RecordSnapshot, BranchTable]:
    """The record's snapshot and branch table, once its bus table lists
    exactly the model's buses and its branch rows name only those."""
    snap = record.snapshot(m.base_mva)
    if snap.buses != m.ids:
        bus = min(set(snap.buses) ^ m.known)
        what = "missing" if bus in m.known else "unexpected"
        raise ValueError(
            f"record {record.source!r}: bus {bus} {what}; the model has buses 1..{len(m.ids)}"
        )
    return snap, record.branch_table(m.known)


def _check_values(record: GridRecord, snap: RecordSnapshot, islands: list[frozenset[int]],
                  slack: int) -> None:
    """Raise ValueError naming the record and the first bus, then the first
    branch row in record order, whose values the detector cannot read."""
    energized = next(isl for isl in islands if slack in isl)
    for r in snap.bad:
        if r.bus in energized:
            name = next((f for f in ("v_pu", "theta_deg", "p_mw", "q_mvar")
                         if not math.isfinite(getattr(r, f))), None)
            if name is None:
                raise ValueError(f"record {record.source!r}: non-positive v_pu {r.v_pu} at bus {r.bus}")
            raise ValueError(f"record {record.source!r}: non-finite {name} at bus {r.bus}")
    for br in record.branches:
        cut_off = br.in_service and br.from_bus not in energized
        read = ("loss_mw",) if cut_off else ("p_mw", "q_mvar", "loss_mw")
        name = next((f for f in read if not math.isfinite(getattr(br, f))), None)
        if name is not None:
            raise ValueError(f"record {record.source!r}: non-finite {name} "
                             f"on branch {br.from_bus}-{br.to_bus}")


def read_pair(
    record: GridRecord,
    baseline: GridRecord,
    model: NetworkModel | None = None,
    config: RuleConfig | None = None,
) -> PairReading:
    """What the rules read of ``record`` against ``baseline`` on ``model``
    (the 14-bus case when None) under ``config``, each record's bus and
    branch rows read once.

    Both records must fit the model, the baseline checked first: the bus
    table lists exactly buses 1..n and the branch rows name only those
    buses; V, theta, P and Q are finite, and V is above 0, at every bus of
    the slack's island by the record's own breakers, and so are P and Q of
    every in-service branch row there; every branch row's loss is finite
    (each enters ``BranchTable.loss_mw``), and so are P and Q of every open
    row. Else raises ValueError naming the record and the first bus, then
    the first branch row, at fault. Buses and in-service rows the record's
    breakers cut off may hold the NaNs ``GridRecord.from_solution`` writes
    for an island with no slack and no generator; it writes 0.0 for the
    loss of those rows and for P, Q and loss of every open row. A record
    with no branch table is one island. The record's islands are searched
    once; the baseline's only when it holds a value the check must place
    on an island."""
    cfg = config or RuleConfig()
    if model is None:
        model = build_ieee14()
    m = derived(model, _buses)
    base, base_table = _rows(baseline, m)
    if base.bad or not base_table.finite:
        _check_values(baseline, base, baseline.islands(base_table), m.slack)
    snap, table = _rows(record, m)
    islands = record.islands(table)
    if snap.bad or not table.finite:
        _check_values(record, snap, islands, m.slack)
    return PairReading(
        record, baseline, snap, base,
        snap.v.tolist(), snap.p.tolist(), base.v.tolist(), base.p.tolist(),
        (snap.v - base.v).tolist(), (snap.p - base.p).tolist(),
        m.generators, cfg,
        analyze_record_islands(record, cfg, table, islands),
        _moments(snap), table, base_table,
    )


def rule_battery(reading: PairReading) -> list[Finding]:
    """Every rule of ``RULES`` on a ``read_pair`` reading, findings in
    table order: RampRate judges the model's Slack and Generator buses,
    ZipViolation the others."""
    return [Finding(rule, severity, message, data)
            for rule, _, check in RULES for severity, message, data in check(reading)]


@dataclass
class IslandRecordReport:
    islands: list[frozenset[int]]
    balances: list[tuple[frozenset[int], float]]
    all_balanced: bool  # every |balance| within ``RuleConfig.balance_tol_mw``
    all_flows_zero: bool
    breaker_pairs_consistent: bool


def analyze_record_islands(
    record: GridRecord,
    cfg: RuleConfig,
    table: BranchTable,
    islands: list[frozenset[int]],
) -> IslandRecordReport | None:
    """Island structure implied by the record's breaker statuses, from
    ``table``, the record's ``branch_table()``, and ``islands``, its
    ``islands(table)``. An island's balance is its buses' injections less
    the losses of the in-service rows leaving it, each summed left to
    right in record order. None for bus-only records."""
    if not record.branches:
        return None
    island_of = {bus: k for k, isl in enumerate(islands) for bus in isl}
    inj: list[list[float]] = [[] for _ in islands]
    loss: list[list[float]] = [[] for _ in islands]
    for r in record.buses:
        inj[island_of[r.bus]].append(-r.p_mw)
    for br in table.live:
        loss[island_of[br.from_bus]].append(br.loss_mw)
    balances = [(isl, sum(i) - sum(lo)) for isl, i, lo in zip(islands, inj, loss)]
    tol = cfg.flow_tol_mw
    return IslandRecordReport(
        islands=islands,
        balances=balances,
        all_balanced=all(abs(net) <= cfg.balance_tol_mw for _, net in balances),
        all_flows_zero=all(abs(br.p_mw) <= tol and abs(br.q_mvar) <= tol for br in record.branches),
        breaker_pairs_consistent=all(br.status_from is br.status_to for br in table.open),
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
    bdd_chi2: float | None
    bdd_threshold: float | None = None


def classify(
    bdd: BddVerdict | None,
    findings: Sequence[Finding],
    island_report: IslandRecordReport | None = None,
) -> DetectionVerdict:
    """Decision tree over the detector outputs.

    Flagged bad data wins; an all-zero-flow record whose islands balance
    and whose breaker pairs agree is a valid (if extreme) operating state,
    never an attack; a violation of a record-family rule (``RULES``) means
    the stored data was corrupted after validation; a physics-family
    violation on clean residuals means a stealth attack; stress-family
    violations, warnings and infos alone mean a stressed but plausible
    system.
    """
    findings = list(findings)

    def verdict(klass: VerdictClass) -> DetectionVerdict:
        return DetectionVerdict(
            klass=klass,
            findings=findings,
            bdd_chi2=None if bdd is None else bdd.j_value,
            bdd_threshold=None if bdd is None else bdd.threshold,
        )

    if bdd is not None and bdd.flagged:
        return verdict(VerdictClass.BAD_DATA)

    violated = {_FAMILY[f.rule] for f in findings if f.severity is Severity.VIOLATION}

    if (
        island_report is not None
        and island_report.all_flows_zero
        and island_report.all_balanced
        and island_report.breaker_pairs_consistent
        and "record" not in violated
    ):
        return verdict(VerdictClass.ISLANDING_VALID)

    if "record" in violated:
        return verdict(VerdictClass.FDI_POST_SE)

    if "physics" in violated:
        return verdict(VerdictClass.STEALTH_ATTACK)

    # What is left is stress: a stress-rule violation, a warning or an info.
    if findings:
        return verdict(VerdictClass.SYSTEM_STRESS)
    return verdict(VerdictClass.NORMAL)
