"""Chi-square thresholds for bad-data detection, and the ``DetectorProfile``
that picks one (the paper's is ``PAPER_PROFILE``). Self-contained (series/
continued-fraction incomplete gamma) so the test suite can cross-check
against an independent statistics library.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .detection import RuleConfig

__all__ = [
    "chi2_cdf",
    "chi2_ppf",
    "chi_square_threshold",
    "BDD_ALPHA",
    "PAPER_CHI2_THRESHOLD",
    "DetectorProfile",
    "PAPER_PROFILE",
]

# Detection threshold the source material quotes for its 71-dimensional
# feature test. ``PAPER_PROFILE`` judges every test at it; note it does not
# equal the exact 95% quantile at 71 degrees of freedom (~91.67).
PAPER_CHI2_THRESHOLD = 89.5

BDD_ALPHA = 0.05  # false-alarm rate of the residual test on clean data

_EPS = 1e-15
_MAX_ITER = 500


def _gamma_p_series(s: float, x: float) -> float:
    """Regularized lower incomplete gamma via power series (x < s + 1)."""
    term = 1.0 / s
    total = term
    for k in range(1, _MAX_ITER):
        term *= x / (s + k)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _gamma_q_contfrac(s: float, x: float) -> float:
    """Regularized upper incomplete gamma via Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for k in range(1, _MAX_ITER):
        an = -k * (k - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + s * math.log(x) - math.lgamma(s))


def _gamma_p(s: float, x: float) -> float:
    if x <= 0:
        return 0.0
    if x < s + 1.0:
        return _gamma_p_series(s, x)
    return 1.0 - _gamma_q_contfrac(s, x)


def chi2_cdf(x: float, df: float) -> float:
    if df <= 0:
        raise ValueError("df must be positive")
    if x <= 0:
        return 0.0
    return _gamma_p(df / 2.0, x / 2.0)


def _chi2_pdf(x: float, df: float) -> float:
    if x <= 0:
        return 0.0
    s = df / 2.0
    return math.exp((s - 1.0) * math.log(x) - x / 2.0 - s * math.log(2.0) - math.lgamma(s))


def _wilson_hilferty(p: float, df: float) -> float:
    """Cube-of-normal starting approximation for the chi-square quantile."""
    z = _norm_ppf(p)
    a = 2.0 / (9.0 * df)
    cube = 1.0 - a + z * math.sqrt(a)
    return df * cube**3 if cube > 0 else 0.05 * df


def _norm_ppf(p: float) -> float:
    """Acklam rational approximation of the standard normal quantile, for
    the p in (0, 1) that ``chi2_ppf`` has checked."""
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def chi2_ppf(p: float, df: float) -> float:
    """Chi-square quantile: Wilson-Hilferty start refined by safeguarded
    Newton iterations on the CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    if df <= 0:
        raise ValueError("df must be positive")
    x = max(_wilson_hilferty(p, df), 1e-10)
    lo, hi = 0.0, math.inf
    for _ in range(100):
        f = chi2_cdf(x, df) - p
        if f == 0:
            return x
        if f > 0:
            hi = min(hi, x)
        else:
            lo = max(lo, x)
        pdf = _chi2_pdf(x, df)
        if pdf > 0:
            step = f / pdf
            x_new = x - step
        else:
            x_new = -1.0  # force bisection
        if not (lo < x_new < hi):
            x_new = (lo + hi) / 2.0 if math.isfinite(hi) else x * 2.0
        if abs(x_new - x) <= 1e-12 * max(1.0, x):
            return x_new
        x = x_new
    return x


@functools.lru_cache(maxsize=256)
def chi_square_threshold(df: int, alpha: float = BDD_ALPHA) -> float:
    """Detection threshold: the (1 - alpha) chi-square quantile at df,
    memoized per (df, alpha). Raises ValueError naming the argument unless
    df >= 1 and 0 < alpha < 1."""
    if not df >= 1:
        raise ValueError(f"df {df}: expected at least 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha}: expected a number in (0, 1)")
    return chi2_ppf(1.0 - alpha, float(df))


class DetectorProfile(NamedTuple):
    """How the detector judges a record pair: the residual and feature
    tests' fixed threshold (None: each test's chi-square quantile) and the
    physics rules' constants (None: ``RuleConfig()``'s)."""

    fixed_threshold: float | None = None
    rules: RuleConfig | None = None

    def threshold(self, df: int, alpha: float = BDD_ALPHA) -> float:
        """``chi_square_threshold(df, alpha)``, which checks both, unless a threshold is fixed."""
        quantile = chi_square_threshold(df, alpha)
        return quantile if self.fixed_threshold is None else self.fixed_threshold


PAPER_PROFILE = DetectorProfile(PAPER_CHI2_THRESHOLD)
