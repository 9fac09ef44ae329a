import math

import pytest

from gridsec.stats import (
    PAPER_CHI2_THRESHOLD,
    PAPER_PROFILE,
    DetectorProfile,
    chi2_cdf,
    chi2_ppf,
    chi_square_threshold,
)

# Frozen standard chi-square table values (0.95 quantile), the independent
# oracle for the quantile implementation.
TABLE_95 = {
    1: 3.8415,
    2: 5.9915,
    5: 11.0705,
    10: 18.3070,
    20: 31.4104,
    71: 91.6702,
    100: 124.3421,
}


@pytest.mark.parametrize("df,expected", sorted(TABLE_95.items()))
def test_threshold_matches_table(df, expected):
    assert chi_square_threshold(df, 0.05) == pytest.approx(expected, rel=1e-4)


def test_df2_closed_form():
    # Exponential special case: quantile is -2 ln(alpha).
    for alpha in (0.5, 0.1, 0.05, 0.01, 0.001):
        assert chi_square_threshold(2, alpha) == pytest.approx(-2 * math.log(alpha), rel=1e-10)


def test_against_scipy_oracle():
    scipy_stats = pytest.importorskip("scipy.stats")
    for df in (1, 2, 3, 7, 10, 30, 71, 150):
        for alpha in (0.10, 0.05, 0.01):
            ours = chi_square_threshold(df, alpha)
            ref = scipy_stats.chi2.ppf(1 - alpha, df)
            assert ours == pytest.approx(ref, rel=1e-9)


def test_ppf_stops_at_an_exact_root(monkeypatch):
    """Newton lands where the CDF equals p exactly at df = 15, alpha =
    0.05; bisecting on from there took 44 CDF evaluations."""
    scipy_stats = pytest.importorskip("scipy.stats")
    from gridsec import stats

    calls = []

    def counted(x, df):
        calls.append(x)
        return chi2_cdf(x, df)

    monkeypatch.setattr(stats, "chi2_cdf", counted)
    # Earlier tests have memoized some of these thresholds; compute each anew.
    chi_square_threshold.cache_clear()
    for df in range(1, 200):
        for alpha in (0.01, 0.05, 0.1):
            calls.clear()
            ours = chi_square_threshold(df, alpha)
            assert len(calls) <= 6, (df, alpha, len(calls))
            assert abs(ours - scipy_stats.chi2.ppf(1 - alpha, df)) <= 1e-9, (df, alpha)


def test_cdf_ppf_round_trip():
    for df in (1, 4, 71):
        for p in (0.05, 0.5, 0.95, 0.999):
            x = chi2_ppf(p, df)
            assert chi2_cdf(x, df) == pytest.approx(p, abs=1e-10)


def test_monotone_in_df_and_alpha():
    taus = [chi_square_threshold(df, 0.05) for df in range(1, 120)]
    assert all(b > a for a, b in zip(taus, taus[1:]))
    alphas = [0.2, 0.1, 0.05, 0.01, 0.001]
    taus = [chi_square_threshold(71, a) for a in alphas]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_paper_compat_constant_documented_mismatch():
    """The quoted 89.5 detection threshold is not the exact 95% quantile at
    71 degrees of freedom; it stays available as a compatibility constant,
    the threshold of ``PAPER_PROFILE``, while the default profile takes the
    quantile."""
    exact = chi_square_threshold(71, 0.05)
    assert exact == pytest.approx(91.6702, rel=1e-4)
    assert PAPER_CHI2_THRESHOLD == 89.5
    assert abs(exact - PAPER_CHI2_THRESHOLD) > 1.0
    assert PAPER_PROFILE.threshold(71) == 89.5
    assert DetectorProfile().threshold(71) == chi_square_threshold(71)


def test_input_validation():
    with pytest.raises(ValueError):
        chi_square_threshold(0, 0.05)
    with pytest.raises(ValueError):
        chi_square_threshold(5, 0.0)
    with pytest.raises(ValueError):
        chi2_ppf(1.0, 5)


def test_threshold_is_memoized(monkeypatch):
    """A repeated (df, alpha) returns the first result without reaching
    chi2_ppf again."""
    from gridsec import stats

    calls = []

    def counted(p, df):
        calls.append((p, df))
        return chi2_ppf(p, df)

    monkeypatch.setattr(stats, "chi2_ppf", counted)
    chi_square_threshold.cache_clear()
    first = chi_square_threshold(37, 0.025)
    assert chi_square_threshold(37, 0.025) == first == chi2_ppf(0.975, 37.0)
    assert len(calls) == 1
    chi_square_threshold(37, 0.01)
    assert len(calls) == 2
