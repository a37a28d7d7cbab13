"""The numpy KS test of revolve.ks against scipy.stats as the reference."""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from revolve.ks import _durbin_cdf, _pelz_good_cdf, ks_normal, ks_pvalue, ks_statistic, normal_cdf

SIZES = [2, 10, 140, 141, 1000, 4000, 10000, 10001, 50000]


def pvalue_grid(n):
    """Statistics whose exact p-values run from 1e-12 up to 0.999."""
    return scipy_stats.kstwo.isf(np.logspace(-12, math.log10(0.999), 30), n)


def test_normal_cdf_matches_ndtr():
    z = np.concatenate([np.linspace(-38.0, 9.0, 20001), [-1e-300, 0.0, 1e-300]])
    assert np.max(np.abs(normal_cdf(z) - scipy_stats.norm.cdf(z))) <= 2.3e-16


@pytest.mark.parametrize("n", [1, 2, 10, 141, 4000, 10001])
def test_statistic_matches_scipy(n):
    rng = np.random.default_rng(n)
    sample = 1.7 * rng.standard_normal(n) + 0.3  # off the target law
    reference = scipy_stats.kstest(sample, "norm", args=(0.1, 1.5))
    assert abs(ks_statistic(sample, 0.1, 1.5) - reference.statistic) <= 1e-15
    d, p = ks_normal(sample, 0.1, 1.5)
    assert d == ks_statistic(sample, 0.1, 1.5)
    assert abs(p - reference.pvalue) <= 1e-5


@pytest.mark.parametrize("n", SIZES)
def test_pvalue_matches_scipy(n):
    d = pvalue_grid(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ours = np.array([ks_pvalue(n, float(x)) for x in d])
    reference = scipy_stats.kstwo.sf(d, n)
    assert reference.min() < 2e-12 and reference.max() > 0.99
    assert np.max(np.abs(ours - reference)) <= 1e-5


@pytest.mark.parametrize("n", [1, 2, 5, 10, 50, 140])
def test_pvalue_matches_where_scipy_is_exact(n):
    # scipy uses the same Durbin matrix for N <= 140 and N D^2 <= 0.754693
    d = np.linspace(0.5 / n, math.sqrt(0.754693 / n), 41)[1:]
    d = d[d < 1.0]
    ours = np.array([ks_pvalue(n, float(x)) for x in d])
    assert np.max(np.abs(ours - scipy_stats.kstwo.sf(d, n))) <= 1e-12


def test_expansion_above_10000_matches_the_durbin_matrix():
    # the Pelz-Good expansion that ks_pvalue uses for N > 10000, against the
    # exact law where both apply (N D^2 < 2.2)
    n = 10001
    for d in np.sqrt(np.linspace(0.05, 2.19, 12) / n):
        assert abs(_pelz_good_cdf(n, d) - _durbin_cdf(n, d)) <= 1e-9


def test_pvalue_edges():
    assert ks_pvalue(100, 0.005) == 1.0  # N D <= 1/2: every sample is that far
    assert ks_pvalue(100, 1.0) == 0.0
    assert ks_pvalue(1, 0.75) == pytest.approx(0.5, abs=1e-15)  # 2 (1 - D)^N


def test_largest_durbin_matrix_is_fast():
    # N = 10000 at N D^2 just below 2.2: order 2 ceil(N D) - 1 = 295
    d = math.sqrt(2.19 / 10000)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        p = ks_pvalue(10000, d)
        best = min(best, time.perf_counter() - start)
    assert best < 0.2
    assert abs(p - scipy_stats.kstwo.sf(d, 10000)) <= 1e-5
