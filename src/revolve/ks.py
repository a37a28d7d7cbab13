"""One-sample Kolmogorov-Smirnov test against a normal law, in numpy.

The statistic is D_N = sup |F_N - F| of a sample's empirical CDF F_N against
the normal CDF F, with F evaluated in the Cephes ndtr form on math.erf and
math.erfc. Its two-sided p-value P(D_N >= d) is computed three ways,
chosen by N and N D^2 after Simard and L'Ecuyer (J. Stat. Softw. 39(11),
2011):

  - N D^2 >= 2.2, or D >= 1/2: twice the one-sided tail, Birnbaum-Tingey's
    exact sum, added in log space. The two one-sided events can overlap only
    for D < 1/2, with probability below about 2 exp(-8 N D^2), 5e-8 here.
  - otherwise, N <= 10000: 1 - P(D_N < d), the Durbin matrix in the form of
    Marsaglia, Tsang and Wang (J. Stat. Softw. 8(18), 2003): the centre
    entry of H^N times N!/N^N, its binary exponent tracked apart so nothing
    overflows.
  - otherwise, N > 10000: the Kolmogorov limit K(sqrt(N) D) with its
    1/sqrt(N), 1/N and 1/N^1.5 corrections in the Pelz-Good form (J. R.
    Stat. Soc. B 38(2), 1976). Against the Durbin matrix, the plain limit
    is off by up to 2.8e-3 at N = 10001 and 1.3e-3 at N = 50000; with the
    corrections, by at most 6e-10.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["normal_cdf", "ks_statistic", "ks_pvalue", "ks_normal"]

_SQRT1_2 = math.sqrt(0.5)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EXACT_MAX_N = 10000   # largest N whose p-value comes from the Durbin matrix
_TAIL_MIN_ND2 = 2.2    # N D^2 from which the p-value is twice the one-sided tail


def _ndtr(a: float) -> float:
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(x)
    y = 0.5 * math.erfc(z)
    return 1.0 - y if x > 0.0 else y


def normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-D array: erf near 0, erfc in the tails, so
    the lower tail keeps its relative precision."""
    return np.array([_ndtr(v) for v in z.tolist()])


def ks_statistic(sample: np.ndarray, mean: float, sigma: float) -> float:
    """D_N of the sample against N(mean, sigma^2)."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    cdf = normal_cdf((x - mean) / sigma)
    d_plus = float(np.max(np.arange(1.0, n + 1) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0.0, n) / n))
    return max(d_plus, d_minus)


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_N^+ >= d), Birnbaum-Tingey: d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1)
    over 0 <= j < n (1 - d). Every term is positive, so the sum in log space
    loses nothing to cancellation."""
    j = np.arange(0.0, math.floor(n * (1.0 - d)) + 1.0)
    below = 1.0 - d - j / n
    j = j[below > 0.0]
    if j.size == 0:
        return 0.0
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - j[1:] + 1.0) / j[1:]))))
    log_terms = log_binom + (n - j) * np.log(below[: j.size]) + (j - 1.0) * np.log(d + j / n)
    top = float(log_terms.max())
    return d * math.exp(top) * float(np.exp(log_terms - top).sum())


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_N < d) from the Durbin matrix H of order m = 2k - 1, where
    d = (k - h)/n with k a positive integer and 0 <= h < 1."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    # 1/g! for g = 0..m, divided one factor at a time (it underflows to 0
    # gracefully where a factorial would overflow)
    inv_fact = np.empty(m + 1)
    inv_fact[0] = 1.0
    for g in range(1, m + 1):
        inv_fact[g] = inv_fact[g - 1] / g
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1  # i - j + 1
    H = np.where(lag >= 0, inv_fact[np.clip(lag, 0, m)], 0.0)
    h_pow = h ** np.arange(1.0, m + 1)
    H[:, 0] -= h_pow * inv_fact[1:]
    H[-1, :] -= h_pow[::-1] * inv_fact[1:][::-1]
    if 2.0 * h > 1.0:
        H[-1, 0] += (2.0 * h - 1.0) ** m * inv_fact[m]
    # H^n by squaring; every product is rescaled by a power of 2, which is
    # exact, and the exponents are summed apart
    power, power_exp = np.eye(m), 0
    square, square_exp = _scaled(H, 0)
    e = n
    while True:
        if e & 1:
            power, power_exp = _scaled(power @ square, power_exp + square_exp)
        e >>= 1
        if not e:
            break
        square, square_exp = _scaled(square @ square, 2 * square_exp)
    s, s_exp = math.frexp(power[k - 1, k - 1])
    s_exp += power_exp
    for i in range(1, n + 1):  # times n!/n^n, one factor at a time
        s = s * i / n
        if s < 2.0**-512:
            s, s_exp = s * 2.0**512, s_exp - 512
    return math.ldexp(s, s_exp)


def _scaled(a: np.ndarray, exponent: int) -> tuple[np.ndarray, int]:
    """a over the power of 2 that brings its largest entry into [0.5, 1),
    with the entries below 2^-511 set to 0.

    The matrices are nonnegative. Flushing keeps every product in a matrix
    product above the subnormal range, where arithmetic is about 100 times
    slower; it moves P(D_N < d) by far less than 1e-100.
    """
    shift = math.frexp(float(a.max()))[1]
    a = np.ldexp(a, -shift)
    a[a < 2.0**-511] = 0.0
    return a, exponent + shift


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_N < d) ~ K0(z) + K1(z)/sqrt(n) + K2(z)/n + K3(z)/n^1.5 at z = sqrt(n) d,
    each term in its theta-function form, which converges fast for small z."""
    z = math.sqrt(n) * d
    z2 = z * z
    k = np.arange(1.0, math.ceil(16.0 * z / math.pi) + 1.0)
    m2 = (2.0 * k - 1.0) ** 2
    q = np.exp(-(math.pi**2) * m2 / (8.0 * z2))
    p2, p4, p6 = math.pi**2 * m2 / 4.0, math.pi**4 * m2**2 / 16.0, math.pi**6 * m2**3 / 64.0
    k0 = q.sum() / z
    k1 = ((p2 - z2) * q).sum() / (6.0 * z**4)
    k2 = ((6.0 * z**6 + 2.0 * z**4 + (2.0 * z**4 - 5.0 * z2) * p2 + (1.0 - 2.0 * z2) * p4) * q).sum()
    k2 /= 72.0 * z**7
    k3 = (
        (-30.0 * z**6 - 90.0 * z**8 + (135.0 * z**4 - 96.0 * z**6) * p2
         + (212.0 * z**4 - 60.0 * z2) * p4 + (5.0 - 30.0 * z2) * p6) * q
    ).sum() / (6480.0 * z**10)
    # the terms over all integers k
    kk = k * k
    r = np.exp(-(math.pi**2) * kk / (2.0 * z2))
    k2 -= math.pi**2 * (kk * r).sum() / (36.0 * z**3)
    k3 += math.pi**2 * ((3.0 * z2 - math.pi**2 * kk) * kk * r).sum() / (216.0 * z**6)
    root_n = math.sqrt(n)
    return _SQRT_2PI * (k0 + k1 / root_n + k2 / n + k3 / (n * root_n))


def ks_pvalue(n: int, d: float) -> float:
    """Two-sided P(D_N >= d) for a sample of n from a continuous law."""
    if d >= 1.0:
        return 0.0
    if n * d <= 0.5:
        return 1.0
    if n * d * d >= _TAIL_MIN_ND2 or d >= 0.5:
        p = 2.0 * _smirnov_sf(n, d)
    elif n <= _EXACT_MAX_N:
        p = 1.0 - _durbin_cdf(n, d)
    else:
        p = 1.0 - _pelz_good_cdf(n, d)
    return min(max(p, 0.0), 1.0)


def ks_normal(sample: np.ndarray, mean: float, sigma: float) -> tuple[float, float]:
    """(D_N, two-sided p-value) of the sample against N(mean, sigma^2)."""
    d = ks_statistic(sample, mean, sigma)
    return d, ks_pvalue(np.size(sample), d)
