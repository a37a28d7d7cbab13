"""Convergence diagnostics for simulated evolutions.

Weak convergence is tested at the level of the endpoint marginal at the
horizon: empirical moments against the Gaussian law implied by the limit
coefficients, Kolmogorov-Smirnov tests of the coordinate marginals (plus a
handful of random one-dimensional projections as a Cramer-Wold style spot
check), and a log-log fit of the moment deviation over a sweep of epsilon
values. The deviation metric per epsilon is

    || sample covariance - target covariance ||_F
        + || sample mean - target mean ||_2 ,

compared against an estimated Monte-Carlo noise floor so that the rate fit
can exclude the plateau where sampling error dominates.

The KS tests are those of revolve.ks: numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ks import ks_normal
from .limits import DiffusionLimit, GaussianSpec, gaussian_law_at, limit_coefficients
from .rates import RateFit, check_eps_sweep, fit_loglog
from .simulator import EndpointEnsemble, EvolutionConfig, simulate_ensemble
# unused here, importable for tools that look it up (tests/test_bench_lookups.py)
from .sphere import build_grid

__all__ = [
    "MomentSummary",
    "GaussianSpec",
    "KsReport",
    "RateFit",
    "SweepResult",
    "summarize",
    "ks_marginals",
    "deviation_metric",
    "fit_loglog",
    "limit_for_config",
    "run_sweep",
]

# The random unit-vector projections ks_marginals tests besides the
# coordinates: how many, and the seed that draws them.
_N_PROJECTIONS = 5
_PROJECTION_SEED = 2024

# Sweep points whose metric is at most this many noise floors are plateau.
_FLOOR_FACTOR = 3.0


@dataclass(frozen=True)
class MomentSummary:
    """Unbiased sample mean and covariance with entrywise standard errors."""

    mean: np.ndarray
    covariance: np.ndarray
    se_mean: np.ndarray
    se_covariance: np.ndarray
    n_samples: int


def summarize(ensemble: EndpointEnsemble) -> MomentSummary:
    """Sample mean/covariance of the endpoints and their standard errors."""
    x = ensemble.points
    m = x.shape[0]
    if m < 2:
        raise ValueError("need at least 2 samples to form a covariance")
    mean = x.mean(axis=0)
    cov = np.cov(x, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    var = np.diag(cov)
    se_mean = np.sqrt(var / m)
    # Gaussian-approximation SE of covariance entries: Var(C_ij) ~ (C_ii C_jj + C_ij^2)/(m-1)
    se_cov = np.sqrt((np.outer(var, var) + cov**2) / (m - 1))
    return MomentSummary(mean, cov, se_mean, se_cov, m)


@dataclass(frozen=True)
class KsReport:
    """Kolmogorov-Smirnov results per coordinate and per random projection."""

    statistics: np.ndarray       # (n,)
    pvalues: np.ndarray          # (n,)
    failed: np.ndarray           # (n,) bool, zero sample variance vs positive target
    tested: np.ndarray           # (n,) bool, target variance > 0
    projection_vectors: np.ndarray  # (k, n)
    projection_statistics: np.ndarray
    projection_pvalues: np.ndarray

    @property
    def min_pvalue(self) -> float:
        vals = self.pvalues[self.tested & ~self.failed]
        vals = np.concatenate([vals, self.projection_pvalues])
        return float(vals.min()) if vals.size else float("nan")


def ks_marginals(ensemble: EndpointEnsemble, target: GaussianSpec) -> KsReport:
    """KS statistic and p-value of each coordinate against its Gaussian marginal.

    Coordinates whose target variance is 0 are skipped; a coordinate with
    zero sample variance but positive target variance is reported as a fit
    failure (statistic 1, p-value 0). Additionally tests _N_PROJECTIONS random
    unit-vector projections u against N(u.mean, u'Cu).
    """
    x = ensemble.points
    n = ensemble.dimension
    stats_ = np.zeros(n)
    pvals = np.zeros(n)
    failed = np.zeros(n, dtype=bool)
    tested = np.zeros(n, dtype=bool)
    target_var = np.diag(target.covariance)
    for i in range(n):
        if target_var[i] <= 0.0:
            continue
        tested[i] = True
        sigma = math.sqrt(target_var[i])
        if float(np.std(x[:, i])) == 0.0:
            failed[i] = True
            stats_[i], pvals[i] = 1.0, 0.0
            continue
        stats_[i], pvals[i] = ks_normal(x[:, i], target.mean[i], sigma)

    rng = np.random.default_rng(_PROJECTION_SEED)
    vecs = rng.standard_normal((_N_PROJECTIONS, n))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    proj_stats = np.zeros(_N_PROJECTIONS)
    proj_pvals = np.zeros(_N_PROJECTIONS)
    for k, u in enumerate(vecs):
        mu = float(u @ target.mean)
        var = float(u @ target.covariance @ u)
        if var <= 0.0:
            proj_stats[k], proj_pvals[k] = 0.0, 1.0
            continue
        proj_stats[k], proj_pvals[k] = ks_normal(x @ u, mu, math.sqrt(var))
    return KsReport(stats_, pvals, failed, tested, vecs, proj_stats, proj_pvals)


def deviation_metric(summary: MomentSummary, target: GaussianSpec) -> float:
    """Frobenius covariance error plus Euclidean mean error against the target."""
    cov_err = float(np.linalg.norm(summary.covariance - target.covariance, ord="fro"))
    mean_err = float(np.linalg.norm(summary.mean - target.mean))
    return cov_err + mean_err


def noise_floor(summary: MomentSummary) -> float:
    """Monte-Carlo scale of deviation_metric under the null of a perfect match."""
    return float(
        np.sqrt(np.sum(summary.se_covariance**2)) + np.sqrt(np.sum(summary.se_mean**2))
    )


def limit_for_config(config: EvolutionConfig, grid_resolution: int = 32) -> DiffusionLimit:
    """Limit coefficients under the config's switching law, on its grid (a
    finite law's grid takes no resolution, the uniform law's takes the
    profile's atoms)."""
    grid = config.switching.grid(config.dimension, grid_resolution, config.profile.atoms)
    return limit_coefficients(config.profile, grid)


@dataclass(frozen=True)
class SweepResult:
    """Per-epsilon diagnostics of a convergence sweep plus the rate fit."""

    eps_values: np.ndarray
    metric_values: np.ndarray
    noise_floors: np.ndarray
    ks_pvalues: np.ndarray  # (n_eps, n)
    fit: RateFit
    target: GaussianSpec


def run_sweep(base_config: EvolutionConfig, eps_list, grid_resolution: int = 32) -> SweepResult:
    """Simulate the config across epsilon values and fit the deviation rate.

    The epsilon values must meet check_eps_sweep over one decade. Uses a
    fixed seed schedule (base seed + sweep position, modulo 2**64,
    so every u64 base seed is accepted) so reruns are bit-identical; points
    whose metric falls below _FLOOR_FACTOR times the estimated Monte-Carlo
    noise floor are flagged as plateau and excluded from the fit.
    """
    eps = check_eps_sweep(eps_list, decades=1)
    limit = limit_for_config(base_config, grid_resolution)
    target = gaussian_law_at(limit, base_config.horizon, base_config.x0)
    metrics = np.zeros(eps.size)
    floors = np.zeros(eps.size)
    pvals = np.zeros((eps.size, base_config.dimension))
    for k, e in enumerate(eps):
        cfg = replace(base_config, epsilon=float(e), seed=(base_config.seed + k) % 2**64)
        ensemble = simulate_ensemble(cfg)
        summary = summarize(ensemble)
        metrics[k] = deviation_metric(summary, target)
        floors[k] = noise_floor(summary)
        pvals[k] = ks_marginals(ensemble, target).pvalues
    used = metrics > _FLOOR_FACTOR * floors
    fit = fit_loglog(eps, metrics, used)
    return SweepResult(eps, metrics, floors, pvals, fit, target)

