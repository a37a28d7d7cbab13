"""Tests of the convergence diagnostics."""

import numpy as np
import pytest

from revolve.limits import gaussian_law_at, limit_coefficients
from revolve.profiles import VelocityProfile, builtin_profile
from revolve.rates import check_eps_sweep
from revolve.simulator import EndpointEnsemble, EvolutionConfig, simulate_ensemble
from revolve.sphere import build_grid
from revolve.stats import (
    GaussianSpec,
    deviation_metric,
    fit_loglog,
    ks_marginals,
    limit_for_config,
    noise_floor,
    run_sweep,
    summarize,
)


def make_ensemble(points, t=1.0):
    points = np.asarray(points, dtype=float)
    return EndpointEnsemble(points.shape[1], t, points, "test")


def msre_config(**overrides):
    base = dict(
        dimension=2,
        epsilon=0.1,
        profile=builtin_profile("msre_const", 2, c=1.0),
        horizon=1.0,
        x0=np.zeros(2),
        n_paths=2000,
        seed=1234,
    )
    base.update(overrides)
    return EvolutionConfig(**base)


class TestSummarize:
    def test_identical_points_zero_covariance(self):
        ens = make_ensemble(np.tile([1.0, -2.0], (50, 1)))
        summary = summarize(ens)
        np.testing.assert_array_equal(summary.covariance, np.zeros((2, 2)))
        np.testing.assert_array_equal(summary.mean, [1.0, -2.0])

    def test_recovers_synthetic_gaussian(self):
        rng = np.random.default_rng(15)
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        x = rng.multivariate_normal([1.0, -1.0], cov, size=40_000)
        summary = summarize(make_ensemble(x))
        assert np.all(np.abs(summary.mean - [1.0, -1.0]) <= 3.0 * summary.se_mean)
        assert np.all(np.abs(summary.covariance - cov) <= 3.0 * summary.se_covariance)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((500, 3))
        a = summarize(make_ensemble(x))
        b = summarize(make_ensemble(x[rng.permutation(500)]))
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-12)
        np.testing.assert_allclose(a.covariance, b.covariance, atol=1e-12)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            summarize(make_ensemble(np.zeros((1, 2))))

    def test_msre_covariance_near_limit(self):
        cfg = msre_config(dimension=3, epsilon=0.05,
                          profile=builtin_profile("msre_const", 3, c=1.0),
                          x0=np.zeros(3), n_paths=20_000, seed=77)
        summary = summarize(simulate_ensemble(cfg))
        target = 2.0 / 3.0  # 2 c^2 T / n
        assert np.max(np.abs(np.diag(summary.covariance) - target)) <= 0.03 * target + 0.01


class TestKsMarginals:
    def test_calibrated_on_target_samples(self):
        rng = np.random.default_rng(21)
        target = GaussianSpec(np.zeros(2), np.diag([1.0, 4.0]))
        x = rng.multivariate_normal(target.mean, target.covariance, size=100_000)
        report = ks_marginals(make_ensemble(x), target)
        assert np.all(report.pvalues > 0.01)
        assert np.all(report.projection_pvalues > 0.01)

    def test_zero_variance_against_positive_target_fails(self):
        target = GaussianSpec(np.zeros(2), np.eye(2))
        x = np.zeros((100, 2))
        x[:, 0] = np.random.default_rng(3).standard_normal(100)
        report = ks_marginals(make_ensemble(x), target)
        assert report.failed[1] and not report.failed[0]
        assert report.pvalues[1] == 0.0

    def test_zero_target_variance_skipped(self):
        target = GaussianSpec(np.zeros(2), np.diag([1.0, 0.0]))
        x = np.random.default_rng(4).standard_normal((500, 2))
        report = ks_marginals(make_ensemble(x), target)
        assert not report.tested[1] and report.tested[0]

    def test_pvalues_roughly_uniform_under_null(self):
        rng = np.random.default_rng(22)
        target = GaussianSpec(np.zeros(1), np.eye(1))
        pvals = []
        for _ in range(100):
            x = rng.standard_normal((500, 1))
            pvals.append(ks_marginals(make_ensemble(x), target).pvalues[0])
        pvals = np.array(pvals)
        assert np.sum(pvals < 0.05) <= 15
        assert np.sum(pvals < 0.01) <= 6
        assert 0.2 <= np.median(pvals) <= 0.9

    def test_preasymptotic_regime_detected(self):
        # KS distance at eps=0.5 exceeds that at eps=0.05 (median of replicates)
        cfg = msre_config(n_paths=4000)
        grid = build_grid(2, 32)
        target = gaussian_law_at(
            limit_coefficients(cfg.profile, grid), cfg.horizon, cfg.x0
        )
        stats_far, stats_near = [], []
        for rep in range(5):
            far = simulate_ensemble(
                EvolutionConfig(**{**_as_dict(cfg), "epsilon": 0.5, "seed": 100 + rep})
            )
            near = simulate_ensemble(
                EvolutionConfig(**{**_as_dict(cfg), "epsilon": 0.05, "seed": 200 + rep})
            )
            stats_far.append(ks_marginals(far, target).statistics.max())
            stats_near.append(ks_marginals(near, target).statistics.max())
        assert np.median(stats_far) > np.median(stats_near)


def _as_dict(cfg):
    return dict(
        dimension=cfg.dimension,
        epsilon=cfg.epsilon,
        profile=cfg.profile,
        horizon=cfg.horizon,
        x0=cfg.x0,
        n_paths=cfg.n_paths,
        seed=cfg.seed,
        switching=cfg.switching,
        initial_direction=cfg.initial_direction,
    )


class TestDeviationMetric:
    def test_zero_profile_inversion(self):
        # a frozen particle scored against a nonzero reference target gives
        # exactly ||2AT||_F (+ zero mean error)
        cfg = msre_config(profile=VelocityProfile(2, name="at_rest"), n_paths=100)
        summary = summarize(simulate_ensemble(cfg))
        reference = GaussianSpec(np.zeros(2), 0.7 * np.eye(2))
        metric = deviation_metric(summary, reference)
        assert metric == pytest.approx(float(np.linalg.norm(0.7 * np.eye(2), "fro")), abs=1e-14)

    def test_noise_floor_positive(self):
        summary = summarize(make_ensemble(np.random.default_rng(5).standard_normal((100, 2))))
        assert noise_floor(summary) > 0.0


class TestFitLoglog:
    def test_recovers_power_law(self):
        eps = np.array([0.1, 0.05, 0.02, 0.01, 0.001])
        fit = fit_loglog(eps, 3.0 * eps**1.7)
        assert fit.slope == pytest.approx(1.7, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.exact and not fit.plateau

    def test_exact_when_all_tiny(self):
        eps = np.array([0.1, 0.01, 0.001, 0.0001])
        fit = fit_loglog(eps, np.full(4, 1e-16))
        assert fit.exact and np.isnan(fit.slope)

    def test_plateau_mask(self):
        eps = np.array([0.1, 0.05, 0.02, 0.01])
        metric = np.array([1e-1, 5e-2, 2e-2, 2e-2])
        fit = fit_loglog(eps, metric, used=np.array([True, True, True, False]))
        assert fit.plateau and fit.n_used == 3
        assert fit.slope == pytest.approx(1.0, abs=1e-12)


class TestSweep:
    def test_limit_for_config_discrete(self):
        import math

        from revolve.limits import DiscreteSwitching

        angles = np.array([[0.0], [math.pi / 2], [math.pi], [3 * math.pi / 2]])
        cfg = msre_config(switching=DiscreteSwitching(angles, np.full(4, 0.25)))
        limit = limit_for_config(cfg)
        np.testing.assert_allclose(limit.diffusion, 0.5 * np.eye(2), atol=1e-14)

    def test_eps_sweep_rule(self):
        np.testing.assert_array_equal(
            check_eps_sweep([0.01, 1.0, 0.1, 0.001], decades=3), [1.0, 0.1, 0.01, 0.001]
        )
        for bad in ([0.1, 0.01, 0.001], [0.1, 0.01, 0.001, 0.0], [1.5, 0.1, 0.01, 0.001],
                    [0.1, 0.01, 0.001, np.nan]):
            with pytest.raises(ValueError):
                check_eps_sweep(bad, decades=1)
        with pytest.raises(ValueError):
            check_eps_sweep([0.1, 0.05, 0.02, 0.01], decades=2)  # one decade only

    def test_sweep_validation(self):
        cfg = msre_config(n_paths=50)
        with pytest.raises(ValueError):
            run_sweep(cfg, [0.1, 0.05, 0.02])  # too few
        with pytest.raises(ValueError):
            run_sweep(cfg, [0.1, 0.09, 0.08, 0.07])  # < 1 decade

    def test_msre_sweep_decreases_then_fits(self):
        cfg = msre_config(n_paths=3000, seed=2025)
        result = run_sweep(cfg, [0.4, 0.2, 0.1, 0.04], grid_resolution=32)
        metrics = result.metric_values  # ordered by decreasing eps
        assert metrics[0] == metrics.max()
        assert metrics[0] > metrics[-1]
        if not result.fit.plateau:
            assert result.fit.slope > 0.5

    def test_sweep_is_reproducible(self):
        cfg = msre_config(n_paths=400, seed=9)
        a = run_sweep(cfg, [0.5, 0.2, 0.1, 0.05], grid_resolution=16)
        b = run_sweep(cfg, [0.5, 0.2, 0.1, 0.05], grid_resolution=16)
        np.testing.assert_array_equal(a.metric_values, b.metric_values)
        np.testing.assert_array_equal(a.ks_pvalues, b.ks_pvalues)

    def test_mnre_drift_recovered_in_sweep_regime(self):
        profile = builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0)
        cfg = msre_config(
            dimension=3, profile=profile, x0=np.zeros(3),
            epsilon=0.02, n_paths=20_000, seed=31415,
        )
        ens = simulate_ensemble(cfg)
        summary = summarize(ens)
        d3 = limit_for_config(cfg).drift[2]
        assert abs(summary.mean[2] - d3 * cfg.horizon) <= 3.0 * summary.se_mean[2]

    def test_msre_cross_covariance_vanishes(self):
        for n in (2, 3):
            cfg = msre_config(
                dimension=n, profile=builtin_profile("msre_const", n, c=1.0),
                x0=np.zeros(n), epsilon=0.05, n_paths=20_000, seed=161 + n,
            )
            summary = summarize(simulate_ensemble(cfg))
            for i in range(n):
                for j in range(i + 1, n):
                    assert abs(summary.covariance[i, j]) <= 4.0 * summary.se_covariance[i, j]
