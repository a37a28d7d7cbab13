"""Acceptance suite: one test per criterion, each printing a PASS line.

Statistical criteria run under pinned seeds, so they are deterministic;
the margins were chosen so that the checks sit far from their tolerances.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import json
import math
import time

import numpy as np
import pytest

from revolve.cli import load_config, main
from revolve.limits import UniformSphere, gaussian_law_at, limit_coefficients
from revolve.operator_lab import (
    ThetaField,
    apply_q,
    gaussian_bump,
    lab_limit_coefficients,
    potential_identity_error,
    project_pi,
    residual_scaling,
)
from revolve.profiles import FirstAngleSine, VelocityProfile, builtin_profile, check_balance
from revolve.simulator import EndpointEnsemble, EvolutionConfig, simulate_ensemble
from revolve.sphere import build_grid
from revolve.stats import ks_marginals, summarize

EPS_LIST = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)


def report(criterion: str, elapsed: float, detail: str) -> None:
    print(f"[acceptance] PASS {criterion} ({elapsed:.1f}s) {detail}")


def test_criterion_1_operator_algebra():
    t0 = time.time()
    worst = 0.0
    for n, res in [(2, 32), (3, 16), (4, 12), (5, 8)]:
        grid = build_grid(n, res)
        rng = np.random.default_rng(1000 + n)
        for _ in range(100):
            f = ThetaField(grid, rng.standard_normal(grid.size))
            pi_f = project_pi(f)
            const = ThetaField(grid, np.full(grid.size, pi_f))
            worst = max(worst, abs(project_pi(const) - pi_f))          # Pi Pi - Pi
            worst = max(worst, float(np.max(np.abs(apply_q(const).values))))  # Q Pi
            worst = max(worst, abs(project_pi(apply_q(f))))            # Pi Q
            worst = max(worst, potential_identity_error(f))            # R0 Q - (I - Pi)
            assert worst <= 1e-12
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report("criterion 1 (operator algebra)", elapsed, f"max identity residual {worst:.2e}")


def test_criterion_2_symmetric_limit_coefficients():
    t0 = time.time()
    worst_diag = 0.0
    worst_cross = 0.0
    for n, res in [(2, 32), (3, 24), (4, 16), (5, 12)]:
        grid = build_grid(n, res)
        for c in (0.5, 1.0, 2.0):
            profile = builtin_profile("msre_const", n, c=c)
            diffusion = lab_limit_coefficients(profile, grid).diffusion
            cross = np.max(np.abs(diffusion - np.diag(np.diag(diffusion))))
            diag = np.max(np.abs(np.diag(diffusion) - c * c / n))
            assert cross <= 1e-9
            assert diag <= 1e-8
            worst_cross = max(worst_cross, cross)
            worst_diag = max(worst_diag, diag)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(
        "criterion 2 (limit coefficients c^2/n)",
        elapsed,
        f"max cross {worst_cross:.2e}, max diag error {worst_diag:.2e}",
    )


def test_criterion_3_residual_scaling():
    t0 = time.time()
    rng = np.random.default_rng(31)
    slopes = []
    cases = [
        (builtin_profile("msre_const", 2, c=1.0), build_grid(2, 32), 2),
        (builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0), build_grid(3, 24), 3),
    ]
    for profile, grid, n in cases:
        first = lab_limit_coefficients(profile, grid)
        for _ in range(5):
            phi = gaussian_bump(rng.uniform(-0.3, 0.3, size=n), rng.uniform(0.8, 1.4))
            x = rng.uniform(-0.5, 0.5, size=n)
            fit = residual_scaling(first, phi, x, EPS_LIST)
            assert 0.9 <= fit.slope <= 1.1
            slopes.append(fit.slope)
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(
        "criterion 3 (remainder is O(eps))",
        elapsed,
        f"slopes in [{min(slopes):.3f}, {max(slopes):.3f}]",
    )


def test_criterion_4_symmetric_weak_convergence():
    # Path-space convergence is not reproducible at desk scale; this
    # finite-dimensional endpoint-marginal suite is the stated substitute.
    t0 = time.time()
    cfg = EvolutionConfig(
        dimension=2,
        epsilon=0.05,
        profile=builtin_profile("msre_const", 2, c=1.0),
        horizon=1.0,
        x0=np.zeros(2),
        n_paths=100_000,
        seed=20240517,
    )
    ensemble = simulate_ensemble(cfg)
    x = ensemble.points
    summary = summarize(ensemble)

    var = np.diag(summary.covariance)
    assert np.max(np.abs(var - 1.0)) <= 0.03  # 2 c^2 T / n = 1
    assert np.all(np.abs(summary.mean) <= 4.0 * summary.se_mean)
    assert abs(summary.covariance[0, 1]) <= 4.0 * summary.se_covariance[0, 1]

    target = gaussian_law_at(
        limit_coefficients(cfg.profile, build_grid(2, 32)), cfg.horizon, cfg.x0
    )
    # 20 replicates = 20 disjoint 5000-path sub-ensembles; medians per marginal
    pvalues = np.array(
        [
            ks_marginals(
                EndpointEnsemble(2, cfg.horizon, x[k * 5000 : (k + 1) * 5000], "rep"),
                target,
            ).pvalues
            for k in range(20)
        ]
    )
    medians = np.median(pvalues, axis=0)
    assert np.all(medians > 0.01)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(
        "criterion 4 (symmetric endpoint law)",
        elapsed,
        f"max |var-1| {np.max(np.abs(var - 1.0)):.4f}, min KS median {medians.min():.3f}",
    )


def test_criterion_5_nonsymmetric_drift_and_diffusion():
    t0 = time.time()
    profile = builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0)
    cfg = EvolutionConfig(
        dimension=3,
        epsilon=0.02,
        profile=profile,
        horizon=1.0,
        x0=np.zeros(3),
        n_paths=100_000,
        seed=57721566,
    )
    oracle = limit_coefficients(profile, build_grid(3, 24)).drift
    ensemble = simulate_ensemble(cfg)
    summary = summarize(ensemble)

    drift_emp = summary.mean[2] / cfg.horizon
    assert abs(abs(drift_emp) - 0.25) <= 0.02 * 0.25
    assert math.copysign(1.0, drift_emp) == math.copysign(1.0, oracle[2])

    target_cov = 2.0 * (1.0 / 3.0) * cfg.horizon
    diag = np.diag(summary.covariance)
    assert np.max(np.abs(diag - target_cov)) <= 0.04 * target_cov
    off = summary.covariance - np.diag(diag)
    assert np.max(np.abs(off)) <= 0.04 * target_cov
    elapsed = time.time() - t0
    assert elapsed < 180.0
    report(
        "criterion 5 (drift 1/4 along x3)",
        elapsed,
        f"drift {drift_emp:.5f}, max diag deviation "
        f"{np.max(np.abs(diag - target_cov)) / target_cov * 100:.2f}%",
    )


def test_criterion_6_atomic_example_coefficients():
    t0 = time.time()
    profile = builtin_profile("example3_atoms", 2)
    limit = limit_coefficients(profile, UniformSphere().grid(2, 32, profile.atoms))
    np.testing.assert_allclose(limit.drift, [0.0, 1.0 / (2.0 * math.pi)], atol=1e-8)
    np.testing.assert_allclose(limit.diffusion, np.diag([1.0 / math.pi, 0.0]), atol=1e-8)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(
        "criterion 6 (atomic drift 1/2pi, diffusion 1/pi)",
        elapsed,
        f"drift {limit.drift[1]:.8f}",
    )


def test_criterion_7_balance_gate():
    t0 = time.time()
    ok = check_balance(builtin_profile("sin_theta1", 3), build_grid(3, 24), tolerance=1e-10)
    assert ok.satisfied

    plane = VelocityProfile(2, continuous_c=FirstAngleSine())
    bad = check_balance(plane, build_grid(2, 32), tolerance=1e-10)
    assert not bad.satisfied
    np.testing.assert_allclose(bad.residual_vector, [0.0, 0.5], atol=1e-8)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(
        "criterion 7 (balance gate)",
        elapsed,
        f"sin theta1 residual {ok.residual_norm:.2e}, plane residual (0, {bad.residual_vector[1]:.6f})",
    )


def test_criterion_8_reproducible_parallel_simulation(tmp_path, monkeypatch):
    t0 = time.time()
    document = {
        "evolution": {
            "dimension": 2,
            "epsilon": 0.1,
            "horizon": 1.0,
            "x0": [0.0, 0.0],
            "n_paths": 1500,
            "seed": 99,
            "profile": {"name": "msre_const", "c": 1.0},
        }
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    outputs = []
    for workers in ("1", "4", "8"):
        monkeypatch.setenv("REVOLVE_THREADS", workers)
        out = tmp_path / f"workers{workers}"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        outputs.append((out / "endpoints.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(
        "criterion 8 (byte-identical under 1/4/8 workers)",
        elapsed,
        f"{len(outputs[0])} CSV bytes",
    )
