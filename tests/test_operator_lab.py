"""Tests of the discretized generator algebra and the perturbation solver."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revolve.limits import limit_coefficients
from revolve.operator_lab import (
    SolvabilityError,
    ThetaField,
    apply_q,
    apply_r0,
    apply_s,
    assembled_generator_residual,
    finite_difference_check,
    gaussian_bump,
    gaussian_monomial,
    lab_limit_coefficients,
    linear_function,
    potential_identity_error,
    project_pi,
    residual_scaling,
    solve_perturbation,
)
from revolve.profiles import ProfileError, VelocityProfile, builtin_profile
from revolve.sphere import AngleVector, build_grid

RES = {2: 32, 3: 24, 4: 12, 5: 8}
COEF_RES = {2: 32, 3: 24, 4: 16, 5: 12}  # coefficient tolerances need finer polar rules
EPS_LIST = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)


def grid_for(n):
    return build_grid(n, RES[n])


class TestProjector:
    def test_fixes_constants(self):
        g = grid_for(3)
        assert project_pi(ThetaField(g, np.full(g.size, 7.0))) == pytest.approx(7.0, abs=1e-12)

    def test_kills_first_component(self):
        for n in (2, 3, 4):
            g = grid_for(n)
            assert abs(project_pi(ThetaField(g, g.directions[:, 0]))) <= 1e-10

    def test_second_moment_n3(self):
        g = grid_for(3)
        value = project_pi(ThetaField(g, g.directions[:, 0] ** 2))
        assert abs(value - 1.0 / 3.0) <= 1e-8

    def test_field_shape_checked(self):
        g = grid_for(2)
        with pytest.raises(ValueError):
            ThetaField(g, np.zeros(g.size + 1))


class TestQAndPotential:
    def test_q_annihilates_constants(self):
        g = grid_for(3)
        out = apply_q(ThetaField(g, np.full(g.size, 4.2)))
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_q_negates_mean_zero(self):
        g = grid_for(2)
        f = ThetaField(g, g.directions[:, 0])
        np.testing.assert_allclose(apply_q(f).values, -f.values, atol=1e-10)

    def test_pi_q_vanishes_random(self):
        g = grid_for(3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = ThetaField(g, rng.standard_normal(g.size))
            assert abs(project_pi(apply_q(f))) <= 1e-12

    def test_r0_annihilates_constants(self):
        g = grid_for(4)
        out = apply_r0(ThetaField(g, np.full(g.size, -3.0)))
        assert np.max(np.abs(out.values)) <= 1e-12

    def test_r0_inverts_q_on_range(self):
        g = grid_for(3)
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = ThetaField(g, rng.standard_normal(g.size))
            assert potential_identity_error(f) <= 1e-12

    def test_r0_negates_mean_zero(self):
        g = grid_for(2)
        f = ThetaField(g, g.directions[:, 0])
        np.testing.assert_allclose(apply_r0(f).values, -f.values, atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_identities_batch(self, n):
        # Pi Pi = Pi, Q Pi = Pi Q = 0, R0 Q = I - Pi on 100 random fields
        g = grid_for(n)
        rng = np.random.default_rng(40 + n)
        for _ in range(100):
            f = ThetaField(g, rng.standard_normal(g.size))
            pi_f = project_pi(f)
            const = ThetaField(g, np.full(g.size, pi_f))
            assert abs(project_pi(const) - pi_f) <= 1e-12
            assert np.max(np.abs(apply_q(const).values)) <= 1e-12
            assert abs(project_pi(apply_q(f))) <= 1e-12
            assert potential_identity_error(f) <= 1e-12


    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 2**32 - 1))
    def test_identities_on_random_sphere_grids(self, n, resolution, seed):
        # Pi Pi = Pi, Pi Q = 0 and R0 Q = I - Pi for any field on any grid
        g = build_grid(n, resolution)
        f = ThetaField(g, np.random.default_rng(seed).standard_normal(g.size))
        pi_f = project_pi(f)
        assert abs(project_pi(ThetaField(g, np.full(g.size, pi_f))) - pi_f) <= 1e-12
        assert abs(project_pi(apply_q(f))) <= 1e-12
        r0_q = apply_r0(apply_q(f)).values
        assert np.max(np.abs(r0_q - (f.values - pi_f))) <= 1e-12


class TestTransportOperator:
    def test_coordinate_function_axis(self):
        phi = linear_function(np.array([1.0, 0.0]))
        assert apply_s(AngleVector([0.0]), phi, np.zeros(2)) == pytest.approx(-1.0)

    def test_second_axis(self):
        phi = linear_function(np.array([0.0, 1.0]))
        assert apply_s(AngleVector([math.pi / 2]), phi, np.zeros(2)) == pytest.approx(-1.0)

    def test_radial_gaussian_center(self):
        phi = gaussian_bump(np.zeros(3), 1.0)
        rng = np.random.default_rng(8)
        for _ in range(10):
            theta = AngleVector(
                [rng.uniform(0, math.pi - 1e-9), rng.uniform(0, 2 * math.pi - 1e-9)]
            )
            assert apply_s(theta, phi, np.zeros(3)) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_s(AngleVector([0.0]), gaussian_bump(np.zeros(3), 1.0), np.zeros(3))


class TestTestFunctions:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda n: gaussian_bump(0.3 * np.arange(n), 0.8),
            lambda n: gaussian_monomial(0.1 * np.ones(n), 1.1, axis=0),
            lambda n: linear_function(np.linspace(-1, 1, n), 0.5),
        ],
    )
    @pytest.mark.parametrize("n", [2, 3])
    def test_derivatives_match_finite_differences(self, factory, n):
        phi = factory(n)
        err_g, err_h = finite_difference_check(phi, np.random.default_rng(11), n_points=100)
        assert err_g <= 1e-6
        assert err_h <= 1e-5

    def test_hessian_symmetric(self):
        phi = gaussian_monomial(np.array([0.2, -0.1, 0.0]), 0.9, axis=1)
        rng = np.random.default_rng(12)
        for _ in range(10):
            h = phi.hessian(rng.uniform(-1, 1, size=3))
            np.testing.assert_allclose(h, h.T, atol=1e-14)

    def test_third_matches_fd_of_hessian(self):
        phi = gaussian_bump(np.array([0.1, -0.2]), 1.0)
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(10):
            x = rng.uniform(-1, 1, size=2)
            t = phi.third(x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (phi.hessian(x + e) - phi.hessian(x - e)) / (2 * h)
                np.testing.assert_allclose(t[:, :, i], fd, atol=1e-6)


class TestPerturbationSolve:
    def test_msre_limit_is_half_laplacian(self):
        g = grid_for(2)
        p = builtin_profile("msre_const", 2, c=1.0)
        phi = gaussian_bump(np.zeros(2), 1.0)
        x = np.array([0.3, -0.2])
        sol = solve_perturbation(p, phi, x, g)
        assert abs(sol.limit_value - 0.5 * np.trace(phi.hessian(x))) <= 1e-7

    def test_phi1_has_zero_average(self):
        g = grid_for(3)
        p = builtin_profile("msre_const", 3, c=2.0)
        for phi in [gaussian_bump(np.zeros(3), 1.0), gaussian_monomial(np.zeros(3), 1.0, 2)]:
            sol = solve_perturbation(p, phi, np.array([0.1, 0.2, -0.1]), g)
            assert abs(project_pi(sol.phi1)) <= 1e-10
            assert abs(project_pi(sol.phi2)) <= 1e-10

    def test_mnre_limit_splits_into_drift_and_diffusion(self):
        g = grid_for(3)
        p = builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0)
        phi = gaussian_bump(np.array([0.1, 0.0, -0.1]), 1.2)
        x = np.array([0.3, -0.2, 0.1])
        sol = solve_perturbation(p, phi, x, g)
        assert abs(abs(sol.drift[2]) - 0.25) <= 1e-8
        expected = sol.drift @ phi.gradient(x) + (1.0 / 3.0) * np.trace(phi.hessian(x))
        assert abs(sol.limit_value - expected) <= 1e-7

    def test_quadratic_form_matches_limits_module(self):
        for name, n, kwargs in [
            ("msre_const", 2, {"c": 1.3}),
            ("step_half_sphere", 3, {"c": 1.0, "c1": 0.7}),
            ("sin_theta1", 3, {}),
        ]:
            g = grid_for(n)
            p = builtin_profile(name, n, **kwargs)
            sol = solve_perturbation(
                p, gaussian_bump(np.zeros(n), 1.0), 0.1 * np.ones(n), g
            )
            limit = limit_coefficients(p, g)
            assert np.max(np.abs(sol.diffusion - limit.diffusion)) <= 1e-8
            assert np.max(np.abs(sol.drift - limit.drift)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_msre_coefficients(self, n, c):
        # cross terms vanish, diagonal is c^2/n
        g = build_grid(n, COEF_RES[n])
        drift, diffusion = lab_limit_coefficients(builtin_profile("msre_const", n, c=c), g)
        off = diffusion - np.diag(np.diag(diffusion))
        assert np.max(np.abs(off)) <= 1e-9
        assert np.max(np.abs(np.diag(diffusion) - c * c / n)) <= 1e-8
        assert np.max(np.abs(drift)) <= 1e-12

    def test_balance_violation_raises_named_residual(self):
        g = grid_for(2)
        p = VelocityProfile(2, continuous_c=lambda a: np.sin(a[..., 0]))
        phi = gaussian_bump(np.zeros(2), 1.0)
        with pytest.raises(SolvabilityError) as err:
            solve_perturbation(p, phi, np.zeros(2), g)
        assert abs(err.value.report.residual_vector[1] - 0.5) <= 1e-8

    def test_atomic_profile_rejected(self):
        g = grid_for(2)
        with pytest.raises(ProfileError):
            solve_perturbation(
                builtin_profile("example3_atoms", 2),
                gaussian_bump(np.zeros(2), 1.0),
                np.zeros(2),
                g,
            )

    def test_limit_value_stable_under_grid_refinement(self):
        p = builtin_profile("step_half_sphere", 3, c=1.0, c1=0.5)
        phi = gaussian_bump(np.array([0.0, 0.1, 0.0]), 1.0)
        x = np.array([0.2, -0.1, 0.3])
        coarse = solve_perturbation(p, phi, x, build_grid(3, 16)).limit_value
        fine = solve_perturbation(p, phi, x, build_grid(3, 32)).limit_value
        assert abs(fine - coarse) <= 1e-8 * max(1.0, abs(fine))


# (profile, n, profile kwargs, bump center, point x, residual(eps) for
# eps in EPS_LIST, limit_value, sha256 of the bytes of drift, diffusion,
# phi1 and phi2), recorded with the solver that stored the remainder as
# third-order jets on the grid_for(n) grids
PINNED_SOLUTIONS = [
    (
        "step_half_sphere", 3, {"c": 1.0, "c1": 1.0}, [0.1, -0.1, 0.2], [0.25, 0.0, -0.3],
        [0.19807911318117707, 0.06039704285738174, 0.01887511467696322,
         0.005946424621622725, 0.001878183501284777],
        -0.8950439431834304,
        "f2b4080c2454c367a47d3304463bd0301ea741c673ea6c2aa3805ab735ba9f5d",
    ),
    (
        "sin_theta1", 4, {}, [0.0, 0.1, -0.2, 0.1], [0.2, -0.1, 0.3, 0.0],
        [0.06985318065617976, 0.02208951526807432, 0.006985318065617976,
         0.002208951526807432, 0.0006985318065617976],
        -0.5758012373742215,
        "5b5cbebf4f606ba7285ee15489e727d4af24921d93bef2018de1c42110eea1e3",
    ),
    (
        "msre_const", 5, {"c": 1.0}, [0.1, 0.0, -0.1, 0.2, 0.0], [0.3, 0.1, -0.2, 0.0, 0.15],
        [0.04822743449469855, 0.015250853870981912, 0.004822743449469855,
         0.0015250853870981912, 0.0004822743449469855],
        -0.9175434047515562,
        "8f47118d4c46c84e4b19aef5ed3f0452d7b16715ab3c88e02316b50d29a5db25",
    ),
]


class TestPinnedSolutions:
    @pytest.mark.parametrize(
        "name, n, kwargs, center, x, residuals, limit_value, digest",
        PINNED_SOLUTIONS,
        ids=[case[0] for case in PINNED_SOLUTIONS],
    )
    def test_matches_third_order_jet_solver(
        self, name, n, kwargs, center, x, residuals, limit_value, digest
    ):
        # contracting the outer transport at x reorders the remainder sums
        # (a few ulps); the hierarchy itself must not move by a bit
        sol = solve_perturbation(
            builtin_profile(name, n, **kwargs),
            gaussian_bump(np.array(center), 1.0),
            np.array(x),
            grid_for(n),
        )
        for eps, expected in zip(EPS_LIST, residuals):
            assert abs(sol.residual(eps) - expected) <= 1e-13 * expected
        assert sol.limit_value == limit_value
        arrays = (sol.drift, sol.diffusion, sol.phi1.values, sol.phi2.values)
        assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest

    def test_memory_scales_as_m_n_squared(self):
        # storing the remainder as (M, n, n, n) jets peaked at about 22 M n^2 doubles
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already runs: its peak would not be this solve's alone")
        g = build_grid(5, 8)
        n, m = 5, g.size
        p = builtin_profile("step_half_sphere", 5, c=1.0, c1=1.0)
        phi = gaussian_bump(np.zeros(5), 1.0)
        tracemalloc.start()
        try:
            solve_perturbation(p, phi, 0.25 * np.ones(5), g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * n**2 * 8


class TestResidual:
    def test_assembled_generator_matches_closed_form(self):
        # applying eps^-2 Q + eps^-1 c T + c1 T directly to phi + eps phi1
        # + eps^2 phi2 reproduces the closed-form remainder
        for n, center, x in [
            (3, [0.1, -0.1, 0.2], [0.25, 0.0, -0.3]),
            (5, [0.1, -0.1, 0.2, 0.0, 0.1], [0.25, 0.0, -0.3, 0.1, 0.2]),
        ]:
            g = grid_for(n)
            p = builtin_profile("step_half_sphere", n, c=1.0, c1=1.0)
            phi = gaussian_bump(np.array(center), 1.0)
            sol = solve_perturbation(p, phi, np.array(x), g)
            for eps in (0.5, 0.1, 0.02):
                direct = assembled_generator_residual(sol, eps)
                closed = sol.residual(eps)
                assert abs(direct - closed) <= 1e-9 / eps**2 + 1e-12

    def test_msre_slope_linear(self):
        g = grid_for(2)
        p = builtin_profile("msre_const", 2, c=1.0)
        fit = residual_scaling(
            p, gaussian_bump(np.zeros(2), 1.0), np.array([0.3, 0.1]), g, EPS_LIST
        )
        assert 0.9 <= fit.slope <= 1.1

    def test_mnre_slope_linear(self):
        g = grid_for(3)
        p = builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0)
        fit = residual_scaling(
            p, gaussian_bump(np.zeros(3), 1.0), np.array([0.1, 0.2, -0.1]), g, EPS_LIST
        )
        assert 0.9 <= fit.slope <= 1.1

    def test_linear_test_function_exact(self):
        # a linear function has zero Hessian: every corrector term that
        # survives contraction vanishes and the remainder is identically 0
        g = grid_for(2)
        p = builtin_profile("msre_const", 2, c=1.0)
        fit = residual_scaling(
            p, linear_function(np.array([1.0, -2.0])), np.zeros(2), g, EPS_LIST
        )
        assert fit.exact

    def test_eps_list_validation(self):
        g = grid_for(2)
        p = builtin_profile("msre_const", 2)
        phi = gaussian_bump(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            residual_scaling(p, phi, np.zeros(2), g, [0.1, 0.05, 0.01])  # too few
        with pytest.raises(ValueError):
            residual_scaling(p, phi, np.zeros(2), g, [0.1, 0.08, 0.06, 0.04])  # < 2 decades
