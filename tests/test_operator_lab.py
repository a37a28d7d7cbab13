"""Tests of the discretized generator algebra and the perturbation solver."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revolve.limits import DiscreteSwitching, limit_coefficients
from revolve.operator_lab import (
    SolvabilityError,
    TestFunction,
    ThetaField,
    _transported_values,
    apply_q,
    assembled_generator_residual,
    gaussian_bump,
    lab_limit_coefficients,
    potential_identity_error,
    project_pi,
    residual_scaling,
    solve_perturbation,
)
from revolve.profiles import ProfileError, VelocityProfile, builtin_profile, grid_speeds
from revolve.sphere import angles_from_directions, build_grid, directions_from_angles

RES = {2: 32, 3: 24, 4: 12, 5: 8}
COEF_RES = {2: 32, 3: 24, 4: 16, 5: 12}  # coefficient tolerances need finer polar rules
EPS_LIST = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)


def grid_for(n):
    return build_grid(n, RES[n])


def gaussian_monomial(center: np.ndarray, width: float, axis: int) -> TestFunction:
    """(x_axis - center_axis) * gaussian_bump(center, width)."""
    g = gaussian_bump(center, width)
    center = np.asarray(center, dtype=float)
    n = center.size
    if not 0 <= axis < n:
        raise ValueError(f"axis must lie in [0, {n}), got {axis}")

    def value(x):
        u = np.asarray(x, dtype=float) - center
        return float(u[axis]) * g.value(x)

    def gradient(x):
        u = np.asarray(x, dtype=float) - center
        grad = u[axis] * g.gradient(x)
        grad[axis] += g.value(x)
        return grad

    def hessian(x):
        u = np.asarray(x, dtype=float) - center
        gg = g.gradient(x)
        h = u[axis] * g.hessian(x)
        h[axis, :] += gg
        h[:, axis] += gg
        return h

    def third(x):
        u = np.asarray(x, dtype=float) - center
        gh = g.hessian(x)
        t = u[axis] * g.third(x)
        t[axis, :, :] += gh
        t[:, axis, :] += gh
        t[:, :, axis] += gh
        return t

    return TestFunction(n, value, gradient, hessian, third)


def linear_function(coefficients: np.ndarray, constant: float = 0.0) -> TestFunction:
    """a . x + b; zero Hessian and third derivatives."""
    a = np.asarray(coefficients, dtype=float)
    n = a.size

    return TestFunction(
        n,
        value=lambda x: float(np.dot(a, np.asarray(x, dtype=float)) + constant),
        gradient=lambda x: a.copy(),
        hessian=lambda x: np.zeros((n, n)),
        third=lambda x: np.zeros((n, n, n)),
    )


def finite_difference_check(
    phi: TestFunction, rng: np.random.Generator, n_points: int = 100, h: float = 1e-5
) -> tuple[float, float]:
    """Max relative error of (gradient vs FD of value, hessian vs FD of gradient)."""
    n = phi.dimension
    worst_g = 0.0
    worst_h = 0.0
    for _ in range(n_points):
        x = rng.uniform(-1.5, 1.5, size=n)
        grad = phi.gradient(x)
        hess = phi.hessian(x)
        scale_g = max(1.0, float(np.max(np.abs(grad))))
        scale_h = max(1.0, float(np.max(np.abs(hess))))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd_g = (phi.value(x + e) - phi.value(x - e)) / (2 * h)
            worst_g = max(worst_g, abs(fd_g - grad[i]) / scale_g)
            fd_h = (phi.gradient(x + e) - phi.gradient(x - e)) / (2 * h)
            worst_h = max(worst_h, float(np.max(np.abs(fd_h - hess[i]))) / scale_h)
    return worst_g, worst_h


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

    # R0 = Q = Pi - I here: the potential operator is apply_q

    def test_r0_annihilates_constants(self):
        g = grid_for(4)
        out = apply_q(ThetaField(g, np.full(g.size, -3.0)))
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
        np.testing.assert_allclose(apply_q(f).values, -f.values, atol=1e-10)

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
        r0_q = apply_q(apply_q(f)).values
        assert np.max(np.abs(r0_q - (f.values - pi_f))) <= 1e-12


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
        sol = solve_perturbation(lab_limit_coefficients(p, g), phi, x)
        assert abs(sol.limit_value - 0.5 * np.trace(phi.hessian(x))) <= 1e-7

    def test_phi1_has_zero_average(self):
        g = grid_for(3)
        p = builtin_profile("msre_const", 3, c=2.0)
        for phi in [gaussian_bump(np.zeros(3), 1.0), gaussian_monomial(np.zeros(3), 1.0, 2)]:
            sol = solve_perturbation(lab_limit_coefficients(p, g), phi, np.array([0.1, 0.2, -0.1]))
            assert abs(project_pi(sol.phi1)) <= 1e-10
            assert abs(project_pi(sol.phi2)) <= 1e-10

    def test_mnre_limit_splits_into_drift_and_diffusion(self):
        g = grid_for(3)
        p = builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0)
        phi = gaussian_bump(np.array([0.1, 0.0, -0.1]), 1.2)
        x = np.array([0.3, -0.2, 0.1])
        sol = solve_perturbation(lab_limit_coefficients(p, g), phi, x)
        assert abs(abs(sol.first.drift[2]) - 0.25) <= 1e-8
        expected = sol.first.drift @ phi.gradient(x) + (1.0 / 3.0) * np.trace(phi.hessian(x))
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
                lab_limit_coefficients(p, g), gaussian_bump(np.zeros(n), 1.0), 0.1 * np.ones(n)
            )
            limit = limit_coefficients(p, g)
            assert np.max(np.abs(sol.first.diffusion - limit.diffusion)) <= 1e-8
            assert np.max(np.abs(sol.first.drift - limit.drift)) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_msre_coefficients(self, n, c):
        # cross terms vanish, diagonal is c^2/n
        g = build_grid(n, COEF_RES[n])
        first = lab_limit_coefficients(builtin_profile("msre_const", n, c=c), g)
        drift, diffusion = first.drift, first.diffusion
        off = diffusion - np.diag(np.diag(diffusion))
        assert np.max(np.abs(off)) <= 1e-9
        assert np.max(np.abs(np.diag(diffusion) - c * c / n)) <= 1e-8
        assert np.max(np.abs(drift)) <= 1e-12

    def test_balance_violation_raises_named_residual(self):
        g = grid_for(2)
        p = VelocityProfile(2, continuous_c=lambda s: s[..., 1])  # sin(theta) in the plane
        phi = gaussian_bump(np.zeros(2), 1.0)
        with pytest.raises(SolvabilityError) as err:
            solve_perturbation(lab_limit_coefficients(p, g), phi, np.zeros(2))
        assert abs(err.value.report.residual_vector[1] - 0.5) <= 1e-8

    def test_atomic_profile_rejected(self):
        g = grid_for(2)
        with pytest.raises(ProfileError):
            lab_limit_coefficients(builtin_profile("example3_atoms", 2), g)

    def test_limit_value_stable_under_grid_refinement(self):
        p = builtin_profile("step_half_sphere", 3, c=1.0, c1=0.5)
        phi = gaussian_bump(np.array([0.0, 0.1, 0.0]), 1.0)
        x = np.array([0.2, -0.1, 0.3])
        coarse = solve_perturbation(lab_limit_coefficients(p, build_grid(3, 16)), phi, x)
        fine = solve_perturbation(lab_limit_coefficients(p, build_grid(3, 32)), phi, x)
        coarse, fine = coarse.limit_value, fine.limit_value
        assert abs(fine - coarse) <= 1e-8 * max(1.0, abs(fine))


# The grid-wide contractions against the einsum forms they replaced, kept
# here as references. Summed in another order, they may differ by a few ulps
# of the sum of the terms' magnitudes.
ULPS = 8 * np.finfo(float).eps


def contraction_grids():
    grids = [build_grid(n, RES[n]) for n in (2, 3, 4, 5)]
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        # antipodal pairs of equal mass balance every profile used below
        rows = np.column_stack(
            [rng.uniform(0.05, math.pi - 0.05, (5, n - 2)), rng.uniform(0.0, 2 * math.pi, 5)]
        )
        rows = np.vstack([rows, angles_from_directions(-directions_from_angles(rows))])
        mass = np.tile(rng.uniform(0.05, 1.0, 5), 2)
        grids.append(DiscreteSwitching(rows, mass / mass.sum()).grid())
    return grids


def contraction_profiles(n):
    profiles = [builtin_profile("step_half_sphere", n, c=1.3, c1=0.7)]
    return profiles + ([builtin_profile("sin_theta1", n)] if n >= 3 else [])


def whole_array_solve(w, s, c, c1, gradient, hessian, third, sign=-1.0):
    """(diffusion, phi2, r1, r2) of the hierarchy with b1 and b2 held whole,
    b2 as (M, n, n), as assembled_generator_residual builds them. With
    sign = 1 and the absolute value of every input it bounds the magnitude of
    the terms that each sum adds."""
    c_s = c[:, None] * s
    a1 = c_s + sign * np.einsum("m...,m->...", c_s, w)
    c_s_a1 = np.einsum("mi,mj->mij", s, a1) * c[:, None, None]
    raw = np.einsum("m...,m->...", c_s_a1, w)
    b1 = c1[:, None] * s + sign * np.einsum("m...,m->...", c1[:, None] * s, w)
    b2 = c_s_a1 + sign * raw
    s_hessian = s @ hessian
    t_phi1 = np.einsum("mi,mi->m", a1, s_hessian)
    t_phi2 = np.einsum("mi,mi->m", b1, s_hessian) + np.einsum(
        "mij,mij->m", b2, np.einsum("mi,ijk->mjk", s, third))
    phi2 = b1 @ gradient + np.einsum("mij,ij->m", b2, hessian)
    return 0.5 * (raw + raw.T), phi2, c * t_phi2 + c1 * t_phi1, c1 * t_phi2


@pytest.mark.parametrize(
    "grid", contraction_grids(), ids=[f"sphere{n}" for n in (2, 3, 4, 5)] + ["law2", "law3", "law4"]
)
class TestContractions:
    def test_average(self, grid):
        f = np.random.default_rng(grid.size).standard_normal(grid.size)
        reference = np.dot(grid.weights, f)
        assert abs(grid.average(f) - reference) <= ULPS * np.dot(grid.weights, np.abs(f))

    def test_limit_diffusion(self, grid):
        w, s = grid.weights, grid.directions
        for profile in contraction_profiles(grid.dimension):
            c, _, _ = grid_speeds(profile, grid)
            reference = np.einsum("m,m,mi,mj->ij", w, c * c, s, s)
            reference = 0.5 * (reference + reference.T)
            got = limit_coefficients(profile, grid).diffusion
            assert np.max(np.abs(got - reference)) <= ULPS * np.dot(w, c * c)

    def test_lab_limit_coefficients(self, grid):
        w, s = grid.weights, grid.directions
        for profile in contraction_profiles(grid.dimension):
            c, c1, _ = grid_speeds(profile, grid)
            b = c[:, None] * s
            mean_b = w @ b
            diffusion = np.einsum("m,mk,mi->ki", w * c, s, b - mean_b)
            diffusion = 0.5 * (diffusion + diffusion.T)
            drift = w @ (c1[:, None] * s)
            first = lab_limit_coefficients(profile, grid)
            got_drift, got_diffusion = first.drift, first.diffusion
            scale = np.dot(w, np.abs(c) * (np.abs(c) + np.max(np.abs(mean_b))))
            assert np.max(np.abs(got_diffusion - diffusion)) <= ULPS * scale
            assert np.max(np.abs(got_drift - drift)) <= ULPS * np.dot(w, np.abs(c1))

    def test_slab_sum_is_the_einsum_over_the_whole_array(self, grid):
        """The solve's node sums, now taken over the whole grid at x, match
        the hierarchy with b2 held as one (M, n, n) array."""
        n, w, s = grid.dimension, grid.weights, grid.directions
        phi, x = gaussian_bump(0.1 * np.arange(n), 1.0), np.full(n, 0.2)
        derivatives = phi.gradient(x), phi.hessian(x), phi.third(x)
        for profile in contraction_profiles(n) + [builtin_profile("msre_const", n, c=1.0)]:
            c, c1, _ = grid_speeds(profile, grid)
            sol = solve_perturbation(lab_limit_coefficients(profile, grid), phi, x)
            reference = whole_array_solve(w, s, c, c1, *derivatives)
            scale = whole_array_solve(w, *(np.abs(a) for a in (s, c, c1, *derivatives)), sign=1.0)
            got = (sol.first.diffusion, sol.phi2.values, sol.r1, sol.r2)
            for a, b, bound in zip(got, reference, scale):
                assert np.all(np.abs(a - b) <= ULPS * bound)

    def test_transported_values(self, grid):
        n, m, s = grid.dimension, grid.size, grid.directions
        rng = np.random.default_rng(m)
        d1, d2 = rng.standard_normal((m, n)), rng.standard_normal((m, n, n))
        phi = gaussian_bump(0.1 * np.arange(n), 1.0)
        x = np.full(n, 0.2)
        hessian, third = phi.hessian(x), phi.third(x)

        def transported(s, d1, d2, hessian, third):
            s_third = np.einsum("mi,ijk->mjk", s, third)
            return np.einsum("mi,mi->m", d1, s @ hessian) + np.einsum(
                "mi,mi->m", d2.reshape(m, -1), s_third.reshape(m, -1)
            )

        reference = transported(s, d1, d2, hessian, third)
        scale = transported(*(np.abs(a) for a in (s, d1, d2, hessian, third)))
        got = _transported_values(phi, x, s, d1, d2)
        assert np.all(np.abs(got - reference) <= ULPS * scale)


# (profile, n, profile kwargs, bump center, point x, residual(eps) for
# eps in EPS_LIST, limit_value, sha256 of the bytes of drift, diffusion,
# phi1 and phi2) on the grid_for(n) grids. The residuals were recorded with
# the solver that stored the remainder as third-order jets; the limit values
# and digests with the solve that contracts b2 at x. sin_theta1's digest since
# its speed reads the nodes' directions (arccos of s_1, not the node angle),
# which moves its arrays at roundoff but not its residuals or limit value
PINNED_SOLUTIONS = [
    (
        "step_half_sphere", 3, {"c": 1.0, "c1": 1.0}, [0.1, -0.1, 0.2], [0.25, 0.0, -0.3],
        [0.19807911318117707, 0.06039704285738174, 0.01887511467696322,
         0.005946424621622725, 0.001878183501284777],
        -0.8950439431834304,
        "0ee08ab2a934391463cf5ef10715728304a2c7644755fa4931f8bd47e12b8d76",
    ),
    (
        "sin_theta1", 4, {}, [0.0, 0.1, -0.2, 0.1], [0.2, -0.1, 0.3, 0.0],
        [0.06985318065617976, 0.02208951526807432, 0.006985318065617976,
         0.002208951526807432, 0.0006985318065617976],
        -0.5758012373742216,
        "885242b42f6a01b51e36b61dae272ab639d99c889ca9eda3b1619cb13285ed26",
    ),
    (
        "msre_const", 5, {"c": 1.0}, [0.1, 0.0, -0.1, 0.2, 0.0], [0.3, 0.1, -0.2, 0.0, 0.15],
        [0.04822743449469855, 0.015250853870981912, 0.004822743449469855,
         0.0015250853870981912, 0.0004822743449469855],
        -0.9175434047515562,
        "1200b39ae3e36af48c420e45d26d0c5016ed6279ee516ebacba2a54155b62668",
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
        # each contraction at x reorders sums (a few ulps of the remainder);
        # the solve must give the same bits on every run
        sol = solve_perturbation(
            lab_limit_coefficients(builtin_profile(name, n, **kwargs), grid_for(n)),
            gaussian_bump(np.array(center), 1.0),
            np.array(x),
        )
        for eps, expected in zip(EPS_LIST, residuals):
            assert abs(sol.residual(eps) - expected) <= 1e-13 * expected
        assert sol.limit_value == limit_value
        arrays = (sol.first.drift, sol.first.diffusion, sol.phi1.values, sol.phi2.values)
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
            solve_perturbation(lab_limit_coefficients(p, g), phi, 0.25 * np.ones(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * m * n**2 * 8

    def test_memory_scales_as_m_n(self):
        # both halves at 131072 nodes peak at about 3.4 M n doubles; one
        # (M, n, n) or (M, n^2) array alone would take 5 M n
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already runs: its peak would not be this solve's alone")
        g = build_grid(5, 16)
        n, m = 5, g.size
        p = builtin_profile("step_half_sphere", 5, c=1.0, c1=1.0)
        phi = gaussian_bump(np.zeros(5), 1.0)
        tracemalloc.start()
        try:
            solve_perturbation(lab_limit_coefficients(p, g), phi, 0.25 * np.ones(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * m * n * 8


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
            sol = solve_perturbation(lab_limit_coefficients(p, g), phi, np.array(x))
            for eps in (0.5, 0.1, 0.02):
                direct = assembled_generator_residual(sol, eps)
                closed = sol.residual(eps)
                assert abs(direct - closed) <= 1e-9 / eps**2 + 1e-12

    def test_msre_slope_linear(self):
        g = grid_for(2)
        p = builtin_profile("msre_const", 2, c=1.0)
        fit = residual_scaling(
            lab_limit_coefficients(p, g), gaussian_bump(np.zeros(2), 1.0), np.array([0.3, 0.1]),
            EPS_LIST,
        )
        assert 0.9 <= fit.slope <= 1.1

    def test_mnre_slope_linear(self):
        g = grid_for(3)
        p = builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0)
        fit = residual_scaling(
            lab_limit_coefficients(p, g), gaussian_bump(np.zeros(3), 1.0),
            np.array([0.1, 0.2, -0.1]), EPS_LIST,
        )
        assert 0.9 <= fit.slope <= 1.1

    def test_linear_test_function_exact(self):
        # a linear function has zero Hessian: every corrector term that
        # survives contraction vanishes and the remainder is identically 0
        g = grid_for(2)
        p = builtin_profile("msre_const", 2, c=1.0)
        fit = residual_scaling(
            lab_limit_coefficients(p, g), linear_function(np.array([1.0, -2.0])), np.zeros(2),
            EPS_LIST,
        )
        assert fit.exact

    def test_eps_list_validation(self):
        g = grid_for(2)
        p = builtin_profile("msre_const", 2)
        first, phi = lab_limit_coefficients(p, g), gaussian_bump(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            residual_scaling(first, phi, np.zeros(2), [0.1, 0.05, 0.01])  # too few
        with pytest.raises(ValueError):
            residual_scaling(first, phi, np.zeros(2), [0.1, 0.08, 0.06, 0.04])  # < 2 decades
