"""Tests of the closed-form limit drift and diffusion coefficients."""

import math

import numpy as np
import pytest

from revolve.limits import (
    BalanceError,
    DiffusionLimit,
    DiscreteSwitching,
    GaussianSpec,
    discrete_limit_coefficients,
    gaussian_law_at,
    limit_coefficients,
)
from revolve.operator_lab import lab_limit_coefficients, solve_perturbation, gaussian_bump
from revolve.profiles import (
    Atom,
    FirstAngleSine,
    VelocityProfile,
    builtin_profile,
)
from revolve.sphere import build_grid, directions_from_angles, normalization_constant

RES = {2: 32, 3: 24, 4: 16, 5: 12, 6: 14}


def grid_for(n):
    return build_grid(n, RES[n])


class TestSymmetricLimit:
    def test_msre_n3(self):
        limit = limit_coefficients(builtin_profile("msre_const", 3, c=1.0), grid_for(3))
        np.testing.assert_allclose(limit.drift, np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(limit.diffusion, np.eye(3) / 3.0, atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_msre_all_dimensions(self, n, c):
        limit = limit_coefficients(builtin_profile("msre_const", n, c=c), grid_for(n))
        off = limit.diffusion - np.diag(np.diag(limit.diffusion))
        assert np.max(np.abs(off)) <= 1e-10
        assert np.max(np.abs(np.diag(limit.diffusion) - c * c / n)) <= 1e-8
        assert np.max(np.abs(limit.drift)) <= 1e-9


class TestExampleProfiles:
    def test_atomic_example(self):
        limit = limit_coefficients(builtin_profile("example3_atoms", 2), grid_for(2))
        np.testing.assert_allclose(
            limit.drift, [0.0, 1.0 / (2.0 * math.pi)], atol=1e-8
        )
        np.testing.assert_allclose(
            limit.diffusion, np.diag([1.0 / math.pi, 0.0]), atol=1e-8
        )

    def test_step_plane(self):
        limit = limit_coefficients(
            builtin_profile("step_half_sphere", 2, c=1.0, c1=1.0), grid_for(2)
        )
        np.testing.assert_allclose(limit.drift, [0.0, -1.0 / math.pi], atol=1e-8)
        np.testing.assert_allclose(limit.diffusion, 0.5 * np.eye(2), atol=1e-8)

    def test_step_n3(self):
        limit = limit_coefficients(
            builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0), grid_for(3)
        )
        assert abs(abs(limit.drift[2]) - 0.25) <= 1e-8
        assert limit.drift[2] < 0.0
        np.testing.assert_allclose(limit.diffusion, np.eye(3) / 3.0, atol=1e-8)

    def test_atom_terms_keep_the_bits_of_the_per_atom_loop(self):
        # antipodal pairs with equal weight and c keep the balance; weights
        # and speeds that are not powers of two expose the product order
        pairs = [(0.3, 0.7, 1.3, -0.4), (1.1, 0.9, 0.6, 2.3), (2.0, 1.7, 0.45, 0.15)]
        atoms = []
        for theta, weight, c, c1 in pairs:
            atoms.append(Atom(np.array([theta]), weight, c, c1))
            atoms.append(Atom(np.array([theta + math.pi]), weight, c, 0.37 * c1))
        profile = VelocityProfile(2, atoms=tuple(atoms))
        grid = grid_for(2)
        inv_n = 1.0 / normalization_constant(2)
        a, drift = np.zeros((2, 2)), np.zeros(2)
        for atom in atoms:
            s_atom = directions_from_angles(atom.angles)
            a = a + atom.weight * atom.c_value**2 * inv_n * np.outer(s_atom, s_atom)
            drift = drift + atom.weight * atom.c1_value * inv_n * s_atom
        limit = limit_coefficients(profile, grid)
        np.testing.assert_array_equal(limit.drift, drift)
        np.testing.assert_array_equal(limit.diffusion, 0.5 * (a + a.T))

    def test_paper_sign_recorded(self):
        limit = limit_coefficients(builtin_profile("example3_atoms", 2), grid_for(2))
        np.testing.assert_array_equal(limit.drift_paper_sign, -limit.drift)


class TestCoefficientStructure:
    def test_diffusion_ignores_c1_and_drift_ignores_c(self):
        g = grid_for(3)
        base = builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0)
        other_c1 = builtin_profile("step_half_sphere", 3, c=1.0, c1=0.3)
        other_c = builtin_profile("step_half_sphere", 3, c=2.0, c1=1.0)
        l0, l1, l2 = (limit_coefficients(p, g) for p in (base, other_c1, other_c))
        np.testing.assert_array_equal(l0.diffusion, l1.diffusion)
        np.testing.assert_array_equal(l0.drift, l2.drift)

    def test_quadratic_scaling_in_c(self):
        g = grid_for(3)
        a1 = limit_coefficients(builtin_profile("msre_const", 3, c=1.0), g).diffusion
        a2 = limit_coefficients(builtin_profile("msre_const", 3, c=2.0), g).diffusion
        np.testing.assert_array_equal(a2, 4.0 * a1)

    def test_linear_scaling_in_c1(self):
        g = grid_for(2)
        d1 = limit_coefficients(
            builtin_profile("step_half_sphere", 2, c=1.0, c1=1.0), g
        ).drift
        d2 = limit_coefficients(
            builtin_profile("step_half_sphere", 2, c=1.0, c1=2.0), g
        ).drift
        np.testing.assert_array_equal(d2, 2.0 * d1)

    def test_balance_violation_raises(self):
        p = VelocityProfile(2, continuous_c=FirstAngleSine())
        with pytest.raises(BalanceError) as err:
            limit_coefficients(p, grid_for(2))
        assert err.value.report.residual_norm == pytest.approx(0.5, abs=1e-8)

    def test_type_invariants_enforced(self):
        with pytest.raises(ValueError):
            DiffusionLimit(2, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            DiffusionLimit(2, np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestAgainstOperatorLab:
    def test_random_balanced_profiles_agree(self):
        # balanced planar speeds: any harmonic except frequency one
        rng = np.random.default_rng(77)
        g = grid_for(2)
        for _ in range(20):
            a0, a2, b2, d1, d2 = rng.normal(size=5)

            c_fn = _PlaneHarmonics(a0, a2, b2)
            c1_fn = _PlaneHarmonics(d1, d2, 0.0)
            p = VelocityProfile(2, continuous_c=c_fn, continuous_c1=c1_fn)
            limit = limit_coefficients(p, g)
            first = lab_limit_coefficients(p, g)
            np.testing.assert_allclose(first.drift, limit.drift, atol=1e-8)
            np.testing.assert_allclose(first.diffusion, limit.diffusion, atol=1e-8)
            phi, x = gaussian_bump(np.zeros(2), 1.0), np.full(2, 0.3)
            sol = solve_perturbation(first, phi, x)
            expected = limit.drift @ phi.gradient(x) + np.sum(limit.diffusion * phi.hessian(x))
            assert abs(sol.limit_value - expected) <= 1e-8


class _PlaneHarmonics:
    """a0 + a2 cos(2 theta) + b2 sin(2 theta): balanced in the plane."""

    def __init__(self, a0, a2, b2):
        self.a0, self.a2, self.b2 = a0, a2, b2

    def __call__(self, directions):
        # cos(2 theta) and sin(2 theta) of s = (cos theta, sin theta)
        x, y = directions[..., 0], directions[..., 1]
        return self.a0 + self.a2 * (x * x - y * y) + self.b2 * (2.0 * x * y)


class TestDiscreteLaw:
    def test_four_compass_directions(self):
        angles = np.array([[0.0], [math.pi / 2], [math.pi], [3 * math.pi / 2]])
        p = np.full(4, 0.25)
        limit = discrete_limit_coefficients(2, angles, p, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(limit.diffusion, 0.5 * np.eye(2), atol=1e-14)
        np.testing.assert_allclose(limit.drift, np.zeros(2), atol=1e-14)

    def test_count_normalized_atomic_example(self):
        p = builtin_profile("example3_atoms", 2)
        angles = np.stack([a.angles for a in p.atoms])
        probs = np.full(3, 1.0 / 3.0)
        c = np.array([a.c_value for a in p.atoms])
        c1 = np.array([a.c1_value for a in p.atoms])
        limit = discrete_limit_coefficients(2, angles, probs, c, c1)
        # count normalization differs from the 1/N convention by design
        np.testing.assert_allclose(limit.drift, [0.0, 1.0 / 3.0], atol=1e-14)
        np.testing.assert_allclose(limit.diffusion, np.diag([2.0 / 3.0, 0.0]), atol=1e-14)

    def test_unbalanced_discrete_raises(self):
        with pytest.raises(BalanceError):
            discrete_limit_coefficients(
                2, np.array([[0.0]]), np.array([1.0]), np.array([1.0]), np.array([0.0])
            )

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            discrete_limit_coefficients(
                2, np.array([[0.0], [1.0]]), np.array([0.7, 0.7]),
                np.zeros(2), np.zeros(2),
            )
        with pytest.raises(ValueError):
            discrete_limit_coefficients(
                2, np.array([[0.0], [1.0]]), np.array([math.nan, 1.0]),
                np.zeros(2), np.zeros(2),
            )

    @pytest.mark.parametrize(
        "p",
        [[math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0], [-0.5, 1.5], [0.6, 0.5], [1, 1e-11]],
    )
    def test_probability_law_rejects(self, p):
        with pytest.raises(ValueError) as err:
            DiscreteSwitching(np.zeros((len(p), 1)), np.array(p))
        assert err.value.field == "probabilities"

    def test_probability_law_accepts_roundoff(self):
        DiscreteSwitching(np.zeros((3, 1)), np.full(3, 1.0 / 3.0))
        DiscreteSwitching(np.zeros((3, 1)), np.array([1.0, 0.0, 1e-13]))


class TestGaussianLaw:
    def test_msre_unit_law(self):
        limit = limit_coefficients(builtin_profile("msre_const", 2, c=1.0), grid_for(2))
        law = gaussian_law_at(limit, 1.0, np.zeros(2))
        np.testing.assert_allclose(law.mean, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(law.covariance, np.eye(2), atol=1e-8)

    def test_drift_only(self):
        limit = DiffusionLimit(2, np.array([1.0, -0.5]), np.zeros((2, 2)))
        law = gaussian_law_at(limit, 2.0, np.array([3.0, 0.0]))
        np.testing.assert_allclose(law.mean, [5.0, -1.0])
        np.testing.assert_array_equal(law.covariance, np.zeros((2, 2)))

    def test_time_scaling(self):
        limit = limit_coefficients(builtin_profile("msre_const", 3, c=1.0), grid_for(3))
        law1 = gaussian_law_at(limit, 1.5)
        law2 = gaussian_law_at(limit, 3.0)
        np.testing.assert_allclose(law2.covariance, 2.0 * law1.covariance, atol=1e-14)

    def test_nonpositive_time_rejected(self):
        limit = limit_coefficients(builtin_profile("msre_const", 2, c=1.0), grid_for(2))
        with pytest.raises(ValueError):
            gaussian_law_at(limit, 0.0)

    def test_gaussian_spec_validation(self):
        with pytest.raises(ValueError):
            GaussianSpec(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
