"""A finite switching law is a quadrature grid: one limit formula and one
operator algebra for both switching laws."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revolve.limits import (
    BalanceError,
    discrete_limit_coefficients,
    finite_law_grid,
    limit_coefficients,
)
from revolve.operator_lab import (
    ThetaField,
    apply_q,
    assembled_generator_residual,
    gaussian_bump,
    lab_limit_coefficients,
    potential_identity_error,
    project_pi,
    residual_scaling,
    solve_perturbation,
)
from revolve.profiles import (
    BALANCE_TOLERANCE,
    BUILTIN_NAMES,
    Atom,
    ProfileError,
    VelocityProfile,
    builtin_profile,
    grid_speeds,
)
from revolve.simulator import DiscreteSwitching, EvolutionConfig, simulate_ensemble
from revolve.sphere import (
    FieldError,
    FiniteLawGrid,
    InvalidDimensionError,
    angles_from_directions,
    build_grid,
    check_dimension,
    directions_from_angles,
)
from revolve.stats import grid_for_config, limit_for_config

EPS_LIST = (1e-1, 10**-1.5, 1e-2, 10**-2.5, 1e-3)
EXAMPLE3_ANGLES = np.array([[0.0], [math.pi], [math.pi / 2.0]])
# the compass directions, which carry all of example3_atoms's atoms
COMPASS = (0.0, math.pi / 2.0, math.pi, 1.5 * math.pi)


def law_config(profile, angles, probabilities, **overrides):
    n = profile.dimension
    base = dict(
        dimension=n, epsilon=0.2, profile=profile, horizon=1.0, x0=np.zeros(n),
        n_paths=300, seed=5, switching=DiscreteSwitching(angles, probabilities),
    )
    base.update(overrides)
    return EvolutionConfig(**base)


@st.composite
def finite_laws(draw):
    """(profile, angles, probabilities): a built-in profile and a law of K
    directions with positive probabilities. A symmetric law puts equal mass
    on antipodal pairs, so that every built-in profile is balanced on it."""
    n = draw(st.integers(2, 4))
    names = [name for name in BUILTIN_NAMES if (name != "sin_theta1" or n >= 3)
             and (name != "example3_atoms" or n == 2)]
    profile = builtin_profile(draw(st.sampled_from(names)), n)
    k = draw(st.integers(1, 4))
    if n == 2:
        angle = st.sampled_from(COMPASS) | st.floats(0.0, 2.0 * math.pi, exclude_max=True)
        rows = np.array([[draw(angle)] for _ in range(k)])
    else:
        polar = st.floats(0.05, math.pi - 0.05)
        azimuth = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
        rows = np.array([[draw(polar) for _ in range(n - 2)] + [draw(azimuth)] for _ in range(k)])
    mass = np.array([draw(st.floats(0.05, 1.0)) for _ in range(k)])
    if draw(st.booleans()):
        antipodes = angles_from_directions(-directions_from_angles(rows))
        rows, mass = np.vstack([rows, antipodes]), np.concatenate([mass, mass])
    return profile, rows, mass / mass.sum()


class TestOneLimitFormula:
    @settings(max_examples=60, deadline=None)
    @given(finite_laws())
    def test_limit_for_config_is_discrete_limit_bit_for_bit(self, law):
        profile, angles, p = law
        c, c1 = profile.values_at(angles)
        config = law_config(profile, angles, p)
        # the probability-weighted sums, summed in this order
        s = directions_from_angles(angles)
        residual = np.einsum("k,k,ki->i", p, c, s)
        if np.linalg.norm(residual) > BALANCE_TOLERANCE:
            with pytest.raises(BalanceError) as err:
                limit_for_config(config)
            np.testing.assert_array_equal(err.value.report.residual_vector, residual)
            with pytest.raises(BalanceError) as err:
                discrete_limit_coefficients(profile.dimension, angles, p, c, c1)
            np.testing.assert_array_equal(err.value.report.residual_vector, residual)
            return
        limit = limit_for_config(config)
        expected = discrete_limit_coefficients(profile.dimension, angles, p, c, c1)
        np.testing.assert_array_equal(limit.drift, expected.drift)
        np.testing.assert_array_equal(limit.diffusion, expected.diffusion)
        a = np.einsum("k,k,ki,kj->ij", p, c * c, s, s)
        np.testing.assert_array_equal(limit.drift, np.einsum("k,k,ki->i", p, c1, s))
        np.testing.assert_array_equal(limit.diffusion, 0.5 * (a + a.T))

    @settings(max_examples=60, deadline=None)
    @given(finite_laws(), st.integers(0, 2**32 - 1))
    def test_operator_identities_on_the_law_grid(self, law, seed):
        _, angles, p = law
        grid = finite_law_grid(angles, p)
        f = ThetaField(grid, np.random.default_rng(seed).standard_normal(grid.size))
        pi_f = project_pi(f)
        assert abs(project_pi(ThetaField(grid, np.full(grid.size, pi_f))) - pi_f) <= 1e-12
        assert abs(project_pi(apply_q(f))) <= 1e-12
        assert potential_identity_error(f) <= 1e-12

    @pytest.mark.parametrize(
        "p", [np.full(3, 1.0 / 3.0), np.array([0.25, 0.25, 0.5])], ids=["thirds", "quarter_half"]
    )
    def test_example3_law_values(self, p):
        profile = builtin_profile("example3_atoms", 2)
        limit = limit_for_config(law_config(profile, EXAMPLE3_ANGLES, p))
        np.testing.assert_allclose(limit.drift, [0.0, p[2]], atol=1e-15)
        np.testing.assert_allclose(limit.diffusion, np.diag([p[0] + p[1], 0.0]), atol=1e-15)

    def test_zero_probability_state_carries_no_mass(self):
        profile = builtin_profile("example3_atoms", 2)
        with_zero = np.array([[0.0], [math.pi], [1.5 * math.pi], [math.pi / 2.0]])
        p_zero = np.array([1.0, 1.0, 0.0, 1.0]) / 3.0
        grid = finite_law_grid(with_zero, p_zero)
        np.testing.assert_array_equal(grid.nodes, EXAMPLE3_ANGLES)
        without = limit_for_config(law_config(profile, EXAMPLE3_ANGLES, np.full(3, 1.0 / 3.0)))
        limit = limit_for_config(law_config(profile, with_zero, p_zero))
        np.testing.assert_array_equal(limit.drift, without.drift)
        np.testing.assert_array_equal(limit.diffusion, without.diffusion)

    def test_zero_probability_state_still_starts_a_path(self):
        # the simulator reads the law itself, so a zero-probability state is
        # still a valid initial direction, with the bytes it had before the
        # law's grid dropped such states
        profile = builtin_profile("example3_atoms", 2)
        with_zero = np.array([[0.0], [math.pi], [1.5 * math.pi], [math.pi / 2.0]])
        start = np.array([1.5 * math.pi])
        cfg = law_config(profile, with_zero, np.array([1.0, 1.0, 0.0, 1.0]) / 3.0,
                         initial_direction=start)
        points = simulate_ensemble(cfg, workers=1).points
        assert hashlib.sha256(points.tobytes()).hexdigest() == (
            "f53ecfd464e7f197d8e0e39c08c4033ccb0b73c5ba1a3ea40f38f3077b5fe87a"
        )
        without = law_config(profile, EXAMPLE3_ANGLES, np.full(3, 1.0 / 3.0),
                             initial_direction=start)
        assert simulate_ensemble(without, workers=1).points.tobytes() == points.tobytes()

    def test_law_grid_rejects_an_invalid_law(self):
        with pytest.raises(ValueError):
            finite_law_grid(EXAMPLE3_ANGLES, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            finite_law_grid(EXAMPLE3_ANGLES, np.array([math.nan, 0.5, 0.5]))
        with pytest.raises(ValueError):
            finite_law_grid(EXAMPLE3_ANGLES, np.array([0.5, 0.5]))
        # the switching law validates itself through its grid
        with pytest.raises(FieldError) as err:
            DiscreteSwitching([[]], [1.0])
        assert err.value.field == "angles"
        with pytest.raises(FieldError) as err:
            DiscreteSwitching(EXAMPLE3_ANGLES, [0.5, 0.5])
        assert err.value.field == "probabilities"


class TestGridRule:
    def test_grid_for_config_follows_the_switching_law(self):
        profile = builtin_profile("example3_atoms", 2)
        law = law_config(profile, EXAMPLE3_ANGLES, np.full(3, 1.0 / 3.0))
        grid = grid_for_config(law, 8)
        assert isinstance(grid, FiniteLawGrid)
        np.testing.assert_array_equal(grid.weights, np.full(3, 1.0 / 3.0))
        uniform = EvolutionConfig(2, 0.2, profile, 1.0, np.zeros(2), 10, 0)
        grid = grid_for_config(uniform, 8)
        assert not isinstance(grid, FiniteLawGrid)
        np.testing.assert_array_equal(grid.nodes, build_grid(2, 8).nodes)

    def test_atoms_resolve_at_law_nodes_and_are_point_masses_on_a_sphere(self):
        profile = builtin_profile("example3_atoms", 2)
        c, c1, atoms = grid_speeds(profile, finite_law_grid(EXAMPLE3_ANGLES, np.full(3, 1 / 3)))
        np.testing.assert_array_equal(c, [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(c1, [0.0, 0.0, 1.0])
        assert atoms == ()
        sphere = build_grid(2, 8)
        c, c1, atoms = grid_speeds(profile, sphere)
        np.testing.assert_array_equal(c, np.zeros(sphere.size))
        assert atoms == profile.atoms

    @pytest.mark.parametrize(
        "profile, angles, c, c1",
        [
            # the plane's atom at 0 named by 2 pi
            (builtin_profile("example3_atoms", 2), [[2.0 * math.pi], [math.pi], [math.pi / 2.0]],
             [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]),
            # the north pole: any azimuth names it
            (VelocityProfile(3, atoms=(Atom([0.0, 0.0], 1.0, 2.0, 3.0),)), [[0.0, 1.0]],
             [2.0], [3.0]),
        ],
        ids=["plane_2pi", "north_pole"],
    )
    def test_atoms_are_matched_by_direction(self, profile, angles, c, c1):
        grid = finite_law_grid(np.array(angles), np.full(len(angles), 1.0 / len(angles)))
        got_c, got_c1, _ = grid_speeds(profile, grid)
        np.testing.assert_array_equal(got_c, c)
        np.testing.assert_array_equal(got_c1, c1)

    def test_lab_takes_atoms_on_a_law_grid_only(self):
        profile = builtin_profile("example3_atoms", 2)
        phi = gaussian_bump(np.zeros(2), 1.0)
        with pytest.raises(ProfileError):
            lab_limit_coefficients(profile, build_grid(2, 8))
        grid = finite_law_grid(EXAMPLE3_ANGLES, np.full(3, 1.0 / 3.0))
        drift, diffusion = lab_limit_coefficients(profile, grid)
        limit = limit_coefficients(profile, grid)
        assert np.max(np.abs(drift - limit.drift)) <= 1e-12
        assert np.max(np.abs(diffusion - limit.diffusion)) <= 1e-12
        x = np.array([0.25, 0.25])
        solution = solve_perturbation(profile, phi, x, grid)
        for eps in EPS_LIST:
            gap = abs(assembled_generator_residual(solution, eps) - solution.residual(eps))
            assert gap <= 1e-12 * max(1.0, solution.residual(eps))
        fit = residual_scaling(profile, phi, x, grid, EPS_LIST)
        assert fit.slope == pytest.approx(1.0, abs=0.02)


class TestDimensionRule:
    @pytest.mark.parametrize("n", [1, 0, -3, math.nan])
    def test_one_checker(self, n):
        with pytest.raises(InvalidDimensionError) as err:
            check_dimension(n)
        assert err.value.field == "dimension"

    def test_profile_and_config_use_it(self):
        with pytest.raises(InvalidDimensionError):
            VelocityProfile(1)
        with pytest.raises(InvalidDimensionError) as err:
            EvolutionConfig(1, 0.2, builtin_profile("msre_const", 2), 1.0, np.zeros(1), 10, 0)
        assert err.value.field == "dimension"
