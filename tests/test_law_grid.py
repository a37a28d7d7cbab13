"""A finite switching law is a quadrature grid: one limit formula and one
operator algebra for both switching laws."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revolve.limits import (
    BalanceError,
    DiscreteSwitching,
    UniformSphere,
    discrete_limit_coefficients,
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
    _ATOM_ATOL,
    BALANCE_TOLERANCE,
    BUILTIN_NAMES,
    Atom,
    ProfileError,
    VelocityProfile,
    builtin_profile,
    grid_speeds,
)
from revolve.simulator import EvolutionConfig, simulate_ensemble
from revolve.sphere import (
    FieldError,
    InvalidDimensionError,
    angles_from_directions,
    build_grid,
    check_dimension,
    directions_from_angles,
)
from revolve.stats import limit_for_config
from test_sphere import mesh_nodes

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
    directions with positive probabilities, among them the directions of
    the profile's atoms. A symmetric law puts equal mass on antipodal pairs,
    so that every built-in profile is balanced on it."""
    n = draw(st.integers(2, 4))
    names = [name for name in BUILTIN_NAMES if (name != "sin_theta1" or n >= 3)
             and (name != "example3_atoms" or n == 2)]
    profile = builtin_profile(draw(st.sampled_from(names)), n)
    k = draw(st.integers(1, 4))
    if n == 2:
        angle = st.sampled_from(COMPASS) | st.floats(0.0, 2.0 * math.pi, exclude_max=True)
        rows = np.array([[draw(angle)] for _ in range(k)])
        if profile.atoms:  # a law must take each atom's direction
            rows, k = np.vstack([EXAMPLE3_ANGLES, rows]), k + 3
    else:
        polar = st.floats(0.05, math.pi - 0.05)
        azimuth = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
        rows = np.array([[draw(polar) for _ in range(n - 2)] + [draw(azimuth)] for _ in range(k)])
    mass = np.array([draw(st.floats(0.05, 1.0)) for _ in range(k)])
    if draw(st.booleans()):
        antipodes = angles_from_directions(-directions_from_angles(rows))
        rows, mass = np.vstack([rows, antipodes]), np.concatenate([mass, mass])
    return profile, rows, mass / mass.sum()


def atoms_apart(angles):
    """Whether the law's distinct rows have directions pairwise farther
    apart than the atoms' tolerance, so that discrete_limit_coefficients,
    which reads each row as an atom, keeps every row's own speeds."""
    s = directions_from_angles(np.unique(angles, axis=0))
    gaps = np.max(np.abs(s[:, None, :] - s[None, :, :]), axis=-1)
    return bool(np.all(gaps[np.triu_indices(len(s), 1)] > _ATOM_ATOL))


class TestOneLimitFormula:
    @settings(max_examples=60, deadline=None)
    @given(finite_laws())
    # the row just below 2 pi is in the lower half by its angle, and within
    # the atoms' tolerance of the row at 0 by its direction: the row sums
    # give drift x -1/4, and discrete_limit_coefficients, which merges the
    # two rows as atoms, 0
    @example((builtin_profile("step_half_sphere", 2),
              np.array([[0.0], [2.0 * math.pi - 1e-10], [math.pi], [math.pi]]), np.full(4, 0.25)))
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
        if atoms_apart(angles):
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
        grid = DiscreteSwitching(angles, p).grid()
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
        grid = DiscreteSwitching(with_zero, p_zero).grid()
        np.testing.assert_array_equal(grid.directions, directions_from_angles(EXAMPLE3_ANGLES))
        without = limit_for_config(law_config(profile, EXAMPLE3_ANGLES, np.full(3, 1.0 / 3.0)))
        limit = limit_for_config(law_config(profile, with_zero, p_zero))
        np.testing.assert_array_equal(limit.drift, without.drift)
        np.testing.assert_array_equal(limit.diffusion, without.diffusion)

    def test_zero_probability_state_still_starts_a_path(self):
        # a zero-probability state is still a valid initial direction, and
        # the law's grid, which drops such states, draws the same paths
        profile = builtin_profile("example3_atoms", 2)
        with_zero = np.array([[0.0], [math.pi], [1.5 * math.pi], [math.pi / 2.0]])
        start = np.array([1.5 * math.pi])
        cfg = law_config(profile, with_zero, np.array([1.0, 1.0, 0.0, 1.0]) / 3.0,
                         initial_direction=start)
        points = simulate_ensemble(cfg, workers=1).points
        assert hashlib.sha256(points.tobytes()).hexdigest() == (
            "9233ced3415d0a32886b7bb1446cd8b31c6eaba2c0f005a6cfbf52c7511b3839"
        )
        without = law_config(profile, EXAMPLE3_ANGLES, np.full(3, 1.0 / 3.0),
                             initial_direction=start)
        assert simulate_ensemble(without, workers=1).points.tobytes() == points.tobytes()

    def test_law_grid_rejects_an_invalid_law(self):
        # the switching law validates itself as it builds its grid
        for p in ([0.5, 0.5, 0.5], [math.nan, 0.5, 0.5], [0.5, 0.5]):
            with pytest.raises(FieldError) as err:
                DiscreteSwitching(EXAMPLE3_ANGLES, np.array(p))
            assert err.value.field == "probabilities"
        with pytest.raises(FieldError) as err:
            DiscreteSwitching([[]], [1.0])
        assert err.value.field == "angles"
        with pytest.raises(FieldError) as err:
            DiscreteSwitching([[0.0], [1.0, 2.0]], [0.5, 0.5])
        assert err.value.field == "angles"


class TestGridRule:
    def test_grid_for_config_follows_the_switching_law(self):
        profile = builtin_profile("example3_atoms", 2)
        config = law_config(profile, EXAMPLE3_ANGLES, np.full(3, 1.0 / 3.0))
        grid = config.switching.grid(2, 8, profile.atoms)
        assert grid.point_nodes == 0  # every node is one of the law's directions
        np.testing.assert_array_equal(grid.weights, np.full(3, 1.0 / 3.0))
        uniform = EvolutionConfig(2, 0.2, profile, 1.0, np.zeros(2), 10, 0)
        assert isinstance(uniform.switching, UniformSphere)
        grid = uniform.switching.grid(2, 8)
        assert grid.point_nodes == grid.size  # a bare sphere grid has no point node
        np.testing.assert_array_equal(grid.directions, build_grid(2, 8).directions)
        np.testing.assert_array_equal(grid.weights, build_grid(2, 8).weights)

    def test_a_finite_law_builds_its_grid_once(self):
        law = DiscreteSwitching(EXAMPLE3_ANGLES, np.full(3, 1.0 / 3.0))
        grid = law.grid(2, 8)
        assert law.grid(2, 8) is grid
        assert law.grid(2, 32) is grid  # the resolution is unused
        assert law.grid() is grid

    def test_atoms_resolve_at_law_nodes_and_are_point_masses_on_a_sphere(self):
        profile = builtin_profile("example3_atoms", 2)
        c, c1 = grid_speeds(profile, DiscreteSwitching(EXAMPLE3_ANGLES, np.full(3, 1 / 3)).grid())
        np.testing.assert_array_equal(c, [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(c1, [0.0, 0.0, 1.0])
        # under uniform switching each atom is a point node after the sphere's
        sphere = build_grid(2, 8)
        grid = UniformSphere().grid(2, 8, profile.atoms)
        assert grid.point_nodes == sphere.size and grid.size == sphere.size + 3
        c, c1 = grid_speeds(profile, grid)
        np.testing.assert_array_equal(c, np.r_[np.zeros(sphere.size), 1.0, 1.0, 0.0])
        np.testing.assert_array_equal(c1, np.r_[np.zeros(sphere.size), 0.0, 0.0, 1.0])
        # a bare sphere grid has no node to hold them
        with pytest.raises(ProfileError, match="no point node"):
            grid_speeds(profile, sphere)

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
        grid = DiscreteSwitching(np.array(angles), np.full(len(angles), 1.0 / len(angles))).grid()
        got_c, got_c1 = grid_speeds(profile, grid)
        np.testing.assert_array_equal(got_c, c)
        np.testing.assert_array_equal(got_c1, c1)

    def test_lab_takes_atoms_on_a_law_grid_only(self):
        profile = builtin_profile("example3_atoms", 2)
        phi = gaussian_bump(np.zeros(2), 1.0)
        with pytest.raises(ProfileError):
            lab_limit_coefficients(profile, build_grid(2, 8))
        grid = DiscreteSwitching(EXAMPLE3_ANGLES, np.full(3, 1.0 / 3.0)).grid()
        first = lab_limit_coefficients(profile, grid)
        limit = limit_coefficients(profile, grid)
        assert np.max(np.abs(first.drift - limit.drift)) <= 1e-12
        assert np.max(np.abs(first.diffusion - limit.diffusion)) <= 1e-12
        x = np.array([0.25, 0.25])
        solution = solve_perturbation(first, phi, x)
        for eps in EPS_LIST:
            gap = abs(assembled_generator_residual(solution, eps) - solution.residual(eps))
            assert gap <= 1e-12 * max(1.0, solution.residual(eps))
        fit = residual_scaling(first, phi, x, EPS_LIST)
        assert fit.slope == pytest.approx(1.0, abs=0.02)


class TestMixtureLaw:
    """Under uniform switching a profile with atoms switches by the mixture
    (1 - q) U + sum_k (w_k / N) delta_k: the sphere grid weighted by 1 - q,
    then one point node per atom."""

    def test_grid_is_the_sphere_then_the_atoms(self):
        profile = builtin_profile("example3_atoms", 2)
        sphere, grid = build_grid(2, 16), UniformSphere().grid(2, 16, profile.atoms)
        masses = UniformSphere().atom_masses(2, profile.atoms)
        np.testing.assert_array_equal(masses, np.full(3, 1.0 / (2.0 * math.pi)))
        q = masses.sum()
        np.testing.assert_array_equal(grid.weights, np.r_[sphere.weights * (1.0 - q), masses])
        np.testing.assert_array_equal(
            grid.directions, directions_from_angles(np.vstack([mesh_nodes(2, 16), EXAMPLE3_ANGLES]))
        )
        np.testing.assert_array_equal(
            grid.directions, np.vstack([sphere.directions, directions_from_angles(EXAMPLE3_ANGLES)])
        )
        assert grid.point_nodes == sphere.size

    def test_grid_is_built_without_a_copy_of_the_sphere(self):
        # the sphere part goes straight into the mixture's buffers, so the
        # build peaks as the bare sphere grid's does (5.1 doubles per node at
        # n = 3); building the sphere grid and then stacking it with the
        # atoms peaked at 9.0
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already runs: its peak would not be this build's alone")
        atoms = (Atom(np.array([0.5, 1.0]), 2.0, 1.0, 0.3), Atom(np.array([2.0, 4.0]), 1.0, 0.5, 0.1))
        peaks = []
        for build in (lambda: build_grid(3, 256), lambda: UniformSphere().grid(3, 256, atoms)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 4096

    def test_a_sphere_node_on_an_atom_reads_the_continuous_part(self):
        # at odd resolution the azimuth pi / 2 of atom 3 is a sphere node
        profile = builtin_profile("example3_atoms", 2)
        grid = UniformSphere().grid(2, 31, profile.atoms)
        k = grid.point_nodes
        assert k == build_grid(2, 31).size  # the sphere's nodes come first
        on_atom = np.flatnonzero(mesh_nodes(2, 31)[:, 0] == math.pi / 2.0)
        assert on_atom.size == 1
        assert profile.values_on(grid.directions[on_atom])[1].tolist() == [1.0]
        c, c1 = grid_speeds(profile, grid)
        assert not c[:k].any() and not c1[:k].any()

    def test_full_mass_leaves_only_the_atoms(self):
        atoms = (Atom([0.0], math.pi, 1.0, 0.0), Atom([math.pi], math.pi, 1.0, 0.0))
        grid = UniformSphere().grid(2, 8, atoms)
        assert grid.size == 2 and grid.point_nodes == 0
        np.testing.assert_array_equal(grid.weights, [0.5, 0.5])
        limit = limit_coefficients(VelocityProfile(2, atoms=atoms), grid)
        np.testing.assert_allclose(limit.diffusion, np.diag([1.0, 0.0]), atol=1e-15)

    def test_masses_over_one_are_no_law(self):
        atoms = (Atom([0.0], 4.0, 1.0, 0.0), Atom([math.pi], 4.0, 1.0, 0.0))
        with pytest.raises(FieldError) as err:
            UniformSphere().atom_masses(2, atoms)
        assert err.value.field == "atoms"
        profile = VelocityProfile(2, atoms=atoms)
        with pytest.raises(FieldError) as err:
            EvolutionConfig(2, 0.2, profile, 1.0, np.zeros(2), 10, 0)
        assert err.value.field == "profile.atoms"
        # a finite law gives the atoms no mass of their own
        law_config(profile, EXAMPLE3_ANGLES[:2], np.full(2, 0.5))

    def test_mixed_profile_weights_its_continuous_part_by_one_minus_q(self):
        atom_c = 1.5
        atoms = (Atom([0.25], 0.5, atom_c, 0.0), Atom([0.25 + math.pi], 0.5, atom_c, 0.0))
        profile = VelocityProfile(2, continuous_c=builtin_profile("msre_const", 2).continuous_c,
                                  atoms=atoms)
        q = 1.0 / (2.0 * math.pi)
        s = directions_from_angles(np.array([0.25]))
        want = (1.0 - q) * 0.5 * np.eye(2) + q * atom_c**2 * np.outer(s, s)
        grid = UniformSphere().grid(2, 32, atoms)
        np.testing.assert_allclose(limit_coefficients(profile, grid).diffusion, want, atol=1e-14)

    def test_lab_runs_the_hierarchy_on_the_mixture(self):
        profile = builtin_profile("example3_atoms", 2)
        grid = UniformSphere().grid(2, 16, profile.atoms)
        first = lab_limit_coefficients(profile, grid)
        limit = limit_coefficients(profile, grid)
        assert np.max(np.abs(first.drift - limit.drift)) <= 1e-12
        assert np.max(np.abs(first.diffusion - limit.diffusion)) <= 1e-12
        fit = residual_scaling(first, gaussian_bump(np.zeros(2), 1.0), np.full(2, 0.25), EPS_LIST)
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
