"""Tests of velocity profiles and the balance / non-symmetry functionals."""

import math

import numpy as np
import pytest

from revolve.profiles import (
    BALANCE_TOLERANCE,
    Atom,
    ConstantSpeed,
    FirstAngleSine,
    LowerHalfStep,
    ProfileError,
    VelocityProfile,
    builtin_profile,
    check_balance,
    first_moment,
    grid_speeds,
)
from revolve.limits import DiscreteSwitching, limit_coefficients
from revolve.operator_lab import gaussian_bump, lab_limit_coefficients, solve_perturbation
from revolve.simulator import _unit_columns
from revolve.sphere import angles_from_directions, build_grid, directions_from_angles

RES = {2: 32, 3: 24, 4: 16, 5: 16, 6: 12}


def grid_for(n):
    return build_grid(n, RES[n])


class TestBuiltins:
    def test_msre_const(self):
        p = builtin_profile("msre_const", 3, c=1.0)
        assert p.continuous_c1 is None and not p.atoms
        directions = grid_for(3).directions
        c, c1 = p.values_on(directions)
        np.testing.assert_array_equal(c, np.ones(directions.shape[0]))
        np.testing.assert_array_equal(c1, np.zeros(directions.shape[0]))

    def test_sin_theta1_rejected_in_plane(self):
        with pytest.raises(ProfileError):
            builtin_profile("sin_theta1", 2)

    def test_sin_theta1_passes_balance(self):
        p = builtin_profile("sin_theta1", 3)
        report = check_balance(p, grid_for(3), tolerance=1e-10)
        assert report.satisfied

    def test_example3_is_three_atoms(self):
        p = builtin_profile("example3_atoms", 2)
        assert len(p.atoms) == 3 and not p.has_continuous
        with pytest.raises(ProfileError):
            builtin_profile("example3_atoms", 3)

    def test_unknown_name(self):
        with pytest.raises(ProfileError):
            builtin_profile("whirl", 2)

    @pytest.mark.parametrize(
        "name, n, keyword",
        [
            ("msre_const", 2, "c1"),
            ("sin_theta1", 3, "c"),
            ("sin_theta1", 3, "c1"),
            ("example3_atoms", 2, "c"),
            ("example3_atoms", 2, "c1"),
            ("step_half_sphere", 2, "height"),
        ],
    )
    def test_keyword_the_profile_does_not_take_is_named(self, name, n, keyword):
        with pytest.raises(ProfileError) as err:
            builtin_profile(name, n, **{keyword: 7.0})
        assert err.value.field == keyword


class TestProfileType:
    def test_mixed_requires_flag(self):
        atom = Atom(np.array([0.0]), 1.0, 1.0, 0.0)
        with pytest.raises(ProfileError):
            VelocityProfile(2, continuous_c=ConstantSpeed(1.0), atoms=(atom,))
        p = VelocityProfile(2, continuous_c=ConstantSpeed(1.0), atoms=(atom,), allow_mixed=True)
        assert p.mixed

    def test_atom_validation(self):
        with pytest.raises(ProfileError):
            Atom(np.array([0.0]), -1.0, 1.0, 0.0)
        for bad in (math.nan, math.inf, -math.inf):
            for key, args in (("angles", ([bad], 1.0, 1.0, 0.0)), ("weight", ([0.0], bad, 1.0, 0.0)),
                              ("c", ([0.0], 1.0, bad, 0.0)), ("c1", ([0.0], 1.0, 1.0, bad))):
                with pytest.raises(ProfileError) as err:
                    Atom(*args)
                assert err.value.field == key
        with pytest.raises(ProfileError):
            VelocityProfile(3, atoms=(Atom(np.array([0.0]), 1.0, 1.0, 0.0),))

    def test_unbounded_profile_rejected(self):
        p = VelocityProfile(2, continuous_c=lambda s: 1.0 / (s[..., 0] - s[..., 0]))
        with pytest.raises(ProfileError):
            grid_speeds(p, grid_for(2))

    def test_values_at_atom_override(self):
        p = builtin_profile("example3_atoms", 2)
        angles = np.array([[0.0], [math.pi / 2.0], [1.0]])
        c, c1 = p.values_at(angles)
        np.testing.assert_allclose(c, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(c1, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("key", ["c", "c1"])
    def test_part_of_the_wrong_shape_is_named(self, key):
        # one value per call, not one per unit-vector row
        part = lambda s: float(s[0, 0])
        p = VelocityProfile(2, **{"continuous_" + key: part})
        with pytest.raises(ProfileError, match=r"shape \(\) for unit-vector rows \(2,\)") as err:
            p.values_on(np.eye(2))
        assert err.value.field == key


# The angle formulas the builtin parts are named by, at the chart's angles.
ANGLE_FORMULAS = {
    ConstantSpeed: lambda part, angles: np.full(angles.shape[:-1], part.value),
    FirstAngleSine: lambda part, angles: part.scale * np.sin(angles[..., 0]),
    LowerHalfStep: lambda part, angles: np.where(angles[..., -1] >= math.pi, part.height, 0.0),
}


def step_formula(height, angles):
    return ANGLE_FORMULAS[LowerHalfStep](LowerHalfStep(height), angles)


class TestDirectionForms:
    """Every builtin part is a function of the unit vector. At the chart's
    angles of the same vectors it equals the angle formula it is named by,
    bit for bit; for the step that is theta_{n-1} in [pi, 2 pi), boundary
    included, which s_n < -2^-52 s_{n-1} keeps."""

    PARTS = (ConstantSpeed(1.7), FirstAngleSine(0.8), LowerHalfStep(2.5))

    @staticmethod
    def direction_sets(n):
        rng = np.random.default_rng(1000 + n)
        return {
            "grid": build_grid(n, 8).directions,
            # the simulator's uniform draws
            "uniform": _unit_columns(rng.standard_normal((10_000, n))).T,
        }

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_parts_match_bit_for_bit(self, n):
        for label, dirs in self.direction_sets(n).items():
            angles = angles_from_directions(dirs)
            for part in self.PARTS:
                got = part(dirs)
                want = ANGLE_FORMULAS[type(part)](part, angles)
                assert got.dtype == want.dtype, (label, part)
                assert got.tobytes() == want.tobytes(), (label, part)

    @pytest.mark.parametrize("name,n", [
        ("msre_const", 2), ("step_half_sphere", 3), ("sin_theta1", 4), ("step_half_sphere", 5),
    ])
    def test_profile_values_match_bit_for_bit(self, name, n):
        # c = 1 and c1 = 1 in every builtin that takes them
        dirs = self.direction_sets(n)["uniform"]
        angles = angles_from_directions(dirs)
        ones, zeros = np.ones(dirs.shape[0]), np.zeros(dirs.shape[0])
        want = {
            "msre_const": (ones, zeros),
            "step_half_sphere": (ones, step_formula(1.0, angles)),
            "sin_theta1": (np.sin(angles[..., 0]), zeros),
        }[name]
        for got, expected in zip(builtin_profile(name, n).values_on(dirs), want):
            assert got.tobytes() == expected.tobytes()


class TestStepConvention:
    """LowerHalfStep on unit vectors covers theta_{n-1} in [pi, 2 pi) at every
    chart direction, grid node and uniform draw."""

    AZIMUTHS = [0.0, 1e-15, math.pi - 1e-15, math.pi, math.pi + 1e-15, 1.5 * math.pi,
                2.0 * math.pi - 1e-15]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_chart_directions_at_the_boundary(self, n):
        rng = np.random.default_rng(n)
        polar = rng.uniform(0.0, math.pi, (len(self.AZIMUTHS) * 50, n - 2))
        angles = np.column_stack([polar, np.repeat(self.AZIMUTHS, 50)])
        got = LowerHalfStep(2.5)(directions_from_angles(angles))
        assert got.tobytes() == step_formula(2.5, angles).tobytes()

    @pytest.mark.parametrize("n,resolution", [(2, 7), (2, 8), (3, 5), (3, 6), (4, 3), (5, 4),
                                              (6, 3)])
    def test_grid_nodes(self, n, resolution):
        grid = build_grid(n, resolution)
        got = LowerHalfStep(2.5)(grid.directions)
        assert got.tobytes() == step_formula(2.5, grid.nodes).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_uniform_draws_are_the_lower_half(self, n):
        dirs = _unit_columns(np.random.Generator(np.random.Philox(key=n))
                             .standard_normal((200_000, n))).T
        got = LowerHalfStep(2.5)(dirs)
        assert got.tobytes() == np.where(dirs[:, -1] < 0.0, 2.5, 0.0).tobytes()

    def test_pole_row_gets_zero(self):
        # every azimuth at theta_1 = 0 names the direction (1, 0, 0), on the
        # boundary s_3 = 0 outside the step, as every other name of it is
        _, c1 = builtin_profile("step_half_sphere", 3).values_at(np.array([[0.0, 4.0]]))
        np.testing.assert_array_equal(c1, [0.0])


class TestBalance:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_msre_balance_everywhere(self, n):
        report = check_balance(builtin_profile("msre_const", n), grid_for(n), tolerance=1e-9)
        assert report.satisfied
        assert report.residual_norm <= 1e-10

    def test_msre_balance_n4_tight(self):
        report = check_balance(builtin_profile("msre_const", 4, c=1.0), grid_for(4))
        assert report.residual_norm <= 1e-10 and report.satisfied

    def test_plane_sine_residual(self):
        # same functional form as sin_theta1, forced into n=2
        p = VelocityProfile(2, continuous_c=FirstAngleSine(), name="sin_plane")
        report = check_balance(p, grid_for(2), tolerance=1e-8)
        np.testing.assert_allclose(report.residual_vector, [0.0, 0.5], atol=1e-8)
        assert not report.satisfied

    def test_balance_linear_in_c(self):
        g = grid_for(2)
        base = VelocityProfile(2, continuous_c=FirstAngleSine())
        scaled = VelocityProfile(2, continuous_c=FirstAngleSine(scale=2.0))
        r1 = check_balance(base, g).residual_vector
        r2 = check_balance(scaled, g).residual_vector
        np.testing.assert_array_equal(r2, 2.0 * r1)  # doubling is exact in floats

    def test_atom_weights_linear(self):
        g = grid_for(2)
        p = builtin_profile("example3_atoms", 2)
        doubled = VelocityProfile(
            2,
            atoms=tuple(
                Atom(a.angles, 2.0 * a.weight, a.c_value, a.c1_value) for a in p.atoms
            ),
        )
        np.testing.assert_array_equal(
            check_balance(doubled, g).residual_vector,
            2.0 * check_balance(p, g).residual_vector,
        )
        np.testing.assert_array_equal(drift(doubled, g), 2.0 * drift(p, g))

    @pytest.mark.parametrize(
        "check", [check_balance, grid_speeds, lab_limit_coefficients],
        ids=lambda f: f.__name__,
    )
    def test_grid_dimension_mismatch_message(self, check):
        with pytest.raises(ProfileError) as err:
            check(builtin_profile("msre_const", 3), grid_for(2))
        assert str(err.value) == "grid dimension 2 does not match profile dimension 3"

    def test_dimension_mismatch(self):
        with pytest.raises(ProfileError):
            check_balance(builtin_profile("msre_const", 3), grid_for(2))

    def test_default_tolerance_is_the_shared_constant(self):
        p = builtin_profile("msre_const", 2)
        assert check_balance(p, grid_for(2)).tolerance == BALANCE_TOLERANCE == 1e-8


def drift(profile, grid):
    """The first moment of the slow speed, E[c1 s]: the drift of the limit."""
    return first_moment(grid, grid_speeds(profile, grid), 1)


class TestNonsymmetry:
    def test_no_drift_for_symmetric(self):
        assert np.linalg.norm(drift(builtin_profile("msre_const", 3), grid_for(3))) <= 1e-10

    def test_step_drift_plane(self):
        # oracle: (1/2pi) * int_pi^2pi sin = -1/pi on the second coordinate
        d = drift(builtin_profile("step_half_sphere", 2, c=1.0, c1=1.0), grid_for(2))
        assert abs(abs(d[1]) - 1.0 / math.pi) <= 1e-8
        assert d[1] < 0.0
        assert abs(d[0]) <= 1e-10

    def test_step_drift_n3(self):
        d = drift(builtin_profile("step_half_sphere", 3, c=1.0, c1=1.0), grid_for(3))
        assert abs(abs(d[2]) - 0.25) <= 1e-8
        assert d[2] < 0.0

    def test_plane_sine_drift(self):
        # c1(theta) = sin theta in the plane: drift functional (0, 1/2)
        p = VelocityProfile(2, continuous_c1=FirstAngleSine())
        np.testing.assert_allclose(drift(p, grid_for(2)), [0.0, 0.5], atol=1e-10)

    def test_c1_zero_profiles_have_zero_drift(self):
        for name, n in [("msre_const", 4), ("sin_theta1", 3)]:
            assert np.linalg.norm(drift(builtin_profile(name, n), grid_for(n))) <= 1e-10


class TestStepFunction:
    def test_step_values(self):
        step = LowerHalfStep(3.0)
        angles = np.array([[0.5, 0.1], [0.5, math.pi], [0.5, 5.0]])
        np.testing.assert_array_equal(step(directions_from_angles(angles)), [0.0, 3.0, 3.0])

    def test_describe_roundtrips_builtin_parameters(self):
        p = builtin_profile("step_half_sphere", 3, c=2.0, c1=0.25)
        d = p.describe()
        assert d["c"]["value"] == 2.0
        assert d["c1"]["height"] == 0.25
        assert d["name"] == "step_half_sphere"


def solve_at_center(profile, grid):
    n = grid.dimension
    first = lab_limit_coefficients(profile, grid)
    return solve_perturbation(first, gaussian_bump(np.zeros(n), 1.0), np.full(n, 0.25))


# a balanced law in n = 3, whose second direction lies on the step's lower half
COMPASS3 = DiscreteSwitching(np.array([[0.5 * math.pi, 0.0], [0.5 * math.pi, math.pi]]),
                             np.array([0.5, 0.5]))


class CountingPart:
    """A speed part that records each call in calls, then defers to part."""

    def __init__(self, part, calls):
        self.part, self.calls = part, calls

    def __call__(self, directions):
        self.calls.append(self)
        return self.part(directions)


class TestOneReading:
    """Each function that needs a profile's speeds on a grid reads them once."""

    @pytest.mark.parametrize("grid", [build_grid(3, 8), COMPASS3.grid()], ids=["sphere", "law"])
    @pytest.mark.parametrize(
        "run", [limit_coefficients, lab_limit_coefficients, solve_at_center],
        ids=lambda f: f.__name__,
    )
    def test_each_part_is_evaluated_once(self, grid, run):
        calls = []
        profile = VelocityProfile(3, continuous_c=CountingPart(ConstantSpeed(1.0), calls),
                                  continuous_c1=CountingPart(LowerHalfStep(1.0), calls))
        run(profile, grid)
        assert calls == [profile.continuous_c, profile.continuous_c1]

    @pytest.mark.parametrize("grid", [build_grid(2, 8), DiscreteSwitching(
        np.array([[0.0], [math.pi]]), np.array([0.5, 0.5])).grid()], ids=["sphere", "law"])
    def test_the_reading_rejects_an_unbounded_part(self, grid):
        # on the law's grid the atoms cover both nodes, so values_on is
        # finite there; the reading still sees the continuous part
        atoms = (Atom([0.0], 1.0, 1.0, 0.0), Atom([math.pi], 1.0, 1.0, 0.0))
        profile = VelocityProfile(2, continuous_c=ConstantSpeed(math.inf), atoms=atoms,
                                  allow_mixed=True)
        for check in (grid_speeds, check_balance, limit_coefficients, solve_at_center):
            with pytest.raises(ProfileError, match="bounded"):
                check(profile, grid)
