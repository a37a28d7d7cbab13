"""Tests of the sphere geometry: chart, measure, quadrature, sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from revolve.sphere import (
    AngleVector,
    InvalidDimensionError,
    UnitDirection,
    angles_from_directions,
    build_grid,
    direction_from_angles,
    directions_from_angles,
    normalization_constant,
    sample_direction,
    sample_directions,
    sin_power_integral,
    wallis_integral,
)

RES = {2: 32, 3: 24, 4: 16, 5: 16, 6: 12}


def random_angles(rng, n, size):
    polar = rng.uniform(0.0, math.pi, size=(size, n - 2))
    azimuth = rng.uniform(0.0, 2.0 * math.pi, size=(size, 1))
    return np.concatenate([polar, azimuth], axis=1)


class TestChart:
    def test_axis_case_n3(self):
        d = direction_from_angles(AngleVector(np.array([math.pi / 2, 0.0])))
        np.testing.assert_allclose(d.components, [0.0, 1.0, 0.0], atol=1e-15)

    def test_antipode_n2(self):
        d = direction_from_angles(AngleVector(np.array([math.pi])))
        np.testing.assert_allclose(d.components, [-1.0, 0.0], atol=1e-15)

    def test_axis_case_n4(self):
        half = math.pi / 2
        d = direction_from_angles(AngleVector(np.array([half, half, half])))
        np.testing.assert_allclose(d.components, [0.0, 0.0, 0.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_unit_norm_random(self, n):
        rng = np.random.default_rng(7 + n)
        angles = random_angles(rng, n, 10_000)
        dirs = directions_from_angles(angles)
        norms = np.linalg.norm(dirs, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inverse_chart_roundtrip(self, n):
        rng = np.random.default_rng(n)
        dirs = sample_directions(n, 500, rng)
        back = directions_from_angles(angles_from_directions(dirs))
        np.testing.assert_allclose(back, dirs, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_chart_roundtrip_on_angles(self, data):
        # inside the open domain (0, pi)^(n-2) x [0, 2 pi), 0.1 away from the
        # poles, where arccos of the deflated components is well conditioned;
        # the azimuth is compared modulo 2 pi
        n = data.draw(st.integers(2, 6))
        polar = st.floats(0.1, math.pi - 0.1)
        azimuth = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
        angles = np.array([data.draw(polar) for _ in range(n - 2)] + [data.draw(azimuth)])
        back = angles_from_directions(directions_from_angles(angles))
        assert 0.0 <= back[-1] < 2.0 * math.pi
        np.testing.assert_allclose(back[:-1], angles[:-1], rtol=0.0, atol=1e-9)
        turn = abs(back[-1] - angles[-1]) % (2.0 * math.pi)
        assert min(turn, 2.0 * math.pi - turn) <= 1e-9

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            AngleVector(np.array([-0.1, 0.0]))
        with pytest.raises(ValueError):
            AngleVector(np.array([math.pi, 0.0]))  # polar angle at pi excluded
        with pytest.raises(ValueError):
            AngleVector(np.array([0.5, 2.0 * math.pi]))
        with pytest.raises(InvalidDimensionError):
            AngleVector(np.array([]))

    def test_unit_direction_validation(self):
        with pytest.raises(ValueError):
            UnitDirection(np.array([1.0, 1.0]))
        UnitDirection(np.array([0.6, 0.8]))


class TestNormalization:
    def test_known_values(self):
        assert normalization_constant(2) == pytest.approx(2.0 * math.pi, abs=1e-14)
        assert normalization_constant(3) == pytest.approx(4.0 * math.pi, abs=1e-14)
        assert normalization_constant(4) == pytest.approx(2.0 * math.pi**2, abs=1e-13)

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            normalization_constant(1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_raw_grid_mass(self, n):
        grid = build_grid(n, RES[n])
        assert abs(grid.raw_total - normalization_constant(n)) <= 1e-8


class TestWallis:
    def test_known_values(self):
        assert wallis_integral(1, "even") == pytest.approx(math.pi / 2, abs=1e-15)
        assert wallis_integral(1, "odd") == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert wallis_integral(0, "even") == pytest.approx(math.pi, abs=1e-15)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            wallis_integral(-1, "even")
        with pytest.raises(ValueError):
            wallis_integral(2, "weird")

    @pytest.mark.parametrize("m", range(11))
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_against_adaptive_quadrature(self, m, parity):
        k = 2 * m if parity == "even" else 2 * m + 1
        ref, _ = integrate.quad(lambda t: math.sin(t) ** k, 0.0, math.pi, epsabs=1e-14)
        assert abs(wallis_integral(m, parity) - ref) <= 1e-12

    def test_sin_power_dispatch(self):
        assert sin_power_integral(2) == wallis_integral(1, "even")
        assert sin_power_integral(3) == wallis_integral(1, "odd")


class TestGrid:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_weights_normalized_and_positive(self, n):
        grid = build_grid(n, RES[n])
        assert np.all(grid.weights > 0.0)
        assert abs(grid.weights.sum() - 1.0) <= 1e-10
        assert grid.average(np.ones(grid.size)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_first_moments_vanish(self, n):
        grid = build_grid(n, RES[n])
        for i in range(n):
            assert abs(grid.average(grid.directions[:, i])) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_second_moments(self, n):
        grid = build_grid(n, RES[n])
        s = grid.directions
        for i in range(n):
            for j in range(n):
                target = (1.0 / n) if i == j else 0.0
                assert abs(grid.average(s[:, i] * s[:, j]) - target) <= 1e-8

    def test_nodes_inside_ranges(self):
        grid = build_grid(4, 8)
        polar = grid.nodes[:, :-1]
        assert np.all(polar > 0.0) and np.all(polar < math.pi)
        azimuth = grid.nodes[:, -1]
        assert np.all(azimuth > 0.0) and np.all(azimuth < 2.0 * math.pi)

    def test_invalid_args(self):
        with pytest.raises(InvalidDimensionError):
            build_grid(1, 8)
        with pytest.raises(ValueError):
            build_grid(3, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quadrature_vs_monte_carlo(self, n):
        # random polynomial of degree <= 4 in the direction components
        rng = np.random.default_rng(100 + n)
        lin = rng.normal(size=n)
        quad = rng.normal(size=(n, n))
        quart = rng.normal(size=(n, n))

        def poly(s):
            q = s @ quad
            r = s @ quart
            return s @ lin + np.einsum("...i,...i->...", q, s) + np.einsum(
                "...i,...i->...", r, s
            ) ** 2

        grid = build_grid(n, RES[n])
        exact = grid.average(poly(grid.directions))
        samples = sample_directions(n, 200_000, rng)
        values = poly(samples)
        mc = values.mean()
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(mc - exact) <= 3.0 * se


class TestSampling:
    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        dirs = sample_directions(3, 100_000, rng)
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mean_is_zero(self, n):
        rng = np.random.default_rng(2)
        dirs = sample_directions(n, 1_000_000, rng)
        assert np.max(np.abs(dirs.mean(axis=0))) <= 4.0 / math.sqrt(1_000_000)

    def test_second_moment_against_grid_oracle(self):
        n = 3
        grid = build_grid(n, RES[n])
        rng = np.random.default_rng(3)
        dirs = sample_directions(n, 1_000_000, rng)
        for i in range(n):
            for j in range(n):
                oracle = grid.average(grid.directions[:, i] * grid.directions[:, j])
                empirical = float(np.mean(dirs[:, i] * dirs[:, j]))
                assert abs(empirical - oracle) <= 0.005

    def test_deterministic_given_state(self):
        a = sample_direction(4, np.random.default_rng(99))
        b = sample_direction(4, np.random.default_rng(99))
        np.testing.assert_array_equal(a.components, b.components)
