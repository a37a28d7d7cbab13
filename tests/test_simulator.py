"""Tests of the event-driven path simulator."""

import hashlib
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import stats as scipy_stats

from revolve import simulator
from revolve.cli import _endpoint_lines, _write_trajectories_csv
from revolve.limits import DiscreteSwitching, UniformSphere, discrete_limit_coefficients
from revolve.profiles import Atom, ConstantSpeed, LowerHalfStep, VelocityProfile, builtin_profile
from revolve.simulator import (
    EvolutionConfig,
    _PathKernel,
    _PathStreams,
    _unit_columns,
    config_fingerprint,
    simulate_ensemble,
    simulate_path,
    simulate_paths,
)
from revolve.sphere import FieldError, angles_from_directions, directions_from_angles


def msre_config(**overrides):
    base = dict(
        dimension=2,
        epsilon=0.1,
        profile=builtin_profile("msre_const", 2, c=1.0),
        horizon=1.0,
        x0=np.zeros(2),
        n_paths=200,
        seed=321,
    )
    base.update(overrides)
    return EvolutionConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            msre_config(epsilon=0.0)
        with pytest.raises(ValueError):
            msre_config(epsilon=1.5)
        with pytest.raises(ValueError):
            msre_config(horizon=-1.0)
        with pytest.raises(ValueError):
            msre_config(n_paths=0)
        with pytest.raises(ValueError):
            msre_config(x0=np.zeros(3))
        with pytest.raises(ValueError):
            msre_config(seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dimension", 1),
            ("epsilon", math.nan),
            ("horizon", math.nan),
            ("horizon", math.inf),
            ("n_paths", 0),
            ("seed", 2**64),
            ("x0", np.zeros(3)),
            ("initial_direction", np.zeros(2)),
        ],
    )
    def test_range_error_names_the_field(self, field, value):
        with pytest.raises(ValueError) as err:
            msre_config(**{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize(
        "field, value",
        [("x0", np.array([math.nan, 0.0])), ("x0", np.array([0.0, -math.inf])),
         ("initial_direction", np.array([math.inf])), ("initial_direction", np.array([math.nan]))],
    )
    def test_non_finite_value_names_the_field(self, field, value):
        with pytest.raises(FieldError) as err:
            msre_config(**{field: value})
        assert err.value.field == field

    def test_non_finite_law_angle_is_named(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(FieldError) as err:
                DiscreteSwitching([[0.0], [bad]], [0.5, 0.5])
            assert err.value.field == "angles"

    def test_atom_off_the_finite_law_is_rejected(self):
        # example3_atoms's atom at pi / 2 carries c1 = 1: a law without that
        # direction would drop it, and the drift with it
        law = DiscreteSwitching(np.array([[0.0], [math.pi]]), np.array([0.5, 0.5]))
        with pytest.raises(FieldError, match="atom 2 at angles") as err:
            example3_config(switching=law)
        assert err.value.field == "profile.atoms"

    def test_discrete_probabilities_validated(self):
        with pytest.raises(ValueError):
            DiscreteSwitching(np.array([[0.0], [1.0]]), np.array([0.6, 0.5]))
        with pytest.raises(ValueError):
            DiscreteSwitching(np.array([[0.0], [1.0]]), np.array([math.nan, 1.0]))

    def test_finite_law_counters_bound_n_paths(self):
        # path i's chunk 0 takes Philox counters i w C/4 + 1 .. (i + 1) w C/4
        # in words 0-1 of the counter, so the last path's must end below
        # 2^128; here T/eps^2 = 2.5 and a chunk of C = 16 pairs takes 8
        # counters
        law = DiscreteSwitching(np.array([[0.0], [math.pi]]), np.array([0.5, 0.5]))
        short = dict(epsilon=0.5, horizon=0.625, switching=law)
        assert simulator._chunk(0.625 / 0.5**2, 2) == 16
        assert msre_config(**short, n_paths=2**125 - 1).n_paths == 2**125 - 1
        with pytest.raises(FieldError, match="pass the 2\\^128 counters") as err:
            msre_config(**short, n_paths=2**125)
        assert err.value.field == "n_paths"
        # the uniform law's chunks take the same counters: one uniform per
        # segment at msre_config's T/eps^2 = 100, C = 140, 35 counters a path
        assert simulator._chunk(100.0, 1) == 140
        with pytest.raises(FieldError, match="pass the 2\\^128 counters") as err:
            msre_config(n_paths=2**200)
        assert err.value.field == "n_paths"
        assert msre_config(n_paths=2**128 // 35).n_paths == 2**128 // 35
        with pytest.raises(FieldError, match="pass the 2\\^128 counters"):
            msre_config(n_paths=2**128 // 35 + 1)

    def test_fingerprint_distinguishes_configs(self):
        a = config_fingerprint(msre_config())
        b = config_fingerprint(msre_config(seed=322))
        assert a != b and len(a) == 64


class TestDeterminism:
    @pytest.mark.parametrize("index", [-1, 10])
    def test_path_index_outside_n_paths_is_refused(self, index):
        law = DiscreteSwitching(np.array([[0.0], [math.pi]]), np.array([0.5, 0.5]))
        for cfg in (msre_config(n_paths=10), msre_config(n_paths=10, switching=law)):
            message = f"path index {index} is outside \\[0, 10\\)"
            with pytest.raises(ValueError, match=message):
                simulate_path(cfg, index)
            with pytest.raises(ValueError, match=message):
                list(simulate_paths(cfg, index, index + 1))
            with pytest.raises(ValueError, match="path index 10 is outside"):
                list(simulate_paths(cfg, 5, 11))
            assert simulate_path(cfg, 9).endpoint.shape == (2,)

    def test_same_path_twice_is_bit_identical(self):
        cfg = msre_config()
        t1 = simulate_path(cfg, 11)
        t2 = simulate_path(cfg, 11)
        np.testing.assert_array_equal(t1.positions, t2.positions)
        np.testing.assert_array_equal(t1.switch_times, t2.switch_times)
        np.testing.assert_array_equal(t1.directions, t2.directions)

    def test_ensemble_rows_match_isolated_paths(self):
        cfg = msre_config(n_paths=25)
        ens = simulate_ensemble(cfg)
        for idx in (0, 7, 24):
            np.testing.assert_array_equal(ens.points[idx], simulate_path(cfg, idx).endpoint)

    def test_worker_count_does_not_change_results(self):
        cfg = msre_config(n_paths=120)
        serial = simulate_ensemble(cfg, workers=1)
        two = simulate_ensemble(cfg, workers=2)
        four = simulate_ensemble(cfg, workers=4)
        np.testing.assert_array_equal(serial.points, two.points)
        np.testing.assert_array_equal(serial.points, four.points)

    def test_block_text_comes_in_path_order_at_any_worker_count(self, monkeypatch):
        law = DiscreteSwitching(np.array([[0.0], [2.0], [4.0]]), np.array([0.2, 0.3, 0.5]))
        for cfg in (msre_config(n_paths=403), msre_config(n_paths=403, switching=law)):
            texts = {}
            for block_paths in (simulator._BLOCK_PATHS, 50):
                monkeypatch.setattr(simulator, "_BLOCK_PATHS", block_paths)
                for workers in (1, 2, 4):
                    written = []
                    simulate_ensemble(cfg, workers=workers, rows=(_endpoint_lines, written.append))
                    assert max(text.count("\n") for text in written) <= block_paths
                    texts[block_paths, workers] = "".join(written)
            assert len(set(texts.values())) == 1
            lines = texts[50, 1].splitlines()
            assert [int(line.split(",")[0]) for line in lines] == list(range(403))

    def test_env_variable_controls_workers(self, monkeypatch):
        cfg = msre_config(n_paths=60)
        base = simulate_ensemble(cfg).points
        monkeypatch.setenv("REVOLVE_THREADS", "2")
        np.testing.assert_array_equal(simulate_ensemble(cfg).points, base)


class TestPathLaw:
    def test_switch_counts_concentrate(self):
        # Poisson(T/eps^2) = Poisson(100): 3 sigma is +-30
        cfg = msre_config(n_paths=2000)
        counts = np.array([simulate_path(cfg, i).switch_times.size for i in range(2000)])
        fraction = np.mean((counts >= 70) & (counts <= 130))
        assert fraction >= 0.99
        assert abs(counts.mean() - 100.0) <= 3.0

    def test_speed_bound(self):
        cfg = msre_config()
        vmax = 1.0 / cfg.epsilon
        for i in range(50):
            t = simulate_path(cfg, i)
            steps = np.linalg.norm(np.diff(t.positions, axis=0), axis=1)
            assert np.all(steps <= vmax * np.diff(t.times) + 1e-12)
            assert np.linalg.norm(t.endpoint - cfg.x0) <= vmax * cfg.horizon + 1e-12

    def test_zero_profile_stays_put(self):
        p = VelocityProfile(2, name="at_rest")
        cfg = msre_config(profile=p, n_paths=5)
        ens = simulate_ensemble(cfg)
        np.testing.assert_array_equal(ens.points, np.zeros((5, 2)))

    def test_segment_reconstruction_is_exact(self):
        cfg = msre_config()
        t = simulate_path(cfg, 3)
        v = 1.0 / cfg.epsilon
        recon = cfg.x0 + np.sum(np.diff(t.times)[:, None] * v * t.directions, axis=0)
        scale = max(1.0, float(np.linalg.norm(t.endpoint)))
        assert np.linalg.norm(recon - t.endpoint) <= 1e-12 * scale

    def test_switch_counts_are_poisson(self):
        # chi-squared goodness of fit at significance 0.01
        cfg = msre_config(epsilon=0.3, n_paths=10_000)  # mean count about 11
        mean = cfg.horizon / cfg.epsilon**2
        counts = np.array([simulate_path(cfg, i).switch_times.size for i in range(10_000)])
        lo, hi = int(mean - 4 * math.sqrt(mean)), int(mean + 4 * math.sqrt(mean))
        edges = list(range(max(lo, 0), hi + 1))
        observed = np.array(
            [np.sum(counts == k) for k in edges[:-1]]
            + [np.sum(counts >= edges[-1])]
        )
        observed = np.concatenate([[np.sum(counts < edges[0])], observed])
        probs = np.array(
            [scipy_stats.poisson.cdf(edges[0] - 1, mean)]
            + [scipy_stats.poisson.pmf(k, mean) for k in edges[:-1]]
            + [1.0 - scipy_stats.poisson.cdf(edges[-1] - 1, mean)]
        )
        keep = probs * counts.size >= 5.0
        chi2 = np.sum(
            (observed[keep] - probs[keep] * counts.size) ** 2 / (probs[keep] * counts.size)
        )
        pvalue = 1.0 - scipy_stats.chi2.cdf(chi2, df=int(keep.sum()) - 1)
        assert pvalue > 0.01

    def test_fixed_initial_direction(self):
        cfg = msre_config(initial_direction=np.array([math.pi / 2.0]), n_paths=3)
        for i in range(3):
            t = simulate_path(cfg, i)
            np.testing.assert_allclose(t.directions[0], [0.0, 1.0], atol=1e-15)

    def test_endpoint_variance_matches_limit(self):
        # per-coordinate variance ~ 2 c^2 T / n = 1 at small eps
        cfg = msre_config(epsilon=0.05, n_paths=10_000, seed=5)
        ens = simulate_ensemble(cfg)
        var = ens.points.var(axis=0, ddof=1)
        se = var * math.sqrt(2.0 / (cfg.n_paths - 1))
        assert np.all(np.abs(var - 1.0) <= 4.0 * se + 0.01)


class TestRotationalSymmetry:
    def test_endpoint_norms_invariant_under_x0_rotation(self):
        cfg_a = msre_config(epsilon=0.1, n_paths=4000, x0=np.array([1.0, 0.0]), seed=1)
        cfg_b = msre_config(epsilon=0.1, n_paths=4000, x0=np.array([0.0, 1.0]), seed=2)
        norms_a = np.linalg.norm(simulate_ensemble(cfg_a).points - cfg_a.x0, axis=1)
        norms_b = np.linalg.norm(simulate_ensemble(cfg_b).points - cfg_b.x0, axis=1)
        assert scipy_stats.ks_2samp(norms_a, norms_b).pvalue > 0.01


class TestDiscreteSwitchingLaw:
    def test_compass_covariance(self):
        angles = np.array([[0.0], [math.pi / 2], [math.pi], [3 * math.pi / 2]])
        law = DiscreteSwitching(angles, np.full(4, 0.25))
        cfg = msre_config(switching=law, epsilon=0.05, n_paths=20_000, seed=8)
        ens = simulate_ensemble(cfg)
        limit = discrete_limit_coefficients(2, angles, np.full(4, 0.25), np.ones(4), np.zeros(4))
        target = 2.0 * limit.diffusion * cfg.horizon
        cov = np.cov(ens.points, rowvar=False, ddof=1)
        assert np.max(np.abs(cov - target)) <= 0.05

    def test_atomic_profile_under_discrete_law_moves(self):
        profile = builtin_profile("example3_atoms", 2)
        angles = np.stack([a.angles for a in profile.atoms])
        law = DiscreteSwitching(angles, np.full(3, 1.0 / 3.0))
        cfg = msre_config(profile=profile, switching=law, epsilon=0.05, n_paths=5000, seed=3)
        ens = simulate_ensemble(cfg)
        # count-normalized drift (0, 1/3) and diffusion diag(2/3, 0)
        mean = ens.points.mean(axis=0)
        assert abs(mean[1] - 1.0 / 3.0) <= 0.02
        var = ens.points.var(axis=0, ddof=1)
        assert abs(var[0] - 4.0 / 3.0) <= 0.08
        assert var[1] <= 0.05 * 4.0 / 3.0  # x2 motion is the slow drift only

    def test_directions_come_from_the_law(self):
        angles = np.array([[0.0], [math.pi]])
        law = DiscreteSwitching(angles, np.array([0.5, 0.5]))
        cfg = msre_config(switching=law, n_paths=1)
        t = simulate_path(cfg, 0)
        allowed = directions_from_angles(angles)
        for d in t.directions:
            assert min(np.linalg.norm(d - a) for a in allowed) <= 1e-14


class TestFiniteLawExactMoments:
    """From a stationary start the endpoint has, at any eps, E X_T = x0 + d T
    and Cov X_T = 2 Sigma_v (eps^2 T - eps^4 (1 - exp(-T / eps^2))), with
    v = c / eps + c1, d = E[v s] and Sigma_v = E[v^2 s s^T] - d d^T over
    the law: no limit tolerance, judged in standard errors."""

    @pytest.mark.parametrize("eps, seed", [(0.3, 41), (0.5, 42)])
    def test_compass_law(self, eps, seed):
        angles = np.array([[0.0], [math.pi / 2], [math.pi], [1.5 * math.pi]])
        p, horizon, n_paths = np.array([0.1, 0.2, 0.3, 0.4]), 1.0, 20_000
        profile = builtin_profile("step_half_sphere", 2)
        cfg = msre_config(profile=profile, switching=DiscreteSwitching(angles, p), epsilon=eps,
                          horizon=horizon, n_paths=n_paths, seed=seed, x0=np.array([0.5, -0.25]))
        s = directions_from_angles(angles)
        c, c1 = profile.values_on(s)
        v = c / eps + c1
        d = np.einsum("k,k,ki->i", p, v, s)
        sigma_v = np.einsum("k,k,ki,kj->ij", p, v * v, s, s) - np.outer(d, d)
        k = eps**2 * horizon - eps**4 * (1.0 - math.exp(-horizon / eps**2))
        mean, cov = cfg.x0 + d * horizon, 2.0 * k * sigma_v

        x = simulate_ensemble(cfg, workers=1).points
        z_mean = (x.mean(axis=0) - mean) / np.sqrt(np.diag(cov) / n_paths)
        centred = x - x.mean(axis=0)
        products = centred[:, :, None] * centred[:, None, :]
        got_cov = products.sum(axis=0) / (n_paths - 1)
        z_cov = (got_cov - cov) / (products.std(axis=0, ddof=1) / math.sqrt(n_paths))
        assert np.all(np.abs(z_mean) <= 4.0) and np.all(np.abs(z_cov) <= 4.0), (z_mean, z_cov)

        # the first wait is exponential with mean eps^2, seen when it ends
        # before the horizon (at eps 0.5 about 1.8% of the paths never switch)
        first = [t.switch_times[0] for t in simulate_paths(cfg, 0, 4000) if t.switch_times.size]
        law = scipy_stats.expon(scale=eps**2)
        seen = law.cdf(horizon)
        assert scipy_stats.kstest(first, lambda w: law.cdf(w) / seen).pvalue > 0.01


def example3_config(**overrides):
    """Example 3 under uniform switching, from a stationary start."""
    return msre_config(**dict(dict(profile=builtin_profile("example3_atoms", 2)), **overrides))


def atom_rows(directions, atoms):
    """Whether each row is exactly one of the atoms' directions."""
    table = np.stack([atom.direction for atom in atoms])
    return (directions[:, None, :] == table[None]).all(axis=-1).any(axis=-1)


class TestMixtureSwitching:
    """Under uniform switching a profile with atoms switches by the mixture
    (1 - q) U + sum_k (w_k / N) delta_k, the law its limit is computed on."""

    def test_atomic_profile_under_uniform_switching_moves(self):
        cfg = example3_config(n_paths=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ens = simulate_ensemble(cfg)
        assert np.all(np.abs(ens.points[:, 0]) > 0.0)
        trajectory = simulate_path(cfg, 0)
        picked = atom_rows(trajectory.directions, cfg.profile.atoms)
        assert picked.any() and not picked.all()
        np.testing.assert_allclose(np.linalg.norm(trajectory.directions, axis=1), 1.0, atol=1e-15)

    def test_mixed_profile_under_uniform_switching_runs_quietly(self):
        atom = Atom(np.array([math.pi / 2.0]), 1.0, 0.0, 1.0)
        continuous = builtin_profile("msre_const", 2).continuous_c
        profile = VelocityProfile(2, continuous_c=continuous, atoms=(atom,))
        law = DiscreteSwitching(np.array([[0.0], [math.pi / 2.0], [math.pi]]),
                                np.array([0.25, 0.5, 0.25]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_ensemble(msre_config(profile=profile, n_paths=3))
            simulate_ensemble(msre_config(profile=profile, n_paths=3, switching=law))
            simulate_ensemble(msre_config(n_paths=3))

    def test_example3_matches_its_exact_moments(self):
        # Stationary start: E X_T = x0 + d T and Cov X_T = 2 Sigma_v k with
        # k = eps^2 T - eps^4 (1 - exp(-T / eps^2)) and Sigma_v the covariance
        # of the velocity under the mixture: each atom has mass 1 / (2 pi),
        # those at 0 and pi move at 1 / eps along +-e1, that at pi / 2 at 1
        # along e2, and the sphere's share does not move.
        eps, horizon, n_paths = 0.2, 1.0, 20_000
        cfg = example3_config(epsilon=eps, horizon=horizon, n_paths=n_paths, seed=11)
        x = simulate_ensemble(cfg, workers=1).points
        k = eps**2 * horizon - eps**4 * (1.0 - math.exp(-horizon / eps**2))
        mean = np.array([0.0, horizon / (2.0 * math.pi)])
        var = np.array([2.0 * k / (math.pi * eps**2),
                        2.0 * k * (1.0 / (2.0 * math.pi) - 1.0 / (4.0 * math.pi**2))])
        got_mean, got_var = x.mean(axis=0), x.var(axis=0, ddof=1)
        fourth = ((x - got_mean) ** 4).mean(axis=0)
        z_mean = (got_mean - mean) / np.sqrt(got_var / n_paths)
        z_var = (got_var - var) / np.sqrt((fourth - got_var**2) / n_paths)
        assert np.all(np.abs(z_mean) <= 4.0) and np.all(np.abs(z_var) <= 4.0), (z_mean, z_var)
        # the share of segments on an atom is q = 3 / (2 pi)
        directions = np.concatenate([t.directions for t in simulate_paths(cfg, 0, 4000)])
        share, q = atom_rows(directions, cfg.profile.atoms).mean(), 3.0 / (2.0 * math.pi)
        assert abs(share - q) <= 4.0 * math.sqrt(q * (1.0 - q) / directions.shape[0])

    def test_full_mass_draws_only_atoms(self):
        atoms = (Atom([0.0], math.pi, 1.0, 0.0), Atom([math.pi], math.pi, 1.0, 0.0))
        cfg = msre_config(profile=VelocityProfile(2, atoms=atoms), n_paths=20)
        for trajectory in simulate_paths(cfg):
            assert atom_rows(trajectory.directions, atoms).all()


def normals_stream(seed, index):
    """A uniform-law path's normals under stream layout 4: key words
    [index, seed], counter words [0, 0, 2^64 - 1, 0]."""
    return Generator(Philox(key=(seed << 64) + index, counter=(2**64 - 1) << 128))


class TestPathStreams:
    """A generator whose state is set afresh draws exactly what a fresh one
    draws."""

    CASES = [(0, 0), (321, 7), (12345, 999_999), (2**64 - 1, 0), (2**64 - 1, 2**63 + 5)]

    @staticmethod
    def draws(rng):
        return (rng.standard_normal(64), rng.exponential(size=64), rng.random(64))

    @pytest.mark.parametrize("seed,index", CASES)
    def test_rekey_matches_fresh_philox(self, seed, index):
        streams = _PathStreams(seed)
        want = self.draws(normals_stream(seed, index))
        got = self.draws(streams.rekey(index))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_rekey_matches_fresh_philox_at_the_key_corners(self, seed):
        streams = _PathStreams(seed)  # re-keyed from index to index, used in between
        for index in (0, 1, 2**64 - 1, 0):
            rng = streams.rekey(index)
            fresh = normals_stream(seed, index)
            for method, size in (("random", 9), ("standard_exponential", 5),
                                 ("standard_normal", 7), ("random", 3)):
                got, want = getattr(rng, method)(size), getattr(fresh, method)(size)
                assert got.tobytes() == want.tobytes(), (index, method)

    @pytest.mark.parametrize("seed,index", CASES)
    def test_rekey_after_use_matches_fresh_philox(self, seed, index):
        streams = _PathStreams(seed)
        used = streams.rekey(index + 1)
        used.standard_normal(3)
        used.random(5)  # leaves a partly consumed buffer behind
        want = self.draws(normals_stream(seed, index))
        got = self.draws(streams.rekey(index))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [0, 321, 2**64 - 1])
    @pytest.mark.parametrize("counter, chunk", [(0, 0), (7, 0), (2**64 - 1, 3), (2**64 + 5, 1),
                                                (2**128 - 1, 2**64 - 1)])
    def test_seek_matches_fresh_philox(self, seed, counter, chunk):
        # counter words 0-1 hold counter, word 2 the chunk; the stream used
        # before, by seek or rekey, leaves nothing behind
        streams = _PathStreams(seed)
        streams.seek((counter + 1) % 2**128, (chunk + 1) % 2**64).random(5)
        want = self.draws(Generator(Philox(key=seed << 64, counter=counter + (chunk << 128))))
        got = self.draws(streams.seek(counter, chunk))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        streams.rekey(3).random(5)
        got = self.draws(streams.seek(counter, chunk))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        got = self.draws(streams.rekey(3))
        for a, b in zip(got, self.draws(normals_stream(seed, 3))):
            assert a.tobytes() == b.tobytes()


def tilted_speed(directions):
    """A user speed part written in the chart's angles."""
    angles = angles_from_directions(directions)
    return 1.0 + 0.5 * np.cos(angles[..., 0]) * np.sin(angles[..., -1])


def _pinned_configs():
    step = builtin_profile("step_half_sphere", 3)
    atoms = builtin_profile("example3_atoms", 2)
    atom_law = DiscreteSwitching(np.stack([a.angles for a in atoms.atoms]), np.full(3, 1.0 / 3.0))
    compass = DiscreteSwitching(
        np.array([[0.0], [math.pi / 2], [math.pi], [1.5 * math.pi]]),
        np.array([0.1, 0.2, 0.3, 0.4]),
    )
    base = dict(dimension=3, epsilon=0.3, profile=step, horizon=1.0,
                x0=np.array([0.1, -0.2, 0.3]), n_paths=64, seed=2024)
    planar = dict(base, dimension=2, x0=np.zeros(2))
    long_n5 = dict(base, dimension=5, epsilon=0.05, profile=builtin_profile("sin_theta1", 5),
                   x0=np.array([0.1, -0.2, 0.3, 0.0, 1.0]), n_paths=120, seed=5)
    msre_n8 = dict(base, dimension=8, profile=builtin_profile("msre_const", 8, c=1.5),
                   x0=np.linspace(-1.0, 1.0, 8), seed=8)
    edge = dict(planar, epsilon=0.1, profile=builtin_profile("msre_const", 2, c=2.0),
                x0=np.array([0.5, -0.25]), n_paths=162, seed=77,
                switching=compass, initial_direction=np.array([math.pi]))
    # continuous parts and two atoms of mass 2 / (2 pi) each
    mixed = VelocityProfile(
        2, continuous_c=ConstantSpeed(1.0), continuous_c1=LowerHalfStep(0.5),
        atoms=(Atom([0.5], 2.0, 2.0, -1.0), Atom([0.5 + math.pi], 2.0, 2.0, 0.0)),
    )
    return {
        "uniform_step_n3": EvolutionConfig(**base),
        "uniform_initial": EvolutionConfig(
            **dict(base, seed=2**64 - 1), initial_direction=np.array([1.0, 4.0])
        ),
        "discrete_atoms": EvolutionConfig(**dict(planar, profile=atoms), switching=atom_law),
        "discrete_initial": EvolutionConfig(
            **dict(planar, profile=builtin_profile("msre_const", 2, c=2.0)),
            switching=compass,
            initial_direction=np.array([math.pi / 2]),
        ),
        # ~400 rows per path: several row-budget batches, arccos direction form
        "uniform_sine_n5_long": EvolutionConfig(**long_n5),
        # the first dimension where numpy's row norm sums pairwise
        "uniform_msre_n8": EvolutionConfig(**msre_n8),
        # a user speed part that goes through the inverse chart itself
        "uniform_user_callable": EvolutionConfig(
            **dict(base, profile=VelocityProfile(3, continuous_c=tilted_speed), seed=9)
        ),
        # two full batches of a finite law with a fixed initial direction
        "discrete_batch_edge": EvolutionConfig(**edge),
        # the last batch holds only the last path
        "discrete_last_single": EvolutionConfig(**dict(edge, n_paths=163, seed=78)),
        # the mixture law of atoms under uniform switching
        "uniform_atoms": EvolutionConfig(**dict(planar, profile=atoms)),
        # the fixed initial direction lies on an atom
        "uniform_atoms_initial": EvolutionConfig(
            **dict(planar, profile=mixed, seed=31), initial_direction=np.array([0.5])
        ),
    }


class TestPinnedStreams:
    """Endpoint bytes of small configs (x86-64 with AVX-512, numpy 2.4),
    under stream layout 4 (simulator.STREAM_LAYOUT). The four finite-law
    pins were recorded when layout 3 put the paths' chunks of uniform pairs
    at adjacent counters of one Philox stream per seed; layout 4 keeps
    them. The seven uniform-law pins were recorded when layout 4 gave the
    uniform law the same chunked clock, with its normals in a stream per
    path. A change of the stream layout or of the path arithmetic changes
    these digests."""

    DIGESTS = {
        "uniform_step_n3": "c2982f30c70832b0b4f10e7600054cb004378d570f34928ab83c8a53ec20840f",
        "uniform_initial": "6c9a0f70093214d78b555129ea2a0a907adf5b18baadc06889e3b0c5d9be773a",
        "discrete_atoms": "3d69e69a95600d6142aaf5a2e8b56bfc3246225013c70fb54fd8e7e75cf5fb5d",
        "discrete_initial": "7996fcbd07cbe2ff3b5909f7956affd1f492bcb1f5e6b26bc5a4d1ece137d052",
        "uniform_sine_n5_long": "74cf68fac57453569c6176983d13d36332075ffe967a8479692cace0b0a5a011",
        "uniform_msre_n8": "b090652c71791a8bd2d35e2d8185362e6e9abf54779b4292da6c9a13a35ab4f5",
        "uniform_user_callable": "c21707239b0adc3f98c97d92c9977075901f52e053477663c87ba86083f9184e",
        "discrete_batch_edge": "9b13c1edcb599e6ee26994be73d79fbae539842258ef59df26034bea70ce43d4",
        "discrete_last_single": "becdca2c8318c557fc0420b6debfda000ac007829cb036a1209af1b2ef9702bf",
        "uniform_atoms": "e9e607162c80d2ed4e41594f55354aa09854d0f5b13f2dfd9c4f254e891f5998",
        "uniform_atoms_initial": "957db07fa830400efedf2fd15e0feb0e58f2b42d9b851a41c9abd1ff73cc015b",
    }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_endpoint_digest_and_replay(self, name):
        cfg = _pinned_configs()[name]
        points = simulate_ensemble(cfg).points
        assert hashlib.sha256(points.tobytes()).hexdigest() == self.DIGESTS[name]
        for i in range(cfg.n_paths):
            assert simulate_path(cfg, i).endpoint.tobytes() == points[i].tobytes()

    @pytest.mark.parametrize("name", ["uniform_sine_n5_long", "discrete_batch_edge"])
    def test_simulate_paths_match_simulate_path(self, name):
        # the trajectories are kept across batches, so each must own its arrays
        cfg = _pinned_configs()[name]
        trajectories = list(simulate_paths(cfg))
        assert len(trajectories) == cfg.n_paths
        assert [t.endpoint.tobytes() for t in simulate_paths(cfg, 5, 9)] == [
            t.endpoint.tobytes() for t in trajectories[5:9]
        ]
        for i, got in enumerate(trajectories):
            want = simulate_path(cfg, i)
            for field in ("switch_times", "directions", "positions"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes()

    def test_simulate_paths_own_their_arrays(self):
        # sliced from one batch's arrays as copies: no trajectory keeps its
        # batch alive or shares memory with another
        cfg = _pinned_configs()["discrete_batch_edge"]
        fields = ("switch_times", "directions", "positions")
        trajectories = list(simulate_paths(cfg))
        for t in trajectories:
            assert all(getattr(t, f).base is None for f in fields)
        for a, b in zip(trajectories, trajectories[1:]):
            for f, g in itertools.product(fields, fields):
                assert not np.shares_memory(getattr(a, f), getattr(b, g))

    def test_pins_span_batches(self):
        configs = _pinned_configs()
        long_n5, edge = configs["uniform_sine_n5_long"], configs["discrete_last_single"]
        assert len(list(_PathKernel(long_n5).batches(0, long_n5.n_paths))) >= 3
        last = list(_PathKernel(edge).batches(0, edge.n_paths))[-1]
        assert last[0] == edge.n_paths - 1 and last[1].size == 1

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_layout_3_does_not_depend_on_the_batch(self, name):
        # layout 3's chunks, which layout 4 gives both laws: a batch's
        # chunks 0 are one stretch of the stream, however many paths a batch
        # draws at once
        cfg = _pinned_configs()[name]
        points = simulate_ensemble(cfg, workers=1).points
        assert _PathKernel(cfg)._batch_paths > 7
        for paths in (1, 7):
            assert batched_endpoints(cfg, paths).tobytes() == points.tobytes()

    @pytest.mark.parametrize("name", ["discrete_atoms", "discrete_initial", "discrete_batch_edge",
                                      "uniform_atoms", "uniform_atoms_initial"])
    def test_worker_count_keeps_the_bytes(self, name):
        cfg = _pinned_configs()[name]
        serial = simulate_ensemble(cfg, workers=1).points.tobytes()
        for workers in (2, 4):
            assert simulate_ensemble(cfg, workers=workers).points.tobytes() == serial


def layout_chunk(cfg):
    """(w, C) of stream layout 4: uniforms per segment, segments per chunk."""
    width = 2 if isinstance(cfg.switching, DiscreteSwitching) or cfg.profile.atoms else 1
    expected = cfg.horizon / cfg.epsilon**2
    chunk = int(expected + 3.0 * math.sqrt(expected) + 8.0)
    return width, chunk + -chunk % (4 // width)


class TestStreamLayout4:
    """A path's draws, from numpy's public Philox API: the paths of a seed
    share the key seed << 64; path i's chunk j of C segments, w uniforms
    each, starts at counter words [i w C/4 (words 0-1), j, 0]. Under
    uniform switching path i's normals start at counter words
    [0, 0, 2^64 - 1, 0] of the key (seed << 64) + i."""

    @pytest.mark.parametrize("name", sorted(TestPinnedStreams.DIGESTS))
    def test_chunks_0_are_one_stream(self, name):
        # under uniform switching reference_path also draws the normals,
        # from normals_stream
        cfg = _pinned_configs()[name]
        w, c = layout_chunk(cfg)
        kernel = _PathKernel(cfg)
        assert (kernel._width, kernel._block) == (w, c) and w * c % 4 == 0
        stream = Generator(Philox(key=cfg.seed << 64)).random(w * c * cfg.n_paths)
        segments = stream.reshape(cfg.n_paths, c, w)
        for i, path in enumerate(simulate_paths(cfg)):
            more = itertools.islice(_layout_segments(cfg, c, i), c, None)  # a short path's
            want = reference_path(cfg, i, itertools.chain(segments[i], more))
            assert path.switch_times.tobytes() == want[0].tobytes()
            assert path.directions.tobytes() == want[1].tobytes()
            assert path.endpoint.tobytes() == want[3].tobytes()

    @pytest.mark.parametrize("finite", [True, False], ids=["finite", "uniform"])
    def test_a_short_path_draws_its_chunks_at_word_2(self, finite):
        # at T/eps^2 = 100 a chunk holds 138 pairs under the finite law and
        # 140 uniforms under the uniform law, and about one path in 5400
        # (11000) switches more often: the first such path of the stream
        seed, eps = 2024, 0.1
        law = DiscreteSwitching(np.array([[0.0], [math.pi / 2], [math.pi], [1.5 * math.pi]]),
                                np.array([0.1, 0.2, 0.3, 0.4]))
        laws = dict(switching=law) if finite else {}
        probe = msre_config(epsilon=eps, seed=seed, n_paths=1, **laws)
        (w, c), rng, short = layout_chunk(probe), Generator(Philox(key=seed << 64)), []
        for first in range(0, 100_000, 2048):
            segments = rng.random(w * c * 2048).reshape(2048, c, w)
            ends = np.cumsum(np.log1p(-segments[:, :, 0]) * -(eps * eps), axis=1)[:, -1]
            short = first + np.flatnonzero(ends < 1.0)
            if short.size:
                break
        i = int(short[0])
        cfg = msre_config(epsilon=eps, seed=seed, n_paths=i + 2, **laws)
        chunks = [segments[i - first]] + [
            Generator(Philox(key=seed << 64, counter=[i * w * c // 4, 0, j, 0])).random((c, w))
            for j in (1, 2)
        ]
        want = reference_path(cfg, i, iter(np.concatenate(chunks)))
        got = simulate_path(cfg, i)
        assert got.switch_times.size >= c
        assert got.switch_times.tobytes() == want[0].tobytes()
        assert got.directions.tobytes() == want[1].tobytes()
        row = simulate_ensemble(cfg, workers=1).points[i]
        assert got.endpoint.tobytes() == row.tobytes() == want[3].tobytes()

    def test_one_clock_for_both_laws(self):
        # example3_atoms under uniform switching and under a finite law both
        # draw two uniforms per segment from the same counters, so their
        # switch times are the same numbers path by path
        profile = builtin_profile("example3_atoms", 2)
        law = DiscreteSwitching(np.stack([a.angles for a in profile.atoms]), np.full(3, 1.0 / 3.0))
        common = dict(profile=profile, epsilon=0.2, n_paths=500, seed=99)
        pairs = zip(simulate_paths(msre_config(**common)),
                    simulate_paths(msre_config(**common, switching=law)))
        for mixture, finite in pairs:
            assert mixture.switch_times.tobytes() == finite.switch_times.tobytes()


@st.composite
def small_configs(draw, finite=None):
    """A config of 1..300 paths, n = 2..4, at eps 0.05..0.5, under the
    uniform law or a finite law of 1..4 directions (finite=None draws
    which), the finite law with or without a fixed initial direction; a
    batch holds about 20 paths at eps 0.05 and about 1600 at eps 0.5. At
    n = 2 the profile may be example3_atoms, whose atoms a finite law then
    takes among its directions."""
    n = draw(st.integers(2, 4))
    names = ["msre_const", "step_half_sphere"] + ["example3_atoms"] * (n == 2)
    profile = builtin_profile(draw(st.sampled_from(names)), n)
    switching, initial = UniformSphere(), None
    polar = st.floats(0.0, math.pi, exclude_max=True)
    azimuth = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
    if draw(st.booleans()) if finite is None else finite:
        k = draw(st.integers(1, 4))
        rows = [[draw(polar) for _ in range(n - 2)] + [draw(azimuth)] for _ in range(k)]
        rows += [atom.angles.tolist() for atom in profile.atoms]
        mass = np.array([draw(st.floats(0.05, 1.0)) for _ in rows])
        switching = DiscreteSwitching(np.array(rows), mass / mass.sum())
        if draw(st.booleans()):
            initial = np.array([draw(polar) for _ in range(n - 2)] + [draw(azimuth)])
    return EvolutionConfig(
        dimension=n, epsilon=draw(st.floats(0.05, 0.5)), profile=profile, horizon=1.0,
        x0=np.array([draw(st.floats(-2.0, 2.0)) for _ in range(n)]),
        n_paths=draw(st.integers(1, 40) | st.integers(100, 300)),
        seed=draw(st.integers(0, 2**64 - 1)),
        switching=switching, initial_direction=initial,
    )


@settings(max_examples=40, deadline=None)
@given(small_configs())
def test_simulate_path_replays_the_ensemble_row(cfg):
    # the first and last path and the paths on each side of every batch edge
    points = simulate_ensemble(cfg, workers=1).points
    firsts = [first for first, *_ in _PathKernel(cfg).batches(0, cfg.n_paths)]
    indices = {0, cfg.n_paths - 1} | {i for first in firsts[1:] for i in (first - 1, first)}
    for i in sorted(indices):
        assert simulate_path(cfg, i).endpoint.tobytes() == points[i].tobytes()


def batched_endpoints(cfg, paths):
    """Endpoints of every path by a kernel that draws `paths` paths per
    batch."""
    kernel = _PathKernel(cfg)
    kernel._batch_paths = paths
    return np.concatenate([kernel.endpoints(counts, times, draws)
                           for _, counts, times, draws in kernel.batches(0, cfg.n_paths)])


@settings(max_examples=25, deadline=None)
@given(small_configs(finite=True), st.integers(1, 8))
def test_finite_law_bytes_do_not_depend_on_the_batch(cfg, paths):
    # batches of 1..8 paths start their draws at many counters
    points = simulate_ensemble(cfg, workers=1).points
    assert batched_endpoints(cfg, paths).tobytes() == points.tobytes()


def _layout_segments(config, chunk, path_index):
    """The uniforms of a path's segments under stream layout 4, w per
    segment, one segment after another, from numpy's Philox: chunk j of
    `chunk` segments starts at counter [i w chunk/4 (words 0-1), j, 0] of
    the key seed << 64."""
    width = layout_chunk(config)[0]
    start = path_index * width * chunk // 4
    for j in itertools.count():
        counter = [start % 2**64, start >> 64, j, 0]
        yield from Generator(Philox(key=config.seed << 64, counter=counter)).random((chunk, width))


def reference_path(config, path_index, segments):
    """One path by per-path formulas of stream layout 4, from an iterator
    over its segments' uniforms: (switch_times, directions, displacements,
    endpoint)."""
    eps, horizon, n = config.epsilon, config.horizon, config.dimension
    init, law, atoms = config.initial_direction, config.switching, config.profile.atoms
    # segment k draws (u_wk, ...): it waits -eps^2 log1p(-u_wk) and, when it
    # draws two, picks with u_wk+1; the path ends at the first segment whose
    # switch time reaches the horizon
    epochs, picks = [], []
    while not epochs or epochs[-1] < horizon:
        u = next(segments)
        wait = float(np.log1p(-u[:1])[0]) * -(eps * eps)
        epochs.append(epochs[-1] + wait if epochs else wait)
        picks.extend(u[1:])
    switch_times = np.array(epochs[:-1])
    if isinstance(law, DiscreteSwitching):
        # the law's row cdf.searchsorted(u, side="right")
        cdf = law.probabilities.cumsum()
        cdf /= cdf[-1]
        idx = [int(cdf.searchsorted(u, side="right")) for u in picks]
        angles = law.angles if init is None else np.vstack([law.angles, init[None, :]])
        if init is not None:
            idx[0] = law.angles.shape[0]  # segment 0's pick is drawn and not used
        c, c1 = config.profile.values_at(angles)
        dirs, speeds = directions_from_angles(angles)[idx], (c / eps + c1)[idx]
    else:
        # n normals per drawn row, each norm summing its squares in order
        rows = len(epochs) - (init is not None)
        g = normals_stream(config.seed, path_index).standard_normal((rows, n))
        norms = np.zeros(g.shape[0])
        for column in g.T:
            norms += column * column
        dirs = g / np.sqrt(norms)[:, None]
        if init is not None:
            dirs = np.vstack([directions_from_angles(init)[None, :], dirs])
        if atoms:  # a pick below the cumulative mass of atom k takes it
            k = law.atom_masses(n, atoms).cumsum().searchsorted(picks, side="right")
            hit = k < len(atoms)
            hit[0] &= init is None  # segment 0's pick is drawn and not used
            dirs[hit] = np.stack([atom.direction for atom in atoms])[k[hit]]
        c, c1 = config.profile.values_on(dirs)
        speeds = c / eps + c1
    durations = np.diff(np.concatenate(([0.0], switch_times, [horizon])))
    displacements = (speeds * durations)[:, None] * dirs
    return switch_times, dirs, displacements, config.x0 + displacements.sum(axis=0)


def _per_path_reference(config, block, path_index):
    """reference_path from chunks of `block` segments."""
    return reference_path(config, path_index, _layout_segments(config, block, path_index))


def kernel_paths(kernel, start, stop):
    """(switch_times, directions, displacements, positions, endpoint) of
    each path in [start, stop), as reference_path gives the first three:
    switch times, directions and positions from kernel.trajectories, the
    displacement columns of kernel.arrange and the rows of kernel.endpoints
    from kernel.batches."""
    arranged = ((kernel.arrange(counts, times, draws)[1], kernel.endpoints(counts, times, draws))
                for _, counts, times, draws in kernel.batches(start, stop))
    for (_, counts, times, dirs, positions), (displacements, endpoints) in zip(
        kernel.trajectories(start, stop), arranged
    ):
        ends = np.cumsum(counts)
        for j, (a, b) in enumerate(zip(ends - counts, ends)):
            yield (times[a : b - 1], dirs[:, a:b].T, displacements[:, a:b].T, positions[a:b],
                   endpoints[j])


def check_against_reference(got, want, x0):
    """A path of kernel_paths against reference_path's (switch_times,
    directions, displacements, endpoint), byte for byte; its positions
    against x0 plus the running sum of the reference displacements."""
    switch_times, dirs, displacements, positions, endpoint = got
    want_positions = x0 + np.cumsum(want[2], axis=0)
    pairs = zip((switch_times, dirs, displacements, endpoint, positions), (*want, want_positions))
    for a, b in pairs:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedKernel:
    @pytest.mark.parametrize("name", sorted(TestPinnedStreams.DIGESTS))
    def test_small_block_matches_per_path_formulas(self, name):
        # chunks of one Philox block, 4 uniforms, send every path through
        # _PathKernel._replay, which draws several chunks per path
        cfg = _pinned_configs()[name]
        kernel = _PathKernel(cfg)
        kernel._block = block = 4 // kernel._width
        paths = list(kernel_paths(kernel, 0, 9))
        assert len(paths) == 9
        for i, path in enumerate(paths):
            check_against_reference(path, _per_path_reference(cfg, block, i), cfg.x0)

    @pytest.mark.parametrize("name", ["discrete_atoms", "discrete_initial", "uniform_step_n3",
                                      "uniform_atoms", "uniform_atoms_initial"])
    def test_mixed_batch_replays_only_the_short_paths(self, name):
        # a chunk of about T/eps^2 segments (whole Philox blocks, as a chunk
        # is): some paths of the one batch pass the horizon within it, the
        # others take the replay route
        cfg = _pinned_configs()[name]
        kernel = _PathKernel(cfg)
        step = 4 // kernel._width
        kernel._block = block = int(cfg.horizon / cfg.epsilon**2) // step * step
        (_, counts, *_), = kernel.trajectories(0, 24)
        assert (counts > block).any() and (counts <= block).any()
        for i, path in enumerate(kernel_paths(kernel, 0, 24)):
            check_against_reference(path, _per_path_reference(cfg, block, i), cfg.x0)

    def test_fixed_direction_on_the_step_boundary_keeps_its_chart_speed(self):
        # theta_2 = pi: s_3 = sin(1) sin(pi) > 0 in floats, yet the direction
        # gets the step's height, as theta_2 in [pi, 2 pi) says
        cfg = EvolutionConfig(
            dimension=3, epsilon=0.3, profile=builtin_profile("step_half_sphere", 3),
            horizon=1.0, x0=np.zeros(3), n_paths=5, seed=3,
            initial_direction=np.array([1.0, math.pi]),
        )
        first = directions_from_angles(cfg.initial_direction)
        assert first[2] > 0.0
        assert cfg.profile.values_on(first[None, :])[1].tolist() == [1.0]
        kernel = _PathKernel(cfg)
        for i, path in enumerate(kernel_paths(kernel, 0, cfg.n_paths)):
            check_against_reference(path, _per_path_reference(cfg, kernel._block, i), cfg.x0)

    @pytest.mark.parametrize("name", ["uniform_atoms", "discrete_initial"])
    @pytest.mark.parametrize("chunk", ["one_block", "mixed"])
    def test_trajectories_csv_matches_per_path_formulas(self, tmp_path, monkeypatch, name, chunk):
        # at a chunk of one Philox block every path is replayed alone, its
        # rows inserted among its batch's; at about T/eps^2 segments a batch
        # holds replayed paths between the others
        cfg = _pinned_configs()[name]
        step = 4 // layout_chunk(cfg)[0]
        block = step if chunk == "one_block" else int(cfg.horizon / cfg.epsilon**2) // step * step
        monkeypatch.setattr(simulator, "_chunk", lambda expected, width: block)
        path = tmp_path / "trajectories.csv"
        _write_trajectories_csv(path, cfg)
        lines = ["path_index,t," + ",".join(f"x{j + 1}" for j in range(cfg.dimension))]
        for i in range(cfg.n_paths):
            switch_times, _, displacements, _ = _per_path_reference(cfg, block, i)
            times = np.concatenate(([0.0], switch_times, [cfg.horizon]))
            positions = np.vstack([cfg.x0, cfg.x0 + np.cumsum(displacements, axis=0)])
            lines += [f"{i}," + ",".join(format(x, ".17g") for x in [t, *row])
                      for t, row in zip(times.tolist(), positions.tolist())]
        assert path.read_text().splitlines() == lines

    def test_padded_steps_stay_near_the_batch_rows(self):
        # at eps 1, T 1 a batch holds about 4096 paths of 2 segments, the
        # widest padding: the longest path of a batch has about 7 rows, and
        # the padded buffers add 2.3 times the batch's rows x n doubles at
        # n = 3; buffers padded to a chunk of 12 rows would add 4.3
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc already runs: its peak would not be this call's alone")
        cfg = msre_config(dimension=3, profile=builtin_profile("msre_const", 3), x0=np.zeros(3),
                          epsilon=1.0, n_paths=20_000, seed=5)
        kernel = _PathKernel(cfg)
        paths = kernel._batch_paths
        assert paths >= 4000
        (_, counts, *_), = kernel.trajectories(0, paths)  # first-call imports
        peaks = []
        for run in (lambda: [kernel.arrange(*batch[1:]) for batch in kernel.batches(0, paths)],
                    lambda: list(kernel.trajectories(0, paths))):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4 * counts.sum() * cfg.dimension * 8

    @pytest.mark.parametrize("n", range(2, 11))
    def test_unit_columns_match_row_norms(self, n):
        # each row's norm sums its squares in order, at every n
        g = Generator(Philox(key=n)).standard_normal((100_000, n))
        norms = np.array([math.sqrt(sum(x * x for x in row)) for row in g.tolist()])
        want = g / norms[:, None]
        assert _unit_columns(g).T.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("masses", [1, 3, 64, 200])
    def test_counted_and_searched_picks_agree(self, monkeypatch, masses):
        # the two routes of _pick give searchsorted's indices, on draws equal
        # to a cdf entry or next to one too, and on repeated entries (zero masses)
        rng = Generator(Philox(key=masses))
        weights = rng.random(masses)
        weights[1::5] = 0.0
        cdf = weights.cumsum() / weights.sum()
        u = np.concatenate([rng.random(5000), cdf, np.nextafter(cdf, 0.0), [0.0]])
        want = cdf.searchsorted(u, side="right")
        for counted in (0, 255):  # every cdf searched, every cdf counted
            monkeypatch.setattr(simulator, "_COUNTED_MASSES", counted)
            got = simulator._pick(cdf, u)
            assert got.dtype == np.intp and np.array_equal(got, want)


class RaisingSpeed:
    """A picklable speed function that fails inside the path code."""

    def __call__(self, directions):
        raise RuntimeError("speed function failed")


class TestParallelFailures:
    def test_path_error_propagates_without_serial_rerun(self):
        profile = VelocityProfile(2, continuous_c=RaisingSpeed())
        cfg = msre_config(profile=profile, n_paths=40)
        written = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="speed function failed"):
                simulate_ensemble(cfg, workers=2, rows=(_endpoint_lines, written.append))
        assert not [w for w in caught if "serially" in str(w.message)]
        assert written == []

    def test_unpicklable_config_runs_serially_and_names_the_cause(self):
        profile = VelocityProfile(2, continuous_c=lambda s: np.ones(s.shape[:-1]))
        cfg = msre_config(profile=profile, n_paths=40)
        fallback, serial = [], []
        with pytest.warns(UserWarning, match="cannot be pickled.*running serially"):
            parallel = simulate_ensemble(cfg, workers=2, rows=(_endpoint_lines, fallback.append))
        one = simulate_ensemble(cfg, workers=1, rows=(_endpoint_lines, serial.append))
        np.testing.assert_array_equal(parallel.points, one.points)
        # the pool gave up before its first block, so every row is written once
        assert "".join(fallback) == "".join(serial)
        assert [int(line.split(",")[0]) for line in "".join(fallback).splitlines()] == list(range(40))
