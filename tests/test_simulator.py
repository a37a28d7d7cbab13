"""Tests of the event-driven path simulator."""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import stats as scipy_stats

from revolve.limits import DiscreteSwitching, UniformSphere, discrete_limit_coefficients
from revolve.profiles import Atom, VelocityProfile, builtin_profile
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
from revolve.sphere import angles_from_directions, directions_from_angles


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

    def test_discrete_probabilities_validated(self):
        with pytest.raises(ValueError):
            DiscreteSwitching(np.array([[0.0], [1.0]]), np.array([0.6, 0.5]))
        with pytest.raises(ValueError):
            DiscreteSwitching(np.array([[0.0], [1.0]]), np.array([math.nan, 1.0]))

    def test_fingerprint_distinguishes_configs(self):
        a = config_fingerprint(msre_config())
        b = config_fingerprint(msre_config(seed=322))
        assert a != b and len(a) == 64


class TestDeterminism:
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

    def test_env_variable_controls_workers(self, monkeypatch):
        cfg = msre_config(n_paths=60)
        base = simulate_ensemble(cfg).points
        monkeypatch.setenv("REVOLVE_THREADS", "2")
        np.testing.assert_array_equal(simulate_ensemble(cfg).points, base)


class TestPathLaw:
    def test_switch_counts_concentrate(self):
        # Poisson(T/eps^2) = Poisson(100): 3 sigma is +-30
        cfg = msre_config(n_paths=1)
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
        cfg = msre_config(epsilon=0.3)  # mean count about 11
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


class TestWarnings:
    def test_atomic_profile_under_uniform_switching_warns(self):
        profile = builtin_profile("example3_atoms", 2)
        cfg = msre_config(profile=profile, n_paths=3)
        with pytest.warns(UserWarning, match="atomic profile under uniform switching"):
            ens = simulate_ensemble(cfg)
        np.testing.assert_array_equal(ens.points, np.zeros((3, 2)))

    def test_mixed_profile_under_uniform_switching_warns(self):
        # the limit drift includes the atom's 1/(2 pi), which the uniform
        # draws miss almost surely
        atom = Atom(np.array([math.pi / 2.0]), 1.0, 0.0, 1.0)
        continuous = builtin_profile("msre_const", 2).continuous_c
        profile = VelocityProfile(2, continuous_c=continuous, atoms=(atom,), allow_mixed=True)
        with pytest.warns(UserWarning, match="mixed profile under uniform switching"):
            simulate_ensemble(msre_config(profile=profile, n_paths=3))
        law = DiscreteSwitching(np.array([[0.0], [math.pi]]), np.array([0.5, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_ensemble(msre_config(profile=profile, n_paths=3, switching=law))
            simulate_ensemble(msre_config(n_paths=3))


class TestPathStreams:
    """A re-keyed generator draws exactly what a fresh per-path one draws."""

    CASES = [(0, 0), (321, 7), (12345, 999_999), (2**64 - 1, 0), (2**64 - 1, 2**63 + 5)]

    @staticmethod
    def draws(rng):
        return (rng.standard_normal(64), rng.exponential(size=64), rng.random(64))

    @pytest.mark.parametrize("seed,index", CASES)
    def test_rekey_matches_fresh_philox(self, seed, index):
        streams = _PathStreams(seed)
        want = self.draws(Generator(Philox(key=(seed << 64) + index)))
        got = self.draws(streams.rekey(index))
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed,index", CASES)
    def test_rekey_after_use_matches_fresh_philox(self, seed, index):
        streams = _PathStreams(seed)
        used = streams.rekey(index + 1)
        used.standard_normal(3)
        used.random(5)  # leaves a partly consumed buffer behind
        want = self.draws(Generator(Philox(key=(seed << 64) + index)))
        got = self.draws(streams.rekey(index))
        for a, b in zip(got, want):
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
    }


class TestPinnedStreams:
    """Endpoint bytes of small configs (x86-64, numpy 2.4). The first four
    were recorded before the per-block kernel replaced the per-path set-up,
    the next four before the column-major batched kernel replaced the
    per-path arithmetic, and discrete_last_single before padded batches
    replaced the per-path switch clock. A change of the stream layout or of
    the path arithmetic changes these digests."""

    DIGESTS = {
        "uniform_step_n3": "03b81ac96611c4861a57a145422f00fd9536021ea9bd62d45852d957041d363e",
        "uniform_initial": "f675ccceb073907838b10540080f85e047dc9abec3a3a5be4cf60ee5b8d59076",
        "discrete_atoms": "2629dd45923708de708fcc909c25e122d52a20b9ed207ff43047098b30452e61",
        "discrete_initial": "5048537a99a6460ddb514f0161c1045926d2db6f802d3b642a291145ed9e0555",
        "uniform_sine_n5_long": "f61053fa2abe291db41d79dbba6e66b6524c063a3a86e9eb9faeb5cc32025479",
        "uniform_msre_n8": "f27d35d925522013d6542a975abef44aacd5d407bdbc86d9946730e41d62c2b8",
        "uniform_user_callable": "36730d70fea85251253e31572a40377db9ff0f7755db2172c15d0459e8e3e1a7",
        "discrete_batch_edge": "c340548ead1d86b76d5f0c76568d9b58108711982551a34d3dabd9371c5b5409",
        "discrete_last_single": "d182b21adb736726cadcdb06ebf80857c0ce8fa7e6a150032f0482b320632af1",
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

    def test_pins_span_batches(self):
        configs = _pinned_configs()
        long_n5, edge = configs["uniform_sine_n5_long"], configs["discrete_last_single"]
        assert len(list(_PathKernel(long_n5).batches(0, long_n5.n_paths))) >= 3
        last = list(_PathKernel(edge).batches(0, edge.n_paths))[-1]
        assert last[0] == edge.n_paths - 1 and last[1].size == 1

    @pytest.mark.parametrize("name", ["discrete_atoms", "discrete_initial", "discrete_batch_edge"])
    def test_worker_count_keeps_the_bytes(self, name):
        cfg = _pinned_configs()[name]
        serial = simulate_ensemble(cfg, workers=1).points.tobytes()
        for workers in (2, 4):
            assert simulate_ensemble(cfg, workers=workers).points.tobytes() == serial


@st.composite
def small_configs(draw):
    """A config of 1..300 paths, n = 2..4, under the uniform law or a finite
    law of 1..4 directions; a batch holds about 20 paths at eps 0.05 and
    about 180 at eps 0.15."""
    n = draw(st.integers(2, 4))
    profile = builtin_profile(draw(st.sampled_from(["msre_const", "step_half_sphere"])), n)
    switching = UniformSphere()
    if draw(st.booleans()):
        k = draw(st.integers(1, 4))
        polar = st.floats(0.0, math.pi, exclude_max=True)
        azimuth = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
        rows = [[draw(polar) for _ in range(n - 2)] + [draw(azimuth)] for _ in range(k)]
        mass = np.array([draw(st.floats(0.05, 1.0)) for _ in range(k)])
        switching = DiscreteSwitching(np.array(rows), mass / mass.sum())
    return EvolutionConfig(
        dimension=n, epsilon=draw(st.floats(0.05, 0.15)), profile=profile, horizon=1.0,
        x0=np.array([draw(st.floats(-2.0, 2.0)) for _ in range(n)]),
        n_paths=draw(st.integers(1, 40) | st.integers(100, 300)),
        seed=draw(st.integers(0, 2**64 - 1)),
        switching=switching,
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


def _per_path_reference(config, block, path_index):
    """One path by the per-path formulas of the kernel before the batched
    one: (switch_times, directions, displacements, endpoint)."""
    eps, horizon, n = config.epsilon, config.horizon, config.dimension
    init = config.initial_direction
    rng = Generator(Philox(key=(int(config.seed) << 64) + path_index))
    waits = rng.exponential(eps * eps, size=block)
    total = float(waits.sum())
    while total < horizon:
        more = rng.exponential(eps * eps, size=block)
        waits = np.concatenate([waits, more])
        total += float(more.sum())
    epochs = np.cumsum(waits)
    switch_times = epochs[: int(np.searchsorted(epochs, horizon))]
    n_draw = switch_times.size + (init is None)
    law = config.switching
    if isinstance(law, UniformSphere):
        g = rng.standard_normal((n_draw, n))
        dirs = g / np.linalg.norm(g, axis=-1, keepdims=True)
        if init is not None:
            dirs = np.vstack([directions_from_angles(init)[None, :], dirs])
        c, c1 = config.profile.values_on(dirs)
        speeds = c / eps + c1
    else:
        angles = law.angles if init is None else np.vstack([law.angles, init[None, :]])
        cdf = law.probabilities.cumsum()
        cdf /= cdf[-1]
        idx = cdf.searchsorted(rng.random(n_draw), side="right")
        if init is not None:
            idx = np.concatenate([[law.angles.shape[0]], idx])
        c, c1 = config.profile.values_at(angles)
        dirs, speeds = directions_from_angles(angles)[idx], (c / eps + c1)[idx]
    durations = np.diff(np.concatenate(([0.0], switch_times, [horizon])))
    displacements = (speeds * durations)[:, None] * dirs
    return switch_times, dirs, displacements, config.x0 + displacements.sum(axis=0)


class TestBatchedKernel:
    @pytest.mark.parametrize("name", sorted(TestPinnedStreams.DIGESTS))
    def test_small_block_matches_per_path_formulas(self, name):
        # a block of 2 waits runs the extra-exponential branch of
        # _draw_switch_times several times per path
        cfg = _pinned_configs()[name]
        kernel = _PathKernel(cfg)
        kernel._block = 2
        endpoints = np.concatenate(
            [kernel.endpoints(counts, times, draws) for _, counts, times, draws in kernel.batches(0, 9)]
        )
        paths = list(kernel.paths(0, 9))
        assert len(paths) == 9
        for i, path in enumerate(paths):
            want = _per_path_reference(cfg, 2, i)
            got = (*path, endpoints[i])
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", ["discrete_atoms", "discrete_initial", "uniform_step_n3"])
    def test_mixed_batch_replays_only_the_short_paths(self, name):
        # a block of about T/eps^2 waits: some paths of the one batch pass
        # the horizon within it, the others take the replay route
        cfg = _pinned_configs()[name]
        kernel = _PathKernel(cfg)
        kernel._block = block = int(cfg.horizon / cfg.epsilon**2)
        (_, counts, times, draws), = kernel.batches(0, 24)
        assert (counts > block).any() and (counts <= block).any()
        endpoints = kernel.endpoints(counts, times, draws)
        for i, path in enumerate(kernel.paths(0, 24)):
            want = _per_path_reference(cfg, block, i)
            for a, b in zip((*path, endpoints[i]), want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

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
        for i, path in enumerate(kernel.paths(0, cfg.n_paths)):
            for a, b in zip(path, _per_path_reference(cfg, kernel._block, i)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_unit_columns_match_row_norms(self, n):
        g = Generator(Philox(key=n)).standard_normal((100_000, n))
        want = g / np.linalg.norm(g, axis=-1, keepdims=True)
        assert _unit_columns(g).T.tobytes() == np.ascontiguousarray(want).tobytes()


class RaisingSpeed:
    """A picklable speed function that fails inside the path code."""

    def __call__(self, directions):
        raise RuntimeError("speed function failed")


class TestParallelFailures:
    def test_path_error_propagates_without_serial_rerun(self):
        profile = VelocityProfile(2, continuous_c=RaisingSpeed())
        cfg = msre_config(profile=profile, n_paths=40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(RuntimeError, match="speed function failed"):
                simulate_ensemble(cfg, workers=2)
        assert not [w for w in caught if "serially" in str(w.message)]

    def test_unpicklable_config_runs_serially_and_names_the_cause(self):
        profile = VelocityProfile(2, continuous_c=lambda s: np.ones(s.shape[:-1]))
        cfg = msre_config(profile=profile, n_paths=40)
        with pytest.warns(UserWarning, match="cannot be pickled.*running serially"):
            parallel = simulate_ensemble(cfg, workers=2)
        np.testing.assert_array_equal(parallel.points, simulate_ensemble(cfg, workers=1).points)
