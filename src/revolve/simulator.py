"""Event-driven Monte-Carlo simulation of random evolutions.

A path holds a direction for an exponential time with mean eps^2 (Poisson
switching with intensity 1/eps^2), moves in a straight line at speed
v(theta) = c(theta)/eps + c1(theta), then resamples the direction afresh
from the switching law (uniform on the sphere, or a finite set with given
probabilities; self-transitions are allowed). Positions are integrated in
closed form segment by segment, so there is no time-discretization error.

Reproducibility: every path owns a counter-based Philox stream keyed by
(seed, path_index): counter 0 and key words [path_index, seed], the stream
of Generator(Philox(key=(seed << 64) + path_index)). Path i is a pure
function of the configuration and its index. Ensembles are therefore
bit-identical for any number of workers, and any single path can be
replayed in isolation.

Per-block set-up: a block of paths shares one Philox generator, re-keyed
for each path, the padded buffers its batches reuse, and everything that
does not change from path to path. A finite switching law becomes a table
of directions and speeds, evaluated once, with the initial direction as one
extra column; a path draws indices into it. Every speed, in a table or on
a batch's rows, comes from the one evaluator VelocityProfile.values_on on
unit vectors. Under uniform switching it runs on each batch's directions:
the drawn ones, and a fixed initial direction in the first row of each
path.

Batched arithmetic: the loop over a batch's paths does only what has to
follow each path's stream. It re-keys the generator, draws a block of
standard exponentials into the path's row of a padded (paths, block)
buffer, then draws the path's direction variates. A finite law's uniforms
fill a padded row too: a stream's draws are consecutive and nothing is
drawn after them, so the row's used prefix holds the numbers a draw sized
to the path would give. Under uniform switching the path counts its
switches in its own row first, then draws exactly n normals per segment
straight into the batch's rows. The rest runs once per batch: the waits
(the exponentials times eps^2, the bits of Generator.exponential(eps^2)),
their cumulative sums row by row and the switch counts under a finite law,
and, for both laws, a mask that cuts the padded rows into one row per
segment, path after path. A path whose block of waits ends before the
horizon draws more waits before its directions, so it is replayed alone
through _draw_switch_times; with a block of T/eps^2 + 6 sqrt(T/eps^2) + 16
waits that is rarer than one path in 10^9. A batch holds about _BATCH_ROWS
segments, so transient memory does not grow with the number of paths.
Each batch is handled at once on column-major arrays: one (n, rows) array
per quantity, one column per segment, path after path. The results keep
the bits of the per-path arithmetic because every operation is
either elementwise or sums in the same order:
  - a direction's norm adds the squared coordinates in order, as
    np.linalg.norm does for fewer than 8 of them (from 8 on, numpy sums
    pairwise, and the row-wise norm is kept);
  - an endpoint is x0 plus a sequential sum of the path's displacements in
    row order, starting from 0.0, as displacements.sum(axis=0) does on one
    path's rows. np.bincount adds in exactly that order; a pairwise sum
    (np.add.reduceat, or a sum along a contiguous axis) would change bits.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox

from .limits import DiscreteSwitching, SwitchingLaw, UniformSphere
from .profiles import FieldError, VelocityProfile
from .sphere import check_dimension, directions_from_angles
# unused here, importable for tools that look it up (tests/test_bench_lookups.py)
from .sphere import angles_from_directions

__all__ = [
    "EvolutionConfig",
    "ResourceExhausted",
    "Trajectory",
    "EndpointEnsemble",
    "simulate_path",
    "simulate_paths",
    "simulate_ensemble",
    "config_fingerprint",
    "resolve_workers",
]

_MAX_SEED = 2**64
# The most float64 values one numpy array can hold: its size in bytes is an intp.
_MAX_FLOAT64S = np.iinfo(np.intp).max // 8


def _switch_block(expected: float) -> int:
    """Waits a path draws at first when it expects `expected` switches."""
    return max(16, int(expected + 6.0 * math.sqrt(expected) + 16.0))


@dataclass(frozen=True)
class EvolutionConfig:
    """Full description of one simulation experiment; its range checks raise FieldError."""

    dimension: int
    epsilon: float
    profile: VelocityProfile
    horizon: float
    x0: np.ndarray
    n_paths: int
    seed: int
    switching: SwitchingLaw = field(default_factory=UniformSphere)
    initial_direction: np.ndarray | None = None  # angles; None = draw from the law

    def __post_init__(self) -> None:
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        check_dimension(self.dimension)
        if not (0.0 < self.epsilon <= 1.0):
            raise FieldError(f"epsilon must lie in (0, 1], got {self.epsilon}", "epsilon")
        if not (0.0 < self.horizon < math.inf):
            raise FieldError(f"horizon must be positive and finite, got {self.horizon}", "horizon")
        mean_wait = self.epsilon * self.epsilon  # horizon / mean_wait switches are expected
        if not (mean_wait > 0.0 and math.isfinite(self.horizon / mean_wait)):
            raise FieldError(
                f"epsilon {self.epsilon} is too small for horizon {self.horizon}: the expected "
                "switch count horizon / epsilon^2 is not a finite float",
                "epsilon",
            )
        block = _switch_block(self.horizon / mean_wait)
        if block > _MAX_FLOAT64S:
            raise FieldError(
                f"epsilon {self.epsilon} is too small for horizon {self.horizon}: a path's "
                f"block of {block:.3g} waits is more float64 values than numpy can index",
                "epsilon",
            )
        if not self.n_paths >= 1:
            raise FieldError(f"n_paths must be >= 1, got {self.n_paths}", "n_paths")
        if not (0 <= int(self.seed) < _MAX_SEED):
            raise FieldError(f"seed must be an unsigned 64-bit integer, got {self.seed}", "seed")
        if self.x0.shape != (self.dimension,):
            raise FieldError(f"x0 must have shape ({self.dimension},), got {self.x0.shape}", "x0")
        if self.profile.dimension != self.dimension:
            raise FieldError(f"dimension {self.profile.dimension} != {self.dimension}", "profile")
        if isinstance(self.switching, DiscreteSwitching):
            if self.switching.angles.shape[1] != self.dimension - 1:
                raise FieldError("switching angles do not match the dimension", "switching.angles")
        if self.initial_direction is not None:
            init = np.atleast_1d(np.asarray(self.initial_direction, dtype=float))
            if init.shape != (self.dimension - 1,):
                raise FieldError("initial_direction must have n-1 angles", "initial_direction")
            object.__setattr__(self, "initial_direction", init)

    def describe(self) -> dict:
        """Canonical JSON-friendly form, used for fingerprints and manifests."""
        return {
            "dimension": self.dimension,
            "epsilon": self.epsilon,
            "horizon": self.horizon,
            "x0": self.x0.tolist(),
            "n_paths": self.n_paths,
            "seed": int(self.seed),
            "profile": self.profile.describe(),
            "switching": self.switching.describe(),
            "initial_direction": (
                None if self.initial_direction is None else self.initial_direction.tolist()
            ),
        }


def config_fingerprint(config: EvolutionConfig) -> str:
    """sha256 over the canonical config description."""
    payload = json.dumps(config.describe(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class Trajectory:
    """One exact piecewise-linear path.

    positions[k+1] = positions[k] + v_k * (t_{k+1} - t_k) * s_k with the
    segment times t_0 = 0 < switch_times < t_last = horizon; directions holds
    one unit vector per segment.
    """

    horizon: float
    switch_times: np.ndarray   # (m,), strictly inside (0, horizon)
    directions: np.ndarray     # (m+1, n)
    positions: np.ndarray      # (m+2, n), starts at x0, ends at x(horizon)

    @property
    def times(self) -> np.ndarray:
        return np.concatenate(([0.0], self.switch_times, [self.horizon]))

    @property
    def endpoint(self) -> np.ndarray:
        return self.positions[-1]


@dataclass(frozen=True)
class EndpointEnsemble:
    """Endpoints of independent paths at the common horizon."""

    dimension: int
    t: float
    points: np.ndarray  # (n_paths, n)
    config_fingerprint: str

    def __post_init__(self) -> None:
        if self.points.ndim != 2 or self.points.shape[1] != self.dimension:
            raise ValueError("points must be (n_paths, dimension)")


class _PathStreams:
    """Per-path Philox streams from one generator, re-keyed for each path.

    rekey(i) sets counter 0, key words [i, seed] and an empty buffer: the
    state of a fresh Generator(Philox(key=(seed << 64) + i)), so the draws
    are the same. Building a fresh Philox would first seed a SeedSequence
    from OS entropy that the key then overrides; re-keying skips that.
    """

    def __init__(self, seed: int):
        self._bit_generator = Philox(key=int(seed) << 64)
        self._generator = Generator(self._bit_generator)
        self._fresh_state = self._bit_generator.state
        self._key = self._fresh_state["state"]["key"]

    def rekey(self, path_index: int) -> Generator:
        self._key[0] = path_index
        self._bit_generator.state = self._fresh_state
        return self._generator


def _draw_switch_times(rng: Generator, mean: float, block: int, horizon: float) -> np.ndarray:
    """Event epochs of the Poisson clock inside (0, horizon): blocks of waits
    until their sum passes the horizon. _PathKernel.batches draws the first
    block of every path itself and replays here only the paths that need
    more."""
    waits = rng.exponential(mean, size=block)
    total = float(waits.sum())
    while total < horizon:
        more = rng.exponential(mean, size=block)
        waits = np.concatenate([waits, more])
        total += float(more.sum())
    epochs = np.cumsum(waits)
    m = int(np.searchsorted(epochs, horizon))
    return epochs[:m]


# Segments per batch, on average: a batch takes _BATCH_ROWS / (T/eps^2 + 1)
# paths. 64 KiB per (rows,) float64 array, n * 64 KiB per (n, rows) one;
# a padded buffer holds a block per path, at most 16 times as many entries. Measured at eps 0.02 (n = 3, 4000 paths, 2-CPU Xeon, glibc
# malloc): 2^13 rows holds three paths per batch and took about 10% less CPU
# time than 2^12, which holds one; at 2^14 every batch mapped and unmapped
# its arrays afresh, about 190k page faults and 0.3 s of system time. These
# runs had scipy loaded, whose import raised the allocator's thresholds as
# _keep_batch_memory now does in every process.
_BATCH_ROWS = 1 << 13


def _keep_batch_memory() -> None:
    """Allocate and free one 4 MiB array, which the allocator maps on its own.

    Under glibc this raises the dynamic mmap threshold to 4 MiB and the heap
    trim threshold to 8 MiB (see mallopt(3)). At the start-up values the
    heap top is handed back to the system after each batch, whose
    temporaries take about 1.4 MiB at n = 3, and the next batch faults the
    pages in again: 160k page faults and 0.3 s of system time for 4000
    paths at eps 0.02. Elsewhere it costs one allocation.
    """
    np.empty(1 << 19)


def _unit_columns(g: np.ndarray) -> np.ndarray:
    """The rows of g (k, n) over their norms, as columns of an (n, k) array,
    with the bits of g / np.linalg.norm(g, axis=-1, keepdims=True).

    numpy sums a row of fewer than 8 squares in order, starting from 0, and
    so does this loop over the columns. From 8 on it sums pairwise, so the
    row-wise norm is kept there.
    """
    k, n = g.shape
    if n < 8:
        norms = g[:, 0] * g[:, 0]
        for j in range(1, n):
            norms += g[:, j] * g[:, j]
        np.sqrt(norms, out=norms)
    else:
        norms = np.linalg.norm(g, axis=-1)
    return np.divide(g.T, norms, out=np.empty((n, k)))


class _PathKernel:
    """The per-config work of a block of paths, done once, and the path
    arithmetic, done once per batch of paths.

    Each path draws from its own stream: the draws it uses, and their
    order, are those of one fresh stream per path (a finite law draws a
    block of uniforms, of which the path uses a prefix). Everything after
    the draws runs on a whole batch at once, on column-major arrays
    (n, rows) with one column per segment, with the bits of the per-path
    arithmetic.
    """

    def __init__(self, config: EvolutionConfig):
        self.config = config
        self._streams = _PathStreams(config.seed)
        eps, init = config.epsilon, config.initial_direction
        self._mean = eps * eps
        expected = config.horizon / self._mean
        self._block = _switch_block(expected)
        self._batch_paths = max(1, int(_BATCH_ROWS / (expected + 1.0)))
        # 1 when the first segment of each path has the fixed initial
        # direction: that row holds no draw.
        self._fixed_rows = int(init is not None)
        _keep_batch_memory()
        law = config.switching
        if isinstance(law, DiscreteSwitching):
            # Columns: the law's directions, then the initial direction.
            angles = law.angles if init is None else np.vstack([law.angles, init[None, :]])
            directions = directions_from_angles(angles)
            self._table = directions.T.copy()
            c, c1 = config.profile.values_on(directions)
            self._table_speeds = c / eps + c1
            # Generator.choice(K, size, p=p) draws exactly this way.
            self._cdf = law.probabilities.cumsum()
            self._cdf /= self._cdf[-1]
            self._first_index = law.angles.shape[0]
        else:
            self._cdf = None
            if init is not None:
                self._first = directions_from_angles(init)

    def batches(
        self, start: int, stop: int
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Draw paths [start, stop) in batches of _batch_paths paths, about
        _BATCH_ROWS segments.

        Yields (first path, rows per path, times, draws) with one row per
        segment, path after path. times holds the segment end times: the
        switch times, then the horizon. draws holds (rows, n) normals under
        uniform switching and (rows,) uniforms under a finite law; with a
        fixed initial direction, the first row of each path is a
        placeholder. Uniform switching's draws are a view of a buffer that
        the next batch reuses.
        """
        horizon, fixed, block, mean = self.config.horizon, self._fixed_rows, self._block, self._mean
        uniform, per_batch = self._cdf is None, self._batch_paths
        waits, switches = np.empty((per_batch, block)), np.empty(per_batch, dtype=np.intp)
        # A spare column: the horizon follows a path's last epoch below it.
        epochs = np.empty((per_batch, block + 1))
        # Path j is short when the pairwise sum of its waits falls short of
        # the horizon, so that it tops them up before its directions (the
        # test of _draw_switch_times), or when all its epochs do, so that it
        # has more rows than a block. Short paths are replayed alone.
        shorts = np.empty(per_batch, dtype=bool)
        if uniform:  # the batch's rows of normals, path after path
            normals = np.empty((per_batch * block, self.config.dimension))
        else:  # row j: path j's placeholder, if any, then its uniforms
            padded = np.empty((per_batch, block + 1))
            padded[:, :fixed] = 1.0
        paths, columns = np.arange(per_batch), np.arange(block + 1)
        for first in range(start, stop, per_batch):
            size = min(per_batch, stop - first)
            w, t, m, short = waits[:size], epochs[:size], switches[:size], shorts[:size]
            used = 0
            for j in range(size):
                rng = self._streams.rekey(first + j)
                rng.standard_exponential(out=w[j])
                if not uniform:  # its uniforms are a prefix of these
                    rng.random(out=padded[j, fixed:])
                    continue
                # Its normals follow, n per segment: run its clock first.
                w[j] *= mean
                m[j] = np.cumsum(w[j], out=t[j, :block]).searchsorted(horizon)
                short[j] = w[j].sum() < horizon or m[j] == block
                if not short[j]:
                    rows = m[j] + 1
                    normals[used : used + fixed] = 1.0  # nonzero, so its norm is finite
                    rng.standard_normal(out=normals[used + fixed : used + rows])
                    used += rows
            if not uniform:  # the same arithmetic, once for the whole batch
                w *= mean  # the bits of rng.exponential(mean, size=block)
                np.cumsum(w, axis=1, out=t[:, :block])
                np.sum(t[:, :block] < horizon, axis=1, out=m)
                short[:] = (w.sum(axis=1) < horizon) | (m == block)
            t[paths[:size], m] = horizon  # the end of each path's last segment
            counts = np.where(short, 0, m + 1)
            taken = columns < counts[:, None]
            times = t[taken]
            draws = normals[:used] if uniform else padded[:size][taken]
            replay = np.flatnonzero(short)
            if replay.size:
                at = np.cumsum(counts)[replay]  # where each replayed path's rows go
                replayed = [self._replay(first + j) for j in replay]
                counts[replay] = [path_times.size for path_times, _ in replayed]
                at = np.repeat(at, counts[replay])
                times = np.insert(times, at, np.concatenate([r[0] for r in replayed]))
                draws = np.insert(draws, at, np.concatenate([r[1] for r in replayed]), axis=0)
            yield first, counts, times, draws

    def _replay(self, path_index: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, draws) of one short path, drawn alone with as many blocks
        of waits as it needs."""
        rng = self._streams.rekey(path_index)
        horizon, fixed = self.config.horizon, self._fixed_rows
        times = np.append(_draw_switch_times(rng, self._mean, self._block, horizon), horizon)
        k = times.size - fixed
        draws = rng.standard_normal((k, self.config.dimension)) if self._cdf is None else rng.random(k)
        return times, np.concatenate([np.ones((fixed,) + draws.shape[1:]), draws])

    def arrange(
        self, counts: np.ndarray, times: np.ndarray, draws: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(directions, displacements) of one batch, both (n, rows)."""
        config = self.config
        starts = np.cumsum(counts) - counts
        durations = np.empty_like(times)
        np.subtract(times[1:], times[:-1], out=durations[1:])
        durations[starts] = times[starts]  # the first segment starts at 0.0
        if self._cdf is not None:
            idx = self._cdf.searchsorted(draws, side="right")
            if self._fixed_rows:
                idx[starts] = self._first_index
            dirs, speeds = self._table[:, idx], self._table_speeds[idx]
        else:
            dirs = _unit_columns(draws)
            if self._fixed_rows:
                dirs[:, starts] = self._first[:, None]
            c, c1 = config.profile.values_on(dirs.T)
            speeds = c / config.epsilon + c1
        return dirs, dirs * (speeds * durations)

    def endpoints(self, counts: np.ndarray, times: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Endpoints of the paths of one batch, (paths, n)."""
        _, displacements = self.arrange(counts, times, draws)
        path_of_row = np.repeat(np.arange(counts.size), counts)
        sums = np.empty((counts.size, self.config.dimension))
        for j, column in enumerate(displacements):
            # bincount adds in row order starting from 0.0, which is what
            # displacements.sum(axis=0) does on the rows of one path
            sums[:, j] = np.bincount(path_of_row, weights=column, minlength=counts.size)
        return self.config.x0 + sums

    def paths(
        self, start: int, stop: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(switch_times, directions (m+1, n), displacements (m+1, n)) of each
        path in [start, stop), in order; the arrays are the caller's own."""
        for _, counts, times, draws in self.batches(start, stop):
            dirs, displacements = self.arrange(counts, times, draws)
            ends = np.cumsum(counts)
            for a, b in zip(ends - counts, ends):
                yield (
                    times[a : b - 1].copy(),
                    dirs[:, a:b].T.copy(),
                    displacements[:, a:b].T.copy(),
                )


def simulate_paths(
    config: EvolutionConfig, start: int = 0, stop: int | None = None
) -> Iterator[Trajectory]:
    """Simulate paths [start, stop) exactly, in order, with one set-up for all
    of them; path i is simulate_path(config, i). stop defaults to n_paths."""
    stop = config.n_paths if stop is None else stop
    for switch_times, dirs, displacements in _PathKernel(config).paths(start, stop):
        positions = np.vstack([config.x0[None, :], config.x0 + np.cumsum(displacements, axis=0)])
        yield Trajectory(config.horizon, switch_times, dirs, positions)


def simulate_path(config: EvolutionConfig, path_index: int) -> Trajectory:
    """Simulate one path exactly; deterministic in (config.seed, path_index)."""
    return next(simulate_paths(config, path_index, path_index + 1))


class ResourceExhausted(RuntimeError):
    """A block of paths ran out of memory; the message names the cause and
    the paths completed before it."""


def _endpoint_block(config: EvolutionConfig, start: int, stop: int) -> np.ndarray:
    kernel = _PathKernel(config)
    out = np.empty((stop - start, config.dimension))
    done = start
    try:
        for first, counts, times, draws in kernel.batches(start, stop):
            out[first - start : first - start + counts.size] = kernel.endpoints(counts, times, draws)
            done = first + counts.size
    except MemoryError as exc:
        raise ResourceExhausted(
            f"resource exhaustion ({exc}): completed paths [{start}, {done}) of [{start}, {stop})"
        ) from exc
    return out


def resolve_workers(workers: int | None) -> int:
    """Explicit argument wins; else the REVOLVE_THREADS env var; else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("REVOLVE_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warnings.warn(f"ignoring non-integer REVOLVE_THREADS={env!r}")
    return 1


class _PoolUnavailable(Exception):
    """The process pool cannot run this config; the message names the cause."""


_POOL_START_ERRORS = (OSError, NotImplementedError, ImportError)


def _pool_blocks(
    config: EvolutionConfig, spans: list[tuple[int, int]], workers: int
) -> Iterator[np.ndarray]:
    """Yield the endpoint blocks of the spans, in order, from a process pool.

    Raises _PoolUnavailable, before the first block, when the config cannot
    be pickled or the pool cannot start. An error raised by the path code
    propagates as it is.
    """
    try:
        pickle.dumps(config)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise _PoolUnavailable(f"the config cannot be pickled: {exc!r}") from exc
    try:
        pool = ProcessPoolExecutor(max_workers=workers)
    except _POOL_START_ERRORS as exc:
        raise _PoolUnavailable(f"the process pool cannot start: {exc!r}") from exc
    try:
        try:  # map submits every block at once, and submit starts the workers
            blocks = pool.map(
                _endpoint_block,
                [config] * len(spans),
                [a for a, _ in spans],
                [b for _, b in spans],
            )
        except _POOL_START_ERRORS as exc:
            raise _PoolUnavailable(f"the process pool cannot start: {exc!r}") from exc
        yield from blocks
    finally:
        pool.shutdown(cancel_futures=True)


def simulate_ensemble(config: EvolutionConfig, workers: int | None = None) -> EndpointEnsemble:
    """Endpoints of n_paths independent paths.

    The result is bit-identical for any worker count: each path is computed
    from its own (seed, path_index) stream and written at its own row.
    """
    if config.profile.atoms and isinstance(config.switching, UniformSphere):
        if config.profile.has_continuous:
            warnings.warn(
                "mixed profile under uniform switching: the sampled directions "
                "miss the atoms almost surely, so the simulation leaves out the "
                "atom terms that the limit coefficients include"
            )
        else:
            warnings.warn(
                "purely atomic profile under uniform switching: the sampled "
                "directions miss the atoms almost surely, so the particle never "
                "moves; use discrete switching over the atom angles instead"
            )
    workers = resolve_workers(workers)
    points = np.empty((config.n_paths, config.dimension))
    if workers == 1 or config.n_paths < 4 * workers:
        points[:] = _endpoint_block(config, 0, config.n_paths)
    else:
        n_chunks = min(config.n_paths, 4 * workers)
        edges = np.linspace(0, config.n_paths, n_chunks + 1, dtype=int)
        spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        try:
            for (a, b), block in zip(spans, _pool_blocks(config, spans, workers)):
                points[a:b] = block
        except _PoolUnavailable as exc:
            warnings.warn(f"parallel execution unavailable ({exc}); running serially")
            points[:] = _endpoint_block(config, 0, config.n_paths)
    return EndpointEnsemble(
        dimension=config.dimension,
        t=config.horizon,
        points=points,
        config_fingerprint=config_fingerprint(config),
    )

