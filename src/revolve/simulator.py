"""Event-driven Monte-Carlo simulation of random evolutions.

A path holds a direction for an exponential time with mean eps^2 (Poisson
switching with intensity 1/eps^2), moves in a straight line at speed
v(theta) = c(theta)/eps + c1(theta), then resamples the direction afresh
from the switching law (uniform on the sphere, or a finite set with given
probabilities; self-transitions are allowed). Under uniform switching a
profile with atoms switches by the mixture of limits.UniformSphere: atom k
with probability w_k / N (UniformSphere.atom_masses), else a uniform
direction. Positions are integrated in closed form segment by segment, so
there is no time-discretization error.

Reproducibility: every path draws from counter-based Philox streams of
the seed, at places fixed by its index, so path i is a pure function of the
configuration and its index. Ensembles are therefore bit-identical for any
number of workers, and any single path can be replayed in isolation.

Stream layout 4 (STREAM_LAYOUT, recorded in manifest.json) says which draws
a path makes, in order. Both switching laws run one clock:
  - Segment k = 0, 1, ... draws w uniforms u_wk, ..., u_wk+w-1. w is 2
    when a segment picks, under a finite law or under uniform switching
    with atoms, and 1 otherwise. Segment k waits -eps^2 * log1p(-u_wk)
    (numpy's log1p). Its switch time is the running sum of the waits, and
    the path ends at the first segment whose switch time reaches the
    horizon. When w = 2, u_wk+1 picks index cdf.searchsorted(u_wk+1,
    side="right"), the number of cdf entries at or below it: under a
    finite law a direction, by the law's cumulative probabilities; under
    uniform switching an atom, by the cumulative atom masses, or, at or
    above their sum q, the sphere. Every segment draws its uniforms; with
    a fixed initial direction, segment 0's pick is drawn and not used.
  - The uniforms come in chunks of C = _chunk(T/eps^2, w) segments, so
    that a chunk's w C uniforms are w C/4 whole Philox blocks; C is part of
    the layout. The paths share the key words [0, seed], the key of
    Generator(Philox(key=seed << 64)). Path i's chunk 0 is the first w C
    uniforms of Generator(Philox(key=seed << 64, counter=i w C/4)), the
    counter spanning words 0-1 as one 128-bit integer: the chunks 0 of
    paths 0, 1, ... lie one after another in one stream. A path that needs
    more draws its chunk j = 1, 2, ... from the same words 0-1 with j in
    word 2, so it never runs on into path i+1's range. Word 3 is 0.
    EvolutionConfig refuses an n_paths whose counters do not fit in words
    0-1.
  - Under uniform switching path i draws n standard normals per drawn
    segment (all but a fixed initial direction's) from key words
    [i, seed] at counter words [0, 0, 2^64 - 1, 0], the stream of
    Generator(Philox(key=(seed << 64) + i, counter=(2**64 - 1) << 128)).
    No chunk reaches word 2 = 2^64 - 1, so no two streams overlap. The
    normals keep a stream per path because numpy's ziggurat takes a
    variable number of words per normal, so a path's normals cannot sit at
    counters fixed in advance.

Per-block set-up: a block of paths shares one Philox generator, set afresh
for each batch's chunks and for each path's normals, the padded buffers its
batches reuse, and everything that does not change from path to path. A
finite switching law becomes a table of directions and speeds, evaluated
once on its grid by profiles.grid_speeds, with the initial direction as one
extra column; a path draws indices into it. Every speed, in a table or on a
batch's rows, comes from the one evaluator VelocityProfile.values_on on
unit vectors. Under uniform switching it runs on each batch's directions:
the drawn ones, the atoms' own where a row picks an atom, and a fixed
initial direction in the first row of each path.

Batched arithmetic: the chunks 0 of a batch's paths are one stretch of the
seed's stream, and one Generator.random call draws them into a padded
(paths, w C) buffer, a path's chunk per row. The waits, the running sums
row by row, the switch counts and a mask that cuts the padded rows into one
row per segment, path after path, run once per batch. A path whose chunk 0
ends before the horizon is replayed alone and draws its chunks j >= 1:
about one path in 35000 at T/eps^2 = 25 and one in 1300 at T/eps^2 = 2500,
at most about one in 700 for any eps. Under uniform switching a loop over
the batch's paths then re-keys the generator and draws each path's normals
straight into the batch's rows, once the counts are final.
A batch holds about _BATCH_ROWS segments, so transient memory does not
grow with the number of paths.
Each batch is handled at once on column-major arrays: one (n, rows) array
per quantity, one column per segment, path after path. The results keep
the bits of the per-path arithmetic because every operation is
either elementwise or sums in the same order:
  - a direction's norm adds the squared coordinates in order, starting
    from the first;
  - an endpoint is x0 plus a sequential sum of the path's displacements in
    row order, starting from 0.0, as displacements.sum(axis=0) does on one
    path's rows. np.bincount adds in exactly that order; a pairwise sum
    (np.add.reduceat, or a sum along a contiguous axis) would change bits;
  - a position is x0 plus the running sum of the path's displacements in
    row order. np.cumsum adds strictly in sequence, so on a row per path,
    zero-padded after its segments, it gives the bits that
    x0 + np.cumsum(displacements, axis=0) gives on one path's rows.
The waits take the bits of numpy's log1p. Numpy may run it through SIMD
code that rounds differently on another CPU, as it may its sin and cos in
directions_from_angles, so endpoint bytes are reproducible on one platform,
not across platforms.

Imports: importing this module loads numpy and the deterministic layers
only. numpy.random (_PathStreams), hashlib (config_fingerprint) and the
process pool (_pool_blocks) are imported where they are used; load_runtime
imports them at once, called by the CLI before it reads a simulating
subcommand's config and by _pool_blocks before its workers fork.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .limits import DiscreteSwitching, SwitchingLaw, UniformSphere
from .profiles import FieldError, VelocityProfile, grid_speeds
from .sphere import check_dimension, directions_from_angles
# unused here, importable for tools that look it up (tests/test_bench_lookups.py)
from .sphere import angles_from_directions

__all__ = [
    "STREAM_LAYOUT",
    "EvolutionConfig",
    "ResourceExhausted",
    "Trajectory",
    "EndpointEnsemble",
    "simulate_path",
    "simulate_paths",
    "trajectory_rows",
    "simulate_ensemble",
    "config_fingerprint",
    "resolve_workers",
    "load_runtime",
]

# The stream layout of the module docstring: which draws a path makes, in order.
STREAM_LAYOUT = 4
_MAX_SEED = 2**64
# Counter words 0-1 of a Philox stream, where a path's chunks start.
_COUNTER_SPAN = 2**128
# Counter word 2 of a uniform-law path's normals, above every chunk's.
_NORMALS_WORD = 2**64 - 1
# The most float64 values one numpy array can hold: its size in bytes is an intp.
_MAX_FLOAT64S = np.iinfo(np.intp).max // 8


def _width(law: SwitchingLaw, profile: VelocityProfile) -> int:
    """Uniforms per segment: 2 when a segment picks, by a finite law or
    among the atoms of the uniform law's mixture, else 1."""
    return 2 if isinstance(law, DiscreteSwitching) or profile.atoms else 1


def _chunk(expected: float, width: int) -> int:
    """Segments in a chunk of a path's draws, `width` uniforms each, when it
    expects `expected` switches: part of the stream layout. A chunk is a
    whole number of Philox blocks of four uniforms."""
    chunk = int(expected + 3.0 * math.sqrt(expected) + 8.0)
    return chunk + -chunk % (4 // width)


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
        width = _width(self.switching, self.profile)
        block = width * _chunk(self.horizon / mean_wait, width)  # uniforms per chunk
        if block > _MAX_FLOAT64S:
            raise FieldError(
                f"epsilon {self.epsilon} is too small for horizon {self.horizon}: a path's "
                f"chunk of {block:.3g} uniforms is more float64 values than numpy can index",
                "epsilon",
            )
        if not self.n_paths >= 1:
            raise FieldError(f"n_paths must be >= 1, got {self.n_paths}", "n_paths")
        # path i's chunks start at Philox counter i * block / 4: four uniforms a block
        if self.n_paths * (block // 4) >= _COUNTER_SPAN:
            raise FieldError(
                f"n_paths {self.n_paths} is too large for epsilon {self.epsilon} and horizon "
                f"{self.horizon}: at {block // 4} Philox blocks per path, the paths' chunks "
                "pass the 2^128 counters of a stream's counter words 0-1",
                "n_paths",
            )
        if not (0 <= int(self.seed) < _MAX_SEED):
            raise FieldError(f"seed must be an unsigned 64-bit integer, got {self.seed}", "seed")
        if self.x0.shape != (self.dimension,):
            raise FieldError(f"x0 must have shape ({self.dimension},), got {self.x0.shape}", "x0")
        if not np.all(np.isfinite(self.x0)):
            raise FieldError(f"x0 must be finite, got {self.x0.tolist()}", "x0")
        if self.profile.dimension != self.dimension:
            raise FieldError(f"dimension {self.profile.dimension} != {self.dimension}", "profile")
        finite = isinstance(self.switching, DiscreteSwitching)
        if finite and self.switching.angles.shape[1] != self.dimension - 1:
            raise FieldError("switching angles do not match the dimension", "switching.angles")
        if self.profile.atoms:
            try:
                if finite:  # each atom must lie on one of the law's directions
                    grid_speeds(self.profile, self.switching.grid())
                else:  # the mixture law needs masses that sum to at most 1
                    self.switching.atom_masses(self.dimension, self.profile.atoms)
            except FieldError as exc:
                exc.field = "profile" if exc.field is None else f"profile.{exc.field}"
                raise
        if self.initial_direction is not None:
            init = np.atleast_1d(np.asarray(self.initial_direction, dtype=float))
            if init.shape != (self.dimension - 1,):
                raise FieldError("initial_direction must have n-1 angles", "initial_direction")
            if not np.all(np.isfinite(init)):
                raise FieldError(f"initial_direction must be finite, got {init.tolist()}",
                                 "initial_direction")
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
    import hashlib
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
    """The Philox streams of one seed from one generator, set afresh where a
    draw starts.

    seek(counter, chunk) sets key words [0, seed], counter words
    [counter mod 2^64, counter >> 64, chunk, 0] and an empty buffer: the
    state of a fresh Generator(Philox(key=seed << 64, counter=...)), where
    the paths' chunks start. rekey(i) sets key words [i, seed], counter
    words [0, 0, 2^64 - 1, 0] and an empty buffer: the state of a fresh
    Generator(Philox(key=(seed << 64) + i, counter=(2**64 - 1) << 128)),
    where a uniform-law path's normals start. The draws are those of the
    fresh generators. Building a fresh Philox would first seed a
    SeedSequence from OS entropy that the key then overrides; setting the
    state skips that. The fresh state holds its words as Python ints, which
    the Philox.state setter copies in half the time it takes to read numpy
    arrays.
    """

    def __init__(self, seed: int):
        from numpy.random import Generator, Philox
        self._bit_generator = Philox(key=int(seed) << 64)
        self.generator = Generator(self._bit_generator)
        fresh = self._bit_generator.state
        fresh["state"] = {name: [int(w) for w in words] for name, words in fresh["state"].items()}
        fresh["buffer"] = [int(w) for w in fresh["buffer"]]
        self._fresh_state = fresh
        self._key, self._counter = fresh["state"]["key"], fresh["state"]["counter"]

    def rekey(self, path_index: int) -> np.random.Generator:
        return self._set(path_index, 0, _NORMALS_WORD)

    def seek(self, counter: int, chunk: int = 0) -> np.random.Generator:
        return self._set(0, counter, chunk)

    def _set(self, key: int, counter: int, chunk: int) -> np.random.Generator:
        self._key[0] = key
        self._counter[:3] = counter & (2**64 - 1), counter >> 64, chunk
        self._bit_generator.state = self._fresh_state
        return self.generator


def _waits(uniforms: np.ndarray, mean: float) -> np.ndarray:
    """-mean * log1p(-u), computed alike on a path's row and a batch's rows."""
    waits = np.negative(uniforms)
    np.log1p(waits, out=waits)
    waits *= -mean
    return waits


# Segments per batch, on average: a batch takes _BATCH_ROWS / (T/eps^2 + 1)
# paths. 64 KiB per (rows,) float64 array, n * 64 KiB per (n, rows) one;
# a padded buffer holds a chunk per path. Measured at eps 0.02 (n = 3, 4000
# paths, 2-CPU Xeon, glibc malloc): 2^13 rows holds three paths per batch and
# took about 10% less CPU time than 2^12, which holds one; at 2^14 every
# batch mapped and unmapped its arrays afresh, about 190k page faults and
# 0.3 s of system time. These runs had scipy loaded, whose import raised the
# allocator's thresholds as _keep_batch_memory now does in every process.
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
    """The rows of g (k, n) over their norms, as columns of an (n, k) array.
    Each norm adds the squared coordinates in order, starting from the
    first, at every n."""
    k, n = g.shape
    norms = g[:, 0] * g[:, 0]
    for j in range(1, n):
        norms += g[:, j] * g[:, j]
    np.sqrt(norms, out=norms)
    return np.divide(g.T, norms, out=np.empty((n, k)))


# Masses a pick counts at most; a larger cdf is searched. Measured on a
# batch of 8240 picks (2-CPU Xeon, numpy 2.4): counting took 11 us at 3
# masses and 180 us at 64, searchsorted 65 and 360 us; they met at about 160.
_COUNTED_MASSES = 128


def _pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """cdf.searchsorted(u, side="right") for a nondecreasing cdf: the number
    of its entries at or below each u. Up to _COUNTED_MASSES entries the
    comparisons u >= cdf[k] are summed, which is faster on unsorted u."""
    if cdf.size > _COUNTED_MASSES:
        return cdf.searchsorted(u, side="right")
    counts = np.zeros(u.size, np.uint8)  # _COUNTED_MASSES < 256
    for mass in cdf.tolist():
        counts += (u >= mass).view(np.uint8)
    return counts.astype(np.intp)


# A batch's draws, one row per segment: (picks, normals), as _PathKernel.batches
# yields them.
_Draws = tuple[np.ndarray | None, np.ndarray | None]


class _PathKernel:
    """The per-config work of a block of paths, done once, and the path
    arithmetic, done once per batch of paths.

    Each path draws from its own places in the seed's streams: the draws
    it uses, and their order, are those of the stream layout (a path may
    draw more than it uses after them). Everything after the draws runs on
    a whole batch at once, on column-major arrays (n, rows) with one column
    per segment, with the bits of the per-path arithmetic.
    """

    def __init__(self, config: EvolutionConfig):
        self.config = config
        self._streams = _PathStreams(config.seed)
        eps, init = config.epsilon, config.initial_direction
        self._mean = eps * eps
        expected = config.horizon / self._mean
        self._batch_paths = max(1, int(_BATCH_ROWS / (expected + 1.0)))
        # 1 when the first segment of each path has the fixed initial direction
        self._fixed_rows = int(init is not None)
        _keep_batch_memory()
        law, profile = config.switching, config.profile
        # Uniforms per segment and segments per chunk.
        self._width = _width(law, profile)
        self._block = _chunk(expected, self._width)
        # The cumulative masses a pick searches: the law's under a finite law
        # (_cdf), the atoms' under uniform switching with atoms (_atom_cdf).
        self._cdf = self._atom_cdf = None
        if isinstance(law, DiscreteSwitching):
            # The table's columns: the law's directions, then the initial one.
            grid = law.grid()  # its rows of positive probability
            c, c1 = grid_speeds(profile, grid)
            directions, self._first_index = grid.directions, grid.size
            if init is not None:
                first = directions_from_angles(init)[None, :]
                c, c1 = (np.concatenate(pair) for pair in zip((c, c1), profile.values_on(first)))
                directions = np.vstack([directions, first])
            self._table, self._table_speeds = directions.T.copy(), c / eps + c1
            # Generator.choice(K, size, p=p) draws exactly this way.
            self._cdf = grid.weights.cumsum()
            self._cdf /= self._cdf[-1]
        else:
            if init is not None:
                self._first = directions_from_angles(init)
            if profile.atoms:
                self._atom_cdf = law.atom_masses(config.dimension, profile.atoms).cumsum()
                self._atom_table = np.stack([atom.direction for atom in profile.atoms], axis=1)

    def batches(
        self, start: int, stop: int
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray, _Draws]]:
        """Draw paths [start, stop) in batches of _batch_paths paths, about
        _BATCH_ROWS segments.

        Yields (first path, rows per path, times, (picks, normals)) with one
        row per segment, path after path. times holds the segment end
        times: the switch times, then the horizon. picks holds (rows,) pick
        uniforms when w = 2, else None. normals holds (rows, n) standard
        normals under uniform switching, None under a finite law. With a
        fixed initial direction, the first row of each path is not used.
        """
        horizon, block, width, mean = self.config.horizon, self._block, self._width, self._mean
        per_batch, fixed = self._batch_paths, self._fixed_rows
        uniforms = np.empty((per_batch, width * block))  # row j: path j's chunk 0
        # A spare column, always the horizon: a short path's first epoch at it.
        epochs = np.empty((per_batch, block + 1))
        epochs[:, block] = horizon
        switches = np.empty(per_batch, dtype=np.intp)
        # Path j is short when its chunk 0 ends before the horizon, so that it
        # draws more chunks before it ends. Short paths are replayed alone
        # (_replay).
        shorts = np.empty(per_batch, dtype=bool)
        paths, columns = np.arange(per_batch), np.arange(block + 1)
        seek, blocks = self._streams.seek, width * block // 4  # Philox blocks per chunk
        for first in range(start, stop, per_batch):
            size = min(per_batch, stop - first)
            t, m, short = epochs[:size], switches[:size], shorts[:size]
            seek(first * blocks).random(out=uniforms[:size].reshape(-1))
            segments = uniforms[:size].reshape(size, block, width)
            np.cumsum(_waits(segments[:, :, 0], mean), axis=1, out=t[:, :block])
            # the first epoch at the horizon: epochs never decrease, so this
            # counts those below it, and m == block marks a short path
            np.argmax(t >= horizon, axis=1, out=m)
            np.equal(m, block, out=short)
            t[paths[:size], m] = horizon  # the end of each path's last segment
            counts = np.where(short, 0, m + 1)
            taken = columns < counts[:, None]
            times = t[taken]
            picks = segments[:, :, 1][taken[:, :block]] if width == 2 else None
            replay = np.flatnonzero(short)
            if replay.size:
                at = np.cumsum(counts)[replay]  # where each replayed path's rows go
                replayed = [self._replay(first + j) for j in replay]
                counts[replay] = [path_times.size for path_times, _ in replayed]
                at = np.repeat(at, counts[replay])
                times = np.insert(times, at, np.concatenate([r[0] for r in replayed]))
                if picks is not None:
                    picks = np.insert(picks, at, np.concatenate([r[1] for r in replayed]))
            normals = None
            if self._cdf is None:  # each path's normals, drawn into the batch's rows
                normals = np.empty((times.size, self.config.dimension))
                rekey, end = self._streams.rekey, 0
                for j, rows in enumerate(counts.tolist()):
                    normals[end : end + fixed] = 1.0  # not drawn: nonzero, so its norm is finite
                    rekey(first + j).standard_normal(out=normals[end + fixed : end + rows])
                    end += rows
            yield first, counts, times, (picks, normals)

    def _replay(self, path_index: int) -> tuple[np.ndarray, np.ndarray | None]:
        """(times, picks) of one short path, drawn alone: its chunks 0, 1,
        ... until a switch time reaches the horizon."""
        width, size, horizon = self._width, self._width * self._block, self.config.horizon
        counter = int(path_index) * (size // 4)
        uniforms, j = self._streams.seek(counter).random(size), 1
        while True:
            # the horizon appended, as in batches' spare column: m is the first epoch at it
            epochs = np.append(np.cumsum(_waits(uniforms[0::width], self._mean)), horizon)
            m = int(np.argmax(epochs >= horizon))
            if m < epochs.size - 1:
                break
            uniforms = np.concatenate([uniforms, self._streams.seek(counter, j).random(size)])
            j += 1
        epochs[m] = horizon
        return epochs[: m + 1], uniforms[1 : 2 * m + 2 : 2] if width == 2 else None

    def arrange(
        self, counts: np.ndarray, times: np.ndarray, draws: _Draws
    ) -> tuple[np.ndarray, np.ndarray]:
        """(directions, displacements) of one batch, both (n, rows), from its
        draws (picks, normals)."""
        config, (picks, normals) = self.config, draws
        starts = np.cumsum(counts) - counts
        durations = np.empty_like(times)
        np.subtract(times[1:], times[:-1], out=durations[1:])
        durations[starts] = times[starts]  # the first segment starts at 0.0
        if self._cdf is not None:
            idx = _pick(self._cdf, picks)
            if self._fixed_rows:
                idx[starts] = self._first_index
            # take, not fancy indexing: the same entries, several times faster
            # along the second axis
            dirs, speeds = self._table.take(idx, axis=1), self._table_speeds.take(idx)
        else:
            dirs = _unit_columns(normals)
            if self._atom_cdf is not None:
                atom = _pick(self._atom_cdf, picks)
                hit = atom < self._atom_cdf.size
                dirs[:, hit] = self._atom_table[:, atom[hit]]
            if self._fixed_rows:
                dirs[:, starts] = self._first[:, None]
            c, c1 = config.profile.values_on(dirs.T)
            speeds = c / config.epsilon + c1
        return dirs, dirs * (speeds * durations)

    def endpoints(
        self, counts: np.ndarray, times: np.ndarray, draws: _Draws
    ) -> np.ndarray:
        """Endpoints of the paths of one batch, (paths, n)."""
        _, displacements = self.arrange(counts, times, draws)
        path_of_row = np.repeat(np.arange(counts.size), counts)
        sums = np.empty((counts.size, self.config.dimension))
        for j, column in enumerate(displacements):
            # bincount adds in row order starting from 0.0, which is what
            # displacements.sum(axis=0) does on the rows of one path
            sums[:, j] = np.bincount(path_of_row, weights=column, minlength=counts.size)
        return self.config.x0 + sums

    def trajectories(self, start: int, stop: int) -> Iterator[tuple]:
        """The paths [start, stop), a batch at a time: (first path, rows per
        path, times, directions (n, rows), positions (rows, n)), with the rows
        of batches; row k's position is the path's at times[k]."""
        x0 = self.config.x0
        for first, counts, times, draws in self.batches(start, stop):
            dirs, displacements = self.arrange(counts, times, draws)
            taken = np.arange(counts.max()) < counts[:, None]
            steps, sums = np.zeros(taken.shape), np.empty(taken.shape)
            positions = np.empty((times.size, x0.size))
            for j, column in enumerate(displacements):
                steps[taken] = column  # a row per path, zero-padded after its segments
                np.cumsum(steps, axis=1, out=sums)
                positions[:, j] = sums[taken] + x0[j]
            yield first, counts, times, dirs, positions


def simulate_paths(
    config: EvolutionConfig, start: int = 0, stop: int | None = None
) -> Iterator[Trajectory]:
    """Simulate paths [start, stop) exactly, in order, with one set-up for all
    of them; path i is simulate_path(config, i). stop defaults to n_paths.
    Raises ValueError when a path of the range lies outside [0, n_paths).
    Each trajectory owns its arrays: no path keeps its batch's alive."""
    stop = config.n_paths if stop is None else stop
    if start < stop and not (0 <= start and stop <= config.n_paths):
        index = start if start < 0 else stop - 1
        raise ValueError(f"path index {index} is outside [0, {config.n_paths})")
    for _, counts, times, dirs, positions in _PathKernel(config).trajectories(start, stop):
        ends = np.cumsum(counts).tolist()
        for a, b in zip([0, *ends], ends):
            yield Trajectory(config.horizon, times[a : b - 1].copy(), dirs[:, a:b].T.copy(),
                             np.concatenate([config.x0[None, :], positions[a:b]]))


def trajectory_rows(config: EvolutionConfig) -> Iterator[np.ndarray]:
    """Rows (path_index, t, x1..xn) of every path, a batch of paths at a time:
    simulate_paths' times and positions, a row at t = 0 for x0 first."""
    for first, counts, times, _, positions in _PathKernel(config).trajectories(0, config.n_paths):
        starts = np.cumsum(counts) - counts
        index = np.repeat(np.arange(first, first + counts.size), counts + 1)
        yield np.column_stack([index, np.insert(times, starts, 0.0),
                               np.insert(positions, starts, config.x0, axis=0)])


def simulate_path(config: EvolutionConfig, path_index: int) -> Trajectory:
    """Simulate one path exactly; deterministic in (config.seed, path_index)."""
    return next(simulate_paths(config, path_index, path_index + 1))


class ResourceExhausted(RuntimeError):
    """A run ran out of memory; the message names the cause and the paths
    completed before it, or the grid it worked on."""


class _BlockExhausted(Exception):
    """A block of paths ran out of memory: args (cause, done), where paths
    below the global index done completed."""


BlockText = Callable[[int, np.ndarray], str]


def _endpoint_block(
    config: EvolutionConfig, start: int, stop: int, text: BlockText | None = None
) -> tuple[np.ndarray, str | None]:
    """Endpoints of paths [start, stop), and text(start, endpoints) when a
    text function is given (else None)."""
    kernel = _PathKernel(config)
    out = np.empty((stop - start, config.dimension))
    done = start
    try:
        for first, counts, times, draws in kernel.batches(start, stop):
            out[first - start : first - start + counts.size] = kernel.endpoints(counts, times, draws)
            done = first + counts.size
        return out, None if text is None else text(start, out)
    except MemoryError as exc:
        raise _BlockExhausted(str(exc), done) from exc


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


def load_runtime(workers: int | None = None) -> None:
    """Import the simulation runtime (module docstring): numpy.random and
    hashlib, and the process pool when resolve_workers(workers) is above 1.
    resolve_workers' warning is left to the call that runs the paths."""
    import hashlib
    import numpy.random
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pooled = resolve_workers(workers) > 1
    if pooled:
        import concurrent.futures.process


class _PoolUnavailable(Exception):
    """The process pool cannot run this config; the message names the cause."""


_POOL_START_ERRORS = (OSError, NotImplementedError, ImportError)


def _pool_blocks(
    config: EvolutionConfig, spans: list[tuple[int, int]], workers: int, text: BlockText | None
) -> Iterator[tuple[np.ndarray, str | None]]:
    """Yield the _endpoint_block results of the spans, in order, from a
    process pool.

    Raises _PoolUnavailable, before the first block, when the config or the
    text function cannot be pickled or the pool cannot start. An error
    raised by the path code propagates as it is.
    """
    try:
        pickle.dumps((config, text))
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise _PoolUnavailable(f"the block's arguments cannot be pickled: {exc!r}") from exc
    load_runtime(workers)  # before the fork, so no worker imports it again
    from concurrent.futures import ProcessPoolExecutor
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
                [text] * len(spans),
            )
        except _POOL_START_ERRORS as exc:
            raise _PoolUnavailable(f"the process pool cannot start: {exc!r}") from exc
        yield from blocks
    finally:
        pool.shutdown(cancel_futures=True)


_BLOCK_PATHS = 1 << 16  # paths per block at most, so a block's text stays a few MB


def simulate_ensemble(
    config: EvolutionConfig,
    workers: int | None = None,
    rows: tuple[BlockText, Callable[[str], object]] | None = None,
) -> EndpointEnsemble:
    """Endpoints of n_paths independent paths.

    The result is bit-identical for any worker count: each path is computed
    from its own place in the seed's streams and written at its own row.

    Paths run in blocks of consecutive indices, at most _BLOCK_PATHS each:
    four or more per worker in a process pool, or one after another in this
    process when there is one worker, fewer than four paths per worker, or
    the pool is unavailable (_PoolUnavailable is raised before the first
    block, so no block is taken twice).

    rows, a pair (text, write), streams the endpoints out as text, block by
    block. The function text(first_index, points) runs where a block is
    simulated, in a pool worker or in this process, on the block's
    endpoints and the global index of its first path; a worker gets it by
    pickling, so it is a module-level function. write(str) is called in
    this process with each block's text, in path order, as soon as the
    block arrives; no block's text is kept after it. When text formats row
    by row, what write receives in all is the same for any worker count.

    A block that runs out of memory raises ResourceExhausted, which names
    the paths [0, done) completed before it: blocks are taken in order, so
    every block before it has completed.
    """
    workers = resolve_workers(workers)
    text, write = rows if rows is not None else (None, None)
    pooled = workers > 1 and config.n_paths >= 4 * workers
    n_blocks = max(4 * workers if pooled else 1, -(-config.n_paths // _BLOCK_PATHS))
    edges = np.linspace(0, config.n_paths, n_blocks + 1, dtype=int)
    spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]
    points = np.empty((config.n_paths, config.dimension))

    def take(blocks: Iterable[tuple[np.ndarray, str | None]]) -> None:
        try:
            for (a, b), (block, lines) in zip(spans, blocks):
                points[a:b] = block
                if write is not None:
                    write(lines)
        except _BlockExhausted as exc:  # every block before it has completed
            cause, done = exc.args
            raise ResourceExhausted(f"resource exhaustion ({cause}): completed paths "
                                    f"[0, {done}) of [0, {config.n_paths})") from exc

    serial = (_endpoint_block(config, a, b, text) for a, b in spans)
    if not pooled:
        take(serial)
    else:
        try:
            take(_pool_blocks(config, spans, workers, text))
        except _PoolUnavailable as exc:
            warnings.warn(f"parallel execution unavailable ({exc}); running serially")
            take(serial)
    return EndpointEnsemble(
        dimension=config.dimension,
        t=config.horizon,
        points=points,
        config_fingerprint=config_fingerprint(config),
    )
