"""Drift and diffusion coefficients of the limiting process.

When the fast speed satisfies the balance condition <c * s> = 0, the
rescaled evolution converges to a diffusion whose generator is

    (d, grad) + sum_ij A_ij d^2/dx_i dx_j,

with

    d_i  = <c1(theta) * s_i(theta)>          (mean slow velocity),
    A_ij = <c(theta)^2 * s_i(theta) * s_j(theta)>,

angle brackets denoting the average over the switching law's stationary
measure, on its grid. The two switching laws live here, each with its grid:
UniformSphere's is the sphere grid, where profile atoms add
weight * f(theta) / N terms; DiscreteSwitching's is its directions weighted
by their probabilities, built once when the law validates itself. For
c = const under uniform switching A = (c^2/n) * I and the limit is a Wiener
process.

Sign convention: d is the physical drift E[c1 * s], the direction the
simulated particle actually trends in. The same functional with opposite
sign (arising when the advection operator is written as -(s, grad)) is kept
on the result as drift_paper_sign for traceability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .profiles import (
    Atom,
    BalanceReport,
    FieldError,
    VelocityProfile,
    atom_terms,
    balance_report,
    first_moment,
    grid_speeds,
)
from .sphere import FiniteLawGrid, QuadratureGrid, build_grid

__all__ = [
    "BalanceError",
    "DiffusionLimit",
    "GaussianSpec",
    "UniformSphere",
    "DiscreteSwitching",
    "SwitchingLaw",
    "limit_coefficients",
    "discrete_limit_coefficients",
    "gaussian_law_at",
]


class BalanceError(RuntimeError):
    """Balance condition violated: no diffusion limit exists."""

    def __init__(self, report: BalanceReport):
        self.report = report
        super().__init__(
            "balance condition violated: residual "
            f"{np.array2string(report.residual_vector, precision=6)} "
            f"(norm {report.residual_norm:.3e} > tolerance {report.tolerance:.1e}); "
            "the 1/eps transport term does not average out"
        )


@dataclass(frozen=True)
class DiffusionLimit:
    """Limit drift vector and diffusion matrix of a random evolution."""

    dimension: int
    drift: np.ndarray          # (n,), physical sign E[c1 * s]
    diffusion: np.ndarray      # (n, n), symmetric PSD

    def __post_init__(self) -> None:
        drift = np.asarray(self.drift, dtype=float)
        a = np.asarray(self.diffusion, dtype=float)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", a)
        if drift.shape != (self.dimension,) or a.shape != (self.dimension, self.dimension):
            raise ValueError("coefficient shapes do not match the dimension")
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise ValueError("diffusion matrix must be symmetric within 1e-12")
        eigenvalues = np.linalg.eigvalsh(a)
        if eigenvalues.min() < -1e-10:
            raise ValueError(
                f"diffusion matrix must be positive semidefinite, min eig {eigenvalues.min():.3e}"
            )

    @property
    def drift_paper_sign(self) -> np.ndarray:
        """The opposite-sign functional -E[c1 * s]."""
        return -self.drift


@dataclass(frozen=True)
class GaussianSpec:
    """Mean vector and covariance matrix of a Gaussian law."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.covariance, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if np.max(np.abs(cov - cov.T)) > 1e-10:
            raise ValueError("covariance must be symmetric within 1e-10")
        if np.linalg.eigvalsh(cov).min() < -1e-10:
            raise ValueError("covariance must be positive semidefinite within 1e-10")


@dataclass(frozen=True)
class UniformSphere:
    """Switching law: fresh uniform direction on S_{n-1} at every event."""

    def grid(self, dimension: int, resolution: int) -> QuadratureGrid:
        """The sphere grid build_grid(dimension, resolution)."""
        return build_grid(dimension, resolution)

    def describe(self) -> dict:
        return {"kind": "uniform_sphere"}


@dataclass(frozen=True)
class DiscreteSwitching:
    """Switching law over a finite direction set with fixed probabilities.

    Raises FieldError unless the probabilities are finite, nonnegative, one
    per angle row, and sum to 1 within 1e-12. Its grid holds the rows of
    positive probability, weighted by it: a row of probability 0 carries no
    stationary mass and matters only as an initial direction.
    """

    angles: np.ndarray         # (K, n-1)
    probabilities: np.ndarray  # (K,), sums to 1
    _grid: FiniteLawGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        try:
            angles = np.atleast_2d(np.asarray(self.angles, dtype=float))
        except ValueError as exc:
            raise FieldError("angle rows must all have the same length", "angles") from exc
        p = np.asarray(self.probabilities, dtype=float)
        # written so that NaN and infinite entries fail
        if not (np.all(p >= 0.0) and abs(float(p.sum()) - 1.0) <= 1e-12):
            raise FieldError(
                "probabilities must be finite, nonnegative and sum to 1 within 1e-12",
                "probabilities",
            )
        if p.shape != angles.shape[:1]:
            raise FieldError("need one probability per direction", "probabilities")
        if angles.shape[1] == 0:
            raise FieldError("angle rows need at least one angle", "angles")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "probabilities", p)
        keep = p > 0.0
        grid = FiniteLawGrid(
            dimension=angles.shape[1] + 1, nodes=angles[keep], weights=p[keep], raw_total=1.0
        )
        object.__setattr__(self, "_grid", grid)

    def grid(self, dimension: int | None = None, resolution: int | None = None) -> FiniteLawGrid:
        """The law's own grid, the same object on every call. Its dimension is
        that of the angle rows; the arguments, which the uniform law's grid
        needs, are unused."""
        return self._grid

    def describe(self) -> dict:
        return {
            "kind": "discrete",
            "angles": self.angles.tolist(),
            "probabilities": self.probabilities.tolist(),
        }


SwitchingLaw = Union[UniformSphere, DiscreteSwitching]


def limit_coefficients(profile: VelocityProfile, grid: QuadratureGrid) -> DiffusionLimit:
    """Compute (d, A) by quadrature over the grid, plus atomic terms on a
    sphere grid: the one formula for both switching laws.

    Raises BalanceError when the fast speed fails the balance condition (the
    1/eps term then survives and no diffusion limit exists).
    """
    speeds = grid_speeds(profile, grid)  # the one reading of the profile
    report = balance_report(first_moment(grid, speeds, 0))
    if not report.satisfied:
        raise BalanceError(report)

    s = grid.directions
    c, _, atoms = speeds
    # one (M,) factor, then a two-operand sum over nodes: numpy fixes its
    # order, whatever the number of BLAS threads
    a = np.einsum("mi,mj->ij", (grid.weights * (c * c))[:, None] * s, s)
    for factor, s_atom in atom_terms(grid.dimension, atoms, [atom.c_value**2 for atom in atoms]):
        a = a + factor * np.outer(s_atom, s_atom)
    a = 0.5 * (a + a.T)
    drift = first_moment(grid, speeds, 1)
    return DiffusionLimit(profile.dimension, drift, a)


def discrete_limit_coefficients(
    dimension: int,
    angles: np.ndarray,
    probabilities: np.ndarray,
    c_values: np.ndarray,
    c1_values: np.ndarray,
) -> DiffusionLimit:
    """d = sum_k p_k c1_k s_k and A = sum_k p_k c_k^2 s_k s_k^T: limit_coefficients
    on the grid of DiscreteSwitching(angles, probabilities) for speeds given
    at the angle rows, each row an atom at its chart direction s_k (rows
    whose directions lie within the atoms' tolerance of each other in
    VelocityProfile.values_on take the last row's speeds)."""
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    c, c1 = np.asarray(c_values, dtype=float), np.asarray(c1_values, dtype=float)
    if not (angles.shape[0] == np.size(probabilities) == c.size == c1.size):
        raise ValueError("angles, probabilities, c_values, c1_values must align")
    atoms = tuple(Atom(row, 1.0, ck, c1k) for row, ck, c1k in zip(angles, c, c1))
    profile = VelocityProfile(int(dimension), atoms=atoms, name="law")
    return limit_coefficients(profile, DiscreteSwitching(angles, probabilities).grid())


def gaussian_law_at(limit: DiffusionLimit, t: float, x0: np.ndarray | None = None) -> GaussianSpec:
    """Gaussian marginal of the limit process at time t started from x0.

    The generator (d, grad) + sum A_ij d^2_ij moves the mean at rate d and
    the covariance at rate 2*A, so mean = x0 + d*t and covariance = 2*A*t.
    """
    if t <= 0.0:
        raise ValueError(f"time must be positive, got t={t}")
    if x0 is None:
        x0 = np.zeros(limit.dimension)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (limit.dimension,):
        raise ValueError(f"x0 must have shape ({limit.dimension},), got {x0.shape}")
    return GaussianSpec(x0 + limit.drift * t, 2.0 * t * limit.diffusion)
