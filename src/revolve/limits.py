"""Drift and diffusion coefficients of the limiting process.

When the fast speed satisfies the balance condition <c * s> = 0, the
rescaled evolution converges to a diffusion whose generator is

    (d, grad) + sum_ij A_ij d^2/dx_i dx_j,

with

    d_i  = <c1(theta) * s_i(theta)>          (mean slow velocity),
    A_ij = <c(theta)^2 * s_i(theta) * s_j(theta)>,

angle brackets denoting the normalized sphere average; profile atoms add
weight * f(theta) / N terms. For c = const the matrix is (c^2/n) * I and the
limit is a scaled Wiener process.

Sign convention: d is the physical drift E[c1 * s], the direction the
simulated particle actually trends in. The same functional with opposite
sign (arising when the advection operator is written as -(s, grad)) is kept
on the result as drift_paper_sign for traceability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .profiles import (
    BALANCE_TOLERANCE,
    BalanceReport,
    FieldError,
    VelocityProfile,
    atom_terms,
    check_balance,
    check_nonsymmetry,
)
from .sphere import QuadratureGrid, directions_from_angles

__all__ = [
    "BalanceError",
    "DiffusionLimit",
    "GaussianSpec",
    "check_probabilities",
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
    drift_paper_sign: np.ndarray = None  # (n,), the opposite-sign functional

    def __post_init__(self) -> None:
        drift = np.asarray(self.drift, dtype=float)
        a = np.asarray(self.diffusion, dtype=float)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "diffusion", a)
        if self.drift_paper_sign is None:
            object.__setattr__(self, "drift_paper_sign", -drift)
        if drift.shape != (self.dimension,) or a.shape != (self.dimension, self.dimension):
            raise ValueError("coefficient shapes do not match the dimension")
        if np.max(np.abs(a - a.T)) > 1e-12:
            raise ValueError("diffusion matrix must be symmetric within 1e-12")
        eigenvalues = np.linalg.eigvalsh(a)
        if eigenvalues.min() < -1e-10:
            raise ValueError(
                f"diffusion matrix must be positive semidefinite, min eig {eigenvalues.min():.3e}"
            )


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


def check_probabilities(probabilities: np.ndarray) -> None:
    """Raise FieldError unless the values are a finite, nonnegative vector
    that sums to 1 within 1e-12."""
    p = np.asarray(probabilities, dtype=float)
    # written so that NaN and infinite entries fail
    if not (np.all(p >= 0.0) and abs(float(p.sum()) - 1.0) <= 1e-12):
        raise FieldError(
            "probabilities must be finite, nonnegative and sum to 1 within 1e-12",
            "probabilities",
        )


def limit_coefficients(profile: VelocityProfile, grid: QuadratureGrid) -> DiffusionLimit:
    """Compute (d, A) by quadrature over the grid plus atomic terms.

    Raises BalanceError when the fast speed fails the balance condition (the
    1/eps term then survives and no diffusion limit exists).
    """
    report = check_balance(profile, grid)
    if not report.satisfied:
        raise BalanceError(report)

    s = grid.directions
    c = profile.c_values(grid.nodes)
    a = np.einsum("m,m,mi,mj->ij", grid.weights, c * c, s, s)
    for factor, s_atom in atom_terms(profile, [atom.c_value**2 for atom in profile.atoms]):
        a = a + factor * np.outer(s_atom, s_atom)
    a = 0.5 * (a + a.T)
    drift = check_nonsymmetry(profile, grid).residual_vector
    return DiffusionLimit(profile.dimension, drift, a)


def discrete_limit_coefficients(
    dimension: int,
    angles: np.ndarray,
    probabilities: np.ndarray,
    c_values: np.ndarray,
    c1_values: np.ndarray,
) -> DiffusionLimit:
    """Count-normalized analog of limit_coefficients for a finite switching law.

    The switching chain resamples directions from the given finite set with
    the given probabilities, so sphere averages become probability-weighted
    sums: d = sum_k p_k c1_k s_k and A = sum_k p_k c_k^2 s_k s_k^T.
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    p = np.asarray(probabilities, dtype=float)
    c = np.asarray(c_values, dtype=float)
    c1 = np.asarray(c1_values, dtype=float)
    if not (angles.shape[0] == p.size == c.size == c1.size):
        raise ValueError("angles, probabilities, c_values, c1_values must align")
    check_probabilities(p)
    s = directions_from_angles(angles)

    residual = np.einsum("k,k,ki->i", p, c, s)
    norm = float(np.linalg.norm(residual))
    if norm > BALANCE_TOLERANCE:
        raise BalanceError(BalanceReport(residual, norm, False, BALANCE_TOLERANCE))

    a = np.einsum("k,k,ki,kj->ij", p, c * c, s, s)
    drift = np.einsum("k,k,ki->i", p, c1, s)
    a = 0.5 * (a + a.T)
    return DiffusionLimit(int(dimension), drift, a)


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
