"""Discretized generator algebra of the switching evolution.

The algebra needs only the switching law's stationary measure, which its
grid carries: a sphere grid under uniform switching, limits.finite_law_grid
under a finite law. On it the averaging projector, the switching generator
and the potential operator act on direction-dependent fields f(theta) as

    Pi f  = sum_m w_m f_m          (projects onto constants),
    Q f   = Pi f - f               (null-space: constants),
    R0 f  = Pi f - f               (inverts Q on mean-zero fields,
                                    annihilates constants),

satisfying Pi Pi = Pi, Q Pi = Pi Q = 0 and R0 Q = Q R0 = I - Pi exactly up
to roundoff. Q = Pi - I is minus the projection onto mean-zero fields, so
it is its own inverse there: R0 and Q share one formula, and apply_r0 is an
alias of apply_q kept under the paper's name.

The transport operator couples the direction to a smooth test function phi
on R^n. apply_s keeps the customary generator notation
S(theta) phi = -(s(theta), grad phi); everything in the perturbation solver
below instead uses the transport sign +(s, grad), the operator that actually
generates the simulated motion dx/dt = v * s(theta). This is the single
point where the two conventions meet: as a consequence all assembled limit
coefficients carry the physical drift E[c1 * s] and agree with the limits
module, while the opposite-sign functional stays available there as
drift_paper_sign.

The perturbation solver expands the generator

    L_eps = eps^-2 Q + eps^-1 c(theta) T(theta) + c1(theta) T(theta),
    T(theta) = (s(theta), grad),

on corrected test functions phi + eps*phi1 + eps^2*phi2 and solves the
resulting hierarchy exactly on the grid:

    phi1 = -R0 [c T phi]
    L0 phi = Pi [c T phi1] + Pi [c1 T phi]
    phi2 = -R0 [c T phi1 + c1 T phi]

so that L_eps (phi + eps phi1 + eps^2 phi2) - L0 phi
      = eps * (c T phi2 + c1 T phi1) + eps^2 * c1 T phi2

identically; the remainder is linear in eps up to the eps^2 tail, which
residual_scaling verifies empirically. The correctors are held as their
derivative coefficients at the nodes, so every operator application is an
exact contraction, not a finite difference. With s = grid.directions,

    a1 = c s - Pi[c s]                  (M, n):    phi1 = a1 . grad phi
    b1 = c1 s - Pi[c1 s]                (M, n)
    b2 = c s (x) a1 - Pi[c s (x) a1]    (M, n, n): phi2 = b1 . grad phi + b2 : hess phi

and L0 phi = drift . grad phi + diffusion : hess phi with drift = Pi[c1 s]
and diffusion the symmetric part of Pi[c s (x) a1]. The remainder terms
c T phi2, c1 T phi1 and c1 T phi2 would need (M, n, n, n) coefficients, but
they are only evaluated at the spatial point x, never averaged by Pi; so s
is contracted into the derivatives of phi at x first and no such array is
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .limits import BalanceError
from .profiles import ProfileError, VelocityProfile, check_balance, grid_speeds
from .sphere import AngleVector, QuadratureGrid, directions_from_angles, sin_power_integral
from .rates import RateFit, check_eps_sweep, fit_loglog

__all__ = [
    "ThetaField",
    "TestFunction",
    "PerturbationSolution",
    "SolvabilityError",
    "project_pi",
    "apply_q",
    "apply_r0",
    "potential_identity_error",
    "quadrature_residuals",
    "apply_s",
    "gaussian_bump",
    "gaussian_monomial",
    "linear_function",
    "finite_difference_check",
    "lab_limit_coefficients",
    "solve_perturbation",
    "assembled_generator_residual",
    "residual_scaling",
]


class SolvabilityError(BalanceError):
    """Perturbation hierarchy unsolvable: the balance condition fails."""


# ---------------------------------------------------------------------------
# scalar fields over the grid


@dataclass(frozen=True)
class ThetaField:
    """A scalar function of the direction, sampled at the grid nodes."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.size,):
            raise ValueError(
                f"field has {values.shape} values for a grid of size {self.grid.size}"
            )


def project_pi(f: ThetaField) -> float:
    """Average of the field over the grid's measure (the projector onto
    constants): the sphere average on a sphere grid, the expectation under
    the law on a finite-law grid. Profile atoms never alter the measure."""
    return f.grid.average(f.values)


def apply_q(f: ThetaField) -> ThetaField:
    """Switching generator: Pi f - f. Also the potential operator R0."""
    return ThetaField(f.grid, project_pi(f) - f.values)


# Potential operator: Pi f - f; inverts Q on mean-zero fields.
apply_r0 = apply_q


def potential_identity_error(f: ThetaField) -> float:
    """Sup-norm of R0(Q f) - (f - Pi f); zero up to roundoff for any field."""
    lhs = apply_r0(apply_q(f)).values
    rhs = f.values - project_pi(f)
    return float(np.max(np.abs(lhs - rhs)))


def quadrature_residuals(grid: QuadratureGrid) -> dict[str, float]:
    """Errors of a sphere grid's Pi against closed forms of the uniform measure:
    pi_s = max |Pi s_i|, pi_ss = max |Pi s_i s_j - delta_ij/n| and, for
    n >= 3, sin_powers = max |Pi sin^k theta_i - I(e+k)/I(e)| over k = 1, 2
    and the polar angles theta_i (density sin^e, e = n-1-i; I is
    sin_power_integral). Unlike the identities of Pi, Q and R0, which hold to
    roundoff for any weights summing to 1, these show a coarse grid."""
    n, w, s = grid.dimension, grid.weights, grid.directions
    report = {
        "pi_s": float(np.max(np.abs(w @ s))),
        "pi_ss": float(np.max(np.abs((s.T * w) @ s - np.eye(n) / n))),
    }
    errors = [
        abs(float(w @ np.sin(grid.nodes[:, i - 1]) ** k)
            - sin_power_integral(n - 1 - i + k) / sin_power_integral(n - 1 - i))
        for i in range(1, n - 1)
        for k in (1, 2)
    ]
    if errors:
        report["sin_powers"] = max(errors)
    return report


# ---------------------------------------------------------------------------
# smooth test functions with analytic derivatives


@dataclass(frozen=True)
class TestFunction:
    """Smooth function on R^n with analytic derivatives up to third order."""

    __test__ = False  # keep pytest from collecting this as a test class

    dimension: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    third: Callable[[np.ndarray], np.ndarray]


def gaussian_bump(center: np.ndarray, width: float) -> TestFunction:
    """exp(-|x - center|^2 / (2 width^2)) with closed-form derivatives.

    Not compactly supported, but decays fast enough that no estimate here
    depends on the tails.
    """
    center = np.asarray(center, dtype=float)
    n = center.size
    w2 = float(width) ** 2

    def value(x):
        u = np.asarray(x, dtype=float) - center
        return float(np.exp(-0.5 * np.dot(u, u) / w2))

    def gradient(x):
        u = np.asarray(x, dtype=float) - center
        return (-u / w2) * value(x)

    def hessian(x):
        u = np.asarray(x, dtype=float) - center
        return (np.outer(u, u) / w2**2 - np.eye(n) / w2) * value(x)

    def third(x):
        u = np.asarray(x, dtype=float) - center
        eye = np.eye(n)
        t = -np.einsum("i,j,k->ijk", u, u, u) / w2**3
        t += (
            np.einsum("ij,k->ijk", eye, u)
            + np.einsum("ik,j->ijk", eye, u)
            + np.einsum("jk,i->ijk", eye, u)
        ) / w2**2
        return t * value(x)

    return TestFunction(n, value, gradient, hessian, third)


def gaussian_monomial(center: np.ndarray, width: float, axis: int) -> TestFunction:
    """(x_axis - center_axis) * gaussian_bump(center, width)."""
    g = gaussian_bump(center, width)
    center = np.asarray(center, dtype=float)
    n = center.size
    if not 0 <= axis < n:
        raise ValueError(f"axis must lie in [0, {n}), got {axis}")

    def value(x):
        u = np.asarray(x, dtype=float) - center
        return float(u[axis]) * g.value(x)

    def gradient(x):
        u = np.asarray(x, dtype=float) - center
        grad = u[axis] * g.gradient(x)
        grad[axis] += g.value(x)
        return grad

    def hessian(x):
        u = np.asarray(x, dtype=float) - center
        gg = g.gradient(x)
        h = u[axis] * g.hessian(x)
        h[axis, :] += gg
        h[:, axis] += gg
        return h

    def third(x):
        u = np.asarray(x, dtype=float) - center
        gh = g.hessian(x)
        t = u[axis] * g.third(x)
        t[axis, :, :] += gh
        t[:, axis, :] += gh
        t[:, :, axis] += gh
        return t

    return TestFunction(n, value, gradient, hessian, third)


def linear_function(coefficients: np.ndarray, constant: float = 0.0) -> TestFunction:
    """a . x + b; zero Hessian and third derivatives."""
    a = np.asarray(coefficients, dtype=float)
    n = a.size

    return TestFunction(
        n,
        value=lambda x: float(np.dot(a, np.asarray(x, dtype=float)) + constant),
        gradient=lambda x: a.copy(),
        hessian=lambda x: np.zeros((n, n)),
        third=lambda x: np.zeros((n, n, n)),
    )


def finite_difference_check(
    phi: TestFunction, rng: np.random.Generator, n_points: int = 100, h: float = 1e-5
) -> tuple[float, float]:
    """Max relative error of (gradient vs FD of value, hessian vs FD of gradient)."""
    n = phi.dimension
    worst_g = 0.0
    worst_h = 0.0
    for _ in range(n_points):
        x = rng.uniform(-1.5, 1.5, size=n)
        grad = phi.gradient(x)
        hess = phi.hessian(x)
        scale_g = max(1.0, float(np.max(np.abs(grad))))
        scale_h = max(1.0, float(np.max(np.abs(hess))))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd_g = (phi.value(x + e) - phi.value(x - e)) / (2 * h)
            worst_g = max(worst_g, abs(fd_g - grad[i]) / scale_g)
            fd_h = (phi.gradient(x + e) - phi.gradient(x - e)) / (2 * h)
            worst_h = max(worst_h, float(np.max(np.abs(fd_h - hess[i]))) / scale_h)
    return worst_g, worst_h


def apply_s(theta: AngleVector, phi: TestFunction, x: np.ndarray) -> float:
    """Directional transport in generator notation: -(s(theta), grad phi(x))."""
    if theta.dimension != phi.dimension:
        raise ValueError(
            f"angle dimension {theta.dimension} != test function dimension {phi.dimension}"
        )
    s = directions_from_angles(theta.angles)
    return -float(np.dot(s, phi.gradient(np.asarray(x, dtype=float))))


# ---------------------------------------------------------------------------
# fields of derivative coefficients over the grid


def _derivative_values(
    phi: TestFunction, x: np.ndarray, d1: np.ndarray, d2: np.ndarray | None = None
) -> np.ndarray:
    """d1 . grad phi(x) + d2 : hess phi(x) at every node, for d1 (M, n) and d2 (M, n, n)."""
    values = np.zeros(d1.shape[0]) + d1 @ phi.gradient(x)
    if d2 is not None:
        values = values + np.einsum("mij,ij->m", d2, phi.hessian(x))
    return values


def _transported_values(
    phi: TestFunction, x: np.ndarray, s: np.ndarray, d1: np.ndarray, d2: np.ndarray | None = None
) -> np.ndarray:
    """(s, grad)(d1 . grad phi + d2 : hess phi) at x, at every node.

    s is contracted into the derivatives of phi first (s . hess and s . third,
    (M, n) and (M, n, n)), so no (M, n, n, n) array is built.
    """
    m = d1.shape[0]
    values = np.zeros(m) + np.einsum("mi,mi->m", d1, s @ phi.hessian(x))
    if d2 is not None:
        s_third = np.einsum("mi,ijk->mjk", s, phi.third(x))
        values = values + np.einsum("mi,mi->m", d2.reshape(m, -1), s_third.reshape(m, -1))
    return values


def _node_speeds(profile: VelocityProfile, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    c, c1, atoms = grid_speeds(profile, grid)
    if atoms:
        raise ProfileError("atoms are point masses that no node of a sphere grid carries; "
                           "the hierarchy takes them on a finite law's grid only")
    return c, c1


def lab_limit_coefficients(
    profile: VelocityProfile, grid: QuadratureGrid
) -> tuple[np.ndarray, np.ndarray]:
    """(drift, diffusion) assembled through the operator hierarchy.

    drift_i = Pi[c1 s_i]; diffusion is Pi[c s ox (-R0 c s)], i.e. the
    second-order coefficient of Pi[c T phi1]: E[c^2 s_i s_j] minus the rank-one
    correction E[c s_i] E[c s_j] (zero under exact balance). Works directly
    with (M, n) contractions so it scales to fine grids in high dimension.
    """
    c, c1 = _node_speeds(profile, grid)
    s = grid.directions
    w = grid.weights
    b = c[:, None] * s
    mean_b = w @ b
    centered = b - mean_b
    diffusion = np.einsum("m,mk,mi->ki", w * c, s, centered)
    diffusion = 0.5 * (diffusion + diffusion.T)
    drift = w @ (c1[:, None] * s)
    return drift, diffusion


@dataclass(frozen=True)
class PerturbationSolution:
    """Solved corrector hierarchy at a fixed spatial point.

    phi1 and phi2 are the corrector fields evaluated at x; limit_value is
    L0 phi(x); drift and diffusion are the assembled generator coefficients
    (physical sign). c and c1 are the node speeds, a1, b1 and b2 the corrector
    coefficients (module docstring), and residual(eps) the sup over nodes of
    the exact remainder eps * r1 + eps^2 * r2.
    """

    grid: QuadratureGrid
    point: np.ndarray
    test_function: TestFunction
    phi1: ThetaField
    phi2: ThetaField
    limit_value: float
    drift: np.ndarray
    diffusion: np.ndarray
    c: np.ndarray
    c1: np.ndarray
    a1: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    def residual(self, eps: float) -> float:
        return float(np.max(np.abs(eps * self.r1 + eps**2 * self.r2)))


def _pi(arr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pi applied to each coefficient of a field of shape (M, ...)."""
    return np.einsum("m...,m->...", arr, w)


def solve_perturbation(
    profile: VelocityProfile, phi: TestFunction, x: np.ndarray, grid: QuadratureGrid
) -> PerturbationSolution:
    """Solve the corrector hierarchy for the given profile and test function.

    Requires the balance condition; otherwise raises SolvabilityError naming
    the residual vector. The correctors are exact on the grid, so the
    assembled remainder is identically eps * r1 + eps^2 * r2.
    """
    report = check_balance(profile, grid)
    if not report.satisfied:
        raise SolvabilityError(report)
    if phi.dimension != grid.dimension:
        raise ValueError(
            f"test function dimension {phi.dimension} != grid dimension {grid.dimension}"
        )
    x = np.asarray(x, dtype=float)
    c, c1 = _node_speeds(profile, grid)
    s, w = grid.directions, grid.weights
    c_s = s * c[:, None]
    a1 = c_s - _pi(c_s, w)                      # phi1 = -R0 [c T phi]
    c1_s = s * c1[:, None]
    b2 = np.einsum("mi,mj->mij", s, a1)
    b2 *= c[:, None, None]                      # c T phi1
    drift = _pi(c1_s, w)                        # L0 = Pi [c T phi1 + c1 T phi]
    diffusion = _pi(b2, w)
    b1 = c1_s - drift                           # phi2 = -R0 [c T phi1 + c1 T phi]
    b2 -= diffusion
    diffusion = 0.5 * (diffusion + diffusion.T)
    limit_value = float(drift @ phi.gradient(x) + np.sum(diffusion * phi.hessian(x)))
    # r1 = c T phi2 + c1 T phi1 and r2 = c1 T phi2, evaluated at x only
    t_phi1 = _transported_values(phi, x, s, a1)
    t_phi2 = _transported_values(phi, x, s, b1, b2)

    return PerturbationSolution(
        grid=grid,
        point=x,
        test_function=phi,
        phi1=ThetaField(grid, _derivative_values(phi, x, a1)),
        phi2=ThetaField(grid, _derivative_values(phi, x, b1, b2)),
        limit_value=limit_value,
        drift=drift,
        diffusion=diffusion,
        c=c,
        c1=c1,
        a1=a1,
        b1=b1,
        b2=b2,
        r1=c * t_phi2 + c1 * t_phi1,
        r2=c1 * t_phi2,
    )


def assembled_generator_residual(solution: PerturbationSolution, eps: float) -> float:
    """Sup-node |L_eps phi_eps - L0 phi| assembled term by term.

    Applies eps^-2 Q + eps^-1 c T + c1 T to phi + eps phi1 + eps^2 phi2
    directly, without using the closed-form remainder; agreement with
    solution.residual(eps) certifies the hierarchy solve.
    """
    sol, phi, x = solution, solution.test_function, solution.point
    w, s = sol.grid.weights, sol.grid.directions
    # phi_eps = phi + d1 . grad phi + d2 : hess phi
    d1 = sol.a1 * eps + sol.b1 * eps**2
    d2 = sol.b2 * eps**2
    q_part = ((np.sum(w) - 1.0) * eps**-2 * phi.value(x)
              + _derivative_values(phi, x, (_pi(d1, w) - d1) * eps**-2,
                                   (_pi(d2, w) - d2) * eps**-2))
    transport = s @ phi.gradient(x) + _transported_values(phi, x, s, d1, d2)
    values = q_part + (sol.c / eps) * transport + sol.c1 * transport
    return float(np.max(np.abs(values - sol.limit_value)))


def residual_scaling(
    profile: VelocityProfile,
    phi: TestFunction,
    x: np.ndarray,
    grid: QuadratureGrid,
    eps_list,
) -> RateFit:
    """Log-log slope of the perturbation remainder across epsilon values.

    Requires a sweep that meets check_eps_sweep over two decades. When every
    residual is below 1e-14 the fit is reported as exact (this happens for
    test functions whose relevant derivatives vanish identically).
    """
    eps = check_eps_sweep(eps_list, decades=2)
    solution = solve_perturbation(profile, phi, x, grid)
    residuals = np.array([solution.residual(float(e)) for e in eps])
    return fit_loglog(eps, residuals)
