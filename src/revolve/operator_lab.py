"""Discretized generator algebra of the switching evolution.

The algebra needs only the switching law's stationary measure, which its
grid carries (law.grid in limits): a sphere grid under uniform switching,
the law's own directions under a finite law. On it the averaging projector,
the switching generator and the potential operator act on
direction-dependent fields f(theta) as

    Pi f  = sum_m w_m f_m          (projects onto constants),
    Q f   = Pi f - f               (null-space: constants),
    R0 f  = Pi f - f               (inverts Q on mean-zero fields,
                                    annihilates constants),

satisfying Pi Pi = Pi, Q Pi = Pi Q = 0 and R0 Q = Q R0 = I - Pi exactly up
to roundoff. Q = Pi - I is minus the projection onto mean-zero fields, so
it is its own inverse there: R0 and Q share one formula, apply_q.

The transport operator couples the direction to a smooth test function phi
on R^n. The customary generator notation writes it
S(theta) phi = -(s(theta), grad phi); the perturbation solver below instead
uses the transport sign +(s, grad), the operator that actually generates the
simulated motion dx/dt = v * s(theta). As a consequence all assembled limit
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

Nor is b2 held whole: it is built one slab of _SLAB_NODES nodes at a time,
twice. The first pass sums Pi[c s (x) a1] node after node, the order in
which einsum sums a whole (M, n, n) array, so no slab size moves a bit; the
second rebuilds each slab, subtracts that mean and adds the slab's b2 terms
to phi2 and to its transport at x. The solve's memory grows as M n, not
M n^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .limits import BalanceError
from .profiles import ProfileError, VelocityProfile, balance_report, first_moment, grid_speeds
from .sphere import QuadratureGrid, sin_power_integral
from .rates import RateFit, check_eps_sweep, fit_loglog

__all__ = [
    "ThetaField",
    "TestFunction",
    "PerturbationSolution",
    "SolvabilityError",
    "project_pi",
    "apply_q",
    "potential_identity_error",
    "quadrature_residuals",
    "gaussian_bump",
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


def potential_identity_error(f: ThetaField) -> float:
    """Sup-norm of R0(Q f) - (f - Pi f); zero up to roundoff for any field."""
    lhs = apply_q(apply_q(f)).values  # R0 = Q
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
        "pi_s": float(np.max(np.abs(np.einsum("m,mi->i", w, s)))),
        "pi_ss": float(np.max(np.abs((s.T * w) @ s - np.eye(n) / n))),
    }
    errors = []
    for i in range(1, n - 1):
        sin_i = np.sin(grid.nodes[:, i - 1])
        errors += [
            abs(grid.average(sin_i**k)
                - sin_power_integral(n - 1 - i + k) / sin_power_integral(n - 1 - i))
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


# ---------------------------------------------------------------------------
# fields of derivative coefficients over the grid


def _hessian_terms(d2: np.ndarray, hessian: np.ndarray) -> np.ndarray:
    """d2 : hess phi at every node, for d2 (M, n, n)."""
    return np.einsum("mij,ij->m", d2, hessian)


def _s_dot_third(s: np.ndarray, third: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of s @ third, with third of phi as (n, n*n): n terms per entry.

    numpy hands a one-row product to BLAS gemv, whose sums may differ in the
    last bit from gemm's, so a lone node is multiplied with a neighbour.
    """
    if hi - lo > 1 or s.shape[0] == 1:
        return s[lo:hi] @ third
    pair = max(lo - 1, 0)
    return (s[pair:pair + 2] @ third)[lo - pair:lo - pair + 1]


def _transported_hessian_terms(d2: np.ndarray, s_third: np.ndarray) -> np.ndarray:
    """(s, grad)(d2 : hess phi) at every node, for d2 (M, n, n) and s . third (M, n*n)."""
    return np.einsum("mi,mi->m", d2.reshape(d2.shape[0], -1), s_third)


def _derivative_values(
    phi: TestFunction, x: np.ndarray, d1: np.ndarray, d2: np.ndarray | None = None
) -> np.ndarray:
    """d1 . grad phi(x) + d2 : hess phi(x) at every node, for d1 (M, n) and d2 (M, n, n)."""
    values = np.zeros(d1.shape[0]) + d1 @ phi.gradient(x)
    if d2 is not None:
        values += _hessian_terms(d2, phi.hessian(x))
    return values


def _transported_values(
    phi: TestFunction, x: np.ndarray, s: np.ndarray, d1: np.ndarray, d2: np.ndarray | None = None
) -> np.ndarray:
    """(s, grad)(d1 . grad phi + d2 : hess phi) at x, at every node.

    s is contracted into the derivatives of phi first (s . hess and s . third,
    (M, n) and (M, n, n)), so no (M, n, n, n) array is built.
    """
    m, n = s.shape
    values = np.zeros(m) + np.einsum("mi,mi->m", d1, s @ phi.hessian(x))
    if d2 is not None:
        values += _transported_hessian_terms(d2, s @ phi.third(x).reshape(n, -1))
    return values


def _node_speeds(speeds: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(c, c1) of a grid_speeds reading that has no point-mass atoms."""
    c, c1, atoms = speeds
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
    c, c1 = _node_speeds(grid_speeds(profile, grid))
    s = grid.directions
    w = grid.weights
    b = c[:, None] * s
    centered = b - np.einsum("m,mi->i", w, b)
    diffusion = np.einsum("mk,mi->ki", (w * c)[:, None] * s, centered)
    diffusion = 0.5 * (diffusion + diffusion.T)
    drift = np.einsum("m,mi->i", w, c1[:, None] * s)
    return drift, diffusion


@dataclass(frozen=True)
class PerturbationSolution:
    """Solved corrector hierarchy at a fixed spatial point.

    phi1 and phi2 are the corrector fields evaluated at x; limit_value is
    L0 phi(x); drift and diffusion are the assembled generator coefficients
    (physical sign). c and c1 are the node speeds, a1 and b1 the (M, n)
    corrector coefficients (module docstring), and residual(eps) the sup over
    nodes of the exact remainder eps * r1 + eps^2 * r2. The (M, n, n)
    coefficient b2 is not held: the solve builds it one slab of nodes at a
    time, and it follows from c, a1 and the grid.
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
    r1: np.ndarray
    r2: np.ndarray

    def residual(self, eps: float) -> float:
        return float(np.max(np.abs(eps * self.r1 + eps**2 * self.r2)))


def _pi(arr: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pi applied to each coefficient of a field of shape (M, ...)."""
    return np.einsum("m...,m->...", arr, w)


# Nodes per slab of b2 = c s (x) a1 - Pi[c s (x) a1]: 1.6 MiB a slab at n = 5.
_SLAB_NODES = 8192


def _c_s_a1_slabs(s: np.ndarray, a1: np.ndarray, c: np.ndarray, rows: np.ndarray):
    """(lo, hi, block) for consecutive slabs of nodes, block = c s (x) a1 on
    nodes lo:hi, written into the leading rows of the (slab, n, n) array rows."""
    m = s.shape[0]
    for lo in range(0, m, rows.shape[0]):
        hi = min(lo + rows.shape[0], m)
        block = np.einsum("mi,mj->mij", s[lo:hi], a1[lo:hi], out=rows[: hi - lo])
        block *= c[lo:hi, None, None]
        yield lo, hi, block


def solve_perturbation(
    profile: VelocityProfile, phi: TestFunction, x: np.ndarray, grid: QuadratureGrid
) -> PerturbationSolution:
    """Solve the corrector hierarchy for the given profile and test function.

    Requires the balance condition; otherwise raises SolvabilityError naming
    the residual vector. The correctors are exact on the grid, so the
    assembled remainder is identically eps * r1 + eps^2 * r2.
    """
    speeds = grid_speeds(profile, grid)  # the one reading of the profile
    report = balance_report(first_moment(grid, speeds, 0))
    if not report.satisfied:
        raise SolvabilityError(report)
    if phi.dimension != grid.dimension:
        raise ValueError(
            f"test function dimension {phi.dimension} != grid dimension {grid.dimension}"
        )
    x = np.asarray(x, dtype=float)
    c, c1 = _node_speeds(speeds)
    s, w = grid.directions, grid.weights
    m, n = s.shape
    a1 = s * c[:, None]
    a1 -= _pi(a1, w)                            # phi1 = -R0 [c T phi]
    b1 = s * c1[:, None]
    drift = _pi(b1, w)                          # L0 = Pi [c T phi1 + c1 T phi]
    b1 -= drift                                 # phi2 = -R0 [c T phi1 + c1 T phi]
    # Pi [c T phi1] node after node: row 0 carries the sum of the earlier slabs
    buffer = np.empty((min(_SLAB_NODES, m) + 1, n, n))
    buffer[0] = 0.0
    diffusion = np.empty((n, n))
    for lo, hi, block in _c_s_a1_slabs(s, a1, c, buffer[1:]):
        block *= w[lo:hi, None, None]
        np.add.reduce(buffer[: hi - lo + 1], axis=0, out=diffusion)
        buffer[0] = diffusion
    # r1 = c T phi2 + c1 T phi1 and r2 = c1 T phi2, evaluated at x only
    phi2 = _derivative_values(phi, x, b1)
    t_phi2 = _transported_values(phi, x, s, b1)
    hessian, third = phi.hessian(x), phi.third(x).reshape(n, -1)
    for lo, hi, b2 in _c_s_a1_slabs(s, a1, c, buffer[1:]):
        b2 -= diffusion
        phi2[lo:hi] += _hessian_terms(b2, hessian)
        t_phi2[lo:hi] += _transported_hessian_terms(b2, _s_dot_third(s, third, lo, hi))
    diffusion = 0.5 * (diffusion + diffusion.T)
    limit_value = float(drift @ phi.gradient(x) + np.sum(diffusion * hessian))
    t_phi1 = _transported_values(phi, x, s, a1)

    return PerturbationSolution(
        grid=grid,
        point=x,
        test_function=phi,
        phi1=ThetaField(grid, _derivative_values(phi, x, a1)),
        phi2=ThetaField(grid, phi2),
        limit_value=limit_value,
        drift=drift,
        diffusion=diffusion,
        c=c,
        c1=c1,
        a1=a1,
        b1=b1,
        r1=c * t_phi2 + c1 * t_phi1,
        r2=c1 * t_phi2,
    )


def assembled_generator_residual(solution: PerturbationSolution, eps: float) -> float:
    """Sup-node |L_eps phi_eps - L0 phi| assembled term by term.

    Applies eps^-2 Q + eps^-1 c T + c1 T to phi + eps phi1 + eps^2 phi2
    directly, without using the closed-form remainder; agreement with
    solution.residual(eps) certifies the hierarchy solve. It builds b2 whole
    from the solution's c, a1 and grid, (M, n, n) doubles.
    """
    sol, phi, x = solution, solution.test_function, solution.point
    w, s = sol.grid.weights, sol.grid.directions
    c_s_a1 = np.einsum("mi,mj->mij", s, sol.a1) * sol.c[:, None, None]
    b2 = c_s_a1 - _pi(c_s_a1, w)
    # phi_eps = phi + d1 . grad phi + d2 : hess phi
    d1 = sol.a1 * eps + sol.b1 * eps**2
    d2 = b2 * eps**2
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
